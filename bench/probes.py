"""Known-defect probes: reproducers that fail on today's code.

Run as a child process by run.py (`python3 bench/probes.py`), once per
benchmark invocation, outside the timed mix.  Each probe runs under its own
time limit and prints nothing but the final JSON line, a list of
{"name", "ok", "detail"}.  A probe passes only with the correct answer,
checked with this file's own arithmetic; any exception, a wrong answer or the
time limit is a failure, never a crash of the benchmark.
"""

from __future__ import annotations

import io
import json
import signal
import sys
from contextlib import redirect_stderr, redirect_stdout
from math import gcd
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import lincong.cli  # noqa: E402
import lincong.core  # noqa: E402

PROBE_SECONDS = 1.0


class ProbeTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ProbeTimeout(f"no answer within {PROBE_SECONDS} s")


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = lincong.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _decimal(n: int) -> str:
    """str(n) for n >= 0 of any size.

    The probes must not lift the interpreter's int/str digit limit, since two
    of them test how lincong copes with it.
    """
    if n < 10**1000:
        return str(n)
    half = int(n.bit_length() * 0.30103) // 2
    hi, lo = divmod(n, 10**half)
    return _decimal(hi) + _decimal(lo).zfill(half)


def _summary(coeffs, rhs, m, echo):
    d = gcd(*coeffs, m)
    p2 = 1
    for a in coeffs:
        p2 *= gcd(a, m)
    p1 = d * m ** (len(coeffs) - 1)
    return [f"congruence: {echo}", f"d = {_decimal(d)}",
            f"solvable = {'true' if rhs % d == 0 else 'false'}",
            f"solutions (p1) = {_decimal(p1)}", f"per-seed (p2) = {_decimal(p2)}",
            f"basis size (s) = {_decimal(p1 // p2)}"]


def fibonacci_egcd():
    """find_particular on consecutive ~250-digit Fibonacci numbers (recursive _egcd)."""
    f0, f1 = 0, 1
    while len(str(f1)) < 250:
        f0, f1 = f1, f0 + f1
    m, b = 10**260 + 7, 1
    x = lincong.core.find_particular(lincong.core.normalize([f0, f1], b, m))
    ok = x is not None and len(x) == 2 and (f0 * x[0] + f1 * x[1] - b) % m == 0
    return ok, f"returned {x!r:.60}"


def sixty_unknowns():
    """solve with 60 unknowns mod 10**100-1: p1 has ~5900 digits (int/str limit)."""
    m = 10**100 - 1
    coeffs = list(range(1, 61))
    echo = " + ".join(f"{a}*x{i}" for i, a in enumerate(coeffs, start=1)) + f" ≡ 1 (mod {m})"
    code, out, err = _cli(["solve", f"--coeffs={','.join(map(str, coeffs))}", "--rhs=1",
                           f"--mod={m}", "--limit=0"])
    want = "\n".join(_summary(coeffs, 1, m, echo) + ["basis:", "# truncated"]) + "\n"
    return code == 0 and out == want, f"exit {code}: {err.strip()[:80]}"


def long_modulus_literal():
    """A 5000-digit modulus literal (int/str limit in the parser and the echo)."""
    m = 10**4999 + 9
    literal = _decimal(m)
    code, out, err = _cli(["solve", f"x ≡ 1 (mod {literal})", "--limit=0"])
    want = _summary([1], 1, m, f"1*x ≡ 1 (mod {literal})") + ["basis:", "# truncated"]
    want = "\n".join(want) + "\n"
    return code == 0 and out == want, f"exit {code}: {err.strip()[:80]}"


def superscript_digit():
    """'²' passes str.isdigit(); it must be a positioned parse error, exit code 2."""
    code, out, err = _cli(["solve", "x ≡ 1 (mod 7²)"])
    return code == 2 and err.startswith("error: position "), f"exit {code}: {err.strip()[:80]}"


def first_row_prefix_scan():
    """solve --limit 1 whose first basis row sits ~1e20 prefixes into the scan."""
    p, q = 10**20 + 39, 10**20 + 51
    m, b = p * q, p - 1
    code, out, err = _cli(["solve", f"--coeffs=1,{p}", f"--rhs={b}", f"--mod={m}", "--limit=1"])
    want = _summary([1, p], b, m, f"1*x1 + {p}*x2 ≡ {b} (mod {m})")
    want += ["basis:", f"{p - 1} 0", "# truncated"]
    return code == 0 and out == "\n".join(want) + "\n", f"exit {code}: {err.strip()[:80]}"


PROBES = (fibonacci_egcd, sixty_unknowns, long_modulus_literal, superscript_digit,
          first_row_prefix_scan)


def run_probe(probe) -> dict:
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, PROBE_SECONDS)
    try:
        ok, detail = probe()
    except Exception as exc:  # a probe reports every failure; none may escape
        ok, detail = False, f"{type(exc).__name__}: {str(exc)[:80]}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {"name": probe.__name__, "ok": ok, "detail": detail}


if __name__ == "__main__":
    print(json.dumps([run_probe(p) for p in PROBES]))
