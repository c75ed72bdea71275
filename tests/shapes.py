"""The stream shapes: one instance on each side of every cutover that
lincong.core._blocks decides, by name, and the reference rows and the
reference writer that solve's and enumerate's output is checked against.
`python tests/shapes.py` writes each entry in both formats at --limit 1025
through the installed `lincong` command, and exits 1 unless its bytes are
those of an in-process cli.main.  Only the functions import lincong, so
tests/mutants.py reads the table without it.
"""

import io
import itertools
import json
import subprocess
import sys
import time
from contextlib import redirect_stdout
from math import gcd

# name: (coeffs, m, expand, the (path, depth) plan, the entry's own limits)
# for a1*x1 + ... + an*xn ≡ 0 (mod m), written by enumerate if expand, else
# solve.  No benchmark workload runs the runs or slices paths or a deep
# group, so this table is their guard.
STREAM_SHAPES = {
    "seeds-basis": ((2, -6), 12, False, ("seeds", 2), ()),
    "seeds-basis-3000": ((1, 1), 3000, False, ("seeds", 2), (1023, 2049)),
    # 100,000 rows under the empty prefix, the last of them 99999 1
    "seeds-basis-one-run": ((1, 1), 100000, False, ("seeds", 2), (None,)),
    # at p2 = 1 every expansion is its seed, so enumerate writes solve's rows
    "seeds-p2-1": ((1, 1), 3000, True, ("seeds", 2), (1023, 2049)),
    "seeds-n-1": ((3,), 7, True, ("seeds", 1), ()),
    "seeds-m-1": ((1,), 1, True, ("seeds", 1), ()),
    "seed-major-p2-4": ((2, 2), 1000, True, ("seed-major", 2), ()),
    "seed-major-p2-8": ((8, 1), 1000, True, ("seed-major", 2), (7,)),
    "seed-major-last-7": ((1, 7), 700, True, ("seed-major", 2), ()),
    "runs-p2-9": ((3, 3), 9, True, ("runs", 1), ()),
    "runs-last-8": ((1, 8), 16, True, ("runs", 1), ()),
    "runs-1024": ((1, 0), 1024, True, ("runs", 1), ()),
    # one seed whose 32 runs take the same 250 values: 790 cuts the fourth
    # run right after three equal ones, so the cut run is rendered afresh
    "runs-32-equal": ((224, 750), 4000, True, ("runs", 1), (250, 750, 790, 1000, 1001)),
    "slices-1025": ((1, 0), 1025, True, ("slices", 1), ()),
    # a cycle of 10**300 values: written with no limit, it would never end
    "slices-300-digits": ((1, 0), 10**300, True, ("slices", 1), ()),
    # four slices a prefix: 5000 cuts the second prefix's first slice
    "slices-across-a-prefix": ((2048, 0), 4096, True, ("slices", 1), (4096, 4097, 5000)),
    "runs-15-prefixes": ((15, 1), 15, True, ("runs", 1), ()),
    # three moving prefix coordinates, so the odometer carries across them
    "runs-3-moving": ((2, 2, 2, 8), 16, True, ("runs", 1), ()),
    "groups-16-prefixes": ((16, 1), 16, True, ("groups", 1), ()),
    # 64 prefixes of 16 rows a pair, then 61 to end the seed
    "groups-64-prefixes": ((125, 16), 4000, True, ("groups", 1), (1025,)),
    # 64 prefixes of 2 rows a pair: 1025 cuts one row into the ninth group
    "groups-2-rows": ((64, 2), 65536, True, ("groups", 1), (1025,)),
    "groups-deep": ((16, 4, 4), 64, True, ("groups", 2), ()),
    # x1 takes two values outside the group, so each group shares it as its
    # fixed lead, and a group of x2's 16 values has 32 rows each
    "groups-fixed-lead": ((2, 16, 32), 64, True, ("groups", 1), ()),
    "deep-2": ((42, 28, 12), 84, True, ("deep", 2), ()),
    # a tie: 8 runs at depth 1, and a depth-2 block of 4 rows joined 4 times
    "deep-2-tie": ((4, 2, 2), 8, True, ("deep", 2), ()),
    # blocks of 300 rows: 300 ends the first, 301 and 1000 cut the next ones
    "deep-3": ((15, 10, 6, 5), 30, True, ("deep", 3), (300, 301, 1000)),
}


def per_row_output(c, fmt, rows, limit, expand=True):
    """The whole stdout of `enumerate` (expand true) or `solve` for c given by
    --coeffs, --rhs and --mod, written one row at a time: json.dumps of the
    whole document for JSON, whose rows key is "solutions" or "basis" and is
    left out when c is unsolvable; for text, solve's counting summary, then a
    "%d" format per row.  The rows run one past the limit, or are the whole
    stream."""
    from lincong.core import summarize
    from lincong.parser import ParsedCongruence, format_congruence

    s = summarize(c)
    cut = limit is not None and limit < len(rows)
    rows = rows[:limit] if cut else rows
    if fmt == "json":
        doc = {"d": str(s.gcd_all), "solvable": s.solvable, "p1": str(s.solution_count),
               "p2": str(s.expansion_count), "s": str(s.basis_size)}
        if s.solvable:
            doc["solutions" if expand else "basis"] = rows
        return json.dumps({**doc, "truncated": cut}) + "\n"
    head = []
    if not expand:
        names = tuple(f"x{i}" for i in range(1, c.arity + 1))
        parsed = ParsedCongruence(names, c.coeffs, c.rhs, c.modulus)
        head = [f"congruence: {format_congruence(parsed)}", f"d = {s.gcd_all}",
                f"solvable = {str(s.solvable).lower()}", f"solutions (p1) = {s.solution_count}",
                f"per-seed (p2) = {s.expansion_count}", f"basis size (s) = {s.basis_size}",
                *["basis:"] * s.solvable]
    row_format = " ".join(["%d"] * c.arity)
    return "".join(line + "\n" for line in [*head, *(row_format % row for row in rows),
                                            *["# truncated"] * cut])


def reference_rows(c, limit=None, expand=True):
    """solve's basis rows (expand false) or enumerate's solutions, up to one
    past the limit, by code that shares nothing with lincong's writer: the
    solutions with 0 <= x_i < m // gcd(a_i, m) in lexicographic order, each
    expanded by the reference odometer.  Where m**n <= 10**6 they are checked
    against the oracle: distinct solutions, all of them if the stream ends."""
    from helpers import iter_reference_expand, lex_rows
    from lincong.oracle import brute_force

    m = c.modulus
    strides = [m // gcd(a, m) for a in c.coeffs]
    rows = lex_rows(c, strides)
    if expand:
        rows = itertools.chain.from_iterable(iter_reference_expand(x, c) for x in rows)
    rows = list(itertools.islice(rows, None if limit is None else min(limit + 1, sys.maxsize)))
    if m ** c.arity <= 10**6:
        want = brute_force(c)
        if not expand:
            want = {x for x in want if all(map(int.__lt__, x, strides))}
        assert len(rows) == len(set(rows)) and want.issuperset(rows)
        assert len(rows) == len(want) or limit is not None and len(rows) == limit + 1
    return rows


def main():
    from lincong.cli import main as cli_main

    start, failed = time.perf_counter(), 0
    for name, (coeffs, m, expand, _, _) in STREAM_SHAPES.items():
        for fmt in ("text", "json"):
            args = ["enumerate" if expand else "solve", f"--coeffs={','.join(map(str, coeffs))}",
                    "--rhs=0", f"--mod={m}", "--format", fmt, "--limit", "1025"]
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli_main(args)
            proc = subprocess.run(["lincong", *args], capture_output=True, timeout=60)
            want = (code, b"", out.getvalue().encode())
            if (proc.returncode, proc.stderr, proc.stdout) != want:
                failed += 1
                print(f"{name} ({fmt}): lincong exited {proc.returncode} with {len(proc.stdout)} "
                      f"bytes, cli.main {code} with {len(out.getvalue())}")
    print(f"{len(STREAM_SHAPES)} stream shapes in 2 formats, {failed} differing, "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
