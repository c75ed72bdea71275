"""Closed-loop benchmark of lincong: one process, one thread, one client.

    python3 bench/run.py --workload counts --seed 1 --seconds 22 --trace 0
    python3 bench/run.py --workload all            # every workload, one table

The client issues each operation only after the previous one returned.  An
operation calls lincong's public surface in-process: `lincong.cli.main(argv)`
with stdout captured, or a documented library function.  Inputs come from a
generator seeded with --seed (workloads.py); every output is checked with the
benchmark's own arithmetic.

A run builds a fixed list of operations from the seed and from --seconds,
then executes the whole list PASSES times, a few seconds apart.  Pass 1
checks every output; later passes must print the same bytes.  An operation's
latency is the least of its passes.  The list does not depend on how fast the
machine is, so two commits measured with the same seed and --seconds run the
same operations.

The machine is shared; nothing pins the CPU or fixes its frequency, and its
speed changes by tens of percent from second to second and from minute to
minute.  The least of passes removes the first; a calibration kernel timed
the same way removes most of the second (see KERNEL_REF_S).  The report keeps
the unscaled figures.

--trace 0 measures the end-to-end metrics with no instrumentation.
--trace 1 runs the list once under the outside-in tracer (tracer.py), then
once untraced, and reports per-layer metrics and trace.overhead, the ratio of
the two.

The last line of stdout is the result object; the line before it is the full
report, also written to .bench_out/ with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

DEV_SEED = 1            # tune and develop with this seed
HELDOUT_SEED = 20071    # confirm a claimed gain with this one, never tune on it
DEFAULT_SECONDS = 22
SETUP_STARTS = 20       # cold starts spread over the passes; setup_s is their median
TAIL_BEYOND = 10        # the tail percentile keeps this many samples above it
# Passes over the list, a few seconds apart.  Every operation takes 1 to 45 ms,
# short enough that one of its passes usually meets the machine at full speed.
PASSES = 10
# Seconds one round adds to an untraced run (all passes) at the seed commit
# on a 2-CPU shared sandbox with Python 3.11.  A run has
# round(seconds / ROUND_SECONDS) rounds, so the amount of work depends on
# --seconds and never on the machine.
ROUND_SECONDS = {"counts": 0.5, "basis": 0.52, "stream": 1.3, "verify": 1.3}

# Least time of calibration_kernel() on the reference machine (a 2-CPU
# shared sandbox, Python 3.11).  Timed metrics are scaled by how much slower
# the kernel ran during the run than this; the report keeps the raw values.
KERNEL_REF_S = 0.002
RATES = ("ops_per_s", "rows_per_s")

E2E_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "rows_per_s": "rows/s",
             "latency_p50_ms": "ms", "latency_tail_ms": "ms", "peak_rss_mb": "MB"}
# reported beside the end-to-end metrics, not in the result object, because
# they are 0 whenever nothing is wrong
EXTRA_UNITS = {"failed_share": "ratio", "probes_failed": "count"}


def die(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


# The benchmark measures the lincong in this checkout's src/ and nothing else.
if not (SRC / "lincong" / "__init__.py").is_file():
    die(f"no lincong sources in {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import lincong  # noqa: E402
from probes import PROBES  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import (ROUNDS, WORKLOADS, CliResult, Instance, census_op, expect,  # noqa: E402
                       output_bytes, warm_up_ops)

if not Path(lincong.__file__).resolve().is_relative_to(SRC):
    die(f"imported lincong from {lincong.__file__}, not from {SRC}")


class Measurement:
    """Per operation of the list: best latency, rows emitted and output digest."""

    def __init__(self):
        self.best: list[float | None] = []   # None once the operation failed
        self.rows: list[int] = []
        self.digests: list[bytes] = []
        self.labels: dict[str, int] = {}
        self.kernel: dict[int, float] = {}    # round -> least calibration time
        self.round1 = hashlib.sha256()
        self.attempted = 0
        self.failures: list[str] = []

    def fail(self, what: str, exc: BaseException | str):
        if isinstance(exc, BaseException):
            exc = f"{type(exc).__name__}: {exc}"
        self.failures.append(f"{what}: {exc}")

    def ok(self) -> list[int]:
        return [i for i, b in enumerate(self.best) if b is not None]


def operations(workload: str, seed: int, rounds: int, census: bool):
    """(round, op) for the whole list; the same every time for the same arguments."""
    rng = random.Random(f"{workload}/{seed}")
    for r in range(rounds):
        for op in ROUNDS[workload](rng):
            yield r, op
    if census:
        # enters every layer once, so that no per-layer figure reads 0 or 0/0
        yield rounds, census_op()


def calibration_kernel() -> float:
    """Seconds taken by a fixed piece of interpreter work that never calls lincong.

    The work is of the kinds lincong does: big-int products and remainders,
    small tuples from a generator, int-to-str formatting and joins.
    """
    t0 = time.perf_counter()
    m, acc, rows = 10**60 + 7, 12345, []
    for i in range(1000):
        acc = (acc * 6364136223846793005 + i) % m
        row = tuple((acc >> k) % 1000 for k in (0, 9, 17))
        if sum(x * y for x, y in zip(row, (3, 5, 7))) % 7 != 1:
            rows.append(" ".join(map(str, row)))
    "\n".join(rows)
    return time.perf_counter() - t0


def run_pass(m: Measurement, ops, tracer=None) -> tuple[float, float]:
    """Run every operation once.

    Returns the time spent inside operations and the pass's slowness (see
    KERNEL_REF_S).  The calibration kernel runs at the start of every round
    and keeps its least time per round, exactly as the operations keep theirs.
    """
    first = not m.digests
    busy = 0.0
    kernel = []
    last_round = None
    for i, (r, op) in enumerate(ops):
        if r != last_round:
            last_round = r
            k = calibration_kernel()
            kernel.append(k)
            m.kernel[r] = min(m.kernel.get(r, k), k)
        if not first and m.best[i] is None:
            continue
        m.attempted += 1
        frame = tracer.open("bench", op.label) if tracer else None
        t0 = time.perf_counter()
        try:
            result = op.call()
        except (Exception, SystemExit) as exc:  # a failed operation, not a failed run
            if frame:
                tracer.close(frame)
            m.fail(op.label, exc)
            if first:
                m.best.append(None)
                m.rows.append(0)
                m.digests.append(b"")
            else:
                m.best[i] = None
            continue
        elapsed = time.perf_counter() - t0
        if frame:
            tracer.close(frame)
            if isinstance(result, CliResult):
                tracer.counts["cli.bytes_out"] += len(result.out.encode())
        out = output_bytes(result).encode()
        digest = hashlib.sha256(out).digest()
        if first:
            if r == 0:
                m.round1.update(out)
            m.labels[op.label] = m.labels.get(op.label, 0) + 1
            try:
                rows = op.check(result)
            except Exception as exc:  # any error while checking means a wrong output
                m.fail(op.label, exc)
                rows, elapsed = 0, None
            m.best.append(elapsed)
            m.rows.append(rows)
            m.digests.append(digest)
        elif digest != m.digests[i]:
            m.fail(op.label, "output differs from the first pass")
            m.best[i] = elapsed = None
        else:
            m.best[i] = min(m.best[i], elapsed)
        busy += elapsed or 0.0
    return busy, statistics.median(kernel) / KERNEL_REF_S


def measure_setup(m: Measurement, count: int) -> list[float]:
    """Cold `python -m lincong solve` of a trivial instance, in fresh interpreters."""
    inst = Instance((1,), 1, 3)
    want = "\n".join(expect(inst).summary_lines(inst) + ["basis:", "1"]) + "\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "lincong", "solve", "x1 ≡ 1 (mod 3)"]
    times = []
    for _ in range(count):
        m.attempted += 1
        t0 = time.perf_counter()
        try:
            r = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            m.fail("setup", "cold start timed out")
            continue
        elapsed = time.perf_counter() - t0
        if r.returncode != 0 or r.stdout != want:
            m.fail("setup", f"exit {r.returncode}: {r.stderr.strip()[:200]}")
        else:
            times.append(elapsed)
    return times


def warm_up(m: Measurement, workload: str, seed: int):
    """Checked, untimed operations before timing: lazy imports, caches, bytecode."""
    for op in warm_up_ops(workload, random.Random(f"{workload}/{seed}/warm-up")):
        m.attempted += 1
        try:
            op.check(op.call())
        except (Exception, SystemExit) as exc:
            m.fail(f"warm-up {op.label}", exc)


def run_probes() -> list[dict]:
    try:
        r = subprocess.run([sys.executable, str(BENCH / "probes.py")], cwd=ROOT,
                           capture_output=True, text=True, timeout=120)
        return json.loads(r.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        return [{"name": p.__name__, "ok": False, "detail": f"probe process: {exc!r:.100}"}
                for p in PROBES]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples above it."""
    xs = sorted(latencies)
    if len(xs) <= TAIL_BEYOND:
        return xs[-1], 100.0
    k = len(xs) - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
        "pinning": "none: no CPU pinning or frequency control on this machine",
    }


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def untraced_run(workload: str, seed: int, seconds: float) -> tuple[dict, Measurement, dict]:
    m = Measurement()
    probes = run_probes()
    measure_setup(m, 1)  # may write bytecode caches; not what a user pays each time
    warm_up(m, workload, seed)
    rounds = rounds_for(workload, seconds)
    setup = []
    for p in range(PASSES):
        setup += measure_setup(m, SETUP_STARTS * (p + 1) // PASSES - SETUP_STARTS * p // PASSES)
        run_pass(m, operations(workload, seed, rounds, census=False))

    ok = m.ok()
    lat = [m.best[i] for i in ok] or [0.0]   # no successful operation: zeros, correct = false
    busy = sum(lat) or 1.0
    tail_s, tail_pct = tail(lat)
    raw = {
        "setup_s": statistics.median(setup) if setup else 0.0,
        "ops_per_s": len(ok) / busy,
        "rows_per_s": sum(m.rows[i] for i in ok) / busy,
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_tail_ms": 1e3 * tail_s,
    }
    # slowness of the machine during this run, relative to the reference
    slow = statistics.median(m.kernel.values()) / KERNEL_REF_S
    metrics = {k: v * slow if k in RATES else v / slow for k, v in raw.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    extra = {
        "failed_share": len(m.failures) / m.attempted,
        "probes_failed": sum(not p["ok"] for p in probes),
    }
    report = {
        "rounds": rounds,
        "passes": PASSES,
        "machine_slowness": slow,
        "raw_metrics": raw,
        "samples": len(ok),
        "latency_tail_percentile": tail_pct,
        "ops_by_class": m.labels,
        "setup_samples": len(setup),
        "round1_stdout_sha256": m.round1.hexdigest(),
        "probes": probes,
        "extra_metrics": {k: {"value": v, "unit": EXTRA_UNITS[k]} for k, v in extra.items()},
    }
    return metrics, m, report


SHAPE = {
    # workload -> (rule, check over the layers' shares of traced self time)
    "counts": ("core.basis and core.stream each under 5%",
               lambda s: s["core.basis"] < 0.05 and s["core.stream"] < 0.05),
    "basis": ("core.basis has the largest self time",
              lambda s: max(s, key=s.get) == "core.basis"),
    "stream": ("core.stream + cli above half, core.basis under 5%",
               lambda s: s["core.stream"] + s["cli"] > 0.5 and s["core.basis"] < 0.05),
    "verify": ("oracle has the largest self time",
               lambda s: max(s, key=s.get) == "oracle"),
}


def traced_run(workload: str, seed: int, seconds: float) -> tuple[dict, Measurement, dict]:
    m = Measurement()
    probes = run_probes()
    warm_up(m, workload, seed)
    rounds = rounds_for(workload, seconds)
    tracer = Tracer()
    with tracer:
        traced_busy, slow = run_pass(m, operations(workload, seed, rounds, census=True), tracer)
    untraced_busy, untraced_slow = run_pass(m, operations(workload, seed, rounds, census=True))

    n = len(m.best)
    # times scaled by the traced pass's slowness, as in an untraced run
    busy = {layer: tracer.busy_ns[layer] / 1e9 / slow for layer in LAYERS}
    total = sum(busy.values())
    c = tracer.counts
    metrics = {f"{layer}.busy_s": busy[layer] / n for layer in LAYERS}
    metrics.update({
        "core.basis.rows": c["core.basis.rows"] / n,
        "core.basis.candidates": c["core.basis.candidates"] / n,
        "core.basis.yield": c["core.basis.rows"] / max(c["core.basis.candidates"], 1),
        "core.basis.dependence_checks": c["core.basis.dependence_checks"] / n,
        "core.stream.rows": c["core.stream.rows"] / n,
        "core.stream.prefixes": c["core.stream.prefixes"] / n,
        "core.stream.prefix_yield": c["core.stream.prefix_hits"] / max(c["core.stream.prefixes"], 1),
        "intmath.calls": c["intmath.calls"] / n,
        "core.summarize.calls": c["core.summarize.calls"] / n,
        "parser.calls": c["parser.calls"] / n,
        "parser.chars": c["parser.chars"] / n,
        "cli.bytes_out": c["cli.bytes_out"] / n,
        "oracle.tuples": c["oracle.tuples"] / n,
        "oracle.tuples_per_s": c["oracle.tuples"] / busy["oracle"] if busy["oracle"] else 0.0,
        "trace.overhead": (traced_busy / slow) / (untraced_busy / untraced_slow),
        "trace.accounted": total * slow / traced_busy,
    })
    shares = {layer: b / total for layer, b in busy.items()}
    rule, check = SHAPE[workload]
    shape = {"ok": bool(check(shares)), "rule": rule, "shares": shares}
    if not shape["ok"]:
        print(f"bench: workload shape check failed: {rule}: {shares}", file=sys.stderr)
    report = {
        "rounds": rounds,
        "samples": len(m.ok()),
        "ops_by_class": m.labels,
        "round1_stdout_sha256": m.round1.hexdigest(),
        "shape": shape,
        "spans": {"total": tracer.n_spans, "kept": len(tracer.spans)},
        "probes": probes,
    }
    OUT_DIR.mkdir(exist_ok=True)
    spans = [dict(zip(("id", "parent", "name", "start_ns", "end_ns"), s)) for s in tracer.spans]
    (OUT_DIR / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(spans))
    return metrics, m, report


PER_LAYER_UNITS = {
    ".busy_s": "s/op", ".rows": "rows/op", ".candidates": "rows/op", ".yield": "ratio",
    ".dependence_checks": "calls/op", ".prefixes": "calls/op", ".prefix_yield": "ratio",
    ".calls": "calls/op", ".chars": "chars/op", ".bytes_out": "B/op", ".tuples": "tuples/op",
    ".tuples_per_s": "1/s", ".overhead": "ratio", ".accounted": "ratio",
}


def per_layer_unit(name: str) -> str:
    return next(u for suffix, u in PER_LAYER_UNITS.items() if name.endswith(suffix))


def run_one(workload: str, seed: int, seconds: float, trace: bool):
    if trace:
        metrics, m, report = traced_run(workload, seed, seconds)
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        metrics, m, report = untraced_run(workload, seed, seconds)
        units = E2E_UNITS
    result = {
        "correct": not m.failures,
        "attempted": m.attempted,
        "failed": len(m.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              **report, "failures": m.failures[:20], "environment": environment(),
              "result": result}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1))
    shown = dict(result["metrics"], **report.get("extra_metrics", {}))
    for name, metric in shown.items():
        print(f"{workload:>7} {name:<32} {metric['value']:>16.6g} {metric['unit']}")
    for failure in m.failures[:5]:
        print(f"bench: FAILED {failure}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps(result))


def run_all(args, workloads):
    """Each workload in its own process (peak RSS is per process)."""
    results, status = {}, 0
    for w in workloads:
        r = subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)],
                           cwd=ROOT, capture_output=True, text=True)
        lines = r.stdout.splitlines()
        print("\n".join(lines[:-2]), flush=True)
        sys.stderr.write(r.stderr)
        if r.returncode != 0 or not lines:
            status = 1
            continue
        results[w] = json.loads(lines[-1])
        status |= not results[w]["correct"]
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=DEV_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args, WORKLOADS)
    run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
