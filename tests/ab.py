"""An interleaved A/B of two lincong trees, loaded side by side in one process.

    python tests/ab.py REF [--workload W ...]   side B is REF's src/lincong
    python tests/ab.py --aa                    side B is the working tree too
    python tests/ab.py --edit FILE OLD NEW     side B is the working tree with one edit
    python tests/ab.py --fork NAME             side B is one row of tests/forks.py disabled
    python tests/ab.py --ledger                every row of tests/forks.py, to BENCH_forks.json

Side A is the working tree's src/lincong.  Side B is REF's (by git archive),
or the working tree's with one edit in tests/mutants.py's (file, old, new)
form.  Both are copied into one temporary directory as the packages
lincong_a and lincong_b and imported under those names: every import inside
the package is relative, so each copy runs only its own modules.

The ops are bench/workloads.py's rounds (all four workloads unless
--workload names some), run against either tree by rebinding that module's
global `lincong`, so bench/ is only read; --seed fixes the instances.  A row
of tests/forks.py brings its own shapes: workload classes, stream shapes,
argv, library calls and cold starts.  Each round draws new instances and
runs every op on both trees back to back, CALLS times a side in
alternation, and the tree that goes first alternates by round.  An op's time
in a round is the least of its calls, and a class's the sum over its ops; an
op whose class took FAST seconds or more in the warm-up round, uncounted, is
called once a side.  A cold shape starts `python -S -m lincong_a` or
`lincong_b` with its argv, once a side a round, under COLD_TIMEOUT.  Any
difference in an op's exit code or output ends the run with exit status 1,
so every A/B is also a differential check of the two trees; a timing verdict
never fails it.

For each class it prints the median of the per-round ratios B/A, their
quartiles, the share of rounds that B won, and a verdict on B: "slower" or
"faster" only with at least MIN_ROUNDS rounds, a share of VERDICT_SHARE or
more for the tree that won, and both quartiles on its side of 1; "no
verdict" otherwise.  Standard library only.
"""

import argparse
import hashlib
import io
import json
import pathlib
import platform
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]  # src: for forks.missing

from forks import DELETED, FORKS, WORKLOAD, missing  # noqa: E402
from mutants import edited_copy, stale  # noqa: E402
from shapes import STREAM_SHAPES  # noqa: E402

MIN_ROUNDS = 200  # fewest counted rounds that may give a verdict
VERDICT_SHARE = 0.9  # least share of rounds the faster tree must win
CALLS = 3  # calls a side per op and round, for an op under FAST seconds
FAST = 0.005
COLD_TIMEOUT = 60  # seconds for one cold start
LEDGER = ROOT / "BENCH_forks.json"
WORKLOADS = ("counts", "basis", "stream", "verify")


class Differ(Exception):
    """The two trees wrote different bytes for one op."""


def purge():
    """Forget both trees and bench/workloads.py, so the next import loads them afresh."""
    for name in [name for name in sys.modules if name.partition(".")[0] in
                 ("lincong", "lincong_a", "lincong_b", "workloads")]:
        del sys.modules[name]


def load_trees(tmp, edit=None, ref=None):
    """Copy the working tree's src/lincong to tmp as lincong_a, and REF's,
    or the working tree's with edit, a (file, old, new) row, applied, as
    lincong_b; import both from tmp, which leads sys.path, and
    bench/workloads.py with lincong_a for its lincong.  Returns (workloads,
    lincong_a, lincong_b)."""
    edited_copy(ROOT / "src" / "lincong", tmp / "lincong_a")
    if ref is None:
        edited_copy(ROOT / "src" / "lincong", tmp / "lincong_b", *edit or ())
    else:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref, "src/lincong"],
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "ref")
        (tmp / "ref" / "src" / "lincong").rename(tmp / "lincong_b")
    purge()
    import lincong_a
    import lincong_a.cli
    import lincong_b
    import lincong_b.cli

    # workloads.py's `import lincong.cli` finds tree A under the plain name
    sys.modules.update({"lincong": lincong_a, "lincong.cli": lincong_a.cli,
                        "lincong.core": lincong_a.core})
    import workloads

    return workloads, lincong_a, lincong_b


def round_jobs(workloads, shapes, rngs, tmp):
    """One round's ops, (class, cold, job) with job(tree) -> (seconds,
    output), for shapes in tests/forks.py's forms."""
    def timed_op(call):
        def job(tree):
            workloads.lincong = tree
            t0 = time.perf_counter()
            result = call()
            return time.perf_counter() - t0, workloads.output_bytes(result)
        return job

    def cli(argv):
        return timed_op(lambda: workloads.run_cli(argv))

    jobs = []
    for kind, label, _, payload in shapes:
        if kind == WORKLOAD:
            name, _, wanted = label.partition("/")
            jobs += [(f"{name}/{op.label}", False, timed_op(op.call))
                     for op in workloads.ROUNDS[name](rngs[name]) if wanted in ("*", op.label)]
        elif kind == "shape":
            coeffs, m, expand, _, _ = STREAM_SHAPES[label]
            jobs.append((label, False, cli(["enumerate" if expand else "solve",
                                            f"--coeffs={','.join(map(str, coeffs))}", "--rhs=0",
                                            f"--mod={m}", "--limit=1025"])))
        elif kind == "argv":
            jobs.append((label, False, cli(list(payload))))
        elif kind == "lib":
            jobs.append((label, False, timed_op(lambda call=payload: call(workloads.lincong))))
        else:  # cold
            def job(tree, argv=payload):
                t0 = time.perf_counter()
                proc = subprocess.run([sys.executable, "-S", "-m", tree.__name__, *argv],
                                      cwd=tmp, capture_output=True, timeout=COLD_TIMEOUT)
                return time.perf_counter() - t0, (proc.returncode, proc.stdout, proc.stderr)
            jobs.append((label, True, job))
    return jobs


def verdict(ratios):
    """The median of a class's per-round ratios B/A, their quartiles, B's
    share of the rounds won, and the verdict on B."""
    q1, median, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                      if len(ratios) > 1 else ratios * 3)
    b_won = sum(r < 1 for r in ratios) / len(ratios)
    enough = len(ratios) >= MIN_ROUNDS
    word = ("faster" if enough and b_won >= VERDICT_SHARE and q3 < 1
            else "slower" if enough and 1 - b_won >= VERDICT_SHARE and q1 > 1
            else "no verdict")
    return {"ratio": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "b_won": round(b_won, 3), "rounds": len(ratios), "verdict": word}


def ab(shapes, rounds, seed, edit=None, ref=None):
    """{class: verdict} of side B against side A over the shapes; raises
    Differ when the trees write different bytes."""
    with tempfile.TemporaryDirectory(prefix="lincong-ab-") as tmp:
        sys.path.insert(0, tmp)
        tmp = pathlib.Path(tmp)
        try:
            workloads, a, b = load_trees(tmp, edit, ref)
            rngs = {name: random.Random(seed) for name in workloads.ROUNDS}
            ratios, warm = {}, {}
            for n in range(rounds + 1):  # round 0 warms both trees up
                order = (a, b) if n % 2 else (b, a)
                sums = {}
                for label, cold, job in round_jobs(workloads, shapes, rngs, tmp):
                    best, outputs = {}, {}
                    for _ in range(1 if cold or warm.get(label, 0) >= FAST else CALLS):
                        for tree in order:
                            seconds, outputs[tree] = job(tree)
                            best[tree] = min(seconds, best.get(tree, seconds))
                        if outputs[a] != outputs[b]:
                            raise Differ(f"{label}: A wrote {str(outputs[a])[:300]!r}, "
                                         f"B wrote {str(outputs[b])[:300]!r}")
                    sa, sb = sums.get(label, (0, 0))
                    sums[label] = sa + best[a], sb + best[b]
                for label, (sa, sb) in sums.items():
                    if n:
                        ratios.setdefault(label, []).append(sb / sa)
                    else:
                        warm[label] = max(sa, sb)
        finally:
            sys.path.remove(str(tmp))
            purge()
    return {label: verdict(r) for label, r in ratios.items()}


def print_table(results):
    print(f"{'class':44} {'B/A':>6} {'q1':>6} {'q3':>6} {'B won':>6}  verdict")
    for label, v in results.items():
        print(f"{label[:44]:44} {v['ratio']:6.3f} {v['q1']:6.3f} {v['q3']:6.3f} "
              f"{v['b_won']:6.0%}  {v['verdict']}")


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def src_sha256():
    """sha256 over the name and bytes of each src/lincong/*.py, in name order:
    the files edited_copy copies as side A."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lincong").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def ledger(rounds, seed):
    """Run every row of tests/forks.py with its disabled twin as side B on
    its shapes, and write BENCH_forks.json.  A fork of DELETED keeps the row
    the ledger already holds for it, with the commit it was measured at."""
    for name, (file, old, _, _, shapes) in FORKS.items():
        if gone := stale(file, old, shapes, missing=missing):
            raise SystemExit(f"STALE fork {name}: {'; '.join(gone)}")
    rows = []
    for name, (file, old, new, why, shapes) in FORKS.items():
        t0 = time.perf_counter()
        results = ab(shapes, rounds, seed, (file, old, new))
        print(f"{name} ({time.perf_counter() - t0:.0f} s): {why}")
        print_table(results)
        sources = {label: source for _, label, source, _ in shapes}
        rows.append({"fork": name, "file": f"src/lincong/{file}", "old": old, "new": new,
                     "why": why, "pays": any(v["verdict"] == "slower" for v in results.values()),
                     "shapes": [{"shape": label, "source": sources[label], **v}
                                for label, v in results.items()]})
    previous = json.loads(LEDGER.read_text(encoding="utf-8")) if LEDGER.exists() else {}
    deleted = {row["fork"]: row for row in previous.get("deleted", ())}
    deleted.update({row["fork"]: {**row, "measured_at": previous["sha"]}
                    for row in previous.get("forks", ()) if row["fork"] in DELETED})
    doc = {"sha": git("rev-parse", "HEAD"), "src_sha256": src_sha256(),
           "src_differs_from_sha": bool(git("status", "--porcelain", "src")),
           "python": platform.python_version(), "machine": platform.machine(),
           "rounds": rounds, "seed": seed, "calls": CALLS, "min_rounds": MIN_ROUNDS,
           "verdict_share": VERDICT_SHARE, "forks": rows,
           "deleted": [{**deleted[name], "deleted": what} for name, what in DELETED.items()
                       if name in deleted]}
    LEDGER.write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {LEDGER.name}: {len(rows)} forks, {len(doc['deleted'])} deleted, "
          f"{sum(not row['pays'] for row in rows)} with no slower verdict")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    side = ap.add_mutually_exclusive_group(required=True)
    side.add_argument("ref", nargs="?", help="a git ref whose src/lincong is side B")
    side.add_argument("--aa", action="store_true", help="side B is the working tree too")
    side.add_argument("--edit", nargs=3, metavar=("FILE", "OLD", "NEW"),
                      help="side B is the working tree with OLD replaced by NEW in "
                           "src/lincong/FILE")
    side.add_argument("--fork", choices=FORKS, help="side B is this row of tests/forks.py")
    side.add_argument("--ledger", action="store_true", help=f"write {LEDGER.name}")
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="a workload whose rounds are the ops (default all four)")
    ap.add_argument("--rounds", type=int, default=MIN_ROUNDS)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    start = time.perf_counter()
    try:
        if args.ledger:
            ledger(args.rounds, args.seed)
        else:
            shapes = [(WORKLOAD, f"{w}/*", "bench/workloads.py", None)
                      for w in args.workload or WORKLOADS]
            edit = args.edit
            if args.fork:
                file, old, new, _, shapes = FORKS[args.fork]
                edit = (file, old, new)
            if edit and (gone := stale(edit[0], edit[1], ())):
                raise SystemExit(f"STALE edit: {'; '.join(gone)}")
            print_table(ab(shapes, args.rounds, args.seed, edit, args.ref))
    except Differ as exc:
        print(f"the trees differ: {exc}")
        return 1
    print(f"in {time.perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
