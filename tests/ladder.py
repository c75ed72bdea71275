"""Scaling ladders: how the time of one lincong call grows with the length of
its numbers or with its number of unknowns.

    python tests/ladder.py              time the working tree, write BENCH_scaling.json
    python tests/ladder.py REF          time REF's src/lincong too, at every size
    python tests/ladder.py --first 2    the two smallest sizes of each ladder only,
                                        and no JSON written

Each row of LADDERS is one ladder: a label, what its size counts, the
sizes, a builder and the slope bound it claims.  builder(size) builds the
input once and returns call(tree), the timed call on a lincong package: an
in-process `tree.cli.main(argv)` whose stdout is a null sink (a StringIO
sink grows with the output and reads as a false slope of 1.5 on a row
ladder), or a library call.  A point is the best of CALLS calls.  The slope
between two sizes is log(t2 / t1) / log(s2 / s1): 1 is linear and 2
quadratic.  With a REF, the working tree and REF's src/lincong are loaded
side by side as tests/ab.py loads them, and each size times the two trees
in turn, the first alternating by call.  The int/str digit limit is lifted
for the run.  A call whose exit status is not 0 ends the run with an error;
a slope past its bound does not, and reads as "within_bound": false.  The
JSON names the tree it timed by src_sha256, as BENCH_forks.json does.
Standard library only.
"""

import argparse
import gc
import json
import math
import pathlib
import platform
import random
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT = ROOT / "BENCH_scaling.json"
CALLS = 3  # calls a tree and size; a point is the least
DIGITS = (10_000, 20_000, 40_000, 80_000, 160_000)
UNKNOWNS = (12_500, 25_000, 50_000, 100_000, 200_000)
# the slope bounds: quadratic, which int(str) alone reads up to 2.2 at the
# last step before Python 3.12, and near-linear
QUADRATIC, NEAR_LINEAR = 2.3, 1.6


class NullSink:
    """A stdout that keeps nothing."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


def cli(argv):
    """call(tree): tree's `main(argv)` into a null sink; a status other than 0 raises."""
    def call(tree):
        stdout, sys.stdout = sys.stdout, NullSink()
        try:
            code = tree.cli.main(argv)
        finally:
            sys.stdout = stdout
        if code != 0:
            raise RuntimeError(f"exit {code}: lincong {' '.join(argv)[:200]}")
    return call


def digits(size, lead="1", fill="7"):
    """A decimal numeral of size digits."""
    return lead + fill * (size - 1)


def two_unknowns(size):
    return f"2x + 3y ≡ 1 (mod {digits(size)})"


def three_unknowns(size):
    # two coefficients and the modulus of size digits, and a unit coefficient
    return f"{digits(size, '2', '3')}x + {digits(size, '5', '9')}y + z ≡ 1 (mod {digits(size)})"


def coeffs(values, modulus, *flags):
    return cli(["solve", "--coeffs=" + ",".join(map(str, values)), "--rhs=0", f"--mod={modulus}",
                "--format", "json", *flags])


def random_coeffs(n):
    rng = random.Random(n)
    return [rng.randrange(1, 1_000_003) for _ in range(n)]


# (label, what a size counts, sizes, builder, slope bound)
LADDERS = (
    ("int(str) alone, the parse's floor", "digits", DIGITS,
     lambda size: (lambda tree, text=digits(size): int(text)), QUADRATIC),
    ("parser.parse, n = 2, m of D digits", "digits", DIGITS,
     lambda size: (lambda tree, text=two_unknowns(size): tree.parser.parse(text)), QUADRATIC),
    ("text solve --limit 0, n = 2, m of D digits", "digits", DIGITS,
     lambda size: cli(["solve", two_unknowns(size), "--limit", "0"]), QUADRATIC),
    ("JSON solve --limit 0, n = 2, m of D digits", "digits", DIGITS,
     lambda size: cli(["solve", two_unknowns(size), "--limit", "0", "--format", "json"]),
     QUADRATIC),
    ("JSON solve --limit 1, n = 3, two coefficients and m of D digits", "digits",
     (5_000, 10_000, 20_000, 40_000, 80_000),
     lambda size: cli(["solve", three_unknowns(size), "--limit", "1", "--format", "json"]),
     QUADRATIC),
    ("JSON solve --limit 0, n coefficients 3*10**50 mod 10**100 (balanced p2 and s)", "unknowns",
     (500, 1_000, 2_000, 4_000, 8_000),
     lambda n: coeffs([3 * 10**50] * n, 10**100, "--limit", "0"), QUADRATIC),
    ("JSON solve --limit 0, n unit coefficients mod 10**100 + 7", "unknowns",
     (500, 1_000, 2_000, 4_000, 8_000),
     lambda n: coeffs([1] * n, 10**100 + 7, "--limit", "0"), NEAR_LINEAR),
    ("JSON solve --limit 0 --coeffs, n random coefficients mod 1,000,003", "unknowns", UNKNOWNS,
     lambda n: coeffs(random_coeffs(n), 1_000_003, "--limit", "0"), NEAR_LINEAR),
    ("text solve --limit 0, the same as an expression", "unknowns", UNKNOWNS,
     lambda n: cli(["solve", " + ".join(f"{a}*x{i}" for i, a in enumerate(random_coeffs(n)))
                    + " ≡ 0 (mod 1000003)", "--limit", "0"]), NEAR_LINEAR),
    ("JSON solve --limit 0, n coefficients of gcd 6 or 12 mod 12", "unknowns",
     (25_000, 50_000, 100_000, 200_000),
     lambda n: coeffs([6 * (i % 2 + 1) for i in range(n)], 12, "--limit", "0"), NEAR_LINEAR),
    ("JSON solve --limit 1, n random coefficients mod 1,000,003", "unknowns", UNKNOWNS,
     lambda n: coeffs(random_coeffs(n), 1_000_003, "--limit", "1"), NEAR_LINEAR),
)


def slopes(sizes, seconds):
    return [round(math.log(t2 / t1) / math.log(s2 / s1), 3)
            for s1, s2, t1, t2 in zip(sizes, sizes[1:], seconds, seconds[1:])]


def time_ladder(build, sizes, trees):
    """{tree name: [best seconds at each size]}, the trees timed in turn."""
    best = {name: [] for name, _ in trees}
    for size in sizes:
        call = build(size)
        times = dict.fromkeys(best, math.inf)
        for k in range(CALLS):
            for name, tree in (trees if k % 2 else trees[::-1]):
                t0 = time.perf_counter()
                call(tree)
                times[name] = min(times[name], time.perf_counter() - t0)
        del call
        gc.collect()
        for name, t in times.items():
            best[name].append(t)
    return best


def run(trees, first=None):
    """One row a ladder, each tree's times and slopes; trees is [(name, package)]."""
    rows = []
    for label, unit, sizes, build, bound in LADDERS:
        sizes = sizes[:first]
        t0 = time.perf_counter()
        best = time_ladder(build, sizes, trees)
        row = {"ladder": label, "size": unit, "sizes": list(sizes), "bound": bound}
        print(f"{label} ({time.perf_counter() - t0:.0f} s)")
        for name, seconds in best.items():
            key = "" if name == "working" else f"{name}_"  # the working tree's keys are bare
            row[f"{key}seconds"] = [round(t, 6) for t in seconds]
            row[f"{key}slopes"] = slopes(sizes, seconds)
            print(f"  {name:8} " + "  ".join(f"{s}: {t:.4f}" for s, t in zip(sizes, seconds))
                  + f"  slopes {row[f'{key}slopes']}")
        row["within_bound"] = all(s <= bound for s in row["slopes"])
        rows.append(row)
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    ap.add_argument("ref", nargs="?", help="a git ref whose src/lincong is timed beside the "
                                           "working tree")
    ap.add_argument("--first", type=int, help="time only the first FIRST sizes of each ladder, "
                                              f"and write no {OUT.name}")
    args = ap.parse_args(argv)
    import ab  # it puts bench/ and src/ on sys.path

    sys.set_int_max_str_digits(0)
    with tempfile.TemporaryDirectory(prefix="lincong-ladder-") as tmp:
        if args.ref is None:
            import lincong.cli

            trees = [("working", lincong)]
        else:
            sys.path.insert(0, tmp)
            _, working, ref = ab.load_trees(pathlib.Path(tmp), ref=args.ref)
            trees = [("working", working), ("ref", ref)]
        rows = run(trees, args.first)
    if args.first is None:
        doc = {"sha": ab.git("rev-parse", "HEAD"), "src_sha256": ab.src_sha256(),
               "src_differs_from_sha": bool(ab.git("status", "--porcelain", "src")),
               "ref": args.ref, "ref_sha": args.ref and ab.git("rev-parse", args.ref),
               "python": platform.python_version(), "machine": platform.machine(),
               "calls": CALLS, "ladders": rows}
        OUT.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {OUT.name}: {len(rows)} ladders")
    return 0


if __name__ == "__main__":
    sys.exit(main())
