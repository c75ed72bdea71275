"""The speed-only forks of src/lincong: branches that write the same bytes,
or build the same value, as a simpler path, and exist only for speed.

Each row of FORKS names one fork, the edit in tests/mutants.py's
(file, old, new) form that disables it, why it is there, and the shapes it
claims to serve.  `python tests/ab.py --ledger` runs each disabled twin
against the working tree on its shapes and writes BENCH_forks.json; a fork
stays only while its twin is "slower" on at least one of them.  A twin must
write the working tree's bytes on every shape (tier-1's tests/test_forks.py
runs each once): a branch whose twin writes other bytes is no fork but a
rule of the output, and its edit moves to tests/mutants.py's MUTANTS, which
the tests must kill.  A rewrite with no branch left, whose twin would be its
older lines, is measured once and recorded in CHANGES.md, not here.  A shape
is (kind, label, source, payload), one of:

* a workload class, ("workload", "counts/solve-text-d300n12", ...): the ops
  of that class in bench/workloads.py's rounds;
* a stream shape, ("shape", "deep-3", ...): the entry of tests/shapes.py,
  written by enumerate or solve at --limit=1025;
* ("argv", label, source, argv): one CLI call, in-process;
* ("lib", label, source, call): call(lincong), a library call;
* ("cold", label, source, argv): `python -S -m` the package with argv, a
  fresh process a call.

The source of the last three is "FILE: TAG", the table or finding in one of
SOURCES that holds TAG and justified the fork.  DELETED names the forks the
ledger showed paid nothing, and what went with each; their rows stay in
BENCH_forks.json under "deleted".  Only missing() imports anything beyond
the standard library, so tests/ab.py and the tier-1 guard read the table
without lincong.
"""

import pathlib
from collections import deque

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOAD = "workload"
SOURCES = ("CHANGES.md", "ROADMAP.md", "README.md")


def workload(name, *classes):
    return tuple((WORKLOAD, f"{name}/{cls}", "bench/workloads.py", None) for cls in classes)


def shape(*names):
    return tuple(("shape", name, "tests/shapes.py", None) for name in names)


def argv(source, *words, label=None):
    return (("argv", label or " ".join(words), source, words),)


def cold(source, *words):
    return (("cold", "cold " + " ".join(words), source, words),)


def lib(source, label, call):
    return (("lib", label, source, call),)


VERIFY = workload("verify", "n5-m6", "n2-m100", "n4-m10", "n3-m24", "n2-m150")
GROUPS = workload("stream", "text-s2-p2e3", "json-s2-p2e3", "text-s2-p2e5-L6e3",
                  "json-s2-p2e5-L6e3")
DEEP = workload("stream", "text-n3-s1-L6e3", "json-n3-s1-L6e3", "text-n4-s6-L6e3")
LONG_COUNTS = workload("counts", "solve-text-d300n12", "solve-json-d300n12")
SEED_MAJOR = "CHANGES.md: seed-major rows at small p2"
SHORT_LAST = "CHANGES.md: many seeds with a short last cycle"
P2_1_VERIFY = "CHANGES.md: at p2 = 1 `verify` is still about 5× its scan"
SAMPLE = "2x - 6y ≡ 2 (mod 12)"
M100 = str(10**100 + 7)


def _mod1000(coeffs, limit):
    return argv(SEED_MAJOR, "enumerate", f"--coeffs={coeffs}", "--rhs=0", "--mod=1000",
                f"--limit={limit}")


# name: (file under src/lincong, old text, new text, what the fork does, shapes)
FORKS = {
    "rows-product": (
        "core.py", "if max(s.gcds) <= _BLOCK_ROWS:", "if False:",
        "_rows expands each seed with one itertools.product of its cycles, not "
        "through _blocks' pairs", VERIFY),
    "seed-major": (
        "core.py", "if p2 <= _SEED_MAJOR_MOST and gcds[-1] < _SEED_MAJOR_MOST:", "if False:",
        "_blocks writes an expansion at p2 <= 8 as whole rows built seed-major",
        workload("basis", "enum-p2is2-L100")
        + shape("seed-major-p2-4", "seed-major-p2-8", "seed-major-last-7")
        + _mod1000("2,1", 100) + _mod1000("2,1", 10000) + _mod1000("2,2,2", 100)
        + _mod1000("2,2,2", 10000) + _mod1000("2,4", 100) + _mod1000("2,4", 10000)),
    "seed-major-kept-column": (
        "core.py", "(col, *[tuple(map(add, col, repeat(o))) for o in range(g, m, g)])",
        "[tuple(map(add, col, repeat(o))) for o in range(0, m, g)]",
        "_seed_major keeps each column as it is for the zero offset, not shifted by 0",
        workload("basis", "enum-p2is2-L100")
        + shape("seed-major-p2-4", "seed-major-p2-8", "seed-major-last-7")),
    "p2-1-seeds": (
        "core.py", "if not expand or p2 == 1:", "if not expand:",
        "_blocks writes an expansion at p2 = 1 as its seeds, 1024 a block",
        workload("basis", "enum-p2is1-L60") + shape("seeds-p2-1")
        + argv("CHANGES.md: x + y ≡ 0 (mod 100000)", "enumerate", "--coeffs=1,1", "--rhs=0",
               "--mod=100000", "--limit=10000")),
    "rows-p2-1": (
        "core.py", "if s.expansion_count == 1:", "if False:",
        "_rows passes the seeds through at p2 = 1, not one product of 1-value cycles a seed",
        argv(P2_1_VERIFY, "verify", "--coeffs=1,1,1", "--rhs=0", "--mod=100")
        + argv(P2_1_VERIFY, "verify", "--coeffs=1,2,3,4,6", "--rhs=0", "--mod=25")
        + lib(P2_1_VERIFY, "deque(enumerate_all(build_basis(1,1 mod 3000)), 1)",
              lambda lincong: deque(lincong.core.enumerate_all(lincong.core.build_basis(
                  c := lincong.core.normalize((1, 1), 0, 3000)), c), 1))),
    "deep-blocks": (
        "core.py", "if rows + p2 // rows <= runs:", "if False:",
        "_blocks writes blocks of the deepest coordinates, each rendered once a seed", DEEP
        + shape("deep-2", "deep-2-tie", "deep-3")),
    "groups": (
        "core.py", "if depth < n and min(gcds[-depth - 1], size) >= _GROUP_LEAST",
        "if False",
        "_blocks carries a group of prefixes a pair, with no tuple a prefix",
        GROUPS + shape("groups-64-prefixes", "groups-2-rows", "groups-deep")),
    "runs": (
        "core.py", 'else "runs" if size else "slices")', 'else "slices")',
        "_blocks takes a whole cycle of at most 1024 values for its block, not slices of it",
        shape("runs-p2-9", "runs-1024", "runs-32-equal", "runs-15-prefixes", "runs-3-moving")
        + argv("README.md: `224x + 750y ≡ 0 (mod 4000)`", "enumerate", "--coeffs=224,750",
               "--rhs=0", "--mod=4000", "--limit=20000")),
    "walk-one-last-value": (
        "core.py", "if bound == g:", "if False:",
        "_lex_runs zips one last value per x_{n-1} when x_n takes one, not a range each",
        workload("basis", "solve-s16", "solve-n3-s24", "solve-s40", "solve-s64")
        + shape("seeds-basis-3000", "seeds-basis-one-run")),
    "walk-fixed-last-value": (
        "core.py", " if e else repeat(start)", "",
        "_lex_runs repeats the least x_n when it does not move with x_{n-1}, where "
        "count() and a mod would give the same values",
        workload("stream", "text-n3-s1-L6e3", "text-n4-s6-L6e3") + workload("verify", "n3-m24")
        + lib("CHANGES.md: one lexicographic walker",
              "deque(enumerate_raw(1,0,1 mod 300), 1)",
              lambda lincong: deque(lincong.core.enumerate_raw(
                  lincong.core.normalize((1, 0, 1), 0, 300)), 1))),
    "reduced-seed-range": (
        "core.py",
        "block = range(xl, m, gl) if (xl := x0[-1]) < gl else _cycles((xl,), m, (gl,))[0]",
        "block = _cycles(x0[-1:], m, (gl,))[0]",
        "_expand_runs takes a reduced seed's last cycle as its range, with no _cycles call",
        GROUPS + shape("runs-p2-9", "runs-32-equal")
        + argv(SHORT_LAST, "enumerate", "--coeffs=3,3", "--rhs=0", "--mod=9000")
        + argv(SHORT_LAST, "enumerate", "--coeffs=1,8", "--rhs=0", "--mod=16000")),
    "render-cache": (
        "cli.py", "if block != shown:", "if True:",
        "_write renders a block once while the next pair's block compares equal",
        GROUPS + DEEP + shape("runs-32-equal", "deep-3")),
    "group-heads-join": (
        "cli.py", 'heads = (pre + (sep + "\\0" + pre).join(map(str, part)) + sep).split("\\0")',
        'heads = list(map((pre + "%d" + sep).__mod__, part))',
        "_write builds a group's heads from one join of its slice, split at NUL, "
        "not one format a head",
        GROUPS + shape("groups-2-rows")
        + argv("README.md: `64x + 2y ≡ 0 (mod 65536)`", "enumerate", "--coeffs=64,2", "--rhs=0",
               "--mod=65536", "--limit=20000")),
    "counts-arity-1": (
        "cli.py", "if c.arity == 1:", "if False:",
        "_counts writes d for p1 and p2 and 1 for s at n = 1, with no second conversion",
        workload("counts", "solve-text-d20n1", "solve-json-d20n1", "solve-text-d100n1",
                 "solve-json-d100n1", "solve-text-d300n1", "solve-json-d300n1")),
    "counts-decimal-p1": (
        "cli.py", "if bits < _LONG_BITS:", "if True:",
        "_counts writes a p1 of 1,000 digits or more as d * m**(n - 1) in decimal, not "
        "by a quadratic str()",
        LONG_COUNTS + argv("CHANGES.md: p1 by decimal powering", "solve",
                           "--coeffs=" + ",".join(["1"] * 200), "--rhs=0", f"--mod={M100}",
                           "--limit=0", label="solve 200 unit coeffs mod 10**100 + 7")),
    "counts-s-quotient": (
        "cli.py", "if 4 * p2.bit_length() <= s_bits:", "if False:",
        "_counts reads a long s off p1's digits by one exact decimal division by a short p2",
        LONG_COUNTS),
    "counts-p2-quotient": (
        "cli.py", "if p2.bit_length() >= _LONG_BITS and 4 * basis_size.bit_length()",
        "if False and 4 * basis_size.bit_length()",
        "_counts reads a long p2 off p1's digits by one exact decimal division by a short s",
        argv("CHANGES.md: counts build no integer they do not print",
             "solve", "--coeffs=" + ",".join(["0"] * 40 + ["1"]), "--rhs=0", f"--mod={M100}",
             "--limit=0", label="solve 40 zero coeffs and a unit mod 10**100 + 7")),
    "scan": (
        "cli.py", "args = _scan(argv) or _main_parser().parse_args(argv)",
        "args = _main_parser().parse_args(argv)",
        "main reads a valid argv in one pass, with no argparse",
        workload("counts", "solve-text-d20n2", "solve-json-d20n2") + workload("basis", "solve-s16")
        + cold("CHANGES.md: one flag table; argparse only writes help and usage errors",
               "solve", SAMPLE)),
    "main-parser-cache": (
        "cli.py", "@cache\ndef _main_parser():", "def _main_parser():",
        "main builds argparse's parser once a process, for the argvs the scan passes on",
        argv("CHANGES.md: a CLI call costs its rows", "solve", SAMPLE,
             "--lim", "1")),
    "parse-one-match": (
        "parser.py", "m = _LAID_OUT.fullmatch(text)", "m = None",
        "parse reads a valid text with one fullmatch, not rule by rule",
        workload("counts", "solve-text-d20n5", "solve-json-d100n5", "solve-text-d300n12",
                 "solve-json-d20n12", "solve-text-d20n12", "solve-json-d20n5",
                 "solve-json-d20n3")
        + workload("verify", "n5-m6")),
    "normalize-of": (
        "core.py", "return LinearCongruence._of(", "return LinearCongruence(",
        "normalize builds its record past __init__'s checks, which it already made",
        workload("counts", "particular-d20n5", "particular-d100n12", "particular-d300n12",
                 "solve-text-d300n12")),
    "p2-balanced-product": (
        "core.py", "while len(factors) > 64:", "while False:",
        "summary multiplies the gcds in adjacent pairs while over 64 are left, not in "
        "one running product",
        argv("CHANGES.md: takes p2 as `prod(gcds)`, a running product", "solve",
             "--coeffs=" + ",".join(str(6 * (i % 7 + 1)) for i in range(50_000)), "--rhs=0",
             "--mod=12", "--limit=0", label="solve 50,000 multiples of 6 mod 12")),
    "limit-clamp": (
        "cli.py", "if s.solvable and limit is not None and (limit == 0 or",
        "if False and (limit == 0 or",
        "_write cuts a --limit below a bound on p1's (or s's) bits from bit lengths "
        "alone, building neither p1 nor s",
        workload("counts", "solve-text-d100n12", "solve-json-d100n12") + LONG_COUNTS),
    "oracle-wanted-classes": (
        "oracle.py", "right = _residue_table(c.coeffs[k:], m, wanted)",
        "right = _residue_table(c.coeffs[k:], m)",
        "brute_force adds the right half's first unknown only to the classes that "
        "complete a non-empty left class, not to every class",
        workload("verify", "n3-m24", "n4-m10")),
}

# name: what went from src/lincong with the fork, which the ledger showed
# paid nothing on the shapes it claimed
DELETED = {
    "counts-quotient-cutover": "_counts reads every long s with a short p2 off p1 as the "
                               "quotient, also below 1,000 digits of s",
    "parse-of": "parse builds its record through ParsedCongruence's __init__",
    "term-compiled-on-first-use": "the rules' term pattern is compiled at import, as "
                                  "parser._TERM, not by the cached parser._term()",
}


def missing(shape):
    """Why a fork's shape is gone, or "" when it exists: a class that no round
    of bench/workloads.py has (which needs bench/ on sys.path), a name
    tests/shapes.py lacks, or a source document that does not hold its tag."""
    kind, label, source, _ = shape
    if kind == WORKLOAD:
        import random

        import workloads

        name, _, wanted = label.partition("/")
        labels = {op.label for op in workloads.ROUNDS.get(name, lambda _: ())(random.Random(0))}
        return "" if wanted in labels else f"no class {label} in bench/workloads.py"
    if kind == "shape":
        from shapes import STREAM_SHAPES

        return "" if label in STREAM_SHAPES else f"no stream shape {label!r}"
    document, _, tag = source.partition(": ")
    if document not in SOURCES or tag not in (ROOT / document).read_text(encoding="utf-8"):
        return f"{document} does not hold {tag!r}"
    return ""
