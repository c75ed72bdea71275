"""A mutation harness for the fast paths' boundaries: each mutant below is
one small edit of src/lincong that the named test files must catch.

    python tests/mutants.py

For each mutant it copies the repository (all but .git and caches) into a
temporary directory, applies the edit there, and runs the mutant's test files
with `pytest -x -q`; a failing run kills the mutant.  First it runs every
named test file once on an unmutated copy: unless that run passes, a failing
run shows nothing, so no mutant is run and the exit status is 1.  An
equivalent mutant, one that no input can tell from the original, names no
test files: it is reported with its reason and not run.  The exit status is 1
when a mutant survives, or its old text no longer occurs exactly once in its
file, and 0 otherwise.  Standard library only, besides the pytest and
hypothesis that the tests need.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
CLI, CORE, ORACLE = ("tests/test_cli.py",), ("tests/test_core.py",), ("tests/test_oracle.py",)

# (file under src/lincong, old text, new text, reason, test files)
MUTANTS = [
    ("cli.py", "not value[1:].isdecimal()", "not value[1:].isdigit()",
     "_scan reads '-²' as a negative number, which argparse takes for an option", CLI),
    ("cli.py", "closed = bool(positionals)", "closed = False",
     "_scan reads positionals on both sides of a flag, which argparse splits", CLI),
    ("core.py", "if rows + p2 // rows <= runs:", "if rows + p2 // rows < runs:",
     "_block_depth stays at depth 1 at a tie that a deeper block serves as well", CLI),
    ("core.py", "_GROUP_LEAST = 16", "_GROUP_LEAST = 2",
     "groups of 2 to 15 prefixes, each slower than one prefix a pair", CLI),
    ("core.py", "yield run[:size]", "yield run[:size - 1]",
     "_slices drops one value of each slice of a long cycle", CLI + CORE),
    ("core.py", "range(x, m, g) if x < g else", "range(x, m, g) if x <= g else",
     "_cycles reads a seed value equal to its stride as reduced, and loses the "
     "values below it", CORE),
    ("core.py", "if max(s.gcds) <= _BLOCK_ROWS:", "if max(s.gcds) < _BLOCK_ROWS:",
     "_rows walks blocks for a 1024-value cycle, which one product holds", CORE),
    ("oracle.py", "if n * (m.bit_length() - 1) >= cap.bit_length() or m ** n > cap:",
     "if m ** n > cap:",
     "brute_force computes m**n of any size before refusing it", ORACLE),
    ("cli.py", "except OSError as exc:  # an unreadable stdin", "except ValueError as exc:  #",
     "a failed stdin read reaches main's stdout handler, which points descriptor 1 "
     "at the null device", CLI),
    ("cli.py", "context.divide(p1, cofactor)", "context.divide(p1, cofactor + 1)",
     "_counts divides p1 by the cofactor + 1 when it reads a long s or p2 off p1", CLI),
    ("cli.py", "Emax=decimal.MAX_EMAX, ", "",
     "_counts keeps decimal's default Emax, which overflows past a million digits", CLI),
    ("cli.py", "Decimal(c.modulus), c.arity - 1)", "Decimal(c.modulus), c.arity)",
     "_counts raises m to the n-th power, not the (n - 1)-th, when it writes a long p1", CLI),
    ("cli.py", "prec=bits * 30103 // 100000 + 1,", "prec=bits * 30103 // 100000,",
     "_counts' precision is one digit short of a p1 such as 10**1000 + 1, so the power "
     "rounds and the trapped Inexact raises", CLI),
    ("cli.py", "if bits < 3322:", "if bits < 0:",
     "_counts writes every p1 at n >= 2 in decimal, so a tiny solve imports it", CLI),
    ("cli.py", "sys.set_int_max_str_digits(0)", "sys.set_int_max_str_digits(digit_limit)",
     "main keeps the int/str digit limit, so a p1 of over 4,300 digits is refused", CLI),
    ("cli.py", ".join(tail if left >= 0 else tail[:left])", ".join(tail if left >= 0 else tail)",
     "_print_rows writes a single prefix's whole block past the limit", CLI),
    ("cli.py", "(tail if left >= 0 else tail[:left],)", "(tail if left >= 0 else tail,)",
     "_print_rows writes a group's last whole block past the limit", CLI),
    ("core.py", "if k < 0:", "if k < 0 or k > i:",
     "equivalent: _lex_runs' odometer sets k to i - 1 and only lowers it, so k > i "
     "never holds", ()),
    ("cli.py", "if count.bit_length() >= 3322 and", "if count.bit_length() >= 0 and",
     "equivalent: both sides of _counts' quotient cutover write the same digits of s "
     "or p2, and p1 is already in decimal, so it changes speed only", ()),
    ("core.py", "cut = depth == 1 and not size", "cut = False",
     "_expand_runs renders a cycle longer than _BLOCK_ROWS values as one block, so a "
     "run of 10**300 values is held whole", CLI),
    ("core.py", "if bound == g:", "if bound >= g:",
     "_lex_runs takes one last value per x_{n-1} when x_n takes several", CORE),
    ("cli.py", "if block != shown:", "if block is not shown:",
     "_print_rows renders a block afresh for each seed whose equal run is a new range", CLI),
    ("cli.py", 'value == "" or value == "--"', 'value == ""',
     "_scan takes --flag=-- for the value '--', which argparse reads otherwise", CLI),
    ("cli.py", 'value == "" or value == "--"', 'value == "--"',
     "equivalent on 3.11: argparse reads --limit= as limit='', as the scan then does; "
     "the rule stays for the other versions CI runs", ()),
    ("cli.py", 'if dest == "format" and value not in FORMATS:', "if False:",
     "_scan takes a --format outside FORMATS, which argparse refuses with a usage error", CLI),
    ("cli.py", "if dest is None or dest in values:", "if dest is None:",
     "_scan reads a flag given twice itself, not passing the argv on to argparse", CLI),
    ("cli.py", "elif extra:", "elif extra < 0:",
     "_scan drops positionals past the ones a command takes, which argparse refuses", CLI),
    ("cli.py", "if expand and not s.solvable:", "if not s.solvable:",
     "an unsolvable solve writes enumerate's error and no counting summary", CLI),
    ("core.py", "islice(rows, _BLOCK_ROWS)", "islice(rows, _BLOCK_ROWS - 1)",
     "_blocks batches a basis stream 1,023 rows a block, not 1,024", CLI),
]


def run_tests(tests, file=None, old="", new=""):
    """pytest's result for the tests on a copy of the repository with old
    replaced by new in src/lincong/file, or unmutated when file is None."""
    with tempfile.TemporaryDirectory(prefix="lincong-mutant-") as tmp:
        copy = pathlib.Path(tmp) / "repo"
        skip = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                      "*.egg-info", ".bench_out", ".bench_build")
        shutil.copytree(ROOT, copy, ignore=skip)
        if file is not None:
            path = copy / "src" / "lincong" / file
            path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               *tests], cwd=copy, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # 1: a test failed; anything else broke the run
        raise RuntimeError(f"pytest exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return proc


def main():
    start = time.perf_counter()
    tests = sorted({name for *_, names in MUTANTS for name in names})
    proc = run_tests(tests)
    if proc.returncode:
        print(f"the unmutated copy fails {' '.join(tests)}, so no mutant can be judged:\n"
              f"{proc.stdout}{proc.stderr}")
        return 1
    print(f"{'passed':10} unmutated: {' '.join(tests)} ({time.perf_counter() - start:.0f} s)")
    failed = 0
    for file, old, new, reason, tests in MUTANTS:
        label = f"{file}: {old!r} -> {new!r}"
        count = (ROOT / "src" / "lincong" / file).read_text(encoding="utf-8").count(old)
        if count != 1:
            print(f"{'STALE':10} {label}: the old text occurs {count} times")
            failed += 1
        elif not tests:
            print(f"{'equivalent':10} {label}\n    {reason}")
        else:
            t0 = time.perf_counter()
            killed = run_tests(tests, file, old, new).returncode == 1
            verdict = "killed" if killed else "SURVIVED"
            print(f"{verdict:10} {label} ({time.perf_counter() - t0:.0f} s)\n    {reason}")
            failed += not killed
    print(f"{len(MUTANTS)} mutants, {failed} failing, in {time.perf_counter() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
