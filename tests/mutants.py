"""A mutation harness for the fast paths' boundaries: each mutant below is
one small edit of src/lincong that the named tests must catch.

    python tests/mutants.py

For each mutant it copies the repository (all but .git and caches) into a
temporary directory, applies the edit there, and runs the mutant's tests with
`pytest -x -q`; a failing run kills the mutant, and so does one that runs
past TIMEOUT seconds, such as a stream the mutant made endless.  A mutant
names test files, or pytest node ids where one test kills it, such as a row
of the stream shape table (tests/shapes.py), which pytest runs alone.  A
mutant whose old text no longer occurs exactly once in its file, or that
names a file, test or shape that is gone, is STALE and not run (tier-1's
tests/test_forks.py fails on such a row too).  Then it runs every file
named, or holding a node named, once on an unmutated copy: unless that run
passes, a failing run shows nothing, so no mutant is run and the exit
status is 1.  A mutant's run is judged by pytest's exit status alone
(judge): a failed test or a collection error kills it, and pytest's own
internal, usage or no-tests error is an ERROR row, counted as failing; the
run goes on to the next row either way.  An equivalent mutant, one that no
input can tell from the original, names no tests: it is reported with its
reason and not run.  The exit status is 1 when a mutant survives, is STALE
or is an ERROR, and 0 otherwise.
Standard library only, besides the pytest and hypothesis that the tests need.
"""

import contextlib
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import time

from shapes import STREAM_SHAPES

ROOT = pathlib.Path(__file__).resolve().parents[1]
TIMEOUT = 300  # seconds for one pytest run, several times the slowest's
CORE, ORACLE = ("tests/test_core.py",), ("tests/test_oracle.py",)
PARSER = ("tests/test_parser.py",)
# by its @examples
ORACLE_EXAMPLES = ("tests/test_oracle.py::test_brute_force_matches_reference_scan",)


def cli_test(name):
    """The node id of one test in test_cli.py, or of one of its parameter sets."""
    return (f"tests/test_cli.py::{name}",)


SHAPE_TEST = "test_each_stream_shape_writes_the_per_row_writers_bytes"


def shape(*names):
    """The node ids of rows of the stream shape table in test_cli.py."""
    return tuple(f"tests/test_cli.py::{SHAPE_TEST}[{name}]" for name in names)


SCANNED = cli_test("test_a_scanned_argv_reads_as_argparse_reads_it")  # by its @examples
COUNTS = cli_test("test_the_counts_are_their_decimal_strings")  # by its @examples
LIMITS = cli_test("test_limits_round_the_row_count_write_the_per_row_writers_bytes")


# (file under src/lincong, old text, new text, reason, test files or node ids)
MUTANTS = [
    ("cli.py", "not value[1:].isdecimal()", "not value[1:].isdigit()",
     "_scan reads '-²' as a negative number, which argparse takes for an option", SCANNED),
    ("cli.py", "closed = bool(positionals)", "closed = False",
     "_scan reads positionals on both sides of a flag, which argparse splits", SCANNED),
    ("core.py", "if rows + p2 // rows <= runs:", "if rows + p2 // rows < runs:",
     "_blocks stays at depth 1 at a tie that a deeper block serves as well",
     shape("deep-2-tie")),
    ("core.py", "_GROUP_LEAST = 16", "_GROUP_LEAST = 2",
     "groups of 2 to 15 prefixes, each slower than one prefix a pair", shape("runs-15-prefixes")),
    ("core.py", "yield run[:size]", "yield run[:size - 1]",
     "_slices drops one value of each slice of a long cycle",
     shape("slices-1025", "slices-across-a-prefix")),
    ("core.py", "range(x, m, g) if x < g else", "range(x, m, g) if x <= g else",
     "_cycles reads a seed value equal to its stride as reduced, and loses the "
     "values below it", CORE),
    ("core.py", "if max(s.gcds) <= _BLOCK_ROWS:", "if max(s.gcds) < _BLOCK_ROWS:",
     "_rows walks blocks for a 1024-value cycle, which one product holds", CORE),
    ("oracle.py", "if n * (m.bit_length() - 1) >= cap.bit_length() or m ** n > cap:",
     "if m ** n > cap:",
     "brute_force computes m**n of any size before refusing it", ORACLE),
    ("oracle.py", "{(b - r) % m for r, prefixes in left.items() if prefixes}",
     "{r for r, prefixes in left.items() if prefixes}",
     "brute_force builds the right classes of the left residues, not the ones that "
     "complete them", ORACLE_EXAMPLES),
    ("oracle.py", "{(b - r) % m for r, prefixes in left.items() if prefixes}",
     "{(b + r) % m for r, prefixes in left.items() if prefixes}",
     "equivalent: the left residues are the image of a linear map into Z_m, a "
     "subgroup, so {b + r} and {b - r} are one set", ()),
    ("oracle.py", "wanted is None or level < len(rest)", "wanted is None",
     "_residue_table builds only the wanted classes at every level, so a three-unknown "
     "right half loses the classes that feed a wanted one", ORACLE_EXAMPLES),
    ("cli.py", "except OSError as exc:  # an unreadable stdin", "except ValueError as exc:  #",
     "a failed stdin read reaches main's stdout handler, which points descriptor 1 "
     "at the null device", cli_test("test_an_unreadable_stdin_leaves_stdout_alone")),
    ("cli.py", "context.divide(p1, p2)", "context.divide(p1, p2 + 1)",
     "_counts divides p1 by p2 + 1 when it reads a long s off p1",
     cli_test("test_long_counts_are_written_under_the_default_digit_limit")),
    ("cli.py", "context.divide(p1, basis_size)", "context.divide(p1, basis_size + 1)",
     "_counts divides p1 by s + 1 when it reads a long p2 off p1", COUNTS),
    ("cli.py", "Emax=decimal.MAX_EMAX, ", "",
     "_counts keeps decimal's default Emax, which overflows past a million digits",
     cli_test("test_the_quotient_writes_a_count_past_a_million_digits")),
    ("cli.py", "Decimal(c.modulus), c.arity - 1)", "Decimal(c.modulus), c.arity)",
     "_counts raises m to the n-th power, not the (n - 1)-th, when it writes a long p1", COUNTS),
    ("cli.py", "prec=bits * 30103 // 100000 + 1,", "prec=bits * 30103 // 100000,",
     "_counts' precision is one digit short of a p1 such as 10**1000 + 1, so the power "
     "rounds and the trapped Inexact raises", COUNTS),
    ("cli.py", "if bits < _LONG_BITS:", "if bits < 0:",
     "_counts writes every p1 at n >= 2 in decimal, so a tiny solve imports it",
     cli_test("test_each_subcommand_loads_only_what_it_uses")),
    ("cli.py", "sys.set_int_max_str_digits(0)", "sys.set_int_max_str_digits(digit_limit)",
     "main keeps the int/str digit limit, so a p1 of over 4,300 digits is refused",
     cli_test("test_solve_parses_a_5000_digit_modulus")),
    ("cli.py", "(lead % prefixes[0]).join(tail if left >= 0 else tail[:left])",
     "(lead % prefixes[0]).join(tail)",
     "_write writes a single prefix's whole block past the limit", shape("deep-2")),
    ("cli.py", "heads.pop().join(tail if left >= 0 else tail[:left])", "heads.pop().join(tail)",
     "_write writes a group's last whole block past the limit", shape("groups-deep")),
    ("cli.py", "skip = len(glue)", "skip = 0",
     "_write writes the glue that ends a row before the stream's first row too",
     shape("runs-p2-9")),
    ("cli.py", "out.write(text[skip:])", "sys.stdout.write(text[skip:])",
     "_write writes its rows to sys.stdout, not to the sink it is given, which only a "
     "caller that passes another sink than main's stdout can see", shape("runs-p2-9")),
    ("core.py", "fixed = tuple(head[:-1])", "fixed = tuple(x0[:lead - 1])",
     "_expand_runs gives every group of a seed the seed's fixed lead, not the odometer's",
     shape("groups-fixed-lead")),
    ("core.py", "[(*fixed, x) for x in part]", "[(x, *fixed) for x in part]",
     "_rows puts a group's slice value before its fixed lead",
     ("tests/test_core.py::test_enumerate_all_writes_a_groups_stream_as_prefix_tuples",)),
    ("core.py", "if k < 0:", "if k < 0 or k > i:",
     "equivalent: _lex_runs' odometer sets k to i - 1 and only lowers it, so k > i "
     "never holds", ()),
    ("core.py", 'else "runs" if size else "slices")', 'else "runs")',
     "_blocks takes the runs path for a cycle longer than _BLOCK_ROWS values, so a "
     "run of 10**300 values is held whole as one block", shape("slices-1025")),
    ("core.py", 'else "runs" if size else "slices")', 'else "runs" if size > 1 else "slices")',
     "_blocks cuts a cycle of exactly _BLOCK_ROWS values into slices, which one run "
     "holds", shape("runs-1024")),
    ("core.py", "min(gcds[-depth - 1], size) >= _GROUP_LEAST",
     "min(gcds[-depth - 1], size) > _GROUP_LEAST",
     "_blocks writes 16 prefixes one a pair, not as one group", shape("groups-16-prefixes")),
    ("core.py", 'else "deep" if depth > 1 else', 'else "deep" if depth > 2 else',
     "_blocks names a depth-2 block's stream runs, so its list of cycles is rendered "
     "as lone values", shape("deep-2")),
    ("core.py", "if bound == g:", "if bound >= g:",
     "_lex_runs takes one last value per x_{n-1} when x_n takes several", CORE),
    ("cli.py", "if block != shown:", "if block is not shown:",
     "_write renders a block afresh for each seed whose equal run is a new range",
     cli_test("test_enumerate_reuses_a_run_shared_by_two_seeds")),
    ("cli.py", 'value == "" or value == "--"', 'value == ""',
     "_scan takes --flag=-- for the value '--', which argparse reads otherwise", SCANNED),
    ("cli.py", 'value == "" or value == "--"', 'value == "--"',
     "equivalent on 3.11: argparse reads --limit= as limit='', as the scan then does; "
     "the rule stays for the other versions CI runs", ()),
    ("cli.py", 'if dest == "format" and value not in FORMATS:', "if False:",
     "_scan takes a --format outside FORMATS, which argparse refuses with a usage error",
     cli_test("test_argparse_exits_keep_their_bytes")),
    ("cli.py", "if dest is None or dest in values:", "if dest is None:",
     "_scan reads a flag given twice itself, not passing the argv on to argparse",
     cli_test("test_each_spelling_of_an_argv_prints_the_same")),
    ("cli.py", "elif extra:", "elif extra < 0:",
     "_scan drops positionals past the ones a command takes, which argparse refuses",
     cli_test("test_argparse_exits_keep_their_bytes")),
    ("cli.py", "if expand and not s.solvable:", "if not s.solvable:",
     "_write writes an unsolvable solve as it does an enumerate: no counting summary",
     cli_test("test_solve_unsolvable_still_prints_summary")),
    ("core.py", "islice(rows, _BLOCK_ROWS)", "islice(rows, _BLOCK_ROWS - 1)",
     "_blocks batches a basis stream 1,023 rows a block, not 1,024",
     cli_test("test_enumerate_at_p2_1_writes_blocks_of_1024_rows")),
    ("cli.py", "if not isinstance(values, str):", "if False:",
     "argparse's empty list for --limit=-- reaches the command, a TypeError",
     cli_test("test_a_double_dash_flag_value_is_a_usage_error")),
    ("core.py", "if p2 <= _SEED_MAJOR_MOST and", "if p2 < _SEED_MAJOR_MOST and",
     "_blocks writes p2 = 8 as runs per seed, not as whole rows built seed-major",
     shape("seed-major-p2-8")),
    ("core.py", "gcds[-1] < _SEED_MAJOR_MOST", "gcds[-1] <= _SEED_MAJOR_MOST",
     "_blocks builds whole rows for a last cycle of 8 values, which one run per seed "
     "writes faster", shape("runs-last-8")),
    ("cli.py", "-(-left // s.expansion_count)", "left // s.expansion_count",
     "_write_rows pulls floor(left / p2) seeds, so --limit 7 at p2 = 8 writes no row",
     shape("seed-major-p2-8")),
    ("core.py", "for col, g in zip(zip(*batch), strides)",
     "for col, g in zip(zip(*batch), strides[::-1])",
     "_seed_major shifts each column by another coordinate's stride", shape("seed-major-p2-8")),
    ("core.py", "islice(seeds, _BLOCK_ROWS // c.summary.expansion_count)",
     "islice(seeds, _BLOCK_ROWS // c.summary.expansion_count + 1)",
     "_seed_major takes one seed too many a batch, so a block holds over 1024 rows",
     shape("seed-major-p2-4")),
    ("parser.py", "len(set(names)) == len(names) and ", "",
     "parse's one match takes a variable written twice, which the rules refuse", PARSER),
    ("parser.py", ' and "".join(names).translate(_NAME_CHARS).isalpha()', "",
     "parse's one match takes a name holding a numeral such as '²' or '٣', which \\w "
     "matches and the grammar refuses", PARSER),
    ("core.py", "rhs=raw_b % m,", "rhs=raw_b,",
     "normalize leaves the rhs unreduced, and builds the record past the checks "
     "that would refuse it", CORE),
    ("cli.py", "bits = s.gcd_all.bit_length() + (c.arity - 1) * c.modulus.bit_length()",
     "bits = s.gcd_all.bit_length()",
     "_counts' bound on p1's bits leaves out the modulus, so it writes a p1 of 199,901 "
     "digits with str, which the default int/str digit limit refuses",
     cli_test("test_long_counts_are_written_under_the_default_digit_limit")),
    ("oracle.py", "next(rows, None) is None", "True",
     "verify takes a basis whose rows run on past the scan's count, such as a seed "
     "listed twice at the end",
     ("tests/test_oracle.py::test_verify_rejects_overlapping_expansions",)),
    ("core.py", "*factors[len(factors) & ~1:]]", "]",
     "summary's balanced product drops the odd factor out of a level",
     ("tests/test_core.py::test_a_balanced_p2_is_the_product_of_the_gcds",)),
    ("core.py", "suffix_gcds=tuple(h[:0:-1]))",
     "suffix_gcds=tuple(h[:0:-1]), solution_count=d * m ** (self.arity - 1))",
     "summary builds p1 at once, also where no count reads it",
     cli_test("test_counts_past_the_cutover_build_no_p1_or_s")),
    ("core.py", "(summary.strides[0] * summary.gcds[0])", "(summary.strides[0])",
     "counts built on first read take g_1 for the modulus",
     ("tests/test_records.py::test_a_summary_built_on_first_read_reads_as_one_built_whole",)),
    ("cli.py", "left, truncated = limit, True", "left, truncated = limit, limit > 0",
     "solve and enumerate --limit 0 write no cut mark", shape("runs-p2-9")),
    ("cli.py", "limit.bit_length() <= (", "limit.bit_length() <= 1 + (",
     "_write's bound on the rows there are is one bit too long, so a limit of "
     "p1 rows is marked as a cut", LIMITS),
    ("cli.py", "\n            - (0 if expand else s.expansion_count.bit_length())", "",
     "_write bounds solve's basis rows by p1's bound, so a limit of s rows is "
     "marked as a cut", LIMITS),
    ("cli.py", "except BrokenPipeError:", "except ZeroDivisionError:",
     "main reports a reader that hangs up early as an error, exit 2",
     cli_test("test_enumerate_into_closed_pipe_exits_cleanly")),
    ("cli.py", "except MemoryError:", "except ZeroDivisionError:",
     "main lets memory running out end the call in a traceback, exit 1",
     cli_test("test_running_out_of_memory_is_one_error_line")),
    ("cli.py", "if left:", "if left > 1:",
     "_write starts no stream when one row is due, so --limit 1 writes no row",
     cli_test("test_enumerate_pulls_only_the_seeds_whose_rows_it_prints[1-1]")),
    ("cli.py", "if left:", "if True:",
     "_write starts a stream when no row is due, which writes a close with no row: "
     "basis:\\n\\n# truncated at --limit 0",
     cli_test("test_a_call_that_writes_no_row_builds_no_stream")),
    ("cli.py", "def print_help(self, file=None):", "def _print_help(self, file=None):",
     "argparse's own print_help swallows a failed write of the help text and exits 0",
     cli_test("test_help_to_a_failing_stdout_is_one_error_line")),
    # three edits above again, each killed by one writer property test alone
    ("core.py", "yield run[:size]", "yield run[:size - 1]",
     "_slices drops one value of each slice: 0x ≡ 0 (mod 4096), one cycle of 4096 values",
     cli_test("test_enumerate_renders_runs_as_rows_byte_for_byte")),
    ("core.py", "for col, g in zip(zip(*batch), strides)",
     "for col, g in zip(zip(*batch), strides[::-1])",
     "_seed_major shifts each column by another coordinate's stride: x + y + 2z ≡ 0 "
     "(mod 1000) at p2 = 2", cli_test("test_small_p2_streams_write_the_per_row_writers_bytes")),
    ("cli.py", "\n            - (0 if expand else s.expansion_count.bit_length())", "",
     "_write bounds solve's basis rows by p1's bound: 2x + 2y ≡ 0 (mod 8) with --limit 4, "
     "s, marked as a cut", cli_test("test_solve_streams_the_basis_byte_for_byte")),
]


def missing(name):
    """Why pytest would find no test file or node id `name`, or "" when it would."""
    path, _, node = name.partition("::")
    test, _, param = node.partition("[")
    if not (ROOT / path).is_file():
        return f"no file {path}"
    if test and f"\ndef {test}(" not in (ROOT / path).read_text(encoding="utf-8"):
        return f"no test {test} in {path}"
    if test == SHAPE_TEST and param and param[:-1] not in STREAM_SHAPES:
        return f"no stream shape {param[:-1]!r}"
    return ""


def stale(file, old, names, missing=missing):
    """Why a row is STALE, or [] when it is live: its old text does not occur
    exactly once in src/lincong/file, or missing(name) finds one of its names gone."""
    count = (ROOT / "src" / "lincong" / file).read_text(encoding="utf-8").count(old)
    why = [f"the old text occurs {count} times"] * (count != 1)
    return why + [f"{name}: {gone}" for name in names if (gone := missing(name))]


def edited_copy(source, dest, file=None, old="", new=""):
    """Copy the directory source to dest, without .git, caches or bench
    output, and replace old by new in dest/file unless file is None."""
    shutil.copytree(source, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info", ".bench_out",
        ".bench_build"))
    if file is not None:
        path = dest / file
        path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")


def run_tests(tests, file=None, old="", new=""):
    """pytest's exit status and output for the tests on a copy of the
    repository with old replaced by new in src/lincong/file, or unmutated
    when file is None; the status is None when the run passed TIMEOUT."""
    with tempfile.TemporaryDirectory(prefix="lincong-mutant-") as tmp:
        copy = pathlib.Path(tmp) / "repo"
        edited_copy(ROOT, copy, file and f"src/lincong/{file}", old, new)
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        # a session of its own, so a timeout ends the processes the tests start too
        with subprocess.Popen([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               *tests], cwd=copy, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, start_new_session=True) as proc:
            try:
                output = proc.communicate(timeout=TIMEOUT)[0]
            except subprocess.TimeoutExpired:
                with contextlib.suppress(ProcessLookupError):  # the group may be gone by now
                    os.killpg(proc.pid, signal.SIGKILL)
                return None, ""
    return proc.returncode, output


def judge(code):
    """The verdict on a mutant whose pytest run exited with code (None past
    TIMEOUT), and whether it counts as failing: 1, a failed test, and 2, an
    interrupted run such as a test file that no longer collects, kill it; 0
    is a survivor; 3, 4 and 5 (an internal or usage error, or no tests
    collected) judge nothing."""
    killed = {None: "killed (timeout)", 1: "killed", 2: "killed (exit 2)"}
    if code in killed:
        return killed[code], False
    return ("SURVIVED" if code == 0 else f"ERROR (exit {code})"), True


def main():
    start = time.perf_counter()
    live = []
    for row in MUTANTS:
        file, old, new, _, tests = row
        if why := stale(file, old, tests):
            print(f"{'STALE':10} {file}: {old!r} -> {new!r}: {'; '.join(why)}")
        else:
            live.append(row)
    failed = len(MUTANTS) - len(live)
    tests = sorted({name.partition("::")[0] for *_, names in live for name in names})
    code, output = run_tests(tests)
    if code != 0:
        print(f"the unmutated copy fails {' '.join(tests)}, so no mutant can be judged:\n"
              + (output or f"it ran past {TIMEOUT} s"))
        return 1
    print(f"{'passed':10} unmutated: {' '.join(tests)} ({time.perf_counter() - start:.0f} s)")
    for file, old, new, reason, tests in live:
        label = f"{file}: {old!r} -> {new!r}"
        if not tests:
            print(f"{'equivalent':10} {label}\n    {reason}")
        else:
            t0 = time.perf_counter()
            code, output = run_tests(tests, file, old, new)
            verdict, failing = judge(code)
            print(f"{verdict:10} {label} ({time.perf_counter() - t0:.0f} s)\n    {reason}")
            if verdict.startswith("ERROR"):
                print(output)
            failed += failing
    print(f"{len(MUTANTS)} mutants, {failed} failing, in {time.perf_counter() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
