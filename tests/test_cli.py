"""Command-line behavior: subcommands, exit codes, JSON stability."""

import argparse
import hashlib
import io
import itertools
import json
import os
import pathlib
import random
import resource
import subprocess
import sys
import threading
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from math import comb, gcd, lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis.strategies import composite, integers, lists, one_of, sampled_from

import lincong.cli
import lincong.core
import lincong.oracle
from lincong.cli import main
from lincong.core import (are_dependent, build_basis, enumerate_all, expand, module_generators,
                          normalize, summarize)
from lincong.oracle import OracleReport
from lincong.parser import ParsedCongruence, parse

from helpers import assert_same_text, random_instances
from shapes import STREAM_SHAPES, per_row_output, reference_rows
from test_golden import CASES, GOLDEN

REF_EXPR = "2x - 6y ≡ 2 (mod 12)"


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


class Discard(io.TextIOBase):
    """A stdout that drops what it is given."""

    def write(self, text):
        return len(text)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def spawn(argv, python=("-m", "lincong"), env=(), address_space=1 << 30, **popen):
    """A running `python -m lincong *argv` (or python with other arguments
    before argv) in text mode, with src on its path and env's entries added
    to the environment, capped at address_space bytes of address space: by
    default 1 GiB, so a writer that collects what it should stream fails
    within seconds instead of growing for as long as memory lasts."""
    env = {**os.environ, "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""),
           **dict(env)}
    cap = (address_space, address_space)
    return subprocess.Popen([sys.executable, *python, *argv], env=env, text=True,
                            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, cap),
                            **popen)


def finish(argv, stdout=subprocess.PIPE, **kwargs):
    """(exit status, stdout, stderr) of spawn(argv, ...) run to its end."""
    with spawn(argv, stdout=stdout, stderr=subprocess.PIPE, **kwargs) as proc:
        try:
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
    return proc.returncode, out, err


def read_then_hang_up(argv, read):
    """What read(stdout) takes from a running `python -m lincong *argv`
    before its reader hangs up, which the writer must meet by exiting 0 with
    nothing on stderr.  A writer that never gets to its first line is
    killed, so the read ends."""
    proc = spawn(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    deadline = threading.Timer(30, proc.kill)
    deadline.start()
    try:
        got = read(proc.stdout)
        proc.stdout.close()
        assert proc.wait(timeout=30) == 0
        assert proc.stderr.read() == ""
    finally:
        deadline.cancel()
        proc.kill()
        proc.stderr.close()
    return got


def head(k):
    """A read of read_then_hang_up: the first k lines."""
    return lambda out: list(itertools.islice(out, k))


def decimal(n):
    """str(n) with the interpreter's int/str digit limit lifted for the call."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def test_solve_text(capsys):
    code, out, err = run(capsys, "solve", REF_EXPR)
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert "congruence: 2*x - 6*y ≡ 2 (mod 12)" in lines
    assert "d = 2" in lines
    assert "solvable = true" in lines
    assert "solutions (p1) = 24" in lines
    assert "per-seed (p2) = 12" in lines
    assert "basis size (s) = 2" in lines
    assert lines[-2:] == ["1 0", "4 1"]


def test_solve_json(capsys):
    code, out, _ = run(capsys, "solve", REF_EXPR, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "d": "2",
        "solvable": True,
        "p1": "24",
        "p2": "12",
        "s": "2",
        "basis": [[1, 0], [4, 1]],
        "truncated": False,
    }
    assert list(doc) == ["d", "solvable", "p1", "p2", "s", "basis", "truncated"]


def test_solve_json_is_byte_stable(capsys):
    _, first, _ = run(capsys, "solve", REF_EXPR, "--format", "json")
    _, second, _ = run(capsys, "solve", REF_EXPR, "--format", "json")
    assert first == second


def test_solve_unsolvable_still_prints_summary(capsys):
    code, out, _ = run(capsys, "solve", "2x ≡ 1 (mod 4)")
    assert code == 3
    assert "solvable = false" in out
    assert "d = 2" in out
    assert "basis:" not in out


def test_solve_unsolvable_json(capsys):
    code, out, _ = run(capsys, "solve", "2x ≡ 1 (mod 4)", "--format", "json")
    assert code == 3
    doc = json.loads(out)
    assert doc["solvable"] is False
    assert "basis" not in doc


def test_solve_huge_modulus_with_limit(capsys):
    code, out, _ = run(capsys, "solve", "2x + 2y ≡ 0 (mod 1000000000000)",
                       "--format", "json", "--limit", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["p1"] == "2000000000000"
    assert doc["s"] == "500000000000"
    assert len(doc["basis"]) == 2
    assert doc["truncated"] is True


def test_enumerate_huge_modulus_with_limit(capsys):
    code, out, _ = run(capsys, "enumerate", "2x + 2y ≡ 0 (mod 1000000000000)",
                       "--limit", "3")
    assert code == 0
    assert out.splitlines()[:3] == ["0 0", "0 500000000000", "500000000000 0"]


@pytest.fixture
def pulled(monkeypatch):
    """The basis rows the CLI pulls from its walk, in the order it pulls them."""
    rows = []
    walk = lincong.cli.iter_basis
    monkeypatch.setattr(lincong.cli, "iter_basis",
                        lambda c: (rows.append(row) or row for row in walk(c)))
    return rows


def test_solve_limit_pulls_only_the_rows_it_prints(capsys, pulled):
    # the limit cuts the walk before its rows are grouped into blocks of
    # 1024, so a block never pulls rows past the limit
    code, out, _ = run(capsys, "solve", "x + y + z ≡ 0 (mod 1000)", "--limit", "2")
    assert code == 0
    assert out.endswith("basis:\n0 0 0\n0 1 999\n# truncated\n")
    assert pulled == [(0, 0, 0), (0, 1, 999)]


def test_enumerate_at_p2_1_pulls_only_the_rows_it_prints(capsys, pulled):
    # at p2 = 1 the basis rows are the solutions; they are cut before they are
    # batched, so a limit of 60 pulls 60 rows from the walk, not 1024
    code, out, _ = run(capsys, "enumerate", "x + y + z ≡ 0 (mod 1000)", "--limit", "60")
    assert code == 0
    assert len(pulled) == 60
    assert out == "".join("%d %d %d\n" % row for row in pulled) + "# truncated\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command, coeffs, rhs, mod, limit", [
    ("solve", (2, 6), 2, 12, 0), ("enumerate", (2, 6), 2, 12, 0), ("solve", (2, 4), 1, 6, None),
    ("solve", (2, 4), 1, 6, 0)])
def test_a_call_that_writes_no_row_builds_no_stream(capsys, monkeypatch, fmt, command, coeffs, rhs,
                                                    mod, limit):
    # --limit 0 and an unsolvable solve write the counts and the cut mark
    # alone, so neither the walk nor its blocks are started
    c, expand = normalize(coeffs, rhs, mod), command == "enumerate"
    want = per_row_output(c, fmt, reference_rows(c, limit, expand), limit, expand)

    def no_stream(*args):
        raise AssertionError("a row stream was started")

    monkeypatch.setattr(lincong.cli, "iter_basis", no_stream)
    monkeypatch.setattr(lincong.cli, "_blocks", no_stream)
    argv = [command, f"--coeffs={','.join(map(str, coeffs))}", f"--rhs={rhs}", f"--mod={mod}",
            f"--format={fmt}", *[f"--limit={limit}"] * (limit is not None)]
    assert run(capsys, *argv) == (0 if summarize(c).solvable else 3, want, "")


@pytest.mark.parametrize("limit, seeds", [(0, 0), (1, 1), (8, 1), (9, 2), (16, 2), (20, 3)])
def test_enumerate_pulls_only_the_seeds_whose_rows_it_prints(capsys, pulled, limit, seeds):
    # p2 = 8: each basis row expands into 8 rows, so L rows take ceil(L / 8)
    code, out, _ = run(capsys, "enumerate", "2x + 2y + 2z ≡ 0 (mod 1000)", "--limit", str(limit))
    assert code == 0
    assert len(pulled) == seeds
    assert out.count("\n") == limit + 1


@pytest.mark.parametrize("limit, blocks", [(0, 0), (1, 1), (299, 1), (300, 1), (301, 2), (900, 3),
                                           (901, 4), (1000, 4), (4500, 15), (4501, 16)])
def test_enumerate_pulls_only_the_blocks_it_prints(capsys, monkeypatch, limit, blocks):
    # 15,10,6,5 mod 30 is written in blocks of the deepest three unknowns,
    # 300 rows each: L rows fill ceil(L / 300) blocks.  A group of x1's
    # values would hold only 1024 // 300 = 3 prefixes, fewer than pay for
    # one, so a pair is one prefix and its block, and no pair after the one
    # that holds row L is pulled
    pulled = []
    expand_runs = lincong.core._expand_runs

    def counting_runs(seeds, c, path, depth, size):
        assert (path, depth) == ("deep", 3)
        for prefixes, block in expand_runs(seeds, c, path, depth, size):
            pulled.append(len(prefixes))
            yield prefixes, block

    monkeypatch.setattr(lincong.core, "_expand_runs", counting_runs)
    code, out, _ = run(capsys, "enumerate", "--coeffs=15,10,6,5", "--rhs=0", "--mod=30",
                       "--limit", str(limit))
    assert code == 0
    assert pulled == [1] * blocks
    if limit:
        assert 300 * sum(pulled[:-1]) < limit <= 300 * sum(pulled)
    assert out.count("\n") == limit + 1


def test_solve_limit_truncates(capsys):
    code, out, _ = run(capsys, "solve", REF_EXPR, "--format", "json",
                       "--limit", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["basis"] == [[1, 0]]
    assert doc["truncated"] is True


def test_solve_parse_error(capsys):
    code, out, err = run(capsys, "solve", "2x ≡ 1")
    assert code == 2
    assert out == ""
    assert "error: position 7: missing modulus" in err


def test_solve_rejects_non_ascii_digit_with_position(capsys):
    code, out, err = run(capsys, "solve", "x ≡ 1 (mod 7²)")
    assert code == 2
    assert out == ""
    assert err == "error: position 13: expected ')'\n"


def test_solve_coeffs_mode(capsys):
    _, expr_out, _ = run(capsys, "solve", REF_EXPR, "--format", "json")
    code, out, _ = run(capsys, "solve", "--coeffs", "2,-6", "--rhs", "2",
                       "--mod", "12", "--format", "json")
    assert code == 0
    assert out == expr_out


def test_solve_coeffs_mode_names_variables(capsys):
    code, out, _ = run(capsys, "solve", "--coeffs", "2,-6", "--rhs", "2",
                       "--mod", "12")
    assert code == 0
    assert "congruence: 2*x1 - 6*x2 ≡ 2 (mod 12)" in out


def test_instance_flag_misuse(capsys):
    code, _, err = run(capsys, "solve", "--coeffs", "2,-6")
    assert code == 2
    assert "requires --rhs and --mod" in err
    code, _, err = run(capsys, "solve", REF_EXPR, "--coeffs", "2,-6",
                       "--rhs", "2", "--mod", "12")
    assert code == 2
    assert "not both" in err
    code, _, err = run(capsys, "solve")
    assert code == 2
    code, _, err = run(capsys, "solve", "--coeffs", "2,oops", "--rhs", "0",
                       "--mod", "5")
    assert code == 2
    assert "comma-separated integers" in err


@pytest.mark.parametrize("argv, err", [
    (["solve", "--coeffs=١,2", "--rhs=0", "--mod=5"],
     "error: --coeffs: expected comma-separated integers, got '١,2'\n"),
    (["solve", "--coeffs=1_0", "--rhs=0", "--mod=5"],
     "error: --coeffs: expected comma-separated integers, got '1_0'\n"),
    (["solve", "--coeffs=1,2", "--rhs=0", "--mod=٥"], "error: --mod: expected an integer, got '٥'\n"),
    (["enumerate", "--coeffs=1,2", "--rhs=1e3", "--mod=5"],
     "error: --rhs: expected an integer, got '1e3'\n"),
    (["verify", "--coeffs=1,2", "--rhs=0", "--mod=5,5"],
     "error: --mod: expected an integer, got '5,5'\n"),
    (["check", REF_EXPR, "7,٤", "1,0"],
     "error: solution_a: expected comma-separated integers, got '7,٤'\n"),
    (["solve", "x ≡ 1 (mod 5)", "--limit=٣"], "error: --limit: expected an integer, got '٣'\n"),
    (["enumerate", "x ≡ 1 (mod 5)", "--limit=1_0"],
     "error: --limit: expected an integer, got '1_0'\n"),
    (["verify", "x ≡ 1 (mod 5)", "--cap=１０"], "error: --cap: expected an integer, got '１０'\n"),
    (["verify", "--seed=٣"], "error: --seed: expected an integer, got '٣'\n"),
])
def test_flag_integers_follow_the_grammars_digits(capsys, argv, err):
    # a digit is 0-9 in a flag as in an expression, where '١x' is an error too
    assert run(capsys, *argv) == (2, "", err)


def test_flag_integers_may_carry_whitespace_and_signs(capsys):
    want = run(capsys, "solve", "--coeffs=2,-6", "--rhs=2", "--mod=12")
    assert want[0] == 0
    assert run(capsys, "solve", "--coeffs=2, - 6", "--rhs= +2", "--mod=12\u00a0") == want


@pytest.mark.parametrize("argv", [
    ["solve", "x ≡ 1 (mod 3)", "--mod", "7", "--rhs", "2"],
    ["solve", "x ≡ 1 (mod 3)", "--mod", "7"],
    ["enumerate", "x ≡ 1 (mod 3)", "--rhs", "2"],
    ["check", "x ≡ 1 (mod 3)", "1", "1", "--rhs", "2"],
    ["verify", "x ≡ 1 (mod 3)", "--mod", "7"],
    ["solve", "--rhs", "2", "--mod", "7"],
    ["verify", "--seed", "1", "--rhs", "3"],
    ["verify", "--seed", "1", "--mod", "3"],
])
def test_rhs_and_mod_without_coeffs_are_rejected(capsys, argv):
    # an expression carries its own rhs and modulus, and a random batch
    # draws them: a stray --rhs or --mod is an error, not silently ignored
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err in ("error: --rhs and --mod go with --coeffs\n",
                   "error: --seed runs a random batch; do not pass an instance too\n")


def test_stdin_expression(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(REF_EXPR + "\n"))
    code, out, _ = run(capsys, "solve", "-", "--format", "json")
    assert code == 0
    assert json.loads(out)["p1"] == "24"


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, "enumerate", REF_EXPR)
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == 24
    assert rows[0] == "1 0"
    assert rows[-1] == "10 11"
    assert len(set(rows)) == 24


def test_enumerate_single_unknown(capsys):
    code, out, _ = run(capsys, "enumerate", "x ≡ 3 (mod 5)")
    assert code == 0
    assert out == "3\n"


def test_enumerate_limit(capsys):
    code, out, _ = run(capsys, "enumerate", REF_EXPR, "--limit", "5")
    assert code == 0
    rows = out.splitlines()
    assert rows[-1] == "# truncated"
    assert len(rows) == 6


def test_enumerate_json_limit(capsys):
    code, out, _ = run(capsys, "enumerate", REF_EXPR, "--format", "json",
                       "--limit", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["solutions"] == [[1, 0], [1, 2], [1, 4], [1, 6], [1, 8]]
    assert doc["truncated"] is True
    assert list(doc) == ["d", "solvable", "p1", "p2", "s", "solutions",
                         "truncated"]


def test_enumerate_json_full(capsys):
    code, out, _ = run(capsys, "enumerate", REF_EXPR, "--format", "json")
    doc = json.loads(out)
    assert len(doc["solutions"]) == 24
    assert doc["truncated"] is False


@composite
def instances(draw):
    # arity 1-5 with m**n <= 4096, solvable or not, small enough to list every row
    n = draw(integers(min_value=1, max_value=5))
    m = draw(integers(min_value=1, max_value=(4096, 64, 16, 8, 5)[n - 1]))
    coeffs = draw(lists(integers(min_value=0, max_value=m - 1), min_size=n, max_size=n))
    return normalize(coeffs, draw(integers(min_value=0, max_value=m - 1)), m)


def runs_case(c):
    """enumerate's limits for c, or for c with rhs 0 when c is unsolvable,
    around its first run and its last row."""
    c = c if c.summary.solvable else normalize(c.coeffs, 0, c.modulus)
    s = c.summary
    p1, run = s.solution_count, s.gcds[-1]  # every run of a reduced seed has gcd(a_n, m) rows
    return c, True, (None, 0, 1, run, run + run // 2, p1 - 1, p1, p1 + 1, 10**20)


def solve_case(c):
    """solve's limits for c, solvable or not, around its last basis row."""
    s = c.summary.basis_size
    return c, False, (None, 0, 1, s - 1, s, s + 1, 10**20)


def small_p2_case(c, k):
    """enumerate's limits at p2 >= 2: on the first row, on either side of the
    first seed's last row, past the first block of whole rows, off a seed
    boundary by k, and where m**n is small, nowhere."""
    p2 = c.summary.expansion_count
    limits = (0, 1, p2 - 1, p2 + 1, (lincong.core._BLOCK_ROWS // p2 + k) * p2 + 1 + k % (p2 - 1))
    return c, True, limits + (None,) * (c.modulus ** c.arity <= 20000)


@composite
def small_p2_instances(draw):
    # p2 from 2 to 16 split over arity 1-5 as g_i = gcd(a_i, m), with a
    # modulus of up to 300 digits that every g_i divides: a_i is g_i times a
    # drawn multiplier when that keeps gcd(a_i, m) = g_i, else g_i itself.
    # At small p2 enumerate builds whole rows seed-major, or runs per seed
    # past the cutover
    p2, n = draw(integers(2, 16)), draw(integers(1, 5))
    gcds = [1] * n
    for p in (2, 3, 5, 7, 11, 13):
        while p2 % p == 0:
            p2 //= p
            gcds[draw(integers(0, n - 1))] *= p
    m = lcm(*gcds) * draw(one_of(integers(1, 6), integers(1, 10**299)))
    coeffs = []
    for g in gcds:
        a = g * draw(integers(1, m)) % m
        coeffs.append(a if gcd(a, m) == g else g)
    c = normalize(coeffs, gcd(*coeffs, m) * draw(integers(0, m - 1)) % m, m)
    return small_p2_case(c, draw(integers(0, 40)))


@cache
def block_plans():
    """The (m, gcds) of 3 or 4 unknowns, each g_i a divisor of a modulus with
    many divisors, whose p1 = d * m**(n - 1) is at most 6,000 (no 5 unknowns'
    is) and that enumerate writes in blocks of two or more coordinates.  It
    runs on the test's first draw, not at import, so a mutant that moves a
    plan fails the test, not its collection; the shape table checks the plans
    of the test's block @examples."""
    plans = []
    for m in (12, 18, 24, 30, 36):
        divisors = [g for g in range(1, m + 1) if m % g == 0]
        for gcds in itertools.chain(*(itertools.product(divisors, repeat=n) for n in (3, 4))):
            if gcd(*gcds) * m ** (len(gcds) - 1) <= 6000:
                path, depth = lincong.core._blocks((), normalize(gcds, 0, m))[0]
                if path in ("deep", "groups") and depth >= 2:
                    # the block covers the deepest coordinates, and a coordinate
                    # outside it moves, so each block is joined onto more than one prefix
                    assert prod(gcds[-depth:]) <= lincong.core._BLOCK_ROWS
                    assert prod(gcds[:-depth]) > 1
                    plans.append((m, gcds))
    return plans


def block_case(c):
    """enumerate's limits around c's first block and its last row."""
    s = c.summary
    block = prod(s.gcds[-lincong.core._blocks((), c)[0][1]:])
    p1 = s.solution_count
    return c, True, (0, 1, block // 2, block, block + block // 2, p1 - 1, p1, p1 + 1, None)


@composite
def block_instances(draw):
    # an (m, gcds) of block_plans(), a_i = g_i * u_i with u_i a unit mod
    # m // g_i, so that gcd(a_i, m) = g_i, and a solvable rhs
    m, gcds = draw(sampled_from(block_plans()))
    coeffs = [g * draw(sampled_from([u for u in range(1, m // g + 1) if gcd(u, m // g) == 1])) % m
              for g in gcds]
    return block_case(normalize(coeffs, gcd(*gcds) * draw(integers(0, m - 1)), m))


def assert_writes_the_per_row_writers_bytes(case):
    """solve's (expand false) or enumerate's whole stdout for the case's c,
    in text and JSON, at each of its limits, is the per-row writer's bytes
    for the reference rows."""
    c, expand, limits = case
    rows = reference_rows(c, None if None in limits else max(limits), expand)
    for limit in limits:
        for fmt in ("text", "json"):
            assert_same_text(cli_stdout(c, fmt, limit, expand),
                             per_row_output(c, fmt, rows, limit, expand), (limit, fmt))


@pytest.mark.parametrize("expr", [
    "3x ≡ 6 (mod 15)",                  # arity 1, p1 = 3
    "2a + 4b + 6c + 3d ≡ 1 (mod 12)",   # arity 4, p1 = 1728
])
@pytest.mark.parametrize("limit", [None, 0, 2, 3, 1728, 5000, 10**20])
def test_enumerate_text_and_json_carry_the_same_rows(expr, limit):
    parsed = parse(expr)
    c = normalize(parsed.raw_coeffs, parsed.rhs, parsed.modulus)
    assert_writes_the_per_row_writers_bytes((c, True, (limit,)))


@settings(max_examples=60, deadline=None)
@given(instances().map(runs_case))
@example(runs_case(normalize([0], 0, 4096)))  # a cycle of 4096 values, in slices of 1024
def test_enumerate_renders_runs_as_rows_byte_for_byte(case):
    assert_writes_the_per_row_writers_bytes(case)


@settings(max_examples=60, deadline=None)
@given(small_p2_instances())
# p2 = 8 on both sides of the whole-row cutover: a last cycle of 2 and of 1
# values is written seed-major, one of 8 values as a run per seed
@example(small_p2_case(normalize([2, 2, 2], 0, 10**300), 3))
@example(small_p2_case(normalize([8, 1], 5, 16), 0))
@example(small_p2_case(normalize([1, 8], 0, 8 * 10**299), 7))
# p2 = 2, as enum-p2is2 in the benchmark, and p2 = 9 and 16 past the cutover
@example(small_p2_case(normalize([1, 1, 2], 0, 1000), 12))
@example(small_p2_case(normalize([3, 3], 3, 9 * 10**40), 1))
@example(small_p2_case(normalize([2, 2, 2, 2], 0, 6), 5))
def test_small_p2_streams_write_the_per_row_writers_bytes(case):
    assert_writes_the_per_row_writers_bytes(case)


@settings(max_examples=40, deadline=None)
@given(block_instances())
@example(block_case(normalize([15, 10, 6, 5], 0, 30)))
@example(block_case(normalize([42, 28, 12], 0, 84)))
# a tie: gcds (4, 2, 2) and p2 = 16, so 8 runs at depth 1; a depth-2 block
# of 4 rows joined 16 // 4 = 4 times costs 4 + 4 = 8, no more, so the depth is 2
@example(block_case(normalize([4, 2, 2], 0, 8)))
def test_enumerate_blocks_match_the_oracle_row_for_row(case):
    assert_writes_the_per_row_writers_bytes(case)


@settings(max_examples=60, deadline=None)
@given(instances().map(solve_case))
@example(solve_case(normalize([2], 1, 4)))  # unsolvable
@example(solve_case(normalize([4, 6, 0], 1, 8)))  # unsolvable
@example(solve_case(normalize([1, 1], 0, 2048)))  # s = 2048: two full pieces of rows
# s = 4 and p1 = 16 = 2**4: a limit of s rows reads s, as the bound on s,
# 2**(4 - bits(p2)) = 2, is below it
@example(solve_case(normalize([2, 2], 0, 8)))
def test_solve_streams_the_basis_byte_for_byte(case):
    assert_writes_the_per_row_writers_bytes(case)


@pytest.mark.parametrize("coeffs, m, expand, plan, limits", STREAM_SHAPES.values(),
                         ids=STREAM_SHAPES)
def test_each_stream_shape_writes_the_per_row_writers_bytes(coeffs, m, expand, plan, limits):
    # _blocks names the stream's path and depth; each of its first pairs
    # holds at most 1024 rows, every prefix the first n - depth values.  On
    # every path the whole stdout, solve's head included, is the per-row
    # writer's bytes for the reference rows, in text and JSON, at limit 0, 1,
    # the first pair's last row, one past it and the entry's own limits, and
    # where the row count (p1, or s for solve) is at most 30,000 at it, one
    # either side and with no limit, which enumerate_all's rows equal too.
    # At each of them _write, given the instance and a sink, puts main's
    # stdout in the sink and writes nothing to sys.stdout
    c = normalize(coeffs, 0, m)
    parsed = ParsedCongruence(tuple(f"x{i}" for i in range(1, c.arity + 1)), c.coeffs, 0, m)
    got, pairs = lincong.core._blocks(lincong.core.iter_basis(c), c, expand)
    assert got == plan
    path, depth = plan
    cycles = depth > 1 and path in ("deep", "groups")  # a block of cycles, not of rows
    sizes = []
    for prefixes, block in pairs:
        if path == "groups":  # a group pair carries its fixed lead and a slice
            prefixes = [(*prefixes[0], x) for x in prefixes[1]]
        assert {len(prefix) for prefix in prefixes} == {len(coeffs) - depth}
        sizes.append(len(prefixes) * (prod(map(len, block)) if cycles else len(block)))
        assert 0 < sizes[-1] <= lincong.core._BLOCK_ROWS
        if sum(sizes) >= 4 * lincong.core._BLOCK_ROWS:
            break
    count = c.summary.solution_count if expand else c.summary.basis_size
    limits = [0, 1, sizes[0], sizes[0] + 1, *limits]
    if count <= 30_000:
        limits += [count - 1, count, count + 1, None]
    rows = reference_rows(c, None if None in limits else max(limits), expand)
    if expand and None in limits:
        assert list(enumerate_all(build_basis(c), c)) == rows
    for limit in limits:
        for fmt in ("text", "json"):
            stdout = cli_stdout(c, fmt, limit, expand)
            sink, spill = io.StringIO(), io.StringIO()
            with redirect_stdout(spill):
                assert lincong.cli._write(sink, c, parsed, limit, fmt == "json", expand) == 0
            assert_same_text(sink.getvalue(), stdout, (limit, fmt))
            assert_same_text(spill.getvalue(), "", (limit, fmt))
            assert_same_text(stdout, per_row_output(c, fmt, rows, limit, expand), (limit, fmt))


@pytest.fixture
def str_calls(monkeypatch):
    """The values lincong.cli converts with str(), recorded by a shadowing str
    subclass, which keeps str's methods, join among them."""
    converted = []

    class CountingStr(str):
        def __new__(cls, value=""):
            converted.append(value)
            return str(value)

    monkeypatch.setattr(lincong.cli, "str", CountingStr, raising=False)
    return converted


def cli_stdout(c, fmt, limit=None, expand=True):
    """What enumerate (expand true) or solve writes to stdout for c, given by
    --coeffs, --rhs and --mod; only a solve of an unsolvable c exits 3."""
    argv = ["enumerate" if expand else "solve", f"--coeffs={','.join(map(str, c.coeffs))}",
            f"--rhs={c.rhs}", f"--mod={c.modulus}", "--format", fmt]
    if limit is not None:
        argv += ["--limit", str(limit)]
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == (0 if c.summary.solvable else 3)
    return out.getvalue()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_enumerate_renders_a_seeds_last_values_once(str_calls, fmt):
    # one seed whose 32 runs all take the same 250 last-coordinate values:
    # 8,000 rows from 250 conversions; the JSON summary converts with no str()
    c = normalize([224, 750], 0, 4000)
    s = summarize(c)
    assert (s.basis_size, s.gcds, s.solution_count) == (1, (32, 250), 8000)
    assert_same_text(cli_stdout(c, fmt), per_row_output(c, fmt, reference_rows(c), None))
    assert len(str_calls) <= s.basis_size * s.gcds[-1]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_enumerate_reuses_a_run_shared_by_two_seeds(str_calls, fmt):
    # x2 moves (gcd 2) and every reduced seed has x3 = 0, so all 12 runs of
    # the 6 seeds are range(12): rendered once for the whole stream
    c = normalize([1, 2, 0], 0, 12)
    s = summarize(c)
    assert (s.basis_size, s.gcds) == (6, (1, 2, 12))
    assert {x[-1] for x in build_basis(c)} == {0}
    assert_same_text(cli_stdout(c, fmt), per_row_output(c, fmt, reference_rows(c), None))
    assert len(str_calls) == 12


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_enumerate_reuses_the_head_of_a_run_cut_by_the_limit(str_calls, fmt):
    # 790 rows are three equal runs of 250 values and the first 40 of a
    # fourth: one rendering serves all four
    c = normalize([224, 750], 0, 4000)
    assert_same_text(cli_stdout(c, fmt, 790),
                     per_row_output(c, fmt, reference_rows(c, 790), 790))
    assert len(str_calls) == 250


def test_enumerate_leaves_a_long_prefix_cycle_lazy():
    # gcd(0, 10**30) = 10**30: groups of 512 prefixes are slices of x1's
    # cycle, never the cycle itself, which no address space could hold; with
    # no limit, 2 * 10**30 rows stream into a reader that stops after three
    argv = ["enumerate", "--coeffs=0,2", "--rhs=0", "--mod=1" + "0" * 30]
    half = "5" + "0" * 29
    assert finish([*argv, "--limit", "5"]) == (
        0, f"0 0\n0 {half}\n1 0\n1 {half}\n2 0\n# truncated\n", "")
    assert read_then_hang_up(argv, head(3)) == ["0 0\n", f"0 {half}\n", "1 0\n"]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_enumerate_renders_a_block_once_per_seed_suffix(str_calls, fmt):
    # x2, x3 and x4 form blocks of 10 * 6 * 5 = 300 rows, and x1 steps
    # through 15 values, so the 27,000 rows are 90 joins onto 6 blocks: a
    # block is rendered from its three cycles, each value once, and only
    # when the seed's suffix changes, not once per prefix or per row
    c = normalize([15, 10, 6, 5], 0, 30)
    s = summarize(c)
    assert (s.solution_count, s.basis_size, s.gcds) == (27000, 6, (15, 10, 6, 5))
    assert lincong.core._blocks((), c)[0] == ("deep", 3)
    assert_same_text(cli_stdout(c, fmt), per_row_output(c, fmt, reference_rows(c), None))
    suffixes = [key for key, _ in itertools.groupby(x[1:] for x in build_basis(c))]
    assert len(str_calls) == (10 + 6 + 5) * len(suffixes) <= 21 * s.basis_size


@pytest.mark.parametrize("limit, sizes", [(None, [1024, 1024, 952]), (2049, [1024, 1024, 1]),
                                          (1024, [1024])])
def test_enumerate_at_p2_1_writes_blocks_of_1024_rows(monkeypatch, limit, sizes):
    # one block, so one join, per 1024 rows, not one per one-row seed
    c = normalize([1, 1], 0, 3000)
    written = []
    blocks = lincong.cli._blocks

    def recording(*args, **kwargs):
        plan, pairs = blocks(*args, **kwargs)
        assert plan == ("seeds", 2)
        return plan, ((prefix, written.append(len(block)) or block) for prefix, block in pairs)

    monkeypatch.setattr(lincong.cli, "_blocks", recording)
    assert cli_stdout(c, "text", limit).count("\n") == sum(sizes) + (limit is not None)
    assert written == sizes


def test_enumerate_streams_a_run_of_10_to_the_300_rows():
    # a_1 = 0 makes gcd(a_1, m) = m: the only basis row expands into one run
    # of 10**300 values, which is written in slices as it is walked; in 1 GiB,
    # a writer that rendered the whole run first fails instead of growing
    argv = ["enumerate", "--coeffs=0", "--rhs=0", f"--mod={decimal(10**300)}"]
    assert read_then_hang_up(argv, head(3)) == ["0\n", "1\n", "2\n"]
    tracemalloc.start()
    try:
        with redirect_stdout(Discard()):
            assert main([*argv, "--limit", "200000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_solve_streams_a_basis_of_10_to_the_10_rows(fmt):
    # s = 10**10: the summary and the first rows arrive while the walk goes
    # on, and the writer exits 0 when the reader hangs up
    argv = ["solve", "x + y + z ≡ 0 (mod 100000)", "--format", fmt]
    if fmt == "text":
        assert read_then_hang_up(argv, head(9)) == [line + "\n" for line in [
            "congruence: 1*x + 1*y + 1*z ≡ 0 (mod 100000)", "d = 1", "solvable = true",
            "solutions (p1) = 10000000000", "per-seed (p2) = 1", "basis size (s) = 10000000000",
            "basis:", "0 0 0", "0 1 99999"]]
    else:
        rows = ", ".join(f"[0, {y}, {-y % 100000}]" for y in range(20))
        doc = ('{"d": "1", "solvable": true, "p1": "10000000000", "p2": "1", '
               '"s": "10000000000", "basis": [' + rows)
        assert read_then_hang_up(argv, lambda out: out.read(200)) == doc[:200]


def test_solve_holds_a_bounded_piece_of_its_basis():
    # 30,000 rows written as they are walked; a collected basis of as many
    # 3-tuples peaks at about 7.5 MB.  One format only: tracemalloc makes each
    # row about twenty times slower, and text and JSON share the row renderer
    argv = ["solve", "x + y + z ≡ 0 (mod 100000)", "--format", "json", "--limit", "30000"]
    tracemalloc.start()
    try:
        with redirect_stdout(Discard()):
            assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_solve_limit_above_maxsize_prints_the_full_basis(capsys, fmt):
    # a --limit past sys.maxsize cuts nothing, so the output is the unlimited one
    argv = ["solve", "--coeffs=2,-6", "--rhs=2", "--mod=12", "--format", fmt]
    assert run(capsys, *argv) == run(capsys, *argv, "--limit", str(10**20))


@pytest.mark.parametrize("arity,argv", [
    (3, ["solve", "x + y + z ≡ 0 (mod 20)"]),
    (3, ["solve", "x + y + z ≡ 0 (mod 1000)", "--limit", "0"]),
    (3, ["enumerate", "x + y + z ≡ 0 (mod 1000)", "--limit", "60"]),
    (3, ["enumerate", "x + y + z ≡ 0 (mod 20)", "--format", "json"]),
    (3, ["verify", "x + y + z ≡ 0 (mod 20)"]),
    (5, ["enumerate", "2a + 4b + 6c + 3d + 5e ≡ 1 (mod 12)", "--limit", "500"]),
])
def test_cli_derives_the_instance_quantities_once(capsys, monkeypatch, arity, argv):
    # the record of d, gcd(a_i, m), strides, suffix gcds, p1, p2 and s costs
    # 2n gcd calls, made once per command however many rows it prints
    calls = []
    real_gcd = lincong.core.gcd

    def counted_gcd(*args):
        calls.append(args)
        return real_gcd(*args)

    monkeypatch.setattr(lincong.core, "gcd", counted_gcd)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out
    assert len(calls) <= 2 * arity


def test_enumerate_unsolvable(capsys):
    code, out, err = run(capsys, "enumerate", "2x ≡ 1 (mod 4)")
    assert code == 3
    assert out == ""
    assert "unsolvable" in err
    # _write exits 3 on it too: enumerate writes nothing to its sink, and
    # solve the head that main writes, with no rows; neither writes to stderr
    parsed = parse("2x ≡ 1 (mod 4)")
    c = normalize(parsed.raw_coeffs, parsed.rhs, parsed.modulus)
    for fmt in ("text", "json"):
        heads = []
        for expand in (True, False):
            sink = io.StringIO()
            assert lincong.cli._write(sink, c, parsed, None, fmt == "json", expand) == 3
            heads.append(sink.getvalue())
        assert capsys.readouterr() == ("", "")
        assert heads == ["", run(capsys, "solve", "2x ≡ 1 (mod 4)", "--format", fmt)[1]]
        assert "basis:" not in heads[1] and '"basis"' not in heads[1]


def test_enumerate_negative_limit(capsys):
    # --limit is read before solvability: an unsolvable instance with a bad
    # --limit is a usage error for both commands, and writes no stdout
    for command, expr in itertools.product(("solve", "enumerate"), (REF_EXPR, "2x ≡ 1 (mod 4)")):
        assert run(capsys, command, expr, "--limit", "-1") == (
            2, "", "error: --limit must be nonnegative\n"), (command, expr)


@pytest.mark.parametrize("argv", [["x ≡ 0 (mod 5)"], ["--seed", "1"]])
def test_verify_negative_cap(capsys, argv):
    assert run(capsys, "verify", "--cap", "-3", *argv) == (2, "", "error: --cap must be nonnegative\n")


def test_check_dependent(capsys):
    code, out, err = run(capsys, "check", REF_EXPR, "7,4", "1,0")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[-1] == "dependent"
    assert "coordinate 1: (a - b) ≡ 0 (mod 6) -> divisible" in lines
    assert "coordinate 2: (a - b) ≡ 0 (mod 2) -> divisible" in lines


def test_check_independent_warns_on_non_solution(capsys):
    code, out, err = run(capsys, "check", REF_EXPR, "4,1", "0,1")
    assert code == 0
    assert out.splitlines()[-1] == "independent"
    assert "coordinate 1: (a - b) ≡ 4 (mod 6) -> not divisible" in out
    assert "warning: b = (0, 1) does not satisfy" in err


@pytest.mark.parametrize("argv", [
    [REF_EXPR, "4,1", "1,0"],
    # a vector that starts with "-" reads as a flag, so "--" goes before the vectors
    ["--coeffs=1,1", "--rhs=0", "--mod=5", "--", "-3,3", "1,4"],
])
def test_check_writes_its_verdict_last(capsys, argv):
    code, out, err = run(capsys, "check", *argv)
    assert (code, out.splitlines()[-1], err) == (0, "independent", "")


def test_check_verdict_is_that_of_are_dependent(capsys):
    # check reads its verdict off the remainders it prints; b is a plus a
    # random lattice vector, then sometimes moved off the lattice
    rng = random.Random(3)
    verdicts = set()
    for c in random_instances(3, 100, arities=(1, 2, 3), mod_bound=12):
        lattice = module_generators(c)
        a = [rng.randrange(c.modulus) for _ in range(c.arity)]
        b = [(x + g * rng.randrange(c.modulus)) % c.modulus for x, g in zip(a, lattice)]
        if rng.random() < 0.5:
            b[-1] = rng.randrange(c.modulus)
        argv = [f"--coeffs={','.join(map(str, c.coeffs))}", f"--rhs={c.rhs}",
                f"--mod={c.modulus}", ",".join(map(str, a)), ",".join(map(str, b))]
        _, out, _ = run(capsys, "check", *argv)
        verdict = "dependent" if are_dependent(a, b, lattice) else "independent"
        assert out.splitlines()[-1] == verdict
        verdicts.add(verdict)
    assert verdicts == {"dependent", "independent"}


def test_check_arity_mismatch(capsys):
    code, _, err = run(capsys, "check", REF_EXPR, "7,4,0", "1,0")
    assert code == 2
    assert "arity mismatch" in err


def test_verify_reference(capsys):
    code, out, _ = run(capsys, "verify", REF_EXPR)
    assert code == 0
    assert "oracle count = 24" in out
    assert "count agreement: yes" in out
    assert "set agreement: yes" in out


def test_verify_unsolvable_agrees(capsys):
    code, out, _ = run(capsys, "verify", "2x ≡ 1 (mod 4)")
    assert code == 0
    assert "oracle count = 0" in out


def test_verify_cap_exceeded(capsys):
    code, _, err = run(capsys, "verify", "x ≡ 1 (mod 10)", "--cap", "5")
    assert code == 2
    assert "exceeds the cap" in err


def test_running_out_of_memory_is_one_error_line():
    # the scan of 0x + 0y ≡ 0 (mod 40000) would hold 1.6e9 solutions, which
    # no cap of 128 MiB holds: one error line and exit 2, not a traceback
    assert finish(["verify", "--coeffs=0,0", "--rhs=0", "--mod=40000", "--cap=1000000000000"],
                  address_space=1 << 27) == (2, "", "error: out of memory\n")


def test_verify_seed_batch(capsys):
    code, out, _ = run(capsys, "verify", "--seed", "3")
    assert code == 0
    assert "200 agree, 0 disagree" in out


@pytest.mark.parametrize("count_ok,set_ok,names", [
    (False, True, "count"), (True, False, "set"), (False, False, "count and set"),
])
def test_verify_seed_names_failed_check_and_reproducer(capsys, monkeypatch,
                                                       count_ok, set_ok, names):
    calls = []

    def disagreeing(c, cap):
        calls.append(c)
        ok = len(calls) != 2
        return OracleReport(0, ok or count_ok, ok or set_ok)

    monkeypatch.setattr(lincong.oracle, "verify", disagreeing)
    code, out, _ = run(capsys, "verify", "--seed", "3")
    assert code == 4
    c = calls[1]
    coeffs = ",".join(map(str, c.coeffs))
    assert out.splitlines() == [
        f"disagreement on {names}: coeffs={c.coeffs} rhs={c.rhs} mod={c.modulus}",
        f"  reproduce: lincong verify --coeffs={coeffs} --rhs={c.rhs} --mod={c.modulus}",
        "verified 200 random instances (seed 3): 199 agree, 1 disagree",
    ]


def test_verify_seed_agreeing_output_is_one_line(capsys):
    code, out, _ = run(capsys, "verify", "--seed", "5")
    assert code == 0
    assert out == "verified 200 random instances (seed 5): 200 agree, 0 disagree\n"


def test_verify_seed_rejects_instance(capsys):
    code, _, err = run(capsys, "verify", REF_EXPR, "--seed", "3")
    assert code == 2
    assert "--seed" in err or "random batch" in err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_one_parser_serves_every_call_with_the_same_bytes(capsys, monkeypatch):
    # the golden corpus is read by the scan alone and builds no parser; a
    # usage error and --help build main's one parser, and the corpus again in
    # reverse order builds no other
    built = []
    build = lincong.cli.build_arg_parser
    monkeypatch.setattr(lincong.cli, "build_arg_parser", lambda: built.append(1) or build())
    lincong.cli._main_parser.cache_clear()

    def digests(names):
        got = {}
        for name in names:
            code = main(CASES[name])
            captured = capsys.readouterr()
            got[name] = (code, hashlib.sha256(
                (captured.out + captured.err).encode("utf-8")).hexdigest())
        return got

    assert digests(list(CASES)) == GOLDEN
    assert built == []
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", REF_EXPR, "--no-such-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert "--limit" in capsys.readouterr().out
    assert len(built) == 1
    assert digests(reversed(list(CASES))) == GOLDEN
    assert len(built) == 1
    # build_arg_parser() returns a new parser each time; changing a default
    # in one leaves main's alone, which reads an abbreviated --limit as
    # argparse does
    ap = build()
    assert ap is not build()
    subcommands = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    subcommands.choices["solve"].set_defaults(format="json")
    argv = ["solve", REF_EXPR, "--lim", "1"]
    assert ap.parse_args(argv).format == "json"
    assert lincong.cli._scan(argv) is None
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN["solve-text-truncated"][1]
    assert len(built) == 1


# argparse's own exits: the exit code and the sha256 of stdout + stderr,
# recorded on CPython 3.11 while main still parsed every argv with the
# top-level parser.  The help text is wrapped at 80 columns.
ARGPARSE_BYTES = [
    ([], 2, "977ce4adad7a363c73aad0c39de3c6aaffdddcc632037687332c7a9a7eb14c38"),
    (["-h"], 0, "7bd166bc7d9ba02d3c3f5639ee7f5df1faa4e3573862b5655d4abe1b851fef38"),
    (["frobnicate"], 2, "5e119044771e1664778212ec0c1f6c85e071afdd70b7bbf940418013610bf35b"),
    (["solve", "--help"], 0, "0170405dd9f5f6fc9c8bf7ee815b2ddfd3c0e39b67200d929b74dd2958dc130d"),
    (["enumerate", REF_EXPR, "--no-such-flag"], 2,
     "7b100e7668b0ab0ce09d3b015cbcc526202e596bc8dee2fe35b548a5961b685e"),
    (["solve", "--format", "xml", REF_EXPR], 2,
     "dc887a98471c61d096a862a77d1f2000579cc1db764e88d75300753166aecf04"),
    (["solve", REF_EXPR, "extra"], 2,
     "d8dbce85c6ad59a5af3cf528ac3d73ba49d2f6a5aaaa565263b47c1afbac9283"),
    (["verify", "--seed"], 2, "ed103d598f0a0b379536e77b2818ad1d2d6b796e77d3841cfa8ab4f1b2fa6cb3"),
]


def exit_bytes(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, hashlib.sha256((captured.out + captured.err).encode()).hexdigest()


@pytest.mark.parametrize("argv, code, digest", ARGPARSE_BYTES + [
    (["solve", "--h"], 0, None), (["check", "1,0"], 2, None),
    (["-h", "solve"], 0, None), (["solve", "x ≡ 1 (mod 5)", "-h"], 0, None),
    (["enumerate", "--limit"], 2, None), (["sol", REF_EXPR], 2, None)])
def test_argparse_exits_keep_their_bytes(capsys, monkeypatch, argv, code, digest):
    # main's scan passes every argv argparse exits on to the top-level
    # parser, so every argparse exit writes what that parser writes, on any
    # Python version; main() reads the same argv from sys.argv
    monkeypatch.setenv("COLUMNS", "80")
    got = exit_bytes(capsys, main, argv)
    assert got == exit_bytes(capsys, lincong.cli.build_arg_parser().parse_args, argv)
    monkeypatch.setattr(sys, "argv", ["lincong", *argv])
    assert got == exit_bytes(capsys, lambda _: main(), argv)
    assert got[0] == code
    if digest is not None and sys.version_info[:2] == (3, 11):
        assert got[1] == digest


def test_the_command_table_builds_the_parser():
    # each subparser's flags, positionals and --format choices are the
    # table's, so a flag added to one cannot drift from the other
    ap = lincong.cli.build_arg_parser()
    subcommands = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    assert list(subcommands.choices) == list(lincong.cli.COMMANDS)
    for command, (_, _, arguments) in lincong.cli.COMMANDS.items():
        sub = subcommands.choices[command]
        names = [name for name, _ in arguments]
        assert [s for a in sub._actions for s in a.option_strings] == [
            "-h", "--help", *[name for name in names if name.startswith("--")]]
        assert [a.dest for a in sub._actions if not a.option_strings] == [
            name for name in names if not name.startswith("--")]
        formats = [a.choices for a in sub._actions if a.dest == "format"]
        assert formats == ([lincong.cli.FORMATS] if "--format" in names else [])


VALID_FLAG_VALUES = {"--coeffs": "1", "--rhs": "0", "--mod": "3", "--format": "json",
                     "--limit": "1", "--cap": "100", "--seed": "1"}


@pytest.mark.parametrize("command, flag", [
    (command, name) for command, (_, _, arguments) in lincong.cli.COMMANDS.items()
    for name, _ in arguments if name[:2] == "--"])
def test_a_double_dash_flag_value_is_a_usage_error(capsys, command, flag):
    # argparse strips "--" from a flag's values, and --limit=-- once reached
    # the command as an empty list, a TypeError.  Each flag is given "--" in
    # an argv that runs with a valid value instead; argparse's wording
    # differs between versions, so the exit code and stderr's error line are
    # pinned, and any traceback would have escaped main
    if flag in ("--coeffs", "--rhs", "--mod"):
        positionals, flags = [], ["--coeffs", "--rhs", "--mod"]
    elif flag == "--seed":
        positionals, flags = [], [flag]
    else:
        positionals, flags = ["x ≡ 1 (mod 3)"], [flag]
    positionals += ["1", "1"] if command == "check" else []

    def argv(value):
        return [command, *positionals,
                *(f"{name}={value if name == flag else VALID_FLAG_VALUES[name]}"
                  for name in flags)]

    assert main(argv(VALID_FLAG_VALUES[flag])) == 0
    capsys.readouterr()
    try:
        code = main(argv("--"))
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2, err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["solve", REF_EXPR], ["solve", REF_EXPR, "--lim", "1"]])
def test_main_calls_the_function_the_table_names(monkeypatch, argv):
    # an argv read by the scan and one read by argparse both reach the
    # command through COMMANDS, the only place that stores its function
    about, _, arguments = lincong.cli.COMMANDS["solve"]
    monkeypatch.setitem(lincong.cli.COMMANDS, "solve", (about, lambda args: 99, arguments))
    assert main(argv) == 99


ARGV_PARSER = lincong.cli.build_arg_parser()


@composite
def argvs(draw):
    # a command, then flags of every command in "=" form and separate form,
    # values that start with "-" or are empty, and words argparse reads
    # apart: "--", "-", -h, an abbreviation and ""
    command = draw(sampled_from([*lincong.cli.COMMANDS, "frobnicate", "-h"]))
    flags = ["--coeffs", "--rhs", "--mod", "--format", "--limit", "--cap", "--seed"]
    # argparse reads "-" and Unicode decimal digits ("-١", "-１") as a
    # negative number, a value, but "-²" as an option: ² is a digit, not a
    # decimal
    values = sampled_from(["1", "7,4", "json", "text", "xml", REF_EXPR, "-3", "-1_0", "-x",
                           "-x + y ≡ 0 (mod 5)", "", "-", "--", "-h", "a=b",
                           "-²", "-١", "-１"])
    words = [command]
    for _ in range(draw(integers(0, 6))):
        kind = draw(integers(0, 3))
        if kind == 0:
            words.append(draw(values))
        elif kind == 1:
            words += [draw(sampled_from(flags)), draw(values)]
        elif kind == 2:
            words.append(f"{draw(sampled_from(flags))}={draw(values)}")
        else:
            words.append(draw(sampled_from(["--", "-", "-h", "--lim", "", "--format"])))
    return words


@settings(max_examples=1500, deadline=None)
@example(["solve", "--format", "xml", "--format", "json", REF_EXPR])
@example(["check", "x", "--mod", "1", "7,4", "1,0"])
@example(["solve", "--rhs=--", REF_EXPR])
@example(["enumerate", REF_EXPR, "--limit", "-1"])
@example(["enumerate", REF_EXPR, "--limit", "-²"])
@given(argvs())
def test_a_scanned_argv_reads_as_argparse_reads_it(argv):
    # whenever the scan returns a namespace, argparse accepts the argv too,
    # writes nothing, and builds the same one
    args = lincong.cli._scan(argv)
    if args is None:
        return
    written = io.StringIO()
    with redirect_stdout(written), redirect_stderr(written):
        assert vars(args) == vars(ARGV_PARSER.parse_args(argv))
    assert written.getvalue() == ""


@pytest.mark.parametrize("argv, canonical, scanned", [
    (["solve", REF_EXPR, "--lim", "1"], ["solve", REF_EXPR, "--limit=1"], False),
    (["solve", REF_EXPR, "--format", "text", "--format", "json"],
     ["solve", REF_EXPR, "--format=json"], False),
    (["solve", "--", "-x + y ≡ 0 (mod 5)"], ["solve", " -x + y ≡ 0 (mod 5)"], False),
    (["solve", "--coeffs=1,1", "--rhs", "-3", "--mod", "4"],
     ["solve", "--coeffs=1,1", "--rhs=-3", "--mod", "4"], True),
])
def test_each_spelling_of_an_argv_prints_the_same(capsys, argv, canonical, scanned):
    # the scan reads the canonical form, and passes the others but a
    # negative integer value on to argparse
    assert lincong.cli._scan(canonical) is not None
    assert (lincong.cli._scan(argv) is not None) == scanned
    expected = run(capsys, *canonical)
    assert expected[0] == 0
    assert run(capsys, *argv) == expected


def test_module_entry_point():
    code, out, err = finish(["solve", "2x - 6y = 2 (mod 12)", "--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["s"] == "2"


def loads(statement):
    """The modules of a watched set that a fresh `python -S` loads to run
    statement, with its stdout discarded."""
    watched = ["json", "random", "typing", "dataclasses", "inspect", "argparse", "gettext",
               "decimal", "lincong.oracle", "lincong.intmath"]
    probe = (f"import os, sys; before = set(sys.modules); sys.stdout = open(os.devnull, 'w'); "
             f"{statement}; sys.stdout = sys.__stdout__; "
             f"print(sorted(set(sys.modules) - before & set({watched!r})))")
    code, out, err = finish(["-c", probe], python=("-S",))
    assert code == 0, err
    return out


def test_importing_the_cli_loads_only_what_every_call_uses():
    # random and the oracle serve only verify, json and intmath no call, and
    # typing nothing at run time, so a cold start does not import them; the
    # records are plain classes, so neither dataclasses nor the inspect it
    # pulls in is loaded either; argparse and its gettext wait for an argv
    # the scan passes on, decimal for a count of 1,000 digits
    assert loads("import lincong.cli") == "[]\n"


def test_no_module_of_the_package_loads_dataclasses():
    # every record derives from core._Record, intmath's two included, so the
    # modules no CLI call imports do not load dataclasses or inspect either
    assert loads("import lincong.intmath, lincong.oracle") == "['lincong.intmath', 'lincong.oracle']\n"


@pytest.mark.parametrize("argv", [
    ["solve", REF_EXPR, "--format", "json"],
    ["enumerate", REF_EXPR, "--format", "json"],
    ["check", REF_EXPR, "7,4", "1,0"],
    ["verify", REF_EXPR],
    ["verify", "--seed", "1"],
    ["solve", REF_EXPR],
])
def test_each_subcommand_loads_only_what_it_uses(argv):
    # the modules a call loads, `import lincong.cli` included, where the call
    # exits 0: the oracle for verify alone, random for its --seed batch
    # alone, and json, typing, intmath, dataclasses, inspect, argparse,
    # gettext or, with short counts, decimal for none
    loaded = ["lincong.oracle"] if argv[0] == "verify" else []
    loaded += ["random"] if "--seed" in argv else []
    assert loads(f"import lincong.cli; assert lincong.cli.main({argv!r}) == 0") == f"{loaded}\n"


def test_package_exports_the_names_of_core_and_parser():
    assert lincong.__all__ == lincong.core.__all__ + lincong.parser.__all__
    names = {}
    exec("from lincong import *", names)
    for name in lincong.__all__:
        module = lincong.core if name in lincong.core.__all__ else lincong.parser
        assert names[name] is getattr(module, name) is getattr(lincong, name)
    from lincong import intmath, oracle
    assert (intmath, oracle) == (lincong.intmath, lincong.oracle)
    # the oracle and the integer helpers are not re-exported
    for name in ("verify", "solve_unary", "nonexistent"):
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(lincong, name)


def test_enumerate_into_closed_pipe_exits_cleanly():
    # p1 = 10**10 rows: the writer is still going when the reader hangs up
    assert read_then_hang_up(["enumerate", "x + y ≡ 0 (mod 100000)"], head(1)) == ["0 0\n"]


@pytest.mark.parametrize("stream, argv", [
    ("stdin", ["solve", "-"]), ("stdin", ["verify", "-"]),
    ("stdout", ["solve", "x ≡ 1 (mod 3)"]), ("stdout", ["check", "x ≡ 1 (mod 3)", "1", "1"])])
def test_a_closed_standard_stream_is_a_usage_error(capsys, monkeypatch, stream, argv):
    # an interpreter started with descriptor 0 or 1 closed has sys.stdin or
    # sys.stdout None
    monkeypatch.setattr(sys, stream, None)
    err = ("'-' reads the expression from stdin, which is closed" if stream == "stdin"
           else "stdout is closed")
    assert run(capsys, *argv) == (2, "", f"error: {err}\n")


class _UnreadableStdin(io.StringIO):
    def read(self, *args):
        raise IsADirectoryError(21, "Is a directory")


def test_an_unreadable_stdin_leaves_stdout_alone(monkeypatch, tmp_path):
    # a stdin whose read fails: one error line, and stdout's descriptor,
    # which nothing wrote to, still points at its file, not at the null device
    out = tmp_path / "out.txt"
    with open(out, "w") as stdout:
        monkeypatch.setattr(sys, "stdin", _UnreadableStdin())
        monkeypatch.setattr(sys, "stdout", stdout)
        err = io.StringIO()
        monkeypatch.setattr(sys, "stderr", err)
        assert main(["solve", "-"]) == 2
        assert os.path.samestat(os.fstat(stdout.fileno()), os.stat(out))
    assert err.getvalue() == "error: stdin: [Errno 21] Is a directory\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_a_failing_stdout_is_one_error_line():
    # every write to /dev/full fails with ENOSPC: one error line, and the
    # interpreter's last flush of the buffered rows stays quiet
    with open("/dev/full", "w") as full:
        assert finish(["solve", "x ≡ 1 (mod 3)"], stdout=full) == (
            2, None, "error: [Errno 28] No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_help_to_a_failing_stdout_is_one_error_line(unbuffered):
    # argparse would swallow the failed write of the help text and exit 0;
    # unbuffered, the write itself fails, buffered, main's flush does
    with open("/dev/full", "w") as full:
        assert finish(["solve", "--help"], stdout=full, env={"PYTHONUNBUFFERED": unbuffered}) == (
            2, None, "error: [Errno 28] No space left on device\n")


def test_solve_sixty_unknowns_renders_counts_past_the_digit_limit(capsys):
    m = 10**100 - 1
    coeffs = ",".join(str(a) for a in range(1, 61))
    code, out, err = run(capsys, "solve", f"--coeffs={coeffs}", "--rhs=1",
                         f"--mod={m}", "--limit", "0")
    assert (code, err) == (0, "")
    assert f"solutions (p1) = {decimal(m ** 59)}" in out.splitlines()
    assert out.endswith("basis:\n# truncated\n")


def test_solve_parses_a_5000_digit_modulus(capsys):
    m = 10**4999 + 9
    literal = decimal(m)
    code, out, err = run(capsys, "solve", f"x ≡ 1 (mod {literal})", "--limit", "0")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == f"congruence: 1*x ≡ 1 (mod {literal})"
    assert "solutions (p1) = 1" in lines
    assert "basis size (s) = 1" in lines


@composite
def count_instances(draw):
    # arity 1-4 with m = u * 2**e, e up to 100 or 3,000 to 3,800, and
    # coefficients v * 2**f, so that s and p2 fall on both sides of _counts'
    # cutover
    n = draw(integers(min_value=1, max_value=4))
    e = draw(one_of(integers(min_value=0, max_value=100),
                    integers(min_value=3000, max_value=3800)))
    factor = integers(min_value=0, max_value=2**40)
    shift = one_of(integers(min_value=0, max_value=64), integers(min_value=0, max_value=e))
    m = max(1, draw(factor)) << e
    coeffs = [draw(factor) << draw(shift) for _ in range(n)]
    return normalize(coeffs, draw(integers(min_value=0, max_value=m)), m)


# 12 coefficients 30 * 7**(100 + i) mod R and modulus 30 * R of 300 digits:
# p1 has about 3,300 digits and a bound on its bits of about 11,000
R300 = 10**298 + 3
D300N12 = ([30 * pow(7, 100 + i, R300) for i in range(12)], 420, 30 * R300)


@settings(max_examples=150, deadline=None)
@given(count_instances())
@example(normalize([1, 1], 0, 10**999 - 1))  # p1 = s = m of 999 digits, p2 = 1
@example(normalize([1, 1], 0, 10**1000 + 1))  # 1,001 digits
@example(normalize([1, 1], 0, 2**3321 - 1))  # p1 of 3,321 bits, the last written by str
@example(normalize([1, 1], 0, 2**3321))  # p1 of 3,322 bits, the first computed in decimal
@example(normalize([2**899, 1], 0, 2**4498))  # p2 has a quarter of s's bits
@example(normalize([2**900, 1], 0, 2**4498))  # and one bit more
@example(normalize([2**1300, 1], 0, 2**5000))  # p2 of 392 digits, s of 1,114
@example(normalize([0, 0, 0, 0, 0, 1, 1], 0, 10**300 + 7))  # p2 = m**5 read off p1, s = m
@example(normalize([0, 0, 1], 0, 10**1100 + 7))  # p2 = p1 = m**2, s = 1
@example(normalize([2, 2], 1, 2 * (10**1100 + 7)))  # unsolvable
@example(normalize([6 * 10**1100], 0, 9 * 10**1100))  # n = 1, p1 = p2 = d of 1,101 digits
@example(normalize([3], 0, 3 * 10**1200))  # n = 1, d = 3
@example(normalize([0, 0], 0, 1))  # m = 1
@example(normalize([1] * 34, 0, 2**100 + 1))  # p1 of 3,301 bits, its bound 3,334
@example(normalize([1] * 34, 0, 2**100))  # p1 = 2**3300, its bound 3,334
@example(normalize([1] * 3400, 0, 1))  # p1 = 1, its bound 3,400
@example(normalize([0] * 10 + [1, 1], 0, 10**300 + 7))  # p2 = m**10 read off p1, s = m
@example(normalize([0] * 3400, 0, 2))  # p2 = p1 = 2**3400, s = 1
@example(normalize(*D300N12))
@example(normalize(D300N12[0], 421, D300N12[2]))  # unsolvable
def test_the_counts_are_their_decimal_strings(c):
    # both sides of each cutover write each count as str() does.  _counts
    # reads a fresh instance first, whose summary past the cutover has not
    # built p1 and s yet, and then the same instance with both built
    c = normalize(c.coeffs, c.rhs, c.modulus)
    first = lincong.cli._counts(c)
    s = c.summary
    assert s.solution_count == s.gcd_all * c.modulus ** (c.arity - 1)
    expected = tuple(map(decimal, (s.gcd_all, s.solution_count, s.expansion_count, s.basis_size)))
    assert first == lincong.cli._counts(c) == expected


def test_counts_past_the_cutover_build_no_p1_or_s(capsys, monkeypatch):
    # _counts, find_particular and solve --limit 0 write and find everything
    # of a d300n12 instance from p2 and the decimal p1, so its summary keeps
    # p1 and s unbuilt; so do limits of a few rows, far below the bound on
    # p1, 2**E with E = bits(d) - 1 + (n - 1) * (bits(m) - 1), and on s,
    # 2**(E - bits(p2))
    unbuilt = {"solution_count", "basis_size"}
    c = normalize(*D300N12)
    lincong.cli._counts(c)
    assert lincong.core.find_particular(c) is not None
    assert not unbuilt & vars(c.summary).keys()
    loaded = []

    def keep(*args):
        loaded.append(normalize(*args))
        return loaded[-1]

    monkeypatch.setattr(lincong.cli, "normalize", keep)
    flags = [f"--coeffs={','.join(map(str, D300N12[0]))}", "--rhs=420", f"--mod={D300N12[2]}"]
    for argv in (["solve", "--limit", "0"], ["solve", "--limit", "0", "--format", "json"],
                 ["solve", "--limit", "1", "--format", "json"], ["enumerate", "--limit", "5"]):
        code, _, err = run(capsys, *argv, *flags)
        assert (code, err) == (0, "")
    assert len(loaded) == 4 and not any(unbuilt & vars(c.summary).keys() for c in loaded)
    # no summary, short or long, builds them for the walks or an expansion;
    # a read of p1 alone leaves s unbuilt, and a read of s builds both
    for args in (([2, -6], 2, 12), D300N12):
        for name, built in (("solution_count", {"solution_count"}), ("basis_size", unbuilt)):
            c = normalize(*args)
            seed = lincong.core.find_particular(c)
            assert len(list(itertools.islice(lincong.core.iter_basis(c), 3))) >= 2
            assert len(list(itertools.islice(expand(seed, c), 3))) == 3
            assert not unbuilt & vars(c.summary).keys()
            assert getattr(c.summary, name) > 0
            assert unbuilt & vars(c.summary).keys() == built


@pytest.mark.parametrize("argv, built", [
    (["enumerate"], {"solution_count"}), (["verify"], {"solution_count"}),
    (["enumerate", "--format", "json"], {"solution_count", "basis_size"})],
    ids=["enumerate", "verify", "enumerate-json"])
def test_a_call_builds_only_the_counts_it_reads(capsys, monkeypatch, argv, built):
    # a text enumerate with no limit reads p1 for its row count, and verify
    # for its expected count, and neither builds s; a JSON enumerate writes s
    loaded = []

    def keep(*args):
        loaded.append(normalize(*args))
        return loaded[-1]

    monkeypatch.setattr(lincong.cli, "normalize", keep)
    code, _, err = run(capsys, *argv, "2x - 6y ≡ 2 (mod 12)")
    assert (code, err) == (0, "")
    assert [{"solution_count", "basis_size"} & vars(c.summary).keys() for c in loaded] == [built]


@pytest.mark.parametrize("coeffs, m", [((3,), 9), ((1,), 8), ((2, 2), 8), ((4, 6), 16),
                                       ((1, 1, 1), 4), ((2, -6), 12), ((5, 10, 3), 7)])
def test_limits_round_the_row_count_write_the_per_row_writers_bytes(coeffs, m):
    # with d and m powers of two p1 = 2**E, so p1 - 1 is the largest limit
    # cut without reading p1, and p1 the least that reads it; at n = 1, s = 1.
    # The whole stdout is compared, solve's head included
    c = normalize(coeffs, 0, m)
    for expand in (True, False):
        want = reference_rows(c, None, expand)
        for limit in (len(want) - 1, len(want), len(want) + 1):
            for fmt in ("text", "json"):
                assert_same_text(cli_stdout(c, fmt, limit, expand),
                                 per_row_output(c, fmt, want, limit, expand), (expand, limit, fmt))


def test_the_quotient_writes_a_count_past_a_million_digits():
    # p1 = s = 10**1200000 has an exponent past decimal's default bound of
    # 999,999, both as the power and as the quotient by p2 = 1
    p1 = "1" + "0" * 1_200_000
    assert lincong.cli._counts(normalize([1] * 1201, 0, 10**1000)) == ("1", p1, "1", p1)


def test_long_counts_are_written_under_the_default_digit_limit():
    # under the interpreter's default limit, int -> str refuses p1 = s =
    # (10**100 + 7)**1999, of 199,901 digits; the expected digits are written
    # in base 10**100 without it: place j holds C(1999, j) * 7**(1999 - j),
    # plus the carry from the place below
    n, base = 1999, 10**100
    places, carry = [], 0
    for j in range(n + 1):
        carry, place = divmod(comb(n, j) * 7 ** (n - j) + carry, base)
        places.append(f"{place:0100d}")
    assert carry == 0
    p1 = "".join(reversed(places)).lstrip("0")
    assert len(p1) == 199_901
    c = normalize([1] * (n + 1), 0, base + 7)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        assert lincong.cli._counts(c) == ("1", p1, "1", p1)
    finally:
        sys.set_int_max_str_digits(limit)


M1100 = "1" + "0" * 1099 + "1"  # 10**1100 + 1


@pytest.mark.parametrize("coeffs, modulus, counts", [
    # p1 = m, p2 = 2 and s = m / 2, of 20,000 digits
    ((2, 3), "1" + "0" * 19999, ("1", "1" + "0" * 19999, "2", "5" + "0" * 19998)),
    ((1, 1), M1100, ("1", M1100, "1", M1100)),
    # d = m, and p1 = p2 = m**2 = 10**2200 + 2 * 10**1100 + 1
    ((0, 0), M1100, (M1100, *["1" + "0" * 1099 + "2" + "0" * 1099 + "1"] * 2, "1")),
], ids=["2,3-mod-10**19999", "1,1-mod-10**1100+1", "0,0-mod-10**1100+1"])
def test_long_counts_at_n_2_are_written_from_the_modulus_text(capsys, coeffs, modulus, counts):
    # n = 2 with a long modulus: p1 = d * m comes from m's digits as an
    # expression wrote them, and from the int for flags, read by main under
    # the default digit limit (main lifts it for the call and puts it back)
    a, b = coeffs
    summary = [f"{name} = {count}" for name, count in zip(
        ("d", "solvable", "solutions (p1)", "per-seed (p2)", "basis size (s)"),
        (counts[0], "true", *counts[1:]))]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        for argv, echo in (([f"{a}x + {b}y ≡ 0 (mod 000{modulus})"],
                            f"{a}*x + {b}*y ≡ 0 (mod {modulus})"),
                           ([f"--coeffs={a},{b}", "--rhs=0", f"--mod=-{modulus}"],
                            f"{a}*x1 + {b}*x2 ≡ 0 (mod -{modulus})")):
            code, out, err = run(capsys, "solve", *argv, "--limit", "0")
            assert (code, err) == (0, "")
            assert out.splitlines() == [f"congruence: {echo}", *summary, "basis:", "# truncated"]
        assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits
    finally:
        sys.set_int_max_str_digits(limit)
