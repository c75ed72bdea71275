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
from math import comb, gcd, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis.strategies import composite, integers, lists, one_of, sampled_from

import lincong.cli
import lincong.core
import lincong.oracle
from lincong.cli import main
from lincong.core import (are_dependent, build_basis, enumerate_all, expand, module_generators,
                          normalize, summarize)
from lincong.oracle import OracleReport, brute_force, verify
from lincong.parser import ParsedCongruence, format_congruence

from helpers import assert_same_text, random_instances
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


def subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


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


def test_solve_limit_pulls_only_the_rows_it_prints(capsys, monkeypatch):
    # the limit cuts the walk before its rows are grouped into blocks of
    # 1024, so a block never pulls rows past the limit
    pulled = []
    walk = lincong.cli.iter_basis

    def counting_walk(c):
        for row in walk(c):
            pulled.append(row)
            yield row

    monkeypatch.setattr(lincong.cli, "iter_basis", counting_walk)
    code, out, _ = run(capsys, "solve", "x + y + z ≡ 0 (mod 1000)", "--limit", "2")
    assert code == 0
    assert out.endswith("basis:\n0 0 0\n0 1 999\n# truncated\n")
    assert pulled == [(0, 0, 0), (0, 1, 999)]


def test_enumerate_at_p2_1_pulls_only_the_rows_it_prints(capsys, monkeypatch):
    # at p2 = 1 the basis rows are the solutions; they are cut before they are
    # batched, so a limit of 60 pulls 60 rows from the walk, not 1024
    pulled = []
    walk = lincong.cli.iter_basis

    def counting_walk(c):
        for row in walk(c):
            pulled.append(row)
            yield row

    monkeypatch.setattr(lincong.cli, "iter_basis", counting_walk)
    code, out, _ = run(capsys, "enumerate", "x + y + z ≡ 0 (mod 1000)", "--limit", "60")
    assert code == 0
    assert len(pulled) == 60
    assert out == "".join("%d %d %d\n" % row for row in pulled) + "# truncated\n"


@pytest.mark.parametrize("limit, seeds", [(0, 0), (1, 1), (8, 1), (9, 2), (16, 2), (20, 3)])
def test_enumerate_pulls_only_the_seeds_whose_rows_it_prints(capsys, monkeypatch, limit, seeds):
    # p2 = 8: each basis row expands into 8 rows, so L rows take ceil(L / 8)
    pulled = []
    walk = lincong.cli.iter_basis

    def counting_walk(c):
        for row in walk(c):
            pulled.append(row)
            yield row

    monkeypatch.setattr(lincong.cli, "iter_basis", counting_walk)
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

    def counting_runs(seeds, c, depth):
        assert depth == 3
        for prefixes, block in expand_runs(seeds, c, depth):
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


@pytest.mark.parametrize("expr", [
    "3x ≡ 6 (mod 15)",                  # arity 1, p1 = 3
    "2a + 4b + 6c + 3d ≡ 1 (mod 12)",   # arity 4, p1 = 1728
])
@pytest.mark.parametrize("limit", [None, 0, 2, 3, 1728, 5000, 10**20])
def test_enumerate_text_and_json_carry_the_same_rows(capsys, expr, limit):
    flags = [] if limit is None else ["--limit", str(limit)]
    code, text, _ = run(capsys, "enumerate", expr, *flags)
    assert code == 0
    code, out, _ = run(capsys, "enumerate", expr, "--format", "json", *flags)
    assert code == 0
    doc = json.loads(out)
    p1 = int(doc["p1"])
    cut = limit is not None and limit < p1
    rows = [" ".join(map(str, row)) for row in doc["solutions"]]
    assert len(rows) == (min(limit, p1) if limit is not None else p1)
    assert doc["truncated"] is cut
    assert_same_text(text, "".join(row + "\n" for row in rows) + ("# truncated\n" if cut else ""))


@composite
def solvable_instances(draw):
    # arity 1-5 with m**n <= 4096, small enough to list every row
    n = draw(integers(min_value=1, max_value=5))
    m = draw(integers(min_value=1, max_value=(4096, 64, 16, 8, 5)[n - 1]))
    coeffs = draw(lists(integers(min_value=0, max_value=m - 1), min_size=n, max_size=n))
    c = normalize(coeffs, draw(integers(min_value=0, max_value=m - 1)), m)
    return c if summarize(c).solvable else normalize(coeffs, 0, m)


def per_row_output(c, fmt, rows, limit):
    """`enumerate` written one row at a time: a "%d" format per row for text,
    json.dumps of the whole document for JSON."""
    s = summarize(c)
    cut = limit is not None and limit < len(rows)
    rows = rows[:limit] if cut else rows
    if fmt == "json":
        return json.dumps({"d": str(s.gcd_all), "solvable": True, "p1": str(s.solution_count),
                           "p2": str(s.expansion_count), "s": str(s.basis_size),
                           "solutions": rows, "truncated": cut}) + "\n"
    row_format = " ".join(["%d"] * c.arity) + "\n"
    return "".join(row_format % row for row in rows) + ("# truncated\n" if cut else "")


def reference_enumerate(c, fmt, limit):
    """per_row_output of the rows of enumerate_all, up to one past the limit."""
    rows = enumerate_all(build_basis(c), c)
    if limit is not None:
        # one row past the limit tells whether it cuts; islice takes no
        # stop above sys.maxsize
        rows = itertools.islice(rows, min(limit + 1, sys.maxsize))
    return per_row_output(c, fmt, list(rows), limit)


@settings(max_examples=60, deadline=None)
@given(solvable_instances())
def test_enumerate_renders_runs_as_rows_byte_for_byte(c):
    s = summarize(c)
    p1, run = s.solution_count, s.gcds[-1]  # every run of a reduced seed has gcd(a_n, m) rows
    limits = [None, 0, 1, run, run + run // 2, p1 - 1, p1, p1 + 1, 10**20]
    instance = [f"--coeffs={','.join(map(str, c.coeffs))}", f"--rhs={c.rhs}", f"--mod={c.modulus}"]
    for limit in limits:
        flags = [] if limit is None else ["--limit", str(limit)]
        for fmt in ("text", "json"):
            out = io.StringIO()
            with redirect_stdout(out):
                assert main(["enumerate", *instance, "--format", fmt, *flags]) == 0
            assert_same_text(out.getvalue(), reference_enumerate(c, fmt, limit), (limit, fmt))


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


def enumerate_output(c, fmt, limit=None):
    argv = ["enumerate", f"--coeffs={','.join(map(str, c.coeffs))}", f"--rhs={c.rhs}",
            f"--mod={c.modulus}", "--format", fmt]
    if limit is not None:
        argv += ["--limit", str(limit)]
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_enumerate_renders_a_seeds_last_values_once(str_calls, fmt):
    # one seed whose 32 runs all take the same 250 last-coordinate values:
    # 8,000 rows from 250 conversions; the JSON summary converts with no str()
    c = normalize([224, 750], 0, 4000)
    s = summarize(c)
    assert (s.basis_size, s.gcds, s.solution_count) == (1, (32, 250), 8000)
    assert_same_text(enumerate_output(c, fmt), reference_enumerate(c, fmt, None))
    assert len(str_calls) <= s.basis_size * s.gcds[-1]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_enumerate_reuses_a_run_shared_by_two_seeds(str_calls, fmt):
    # x2 moves (gcd 2) and every reduced seed has x3 = 0, so all 12 runs of
    # the 6 seeds are range(12): rendered once for the whole stream
    c = normalize([1, 2, 0], 0, 12)
    s = summarize(c)
    assert (s.basis_size, s.gcds) == (6, (1, 2, 12))
    assert {x[-1] for x in build_basis(c)} == {0}
    assert_same_text(enumerate_output(c, fmt), reference_enumerate(c, fmt, None))
    assert len(str_calls) == 12


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_enumerate_slices_long_runs_across_a_prefix(fmt):
    # gcd(a_2, m) = 4096 > 1024: each prefix's run is written as four slices,
    # and the limit crosses into the second prefix and cuts its first slice
    c = normalize([2048, 0], 0, 4096)
    assert summarize(c).gcds == (2048, 4096)
    assert_same_text(enumerate_output(c, fmt, 5000), reference_enumerate(c, fmt, 5000))


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("limit", [250, 750, 790, 1000, 1001])
def test_enumerate_renders_a_cut_run_afresh(fmt, limit):
    # 790 cuts the fourth run right after three equal ones were rendered
    # from the cache; the cut run is shorter, so it may reuse only their head
    c = normalize([224, 750], 0, 4000)
    assert_same_text(enumerate_output(c, fmt, limit), reference_enumerate(c, fmt, limit))


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_enumerate_reuses_the_head_of_a_run_cut_by_the_limit(str_calls, fmt):
    # 790 rows are three equal runs of 250 values and the first 40 of a
    # fourth: one rendering serves all four
    c = normalize([224, 750], 0, 4000)
    assert_same_text(enumerate_output(c, fmt, 790), reference_enumerate(c, fmt, 790))
    assert len(str_calls) == 250


def canonical_rows(c):
    """Every solution in enumerate's order, from the oracle's set alone: the
    reduced solutions (0 <= x_i < m // gcd(a_i, m)) in lexicographic order,
    each followed by its shifts x_i + t_i * m // gcd(a_i, m) mod m over the
    parameter tuples t in lexicographic order."""
    m = c.modulus
    gcds = [gcd(a, m) for a in c.coeffs]
    strides = [m // g for g in gcds]
    solutions = brute_force(c)
    seeds = sorted(x for x in solutions if all(xi < g for xi, g in zip(x, strides)))
    rows = [tuple((xi + g * ti) % m for xi, g, ti in zip(x, strides, t))
            for x in seeds for t in itertools.product(*map(range, gcds))]
    assert len(rows) == len(set(rows)) and set(rows) == solutions
    return rows


@composite
def block_instances(draw):
    # 3 to 5 unknowns mod a modulus with many divisors, a_i = g_i * u_i with
    # g_i a divisor of m and u_i a unit, so that gcd(a_i, m) = g_i; only those
    # that enumerate writes in blocks of two or more coordinates are kept
    m = draw(sampled_from((12, 18, 24, 30, 36)))
    n = draw(integers(min_value=3, max_value=5 if m <= 12 else 4 if m <= 24 else 3))
    divisors = [g for g in range(1, m + 1) if m % g == 0]
    coeffs = []
    for _ in range(n):
        g = draw(sampled_from(divisors))
        u = draw(sampled_from([u for u in range(1, m // g + 1) if gcd(u, m // g) == 1]))
        coeffs.append(g * u % m)
    c = normalize(coeffs, 0, m)
    c = normalize(coeffs, c.summary.gcd_all * draw(integers(0, m - 1)), m)
    assume(lincong.core._block_depth(c) >= 2)
    assume(c.summary.solution_count <= 6000)
    return c


@settings(max_examples=40, deadline=None)
@given(block_instances())
@example(normalize([15, 10, 6, 5], 0, 30))
@example(normalize([42, 28, 12], 0, 84))
# a tie: gcds (4, 2, 2) and p2 = 16, so 8 runs at depth 1; a depth-2 block
# of 4 rows joined 16 // 4 = 4 times costs 4 + 4 = 8, no more, so the depth is 2
@example(normalize([4, 2, 2], 0, 8))
def test_enumerate_blocks_match_the_oracle_row_for_row(c):
    # the block covers the deepest coordinates, and a coordinate outside it
    # moves, so each block is joined onto more than one prefix
    s = summarize(c)
    depth = lincong.core._block_depth(c)
    block = prod(s.gcds[-depth:])
    assert depth >= 2 and block <= lincong.core._BLOCK_ROWS and prod(s.gcds[:-depth]) > 1
    rows, p1 = canonical_rows(c), s.solution_count
    limits = [0, 1, block // 2, block, block + block // 2, p1 - 1, p1, p1 + 1, None]
    for limit in limits:
        for fmt in ("text", "json"):
            assert_same_text(enumerate_output(c, fmt, limit), per_row_output(c, fmt, rows, limit),
                             (limit, fmt))


@pytest.mark.parametrize("coeffs, m, group, ends", [
    # depth 1: 64 prefixes of 16 rows a pair, then 61 to end the seed; p1 - 1, p1, p1 + 1
    ((125, 16), 4000, 64, [3999, 4000, 4001]),
    # depth 2: x1's 16 values, each with a block of 4 * 4 rows, in one pair
    ((16, 4, 4), 64, 16, [16383, 16384, 16385]),
    # depth 1: 16 values of x2 a pair, with 32 rows each, while x1 steps
    # through its two values outside the group
    ((2, 16, 32), 64, 16, [8191, 8192, 8193]),
    # depth 3: 3 prefixes of 300 rows would be too small a group, so each
    # pair is one prefix and its block
    ((15, 10, 6, 5), 30, 1, [26999, 27000, 27001]),
    # a run of 4,096 values cut into 1024-row slices, one prefix a pair;
    # its p1 is 2**23, so the limits end around the first prefix instead
    ((2048, 0), 4096, 1, [4096, 4097, 5000]),
])
def test_enumerate_prefix_groups_match_the_per_row_writer(monkeypatch, coeffs, m, group, ends):
    # the limit falls on the first row, inside a group, on a group's last
    # row and one past it, and at the ends; no pair holds more than 1024 rows
    c = normalize(coeffs, 0, m)
    pairs = []
    expand_runs = lincong.core._expand_runs

    def recording(*args):
        for prefixes, block in expand_runs(*args):
            rows = prod(map(len, block)) if type(block) is list else len(block)
            pairs.append((len(prefixes), rows))
            yield prefixes, block

    monkeypatch.setattr(lincong.core, "_expand_runs", recording)
    enumerate_output(c, "text", 2 * lincong.core._BLOCK_ROWS)
    assert pairs[0][0] == group and all(n * rows <= 1024 for n, rows in pairs)
    boundary = group * pairs[0][1]
    for limit in [0, 1, boundary // 2, boundary, boundary + 1, *ends]:
        for fmt in ("text", "json"):
            assert_same_text(enumerate_output(c, fmt, limit), reference_enumerate(c, fmt, limit),
                             (limit, fmt))


def test_enumerate_leaves_a_long_prefix_cycle_lazy():
    # gcd(0, 10**30) = 10**30: groups of 512 prefixes are slices of x1's
    # cycle, never the cycle itself, which no address space could hold; with
    # no limit, 2 * 10**30 rows stream into a reader that stops after three
    argv = [sys.executable, "-m", "lincong", "enumerate", "--coeffs=0,2", "--rhs=0",
            "--mod=1" + "0" * 30]
    half = b"5" + b"0" * 29
    proc = subprocess.run([*argv, "--limit", "5"], capture_output=True, env=subprocess_env(),
                          preexec_fn=_capped_address_space, timeout=30)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == b"0 0\n0 %s\n1 0\n1 %s\n2 0\n# truncated\n" % (half, half)
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=subprocess_env(), preexec_fn=_capped_address_space)
    deadline = threading.Timer(30, proc.kill)
    deadline.start()
    try:
        assert [proc.stdout.readline() for _ in range(3)] == [b"0 0\n", b"0 %s\n" % half, b"1 0\n"]
        proc.stdout.close()
        assert proc.wait(timeout=30) == 0
        assert proc.stderr.read() == b""
    finally:
        deadline.cancel()
        proc.kill()
        proc.stderr.close()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_enumerate_renders_a_block_once_per_seed_suffix(str_calls, fmt):
    # x2, x3 and x4 form blocks of 10 * 6 * 5 = 300 rows, and x1 steps
    # through 15 values, so the 27,000 rows are 90 joins onto 6 blocks: a
    # block is rendered from its three cycles, each value once, and only
    # when the seed's suffix changes, not once per prefix or per row
    c = normalize([15, 10, 6, 5], 0, 30)
    s = summarize(c)
    assert (s.solution_count, s.basis_size, s.gcds) == (27000, 6, (15, 10, 6, 5))
    assert lincong.core._block_depth(c) == 3
    assert_same_text(enumerate_output(c, fmt), per_row_output(c, fmt, canonical_rows(c), None))
    suffixes = [key for key, _ in itertools.groupby(x[1:] for x in build_basis(c))]
    assert len(str_calls) == (10 + 6 + 5) * len(suffixes) <= 21 * s.basis_size


@pytest.mark.parametrize("expr", ["x + y ≡ 0 (mod 3000)", "x ≡ 3 (mod 7)", "x ≡ 0 (mod 1)"])
@pytest.mark.parametrize("limit", [0, 1, 1023, 1024, 1025, 2049, "p1", None])
def test_enumerate_at_p2_1_writes_the_rows_solve_writes(capsys, expr, limit):
    # when every expansion is its seed, the solutions are the basis rows, and
    # enumerate writes them as solve does, byte for byte, in both formats
    _, summary, _ = run(capsys, "solve", expr, "--format", "json", "--limit", "0")
    doc = json.loads(summary)
    assert doc["p2"] == "1"
    flags = [] if limit is None else ["--limit", doc["p1"] if limit == "p1" else str(limit)]
    _, solved, _ = run(capsys, "solve", expr, *flags)
    code, enumerated, _ = run(capsys, "enumerate", expr, *flags)
    assert code == 0
    assert_same_text(enumerated, solved.partition("basis:\n")[2], limit)
    _, solved, _ = run(capsys, "solve", expr, "--format", "json", *flags)
    code, enumerated, _ = run(capsys, "enumerate", expr, "--format", "json", *flags)
    assert code == 0
    assert_same_text(enumerated, solved.replace('"basis": [', '"solutions": [', 1), limit)


@pytest.mark.parametrize("limit, sizes", [(None, [1024, 1024, 952]), (2049, [1024, 1024, 1]),
                                          (1024, [1024])])
def test_enumerate_at_p2_1_writes_blocks_of_1024_rows(monkeypatch, limit, sizes):
    # one block, so one join, per 1024 rows, not one per one-row seed
    c = normalize([1, 1], 0, 3000)
    written = []
    blocks = lincong.cli._blocks

    def recording(*args, **kwargs):
        for prefix, block in blocks(*args, **kwargs):
            written.append(len(block))
            yield prefix, block

    monkeypatch.setattr(lincong.cli, "_blocks", recording)
    assert enumerate_output(c, "text", limit).count("\n") == sum(sizes) + (limit is not None)
    assert written == sizes


def test_verify_checks_the_rows_enumerate_writes(monkeypatch):
    # enumerate writes blocks of x2, x3 and x4, one walk at depth 3; expand,
    # enumerate_all and the oracle take each seed's rows as one product of
    # its cycles instead, and never walk those blocks.  The rows are the same,
    # in the same order, so verify checks row for row what enumerate prints
    c = normalize([15, 10, 6, 5], 0, 30)
    s = summarize(c)
    depths = []
    expand_runs = lincong.core._expand_runs

    def recording(seeds, c, depth):
        depths.append(depth)
        return expand_runs(seeds, c, depth)

    monkeypatch.setattr(lincong.core, "_expand_runs", recording)
    basis = build_basis(c)
    assert len(list(expand(basis[-1], c))) == s.expansion_count
    rows = list(enumerate_all(basis, c))
    assert len(rows) == s.solution_count
    report = verify(c)
    assert report.agrees_with_summary and report.agrees_with_basis
    assert depths == []
    written = enumerate_output(c, "text")
    assert written.count("\n") == s.solution_count
    assert depths == [3]
    assert [tuple(map(int, line.split())) for line in written.splitlines()] == rows


def test_enumerate_streams_a_run_of_10_to_the_300_rows():
    # a_1 = 0 makes gcd(a_1, m) = m: the only basis row expands into one run
    # of 10**300 values, which is written in slices as it is walked; in 1 GiB,
    # a writer that rendered the whole run first fails instead of growing
    argv = ["enumerate", "--coeffs=0", "--rhs=0", f"--mod={decimal(10**300)}"]
    proc = subprocess.Popen([sys.executable, "-m", "lincong", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=subprocess_env(),
                            preexec_fn=_capped_address_space)
    # a writer that never gets to its first line is killed, so the reads end
    deadline = threading.Timer(30, proc.kill)
    deadline.start()
    try:
        assert [proc.stdout.readline() for _ in range(3)] == [b"0\n", b"1\n", b"2\n"]
        proc.stdout.close()
        assert proc.wait(timeout=30) == 0
        assert proc.stderr.read() == b""
    finally:
        deadline.cancel()
        proc.kill()
        proc.stderr.close()

    tracemalloc.start()
    try:
        with redirect_stdout(Discard()):
            assert main([*argv, "--limit", "200000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@composite
def instances(draw):
    # arity 1-5 with m**n <= 4096, solvable or not
    n = draw(integers(min_value=1, max_value=5))
    m = draw(integers(min_value=1, max_value=(4096, 64, 16, 8, 5)[n - 1]))
    coeffs = draw(lists(integers(min_value=0, max_value=m - 1), min_size=n, max_size=n))
    return normalize(coeffs, draw(integers(min_value=0, max_value=m - 1)), m)


def reference_solve(c, fmt, limit):
    """What `solve` printed when it collected its basis with build_basis: a
    "%d" format per row for text, json.dumps of the whole document for JSON."""
    s = summarize(c)
    basis = build_basis(c)
    if basis is not None:
        basis = basis[:limit]
    truncated = s.solvable and limit is not None and limit < s.basis_size
    if fmt == "json":
        doc = {"d": str(s.gcd_all), "solvable": s.solvable, "p1": str(s.solution_count),
               "p2": str(s.expansion_count), "s": str(s.basis_size)}
        if basis is not None:
            doc["basis"] = basis
        doc["truncated"] = truncated
        return json.dumps(doc) + "\n"
    names = tuple(f"x{i}" for i in range(1, c.arity + 1))
    lines = [f"congruence: {format_congruence(ParsedCongruence(names, c.coeffs, c.rhs, c.modulus))}",
             f"d = {s.gcd_all}", f"solvable = {'true' if s.solvable else 'false'}",
             f"solutions (p1) = {s.solution_count}", f"per-seed (p2) = {s.expansion_count}",
             f"basis size (s) = {s.basis_size}"]
    if basis is not None:
        row_format = " ".join(["%d"] * c.arity)
        lines += ["basis:", *(row_format % row for row in basis)]
        lines += ["# truncated"] if truncated else []
    return "".join(line + "\n" for line in lines)


def solve_output(c, fmt, limit):
    argv = ["solve", f"--coeffs={','.join(map(str, c.coeffs))}", f"--rhs={c.rhs}",
            f"--mod={c.modulus}", "--format", fmt]
    if limit is not None:
        argv += ["--limit", str(limit)]
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == (0 if summarize(c).solvable else 3)
    return out.getvalue()


@settings(max_examples=60, deadline=None)
@given(instances())
@example(normalize([2], 1, 4))  # unsolvable
@example(normalize([4, 6, 0], 1, 8))  # unsolvable
@example(normalize([1, 1], 0, 2048))  # s = 2048: two full pieces of rows
def test_solve_streams_the_basis_byte_for_byte(c):
    s = summarize(c).basis_size
    for limit in [None, 0, 1, s - 1, s, s + 1, 10**20]:
        for fmt in ("text", "json"):
            assert_same_text(solve_output(c, fmt, limit), reference_solve(c, fmt, limit),
                             (limit, fmt))


def _capped_address_space():
    # the child may map at most 1 GiB, so a solve that collects its basis
    # fails within seconds instead of growing for as long as memory lasts
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_solve_streams_a_basis_of_10_to_the_10_rows(fmt):
    # s = 10**10: the summary and the first rows arrive while the walk goes
    # on, and the writer exits 0 when the reader hangs up
    argv = ["solve", "x + y + z ≡ 0 (mod 100000)", "--format", fmt]
    proc = subprocess.Popen([sys.executable, "-m", "lincong", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=subprocess_env(), preexec_fn=_capped_address_space)
    deadline = threading.Timer(30, proc.kill)
    deadline.start()
    try:
        if fmt == "text":
            assert [proc.stdout.readline() for _ in range(9)] == [
                line.encode() + b"\n" for line in [
                    "congruence: 1*x + 1*y + 1*z ≡ 0 (mod 100000)", "d = 1", "solvable = true",
                    "solutions (p1) = 10000000000", "per-seed (p2) = 1",
                    "basis size (s) = 10000000000", "basis:", "0 0 0", "0 1 99999"]]
        else:
            rows = ", ".join(f"[0, {y}, {-y % 100000}]" for y in range(20))
            head = ('{"d": "1", "solvable": true, "p1": "10000000000", "p2": "1", '
                    '"s": "10000000000", "basis": [' + rows)
            assert proc.stdout.read(200) == head.encode()[:200]
        proc.stdout.close()
        assert proc.wait(timeout=30) == 0
        assert proc.stderr.read() == b""
    finally:
        deadline.cancel()
        proc.kill()
        proc.stderr.close()


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
    proc = subprocess.run(
        [sys.executable, "-m", "lincong", "solve",
         "2x - 6y = 2 (mod 12)", "--format", "json"],
        capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["s"] == "2"


def test_importing_the_cli_loads_only_what_every_call_uses():
    # random and the oracle serve only verify, json and intmath no call, and
    # typing nothing at run time, so a cold start does not import them; the
    # records are plain classes, so neither dataclasses nor the inspect it
    # pulls in is loaded either; argparse and its gettext wait for an argv
    # the scan passes on, decimal for a count of 1,000 digits
    unused = ["json", "random", "typing", "dataclasses", "inspect", "argparse", "gettext",
              "decimal", "lincong.oracle", "lincong.intmath"]
    probe = (f"import sys; before = set(sys.modules); import lincong.cli; "
             f"print(sorted(set(sys.modules) - before & set({unused!r})))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_no_module_of_the_package_loads_dataclasses():
    # every record derives from core._Record, intmath's two included, so the
    # modules no CLI call imports do not load dataclasses or inspect either
    probe = ("import sys; import lincong.intmath, lincong.oracle; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("argv", [
    ["solve", REF_EXPR, "--format", "json"],
    ["enumerate", REF_EXPR, "--format", "json"],
    ["check", REF_EXPR, "7,4", "1,0"],
    ["verify", REF_EXPR],
    ["verify", "--seed", "1"],
])
def test_each_subcommand_loads_only_what_it_uses(argv):
    # the modules a call loads, `import lincong.cli` included: the oracle for
    # verify alone, random for its --seed batch alone, and json, typing,
    # intmath, dataclasses, inspect, argparse, gettext or, with short counts,
    # decimal for none
    watched = ["json", "random", "typing", "dataclasses", "inspect", "argparse", "gettext",
               "decimal", "lincong.oracle", "lincong.intmath"]
    probe = (f"import os, sys; before = set(sys.modules); import lincong.cli; "
             f"sys.stdout = open(os.devnull, 'w'); code = lincong.cli.main({argv!r}); "
             f"sys.stdout = sys.__stdout__; "
             f"print(code, sorted(set(sys.modules) - before & set({watched!r})))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    loaded = ["lincong.oracle"] if argv[0] == "verify" else []
    loaded += ["random"] if "--seed" in argv else []
    assert proc.stdout == f"0 {sorted(loaded)}\n"


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
    proc = subprocess.Popen(
        [sys.executable, "-m", "lincong", "enumerate", "x + y ≡ 0 (mod 100000)"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=subprocess_env())
    try:
        assert proc.stdout.readline() == b"0 0\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()


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
        proc = subprocess.run([sys.executable, "-m", "lincong", "solve", "x ≡ 1 (mod 3)"],
                              stdout=full, stderr=subprocess.PIPE, text=True,
                              env=subprocess_env(), timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_help_to_a_failing_stdout_is_one_error_line(unbuffered):
    # argparse would swallow the failed write of the help text and exit 0;
    # unbuffered, the write itself fails, buffered, main's flush does
    env = {**subprocess_env(), "PYTHONUNBUFFERED": unbuffered}
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "lincong", "solve", "--help"],
                              stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (2, "error: [Errno 28] No space left on device\n")


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


@settings(max_examples=150)
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
def test_the_counts_are_their_decimal_strings(c):
    # both sides of each cutover write each count as str() does
    s = c.summary
    expected = tuple(map(decimal, (s.gcd_all, s.solution_count, s.expansion_count, s.basis_size)))
    assert lincong.cli._counts(c) == expected


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
