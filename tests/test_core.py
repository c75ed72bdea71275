"""Core solver: normalization, counting, expansion, dependence, bases."""

import itertools
import math
import pathlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis.strategies import builds, composite, integers, just, lists, one_of

from lincong import core, intmath
from lincong.cli import main
from lincong.core import (
    LinearCongruence,
    _level_constants,
    are_dependent,
    build_basis,
    enumerate_all,
    enumerate_raw,
    expand,
    find_particular,
    iter_basis,
    module_generators,
    normalize,
    satisfies,
    summarize,
)
from lincong.oracle import brute_force, verify

from helpers import (fibonacci_pair, greedy_basis, iter_reference_expand, lex_rows,
                     random_instances, reference_expand)

# 2x - 6y = 2 (mod 12), the worked two-variable example used throughout.
REF = normalize([2, -6], 2, 12)

LIST_A = [(1, 0), (1, 2), (1, 4), (1, 6), (1, 8), (1, 10),
          (7, 0), (7, 2), (7, 4), (7, 6), (7, 8), (7, 10)]
LIST_B = [(4, 1), (4, 3), (4, 5), (4, 7), (4, 9), (4, 11),
          (10, 1), (10, 3), (10, 5), (10, 7), (10, 9), (10, 11)]


@composite
def instances(draw):
    n = draw(integers(min_value=1, max_value=3))
    coeffs = draw(lists(integers(min_value=-20, max_value=20),
                        min_size=n, max_size=n))
    b = draw(integers(min_value=-20, max_value=20))
    m = draw(integers(min_value=1, max_value=12))
    return normalize(coeffs, b, m)


def test_normalize_reduces_everything():
    assert REF.coeffs == (2, 6)
    assert REF.rhs == 2
    assert REF.modulus == 12
    c = normalize([-1, 25], -3, -12)
    assert c.coeffs == (11, 1)
    assert c.rhs == 9
    assert c.modulus == 12
    assert normalize([5], 0, -7) == LinearCongruence((5,), 0, 7)
    assert normalize([0, 0], 3, 3) == LinearCongruence((0, 0), 0, 3)


def test_normalize_rejects_degenerate_input():
    with pytest.raises(ValueError):
        normalize([1], 0, 0)
    with pytest.raises(ValueError):
        normalize([], 0, 5)
    for raw in (([1.5], 0, 4), ([1], 0.5, 4), ([1], 0, 4.0),
                (['1'], 0, 4), ([1], '0', 4), ([1], 0, '4')):
        with pytest.raises(ValueError, match="must be integers"):
            normalize(*raw)
    # bool is an int subclass, so it is accepted like 1 and 0
    assert normalize([True, False], True, 3) == normalize([1, 0], 1, 3)


@pytest.mark.parametrize("raw, message", [
    (([1.5], 0, 0), "coefficients, rhs and modulus must be integers"),
    (([], 0, 0), "modulus must be nonzero"),
    (([], 0, 5), "at least one coefficient is required"),
])
def test_normalize_rejects_in_order_types_modulus_and_arity(raw, message):
    with pytest.raises(ValueError) as info:
        normalize(*raw)
    assert str(info.value) == message


@given(lists(integers(), min_size=1, max_size=4), integers(),
       integers().filter(bool))
@example([-1, 10**40], -(10**40) - 3, -7)
def test_normalize_builds_the_record_its_checks_accept(coeffs, rhs, m):
    # normalize reduces every value itself and skips LinearCongruence's
    # checks: the record it builds is the one they accept and build
    c, k = normalize(coeffs, rhs, m), abs(m)
    assert c == LinearCongruence(c.coeffs, c.rhs, c.modulus)
    assert (c.coeffs, c.rhs, c.modulus) == (tuple(a % k for a in coeffs), rhs % k, k)
    assert type(c.coeffs) is tuple and type(c) is LinearCongruence


def test_instance_validation():
    with pytest.raises(ValueError):
        LinearCongruence((13,), 0, 12)
    with pytest.raises(ValueError):
        LinearCongruence((1,), 12, 12)
    with pytest.raises(ValueError):
        LinearCongruence((1,), 0, 0)
    assert LinearCongruence((2, 6), 2, 12).arity == 2


def test_summarize_reference_instance():
    s = summarize(REF)
    assert s.gcd_all == 2
    assert s.solvable
    assert s.solution_count == 24
    assert s.expansion_count == 12
    assert s.basis_size == 2


def test_summarize_more_instances():
    s = summarize(normalize([4, 6], 2, 8))
    assert (s.gcd_all, s.solution_count, s.expansion_count, s.basis_size) \
        == (2, 16, 8, 2)
    assert s.solvable
    s = summarize(normalize([2], 1, 4))
    assert s.gcd_all == 2
    assert not s.solvable
    s = summarize(normalize([0, 0], 0, 3))
    assert (s.gcd_all, s.solution_count, s.expansion_count, s.basis_size) \
        == (3, 9, 9, 1)
    assert s.solvable


@composite
def record_instances(draw):
    # arity 1-5 with m**n <= 3125, small enough to brute-force and expand
    n = draw(integers(min_value=1, max_value=5))
    m = draw(integers(min_value=1, max_value=(60, 24, 12, 7, 5)[n - 1]))
    coeffs = draw(lists(integers(min_value=-3 * m, max_value=3 * m),
                        min_size=n, max_size=n))
    return normalize(coeffs, draw(integers(min_value=-3 * m, max_value=3 * m)), m)


def check_record_folds(c):
    """Compare the record's gcd fields and basis_size with direct math.gcd folds."""
    s, m = summarize(c), c.modulus
    assert s.gcd_all == math.gcd(*c.coeffs, m)
    assert s.solvable == (c.rhs % s.gcd_all == 0)
    assert s.gcds == tuple(math.gcd(a, m) for a in c.coeffs)
    assert s.strides == tuple(m // math.gcd(a, m) for a in c.coeffs)
    assert s.suffix_gcds == tuple(math.gcd(*c.coeffs[i:], m) for i in range(c.arity))
    assert s.expansion_count == math.prod(math.gcd(a, m) for a in c.coeffs)
    assert s.basis_size == intmath.basis_size(c.coeffs, m)
    assert s.solution_count == s.basis_size * s.expansion_count


@settings(max_examples=150)
@given(record_instances())
def test_record_matches_independent_derivations(c):
    check_record_folds(c)
    s = summarize(c)
    assert len(brute_force(c)) == (s.solution_count if s.solvable else 0)
    if s.solvable:
        assert len(set(expand(find_particular(c), c))) == s.expansion_count


def test_record_matches_independent_derivations_300_digit_modulus():
    m = 12 * 10**298  # 2**300 * 3 * 5**298
    c = normalize([8, 9, 7, 10**298 + 1, -6 * 10**297], 5, m)
    check_record_folds(c)
    s = summarize(c)
    assert s.gcds == (8, 3, 1, 1, 6 * 10**297)
    assert s.solution_count == m**4
    p = find_particular(c)
    assert len(set(itertools.islice(expand(p, c), 10**4))) == 10**4
    # the same seed moved by multiples of its strides, so not reduced: the
    # last coordinate wraps past m - 1 after three rows
    shifts = (5, 2, 0, 0, 6 * 10**297 - 3)
    shifted = tuple((x + g * t) % m for x, g, t in zip(p, s.strides, shifts))
    rows = list(itertools.islice(expand(shifted, c), 10**4))
    assert len(set(rows)) == 10**4 and all(satisfies(x, c) for x in rows)
    assert rows[2][4] > rows[3][4] == p[4]
    c = normalize([8, 9, 7, 10**298 + 1], 5, m)
    p = find_particular(c)
    assert len(set(expand(p, c))) == summarize(c).expansion_count == 24
    shifted = tuple((x + g * t) % m for x, g, t in zip(p, summarize(c).strides, (7, 1, 0, 0)))
    assert shifted != p and set(expand(shifted, c)) == set(expand(p, c))


@composite
def big_shared_factor_instances(draw):
    # arity 1-12, moduli up to 300 digits, coefficients that share a random
    # factor of m, some of them 0, and m = 1
    n = draw(integers(min_value=1, max_value=12))
    k = draw(integers(min_value=1, max_value=10**150))
    m = k * draw(integers(min_value=1, max_value=10**150))
    unit = one_of(just(0), integers(min_value=1, max_value=m))
    coeffs = [draw(unit) * draw(one_of(just(1), just(k))) for _ in range(n)]
    return normalize(coeffs, 0, m)


@settings(max_examples=200)
@given(big_shared_factor_instances())
@example(normalize([0], 0, 1))
@example(normalize([0, 0, 0], 0, 1))
@example(normalize([6 * 10**297], 0, 12 * 10**298))
@example(normalize([0, 0, 4 * 10**298, 3 * 10**298], 0, 12 * 10**298))
def test_record_matches_independent_derivations_on_shared_factors(c):
    # the record folds the suffix gcds from gcd(a_i, m), not from a_i
    check_record_folds(c)


def test_record_is_derived_once_and_kept_on_the_instance():
    c = normalize([2, 4, 6], 0, 12)
    s = summarize(c)
    assert summarize(c) is s is c.summary
    assert module_generators(c) is s.strides
    # an equal instance has a record of its own, with equal fields
    other = normalize([2, 4, 6], 0, 12)
    assert other == c and summarize(other) == s and summarize(other) is not s


@pytest.mark.parametrize("n", [64, 65, 131])
def test_a_balanced_p2_is_the_product_of_the_gcds(n):
    # past 64 factors summary multiplies adjacent gcds in pairs, and a level
    # of odd length carries its last factor, here never 1, to the next
    m = 2**10 * 3**5 * 5**3 * 7
    c = normalize(range(2, n + 2), 0, m)
    assert c.summary.gcds[-1] > 1
    assert c.summary.expansion_count == math.prod(math.gcd(a, m) for a in range(2, n + 2))


def test_module_generators_strides():
    lattice = module_generators(REF)
    assert lattice == (6, 2)
    assert module_generators(normalize([3, 4], 0, 12)) == (4, 3)
    # coprime coefficient -> stride m; zero coefficient -> stride 1
    assert module_generators(normalize([5, 0], 0, 12)) == (12, 1)
    assert all(12 % g == 0 for g in lattice)


def test_are_dependent_worked_checks():
    lattice = module_generators(REF)
    assert are_dependent((7, 4), (1, 0), lattice)
    assert not are_dependent((4, 1), (0, 1), lattice)


def test_are_dependent_rejects_arity_mismatch():
    lattice = module_generators(REF)
    with pytest.raises(ValueError):
        are_dependent((1, 0, 0), (1, 0), lattice)


def test_satisfies():
    assert satisfies((1, 0), REF)
    assert satisfies((7, 4), REF)
    assert not satisfies((1, 1), REF)
    with pytest.raises(ValueError):
        satisfies((1,), REF)


def test_find_particular_reference():
    assert find_particular(REF) == (1, 0)


def test_find_particular_unsolvable():
    assert find_particular(normalize([2], 1, 4)) is None


@settings(max_examples=150)
@given(record_instances())
def test_find_particular_is_the_least_solution(c):
    # the least tuple of the exhaustive scan, or None when it finds nothing
    assert find_particular(c) == min(brute_force(c), default=None)


def test_expand_reference_lists_in_order():
    assert list(expand((1, 0), REF)) == LIST_A
    assert list(expand((4, 1), REF)) == LIST_B


def test_expand_validates_seed_eagerly():
    with pytest.raises(ValueError):
        expand((1, 1), REF)  # not a solution
    with pytest.raises(ValueError):
        expand((13, 0), REF)  # not reduced
    with pytest.raises(ValueError):
        expand((1,), REF)  # wrong arity
    with pytest.raises(ValueError, match="must be integers"):
        expand((1.0, 9), normalize([1, 1], 0, 10))  # a float would reach range()


@composite
def seeded_instances(draw):
    """A solvable instance of arity 1-5 and a seed anywhere in its solution set."""
    n = draw(integers(min_value=1, max_value=5))
    coeffs = draw(lists(integers(min_value=-30, max_value=30),
                        min_size=n, max_size=n))
    m = draw(integers(min_value=1, max_value=12 if n <= 3 else 7))
    c = normalize(coeffs, draw(integers(min_value=-30, max_value=30)), m)
    basis = list(itertools.islice(iter_basis(c), 20))
    if not basis:
        c = normalize(coeffs, 0, m)
        basis = list(itertools.islice(iter_basis(c), 20))
    row = basis[draw(integers(min_value=0, max_value=len(basis) - 1))]
    shifts = draw(lists(integers(min_value=0, max_value=50), min_size=n, max_size=n))
    strides = module_generators(c)
    return c, tuple((x + g * t) % m for x, g, t in zip(row, strides, shifts))


@settings(max_examples=150)
@given(seeded_instances())
def test_expand_matches_reference_odometer(case):
    c, seed = case
    want = reference_expand(seed, c)
    # one row past the reference, so a walk that never ends fails instead of hanging
    assert list(itertools.islice(expand(seed, c), len(want) + 1)) == want


def prefix_tuples(lead, part):
    """The prefixes of a group pair: its fixed lead, then each value of its slice."""
    return [(*lead, x) for x in part]


@settings(max_examples=150)
@given(seeded_instances())
@example((normalize([0, 0, 0, 1], 0, 12), (5, 7, 11, 0)))  # deeper blocks of 1,728 rows
def test_expansion_blocks_of_every_depth_carry_the_same_rows(case):
    # a block of the deepest coordinates, joined onto each prefix of its
    # pair in turn, is the product of their cycles (the list of them, deeper
    # than 1), rotated for a seed that is not reduced: every depth walks the
    # same rows in the same order, here for two seeds in turn.  A group
    # pair's prefixes are its fixed lead followed by each value of its slice
    c, seed = case
    want = reference_expand(seed, c)
    for depth in range(1, c.arity + 1):
        size = core._BLOCK_ROWS // math.prod(c.summary.gcds[-depth:])
        paths = ["runs", "slices"] if depth == 1 else ["deep"]
        for path in paths + ["groups"] * (depth < c.arity and size > 0):
            blocks = core._expand_runs((seed, seed), c, path, depth, size)
            rows = (prefix + row for prefixes, block in blocks
                    for prefix in (prefix_tuples(*prefixes) if path == "groups" else prefixes)
                    for row in (itertools.product(*block) if depth > 1 else zip(block)))
            assert list(itertools.islice(rows, 2 * len(want) + 1)) == want + want, (path, depth)


@settings(max_examples=100, deadline=None)
@given(record_instances())
def test_every_prefix_of_a_block_stream_has_the_same_length(c):
    # the CLI reads the row format from the plan _blocks returns: every
    # prefix holds the first n - depth values, none on the whole-row paths
    # (seeds and seed-major, at depth n).  A pair's prefixes each take its
    # whole block, and no pair holds more than 1024 rows.  The CLI bounds a
    # stream by its seeds, so the limits cut the seeds here.  The stream
    # shape table (tests/shapes.py) checks the same on each path
    s = c.summary
    for expand in (True, False):
        (path, depth), pairs = core._blocks(iter_basis(c), c, expand)
        cycles = depth > 1 and path in ("deep", "groups")

        def prefixes(pair):  # a group pair carries its fixed lead and a slice
            return prefix_tuples(*pair[0]) if path == "groups" else pair[0]

        def rows(pair):
            block = pair[1]
            return len(prefixes(pair)) * (math.prod(map(len, block)) if cycles else len(block))

        first = next(pairs, None)
        pair = 1 if first is None else rows(first)
        for limit in (None, 0, 1, pair, pair + 1, s.solution_count + 1):
            seeds = itertools.islice(iter_basis(c), limit)
            plan, pairs = core._blocks(seeds, c, expand)
            pairs = list(pairs)
            lengths = {len(prefix) for pair in pairs for prefix in prefixes(pair)}
            assert plan == (path, depth), (expand, limit)
            assert lengths == ({c.arity - depth} if s.solvable and limit != 0 else set()), (
                expand, limit)
            assert all(0 < rows(pair) <= core._BLOCK_ROWS for pair in pairs), (expand, limit)


def test_enumerate_all_writes_a_groups_stream_as_prefix_tuples():
    # gcd(0, 1025) = 1025, so p2 > 1024 and enumerate_all reads _blocks, whose
    # groups path carries up to 1024 values of x2 a pair under a fixed lead of
    # x1: the rows are the reference odometer's, across three values of x1
    c = normalize([0, 0, 2], 0, 1025)
    assert core._blocks((), c)[0] == ("groups", 1)
    basis = build_basis(c)
    want = list(itertools.islice(itertools.chain.from_iterable(
        iter_reference_expand(x, c) for x in basis), 3000))
    assert list(itertools.islice(enumerate_all(basis, c), 3000)) == want


def test_expand_stays_lazy_when_one_coordinate_takes_every_residue():
    # a_i = 0 makes gcd(a_i, m) = m: that coordinate runs through all of [0, m)
    m = 10**300
    first = normalize([0, 1], 5, m)
    assert list(itertools.islice(expand((m - 2, 5), first), 3)) == [
        (m - 2, 5), (m - 1, 5), (0, 5)]
    last = normalize([1, 0], 5, m)
    assert list(itertools.islice(expand((5, m - 1), last), 3)) == [
        (5, m - 1), (5, 0), (5, 1)]


@pytest.mark.parametrize("coeffs", [(0, 2), (2, 0)])
@pytest.mark.parametrize("m, walks", [(1024, 0), (1025, 4)])
def test_expansion_agrees_on_both_sides_of_the_block_cutover(monkeypatch, coeffs, m, walks):
    # gcd(0, m) = m: a cycle of 1024 values is held whole, one product per
    # seed; one of 1025 is not, and expand, enumerate_all and verify each walk
    # the CLI's blocks instead, which step a long first coordinate in their
    # odometer and cut a long last one into slices
    c = normalize(coeffs, 0, m)
    assert max(c.summary.gcds) == m
    calls = []
    expand_runs = core._expand_runs

    def recording(*args):
        calls.append(args)
        return expand_runs(*args)

    monkeypatch.setattr(core, "_expand_runs", recording)
    (reduced,) = build_basis(c)
    rotated = reference_expand(reduced, c)[c.summary.expansion_count // 2 + 3]
    assert any(x >= g for x, g in zip(rotated, c.summary.strides))
    for seed in (reduced, rotated):
        want = reference_expand(seed, c)
        assert list(itertools.islice(expand(seed, c), len(want) + 1)) == want, seed
    assert set(enumerate_all(iter_basis(c), c)) == brute_force(c)
    report = verify(c)
    assert report.agrees_with_summary and report.agrees_with_basis
    assert len(calls) == walks


def test_enumerate_raw_reference_order():
    rows = list(enumerate_raw(REF))
    assert rows == LIST_A[:6] + LIST_B[:6] + LIST_A[6:] + LIST_B[6:]
    assert rows == sorted(rows)
    assert len(set(rows)) == 24


def test_enumerate_raw_unsolvable_is_empty():
    assert list(enumerate_raw(normalize([2], 1, 4))) == []


def test_enumerate_raw_single_unknown():
    assert list(enumerate_raw(normalize([1], 3, 5))) == [(3,)]


def test_build_basis_reference():
    basis = build_basis(REF)
    assert basis == ((1, 0), (4, 1))


def test_build_basis_is_deterministic():
    assert build_basis(REF) == build_basis(REF)


def test_basis_prefix_is_an_islice_of_iter_basis():
    assert tuple(itertools.islice(iter_basis(REF), 0)) == ()
    assert tuple(itertools.islice(iter_basis(REF), 1)) == ((1, 0),)
    assert tuple(itertools.islice(iter_basis(REF), 99)) == build_basis(REF)


def test_build_basis_unsolvable_returns_none():
    assert build_basis(normalize([2], 1, 4)) is None
    assert list(iter_basis(normalize([2], 1, 4))) == []


def test_build_basis_alternative_ordering_same_size():
    reversed_rows = list(enumerate_raw(REF))[::-1]
    picked = greedy_basis(REF, reversed_rows)
    assert picked == [(10, 11), (7, 10)]
    assert len(picked) == len(build_basis(REF)) == 2
    basis = tuple(picked)
    assert set(enumerate_all(basis, REF)) == set(LIST_A + LIST_B)


def test_any_representative_per_class_expands_to_the_oracle_set():
    rng = random.Random(5)
    for c in random_instances(13, 40, arities=(1, 2, 3), mod_bound=12):
        s = summarize(c)
        # a random member of each class: its reduced member shifted by strides
        reps = [tuple((x + g * rng.randrange(d)) % c.modulus
                      for x, g, d in zip(row, s.strides, s.gcds)) for row in iter_basis(c)]
        assert greedy_basis(c, reps) == reps  # pairwise independent, one per class
        rows = list(enumerate_all(tuple(reps), c))
        assert len(rows) == s.solution_count
        assert set(rows) == brute_force(c)
    # a basis given from outside is checked seed by seed as it expands
    for seeds, message in ((((0, 0), (0, 1)), "does not satisfy"),
                           (((13, 0), (4, 1)), "not reduced"),
                           (((1.0, 0), (4, 1)), "must be integers"),
                           (((1, 0), (4, 1, 0)), "arity mismatch")):
        with pytest.raises(ValueError, match=message):
            list(enumerate_all(seeds, REF))


def test_enumerate_all_reference():
    basis = build_basis(REF)
    rows = list(enumerate_all(basis, REF))
    assert rows == LIST_A + LIST_B
    assert len(set(rows)) == 24


def test_readme_library_block_runs_as_documented():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(block, names)
    s, c = names["s"], names["c"]
    assert (s.gcd_all, s.solution_count, s.expansion_count, s.basis_size) == (2, 24, 12, 2)
    assert names["seed"] == (1, 0)
    assert len(names["sols"]) == len(set(names["sols"])) == 12
    assert names["basis"] == ((1, 0), (4, 1))
    assert len(names["all24"]) == 24 and names["all24"] == brute_force(c)
    assert names["same"] is True


def test_all_zero_coefficients():
    c = normalize([0, 0], 0, 3)
    basis = build_basis(c)
    assert len(basis) == 1
    assert set(enumerate_all(basis, c)) == set(itertools.product(range(3),
                                                                 repeat=2))


def test_streams_stay_lazy_at_huge_moduli():
    big = normalize([2, 2], 0, 10**12)
    s = summarize(big)
    assert s.solution_count == 2 * 10**12
    assert s.basis_size == 5 * 10**11
    assert list(itertools.islice(enumerate_raw(big), 3)) == [
        (0, 0), (0, 500000000000), (1, 499999999999)]
    assert list(itertools.islice(expand((0, 0), big), 3)) == [
        (0, 0), (0, 500000000000), (500000000000, 0)]
    assert tuple(itertools.islice(iter_basis(big), 2)) == ((0, 0), (1, 499999999999))


def test_enumerate_raw_lazy_single_unknown_full_range():
    stream = enumerate_raw(normalize([0], 0, 10**9))
    assert list(itertools.islice(stream, 3)) == [(0,), (1,), (2,)]


@settings(max_examples=60)
@given(instances(), lists(integers(min_value=0, max_value=50), min_size=3, max_size=3))
def test_expansion_counts_and_validity(c, shifts):
    s = summarize(c)
    seed = find_particular(c)
    if not s.solvable:
        assert seed is None
        return
    # one row past the count, so a walk that never ends fails instead of hanging
    grown = list(itertools.islice(expand(seed, c), s.expansion_count + 1))
    assert grown[0] == seed
    assert len(grown) == s.expansion_count
    assert len(set(grown)) == s.expansion_count
    assert all(satisfies(x, c) for x in grown)
    # a seed moved by multiples of its strides is not reduced, so its cycles
    # wrap mid-walk; it grows the same class from its own first row
    shifted = tuple((x + g * t) % c.modulus for x, g, t in zip(seed, s.strides, shifts))
    regrown = list(itertools.islice(expand(shifted, c), s.expansion_count + 1))
    assert regrown[0] == shifted
    assert len(regrown) == s.expansion_count
    assert set(regrown) == set(grown)


@settings(max_examples=60)
@given(instances())
def test_enumerate_raw_is_sorted_and_complete(c):
    s = summarize(c)
    rows = list(enumerate_raw(c))
    assert rows == sorted(set(rows))
    assert len(rows) == (s.solution_count if s.solvable else 0)


@settings(max_examples=40)
@given(instances())
def test_basis_regenerates_solution_set(c):
    s = summarize(c)
    basis = build_basis(c)
    if not s.solvable:
        assert basis is None
        return
    assert len(basis) == s.basis_size
    lattice = module_generators(c)
    for x, y in itertools.combinations(basis, 2):
        assert not are_dependent(x, y, lattice)
    regenerated = list(enumerate_all(basis, c))
    assert len(regenerated) == s.solution_count
    assert set(regenerated) == set(enumerate_raw(c))


def _class_key(x, c):
    return tuple(xi % g for xi, g in zip(x, module_generators(c)))


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_basis_matches_greedy_search_and_oracle(arity):
    mod_bound = {1: 40, 2: 24, 3: 12, 4: 7}[arity]
    for c in random_instances(arity, 60, arities=(arity,), mod_bound=mod_bound):
        rows = list(build_basis(c))
        assert rows == greedy_basis(c)
        strides = module_generators(c)
        assert rows == sorted(x for x in brute_force(c)
                              if all(xi < g for xi, g in zip(x, strides)))
        assert len(rows) == summarize(c).basis_size


def test_shuffled_candidates_pick_one_member_of_every_class():
    rng = random.Random(3)
    for c in random_instances(11, 40, arities=(2, 3), mod_bound=12):
        stream = list(enumerate_raw(c))
        rng.shuffle(stream)
        picked = greedy_basis(c, stream)
        s = summarize(c)
        assert len(picked) == s.basis_size
        assert {_class_key(x, c) for x in picked} \
            == {_class_key(x, c) for x in iter_basis(c)}
        basis = tuple(picked)
        assert set(enumerate_all(basis, c)) == brute_force(c)


def test_first_row_deep_in_lexicographic_order(capsys):
    # the least solution sits ~1e20 prefixes into [0, m)**2
    p, q = 10**20 + 39, 10**20 + 51
    c = normalize([1, p], p - 1, p * q)
    assert next(enumerate_raw(c)) == (p - 1, 0)
    code = main(["solve", f"--coeffs=1,{p}", f"--rhs={p - 1}", f"--mod={p * q}",
                 "--limit", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[-2:] == [f"{p - 1} 0", "# truncated"]


def test_basis_at_high_arity_needs_no_recursion():
    n = 1500
    c = normalize([6] * (n - 1) + [4], 2, 36)
    rows = list(itertools.islice(iter_basis(c), 3))
    assert len(rows) == 3
    assert rows == sorted(rows)
    assert all(satisfies(x, c) for x in rows)
    assert all(xi < g for x in rows for xi, g in zip(x, module_generators(c)))


@pytest.mark.parametrize("coeffs,rhs,m", [
    ([2, -6], 2, 12),
    ([1, 1, 1], 0, 1000),
    ([3, 5, 7, 11], 1, 210),
    ([6, 10, 15, 4, 9], 5, 360),
    ([2, 2], 0, 10**12),
    ([1, 1000], 999, 10**6),  # a search would try 999 dead prefixes first
])
def test_basis_rows_cost_at_most_n_unary_solves_each(monkeypatch, capsys, coeffs, rhs, m):
    # tighter than the name: no solve_unary call at all, and one modular
    # inverse per level when a walk starts, however many rows it yields
    calls = {"solve_unary": 0, "inverse": 0}
    solve = intmath.solve_unary

    def counted_solve(*args):
        calls["solve_unary"] += 1
        return solve(*args)

    def counted_pow(*args):
        calls["inverse"] += 1
        return pow(*args)

    monkeypatch.setattr(intmath, "solve_unary", counted_solve)
    monkeypatch.setattr(core, "pow", counted_pow, raising=False)
    c = normalize(coeffs, rhs, m)
    for k in (1, 2, 5, 40):
        calls.update(solve_unary=0, inverse=0)
        rows = list(itertools.islice(iter_basis(c), k))
        assert len(rows) == min(k, summarize(c).basis_size)
        assert calls == {"solve_unary": 0, "inverse": c.arity}
    # counts alone start no walk, for solve and for enumerate in both formats
    instance = ["--coeffs=" + ",".join(map(str, coeffs)), f"--rhs={rhs}", f"--mod={m}", "--limit=0"]
    for command, fmt in [("solve", "text"), ("enumerate", "text"), ("enumerate", "json")]:
        calls.update(solve_unary=0, inverse=0)
        assert main([command, *instance, "--format", fmt]) == 0
        assert calls == {"solve_unary": 0, "inverse": 0}, (command, fmt)
    capsys.readouterr()


def _smooth(e2, e3, e5):
    return 2**e2 * 3**e3 * 5**e5


# moduli and coefficients up to about 10**30; smooth values share factors
SMOOTH = builds(_smooth, integers(0, 40), integers(0, 18), integers(0, 12))


@composite
def level_cases(draw):
    n = draw(integers(min_value=1, max_value=6))
    m = draw(one_of(just(1), integers(min_value=1, max_value=10**30), SMOOTH))
    coeffs = draw(lists(one_of(just(0), integers(min_value=-10**30, max_value=10**30), SMOOTH),
                        min_size=n, max_size=n))
    multiples = draw(lists(integers(min_value=0, max_value=10**30), min_size=n, max_size=n))
    return normalize(coeffs, 0, m), multiples


@settings(max_examples=300)
@given(level_cases())
def test_level_constants_agree_with_unary_solves(case):
    # for every residual r the walk can meet at level i (a multiple of h_i),
    # the constants give the least solution of a_i*x = r (mod h_{i+1}) and
    # the step between solutions, as an egcd-based solve does
    c, multiples = case
    h = (*summarize(c).suffix_gcds, c.modulus)
    u, steps = _level_constants(c)
    for i, (a, t) in enumerate(zip(c.coeffs, multiples)):
        r = h[i] * t
        sol = intmath.solve_unary(a, r, h[i + 1])
        assert (u[i] * (r // h[i]) % steps[i], steps[i]) == (sol.x0, sol.step)


# moduli and coefficients up to about 10**60
HUGE_SMOOTH = builds(_smooth, integers(0, 80), integers(0, 36), integers(0, 25))


@composite
def walk_cases(draw, huge=False):
    # arity 1-6, zero coefficients and m = 1 included; small moduli keep the
    # whole basis walkable, huge ones (to 10**60) are compared by their heads
    n = draw(integers(min_value=1, max_value=6))
    bound = 10**60 if huge else {1: 60, 2: 60, 3: 30, 4: 14, 5: 9, 6: 7}[n]
    m = draw(one_of(just(1), integers(min_value=1, max_value=bound),
                    *([HUGE_SMOOTH] if huge else [])))
    values = one_of(just(0), integers(min_value=-m, max_value=m), *([HUGE_SMOOTH] if huge else []))
    coeffs = draw(lists(values, min_size=n, max_size=n))
    return normalize(coeffs, draw(values), m)


@settings(max_examples=300, deadline=None)
@given(walk_cases())
def test_basis_runs_are_the_rows_of_the_row_walk(c):
    # one C-level run per prefix of the first n - 2 unknowns, against the
    # reference row walker bounded by the strides
    assert list(iter_basis(c)) == list(lex_rows(c, c.summary.strides))


@settings(max_examples=300, deadline=None)
@given(walk_cases(huge=True))
def test_basis_runs_head_the_row_walk_at_60_digit_moduli(c):
    assert list(itertools.islice(iter_basis(c), 50)) \
        == list(itertools.islice(lex_rows(c, c.summary.strides), 50))


@settings(max_examples=300, deadline=None)
@given(walk_cases())
def test_enumerate_raw_is_the_row_walk_bounded_by_m(c):
    # the basis walk with every bound m: where gcd(a_n, m) > 1 each value of
    # x_{n-1} has a run of gcd(a_n, m) values of x_n, zipped one run at a time
    assert list(enumerate_raw(c)) == list(lex_rows(c, (c.modulus,) * c.arity))


@settings(max_examples=300, deadline=None)
@given(walk_cases(huge=True))
def test_enumerate_raw_heads_the_row_walk_at_60_digit_moduli(c):
    assert list(itertools.islice(enumerate_raw(c), 50)) \
        == list(itertools.islice(lex_rows(c, (c.modulus,) * c.arity), 50))


def test_enumerate_raw_runs_of_10_to_the_30_values_stream_at_once():
    # 1x + 0y mod 10**30: x_2 has a run of 10**30 values under x_1 = 0, past
    # what a counted itertools.repeat can take
    assert list(itertools.islice(enumerate_raw(normalize([1, 0], 0, 10**30)), 2)) \
        == [(0, 0), (0, 1)]


@settings(max_examples=100, deadline=None)
@given(walk_cases())
def test_basis_runs_expand_to_the_oracle_set(c):
    if c.modulus ** c.arity > 20000:
        return
    found = brute_force(c)
    rows = list(enumerate_all(iter_basis(c), c))
    assert len(rows) == len(found) and set(rows) == found
    strides = c.summary.strides
    assert list(iter_basis(c)) == sorted(x for x in found
                                         if all(xi < g for xi, g in zip(x, strides)))


def test_a_basis_run_of_10_to_the_30_rows_streams_at_once():
    # x + y mod 10**30 is one prefix, the empty one, whose run has 10**30 rows
    m = 10**30
    rows = itertools.islice(iter_basis(normalize([1, 1], 0, m)), 3)
    assert list(rows) == [(0, 0), (1, m - 1), (2, m - 2)]


BIG = 10**2000
# smooth values up to about 10**1800
BIG_SMOOTH = builds(_smooth, integers(0, 3000), integers(0, 1000), integers(0, 600))


@composite
def big_raw_instances(draw):
    """Raw (coeffs, b, m) with |m| up to about 10**2000 and arity 1-12.

    Smooth moduli and coefficients make gcd(a_i, m) and d range from 1 to
    hundreds of digits instead of being almost always 1; the modulus may be
    negative or zero, as raw input may be.
    """
    n = draw(integers(min_value=1, max_value=12))
    m = draw(one_of(integers(min_value=-BIG, max_value=BIG), BIG_SMOOTH))
    values = one_of(integers(min_value=-2 * BIG, max_value=2 * BIG),
                    BIG_SMOOTH, just(0))
    coeffs = draw(lists(values, min_size=n, max_size=n))
    return coeffs, draw(values), m


def _in_lex_order_and_reduced(rows, bounds, c):
    assert all(x < y for x, y in zip(rows, rows[1:]))
    for x in rows:
        assert satisfies(x, c)
        assert all(0 <= v < g for v, g in zip(x, bounds))


@settings(max_examples=30, deadline=None)
@given(big_raw_instances())
def test_big_instances_are_exact_and_walk_in_order(raw):
    coeffs, b, m = raw
    if m == 0:
        with pytest.raises(ValueError, match="nonzero"):
            normalize(coeffs, b, m)
        return
    c = normalize(coeffs, b, m)
    check_record_folds(c)
    s = summarize(c)
    x0 = find_particular(c)
    assert (x0 is not None) == s.solvable
    if x0 is not None:
        assert satisfies(x0, c)
        assert all(0 <= v < c.modulus for v in x0)
    assert x0 == next(enumerate_raw(c), None)
    basis = list(itertools.islice(iter_basis(c), 5))
    raw_rows = list(itertools.islice(enumerate_raw(c), 5))
    _in_lex_order_and_reduced(basis, s.strides, c)
    _in_lex_order_and_reduced(raw_rows, (c.modulus,) * c.arity, c)
    assert len(basis) == (min(5, s.basis_size) if s.solvable else 0)
    assert len(raw_rows) == (min(5, s.solution_count) if s.solvable else 0)
    # the least solution is the least member of its class, so reduced
    assert basis[:1] == raw_rows[:1]


@composite
def fibonacci_instances(draw):
    """One- and two-unknown instances built on consecutive Fibonacci numbers
    (F_k, F_{k+1}) of 2 to 2,000 digits, the inputs on which Euclid's
    algorithm takes the most steps for their size."""
    f0, f1 = fibonacci_pair(draw(integers(min_value=2, max_value=2000)))
    coeffs, m = draw(one_of(
        just(([f0], f1)), just(([f1], f0)), just(([-f0], f1)),
        just(([f0, f1], f0 * f1)), just(([f1, -f0], f0 * f1)),
        just(([f0, f0 * f1], f1 * f1)), just(([f1, f0], f1))))
    b = draw(integers(min_value=-m, max_value=m))
    multiples = draw(lists(integers(min_value=0, max_value=f1), min_size=2, max_size=2))
    return normalize(coeffs, b, m), multiples


@settings(max_examples=40, deadline=None)
@given(fibonacci_instances())
def test_fibonacci_instances_are_exact_and_walk_in_order(case):
    c, multiples = case
    s = summarize(c)
    x0 = find_particular(c)
    assert (x0 is not None) == s.solvable
    if x0 is not None:
        assert satisfies(x0, c)
        assert all(0 <= v < c.modulus for v in x0)
    assert x0 == next(enumerate_raw(c), None)
    # the level constants (one pow(x, -1, step) each) give the egcd-based
    # solution of every residual the walk can meet
    h = (*s.suffix_gcds, c.modulus)
    u, steps = _level_constants(c)
    for i, (a, t) in enumerate(zip(c.coeffs, multiples)):
        r = h[i] * t
        sol = intmath.solve_unary(a, r, h[i + 1])
        assert (u[i] * (r // h[i]) % steps[i], steps[i]) == (sol.x0, sol.step)
    basis = list(itertools.islice(iter_basis(c), 5))
    _in_lex_order_and_reduced(basis, s.strides, c)
    assert len(basis) == (min(5, s.basis_size) if s.solvable else 0)
