"""Brute-force oracle and differential verification."""

import random
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis.strategies import composite, integers, lists

import lincong.core
import lincong.oracle
from lincong.core import LinearCongruence, iter_basis, normalize, summarize
from lincong.oracle import CapExceededError, _residue_table, brute_force, verify

from helpers import random_instances, reference_brute_force

REF = normalize([2, -6], 2, 12)


def test_brute_force_reference_count():
    found = brute_force(REF)
    assert len(found) == 24
    assert (7, 4) in found
    assert (1, 1) not in found


def test_brute_force_small_case():
    assert brute_force(normalize([1, 1], 0, 3)) == {(0, 0), (1, 2), (2, 1)}


def test_brute_force_unsolvable():
    assert brute_force(normalize([2], 1, 4)) == set()


def test_brute_force_cap():
    with pytest.raises(CapExceededError) as err:
        brute_force(normalize([1], 1, 10), cap=5)
    assert "10" in str(err.value)
    assert "5" in str(err.value)
    with pytest.raises(CapExceededError):
        brute_force(normalize([1, 1, 1], 0, 500))  # 500**3 over default cap
    # the cap is exact at moduli around powers of two, where the bit-length
    # test is tight
    for m in (1, 2, 3, 4, 7, 8, 9, 15, 16, 17):
        for n in (1, 2, 3):
            c = normalize([1] * n, 0, m)
            assert len(brute_force(c, cap=m**n)) == m ** (n - 1)
            with pytest.raises(CapExceededError):
                brute_force(c, cap=m**n - 1)


def test_brute_force_refuses_without_building_the_space():
    # m**n here has 300,001 digits, and rendering it takes time quadratic in
    # them before Python 3.12; the refusal names m and n instead.  Computing
    # the power alone peaks at about 540 KB under tracemalloc.
    c = normalize([1] * 3000, 0, 10**100)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="exceeds the cap") as err:
            brute_force(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.5
    assert peak < 32 * 1024
    assert str(err.value) == (f"search space m**n = {10**100}**3000 "
                              "exceeds the cap of 10000000 tuples")
    # a modulus past Python's int-to-str digit limit still gets the refusal
    with pytest.raises(CapExceededError, match="exceeds the cap"):
        brute_force(normalize([1, 1], 0, 10**5000))


@composite
def scan_instances(draw):
    # arity 1-7 with m**n <= 4096; solvable or not, zero coefficients included
    n = draw(integers(min_value=1, max_value=7))
    m = draw(integers(min_value=1, max_value=(4096, 64, 16, 8, 5, 4, 3)[n - 1]))
    coeffs = draw(lists(integers(min_value=-2 * m, max_value=2 * m),
                        min_size=n, max_size=n))
    return normalize(coeffs, draw(integers(min_value=-2 * m, max_value=2 * m)), m)


@settings(max_examples=200)
@given(scan_instances())
@example(normalize([5, 3, 2], 0, 1))           # m = 1: the one tuple (0, 0, 0)
@example(normalize([1, 2, 3, 4, 5, 6, 7], 0, 1))  # m = 1 at arity 7
@example(normalize([0, 0], 0, 4))              # every tuple solves
@example(normalize([0, 3, 0, 0, 1], 2, 5))     # zero coefficients among others
@example(normalize([0, 0, 3, 5], 4, 8))        # an all-zero left half
@example(normalize([1, 4], 2, 8))              # only left residues 2 and 6 meet a right one
@example(normalize([2, 3, 5], 1, 7))           # odd split 1 + 2
@example(normalize([1, 2, 0, 3, 4], 3, 5))     # odd split 2 + 3
@example(normalize([2, 4], 1, 6))              # unsolvable, d = 2
@example(normalize([2, 4, 6, 2, 4, 6], 1, 4))  # unsolvable, d = 2, split 3 + 3
@example(normalize([0], 1, 7))                 # unsolvable, every coefficient zero
@example(normalize([0, 0, 0, 0, 0], 0, 5))     # arity 5 at the largest m
@example(normalize([1, 1, 1, 1, 1, 1, 1], 0, 3))  # arity 7 at the largest m
@example(normalize([2, 1, 1], 1, 4))           # left residues {0, 2}, b outside them
@example(normalize([3, 3, 3, 1, 2, 5], 1, 6))  # left residues {0, 3}, a 3-unknown right half
@example(normalize([12, 16, 18], 2, 24))       # verify's n3-m24 shape
@example(normalize([5, 5, 8, 6], 3, 10))       # verify's n4-m10 shape
def test_brute_force_matches_reference_scan(c):
    assert brute_force(c) == reference_brute_force(c)


@given(lists(integers(min_value=-30, max_value=30), min_size=1, max_size=4),
       integers(min_value=1, max_value=12), lists(integers(min_value=0, max_value=11)))
def test_a_residue_table_builds_only_the_wanted_classes(coeffs, m, wanted):
    # the wanted residues are drawn at random, so some are classes no tuple
    # reaches; each wanted class holds the unrestricted table's tuples, and
    # with two or more coefficients no other class is built
    coeffs, wanted = tuple(a % m for a in coeffs), {r % m for r in wanted}
    full = _residue_table(coeffs, m)
    table = _residue_table(coeffs, m, wanted)
    for r in wanted:
        assert Counter(table.get(r, ())) == Counter(full.get(r, ())), r
    if len(coeffs) > 1:
        assert table.keys() == wanted


def test_brute_force_scans_one_unknown_in_constant_memory():
    # pooling range(m) as product(range(m), repeat=1) does would hold a
    # 10**5-element tuple of ints, about 4 MB
    tracemalloc.start()
    try:
        found = brute_force(normalize([7], 5, 10**5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == {(85_715,)}
    assert peak < 1_000_000


class CountingInt(int):
    """An int that counts the multiplications it takes part in."""

    def __new__(cls, value):
        self = super().__new__(cls, value)
        self.products = 0
        return self

    def __mul__(self, other):
        self.products += 1
        return int(self) * other

    __rmul__ = __mul__


@pytest.mark.parametrize("n, m", [(2, 60), (3, 15), (4, 7)])
def test_brute_force_multiplies_the_last_coefficient_once_per_value(n, m):
    # each value of the last coordinate is visited once per call, not once
    # per prefix: m products, where a scan of every tuple makes m**n
    last = CountingInt(5)
    c = LinearCongruence((1,) * (n - 1) + (last,), 3, m)
    found = brute_force(c)
    assert last.products <= m
    assert found == reference_brute_force(c)


@pytest.mark.parametrize("n, m", [(2, 60), (3, 15), (4, 7), (5, 5), (6, 4)])
def test_brute_force_multiplies_each_coefficient_once_per_value(n, m):
    # each half's residue table takes a_i*x once for each of the m values of
    # coordinate i; a scan that walks prefixes takes it once per prefix
    coeffs = [CountingInt(a % m) for a in (5, 2, 7, 3, 1, 6)[:n]]
    c = LinearCongruence(tuple(coeffs), 3, m)
    found = brute_force(c)
    assert all(a.products <= m for a in coeffs)
    assert found == reference_brute_force(c)


def test_brute_force_tables_stay_within_the_result():
    # one unknown on the left and two on the right, the most uneven split: the
    # right table holds m**2 = p1 pairs while the result holds p1 triples, and
    # each right class is dropped once joined
    tracemalloc.start()
    try:
        found = brute_force(normalize([1, 1, 1], 0, 100))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(found) == 10_000
    assert peak < 1.5 * kept


@pytest.mark.parametrize("c", [
    normalize([3, 5, 0], 2, 9),     # last coefficient 0: one residue class
    normalize([0, 4, 0], 0, 8),     # ... after a zero lead coefficient
    normalize([4, 6, 7], 3, 12),    # gcd(a_n, m) = 1: one last value a residue
    normalize([10, 1], 7, 30),
    normalize([6, 9, 3], 2, 12),    # unsolvable, d = 3
    normalize([4, 2, 6, 8], 1, 10), # unsolvable, d = 2
])
def test_brute_force_table_cases_match_reference_scan(c):
    assert brute_force(c) == reference_brute_force(c)


def test_verify_reference():
    report = verify(REF)
    found = brute_force(REF)
    assert report.solution_count == 24
    assert report.solution_count == len(found)
    assert report.agrees_with_summary
    assert report.agrees_with_basis
    assert (10, 11) in found


def test_verify_unsolvable_instance():
    report = verify(normalize([2], 1, 4))
    assert report.solution_count == 0
    assert report.agrees_with_summary
    assert report.agrees_with_basis


def test_verify_random_instances():
    for c in random_instances(seed=99, count=40):
        report = verify(c)
        assert report.agrees_with_summary, c
        assert report.agrees_with_basis, c
        assert report.solution_count == summarize(c).solution_count


def test_verify_holds_one_copy_of_the_scan():
    # the scan's set is checked against the basis by striking the regenerated
    # rows off it in one pass, not by building a copy of the scan, a second
    # set of regenerated tuples or a tuple of the basis: every tuple of [0, 400)**2 solves (p1 = 160,000, s = 1), and at
    # x + y + z = 0 mod 100 each of the 10,000 solutions is its own seed.
    # Each call runs once untraced first, so both are measured warm: the
    # tuples a scan frees are reused by the next without a traced allocation
    def peak(f, c):
        f(c)
        tracemalloc.start()
        try:
            result = f(c)
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    for c, count in ((normalize([0, 0], 0, 400), 160_000),
                     (normalize([1, 1, 1], 0, 100), 10_000)):
        verify_peak, report = peak(verify, c)
        assert report.solution_count == count
        assert report.agrees_with_summary and report.agrees_with_basis
        scan_peak, found = peak(brute_force, c)
        del found
        assert verify_peak <= 1.15 * scan_peak, c


def test_verify_does_not_check_the_seeds_it_constructed(monkeypatch):
    # iter_basis constructs solutions; striking each row off the scan's set
    # already fails on a seed that is not one, so no seed is checked twice
    calls = []

    def checked_seed(x, c):
        calls.append(x)
        return original(x, c)

    original = lincong.core._checked_seed
    monkeypatch.setattr(lincong.core, "_checked_seed", checked_seed)
    report = verify(normalize([1, 2, 3], 0, 12))
    assert report.agrees_with_summary and report.agrees_with_basis
    assert calls == []


def test_verify_rejects_a_seed_that_is_no_solution(monkeypatch):
    def wrong_seed(c):
        first, *rest = iter_basis(c)
        return iter([tuple((x + 1) % c.modulus for x in first), *rest])

    monkeypatch.setattr(lincong.oracle, "iter_basis", wrong_seed)
    report = verify(REF)
    assert report.agrees_with_summary
    assert not report.agrees_with_basis


def test_verify_rejects_overlapping_expansions(monkeypatch):
    # a basis that lists one seed twice regenerates the same set with a
    # duplicate row, so its expansions are not the disjoint cover the count
    # p1 = s * p2 rests on
    def repeated_seed(c):
        seeds = list(iter_basis(c))
        return iter(seeds + seeds[:1])

    monkeypatch.setattr(lincong.oracle, "iter_basis", repeated_seed)
    report = verify(REF)
    assert report.agrees_with_summary
    assert not report.agrees_with_basis


def test_verify_rejects_a_basis_that_misses_rows(monkeypatch):
    def short(c):
        seeds = iter_basis(c)
        next(seeds)
        return seeds

    monkeypatch.setattr(lincong.oracle, "iter_basis", short)
    report = verify(REF)
    assert report.agrees_with_summary
    assert not report.agrees_with_basis


def test_solvability_matches_oracle():
    # unfiltered sample, so both solvable and unsolvable instances occur
    rng = random.Random(5)
    for _ in range(60):
        n = rng.choice((1, 2))
        coeffs = [rng.randint(-12, 12) for _ in range(n)]
        c = normalize(coeffs, rng.randint(-12, 12), rng.randint(1, 12))
        assert summarize(c).solvable == bool(brute_force(c))
