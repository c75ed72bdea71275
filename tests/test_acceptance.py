"""End-to-end acceptance checks, one test per criterion.

Run with -s to see the per-criterion report lines; each criterion also
stands alone as a test, so plain pytest output gives the same verdicts.
"""

import itertools
import random
import time
import timeit
from contextlib import contextmanager

from lincong import (
    are_dependent,
    build_basis,
    enumerate_all,
    enumerate_raw,
    expand,
    find_particular,
    format_congruence,
    module_generators,
    normalize,
    parse,
    summarize,
)
from lincong.intmath import basis_size
from lincong.oracle import brute_force

from helpers import greedy_basis, random_instances, random_parsed

SEED = 1729

REF = normalize([2, -6], 2, 12)

# The 24 distinct solutions of 2x - 6y = 2 (mod 12), as two expansion lists.
REF_SOLUTIONS = frozenset([
    (1, 0), (1, 2), (1, 4), (1, 6), (1, 8), (1, 10),
    (7, 0), (7, 2), (7, 4), (7, 6), (7, 8), (7, 10),
    (4, 1), (4, 3), (4, 5), (4, 7), (4, 9), (4, 11),
    (10, 1), (10, 3), (10, 5), (10, 7), (10, 9), (10, 11),
])

INSTANCES = random_instances(SEED, 200)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {desc}")
        raise
    print(f"criterion {num}: PASS - {desc}")


def test_criterion_1_reference_counts():
    with criterion(1, "reference instance counts (d, p1, p2, s)"):
        s = summarize(REF)
        assert (s.gcd_all, s.solution_count, s.expansion_count, s.basis_size) \
            == (2, 24, 12, 2)
        assert s.solvable
        best = min(timeit.repeat(lambda: summarize(REF), number=1, repeat=20))
        assert best < 1e-3


def test_criterion_2_reference_solution_set():
    with criterion(2, "reference instance full solution set (24 pairs)"):
        def full_set():
            return set(enumerate_all(build_basis(REF), REF))
        assert full_set() == REF_SOLUTIONS
        best = min(timeit.repeat(full_set, number=1, repeat=10))
        assert best < 1e-2


def test_criterion_3_reference_dependence_checks():
    with criterion(3, "reference dependence verdicts"):
        lattice = module_generators(REF)
        assert are_dependent((7, 4), (1, 0), lattice)
        assert not are_dependent((4, 1), (0, 1), lattice)


def test_criterion_4_expansion_on_random_instances():
    with criterion(4, "expansion of a particular solution on 200 instances"):
        start = time.perf_counter()
        for c in INSTANCES:
            s = summarize(c)
            seed = find_particular(c)
            assert seed is not None
            grown = list(expand(seed, c))
            assert len(grown) == s.expansion_count
            assert len(set(grown)) == s.expansion_count
            m = c.modulus
            for x in grown:
                assert sum(a * xi for a, xi in zip(c.coeffs, x)) % m == c.rhs
        assert time.perf_counter() - start < 10


def test_criterion_5_oracle_equivalence():
    with criterion(5, "brute-force oracle agreement on 200 instances"):
        start = time.perf_counter()
        for c in INSTANCES:
            s = summarize(c)
            found = brute_force(c, cap=10**7)
            assert len(found) == (s.solution_count if s.solvable else 0)
            regenerated = set(enumerate_all(build_basis(c), c))
            assert regenerated == found
        assert time.perf_counter() - start < 60


def test_criterion_6_count_quotient_is_always_integral():
    with criterion(6, "basis-size quotient exact on 1000 random inputs"):
        rng = random.Random(SEED + 6)
        start = time.perf_counter()
        for _ in range(1000):
            n = rng.choice((1, 2, 3))
            coeffs = [rng.randint(-50, 50) for _ in range(n)]
            m = 0
            while m == 0:
                m = rng.randint(-50, 50)
            assert basis_size(coeffs, m) >= 1
        assert time.perf_counter() - start < 1


def test_criterion_7_dependence_relation_properties():
    with criterion(7, "dependence relation properties and witness"):
        start = time.perf_counter()
        for c in INSTANCES:
            lattice = module_generators(c)
            sols = list(itertools.islice(enumerate_raw(c), 6))
            for x in sols:
                assert are_dependent(x, x, lattice)
            for x, y in itertools.combinations(sols, 2):
                assert are_dependent(x, y, lattice) \
                    == are_dependent(y, x, lattice)
                shifted = list(itertools.islice(expand(y, c), 3))[-1]
                assert are_dependent(y, shifted, lattice)
                if are_dependent(x, y, lattice):
                    assert are_dependent(x, shifted, lattice)
                else:
                    assert not are_dependent(x, shifted, lattice)
        # independence is not transitive: a concrete witness
        lattice = module_generators(REF)
        x1, x2, x3 = (1, 0), (4, 1), (7, 4)
        assert not are_dependent(x1, x2, lattice)
        assert not are_dependent(x2, x3, lattice)
        assert are_dependent(x1, x3, lattice)
        assert time.perf_counter() - start < 5


def test_criterion_8_basis_size_is_ordering_independent():
    with criterion(8, "basis cardinality stable across candidate orderings"):
        for c in INSTANCES:
            s = summarize(c)
            forward = build_basis(c)
            backward = greedy_basis(c, list(enumerate_raw(c))[::-1])
            assert len(forward) == s.basis_size
            assert len(backward) == s.basis_size
            backward_basis = tuple(backward)
            assert set(enumerate_all(backward_basis, c)) == set(enumerate_raw(c))


def test_criterion_9_parser_round_trip():
    with criterion(9, "parser round-trip and reference expression"):
        rng = random.Random(SEED + 9)
        for _ in range(50):
            p = random_parsed(rng)
            assert parse(format_congruence(p)) == p
        p = parse("2x - 6y ≡ 2 (mod 12)")
        assert normalize(p.raw_coeffs, p.rhs, p.modulus) == REF
