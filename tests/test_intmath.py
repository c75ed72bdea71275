"""Integer primitives: extended gcd, Bezout folding, one-unknown solves."""

import math

import pytest
from hypothesis import given
from hypothesis.strategies import integers, lists

from lincong.intmath import (
    _egcd,
    basis_size,
    extended_gcd,
    multi_gcd_bezout,
    solve_unary,
)

from helpers import fibonacci_pair, recursive_egcd

small = integers(min_value=-10**6, max_value=10**6)


def residues(sol):
    return tuple(range(sol.x0, sol.step * sol.count, sol.step))


def test_extended_gcd_known_values():
    cert = extended_gcd(2, 12)
    assert cert.gcd == 2
    assert cert.coefficients == (1, 0)
    cert = extended_gcd(6, 9)
    assert cert.gcd == 3
    assert cert.coefficients == (-1, 1)


def test_extended_gcd_zero_edge_cases():
    assert extended_gcd(0, 0).gcd == 0
    assert extended_gcd(0, 0).coefficients == (0, 0)
    assert extended_gcd(0, 7).coefficients == (0, 1)
    assert extended_gcd(-4, 0).gcd == 4


@given(small, small)
def test_extended_gcd_identity(a, b):
    cert = extended_gcd(a, b)
    u, v = cert.coefficients
    assert cert.gcd == math.gcd(a, b)
    assert u * a + v * b == cert.gcd


@given(integers(), integers())
def test_egcd_keeps_the_recursive_coefficients(a, b):
    assert _egcd(a, b) == recursive_egcd(a, b)


def test_egcd_at_euclid_worst_case():
    # consecutive Fibonacci numbers take the most division steps for their
    # size; ~1200 steps here, deeper than the default recursion limit
    f0, f1 = fibonacci_pair(250)
    for a, b in ((f0, f1), (f1, f0), (-f1, f0), (f0, -f1)):
        g, u, v = _egcd(a, b)
        assert g == 1 and u * a + v * b == 1
        assert (g, u, v) == recursive_egcd(a, b)


def test_multi_gcd_bezout_known_values():
    cert = multi_gcd_bezout([2, -6, 12])
    assert cert.gcd == 2
    assert cert.coefficients == (1, 0, 0)
    cert = multi_gcd_bezout([0, 0, 5])
    assert cert.gcd == 5
    assert cert.coefficients == (0, 0, 1)
    cert = multi_gcd_bezout([4, 6, 8])
    assert cert.gcd == 2
    assert cert.coefficients == (-1, 1, 0)


def test_multi_gcd_bezout_rejects_empty():
    with pytest.raises(ValueError):
        multi_gcd_bezout([])


@given(lists(small, min_size=1, max_size=6))
def test_multi_gcd_bezout_identity(values):
    cert = multi_gcd_bezout(values)
    assert cert.gcd == math.gcd(*values)
    assert sum(c * v for c, v in zip(cert.coefficients, values)) == cert.gcd
    assert cert.gcd == 0 or all(v % cert.gcd == 0 for v in values)


def test_gcd_reexport():
    from lincong.intmath import gcd
    assert gcd(6, 12) == 6
    assert gcd(0, 7) == 7
    assert gcd(-6, 12) == 6


def test_solve_unary_known_case():
    sol = solve_unary(3, 6, 9)
    assert (sol.x0, sol.step, sol.count) == (2, 3, 3)
    assert residues(sol) == (2, 5, 8)


def test_solve_unary_unit_coefficient():
    sol = solve_unary(1, 13, 5)
    assert (sol.x0, sol.step, sol.count) == (3, 5, 1)


def test_solve_unary_unsolvable():
    assert solve_unary(2, 1, 4) is None
    assert solve_unary(0, 3, 9) is None


def test_solve_unary_zero_coefficient():
    sol = solve_unary(0, 0, 5)
    assert sol.count == 5
    assert residues(sol) == (0, 1, 2, 3, 4)


def test_solve_unary_rejects_nonpositive_modulus():
    with pytest.raises(ValueError):
        solve_unary(1, 1, 0)
    with pytest.raises(ValueError):
        solve_unary(1, 1, -3)


@given(integers(min_value=-50, max_value=50),
       integers(min_value=-50, max_value=50),
       integers(min_value=1, max_value=40))
def test_solve_unary_matches_scan(a, b, m):
    expected = tuple(x for x in range(m) if (a * x - b) % m == 0)
    sol = solve_unary(a, b, m)
    if sol is None:
        assert expected == ()
    else:
        assert residues(sol) == expected
        assert 0 <= sol.x0 < sol.step


def test_basis_size_known_values():
    assert basis_size([2, -6], 12) == 2
    assert basis_size([4, 6], 8) == 2
    assert basis_size([1], 7) == 1
    assert basis_size([0, 0], 3) == 1


def test_basis_size_rejects_bad_input():
    with pytest.raises(ValueError):
        basis_size([1, 2], 0)
    with pytest.raises(ValueError):
        basis_size([], 5)


@given(lists(integers(min_value=-50, max_value=50), min_size=1, max_size=4),
       integers(min_value=-50, max_value=50).filter(lambda m: m != 0))
def test_basis_size_always_exact_and_positive(coeffs, m):
    assert basis_size(coeffs, m) >= 1
