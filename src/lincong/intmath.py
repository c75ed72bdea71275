"""Exact integer primitives: gcd certificates and one-unknown modular equations.

Everything operates on plain Python ints, so counting quantities that grow
like m**(n-1) stay exact no matter how large they get.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd, prod

from .core import _Record

__all__ = [
    "BezoutCertificate",
    "UnaryCongruenceSolution",
    "gcd",
    "extended_gcd",
    "multi_gcd_bezout",
    "solve_unary",
    "basis_size",
]


class BezoutCertificate(_Record):
    """A gcd together with integer coefficients certifying it.

    For the values v1..vk the certificate was built from,
    sum(c * v for c, v in zip(coefficients, values)) == gcd holds exactly,
    gcd >= 0, and gcd divides every value.
    """

    __match_args__ = ("gcd", "coefficients")

    def __init__(self, gcd: int, coefficients: tuple[int, ...]):
        vars(self).update(gcd=gcd, coefficients=coefficients)


class UnaryCongruenceSolution(_Record):
    """The solutions of a*x = b (mod m): x0, x0+step, ..., x0+step*(count-1).

    x0 is the least nonnegative solution, step = m // gcd(a, m) and
    count = gcd(a, m), so all listed residues lie in [0, m).
    """

    __match_args__ = ("x0", "step", "count")

    def __init__(self, x0: int, step: int, count: int):
        vars(self).update(x0=x0, step=step, count=count)


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    # (g, u, v) with g = gcd(a, b) >= 0 and u*a + v*b = g; the canonical
    # small coefficients of the classic recursion
    #   egcd(a, 0) = (|a|, sign(a), 0),  egcd(a, b) = (g, v, u - (a // b) * v)
    #   where (g, u, v) = egcd(b, a % b),
    # and (0, 0) for a = b = 0.  Run forward as an iteration, it carries the
    # same remainder sequence and so the same coefficients, at any input size.
    if a == 0 and b == 0:
        return 0, 0, 0
    u, v, u1, v1 = 1, 0, 0, 1  # a = u*a0 + v*b0 and b = u1*a0 + v1*b0
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        u, v, u1, v1 = u1, v1, u - q * u1, v - q * v1
    return (a, u, v) if a > 0 else (-a, -u, -v)


def extended_gcd(a: int, b: int) -> BezoutCertificate:
    """Certificate with gcd(a, b) and (u, v) such that u*a + v*b = gcd."""
    g, u, v = _egcd(a, b)
    return BezoutCertificate(g, (u, v))


def multi_gcd_bezout(values: Sequence[int]) -> BezoutCertificate:
    """Gcd of all values plus coefficients, by folding extended_gcd left to right.

    The left fold makes the coefficients deterministic: the same input list
    always yields the same certificate.
    """
    if not values:
        raise ValueError("multi_gcd_bezout needs at least one value")
    first = values[0]
    g = abs(first)
    coeffs = [0 if first == 0 else (1 if first > 0 else -1)]
    for a in values[1:]:
        g, s, t = _egcd(g, a)
        coeffs = [s * u for u in coeffs]
        coeffs.append(t)
    return BezoutCertificate(g, tuple(coeffs))


def solve_unary(a: int, b: int, m: int) -> UnaryCongruenceSolution | None:
    """Solve a*x = b (mod m) for a single unknown.

    Returns None when gcd(a, m) does not divide b (no solution exists);
    otherwise the canonical solution with the smallest nonnegative x0.
    """
    if m < 1:
        raise ValueError("modulus must be a positive integer")
    g, u, _ = _egcd(a, m)
    if b % g:
        return None
    step = m // g
    return UnaryCongruenceSolution(x0=u * (b // g) % step, step=step, count=g)


def basis_size(coeffs: Sequence[int], m: int) -> int:
    """Number of independent seed solutions of a1*x1 + ... + an*xn = b (mod m).

    Computes gcd(a1, ..., an, m) * |m|**(n-1) // prod(gcd(ai, m)).  The
    division is exact for every choice of coefficients and nonzero modulus,
    and the result does not depend on b.  The solver reads s from core's
    SolveSummary record; this separate derivation is what tests check it by.
    """
    if m == 0:
        raise ValueError("modulus must be nonzero")
    if not coeffs:
        raise ValueError("basis_size needs at least one coefficient")
    g = abs(m)
    for a in coeffs:
        g = gcd(g, a)
    numerator = g * abs(m) ** (len(coeffs) - 1)
    denominator = prod(gcd(a, m) for a in coeffs)
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(
            f"inexact division {numerator} / {denominator}; this is a bug"
        )
    return quotient
