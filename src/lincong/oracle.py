"""Exhaustive ground-truth solver, for differential testing of the fast paths.

brute_force scans every tuple in [0, m)**n: itertools.product walks the first
n-1 coordinates and each prefix scans the last one as a lazy range(m), so
memory stays constant for one unknown and for n >= 2 only range(m) is pooled.
It uses no solver maths and shares nothing with core beyond the
LinearCongruence type; that independence is the point.  verify compares its
set with the counting and basis machinery of core.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import mul

from .core import LinearCongruence, build_basis, enumerate_all, summarize

__all__ = ["DEFAULT_CAP", "CapExceededError", "OracleReport", "brute_force", "verify"]

DEFAULT_CAP = 10**7


class CapExceededError(ValueError):
    """The m**n search space is too large for an exhaustive scan."""


@dataclass(frozen=True)
class OracleReport:
    solution_count: int
    solutions: frozenset[tuple[int, ...]]
    agrees_with_summary: bool
    agrees_with_basis: bool


def brute_force(c: LinearCongruence, cap: int = DEFAULT_CAP) -> set[tuple[int, ...]]:
    """The exact solution set, by scanning all m**n residue tuples."""
    space = c.modulus ** c.arity
    if space > cap:
        raise CapExceededError(
            f"search space m**n = {space} exceeds the cap of {cap} tuples")
    m, b = c.modulus, c.rhs
    *lead, last = c.coeffs
    found = set()
    for prefix in product(range(m), repeat=c.arity - 1):
        r = sum(map(mul, lead, prefix)) - b
        found.update(prefix + (x,) for x in range(m) if (r + last * x) % m == 0)
    return found


def verify(c: LinearCongruence, cap: int = DEFAULT_CAP) -> OracleReport:
    """Compare the brute-force set against the counting and basis machinery."""
    found = brute_force(c, cap)
    s = summarize(c)
    expected = s.solution_count if s.solvable else 0
    basis = build_basis(c)
    regenerated = set(enumerate_all(basis, c)) if basis is not None else set()
    return OracleReport(
        solution_count=len(found),
        solutions=frozenset(found),
        agrees_with_summary=len(found) == expected,
        agrees_with_basis=found == regenerated,
    )
