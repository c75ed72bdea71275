"""Exhaustive ground-truth solver, for differential testing of the fast paths.

brute_force tabulates every tuple in [0, m)**n.  For one unknown it scans
range(m) lazily, in constant memory.  For n >= 2 it first groups the m values
of the last coordinate by the residue a_n*x contributes, then walks the first
n-1 coordinates with itertools.product and looks up, per prefix, the last
coordinates that complete it: m**(n-1) lookups, m table entries and one tuple
per solution, instead of m**n checks.  It uses no solver maths (no gcd, no
inverse) and shares nothing with core beyond the LinearCongruence type; that
independence is the point.  verify compares its set with the counting and
basis machinery of core, striking each regenerated row off the scan's set.
"""

from __future__ import annotations

from collections import deque
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


def _decimal(x: int) -> str:
    """x in decimal, or by its bit length past Python's int-to-str digit limit."""
    try:
        return str(x)
    except ValueError:
        return f"<{x.bit_length()}-bit integer>"


def brute_force(c: LinearCongruence, cap: int = DEFAULT_CAP) -> set[tuple[int, ...]]:
    """The exact solution set, by tabulating all m**n residue tuples.

    The cap bounds m**n, the size of the space tabulated.  A refusal does not
    build m**n, whose digits grow with n: m >= 2**(bits(m) - 1), so
    n * (bits(m) - 1) >= bits(cap) already puts m**n past the cap, and only
    otherwise, when m**n is at most cap**2, is the exact power computed.
    """
    m, n, b = c.modulus, c.arity, c.rhs
    if n * (m.bit_length() - 1) >= cap.bit_length() or m ** n > cap:
        raise CapExceededError(f"search space m**n = {_decimal(m)}**{n} "
                               f"exceeds the cap of {_decimal(cap)} tuples")
    *lead, last = c.coeffs
    if not lead:
        return {(x,) for x in range(m) if (last * x - b) % m == 0}
    # by_residue[r]: the last coordinates x, as 1-tuples, with a_n*x ≡ r (mod m)
    by_residue: dict[int, list[tuple[int]]] = {}
    for x in range(m):
        by_residue.setdefault(last * x % m, []).append((x,))
    found = set()
    for prefix in product(range(m), repeat=len(lead)):
        for tail in by_residue.get((b - sum(map(mul, lead, prefix))) % m, ()):
            found.add(prefix + tail)
    return found


def verify(c: LinearCongruence, cap: int = DEFAULT_CAP) -> OracleReport:
    """Compare the brute-force set against the counting and basis machinery.

    The basis agrees when its expansion regenerates every scanned solution
    exactly once.  Each regenerated row is removed from the scan's own set, so
    besides the report's frozenset no second set of p1 tuples is built: a row
    the scan lacks, a row regenerated twice (overlapping expansions) or a
    scanned row left over is a disagreement.
    """
    found = brute_force(c, cap)
    solutions = frozenset(found)
    s = summarize(c)
    expected = s.solution_count if s.solvable else 0
    basis = build_basis(c)
    try:
        if basis is not None:
            deque(map(found.remove, enumerate_all(basis, c)), 0)
        agrees_with_basis = not found
    except KeyError:
        agrees_with_basis = False
    return OracleReport(
        solution_count=len(solutions),
        solutions=solutions,
        agrees_with_summary=len(solutions) == expected,
        agrees_with_basis=agrees_with_basis,
    )
