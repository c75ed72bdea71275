"""Exhaustive ground-truth solver, for differential testing of the fast paths.

brute_force tabulates every tuple in [0, m)**n.  For one unknown it scans
range(m) lazily, in constant memory.  For n >= 2 it meets in the middle
(Horowitz and Sahni, J. ACM 21(2), 1974): it splits the unknowns into the
first k = n//2 and the last n-k, and tabulates each half by residue, so that
r maps to the half-tuples whose dot product with that half's coefficients is
r mod m.  A left class r completes only the right class (b - r) mod m, and
each such pair of classes is joined into solutions by one C-level set update.
The left table is built first, and the right table's last level, which adds
the right half's first unknown, builds only the classes that complete a
non-empty left class.  The work is at most O(m**(n//2) + m**(n - n//2) + p1)
tuples, not O(m**n), and each coefficient is multiplied m times, once per
value of its unknown.  Besides the solutions the scan holds the two tables,
at most m**(n//2) + m**(n - n//2) tuples (at most m**(n-1) + m, and
m**(n-1) <= p1 whenever a solution exists), and drops each right class once
it is joined.  It uses no solver maths (no gcd, no inverse) and computes with
nothing from core beyond the LinearCongruence type (core's _decimal only
writes the numbers of its refusal); that independence is the point.  verify
compares its set with the counting and basis machinery of core: it counts
the set, then strikes the regenerated rows off it in one pass, so the scan is
the only set it holds.
"""

from __future__ import annotations

from itertools import islice, product, starmap
from operator import add

from .core import LinearCongruence, _decimal, _Record, _rows, iter_basis, summarize

__all__ = ["DEFAULT_CAP", "CapExceededError", "OracleReport", "brute_force", "verify"]

DEFAULT_CAP = 10**7


class CapExceededError(ValueError):
    """The m**n search space is too large for an exhaustive scan."""


class OracleReport(_Record):
    """What verify found: the scan's solution count and whether core agrees with it."""

    __match_args__ = ("solution_count", "agrees_with_summary", "agrees_with_basis")

    def __init__(self, solution_count: int, agrees_with_summary: bool, agrees_with_basis: bool):
        vars(self).update(solution_count=solution_count, agrees_with_summary=agrees_with_summary,
                          agrees_with_basis=agrees_with_basis)


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
    if n == 1:
        a = c.coeffs[0]
        return {(x,) for x in range(m) if (a * x - b) % m == 0}
    k = n // 2
    left = _residue_table(c.coeffs[:k], m)
    # a one-unknown table scans all m values whatever classes are wanted
    wanted = {(b - r) % m for r, prefixes in left.items() if prefixes} if n - k > 1 else None
    right = _residue_table(c.coeffs[k:], m, wanted)
    found = set()
    # distinct left residues complete distinct right classes, so each right
    # class is joined at most once and is popped to free it as found grows
    for r, prefixes in left.items():
        found.update(starmap(add, product(prefixes, right.pop((b - r) % m, ()))))
    return found


def _residue_table(coeffs: tuple[int, ...], m: int,
                   wanted: set[int] | None = None) -> dict[int, list[tuple[int, ...]]]:
    """Residue r -> the tuples y in [0, m)**len(coeffs) with coeffs . y ≡ r (mod m).

    Built one coordinate at a time from the last: class s of the grown table
    puts each value of the next coordinate, of residue t, in front of every
    tuple of class s - t of the table so far.  With two or more coefficients
    and a set of wanted residues, the last level, which adds the first
    coordinate, builds only the wanted classes: any class of an earlier level
    may feed one of them.  One coefficient's table holds every residue its
    m values reach.
    """
    *rest, last = coeffs
    table = _by_residue(last, m)
    for level, a in enumerate(reversed(rest), 1):
        column = _by_residue(a, m).items()
        table = {s: [head + tail for t, heads in column
                     for tail in table.get((s - t) % m, ()) for head in heads]
                 for s in (range(m) if wanted is None or level < len(rest) else wanted)}
    return table


def _by_residue(a: int, m: int) -> dict[int, list[tuple[int]]]:
    """Residue r -> the 1-tuples (x,), x in [0, m), with a*x ≡ r (mod m)."""
    column: dict[int, list[tuple[int]]] = {}
    for x in range(m):
        column.setdefault(a * x % m, []).append((x,))
    return column


def verify(c: LinearCongruence, cap: int = DEFAULT_CAP) -> OracleReport:
    """Compare the brute-force set against the counting and basis machinery.

    The scan is counted first.  The basis agrees when its expansion
    regenerates every scanned solution exactly once.  The first `count`
    regenerated rows are struck off the scan's own set in one C-level pass,
    so no second set of p1 tuples, nor a copy of the scan, is built: they
    empty it only if they are exactly its solutions, each once, and then no
    row may follow.  A row the scan lacks, a row regenerated twice
    (overlapping expansions) or a scanned row left over is a disagreement.
    So the seeds iter_basis streams are expanded as they come, never held
    whole, without enumerate_all's check.
    """
    found = brute_force(c, cap)
    count = len(found)
    s = summarize(c)
    expected = s.solution_count if s.solvable else 0
    rows = _rows(iter_basis(c), c)
    found.difference_update(islice(rows, count))
    agrees_with_basis = not found and next(rows, None) is None
    return OracleReport(
        solution_count=count,
        agrees_with_summary=count == expected,
        agrees_with_basis=agrees_with_basis,
    )
