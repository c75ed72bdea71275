"""Multivariate linear congruences a1*x1 + ... + an*xn = b (mod m).

A solution is a vector of n residues in [0, m); two solutions are distinct
when they differ in at least one coordinate mod m.  Writing
d = gcd(a1, ..., an, m), the facts this module is built on are:

* the congruence is solvable iff d divides b, and then has exactly
  d * m**(n-1) distinct solutions;
* shifting a known solution coordinatewise by multiples of the strides
  g_i = m // gcd(a_i, m) yields prod(gcd(a_i, m)) distinct solutions (the
  "expansion" of that seed);
* two solutions whose difference is divisible by g_i in every coordinate i
  are *dependent*: one lies in the other's expansion.  Dependence is an
  equivalence relation, its classes all have size prod(gcd(a_i, m)), and a
  set of one representative per class (a *basis*) regenerates the whole
  solution set through expansion;
* since a_i * g_i = 0 (mod m), every class has exactly one *reduced* member,
  with 0 <= x_i < g_i in every coordinate, and it is the least member of its
  class in lexicographic order.

Bases and solution streams are therefore constructed, not searched for: the
basis walk and the full walk are one walk, _lex_runs, which visits only
prefixes that extend to a solution and emits the solutions in lexicographic
order, within the box [0, g_i) for a basis and [0, m) for the full solution
set.  At coordinate i the admissible values form one progression whose step
and least member follow from n per-level constants (one modular inverse
each), derived when the walk starts; a prefix then costs one multiply, one
floor division and one mod per coordinate, and no gcd.  The least values of
the last coordinate, one per value of the one before it, form an arithmetic
progression mod g_n, so the walk stops at the first n - 2 coordinates and
zips each prefix's rows at C level.  The least solution (find_particular)
is the walk's first row.
The expansion of a seed steps each coordinate round its cycle x0_i,
x0_i + g_i, ... mod m, which returns to x0_i after gcd(a_i, m) steps, so its
rows are the product of the n cycles: expand, enumerate_all and verify take
one C-level itertools.product per seed, or the seeds themselves at p2 = 1,
unless a cycle is too long to hold (over 1024 values).  Such an instance,
and both CLI commands, read _blocks, the one function that picks a stream's
shape: it returns its path and depth, and (prefixes, block) pairs of at most
1024 rows, each prefix taking the whole block in turn; the CLI bounds the
walk, by passing no more seeds than ceil(limit / p2) for its row limit, and
cuts the last pair it writes.  A block covers the deepest `depth`
coordinates, so every prefix holds the first n - depth.  The six paths are:
seeds, a basis or an expansion at p2 = 1, as whole rows under one empty
prefix; seed-major, whole rows too, for an expansion at p2 <= 8 whose last
cycle is shorter than 8 values: a reduced seed never wraps, so a batch of
seeds is shifted, column by column at C level, by the p2 offset vectors;
runs, one prefix a pair with the last coordinate's cycle for its block;
slices, the same cut into slices of 1024 values for a longer cycle; deep,
one prefix a pair with the list of the deepest cycles, whose product is its
rows, built once per seed and shared by all its prefixes; and groups, at
any depth, when the deepest prefix coordinate takes at least 16 values and
16 blocks fit in 1024 rows: a pair carries a group of prefixes as its fixed
lead, the prefix values before that coordinate, and a slice of that
coordinate's cycle, as many values as fill 1024 rows, with no tuple per
prefix (_rows builds those for the library).  The CLI takes the row format
from the path and the depth, renders each cycle value of a block once, and
writes each prefix's rows as one string, with no tuple per row.

Every quantity derived from (a, m) alone (d, gcd(a_i, m), g_i, the suffix
gcds h_i, p1, p2, s) is computed at most once per instance, by
LinearCongruence.summary, and every other function reads that record.  p1
and s are each built on its first read, and p1 on s's too, for every
instance: the walks never read them, and the CLI may write long counts
without them.  The walk's level constants are left out of the record, so
counting alone never pays for them.  All functions are pure; enumeration is
lazy wherever the output can be large.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from math import gcd, prod
from operator import add, attrgetter, mod, mul

__all__ = [
    "FrozenRecordError",
    "LinearCongruence",
    "Solution",
    "SolveSummary",
    "normalize",
    "summarize",
    "module_generators",
    "are_dependent",
    "satisfies",
    "find_particular",
    "expand",
    "enumerate_raw",
    "iter_basis",
    "build_basis",
    "enumerate_all",
]

Solution = tuple[int, ...]

_BLOCK_ROWS = 1024  # most rows in one block of _blocks
_GROUP_LEAST = 16  # fewest prefixes in a group of _blocks' groups path (see there)
_SEED_MAJOR_MOST = 8  # largest p2, and bound on gcd(a_n, m), of a whole-row expansion (_blocks)


def _require_ints(values: Iterable, what: str = "coefficients, rhs and modulus") -> None:
    if not all(map(isinstance, values, itertools.repeat(int))):
        raise ValueError(f"{what} must be integers")


def _decimal(x: int) -> str:
    """x in decimal, or by its bit length past Python's int-to-str digit limit."""
    try:
        return str(x)
    except ValueError:
        return f"<{x.bit_length()}-bit integer>"


def _field_repr(value) -> str:
    # repr(value), with each int, also one inside a tuple, written by _decimal,
    # so that a repr never raises, whatever the int/str digit limit
    if isinstance(value, int):
        return _decimal(value)
    if isinstance(value, tuple):
        items = ", ".join(map(_field_repr, value))
        return f"({items},)" if len(value) == 1 else f"({items})"
    return repr(value)


class FrozenRecordError(AttributeError):
    """Raised on assignment to, or deletion of, an attribute of a lincong record."""


class _Record:
    # A frozen record of the fields __match_args__ names.  Its __init__ writes
    # them with vars(self).update, past __setattr__ as _BuiltOnFirstRead writes;
    # == and hash read them only, never another field built into __dict__, and
    # repr shows them as a dataclass would, but for an int past the int/str
    # digit limit (_field_repr).  _of builds one from fields its caller has
    # already checked, past __init__ and its checks.

    @classmethod
    def _of(cls, **fields):
        record = object.__new__(cls)
        vars(record).update(fields)
        return record

    def _fields(self) -> tuple:
        return attrgetter(*self.__match_args__)(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={_field_repr(getattr(self, name))}"
                           for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")


class _BuiltOnFirstRead:
    # A field of a record that build(record) makes on its first read and keeps
    # in the record's __dict__.  It is a non-data descriptor, so a value in
    # the record's __dict__ is read as any field is, with no call.  It takes
    # no lock: build is pure, so two threads that both build a field build
    # equal values, and the record keeps either.

    def __init__(self, build):
        self.build = build
        self.__doc__ = build.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, record, owner=None):
        if record is None:
            return self
        value = vars(record)[self.name] = self.build(record)
        return value


class LinearCongruence(_Record):
    """A normalized instance: modulus >= 1, coefficients and rhs in [0, modulus)."""

    __match_args__ = ("coeffs", "rhs", "modulus")

    def __init__(self, coeffs: Iterable[int], rhs: int, modulus: int):
        coeffs = tuple(coeffs)
        _require_ints((*coeffs, rhs, modulus))
        if modulus < 1:
            raise ValueError("modulus must be >= 1 (use normalize() on raw input)")
        if not coeffs:
            raise ValueError("at least one coefficient is required")
        if any(not 0 <= a < modulus for a in coeffs):
            raise ValueError("coefficients must be reduced into [0, modulus)")
        if not 0 <= rhs < modulus:
            raise ValueError("rhs must be reduced into [0, modulus)")
        vars(self).update(coeffs=coeffs, rhs=rhs, modulus=modulus)

    @property
    def arity(self) -> int:
        return len(self.coeffs)

    @_BuiltOnFirstRead
    def summary(self) -> SolveSummary:
        """Derive the record, once, on first use: 2n gcd calls for arity n.

        p1 and s are left to their first read (see SolveSummary).  p2 is a
        balanced product: adjacent gcds are multiplied in pairs while more
        than 64 factors are left, so its cost stays near that of one
        multiplication of p2's length, where a running product over n
        factors is quadratic in it.
        """
        m = self.modulus
        gcds = tuple(map(gcd, self.coeffs, itertools.repeat(m)))
        # h[-1]: gcd of m and the coefficients taken so far, from the right;
        # gcd(a_i, h) = gcd(g_i, h) as h divides m, and g_i is already reduced
        h = [m]
        for g in reversed(gcds):
            h.append(gcd(g, h[-1]))
        d = h[-1]
        factors = gcds
        while len(factors) > 64:  # an odd one out is carried to the next level
            factors = [*map(mul, factors[::2], factors[1::2]), *factors[len(factors) & ~1:]]
        return SolveSummary._of(gcd_all=d, solvable=self.rhs % d == 0,
                                expansion_count=prod(factors), gcds=gcds,
                                strides=tuple(map(m.__floordiv__, gcds)),
                                suffix_gcds=tuple(h[:0:-1]))


def _p1(summary: SolveSummary) -> int:
    # p1 = d * m**(n - 1), which LinearCongruence.summary leaves unbuilt, from
    # the record alone: m = g_1 * gcd(a_1, m) and n = len(gcds)
    return summary.gcd_all * (summary.strides[0] * summary.gcds[0]) ** (len(summary.gcds) - 1)


def _s(summary: SolveSummary) -> int:
    # s = p1 / p2, which LinearCongruence.summary leaves unbuilt too
    p1, p2 = summary.solution_count, summary.expansion_count
    s, rest = divmod(p1, p2)
    if rest:
        raise ArithmeticError(f"inexact division {p1} / {p2}; this is a bug")
    return s


class SolveSummary(_Record):
    """Every quantity derived from an instance, as LinearCongruence.summary.

    solution_count and basis_size describe the solvable case; both are
    reported even for unsolvable instances (they depend only on the
    coefficients and the modulus, and are useful diagnostics).  A summary
    from LinearCongruence.summary computes each on its first read, and p1
    also on the first read of s = p1 / p2, and keeps them; it reads,
    compares, hashes, prints and pickles as one built with them.
    """

    __match_args__ = ("gcd_all", "solvable", "solution_count", "expansion_count",
                      "basis_size", "gcds", "strides", "suffix_gcds")

    solution_count = _BuiltOnFirstRead(_p1)
    basis_size = _BuiltOnFirstRead(_s)

    def __init__(self,
                 gcd_all: int,          # gcd(a1, ..., an, m)
                 solvable: bool,        # gcd_all divides rhs
                 solution_count: int,   # gcd_all * m**(n-1), distinct solutions when solvable
                 expansion_count: int,  # prod(gcd(ai, m)), solutions one seed expands into
                 basis_size: int,       # solution_count // expansion_count, always exact
                 gcds: tuple[int, ...],         # gcd(a_i, m), expansion steps per coordinate
                 strides: tuple[int, ...],      # g_i = m // gcd(a_i, m), the step size
                 suffix_gcds: tuple[int, ...]):  # gcd(a_i, ..., a_n, m), the first is gcd_all
        vars(self).update(gcd_all=gcd_all, solvable=solvable, solution_count=solution_count,
                          expansion_count=expansion_count, basis_size=basis_size, gcds=gcds,
                          strides=strides, suffix_gcds=suffix_gcds)


def normalize(raw_coeffs: Sequence[int], raw_b: int, raw_m: int) -> LinearCongruence:
    """Build the canonical instance: modulus |m|, everything reduced mod m.

    Normalization never changes the solution set.  Rejects values that are
    not integers, a zero modulus and an empty coefficient list, each with a
    ValueError, in that order.  The values it returns are reduced here, so
    the record is built without LinearCongruence's checks.
    """
    raw_coeffs = tuple(raw_coeffs)
    _require_ints((*raw_coeffs, raw_b, raw_m))  # before % and abs() can fail otherwise
    if raw_m == 0:
        raise ValueError("modulus must be nonzero")
    if not raw_coeffs:
        raise ValueError("at least one coefficient is required")
    m = abs(raw_m)
    return LinearCongruence._of(coeffs=tuple(map(mod, raw_coeffs, itertools.repeat(m))),
                                rhs=raw_b % m, modulus=m)


def summarize(c: LinearCongruence) -> SolveSummary:
    """Solvability, the counting scalars and the per-coordinate gcds: c.summary."""
    return c.summary


def module_generators(c: LinearCongruence) -> tuple[int, ...]:
    """The strides g_i = m // gcd(a_i, m) of the instance: c.summary.strides.

    The integer combinations of the axis vectors (0, ..., g_i, ..., 0) form
    the lattice of differences between dependent solutions, so membership of
    a difference vector reduces to coordinatewise divisibility by g_i.
    """
    return c.summary.strides


def are_dependent(x: Sequence[int], y: Sequence[int], strides: Sequence[int]) -> bool:
    """True iff x - y lies in the stride lattice, i.e. g_i | (x_i - y_i) for all i.

    strides is module_generators(c).  Well defined on residues because every
    stride divides the modulus.
    """
    n = len(strides)
    if len(x) != n or len(y) != n:
        raise ValueError(f"arity mismatch: lattice has {n} coordinates, "
                         f"got vectors of length {len(x)} and {len(y)}")
    return all((xi - yi) % g == 0 for xi, yi, g in zip(x, y, strides))


def satisfies(x: Sequence[int], c: LinearCongruence) -> bool:
    """True iff the residue vector solves the congruence."""
    if len(x) != c.arity:
        raise ValueError(f"arity mismatch: expected {c.arity} residues, got {len(x)}")
    return sum(a * xi for a, xi in zip(c.coeffs, x)) % c.modulus == c.rhs


def find_particular(c: LinearCongruence) -> Solution | None:
    """The lexicographically least solution of the instance, or None when unsolvable.

    It is the first row of the one walk that iter_basis and enumerate_raw
    read, bounded by the strides: the least member of its class is reduced,
    so this is also the first row of iter_basis(c), of enumerate_raw(c) and
    of the basis `solve` prints.
    """
    # not through iter_basis, which bench/tracer.py bills to the basis layer
    return next(itertools.chain.from_iterable(_lex_runs(c, c.summary.strides)), None)


def _checked_seed(x: Sequence[int], c: LinearCongruence) -> Solution:
    x = tuple(x)
    if len(x) != c.arity:
        raise ValueError(f"arity mismatch: expected {c.arity} residues, got {len(x)}")
    _require_ints(x, "residues")  # a float would reach range() otherwise
    if any(not 0 <= xi < c.modulus for xi in x):
        raise ValueError(f"{x} is not reduced into [0, {c.modulus})")
    if not satisfies(x, c):
        raise ValueError(f"{x} does not satisfy the congruence")
    return x


def expand(x0: Sequence[int], c: LinearCongruence) -> Iterator[Solution]:
    """All solutions obtained from the seed x0 by stride shifts, lazily.

    Yields exactly prod(gcd(a_i, m)) pairwise-distinct solutions
    x_i = (x0_i + g_i * t_i) mod m with g_i = m // gcd(a_i, m) and parameter
    tuples (t_1, ..., t_n), 0 <= t_i < gcd(a_i, m), in lexicographic order;
    the first yield is x0 itself.  Coordinate i thus steps round its cycle
    x0_i, x0_i + g_i, ... mod m, which comes back to x0_i after gcd(a_i, m)
    steps.  The rows are the C-level itertools.product of the n cycles, so
    the first costs O(sum of gcd(a_i, m)); an instance with a cycle too long
    to hold (gcd(a_i, m) can be as large as m) streams in the CLI's bounded
    blocks instead.  The seed is validated before any yield.
    """
    return _rows((_checked_seed(x0, c),), c)


def _cycles(x0: Sequence[int], m: int, strides: Sequence[int]) -> list[Sequence[int]]:
    # each x0_i, x0_i + g_i, ... mod m: the range itself when x0_i < g_i (a
    # reduced seed), else rotated into a tuple
    return [range(x, m, g) if x < g else (*range(x, m, g), *range(x % g, x, g))
            for x, g in zip(x0, strides)]


def _rows(seeds: Iterable[Solution], c: LinearCongruence) -> Iterator[Solution]:
    # the rows of the seeds' expansions as tuples, in expand's order: at p2 = 1
    # the seeds, else one product per seed, or, when a cycle is too long to
    # hold, _blocks' pairs, where zip makes 1-tuples of a depth-1 block's values
    # and a group's prefixes are its fixed lead and each value of its slice
    m, s = c.modulus, c.summary
    if s.expansion_count == 1:
        return iter(seeds)
    if max(s.gcds) <= _BLOCK_ROWS:
        return itertools.chain.from_iterable(
            itertools.product(*_cycles(x0, m, s.strides)) for x0 in seeds)
    (path, depth), pairs = _blocks(seeds, c)
    if path == "groups":
        pairs = (([(*fixed, x) for x in part], block) for (fixed, part), block in pairs)
    return (prefix + row for prefixes, block in pairs for prefix in prefixes
            for row in (itertools.product(*block) if depth > 1 else zip(block)))


def _blocks(seeds: Iterable[Solution], c: LinearCongruence, expand: bool = True
            ) -> tuple[tuple[str, int], Iterator[tuple[tuple, Sequence]]]:
    # The one block stream of every writer, and the one place that picks its
    # shape: ((path, depth), pairs), the (prefixes, block) pairs of the seeds'
    # expansions, or of the seeds when expand is False, each prefix taking the
    # whole block in turn.  A block covers the deepest `depth` coordinates, so
    # every prefix holds the first n - depth.  The paths:
    # * seeds: the seeds as whole rows (depth n) under one empty prefix,
    #   _BLOCK_ROWS a block; so is an expansion at p2 = 1.
    # * seed-major: whole rows too, from _seed_major, at p2 <= _SEED_MAJOR_MOST
    #   with a last cycle shorter than _SEED_MAJOR_MOST: there the pairs of
    #   _expand_runs would carry runs of so few rows that a pair costs the
    #   writer more than its rows do as whole rows.  It needs reduced seeds;
    #   _rows, which may pass any seed, reaches _blocks only at p2 > _BLOCK_ROWS.
    # * runs: one prefix a pair, the last coordinate's cycle its block.
    # * slices: as runs, but the cycle is longer than _BLOCK_ROWS values and is
    #   cut into slices of that many, one a pair.
    # * deep: one prefix a pair, the list of the deepest `depth` >= 2 cycles
    #   its block, whose product is its rows.
    # * groups: a pair carries a group of prefixes, of any depth's block, when
    #   the deepest prefix coordinate takes at least _GROUP_LEAST values and
    #   that many blocks fit in _BLOCK_ROWS rows; below that a group costs more
    #   C-level objects here and in the writer than it saves.  Its first item
    #   is (fixed, part): the fixed lead, the first n - depth - 1 values, and
    #   a slice of the next coordinate's cycle, one prefix a value.
    # At depth 1 a seed's p2 rows are written as p2 // L runs of the last
    # coordinate, L = gcd(a_n, m).  A block of the deepest coordinates, of R
    # rows, is rendered once per seed and written p2 // R times, one join
    # each, so it pays when it saves at least as many runs as it has rows.
    # The depth is the largest whose block does so within _BLOCK_ROWS rows,
    # and 1 when none does: a block written once per seed, or one that adds
    # only coordinates with gcd(a_i, m) = 1 to a run, saves nothing.  A caller
    # bounds the stream by the seeds it passes, and pulls no pair it does not
    # write.
    n, p2, gcds = c.arity, c.summary.expansion_count, c.summary.gcds
    if not expand or p2 == 1:
        rows = iter(seeds)
        return ("seeds", n), ((((),), block) for block in
                              iter(lambda: tuple(itertools.islice(rows, _BLOCK_ROWS)), ()))
    if p2 <= _SEED_MAJOR_MOST and gcds[-1] < _SEED_MAJOR_MOST:
        return ("seed-major", n), _seed_major(seeds, c)
    runs = p2 // gcds[-1]
    depth, rows = 1, gcds[-1]
    for k in range(2, n + 1):
        rows *= gcds[-k]
        if rows > _BLOCK_ROWS:
            break
        if rows + p2 // rows <= runs:
            depth = k
    size = _BLOCK_ROWS // prod(gcds[n - depth:])  # most prefixes in a group
    path = ("groups" if depth < n and min(gcds[-depth - 1], size) >= _GROUP_LEAST
            else "deep" if depth > 1 else "runs" if size else "slices")
    return (path, depth), _expand_runs(seeds, c, path, depth, size)


def _seed_major(seeds: Iterable[Solution],
                c: LinearCongruence) -> Iterator[tuple[tuple[Solution, ...], Sequence]]:
    # The expansions of reduced seeds as whole rows under one empty prefix, in
    # expand's order, _BLOCK_ROWS // p2 seeds a block.  A reduced seed's cycle
    # x_i, x_i + g_i, ... never wraps, so its expansion is the seed plus each
    # of the p2 offsets t * g in turn.  A batch is shifted column by column:
    # coordinate i's column, as it is and plus each nonzero multiple of g_i
    # below m, one C-level map each.  The product of those shifted columns,
    # in expand's order of the parameter tuples, zipped, gives one offset's
    # rows of every seed; zipping those interleaves them seed by seed, so no
    # Python code runs per row.
    m, strides, repeat = c.modulus, c.summary.strides, itertools.repeat
    seeds = iter(seeds)
    while batch := list(itertools.islice(seeds, _BLOCK_ROWS // c.summary.expansion_count)):
        columns = [(col, *[tuple(map(add, col, repeat(o))) for o in range(g, m, g)])
                   for col, g in zip(zip(*batch), strides)]
        yield ((),), tuple(itertools.chain.from_iterable(
            zip(*itertools.starmap(zip, itertools.product(*columns)))))


def _slices(x: int, m: int, g: int, size: int) -> Iterator[range]:
    # the cycle x, x + g, ... mod m as ranges of at most `size` values: slicing
    # a range is O(1), and its truth needs no len(), which fails past sys.maxsize
    for run in (range(x, m, g), range(x % g, x, g)):
        while run:
            yield run[:size]
            run = run[size:]


def _expand_runs(seeds: Iterable[Solution], c: LinearCongruence, path: str, depth: int,
                 size: int) -> Iterator[tuple[tuple, Sequence]]:
    # The pairs of _blocks' runs, slices, deep and groups paths: the
    # expansions of the seeds, one after another in expand's order.  A block
    # is the list of the deepest cycles, whose product is its rows, built once
    # per seed for all its prefixes; at depth 1 it is the last coordinate's
    # cycle itself, or on the slices path one slice of _BLOCK_ROWS values a
    # pair.  A group is the prefixes that differ only in the deepest prefix
    # coordinate: the tuple of the values before it, and a lazy slice of its
    # cycle of up to `size` values.  The odometer steps the other moving
    # prefix coordinates, by g_i.
    m, gcds, strides, lead = c.modulus, c.summary.gcds, c.summary.strides, c.arity - depth
    group, cut = path == "groups", path == "slices"
    moving = [i for i in reversed(range(lead - group)) if gcds[i] > 1]  # deepest first, not a group's
    gl = strides[-1]
    for x0 in seeds:
        if depth > 1:
            block = _cycles(x0[lead:], m, strides[lead:])
        elif not cut:  # a reduced seed's cycle is its range: no _cycles call, one a seed
            block = range(xl, m, gl) if (xl := x0[-1]) < gl else _cycles((xl,), m, (gl,))[0]
        head = list(x0[:lead])
        while True:
            if group:
                fixed = tuple(head[:-1])
                for part in _slices(head[-1], m, strides[lead - 1], size):
                    yield (fixed, part), block
            elif cut:
                prefixes = (tuple(head),)
                for part in _slices(x0[-1], m, gl, _BLOCK_ROWS):
                    yield prefixes, part
            else:
                yield (tuple(head),), block
            # odometer: step the deepest moving coordinate round its cycle; one
            # that came back to its seed value has wrapped, so it is already
            # reset, and the step carries into the next
            for i in moving:
                head[i] = (head[i] + strides[i]) % m
                if head[i] != x0[i]:
                    break
            else:
                break


def _level_constants(c: LinearCongruence) -> tuple[list[int], list[int]]:
    # (u, steps) for the walk.  With h_{n+1} = m, level i solves
    # a_i*x_i = r (mod h_{i+1}) for residuals r that are multiples of
    # h_i = gcd(a_i, h_{i+1}); its solutions are x_i = u_i*(r // h_i) mod
    # step_i and their shifts by step_i, where step_i = h_{i+1} // h_i and u_i
    # inverts a_i // h_i mod step_i (pow(x, -1, 1) == 0 covers step_i = 1).
    h = (*c.summary.suffix_gcds, c.modulus)
    steps = [h[i + 1] // h[i] for i in range(c.arity)]
    return [pow(a // hi, -1, step) for a, hi, step in zip(c.coeffs, h, steps)], steps


def _lex_runs(c: LinearCongruence, bounds: Sequence[int]) -> Iterator[Iterator[Solution]]:
    # Every solution x with 0 <= x_i < bounds[i] (each a multiple of
    # g_i = m // gcd(a_i, m)), in lexicographic order, as one C-level iterator
    # of rows per prefix of the first n - 2 coordinates (one in all at n = 1).
    # With h_i = gcd(a_i, ..., a_n, m), the tail sum a_i*x_i + ... + a_n*x_n
    # covers exactly the multiples of h_i mod m, so the x_i that extend a
    # prefix form one progression of step h_{i+1} // h_i, whose least member
    # the level constants give: the odometer never enters a dead branch, and a
    # level costs one multiply, one floor division and one mod.  Under a
    # prefix with residual r left at level n - 1, x_{n-1} runs over
    # range(first, bounds[n-1], step_{n-1}), and its k-th value leaves
    # (R0 - D*k) mod m for the last coordinate, with R0 = (r - a_{n-1}*first)
    # mod m and D = a_{n-1}*step_{n-1} mod m, both multiples of h_n.  So the
    # least x_n is (C - E*k) mod g_n, with C = u_n*R0/h_n and E = u_n*D/h_n,
    # and x_n runs from it to bounds[n] in steps of g_n = step_n: one value
    # when bounds[n] = g_n (the basis walk, and the full walk when
    # gcd(a_n, m) = 1), zipped with the range, and otherwise one zip per k
    # with its run.  The repeats are endless: a count past sys.maxsize would
    # overflow.
    if not c.summary.solvable:
        return
    u, steps = _level_constants(c)
    a, m, h, repeat = c.coeffs, c.modulus, c.summary.suffix_gcds, itertools.repeat
    if c.arity == 1:
        yield zip(range(u[0] * (c.rhs // h[0]) % steps[0], bounds[0], steps[0]))
        return
    i, j = c.arity - 2, c.arity - 1
    g, bound = steps[j], bounds[j]
    e = u[j] * (a[i] * steps[i] % m // h[j]) % g
    x = [0] * i
    residual = [c.rhs] + [0] * i  # residual[k]: what x_k, ..., x_n must make up
    k = 0
    while True:
        while k < i:
            r = residual[k]
            xk = x[k] = u[k] * (r // h[k]) % steps[k]
            residual[k + 1] = (r - a[k] * xk) % m
            k += 1
        r = residual[i]
        first = u[i] * (r // h[i]) % steps[i]
        start = u[j] * ((r - a[i] * first) % m // h[j]) % g
        xs = range(first, bounds[i], steps[i])
        last = map(g.__rmod__, itertools.count(start, -e)) if e else repeat(start)
        if bound == g:
            yield zip(*map(repeat, x), xs, last)
        else:
            yield itertools.chain.from_iterable(map(
                zip, *map(repeat, map(repeat, x)), map(repeat, xs),
                map(range, last, repeat(bound), repeat(g))))
        # odometer: advance the deepest prefix coordinate that has another value
        k = i - 1
        while k >= 0 and x[k] + steps[k] >= bounds[k]:
            k -= 1
        if k < 0:
            return
        x[k] += steps[k]
        residual[k + 1] = (residual[k + 1] - a[k] * steps[k]) % m
        k += 1


def enumerate_raw(c: LinearCongruence) -> Iterator[Solution]:
    """Every distinct solution exactly once, in lexicographic order, lazily.

    It is iter_basis's walk with every bound raised to m, so a row costs no
    Python bytecode however far into [0, m)**n it lies; for an unsolvable
    instance the stream is empty.
    """
    return itertools.chain.from_iterable(_lex_runs(c, (c.modulus,) * c.arity))


def iter_basis(c: LinearCongruence) -> Iterator[Solution]:
    """Yield one representative per dependence class: a full basis, lazily.

    The representatives are the reduced solutions, those with
    0 <= x_i < g_i = m // gcd(a_i, m) in every coordinate, in lexicographic
    order.  Every class has exactly one reduced member, and it is the least
    member of its class, so this is also the greedy basis of enumerate_raw(c).
    It is constructed directly, by the one walk enumerate_raw also reads,
    bounded by the strides: a walk over the first n - 2 coordinates, at
    O(n) big-int operations per prefix, hands each prefix's rows to one
    C-level iterator, so a row itself costs no Python bytecode; an
    unsolvable instance yields nothing.
    """
    return itertools.chain.from_iterable(_lex_runs(c, c.summary.strides))


def build_basis(c: LinearCongruence) -> tuple[Solution, ...] | None:
    """A full basis: the tuple of its seeds, or None when unsolvable.

    The basis is the reduced solutions in lexicographic order (see
    iter_basis), which makes it deterministic.  To collect only the first k
    seeds of a huge basis, take itertools.islice(iter_basis(c), k).
    """
    return tuple(iter_basis(c)) if c.summary.solvable else None


def enumerate_all(seeds: Iterable[Sequence[int]], c: LinearCongruence) -> Iterator[Solution]:
    """Every distinct solution, lazily: the expansions of the seeds in order.

    seeds is any iterable of solutions, such as build_basis(c) or one
    representative per class of your own choosing.  For a full basis this
    yields exactly summarize(c).solution_count pairwise distinct solutions;
    as a set it equals enumerate_raw(c).  Each seed is checked as expand
    checks it, when the walk reaches it.
    """
    return _rows((_checked_seed(x, c) for x in seeds), c)
