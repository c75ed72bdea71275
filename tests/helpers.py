"""Shared fixtures: seeded random instance generators and reference algorithms."""

import itertools
import random
import string
import sys
from collections.abc import Iterator
from math import gcd

from lincong import LinearCongruence, ParsedCongruence, normalize, summarize
from lincong.core import are_dependent, module_generators, satisfies
from lincong.parser import ParseError


def random_instances(seed, count, arities=(1, 2, 3),
                     coeff_bound=20, mod_bound=20) -> list[LinearCongruence]:
    """Deterministic list of `count` solvable instances."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice(arities)
        coeffs = [rng.randint(-coeff_bound, coeff_bound) for _ in range(n)]
        b = rng.randint(-coeff_bound, coeff_bound)
        m = rng.randint(1, mod_bound)
        c = normalize(coeffs, b, m)
        if summarize(c).solvable:
            out.append(c)
    return out


def random_parsed(rng: random.Random) -> ParsedCongruence:
    """A random congruence with distinct single-letter-ish variable names."""
    k = rng.randint(1, 5)
    names = tuple(rng.sample(string.ascii_lowercase, k))
    coeffs = tuple(rng.randint(-99, 99) for _ in range(k))
    modulus = 0
    while modulus == 0:
        modulus = rng.randint(-99, 99)
    return ParsedCongruence(names, coeffs, rng.randint(-99, 99), modulus)


def fibonacci_pair(digits: int) -> tuple[int, int]:
    """Consecutive Fibonacci numbers (F_k, F_{k+1}), F_{k+1} the first with `digits` digits."""
    f0, f1 = 0, 1
    least = 10 ** (digits - 1)  # the least number of `digits` digits
    while f1 < least:
        f0, f1 = f1, f0 + f1
    return f0, f1


def recursive_egcd(a: int, b: int) -> tuple[int, int, int]:
    """The classic recursive extended gcd whose coefficients intmath keeps.

    Recursion depth is the number of division steps, so the limit is raised
    for the duration of the call.
    """
    def rec(a, b):
        if b == 0:
            if a == 0:
                return 0, 0, 0
            return (a, 1, 0) if a > 0 else (-a, -1, 0)
        g, u, v = rec(b, a % b)
        return g, v, u - (a // b) * v

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10_000))
    try:
        return rec(a, b)
    finally:
        sys.setrecursionlimit(limit)


def greedy_basis(c: LinearCongruence, candidates=None) -> list[tuple[int, ...]]:
    """Reference basis by search: scan the candidates (by default [0, m)**n in
    lexicographic order) and keep every solution independent of all kept so
    far, until basis_size are kept.  Costs O(candidates * s); for small
    instances only."""
    lattice = module_generators(c)
    target = summarize(c).basis_size
    kept: list[tuple[int, ...]] = []
    if candidates is None:
        candidates = itertools.product(range(c.modulus), repeat=c.arity)
    for cand in candidates:
        if not satisfies(cand, c):
            continue
        if any(are_dependent(cand, rep, lattice) for rep in kept):
            continue
        kept.append(cand)
        if len(kept) == target:
            break
    return kept


def reference_expand(x0, c: LinearCongruence) -> list[tuple[int, ...]]:
    """The expansion of x0 by a generic odometer: every parameter tuple
    (t_1, ..., t_n), 0 <= t_i < gcd(a_i, m), in lexicographic order, mapped
    to (x0_i + g_i * t_i) mod m coordinate by coordinate."""
    return list(iter_reference_expand(x0, c))


def iter_reference_expand(x0, c: LinearCongruence) -> Iterator[tuple[int, ...]]:
    """reference_expand's rows one at a time, for an expansion too long to hold."""
    m = c.modulus
    bounds = [gcd(a, m) for a in c.coeffs]
    strides = [m // d for d in bounds]
    counters = [0] * len(bounds)
    while True:
        yield tuple((xi + g * t) % m for xi, g, t in zip(x0, strides, counters))
        i = len(bounds) - 1
        while i >= 0 and counters[i] == bounds[i] - 1:
            counters[i] = 0
            i -= 1
        if i < 0:
            return
        counters[i] += 1


def lex_rows(c: LinearCongruence, bounds):
    """Reference row walker: every solution x with 0 <= x_i < bounds[i], in
    lexicographic order, one generator step per row; each bound must be a
    multiple of m // gcd(a_i, m).

    An odometer over the first n - 1 coordinates visits only prefixes that
    extend to a solution: with h_i = gcd(a_i, ..., a_n, m), the values of
    x_i that leave the rest a multiple of h_{i+1} form one progression of
    step h_{i+1} // h_i, whose least member is u_i * (r // h_i) for the
    residual r and u_i the inverse of a_i // h_i mod that step.  The last
    coordinate's values are one range per prefix."""
    a, m, n = c.coeffs, c.modulus, c.arity
    h = [m]
    for ai in reversed(a):
        h.append(gcd(ai, h[-1]))
    h.reverse()  # h[i] = gcd(a_i, ..., a_n, m), h[n] = m
    if c.rhs % h[0]:
        return
    steps = [h[i + 1] // h[i] for i in range(n)]
    u = [pow(ai // hi, -1, step) for ai, hi, step in zip(a, h, steps)]
    x, residual = [0] * n, [c.rhs] + [0] * n
    i = 0
    while True:
        while i < n - 1:
            x[i] = u[i] * (residual[i] // h[i]) % steps[i]
            residual[i + 1] = (residual[i] - a[i] * x[i]) % m
            i += 1
        prefix = tuple(x[:-1])
        for v in range(u[-1] * (residual[-2] // h[-2]) % steps[-1], bounds[-1], steps[-1]):
            yield prefix + (v,)
        i = n - 2
        while i >= 0 and x[i] + steps[i] >= bounds[i]:
            i -= 1
        if i < 0:
            return
        x[i] += steps[i]
        residual[i + 1] = (residual[i + 1] - a[i] * steps[i]) % m
        i += 1


def assert_same_text(got: str, want: str, context=None):
    """Fail unless got == want, naming the lengths and the first line that
    differs (cut to a window around its first differing character).

    A plain `assert got == want` in a test module makes pytest build a full
    diff of the two strings on failure, which for outputs of thousands of
    rows takes minutes; this check is exactly as strict and fails at once.
    """
    if got == want:
        return
    got_lines, want_lines = got.splitlines(True), want.splitlines(True)
    i = next((k for k, pair in enumerate(zip(got_lines, want_lines)) if pair[0] != pair[1]),
             min(len(got_lines), len(want_lines)))
    g = got_lines[i] if i < len(got_lines) else ""
    w = want_lines[i] if i < len(want_lines) else ""
    j = next((k for k, pair in enumerate(zip(g, w)) if pair[0] != pair[1]), min(len(g), len(w)))
    start = max(0, j - 40)
    where = "" if context is None else f"{context!r}: "
    raise AssertionError(
        f"{where}got {len(got)} chars in {len(got_lines)} lines, expected {len(want)} chars "
        f"in {len(want_lines)} lines; first difference at line {i + 1}, column {j + 1}: "
        f"got {g[start:j + 40]!r}, expected {w[start:j + 40]!r}")


def reference_brute_force(c: LinearCongruence) -> set[tuple[int, ...]]:
    """Reference exhaustive scan: decode every index in range(m**n) as n
    base-m digits and keep the tuples that solve the congruence."""
    m = c.modulus
    found = set()
    for index in range(m ** c.arity):
        # coordinate order is irrelevant for a set
        x = []
        for _ in range(c.arity):
            index, digit = divmod(index, m)
            x.append(digit)
        if sum(a * xi for a, xi in zip(c.coeffs, x)) % m == c.rhs:
            found.add(tuple(x))
    return found


class _CharScanner:
    """A cursor into the text that reads one character at a time."""

    def __init__(self, text: str):
        self.text = text
        self.i = 0

    @property
    def pos(self) -> int:
        # 1-based, for error messages
        return self.i + 1

    def peek(self) -> str:
        return self.text[self.i] if self.i < len(self.text) else ""

    def at_sign(self) -> bool:
        # a tuple, not "+-": peek() is "" at the end of the text, and "" is in
        # every string
        return self.peek() in ("+", "-")

    def advance(self) -> str:
        ch = self.peek()
        self.i += 1
        return ch

    def skip_ws(self):
        while self.peek().isspace():
            self.i += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.i >= len(self.text)

    def expect(self, ch: str):
        self.skip_ws()
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.i += 1

    def unsigned_integer(self) -> int:
        self.skip_ws()
        start = self.i
        while "0" <= self.peek() <= "9":
            self.i += 1
        if start == self.i:
            raise ParseError("expected an integer", self.pos)
        try:
            return int(self.text[start:self.i])
        except ValueError:
            raise ParseError(
                f"integer of {self.i - start} digits exceeds the interpreter's "
                "int/str digit limit", start + 1) from None

    def signed_integer(self) -> int:
        self.skip_ws()
        sign = 1
        if self.at_sign():
            sign = -1 if self.advance() == "-" else 1
        return sign * self.unsigned_integer()

    def identifier(self) -> tuple[str, int]:
        self.skip_ws()
        start = self.i
        if not (self.peek().isalpha() or self.peek() == "_"):
            raise ParseError("expected a variable name", self.pos)
        while self.peek().isalpha() or "0" <= self.peek() <= "9" or self.peek() == "_":
            self.i += 1
        return self.text[start:self.i], start + 1


def _reference_term(s: _CharScanner) -> tuple[int, str, int]:
    s.skip_ws()
    coeff = 1
    if "0" <= s.peek() <= "9":
        coeff = s.unsigned_integer()
        s.skip_ws()
        if s.peek() == "*":
            s.advance()
    elif not (s.peek().isalpha() or s.peek() == "_"):
        raise ParseError("expected a term such as '3x' or 'y'", s.pos)
    name, name_pos = s.identifier()
    return coeff, name, name_pos


def reference_parse(text: str) -> ParsedCongruence:
    """The reference for `lincong.parser.parse`: a recursive-descent parser of
    the same grammar that steps through the text one character at a time, with
    the same error messages and positions."""
    s = _CharScanner(text)
    terms: dict[str, int] = {}

    s.skip_ws()
    sign = 1
    if s.at_sign():
        sign = -1 if s.advance() == "-" else 1
    while True:
        coeff, name, name_pos = _reference_term(s)
        if name in terms:
            raise ParseError(f"duplicate variable {name!r}", name_pos)
        terms[name] = sign * coeff
        s.skip_ws()
        if not s.at_sign():
            break
        sign = -1 if s.advance() == "-" else 1

    s.skip_ws()
    if s.peek() not in ("≡", "="):
        raise ParseError("expected '≡' or '=' after the left-hand side", s.pos)
    s.advance()
    rhs = s.signed_integer()

    if s.at_end():
        raise ParseError("missing modulus: expected '(mod m)'", s.pos)
    s.expect("(")
    s.skip_ws()
    word_start = s.i
    while s.peek().isalpha():
        s.i += 1
    if s.text[word_start:s.i] != "mod":
        raise ParseError("expected 'mod'", word_start + 1)
    s.skip_ws()
    mod_pos = s.pos
    modulus = s.signed_integer()
    if modulus == 0:
        raise ParseError("modulus must be nonzero", mod_pos)
    s.expect(")")
    if not s.at_end():
        raise ParseError("unexpected trailing input", s.pos)

    return ParsedCongruence(tuple(terms), tuple(terms.values()), rhs, modulus)
