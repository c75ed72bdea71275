"""Parse and render linear congruence expressions.

Grammar, with whitespace insignificant throughout:

    congruence := sum ('≡' | '=') integer '(' 'mod' integer ')'
    sum        := ['+' | '-'] term (('+' | '-') term)*
    term       := [integer] ['*'] identifier
    identifier := (letter | '_') (letter | digit | '_')*

A digit is one of the ASCII characters 0-9; other characters that Unicode
calls digits, such as '²' or '٣', are rejected with a positioned error.  A
letter is a character for which str.isalpha() is true, and whitespace is any
character for which str.isspace() is true, Unicode spaces such as U+00A0
and U+3000 included.

Each integer literal and each run of whitespace is read with one match of a
compiled pattern, so a literal costs one match and its int() conversion
whatever its length; identifiers are read a character at a time.

An omitted coefficient means 1 ("x" is "1*x").  Variables must be pairwise
distinct and their order of first appearance fixes the coefficient order.
The modulus may be negative (normalization takes its absolute value) but
never zero.  Output always uses '≡'; input may use '=' as well.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = ["ParseError", "ParsedCongruence", "parse", "format_congruence"]

_RELATION_CHARS = ("≡", "=")


class ParseError(ValueError):
    """Rejected input; `pos` is the 1-based character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"position {pos}: {message}")
        self.pos = pos


@dataclass(frozen=True)
class ParsedCongruence:
    """A congruence as written: named variables, unreduced coefficients."""

    variables: tuple[str, ...]
    raw_coeffs: tuple[int, ...]
    rhs: int
    modulus: int

    def __post_init__(self):
        if not self.variables:
            raise ValueError("at least one variable is required")
        if len(self.variables) != len(self.raw_coeffs):
            raise ValueError("variables and coefficients must have equal length")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variables must be pairwise distinct")


def _is_digit(ch: str) -> bool:
    # ASCII only: str.isdigit() also accepts characters such as '²' that
    # int() then rejects
    return "0" <= ch <= "9"


# A run of digits or of whitespace is one match from the scanner position:
# [0-9], never \d, which accepts '٣' and '７' too; \s on a str pattern
# accepts exactly the characters for which str.isspace() is true.
_DIGITS = re.compile("[0-9]*")
_SPACES = re.compile(r"\s*")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.i = 0

    @property
    def pos(self) -> int:
        # 1-based, for error messages
        return self.i + 1

    def skip_ws(self):
        self.i = _SPACES.match(self.text, self.i).end()

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
        self.i = _DIGITS.match(self.text, start).end()
        if start == self.i:
            raise ParseError("expected an integer", self.pos)
        try:
            return int(self.text[start:self.i])
        except ValueError:  # ASCII digits only, so over int()'s digit limit
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
        ch = self.peek()
        if not (ch.isalpha() or ch == "_"):
            raise ParseError("expected a variable name", self.pos)
        # isalpha(), not \w, which also accepts characters such as '²'
        while ch.isalpha() or _is_digit(ch) or ch == "_":
            self.i += 1
            ch = self.peek()
        return self.text[start:self.i], start + 1


def _term(s: _Scanner) -> tuple[int, str, int]:
    s.skip_ws()
    coeff = 1
    if _is_digit(s.peek()):
        coeff = s.unsigned_integer()
        s.skip_ws()
        if s.peek() == "*":
            s.advance()
    elif not (s.peek().isalpha() or s.peek() == "_"):
        raise ParseError("expected a term such as '3x' or 'y'", s.pos)
    name, name_pos = s.identifier()
    return coeff, name, name_pos


def parse(text: str) -> ParsedCongruence:
    """Parse a congruence expression such as "2x - 6y ≡ 2 (mod 12)"."""
    s = _Scanner(text)
    terms: dict[str, int] = {}  # coefficient by variable name, in written order

    s.skip_ws()
    sign = 1
    if s.at_sign():
        sign = -1 if s.advance() == "-" else 1
    while True:
        coeff, name, name_pos = _term(s)
        if name in terms:
            raise ParseError(f"duplicate variable {name!r}", name_pos)
        terms[name] = sign * coeff
        s.skip_ws()
        if s.at_sign():
            sign = -1 if s.advance() == "-" else 1
            continue
        break

    s.skip_ws()
    if s.peek() not in _RELATION_CHARS:
        raise ParseError("expected '≡' or '=' after the left-hand side", s.pos)
    s.advance()

    rhs = s.signed_integer()

    if s.at_end():
        raise ParseError("missing modulus: expected '(mod m)'", s.pos)
    s.expect("(")
    s.skip_ws()
    # the keyword is letters only, so "(mod3)" reads like "(mod 3)"
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


def format_congruence(p: ParsedCongruence) -> str:
    """Canonical one-line rendering; parse(format_congruence(p)) == p."""
    first = p.raw_coeffs[0]
    pieces = [f"-{abs(first)}*{p.variables[0]}" if first < 0
              else f"{first}*{p.variables[0]}"]
    for coeff, name in zip(p.raw_coeffs[1:], p.variables[1:]):
        pieces.append("-" if coeff < 0 else "+")
        pieces.append(f"{abs(coeff)}*{name}")
    return f"{' '.join(pieces)} ≡ {p.rhs} (mod {p.modulus})"
