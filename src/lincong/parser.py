r"""Parse and render linear congruence expressions.

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

A text is read at once when it can be: one fullmatch of the whole grammar,
with identifiers matched as [^\W\d]\w*, then one check that the names hold
only letters, ASCII digits and '_' (no pattern class is exactly
str.isalpha(), and \w also takes digits such as '²' or '٣') and are
distinct, and one findall for the terms.  Any text that fails a step is read
again rule by rule, and only that reader raises ParseError: each rule is one
match of a compiled pattern, and identifiers are read a character at a time.
Either way a literal or a run of whitespace costs the same calls whatever
its length.

Both readers keep each literal's digits as written in the record's
`digits`.  format_congruence writes them back, leading zeros dropped, and
the CLI builds its decimal modulus from them, so a long literal costs one
int() conversion where str() and Decimal() of the int would cost two more,
each quadratic before Python 3.12.  The readers keep the text as they
matched it and the writers drop the zeros, so a call that writes no literal,
such as a JSON solve, pays only for a tuple of the parse's own matches.

An omitted coefficient means 1 ("x" is "1*x").  Variables must be pairwise
distinct and their order of first appearance fixes the coefficient order.
The modulus may be negative (normalization takes its absolute value) but
never zero.  Output always uses '≡'; input may use '=' as well.
"""

from __future__ import annotations

import re

from .core import _Record

__all__ = ["ParseError", "ParsedCongruence", "parse", "parse_integer", "format_congruence"]


class ParseError(ValueError):
    """Rejected input; `pos` is the 1-based character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"position {pos}: {message}")
        self.pos = pos


class ParsedCongruence(_Record):
    """A congruence as written: named variables, unreduced coefficients.

    A record that parse read from text also keeps `digits`: the digits of
    each coefficient, then of the rhs and the modulus, as written after the
    sign, "" for an omitted coefficient.  Less its leading zeros each is
    str(abs(value)), "" standing for 1.  It is no field: ==, hash and repr
    read the four fields alone, while pickling and copying keep `digits`.
    A record built from ints, as the CLI builds one from --coeffs, --rhs
    and --mod, has digits None.  The readers build their
    records with _of, having made __init__'s checks as they read.
    """

    __match_args__ = ("variables", "raw_coeffs", "rhs", "modulus")
    digits: tuple[str, ...] | None = None

    def __init__(self, variables: tuple[str, ...], raw_coeffs: tuple[int, ...],
                 rhs: int, modulus: int):
        if not variables:
            raise ValueError("at least one variable is required")
        if len(variables) != len(raw_coeffs):
            raise ValueError("variables and coefficients must have equal length")
        if len(set(variables)) != len(variables):
            raise ValueError("variables must be pairwise distinct")
        vars(self).update(variables=variables, raw_coeffs=raw_coeffs, rhs=rhs, modulus=modulus)


# [0-9], never \d, which accepts '٣' and '７' too; \s on a str pattern accepts
# exactly the characters for which str.isspace() is true.  The rules use both.
_DIGITS = re.compile("[0-9]*")
_SPACES = re.compile(r"\s*")
_S, _DIGIT = _SPACES.pattern, _DIGITS.pattern[:-1]


# a term's sign, coefficient and star, each after whitespace; no star
# without a coefficient
_TERM = re.compile(rf"{_S}([+-]?){_S}(?:({_DIGIT}+){_S}\*?{_S})?")


# the right-hand side and the modulus: a sign, then digits that may be
# missing, each after whitespace, and the whitespace after them
_INTEGER = re.compile(rf"{_S}([+-]?){_S}({_DIGIT}*){_S}")


def _literal(sign: str, digits: str) -> int:
    # the value of every literal either reader reads: ASCII digits only, so
    # a ValueError means int()'s digit limit
    return int(sign + digits)


def _integer(m: re.Match) -> int:
    # the value of a _TERM or _INTEGER match; errors point at its first digit
    sign, digits = m.groups()
    if not digits:
        raise ParseError("expected an integer", m.start(2) + 1)
    try:
        return _literal(sign, digits)
    except ValueError:
        raise ParseError(f"integer of {len(digits)} digits exceeds the interpreter's "
                         "int/str digit limit", m.start(2) + 1) from None


def parse_integer(text: str) -> int:
    """All of text read as the grammar's integer: " -12 " is -12, "1_0" raises ParseError."""
    m = _INTEGER.match(text)
    value = _integer(m)
    if m.end() != len(text):
        raise ParseError("unexpected trailing input", m.end() + 1)
    return value


# The whole grammar in one pattern.  A name is matched as [^\W\d]\w*, a
# superset of the identifier rule that parse narrows with _NAME_CHARS: \w
# shares no character with \s, nor with any that may follow a name, so a
# name the rules read is matched whole.  Whitespace follows a sign, a
# coefficient or a star only where that token is there, so no two \s* runs
# meet and a failing match backtracks in linear time.  The groups are the
# left-hand side, and the sign and digits of the rhs and of the modulus.
_NAME = r"[^\W\d]\w*"
_SIGNED = rf"{_S}(?:([+-]){_S})?({_DIGIT}+)"
_TERM_AFTER_SIGN = rf"(?:{_DIGIT}+{_S}(?:\*{_S})?)?{_NAME}"
_LAID_OUT = re.compile(
    rf"({_S}(?:[+-]{_S})?{_TERM_AFTER_SIGN}(?:{_S}[+-]{_S}{_TERM_AFTER_SIGN})*)"
    rf"{_S}[≡=]{_SIGNED}{_S}\({_S}mod{_SIGNED}{_S}\){_S}")
# each term of a matched left-hand side: its sign, its digits and its name
_TERMS = re.compile(rf"{_S}(?:([+-]){_S})?(?:({_DIGIT}+){_S}(?:\*{_S})?)?({_NAME})")
# with ASCII digits and "_" made letters, a name of the grammar is all letters
_NAME_CHARS = dict.fromkeys(map(ord, "0123456789_"), "a")


def parse(text: str) -> ParsedCongruence:
    """Parse a congruence expression such as "2x - 6y ≡ 2 (mod 12)"."""
    m = _LAID_OUT.fullmatch(text)
    if m is not None:
        lhs, rhs_sign, rhs_digits, mod_sign, mod_digits = m.groups("")
        terms = _TERMS.findall(lhs)
        _, runs, names = zip(*terms)
        if len(set(names)) == len(names) and "".join(names).translate(_NAME_CHARS).isalpha():
            try:  # a literal past the digit limit is reported by the rules
                coeffs = tuple([_literal(sign, digits or "1") for sign, digits, _ in terms])
                rhs, modulus = _literal(rhs_sign, rhs_digits), _literal(mod_sign, mod_digits)
            except ValueError:
                pass
            else:
                if modulus:
                    return ParsedCongruence._of(variables=names, raw_coeffs=coeffs, rhs=rhs,
                                                modulus=modulus,
                                                digits=(*runs, rhs_digits, mod_digits))
    return _parse_by_rule(text)


def _parse_by_rule(text: str) -> ParsedCongruence:
    # the rule-by-rule reader: parse's fallback, and the one writer of its ParseError
    terms: dict[str, int] = {}  # coefficient by variable name, in written order
    written = []  # the digits of each literal, as written
    term = _TERM.match
    m = term(text)
    while not terms or m.group(1):  # a sign starts every term but the first
        sign, digits = m.groups()
        coeff = _integer(m) if digits else -1 if sign == "-" else 1
        written.append(digits or "")  # None where the coefficient is left out
        i = m.end()
        if not ((ch := text[i:i + 1]).isalpha() or ch == "_"):
            raise ParseError("expected a variable name" if digits
                             else "expected a term such as '3x' or 'y'", i + 1)
        j = i + 1
        while (ch := text[j:j + 1]).isalpha() or "0" <= ch <= "9" or ch == "_":
            j += 1
        name = text[i:j]
        if name in terms:
            raise ParseError(f"duplicate variable {name!r}", i + 1)
        terms[name] = coeff
        m = term(text, j)

    i = m.start(1)
    if not text.startswith(("≡", "="), i):
        raise ParseError("expected '≡' or '=' after the left-hand side", i + 1)
    m = _INTEGER.match(text, i + 1)
    rhs = _integer(m)
    written.append(m.group(2))

    i = m.end()
    if text[i:i + 1] != "(":
        raise ParseError("expected '('" if i < len(text)
                         else "missing modulus: expected '(mod m)'", i + 1)
    i = _SPACES.match(text, i + 1).end()
    # the keyword is letters only, so "(mod3)" reads like "(mod 3)"
    if not text.startswith("mod", i) or text[i + 3:i + 4].isalpha():
        raise ParseError("expected 'mod'", i + 1)
    m = _INTEGER.match(text, i + 3)
    modulus = _integer(m)
    if modulus == 0:
        raise ParseError("modulus must be nonzero", m.start(1) + 1)
    written.append(m.group(2))
    i = m.end()
    if text[i:i + 1] != ")":
        raise ParseError("expected ')'", i + 1)
    i = _SPACES.match(text, i + 1).end()
    if i != len(text):
        raise ParseError("unexpected trailing input", i + 1)

    return ParsedCongruence._of(variables=tuple(terms), raw_coeffs=tuple(terms.values()),
                                rhs=rhs, modulus=modulus, digits=tuple(written))


def format_congruence(p: ParsedCongruence) -> str:
    """Canonical one-line rendering; parse(format_congruence(p)) == p.

    Each literal is written as its sign and the digits its reader kept, less
    their leading zeros, so a long one costs no int -> str conversion, which
    is quadratic before Python 3.12.  A record built from ints, with no kept
    digits, is written by str(), in the same bytes.
    """
    digits = p.digits
    if digits is None:
        first = p.raw_coeffs[0]
        pieces = [f"-{abs(first)}*{p.variables[0]}" if first < 0
                  else f"{first}*{p.variables[0]}"]
        for coeff, name in zip(p.raw_coeffs[1:], p.variables[1:]):
            pieces.append("-" if coeff < 0 else "+")
            pieces.append(f"{abs(coeff)}*{name}")
        return f"{' '.join(pieces)} ≡ {p.rhs} (mod {p.modulus})"
    # each term as "+ 3*x" or "- 3*x"; the first drops "+ " and keeps "-"
    terms = [f"{'- ' if coeff < 0 else '+ '}{(text or '1').lstrip('0') or '0'}*{name}"
             for coeff, text, name in zip(p.raw_coeffs, digits, p.variables)]
    lead = terms[0]
    terms[0] = lead[2:] if lead[0] == "+" else "-" + lead[2:]
    return (f"{' '.join(terms)} ≡ {'-' if p.rhs < 0 else ''}{digits[-2].lstrip('0') or '0'} "
            f"(mod {'-' if p.modulus < 0 else ''}{digits[-1].lstrip('0') or '0'})")
