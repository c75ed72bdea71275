"""Expression grammar: parsing, error positions, canonical formatting."""

import copy
import pickle
import random
import sys
import time
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis.strategies import (booleans, composite, integers, just, lists, one_of,
                                   sampled_from, text)

import lincong.cli
import lincong.parser
from lincong.parser import ParsedCongruence, ParseError, format_congruence, parse, parse_integer

from helpers import random_parsed, reference_parse


def test_parse_reference_expression():
    p = parse("2x - 6y ≡ 2 (mod 12)")
    assert p.variables == ("x", "y")
    assert p.raw_coeffs == (2, -6)
    assert p.rhs == 2
    assert p.modulus == 12


def test_parse_ascii_equals_sign():
    assert parse("2x - 6y = 2 (mod 12)") == parse("2x - 6y ≡ 2 (mod 12)")


def test_parse_implicit_and_starred_coefficients():
    p = parse("x + y ≡ 0 (mod 3)")
    assert p.raw_coeffs == (1, 1)
    p = parse("x = 0 (mod 5)")
    assert (p.variables, p.raw_coeffs, p.rhs, p.modulus) == (("x",), (1,), 0, 5)
    p = parse("3*a ≡ 1 (mod 5)")
    assert p.raw_coeffs == (3,)
    assert p.variables == ("a",)


def test_parse_leading_sign():
    p = parse("-x + 2y ≡ 1 (mod 7)")
    assert p.raw_coeffs == (-1, 2)


def test_parse_compact_spacing():
    p = parse("2x-6y≡2(mod 12)")
    assert p.raw_coeffs == (2, -6)
    assert p.modulus == 12


def test_parse_longer_names_and_signs():
    p = parse("alpha_1 + beta ≡ -3 (mod -7)")
    assert p.variables == ("alpha_1", "beta")
    assert p.rhs == -3
    assert p.modulus == -7


def test_parse_zero_coefficient():
    assert parse("0x + 0y ≡ 0 (mod 3)").raw_coeffs == (0, 0)


def _error(text):
    with pytest.raises(ParseError) as err:
        parse(text)
    return err.value


def test_duplicate_variable_position():
    exc = _error("3a + 3a = 1 (mod 7)")
    assert exc.pos == 7
    assert str(exc) == "position 7: duplicate variable 'a'"


def test_parse_checks_duplicates_in_time_linear_in_the_variables():
    # each name is looked up among those seen so far: 20,000 of them parse
    # in about 0.15 s, where a scan of a list of the earlier names took 3.5 s
    names = [f"v{i}" for i in range(20000)]
    start = time.perf_counter()
    p = parse(" + ".join(names) + " ≡ 0 (mod 7)")
    assert time.perf_counter() - start < 1
    assert p.variables == tuple(names)
    text = " + ".join(names + ["v19999"]) + " ≡ 0 (mod 7)"
    assert _error(text).pos == text.rindex("v19999") + 1  # positions count from 1


def test_missing_rhs_position():
    exc = _error("2x ≡ (mod 5)")
    assert exc.pos == 6
    assert "expected an integer" in str(exc)


def test_missing_modulus_position():
    exc = _error("2x ≡ 1")
    assert exc.pos == 7
    assert "missing modulus" in str(exc)


def test_zero_modulus_position():
    exc = _error("x ≡ 1 (mod 0)")
    assert exc.pos == 12
    assert "modulus must be nonzero" in str(exc)


def test_more_rejections():
    assert "expected a term" in str(_error(""))
    assert "expected a term" in str(_error("2x + ≡ 1 (mod 5)"))
    assert "expected '≡' or '='" in str(_error("2x 3y ≡ 1 (mod 5)"))
    assert "expected 'mod'" in str(_error("x ≡ 1 (mud 5)"))
    assert "trailing input" in str(_error("x ≡ 1 (mod 5) extra"))


@pytest.mark.parametrize("text, pos, message", [
    ("", 1, "expected a term such as '3x' or 'y'"),
    ("   ", 4, "expected a term such as '3x' or 'y'"),
    ("x", 2, "expected '≡' or '=' after the left-hand side"),
    ("2x - 6y", 8, "expected '≡' or '=' after the left-hand side"),
    ("x +", 4, "expected a term such as '3x' or 'y'"),
    ("- ", 3, "expected a term such as '3x' or 'y'"),
    ("2*", 3, "expected a variable name"),
    ("x ≡", 4, "expected an integer"),
    ("x ≡ -", 6, "expected an integer"),
    ("x ≡ 1 (mod", 11, "expected an integer"),
    ("x ≡ 1 (mod -", 13, "expected an integer"),
    ("x ≡ 1 (mod 5", 13, "expected ')'"),
])
def test_end_of_input_is_reported_where_the_text_ends(text, pos, message):
    # the end of the text is no sign: each error points at most one past the
    # last character
    exc = _error(text)
    assert str(exc) == f"position {pos}: {message}"
    assert exc.pos <= len(text) + 1


@pytest.mark.parametrize("text, pos, message", [
    ("*x ≡ 1 (mod 5)", 1, "expected a term such as '3x' or 'y'"),  # a star needs a coefficient
    ("2**x ≡ 1 (mod 5)", 3, "expected a variable name"),
    ("2* ≡ 1 (mod 5)", 4, "expected a variable name"),
    ("2 3x ≡ 1 (mod 5)", 3, "expected a variable name"),
    ("- - x ≡ 1 (mod 5)", 3, "expected a term such as '3x' or 'y'"),
    ("x ≡ - - 1 (mod 5)", 7, "expected an integer"),
    ("x ≡ 1 (mod -0)", 12, "modulus must be nonzero"),
    ("x ≡ 1 (modé 3)", 8, "expected 'mod'"),
])
def test_rule_boundaries_are_reported_exactly(text, pos, message):
    exc = _error(text)
    assert (str(exc), exc.pos) == (f"position {pos}: {message}", pos)


def test_a_sign_may_stand_apart_from_its_digits():
    assert parse("x ≡ 1 (mod - 3)") == parse("x ≡ 1 (mod -3)")
    assert parse("- 2 * x ≡ + 1 (mod 3)") == parse("-2x ≡ 1 (mod 3)")


@pytest.mark.parametrize("text, value", [
    ("0", 0), ("-12", -12), (" + 7 ", 7), ("- 3", -3), ("\u00a0" + "9" * 400 + "\t", int("9" * 400)),
])
def test_parse_integer_reads_the_grammars_integer(text, value):
    assert parse_integer(text) == value


@pytest.mark.parametrize("text, pos, message", [
    ("", 1, "expected an integer"),
    ("-", 2, "expected an integer"),
    ("٥", 1, "expected an integer"),
    ("--1", 2, "expected an integer"),
    ("1_0", 2, "unexpected trailing input"),
    ("7²", 2, "unexpected trailing input"),
    ("1 2", 3, "unexpected trailing input"),
    ("1e3", 2, "unexpected trailing input"),
])
def test_parse_integer_rejects_what_the_grammar_rejects(text, pos, message):
    with pytest.raises(ParseError) as err:
        parse_integer(text)
    assert (str(err.value), err.value.pos) == (f"position {pos}: {message}", pos)


@given(one_of(text(), text(alphabet="xy_09+-*≡=() mod\t²")))
def test_any_text_parses_or_fails_with_a_position_inside_it(text):
    try:
        parse(text)
    except ParseError as exc:
        assert 1 <= exc.pos <= len(text) + 1


# the grammar's characters, Unicode spaces, digits that are not ASCII, and a
# letter and numerals that are not: \w takes all of "é٣²½Ⅻ", the grammar "é" alone
_ALPHABET = "xy_09+-*≡=() mod\t\u00a0\u2003\u3000²٣７é½Ⅻ"
# names of the grammar, a leading "_" and digits glued on included
_GRAMMAR_NAMES = ["x", "y1", "_z", "é", "v_2", "_", "_9", "x2y", "Ωmega"]
# names that \w matches but the grammar rejects: each holds a numeral that
# is no ASCII digit, glued to a name or alone
_WORD_NAMES = ["x٣", "é²", "٣x", "²", "a½", "Ⅻ"]
_SPACE_RUNS = text(alphabet=" \t\n\u00a0\u2003\u3000", max_size=3)
_NUMERALS = one_of(text(alphabet="0123456789", min_size=1, max_size=3),
                   text(alphabet="0123456789", min_size=100, max_size=600))


@composite
def _laid_out_congruences(draw, names=sampled_from(_GRAMMAR_NAMES + _WORD_NAMES), edit=True):
    """Text laid out by the grammar, with Unicode spaces between the tokens
    and literals of up to hundreds of digits; when edit is true, sometimes
    one character of the alphabet is put in anywhere."""
    names = draw(lists(names, min_size=1, max_size=4, unique=True))
    pieces = [draw(sampled_from(["", "+", "-"]))]
    for k, name in enumerate(names):
        if k:
            pieces.append(draw(sampled_from("+-")))
        pieces += [draw(_SPACE_RUNS), draw(one_of(just(""), _NUMERALS)), draw(_SPACE_RUNS),
                   draw(sampled_from(["", "*"])), draw(_SPACE_RUNS), name, draw(_SPACE_RUNS)]
    pieces += [draw(sampled_from("≡=")), draw(_SPACE_RUNS), draw(sampled_from(["", "-"])),
               draw(_NUMERALS), draw(_SPACE_RUNS), "(", draw(_SPACE_RUNS), "mod", draw(_SPACE_RUNS),
               draw(sampled_from(["", "-"])), draw(_NUMERALS), draw(_SPACE_RUNS), ")",
               draw(_SPACE_RUNS)]
    laid_out = "".join(pieces)
    if edit and draw(booleans()):
        at = draw(integers(0, len(laid_out)))
        laid_out = laid_out[:at] + draw(sampled_from(_ALPHABET)) + laid_out[at:]
    return laid_out


def _outcome(parse_with, text):
    try:
        return parse_with(text)
    except ParseError as exc:
        return str(exc), exc.pos


@given(one_of(_laid_out_congruences(),
              lists(one_of(sampled_from(_ALPHABET), _SPACE_RUNS, _NUMERALS)).map("".join)))
def test_parse_agrees_with_the_character_by_character_scanner(text):
    assert _outcome(parse, text) == _outcome(reference_parse, text)


def _rules_unreached(text):
    raise AssertionError(f"read rule by rule: {text!r}")


@given(_laid_out_congruences(sampled_from(_GRAMMAR_NAMES), edit=False))
@example("2x - 6y ≡ 2 (mod 12)")
@example("_ + 3*é - _9 + x2y = -0 (mod - 7)")
def test_every_valid_congruence_is_read_in_one_match(text):
    # the rules read only what the one match refuses, so a slip in its
    # pattern that refused valid text would pass every other test
    expected = _outcome(reference_parse, text)
    with mock.patch.object(lincong.parser, "_parse_by_rule", _rules_unreached):
        if isinstance(expected, ParsedCongruence):
            assert parse(text) == expected
        else:  # "*x" or a modulus of zeros: the rules write every error
            with pytest.raises(AssertionError, match="read rule by rule"):
                parse(text)


def test_mod_keyword_ends_where_its_letters_end():
    # whitespace is insignificant, so a digit may follow the keyword directly
    assert parse("x ≡ 1 (mod3)") == parse("x ≡ 1 (mod 3)")
    assert parse("2x - 6y ≡ 2 (mod12)") == parse("2x - 6y ≡ 2 (mod 12)")
    for text in ("x ≡ 1 (modulo 3)", "x ≡ 1 (mud 5)", "x ≡ 1 (3)"):
        exc = _error(text)
        assert (exc.pos, str(exc)) == (8, "position 8: expected 'mod'")


def test_only_ascii_digits_are_digits():
    # each of these passes str.isdigit() (or isalnum()) but is no ASCII digit
    assert _error("x ≡ 1 (mod 7²)").pos == 13
    assert "expected an integer" in str(_error("x ≡ ³ (mod 7)"))
    assert "expected a term" in str(_error("٣x ≡ 1 (mod 7)"))
    assert "expected '≡' or '='" in str(_error("x² ≡ 1 (mod 7)"))
    assert parse("x2 ≡ 1 (mod 7)").variables == ("x2",)


def _scanner_steps(text):
    """Calls made from the parser module while it parses text: calls of its
    own functions and of builtins alike."""
    steps = 0

    def count(frame, event, arg):
        nonlocal steps
        if event in ("call", "c_call") and frame.f_code.co_filename == lincong.parser.__file__:
            steps += 1

    sys.setprofile(count)
    try:
        parse(text)
    except ParseError:
        pass
    finally:
        sys.setprofile(None)
    return steps


def _runs_laid_out(digits, spaces, end=""):
    n, w = "7" * digits, " " * spaces
    return f"{w}{n}x{w}-{w}{n}*y{w}≡{w}-{n}{w}({w}mod{w}{n}{w}){w}{end}"


def test_a_digit_or_whitespace_run_costs_the_same_calls_at_any_length():
    assert (_scanner_steps(_runs_laid_out(3, 3)) == _scanner_steps(_runs_laid_out(3000, 3))
            == _scanner_steps(_runs_laid_out(3, 3000)))


def test_a_text_read_rule_by_rule_costs_the_same_calls_at_any_run_length():
    # trailing input fails the one match, so the rules read the whole text
    assert (_scanner_steps(_runs_laid_out(3, 3, "!"))
            == _scanner_steps(_runs_laid_out(3000, 3, "!"))
            == _scanner_steps(_runs_laid_out(3, 3000, "!")))


@pytest.mark.parametrize("text", [
    " " * 20_000 + "!",
    "2" + " " * 20_000 + "*" + " " * 20_000 + "!",
    "x" + " " * 20_000 + "- " * 10_000 + "!",
    "x ≡ -" + " " * 20_000 + "!",
], ids=["spaces", "spaces-round-a-star", "spaces-and-signs", "spaces-after-a-sign"])
def test_a_refused_match_backtracks_in_linear_time(text):
    # no two whitespace runs of the one-match pattern meet, so a text it
    # refuses is given up in linear time, where split runs would take
    # quadratic time: about 10**8 steps here
    start = time.perf_counter()
    with pytest.raises(ParseError):
        parse(text)
    assert time.perf_counter() - start < 2


def test_matchers_accept_exactly_the_unicode_spaces_and_the_ascii_digits():
    # the tables behind \s and str.isspace() belong to the interpreter, so
    # this runs on every Python version that CI runs
    chars = list(map(chr, range(sys.maxunicode + 1)))

    def accepted(pattern):
        return {ch for ch, match in zip(chars, map(pattern.fullmatch, chars)) if match}

    assert accepted(lincong.parser._SPACES) == {ch for ch in chars if ch.isspace()}
    assert accepted(lincong.parser._DIGITS) == set("0123456789")


@pytest.fixture
def default_digit_limit():
    """The interpreter's default int/str digit limit of 4,300, for the test."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield 4300
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("before, after", [
    ("", "x ≡ 1 (mod 5)"),
    ("x ≡ -", " (mod 5)"),
    ("x ≡ 1 (mod ", ")"),
])
def test_literal_over_the_digit_limit_points_at_its_first_digit(
        default_digit_limit, before, after):
    # the CLI lifts the limit for its call; a library caller keeps it and gets
    # a positioned error instead of int()'s
    exc = _error(before + "7" * 5000 + after)
    assert exc.pos == len(before) + 1
    assert "5000 digits" in str(exc)
    assert sys.get_int_max_str_digits() == default_digit_limit
    assert parse(before + "7" * default_digit_limit + after)


def test_parse_error_is_value_error():
    assert issubclass(ParseError, ValueError)


def test_parsed_congruence_validation():
    with pytest.raises(ValueError):
        ParsedCongruence(("x", "x"), (1, 2), 0, 5)
    with pytest.raises(ValueError):
        ParsedCongruence(("x",), (1, 2), 0, 5)
    with pytest.raises(ValueError):
        ParsedCongruence((), (), 0, 5)


def test_format_congruence():
    p = parse("2x - 6y ≡ 2 (mod 12)")
    assert format_congruence(p) == "2*x - 6*y ≡ 2 (mod 12)"
    p = ParsedCongruence(("x", "y"), (-1, 2), 1, 7)
    assert format_congruence(p) == "-1*x + 2*y ≡ 1 (mod 7)"
    assert format_congruence(parse("-x + 2y = 1 (mod 7)")) == "-1*x + 2*y ≡ 1 (mod 7)"
    p = ParsedCongruence(("q",), (0,), -4, -9)
    assert format_congruence(p) == "0*q ≡ -4 (mod -9)"
    p = ParsedCongruence(("x",), (1,), 0, 5)
    assert format_congruence(p) == "1*x ≡ 0 (mod 5)"


def test_format_parse_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        p = random_parsed(rng)
        assert parse(format_congruence(p)) == p


# whitespace between tokens, Unicode spaces among it
_GAPS = sampled_from(["", " ", "  ", "\t", "\u00a0", "\u3000"])


@composite
def _written_literals(draw, nonzero=False):
    # (sign, digits, value): a literal as written, with leading zeros and a
    # sign that may be '+', '-' or none, '-0' among them
    sign = draw(sampled_from(["", "+", "-"]))
    value = draw(one_of(integers(min_value=int(nonzero), max_value=99),
                        integers(min_value=1, max_value=10**40)))
    digits = "0" * draw(integers(min_value=0, max_value=3)) + str(value)
    return sign, digits, -value if sign == "-" else value


@composite
def _written_congruences(draw):
    # (text, flags, values, digits): a congruence as written, the --coeffs,
    # --rhs and --mod values that hold its literals, the ints both read as
    # (coefficients, rhs, modulus), and the digits each literal of the text
    # is written with ("" for a coefficient left out, which the flags write 1)
    gap = lambda: draw(_GAPS)  # noqa: E731
    terms, flag_coeffs, values, written = [], [], [], []
    for i in range(draw(integers(min_value=1, max_value=4))):
        sign, digits, value = draw(_written_literals())
        sign = sign or ("+" if i else "")  # a sign starts every term but the first
        if draw(booleans()):  # the coefficient left out: 1, or -1 after '-'
            digits, value = "", -1 if sign == "-" else 1
        star = draw(sampled_from(["", "*"])) if digits else ""
        terms.append(f"{gap()}{sign}{gap()}{digits}{gap()}{star}{gap()}v{i}")
        flag_coeffs.append(f"{gap()}{sign}{gap()}{digits or '1'}{gap()}")
        values.append(value)
        written.append(digits)
    (rhs_sign, rhs, rhs_value), (mod_sign, mod, mod_value) = (
        draw(_written_literals()), draw(_written_literals(nonzero=True)))
    relation = draw(sampled_from(["≡", "="]))
    text = (f"{''.join(terms)}{gap()}{relation}{gap()}{rhs_sign}{gap()}{rhs}{gap()}"
            f"({gap()}mod{gap()}{mod_sign}{gap()}{mod}{gap()}){gap()}")
    flags = (",".join(flag_coeffs), f"{gap()}{rhs_sign}{rhs}{gap()}",
             f"{gap()}{mod_sign}{mod}{gap()}")
    return text, flags, (*values, rhs_value, mod_value), (*written, rhs, mod)


@given(_written_congruences())
@example(("-007v0 + 0v1 - 10*v2 ≡ -00 (mod -0012)", ("-007,0,-10", "-00", "-0012"),
          (-7, 0, -10, 0, -12), ("007", "0", "10", "00", "0012")))
@example(("v0 = +0100 (mod 000009)", ("+1", "+0100", "000009"), (1, 100, 9),
          ("", "0100", "000009")))
def test_a_record_read_from_text_formats_as_one_built_from_its_ints(written):
    # each reader keeps every literal's digits as written, and
    # format_congruence writes from them the bytes that str() writes for the
    # ints: parse and its rule reader alone; the CLI's --coeffs/--rhs/--mod
    # keep no digits, and their record is written by str()
    text, (coeffs, rhs, mod), values, digits = written
    n = len(values) - 2
    built = ParsedCongruence(tuple(f"v{i}" for i in range(n)), values[:-2], *values[-2:])
    flags = SimpleNamespace(expr=None, coeffs=coeffs, rhs=rhs, mod=mod)
    from_flags = lincong.cli._load_instance(flags)[1]
    built_flags = ParsedCongruence(from_flags.variables, values[:-2], *values[-2:])
    for read, want, kept in ((parse(text), built, digits),
                             (lincong.parser._parse_by_rule(text), built, digits),
                             (from_flags, built_flags, None)):
        assert read == want and read.digits == kept and want.digits is None
        assert format_congruence(read) == format_congruence(want)


def test_the_kept_digits_are_no_field_of_the_record():
    # ==, hash, repr and a pickle or copy round trip read the four fields
    # alone; a copy keeps the digits and formats as the original
    parsed = parse("-007x + 0y ≡ -00 (mod 0012)")
    built = ParsedCongruence(("x", "y"), (-7, 0), 0, 12)
    assert "digits" not in ParsedCongruence.__match_args__
    assert parsed.digits == ("007", "0", "00", "0012") and built.digits is None
    for copied in (parsed, pickle.loads(pickle.dumps(parsed)), copy.deepcopy(parsed),
                   copy.copy(parsed)):
        assert copied == built and built == copied and hash(copied) == hash(built)
        assert repr(copied) == repr(built) == "ParsedCongruence(variables=('x', 'y'), " \
            "raw_coeffs=(-7, 0), rhs=0, modulus=12)"
        assert copied.digits == parsed.digits
        assert format_congruence(copied) == format_congruence(built) == "-7*x + 0*y ≡ 0 (mod 12)"
