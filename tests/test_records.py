"""The six frozen records: construction, equality, hashing, repr, immutability, copies."""

import copy
import pickle
import sys
import threading

import pytest

from lincong.core import FrozenRecordError, LinearCongruence, SolveSummary, normalize
from lincong.intmath import (BezoutCertificate, UnaryCongruenceSolution, extended_gcd,
                             solve_unary)
from lincong.oracle import OracleReport
from lincong.parser import ParsedCongruence, parse

REF = normalize([2, -6], 2, 12)  # 2x - 6y ≡ 2 (mod 12)

# (class, field values in order, the exact repr of the record they build)
RECORDS = [
    (LinearCongruence, ((2, 6), 2, 12),
     "LinearCongruence(coeffs=(2, 6), rhs=2, modulus=12)"),
    (SolveSummary, (2, True, 24, 12, 2, (2, 6), (6, 2), (2, 6)),
     "SolveSummary(gcd_all=2, solvable=True, solution_count=24, expansion_count=12, "
     "basis_size=2, gcds=(2, 6), strides=(6, 2), suffix_gcds=(2, 6))"),
    (ParsedCongruence, (("x", "y"), (2, -6), 2, 12),
     "ParsedCongruence(variables=('x', 'y'), raw_coeffs=(2, -6), rhs=2, modulus=12)"),
    (OracleReport, (24, True, True),
     "OracleReport(solution_count=24, agrees_with_summary=True, agrees_with_basis=True)"),
    (BezoutCertificate, (2, (1, 0)),
     "BezoutCertificate(gcd=2, coefficients=(1, 0))"),
    (UnaryCongruenceSolution, (1, 6, 2),
     "UnaryCongruenceSolution(x0=1, step=6, count=2)"),
]
FIELDS = {
    LinearCongruence: ("coeffs", "rhs", "modulus"),
    SolveSummary: ("gcd_all", "solvable", "solution_count", "expansion_count",
                   "basis_size", "gcds", "strides", "suffix_gcds"),
    ParsedCongruence: ("variables", "raw_coeffs", "rhs", "modulus"),
    OracleReport: ("solution_count", "agrees_with_summary", "agrees_with_basis"),
    BezoutCertificate: ("gcd", "coefficients"),
    UnaryCongruenceSolution: ("x0", "step", "count"),
}
# a valid value other than the one in RECORDS, per field
OTHER_VALUES = {
    LinearCongruence: ((2, 5), 3, 13),
    SolveSummary: (3, False, 25, 13, 3, (2, 7), (6, 3), (2, 7)),
    ParsedCongruence: (("x", "z"), (2, -5), 3, 13),
    OracleReport: (25, False, False),
    BezoutCertificate: (3, (1, 1)),
    UnaryCongruenceSolution: (2, 7, 3),
}
ids = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=ids)
def test_positional_and_keyword_construction_agree(cls, values, text):
    fields = FIELDS[cls]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    reversed_keywords = cls(**dict(reversed(list(zip(fields, values)))))
    assert by_position == by_keyword == reversed_keywords
    assert tuple(getattr(by_position, f) for f in fields) == values
    assert cls.__match_args__ == fields
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, values[-1])


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=ids)
def test_repr_bytes(cls, values, text):
    assert repr(cls(*values)) == text
    assert str(cls(*values)) == text


def test_the_records_built_by_the_library_are_the_pinned_ones():
    # the table above is what normalize, summary, parse, verify, extended_gcd
    # and solve_unary produce
    from lincong.oracle import verify
    built = [REF, REF.summary, parse("2x - 6y ≡ 2 (mod 12)"), verify(REF),
             extended_gcd(2, 12), solve_unary(2, 2, 12)]
    assert [repr(r) for r in built] == [text for _, _, text in RECORDS]


def test_a_repr_writes_an_int_past_the_digit_limit_by_its_bit_length():
    # under the default int/str digit limit str() refuses an int of over
    # 4,300 digits: p1 and s here (about 5,700 digits), and a field of such ints
    # in a tuple; repr writes each as the oracle's cap message does
    c = normalize([3] * 20, 0, 10**300 + 7)
    m = 2**15000
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        summary, record = repr(c.summary), repr(LinearCongruence((m - 1, 2), 1, m))
    finally:
        sys.set_int_max_str_digits(limit)
    bits = f"<{c.summary.solution_count.bit_length()}-bit integer>"
    assert summary.startswith(f"SolveSummary(gcd_all=1, solvable=True, solution_count={bits}, "
                              f"expansion_count=1, basis_size={bits}, gcds=(1, 1, ")
    assert record == ("LinearCongruence(coeffs=(<15000-bit integer>, 2), rhs=1, "
                      "modulus=<15001-bit integer>)")


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=ids)
def test_equality_and_hash_read_the_fields(cls, values, text):
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != values and not a == values  # never equal to a plain tuple
    assert values != a
    assert a != object()
    for i, other in enumerate(OTHER_VALUES[cls]):  # each field takes part in ==
        changed = cls(*values[:i], other, *values[i + 1:])
        assert changed != a and not changed == a
    assert len({a, b}) == 1


def test_records_of_different_classes_with_the_same_fields_differ():
    assert LinearCongruence((1,), 0, 2) != ParsedCongruence(("x",), (1,), 0, 2)


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=ids)
def test_assignment_and_deletion_raise_attribute_error(cls, values, text):
    r = cls(*values)
    assert issubclass(FrozenRecordError, AttributeError)
    for name in (*FIELDS[cls], "other"):
        with pytest.raises(FrozenRecordError):
            setattr(r, name, 1)
    for name in FIELDS[cls]:
        with pytest.raises(FrozenRecordError):
            delattr(r, name)
    assert r == cls(*values)
    assert not hasattr(r, "other")


def test_summary_cannot_be_assigned_or_deleted():
    c = normalize([3, 5], 1, 7)
    with pytest.raises(AttributeError):
        c.summary = None
    c.summary
    with pytest.raises(AttributeError):
        del c.summary
    assert c.summary.solvable


@pytest.mark.parametrize("args, message", [
    (((1, 2), 1, 0), "modulus must be >= 1 (use normalize() on raw input)"),
    (((1, 2), 1, -5), "modulus must be >= 1 (use normalize() on raw input)"),
    (((), 0, 5), "at least one coefficient is required"),
    (((1, 5), 1, 5), "coefficients must be reduced into [0, modulus)"),
    (((-1, 2), 1, 5), "coefficients must be reduced into [0, modulus)"),
    (((1, 2), 5, 5), "rhs must be reduced into [0, modulus)"),
    (((1, 2), -1, 5), "rhs must be reduced into [0, modulus)"),
    (((1, 2.0), 1, 5), "coefficients, rhs and modulus must be integers"),
    (((1, 2), "1", 5), "coefficients, rhs and modulus must be integers"),
    (((1, 2), 1, 5.0), "coefficients, rhs and modulus must be integers"),
    (((), 0, 0), "modulus must be >= 1 (use normalize() on raw input)"),
    (((7,), 9, 0.5), "coefficients, rhs and modulus must be integers"),
])
def test_linear_congruence_validation_messages(args, message):
    with pytest.raises(ValueError) as info:
        LinearCongruence(*args)
    assert str(info.value) == message


def test_linear_congruence_stores_coefficients_as_a_tuple():
    c = LinearCongruence([2, 6], 2, 12)
    assert c.coeffs == (2, 6) and type(c.coeffs) is tuple
    assert c == REF
    assert LinearCongruence(iter([2, 6]), 2, 12) == REF


@pytest.mark.parametrize("args, message", [
    (((), (), 1, 5), "at least one variable is required"),
    ((("x",), (1, 2), 1, 5), "variables and coefficients must have equal length"),
    ((("x", "y"), (1,), 1, 5), "variables and coefficients must have equal length"),
    ((("x", "x"), (1, 2), 1, 5), "variables must be pairwise distinct"),
])
def test_parsed_congruence_validation_messages(args, message):
    with pytest.raises(ValueError) as info:
        ParsedCongruence(*args)
    assert str(info.value) == message


def test_summary_is_computed_once_and_stays_out_of_equality():
    c, fresh = normalize([4, 6, 10], 2, 12), normalize([4, 6, 10], 2, 12)
    s = c.summary
    assert c.summary is s
    assert "summary" in vars(c) and "summary" not in vars(fresh)
    assert c == fresh and fresh == c
    assert hash(c) == hash(fresh)
    assert repr(c) == repr(fresh) == "LinearCongruence(coeffs=(4, 6, 10), rhs=2, modulus=12)"
    assert c.summary == fresh.summary and c.summary is not fresh.summary
    assert LinearCongruence.summary.__doc__.startswith("Derive the record, once, on first use")


def test_match_on_match_args():
    def shape(record):
        match record:
            case LinearCongruence((a,), b, m):
                return f"unary {a}x = {b} mod {m}"
            case LinearCongruence(coeffs, rhs=0):
                return f"homogeneous in {len(coeffs)}"
            case ParsedCongruence(names, _, _, modulus) if modulus < 0:
                return f"negative modulus over {names}"
            case SolveSummary(d, False):
                return f"unsolvable, d = {d}"
            case OracleReport(count, True, True):
                return f"agrees on {count}"
            case BezoutCertificate(1, (u, v)):
                return f"coprime, {u} and {v}"
            case UnaryCongruenceSolution(x0, count=1):
                return f"unique, x = {x0}"
        return "other"

    assert shape(LinearCongruence((3,), 1, 7)) == "unary 3x = 1 mod 7"
    assert shape(LinearCongruence((3, 4), 0, 7)) == "homogeneous in 2"
    assert shape(LinearCongruence((3, 4), 1, 7)) == "other"
    assert shape(parse("x + y = 1 (mod -4)")) == "negative modulus over ('x', 'y')"
    assert shape(normalize([2, 4], 1, 6).summary) == "unsolvable, d = 2"
    assert shape(OracleReport(24, True, True)) == "agrees on 24"
    assert shape(OracleReport(24, True, False)) == "other"
    assert shape(extended_gcd(3, 7)) == "coprime, -2 and 1"
    assert shape(extended_gcd(2, 12)) == "other"
    assert shape(solve_unary(3, 1, 7)) == "unique, x = 5"
    assert shape(solve_unary(2, 2, 12)) == "other"


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=ids)
def test_pickle_and_deepcopy_round_trips(cls, values, text):
    r = cls(*values)
    for copied in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r), copy.copy(r)):
        assert type(copied) is cls
        assert copied == r and hash(copied) == hash(r)
        assert repr(copied) == text
        with pytest.raises(AttributeError):
            setattr(copied, FIELDS[cls][0], values[0])


def test_round_trips_keep_a_cached_summary_working():
    c = normalize([4, 6, 10], 2, 12)
    c.summary
    for copied in (pickle.loads(pickle.dumps(c)), copy.deepcopy(c)):
        assert copied == c and hash(copied) == hash(c)
        assert copied.summary == c.summary
    fresh = pickle.loads(pickle.dumps(normalize([4, 6, 10], 2, 12)))
    assert "summary" not in vars(fresh)
    assert fresh.summary == c.summary


R300 = 10**298 + 3


def _unbuilt_summary(args):
    # a fresh summary, whose p1 and s are left to their first read
    s = normalize(*args).summary
    assert not {"solution_count", "basis_size"} & vars(s).keys()
    return s


def test_a_summary_built_on_first_read_reads_as_one_built_whole():
    # a short instance, and 12 unknowns mod a modulus of 300 digits, whose p1
    # has about 3,300 digits: (normalize's arguments, m**(n - 1))
    for args, m_power in ((([2, -6], 2, 12), 12),
                          (([30 * pow(7, 100 + i, R300) for i in range(12)], 420, 30 * R300),
                           (30 * R300) ** 11)):
        built = SolveSummary(*(getattr(_unbuilt_summary(args), name)
                               for name in FIELDS[SolveSummary]))
        assert {"solution_count", "basis_size"} <= vars(built).keys()
        assert _unbuilt_summary(args) == built and built == _unbuilt_summary(args)
        assert hash(_unbuilt_summary(args)) == hash(built)
        assert repr(_unbuilt_summary(args)) == repr(built)
        for copy_of in (lambda s: pickle.loads(pickle.dumps(s)), copy.copy, copy.deepcopy):
            copied = copy_of(_unbuilt_summary(args))
            assert not {"solution_count", "basis_size"} & vars(copied).keys()
            assert copied == built and hash(copied) == hash(built)
        s = _unbuilt_summary(args)
        assert s.basis_size * s.expansion_count == s.solution_count
        assert s.solution_count == s.gcd_all * m_power
        assert {"solution_count", "basis_size"} <= vars(s).keys()
        with pytest.raises(FrozenRecordError):
            s.solution_count = 1


def test_counts_built_on_first_read_check_their_division():
    # a summary that no instance has, whose p2 does not divide p1
    s = SolveSummary._of(gcd_all=1, solvable=True, expansion_count=7, gcds=(7,), strides=(2,),
                         suffix_gcds=(1,))
    with pytest.raises(ArithmeticError, match="inexact division 1 / 7; this is a bug"):
        s.basis_size


def test_threads_that_build_one_summary_at_once_read_equal_values():
    # the first read of c.summary, and of its p1 and s, takes no lock: threads
    # that read them at once may each build them, and all read equal values,
    # which later reads keep.  A switch interval of 1 us lets a thread be
    # preempted inside a build
    args = ([30 * pow(7, 100 + i, R300) for i in range(12)], 420, 30 * R300)
    want = _unbuilt_summary(args)
    want = (want, want.solution_count, want.basis_size)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            c, got = normalize(*args), []
            start = threading.Barrier(8)

            def read():
                start.wait(timeout=10)
                s = c.summary
                got.append((s, s.solution_count, s.basis_size))

            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert got == [want] * 8
            assert c.summary is c.summary and c.summary == want[0]
    finally:
        sys.setswitchinterval(interval)
