"""Coefficient field arithmetic: F_p and the rationals, all exact."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mfann.fields import (
    FieldError,
    PrimeField,
    Rationals,
    default_field,
    field_from_config,
    field_to_config,
    parse_field_flag,
)

F13 = PrimeField(13, 5)
QQ = Rationals()


def test_prime_field_basics():
    assert F13.add(7, 9) == 3
    assert F13.mul(7, 9) == 63 % 13
    assert F13.neg(0) == 0
    assert F13.sub(3, 7) == 9
    for a in range(1, 13):
        assert F13.mul(a, F13.inv(a)) == 1


def test_prime_field_rejects_composite_and_two():
    with pytest.raises(FieldError):
        PrimeField(12)
    with pytest.raises(FieldError):
        PrimeField(2)


def test_prime_field_rejects_int64_unsafe_primes():
    assert PrimeField(2**31 - 1).p == 2147483647
    with pytest.raises(FieldError):
        PrimeField(2147483659)  # the first prime above 2^31
    with pytest.raises(FieldError):
        PrimeField(10**19 + 1)  # rejected by the bound, before any primality test


def test_imaginary_unit_validated():
    assert PrimeField(13, 5).imaginary_unit == 5
    assert PrimeField(13, 8).imaginary_unit == 8  # the other root
    with pytest.raises(FieldError):
        PrimeField(13, 2)
    # 7 = 3 mod 4: no square root of -1 exists, and none is configured
    assert PrimeField(7).imaginary_unit is None


def test_zero_has_no_inverse():
    with pytest.raises(FieldError):
        F13.inv(0)
    with pytest.raises(FieldError):
        QQ.inv(Fraction(0))


def test_rationals_exact():
    a = QQ.div(QQ.one, QQ.coerce(3))
    assert a == Fraction(1, 3)
    assert QQ.add(a, a) == Fraction(2, 3)
    assert QQ.mul(a, QQ.coerce(3)) == 1


def test_default_field():
    f = default_field()
    assert f.p == 13 and f.imaginary_unit == 5


def test_config_round_trip():
    for field in (F13, QQ, PrimeField(7)):
        assert field_from_config(field_to_config(field)).kind == field.kind
    back = field_from_config(field_to_config(F13))
    assert back.p == 13 and back.imaginary_unit == 5


def test_parse_field_flag():
    f = parse_field_flag("fp:13")
    assert f.p == 13
    assert parse_field_flag("q").kind == "rationals"
    with pytest.raises(FieldError):
        parse_field_flag("fp:abc")
    with pytest.raises(FieldError):
        parse_field_flag("r64")
    assert parse_field_flag(" FP:13:i=8 ").imaginary_unit == 8
    assert parse_field_flag("fp:13").imaginary_unit == 5
    assert parse_field_flag("fp:17").imaginary_unit is None
    # an unknown part, a second i=, and anything int() takes beyond a plain
    # decimal literal (underscores, inner spaces, signs, other scripts' digits)
    for flag in ("fp:13:bogus", "fp:13:i=5:i=8", "fp:13:i=5:", "fp:1_3", "fp: 13",
                 "fp:1 3", "fp:+13", "fp:13:i=_5", "fp:13:i= 5", "fp:13:i=", "fp:",
                 "fp:١٣", "fp13"):
        with pytest.raises(FieldError):
            parse_field_flag(flag)


@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12))
def test_field_axioms_f13(a, b, c):
    assert F13.add(a, b) == F13.add(b, a)
    assert F13.mul(a, b) == F13.mul(b, a)
    assert F13.add(F13.add(a, b), c) == F13.add(a, F13.add(b, c))
    assert F13.mul(a, F13.add(b, c)) == F13.add(F13.mul(a, b), F13.mul(a, c))
    assert F13.add(a, F13.neg(a)) == 0
    if b != 0:
        assert F13.mul(F13.div(a, b), b) == a
