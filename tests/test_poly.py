"""Sparse multivariate polynomials: parsing, arithmetic, graded-lex order."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfann import poly
from mfann.fields import PrimeField, Rationals
from mfann.poly import (
    MonomialBox,
    Polynomial,
    grlex_key,
    grlex_keys,
    mono_deg,
    mono_mul,
    monomials_below,
    monomials_upto,
    parse_poly,
)

F13 = PrimeField(13, 5)
VARS = ("x", "y")


def P(text, field=F13, variables=VARS):
    return parse_poly(text, variables, field)


def test_parse_and_format_round_trip():
    for text in ("x^2 + y", "3*x*y - 2", "x^2*y - x*y^2 + 1", "-x", "0"):
        p = P(text)
        assert P(p.format(VARS)) == p


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        P("x + $")
    with pytest.raises(ValueError):
        P("w + 1")


def test_arithmetic():
    x, y = P("x"), P("y")
    assert (x + y) * (x - y) == P("x^2 - y^2")
    assert (x + y) ** 2 == P("x^2 + 2*x*y + y^2")
    assert x - x == Polynomial.zero(F13, 2)
    assert (x * y).degree() == 2


def test_degree_and_min_degree():
    p = P("x^3 + x*y")
    assert p.degree() == 3
    assert p.min_degree() == 2
    assert Polynomial.zero(F13, 2).degree() == -1


def test_truncate():
    p = P("1 + x + x^2 + x^3")
    assert p.truncate(2) == P("1 + x")
    assert p.truncate(0).is_zero


def test_extend():
    p = P("x + y")
    q = p.extend(3)
    assert q.nvars == 3
    assert q == parse_poly("x + y", ("x", "y", "z"), F13)


def test_grlex_order():
    # degree first, then lex with x > y
    x2 = (2, 0)
    xy = (1, 1)
    y3 = (0, 3)
    assert grlex_key(xy) < grlex_key(x2)  # same degree, x^2 larger
    assert grlex_key(x2) < grlex_key(y3)  # lower degree first
    assert mono_mul(x2, xy) == (3, 1)
    assert mono_deg(y3) == 3


def test_monomial_enumeration():
    below = monomials_below(2, 3)
    assert len(below) == 6  # 1, y, x, y^2, xy, x^2
    assert below == sorted(below, key=grlex_key)
    upto = monomials_upto(3, 2)
    assert len(upto) == 10


def test_rational_coefficients():
    q = Rationals()
    p = parse_poly("x^2 - 1", VARS, q)
    half = Polynomial.constant(q, 2, q.div(q.one, q.coerce(2)))
    assert (p * half) + (p * half) == p


coeffs = st.integers(0, 12)
monos = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(monos, coeffs, max_size=5).map(
    lambda d: Polynomial(F13, 2, {m: c for m, c in d.items() if c})
)


@given(polys, polys)
def test_add_sub_cancels(p, q):
    assert (p + q) - q == p


@given(polys, polys)
def test_degree_multiplicative(p, q):
    if p.is_zero or q.is_zero:
        assert (p * q).is_zero
    else:
        assert (p * q).degree() == p.degree() + q.degree()


@given(polys, polys, polys)
def test_mul_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


def rational_polys():
    fractions = st.fractions(max_denominator=5).filter(bool).map(Rationals().coerce)
    return st.dictionaries(monos, fractions, max_size=5).map(
        lambda d: Polynomial(Rationals(), 2, d))


@pytest.mark.parametrize("strategy", [polys, rational_polys()], ids=["F13", "Q"])
@settings(max_examples=60)
@given(data=st.data())
def test_monomial_box_multiples_are_products(strategy, data):
    p, q = data.draw(strategy), data.draw(strategy)
    box = MonomialBox(2, max(p.degree() + 2, q.degree(), 2) + 1)
    shifts = monomials_upto(2, 2)
    assert box.monos[:len(shifts)] == shifts  # a prefix of the box
    rows = box.multiples(p, 2, p.field)
    assert rows.shape == (len(shifts), box.dim)
    for row, m in zip(rows, shifts):
        assert np.array_equal(row, box.vector(p * Polynomial.from_monomial(p.field, m), p.field))
    # coordinates ascend in graded-lex order
    v = box.vector(q, q.field)
    assert v[v != 0].tolist() == [c for _m, c in q.sorted_terms(reverse=False)]


def test_monomial_box_rejects_what_it_cannot_hold():
    x, y = P("x"), P("y")
    box = MonomialBox(2, 3)  # 1, y, x, y^2, x*y, x^2
    assert box.vector(P("x^2 + 2*x*y"), F13).tolist() == [0, 0, 0, 0, 2, 1]
    with pytest.raises(ValueError):
        box.vector(P("y^3"), F13)
    assert box.locate(np.array([0]), np.array([3])).tolist() == [box.dim]
    with pytest.raises(ValueError):
        box.multiples(x, 2, F13)
    assert box.multiples(y, 1, F13).shape == (3, box.dim)
    # An exponent past the box forms no key: with base 4 the key of x^e is
    # 5e, which wraps in int64 for x^(2 + 2^62), but only its degree is read.
    line = MonomialBox(1, 2)
    huge = Polynomial.variable(F13, 1, 0, power=2 + 2**62)
    assert line.vector(Polynomial.variable(F13, 1, 0), F13) is not None
    with pytest.raises(ValueError):
        line.vector(huge, F13)
    with pytest.raises(ValueError):
        line.multiples(huge, 0, F13)
    # at most MAX_BOX monomials, counted before any is listed: 19,900 below
    # degree 199 in two variables, 20,100 below degree 200
    assert MonomialBox(2, 199).dim == 19_900 <= poly.MAX_BOX < 20_100
    with pytest.raises(ValueError, match="more than 20000"):
        MonomialBox(2, 200)


def largest_key_base(k):
    """The largest base whose keys for k variables fit in int64."""
    lo, hi = 2, 2**32
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if k * (mid - 1) * mid**k + mid**k - 1 <= 2**63 - 1:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_grlex_keys_never_wrap(k):
    base = largest_key_base(k)
    top = np.full((1, k), base - 1, dtype=np.int64)
    # the largest key still fits and equals its value over Python ints
    expected = k * (base - 1) * base**k + base**k - 1
    assert int(grlex_keys(top, base)[0]) == expected
    with pytest.raises(ValueError, match="overflow"):
        grlex_keys(top, base + 1)


def test_monomial_box_rejects_keys_past_int64(monkeypatch):
    # three variables below degree 60001 need graded-lex keys beyond int64;
    # the bound is checked before any monomial is listed
    def unlisted(*_args):
        raise AssertionError("listed monomials before checking the key bound")

    monkeypatch.setattr(poly, "monomials_below", unlisted)
    with pytest.raises(ValueError, match="overflow"):
        MonomialBox(3, 60001)
