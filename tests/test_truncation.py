"""Truncated local algebras k[vars]/((f) + m^N): dimensions and reduction.

Dimension values are frozen from an independent in-test oracle: count
monomials of degree < N and subtract the rank of the relation matrix
{u * f truncated below N}, computed here by plain fraction-free Gaussian
elimination over Q, not by the package's own row reduction.  The basis,
the reduction of every monomial and the order of the triplets are checked
against a plain Gauss-Jordan elimination on dicts in field arithmetic.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfann.fields import PrimeField, Rationals
from mfann.mf import RING_IDS, ring_spec
from mfann.poly import Polynomial, grlex_key, mono_mul, monomials_below, parse_poly
from mfann.ideals import IdealSpec, extract_generators, truncate_ideal
from mfann.truncation import RingSpec, SpecError, TruncatedAlgebra, build_truncation, gradings

F13 = PrimeField(13, 5)
FIELDS = {"F13": F13, "F_2^31-1": PrimeField(2**31 - 1), "Q": Rationals()}


def ring(variables, f_text, field=F13):
    return RingSpec(tuple(variables), parse_poly(f_text, variables, field), field)


def oracle_dim(variables, f_text, N):
    """Independent quotient-dimension count over Q."""
    field = Rationals()
    f = parse_poly(f_text, variables, field)
    nvars = len(variables)
    monos = monomials_below(nvars, N)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for u in monos:
        prod = (Polynomial.from_monomial(field, u) * f).truncate(N)
        if prod.is_zero:
            continue
        row = [Fraction(0)] * len(monos)
        for m, c in prod.terms.items():
            row[index[m]] = c
        rows.append(row)
    # plain Gaussian elimination for the rank
    rank = 0
    col = 0
    while rows and col < len(monos):
        piv = next((i for i, r in enumerate(rows) if r[col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[0], rows[piv] = rows[piv], rows[0]
        head = rows.pop(0)
        inv = 1 / head[col]
        head = [v * inv for v in head]
        rows = [
            [a - r[col] * b for a, b in zip(r, head)] if r[col] != 0 else r
            for r in rows
        ]
        rank += 1
        col += 1
    return len(monos) - rank


RINGS = {
    "xx": (("x", "y"), "x^2"),
    "xxzz": (("x", "y", "z"), "x^2+z^2"),
    "xxy": (("x", "y"), "x^2*y"),
    "xxyzz": (("x", "y", "z"), "x^2*y+z^2"),
}


@pytest.mark.parametrize("key", sorted(RINGS))
@pytest.mark.parametrize("N", [3, 5, 8])
def test_dimension_matches_oracle(key, N):
    variables, f_text = RINGS[key]
    algebra = build_truncation(ring(variables, f_text), N)
    assert algebra.dim == oracle_dim(variables, f_text, N)


def test_dimension_values_frozen():
    # oracle outputs, frozen
    assert build_truncation(ring(("x", "y"), "x^2"), 10).dim == 19
    assert build_truncation(ring(("x", "y", "z"), "x^2*y+z^2"), 10).dim == 100
    assert build_truncation(ring(("x", "y"), "x^2*y"), 4).dim == 9


def test_double_point_dimension_closed_form():
    # k[x, y]/(x^2, m^N) has basis 1, y, .., y^(N-1), x, xy, .., xy^(N-2)
    for N in range(3, 13):
        assert build_truncation(ring(("x", "y"), "x^2"), N).dim == 2 * N - 1


def test_standard_monomial_basis():
    algebra = build_truncation(ring(("x", "y"), "x^2"), 3)
    names = [Polynomial.from_monomial(F13, m).format(("x", "y")) for m in algebra.basis]
    assert names == ["1", "y", "x", "y^2", "x*y"]
    assert algebra.basis == sorted(algebra.basis, key=grlex_key)


def test_reduce_examples():
    spec = ring(("x", "y"), "x^2")
    algebra = build_truncation(spec, 5)
    assert all(v == 0 for v in algebra.reduce(spec.poly("x^2")))
    assert all(v == 0 for v in algebra.reduce(spec.poly("x^2*y + y^5")))
    v = algebra.reduce(spec.poly("x^2 + x*y"))
    assert algebra.lift(v) == spec.poly("x*y")


def test_reduce_is_linear_and_multiplicative_mod_relations():
    spec = ring(("x", "y"), "x^2*y")
    algebra = build_truncation(spec, 6)
    p, q = spec.poly("x + y^2"), spec.poly("x*y - 3")
    pv = algebra.reduce(p * q)
    qv = algebra.multiples(p).T @ algebra.reduce(q) % 13
    assert pv.tolist() == qv.tolist()
    assert algebra.reduce(p + q).tolist() == ((algebra.reduce(p) + algebra.reduce(q)) % 13).tolist()


def test_multiplication_operator_columns():
    spec = ring(("x", "y"), "x^2")
    algebra = build_truncation(spec, 4)
    p = spec.poly("x + y")
    M = algebra.multiples(p).T  # the matrix of multiplication by p
    for j, b in enumerate(algebra.basis):
        col = [M[i][j] for i in range(algebra.dim)]
        direct = algebra.reduce(p * Polynomial.from_monomial(F13, b))
        assert col == direct.tolist()


def test_projection_compatibility():
    spec = ring(("x", "y"), "x^2*y")
    big = build_truncation(spec, 7)
    small = build_truncation(spec, 5)
    p = spec.poly("1 + x*y + y^4 + y^6")
    assert small.reduce(big.lift(big.reduce(p))).tolist() == small.reduce(p).tolist()


def test_reduce_rejects_a_polynomial_over_another_ring():
    algebra = build_truncation(ring(("x", "y"), "x^2"), 5)
    # read mod 13, x + 13y over F_17 would be x
    for p in (parse_poly("x + 13*y", ("x", "y"), PrimeField(17)),
              parse_poly("x + y + z", ("x", "y", "z"), F13)):
        with pytest.raises(SpecError, match="not over the ring"):
            algebra.reduce(p)
        with pytest.raises(SpecError, match="not over the ring"):
            algebra.multiples(p)


def test_spec_validation():
    with pytest.raises(SpecError):
        ring(("x", "y"), "0")
    with pytest.raises(SpecError):
        ring(("x", "y"), "x")  # min degree < 2
    with pytest.raises(ValueError):
        build_truncation(ring(("x", "y"), "x^2"), 0)


def test_rational_field_truncation():
    spec = ring(("x", "y"), "x^2", Rationals())
    algebra = build_truncation(spec, 6)
    assert algebra.dim == 11


def exact(A, field):
    """A as an object array of Python ints or Fractions, so that products
    below are exact and independent of the package's linear algebra."""
    A = np.array(np.asarray(A).tolist(), dtype=object)
    return A % field.p if field.is_prime else A


def same(A, B, field):
    return np.array_equal(exact(A, field), exact(B, field))


# (variables, f, largest N drawn); in both rings the leading term of f reduces
# to minus the other term, so the terms of a product often add on one entry
OPERAND_RINGS = [(("x", "y"), "x^2+y^2", 8), (("x", "y", "z"), "x^2*y+z^2", 5)]


@st.composite
def operands(draw, field):
    """An algebra R_N, a scalar other than 0 and +-1, and two polynomials
    with 0 to dim(R_N) terms each, some of degree >= N, with coefficients
    that are mostly not +-1."""
    variables, f_text, n_max = draw(st.sampled_from(OPERAND_RINGS))
    N = draw(st.integers(1, n_max))
    algebra = build_truncation(ring(variables, f_text, field), N)
    monos = monomials_below(len(variables), N + 2)
    if field.is_prime:
        coeff = st.integers(-(2**40), 2**40)
    else:
        coeff = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 9))
    coeff = coeff.map(field.coerce)

    def poly():
        ms = draw(st.lists(st.sampled_from(monos), max_size=algebra.dim, unique=True))
        return Polynomial(field, len(variables), {m: draw(coeff) for m in ms})

    units = (field.zero, field.one, field.neg(field.one))
    return algebra, draw(coeff.filter(lambda c: c not in units)), poly(), poly()


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_multiplication_operator_is_a_ring_map(name, data):
    field = FIELDS[name]
    algebra, c, p, q = data.draw(operands(field))
    d, nvars = algebra.dim, algebra.spec.nvars

    def operator(x):  # the matrix of multiplication by x
        return algebra.multiples(x).T

    Mp = exact(operator(p), field)
    Mq = exact(operator(q), field)
    assert Mp.shape == (d, d)
    assert same(operator(Polynomial.one(field, nvars)),
                np.eye(d, dtype=np.int64), field)
    assert same(operator(Polynomial.zero(field, nvars)),
                np.zeros((d, d), dtype=np.int64), field)
    cp = Polynomial.constant(field, nvars, c) * p
    assert same(operator(cp), c * Mp, field)
    assert same(operator(p + q), Mp + Mq, field)
    assert same(operator(p * q), Mp @ Mq, field)
    assert same(Mp @ exact(algebra.reduce(q), field), algebra.reduce(p * q), field)
    assert same(Mp[:, 0], algebra.reduce(p), field)  # basis[0] is the monomial 1
    # f p is zero in R_N, though each term of f times a term of p is not
    fp = algebra.spec.f * p
    assert same(operator(fp), np.zeros((d, d), dtype=np.int64), field)
    assert same(algebra.reduce(fp), np.zeros(d, dtype=np.int64), field)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_results_never_alias_the_table(name):
    field = FIELDS[name]
    spec = ring(("x", "y", "z"), "x^2*y+z^2", field)
    algebra = build_truncation(spec, 5)
    table = [a.copy() for a in (algebra.indptr, algebra.cols, algebra.vals)]
    p = spec.poly("x + y^2 + 1")
    M, v = algebra.multiples(p), algebra.reduce(p)
    expected_M, expected_v = M.copy(), v.copy()
    for x in (spec.poly("1"), spec.poly("y"), p):
        algebra.multiples(x)[:] = field.coerce(7)
        algebra.reduce(x)[:] = field.coerce(7)
    M[:] = field.coerce(7)
    v[:] = field.coerce(7)
    assert all(np.array_equal(a, b) for a, b in zip(
        (algebra.indptr, algebra.cols, algebra.vals), table))
    assert np.array_equal(algebra.multiples(p), expected_M)
    assert np.array_equal(algebra.reduce(p), expected_v)


@pytest.mark.parametrize("name", list(FIELDS))
def test_memoized_triplets_are_read_only_and_stay_fresh(name):
    field = FIELDS[name]
    spec = ring(("x", "y", "z"), "x^2*y+z^2", field)
    algebra = build_truncation(spec, 5)
    polys = [spec.poly(t) for t in ("1", "y", "x + y^2 + 1", "2*x*z - y^3", "z^4 + x")]
    for _ in range(2):  # every call after the first is served from the memo
        for p in polys:
            for count in (None, 1, 3):
                for a in algebra.triplets(p, count):
                    with pytest.raises(ValueError):
                        a[:1] = 0
            algebra.multiples(p)[:] = field.coerce(7)
            algebra.reduce(p)[:] = field.coerce(7)
        space = truncate_ideal(IdealSpec(spec, tuple(polys[1:3])), algebra)
        assert extract_generators(space, algebra)
    for p in polys:  # each against the first call on a fresh algebra
        for count in (None, 1, 3):
            assert all(np.array_equal(a, b) for a, b in zip(
                algebra.triplets(p, count), TruncatedAlgebra(spec, 5).triplets(p, count),
                strict=True))
        assert np.array_equal(algebra.multiples(p), TruncatedAlgebra(spec, 5).multiples(p))
        assert np.array_equal(algebra.reduce(p), TruncatedAlgebra(spec, 5).reduce(p))


def reference_truncation(spec, N):
    """(basis, reductions) of R_N by plain Gauss-Jordan elimination of the
    relations u * f truncated below degree N, in field arithmetic on dicts,
    the columns in descending graded-lex order: the standard monomials,
    ascending, and the coordinates of every monomial of degree < N."""
    field = spec.field
    monos = monomials_below(spec.nvars, N)[::-1]
    reduced = {}  # pivot column -> its reduced row, {column: value}

    def minus(row, c, other):  # row - c * other, zeros dropped
        out = dict(row)
        for k, v in other.items():
            out[k] = field.sub(out.get(k, field.zero), field.mul(c, v))
        return {k: v for k, v in out.items() if v != field.zero}

    for u in monos:
        prod = (Polynomial.from_monomial(field, u) * spec.f).truncate(N)
        row = {monos.index(m): c for m, c in prod.terms.items()}
        for pivot, other in reduced.items():
            if pivot in row:
                row = minus(row, row[pivot], other)
        if row:
            pivot = min(row)  # the largest monomial
            inv = field.inv(row[pivot])
            row = {k: field.mul(v, inv) for k, v in row.items()}
            reduced = {p: minus(r, r[pivot], row) if pivot in r else r
                       for p, r in reduced.items()}
            reduced[pivot] = row
    basis = sorted((m for k, m in enumerate(monos) if k not in reduced), key=grlex_key)
    reductions = {}
    for k, m in enumerate(monos):
        row = reduced.get(k, {})
        reductions[m] = [field.one if b == m else field.neg(row.get(monos.index(b), field.zero))
                         for b in basis]
    return basis, reductions


# the four catalog rings, each graded by two weights, and an f with no
# grading, whose relations are reduced as one block
ORACLE_RINGS = list(RING_IDS) + ["x^2+y^3+x*y^2"]


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("key", ORACLE_RINGS)
def test_reduction_table_matches_plain_elimination(name, key):
    field = FIELDS[name]
    spec = ring_spec(key, field) if key in RING_IDS else ring(("x", "y"), key, field)
    assert len(gradings(spec.f)) == (2 if key in RING_IDS else 0)
    for N in (1, 2, 7):
        algebra = build_truncation(spec, N)
        basis, reductions = reference_truncation(spec, N)
        assert algebra.basis == basis
        rows = algebra.reductions(np.arange(algebra.box.dim))
        for m, row in zip(algebra.box.monos, rows):
            assert row.tolist() == reductions[m]
            assert algebra.reduce(Polynomial.from_monomial(field, m)).tolist() == reductions[m]
        # the triplets of p come term by term, then by multiplier, then by column
        p = Polynomial(field, spec.nvars, {m: field.coerce(k + 1) for k, m in
                                           enumerate(monomials_below(spec.nvars, 3))})
        expected = [(j, i, field.mul(c, v)) for m, c in p.terms.items() if sum(m) < N
                    for j, b in enumerate(basis) if sum(m) + sum(b) < N
                    for i, v in enumerate(reductions[mono_mul(m, b)]) if v != field.zero]
        assert list(zip(*algebra.triplets(p))) == expected


def test_reduction_table_stores_only_its_nonzeros():
    # R_24 of a-inf-2: 2,600 nonzeros among the 2,601 x 576 entries of a
    # dense table, which would take 12 MB
    algebra = build_truncation(ring_spec("a-inf-2", F13), 24)
    assert (algebra.box.dim, algebra.dim, algebra.vals.size) == (2600, 576, 2600)
    arrays = [a for obj in (algebra, algebra.box) for a in vars(obj).values()
              if isinstance(a, np.ndarray)]
    assert sum(a.nbytes for a in arrays) < 200_000
