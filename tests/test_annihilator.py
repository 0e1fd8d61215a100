"""Annihilator engine: truncated solves, witness certificates, statuses.

The truncated annihilator is cross-checked against a dense oracle that
follows the definition directly: build the image of (alpha, beta) |->
phi*alpha + beta*psi inside (R_N)^(n x n) one unit coordinate at a time,
then pull back the diagonal embedding r |-> r*I.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfann import annihilator
from mfann.annihilator import (
    Witness,
    annihilate,
    annihilator_truncated,
    membership_truncated,
    row_col_bound,
    witness_search,
)
from mfann.fields import InvariantError, PrimeField, Rationals, SpecError
from mfann.ideals import IdealSpec, ideal_subspace_from_vectors, truncate_ideal
from mfann.linalg import Subspace, as_array, dot
from mfann.mf import catalog, catalog_labels, ring_spec, swap
from mfann.poly import Polynomial, parse_poly
from mfann.truncation import build_truncation
from test_linalg import reference_rref

F13 = PrimeField(13, 5)
QQ = Rationals()


def dense_annihilator_oracle(mf, N):
    """Definition-following computation of the truncated annihilator."""
    algebra = build_truncation(mf.spec, N)
    field = algebra.field
    n, d = mf.n, algebra.dim
    amb = n * n * d

    def place(entry_vec, i, j):
        v = [field.zero] * amb
        v[(i * n + j) * d:(i * n + j) * d + d] = entry_vec
        return v

    gens = []
    for k in range(n):
        for l in range(n):
            for b in algebra.basis:
                bp = Polynomial.from_monomial(field, b)
                # alpha with a single entry b at (k, l): contributes phi[:, k] * b in column l
                v = [field.zero] * amb
                for i in range(n):
                    ent = algebra.reduce(mf.phi[i][k] * bp)
                    for t, c in enumerate(ent):
                        v[(i * n + l) * d + t] = c
                gens.append(v)
                # beta with a single entry b at (k, l): contributes b * psi[l, :] in row k
                v = [field.zero] * amb
                for j in range(n):
                    ent = algebra.reduce(mf.psi[l][j] * bp)
                    for t, c in enumerate(ent):
                        v[(k * n + j) * d + t] = c
                gens.append(v)
    image = Subspace.from_vectors(field, amb, gens)
    # columns of the diagonal embedding r |-> vec(r * I)
    embed = [[field.zero] * d for _ in range(amb)]
    for col, b in enumerate(algebra.basis):
        ent = algebra.reduce(Polynomial.from_monomial(field, b))
        for i in range(n):
            for t, c in enumerate(ent):
                embed[(i * n + i) * d + t][col] = c
    # pull back: r with embed r in the image, the null space of E embed for
    # functionals E that cut out the image
    pulled = dot(image.complement_functionals(), as_array(embed, field), field)
    return Subspace.from_vectors(field, d, Subspace.from_vectors(
        field, d, pulled).complement_functionals())


ORACLE_CASES = [
    ("a-inf-1", "phi", 2, 5),
    ("a-inf-1", "R/xR", None, 6),
    ("d-inf-1", "gamma", 1, 5),
    ("d-inf-1", "alpha", 2, 5),
    ("a-inf-2", "psi+", 1, 4),
]


@pytest.mark.parametrize("ring_id,label,n,N", ORACLE_CASES)
def test_truncated_annihilator_matches_dense_oracle(ring_id, label, n, N):
    mf = catalog(ring_id, label, n, F13).mf
    assert annihilator_truncated(mf, N) == dense_annihilator_oracle(mf, N)


def derivative(p, i):
    """The partial derivative of p in variable i, from its terms."""
    field = p.field
    terms = {}
    for m, c in p.terms.items():
        if m[i]:
            terms[m[:i] + (m[i] - 1,) + m[i + 1:]] = field.mul(field.coerce(m[i]), c)
    return Polynomial(field, p.nvars, terms)


def derivative_matrix(mat, i):
    return tuple(tuple(derivative(e, i) for e in row) for row in mat)


# a-inf-2 needs a square root of -1, which Q lacks
JACOBIAN_CASES = [(field, ring_id) for field in (F13, QQ)
                  for ring_id in ("a-inf-1", "a-inf-2", "d-inf-1", "d-inf-2")
                  if field.is_prime or ring_id != "a-inf-2"]


@pytest.mark.parametrize("field,ring_id", JACOBIAN_CASES,
                         ids=[f"{'F13' if f.is_prime else 'Q'}-{r}" for f, r in JACOBIAN_CASES])
def test_jacobian_ideal_annihilates(field, ring_id):
    # phi psi = f I gives d_i(phi) psi + phi d_i(psi) = d_i(f) I: a witness
    # (alpha, beta, gamma) = (d_i psi, d_i phi, 0) for d_i f, checked by
    # polynomial arithmetic alone, so d_i f must lie in the truncated
    # annihilator that elimination computes.
    for label, parametric in catalog_labels(ring_id):
        for n in ((1, 2) if parametric else (None,)):
            mf = catalog(ring_id, label, n, field).mf
            algebra = build_truncation(mf.spec, 6)
            ann = annihilator_truncated(mf, 6)
            zero = Polynomial.zero(field, mf.spec.nvars)
            gamma = tuple((zero,) * mf.n for _ in range(mf.n))
            for i in range(mf.spec.nvars):
                df = derivative(mf.spec.f, i)
                witness = Witness(df, derivative_matrix(mf.psi, i),
                                  derivative_matrix(mf.phi, i), gamma)
                assert witness.verify(mf), (mf.label, i)
                assert ann.contains(algebra.reduce(df)), (mf.label, i)


def test_row_col_bound_contains_annihilator():
    entry = catalog("d-inf-1", "delta", 2, F13)
    N = 8
    algebra = build_truncation(entry.mf.spec, N)
    ann = annihilator_truncated(entry.mf, N)
    for J_k in row_col_bound(entry.mf):
        assert truncate_ideal(J_k, algebra).contains(ann.basis)


def test_a_truncated_solve_that_is_no_ideal_is_refused(monkeypatch):
    # K gains the functional on the coordinate of x*y: its kernel, inside
    # Ann(R/xR) = (x), keeps x and loses x*y, so it is no ideal of R_6
    mf = catalog("a-inf-1", "R/xR", None, F13).mf
    algebra = build_truncation(mf.spec, 6)
    xy = algebra.reduce(mf.spec.poly("x*y"))

    class Spoiled(annihilator._System):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.K = Subspace.from_vectors(F13, algebra.dim, np.vstack([self.K.basis, xy]))

    monkeypatch.setattr(annihilator, "_System", Spoiled)
    with pytest.raises(InvariantError, match="not an ideal"):
        annihilator_truncated(mf, 6)
    with pytest.raises(InvariantError, match="not an ideal"):
        annihilate(mf, 6, 2)


def test_annihilate_checks_the_row_col_bound(monkeypatch):
    # Ann(R/xR) = (x) does not lie in (y)
    mf = catalog("a-inf-1", "R/xR", None, F13).mf
    monkeypatch.setattr(annihilator, "row_col_bound",
                        lambda mf: [IdealSpec.from_strings(mf.spec, ["y"])])
    with pytest.raises(InvariantError, match="row/column bound violated"):
        annihilate(mf, 6, 2)


def test_witness_verify_and_reject():
    spec = ring_spec("a-inf-1", F13)
    mf = catalog("a-inf-1", "phi", 2, F13).mf
    zero, one = spec.poly("0"), spec.poly("1")
    w = Witness(
        spec.poly("x"),
        ((zero, zero), (zero, -one)),
        ((one, zero), (zero, zero)),
        ((zero, zero), (zero, zero)),
    )
    assert w.verify(mf)
    bad = Witness(spec.poly("y"), w.alpha, w.beta, w.gamma)
    assert not bad.verify(mf)


def test_witness_search_finds_certificates():
    mf = catalog("a-inf-1", "phi", 3, F13).mf
    for text in ("x", "y^3"):
        w = witness_search(mf, mf.spec.poly(text), D=2)
        assert w is not None and w.verify(mf)


def test_witness_search_nonmember():
    mf = catalog("a-inf-1", "phi", 2, F13).mf
    assert witness_search(mf, mf.spec.poly("y"), D=4) is None


def test_witness_search_uses_ring_equation():
    # over k[x,y,z]/(x^2 y + z^2) the generator z needs a nonzero gamma
    mf = catalog("d-inf-2", "beta+", None, F13).mf
    w = witness_search(mf, mf.spec.poly("z"), D=2)
    assert w is not None and w.verify(mf)


def test_membership_truncated():
    mf = catalog("d-inf-1", "gamma", 1, F13).mf
    for N in (4, 5, 6):
        assert not membership_truncated(mf, mf.spec.poly("x"), N)
        assert membership_truncated(mf, mf.spec.poly("x^2"), N)


def foreign_polynomials(spec):
    """x + 13y over F_17, which read mod 13 is x, and a polynomial in one
    variable too many: neither lies in the ring of the catalog over F13."""
    return (parse_poly("x + 13*y", spec.variables, PrimeField(17)),
            parse_poly("x + y + w", spec.variables + ("w",), F13))


def test_membership_truncated_rejects_another_ring():
    mf = catalog("a-inf-1", "R/xR", None, F13).mf
    for r in foreign_polynomials(mf.spec):
        with pytest.raises(SpecError, match="not over the ring"):
            membership_truncated(mf, r, 6)


def test_witness_search_rejects_another_ring():
    mf = catalog("a-inf-1", "R/xR", None, F13).mf
    for r in foreign_polynomials(mf.spec):
        with pytest.raises(SpecError, match="not over the ring"):
            witness_search(mf, r, 1)


def test_annihilate_status_certified_exact():
    entry = catalog("a-inf-1", "phi", 2, F13)
    res = annihilate(entry.mf, N=8, D=3)
    assert res.status == "certified-exact"
    algebra = build_truncation(entry.mf.spec, 8)
    assert res.subspace == truncate_ideal(entry.expected_annihilator, algebra)
    assert all(w.verify(entry.mf) for _g, w in res.lower)


def test_annihilate_bounded_gap_when_degree_too_small():
    # at witness degree 0 only the constant-coefficient generator z is reached
    entry = catalog("d-inf-2", "delta+", 1, F13)
    res = annihilate(entry.mf, N=8, D=0)
    assert res.status == "bounded-gap"
    assert [entry.mf.spec.format(g) for g, _w in res.lower] == ["z"]
    full = annihilate(entry.mf, N=8, D=3)
    assert full.status == "certified-exact"


def test_annihilate_swap_invariance():
    mf = catalog("d-inf-1", "beta", 2, F13).mf
    assert annihilator_truncated(mf, 7) == annihilator_truncated(swap(mf), 7)


def test_truncation_monotonicity():
    mf = catalog("d-inf-1", "gamma", 2, F13).mf
    big = build_truncation(mf.spec, 8)
    small = build_truncation(mf.spec, 7)
    up = annihilator_truncated(mf, 8)
    down = annihilator_truncated(mf, 7)
    for row in up.basis:
        assert down.contains(small.reduce(big.lift(row)))


@pytest.mark.parametrize("field", [F13, QQ], ids=["F13", "Q"])
@pytest.mark.parametrize("ring_id", ["a-inf-1", "d-inf-1", "d-inf-2"])
def test_reported_witness_degree_is_the_least_degree_with_a_witness(ring_id, field):
    # The report prints a witness only through max_degree(), so any witness
    # found at the least degree D gives the same report.
    for label, parametric in catalog_labels(ring_id):
        for n in ((1, 2) if parametric else (None,)):
            mf = catalog(ring_id, label, n, field).mf
            result = annihilate(mf, N=8, D=n + 2 if parametric else 3)
            for g, w in result.lower:
                least = next(D for D in range(result.D + 1)
                             if witness_search(mf, g, D) is not None)
                assert w.max_degree() == least, (mf.label, g)


def oracle_has_witness(mf, r, D):
    """Whether phi*alpha + beta*psi - f*gamma = r*I has a solution with
    deg alpha, deg beta <= D: one unknown per coefficient of alpha, beta and
    gamma, one equation per coefficient of the entries of the polynomial
    products, solved by Gauss-Jordan on lists."""
    spec = mf.spec
    field, nv, n = spec.field, spec.nvars, mf.n
    top = max(e.degree() for row in mf.phi + mf.psi for e in row)
    # f*gamma = phi*alpha + beta*psi - r*I and deg(f*gamma) = deg f + deg gamma
    gamma_degree = max(D + top, r.degree()) - spec.f.degree()

    def monomials(d):
        return [Polynomial.from_monomial(field, m)
                for m in itertools.product(range(d + 1), repeat=nv) if sum(m) <= d]

    unknowns = []  # each: {entry (i, j): the polynomial its unit value adds}
    for a, b in itertools.product(range(n), repeat=2):
        for m in monomials(D):
            unknowns.append({(i, b): mf.phi[i][a] * m for i in range(n)})  # alpha[a][b]
            unknowns.append({(a, j): m * mf.psi[b][j] for j in range(n)})  # beta[a][b]
        for m in monomials(gamma_degree):
            unknowns.append({(a, b): -(spec.f * m)})  # gamma[a][b]
    equations = {(i, i, mono) for i in range(n) for mono in r.terms}
    for u in unknowns:
        equations |= {(i, j, mono) for (i, j), p in u.items() for mono in p.terms}
    rows = [[u[(i, j)].terms.get(mono, field.zero) if (i, j) in u else field.zero
             for u in unknowns] + [r.terms.get(mono, field.zero) if i == j else field.zero]
            for i, j, mono in sorted(equations)]
    _R, pivots = reference_rref(rows, field)
    return not pivots or pivots[-1] < len(unknowns)


# catalog entries with 2 x 2 matrices at most, n <= 2; a-inf-2 needs a
# square root of -1, which Q lacks
WITNESS_ORACLE_CASES = [
    (field, ring_id, label, n)
    for field in (F13, QQ)
    for ring_id in ("a-inf-1", "a-inf-2", "d-inf-1", "d-inf-2")
    if field.is_prime or ring_id != "a-inf-2"
    for label, parametric in catalog_labels(ring_id)
    for n in ((1, 2) if parametric else (None,))
    if catalog(ring_id, label, n, field).mf.n <= 2
]


@st.composite
def witness_cases(draw):
    field, ring_id, label, n = draw(st.sampled_from(WITNESS_ORACLE_CASES))
    entry = catalog(ring_id, label, n, field)
    spec = entry.mf.spec
    D = draw(st.integers(0, 2))
    monos = [m for m in itertools.product(range(3), repeat=spec.nvars) if sum(m) <= 2]

    def small():
        terms = draw(st.dictionaries(st.sampled_from(monos), st.integers(-3, 3), max_size=2))
        return Polynomial(field, spec.nvars, {m: field.coerce(c) for m, c in terms.items()})

    # a combination of the annihilator's generators, which has a witness at
    # some degree, plus a term that may break it
    r = Polynomial.zero(field, spec.nvars)
    for g in entry.expected_annihilator.generators:
        r = r + small() * g
    if draw(st.booleans()):
        r = r + small()
    # a multiple of f, which lies in every annihilator and may need a gamma
    # of higher degree than D
    if draw(st.booleans()):
        r = r + small() * spec.f
    return entry.mf, r, D


@settings(max_examples=100, deadline=None)
@given(witness_cases())
def test_witness_search_matches_a_coefficient_oracle(case):
    mf, r, D = case
    found = witness_search(mf, r, D)
    assert (found is not None) == oracle_has_witness(mf, r, D)
    assert found is None or found.verify(mf)


def test_witness_search_above_the_gamma_window():
    # x*alpha + beta*x - x^2*gamma = x^2*y has alpha = beta = 0, gamma = -y:
    # gamma's degree follows from deg r, past D + (largest entry degree)
    mf = catalog("a-inf-1", "R/xR", None, F13).mf
    r = mf.spec.poly("x^2*y")
    assert oracle_has_witness(mf, r, 0)
    assert witness_search(mf, r, 0) is not None


@pytest.mark.parametrize("field,ring_id", JACOBIAN_CASES,
                         ids=[f"{'F13' if f.is_prime else 'Q'}-{r}" for f, r in JACOBIAN_CASES])
def test_status_is_certified_exact_when_the_witnessed_generators_span(field, ring_id):
    # annihilate certifies once every generator has a witness, since its
    # generators span the upper bound; here the span of the witnessed ones
    # is taken and compared, at witness degrees 0, 1 and the default
    for label, parametric in catalog_labels(ring_id):
        for n in ((1, 2) if parametric else (None,)):
            mf = catalog(ring_id, label, n, field).mf
            for N in (4, 7):
                algebra = build_truncation(mf.spec, N)
                for D in sorted({0, 1, n + 2 if parametric else 3}):
                    result = annihilate(mf, N, D)
                    spanned = ideal_subspace_from_vectors(
                        [algebra.reduce(g) for g, _w in result.lower], algebra)
                    assert (result.status == "certified-exact") == (
                        spanned == result.subspace), (mf.label, N, D)
