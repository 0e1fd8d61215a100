"""Annihilator engine: truncated solves, witness certificates, statuses.

The truncated annihilator is cross-checked against a dense oracle that
follows the definition directly: build the image of (alpha, beta) |->
phi*alpha + beta*psi inside (R_N)^(n x n) one unit coordinate at a time,
then pull back the diagonal embedding r |-> r*I.
"""

import pytest

from mfann.annihilator import (
    Witness,
    annihilate,
    annihilator_truncated,
    membership_truncated,
    row_col_bound,
    witness_search,
)
from mfann.fields import PrimeField, Rationals
from mfann.ideals import truncate_ideal
from mfann.linalg import Subspace
from mfann.mf import catalog, catalog_labels, ring_spec, swap
from mfann.poly import Polynomial
from mfann.truncation import build_truncation

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
    return image.preimage(embed)


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
        assert ann.is_subspace_of(truncate_ideal(J_k, algebra))


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
        assert down.contains(small.project_from(big, row))


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
