"""Ideal membership, generator extraction, colength probes, and chain limits."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfann import ideals
from mfann.alexandrov import compactness_verdict
from mfann.annihilator import row_col_bound
from mfann.families import build_family
from mfann.fields import InvariantError, PrimeField, Rationals, SpecError
from mfann.ideals import (
    IdealSpec,
    ParametricIdealFamily,
    extract_generators,
    is_m_primary,
    limit_of_chain,
    member,
    truncate_ideal,
)
from mfann.linalg import Subspace
from mfann.mf import RING_IDS, catalog, catalog_labels, ring_spec
from mfann.poly import Polynomial, monomials_upto, parse_poly
from mfann.truncation import RingSpec, build_truncation
from test_alexandrov import ideals as random_ideals

F13 = PrimeField(13, 5)
QQ = Rationals()
XXY = ring_spec("d-inf-1", F13)  # k[x, y]/(x^2 y)
XX = ring_spec("a-inf-1", F13)  # k[x, y]/(x^2)
XXZZ = ring_spec("a-inf-2", F13)  # k[x, y, z]/(x^2 + z^2)


def I(spec, *gens):
    return IdealSpec.from_strings(spec, gens)


def test_member_yes_with_cofactors():
    res = member(XXY.poly("x^2 + x*y"), I(XXY, "x"), N=8, D=3)
    assert res.is_member
    h = res.cofactors
    # p = h_0 * x + h_last * f exactly
    assert h[0] * XXY.poly("x") + h[-1] * XXY.f == XXY.poly("x^2 + x*y")


@pytest.mark.parametrize("p", ["x^2", "x*y", "y^4", "x^2*y"])
def test_member_of_a_generator_or_f_is_exact(p):
    # each generator of the ideal, and f = x^2 y itself
    ideal = I(XXY, "x^2", "x*y", "y^4")
    p = XXY.poly(p)
    res = member(p, ideal, N=8, D=3)
    assert res.status == "yes-certified"
    *h, h0 = res.cofactors
    total = h0 * XXY.f
    for hi, g in zip(h, ideal.generators):
        total = total + hi * g
    assert total == p


def test_member_uses_ring_equation():
    # x^2 y = -z^2 in k[x,y,z]/(x^2 + z^2) ... here: x^2 y is zero in k[x,y]/(x^2 y)
    res = member(XXY.poly("x^2*y"), I(XXY, "y^5"), N=8, D=4)
    assert res.is_member  # x^2 y = 0 + 1 * f
    res = member(XXZZ.poly("z^2"), I(XXZZ, "x"), N=8, D=4)
    assert res.is_member  # z^2 = -x * x + f


def test_member_no_certified():
    res = member(XXY.poly("y"), I(XXY, "x"), N=8, D=3)
    assert res.status == "no-certified"
    assert not res.is_member


def test_member_without_cofactor_window():
    # D < 0 leaves no cofactor unknowns: the truncation alone decides
    assert member(XXY.poly("y"), I(XXY, "x"), N=8, D=-1).status == "no-certified"
    assert member(XXY.poly("x*y"), I(XXY, "x"), N=8, D=-1).status == "undetermined"


def test_truncate_ideal_dimension():
    algebra = build_truncation(XX, 6)  # dim 11: 1, y..y^5, x, xy..xy^4
    space = truncate_ideal(I(XX, "x"), algebra)
    assert space.dim == 5  # x, xy, .., xy^4


def dense_span(ideal, algebra):
    """The truncation by its definition: the span of the stacked rows
    reduce(g * b) of every generator g."""
    rows = [algebra.multiples(g) for g in ideal.generators]
    return Subspace.from_vectors(algebra.field, algebra.dim, np.vstack(rows) if rows else [])


def catalog_ideals(field):
    """The catalog annihilators and row/column ideals J_k at n <= 2."""
    for ring_id in RING_IDS:
        if not field.is_prime and ring_id == "a-inf-2":
            continue  # needs a square root of -1
        for label, parametric in catalog_labels(ring_id):
            for n in ((1, 2) if parametric else (None,)):
                entry = catalog(ring_id, label, n, field)
                yield entry.expected_annihilator
                yield from row_col_bound(entry.mf)


def mixed_ideals(field):
    """Generator lists that mix homogeneous and inhomogeneous generators
    over x^2 y, the empty list, and ideals over x^2 + y^3 + x y^2, which
    has no grading."""
    spec = ring_spec("d-inf-1", field)
    # a J_k of a conjugated d-inf-1 entry, then a homogeneous generator of
    # nonzero degree beside an inhomogeneous one
    for gens in (("x", "8*x^2 + y", "2*x^3*y + 10*x*y^2 + x*y", "3*x^2*y"), ("x*y", "x + y^2"),
                 ("y^3", "x^2 + x*y"), ()):
        yield IdealSpec.from_strings(spec, gens)
    variables = ("x", "y")
    ungraded = RingSpec(variables, parse_poly("x^2 + y^3 + x*y^2", variables, field), field)
    for gens in (("x",), ("x*y", "y^2"), ("x + y^2", "x*y^3")):
        yield IdealSpec.from_strings(ungraded, gens)


@pytest.mark.parametrize("field", [F13, QQ], ids=["F13", "Q"])
@pytest.mark.parametrize("kind", [catalog_ideals, mixed_ideals], ids=["catalog", "mixed"])
def test_truncate_ideal_equals_the_dense_span(field, kind):
    for ideal in kind(field):
        for N in (4, 7):
            algebra = build_truncation(ideal.spec, N)
            space = truncate_ideal(ideal, algebra)
            assert space == dense_span(ideal, algebra), (ideal.format(), N)
            gens = extract_generators(space, algebra)
            assert dense_span(IdealSpec(ideal.spec, tuple(gens)), algebra) == space


def test_extract_generators_round_trip():
    algebra = build_truncation(XXY, 8)
    space = truncate_ideal(I(XXY, "x^2", "x*y", "y^3"), algebra)
    gens = extract_generators(space, algebra)
    assert truncate_ideal(IdealSpec(XXY, tuple(gens)), algebra) == space
    assert len(gens) == 3


def test_extract_generators_rejects_a_subspace_that_is_no_ideal():
    # (x) would span x*y, which the subspace lacks
    algebra = build_truncation(XX, 6)
    space = Subspace.from_vectors(F13, algebra.dim, [
        algebra.reduce(XX.poly(text)) for text in ("x", "x*y^2", "x*y^3", "x*y^4")])
    with pytest.raises(InvariantError, match="not an ideal"):
        extract_generators(space, algebra)


def reference_is_m_primary(ideal, N_max):
    """(status, colength, colengths) of is_m_primary, with the certificate
    formed from every degree-(N-1) monomial, listed and reduced one by one."""
    spec = ideal.spec
    colengths = []
    for N in range(3, N_max + 1):
        algebra = build_truncation(spec, N)
        space = truncate_ideal(ideal, algebra)
        colengths.append(algebra.dim - space.dim)
        if len(colengths) >= 3 and colengths[-1] == colengths[-2] == colengths[-3]:
            top = [algebra.reduce(Polynomial.from_monomial(spec.field, m))
                   for m in monomials_upto(spec.nvars, N - 1) if sum(m) == N - 1]
            if space.contains(np.vstack(top)):
                return "m-primary", colengths[-1], tuple(colengths)
            return "undetermined", None, tuple(colengths)
    if all(b > a for a, b in zip(colengths, colengths[1:])):
        return "not-m-primary-evidence", None, tuple(colengths)
    return "undetermined", None, tuple(colengths)


@settings(max_examples=40, deadline=None)
@given(random_ideals(), st.integers(3, 7))
def test_extract_generators_round_trip_on_random_ideals(ideal, N):
    # every generator is the lift of a basis row of the truncation, reduces
    # back to it, and together they generate the truncation again
    algebra = build_truncation(ideal.spec, N)
    space = truncate_ideal(ideal, algebra)
    gens = extract_generators(space, algebra)
    assert truncate_ideal(IdealSpec(ideal.spec, tuple(gens)), algebra) == space
    rows = space.basis.tolist()
    for g in gens:
        v = algebra.reduce(g)
        assert v.tolist() in rows
        assert algebra.lift(v) == g
    res = is_m_primary(ideal, N)
    assert (res.status, res.colength, res.colengths) == reference_is_m_primary(ideal, N)


def test_m_primary_cases():
    # the maximal ideal itself: colength 1
    res = is_m_primary(I(XX, "x", "y"), 8)
    assert res.status == "m-primary" and res.colength == 1
    # (x) in k[x,y]/(x^2): colength grows with the level
    res = is_m_primary(I(XX, "x"), 12)
    assert res.status == "not-m-primary-evidence"
    assert all(b > a for a, b in zip(res.colengths, res.colengths[1:]))
    # (x, y^2) is m-primary with colength 2
    res = is_m_primary(I(XX, "x", "y^2"), 8)
    assert res.status == "m-primary" and res.colength == 2
    # (x, z) in k[x,y,z]/(x^2 + z^2) cuts out a curve
    res = is_m_primary(I(XXZZ, "x", "z"), 8)
    assert res.status == "not-m-primary-evidence"


def catalog_family_ideals(field, N, n_max=4):
    """Every member of the four catalog families and of the a-inf-1 cm0
    chain at n <= n_max, and the meet of each family, at truncation N."""
    cases = [(ring_id, "all") for ring_id in RING_IDS
             if field.is_prime or ring_id != "a-inf-2"]  # a-inf-2 needs sqrt(-1)
    out = {}
    for ring_id, subfamily in cases + [("a-inf-1", "cm0")]:
        fam = build_family(ring_id, field, N, subfamily=subfamily)
        out.update((ideal, None) for _lab, ideal in fam.expanded(n_max))
        out[compactness_verdict(fam, n_max).global_intersection] = None
    return list(out)


@pytest.mark.parametrize("N_max", range(8, 13))
@pytest.mark.parametrize("field", [F13, QQ], ids=["F13", "Q"])
def test_is_m_primary_matches_reference_on_catalog_ideals(field, N_max):
    # a cold probe builds R_{N_max} alone; the reference builds every level
    for ideal in catalog_family_ideals(field, N_max):
        build_truncation.cache_clear()
        res = is_m_primary(ideal, N_max)
        assert build_truncation.cache_info().misses == 1
        got = (res.status, res.colength, res.colengths)
        assert got == reference_is_m_primary(ideal, N_max), ideal.format()


def test_is_m_primary_raises_on_a_failed_certificate(monkeypatch):
    # equal colengths at K - 1 and K imply the containment: failing it is
    # an inconsistency of the engine, not an undetermined answer
    monkeypatch.setattr(Subspace, "contains", lambda self, v: False)
    with pytest.raises(InvariantError, match="colengths"):
        is_m_primary(I(XX, "x", "y"), 8)


def test_limit_of_chain_verified():
    fam = ParametricIdealFamily(XX, (XX.poly("x"),), XX.poly("y"), 0)
    res = limit_of_chain(fam, I(XX, "x"), n_max=5, N=10)
    assert res.status == "verified-at-scale"
    # the two-generator tail family of the second parametric class
    fam = ParametricIdealFamily(
        XXY, (XXY.poly("x^2"), XXY.poly("x*y")), XXY.poly("y"), 1
    )
    res = limit_of_chain(fam, I(XXY, "x^2", "x*y"), n_max=5, N=10)
    assert res.status == "verified-at-scale"
    # (x, (y + y^2)^n) = (x, y^n), 1 + y a unit: (y + y^2)^4 lies in m^4
    # alone, so the last instance is (x) only below degree 4
    fam = ParametricIdealFamily(XX, (XX.poly("x"),), XX.poly("y + y^2"), 0)
    assert limit_of_chain(fam, I(XX, "x"), n_max=4, N=8).status == "verified-at-scale"


def test_limit_of_chain_refutes_wrong_candidate():
    fam = ParametricIdealFamily(XX, (XX.poly("x"),), XX.poly("y"), 0)
    # candidate too small: (x y) is inside every member but is not the limit
    res = limit_of_chain(fam, I(XX, "x*y"), n_max=5, N=10)
    assert res.status == "refuted"
    # candidate not inside the members at all
    res = limit_of_chain(fam, I(XX, "y"), n_max=5, N=10)
    assert res.status == "refuted"
    # inside every member, and the chain descends, but x^2 = 0 in the ring:
    # only the comparison with the last instance refutes it
    res = limit_of_chain(fam, I(XX, "x^2"), n_max=5, N=10)
    assert res.status == "refuted"
    assert res.failure == "truncated intersection differs from candidate"


def test_limit_of_chain_is_undetermined_past_the_cofactor_window():
    # x * (1 + y^5) generates the limit (x), but inside (x, y) it needs a
    # cofactor of degree 5 > D = 4: member finds none and refutes nothing
    fam = ParametricIdealFamily(XX, (XX.poly("x"),), XX.poly("y"), 0)
    res = limit_of_chain(fam, I(XX, "x + x*y^5"), n_max=5, N=10)
    assert res.status == "undetermined"
    assert res.failure == "(x*y^5 + x) not certified inside (x, y)"


@pytest.mark.parametrize("n_max", [0, -1])
def test_limit_of_chain_rejects_n_max_below_one(n_max):
    # tail offset 1: at n_max = 0 no instance is built, yet the tail has
    # degree 1; at n_max = -1 it has degree 0
    fam = ParametricIdealFamily(XXY, (XXY.poly("x^2"), XXY.poly("x*y")), XXY.poly("y"), 1)
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        limit_of_chain(fam, I(XXY, "x^2", "x*y"), n_max=n_max, N=8)


def test_ideal_spec_validation():
    with pytest.raises(Exception):
        IdealSpec(XX, (XX.poly("0"),))
    with pytest.raises(Exception):
        truncate_ideal(I(XX, "x"), build_truncation(XXY, 5))


def test_member_rejects_a_polynomial_over_another_ring():
    for p in (parse_poly("x + 13*y", ("x", "y"), PrimeField(17)),
              parse_poly("x + y + z", ("x", "y", "z"), F13)):
        with pytest.raises(SpecError, match="not over the ring"):
            member(p, I(XX, "x"), N=6, D=2)


def test_member_rejects_exponents_past_int64_keys():
    # y^60000 in three variables would need graded-lex keys beyond int64, but
    # it leaves the box of the window (degree <= D + 2), so no key is formed:
    # the solve is skipped, and y^60000 = 0 in R_5 is inside every truncation
    assert member(XXZZ.poly("y^60000"), I(XXZZ, "x"), N=5, D=0).status == "undetermined"


def test_member_solves_only_the_monomials_its_products_reach(monkeypatch):
    # (x, y^200) over a-inf-2: 35 multipliers of degree <= 4 for each of x,
    # y^200 and f = x^2 + z^2 make 105 unknowns, and their 4 terms reach at
    # most 4 * 35 monomials, plus the one of p
    shapes, real = [], ideals.solve

    def recorded(A, b, field):
        shapes.append(A.shape)
        return real(A, b, field)

    monkeypatch.setattr(ideals, "solve", recorded)
    res = member(XXZZ.poly("x*y"), I(XXZZ, "x", "y^200"), N=8, D=4)
    assert res.status == "yes-certified"
    assert [XXZZ.format(h) for h in res.cofactors] == ["y", "0", "0"]
    ((rows, cols),) = shapes
    assert rows <= 141 and cols == 105


def test_member_checks_solved_cofactors(monkeypatch):
    # a solve that returns a wrong vector must not become a certificate
    def wrong(A, b, field):
        return np.ones(A.shape[1], dtype=np.int64)

    monkeypatch.setattr(ideals, "solve", wrong)
    with pytest.raises(InvariantError, match="cofactors"):
        member(XXY.poly("x^2 + x*y"), I(XXY, "x"), N=8, D=3)
