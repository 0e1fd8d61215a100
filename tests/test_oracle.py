"""Independent oracle for the truncated algebra: sympy Groebner bases over F_13.

sympy's Buchberger implementation shares no code with mfann's linear algebra.
dim R_N is the number of standard monomials of a Groebner basis of
(f) + m^N, and p lies in the image of an ideal I in R_N exactly when p
reduces to zero modulo a Groebner basis of I + (f) + m^N.
"""

import pytest
from hypothesis import given, settings, strategies as st

from mfann.fields import PrimeField
from mfann.ideals import IdealSpec, truncate_ideal
from mfann.mf import RING_IDS, ring_spec
from mfann.poly import Polynomial, monomials_below, monomials_upto
from mfann.truncation import build_truncation

sympy = pytest.importorskip("sympy")

F13 = PrimeField(13, 5)
SPECS = {rid: ring_spec(rid, F13) for rid in RING_IDS}


def to_sympy(p, symbols):
    out = sympy.Integer(0)
    for mono, coeff in p.terms.items():
        out += int(coeff) * sympy.Mul(*(s**e for s, e in zip(symbols, mono)))
    return out


def groebner(spec, polys, N):
    """Groebner basis of (polys) + (f) + m^N over F_13, and its symbols."""
    symbols = sympy.symbols(spec.variables)
    power = [Polynomial.from_monomial(F13, m)
             for m in monomials_upto(spec.nvars, N) if sum(m) == N]
    gens = [to_sympy(p, symbols) for p in [spec.f, *polys, *power]]
    return sympy.groebner(gens, *symbols, modulus=13, order="grevlex"), symbols


def standard_monomials(basis, spec, N):
    leads = [g.monoms(order="grevlex")[0] for g in basis.polys]
    return [m for m in monomials_below(spec.nvars, N)
            if not any(all(a >= b for a, b in zip(m, lead)) for lead in leads)]


@pytest.mark.parametrize("ring_id", RING_IDS)
@pytest.mark.parametrize("N", range(1, 8))
def test_truncation_dimension_matches_groebner(ring_id, N):
    spec = SPECS[ring_id]
    basis, _symbols = groebner(spec, [], N)
    assert build_truncation(spec, N).dim == len(standard_monomials(basis, spec, N))


@st.composite
def polynomials(draw, spec, max_degree, max_terms=3, min_degree=0):
    monos = [m for m in monomials_upto(spec.nvars, max_degree) if sum(m) >= min_degree]
    chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=max_terms, unique=True))
    coeffs = draw(st.lists(st.integers(1, 12), min_size=len(chosen), max_size=len(chosen)))
    return Polynomial(F13, spec.nvars, dict(zip(chosen, coeffs)))


@st.composite
def membership_cases(draw):
    spec = SPECS[draw(st.sampled_from(RING_IDS))]
    N = draw(st.integers(2, 7))
    gens = draw(st.lists(polynomials(spec, 3, min_degree=2), min_size=1, max_size=2))
    if draw(st.booleans()):
        # a combination of the generators and f, plus a random high-degree tail
        p = draw(polynomials(spec, 2)) * gens[0] + draw(polynomials(spec, 2)) * spec.f
        p = p + draw(polynomials(spec, N + 1)) * Polynomial.variable(F13, spec.nvars, 0, N)
    else:
        p = draw(polynomials(spec, N, max_terms=4, min_degree=1))
    return spec, N, gens, p


@settings(max_examples=40, deadline=None)
@given(membership_cases())
def test_truncated_membership_matches_groebner(case):
    spec, N, gens, p = case
    algebra = build_truncation(spec, N)
    space = truncate_ideal(IdealSpec(spec, tuple(gens)), algebra)
    basis, symbols = groebner(spec, gens, N)
    assert space.contains(algebra.reduce(p)) == basis.contains(to_sympy(p, symbols))
    assert algebra.dim - space.dim == len(standard_monomials(basis, spec, N))
