"""Annihilators of stable endomorphism rings via matrix factorizations.

The criterion: r annihilates the stable endomorphisms of cok(phi) exactly
when phi*alpha + beta*psi = r*I has a solution.  Membership is certified in
two one-sided ways:

* an exact polynomial witness (alpha, beta, gamma) with
  phi*alpha + beta*psi - r*I = f*gamma proves membership over the complete
  ring;
* unsolvability of the truncated system in R_N proves non-membership (a
  global solution would truncate).

The truncated solvable set is itself computable as a subspace of R_N.  The
key structural fact used throughout: the image of (alpha, beta) |->
phi*alpha + beta*psi decomposes as "column space in every column plus row
space in every row", so all solves reduce to small quotient conditions
instead of one giant dense system.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import InvariantError
from .ideals import IdealSpec, extract_generators, ideal_subspace_from_vectors, truncate_ideal
from .linalg import Subspace, _dot_sparse, dot, eliminate, mod, neg, solve, zeros
from .mf import MatrixFactorization, poly_mat_mul
from .poly import MonomialBox, Polynomial, grlex_key
from .truncation import build_truncation

__all__ = [
    "Witness",
    "AnnihilatorResult",
    "row_col_bound",
    "membership_truncated",
    "annihilator_truncated",
    "witness_search",
    "annihilate",
]


@dataclass(frozen=True)
class Witness:
    """Exact certificate: phi*alpha + beta*psi - r*I = f*gamma."""

    r: Polynomial
    alpha: tuple
    beta: tuple
    gamma: tuple

    def verify(self, mf: MatrixFactorization) -> bool:
        spec = mf.spec
        lhs = poly_mat_mul(mf.phi, self.alpha)
        rhs = poly_mat_mul(self.beta, mf.psi)
        for i in range(mf.n):
            for j in range(mf.n):
                expect = spec.f * self.gamma[i][j]
                if i == j:
                    expect = expect + self.r
                if lhs[i][j] + rhs[i][j] != expect:
                    return False
        return True

    def max_degree(self) -> int:
        return max(
            [e.degree() for row in self.alpha for e in row]
            + [e.degree() for row in self.beta for e in row]
        )


def row_col_bound(mf: MatrixFactorization):
    """The ideals J_k = (row k of phi) + (column k of psi); their intersection
    bounds the annihilator from above."""
    out = []
    for k in range(mf.n):
        gens = []
        for entry in list(mf.phi[k]) + [mf.psi[i][k] for i in range(mf.n)]:
            if not entry.is_zero and entry not in gens:
                gens.append(entry)
        out.append(IdealSpec(mf.spec, tuple(gens)))
    return out


# ---------------------------------------------------------------------------
# the system, over R_N or over exact coefficients
# ---------------------------------------------------------------------------


def _blocks(mat, multiples):
    """Rows b * (row a of mat) over the rows a of the polynomial matrix mat
    and the multipliers b: block (a, j) is multiples(mat[a][j])."""
    out = {}
    for row in mat:
        for e in row:
            if e not in out:
                out[e] = multiples(e)
    return np.block([[out[e] for e in row] for row in mat])


def _system(G, H, n, field):
    """(S, E) such that phi*alpha + beta*psi = r*I is solvable exactly when
    S y = E r is.

    The rows of G span the columns that phi*alpha can take, and the rows of
    H those that a row of beta*psi can take, each as n blocks of coordinates.
    The system asks for rho_i in span H (row i of beta*psi, with y_i its
    coordinates on the rows of H) such that column J of r*I - (rho_i)_i lies
    in span G for every J.  With E the complement functionals of span G,
    in rows (i, k) for block i of functional k, this is
    E_J r = sum_i E_i rho_i[block J]: S has rows (J, k) and columns (i, t).
    """
    d = G.shape[1] // n
    E = Subspace.from_vectors(field, n * d, G).complement_functionals()
    c, h = len(E), len(H)
    E = E.reshape(c, n, d).transpose(1, 0, 2).reshape(n * c, d)  # row (i, k)
    H = H.reshape(h, n, d).transpose(1, 0, 2).reshape(n * h, d)  # row (j, t)
    # E and H are nearly all zeros, so their product skips them.
    rho = _dot_sparse(E, H.T, field).reshape(n, c, n, h)  # [i, k, j, t]
    return rho.transpose(2, 1, 0, 3).reshape(n * c, n * h), E


def _truncated_data(mf: MatrixFactorization, N: int):
    """R_N and the Subspace K of constraint rows such that
    phi*alpha + beta*psi = r*I is solvable in R_N exactly when K.basis r = 0."""
    algebra = build_truncation(mf.spec, N)
    field, n = algebra.field, mf.n

    def multiples(e):
        return algebra.multiplication_operator(e).T

    G = _blocks(list(zip(*mf.phi)), multiples)
    H = Subspace.from_vectors(field, n * algebra.dim, _blocks(mf.psi, multiples)).basis
    return algebra, eliminate(*_system(G, H, n, field), field)[2]


def annihilator_truncated(mf: MatrixFactorization, N: int) -> Subspace:
    """The subspace {r in R_N : phi*alpha + beta*psi = r*I solvable in R_N}."""
    algebra, K = _truncated_data(mf, N)
    field = algebra.field
    ann = Subspace.from_vectors(field, algebra.dim, K.complement_functionals())
    # post-check: the solvable set is an ideal of R_N
    for v in range(mf.spec.nvars):
        xv = algebra.multiplication_operator(Polynomial.variable(field, mf.spec.nvars, v))
        if not ann.contains(dot(ann.basis, xv.T, field)):
            raise InvariantError("truncated annihilator is not an ideal")
    return ann


def membership_truncated(mf: MatrixFactorization, r: Polynomial, N: int) -> bool:
    """Solvability of phi*alpha + beta*psi = r*I over R_N.

    False certifies r is not in the annihilator over the complete ring;
    True is evidence only.
    """
    algebra, K = _truncated_data(mf, N)
    return not np.count_nonzero(dot(K.basis, algebra.reduce(r), algebra.field))


# ---------------------------------------------------------------------------
# exact witness search
# ---------------------------------------------------------------------------


class _WitnessSearcher:
    """Degree-bounded exact solver for phi*alpha + beta*psi - r*I = f*gamma.

    The same system as the truncated solve, over exact polynomial
    coefficients (no truncation, hence exact): the column side is spanned by
    {m * phi[:, i]} and the vectors {f * m e_k} that absorb gamma, the row
    side by {m * psi[j, :]}, so y holds the coefficients of beta.  For r of
    degree <= top, where top >= D + (largest entry degree), every product
    has degree <= top, so deg(f*gamma) = deg f + deg gamma bounds gamma by
    top - deg f exactly.  Coefficients live on the MonomialBox of degree
    <= max(top, deg f), whose prefixes are the alpha and gamma monomials.
    Each r costs the products K r and Y r and the solve for alpha and gamma.
    """

    def __init__(self, mf: MatrixFactorization, D: int, top: int):
        self.mf = mf
        spec = mf.spec
        field = spec.field
        n = mf.n
        self.box = MonomialBox(spec.nvars, max(top, spec.f.degree()) + 1)

        def blocks(mat, degree):
            return _blocks(mat, lambda e: self.box.multiples(e, degree, field))

        zero = Polynomial.zero(field, spec.nvars)
        absorbers = [[spec.f if k == j else zero for j in range(n)] for k in range(n)]
        # rows (i, m) = m * phi[:, i], then (k, m) = f * m e_k
        self.G = np.vstack([blocks(list(zip(*mf.phi)), D),
                            blocks(absorbers, max(top - spec.f.degree(), 0))])
        self.H = blocks(mf.psi, D)  # rows (j, m) = m * psi[j, :]
        # eliminated once, since only the right-hand side E r depends on r
        self.Y, self.y_pivots, self.K = eliminate(*_system(self.G, self.H, n, field), field)

    def _matrix(self, coeffs):
        """The polynomial matrix whose entry (i, j) has coefficients
        coeffs[i, j] on the first monomials of the box."""
        spec = self.mf.spec
        return tuple(tuple(
            Polynomial.from_coefficients(spec.field, spec.nvars, self.box.monos, e)
            for e in row) for row in coeffs)

    def search(self, r: Polynomial):
        mf = self.mf
        field = mf.spec.field
        n = mf.n
        na = len(self.H) // n
        r_vec = self.box.vector(r, field)
        if np.count_nonzero(dot(self.K.basis, r_vec, field)):
            return None  # S y = E r is inconsistent
        y = zeros(n * len(self.H), field)  # beta[i][j] at (i, j, m)
        y[self.y_pivots] = dot(self.Y, r_vec, field)
        # column J of r*I - beta*psi, one right-hand side each, expressed in
        # the rows of G to recover alpha and gamma (x: rows as in G, column J)
        cols = neg(dot(y.reshape(n, -1), self.H, field), field).reshape(n, n, -1)  # [i, J]
        diag = np.arange(n)
        cols[diag, diag] = mod(cols[diag, diag] + r_vec, field)
        x = solve(self.G.T, cols.transpose(0, 2, 1).reshape(-1, n), field)
        if x is None:
            raise InvariantError("the residual of a solved system left the column span")
        witness = Witness(
            r,
            self._matrix(x[:n * na].reshape(n, na, n).transpose(0, 2, 1)),
            self._matrix(y.reshape(n, n, na)),
            self._matrix(neg(x[n * na:], field).reshape(n, -1, n).transpose(0, 2, 1)),
        )
        if not witness.verify(mf):
            raise InvariantError("recovered witness failed exact verification")
        return witness


@functools.lru_cache(maxsize=64)
def _searcher(mf: MatrixFactorization, D: int, top: int) -> _WitnessSearcher:
    return _WitnessSearcher(mf, D, top)


def witness_search(mf: MatrixFactorization, r: Polynomial, D: int):
    """Exact witness with deg(alpha), deg(beta) <= D, or None.

    None only means no witness exists within the degree budget.
    """
    if D < 0:
        raise ValueError("degree bound must be >= 0")
    entry_degree = max(e.degree() for row in mf.phi + mf.psi for e in row)
    return _searcher(mf, D, max(D + entry_degree, r.degree())).search(r)


# ---------------------------------------------------------------------------
# the composite computation
# ---------------------------------------------------------------------------


@dataclass
class AnnihilatorResult:
    D: int
    lower: list  # (generator, Witness)
    upper_generators: list
    status: str  # certified-exact | bounded-gap | undetermined
    subspace: Subspace = dc_field(repr=False, default=None)


def annihilate(mf: MatrixFactorization, N: int, D: int) -> AnnihilatorResult:
    """Full annihilator computation: truncated upper bound, generator
    extraction, witness search (ascending degree), status and bound checks."""
    algebra = build_truncation(mf.spec, N)
    upper = annihilator_truncated(mf, N)
    gens = extract_generators(upper, algebra)

    # Lemma-style upper bound: the subspace sits inside every J_k truncation
    for J_k in row_col_bound(mf):
        if not upper.is_subspace_of(truncate_ideal(J_k, algebra)):
            raise InvariantError("row/column bound violated by the truncated solve")

    lower = []
    witnessed_vectors = []
    remaining = list(gens)
    for d_try in range(D + 1):
        if not remaining:
            break
        still = []
        for g in remaining:
            w = witness_search(mf, g, d_try)
            if w is None:
                still.append(g)
            else:
                lower.append((g, w))
                witnessed_vectors.append(algebra.reduce(g))
        remaining = still
    # The searchers serve this call only; keeping them afterwards would only
    # hold memory.
    _searcher.cache_clear()

    # The witnessed generators' ideal matters only once every generator has
    # a witness.
    if upper.dim == 0 or (
            not remaining and ideal_subspace_from_vectors(witnessed_vectors, algebra) == upper):
        status = "certified-exact"
    elif lower:
        status = "bounded-gap"
    else:
        status = "undetermined"
    lower.sort(key=lambda gw: grlex_key(max(gw[0].terms, key=grlex_key)))
    return AnnihilatorResult(D, lower, gens, status, subspace=upper)
