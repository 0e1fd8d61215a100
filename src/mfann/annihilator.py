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

import bisect
import functools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import InvariantError
from .ideals import IdealSpec, extract_generators, ideal_subspace_from_vectors, truncate_ideal
from .linalg import (Subspace, _dot_sparse, as_array, dot, echelon, mod, neg, null_space,
                     solve, zeros)
from .mf import MatrixFactorization, poly_mat_mul
from .poly import Polynomial, grlex_key, grlex_keys, monomials_upto
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
        zero = Polynomial.zero(spec.field, spec.nvars)
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
        out.append(IdealSpec(mf.spec, tuple(gens), name=f"J_{k + 1}"))
    return out


# ---------------------------------------------------------------------------
# truncated solves
# ---------------------------------------------------------------------------


def _span_of_rows(mat, algebra):
    """Subspace of (R_N)^n spanned by b * (row a of mat) over the rows a and
    the basis monomials b, one block of width dim R_N per entry."""
    multiples = {}
    for row in mat:
        for e in row:
            if e not in multiples:
                multiples[e] = algebra.multiplication_operator(e).T
    gens = np.block([[multiples[e] for e in row] for row in mat])
    return Subspace.from_vectors(algebra.field, len(mat) * algebra.dim, gens)


@functools.lru_cache(maxsize=64)
def _truncated_data(mf: MatrixFactorization, N: int):
    """R_N and constraint rows K (reduced echelon, with their pivots) such
    that phi*alpha + beta*psi = r*I is solvable in R_N exactly when K r = 0.

    beta*psi ranges over the matrices whose rows lie in the row space R, so
    the system asks for rho_i in R (row i of beta*psi) with column j of
    r*I - (rho_i)_i inside the column space C for every j.  With E the
    complement functionals of C this is E_j r = sum_i E_i rho_i[block j].
    Eliminating the rho coordinates first leaves the rows that constrain r
    alone; the sign of the rho columns does not change them.
    """
    algebra = build_truncation(mf.spec, N)
    field, n, d = algebra.field, mf.n, algebra.dim
    E = _span_of_rows(list(zip(*mf.phi)), algebra).complement_functionals()
    R = _span_of_rows(mf.psi, algebra).basis
    c, dim_r = len(E), len(R)
    E_blocks = E.reshape(c, n, d).transpose(1, 0, 2).reshape(n * c, d)  # row (i, k)
    R_blocks = R.reshape(dim_r, n, d).transpose(1, 0, 2).reshape(n * dim_r, d)  # row (j, t)
    # E and R are nearly all zeros, so their product skips them.
    rho = _dot_sparse(E_blocks, R_blocks.T, field).reshape(n, c, n, dim_r)  # [i, k, j, t]
    system = np.hstack([rho.transpose(2, 1, 0, 3).reshape(n * c, n * dim_r), E_blocks])
    reduced, pivots = echelon(system, field)
    k = bisect.bisect_left(pivots, n * dim_r)
    return algebra, reduced[k:, n * dim_r:], [q - n * dim_r for q in pivots[k:]]


def annihilator_truncated(mf: MatrixFactorization, N: int) -> Subspace:
    """The subspace {r in R_N : phi*alpha + beta*psi = r*I solvable in R_N}."""
    algebra, K, pivots = _truncated_data(mf, N)
    field, d = algebra.field, algebra.dim
    ann = Subspace.from_vectors(field, d, null_space(K, pivots, d, field))
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
    algebra, K, _pivots = _truncated_data(mf, N)
    return not np.count_nonzero(dot(K, algebra.reduce(r), algebra.field))


# ---------------------------------------------------------------------------
# exact witness search
# ---------------------------------------------------------------------------


class _WitnessSearcher:
    """Degree-bounded exact solver for phi*alpha + beta*psi - r*I = f*gamma.

    The generator set for the column side is {m * phi[:, i]} together with
    the single-entry vectors {f * m e_k} absorbing gamma; beta is eliminated
    against the quotient by that span, exactly as in the truncated solve but
    over genuine polynomial coefficient space (no truncation, hence exact).
    Polynomials are coefficient vectors over the support: the `grlex_keys`
    of every monomial the generators and the beta products reach, ascending.
    """

    def __init__(self, mf: MatrixFactorization, D: int):
        self.mf = mf
        self.D = D
        spec = mf.spec
        field = spec.field
        n, nv = mf.n, spec.nvars
        entry_deg = max(
            [e.degree() for row in mf.phi for e in row if not e.is_zero]
            + [e.degree() for row in mf.psi for e in row if not e.is_zero]
        )
        self.gamma_bound = max(D + entry_deg - spec.f.min_degree(), 0)
        self.alpha_monos = monomials_upto(nv, D)
        self.gamma_monos = monomials_upto(nv, self.gamma_bound)
        na, ng = len(self.alpha_monos), len(self.gamma_monos)

        def shifted(p, monos):
            exps = np.array(list(p.terms), dtype=np.int64).reshape(-1, nv)
            return (exps[:, None, :] + np.array(monos, dtype=np.int64),
                    as_array(list(p.terms.values()), field))

        products = {"f": shifted(spec.f, self.gamma_monos)}
        for a in range(n):
            for b in range(n):
                products["phi", a, b] = shifted(mf.phi[a][b], self.alpha_monos)
                products["psi", a, b] = shifted(mf.psi[a][b], self.alpha_monos)
        self._base = 1 + max(int(e.max(initial=0)) for e, _ in products.values())
        self.support = np.unique(np.concatenate(
            [grlex_keys(e, self._base).ravel() for e, _ in products.values()] + [[0]]))
        # (support index of term t times monomial m, coefficient of term t)
        self.shift = shift = {k: (np.searchsorted(self.support, grlex_keys(e, self._base)), c)
                              for k, (e, c) in products.items()}
        s = len(self.support)

        # generator rows: ("a", i, m) = m * phi[:, i], then ("g", k, m) = f * m e_k
        gens = zeros((n * na + n * ng, n * s), field)
        for i in range(n):
            for k in range(n):
                at, coeffs = shift["phi", k, i]
                gens[i * na + np.arange(na), k * s + at] = coeffs[:, None]
        for k in range(n):
            at, coeffs = shift["f"]
            gens[n * na + k * ng + np.arange(ng), k * s + at] = coeffs[:, None]
        basis, pivots, self.transform = echelon(gens, field, transform=True)
        self.col_space = Subspace(field, n * s, basis, pivots)
        E = self.col_space.complement_functionals()
        c = len(E)
        E = E.reshape(c, n, s)
        self.rhs = E.transpose(1, 0, 2).reshape(n * c, s)  # row (J, k): E_J[k]

        # beta[i][j] monomial m adds E_i (m * psi[j][J]) to equation block J;
        # built once, since only the right-hand side depends on r
        system = zeros((n, c, n, n, na), field)  # [J, k, i, j, m]
        for j in range(n):
            for J in range(n):
                at, coeffs = shift["psi", j, J]
                if len(coeffs):
                    system[J, :, :, j, :] = dot(
                        E[:, :, at].transpose(0, 1, 3, 2), coeffs, field)
        self.system = system.reshape(n * c, n * n * na)

    def _poly(self, coeffs, monos):
        field = self.mf.spec.field
        return Polynomial(field, self.mf.spec.nvars,
                          {m: field.coerce(c) for m, c in zip(monos, coeffs)})

    def search(self, r: Polynomial):
        mf = self.mf
        field = mf.spec.field
        n, s, na = mf.n, len(self.support), len(self.alpha_monos)
        exps = np.array(list(r.terms), dtype=np.int64).reshape(-1, mf.spec.nvars)
        keys = grlex_keys(exps, self._base)
        at = np.minimum(np.searchsorted(self.support, keys), s - 1)
        if exps.max(initial=0) >= self._base or np.any(self.support[at] != keys):
            return None  # the right-hand side escapes the reachable monomials
        r_vec = zeros(s, field)
        r_vec[at] = list(r.terms.values())
        beta_coeffs = zeros((n, n, na), field)
        if len(self.system):
            sol = solve(self.system, dot(self.rhs, r_vec, field), field)
            if sol is None:
                return None
            beta_coeffs = sol[0].reshape(n, n, na)
        beta = [[self._poly(beta_coeffs[i, j], self.alpha_monos) for j in range(n)]
                for i in range(n)]

        # residual per column: r*e_J - (beta*psi) column J, expressed in the
        # generator span to recover alpha and gamma
        alpha = [[None] * n for _ in range(n)]
        gamma = [[None] * n for _ in range(n)]
        for J in range(n):
            col = zeros((n, s), field)
            for j in range(n):
                at, coeffs = self.shift["psi", j, J]
                for t in range(len(coeffs)):
                    col[:, at[t]] = mod(col[:, at[t]] + coeffs[t] * beta_coeffs[:, j, :], field)
            col = neg(col, field)
            col[J] = mod(col[J] + r_vec, field)
            coords = self.col_space.coords(col.reshape(-1))
            if coords is None:
                return None
            # back to original generator coordinates through the transform
            gen_coords = dot(coords, self.transform, field)
            a_part = gen_coords[:n * na].reshape(n, na)
            g_part = neg(gen_coords[n * na:], field).reshape(n, -1)
            for k in range(n):
                alpha[k][J] = self._poly(a_part[k], self.alpha_monos)
                gamma[k][J] = self._poly(g_part[k], self.gamma_monos)
        witness = Witness(
            r,
            tuple(tuple(row) for row in alpha),
            tuple(tuple(row) for row in beta),
            tuple(tuple(row) for row in gamma),
        )
        if not witness.verify(mf):
            raise InvariantError("recovered witness failed exact verification")
        return witness


@functools.lru_cache(maxsize=64)
def _searcher(mf: MatrixFactorization, D: int) -> _WitnessSearcher:
    return _WitnessSearcher(mf, D)


def witness_search(mf: MatrixFactorization, r: Polynomial, D: int):
    """Exact witness with deg(alpha), deg(beta) <= D, or None.

    None only means no witness exists within the degree budget.
    """
    if D < 0:
        raise ValueError("degree bound must be >= 0")
    return _searcher(mf, D).search(r)


# ---------------------------------------------------------------------------
# the composite computation
# ---------------------------------------------------------------------------


@dataclass
class AnnihilatorResult:
    label: str
    N: int
    D: int
    lower: list  # (generator, Witness)
    upper_generators: list
    upper_dim: int
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
    # The searchers and the truncated system serve this call only; keeping
    # them afterwards would only hold memory.
    _searcher.cache_clear()
    _truncated_data.cache_clear()

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
    return AnnihilatorResult(
        mf.label, N, D, lower, gens, upper.dim, status, subspace=upper
    )
