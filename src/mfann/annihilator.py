"""Annihilators of stable endomorphism rings via matrix factorizations.

The criterion: r annihilates the stable endomorphisms of cok(phi) exactly
when phi*alpha + beta*psi = r*I has a solution.  Membership is certified in
two one-sided ways:

* an exact polynomial witness (alpha, beta, gamma) with
  phi*alpha + beta*psi - r*I = f*gamma proves membership over the complete
  ring;
* unsolvability of the truncated system in R_N proves non-membership (a
  global solution would truncate).

The image of (alpha, beta) |-> phi*alpha + beta*psi is "column space in
every column plus row space in every row", so the system reduces to small
quotient conditions.  It is moreover graded: `grading` finds the weights
under which f and the entries are homogeneous, and since m^N is a monomial
ideal every matrix splits into blocks of one degree each, scattered from
the entries' term triplets into one stack and eliminated at once: no dense
system or operator is formed.  Without a grading there is one block.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import InvariantError
from .ideals import IdealSpec, extract_generators, generator_rows, truncate_ideal
from .linalg import Subspace, dot, echelon, eliminate, eye, mod, neg, scatter, zeros
from .mf import MatrixFactorization, poly_mat_mul
from .poly import MonomialBox, Polynomial, grlex_key
from .truncation import Degrees, _find, _Graded, build_truncation, gradings, mixed_radix

__all__ = [
    "Witness",
    "AnnihilatorResult",
    "row_col_bound",
    "membership_truncated",
    "annihilator_truncated",
    "witness_search",
    "annihilate",
    "grading",
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
# the grading, and the system split by degree
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def grading(mf: MatrixFactorization):
    """The gradings of mf: an integer basis, a row (w, a, b) each, of the
    rational solutions of: f is w-homogeneous, every term of phi[i][j] has
    w-degree a_i - b_j and every term of psi[j][k] has w-degree
    deg f + b_j - a_k, for a weight w per variable.  Since m^N is a
    monomial ideal, each system below splits by degree under them; without
    a grading (no row with w nonzero) it is one block."""
    n = mf.n
    unit = np.eye(n, dtype=int).tolist()
    conditions = []  # (e, shift, sign): w.e - sign * deg f + shift . (a, b) = 0
    for i, j in itertools.product(range(n), repeat=2):
        conditions += [(e, [-x for x in unit[i]] + unit[j], 0) for e in mf.phi[i][j].terms]
        conditions += [(e, unit[j] + [-x for x in unit[i]], 1) for e in mf.psi[i][j].terms]
    return gradings(mf.spec.f, conditions, 2 * n)


class _System(Degrees):
    """The system over monomials (the rows of exps: R_N's basis, or a box
    for exact coefficients), op(e) the triplets (m, m', c) of e * m = sum c m'
    for the keys e of the entries, laid out by their degree under w, where
    (w, a, b) are the rows of grading(mf) in mixed radix for the monomials
    of degree <= top, the largest degree in exps.  Only `blocks`, the
    degrees of the monomials `served` (all if none), are built.

    The rows of G, (i', m) = m * phi[:, i'] and any more in G_entries, span
    the columns that phi*alpha can take; those of H, (j, m) =
    m * psi[j, :], the rows that beta*psi can take.  The reduced [G^T | I]
    gives X, whose rows pivoting in G^T (x_pivots, else -1) solve
    G^T x = c with every free variable zero as X c, and whose other rows E
    are the complement functionals of span G.  The system asks for rho_i in
    span H (row i of beta*psi, y_i its coordinates on H's rows, reduced if
    reduce_rows) with column J of r*I - (rho_i)_i in span G for every J:
    E_J r = sum_i E_i rho_i[J], rows (J, k), columns (i, t).  A functional
    of G's block of degree d - a_J meets a row of H's block of degree
    d + a_i on the monomials of degree d - a_J + a_i alone, so for r of
    degree d the block of S is one batched product.  [S | E'] is reduced
    once: Y holds the E' columns of its rows, y_pivots their pivots in S
    (H's row h[d, i] is column (i, t) of block d), and K is the Subspace of
    r's coordinates from the rows pivoting in E'.
    """

    def __init__(self, mf, exps, G_entries, H_entries, op, reduce_rows, served=slice(None)):
        n, v, f, field = mf.n, mf.spec.nvars, mf.spec.f, mf.spec.field
        total = mixed_radix(grading(mf), int(exps.sum(axis=1).max()), f)
        w, a, b = total[:v], total[v:v + n], total[v + n:]
        f_weight = w @ next(iter(f.terms))
        super().__init__(exps @ w, served)
        # degrees: G's rows (i', m) deg m - b_i', its rows (k, m) = f * m e_k
        # deg m + deg f - a_k, and H's rows (j, m) deg m + b_j + deg f
        G = self.G = _Graded(self, G_entries, op, np.r_[b, a - f_weight][:len(G_entries)], a,
                             field)
        H = self.H = _Graded(self, H_entries, op, -b - f_weight, -a, field)
        width = G.stack.shape[2]
        self.X, self.x_pivots, e_pivots = eliminate(G.stack.transpose(0, 2, 1), np.broadcast_to(
            eye(field, width), (len(G.stack), width, width)), field)
        # the functionals at G's padding columns are those unit vectors: zero them
        E = np.where((e_pivots >= 0)[..., None] & (G.col_at < n * self.count)[:, None], self.X, 0)
        R = echelon(H.stack, field)[0] if reduce_rows else H.stack
        g = _find(G.labels, self.blocks[:, None] - a)  # [d, J]
        self.h = _find(H.labels, self.blocks[:, None] + a)  # [d, i]
        U = width // n  # the monomials of one degree, padded
        E = np.concatenate([E, np.zeros_like(E[:1])])[g].reshape(g.shape + E.shape[1:2] + (n, U))
        R = np.concatenate([R, np.zeros_like(R[:1])])[self.h].reshape(
            g.shape + R.shape[1:2] + (n, U))
        S = dot(E.transpose(0, 1, 3, 2, 4), R.transpose(0, 3, 1, 4, 2), field)  # [d, J, i, k, t]
        S = S.transpose(0, 1, 3, 2, 4).reshape(len(g), n * E.shape[2], n * R.shape[2])
        Er = E[:, np.arange(n), :, np.arange(n)].transpose(1, 0, 2, 3).reshape(*S.shape[:2], U)
        self.Y, self.y_pivots, k_pivots = eliminate(S, Er, field)
        self.K = Subspace.from_blocks(field, self.count, self.Y, k_pivots, self.cols)


def _nonzero(mat, key=lambda e: e):
    """The keys of the nonzero entries of a polynomial matrix, None for zero."""
    return [[None if e.is_zero else key(e) for e in row] for row in mat]


def _annihilator_ideal(mf: MatrixFactorization, N: int):
    """The truncated annihilator, the kernel of the constraint rows K, and
    its generators, which extract_generators checks to span it."""
    algebra = build_truncation(mf.spec, N)
    exps = np.array(algebra.basis, dtype=np.int64).reshape(algebra.dim, -1)
    K = _System(mf, exps, _nonzero(zip(*mf.phi)), _nonzero(mf.psi), algebra.triplets, True).K
    ann = Subspace.from_vectors(algebra.field, algebra.dim, K.complement_functionals())
    return ann, extract_generators(ann, algebra)


def annihilator_truncated(mf: MatrixFactorization, N: int) -> Subspace:
    """The subspace {r in R_N : phi*alpha + beta*psi = r*I solvable in R_N};
    raises InvariantError if it is not an ideal of R_N."""
    return _annihilator_ideal(mf, N)[0]


def membership_truncated(mf: MatrixFactorization, r: Polynomial, N: int) -> bool:
    """Solvability of phi*alpha + beta*psi = r*I over R_N.

    False certifies r is not in the annihilator over the complete ring;
    True is evidence only.
    """
    return annihilator_truncated(mf, N).contains(build_truncation(mf.spec, N).reduce(r))


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
    <= max(top, deg f), and only the degrees of the terms of the rs it serves
    (all if none) are built: r is solvable exactly when each homogeneous part
    is.  Each r costs K r, Y r, then beta*psi and X on r*I - beta*psi.
    """

    def __init__(self, mf: MatrixFactorization, D: int, top: int, rs):
        self.mf = mf
        spec = mf.spec
        field, n = spec.field, mf.n
        box = self.box = MonomialBox(spec.nvars, max(top, spec.f.degree()) + 1)
        served = np.concatenate([box.locate(*box.terms(r, field)[:2]) for r in rs])
        # rows (i', m) = m * phi[:, i'] with deg m <= D, then (k, m) = f * m e_k
        gamma = max(top - spec.f.degree(), 0)
        absorbers = [[(spec.f, gamma) if i == k else None for i in range(n)] for k in range(n)]
        system = self.system = _System(
            mf, np.array(box.monos, dtype=np.int64).reshape(box.dim, -1),
            _nonzero(zip(*mf.phi), lambda e: (e, D)) + absorbers,
            _nonzero(mf.psi, lambda e: (e, D)), lambda k: box.triplets(*k, field), False, served)
        # places in y, which holds beta[i][j] at i * n * dim + j * dim + m, and
        # in x, which holds G's rows (g, m) at g * dim + m; the last for padding
        size, H = n * n * box.dim, system.H
        self.y_of_h = np.where(H.row_at[:, None] < n * box.dim,
                               np.arange(n)[:, None] * n * box.dim + H.row_at[:, None], size)
        y_of_s = np.concatenate([self.y_of_h, self.y_of_h[:1] * 0 + size])[system.h, np.arange(n)]
        self.y_at = np.where(system.y_pivots >= 0, np.take_along_axis(
            y_of_s.reshape(len(y_of_s), y_of_s[0].size), system.y_pivots.clip(0), 1), size)
        self.x_at = np.where(system.x_pivots >= 0, np.take_along_axis(
            system.G.row_at, system.x_pivots.clip(0), 1), 2 * n * box.dim)

    def _matrix(self, coeffs):
        """The polynomial matrix whose entry (i, j) has coefficients
        coeffs[i, j] on the monomials of the box."""
        spec = self.mf.spec
        return tuple(tuple(
            Polynomial.from_coefficients(spec.field, spec.nvars, self.box.monos, e)
            for e in row) for row in coeffs)

    def search(self, r: Polynomial):
        mf, system = self.mf, self.system
        field = mf.spec.field
        n, dim = mf.n, self.box.dim
        r_vec = self.box.vector(r, field)
        if not np.isin(system.degs[np.flatnonzero(r_vec)], system.blocks).all():
            raise InvariantError("r has a term outside the degrees of its searcher")
        if np.count_nonzero(dot(system.K.basis, r_vec, field)):
            return None  # S y = E' r is inconsistent
        y = zeros(n * n * dim + 1, field)
        y[self.y_at] = dot(system.Y, np.append(r_vec, field.zero)[system.cols, None], field)[..., 0]
        # r*I - beta*psi, [i, J, m], from beta*psi block by block of H; its
        # columns J are the right-hand sides of G^T x = c, block by block of G
        bp = zeros((n, n * dim + 1), field)
        bp[:, system.H.col_at] = dot(y[self.y_of_h], system.H.stack, field).transpose(1, 0, 2)
        C = neg(bp[:, :-1].reshape(n, n, dim), field)
        diag = np.arange(n)
        C[diag, diag] = mod(C[diag, diag] + r_vec, field)
        C = np.append(C.transpose(1, 0, 2).reshape(n, -1), zeros((n, 1), field), axis=1)
        x = dot(system.X, C[:, system.G.col_at].transpose(1, 2, 0), field)
        if np.count_nonzero(x[system.x_pivots < 0]):
            raise InvariantError("the residual of a solved system left the column span")
        out = zeros((2 * n * dim + 1, n), field)
        out[self.x_at] = x
        alpha, gamma = out[:-1].reshape(2, n, dim, n).transpose(0, 1, 3, 2)
        witness = Witness(r, self._matrix(alpha), self._matrix(y[:-1].reshape(n, n, dim)),
                          self._matrix(neg(gamma, field)))
        if not witness.verify(mf):
            raise InvariantError("recovered witness failed exact verification")
        return witness


def _searchers(mf: MatrixFactorization, D: int, rs):
    """The searcher of each r in rs: one per top degree, for the rs it serves."""
    entry_degree = max(e.degree() for row in mf.phi + mf.psi for e in row)
    tops, groups = [max(D + entry_degree, r.degree()) for r in rs], {}
    for r, top in zip(rs, tops):
        groups.setdefault(top, []).append(r)
    searchers = {top: _WitnessSearcher(mf, D, top, group) for top, group in groups.items()}
    return [searchers[top] for top in tops]


def witness_search(mf: MatrixFactorization, r: Polynomial, D: int):
    """Exact witness with deg(alpha), deg(beta) <= D, or None.

    None only means no witness exists within the degree budget.
    """
    if D < 0:
        raise ValueError("degree bound must be >= 0")
    return _searchers(mf, D, [r])[0].search(r)


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
    extraction, witness search (ascending degree), status and bound checks;
    raises InvariantError if the bound is no ideal of R_N or leaves a J_k."""
    algebra = build_truncation(mf.spec, N)
    upper, gens = _annihilator_ideal(mf, N)

    # Lemma-style upper bound: every J_k truncation, an ideal, holds the generators
    rows = generator_rows(IdealSpec(mf.spec, tuple(gens)), algebra)
    for J_k in row_col_bound(mf):
        if not truncate_ideal(J_k, algebra).contains(rows):
            raise InvariantError("row/column bound violated by the truncated solve")

    lower = []
    remaining = list(gens)
    for d_try in range(D + 1):
        if not remaining:
            break
        still = []
        for g, searcher in zip(remaining, _searchers(mf, d_try, remaining)):
            w = searcher.search(g)
            if w is None:
                still.append(g)
            else:
                lower.append((g, w))
        remaining = still

    # the generators span the upper bound: witnessing them all certifies it
    if not remaining:
        status = "certified-exact"
    elif lower:
        status = "bounded-gap"
    else:
        status = "undetermined"
    lower.sort(key=lambda gw: grlex_key(max(gw[0].terms, key=grlex_key)))
    return AnnihilatorResult(D, lower, gens, status, subspace=upper)
