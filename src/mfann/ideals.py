"""Ideal arithmetic over the hypersurface ring, decided at truncation level.

Finite ideals are generator lists; parametric families carry a single
pure-power tail generator g^(n+offset), which covers every family appearing
in the annihilator tables (x, y^n), (x^2, xy, y^(n+1)), (x, y^(n+1), z), ...
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .fields import InvariantError
from .linalg import Subspace, as_array, echelon, solve, zeros
from .poly import Polynomial, monomials_upto
from .truncation import Degrees, RingSpec, SpecError, TruncatedAlgebra, _Graded, build_truncation

__all__ = [
    "IdealSpec",
    "ParametricIdealFamily",
    "MemberResult",
    "LimitResult",
    "truncate_ideal",
    "generator_rows",
    "ideal_subspace_from_vectors",
    "extract_generators",
    "member",
    "is_m_primary",
    "limit_of_chain",
]


@dataclass(frozen=True)
class IdealSpec:
    """A finitely generated ideal of the hypersurface ring."""

    spec: RingSpec
    generators: tuple

    def __post_init__(self):
        for g in self.generators:
            if g.is_zero:
                raise SpecError("zero generator (the zero ideal is the empty list)")
            if g.nvars != self.spec.nvars or g.field != self.spec.field:
                raise SpecError("generator not over the ideal's ring")

    @classmethod
    def from_strings(cls, spec: RingSpec, gens):
        return cls(spec, tuple(spec.poly(g) for g in gens))

    def format(self) -> str:
        if not self.generators:
            return "(0)"
        return "(" + ", ".join(self.spec.format(g) for g in self.generators) + ")"


@dataclass(frozen=True)
class ParametricIdealFamily:
    """fixed generators + one tail generator base^(n+offset), n = 1, 2, ..."""

    spec: RingSpec
    fixed: tuple
    tail_base: Polynomial
    tail_offset: int = 0

    def instantiate(self, n: int) -> IdealSpec:
        if n < 1:
            raise ValueError("parameter must be a positive integer")
        gens = tuple(self.fixed) + (self.tail_base ** (n + self.tail_offset),)
        return IdealSpec(self.spec, gens)


def _span_of_multiples(polys, algebra: TruncatedAlgebra) -> Subspace:
    """Subspace of R_N spanned by p * b over the given p and basis monomials b.

    The rows (p, b) are scattered from algebra.triplets into one stack and
    reduced at once: one block per degree of R_N's weights if every p is
    homogeneous under them, since reduce(p * b) then has degree deg p +
    deg b, otherwise one block, every shift 0.
    """
    field, dim = algebra.field, algebra.dim
    if not polys:
        return Subspace.zero_space(field, dim)
    degs = [set((np.array(list(p.terms)) @ algebra.weights).tolist()) for p in polys]
    graded = all(len(d) == 1 for d in degs)
    span = _Graded(algebra.degrees if graded else Degrees(np.zeros(dim, dtype=np.int64)),
                   [[p] for p in polys], algebra.triplets,
                   np.array([-d.pop() if graded else 0 for d in degs]), np.zeros(1, int), field)
    return Subspace.from_blocks(field, dim, *echelon(span.stack, field), span.col_at)


@functools.lru_cache(maxsize=32)
def truncate_ideal(ideal: IdealSpec, algebra: TruncatedAlgebra) -> Subspace:
    """Subspace of R_N spanned by {reduce(g * b) : g generator, b basis monomial}.

    Every layer asks for the truncations it needs; repeats come from a
    bounded memo keyed by ideal and R_N, so callers share the returned
    subspace, whose basis is read-only.
    """
    if ideal.spec != algebra.spec:
        raise SpecError("ideal and algebra are over different rings")
    return _span_of_multiples(ideal.generators, algebra)


def generator_rows(ideal: IdealSpec, algebra: TruncatedAlgebra):
    """reduce(g) for every generator g of the ideal, one row each.

    The truncation of the ideal is the ideal of R_N these rows generate, so
    a truncated ideal contains it exactly when it contains the rows.
    """
    if ideal.spec != algebra.spec:
        raise SpecError("ideal and algebra are over different rings")
    return as_array([algebra.reduce(g) for g in ideal.generators], algebra.field, algebra.dim)


def ideal_subspace_from_vectors(vectors, algebra: TruncatedAlgebra) -> Subspace:
    """Ideal of R_N generated by elements given as coordinate vectors."""
    return _span_of_multiples([algebra.lift(v) for v in vectors], algebra)


def extract_generators(space: Subspace, algebra: TruncatedAlgebra):
    """Greedy generator extraction, ascending (degree, graded-lex) pivot order.

    Returns polynomials whose generated ideal at level N equals the subspace.
    Their span holds every basis row, so it equals the subspace exactly when
    the subspace is an ideal of R_N; if not, InvariantError is raised.  The
    echelon basis is sorted by pivot, and pivots index the ascending
    graded-lex monomial basis, so scanning rows in order is the greedy
    small-degree-first scan.  The generators found so far are spanned by
    truncate_ideal, so a subspace extracted again is looked up, not spanned.
    """
    gens = []
    current = Subspace.zero_space(algebra.field, algebra.dim)
    for row in space.basis:
        if current.contains(row):
            continue
        gens.append(algebra.lift(row))
        current = truncate_ideal(IdealSpec(algebra.spec, tuple(gens)), algebra)
        if current.dim == space.dim:
            break
    if current != space:
        raise InvariantError("the subspace is not an ideal of R_N")
    return gens


@dataclass(frozen=True)
class MemberResult:
    status: str  # yes-certified | no-certified | undetermined
    cofactors: tuple = ()  # h_i with p = sum h_i g_i + h_0 f  (h_0 last)

    @property
    def is_member(self):
        return self.status == "yes-certified"


def member(p: Polynomial, ideal: IdealSpec, N: int, D: int) -> MemberResult:
    """Certified ideal membership.

    yes-certified: exact cofactors p = sum h_i g_i + h_0 f with deg h_i <= D
    (h_0 bounded by the same window).  no-certified: reduce(p) falls outside
    the truncated ideal at level N, which decides non-membership in the
    complete local ring by Krull intersection.  Otherwise undetermined.
    """
    algebra = build_truncation(ideal.spec, N)
    spec = ideal.spec
    f = spec.field
    gens = list(ideal.generators) + [spec.f]
    if D >= 0 and p in gens:
        # p is its own certificate, in every window D >= 0: cofactor 1 on
        # its entry, 0 on the others
        k = gens.index(p)
        return MemberResult("yes-certified", tuple(
            Polynomial.constant(f, spec.nvars, int(i == k)) for i in range(len(gens))))
    # [A | b] with p in b: one unknown per coefficient of a multiplier m of
    # degree <= D, generator-major, graded-lex; one row per monomial reached
    if p.field != f or p.nvars != spec.nvars:
        raise SpecError("polynomial not over the ring of the ideal")
    window = monomials_upto(spec.nvars, D)
    w, exps, cols, vals = len(window), [], [], []
    multipliers = np.array(window, dtype=np.int64).reshape(w, 1, spec.nvars)
    one = np.zeros((1, 1, spec.nvars), dtype=np.int64)
    reach = max(D, 0) + max(g.degree() for g in gens)  # the largest degree of a product
    for i, (q, shifts) in enumerate([(g, multipliers) for g in gens]
                                    + [(p.truncate(reach + 1), one)]):
        # the terms of m * q, [m, term], in column i * w + m
        e = np.array(list(q.terms), dtype=np.int64).reshape(-1, spec.nvars)
        exps.append((shifts + e).reshape(-1, spec.nvars))
        cols.append(np.repeat(i * w + np.arange(len(shifts)), len(e)))
        vals.append(np.tile(as_array(list(q.terms.values()), f), len(shifts)))
    monos, at = np.unique(np.concatenate(exps), axis=0, return_inverse=True)
    Ab = zeros((len(monos), len(gens) * w + 1), f)
    Ab[at, np.concatenate(cols)] = np.concatenate(vals)
    # p past the reach is no combination in the window: the truncation decides
    x = solve(Ab[:, :-1], Ab[:, -1], f) if p.degree() <= reach else None
    if x is None:
        # exact cofactors put reduce(p) inside the truncated ideal, so the
        # truncation is only needed when the solve fails
        if not truncate_ideal(ideal, algebra).contains(algebra.reduce(p)):
            return MemberResult("no-certified")
        return MemberResult("undetermined")
    cofactors = tuple(Polynomial.from_coefficients(f, spec.nvars, window, row)
                      for row in x.reshape(len(gens), -1))
    # the certificate is checked by polynomial arithmetic, not by the solve
    if sum((h * g for h, g in zip(cofactors, gens)), Polynomial.zero(f, spec.nvars)) != p:
        raise InvariantError("membership cofactors do not reproduce the polynomial")
    return MemberResult("yes-certified", cofactors)


@dataclass(frozen=True)
class MPrimaryResult:
    status: str  # m-primary | not-m-primary-evidence | undetermined
    colength: int | None = None
    colengths: tuple = ()


def is_m_primary(ideal: IdealSpec, N_max: int) -> MPrimaryResult:
    """Colength probe: stabilization over three consecutive levels K,
    certified at the last.

    Every level is read off R_{N_max}: R_K is R_{N_max} modulo the image of
    m^K, which reduce(m) spans over the box monomials m of degree >= K, so
    colength_K is the codimension of the ideal's truncation plus those
    rows.  Taken modulo the truncation, on its free columns, and ordered by
    degree, highest first, the rows of degree >= K are a prefix; one
    echelon of their transpose, whose pivots are the first independent
    rows, gives the rank of every prefix.  Equal colengths at K - 1 and K
    are the certificate: they put m^(K-1) inside I + (f) + m^K, hence
    inside I + (f) by Nakayama.  It is checked by containment, the
    degree-(K-1) rows in the span of the degree->=K rows, and a failure is
    an InvariantError.
    """
    if N_max < 3:
        raise ValueError("N_max must be >= 3")
    field = ideal.spec.field
    algebra = build_truncation(ideal.spec, N_max)
    space = truncate_ideal(ideal, algebra)
    free = space.free
    # one degree at a time: no box x dim array; rows[:ends[j]] has degree >= N_max - j
    blocks = [space.residual(algebra.reductions(np.flatnonzero(algebra.box.degs == d)))[:, free]
              for d in range(N_max - 1, 2, -1)]
    rows = np.concatenate([zeros((0, free.size), field)] + blocks)
    ends = np.cumsum([0] + [len(b) for b in blocks])
    rank = np.searchsorted(echelon(rows.T, field)[1], ends)
    colengths = []
    for K in range(3, N_max + 1):
        colengths.append(int(free.size - rank[N_max - K]))
        if len(colengths) >= 3 and colengths[-1] == colengths[-2] == colengths[-3]:
            top = ends[N_max - K]  # the rows of degree >= K, then those of degree K - 1
            if not Subspace.from_vectors(field, free.size, rows[:top]).contains(
                    rows[top:ends[N_max - K + 1]]):
                raise InvariantError(f"equal colengths at levels {K - 1} and {K}, yet "
                                     f"m^{K - 1} is not inside I + (f) + m^{K}")
            return MPrimaryResult("m-primary", colengths[-1], tuple(colengths))
    if all(b > a for a, b in zip(colengths, colengths[1:])):
        return MPrimaryResult("not-m-primary-evidence", None, tuple(colengths))
    return MPrimaryResult("undetermined", None, tuple(colengths))


@dataclass(frozen=True)
class LimitResult:
    status: str  # verified-at-scale | refuted | undetermined (no cofactors within D)
    failure: str = ""


def limit_of_chain(
    family: ParametricIdealFamily,
    candidate: IdealSpec,
    n_max: int,
    N: int,
    D: int = 4,
) -> LimitResult:
    """Check that the candidate is the limit of the descending family.

    (a) every candidate generator is a yes-certified member of each
    instantiation (undetermined if `member` certifies neither way), (c) the
    family truly descends at truncation N: each instance's truncation
    contains the reduced generators of the next, (b) the truncated
    intersection over n <= n_max equals the candidate's truncation.  (c)
    runs first: R_N -> R_{N_cmp} is a surjective ring map that carries an
    ideal's truncation at N onto its truncation at N_cmp, so the chain
    descends at N_cmp <= N too, and its intersection there is the last
    instance.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    algebra = build_truncation(family.spec, N)
    instances = [family.instantiate(n) for n in range(1, n_max + 1)]
    for inst in instances:
        for g in candidate.generators:
            res = member(g, inst, N, D)
            if not res.is_member:
                return LimitResult(
                    "refuted" if res.status == "no-certified" else "undetermined",
                    f"{candidate.format()} not certified inside {inst.format()}")
    for k in range(n_max - 1):
        space = truncate_ideal(instances[k], algebra)
        if not space.contains(generator_rows(instances[k + 1], algebra)):
            return LimitResult("refuted", f"family does not descend at n={k + 1}")
    # The finite intersection is faithful to the infinite one below the
    # order of the last tail generator, which lies in m^order; compare there.
    N_cmp = min(N, family.tail_base.min_degree() * (n_max + family.tail_offset))
    if N_cmp < 1:
        return LimitResult("refuted", "tail degenerates at this scale")
    cmp_algebra = build_truncation(family.spec, N_cmp)
    if truncate_ideal(instances[-1], cmp_algebra) != truncate_ideal(candidate, cmp_algebra):
        return LimitResult("refuted", "truncated intersection differs from candidate")
    return LimitResult("verified-at-scale")
