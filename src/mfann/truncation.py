"""The truncated hypersurface algebra R_N = k[x_1..x_v]/((f) + m^N).

All ideal and annihilator questions are decided inside these
finite-dimensional algebras by exact linear algebra.  The basis is the set
of standard monomials of degree < N: row-reducing the relation vectors
{u*f truncated below degree N} with pivots on the *largest* monomial
(graded-lex) leaves exactly the hand-enumerable small monomials standard.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .fields import Rationals, SpecError, field_from_config, field_to_config, json_check, json_item
from .linalg import Subspace, _integer_rows, echelon, mod, neg, scatter
from .poly import MonomialBox, Polynomial, parse_poly

QQ = Rationals()


@dataclass(frozen=True)
class RingSpec:
    """A hypersurface ring k[[x_1..x_v]]/(f)."""

    variables: tuple
    f: Polynomial
    field: object

    def __post_init__(self):
        if self.f.is_zero:
            raise SpecError("hypersurface equation must be nonzero")
        if self.f.nvars != len(self.variables):
            raise SpecError("equation arity does not match the variable list")
        if self.f.min_degree() < 2:
            raise SpecError("hypersurface equation must lie in the square of the maximal ideal")
        if self.f.field != self.field:
            raise SpecError("equation coefficients are not over the declared field")

    @property
    def nvars(self):
        return len(self.variables)

    def poly(self, text: str) -> Polynomial:
        return parse_poly(text, self.variables, self.field)

    def format(self, p: Polynomial) -> str:
        return p.format(self.variables)

    def to_json(self) -> dict:
        return {
            "variables": list(self.variables),
            "f": self.f.to_json(),
            "field": field_to_config(self.field),
        }

    @classmethod
    def from_json(cls, data: dict):
        """Inverse of `to_json`; SpecError or FieldError naming the first
        malformed item (as spec.key) on any other input."""
        field = field_from_config(json_item(data, "field", dict, "spec"))
        names = json_item(data, "variables", list, "spec")
        variables = tuple(json_check(v, str, f"spec.variables[{k}]")
                          for k, v in enumerate(names))
        if len(set(variables)) != len(variables) or not all(v.isidentifier() for v in variables):
            raise SpecError("spec.variables: expected distinct identifiers")
        f = Polynomial.from_json(json_item(data, "f", list, "spec"), field, len(variables))
        return cls(variables, f, field)


def gradings(f: Polynomial, conditions=(), shifts: int = 0):
    """An integer basis, a row (w, s) each, of the rational solutions of: f
    is w-homogeneous, and w.e + t.s = sign * w.e0 for every condition
    (e, t, sign), for a weight w per variable, `shifts` more unknowns s and
    e0 a term of f.  ValueError if a row overflows int64."""
    e0 = next(iter(f.terms))

    def condition(e, shift, sign):  # w.e - sign * w.e0 + shift . s = 0
        return [x - sign * y for x, y in zip(e, e0)] + shift

    rows = [condition(e, [0] * shifts, 1) for e in f.terms] + [condition(*c) for c in conditions]
    kernel = Subspace.from_vectors(QQ, f.nvars + shifts, sorted(set(map(tuple, rows))))
    try:
        return _integer_rows(kernel.complement_functionals()).astype(np.int64)
    except OverflowError:  # an entry degree past int64
        raise ValueError("the weights of the grading overflow int64") from None


def mixed_radix(rows, top: int, f: Polynomial):
    """The gradings (rows) as one, in mixed radix: each radix above twice
    any degree in its row of a monomial of degree <= top plus a few shifts,
    so that such degrees agree exactly when their vectors do.  Rows past
    2^40 are dropped: coarser, still a grading."""
    total, scale = np.zeros(rows.shape[1], dtype=np.int64), 1
    for row in rows:
        radix = 2 * int(np.abs(row).max()) * (top + f.degree() + 4) + 1
        if scale * radix > 2**40:
            break
        total += scale * row
        scale *= radix
    return total


def _find(labels, values):
    """The index of each value in the ascending labels, len(labels) if absent."""
    at = np.searchsorted(labels, values).clip(max=len(labels) - 1)
    return np.where(labels[at] == values, at, len(labels))


class Degrees:
    """The monomials 0 .. count - 1 by their degrees degs: `labels` the
    distinct degrees, ascending, and members[b] the monomials of degree
    labels[b], ascending, padded with count, then a row of padding alone;
    slot[m] is m's place in its row.  `blocks` are the degrees of the
    monomials `served` (all if none), `cols` their members."""

    def __init__(self, degs, served=slice(None)):
        self.count, self.degs = len(degs), degs
        self.labels, inverse, sizes = np.unique(degs, return_inverse=True, return_counts=True)
        order = np.argsort(inverse, kind="stable")
        self.slot = np.empty(len(degs), dtype=np.intp)
        self.slot[order] = np.arange(len(degs)) - (np.cumsum(sizes) - sizes)[inverse[order]]
        self.members = np.full((len(sizes) + 1, sizes.max(initial=0)), len(degs), dtype=np.intp)
        self.members[inverse, self.slot] = np.arange(len(degs))
        self.blocks = np.array(sorted(set(degs[served].tolist())) or self.labels)
        self.cols = self.members[_find(self.labels, self.blocks)]


class _Graded:
    """The blocks of the matrix with rows (g, m), of degree deg m -
    row_shift[g], columns (i, m'), of degree deg m' - col_shift[i], and
    entry the sum of the values of the triplets (m, m', value) of
    op(entries[g][i]) (None is zero), kept only between equal degrees: one
    block per column degree d - col_shift[i], d in degrees.blocks, in
    `labels`, scattered into `stack` (blocks x groups * width x columns *
    width, m at its slot), and row_at, col_at their places g * count + m,
    or groups * count for padding."""

    def __init__(self, degrees, entries, op, row_shift, col_shift, field):
        # the distinct labels, ascending: np.unique would import numpy.ma, for 20 ms
        self.labels = np.array(sorted(set((degrees.blocks[:, None] - col_shift).ravel().tolist())))
        rows, cols = (degrees.members[_find(degrees.labels, self.labels[:, None] + shift)]
                      for shift in (row_shift, col_shift))
        self.row_at, self.col_at = (np.where(
            m < degrees.count, np.arange(m.shape[1])[:, None] * degrees.count + m,
            m.shape[1] * degrees.count).reshape(len(m), m[0].size) for m in (rows, cols))
        op = functools.cache(op)  # once per distinct key
        g, i, m, m2, values = zip(*((g, i, *op(e)) for g, row in enumerate(entries)
                                    for i, e in enumerate(row) if e is not None))
        g, i = (np.repeat(k, list(map(len, m))) for k in (g, i))
        m, m2, values = map(np.concatenate, (m, m2, values))
        label, width = degrees.degs[m] - row_shift[g], degrees.members.shape[1]
        block = _find(self.labels, label)
        keep = (block < len(self.labels)) & (label == degrees.degs[m2] - col_shift[i])
        self.stack = scatter((len(self.labels), rows[0].size, cols[0].size), field, *(
            x[keep] for x in (block, g * width + degrees.slot[m], i * width + degrees.slot[m2],
                              values)))


class TruncatedAlgebra:
    """R_N with an explicit standard-monomial basis and exact reduction.

    Every monomial of degree < N owns one row of a reduction table, at its
    index in the MonomialBox of degree < N: reduce(m), its coordinates over
    the standard basis (a unit row for a standard monomial); the box's index
    dim, for every monomial of degree >= N, is the empty row.  The table is
    row-compressed, one stored entry per nonzero: row m holds the columns
    cols[indptr[m]:indptr[m + 1]], ascending, and their values in vals; no
    row holds more than width.  Keys and degrees are linear in the
    exponents, so the product of two monomials is located from the sums of
    theirs, without forming its exponents.  Multiplying by a polynomial
    gathers the stored entries of the shifted rows and scales those whose
    coefficient is not 1: no arithmetic on a zero entry, and no
    multiplication for a coefficient 1.  They are handed out as triplets
    (row, column, value), which the graded systems scatter-add straight
    into their blocks.

    The relations u * f truncated below degree N are homogeneous under the
    weights of f, since m^N is a monomial ideal, and are reduced as one
    stack of blocks, one per degree (one block if f has no grading).  The
    reduced form of a block-diagonal matrix is the union of its blocks'
    reduced forms, so the basis and reduce(m) are those of reducing every
    relation at once.  The weights stay, and `degrees` lays the basis out
    by them: reduce(m) has the degree of m.
    """

    def __init__(self, spec: RingSpec, N: int):
        if N < 1:
            raise SpecError("truncation order must be >= 1")
        self.spec = spec
        self.N = N
        field, f = spec.field, spec.f
        box = self.box = MonomialBox(spec.nvars, N)
        n = box.dim  # index n, for every monomial of degree >= N, is the empty row

        w = self.weights = mixed_radix(gradings(f), N - 1, f)
        degs = box.exps @ w
        # Terms of f of degree >= N only ever land on the empty row.  The
        # multipliers of f, of degree < N - min deg f, are the first u
        # monomials; the relation of multiplier k has degree degs[k] + deg f.
        f_keys, f_degs, f_coeffs = box.terms(f, field)
        u = np.searchsorted(box.degs, N - f.min_degree())
        at = box.locate(box.keys[:u, None] + f_keys, box.degs[:u, None] + f_degs)
        k, t = np.nonzero(at < n)
        rel = _Graded(Degrees(degs), [[f]], lambda _: (k, at[k, t], f_coeffs[t]),
                      np.array([-(w @ next(iter(f.terms)))]), np.zeros(1, dtype=np.int64), field)
        # Columns descending, so row reduction pivots on the largest monomial
        # of each relation and keeps the small monomials standard: column c
        # of block b is the monomial cols[b, c].
        cols = rel.col_at[:, ::-1]
        R, pivots = echelon(rel.stack[..., ::-1], field)
        b, r = np.nonzero(pivots >= 0)
        standard = np.ones(n + 1, dtype=bool)
        standard[cols[b, pivots[b, r]]] = False
        standard[n] = False  # the padding of the blocks
        basis_at = standard.nonzero()[0]
        self.basis = [box.monos[i] for i in basis_at]
        self.exps = box.exps[basis_at]  # the basis monomials' exponents, a row each
        self._basis_keys, self._basis_degs = box.keys[basis_at], box.degs[basis_at]
        self.degrees = Degrees(degs[basis_at])
        # a leading monomial reduces to minus the rest of its reduced relation
        b, r, c = np.nonzero((R != 0) & standard[cols][:, None])
        rows = np.concatenate([basis_at, cols[b, pivots[b, r]]])
        columns = (np.cumsum(standard) - 1)[np.concatenate([basis_at, cols[b, c]])]
        order = np.lexsort((columns, rows))
        self.indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n + 1))])
        self.cols = columns[order]
        self.vals = np.concatenate([np.full(basis_at.size, field.one, dtype=R.dtype),
                                    neg(R[b, r, c], field)])[order]
        self.width = int(np.diff(self.indptr).max())
        self._triplets = {}

    @property
    def dim(self):
        return len(self.basis)

    @property
    def field(self):
        return self.spec.field

    def reduce(self, p: Polynomial):
        """Coordinate vector of p in R_N (exact), as an array."""
        return scatter(self.dim, self.field, *self.triplets(p, 1)[1:])  # basis[0] is 1

    def reductions(self, at):
        """Rows reduce(m) for the monomials m at these indices of the box."""
        (k,), i, vals = self._entries(at)
        return scatter((len(at), self.dim), self.field, k, i, vals)

    def lift(self, coords) -> Polynomial:
        """The standard-monomial representative with the given coordinates."""
        return Polynomial.from_coefficients(self.field, self.spec.nvars, self.basis, coords)

    def multiples(self, p: Polynomial):
        """Rows j = reduce(p * basis[j]), the multiples that span the ideal
        (p) of R_N, laid out as MonomialBox.multiples lays out its rows.

        The transpose is the matrix of multiplication by p.  Only the tests
        form it, as the dense reference for `triplets`.
        """
        return scatter((self.dim, self.dim), self.field, *self.triplets(p))

    def triplets(self, p: Polynomial, count=None):
        """The multiples by the first count basis monomials (default: all)
        as triplets (j, i, value), the values at (j, i) adding up to
        multiples(p)[j, i]: over the terms c x^e of p, c * the stored
        entries of the table row of e + basis[j].

        Memoized per algebra by (p, count): the arrays are shared between
        callers and read-only."""
        key = (p, count)
        if key in self._triplets:
            return self._triplets[key]
        field = self.field
        box = self.box
        keys, degs, coeffs = box.terms(p, field)
        rows = box.locate(keys[:, None] + self._basis_keys[:count],  # term x basis
                          degs[:, None] + self._basis_degs[:count])
        (t, j), i, vals = self._entries(rows)
        scale = (coeffs != field.one)[t]
        vals[scale] = mod(vals[scale] * coeffs[t[scale]], field)
        for a in (j, i, vals):
            a.flags.writeable = False
        self._triplets[key] = j, i, vals
        return j, i, vals

    def _entries(self, rows):
        """The stored entries of the table rows `rows` (an array), in order:
        the index of each entry's row in `rows` (a tuple), its column, and
        its value, copied."""
        start = self.indptr[rows]
        stored = np.arange(self.width) < (self.indptr[rows + 1] - start)[..., None]
        *index, at = np.unravel_index(np.flatnonzero(stored), stored.shape)
        at += start[tuple(index)]
        return index, self.cols[at], self.vals[at]


@functools.lru_cache(maxsize=128)
def build_truncation(spec: RingSpec, N: int) -> TruncatedAlgebra:
    """Build (and memoize) R_N for a ring spec."""
    return TruncatedAlgebra(spec, N)
