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

from .fields import SpecError, field_from_config, field_to_config, json_check, json_item
from .linalg import Subspace, mod, neg, scatter, zeros
from .poly import MonomialBox, Polynomial, parse_poly


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


class TruncatedAlgebra:
    """R_N with an explicit standard-monomial basis and exact reduction.

    Every monomial of degree < N owns one row of a dense reduction table, at
    its index in the MonomialBox of degree < N: its coordinate vector over
    the standard basis (a unit row for a standard monomial); the box's index
    dim, for every monomial of degree >= N, is the zero row.  Keys and
    degrees are linear in the exponents, so the product of two monomials is
    located from the sums of theirs, without forming its exponents.  Multiplying
    by a polynomial gathers the nonzero entries of the shifted rows, through
    the table's support mask, and scales those whose coefficient is not 1:
    no arithmetic on a zero entry, and no multiplication for a coefficient
    1.  They are handed out as triplets (row, column, value), which the
    graded systems scatter-add straight into their blocks.
    """

    def __init__(self, spec: RingSpec, N: int):
        if N < 1:
            raise SpecError("truncation order must be >= 1")
        self.spec = spec
        self.N = N
        field = spec.field
        box = self.box = MonomialBox(spec.nvars, N)
        n = box.dim  # index n, for every monomial of degree >= N, is the zero row

        # Terms of f of degree >= N only ever land on the zero row.  The
        # multipliers of f, of degree < N - min deg f, are the first u
        # monomials.
        f_keys, f_degs, f_coeffs = box.terms(spec.f, field)
        u = np.searchsorted(box.degs, N - spec.f.min_degree())
        rel = zeros((u, n + 1), field)
        rel[np.arange(u)[:, None],
            box.locate(box.keys[:u, None] + f_keys, box.degs[:u, None] + f_degs)] = f_coeffs
        # Columns descending, so row reduction pivots on the largest monomial
        # of each relation and keeps the small monomials standard.
        relations = Subspace.from_vectors(field, n, rel[:, n - 1::-1])
        pivot_rows = n - 1 - np.array(relations.pivots, dtype=np.int64)
        standard = np.delete(np.arange(n), pivot_rows)
        self.basis = [box.monos[i] for i in standard]
        self._basis_keys, self._basis_degs = box.keys[standard], box.degs[standard]
        d = len(standard)
        self.table = zeros((n + 1, d), field)
        self.table[standard, np.arange(d)] = field.one
        self.table[pivot_rows] = neg(relations.basis[:, n - 1 - standard], field)
        self._support = self.table.astype(bool)

    @property
    def dim(self):
        return len(self.basis)

    @property
    def field(self):
        return self.spec.field

    def reduce(self, p: Polynomial):
        """Coordinate vector of p in R_N (exact), as an array."""
        return scatter(self.dim, self.field, *self.triplets(p, 1)[1:])  # basis[0] is 1

    def lift(self, coords) -> Polynomial:
        """The standard-monomial representative with the given coordinates."""
        return Polynomial.from_coefficients(self.field, self.spec.nvars, self.basis, coords)

    def multiples(self, p: Polynomial):
        """Rows j = reduce(p * basis[j]), the multiples that span the ideal
        (p) of R_N, laid out as MonomialBox.multiples lays out its rows.

        The transpose is the matrix of multiplication by p.
        """
        return scatter((self.dim, self.dim), self.field, *self.triplets(p))

    def triplets(self, p: Polynomial, count=None):
        """The multiples by the first count basis monomials (default: all)
        as triplets (j, i, value), the values at (j, i) adding up to
        multiples(p)[j, i]: over the terms c x^e of p, c * table[row of
        e + basis[j]], from the nonzero table entries alone."""
        field = self.field
        box = self.box
        keys, degs, coeffs = box.terms(p, field)
        rows = box.locate(keys[:, None] + self._basis_keys[:count],  # term x basis
                          degs[:, None] + self._basis_degs[:count])
        # flat positions: np.nonzero of the 3-d mask is an order slower
        mask = self._support[rows]
        t, j, i = np.unravel_index(np.flatnonzero(mask), mask.shape)
        vals = self.table[rows[t, j], i]
        scale = (coeffs != field.one)[t]
        vals[scale] = mod(vals[scale] * coeffs[t[scale]], field)
        return j, i, vals


@functools.lru_cache(maxsize=128)
def build_truncation(spec: RingSpec, N: int) -> TruncatedAlgebra:
    """Build (and memoize) R_N for a ring spec."""
    return TruncatedAlgebra(spec, N)
