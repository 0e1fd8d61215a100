"""Exact sparse multivariate polynomials.

A monomial is a tuple of non-negative exponents, one per variable.  A
polynomial stores a map monomial -> nonzero coefficient over a fixed field.
Monomial comparison is graded lexicographic with the declared variable order
(x > y > z for variables declared as ("x", "y", "z")).  Coefficient vectors
index the monomials of degree < N through one MonomialBox: R_N's reduction
table and the exact witness solve share it.  The membership solve indexes
only the monomials its products reach.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .fields import SpecError, json_check, json_item
from .linalg import as_array, scatter

Monomial = tuple
MAX_BOX = 20_000  # monomials; about 7x the largest box of reproduce-paper -N 24 --n-max 12

__all__ = [
    "Monomial",
    "MonomialBox",
    "Polynomial",
    "grlex_key",
    "grlex_keys",
    "mono_deg",
    "mono_mul",
    "monomials_upto",
    "monomials_below",
    "parse_poly",
]


def mono_deg(m) -> int:
    return sum(m)


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def grlex_key(m):
    """Sort key: ascending graded-lex (degree first, then lex on exponents)."""
    return (sum(m), m)


def grlex_keys(exps, base: int):
    """Integer keys of exponent rows (last axis) that sort like grlex_key;
    distinct for distinct rows while every exponent is below base.  A
    ValueError if the largest key, k (base-1) base^k + base^k - 1 in k
    variables, does not fit in int64."""
    k = exps.shape[-1]
    if k * (base - 1) * base**k + base**k - 1 > 2**63 - 1:
        raise ValueError(f"exponents up to {base - 1} in {k} variables overflow int64 keys")
    weights = base ** np.arange(k, -1, -1, dtype=np.int64)
    return np.concatenate([exps.sum(axis=-1)[..., None], exps], axis=-1) @ weights


def monomials_of_degree(nvars: int, d: int):
    """All exponent tuples of total degree exactly d, lex-ascending."""
    if nvars == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for rest in monomials_of_degree(nvars - 1, d - first):
            yield (first,) + rest


def monomials_upto(nvars: int, d: int) -> list:
    """All monomials of total degree <= d, ascending graded-lex."""
    out = []
    for deg in range(d + 1):
        out.extend(sorted(monomials_of_degree(nvars, deg)))
    return out


def monomials_below(nvars: int, n: int) -> list:
    """All monomials of total degree < n, ascending graded-lex."""
    return monomials_upto(nvars, n - 1)


class MonomialBox:
    """The monomials of degree < N, one index each in ascending graded-lex
    order, with their graded-lex keys in base 2N and their degrees.

    The keys of two monomials of the box add to the key of their product,
    which never aliases another key; a product of degree >= N, or any
    monomial of degree >= N, gets the index dim.  The int64 key bound, then
    MAX_BOX, is checked before a monomial is listed.  Multiples are handed
    out as triplets (row, column, coefficient).
    """

    def __init__(self, nvars: int, N: int):
        try:
            grlex_keys(np.zeros((0, nvars), dtype=np.int64), 2 * N)  # the key bound
        except ValueError:
            raise ValueError(f"monomials of degree < {N} in {nvars} variables "
                             "overflow int64 keys") from None
        if math.comb(N - 1 + nvars, nvars) > MAX_BOX:  # their number
            raise ValueError(f"more than {MAX_BOX} monomials of degree < {N} in {nvars} variables")
        self.nvars, self.N = nvars, N
        self.monos = monomials_below(nvars, N)
        self.dim = len(self.monos)
        exps = np.array(self.monos, dtype=np.int64).reshape(self.dim, nvars)
        self.keys, self.degs = grlex_keys(exps, 2 * N), exps.sum(axis=1)

    def locate(self, keys, degs):
        """Indices of the monomials with these keys and degrees (arrays of
        one shape); dim for a monomial of degree >= N."""
        return np.where(degs < self.N, np.searchsorted(self.keys, keys), self.dim)

    def terms(self, p, field):
        """Keys, degrees and coefficients of the terms of p of degree < N;
        SpecError if p is not a polynomial in nvars variables over field."""
        if p.field != field or p.nvars != self.nvars:
            raise SpecError("polynomial not over the ring of its coefficient space")
        terms = [(m, c) for m, c in p.terms.items() if sum(m) < self.N]
        exps = np.array([m for m, _ in terms], dtype=np.int64).reshape(-1, self.nvars)
        return (grlex_keys(exps, 2 * self.N), exps.sum(axis=1),
                as_array([c for _, c in terms], field))

    def multiples(self, p, D: int, field):
        """Rows m * p over the monomials m of degree <= D, a prefix of the
        box; ValueError if a product leaves the box."""
        return scatter((np.searchsorted(self.degs, D, side="right"), self.dim), field,
                       *self.triplets(p, D, field))

    def triplets(self, p, D: int, field):
        """The multiples as triplets: (m, index of m * t, c) for the
        monomials m of degree <= D and the terms c t of p."""
        if D >= 0 and p.degree() + D >= self.N:
            raise ValueError("multiples outside the monomial box")
        count = int(np.searchsorted(self.degs, D, side="right"))
        keys, degs, coeffs = self.terms(p, field)
        at = self.locate(keys[:, None] + self.keys[:count], degs[:, None] + self.degs[:count])
        return np.arange(at.size) % max(count, 1), at.ravel(), np.repeat(coeffs, count)

    def vector(self, p, field):
        """The coefficient vector of p; ValueError if deg p >= N."""
        return self.multiples(p, 0, field)[0]


class Polynomial:
    """Immutable exact polynomial: dict of monomial -> nonzero coefficient."""

    __slots__ = ("field", "nvars", "terms", "_hash")

    def __init__(self, field, nvars: int, terms: dict):
        self.field = field
        self.nvars = nvars
        self.terms = {m: c for m, c in terms.items() if c != field.zero}
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field, nvars, c):
        return cls(field, nvars, {(0,) * nvars: field.coerce(c)})

    @classmethod
    def one(cls, field, nvars):
        return cls.constant(field, nvars, 1)

    @classmethod
    def variable(cls, field, nvars, index, power=1, coeff=1):
        exps = [0] * nvars
        exps[index] = power
        return cls(field, nvars, {tuple(exps): field.coerce(coeff)})

    @classmethod
    def from_monomial(cls, field, mono, coeff=1):
        return cls(field, len(mono), {tuple(mono): field.coerce(coeff)})

    @classmethod
    def from_coefficients(cls, field, nvars, monos, coeffs):
        """The polynomial with coefficient coeffs[i] on monos[i], reading only
        the nonzero entries of the coefficient array."""
        return cls(field, nvars,
                   {monos[i]: field.coerce(coeffs[i]) for i in np.flatnonzero(coeffs)})

    # -- queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_deg(m) for m in self.terms)

    def min_degree(self) -> int:
        if not self.terms:
            return -1
        return min(mono_deg(m) for m in self.terms)

    def sorted_terms(self, reverse=True):
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=reverse)

    # -- arithmetic ---------------------------------------------------

    def _check(self, other):
        if self.field != other.field or self.nvars != other.nvars:
            raise ValueError("polynomials over different rings")

    def __add__(self, other):
        self._check(other)
        f = self.field
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = f.add(terms.get(m, f.zero), c)
        return Polynomial(f, self.nvars, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        f = self.field
        return Polynomial(f, self.nvars, {m: f.neg(c) for m, c in self.terms.items()})

    def __mul__(self, other):
        f = self.field
        if not isinstance(other, Polynomial):
            c = f.coerce(other)
            return Polynomial(f, self.nvars, {m: f.mul(a, c) for m, a in self.terms.items()})
        self._check(other)
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                v = f.mul(c1, c2)
                if m in terms:
                    terms[m] = f.add(terms[m], v)
                else:
                    terms[m] = v
        return Polynomial(f, self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.one(self.field, self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def truncate(self, n: int):
        """Drop all terms of total degree >= n."""
        return Polynomial(
            self.field, self.nvars, {m: c for m, c in self.terms.items() if mono_deg(m) < n}
        )

    def extend(self, nvars_new: int):
        """View this polynomial in a ring with extra trailing variables."""
        if nvars_new < self.nvars:
            raise ValueError("cannot shrink the variable set")
        pad = (0,) * (nvars_new - self.nvars)
        return Polynomial(self.field, nvars_new, {m + pad: c for m, c in self.terms.items()})

    # -- equality -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, self.nvars, frozenset(self.terms.items())))
        return self._hash

    # -- text I/O -----------------------------------------------------

    def format(self, variables) -> str:
        if not self.terms:
            return "0"
        f = self.field
        parts = []
        for mono, coeff in self.sorted_terms(reverse=True):
            factors = []
            for name, e in zip(variables, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            cs = f.fmt(coeff)
            if factors and cs == "1":
                body = "*".join(factors)
            elif factors and cs == "-1":
                body = "-" + "*".join(factors)
            elif factors:
                body = cs + "*" + "*".join(factors)
            else:
                body = cs
            parts.append(body)
        out = parts[0]
        for part in parts[1:]:
            out += " - " + part[1:] if part.startswith("-") else " + " + part
        return out

    def __repr__(self):
        names = ["x", "y", "z", "w", "v", "u"][: self.nvars]
        while len(names) < self.nvars:
            names.append(f"t{len(names)}")
        return f"<poly {self.format(names)}>"

    def to_json(self) -> list:
        return [
            {"exponents": list(m), "coefficient": self.field.fmt(c)}
            for m, c in self.sorted_terms(reverse=True)
        ]

    @classmethod
    def from_json(cls, data: list, field, nvars: int):
        """Inverse of `to_json`; SpecError naming the first malformed term
        (as spec.f[k]) on any other input."""
        terms = {}
        for k, entry in enumerate(json_check(data, list, "spec.f")):
            item = f"spec.f[{k}]"
            m = tuple(json_check(e, int, f"{item}.exponents")
                      for e in json_item(entry, "exponents", list, item))
            if len(m) != nvars or min(m, default=0) < 0:
                raise SpecError(f"{item}.exponents: expected {nvars} non-negative integers")
            coefficient = json_item(entry, "coefficient", str, item)
            try:
                terms[m] = field.parse(coefficient)
            except ValueError as exc:
                raise SpecError(f"{item}.coefficient: {exc}") from None
        return cls(field, nvars, terms)


_TOKEN = re.compile(r"\s*([+-]|[A-Za-z_][A-Za-z_0-9]*|\d+/\d+|\d+|\^|\*)")


def parse_poly(text: str, variables, field) -> Polynomial:
    """Parse terms like '3*x^2*y - z + 1' over the declared variables."""
    nvars = len(variables)
    var_index = {name: i for i, name in enumerate(variables)}
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"cannot tokenize {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()

    result = Polynomial.zero(field, nvars)
    i = 0
    n = len(tokens)
    while i < n:
        sign = 1
        while i < n and tokens[i] in "+-":
            if tokens[i] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise ValueError("trailing sign")
        coeff = field.one if sign > 0 else field.neg(field.one)
        exps = [0] * nvars
        expect_factor = True
        while i < n:
            tok = tokens[i]
            if tok in "+-":
                break
            if tok == "*":
                i += 1
                expect_factor = True
                continue
            if not expect_factor:
                raise ValueError(f"unexpected token {tok!r} (missing '*'?)")
            if tok in var_index:
                power = 1
                if i + 1 < n and tokens[i + 1] == "^":
                    if i + 2 == n or not tokens[i + 2].isdigit():
                        raise ValueError(f"expected an exponent after {tok}^")
                    power = int(tokens[i + 2])
                    i += 2
                exps[var_index[tok]] += power
            else:
                coeff = field.mul(coeff, field.parse(tok))
            i += 1
            expect_factor = False
        term = Polynomial(field, nvars, {tuple(exps): coeff})
        result = result + term
    return result
