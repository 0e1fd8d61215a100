"""Matrix factorizations of hypersurface equations and the countable-type catalog.

A matrix factorization is a pair (phi, psi) of n x n polynomial matrices
with phi*psi = psi*phi = f*I; it presents the maximal Cohen-Macaulay module
cok(phi).  The catalog is one table of the complete lists of
indecomposables (after Buchweitz-Greuel-Schreyer) for the four
countable-representation-type rings

    a-inf-1: k[[x,y]]/(x^2)        a-inf-2: k[[x,y,z]]/(x^2+z^2)
    d-inf-1: k[[x,y]]/(x^2 y)      d-inf-2: k[[x,y,z]]/(x^2 y+z^2)

in dimensions one and two, together with their expected annihilators.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import default_field, json_check, json_item
from .ideals import IdealSpec
from .poly import Polynomial, parse_poly
from .truncation import RingSpec, SpecError

__all__ = [
    "MatrixFactorization",
    "ValidationReport",
    "CatalogEntry",
    "validate",
    "swap",
    "direct_sum",
    "knoerrer_double",
    "ring_spec",
    "catalog",
    "catalog_labels",
    "catalog_table",
    "RING_IDS",
    "parse_selector",
]


def poly_mat_mul(A, B):
    n = len(A)
    m = len(B[0])
    k = len(B)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = None
            for t in range(k):
                term = A[i][t] * B[t][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


@dataclass(frozen=True)
class MatrixFactorization:
    spec: RingSpec
    n: int
    phi: tuple  # tuple of tuples of Polynomial
    psi: tuple
    label: str = ""

    def __post_init__(self):
        if len(self.phi) != self.n or len(self.psi) != self.n:
            raise SpecError("matrix size does not match n")
        for row in list(self.phi) + list(self.psi):
            if len(row) != self.n:
                raise SpecError("matrices must be square of size n")
            for entry in row:
                if entry.nvars != self.spec.nvars or entry.field != self.spec.field:
                    raise SpecError("matrix entry not over the ring's variables")

    def format_matrix(self, which="phi"):
        mat = self.phi if which == "phi" else self.psi
        return [[self.spec.format(e) for e in row] for row in mat]

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "n": self.n,
            "phi": self.format_matrix("phi"),
            "psi": self.format_matrix("psi"),
            "label": self.label,
        }

    @classmethod
    def from_json(cls, data: dict):
        """Inverse of `to_json`; SpecError or FieldError naming the first
        malformed item on any other input."""
        spec = RingSpec.from_json(json_item(data, "spec", dict))
        n = json_item(data, "n", int)
        if n < 1:
            raise SpecError("n: expected a positive integer")
        phi, psi = (
            tuple(tuple(_json_poly(spec, e, f"{key}[{i}][{j}]")
                        for j, e in enumerate(json_check(row, list, f"{key}[{i}]")))
                  for i, row in enumerate(json_item(data, key, list)))
            for key in ("phi", "psi")
        )
        return cls(spec, n, phi, psi, json_check(data.get("label", ""), str, "label"))


def _json_poly(spec: RingSpec, text, name: str) -> Polynomial:
    text = json_check(text, str, name)
    try:
        return spec.poly(text)
    except ValueError as exc:
        raise SpecError(f"{name}: {exc}") from None


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    product: str = ""  # which product failed: "phi*psi" or "psi*phi"
    entry: tuple = ()  # (i, j), 1-based
    got: str = ""
    expected: str = ""


def validate(mf: MatrixFactorization) -> ValidationReport:
    """Check phi*psi = psi*phi = f*I exactly; report the first violation."""
    spec = mf.spec
    f = spec.f
    zero = Polynomial.zero(spec.field, spec.nvars)
    for name, prod in (("phi*psi", poly_mat_mul(mf.phi, mf.psi)),
                       ("psi*phi", poly_mat_mul(mf.psi, mf.phi))):
        for i in range(mf.n):
            for j in range(mf.n):
                expected = f if i == j else zero
                if prod[i][j] != expected:
                    return ValidationReport(
                        False, name, (i + 1, j + 1),
                        spec.format(prod[i][j]), spec.format(expected),
                    )
    return ValidationReport(True)


def swap(mf: MatrixFactorization) -> MatrixFactorization:
    """The syzygy: cok(phi) -> cok(psi), i.e. exchange the pair."""
    return MatrixFactorization(mf.spec, mf.n, mf.psi, mf.phi, f"swap({mf.label})")


def direct_sum(a: MatrixFactorization, b: MatrixFactorization) -> MatrixFactorization:
    if a.spec != b.spec:
        raise SpecError("direct sum of factorizations over different rings")
    zero = Polynomial.zero(a.spec.field, a.spec.nvars)
    n = a.n + b.n

    def block(x, y):
        rows = []
        for i in range(a.n):
            rows.append(tuple(x[i]) + (zero,) * b.n)
        for i in range(b.n):
            rows.append((zero,) * a.n + tuple(y[i]))
        return tuple(rows)

    return MatrixFactorization(
        a.spec, n, block(a.phi, b.phi), block(a.psi, b.psi),
        f"sum({a.label},{b.label})",
    )


def knoerrer_double(mf: MatrixFactorization, new_variable: str = "z") -> MatrixFactorization:
    """The factorization [[t*I, phi], [psi, -t*I]] of f + t^2 over spec + t."""
    spec = mf.spec
    if new_variable in spec.variables:
        raise SpecError(f"variable {new_variable!r} already present in the ring")
    variables = spec.variables + (new_variable,)
    nv = len(variables)
    field = spec.field
    t = Polynomial.variable(field, nv, nv - 1)
    f_new = spec.f.extend(nv) + t * t
    new_spec = RingSpec(variables, f_new, field)
    zero = Polynomial.zero(field, nv)
    n = mf.n
    rows = []
    for i in range(n):
        rows.append(tuple(t if i == j else zero for j in range(n))
                    + tuple(mf.phi[i][j].extend(nv) for j in range(n)))
    for i in range(n):
        rows.append(tuple(mf.psi[i][j].extend(nv) for j in range(n))
                    + tuple(-t if i == j else zero for j in range(n)))
    big = tuple(rows)
    return MatrixFactorization(new_spec, 2 * n, big, big, f"double({mf.label})")


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

RING_IDS = ("a-inf-1", "a-inf-2", "d-inf-1", "d-inf-2")

_RING_DEFS = {
    "a-inf-1": (("x", "y"), "x^2"),
    "a-inf-2": (("x", "y", "z"), "x^2+z^2"),
    "d-inf-1": (("x", "y"), "x^2*y"),
    "d-inf-2": (("x", "y", "z"), "x^2*y+z^2"),
}


class CatalogError(ValueError):
    """Unknown label, missing parameter, or unusable field."""


def ring_spec(ring_id: str, field=None) -> RingSpec:
    if ring_id not in _RING_DEFS:
        raise CatalogError(f"unknown ring {ring_id!r} (expected one of {RING_IDS})")
    if field is None:
        field = default_field()
    variables, f_text = _RING_DEFS[ring_id]
    return RingSpec(variables, parse_poly(f_text, variables, field), field)


@dataclass(frozen=True)
class CatalogEntry:
    label: str
    n: int | None
    mf: MatrixFactorization
    expected_annihilator: IdealSpec
    locally_free_on_punctured_spectrum: bool


# The catalog: ring -> label -> (parametric?, phi, psi, annihilator
# generators, locally free on the punctured spectrum?), in catalog order.
# Matrices are rows separated by ";" of entries separated by spaces.  Every
# string is a format string in n, n1 = n + 1 and i = sqrt(-1).  A direct sum
# names its two summands in place of phi and psi.  A parametric entry's
# annihilator has exactly one generator in n, a pure power of a variable.
_CATALOG = {
    "a-inf-1": {
        "R/xR": (False, "x", "x", ["x"], False),
        "phi": (True, "x y^{n}; 0 -x", "x y^{n}; 0 -x", ["x", "y^{n}"], True),
    },
    "a-inf-2": {
        "R/(z-ix)": (False, "z-{i}*x", "z+{i}*x", ["x", "z"], False),
        "R/(z+ix)": (False, "z+{i}*x", "z-{i}*x", ["x", "z"], False),
        "psi+": (True, "z-{i}*x y^{n}; 0 z+{i}*x", "z+{i}*x -y^{n}; 0 z-{i}*x",
                 ["x", "y^{n}", "z"], False),
        "psi-": (True, "z+{i}*x -y^{n}; 0 z-{i}*x", "z-{i}*x y^{n}; 0 z+{i}*x",
                 ["x", "y^{n}", "z"], False),
    },
    "d-inf-1": {
        "R/xR": (False, "x", "x*y", ["x"], False),
        "R/xyR": (False, "x*y", "x", ["x"], False),
        "R/yR": (False, "y", "x^2", ["x^2", "y"], False),
        "R/x^2R": (False, "x^2", "y", ["x^2", "y"], False),
        "alpha": (True, "x*y y^{n}; 0 -x", "x y^{n}; 0 -x*y", ["x", "y^{n}"], False),
        "beta": (True, "x y^{n}; 0 -x*y", "x*y y^{n}; 0 -x", ["x", "y^{n}"], False),
        "gamma": (True, "x y^{n}; 0 -x", "x*y y^{n1}; 0 -x*y", ["x^2", "x*y", "y^{n1}"], False),
        "delta": (True, "x*y y^{n1}; 0 -x*y", "x y^{n}; 0 -x", ["x^2", "x*y", "y^{n1}"], False),
        "sum(R/xR,R/yR)": (False, "R/xR", "R/yR", ["x^2", "x*y"], False),
    },
    "d-inf-2": {
        "alpha+": (False, "z y; -x^2 z", "z -y; x^2 z", ["x^2", "y", "z"], False),
        "alpha-": (False, "z -y; x^2 z", "z y; -x^2 z", ["x^2", "y", "z"], False),
        "beta+": (False, "z x*y; -x z", "z -x*y; x z", ["x", "z"], False),
        "beta-": (False, "z -x*y; x z", "z x*y; -x z", ["x", "z"], False),
        "gamma+": (True, "z 0 x*y 0; 0 z y^{n1} -x; -x 0 z 0; -y^{n1} x*y 0 z",
                   "z 0 -x*y 0; 0 z -y^{n1} x; x 0 z 0; y^{n1} -x*y 0 z",
                   ["x", "y^{n1}", "z"], False),
        "gamma-": (True, "z 0 -x*y 0; 0 z -y^{n1} x; x 0 z 0; y^{n1} -x*y 0 z",
                   "z 0 x*y 0; 0 z y^{n1} -x; -x 0 z 0; -y^{n1} x*y 0 z",
                   ["x", "y^{n1}", "z"], False),
        "delta+": (True, "z 0 x*y 0; 0 z y^{n1} -x*y; -x 0 z 0; -y^{n} x 0 z",
                   "z 0 -x*y 0; 0 z -y^{n1} x*y; x 0 z 0; y^{n} -x 0 z",
                   ["x^2", "x*y", "y^{n1}", "z"], False),
        "delta-": (True, "z 0 -x*y 0; 0 z -y^{n1} x*y; x 0 z 0; y^{n} -x 0 z",
                   "z 0 x*y 0; 0 z y^{n1} -x*y; -x 0 z 0; -y^{n} x 0 z",
                   ["x^2", "x*y", "y^{n1}", "z"], False),
        "sum(alpha-,beta-)": (False, "alpha-", "beta-", ["x^2", "x*y", "z"], False),
    },
}


def catalog_table(ring_id: str) -> dict:
    """The catalog rows of a ring: label -> (parametric?, phi, psi,
    annihilator generators, locally free?), in catalog order."""
    if ring_id not in _CATALOG:
        raise CatalogError(f"unknown ring {ring_id!r}")
    return _CATALOG[ring_id]


def catalog_labels(ring_id: str):
    """(label, parametric?) pairs for a ring, in catalog order."""
    return [(label, row[0]) for label, row in catalog_table(ring_id).items()]


def imaginary_unit(field):
    """The field's square root of -1, for {i} in a catalog entry; else CatalogError."""
    if field.imaginary_unit is None:
        raise CatalogError("this catalog entry needs a square root of -1; "
                           "the configured field has none")
    return field.imaginary_unit


def catalog(ring_id: str, label: str, n: int | None = None, field=None) -> CatalogEntry:
    """Look up a catalog entry; n is required for parametric labels."""
    table = catalog_table(ring_id)
    spec = ring_spec(ring_id, field)
    if label not in table:
        raise CatalogError(f"unknown label {label!r} for ring {ring_id}")
    parametric, phi, psi, ann, locally_free = table[label]
    if parametric and n is None:
        raise CatalogError(f"label {label!r} is parametric: n is required")
    if parametric and n < 1:
        raise CatalogError(f"label {label!r}: n must be an integer >= 1, not {n}")
    if not parametric:
        n = None
    mf_label = f"{ring_id}/{label}" + (f"?n={n}" if n is not None else "")
    values = {"n": n, "n1": None if n is None else n + 1}
    if phi in table:
        summed = direct_sum(catalog(ring_id, phi, None, field).mf,
                            catalog(ring_id, psi, None, field).mf)
        mats = summed.phi, summed.psi
    else:
        if "{i}" in phi + psi:
            values["i"] = spec.field.fmt(imaginary_unit(spec.field))
        mats = [tuple(tuple(spec.poly(e) for e in row.split())
                      for row in text.format(**values).split(";"))
                for text in (phi, psi)]
    mf = MatrixFactorization(spec, len(mats[0]), *mats, mf_label)
    expected = IdealSpec.from_strings(spec, [g.format(**values) for g in ann])
    return CatalogEntry(label, n, mf, expected, locally_free)


def parse_selector(selector: str, field=None, default_n=None):
    """Parse 'd-inf-2/delta+?n=2' into a CatalogEntry."""
    if "/" not in selector:
        raise CatalogError(f"selector {selector!r} must look like ring/label[?n=K]")
    ring_id, rest = selector.split("/", 1)
    n = default_n
    if "?" in rest:
        rest, query = rest.split("?", 1)
        if not query.startswith("n="):
            raise CatalogError(f"unknown selector query {query!r}")
        n = query[2:]
        if not (n.isascii() and n.isdigit()):
            raise CatalogError(f"selector query {query!r}: n must be an integer >= 1")
        n = int(n)
        if (rest, False) in catalog_labels(ring_id):
            raise CatalogError(f"label {rest!r} is not parametric: it takes no query {query!r}")
    return catalog(ring_id, rest, n, field)
