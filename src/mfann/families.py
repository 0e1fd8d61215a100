"""Standard module families for the four countable-type rings.

Builds AnnFamily inputs for the compactness layer straight from the rows of
the catalog table: only the members' annihilators and locally-free flags are
read, no matrix is parsed.
"""

from __future__ import annotations

from .alexandrov import AnnFamily
from .ideals import IdealSpec, ParametricIdealFamily
from .mf import CatalogError, catalog_table, imaginary_unit, ring_spec

__all__ = ["build_family"]

# expected verdict and witness for the full lcm family of each ring
EXPECTED_VERDICTS = {
    "a-inf-1": ("compact", "R/xR", ["x"]),
    "a-inf-2": ("compact", "R/(z-ix)", ["x", "z"]),
    "d-inf-1": ("compact", "sum(R/xR,R/yR)", ["x^2", "x*y"]),
    "d-inf-2": ("compact", "sum(alpha-,beta-)", ["x^2", "x*y", "z"]),
}


def build_family(
    ring_id: str,
    field=None,
    N: int = 10,
    subfamily: str = "all",
    D: int = 4,
) -> AnnFamily:
    """AnnFamily for a ring, one member per catalog row.

    A finite row's member is its annihilator.  A parametric row's annihilator
    has one generator in n, its tail base^(n+offset); the others, its fixed
    generators, are the limit of the family.  subfamily 'cm0' keeps the
    members locally free on the punctured spectrum (the cok phi_n of the
    A-type dimension-one ring).  D is unused, and still accepted so that
    callers passing it keep working.
    """
    spec = ring_spec(ring_id, field)
    if subfamily not in ("all", "cm0"):
        raise CatalogError(f"unknown subfamily {subfamily!r}")
    members, parametric = [], []
    for label, (is_parametric, phi, psi, ann, locally_free) in catalog_table(ring_id).items():
        if "{i}" in phi + psi:
            imaginary_unit(spec.field)
        if subfamily == "cm0" and not locally_free:
            continue
        # the generators free of n: all of a finite row's
        fixed = IdealSpec.from_strings(spec, [g for g in ann if "{" not in g])
        if not is_parametric:
            members.append((label, fixed))
            continue
        (tail,) = [g for g in ann if "{" in g]
        base, offset = tail.format(n=0, n1=1).split("^")
        parametric.append((label, ParametricIdealFamily(
            spec, fixed.generators, spec.poly(base), int(offset))))
    if not members and not parametric:
        raise CatalogError(f"ring {ring_id} has no cm0 members in the catalog")
    return AnnFamily(spec, tuple(members), tuple(parametric), N)
