"""Standard module families for the four countable-type rings.

Builds AnnFamily inputs for the compactness layer from the catalog's
expected annihilators.
"""

from __future__ import annotations

from .alexandrov import AnnFamily
from .ideals import IdealSpec, ParametricIdealFamily
from .mf import CatalogError, catalog, catalog_table, ring_spec

__all__ = ["family_layout", "build_family"]

# expected verdict and witness for the full lcm family of each ring
EXPECTED_VERDICTS = {
    "a-inf-1": ("compact", "R/xR", ["x"]),
    "a-inf-2": ("compact", "R/(z-ix)", ["x", "z"]),
    "d-inf-1": ("compact", "sum(R/xR,R/yR)", ["x^2", "x*y"]),
    "d-inf-2": ("compact", "sum(alpha-,beta-)", ["x^2", "x*y", "z"]),
}


def family_layout(ring_id: str):
    """(finite labels, parametric: label -> (fixed gens, tail base, offset,
    limit gens)), read off the catalog table.

    The finite labels are the non-parametric ones.  A parametric entry's
    annihilator generators in n give the tail base^(n+offset); the others
    are both the fixed generators and the limit of the family.
    """
    finite, parametric = [], {}
    for label, (is_parametric, _phi, _psi, ann, _free) in catalog_table(ring_id).items():
        if not is_parametric:
            finite.append(label)
            continue
        fixed = [g for g in ann if "{" not in g]
        (tail,) = [g for g in ann if "{" in g]
        base, offset = tail.format(n=0, n1=1).split("^")
        parametric[label] = (fixed, base, int(offset), list(fixed))
    return finite, parametric


def build_family(
    ring_id: str,
    field=None,
    N: int = 10,
    subfamily: str = "all",
    D: int = 4,
) -> AnnFamily:
    """AnnFamily for a ring.

    subfamily 'cm0' restricts to the members locally free on the punctured
    spectrum (the cok phi_n of the A-type dimension-one ring).  D is unused:
    it only served the deleted computed-annihilator path, and is still
    accepted so that callers passing it keep working.
    """
    spec = ring_spec(ring_id, field)
    finite_labels, parametric_defs = family_layout(ring_id)

    if subfamily == "cm0":
        finite_labels = [
            lab for lab in finite_labels
            if catalog(ring_id, lab, None, field).locally_free_on_punctured_spectrum
        ]
        parametric_defs = {
            lab: data for lab, data in parametric_defs.items()
            if catalog(ring_id, lab, 1, field).locally_free_on_punctured_spectrum
        }
        if not finite_labels and not parametric_defs:
            raise CatalogError(f"ring {ring_id} has no cm0 members in the catalog")
    elif subfamily != "all":
        raise CatalogError(f"unknown subfamily {subfamily!r}")

    members = [(lab, catalog(ring_id, lab, None, field).expected_annihilator)
               for lab in finite_labels]

    parametric = []
    for lab, (fixed, tail, offset, limit) in parametric_defs.items():
        fam = ParametricIdealFamily(
            spec, tuple(spec.poly(g) for g in fixed), spec.poly(tail), offset)
        parametric.append((lab, fam, IdealSpec.from_strings(spec, limit)))

    return AnnFamily(spec, tuple(members), tuple(parametric), N)
