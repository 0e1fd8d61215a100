"""Matrix factorizations: validation, syzygy swap, sums, doubling, catalog."""

import pytest

from mfann import families, mf
from mfann.families import build_family
from mfann.fields import PrimeField, Rationals
from mfann.ideals import IdealSpec
from mfann.mf import (
    RING_IDS,
    CatalogError,
    MatrixFactorization,
    catalog,
    catalog_labels,
    direct_sum,
    knoerrer_double,
    parse_selector,
    poly_mat_mul,
    ring_spec,
    swap,
    validate,
)

F13 = PrimeField(13, 5)


def entry_mf(ring_id, label, n=None):
    return catalog(ring_id, label, n, F13).mf


def test_validate_catalog_samples():
    for ring_id in RING_IDS:
        for label, parametric in catalog_labels(ring_id):
            mf = entry_mf(ring_id, label, 2 if parametric else None)
            assert validate(mf).ok, mf.label


def test_validate_negative_control():
    mf = entry_mf("a-inf-1", "phi", 2)
    # corrupt the (2, 2) entry via JSON round trip
    data = mf.to_json()
    data["phi"][1][1] = "x + y"
    bad = MatrixFactorization.from_json(data)
    rep = validate(bad)
    assert not rep.ok
    assert rep.entry in ((1, 1), (1, 2), (2, 1), (2, 2))
    assert rep.product in ("phi*psi", "psi*phi")


def test_json_round_trip():
    mf = entry_mf("d-inf-2", "delta+", 3)
    assert MatrixFactorization.from_json(mf.to_json()) == mf


def test_swap_is_involutive_and_valid():
    mf = entry_mf("d-inf-1", "gamma", 2)
    sw = swap(mf)
    assert validate(sw).ok
    assert swap(sw).phi == mf.phi and swap(sw).psi == mf.psi


def test_direct_sum_blocks():
    a = entry_mf("d-inf-1", "R/xR")
    b = entry_mf("d-inf-1", "R/yR")
    s = direct_sum(a, b)
    assert s.n == a.n + b.n
    assert validate(s).ok
    with pytest.raises(Exception):
        direct_sum(a, entry_mf("a-inf-1", "R/xR"))


def test_knoerrer_double_squares_to_extended_equation():
    mf = entry_mf("a-inf-1", "phi", 1)
    dd = knoerrer_double(mf, "z")
    assert dd.n == 2 * mf.n
    assert validate(dd).ok
    assert dd.spec.format(dd.spec.f) == "x^2 + z^2"
    prod = poly_mat_mul(dd.phi, dd.psi)
    for i in range(dd.n):
        assert prod[i][i] == dd.spec.f


def test_knoerrer_double_rejects_existing_variable():
    mf = entry_mf("a-inf-2", "R/(z-ix)")
    with pytest.raises(Exception):
        knoerrer_double(mf, "z")


def test_catalog_parametric_requires_n():
    with pytest.raises(CatalogError):
        catalog("a-inf-1", "phi", None, F13)
    with pytest.raises(CatalogError):
        catalog("a-inf-1", "nope", 1, F13)
    with pytest.raises(CatalogError):
        catalog("x-inf-9", "phi", 1, F13)


def test_catalog_needs_imaginary_unit_for_dim2_a_type():
    with pytest.raises(CatalogError):
        catalog("a-inf-2", "psi+", 1, Rationals())
    # the other rings work fine over the rationals
    assert validate(catalog("d-inf-2", "alpha+", None, Rationals()).mf).ok


def test_expected_annihilator_strings():
    assert catalog("a-inf-1", "phi", 3, F13).expected_annihilator.format() == "(x, y^3)"
    e = catalog("d-inf-1", "delta", 2, F13).expected_annihilator
    assert e.format() == "(x^2, x*y, y^3)"
    e = catalog("d-inf-2", "gamma-", 1, F13).expected_annihilator
    assert e.format() == "(x, y^2, z)"


def test_parse_selector():
    entry = parse_selector("d-inf-2/delta+?n=2", F13)
    assert entry.label == "delta+" and entry.n == 2
    with pytest.raises(CatalogError):
        parse_selector("no-slash", F13)
    with pytest.raises(CatalogError):
        parse_selector("a-inf-1/phi?k=2", F13)
    with pytest.raises(CatalogError, match="not parametric"):
        parse_selector("a-inf-1/R/xR?n=3", F13)
    # the default n that validate and double pass is dropped for a finite label
    assert parse_selector("a-inf-1/R/xR", F13, default_n=1).mf.label == "a-inf-1/R/xR"
    assert parse_selector("a-inf-1/phi", F13, default_n=1).n == 1


def test_locally_free_flag():
    assert catalog("a-inf-1", "phi", 1, F13).locally_free_on_punctured_spectrum
    assert not catalog("a-inf-1", "R/xR", None, F13).locally_free_on_punctured_spectrum


def test_ring_spec_equations():
    assert ring_spec("a-inf-1", F13).format(ring_spec("a-inf-1", F13).f) == "x^2"
    assert ring_spec("d-inf-2", F13).format(ring_spec("d-inf-2", F13).f) == "x^2*y + z^2"


# ring -> (finite labels, parametric: label -> (fixed gens, tail base, offset, limit gens))
FAMILY_LAYOUTS = {
    "a-inf-1": (
        ["R/xR"],
        {"phi": (["x"], "y", 0, ["x"])},
    ),
    "a-inf-2": (
        ["R/(z-ix)", "R/(z+ix)"],
        {
            "psi+": (["x", "z"], "y", 0, ["x", "z"]),
            "psi-": (["x", "z"], "y", 0, ["x", "z"]),
        },
    ),
    "d-inf-1": (
        ["R/xR", "R/xyR", "R/yR", "R/x^2R", "sum(R/xR,R/yR)"],
        {
            "alpha": (["x"], "y", 0, ["x"]),
            "beta": (["x"], "y", 0, ["x"]),
            "gamma": (["x^2", "x*y"], "y", 1, ["x^2", "x*y"]),
            "delta": (["x^2", "x*y"], "y", 1, ["x^2", "x*y"]),
        },
    ),
    "d-inf-2": (
        ["alpha+", "alpha-", "beta+", "beta-", "sum(alpha-,beta-)"],
        {
            "gamma+": (["x", "z"], "y", 1, ["x", "z"]),
            "gamma-": (["x", "z"], "y", 1, ["x", "z"]),
            "delta+": (["x^2", "x*y", "z"], "y", 1, ["x^2", "x*y", "z"]),
            "delta-": (["x^2", "x*y", "z"], "y", 1, ["x^2", "x*y", "z"]),
        },
    ),
}


@pytest.mark.parametrize("ring_id", RING_IDS)
def test_family_layout_read_off_catalog_table(ring_id):
    finite, parametric = FAMILY_LAYOUTS[ring_id]
    family = build_family(ring_id, F13, N=8)
    spec = family.ring
    assert [label for label, _ideal in family.members] == finite
    for label, ideal in family.members:
        assert ideal == catalog(ring_id, label, None, F13).expected_annihilator
    assert [label for label, _chain in family.parametric] == list(parametric)
    for label, chain in family.parametric:
        fixed, base, offset, limit_gens = parametric[label]
        assert chain.fixed == IdealSpec.from_strings(spec, fixed).generators
        assert (chain.tail_base, chain.tail_offset) == (spec.poly(base), offset)
        assert IdealSpec(chain.spec, chain.fixed) == IdealSpec.from_strings(spec, limit_gens)
    with pytest.raises(CatalogError):
        build_family("x-inf-9", F13)


def test_build_family_parses_no_catalog_entry(monkeypatch):
    # the families read the table rows alone: no matrix is parsed
    def refuse(*args, **kwargs):
        raise RuntimeError("catalog() called")

    monkeypatch.setattr(mf, "catalog", refuse)
    monkeypatch.setattr(families, "catalog", refuse, raising=False)
    for ring_id in RING_IDS:
        family = build_family(ring_id, F13, N=12)
        assert len(family.members) + len(family.parametric) == len(catalog_labels(ring_id))
    cm0 = build_family("a-inf-1", F13, N=8, subfamily="cm0")
    assert cm0.members == () and [label for label, *_ in cm0.parametric] == ["phi"]


def test_direct_sum_entries_come_from_their_summands():
    entry = catalog("d-inf-2", "sum(alpha-,beta-)", 4, F13)
    assert entry.n is None and entry.mf.label == "d-inf-2/sum(alpha-,beta-)"
    expected = direct_sum(entry_mf("d-inf-2", "alpha-"), entry_mf("d-inf-2", "beta-"))
    assert (entry.mf.phi, entry.mf.psi) == (expected.phi, expected.psi)
    assert entry.expected_annihilator.format() == "(x^2, x*y, z)"
