"""Specialization preorder and compactness verdicts."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfann.alexandrov import (
    AnnFamily,
    build_preorder,
    compactness_verdict,
)
from mfann.annihilator import grading
from mfann import ideals as ideals_module
from mfann.families import EXPECTED_VERDICTS, build_family
from mfann.fields import PrimeField, Rationals
from mfann.ideals import (
    IdealSpec,
    ParametricIdealFamily,
    extract_generators,
    limit_of_chain,
    member,
    truncate_ideal,
)
from mfann.linalg import Subspace
from mfann.mf import RING_IDS, ring_spec
from mfann.poly import Polynomial, monomials_below
from mfann.truncation import SpecError, build_truncation

F13 = PrimeField(13, 5)
XX = ring_spec("a-inf-1", F13)


def I(spec, *gens):
    return IdealSpec.from_strings(spec, gens)


def chain_family():
    # Ann(A) = (x, y) > Ann(B) = (x, y^2) > Ann(C) = (x, y^3): a 3-chain
    return AnnFamily(
        XX,
        (("A", I(XX, "x", "y")), ("B", I(XX, "x", "y^2")), ("C", I(XX, "x", "y^3"))),
        N=8,
    )


def test_preorder_of_chain():
    edges = set(build_preorder(chain_family()))
    # smaller ideal -> larger ideal edges (C below B below A)
    assert ("C", "B") in edges and ("B", "A") in edges and ("C", "A") in edges
    assert ("A", "B") not in edges
    assert all((lab, lab) in edges for lab in "ABC")


def test_compact_when_minimum_attained():
    fam = AnnFamily(XX, (("A", I(XX, "x", "y")), ("B", I(XX, "x"))), N=8)
    verdict = compactness_verdict(fam)
    assert verdict.verdict == "compact" and verdict.minimum == "B"
    assert verdict.global_intersection.format() == "(x)"


def test_descending_chain_without_limit_is_undetermined():
    # (x, (1 + y)^n) is the unit ideal, not (x): its unit tail base leaves
    # limit_of_chain no degree to certify the n-free generators at
    fam = AnnFamily(
        XX, (), (("phi", ParametricIdealFamily(XX, (XX.poly("x"),), XX.poly("1 + y"), 0)),), N=8)
    verdict = compactness_verdict(fam, n_max=5)
    assert verdict.verdict == "undetermined"
    assert verdict.detail == "limit of 'phi' not verified: tail degenerates at this scale"


def test_not_compact_evidence_for_pure_chain():
    fam = AnnFamily(
        XX, (), (("phi", ParametricIdealFamily(XX, (XX.poly("x"),), XX.poly("y"), 0)),), N=8)
    verdict = compactness_verdict(fam, n_max=6)
    assert verdict.verdict == "not-compact-evidence"
    assert verdict.global_intersection.format() == "(x)"
    assert verdict.m_primary == "not-m-primary-evidence"


def test_not_compact_evidence_for_an_inhomogeneous_tail():
    # (x, (y + y^2)^n) = (x, y^n) descends to (x), which no member attains
    chain = ParametricIdealFamily(XX, (XX.poly("x"),), XX.poly("y + y^2"), 0)
    fam = AnnFamily(XX, (("B", I(XX, "x", "y")),), (("phi", chain),), N=8)
    verdict = compactness_verdict(fam, n_max=4)
    assert verdict.verdict == "not-compact-evidence"
    assert verdict.global_intersection.format() == "(x)"


@pytest.mark.parametrize("members, parametric", [
    ((("A", I(XX, "x")), ("A", I(XX, "x", "y"))), ()),
    ((("A", I(XX, "x", "y")), ("A", I(XX, "x"))), ()),
    # a finite member named like the first instance of the parametric one
    ((("phi[n=1]", I(XX, "x")),),
     (("phi", ParametricIdealFamily(XX, (XX.poly("x"),), XX.poly("y"), 0)),)),
])
def test_repeated_label_is_rejected(members, parametric):
    fam = AnnFamily(XX, members, parametric, N=6)
    with pytest.raises(SpecError, match="repeated member label"):
        compactness_verdict(fam)


@pytest.mark.parametrize("n_max", [0, -3])
def test_n_max_below_one_is_rejected(n_max):
    fam = build_family("d-inf-1", F13, N=6)
    for expand in (fam.expanded, lambda n: build_preorder(fam, n_max=n),
                   lambda n: compactness_verdict(fam, n_max=n)):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            expand(n_max)


@pytest.mark.parametrize("ring_id", RING_IDS)
def test_full_families_are_compact(ring_id):
    fam = build_family(ring_id, F13, N=8)
    verdict = compactness_verdict(fam, n_max=4)
    expected_verdict, expected_witness, _ = EXPECTED_VERDICTS[ring_id]
    assert verdict.verdict == expected_verdict
    assert verdict.minimum == expected_witness


def test_verdict_serialization_and_dot():
    fam = AnnFamily(XX, (("A", I(XX, "x", "y")), ("B", I(XX, "x"))), N=6)
    verdict = compactness_verdict(fam)
    data = verdict.to_json()
    assert data["verdict"] == "compact" and data["minimum"] == "B"


FAMILY_CASES = [
    *[(ring_id, "all", F13, 8, 4) for ring_id in RING_IDS],
    ("a-inf-1", "cm0", F13, 8, 4),
    ("a-inf-1", "all", Rationals(), 6, 3),
    ("d-inf-1", "all", Rationals(), 6, 3),
]


def pairwise_edges(family, n_max):
    """The preorder by the definition: every ordered pair of members, each
    truncated ideal compared basis row by basis row."""
    algebra = build_truncation(family.ring, family.N)
    spaces = {lab: truncate_ideal(ideal, algebra) for lab, ideal in family.expanded(n_max)}
    return [(a, b) for a in spaces for b in spaces if spaces[b].contains(spaces[a].basis)]


@pytest.mark.parametrize("ring_id, subfamily, field, N, n_max", FAMILY_CASES)
def test_preorder_on_generators_matches_pairwise(ring_id, subfamily, field, N, n_max):
    fam = build_family(ring_id, field, N, subfamily=subfamily)
    assert build_preorder(fam, n_max) == pairwise_edges(fam, n_max)


@pytest.mark.parametrize("ring_id, subfamily", [
    *[(ring_id, "all") for ring_id in RING_IDS], ("a-inf-1", "cm0")])
def test_verdict_edges_equal_build_preorder(ring_id, subfamily):
    # at n_max = 8 the d-inf families have more members than the
    # truncate_ideal memo holds, so a second span of them would miss
    fam = build_family(ring_id, F13, 12, subfamily=subfamily)
    assert compactness_verdict(fam, 8).edges == build_preorder(fam, 8)


_MONOS = monomials_below(2, 4)


@st.composite
def ideals(draw):
    """Random ideals of k[[x,y]]/(x^2) over F13, the zero and unit ideals included."""
    gens = draw(st.lists(
        st.dictionaries(st.sampled_from(_MONOS), st.integers(1, 12), min_size=1, max_size=3),
        max_size=3,
    ))
    return IdealSpec(XX, tuple(Polynomial(F13, 2, terms) for terms in gens))


@settings(max_examples=40, deadline=None)
@given(st.lists(ideals(), min_size=1, max_size=5), st.integers(3, 6))
def test_preorder_on_random_ideals_matches_pairwise(random_ideals, N):
    members = [("0", I(XX)), ("1", I(XX, "1"))]
    members += [(f"I{k}", ideal) for k, ideal in enumerate(random_ideals)]
    fam = AnnFamily(XX, tuple(members), N=N)
    edges = build_preorder(fam)
    assert edges == pairwise_edges(fam, 5)
    assert {("0", lab) for lab, _ in members} <= set(edges)
    assert {(lab, "1") for lab, _ in members} <= set(edges)


@settings(max_examples=40, deadline=None)
@given(ideals(), st.integers(3, 6), st.data())
def test_truncate_ideal_memo_matches_direct_span(ideal, N, data):
    """The memoized truncation is the span of the generators' multiples,
    built here, on the first and on a repeated call, at R_N and R_{N+1}, in
    any generator order; a ring mismatch is caught on every call."""
    ideals_module.truncate_ideal.cache_clear()
    permuted = IdealSpec(XX, tuple(data.draw(st.permutations(ideal.generators))))
    for level in (N, N + 1):
        algebra = build_truncation(XX, level)
        rows = [algebra.multiples(g) for g in ideal.generators]
        direct = Subspace.from_vectors(F13, algebra.dim, np.vstack(rows) if rows else [])
        first = truncate_ideal(ideal, algebra)
        assert first == direct and first.ambient == algebra.dim == 2 * level - 1
        assert truncate_ideal(ideal, algebra) is first and not first.basis.flags.writeable
        assert truncate_ideal(permuted, algebra) == direct
    other = build_truncation(ring_spec("d-inf-1", F13), N)
    for _ in range(2):
        with pytest.raises(SpecError):
            truncate_ideal(ideal, other)


def reference_verdict(family, n_max, D=4):
    """The verdict by the definition: the meet folds every expanded member's
    and every limit's own truncation, each limit, a chain's n-free
    generators, taken as verified."""
    algebra = build_truncation(family.ring, family.N)
    labeled = family.expanded(n_max)
    spaces = {lab: truncate_ideal(ideal, algebra) for lab, ideal in labeled}
    limits = [IdealSpec(fam.spec, fam.fixed) for _lab, fam in family.parametric]
    meet = None
    for sp in list(spaces.values()) + [truncate_ideal(limit, algebra) for limit in limits]:
        meet = sp if meet is None else meet.intersect(sp)
    gens = IdealSpec(family.ring, tuple(extract_generators(meet, algebra))).format()
    edges = pairwise_edges(family, n_max)
    targets = [ideal for _lab, ideal in family.members] + limits
    for lab, ideal in labeled:
        if spaces[lab] == meet and all(
                member(g, t, family.N, D).is_member
                for g in ideal.generators for t in targets if t is not ideal):
            return "compact", lab, gens, edges, lab, meet
    for lab, _fam in family.parametric:
        chain = [f"{lab}[n={n}]" for n in range(1, n_max + 1)]
        if len(chain) >= 2 and all((b, a) in edges and spaces[b].dim < spaces[a].dim
                                   for a, b in zip(chain, chain[1:])):
            return "not-compact-evidence", None, gens, edges, chain, meet
    return "undetermined", None, gens, edges, None, meet


@pytest.mark.parametrize("ring_id, subfamily, field, N, n_max", FAMILY_CASES)
def test_verdict_matches_full_intersection(ring_id, subfamily, field, N, n_max):
    fam = build_family(ring_id, field, N, subfamily=subfamily)
    v = compactness_verdict(fam, n_max)
    got = (v.verdict, v.minimum, v.global_intersection.format(), v.edges, v.evidence, v.space)
    assert got == reference_verdict(fam, n_max)


@pytest.mark.parametrize("ring_id, subfamily, field, N, n_max", FAMILY_CASES)
def test_limit_of_chain_verifies_family_chains(ring_id, subfamily, field, N, n_max):
    fam = build_family(ring_id, field, N, subfamily=subfamily)
    for _lab, pfam in fam.parametric:
        limit = IdealSpec(pfam.spec, pfam.fixed)
        assert limit_of_chain(pfam, limit, n_max, N).status == "verified-at-scale"


def test_ring_family_verdicts_hold_subspaces_on_their_small_side():
    """Truncated ideals of R_16 have small colength, so pivots plus a
    dim x codim block keep the four verdicts' allocations small; dense
    dim x ambient bases peaked near 17 MiB."""
    for memo in (build_truncation, truncate_ideal, grading):
        memo.cache_clear()
    tracemalloc.start()
    try:
        for ring_id in RING_IDS:
            compactness_verdict(build_family(ring_id, F13, 16), 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20
