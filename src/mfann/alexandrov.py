"""The specialization preorder Ann(X) <= Ann(Y) and compactness verdicts.

Compactness of the Alexandrov space of a module family is decided through
the attainment criterion: the family's topology is compact exactly when
some member's annihilator equals the intersection of all members'
annihilators.  A chain's limit is its n-free generators, certified by
`limit_of_chain`; without that certificate the verdict degrades to
undetermined.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import InvariantError
from .ideals import (
    IdealSpec,
    extract_generators,
    generator_rows,
    is_m_primary,
    limit_of_chain,
    member,
    truncate_ideal,
)
from .linalg import Subspace
from .truncation import RingSpec, SpecError, build_truncation

__all__ = ["AnnFamily", "AlexandrovVerdict", "build_preorder", "compactness_verdict"]

# members of an expanded family; about 5x the largest family of
# reproduce-paper --n-max 12 (53 members of each d-inf ring), since the
# preorder and its report grow with the square of the members
MAX_MEMBERS = 256


@dataclass(frozen=True)
class AnnFamily:
    """Labeled annihilator ideals over one ring, compared at truncation N."""

    ring: RingSpec
    members: tuple  # (label, IdealSpec)
    parametric: tuple = ()  # (label, ParametricIdealFamily)
    N: int = 10

    def __post_init__(self):
        for _label, ideal in self.members:
            if ideal.spec != self.ring:
                raise SpecError("family member over a different ring")
        for _label, fam in self.parametric:
            if fam.spec != self.ring:
                raise SpecError("parametric member over a different ring")

    def expanded(self, n_max: int):
        """All members including parametric instantiations, labeled;
        ValueError for n_max < 1, or, before any instance is built, past MAX_MEMBERS."""
        if n_max < 1:
            raise ValueError("n_max must be >= 1")
        count = len(self.members) + len(self.parametric) * n_max
        if count > MAX_MEMBERS:
            raise ValueError(f"{count} family members at n_max = {n_max}, "
                             f"more than {MAX_MEMBERS}")
        out = list(self.members)
        for label, fam in self.parametric:
            for n in range(1, n_max + 1):
                out.append((f"{label}[n={n}]", fam.instantiate(n)))
        return out


def _truncations(family: AnnFamily, n_max: int):
    """R_N, the labeled members and their truncated subspaces by label."""
    if not family.members and not family.parametric:
        raise SpecError("empty family")
    labeled = family.expanded(n_max)
    algebra = build_truncation(family.ring, family.N)
    seen = set()
    for lab, _ideal in labeled:
        if lab in seen:
            raise SpecError(f"repeated member label {lab!r}")
        seen.add(lab)
    spaces = {lab: truncate_ideal(ideal, algebra) for lab, ideal in labeled}
    return algebra, labeled, spaces


def build_preorder(family: AnnFamily, n_max: int = 5):
    """Edges (X, Y) with Ann(X) <= Ann(Y) at truncation, X-major in member
    order; reflexive and transitive by construction, checked afterwards.

    Containment is decided on generators, exactly: the truncation of Ann(Y)
    is an ideal of R_N, and the truncation of Ann(X) is the ideal of R_N
    generated by the reduced generators of Ann(X), so the first contains the
    second exactly when it contains those few rows.  One residual per member
    Y tests the stacked generator rows of every X at once.
    """
    return _preorder(*_truncations(family, n_max))


def _preorder(algebra, labeled, spaces):
    """build_preorder on the truncations `_truncations` returns."""
    labels = [lab for lab, _ideal in labeled]
    rows = [generator_rows(ideal, algebra) for _lab, ideal in labeled]
    owner = np.repeat(np.arange(len(rows)), [len(r) for r in rows])
    stacked = np.vstack(rows)
    # below[a, b]: no generator row of member a lies outside member b
    below = np.empty((len(labels), len(labels)), dtype=bool)
    for b, lab in enumerate(labels):
        outside = np.count_nonzero(spaces[lab].residual(stacked), axis=1)
        below[:, b] = np.bincount(owner, weights=outside, minlength=len(labels)) == 0
    if not below.diagonal().all():
        raise InvariantError("preorder not reflexive")
    paths = below.astype(np.int64)
    if ((paths @ paths > 0) & ~below).any():
        raise InvariantError("preorder not transitive")
    return [(labels[a], labels[b]) for a, b in zip(*np.nonzero(below))]


@dataclass
class AlexandrovVerdict:
    verdict: str  # compact | not-compact-evidence | undetermined
    minimum: str | None
    global_intersection: IdealSpec | None
    edges: list
    evidence: object  # witness label or descending chain of labels
    scale: dict
    m_primary: str = ""
    detail: str = ""
    space: Subspace = dc_field(repr=False, default=None)

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "minimum": self.minimum,
            "global_intersection": (
                self.global_intersection.format() if self.global_intersection else None
            ),
            "edges": [list(e) for e in self.edges],
            "evidence": self.evidence,
            "scale": self.scale,
            "m_primary": self.m_primary,
            "detail": self.detail,
        }


def compactness_verdict(family: AnnFamily, n_max: int = 5, D: int = 4) -> AlexandrovVerdict:
    """The attainment verdict at truncation N.

    The global intersection folds only the finite members and the verified
    limits: `limit_of_chain` certifies every limit generator inside every
    chain instance by exact cofactors, so a limit's truncation lies in each
    instance's and the instances cannot lower the meet.
    """
    algebra, labeled, spaces = _truncations(family, n_max)
    edges = _preorder(algebra, labeled, spaces)
    scale = {"N": family.N, "n_max": n_max, "D": D}

    # parametric limits, the n-free generators, each verified at scale
    limits = []
    for label, fam in family.parametric:
        limit = IdealSpec(fam.spec, fam.fixed)
        res = limit_of_chain(fam, limit, n_max, family.N, D)
        if res.status != "verified-at-scale":
            return AlexandrovVerdict(
                "undetermined", None, None, edges, None, scale,
                detail=f"limit of {label!r} not verified: {res.failure}",
            )
        limits.append(limit)

    # certified comparison targets: all finite members and all limit candidates
    targets = [ideal for _lab, ideal in family.members] + limits
    meet = Subspace.intersect(*[spaces[lab] for lab, _ideal in family.members],
                              *[truncate_ideal(limit, algebra) for limit in limits])
    gens = extract_generators(meet, algebra)
    global_ideal = IdealSpec(family.ring, tuple(gens))

    def attains(label, ideal) -> bool:
        return spaces[label] == meet and all(
            member(g, target, family.N, D).is_member
            for g in ideal.generators for target in targets if target is not ideal)

    for label, ideal in labeled:
        if attains(label, ideal):
            mp = is_m_primary(global_ideal, max(family.N, 8))
            return AlexandrovVerdict(
                "compact", label, global_ideal, edges, label, scale,
                m_primary=mp.status, space=meet,
            )

    # strictly descending parametric chain with unattained intersection; a
    # single instance descends nowhere, so it is no evidence
    below = set(edges)
    for label, _fam in family.parametric:
        chain = [f"{label}[n={n}]" for n in range(1, n_max + 1)]
        strict = len(chain) >= 2 and all((b, a) in below and spaces[b].dim < spaces[a].dim
                                         for a, b in zip(chain, chain[1:]))
        if strict:
            mp = is_m_primary(global_ideal, max(family.N, 8))
            return AlexandrovVerdict(
                "not-compact-evidence", None, global_ideal, edges, chain, scale,
                m_primary=mp.status, space=meet,
                detail="strictly descending chain; intersection attained by no member",
            )
    return AlexandrovVerdict(
        "undetermined", None, global_ideal, edges, None, scale, space=meet,
        detail="no attaining member and no strict descending chain",
    )
