"""The specialization preorder Ann(X) <= Ann(Y) and compactness verdicts.

Compactness of the Alexandrov space of a module family is decided through
the attainment criterion: the family's topology is compact exactly when
some member's annihilator equals the intersection of all members'
annihilators.  Parametric members contribute their verified chain limits;
without a verified limit the verdict degrades to undetermined.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .fields import InvariantError
from .ideals import (
    IdealSpec,
    ParametricIdealFamily,
    extract_generators,
    is_m_primary,
    limit_of_chain,
    member,
    truncate_ideal,
)
from .linalg import Subspace
from .truncation import RingSpec, SpecError, build_truncation

__all__ = ["AnnFamily", "AlexandrovVerdict", "build_preorder", "closure", "down_sets",
           "compactness_verdict"]


@dataclass(frozen=True)
class AnnFamily:
    """Labeled annihilator ideals over one ring, compared at truncation N."""

    ring: RingSpec
    members: tuple  # (label, IdealSpec)
    parametric: tuple = ()  # (label, ParametricIdealFamily, limit candidate IdealSpec|None)
    N: int = 10

    def __post_init__(self):
        for _label, ideal in self.members:
            if ideal.spec != self.ring:
                raise SpecError("family member over a different ring")
        for _label, fam, limit in self.parametric:
            if fam.spec != self.ring:
                raise SpecError("parametric member over a different ring")
            if limit is not None and limit.spec != self.ring:
                raise SpecError("limit candidate over a different ring")

    def expanded(self, n_max: int):
        """All members including parametric instantiations, labeled."""
        out = list(self.members)
        for label, fam, _limit in self.parametric:
            for n in range(1, n_max + 1):
                out.append((f"{label}[n={n}]", fam.instantiate(n)))
        return out


def _truncations(family: AnnFamily, n_max: int):
    algebra = build_truncation(family.ring, family.N)
    labeled = family.expanded(n_max)
    return algebra, labeled, {lab: truncate_ideal(ideal, algebra) for lab, ideal in labeled}


def build_preorder(family: AnnFamily, n_max: int = 5, spaces=None):
    """Edges (X, Y) with Ann(X) <= Ann(Y) at truncation; reflexive and
    transitive by construction, checked afterwards.  `spaces`, the members'
    truncated subspaces by label, saves computing them again."""
    if not family.members and not family.parametric:
        raise SpecError("empty family")
    if spaces is None:
        spaces = _truncations(family, n_max)[2]
    labels = list(spaces)
    edges = []
    for a in labels:
        for b in labels:
            if spaces[a].is_subspace_of(spaces[b]):
                edges.append((a, b))
    eset = set(edges)
    for a in labels:
        if (a, a) not in eset:
            raise InvariantError("preorder not reflexive")
    for a, b in edges:
        for c in labels:
            if (b, c) in eset and (a, c) not in eset:
                raise InvariantError("preorder not transitive")
    return edges


def closure(family: AnnFamily, label: str, n_max: int = 5):
    """Members below the given one: the Alexandrov point closure."""
    edges = build_preorder(family, n_max)
    labels = {a for a, _ in edges}
    if label not in labels:
        raise SpecError(f"unknown label {label!r}")
    eset = set(edges)
    return sorted(y for y in labels if (y, label) in eset)


def down_sets(family: AnnFamily, n_max: int = 5, guard: int = 20):
    """All closed sets (unions of point closures, plus the empty set)."""
    edges = build_preorder(family, n_max)
    labels = sorted({a for a, _ in edges})
    if len(labels) > guard:
        raise SpecError(f"family too large for closed-set enumeration (> {guard})")
    eset = set(edges)
    closures = [frozenset(y for y in labels if (y, x) in eset) for x in labels]
    closed = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        base = frontier.pop()
        for cl in closures:
            new = base | cl
            if new not in closed:
                closed.add(new)
                frontier.append(new)
    return sorted(closed, key=lambda s: (len(s), sorted(s)))


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

    def to_dot(self) -> str:
        lines = ["digraph preorder {"]
        for a, b in self.edges:
            if a != b:
                lines.append(f'  "{a}" -> "{b}";')
        lines.append("}")
        return "\n".join(lines)


def compactness_verdict(family: AnnFamily, n_max: int = 5, D: int = 4) -> AlexandrovVerdict:
    if not family.members and not family.parametric:
        raise SpecError("empty family")
    algebra, labeled, spaces = _truncations(family, n_max)
    edges = build_preorder(family, n_max, spaces)
    scale = {"N": family.N, "n_max": n_max, "D": D}

    # parametric limits, each verified at scale
    limits = []
    for label, fam, limit in family.parametric:
        if limit is None:
            return AlexandrovVerdict(
                "undetermined", None, None, edges, None, scale,
                detail=f"parametric member {label!r} has no limit candidate",
            )
        res = limit_of_chain(fam, limit, n_max, family.N, D)
        if res.status != "verified-at-scale":
            return AlexandrovVerdict(
                "undetermined", None, None, edges, None, scale,
                detail=f"limit of {label!r} not verified: {res.failure}",
            )
        limits.append((label, limit))

    # global intersection at truncation
    meet = None
    for _lab, sp in spaces.items():
        meet = sp if meet is None else meet.intersect(sp)
    for _lab, limit in limits:
        sp = truncate_ideal(limit, algebra)
        meet = sp if meet is None else meet.intersect(sp)
    gens = extract_generators(meet, algebra)
    global_ideal = IdealSpec(family.ring, tuple(gens), name="Ann(family)")

    # certified comparison targets: all finite members and all limit candidates
    targets = [ideal for _lab, ideal in family.members] + [lim for _lab, lim in limits]

    def attains(label, ideal) -> bool:
        if spaces[label] != meet:
            return False
        for g in ideal.generators:
            for target in targets:
                if target is ideal:
                    continue
                if not member(g, target, family.N, D).is_member:
                    return False
        return True

    ideal_of = dict(labeled)
    for label, ideal in labeled:
        if attains(label, ideal):
            mp = is_m_primary(global_ideal, max(family.N, 8))
            return AlexandrovVerdict(
                "compact", label, global_ideal, edges, label, scale,
                m_primary=mp.status, space=meet,
            )

    # strictly descending parametric chain with unattained intersection
    for label, fam, _limit in family.parametric:
        chain = [f"{label}[n={n}]" for n in range(1, n_max + 1)]
        strict = all(
            spaces[chain[k + 1]].is_subspace_of(spaces[chain[k]])
            and spaces[chain[k + 1]].dim < spaces[chain[k]].dim
            for k in range(len(chain) - 1)
        )
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
