"""The grading of a factorization, and the systems split by it.

`grading` finds the weights under which f and every entry are homogeneous;
the truncated solve and the witness search split into one block per degree.
The partitions of the monomials are checked against the weight pairs known
for the catalog rings, and the split results against the one-block system,
which a grading with no rows gives.
"""

import contextlib
import itertools
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfann import annihilator
from mfann.annihilator import (
    annihilate,
    annihilator_truncated,
    grading,
    membership_truncated,
    witness_search,
)
from mfann.fields import InvariantError, PrimeField, Rationals
from mfann.linalg import zeros
from mfann.mf import (
    RING_IDS,
    MatrixFactorization,
    catalog,
    catalog_labels,
    direct_sum,
    knoerrer_double,
    poly_mat_mul,
    swap,
    validate,
)
from mfann.poly import Polynomial
from mfann.truncation import build_truncation
from test_acceptance import random_mf

F13 = PrimeField(13, 5)
QQ = Rationals()

# two independent weights for each ring under which every catalog entry is
# graded
WEIGHTS = {
    "a-inf-1": [(1, 1), (1, 0)],
    "a-inf-2": [(1, 1, 1), (1, 0, 1)],
    "d-inf-1": [(1, 1), (0, 1)],
    "d-inf-2": [(1, 2, 2), (0, 2, 1)],
}


def partition(weights, nvars, top=9):
    """The classes of the monomials of degree <= top under the weights (rows),
    as a set of frozensets of exponent tuples."""
    monos = [m for m in itertools.product(range(top + 1), repeat=nvars) if sum(m) <= top]
    degrees = np.array(monos, dtype=np.int64) @ np.array(weights, dtype=np.int64).reshape(
        -1, nvars).T
    classes = {}
    for m, d in zip(monos, map(tuple, degrees)):
        classes.setdefault(d, set()).add(m)
    return {frozenset(c) for c in classes.values()}


def grading_partition(mf):
    return partition(grading(mf)[:, :mf.spec.nvars], mf.spec.nvars)


def coarser(fine, coarse):
    """Whether every class of `fine` lies inside a class of `coarse`."""
    return all(any(c <= d for d in coarse) for c in fine)


def entries(field, n_max):
    for ring_id in RING_IDS:
        if not field.is_prime and ring_id == "a-inf-2":
            continue  # needs a square root of -1
        for label, parametric in catalog_labels(ring_id):
            for n in (range(1, n_max + 1) if parametric else (None,)):
                yield ring_id, catalog(ring_id, label, n, field).mf


@pytest.mark.parametrize("field", [F13, QQ], ids=["F13", "Q"])
def test_catalog_entries_get_the_rings_weight_pair(field):
    expected = {ring_id: partition(w, len(w[0])) for ring_id, w in WEIGHTS.items()}
    for ring_id, mf in entries(field, 5):
        assert grading_partition(mf) == expected[ring_id], mf.label


def test_knoerrer_doubles_are_graded():
    # f + z^2 over a-inf-1 is the ring of a-inf-2, over d-inf-1 that of d-inf-2
    for ring_id, target in (("a-inf-1", "a-inf-2"), ("d-inf-1", "d-inf-2")):
        expected = partition(WEIGHTS[target], 3)
        for label, parametric in catalog_labels(ring_id):
            for n in ((1, 2) if parametric else (None,)):
                mf = knoerrer_double(catalog(ring_id, label, n, F13).mf)
                assert grading_partition(mf) == expected, mf.label


def test_conjugates_and_inhomogeneous_entries_grade_coarser():
    rng = random.Random(7)
    trivial = partition(np.zeros((0, 2)), 2)  # one class
    graded = set()
    for _ in range(40):
        mf = random_mf(rng)  # criterion 8's unimodular conjugates
        ring_id = mf.label[len("random("):].split("/")[0]
        assert coarser(partition(WEIGHTS[ring_id], 2), grading_partition(mf)), mf.label
        graded.add(grading_partition(mf) == trivial)
    assert graded == {True, False}  # both coarser gradings and none at all occur
    # phi = [[x, u], [0, -x]] squares to x^2 I for any u; u = y + y^2 forces
    # the weight of y to 0, leaving the x-degree
    spec = catalog("a-inf-1", "R/xR", None, F13).mf.spec
    x, u, zero = spec.poly("x"), spec.poly("y + y^2"), spec.poly("0")
    phi = ((x, u), (zero, -x))
    mf = MatrixFactorization(spec, 2, phi, phi, "inhomogeneous")
    assert validate(mf).ok
    assert grading_partition(mf) == partition([(1, 0)], 2)


# ---------------------------------------------------------------------------
# the split system against the one-block system
# ---------------------------------------------------------------------------


def one_block(mf):
    """No grading: every monomial in one class."""
    return np.zeros((0, mf.spec.nvars + 2 * mf.n), dtype=np.int64)


def conjugate(mf, draw):
    """mf conjugated by random elementary matrices I + c m E_ij, with m 1 or a
    variable: phi -> P phi Q, psi -> Q^-1 psi P^-1."""
    spec, n = mf.spec, mf.n
    phi, psi = mf.phi, mf.psi
    for _ in range(draw(st.integers(1, 2))):
        P = []
        for _ in range(2):
            i, j = draw(st.permutations(range(n)))[:2]
            m = draw(st.sampled_from(["1"] + list(spec.variables)))
            e = spec.poly(f"{draw(st.integers(1, 5))}*{m}")
            unit = [[spec.poly("1" if a == b else "0") for b in range(n)] for a in range(n)]
            inverse = [row[:] for row in unit]
            unit[i][j], inverse[i][j] = e, -e
            P.append((unit, inverse))
        (p, p_inv), (q, q_inv) = P
        phi = poly_mat_mul(p, poly_mat_mul(phi, q))
        psi = poly_mat_mul(q_inv, poly_mat_mul(psi, p_inv))
    return MatrixFactorization(spec, n, tuple(map(tuple, phi)), tuple(map(tuple, psi)),
                               f"conjugate({mf.label})")


@st.composite
def factorizations(draw):
    """A graded factorization (a catalog entry, its syzygy, a direct sum or a
    Knoerrer double) or one of criterion 8's ungraded conjugates, over F13 or
    Q, with polynomials r to solve for."""
    field = draw(st.sampled_from([F13, QQ]))
    ring_id = draw(st.sampled_from(["a-inf-1", "d-inf-1", "d-inf-2"]))
    labels = catalog_labels(ring_id)
    label, parametric = draw(st.sampled_from(labels))
    entry = catalog(ring_id, label, draw(st.integers(1, 2)) if parametric else None, field)
    mf = entry.mf
    kind = draw(st.sampled_from(["entry", "swap", "sum", "double", "conjugate"]))
    if kind == "swap":
        mf = swap(mf)
    elif kind == "sum":
        mf = direct_sum(mf, catalog(ring_id, labels[0][0], 1 if labels[0][1] else None,
                                    field).mf)
    elif kind == "double" and ring_id != "d-inf-2":
        mf = knoerrer_double(mf)
    elif kind == "conjugate" and mf.n > 1:
        mf = conjugate(mf, draw)
    spec = mf.spec
    monos = [m for m in itertools.product(range(3), repeat=spec.nvars) if sum(m) <= 2]
    rs = []
    for _ in range(2):
        r = Polynomial.zero(field, spec.nvars)
        for g in entry.expected_annihilator.generators:
            m = draw(st.sampled_from(monos))
            r = r + g.extend(spec.nvars) * Polynomial.from_monomial(
                field, m, draw(st.integers(0, 3)))
        if draw(st.booleans()):
            r = r + Polynomial.from_monomial(field, draw(st.sampled_from(monos)))
        rs.append(r)
    return mf, rs


def results(mf, rs):
    out = [annihilator_truncated(mf, N) for N in (1, 2, 5)]
    out += [membership_truncated(mf, r, 5) for r in rs]
    for D in (0, 1):
        for r in rs:
            w = witness_search(mf, r, D)
            out.append(None if w is None else (w.alpha, w.beta, w.gamma))
    return out


@settings(max_examples=40, deadline=None)
@given(factorizations())
def test_the_split_system_equals_the_one_block_system(case):
    mf, rs = case
    assert validate(mf).ok
    split = results(mf, rs)
    with mock.patch.object(annihilator, "grading", one_block):
        whole = results(mf, rs)
    assert split == whole


# ---------------------------------------------------------------------------
# witness searchers built for the degrees they serve
# ---------------------------------------------------------------------------


def term_degrees(searcher, r):
    """The degrees of the terms of r under the grading of the searcher's system."""
    vector = searcher.box.vector(r, searcher.mf.spec.field)
    return set(searcher.system.degs[np.flatnonzero(vector)].tolist())


def test_a_searcher_refuses_a_term_outside_its_degrees():
    mf = catalog("a-inf-1", "phi", 2, F13).mf
    x, other = mf.spec.poly("x"), mf.spec.poly("x + y^3")
    searcher = annihilator._WitnessSearcher(mf, 2, [x])
    assert len(searcher.system.Y) == 1
    assert term_degrees(searcher, other) - term_degrees(searcher, x)
    assert searcher.search(x) is not None
    with pytest.raises(InvariantError, match="outside the degrees"):
        searcher.search(other)


@pytest.mark.parametrize("field", [F13, QQ], ids=["F13", "Q"])
def test_one_searcher_serves_generators_of_different_top_degrees(field):
    # deg x y^4 = 5 exceeds D + (largest entry degree) = 1, the top degree
    # of the searcher of x alone: the shared searcher's box reaches degree 5
    mf = catalog("a-inf-1", "phi", 1, field).mf
    rs = [mf.spec.poly("x"), mf.spec.poly("x*y^4")]
    searcher = annihilator._WitnessSearcher(mf, 0, rs)
    assert max(sum(m) for m in searcher.box.monos) == 5
    found = [searcher.search(r) for r in rs]
    assert [w is None for w in found] == [witness_search(mf, r, 0) is None for r in rs]
    assert all(w is None or w.verify(mf) for w in found) and any(found)


def test_annihilate_builds_one_block_per_generator_degree():
    mf = catalog("d-inf-2", "delta+", 5, F13).mf
    systems, served = [], {}
    system, search = annihilator._System, annihilator._WitnessSearcher.search

    def build(*args, **kwargs):
        systems.append(system(*args, **kwargs))
        return systems[-1]

    def record(searcher, r):
        served.setdefault(searcher, []).append(r)
        return search(searcher, r)

    with mock.patch.object(annihilator, "_System", build), \
            mock.patch.object(annihilator._WitnessSearcher, "search", record):
        result = annihilate(mf, N=10, D=7)
    assert result.status == "certified-exact"
    # one system for the truncated annihilator and one per searcher, one
    # searcher per witness degree that the ladder meets
    assert len(systems) == 1 + len(served) <= 6
    for searcher, rs in served.items():
        degrees = set().union(*(term_degrees(searcher, r) for r in rs))
        assert len(searcher.system.Y) == len(degrees)
        assert set(searcher.system.blocks.tolist()) == degrees


# ---------------------------------------------------------------------------
# the blocks scattered from term triplets
# ---------------------------------------------------------------------------


def gathered_stack(graded, degrees, entries, dense, row_shift, col_shift, field):
    """graded's stack gathered entry by entry from the dense operators
    dense(e): block b holds at (g, s), (i, t) the entry [m, m'] of
    dense(entries[g][i]), m the s-th monomial of degree labels[b] +
    row_shift[g] and m' the t-th of degree labels[b] + col_shift[i]; rows of
    the dense operator past its height are zero."""
    width = degrees.members.shape[1]
    out = zeros((len(graded.labels), len(entries) * width, len(entries[0]) * width), field)
    for b, label in enumerate(graded.labels):
        for g, row in enumerate(entries):
            for i, e in enumerate(row):
                if e is None:
                    continue
                M = dense(e)
                cols = np.flatnonzero(degrees.degs == label + col_shift[i])
                for s, m in enumerate(np.flatnonzero(degrees.degs == label + row_shift[g])):
                    if m < len(M):
                        out[b, g * width + s, i * width + np.arange(len(cols))] = M[m, cols]
    return out


def assert_blocks_match_gather(build, dense_of):
    """Every _Graded that build() makes equals the gather from dense_of(result)."""
    made = []

    class Recording(annihilator._Graded):
        def __init__(self, *args):
            super().__init__(*args)
            made.append((self, args))

    with mock.patch.object(annihilator, "_Graded", Recording):
        try:
            result = build()
        except InvariantError:  # from a grading that is none: the blocks are still checked
            result = None
    assert len(made) == 2  # G and H
    for graded, (degrees, entries, _op, row_shift, col_shift, field) in made:
        labels = sorted({int(d) for d in (degrees.blocks[:, None] - col_shift).ravel()})
        assert graded.labels.tolist() == labels
        expected = gathered_stack(graded, degrees, entries, dense_of(result), row_shift,
                                  col_shift, field)
        assert graded.stack.shape == expected.shape and np.array_equal(graded.stack, expected)


def elementary_conjugate(mf):
    """mf conjugated by I + x E_01 and I + 2 y E_10, which breaks its grading."""
    spec, n = mf.spec, mf.n
    unit = [[spec.poly("1" if a == b else "0") for b in range(n)] for a in range(n)]
    P, P_inv, Q, Q_inv = ([row[:] for row in unit] for _ in range(4))
    P[0][1], P_inv[0][1] = spec.poly("x"), spec.poly("-x")
    Q[1][0], Q_inv[1][0] = spec.poly("2*y"), spec.poly("-2*y")
    phi = poly_mat_mul(P, poly_mat_mul(mf.phi, Q))
    psi = poly_mat_mul(Q_inv, poly_mat_mul(mf.psi, P_inv))
    return MatrixFactorization(spec, n, tuple(map(tuple, phi)), tuple(map(tuple, psi)),
                               f"conjugate({mf.label})")


TRIPLET_CASES = [("a-inf-1", "phi", 2), ("d-inf-1", "gamma", 2), ("d-inf-1", "R/xyR", None),
                 ("d-inf-2", "delta+", 2)]


@pytest.mark.parametrize("field", [F13, QQ], ids=["F13", "Q"])
@pytest.mark.parametrize("ring_id, label, n", TRIPLET_CASES,
                         ids=[f"{r}/{lab}" for r, lab, _ in TRIPLET_CASES])
@pytest.mark.parametrize("form", ["entry", "conjugate", "one-block", "not-a-grading"])
def test_blocks_scattered_from_triplets_equal_the_dense_gather(field, ring_id, label, n, form):
    # under weights that grade nothing (the x-degree alone, every shift 0),
    # terms between unequal degrees are dropped, as the gather drops them
    entry = catalog(ring_id, label, n, field)
    mf = entry.mf
    if form == "conjugate" and mf.n > 1:
        mf = elementary_conjugate(mf)
        assert validate(mf).ok
    N, D = 6, 2
    algebra = build_truncation(mf.spec, N)
    weights = {"one-block": one_block,
               "not-a-grading": lambda mf: np.eye(1, mf.spec.nvars + 2 * mf.n, dtype=np.int64)}
    with mock.patch.object(annihilator, "grading", weights[form]) if form in weights \
            else contextlib.nullcontext():
        assert_blocks_match_gather(lambda: annihilator_truncated(mf, N),
                                   lambda _: algebra.multiples)
        # r = 0 serves every degree, a generator its own degrees
        for r in (Polynomial.zero(field, mf.spec.nvars), entry.expected_annihilator.generators[0]):
            assert_blocks_match_gather(
                lambda: annihilator._WitnessSearcher(mf, D, [r]),
                lambda searcher: lambda key: searcher.box.multiples(*key, field))


@pytest.mark.parametrize("field", [F13, QQ], ids=["F13", "Q"])
def test_annihilate_peak_memory(field):
    # the blocks are scattered straight from the entries' terms: no dense
    # operator per entry (5.5 MB over F13 and 4.5 MB over Q when they were)
    mf = catalog("d-inf-2", "delta+", 5, field).mf
    tracemalloc.start()
    try:
        result = annihilate(mf, N=10, D=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.status == "certified-exact"
    assert peak < 3 * 2**20
