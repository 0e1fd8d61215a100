"""End-to-end acceptance suite.

Each test checks one acceptance criterion and prints a single
"CRITERION k: PASS/FAIL" line (repeated in the terminal summary).
"""

import hashlib
import json
import random
import time

import pytest

from mfann.alexandrov import compactness_verdict
from mfann.annihilator import (
    Witness,
    annihilate,
    annihilator_truncated,
    membership_truncated,
    row_col_bound,
    witness_search,
)
from mfann.cli import main as cli_main
from mfann.families import EXPECTED_VERDICTS, build_family
from mfann.fields import PrimeField, Rationals
from mfann.ideals import IdealSpec, is_m_primary, truncate_ideal
from mfann.linalg import Subspace
from mfann.mf import (
    CatalogError,
    MatrixFactorization,
    catalog,
    catalog_labels,
    direct_sum,
    poly_mat_mul,
    ring_spec,
    swap,
    validate,
)
from mfann.poly import Polynomial
from mfann.truncation import build_truncation
from test_annihilator import derivative, derivative_matrix

F13 = PrimeField(13, 5)
QQ = Rationals()
RINGS = ("a-inf-1", "a-inf-2", "d-inf-1", "d-inf-2")


def all_entries(field, n_max):
    for ring_id in RINGS:
        for label, parametric in catalog_labels(ring_id):
            if parametric:
                for n in range(1, n_max + 1):
                    yield catalog(ring_id, label, n, field)
            else:
                yield catalog(ring_id, label, None, field)


# ---------------------------------------------------------------------------
# criterion 1: catalog validity over F_13 and Q, n <= 5, under 5 seconds
# ---------------------------------------------------------------------------


def test_criterion_1_catalog_validity(criterion_line):
    start = time.monotonic()
    ok = True
    count = 0
    for entry in all_entries(F13, 5):
        ok = ok and validate(entry.mf).ok
        count += 1
    # over the rationals the dimension-two A-type ring needs i and must refuse
    for ring_id in ("a-inf-1", "d-inf-1", "d-inf-2"):
        for label, parametric in catalog_labels(ring_id):
            for n in range(1, 6) if parametric else [None]:
                ok = ok and validate(catalog(ring_id, label, n, QQ).mf).ok
                count += 1
    try:
        catalog("a-inf-2", "psi+", 1, QQ)
        ok = False
    except CatalogError:
        pass
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    assert criterion_line(
        1, f"catalog validity ({count} factorizations, {elapsed:.2f}s)", ok
    )


# ---------------------------------------------------------------------------
# criterion 2: every displayed witness identity, transcribed and verified
# ---------------------------------------------------------------------------

# (ring, label, r, alpha rows, beta rows); {n}/{n1}/{nm1} are n, n+1, n-1
# and {i} is the square root of -1 in the coefficient field
IDENTITIES = [
    ("a-inf-1", "phi", "x", [["0", "0"], ["0", "-1"]], [["1", "0"], ["0", "0"]]),
    ("a-inf-1", "phi", "y^{n}", [["0", "0"], ["1", "0"]], [["0", "0"], ["1", "0"]]),
    ("a-inf-2", "psi+", "z+{i}*x", [["0", "0"], ["0", "1"]], [["1", "0"], ["0", "0"]]),
    ("a-inf-2", "psi+", "z-{i}*x", [["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]),
    ("a-inf-2", "psi+", "y^{n}", [["0", "0"], ["1", "0"]], [["0", "0"], ["-1", "0"]]),
    ("d-inf-1", "alpha", "x", [["0", "0"], ["0", "-1"]], [["1", "0"], ["0", "0"]]),
    ("d-inf-1", "alpha", "y^{n}", [["0", "0"], ["1", "0"]], [["0", "0"], ["1", "0"]]),
    ("d-inf-1", "gamma", "x*y", [["0", "0"], ["0", "-y"]], [["1", "0"], ["0", "0"]]),
    ("d-inf-1", "gamma", "y^{n1}", [["0", "0"], ["y", "0"]], [["0", "0"], ["1", "0"]]),
    ("d-inf-1", "gamma", "x^2",
     [["x", "0"], ["0", "-x"]], [["0", "-y^{nm1}"], ["0", "0"]]),
    ("d-inf-2", "alpha+", "x^2", [["0", "-1"], ["0", "0"]], [["0", "1"], ["0", "0"]]),
    ("d-inf-2", "alpha+", "y", [["0", "0"], ["1", "0"]], [["0", "0"], ["-1", "0"]]),
    ("d-inf-2", "alpha+", "z", [["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]),
    ("d-inf-2", "beta+", "x", [["0", "-1"], ["0", "0"]], [["0", "1"], ["0", "0"]]),
    ("d-inf-2", "beta+", "z", [["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]),
    ("d-inf-2", "gamma+", "x",
     [["0", "0", "-1", "0"], ["0", "0", "0", "0"],
      ["0", "0", "0", "0"], ["0", "-1", "0", "0"]],
     [["0", "0", "1", "0"], ["0", "0", "0", "0"],
      ["0", "0", "0", "0"], ["0", "1", "0", "0"]]),
    ("d-inf-2", "gamma+", "y^{n1}",
     [["0", "0", "0", "-1"], ["0", "0", "0", "0"],
      ["0", "1", "0", "0"], ["0", "0", "0", "0"]],
     [["0", "0", "0", "1"], ["0", "0", "0", "0"],
      ["0", "-1", "0", "0"], ["0", "0", "0", "0"]]),
    ("d-inf-2", "gamma+", "z",
     [["1", "0", "0", "0"], ["0", "1", "0", "0"],
      ["0", "0", "0", "0"], ["0", "0", "0", "0"]],
     [["0", "0", "0", "0"], ["0", "0", "0", "0"],
      ["0", "0", "1", "0"], ["0", "0", "0", "1"]]),
    ("d-inf-2", "delta+", "x^2",
     [["0", "0", "-x", "0"], ["0", "0", "0", "x"],
      ["0", "0", "0", "0"], ["-y^{nm1}", "0", "0", "0"]],
     [["0", "0", "x", "0"], ["0", "0", "0", "-x"],
      ["0", "0", "0", "0"], ["y^{nm1}", "0", "0", "0"]]),
    ("d-inf-2", "delta+", "x*y",
     [["0", "0", "0", "0"], ["0", "0", "0", "y"],
      ["1", "0", "0", "0"], ["0", "0", "0", "0"]],
     [["0", "0", "0", "0"], ["0", "0", "0", "-y"],
      ["-1", "0", "0", "0"], ["0", "0", "0", "0"]]),
    ("d-inf-2", "delta+", "y^{n1}",
     [["0", "0", "0", "-y"], ["0", "0", "0", "0"],
      ["0", "1", "0", "0"], ["0", "0", "0", "0"]],
     [["0", "0", "0", "y"], ["0", "0", "0", "0"],
      ["0", "-1", "0", "0"], ["0", "0", "0", "0"]]),
    ("d-inf-2", "delta+", "z",
     [["1", "0", "0", "0"], ["0", "1", "0", "0"],
      ["0", "0", "0", "0"], ["0", "0", "0", "0"]],
     [["0", "0", "0", "0"], ["0", "0", "0", "0"],
      ["0", "0", "1", "0"], ["0", "0", "0", "1"]]),
]


def _sub(text, n):
    out = text.format(n=n, n1=n + 1, nm1=n - 1, i=F13.imaginary_unit)
    return out.replace("y^0", "1")


def _mat(spec, rows, n):
    return tuple(tuple(spec.poly(_sub(e, n)) for e in row) for row in rows)


def test_criterion_2_witness_ledger(criterion_line):
    ok = True
    checked = 0
    for ring_id, label, r_text, alpha, beta in IDENTITIES:
        parametric = dict(catalog_labels(ring_id))[label]
        for n in (1, 2, 3) if parametric else [1]:
            entry = catalog(ring_id, label, n if parametric else None, F13)
            spec = entry.mf.spec
            r = spec.poly(_sub(r_text, n))
            zero = Polynomial.zero(F13, spec.nvars)
            gamma = tuple(tuple(zero for _ in range(entry.mf.n))
                          for _ in range(entry.mf.n))
            w = Witness(r, _mat(spec, alpha, n), _mat(spec, beta, n), gamma)
            if not w.verify(entry.mf):
                ok = False
            found = witness_search(entry.mf, r, D=n + 1)
            if found is None or not found.verify(entry.mf):
                ok = False
            checked += 1
    assert criterion_line(2, f"witness ledger ({checked} identities, exact)", ok)


# ---------------------------------------------------------------------------
# criterion 3: the full annihilator table at N = 10, D = n + 2, n <= 5
# ---------------------------------------------------------------------------


def test_criterion_3_annihilator_table(criterion_line):
    start = time.monotonic()
    ok = True
    rows = 0
    for entry in all_entries(F13, 5):
        D = (entry.n + 2) if entry.n is not None else 3
        res = annihilate(entry.mf, N=10, D=D)
        algebra = build_truncation(entry.mf.spec, 10)
        expected = truncate_ideal(entry.expected_annihilator, algebra)
        if res.subspace != expected or res.status != "certified-exact":
            ok = False
        if not all(w.verify(entry.mf) for _g, w in res.lower):
            ok = False
        rows += 1
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 600.0
    assert criterion_line(
        3, f"annihilator table ({rows} entries at N=10, {elapsed:.1f}s)", ok
    )


# ---------------------------------------------------------------------------
# criterion 4: x is certifiably outside the gamma/delta annihilators
# ---------------------------------------------------------------------------


def test_criterion_4_strictness(criterion_line):
    ok = True
    for n in (1, 2, 3):
        targets = [
            catalog("d-inf-1", "gamma", n, F13).mf,
            catalog("d-inf-2", "delta+", n, F13).mf,
            catalog("d-inf-2", "delta-", n, F13).mf,
        ]
        for mf in targets:
            x = mf.spec.poly("x")
            if not any(not membership_truncated(mf, x, N) for N in range(3, n + 5)):
                ok = False
            if witness_search(mf, x, D=6) is not None:
                ok = False
    assert criterion_line(4, "strict exclusion of x from gamma/delta entries", ok)


# ---------------------------------------------------------------------------
# criteria 5 and 6: global annihilators and compactness verdicts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def full_verdicts():
    return {
        ring_id: compactness_verdict(build_family(ring_id, F13, N=10), n_max=5, D=4)
        for ring_id in RINGS
    }


def test_criterion_5_global_annihilators(criterion_line, full_verdicts):
    ok = True
    for ring_id, verdict in full_verdicts.items():
        expected_verdict, witness_label, gens = EXPECTED_VERDICTS[ring_id]
        spec = ring_spec(ring_id, F13)
        algebra = build_truncation(spec, 10)
        expected = truncate_ideal(IdealSpec.from_strings(spec, gens), algebra)
        if verdict.space != expected:
            ok = False
        # the designated member attains the intersection with exact witnesses
        entry = catalog(ring_id, witness_label, None, F13)
        res = annihilate(entry.mf, N=10, D=3)
        if res.status != "certified-exact" or res.subspace != expected:
            ok = False
        if not all(w.verify(entry.mf) for _g, w in res.lower):
            ok = False
    assert criterion_line(5, "global annihilators attained with witnesses", ok)


def test_criterion_6_compactness_verdicts(criterion_line, full_verdicts):
    ok = True
    for ring_id, verdict in full_verdicts.items():
        expected_verdict, witness_label, _gens = EXPECTED_VERDICTS[ring_id]
        if verdict.verdict != expected_verdict or verdict.minimum != witness_label:
            ok = False
    sub = compactness_verdict(
        build_family("a-inf-1", F13, N=8, subfamily="cm0"), n_max=6, D=4
    )
    if sub.verdict != "not-compact-evidence" or sub.minimum is not None:
        ok = False
    if sub.global_intersection.format() != "(x)":
        ok = False
    assert criterion_line(6, "compactness verdicts (4 compact + cm0 evidence)", ok)


# ---------------------------------------------------------------------------
# criterion 7: m-primary probe
# ---------------------------------------------------------------------------


def test_criterion_7_m_primary_probe(criterion_line):
    spec = ring_spec("a-inf-1", F13)
    grows = is_m_primary(IdealSpec.from_strings(spec, ["x"]), 12)
    maximal = is_m_primary(IdealSpec.from_strings(spec, ["x", "y"]), 8)
    ok = (
        grows.status == "not-m-primary-evidence"
        and all(b > a for a, b in zip(grows.colengths, grows.colengths[1:]))
        and maximal.status == "m-primary"
        and maximal.colength == 1
    )
    assert criterion_line(7, "m-primary probe for (x) and the maximal ideal", ok)


# ---------------------------------------------------------------------------
# criterion 8: randomized property suites, >= 200 instances each
# ---------------------------------------------------------------------------


def _elementary(spec, rng, n):
    """I + c * m * E_ij with random scalar c and monomial m of degree <= 1."""
    field = spec.field
    one = Polynomial.one(field, spec.nvars)
    zero = Polynomial.zero(field, spec.nvars)
    rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
    i, j = rng.sample(range(n), 2)
    c = rng.randrange(1, field.p)
    mono = rng.choice([one] + [Polynomial.variable(field, spec.nvars, k)
                               for k in range(spec.nvars)])
    rows[i][j] = Polynomial.constant(field, spec.nvars, c) * mono
    inverse = [row[:] for row in rows]
    inverse[i][j] = -rows[i][j]
    return tuple(map(tuple, rows)), tuple(map(tuple, inverse))


def random_mf(rng):
    """A valid random factorization: a catalog entry conjugated by unimodular
    matrices (phi -> P phi Q, psi -> Q^-1 psi P^-1 keeps both products f*I)."""
    ring_id = rng.choice(("a-inf-1", "d-inf-1"))
    parametric = [lab for lab, par in catalog_labels(ring_id) if par]
    label = rng.choice(parametric)
    mf = catalog(ring_id, label, rng.randrange(1, 4), F13).mf
    phi, psi = mf.phi, mf.psi
    for _ in range(rng.randrange(1, 3)):
        P, Pinv = _elementary(mf.spec, rng, mf.n)
        Q, Qinv = _elementary(mf.spec, rng, mf.n)
        phi = poly_mat_mul(P, poly_mat_mul(phi, Q))
        psi = poly_mat_mul(Qinv, poly_mat_mul(psi, Pinv))
    return MatrixFactorization(mf.spec, mf.n, tuple(map(tuple, phi)),
                               tuple(map(tuple, psi)), f"random({mf.label})")


def test_criterion_8_property_suites(criterion_line):
    rng = random.Random(20260823)
    N = 5
    counts = dict.fromkeys(
        ("syzygy", "direct-sum", "monotonicity", "bound", "jacobian", "oracle"), 0
    )
    ok = True
    for _ in range(200):
        mf = random_mf(rng)
        assert validate(mf).ok
        algebra = build_truncation(mf.spec, N)

        ann = annihilator_truncated(mf, N)
        if ann != annihilator_truncated(swap(mf), N):
            ok = False
        counts["syzygy"] += 1

        other = random_mf(rng)
        while other.spec != mf.spec:
            other = random_mf(rng)
        both = annihilator_truncated(direct_sum(mf, other), N)
        if both != ann.intersect(annihilator_truncated(other, N)):
            ok = False
        counts["direct-sum"] += 1

        bigger = build_truncation(mf.spec, N + 1)
        up = annihilator_truncated(mf, N + 1)
        if not all(ann.contains(algebra.reduce(bigger.lift(v))) for v in up.basis):
            ok = False
        counts["monotonicity"] += 1

        for J_k in row_col_bound(mf):
            if not truncate_ideal(J_k, algebra).contains(ann.basis):
                ok = False
        counts["bound"] += 1

        # phi psi = f I gives the witness (d_i psi, d_i phi, 0) for d_i f
        zero = Polynomial.zero(mf.spec.field, mf.spec.nvars)
        gamma = tuple((zero,) * mf.n for _ in range(mf.n))
        for i in range(mf.spec.nvars):
            df = derivative(mf.spec.f, i)
            witness = Witness(df, derivative_matrix(mf.psi, i), derivative_matrix(mf.phi, i), gamma)
            if not witness.verify(mf) or not ann.contains(algebra.reduce(df)):
                ok = False
        counts["jacobian"] += 1

    for _ in range(200):
        # oracle equivalence on certified generators of random entries
        mf = random_mf(rng)
        res = annihilate(mf, N=6, D=4)
        if res.status != "certified-exact":
            ok = False
        for g, w in res.lower:
            if not w.verify(mf) or not membership_truncated(mf, g, 6):
                ok = False
        # and agreement on a certified non-member
        outside = mf.spec.poly("1")
        if res.subspace.dim < build_truncation(mf.spec, 6).dim:
            if membership_truncated(mf, outside, 6):
                ok = False
            if witness_search(mf, outside, D=2) is not None:
                ok = False
        counts["oracle"] += 1

    ok = ok and all(v >= 200 for v in counts.values())
    assert criterion_line(
        8, f"property suites ({', '.join(f'{k}:{v}' for k, v in counts.items())})", ok
    )


# ---------------------------------------------------------------------------
# criterion 9: byte-identical reproduction reports
# ---------------------------------------------------------------------------


# sha256 of the `reproduce-paper -N 6 --n-max 2` report; change it only with
# a deliberate change to the report
SMALL_REPORT_SHA256 = "16bcc11148221b424093c576f01a5fc67886811cc7be887a12445fe8fa9100bd"


def test_criterion_9_determinism(criterion_line, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["reproduce-paper", "-N", "6", "--n-max", "2"]
    code_a = cli_main(args + ["--out", str(a)])
    code_b = cli_main(args + ["--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    pinned = hashlib.sha256(a.read_bytes()).hexdigest() == SMALL_REPORT_SHA256
    report = json.loads(a.read_text())
    ok = code_a == 0 and code_b == 0 and identical and pinned and report["pass"] is True
    assert criterion_line(9, "byte-identical reproduction reports", ok)
