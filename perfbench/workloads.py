"""The benchmark's workloads: their units in seeded order, and the check on
each unit's output.

A task is one call into mfann that a user waits on. It returns one outcome
per unit it covers: ``None`` when the unit's output checks out, otherwise a
one-line reason. Tasks run in a closed loop: one process, one thread, each
task starting after the previous one has returned.

This module imports ``mfann`` only inside functions, so the parent process
that spawns the workers never loads the package.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
from pathlib import Path

WORKLOADS = ("catalog-fp13", "families-fp13", "catalog-q")

# The committed expected results at FULL_SIZE: the sha256 of the
# reproduce-paper report, the verdict and minimum of each family, and the
# sorted generator strings of each catalog-q annihilator. Change the hash
# only with a deliberate change to the report.
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# The size of each workload. The smoke tests shrink them; the benchmark
# always runs these values, and the committed reference data is for them.
FULL_SIZE = {
    "catalog-fp13": {"N": 10, "n_max": 5},
    "families-fp13": {"N": 12, "n_max": 8, "D": 4},
    "catalog-q": {"N": 10, "n_max": 5, "N_d2": 7, "n_max_d2": 1},
}

FAMILIES = ("a-inf-1/all", "a-inf-2/all", "d-inf-1/all", "d-inf-2/all", "a-inf-1/cm0")

# Rings of the catalog-q workload; a-inf-2 needs a square root of -1,
# which the rationals lack.
Q_RINGS = ("a-inf-1", "d-inf-1", "d-inf-2")


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def build_tasks(name: str, seed: int, size: dict | None = None):
    """(label, task) pairs for one pass of a workload, in run order.

    The seed permutes the task order of ``families-fp13`` and ``catalog-q``.
    ``catalog-fp13`` is one ``reproduce-paper`` call whose report order is
    fixed by the byte-identical contract, so it ignores the seed. ``size``
    overrides entries of ``FULL_SIZE``. A shrunk workload skips the checks
    whose reference data holds only at full size: the report hash and the
    catalog-q generator strings.
    """
    if name not in FULL_SIZE:
        raise ValueError(f"unknown workload {name!r}")
    full = not size or all(FULL_SIZE[name][k] == v for k, v in size.items())
    size = dict(FULL_SIZE[name], **(size or {}))
    reference = load_reference()[name]
    if name == "catalog-fp13":
        sha = reference["report_sha256"] if full else None
        return [("reproduce-paper", functools.partial(_reproduce_paper_task, size, sha))]
    if name == "families-fp13":
        tasks = [(key, functools.partial(_verdict_task, key, size, reference[key]))
                 for key in FAMILIES]
    else:
        tasks = [(key, functools.partial(_q_task, sel, reference[key] if full else None))
                 for key, sel in q_selectors(size)]
    random.Random(seed).shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# catalog-fp13: the headline `mfann reproduce-paper` run
# ---------------------------------------------------------------------------


def reproduce_paper(N: int, n_max: int):
    """(exit code, report text) of ``mfann reproduce-paper`` at one config."""
    from mfann import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["reproduce-paper", "--trunc", str(N), "--n-max", str(n_max)])
    return code, out.getvalue()


def _report_outcomes(report: dict) -> list:
    """One outcome per unit of a reproduce-paper report: the annihilator
    entries, the topology verdicts and the property checks."""
    out = []
    for ring_id, ring in sorted(report["rings"].items()):
        for item in ring["annihilators"]:
            ok = item["match"] and item["status"] == "certified-exact"
            out.append(None if ok else f"{item['label']}: {item['status']}, match={item['match']}")
        topo = ring["topology"]
        out.append(None if topo["pass"] else f"{ring_id}: verdict {topo['verdict']}")
    for key, sub in sorted(report["subfamilies"].items()):
        ok = sub["pass"] and sub["verdict"] == "not-compact-evidence"
        out.append(None if ok else f"{key}: verdict {sub['verdict']}")
    for prop in report["properties"]:
        out.append(None if prop["ok"] else f"{prop['property']} {prop['label']}")
    return out


def _reproduce_paper_task(size, expected_sha):
    code, text = reproduce_paper(size["N"], size["n_max"])
    try:
        report = json.loads(text)
    except ValueError:
        return [f"reproduce-paper exited {code} without a JSON report"]
    outcomes = _report_outcomes(report)
    if (code != 0 or not report["pass"]) and not any(outcomes):
        # A failure outside the units (validation, say) fails the run as one more unit.
        outcomes.append(f"reproduce-paper exited {code}, pass={report['pass']}")
    sha = hashlib.sha256(text.encode()).hexdigest()
    if expected_sha is not None and sha != expected_sha:
        # The report is one artefact: a changed byte fails every unit in it.
        return [f"report sha256 {sha} != reference {expected_sha}"] * len(outcomes)
    return outcomes


# ---------------------------------------------------------------------------
# families-fp13: compactness verdicts over the module families
# ---------------------------------------------------------------------------


def _verdict_task(key, size, expected):
    from mfann import build_family, compactness_verdict, default_field

    ring_id, subfamily = key.split("/")
    family = build_family(ring_id, default_field(), size["N"], subfamily=subfamily, D=size["D"])
    verdict = compactness_verdict(family, n_max=size["n_max"], D=size["D"])
    got = [verdict.verdict, verdict.minimum]
    return [None if got == expected else f"{key}: got {got}, expected {expected}"]


# ---------------------------------------------------------------------------
# catalog-q: annihilators over the rationals (the Fraction path)
# ---------------------------------------------------------------------------


def q_selectors(size):
    """(key, (ring, label, n, N)) for every catalog-q unit, in catalog order."""
    from mfann import catalog_labels

    out = []
    for ring_id in Q_RINGS:
        if ring_id == "d-inf-2":
            n_max, N = size["n_max_d2"], size["N_d2"]
        else:
            n_max, N = size["n_max"], size["N"]
        for label, parametric in catalog_labels(ring_id):
            for n in (range(1, n_max + 1) if parametric else (None,)):
                key = f"{ring_id}/{label}" + (f"?n={n}" if n is not None else "")
                out.append((key, (ring_id, label, n, N)))
    return out


def q_generators(res, spec):
    return sorted(spec.format(g) for g in res.upper_generators)


def _q_task(selector, expected_gens):
    from mfann import Rationals, annihilate, build_truncation, catalog, truncate_ideal

    ring_id, label, n, N = selector
    entry = catalog(ring_id, label, n, Rationals())
    D = (n + 2) if n is not None else 3
    res = annihilate(entry.mf, N, D)
    spec = entry.mf.spec
    key = entry.mf.label
    if res.status != "certified-exact":
        return [f"{key}: status {res.status}"]
    if res.subspace != truncate_ideal(entry.expected_annihilator, build_truncation(spec, N)):
        return [f"{key}: annihilator differs from the catalog's"]
    if expected_gens is not None and q_generators(res, spec) != expected_gens:
        return [f"{key}: generators {q_generators(res, spec)} != reference {expected_gens}"]
    return [None]
