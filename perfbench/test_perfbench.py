"""Tests of the benchmark itself: python3 -m pytest perfbench -q

The smoke tests run each workload at a tiny size through the same worker
processes the benchmark uses, traced, and check the layer counts that must
be zero (or not) on each workload.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "catalog-fp13": {"N": 6, "n_max": 1},
    "families-fp13": {"N": 6, "n_max": 3},
    "catalog-q": {"N": 5, "n_max": 1, "N_d2": 4},
}


@pytest.fixture(scope="module")
def traced_runs():
    return {name: run.run_workload(name, 7, 0, trace=True, size=size)
            for name, size in TINY.items()}


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_workload_checks_out(traced_runs, name):
    result = traced_runs[name]
    assert result["attempted"] >= 1 and result["failed"] == 0, result["failures"]
    line = run.result_line(result, run.load_benchmark())
    assert line["correct"] and set(line["metrics"]) == {
        m["name"] for m in run.load_benchmark()["per_layer"]}


def test_smoke_predicted_zeros(traced_runs):
    layers = {name: r["layers"] for name, r in traced_runs.items()}
    for name in ("annihilate", "annihilator_truncated", "witness_search"):
        assert layers["families-fp13"][f"annihilator.{name}.calls"][0] == 0
    assert layers["catalog-q"]["annihilator.annihilate.calls"][0] > 0
    for name in ("catalog-fp13", "families-fp13"):
        assert layers[name]["linalg.rref.generic_calls"][0] == 0
        assert layers[name]["fields.elem_ops.fp"][0] > 0
    assert layers["catalog-q"]["linalg.rref.generic_calls"][0] > 0
    assert layers["catalog-q"]["fields.elem_ops.fp"][0] == 0
    assert layers["catalog-fp13"]["cli.main.calls"][0] == 1


def test_untraced_run_reports_end_to_end_metrics():
    result = run.run_workload("families-fp13", 1, 0, trace=False, size=TINY["families-fp13"])
    line = run.result_line(result, run.load_benchmark())
    assert line["correct"] and line["attempted"] == 5
    for metric in run.load_benchmark()["end_to_end"]:
        assert line["metrics"][metric["name"]]["value"] > 0


def test_seed_permutes_order_except_catalog_fp13():
    def order(name, seed):
        return [label for label, _ in workloads.build_tasks(name, seed, TINY[name])]

    assert order("catalog-q", 1) != order("catalog-q", 2)
    assert sorted(order("catalog-q", 1)) == sorted(order("catalog-q", 2))
    assert order("catalog-q", 3) == order("catalog-q", 3)
    assert order("catalog-fp13", 1) == order("catalog-fp13", 2)


def test_tracing_leaves_report_unchanged():
    plain = workloads.reproduce_paper(6, 1)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        traced = workloads.reproduce_paper(6, 1)
    finally:
        tracer.restore()
    assert traced == plain
    assert tracer.counts["fields.elem_ops.fp"] > 0


def test_restore_puts_back_every_original():
    import mfann.cli  # noqa: F401  (loads every module of the package)
    from mfann import fields, linalg, poly, truncation

    assert mfann.__file__.startswith(str(HERE.parent / "src"))
    mods = {k: dict(vars(m)) for k, m in sys.modules.items()
            if m is not None and (k == "mfann" or k.startswith("mfann."))}
    classes = {c: dict(c.__dict__) for c in (fields.PrimeField, fields.Rationals,
                                             truncation.TruncatedAlgebra, poly.Polynomial,
                                             linalg.Subspace)}
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        # every namespace that imported build_truncation holds the same wrapper
        wrapped = truncation.build_truncation
        assert wrapped is not mods["mfann.truncation"]["build_truncation"]
        for name in ("mfann", "mfann.annihilator", "mfann.ideals", "mfann.alexandrov",
                     "mfann.cli"):
            assert vars(sys.modules[name])["build_truncation"] is wrapped
        assert linalg.Subspace.__dict__["residual"] is not classes[linalg.Subspace]["residual"]
        assert fields.PrimeField.__dict__["add"] is not classes[fields.PrimeField]["add"]
    finally:
        tracer.restore()
    for name, attrs in mods.items():
        now = vars(sys.modules[name])
        for attr, value in attrs.items():
            assert now[attr] is value, f"{name}.{attr} not restored"
    for cls, attrs in classes.items():
        for attr, value in attrs.items():
            assert cls.__dict__[attr] is value, f"{cls.__name__}.{attr} not restored"


def test_self_time_on_synthetic_span_tree():
    # a[0,10] > b[1,4] > c[2,3];  a[0,10] > b[5,9] > a[6,7] (recursion)
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("a", 6.0, 7.0, 3),
    ]
    got = layertrace.summarize(spans)
    assert got["a"] == {"calls": 2, "s": 10.0, "self_s": 4.0, "max_s": 10.0}
    assert got["b"] == {"calls": 2, "s": 7.0, "self_s": 5.0, "max_s": 4.0}
    assert got["c"] == {"calls": 1, "s": 1.0, "self_s": 1.0, "max_s": 1.0}
    # self times add up to the root spans' time
    assert sum(r["self_s"] for r in got.values()) == 10.0


def test_tracer_spans_nest_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = layertrace.Tracer(clock=lambda: float(next(ticks)))
    outer = tracer._timed("outer", None)(lambda f: f())
    inner = tracer._timed("inner", None)(lambda: 1)
    assert outer(inner) == 1
    assert tracer.spans() == [("outer", 0.0, 3.0, -1), ("inner", 1.0, 2.0, 0)]
    assert layertrace.summarize(tracer.spans())["outer"]["self_s"] == 2.0


def test_benchmark_json_matches_the_metrics_produced():
    bench = run.load_benchmark()
    names = list(layertrace.layer_metrics(layertrace.Tracer(), 1.0))
    assert [m["name"] for m in bench["per_layer"]] == names
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    assert "setup_s" in {m["name"] for m in bench["end_to_end"]}
    assert json.loads((HERE / "reference.json").read_text()).keys() == set(workloads.WORKLOADS)


@pytest.mark.parametrize("a, b, better, expected", [
    ([10.0, 10.1, 10.2, 10.1], [10.1, 10.0, 10.2, 10.1], "lower", "unchanged"),
    ([10.0, 10.1, 10.2, 10.1], [13.0, 13.1, 13.2, 13.1], "lower", "regressed"),
    ([10.0, 10.1, 10.2, 10.1], [5.0, 5.1, 5.2, 5.1], "lower", "improved"),
    ([10.0, 10.1, 10.2, 10.1], [5.0, 5.1, 5.2, 5.1], "higher", "regressed"),
    ([5.0, 15.0, 10.0, 20.0], [6.0, 14.0, 11.0, 19.0], "lower", "unresolved"),
    ([15.0, 16.0, 17.0, 18.0], [5.0, 6.0, 7.0, 8.0], "lower", "improved"),
])
def test_compare_verdicts(a, b, better, expected):
    assert run.verdict(a, b, better, 0.1) == expected
