"""Command-line interface: exit codes, report schema, determinism."""

import functools
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import mfann
from mfann.cli import main
from mfann.mf import catalog


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ring_passes(capsys):
    code, out, _ = run(capsys, "validate", "a-inf-1", "--n-max", "3")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1 and report["pass"] is True
    assert len(report["entries"]) == 4  # R/xR + phi n=1..3


def test_validate_corrupted_json(tmp_path, capsys):
    from mfann.mf import catalog

    data = catalog("a-inf-1", "phi", 2).mf.to_json()
    data["phi"][0][0] = "x + y^5"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "validate", "--json", str(path))
    assert code == 2
    report = json.loads(out)
    assert report["pass"] is False
    assert "violation" in report["entries"][0]


def test_ann_matches_table(capsys):
    code, out, _ = run(capsys, "ann", "a-inf-1/phi?n=3", "-N", "10")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["computed"] == "(x, y^3)"
    assert report["result"]["status"] == "certified-exact"


def test_ann_config_error_exit_one(capsys):
    code, _out, err = run(capsys, "ann", "a-inf-2/psi+?n=2", "--field", "q")
    assert code == 1
    assert "error" in err


def test_field_above_int64_bound_exit_one(capsys):
    # 2147483659 is the first prime above 2^31
    code, out, err = run(capsys, "ann", "a-inf-1/phi?n=1", "--field", "fp:2147483659")
    assert code == 1 and out == ""
    assert "2^31" in err


@pytest.mark.parametrize("argv, named", [
    (("ann", "a-inf-1/R/xR", "-N", "2000000"), ("overflow", "2000000")),
    (("ann", "a-inf-1/phi?n=100000000"), ("overflow",)),
    (("ann", "a-inf-1/R/xR", "-N", "100000"), ("more than 20000", "100000")),
    (("ann", "a-inf-1/phi?n=5000"), ("more than 20000",)),
    (("ann", "a-inf-1/phi?n=9223372036854775808"), ("grading", "overflow int64")),
    (("double", "a-inf-1/phi?n=9223372036854775808"), ("grading", "overflow int64"))],
    ids=["truncation-order", "entry-degree", "truncation-box", "entry-box",
         "entry-degree-2^63", "double-entry-degree-2^63"])
def test_oversized_monomial_box_exit_one_at_once(capsys, argv, named):
    # R_N, or the witness search for an entry of degree 10^8, needs graded-lex
    # keys past int64, and R_100000 or the search for an entry of degree 5000
    # billions of monomials: the monomial box refuses before listing a
    # monomial, and an oversized truncation order is named as the user gave it;
    # an entry of degree 2^63 already gives the grading weights past int64
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert all(word in err for word in named) and "Traceback" not in err
    assert err.count("\n") == 1
    assert time.perf_counter() - start < 10


def test_oversized_family_exit_one_at_once(capsys):
    # the preorder of a family grows faster than the square of its members:
    # 100001 members are refused before any instance is built
    start = time.perf_counter()
    code, out, err = run(capsys, "topology", "a-inf-1", "-N", "8", "--n-max", "100000")
    assert code == 1 and out == ""
    assert "100001 family members" in err and "more than 256" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert time.perf_counter() - start < 5


def test_memory_error_exit_one(capsys, monkeypatch):
    from mfann import cli

    def exhausted(*_args):
        raise MemoryError

    monkeypatch.setattr(cli, "annihilate", exhausted)
    code, out, err = run(capsys, "ann", "a-inf-1/phi?n=1")
    assert (code, out, err) == (1, "", "error: MemoryError\n")


def test_malformed_field_flag_exit_one(capsys):
    code, out, err = run(capsys, "ann", "a-inf-1/phi?n=1", "--field", "fp:13:i=5:i=8")
    assert code == 1 and out == ""
    assert "field flag" in err and "Traceback" not in err


def test_invariant_failure_exit_three(capsys, monkeypatch):
    from mfann import cli
    from mfann.fields import InvariantError

    def broken(*_args):
        raise InvariantError("truncated annihilator is not an ideal")

    monkeypatch.setattr(cli, "annihilate", broken)
    code, out, err = run(capsys, "ann", "a-inf-1/phi?n=1")
    assert code == 3 and out == ""
    assert "invariant" in err and "Traceback" not in err


def test_unknown_selector_exit_one(capsys):
    code, _out, _err = run(capsys, "ann", "a-inf-1/zeta?n=1")
    assert code == 1
    code, _out, err = run(capsys, "ann", "a-inf-1/R/xR?n=3")  # a finite label takes no n
    assert code == 1 and "not parametric" in err
    code, _out, _err = run(capsys, "frobnicate")
    assert code == 1


def test_topology_verdict(capsys):
    code, out, _ = run(capsys, "topology", "a-inf-1", "-N", "8", "--n-max", "4")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["verdict"] == "compact"
    assert report["result"]["minimum"] == "R/xR"


def test_topology_cm0_subfamily(capsys):
    code, out, _ = run(
        capsys, "topology", "a-inf-1", "--subfamily", "cm0", "-N", "8", "--n-max", "6"
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["verdict"] == "not-compact-evidence"
    assert report["result"]["global_intersection"] == "(x)"


def test_one_instance_chain_is_not_evidence(capsys):
    # n_max = 1 leaves a chain of one instance, which cannot descend
    code, out, _ = run(
        capsys, "topology", "a-inf-1", "--subfamily", "cm0", "-N", "6", "--n-max", "1"
    )
    assert code == 2
    report = json.loads(out)
    assert report["result"]["verdict"] == "undetermined"
    assert report["result"]["evidence"] is None and report["pass"] is False


def test_double_reports_both_sides(capsys):
    code, out, _ = run(capsys, "double", "a-inf-1/phi?n=2", "-N", "8")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["double"]["valid"] is True
    assert report["result"]["source"]["annihilator"] == "(x, y^2)"


def test_text_format_sorted_generators(capsys):
    code, out, _ = run(capsys, "ann", "d-inf-1/gamma?n=1", "-N", "8", "--format", "text")
    assert code == 0
    assert "computed: (y^2, x*y, x^2)" in out  # ascending graded-lex


# sha256 of each subcommand's stdout; change one only with a deliberate
# change to that report
@pytest.mark.parametrize("argv, sha256", [
    (("validate", "a-inf-1"),
     "3bc3f015002cc53ea17c93a5f4cb060998dee8bf4e10b4f5c09fa616a7dd0b70"),
    (("ann", "a-inf-1/phi?n=2", "-N", "6"),
     "ef245451fde53fc7886dfd5bcebc8d3005c5feb87b9cec5feb54f3a4435643b6"),
    (("ann", "d-inf-1/gamma?n=1", "-N", "6", "--format", "text"),
     "d57619a86971eab3d460e5b7b65ab9f63fcd99162c6c03a3cede71283299cf52"),
    (("topology", "d-inf-1", "-N", "6", "--n-max", "3"),
     "889b5acbaa2a721033dbb51835ad4d61a2faf5fa7a998742b102be4ffa8157cb"),
    (("double", "a-inf-1/phi?n=1", "-N", "6"),
     "2f511bdb9f731ffd023529bf8b8607d585be0099e9a0c95fec5ca73c38edafa8"),
    (("ann", "d-inf-2/delta+?n=1", "-N", "7", "--field", "q"),
     "81bd5b8e96e71e47eac897fc0c450a78ac6a3dd679c7f42881314ef20cc04cfb"),
    # the largest report over Q that a user runs
    (("ann", "d-inf-2/delta+?n=5", "-N", "10", "-D", "7", "--field", "q"),
     "d925abe970f14579e78c7125f779f8e98d24aaa3849511c0a472b677be45ad3f"),
])
def test_subcommand_reports_are_pinned(capsys, argv, sha256):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_bounded_gap_report_is_pinned(capsys):
    # -D 0 leaves generators unwitnessed: the report is bounded-gap, exit 2
    code, out, _ = run(capsys, "ann", "d-inf-2/delta+?n=2", "-N", "8", "-D", "0")
    assert code == 2
    assert json.loads(out)["result"]["status"] == "bounded-gap"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8fc71bd47f2fdf89ffad4a4b2752cb1840ff0ac9eef1d8a89f3d9d1329073b6c")


def test_reproduce_reduced_and_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["reproduce-paper", "-N", "6", "--n-max", "1"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    assert report["pass"] is True and set(report["rings"]) == {
        "a-inf-1", "a-inf-2", "d-inf-1", "d-inf-2"
    }


def test_reproduce_paper_is_byte_identical_on_warm_and_cleared_memos(capsys):
    # a stale or aliased memo entry shows up as a changed second or third report
    from mfann.annihilator import grading
    from mfann.ideals import truncate_ideal
    from mfann.truncation import build_truncation

    argv = ("reproduce-paper", "-N", "6", "--n-max", "2")
    reports = [run(capsys, *argv), run(capsys, *argv)]
    for memo in (build_truncation, truncate_ideal, grading):
        memo.cache_clear()
    reports.append(run(capsys, *argv))
    assert reports[0][0] == 0 and reports[0] == reports[1] == reports[2]


def stub_reproduce(monkeypatch, cm0=None, properties=None):
    """Reduce reproduce-paper to its a-inf-1/cm0 section and the property
    checks: every ring section passes at once.  cm0 and properties, if
    given, replace the cm0 verdict and the property checks; the scales cm0
    is asked at are returned."""
    from mfann import cli

    scales, topology = [], cli._topology_payload

    def payload(ring_id, field, N, n_max, D, subfamily):
        if subfamily == "all":
            return {"verdict": "compact"}, True
        scales.append((N, n_max))
        if cm0 is None:
            return topology(ring_id, field, N, n_max, D, subfamily)
        return {"verdict": cm0}, cm0 != "undetermined"

    monkeypatch.setattr(cli, "_validate_payload", lambda *_args: ([], True))
    monkeypatch.setattr(cli, "_ann_payload", lambda *_args: ({}, True))
    monkeypatch.setattr(cli, "_topology_payload", payload)
    if properties is not None:
        monkeypatch.setattr(cli, "_property_payload", lambda _field: list(properties))
    return scales


@pytest.mark.parametrize("N, n_max, scale", [
    ("10", "5", (8, 6)), ("6", "2", (6, 6)), ("10", "9", (9, 9))])
def test_reproduce_scales_cm0_with_n_max(capsys, monkeypatch, N, n_max, scale):
    # y^n vanishes in R_N once n >= N: the chain descends strictly up to n = N
    scales = stub_reproduce(monkeypatch)
    code, out, _ = run(capsys, "reproduce-paper", "-N", N, "--n-max", n_max)
    report = json.loads(out)
    assert scales == [scale]
    assert report["subfamilies"]["a-inf-1/cm0"]["verdict"] == "not-compact-evidence"
    assert code == 0 and report["pass"] is True and "first_diff" not in report


@pytest.mark.parametrize("cm0, properties, first_diff", [
    ("undetermined", [], "a-inf-1/cm0: topology verdict undetermined"),
    ("compact", [], "a-inf-1/cm0: topology verdict compact"),
    ("not-compact-evidence", [{"property": "syzygy-invariance", "label": "a-inf-1/R/xR",
                               "ok": False}], "a-inf-1/R/xR: syzygy-invariance failed"),
])
def test_reproduce_names_every_failing_section(capsys, monkeypatch, cm0, properties,
                                               first_diff):
    stub_reproduce(monkeypatch, cm0, properties)
    code, out, _ = run(capsys, "reproduce-paper", "-N", "6", "--n-max", "2")
    report = json.loads(out)
    assert code == 2 and report["pass"] is False and report["first_diff"] == first_diff


def test_validate_selector_reports_violation(capsys, monkeypatch):
    from mfann import cli
    from mfann.mf import ValidationReport

    monkeypatch.setattr(cli, "validate", lambda mf: ValidationReport(
        False, "phi*psi", (1, 2), "x", "0"))
    code, out, _ = run(capsys, "validate", "a-inf-1/phi?n=2")
    assert code == 2
    (entry,) = json.loads(out)["entries"]
    assert entry["label"] == "a-inf-1/phi?n=2" and entry["valid"] is False
    assert entry["violation"] == {
        "product": "phi*psi", "entry": [1, 2], "got": "x", "expected": "0"}


@pytest.mark.parametrize("argv", [
    ("ann", "a-inf-1/phi?n=1", "-N", "6", "-D", "-1"),
    ("topology", "a-inf-1", "-N", "6", "-D", "-1"),
    ("topology", "a-inf-1", "-N", "6", "--n-max", "0"),
    ("validate", "a-inf-1", "--n-max", "-3"),
    ("ann", "a-inf-1/phi?n=1", "-N", "0"),
    ("validate", "a-inf-1/phi?n=0"),
    ("validate", "a-inf-1/phi?n=-1"),
    ("validate", "a-inf-1/phi?n=two"),
    ("ann", "a-inf-1/phi?n=", "-N", "6"),
])
def test_out_of_range_numbers_exit_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert ">= " in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("validate", "a-inf-1", "-N", "3"),
    ("validate", "a-inf-1", "-D", "9"),
    ("ann", "a-inf-1/phi?n=1", "-N", "6", "--n-max", "3"),
    ("double", "a-inf-1/phi?n=1", "-N", "6", "--n-max", "3"),
    ("validate", "a-inf-1/phi?n=2", "--n-max", "7"),  # read for a ring id only
])
def test_flags_a_subcommand_does_not_read_exit_one(capsys, argv):
    # a flag that changes the report's config but no computation is refused
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert "unrecognized arguments" in err and "Traceback" not in err


@pytest.mark.parametrize("subfamily", ["all", "cm0"])
def test_topology_needs_a_square_root_of_minus_one(capsys, subfamily):
    code, out, err = run(capsys, "topology", "a-inf-2", "--subfamily", subfamily,
                         "--field", "q")
    assert code == 1 and out == ""
    assert "needs a square root of -1" in err


def test_smallest_accepted_numbers(capsys):
    code, out, _ = run(capsys, "ann", "a-inf-1/phi?n=1", "-N", "6", "-D", "0")
    assert code in (0, 2) and json.loads(out)["config"]["witness_degree"] == 0
    code, out, _ = run(capsys, "validate", "a-inf-1", "--n-max", "1")
    assert code == 0 and len(json.loads(out)["entries"]) == 2


@pytest.mark.parametrize("text, field", [
    (json.dumps({"phi": 1}), "spec"),
    (json.dumps([1, 2]), "input"),
    (json.dumps("spec"), "input"),
    (json.dumps({"spec": {"field": "fp:13", "variables": ["x", "y"], "f": []}}), "spec.field"),
    ("[" * 100_000 + "]" * 100_000, "input"),
])
def test_malformed_json_names_the_field(tmp_path, capsys, text, field):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, "validate", "--json", str(path))
    assert code == 1 and out == ""
    assert f"error: {field}" in err


@functools.cache
def _valid_text():
    return json.dumps(catalog("d-inf-2", "delta+", 2).mf.to_json())


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 20) | st.floats(allow_nan=False)
    | st.text(max_size=8) | st.sampled_from(["x", "x^", "y^2", "1/0", "2/3", "z-5*x"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["spec", "n", "phi", "psi", "label", "field", "kind", "p", "i",
                         "variables", "f", "exponents", "coefficient"]) | st.text(max_size=4),
        inner, max_size=4),
    max_leaves=12,
)


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def json_documents(draw):
    """Arbitrary JSON, or a valid factorization with one item replaced."""
    if draw(st.booleans()):
        return draw(json_values)
    doc = json.loads(_valid_text())
    path = draw(st.sampled_from(list(_paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(json_values)
    return doc


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(json_documents())
def test_validate_json_never_crashes(tmp_path, doc):
    path, out = tmp_path / "in.json", tmp_path / "out.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--json", str(path), "--out", str(out)]) in (0, 1, 2)


def test_python_dash_m_runs_the_cli():
    src = str(Path(mfann.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "mfann", "validate", "a-inf-1"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["pass"] is True


def test_reproduce_paper_never_imports_numpy_ma():
    # np.unique and np.setdiff1d import numpy.ma on first use, at a cost of
    # about 1 MB of RSS and 20 ms per process
    src = str(Path(mfann.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = ("import contextlib, io, sys\n"
              "from mfann.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = main(['reproduce-paper', '-N', '6', '--n-max', '2'])\n"
              "print(code, 'numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.stdout.split() == ["0", "False"], proc.stderr
