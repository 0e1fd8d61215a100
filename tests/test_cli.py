"""Command-line interface: exit codes, report schema, determinism."""

import json

import pytest

from mfann.cli import main


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
