"""mfann benchmark: runs, suites and comparisons.

One run of one workload:

    python3 perfbench/run.py --workload catalog-fp13 --seed 1 --seconds 30 --trace 0

Every workload over several interleaved rounds, then one traced run each;
prints every metric with its median, quartiles and sample count:

    python3 perfbench/run.py --suite 3 --out a.json

Two suite files side by side, with a verdict per workload and metric:

    python3 perfbench/run.py --compare a.json b.json

A run spawns fresh interpreters, so every pass pays the cold-cache cost a
user pays on each ``mfann`` command. It first times set-up (interpreter
start through ``import mfann``) in several probe processes, then runs
passes of the workload until the next pass would end after ``--seconds``
(always at least one), and reports the median of each metric over its
passes. A pass is a closed loop: one process, one thread, each task
starting after the previous one finished. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the end-to-end metrics of ``BENCHMARK.json`` untraced or its per-layer
metrics with ``--trace 1``. A failed check, or a run that cannot start,
exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 10
PASS_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (needs the path above; imports no mfann)


class BenchError(RuntimeError):
    """The benchmark could not run: no result is printed."""


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# run context (read-only)
# ---------------------------------------------------------------------------


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def host_sample() -> dict:
    """Load average and cumulative steal ticks of the host right now."""
    stat = _read("/proc/stat")
    steal = None
    if stat:
        fields = stat.splitlines()[0].split()
        steal = int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    loadavg = _read("/proc/loadavg")
    return {"loadavg": loadavg.split()[:3] if loadavg else None, "steal_ticks": steal}


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def spawn_worker(args: list[str]) -> tuple[dict, float]:
    """Run one worker process; its JSON line and the monotonic spawn time."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} exceeded {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def run_workload(name: str, seed: int, seconds: float, trace: bool, size=None) -> dict:
    """Set-up probes, then passes until the next would end after ``seconds``."""
    if not (ROOT / "src" / "mfann" / "__init__.py").is_file():
        raise BenchError(f"no mfann sources under {ROOT / 'src'}")
    before = host_sample()
    setups = []
    for _ in range(SETUP_PROBES):
        probe, spawned = spawn_worker([name, str(seed), "--setup-only"])
        setups.append(probe["imported_at"] - spawned)
    extra = ["--size", json.dumps(size)] if size else []
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        extra += ["--trace", "--spans", str(OUT_DIR / f"spans-{name}.tsv")]
    passes = []
    start = time.monotonic()
    while True:
        res, spawned = spawn_worker([name, str(seed), *extra])
        setups.append(res["imported_at"] - spawned)
        passes.append(res)
        elapsed = time.monotonic() - start
        if elapsed + max(p["wall_s"] for p in passes) > seconds:
            break
    after = host_sample()
    outcomes = [o for p in passes for o in p["outcomes"]]
    failures = [o for o in outcomes if o is not None]
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "passes": len(passes),
        "attempted": len(outcomes),
        "failed": len(failures),
        "failures": failures[:10],
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "layers": _median_layers(passes) if trace else None,
        "context": {
            "nproc": os.cpu_count(),
            "python": passes[0]["python"],
            "numpy": passes[0]["numpy"],
            "before": before,
            "after": after,
        },
    }


def _median_layers(passes) -> dict:
    first = passes[0]["layers"]
    return {
        name: [statistics.median(p["layers"][name][0] for p in passes), unit]
        for name, (_value, unit) in first.items()
    }


def result_line(run: dict, bench: dict) -> dict:
    """The contract's last line for one run."""
    if run["trace"]:
        metrics = {m["name"]: {"value": run["layers"][m["name"]][0], "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        metrics = {m["name"]: {"value": run[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# suite and compare
# ---------------------------------------------------------------------------


def quartiles(values):
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def run_suite(rounds: int, seconds: float, bench: dict) -> dict:
    """Untraced rounds, rotating the workload order each round, then one
    traced run per workload. Returns every run's figures."""
    names = [w["name"] for w in bench["workloads"]]
    runs = []
    for r in range(rounds):
        order = names[r % len(names):] + names[:r % len(names)]
        for name in order:
            run = run_workload(name, r + 1, seconds, trace=False)
            print(f"round {r + 1}: {_run_summary(run)}", file=sys.stderr)
            runs.append(run)
    traced = {}
    for name in names:
        run = run_workload(name, 1, seconds, trace=True)
        print(f"traced: {_run_summary(run)}", file=sys.stderr)
        traced[name] = run
    return {"benchmark": bench, "runs": runs, "traced": traced}


def _run_summary(run):
    return (f"{run['workload']} seed={run['seed']} passes={run['passes']} "
            f"wall_s={run['wall_s']:.3f} failed={run['failed']}/{run['attempted']}")


def suite_table(suite: dict) -> list[str]:
    bench = suite["benchmark"]
    lines = [f"{'workload':<14} {'metric':<12} {'unit':<6} {'median':>11} "
             f"{'q1':>11} {'q3':>11} {'n':>3}"]
    for w in bench["workloads"]:
        runs = [r for r in suite["runs"] if r["workload"] == w["name"]]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        rows = [(m["name"], m["unit"], [r[m["name"]] for r in runs]) for m in bench["end_to_end"]]
        rows.append(("fail_frac", "1", [r["failed"] / r["attempted"] for r in runs]))
        for name, unit, values in rows:
            q1, med, q3 = quartiles(values)
            lines.append(f"{w['name']:<14} {name:<12} {unit:<6} {med:>11.4f} "
                         f"{q1:>11.4f} {q3:>11.4f} {len(values):>3}")
        traced = suite["traced"].get(w["name"])
        if traced:
            overhead = traced["wall_s"] - statistics.median(r["wall_s"] for r in runs)
            lines.append(f"{w['name']:<14} tracing overhead {overhead:.3f} s "
                         f"(traced wall_s {traced['wall_s']:.3f})")
        lines.append(f"{w['name']:<14} units failed {failed} of {attempted}")
    return lines


def verdict(a_values, b_values, better: str, bound: float) -> str:
    """improved, unchanged, unresolved or regressed, by the metric's bound.

    The spread is the larger quartile distance of the two sides as a share
    of A's median. Wider than the bound, the comparison is unresolved unless
    every run of one side beats every run of the other. Otherwise B
    regresses when its median is worse by more than the bound, and improves
    when it is better by more than A's own spread and beats A's median in at
    least nine runs out of ten.
    """
    sign = 1 if better == "lower" else -1
    q1a, a_med, q3a = quartiles(a_values)
    q1b, b_med, q3b = quartiles(b_values)
    if a_med == 0:
        return "unchanged" if b_med == 0 else "unresolved"
    own_spread = (q3a - q1a) / abs(a_med)
    spread = max(own_spread, (q3b - q1b) / abs(a_med))
    worse = sign * (b_med - a_med) / abs(a_med)
    if spread > bound:
        if all(sign * (b - a) < 0 for b in b_values for a in a_values):
            return "improved"
        if all(sign * (b - a) > 0 for b in b_values for a in a_values):
            return "regressed"
        return "unresolved"
    if worse > bound:
        return "regressed"
    beats = sum(sign * (b - a_med) < 0 for b in b_values) / len(b_values)
    if -worse > own_spread and beats >= 0.9:
        return "improved"
    return "unchanged"


def compare(a: dict, b: dict) -> list[str]:
    bench = b["benchmark"]
    lines = [f"{'workload':<14} {'metric':<45} {'A median [q1, q3]':>32} "
             f"{'B median [q1, q3]':>32} {'delta':>8}  verdict"]
    for w in bench["workloads"]:
        name = w["name"]
        a_runs = [r for r in a["runs"] if r["workload"] == name]
        b_runs = [r for r in b["runs"] if r["workload"] == name]
        if not a_runs or not b_runs:
            lines.append(f"{name:<14} missing from one side")
            continue
        for m in bench["end_to_end"]:
            av = [r[m["name"]] for r in a_runs]
            bv = [r[m["name"]] for r in b_runs]
            qa, qb = quartiles(av), quartiles(bv)
            delta = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            lines.append(
                f"{name:<14} {m['name'] + ' (' + m['unit'] + ')':<45} "
                f"{_fmt_q(qa):>32} {_fmt_q(qb):>32} {delta:>+8.1%}  "
                f"{verdict(av, bv, m['better'], m['bound'])} (n={len(av)}/{len(bv)})"
            )
        la = (a["traced"].get(name) or {}).get("layers") or {}
        lb = (b["traced"].get(name) or {}).get("layers") or {}
        for metric in bench["per_layer"]:
            key = metric["name"]
            if key not in la or key not in lb:
                continue
            va, vb = la[key][0], lb[key][0]
            if va == vb == 0:
                continue
            delta = f"{(vb - va) / va:>+8.1%}" if va else f"{'new':>8}"
            lines.append(f"{name:<14} {key + ' (' + metric['unit'] + ')':<45} "
                         f"{va:>32.6g} {vb:>32.6g} {delta}  layer")
    return lines


def _fmt_q(q):
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mfann benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--suite", type=int, default=None, metavar="ROUNDS",
                        help="run every workload ROUNDS times, interleaved")
    parser.add_argument("--out", default=None, metavar="FILE", help="write the suite here")
    parser.add_argument("--compare", nargs=2, default=None, metavar=("A", "B"))
    args = parser.parse_args(argv)
    try:
        bench = load_benchmark()
        seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
        if args.compare:
            a, b = (json.loads(Path(p).read_text()) for p in args.compare)
            print("\n".join(compare(a, b)))
            return 0
        if args.suite is not None:
            suite = run_suite(args.suite, seconds, bench)
            if args.out:
                Path(args.out).write_text(json.dumps(suite, indent=1) + "\n")
            print("\n".join(suite_table(suite)))
            return 0 if all(r["failed"] == 0 for r in suite["runs"]) else 1
        if not args.workload:
            parser.error("give --workload, --suite or --compare")
        run = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("context " + json.dumps(run["context"]))
    print(f"summary {_run_summary(run)} fail_frac={run['failed'] / run['attempted']:.4f} "
          f"setup_s={run['setup_s']:.4f} cpu_s={run['cpu_s']:.3f} "
          f"peak_rss_mb={run['peak_rss_mb']:.1f}")
    for failure in run["failures"]:
        print(f"failed: {failure}")
    line = result_line(run, bench)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
