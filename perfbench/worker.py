"""One pass of one workload in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED [--trace] [--spans FILE]
                                   [--size JSON] [--setup-only]

Every pass starts with empty ``lru_cache``s, as every ``mfann`` command
does. The worker imports ``mfann`` from the ``src`` directory beside
``perfbench``, runs the workload's tasks in order and prints one JSON line:
when the import finished (``time.monotonic``, so the parent can time
set-up), the wall and CPU time of the tasks, the peak RSS, and one outcome
per unit. With ``--trace`` it also prints the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _cpu_s() -> float:
    # User plus system time of every thread, and of any child processes
    # already waited for, so that work moved into a pool still counts.
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, metavar="FILE")
    parser.add_argument("--size", default=None, metavar="JSON")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import mfann
    import numpy

    imported = time.monotonic()
    if not Path(mfann.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported mfann from {mfann.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result = {"imported_at": imported, "python": sys.version.split()[0],
              "numpy": numpy.__version__}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    import layertrace
    import workloads

    tasks = workloads.build_tasks(args.workload, args.seed,
                                  json.loads(args.size) if args.size else None)
    tracer = layertrace.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    outcomes = []
    cpu0, t0 = _cpu_s(), time.perf_counter()
    try:
        for label, task in tasks:
            try:
                outcomes.extend(task())
            except Exception as exc:  # a crashing unit is a failed unit; run the rest
                outcomes.append(f"{label}: {type(exc).__name__}: {exc}")
    finally:
        wall = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        if tracer is not None:
            tracer.restore()
    result.update(
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        outcomes=outcomes,
    )
    if tracer is not None:
        result["layers"] = layertrace.layer_metrics(tracer, wall)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
