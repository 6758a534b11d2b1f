"""Run one workload of the jaglab benchmark and print its metrics.

    python3 perfbench/run.py --workload verify-ladder --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28

jaglab is imported from ``src/`` next to this directory, never from an
installed copy.  Every metric is printed as ``name: value unit``; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones, timed
with tracing off; with ``--trace 1`` they are the per-layer ones, from
traced passes that alternate with untraced ones, and the spans are written
to ``.perfbench_out/``.  ``--workload all`` runs each workload in a process
of its own, one after the other, so each reports its own peak RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("verify-ladder", "connect-ladder", "run-ladder", "verify-random")


def _args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_bench():
    """Import the benchmark against the jaglab sources of this checkout."""
    if not (SRC / "jaglab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no jaglab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import jaglab
    if Path(jaglab.__file__).resolve().parent != SRC / "jaglab":
        sys.exit(f"perfbench: imported jaglab from {jaglab.__file__}, not {SRC}")
    import bench
    return bench


def _print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")


def run_one(args) -> dict:
    bench = _import_bench()
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    run = bench.measure(args.workload, args.seed, args.seconds, tracer)
    attempted, failed, reasons = bench.failures(run)
    if tracer is None:
        metrics = bench.end_to_end(run)
    else:
        metrics = bench.per_layer(run, tracer)
        tracer.write(ROOT / ".perfbench_out"
                     / f"{args.workload}-seed{args.seed}.spans.jsonl")
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}  "
          f"passes: {len(run.passes)} untraced, {len(run.traced)} traced  "
          f"python: {sys.version.split()[0]}  nproc: {os.cpu_count()}")
    _print_metrics(metrics)
    walls = sorted(p.wall for p in run.passes)
    print(f"verdict samples: {len(run.cases)} cases, each the median of "
          f"{len(run.passes)} untraced passes; median pass {walls[len(walls) // 2]:.6g} s")
    print(f"fail_frac: {failed / attempted:.6g} ({failed} of {attempted})")
    if args.workload == "verify-random":
        print(f"oracle_unchecked: {run.oracle_unchecked} of {len(run.cases)}")
    for label, why in reasons:
        print(f"FAILED {label}: {why}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def run_all(args) -> dict:
    """Each workload in its own process; metrics are prefixed by workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: {workload} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    return total


def main(argv=None) -> int:
    args = _args(argv)
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
