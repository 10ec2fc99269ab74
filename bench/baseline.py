#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize every metric.

    python3 bench/baseline.py [--out FILE]

Each workload of BENCHMARK.json runs once per seed (1 to 10) with tracing
off, one after another, for
the ``run_seconds`` of BENCHMARK.json, then once with tracing on (first seed).
For each end-to-end metric the summary gives the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median,
which should stay below the metric's bound.  The traced run's per-layer
metrics are recorded as they are.  Run from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """Provenance line and result line of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    out = {"median": median, "q1": q1, "q3": q3, "n": len(values),
           "spread": (q3 - q1) / median if median else 0.0, "values": values}
    if bound is not None:
        out["bound"] = bound
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        runs = []
        for seed in SEEDS:
            provenance, result = run_once(workload, seed, spec["run_seconds"], 0)
            runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"]})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        _, traced = run_once(workload, SEEDS[0], spec["run_seconds"], 1)
        end_to_end = {name: summarize(v, bounds.get(name)) for name, v in values.items()}
        summary["workloads"][workload] = {
            "runs": runs,
            "end_to_end": end_to_end,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        summary["provenance"] = provenance["provenance"]
        for name, s in end_to_end.items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- spread above bound/3"
            print(f"{workload:9s} {name:14s} median {s['median']:.6g}  spread {s['spread']:.4f}"
                  f"  bound {bounds[name]}{flag}", flush=True)
        print(f"{workload:9s} correct {all(r['correct'] for r in runs)}  "
              f"failed/attempted {sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}",
              flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
