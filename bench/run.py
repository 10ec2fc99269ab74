#!/usr/bin/env python3
"""omcool benchmark.

    python3 bench/run.py --workload {grid,taxonomy,chain,physical} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; omcool is imported from ``src/``.
The benchmark drives ``omcool.cli.main(argv)`` in-process with inputs it
generates from the seed (see ``workloads.py``), repeats passes of the
workload until ``--seconds`` of calls have been timed, and checks every
output row against reference answers outside the timed region
(``reference.py``), plus a few rows per run against omcool's time-domain
covariance oracle.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` makes two
untraced passes and one traced, serial pass of the same inputs and reports the
per-layer metrics (``tracer.py``); the spans are written to
``.bench_out/trace-<workload>-<seed>.json``.

Stdout ends with a provenance line and then the result line
``{"correct", "attempted", "failed", "metrics"}``.  BLAS runs on one thread in
every process.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A fixed string-hash seed: with per-process random hashing, the fastest
# repetition of the same call differed by up to 30% between processes.
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the BLAS thread setting)

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_SAMPLES = 11
MIN_PASSES = 2

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
    "point_ms_p50": "ms",
    "point_ms_p95": "ms",
}

TRACED_FUNCTIONS = (
    "model.validate_config", "model.solve_steady_amplitudes",
    "model.build_drift_matrix", "model.build_noise_matrix",
    "lyapunov.stability", "lyapunov.solve_lyapunov", "lyapunov.phonon_numbers",
    "darkmode.dark_mode_condition", "darkmode.hybridize", "darkmode.close_channels",
    "darkmode.classify_configurations",
    "sweep.set_parameter", "sweep.solve_record", "sweep.run_solve", "sweep.run_sweep",
    "sweep.run_taxonomy",
    "config_io.parse_config", "config_io.config_from_dict", "config_io.config_hash",
    "config_io.dump_config",
    "results.table_to_csv", "results.write_csv",
    "cli.main",
)
SPAN_STATS = {"calls": "count", "self_ms": "ms", "total_ms": "ms", "errors": "count"}
DERIVED = {
    "model.validate_config.calls_per_point": "count",
    "lyapunov.stability.calls_per_point": "count",
    "model.solve_steady_amplitudes.iterations_p50": "count",
    **{f"lyapunov.solve_lyapunov.ms_N{N}": "ms" for N in workloads.CHAIN_SIZES},
    "sweep.run_taxonomy.useful_ratio": "ratio",
    "sweep.run_sweep.jobs2_speedup": "ratio",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{fn}.{stat}": unit for fn in TRACED_FUNCTIONS for stat, unit in SPAN_STATS.items()}
    units.update(DERIVED)
    return units


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100)[p - 1]


def measure_setup() -> float:
    """Wall time of a fresh interpreter that imports omcool.cli and exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import omcool.cli"],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, check=True)
    return time.perf_counter() - start


def run_calls(cli, calls, tracer=None):
    """Run each call in turn; returns wall seconds and exit codes, and with a
    tracer the span index range of each call."""
    walls, codes, ranges = [], [], []
    for call in calls:
        sink = io.StringIO()
        lo = len(tracer.spans) if tracer else 0
        with redirect_stdout(sink), redirect_stderr(sink):
            start = time.perf_counter()
            try:
                code = cli.main(call.argv)  # looked up per call, so the traced wrapper is used
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed point, not the end of the run
                code = -1
                traceback.print_exc(file=sys.__stderr__)
            walls.append(time.perf_counter() - start)
        codes.append(code)
        ranges.append((lo, len(tracer.spans) if tracer else 0))
    return walls, codes, ranges


def check(workload, calls, codes, verdict, keep_rows=False) -> None:
    workload.expect(calls)
    for call, code in zip(calls, codes):
        workloads.check_call(call, code, verdict, keep_rows)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(workload, cli, seconds: float, oracle):
    """Repeat the workload's pass until ``seconds`` of calls are timed.

    Every pass runs the same inputs.  On a shared 2-vCPU virtual machine the
    same call was measured to run up to 2x slower for seconds at a time, so
    each call is timed at its fastest repetition: wall_s is the sum of those
    over one pass, counting a call that a pass repeats (same tag) once, and a
    call writing k rows gives k per-point samples of its fastest wall / k.  Set-up is sampled between passes, evenly over the
    timed seconds, so that its median spans the run.
    """
    setup, walls, runs, pass_walls = [], {}, [], []
    while (timed := sum(map(sum, walls.values()))) < seconds or len(runs) < MIN_PASSES:
        while len(setup) < min(SETUP_SAMPLES, 1 + SETUP_SAMPLES * timed / seconds):
            setup.append(measure_setup())
        calls = workload.make_pass(len(runs))
        call_walls, codes, _ = run_calls(cli, calls)
        runs.append((calls, codes))
        pass_walls.append(sum(call_walls))
        for call, wall in zip(calls, call_walls):
            walls.setdefault(call.tag, []).append(wall)
    rss = peak_rss_mb()
    setup += [measure_setup() for _ in range(SETUP_SAMPLES - len(setup))]

    verdict = workloads.Verdict()
    workload.expect([call for calls, _ in runs for call in calls])
    for k, (calls, codes) in enumerate(runs):
        check(workload, calls, codes, verdict, keep_rows=k == 0)
    wrong = verdict.wrong + oracle(verdict)
    ok = verdict.verified - (wrong - verdict.wrong)
    attempted = sum(call.points for calls, _ in runs for call in calls)

    calls = list({call.tag: call for call in runs[0][0]}.values())
    best = [min(walls[call.tag]) for call in calls]
    point_ms = [wall * 1e3 / call.points for call, wall in zip(calls, best) for _ in range(call.points)]
    pass_wall = sum(best)
    rows = sum(call.points for call in calls)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": pass_wall,
        "points_per_s": ok / attempted * rows / pass_wall,
        "peak_rss_mb": rss,
        "ok_frac": ok / attempted,
        "point_ms_p50": percentile(point_ms, 50),
        "point_ms_p95": percentile(point_ms, 95),
    }
    detail = {"setup_s": quartiles(setup), "pass_wall_s": quartiles(pass_walls),
              "point_ms": quartiles(point_ms), "passes": len(runs)}
    return metrics, END_TO_END, attempted, attempted - ok, wrong, detail


def traced(workload, cli, oracle, trace_path: Path):
    verdict = workloads.Verdict()
    attempted = 0

    def untraced_wall(serial=False) -> float:
        nonlocal attempted
        calls = workload.make_pass(0, serial=serial)
        walls, codes, _ = run_calls(cli, calls)
        check(workload, calls, codes, verdict, keep_rows=attempted == 0)
        attempted += sum(c.points for c in calls)
        return sum(walls)

    # The first pass in a process also pays for warm-up, which made the
    # overhead negative on chain and physical; each wall is the faster of two.
    untraced = serial = min(untraced_wall(), untraced_wall())
    if workload.name == "grid":
        serial = min(untraced_wall(serial=True), untraced_wall(serial=True))

    tracer = Tracer()
    tracer.install()
    try:
        calls = workload.make_pass(0, serial=True)
        walls, codes, ranges = run_calls(cli, calls, tracer)
    finally:
        tracer.uninstall()
    check(workload, calls, codes, verdict)
    attempted += sum(c.points for c in calls)
    wrong = verdict.wrong + oracle(verdict)
    ok = verdict.verified - (wrong - verdict.wrong)

    metrics = layer_metrics(tracer, calls, ranges)
    metrics["sweep.run_sweep.jobs2_speedup"] = serial / untraced if workload.name == "grid" else 0.0
    metrics["trace.overhead_s"] = sum(walls) - serial
    trace_path.parent.mkdir(exist_ok=True)
    trace_path.write_text(json.dumps({
        "calls": [{"argv": c.argv, "spans": list(r), "exit": code}
                  for c, r, code in zip(calls, ranges, codes)],
        "span_fields": ["name", "parent", "start_ns", "end_ns", "raised", "iterations"],
        "spans": tracer.spans,
    }))
    return metrics, per_layer_units(), attempted, attempted - ok, wrong, {}


def layer_metrics(tracer, calls, ranges) -> dict:
    spans = tracer.spans
    self_ns = tracer.self_ns()
    metrics = {f"{fn}.{stat}": 0.0 for fn in TRACED_FUNCTIONS for stat in SPAN_STATS}
    for (name, _, start, end, raised, _), own in zip(spans, self_ns):
        if name in TRACED_FUNCTIONS:
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.self_ms"] += own / 1e6
            metrics[f"{name}.total_ms"] += (end - start) / 1e6
            metrics[f"{name}.errors"] += raised

    # Nearest enclosing solve_record of every span (-1: none); parents precede children.
    record = []
    for i, (name, parent, *_rest) in enumerate(spans):
        record.append(i if name == "sweep.solve_record" else record[parent] if parent >= 0 else -1)
    per_point = {"model.validate_config": [], "lyapunov.stability": []}
    for lo, hi in ranges:
        records = [i for i in range(lo, hi) if spans[i][0] == "sweep.solve_record"]
        for fn, values in per_point.items():
            inside = {r: 0 for r in records}
            outside = 0
            for i in range(lo, hi):
                if spans[i][0] == fn:
                    if record[i] >= 0:
                        inside[record[i]] += 1
                    else:
                        outside += 1
            values += [n + outside / len(records) for n in inside.values()]
    for fn, values in per_point.items():
        metrics[f"{fn}.calls_per_point"] = statistics.median(values) if values else 0.0

    iterations = [s[5] for s in spans if s[0] == "model.solve_steady_amplitudes" and s[5] is not None]
    metrics["model.solve_steady_amplitudes.iterations_p50"] = (
        statistics.median(iterations) if iterations else 0.0)
    for N in workloads.CHAIN_SIZES:
        lyap = [self_ns[i] / 1e6 for call, (lo, hi) in zip(calls, ranges)
                if call.tag.partition(".")[0] == f"N{N}"
                for i in range(lo, hi) if spans[i][0] == "lyapunov.solve_lyapunov"]
        metrics[f"lyapunov.solve_lyapunov.ms_N{N}"] = statistics.median(lyap) if lyap else 0.0
    kept = sum(c.points for c, (lo, hi) in zip(calls, ranges)
               if any(spans[i][0] == "sweep.run_taxonomy" for i in range(lo, hi)))
    metrics["sweep.run_taxonomy.useful_ratio"] = kept / metrics["sweep.solve_record.calls"] if kept else 0.0
    return metrics


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def provenance(args) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(), "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "omcool" / "cli.py").is_file():
        print(f"error: no omcool source at {SRC / 'omcool'}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    from omcool import cli
    from omcool.lyapunov import integrate_covariance

    oracle_rng = np.random.default_rng([args.seed, 1])

    def oracle(verdict):
        return workloads.oracle_check(verdict, oracle_rng, integrate_covariance)

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        if args.trace:
            trace_path = ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.json"
            result = traced(workload, cli, oracle, trace_path)
        else:
            result = end_to_end(workload, cli, args.seconds, oracle)
    finally:
        shutil.rmtree(work)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    metrics, units, attempted, failed, wrong, detail = result
    print(json.dumps({"provenance": provenance(args), "samples": detail,
                      "fail_frac": failed / attempted, "wrong_rows": wrong}))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
