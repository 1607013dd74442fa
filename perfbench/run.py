"""gaussflow benchmark.

One run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload flow-n2 --seed 3 --seconds 35 --trace 0

prints the figures by name and unit, then as its last line one JSON object
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones from a traced
run (spans go to .perfbench_work/<workload>-<pid>/spans.jsonl).

Every workload with summary tables (each run in its own interpreter):

    python3 perfbench/run.py --all [--repeats 5] [--seconds 35] [--record FILE]

Compare two result files written with --record or --all:

    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = harness.ROOT / "BENCHMARK.json"
# Fresh interpreters whose set-up is timed; setup_s is their median.
SETUP_PROBES = 3


def load_benchmark() -> dict:
    with open(BENCHMARK, encoding="utf-8") as f:
        return json.load(f)


def time_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until its first job is
    ready (imports, cold grid build, make-body inputs)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=harness.ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=170)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
    return elapsed


def _setup(args):
    gaussflow = harness.import_gaussflow()
    work = harness.fresh_dir(harness.WORK / f"{args.workload}-{os.getpid()}")
    workload = workloads.make(args.workload, args.seed, work)
    grid_s = harness.setup(workload, work, gaussflow.cli, gaussflow.sphere_grid)
    return gaussflow, work, workload, grid_s


def _prepare(args):
    """Set-up, then one untimed warm-up job."""
    gaussflow, work, workload, grid_s = _setup(args)
    runner = harness.Runner(gaussflow.cli, workload, work)
    runner.warm_up()
    return gaussflow, work, workload, runner, grid_s


def setup_probe(args) -> int:
    _, work, _, _ = _setup(args)
    print("ready", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    return 0


def run_untraced(args, after_job=None) -> tuple[dict, list, dict]:
    setups = [time_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    gaussflow, work, workload, runner, grid_s = _prepare(args)
    runner.after_job = after_job
    cpu0 = harness.cpu_seconds()
    start = time.perf_counter()
    records = runner.run_for(args.seconds)
    elapsed = time.perf_counter() - start
    cpu = harness.cpu_seconds() - cpu0
    shutil.rmtree(work, ignore_errors=True)
    times = [r.seconds for r in records]
    ok = sum(r.failure is None for r in records)
    percentile, tail_s = harness.tail(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": ok / elapsed,
        "job_p50_s": harness.job_p50(records),
        "job_tail_s": tail_s,
        "cpu_per_job_s": cpu / len(records),
        "peak_rss_mb": harness.peak_rss_mb(),
        # 1 - failed_frac: a metric that is never 0 keeps its ratio to a base defined.
        "ok_frac": ok / len(records),
    }
    by_key = {}
    for r in records:
        by_key.setdefault(r.key, []).append(r.seconds)
    info = {"tail_percentile": percentile, "samples": len(times),
            "failed_frac": 1.0 - metrics["ok_frac"], "setup_samples": setups,
            "job_p50_s_by_job": {k: statistics.median(v) for k, v in by_key.items()}}
    return metrics, records, info


def run_traced(args) -> tuple[dict, list, dict]:
    """Alternate one untraced and one traced cycle of the workload's jobs
    for about half the run, so both see the same machine; per-layer
    figures are the mean over traced cycles, whose exact counts must agree."""
    gaussflow, work, workload, runner, grid_s = _prepare(args)
    tracer = tracing.Tracer()
    untraced, traced, cycles = [], [], []
    deadline = time.perf_counter() + args.seconds / 2
    while len(cycles) < 2 or time.perf_counter() < deadline:
        untraced += [runner.run_job(job) for job in workload.jobs]
        lo = len(tracer.spans)
        tracer.install(gaussflow)
        try:
            for job in workload.jobs:
                tracer.job = f"cycle{len(cycles)}/{job.key}"
                traced.append(runner.run_job(job))
        finally:
            tracer.restore()
        cycles.append((lo, len(tracer.spans)))
    tracer.write(work / "spans.jsonl")
    shutil.rmtree(work / "jobs", ignore_errors=True)
    per_cycle = [tracing.layer_metrics(tracer.spans, tracer.events, lo, hi) for lo, hi in cycles]
    mismatched = [k for k in tracing.EXACT_COUNTS if len({c[k] for c in per_cycle}) > 1]
    if mismatched:
        print(f"exact counts differ between traced cycles: {mismatched}", file=sys.stderr)
    metrics = {k: v if all(c[k] == v for c in per_cycle) else statistics.fmean(c[k] for c in per_cycle)
               for k, v in per_cycle[0].items()}
    metrics["sphere_grid.build_grid.first_s"] = grid_s
    metrics["sphere_grid.dense_bytes"] = harness.dense_bytes(gaussflow.sphere_grid,
                                                             workload.grids)
    metrics["trace.overhead_ratio"] = harness.job_p50(traced) / harness.job_p50(untraced)
    info = {"traced_cycles": len(cycles), "jobs_per_cycle": len(workload.jobs),
            "spans": len(tracer.spans), "exact_counts_match": not mismatched,
            "exact_counts": {k: per_cycle[0][k] for k in tracing.EXACT_COUNTS}}
    return metrics, runner.records, info


def single_run(args) -> int:
    harness.check_sources()
    bench = load_benchmark()
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    if args.trace:
        values, records, info = run_traced(args)
    else:
        values, records, info = run_untraced(args)
    failed = sum(r.failure is not None for r in records)
    correct = failed == 0 and info.get("exact_counts_match", True)
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    env = harness.environment()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(records)} jobs, {failed} failed")
    print("env " + json.dumps(env))
    print("info " + json.dumps(info))
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    result = {"correct": bool(correct), "attempted": len(records), "failed": failed,
              "metrics": metrics}
    if args.record:
        with open(args.record, "a", encoding="utf-8") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "seconds": args.seconds,
                                "result": result, "info": info, "env": env}) + "\n")
    print(json.dumps(result))
    return 0


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _load_records(path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def _by_workload(records, trace):
    out = {}
    for r in records:
        if r["trace"] == trace:
            out.setdefault(r["workload"], []).append(r)
    return out


def compare(base_path, new_path) -> int:
    """Medians and quartiles of both files per workload and end-to-end
    metric, the ratio new/base, and whether new is worse than base by
    more than the metric's bound."""
    bench = load_benchmark()
    base = _by_workload(_load_records(base_path), 0)
    new = _by_workload(_load_records(new_path), 0)
    print(f"base = {base_path}, new = {new_path}; ratio = new median / base median")
    regressions = 0
    for workload in workloads.NAMES:
        if workload not in base or workload not in new:
            print(f"{workload}: missing from {'base' if workload not in base else 'new'}")
            continue
        print(f"{workload} (runs: base {len(base[workload])}, new {len(new[workload])})")
        for spec in bench["end_to_end"]:
            name = spec["name"]
            b = _quartiles([r["result"]["metrics"][name]["value"] for r in base[workload]])
            n = _quartiles([r["result"]["metrics"][name]["value"] for r in new[workload]])
            ratio = n[1] / b[1] if b[1] else float("inf")
            worse = (n[1] - b[1]) / b[1] if b[1] else 0.0
            if spec["better"] == "higher":
                worse = -worse
            flag = "REGRESSION" if worse > spec["bound"] else "ok"
            regressions += flag != "ok"
            print(f"  {name:14s} base {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}]  "
                  f"new {n[1]:.6g} [{n[0]:.6g}, {n[2]:.6g}] {spec['unit']}  "
                  f"ratio {ratio:.4f}  bound {spec['bound']:g}  {flag}")
    return 1 if regressions else 0


def run_all(args) -> int:
    """Every workload: --repeats untraced runs (seeds 1..N), then two traced
    runs with seed 1 whose exact counts must agree. Prints summary tables."""
    bench = load_benchmark()
    harness.WORK.mkdir(exist_ok=True)
    record = Path(args.record or harness.WORK / f"results-{time.strftime('%Y%m%d-%H%M%S')}.jsonl")
    script = str(Path(__file__).resolve())
    for workload in workloads.NAMES:
        runs = [(seed, 0) for seed in range(1, args.repeats + 1)] + [(1, 1), (1, 1)]
        for seed, trace in runs:
            cmd = [sys.executable, script, "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--record", str(record)]
            subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=harness.ROOT,
                           timeout=600)
    records = _load_records(record)
    untraced, traced = _by_workload(records, 0), _by_workload(records, 1)
    print(f"results in {record}")
    print("env " + json.dumps(records[-1]["env"]))
    for workload in workloads.NAMES:
        runs = untraced[workload]
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        print(f"{workload}: {len(runs)} runs, {attempted} jobs, failed_frac {failed / attempted:g}, "
              f"tail percentiles {sorted({r['info']['tail_percentile'] for r in runs})}, "
              f"jobs per run {[r['info']['samples'] for r in runs]}")
        for spec in bench["end_to_end"]:
            q1, med, q3 = _quartiles([r["result"]["metrics"][spec["name"]]["value"] for r in runs])
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {spec['name']:14s} {med:.6g} {spec['unit']}  [q1 {q1:.6g}, q3 {q3:.6g}]  "
                  f"spread {spread:.3f} (bound {spec['bound']:g})")
    for workload in workloads.NAMES:
        a, b = traced[workload][-2:]
        same = a["info"]["exact_counts"] == b["info"]["exact_counts"]
        print(f"{workload} traced: exact counts {'identical' if same else 'DIFFER'} across "
              f"two runs {a['info']['exact_counts']}; tracing overhead "
              f"x{a['result']['metrics']['trace.overhead_ratio']['value']:.3f} on job_p50_s")
        for name, m in a["result"]["metrics"].items():
            print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=1, help="chooses the body seeds")
    ap.add_argument("--seconds", type=float,
                    help="length of the timed loop (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append each run's result and environment to this file")
    ap.add_argument("--all", action="store_true", help="run every workload, print tables")
    ap.add_argument("--repeats", type=int, default=5, help="untraced runs per workload (--all)")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = load_benchmark()["run_seconds"]
    try:
        if args.compare:
            return compare(*args.compare)
        if args.all:
            return run_all(args)
        if args.workload is None:
            ap.error("--workload, --all or --compare is required")
        if args.setup_probe:
            return setup_probe(args)
        return single_run(args)
    except harness.NoProgram as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
