"""Benchmark of the bellpaths command line.

    python3 perfbench/run.py --workload numeric-tables --seed 1 --seconds 35 --trace 0

Run from the repository root.  A workload is a seeded, closed-loop stream of
CLI queries from one client (see workloads.py).  Each pass runs the whole
query list once in a fresh interpreter (worker.py); passes repeat until
--seconds have gone by.  Latency percentiles are taken over the queries of
all passes, every other metric is the median over the passes.
Every query's exit code and stdout hash is checked against golden.json.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and reports the per-layer metrics of metric_map.json from the
traced ones, plus the tracing overhead; raw spans go to .perfbench_out/.
--workload all runs every workload in turn.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Exit code 0 when every query matched and every bypass
prediction held, 1 otherwise, 2 when the repository or a pass is broken.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import workloads  # noqa: E402
from worker import OUT_DIR  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
MIN_PASSES = 3
TIME_LIMIT_S = 170.0
END_TO_END_UNITS = {
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _monotonic() -> float:
    # system-wide clock, comparable with the worker's reading at its start
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_pass(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0"]
    timeout = deadline - _monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the minimum number of passes")
    spawned = _monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass exceeded the time limit") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} pass exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def latency_percentiles(latencies_s: list) -> tuple[float, float]:
    """Median and p90 in ms; p90 must have at least ten samples beyond it."""
    ms = [x * 1000 for x in latencies_s]
    p90 = statistics.quantiles(ms, n=10)[8]
    beyond = sum(1 for x in ms if x > p90)
    if beyond < 10:
        raise BenchError(f"p90 of {len(ms)} queries has only {beyond} samples beyond it")
    return statistics.median(ms), p90


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Passes until `seconds` have gone by; untraced and traced alternate
    when tracing.  Returns the medians and the records of every pass."""
    start = _monotonic()
    deadline = start + TIME_LIMIT_S
    plain, traced = [], []
    while True:
        elapsed = _monotonic() - start
        if trace:
            done = plain and traced
        else:
            done = len(plain) >= MIN_PASSES
        if done and elapsed >= seconds:
            break
        use_trace = trace and len(traced) < len(plain)
        record = run_pass(workload, seed, use_trace, deadline)
        (traced if use_trace else plain).append(record)

    passes = plain + traced
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    p50, p90 = latency_percentiles([x for r in plain for x in r["latencies_s"]])
    summary = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "passes": len(plain),
        "traced_passes": len(traced),
        "queries_per_pass": plain[0]["attempted"],
        "attempted": attempted,
        "failed": failed,
        "failures": [f for r in passes for f in r["failures"]][:20],
        "end_to_end": {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "query_p50_ms": p50,
            "query_p90_ms": p90,
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        },
        "bypass_violations": [],
    }
    if trace:
        metric_map = layertrace.load_metric_map()
        per_layer = {}
        for group in metric_map["layers"]:
            for name in group["metrics"]:
                if name == "trace.overhead_ratio":
                    value = statistics.median(r["wall_s"] for r in traced) / summary[
                        "end_to_end"]["wall_s"]
                else:
                    value = statistics.median_low(r["layers"][name] for r in traced)
                per_layer[name] = value
        summary["per_layer"] = per_layer
        summary["spans_per_pass"] = traced[0]["spans"]
        violations = set()
        for r in traced:
            violations.update(layertrace.bypass_violations(workload, r["layers"], metric_map))
        summary["bypass_violations"] = sorted(violations)
    summary["passes_detail"] = [
        {k: v for k, v in r.items() if k not in ("latencies_s", "layers", "failures")}
        for r in passes
    ]
    return summary


def report_lines(summary: dict) -> list[str]:
    s = summary
    n = s["passes"]
    lines = [
        f"workload {s['workload']}: seed {s['seed']}, trace {s['trace']}, "
        f"python {s['python']}, nproc {s['nproc']}",
        f"  {n} untraced passes of {s['queries_per_pass']} queries, each in a fresh "
        f"interpreter; latency percentiles over all {n * s['queries_per_pass']} queries, "
        f"other values medians over the passes",
    ]
    for name, value in s["end_to_end"].items():
        lines.append(f"  {name:<14} {value:12.4f} {END_TO_END_UNITS[name]}")
    ratio = s["failed"] / s["attempted"]
    lines.append(
        f"  {'failed_ratio':<14} {ratio:12.4f} ratio  "
        f"({s['failed']} failed of {s['attempted']} attempted)"
    )
    for failure in s["failures"]:
        lines.append(f"  FAILED {failure['query']}: {failure['reason']} {failure['error']}")
    if s["trace"]:
        lines.append(
            f"  {s['traced_passes']} traced passes, {s['spans_per_pass']} spans each; "
            f"per-layer values are medians over the traced passes"
        )
        for name, value in s["per_layer"].items():
            lines.append(f"  {name:<44} {value:14.6g} {layertrace.metric_unit(name)}")
        for violation in s["bypass_violations"]:
            lines.append(f"  BYPASS PREDICTION FAILED: {violation} (expected 0)")
    return lines


def metrics_of(summary: dict) -> dict:
    if summary["trace"]:
        return {
            name: {"value": value, "unit": layertrace.metric_unit(name)}
            for name, value in summary["per_layer"].items()
        }
    return {
        name: {"value": value, "unit": END_TO_END_UNITS[name]}
        for name, value in summary["end_to_end"].items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "bellpaths", "cli.py")):
        print("error: run from the root of a bellpaths checkout (no src/bellpaths)",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = []
    try:
        for name in names:
            summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
            summaries.append(summary)
            path = os.path.join(OUT_DIR, f"result-{name}-seed{args.seed}-trace{args.trace}.json")
            with open(path, "w") as handle:
                json.dump(summary, handle, indent=1)
            print("\n".join(report_lines(summary)), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    correct = all(s["failed"] == 0 and not s["bypass_violations"] for s in summaries)
    if len(summaries) == 1:
        metrics = metrics_of(summaries[0])
    else:
        metrics = {
            f"{s['workload']}.{name}": value
            for s in summaries
            for name, value in metrics_of(s).items()
        }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
