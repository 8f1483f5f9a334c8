"""One pass of a workload in a fresh interpreter.

Sets up (imports bellpaths from ./src, draws the query list, parses its
weight specs, loads the golden values), runs every query once through
`bellpaths.cli.main` in this process with stdout captured, checks each exit
code and stdout hash, and prints one JSON line with the pass's numbers.
With --trace 1 the layers are wrapped for the pass, the span aggregates are
added, and the raw spans go to .perfbench_out/spans-<workload>.bin.

Run from the repository root; `run.py` starts it once per pass.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import workloads  # noqa: E402

GOLDEN = os.path.join(HERE, "golden.json")
OUT_DIR = ".perfbench_out"


def load_golden(path: str = GOLDEN) -> dict:
    with open(path) as handle:
        return json.load(handle)["queries"]


def run_query(main, query: tuple) -> tuple:
    """(exit code or None on an exception, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(query))
        except Exception as exc:  # a traceback is a failed query, not a crash
            return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def check(query: tuple, code, stdout: str, golden: dict) -> str | None:
    """Why the query failed, or None when it matches its golden entry."""
    expected = golden.get(workloads.query_key(query))
    if expected is None:
        return "no golden entry"
    if code is None:
        return "exception"
    if code != expected[0]:
        return f"exit {code}, expected {expected[0]}"
    if hashlib.sha256(stdout.encode()).hexdigest() != expected[1]:
        return "stdout hash mismatch"
    return None


def import_bellpaths(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import bellpaths.cli

    if not os.path.abspath(bellpaths.__file__).startswith(src + os.sep):
        raise ImportError(f"bellpaths imported from {bellpaths.__file__}, not {src}")
    return bellpaths.cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--spawned-at",
        type=float,
        required=True,
        help="CLOCK_MONOTONIC reading taken just before this process was started",
    )
    args = parser.parse_args(argv)

    cli = import_bellpaths(os.getcwd())
    queries = workloads.draw(args.workload, args.seed)
    for spec in sorted({q[q.index("--weights") + 1] for q in queries if "--weights" in q}):
        cli.parse_weights(spec)
    golden = load_golden()

    log = replaced = None
    if args.trace:
        log = layertrace.SpanLog()
        replaced = layertrace.install(log)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at

    latencies = []
    failures = []
    clock = time.perf_counter
    first = clock()
    try:
        for query in queries:
            t0 = clock()
            code, stdout, error = run_query(cli.main, query)
            latencies.append(clock() - t0)
            reason = check(query, code, stdout, golden)
            if reason is not None:
                failures.append({"query": workloads.query_key(query), "reason": reason,
                                 "error": error[-500:]})
        wall_s = clock() - first
    finally:
        if replaced is not None:
            layertrace.uninstall(replaced)

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "latencies_s": latencies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(queries),
        "failed": len(failures),
        "failures": failures[:20],
    }
    if log is not None:
        result["spans"] = len(log)
        result["layers"] = layertrace.summarize(log)
        os.makedirs(OUT_DIR, exist_ok=True)
        log.write(os.path.join(OUT_DIR, f"spans-{args.workload}.bin"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
