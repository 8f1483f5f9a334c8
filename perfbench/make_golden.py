"""Write golden.json: the exit code and stdout SHA-256 of every query in every
workload's universe, as the bellpaths in ./src answers them.

    python3 perfbench/make_golden.py

Run from the repository root.  The golden file is a committed baseline:
regenerate it only when a change to the query universes adds queries, never
to make a changed output pass.
"""

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import worker  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    cli = worker.import_bellpaths(os.getcwd())
    golden = {}
    for name in sorted(workloads.WORKLOADS):
        for query in workloads.universe(name):
            code, stdout, error = worker.run_query(cli.main, query)
            if code is None:
                raise RuntimeError(f"{workloads.query_key(query)} raised {error}")
            digest = hashlib.sha256(stdout.encode()).hexdigest()
            golden[workloads.query_key(query)] = [code, digest]
        print(f"{name}: {len(workloads.universe(name))} queries", file=sys.stderr)
    lines = [f"{json.dumps(key)}: {json.dumps(golden[key])}" for key in sorted(golden)]
    with open(worker.GOLDEN, "w") as handle:
        handle.write('{"queries": {\n' + ",\n".join(lines) + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
