"""Record reference outputs for the benchmark's output checks.

    python3 perfbench/record.py --workload cli-bulk --seeds 0 1 2 7

Runs one pass per seed with the library in ./src and stores its outputs in
perfbench/reference.json, which run.py compares every later pass against.
Record only on a commit whose outputs are known to be right: later changes
must reproduce them (bit for bit; tocc-db within the tolerance in run.py).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)

    run.load_library()
    from speed import SpeedClock
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](
        os.path.join(run.WORK_DIR, args.workload))

    path = os.path.join(run.HERE, "reference.json")
    doc = {"workloads": {}}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    recorded = doc["workloads"].setdefault(args.workload, {})
    stamp = run.machine_stamp(args.workload, None)
    doc.setdefault("recorded_with", {})[args.workload] = {
        k: stamp[k] for k in ("commit", "source_sha256", "python", "numpy",
                              "scipy", "blas", "blas_threads")}
    for seed in args.seeds:
        with SpeedClock() as clock:
            outputs = workload.run_pass(workload.prepare(seed), clock).outputs
        errors = {k: r["error"] for k, r in outputs.items() if "error" in r}
        if errors:
            print(f"seed {seed}: failed operations {errors}", file=sys.stderr)
            return 1
        # Monte Carlo figures are compared within a tolerance of 0.05, so four
        # decimals keep the reference small without weakening the check.
        for record in outputs.values():
            if "approx" in record:
                record["approx"] = json.loads(
                    json.dumps(record["approx"]),
                    parse_float=lambda v: round(float(v), 4))
        recorded[str(seed)] = outputs
        print(f"{args.workload}: recorded seed {seed}", flush=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
