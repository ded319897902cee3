"""Benchmark of the tocc library, run from the root of a source checkout.

    python3 perfbench/run.py --workload cli-bulk --seed 1 --seconds 20 --trace 0

Set-up imports the library from ./src, builds the workload's inputs from
--seed (three times; the median counts) and runs one warm-up pass on the
inputs of REFERENCE_SEED; set-up time is reported as setup_s. The run then
makes a fixed number of timed passes: --seconds divided by the workload's
nominal pass length. With --trace 1 the first half of the passes runs
untraced and the rest traced, and the per-layer figures come from the
traced ones. All times are speed-scaled seconds (see speed.py).

Every pass is checked: outputs of a seed recorded in reference.json must
match that reference (bit for bit, tocc-db within the Monte Carlo
tolerance), and every timed pass must reproduce the first timed pass
exactly. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; metric names and units come from
BENCHMARK.json. A full report (machine and commit stamp, every pass, and the
spans of a traced run) goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = ".perfbench_out"
WORK_DIR = ".perfbench_work"
REFERENCE_SEED = 7
SETUP_REPEATS = 3
# One BLAS thread: the library's matrices are small, and a single thread
# keeps run-to-run timings steady on a shared 2-core machine.
BLAS_THREADS = "1"
TOLERANCE = 0.05  # tocc-db: criterion 3's counting-vs-density tolerance


def load_library():
    """Pin BLAS threads, then import tocc from ./src and nowhere else."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    import tocc
    if not os.path.abspath(tocc.__file__).startswith(SRC + os.sep):
        raise ImportError(f"tocc was imported from {tocc.__file__}, not {SRC}")
    return tocc


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _close(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= TOLERANCE
    return a == b


def matches_reference(record: dict, ref: dict | None) -> bool:
    if ref is None or record.keys() != ref.keys():
        return False
    return (record.get("exact") == ref.get("exact")
            and _close(record.get("approx", {}), ref.get("approx", {})))


class Checker:
    """Counts checked operations and the ones that failed or mismatched."""

    def __init__(self, references: dict):
        self.references = references
        self.attempted = 0
        self.problems: list[str] = []

    def check(self, label: str, seed: int, outputs: dict,
              first: dict | None = None) -> None:
        expected = self.references.get(str(seed))
        keys = set(outputs) | set(expected or {}) | set(first or {})
        for key in sorted(keys):
            self.attempted += 1
            record = outputs.get(key)
            if record is None:
                why = "missing"
            elif "error" in record:
                why = record["error"]
            elif expected is not None and \
                    not matches_reference(record, expected.get(key)):
                why = f"differs from the reference for seed {seed}"
            elif first is not None and record != first.get(key):
                why = "differs from the first timed pass"
            else:
                continue
            self.problems.append(f"{label} {key}: {why}")

    @property
    def failed(self) -> int:
        return len(self.problems)


# ---------------------------------------------------------------------------
# Machine and commit stamp
# ---------------------------------------------------------------------------

def _git_commit() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    base = os.path.join(SRC, "tocc")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, base).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def machine_stamp(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"workload": workload, "seed": seed,
            "reference_seed": REFERENCE_SEED,
            "commit": _git_commit(), "source_sha256": _source_digest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "platform": platform.platform()}


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = perf_counter()
    try:
        load_library()
    except ImportError as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        return 2
    import speed
    import tracer as tracing
    from workloads import WORKLOADS
    import_s = perf_counter() - start

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "reference.json")) as fh:
        references = json.load(fh)["workloads"]
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload '{args.workload}' "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](os.path.join(WORK_DIR, args.workload))
    checker = Checker(references.get(args.workload, {}))

    # Set-up: inputs (median of several builds) and one warm-up pass on the
    # reference inputs, which checks the outputs against the reference.
    with speed.SpeedClock() as clock:
        import_s *= clock.scale()
        builds = []
        for _ in range(SETUP_REPEATS):
            inputs = workload.prepare(args.seed)
            builds.append(clock.mark("build"))
        ref_inputs = inputs if args.seed == REFERENCE_SEED \
            else workload.prepare(REFERENCE_SEED)
        clock.mark("build")
        warm = workload.run_pass(ref_inputs, clock)
        clock.mark("other")
    warm_s = sum(v for k, v in clock.scaled.items() if k != "build")
    checker.check("warm-up", REFERENCE_SEED, warm.outputs)
    setup_s = import_s + statistics.median(builds) + warm_s

    n_passes = max(1, round(args.seconds / workload.nominal_pass_s))
    n_traced = n_passes - n_passes // 2 if args.trace else 0
    n_untraced = max(1, n_passes - n_traced)
    passes = []
    first = None

    def timed_pass(label, tracer=None):
        nonlocal first
        with speed.SpeedClock() as clock:
            result = workload.run_pass(inputs, clock, tracer)
            clock.mark("other")
        checker.check(label, args.seed, result.outputs, first)
        first = first or result.outputs
        passes.append({"label": label,
                       "run_s": sum(clock.scaled.values()),
                       "fit_s": clock.scaled["fit"],
                       "score_s": clock.scaled["score"],
                       "score_rows": result.score_rows,
                       "raw_s": dict(clock.raw)})

    for i in range(n_untraced):
        timed_pass(f"pass {i}")
    tracer = None
    if n_traced:
        tracer = tracing.Tracer()
        tracer.install()
        # Speed probes are spans of their own, so they never count in the
        # self time of the library call they interrupt.
        tracer.wrap(speed, "_probe_once", "bench.probe")
        try:
            for i in range(n_traced):
                timed_pass(f"traced pass {i}", tracer)
        finally:
            tracer.uninstall()

    median = statistics.median
    untraced, traced = passes[:n_untraced], passes[n_untraced:]
    values = {
        "setup_s": setup_s,
        "run_s": median([p["run_s"] for p in untraced]),
        "score_rows_per_s": median([p["score_rows"] / p["score_s"]
                                    for p in untraced]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (checker.attempted - checker.failed) / checker.attempted,
    }
    if tracer is not None:
        # Self times are scaled like the passes that contain them.
        factor = sum(p["run_s"] for p in traced) / \
            sum(sum(p["raw_s"].values()) for p in traced)
        values = {key: total / n_traced * (factor if key.endswith("_s") else 1)
                  for key, total in tracer.layer_totals().items()}
        lookups = values.get("density.OrthantIntegrator.samples.calls", 0.0)
        draws = values.get("density.MixtureDensity.sample.calls", 0.0)
        values["density.samples.hit_ratio"] = \
            1.0 - draws / lookups if lookups else 0.0
        values["bench.untraced_run_s"] = median([p["run_s"] for p in untraced])
        values["bench.traced_run_s"] = median([p["run_s"] for p in traced])
        values["bench.trace_overhead_s"] = \
            values["bench.traced_run_s"] - values["bench.untraced_run_s"]
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in names}

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    stamp = machine_stamp(args.workload, args.seed)
    report = {"stamp": stamp, "setup": {"import_s": import_s,
                                        "build_s": builds, "warm_up_s": warm_s},
              "passes": passes, "problems": checker.problems,
              "metrics": metrics}
    with open(stem + ".json", "w") as fh:
        json.dump(report, fh, indent=1)
    if tracer is not None:
        tracer.write(stem + ".spans.json")

    for problem in checker.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({"correct": not checker.problems,
                      "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
