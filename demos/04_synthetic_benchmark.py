"""Stress-testing the classifiers on synthetic scenario families.

Three stories: (1) how far apart do two populations need to be before a
one-class rule separates them, (2) what happens when intruders are sprinkled
*inside* the target's bounding box, and (3) why cluster-wise thresholds win
on banana-shaped classes. Writes SVGs into demos/output/.
Run from the repository root:  python demos/04_synthetic_benchmark.py  (~2 min)
"""

import os

import numpy as np

from tocc import RngStream, ScenarioSpec, generate, make_method, run_benchmark
from tocc.io_utils import write_boxplot_svg

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

REPS = 10
METHODS = ["tocc-df", "pam-tocc-df", "gauss", "kmeans"]


def bench(spec):
    methods = [make_method(m, 0.9) for m in METHODS]
    return run_benchmark(methods, spec, REPS, 0.9)


def medians(result):
    return {name: stats.get("spec_median", float("nan"))
            for name, stats in result.summary().items()}


# ---------------------------------------------------------------------------
# Story 1: shifted Gaussians, small vs large shift.
# ---------------------------------------------------------------------------
print(f"scenario (a), {REPS} replications, specificity at s >= 0.9:")
for lam in (1.0, 2.0):
    result = bench(ScenarioSpec("a", 500, RngStream(1), lam=lam))
    meds = medians(result)
    row = "  ".join(f"{m}={meds[m]:.2f}" for m in METHODS)
    print(f"  shift lambda={lam}:  {row}")
print("Doubling the shift roughly doubles everyone's headroom.\n")

# ---------------------------------------------------------------------------
# Story 2: uniform intruders in a box over the target class.
# ---------------------------------------------------------------------------
groups = {}
for scenario in "efgh":
    result = bench(ScenarioSpec(scenario, 500, RngStream(2)))
    for name in METHODS:
        groups.setdefault(name, []).extend(
            r.specificity for r in result.for_method(name)
            if r.error is None and r.specificity is not None)
print(f"box scenarios (e)-(h) pooled over {4 * REPS} runs:")
for name in METHODS:
    print(f"  {name:<12s} median specificity {np.median(groups[name]):.2f}")
svg = os.path.join(OUT, "box_scenarios.svg")
write_boxplot_svg(svg, groups)
print(f"boxplot -> {svg}\n")

# ---------------------------------------------------------------------------
# Story 3: banana-shaped target, where one global center misleads.
# ---------------------------------------------------------------------------
sample = generate(ScenarioSpec("i", 500, RngStream(3)))
print("scenario (i) sample:",
      f"{sample.target.n} target points on the wide arc,",
      f"{sample.nontarget.n} intruders on the narrow offset arc")
result = bench(ScenarioSpec("i", 500, RngStream(3)))
meds = medians(result)
for name in METHODS:
    print(f"  {name:<12s} median specificity {meds[name]:.2f}")
print("The clustered variant bends its acceptance region along the arc;"
      " single-prototype rules cannot.")
