"""The forensic glass study: dataset loader and the full evaluation grid.

A copy of the classic UCI glass-identification table ships with the package
(214 fragments, refractive index plus eight element concentrations, type
codes 1-7). The study trains on window glass only and tests against the
containers/tableware/headlamp fragments. The "float-windows" subset keeps
the float-process window types {1, 3} as the 87-row target class and all 51
non-window rows, the 138-fragment setting the evaluation tables target;
"all-windows" keeps every window type (163 targets).

run_glass_repro evaluates the three TOCC variants under three
dimension-reduction front-ends (low-variance PCA, a MAD-selected random
projection ensemble with majority voting, and kappa-VIP variable selection)
and reports AUC, specificity at the calibrated sensitivity, and wall time
per cell.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .evaluation import (TOCC_METHODS, TOCC_VARIANTS, RocCurve,
                         confusion_metrics, fit_method, roc_curve)
from .featsel import (compute_vip, fit_rp_ensemble, kappa_vip_select,
                      pca_reduce, rp_select)
from .io_utils import ingest_csv
from .numcore import DataMatrix, RngStream, correlation_matrix

GLASS_FEATURES = ("RI", "Na", "Mg", "Al", "Si", "K", "Ca", "Ba", "Fe")
WINDOW_FLOAT_TYPES = ("1", "3")
WINDOW_ALL_TYPES = ("1", "2", "3")
NONWINDOW_TYPES = ("5", "6", "7")

FRONTENDS = ("pca2", "rp2", "kvip2")


def bundled_glass_path() -> str:
    return str(resources.files("tocc.data").joinpath("glass.csv"))


def load_glass(path: str | None = None, subset: str = "float-windows") -> DataMatrix:
    """Load the glass table with target/non-target labels.

    subset "float-windows" (default) keeps types {1,3} as targets and drops
    the non-float building windows, giving the 138-fragment study set;
    "all-windows" keeps {1,2,3} as targets (214 rows).
    """
    if subset == "float-windows":
        target_types = WINDOW_FLOAT_TYPES
    elif subset == "all-windows":
        target_types = WINDOW_ALL_TYPES
    else:
        raise ValueError("subset must be 'float-windows' or 'all-windows'")
    data = ingest_csv(path or bundled_glass_path(), label_column="Type",
                      target_labels=target_types)
    if subset == "float-windows":
        types = _raw_types(path)
        keep = [t in WINDOW_FLOAT_TYPES + NONWINDOW_TYPES for t in types]
        data = data.select_rows(np.array(keep))
    return data


def _raw_types(path):
    with open(path or bundled_glass_path()) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    header = lines[0].strip().split(",")
    idx = header.index("Type")
    return [ln.strip().split(",")[idx] for ln in lines[1:] if ln.strip()]


# ---------------------------------------------------------------------------
# Reproduction grid
# ---------------------------------------------------------------------------

@dataclass
class CellResult:
    variant: str
    frontend: str
    auc: float
    sensitivity: float
    specificity: float
    seconds: float
    roc: RocCurve | None = None


@dataclass
class GlassReproResult:
    cells: dict = field(default_factory=dict)
    vip_selected: list[str] = field(default_factory=list)
    vip_values: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    config: dict = field(default_factory=dict)

    def cell(self, variant: str, frontend: str) -> CellResult:
        return self.cells[(variant, frontend)]


def run_glass_repro(kappa: float = 0.5, pam_k: int = 4, s: float = 0.9,
                    d: int = 2, b1: int = 101, b2: int = 50,
                    mc_samples: int = 100_000, seed: int = 7,
                    data_path: str | None = None, subset: str = "float-windows",
                    frontends=FRONTENDS, variants=TOCC_METHODS,
                    with_roc: bool = False) -> GlassReproResult:
    """Evaluate each TOCC variant under each front-end on the glass study.

    Front-ends are fitted on the target class only; the grid reports AUC,
    specificity at minimum training sensitivity s, and wall time. The
    external variable-selection column of the published tables is not
    reproducible from this package and is reported as absent by the CLI.
    """
    data = load_glass(data_path, subset=subset)
    is_target = data.is_target()
    train = data.select_rows(is_target)
    rng = RngStream(seed)

    result = GlassReproResult(config={
        "kappa": kappa, "pam_k": pam_k, "s": s, "d": d, "b1": b1, "b2": b2,
        "mc_samples": mc_samples, "seed": seed, "subset": subset})

    views = {}
    if "pca2" in frontends:
        reducer, train_red = pca_reduce(train, d, which="last")
        views["pca2"] = (train_red, reducer.apply(data))
    if "kvip2" in frontends:
        projections = rp_select(train, d, b1, b2, rng.child(1))
        sds = train.values.std(axis=0, ddof=1)
        ranking = compute_vip(projections, sds)
        corr = correlation_matrix(train)
        selected = kappa_vip_select(ranking, corr, kappa, n_keep=d)
        names = [train.feature_names[j] for j in selected]
        result.vip_selected = names
        result.vip_values = {train.feature_names[j]: float(ranking.vip[j])
                             for j in ranking.ranking}
        views["kvip2"] = (train.select_features(selected),
                          data.select_features(selected))
        result.notes.append(f"kappa-VIP (kappa={kappa}) selected: {', '.join(names)}")

    for vi, variant in enumerate(variants):
        for fi, frontend in enumerate(frontends):
            start = time.perf_counter()
            if frontend == "rp2":
                ens = fit_rp_ensemble(train, d, b1, b2, s, rng.child(100 + vi),
                                      variant=TOCC_VARIANTS[variant], k=pam_k,
                                      mc_samples=mc_samples)
                pred = ens.predict(data)
                # A PAM-TOCC fit lowers k when a cluster is undersized.
                stepped = sum(m.variant == "pam_df" and m.n_prototypes < pam_k
                              for m in ens.sub_models)
                if stepped:
                    result.notes.append(
                        f"{variant}/rp2: cluster count reduced below k={pam_k}"
                        f" in {stepped} of {b1} sub-models")
            else:
                train_view, full_view = views[frontend]
                model = fit_method(variant, train_view, s,
                                   rng.child(10 + 10 * vi + fi), k=pam_k,
                                   mc_samples=mc_samples)
                pred = model.predict(full_view)
                if variant == "pam-tocc-df" and model.n_prototypes < pam_k:
                    result.notes.append(
                        f"pam-tocc-df/{frontend}: cluster count reduced to "
                        f"k={model.n_prototypes} (an undersized cluster "
                        f"blocked k={pam_k})")
            seconds = time.perf_counter() - start
            sens, spec = confusion_metrics(pred.accept, is_target)
            roc = roc_curve(pred.typicality(), is_target)
            result.cells[(variant, frontend)] = CellResult(
                variant, frontend, roc.auc, sens, spec, seconds,
                roc=roc if with_roc else None)
    return result
