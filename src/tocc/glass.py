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

from .evaluation import (TOCC_METHODS, TOCC_VARIANTS, confusion_metrics,
                         fit_method, roc_curve)
from .featsel import fit_rp_ensemble, kappa_vip, pca_reduce
from .io_utils import IngestError, ingest_csv
from .numcore import NONTARGET_LABEL, TARGET_LABEL, DataMatrix, RngStream

GLASS_FEATURES = ("RI", "Na", "Mg", "Al", "Si", "K", "Ca", "Ba", "Fe")
# subset -> (target type codes, type codes kept; None keeps every row)
SUBSETS = {"float-windows": ((1, 3), (1, 3, 5, 6, 7)),
           "all-windows": ((1, 2, 3), None)}

FRONTENDS = ("pca2", "rp2", "kvip2")


def bundled_glass_path() -> str:
    return str(resources.files("tocc.data").joinpath("glass.csv"))


def load_glass(path: str | None = None, subset: str = "float-windows") -> DataMatrix:
    """Load the glass table with target/non-target labels.

    subset "float-windows" (default) keeps types {1,3} as targets and drops
    the non-float building windows, giving the 138-fragment study set;
    "all-windows" keeps {1,2,3} as targets (214 rows). The numeric Type
    column is read in the same pass as the features and then dropped.
    """
    if subset not in SUBSETS:
        raise ValueError("subset must be " + " or ".join(map(repr, SUBSETS)))
    target_types, kept_types = SUBSETS[subset]
    path = path or bundled_glass_path()
    table = ingest_csv(path)
    if "Type" not in table.feature_names:
        raise IngestError(f"{path}: missing column 'Type'")
    types = table.select_features(["Type"]).values[:, 0]
    rows = np.isin(types, kept_types) if kept_types else np.full(types.size, True)
    features = [name for name in table.feature_names if name != "Type"]
    labels = np.where(np.isin(types[rows], target_types), TARGET_LABEL,
                      NONTARGET_LABEL)
    return DataMatrix(table.select_features(features).values[rows], features,
                      labels.tolist())


# ---------------------------------------------------------------------------
# Reproduction grid
# ---------------------------------------------------------------------------

@dataclass
class CellResult:
    auc: float
    sensitivity: float
    specificity: float
    seconds: float


@dataclass
class GlassReproResult:
    cells: dict = field(default_factory=dict)
    n_target: int = 0
    n_nontarget: int = 0
    vip_selected: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def cell(self, variant: str, frontend: str) -> CellResult:
        return self.cells[(variant, frontend)]


def run_glass_repro(kappa: float = 0.5, pam_k: int = 4, s: float = 0.9,
                    d: int = 2, b1: int = 101, b2: int = 50,
                    mc_samples: int = 100_000, seed: int = 7,
                    data_path: str | None = None, subset: str = "float-windows",
                    frontends=FRONTENDS, variants=TOCC_METHODS) -> GlassReproResult:
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

    result = GlassReproResult(n_target=int(is_target.sum()),
                              n_nontarget=int((~is_target).sum()))

    views = {}
    if "pca2" in frontends:
        reducer, train_red = pca_reduce(train, d, which="last")
        views["pca2"] = (train_red, reducer.apply(data))
    if "kvip2" in frontends:
        _, selected = kappa_vip(train, d, b1, b2, kappa, d, rng.child(1))
        names = [train.feature_names[j] for j in selected]
        result.vip_selected = names
        views["kvip2"] = (train.select_features(selected),
                          data.select_features(selected))
        result.notes.append(f"kappa-VIP (kappa={kappa}) selected: {', '.join(names)}")

    # Streams follow each cell's place in the full grid, so a cell draws the
    # same whether it runs alone or beside others.
    for variant in variants:
        vi = TOCC_METHODS.index(variant)
        for frontend in frontends:
            fi = FRONTENDS.index(frontend)
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
            auc = roc_curve(pred.typicality(), is_target).auc
            result.cells[(variant, frontend)] = CellResult(auc, sens, spec,
                                                           seconds)
    return result
