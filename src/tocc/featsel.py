"""Dimension-reduction and variable-selection front-ends.

One-class problems favor the *tightest* description of the target class, so
the PCA reducer defaults to the low-variance trailing components, and random
projections are screened by the compactness (median absolute deviation) of
the projected target data. Projection loadings, weighted by feature spread,
also yield an importance ranking (VIP); its kappa-corrected variant greedily
skips features too correlated with ones already kept.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .classifier import (PredictionResult, ToccModel, fit_models,
                         predict_models)
from .numcore import (DataMatrix, RngStream, Settings, as_queries, as_values,
                      check_setting, correlation_matrix, is_integer, pca,
                      require_finite_rows)


# ---------------------------------------------------------------------------
# PCA retention
# ---------------------------------------------------------------------------

@dataclass
class PcaReducer:
    """A retained PCA projection: training center plus d basis columns.

    apply() centers queries with the *training* mean before projecting.
    """

    mean: np.ndarray
    basis: np.ndarray
    which: str

    @property
    def d(self) -> int:
        return self.basis.shape[1]

    def apply(self, X) -> DataMatrix:
        vals = as_values(X)
        if vals.shape[1] != self.mean.shape[0]:
            raise ValueError("PcaReducer: dimension mismatch")
        projected = (vals - self.mean) @ self.basis
        names = [f"pc{'_last' if self.which == 'last' else ''}{j + 1}"
                 for j in range(self.d)]
        labels = X.row_labels if isinstance(X, DataMatrix) else None
        return DataMatrix(projected, names, labels)


def pca_reduce(X, d: int, which: str = "last") -> tuple[PcaReducer, DataMatrix]:
    """Project onto the d smallest-variance ("last", default) or largest-
    variance ("first") principal directions of X.

    Returns the reusable transform and X already reduced. Asking for more
    directions than the covariance rank is an error.
    """
    if which not in ("last", "first"):
        raise ValueError("which must be 'last' or 'first'")
    vals = as_values(X)
    p = vals.shape[1]
    if not 1 <= d <= p:
        raise ValueError(f"pca_reduce: d={d} outside [1, {p}]")
    result = pca(vals)
    if d > result.rank:
        raise ValueError(f"pca_reduce: d={d} exceeds covariance rank {result.rank}")
    cols = np.arange(p - d, p) if which == "last" else np.arange(d)
    reducer = PcaReducer(result.mean, result.components[:, cols], which)
    return reducer, reducer.apply(X)


# ---------------------------------------------------------------------------
# Random-projection ensemble
# ---------------------------------------------------------------------------

def _median_last(a: np.ndarray) -> np.ndarray:
    """np.median(a, axis=-1) by exact selection: the middle order statistic,
    or for an even count the two middle ones averaged as np.median averages
    them, (lo + hi) / 2. A median is an order statistic, so any exact
    selection gives its bits; a must be free of nan."""
    half = a.shape[-1] // 2
    if a.shape[-1] % 2:
        return np.partition(a, half, axis=-1)[..., half]
    part = np.partition(a, (half - 1, half), axis=-1)
    return (part[..., half - 1] + part[..., half]) / 2


def require_projection_width(d: int, p: int) -> None:
    """ValueError unless 1 <= d < p: rp_select, and so kappa-VIP and the
    random-projection ensembles, project p features onto d < p."""
    if not 1 <= d < p:
        raise ValueError(f"rp_select: need 1 <= d < p, got d={d}, p={p}")


def rp_select(X_target, d: int, b1: int, b2: int, rng: RngStream) -> list[np.ndarray]:
    """Pick b1 projections, each the most compact of b2 random candidates.

    Candidates are p x d standard-normal matrices with orthonormalized
    columns; compactness is the summed per-coordinate MAD of the projected
    target data (smaller = tighter around the median), and the first of
    equally compact candidates wins. b2 = 1 degenerates to pure random
    projection. Deterministic given the stream. d, b1 and b2 must be
    integers (not bools), and a non-finite target row is a ValueError.
    """
    if not is_integer(d):
        raise ValueError(f"rp_select: d={d!r} must be an integer")
    check_setting("b1", b1)
    check_setting("b2", b2)
    vals = as_values(X_target)
    p = vals.shape[1]
    require_projection_width(d, p)
    require_finite_rows(vals, "rp_select", "target")
    gen = rng.generator()
    chosen = []
    # One block of b2 candidates at a time keeps the (b2, n, d) projected
    # stack small; stacking all b1 blocks would raise peak memory.
    for _ in range(b1):
        q, r = np.linalg.qr(gen.standard_normal((b2, p, d)))
        # Fix the QR sign ambiguity so the draw is reproducible bit for bit.
        signs = np.sign(np.diagonal(r, axis1=1, axis2=2))
        signs[signs == 0] = 1.0
        candidates = q * signs[:, None, :]
        # Each candidate's coordinates as contiguous rows of n projections.
        projected = (vals @ candidates).transpose(0, 2, 1).copy()
        med = _median_last(projected)
        spread = _median_last(np.abs(projected - med[..., None])).sum(axis=1)
        chosen.append(candidates[np.argmin(spread)].copy())
    return chosen


@dataclass
class ProjectionEnsemble:
    """Selected projections with one fitted sub-model each; prediction is a
    strict-majority vote over the sub-models. feature_names are the
    training table's (None for a plain array), which a query table must
    name in the same order."""

    projections: list[np.ndarray]
    sub_models: list[ToccModel]
    feature_names: list[str] | None = None

    def predict(self, Z) -> PredictionResult:
        return predict_ensemble(self, Z)


def fit_rp_ensemble(X_target, d: int, b1: int, b2: int, s: float,
                    rng: RngStream, variant: str = "df",
                    **settings) -> ProjectionEnsemble:
    """MAD-select b1 projections, then fit one TOCC of the requested variant
    on each projected view of the target data, all views in one
    classifier.fit_models call; settings are Settings fields by name, such
    as k for pam_df. The view of projection b takes stream rng.child(b + 1)."""
    settings = Settings(**settings)
    projections = rp_select(X_target, d, b1, b2, rng.child(0))
    vals = as_values(X_target)
    names = (list(X_target.feature_names) if hasattr(X_target, "feature_names")
             else None)
    return ProjectionEnsemble(projections, fit_models(
        variant, [vals @ proj for proj in projections], s,
        [rng.child(b + 1) for b in range(b1)], settings), names)


def predict_ensemble(ensemble: ProjectionEnsemble, Z) -> PredictionResult:
    """Accept a query iff a strict majority of sub-models accept it.

    The returned score is the accepting-vote fraction, a graded typicality
    usable for ROC curves. Z must be finite and as wide as the data the
    projections were drawn for, and a DataMatrix must name the ensemble's
    features in its order. The queries are projected once per view,
    and all views are predicted by one classifier.predict_models call.
    """
    vals = as_queries(Z, ensemble.projections[0].shape[0], "predict_ensemble",
                      ensemble.feature_names)
    views = np.stack([vals @ proj for proj in ensemble.projections])
    votes = sum(result.accept for result in
                predict_models(ensemble.sub_models, views))
    fraction = votes / len(ensemble.sub_models)
    return PredictionResult(fraction > 0.5, fraction, None)


# ---------------------------------------------------------------------------
# VIP ranking and kappa correction
# ---------------------------------------------------------------------------

@dataclass
class VipRanking:
    """Per-feature importance (median CI across projections) with the
    descending ranking."""

    vip: np.ndarray
    ranking: np.ndarray


def compute_vip(projections, feature_sds) -> VipRanking:
    """Importance of each feature across a projection ensemble.

    For one projection, a feature's importance coefficient sums, over the d
    projection vectors, its absolute loading weighted by the feature's
    standard deviation and normalized by that vector's sd-weighted norm. The
    VIP is the median coefficient across projections, which damps the
    occasional bad projection. Ties in the ranking break toward the lower
    feature index.
    """
    sds = np.asarray(feature_sds, dtype=float)
    if np.any(sds <= 0):
        raise ValueError("compute_vip: feature standard deviations must be positive")
    projections = list(projections)
    if not projections:
        raise ValueError("compute_vip: no projections")
    stack = np.stack(projections)
    norms = np.sqrt(((stack * sds[:, None]) ** 2).sum(axis=1))
    if np.any(norms == 0):
        raise ValueError("compute_vip: projection with a zero-norm column")
    ci = (np.abs(stack) * sds[:, None] / norms[:, None, :]).sum(axis=2)
    vip = np.median(ci, axis=0)
    ranking = np.lexsort((np.arange(vip.size), -vip))
    return VipRanking(vip, ranking)


def kappa_vip_select(ranking: VipRanking, corr: np.ndarray, kappa: float,
                     n_keep: int) -> list[int]:
    """Walk the VIP ranking, keeping a feature only when its mean absolute
    correlation against the already-kept ones stays within kappa.

    The top-ranked feature is always kept. Stops after n_keep acceptances;
    if the ranking runs out first, returns what was found with a warning.
    """
    check_setting("kappa", kappa)
    check_setting("n_keep", n_keep)
    corr = np.asarray(corr, dtype=float)
    selected: list[int] = []
    for idx in ranking.ranking:
        if not selected:
            selected.append(int(idx))
        else:
            mean_abs = float(np.mean([abs(corr[idx, j]) for j in selected]))
            if mean_abs <= kappa:
                selected.append(int(idx))
        if len(selected) == n_keep:
            break
    if len(selected) < n_keep:
        warnings.warn(
            f"kappa_vip_select: only {len(selected)} of {n_keep} features pass "
            f"the kappa={kappa} screen", stacklevel=2)
    return selected


def kappa_vip(X_target, d: int, b1: int, b2: int, kappa: float, n_keep: int,
              rng: RngStream) -> tuple[VipRanking, list[int]]:
    """The kappa-VIP pipeline on the target rows: MAD-select b1 projections,
    rank features by VIP with their sample (ddof=1) standard deviations, then
    keep up to n_keep features that pass the kappa correlation screen."""
    projections = rp_select(X_target, d, b1, b2, rng)
    ranking = compute_vip(projections, as_values(X_target).std(axis=0, ddof=1))
    return ranking, kappa_vip_select(ranking, correlation_matrix(X_target),
                                     kappa, n_keep)
