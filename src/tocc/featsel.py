"""Dimension-reduction and variable-selection front-ends.

One-class problems favor the *tightest* description of the target class, so
the PCA reducer defaults to the low-variance trailing components, and random
projections are screened by the compactness (median absolute deviation) of
the projected target data. Projection loadings, weighted by feature spread,
also yield an importance ranking (VIP); its kappa-corrected variant greedily
skips features too correlated with ones already kept.
"""

from __future__ import annotations

import inspect
import warnings
from dataclasses import dataclass

import numpy as np

from .classifier import (PredictionResult, ToccModel, fit_counting,
                         nearest_prototypes, prototype_scores)
from .evaluation import TOCC_VARIANTS, fit_method
from .numcore import (DataMatrix, RngStream, as_queries, as_values,
                      correlation_matrix, pca)


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

def rp_select(X_target, d: int, b1: int, b2: int, rng: RngStream) -> list[np.ndarray]:
    """Pick b1 projections, each the most compact of b2 random candidates.

    Candidates are p x d standard-normal matrices with orthonormalized
    columns; compactness is the summed per-coordinate MAD of the projected
    target data (smaller = tighter around the median), and the first of
    equally compact candidates wins. b2 = 1 degenerates to pure random
    projection. Deterministic given the stream.
    """
    if b1 < 1:
        raise ValueError("b1 must be at least 1")
    if b1 % 2 == 0:
        raise ValueError("b1 must be odd so majority votes cannot tie")
    if b2 < 1:
        raise ValueError("b2 must be at least 1")
    vals = as_values(X_target)
    p = vals.shape[1]
    if not 1 <= d < p:
        raise ValueError(f"rp_select: need 1 <= d < p, got d={d}, p={p}")
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
        projected = vals @ candidates
        med = np.median(projected, axis=1)
        spread = np.median(np.abs(projected - med[:, None, :]), axis=1).sum(axis=1)
        chosen.append(candidates[np.argmin(spread)].copy())
    return chosen


@dataclass
class ProjectionEnsemble:
    """Selected projections with one fitted sub-model each; prediction is a
    strict-majority vote over the sub-models."""

    projections: list[np.ndarray]
    sub_models: list[ToccModel]

    def predict(self, Z) -> PredictionResult:
        return predict_ensemble(self, Z)


def fit_rp_ensemble(X_target, d: int, b1: int, b2: int, s: float,
                    rng: RngStream, variant: str = "df",
                    **fit_kwargs) -> ProjectionEnsemble:
    """MAD-select b1 projections, then fit one TOCC of the requested variant
    on each projected view of the target data; fit_kwargs are
    evaluation.fit_method's settings, such as k for pam_df. Each db view
    is fitted by fit_method with stream rng.child(b + 1); the df or pam_df
    views are fitted one by one and calibrated together in one counting
    call."""
    names = {v: name for name, v in TOCC_VARIANTS.items()}
    if variant not in names:
        raise ValueError(f"unknown variant '{variant}'")
    settings = inspect.signature(fit_method).bind(names[variant], X_target, s,
                                                  rng, **fit_kwargs)
    settings.apply_defaults()
    projections = rp_select(X_target, d, b1, b2, rng.child(0))
    vals = as_values(X_target)
    views = [vals @ proj for proj in projections]
    if variant == "db":
        subs = [fit_method(names[variant], view, s, rng.child(b + 1),
                           **fit_kwargs)
                for b, view in enumerate(views)]
    else:
        subs = fit_counting(views, s, settings.arguments["k"]
                            if variant == "pam_df" else None)
    return ProjectionEnsemble(projections, subs)


def predict_ensemble(ensemble: ProjectionEnsemble, Z) -> PredictionResult:
    """Accept a query iff a strict majority of sub-models accept it.

    The returned score is the accepting-vote fraction, a graded typicality
    usable for ROC curves. Z must be finite and as wide as the data the
    projections were drawn for. Every view's queries go to their nearest
    prototypes in one array operation, and all views are scored by one
    prototype_scores call.
    """
    vals = as_queries(Z, ensemble.projections[0].shape[0], "predict_ensemble")
    models = ensemble.sub_models
    views = np.stack([vals @ proj for proj in ensemble.projections])
    # Rows of +inf fill out the views with fewer prototypes: no query is
    # nearer to one.
    k = max(m.n_prototypes for m in models)
    prototypes = np.full((len(models), k, views.shape[2]), np.inf)
    for proto, model in zip(prototypes, models):
        proto[:model.n_prototypes] = model.prototypes
    clusters = nearest_prototypes(views, prototypes)
    scores = prototype_scores(models, views, clusters)
    votes = sum(score >= model.thresholds[labels]
                for model, score, labels in zip(models, scores, clusters))
    fraction = votes / len(models)
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
    if not 0.0 < kappa <= 1.0:
        raise ValueError("kappa must lie in (0, 1]")
    if n_keep < 1:
        raise ValueError("n_keep must be at least 1")
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
