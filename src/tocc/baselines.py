"""Reference one-class classifiers sharing the TOCC threshold calibration.

All four score the training set, then set the acceptance threshold at the
same type-1 quantile machinery the TOCCs use, so sensitivity levels are
directly comparable across methods: level s for lower-is-typical scores
(distances), 1-s for higher-is-typical ones (densities).

Two further reference methods round out this comparison family elsewhere but
are not implemented here because they drag in heavyweight third-party stacks:
self-organizing maps (conventional settings: a 5x5 grid with learning rate
declining 0.5 to 0.3) and support-vector data description (cost 0.1 for the
positive examples). Anyone extending KINDS should calibrate them through the
same empirical_quantile path so sensitivity stays comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifier import PredictionResult
from .density import MixtureDensity, fit_gmm, kmeans_lloyd
from .numcore import RngStream, as_queries, as_values, empirical_quantile

KINDS = ("gauss", "mix_gauss", "kde", "kmeans")


@dataclass
class BaselineModel:
    """A calibrated reference classifier.

    kind picks the scoring rule; score_direction says which side of the
    threshold is typical. Only the fields the kind needs are populated.
    """

    kind: str
    threshold: float
    score_direction: str
    sensitivity: float
    mean: np.ndarray | None = None
    cov_inv: np.ndarray | None = None
    density: MixtureDensity | None = None
    bandwidths: np.ndarray | None = None
    train: np.ndarray | None = None
    centroids: np.ndarray | None = None
    feature_names: list[str] | None = None

    def scores(self, Z) -> np.ndarray:
        vals = as_values(Z)
        if self.kind == "gauss":
            diff = vals - self.mean
            return np.sqrt(np.einsum("ij,jk,ik->i", diff, self.cov_inv, diff))
        if self.kind == "mix_gauss":
            return self.density.pdf(vals)
        if self.kind == "kde":
            return _product_kde(self.train, self.bandwidths, vals)
        if self.kind == "kmeans":
            d = np.linalg.norm(vals[:, None, :] - self.centroids[None, :, :], axis=2)
            return d.min(axis=1)
        raise ValueError(f"unknown baseline kind '{self.kind}'")

    def predict(self, Z) -> PredictionResult:
        return predict_baseline(self, Z)


def _product_kde(train: np.ndarray, h: np.ndarray, queries: np.ndarray) -> np.ndarray:
    out = np.empty(queries.shape[0])
    norm = 1.0 / (np.sqrt(2.0 * np.pi) * h).prod()
    for i, q in enumerate(queries):
        z = (q - train) / h
        out[i] = norm * np.exp(-0.5 * (z ** 2).sum(axis=1)).mean()
    return out


def _silverman_bandwidths(vals: np.ndarray) -> np.ndarray:
    n, p = vals.shape
    factor = (4.0 / ((p + 2.0) * n)) ** (1.0 / (p + 4.0))
    sd = vals.std(axis=0, ddof=1)
    if np.any(sd == 0):
        raise ValueError("kde: zero-variance feature, bandwidth undefined")
    return factor * sd


def fit_baseline(kind: str, X_target, s: float, rng: RngStream | None = None,
                 k: int = 5, components_range=(1, 9),
                 regularize: float = 0.0) -> BaselineModel:
    """Fit one of the reference classifiers and calibrate its threshold so the
    training acceptance is at least s.

    gauss scores Mahalanobis distance to the mean (singular covariance is an
    error; pass regularize > 0 to add a scaled ridge). mix_gauss scores the
    BIC-selected mixture density. kde scores a Gaussian product kernel with
    Silverman's-rule diagonal bandwidth. kmeans scores distance to the
    nearest of k=5 centroids (Lloyd, seeded by rng).
    """
    if kind not in KINDS:
        raise ValueError(f"unknown baseline kind '{kind}' (choose from {KINDS})")
    if not 0.0 < s < 1.0:
        raise ValueError("sensitivity s must lie strictly inside (0, 1)")
    vals = as_values(X_target)
    names = list(X_target.feature_names) if hasattr(X_target, "feature_names") else None

    if kind == "gauss":
        mean = vals.mean(axis=0)
        cov = np.cov(vals, rowvar=False, ddof=1).reshape(vals.shape[1], vals.shape[1])
        if regularize > 0:
            cov = cov + regularize * np.trace(cov) / cov.shape[0] * np.eye(cov.shape[0])
        try:
            cov_inv = np.linalg.inv(cov)
        except np.linalg.LinAlgError as exc:
            raise ValueError(
                "gauss: singular covariance; rerun with regularize > 0") from exc
        model = BaselineModel(kind, 0.0, "lower_is_typical", s,
                              mean=mean, cov_inv=cov_inv, feature_names=names)
    elif kind == "mix_gauss":
        if rng is None:
            raise ValueError("mix_gauss requires an RngStream")
        density = fit_gmm(vals, components_range, rng)
        model = BaselineModel(kind, 0.0, "higher_is_typical", s,
                              density=density, feature_names=names)
    elif kind == "kde":
        model = BaselineModel(kind, 0.0, "higher_is_typical", s,
                              bandwidths=_silverman_bandwidths(vals),
                              train=vals.copy(), feature_names=names)
    else:  # kmeans
        if rng is None:
            raise ValueError("kmeans requires an RngStream")
        centroids, _ = kmeans_lloyd(vals, min(k, vals.shape[0]), rng.generator())
        model = BaselineModel(kind, 0.0, "lower_is_typical", s,
                              centroids=centroids, feature_names=names)

    train_scores = model.scores(vals)
    level = s if model.score_direction == "lower_is_typical" else 1.0 - s
    model.threshold = empirical_quantile(train_scores, level)
    return model


def predict_baseline(model: BaselineModel, Z) -> PredictionResult:
    """Accept rows scoring on the typical side of the threshold (inclusive).
    Z must be finite and as wide as the model."""
    fitted = [a for a in (model.mean, model.train, model.centroids) if a is not None]
    p = fitted[0].shape[-1] if fitted else model.density.p
    vals = as_queries(Z, p, "predict_baseline")
    scores = model.scores(vals)
    if model.score_direction == "lower_is_typical":
        accept = scores <= model.threshold
        return PredictionResult(accept, scores, None, higher_is_typical=False)
    accept = scores >= model.threshold
    return PredictionResult(accept, scores, None, higher_is_typical=True)
