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

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .classifier import PredictionResult
from .density import MixtureDensity, fit_gmm, kmeans_lloyd
from .numcore import (RngStream, as_queries, as_values, empirical_quantile,
                      require_feature_names, require_symmetric,
                      require_training_rows)


class _Kind(NamedTuple):
    # Fitted field -> its array shape, "p" marking the model width (None for
    # the mixture, whose width is its own p); then the score's orientation.
    fields: dict
    higher_is_typical: bool

    @property
    def score_direction(self) -> str:
        return "higher_is_typical" if self.higher_is_typical else "lower_is_typical"


KINDS = {"gauss": _Kind({"mean": ("p",), "cov_inv": ("p", "p")}, False),
         "mix_gauss": _Kind({"density": None}, True),
         "kde": _Kind({"bandwidths": ("p",), "train": ("n", "p")}, True),
         "kmeans": _Kind({"centroids": ("k", "p")}, False)}
_FITTED = tuple(dict.fromkeys(name for spec in KINDS.values()
                             for name in spec.fields))


def _check_kind(kind: str) -> _Kind:
    # A model file can hold any JSON value here, and a list is unhashable.
    if not (isinstance(kind, str) and kind in KINDS):
        raise ValueError(f"unknown baseline kind '{kind}' (choose from {tuple(KINDS)})")
    return KINDS[kind]


@dataclass
class BaselineModel:
    """A calibrated reference classifier.

    kind picks the scoring rule; score_direction says which side of the
    threshold is typical. Only the fields the kind needs are populated, and
    construction checks them against the kind's entry in KINDS: the others
    must be None, kde bandwidths positive, and the gauss cov_inv symmetric
    positive definite.
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
    p: int = field(init=False, repr=False)

    def __post_init__(self):
        spec = _check_kind(self.kind)
        if self.score_direction != spec.score_direction:
            raise ValueError(f"{self.kind} scores are {spec.score_direction}, "
                             f"not '{self.score_direction}'")
        # A missing (None) threshold or sensitivity reads as nan here.
        if not np.isfinite(np.asarray(self.threshold, dtype=float)):
            raise ValueError(f"threshold={self.threshold!r} must be a finite number")
        if not 0.0 < np.asarray(self.sensitivity, dtype=float) < 1.0:
            raise ValueError("sensitivity s must lie strictly inside (0, 1)")
        for name in _FITTED:
            if name not in spec.fields and getattr(self, name) is not None:
                raise ValueError(f"a {self.kind} model has no {name}")
        widths = set()
        for name, shape in spec.fields.items():
            value = getattr(self, name)
            if value is None:
                raise ValueError(f"{self.kind} model lacks its {name}")
            if shape is None:
                widths.add(value.p)
                continue
            value = np.asarray(value, dtype=float)
            if value.ndim != len(shape) or not np.all(np.isfinite(value)):
                raise ValueError(f"{self.kind} {name} must be a finite "
                                 f"{len(shape)}-D array")
            setattr(self, name, value)
            widths.update(n for n, dim in zip(value.shape, shape) if dim == "p")
        if len(widths) != 1:
            raise ValueError(f"{self.kind} fields disagree on the width "
                             f"({sorted(widths)})")
        self.p = widths.pop()
        require_feature_names(self.feature_names, self.p)
        if self.kind == "kde":
            with np.errstate(over="ignore"):
                norm = (np.sqrt(2.0 * np.pi) * self.bandwidths).prod()
            if not (np.all(self.bandwidths > 0) and np.isfinite(norm)):
                raise ValueError("kde bandwidths must be positive, and their "
                                 "normaliser (sqrt(2 pi) h).prod() finite")
        if self.kind == "gauss":
            require_symmetric(self.cov_inv, "gauss cov_inv")
            try:
                np.linalg.cholesky(self.cov_inv)
            except np.linalg.LinAlgError:
                raise ValueError("gauss cov_inv must be positive definite") from None

    def scores(self, Z) -> np.ndarray:
        vals = as_values(Z)
        if self.kind == "gauss":
            diff = vals - self.mean
            return np.sqrt(np.einsum("ij,jk,ik->i", diff, self.cov_inv, diff))
        if self.kind == "mix_gauss":
            return self.density.pdf(vals)
        if self.kind == "kde":
            return _product_kde(self.train, self.bandwidths, vals)
        d = np.linalg.norm(vals[:, None, :] - self.centroids[None, :, :], axis=2)
        return d.min(axis=1)

    def predict(self, Z) -> PredictionResult:
        return predict_baseline(self, Z)


# Queries per block of the product KDE: a block holds _KDE_BLOCK x n x p
# standardized differences.
_KDE_BLOCK = 64


def _product_kde(train: np.ndarray, h: np.ndarray, queries: np.ndarray) -> np.ndarray:
    out = np.empty(queries.shape[0])
    norm = 1.0 / (np.sqrt(2.0 * np.pi) * h).prod()
    for start in range(0, queries.shape[0], _KDE_BLOCK):
        rows = slice(start, start + _KDE_BLOCK)
        z = (queries[rows, None, :] - train) / h
        out[rows] = norm * np.exp(-0.5 * (z ** 2).sum(axis=2)).mean(axis=1)
    return out


def _silverman_bandwidths(vals: np.ndarray) -> np.ndarray:
    n, p = vals.shape
    factor = (4.0 / ((p + 2.0) * n)) ** (1.0 / (p + 4.0))
    sd = vals.std(axis=0, ddof=1)
    if np.any(sd == 0):
        raise ValueError("kde: zero-variance feature, bandwidth undefined")
    return factor * sd


def fit_baseline(kind: str, X_target, s: float, rng: RngStream | None = None,
                 k: int = 5, components_range=(1, 9)) -> BaselineModel:
    """Fit one of the reference classifiers and calibrate its threshold so the
    training acceptance is at least s.

    gauss scores Mahalanobis distance to the mean (singular covariance is an
    error). mix_gauss scores the BIC-selected mixture density. kde scores a
    Gaussian product kernel with Silverman's-rule diagonal bandwidth. kmeans
    scores distance to the nearest of k=5 centroids (Lloyd, seeded by rng).
    The training rows and s must pass numcore.require_training_rows.
    """
    spec = _check_kind(kind)
    if rng is None and kind in ("mix_gauss", "kmeans"):
        raise ValueError(f"{kind} requires an RngStream")
    vals = as_values(X_target)
    require_training_rows(vals, s, "fit_baseline")
    names = list(X_target.feature_names) if hasattr(X_target, "feature_names") else None

    if kind == "gauss":
        mean = vals.mean(axis=0)
        cov = np.cov(vals, rowvar=False, ddof=1).reshape(vals.shape[1], vals.shape[1])
        try:
            cov_inv = np.linalg.inv(cov)
        except np.linalg.LinAlgError as exc:
            raise ValueError("gauss: singular covariance (a feature is constant "
                             "or a linear combination of others)") from exc
        fitted = dict(mean=mean, cov_inv=cov_inv)
    elif kind == "mix_gauss":
        fitted = dict(density=fit_gmm(vals, components_range, rng))
    elif kind == "kde":
        fitted = dict(bandwidths=_silverman_bandwidths(vals), train=vals.copy())
    else:  # kmeans
        centroids, _ = kmeans_lloyd(vals, min(k, vals.shape[0]), rng.generator())
        fitted = dict(centroids=centroids)

    model = BaselineModel(kind, 0.0, spec.score_direction, s,
                          feature_names=names, **fitted)
    level = 1.0 - s if spec.higher_is_typical else s
    model.threshold = empirical_quantile(model.scores(vals), level)
    return model


def predict_baseline(model: BaselineModel, Z) -> PredictionResult:
    """Accept rows scoring on the typical side of the threshold (inclusive).
    Z must be finite and as wide as the model."""
    vals = as_queries(Z, model.p, "predict_baseline")
    scores = model.scores(vals)
    higher = KINDS[model.kind].higher_is_typical
    accept = scores >= model.threshold if higher else scores <= model.threshold
    return PredictionResult(accept, scores, None, higher_is_typical=higher)
