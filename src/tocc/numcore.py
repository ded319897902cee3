"""Shared numerical primitives: quantiles, medians, spatial median, PCA,
correlation, seeded random streams, and the kernels' tiling and row grouping.

Everything here is a pure function of its inputs; RngStream is an immutable
handle that derives fresh numpy generators on demand, so repeated calls with
the same stream replay the same draws.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

TARGET_LABEL = "target"
NONTARGET_LABEL = "non-target"

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted; carries the last iterate reached."""

    def __init__(self, message, last_iterate):
        super().__init__(message)
        self.last_iterate = last_iterate


# ---------------------------------------------------------------------------
# Containers
# ---------------------------------------------------------------------------

@dataclass
class DataMatrix:
    """An n x p table of real-valued features with optional row labels.

    values must be finite; feature names must be unique. row_labels, when
    present, tag each row (e.g. "target" / "non-target").
    """

    values: np.ndarray
    feature_names: list[str] = field(default_factory=list)
    row_labels: list[str] | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim == 1:
            self.values = self.values.reshape(-1, 1)
        if self.values.ndim != 2 or self.values.shape[0] < 1 or self.values.shape[1] < 1:
            raise ValueError("DataMatrix requires an n x p array with n >= 1, p >= 1")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("DataMatrix entries must all be finite")
        if not self.feature_names:
            self.feature_names = [f"x{j + 1}" for j in range(self.values.shape[1])]
        if len(self.feature_names) != self.values.shape[1]:
            raise ValueError("feature_names length does not match column count")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise ValueError("feature_names must be unique")
        if self.row_labels is not None:
            self.row_labels = list(self.row_labels)
            if len(self.row_labels) != self.values.shape[0]:
                raise ValueError("row_labels length does not match row count")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def select_features(self, which) -> "DataMatrix":
        """Column subset by index or by feature name."""
        idx = [self.feature_names.index(w) if isinstance(w, str) else int(w)
               for w in which]
        return DataMatrix(self.values[:, idx],
                          [self.feature_names[j] for j in idx],
                          self.row_labels)

    def select_rows(self, mask) -> "DataMatrix":
        mask = np.asarray(mask)
        labels = None
        if self.row_labels is not None:
            labels = [l for l, keep in zip(self.row_labels, mask) if keep] \
                if mask.dtype == bool else [self.row_labels[i] for i in mask]
        return DataMatrix(self.values[mask], list(self.feature_names), labels)

    def is_target(self) -> np.ndarray:
        if self.row_labels is None:
            raise ValueError("DataMatrix has no row labels")
        return np.array([l == TARGET_LABEL for l in self.row_labels])


def concat(a: DataMatrix, b: DataMatrix) -> DataMatrix:
    """Stack two matrices with identical feature sets, keeping labels."""
    if a.feature_names != b.feature_names:
        raise ValueError("feature sets differ")
    labels = None
    if a.row_labels is not None and b.row_labels is not None:
        labels = a.row_labels + b.row_labels
    return DataMatrix(np.vstack([a.values, b.values]), list(a.feature_names), labels)


def as_values(X) -> np.ndarray:
    """Accept a DataMatrix or a plain array, return the n x p float array."""
    if isinstance(X, DataMatrix):
        return X.values
    arr = np.asarray(X, dtype=float)
    return arr.reshape(-1, 1) if arr.ndim == 1 else arr


def as_queries(Z, p: int, where: str) -> np.ndarray:
    """Query rows Z as an n x p float array; ValueError unless Z is 2-D (or
    1-D for p = 1), p wide and finite, naming the first non-finite row."""
    vals = as_values(Z)
    if vals.ndim != 2:
        raise ValueError(f"{where}: queries must be 2-D, got {vals.ndim}-D")
    if vals.shape[1] != p:
        raise ValueError(f"{where}: query dimension {vals.shape[1]} != "
                         f"model dimension {p}")
    require_finite_rows(vals, where, "query")
    return vals


def require_finite_rows(vals: np.ndarray, where: str, kind: str) -> None:
    """ValueError naming the first row of the 2-D array vals that holds a
    nan or an infinity."""
    bad = np.flatnonzero(~np.isfinite(vals).all(axis=1))
    if bad.size:
        raise ValueError(f"{where}: {kind} row {bad[0]} is not finite")


def require_feature_names(names, p: int) -> None:
    """ValueError unless a fitted model's feature names are None or a list
    of p names."""
    if names is not None and not (isinstance(names, list) and len(names) == p):
        raise ValueError(f"feature_names must be None or a list of {p} names, "
                         f"not {names!r}")


# Point-query pairs per kernel tile: cache-resident, and flat in memory at
# any number of points.
_CHUNK_ELEMENTS = 2 ** 14


def tiles(X: np.ndarray, q: int):
    """Cache-sized tiles of the n x k points X against q queries: yields
    (XT, rows), a k x b transposed block of at most _CHUNK_ELEMENTS points
    and a slice of queries small enough that rows x b stays within it."""
    block = min(X.shape[0], _CHUNK_ELEMENTS) or 1
    step = max(1, _CHUNK_ELEMENTS // block)
    for first in range(0, X.shape[0], block):
        XT = np.ascontiguousarray(X[first:first + block].T)
        for start in range(0, q, step):
            yield XT, slice(start, start + step)


def row_patterns(mask: np.ndarray):
    """(columns, rows) for each distinct row of the boolean q x p mask that
    is true somewhere: its true columns and the indices of the rows equal
    to it."""
    patterns, which = np.unique(mask, axis=0, return_inverse=True)
    for j, pattern in enumerate(patterns):
        if pattern.any():
            yield np.flatnonzero(pattern), np.flatnonzero(which.reshape(-1) == j)


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN64) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


@dataclass(frozen=True)
class RngStream:
    """Reproducible randomness handle: (seed, stream_id) pins the sequence.

    generator() returns a fresh numpy Generator in the same state every time,
    so consumers that draw once per call are replayable. child(k) derives an
    independent stream deterministically.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        # A null seed would make numpy draw fresh OS entropy on every call.
        for name in ("seed", "stream_id"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral)
                    and not isinstance(value, bool) and value >= 0):
                raise ValueError(f"RngStream {name}={value!r} must be a "
                                 f"non-negative integer")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.default_rng(ss)

    def child(self, k: int) -> "RngStream":
        mixed = _splitmix64((self.stream_id ^ ((k + 1) * _GOLDEN64)) & _MASK64)
        return RngStream(self.seed, mixed)


# ---------------------------------------------------------------------------
# Order statistics and medians
# ---------------------------------------------------------------------------

def empirical_quantile(xs, q: float) -> float:
    """Inverse-ECDF (type-1) quantile: the k-th smallest value, k = ceil(q*n).

    q = 0 returns the minimum (k = 1). The result is always an element of xs,
    so downstream ">= threshold" comparisons are anchored at observed values.
    """
    arr = np.asarray(xs, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("empirical_quantile: empty input")
    if not np.all(np.isfinite(arr)):
        raise ValueError("empirical_quantile: non-finite input")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"empirical_quantile: q={q} outside [0, 1]")
    k = max(1, math.ceil(q * arr.size))
    k = min(k, arr.size)
    return float(np.partition(arr, k - 1)[k - 1])


def spatial_median(X, tol: float = 1e-8, max_iter: int = 1000) -> np.ndarray:
    """Spatial median (mediancentre): minimizer of the summed Euclidean
    distances, found by modified Weiszfeld iteration.

    Starts at the coordinatewise median (so the objective never exceeds its
    value there). Data points the iterate lands on are pulled out of the
    denominator and handled by the Vardi-Zhang correction. Convergence is
    declared when successive iterates move less than `tol`; exceeding
    `max_iter` raises ConvergenceError carrying the last iterate.
    """
    vals = as_values(X)
    if tol <= 0:
        raise ValueError("spatial_median: tol must be positive")
    n = vals.shape[0]
    if n == 1:
        return vals[0].copy()

    y = np.median(vals, axis=0)
    for _ in range(max_iter):
        diff = vals - y
        dist = np.linalg.norm(diff, axis=1)
        at_point = dist < tol
        far = ~at_point
        if not far.any():
            return y
        w = 1.0 / dist[far]
        t_tilde = (vals[far] * w[:, None]).sum(axis=0) / w.sum()
        if at_point.any():
            # Vardi-Zhang step: coincident mass eta pulls the plain Weiszfeld
            # update back toward the current point.
            eta = float(at_point.sum())
            r_vec = (diff[far] * w[:, None]).sum(axis=0)
            r_norm = np.linalg.norm(r_vec)
            if r_norm <= eta:
                return y
            gamma = min(1.0, eta / r_norm)
            y_new = (1.0 - gamma) * t_tilde + gamma * y
        else:
            y_new = t_tilde
        if np.linalg.norm(y_new - y) < tol:
            return y_new
        y = y_new
    raise ConvergenceError(
        f"spatial_median: no convergence after {max_iter} iterations", y)


def distance_sum(X, point) -> float:
    """Objective of the spatial median: sum of Euclidean distances to point."""
    vals = as_values(X)
    return float(np.linalg.norm(vals - np.asarray(point, dtype=float), axis=1).sum())


# ---------------------------------------------------------------------------
# PCA and correlation
# ---------------------------------------------------------------------------

@dataclass
class PcaResult:
    """Eigendecomposition of the sample covariance, descending variance.

    components holds unit-norm eigenvectors as columns; zero_variance flags
    eigenvalues that are numerically zero (rank deficiency).
    """

    eigenvalues: np.ndarray
    components: np.ndarray
    mean: np.ndarray
    zero_variance: np.ndarray

    @property
    def rank(self) -> int:
        return int((~self.zero_variance).sum())


def pca(X) -> PcaResult:
    """PCA of column-centered data via symmetric eigendecomposition.

    Eigenvalues are non-increasing; each eigenvector is sign-fixed so its
    largest-magnitude loading is positive. Rank-deficient covariance still
    returns all components, with the zero eigenvalues flagged.
    """
    vals = as_values(X)
    n, p = vals.shape
    if n < 2:
        raise ValueError("pca: need n >= 2")
    mean = vals.mean(axis=0)
    cov = np.cov(vals - mean, rowvar=False, ddof=1).reshape(p, p)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    tol = 1e-12 * max(1.0, abs(eigvals[0]))
    # Negative and numerically zero eigenvalues both read as 0.
    eigvals = np.where(eigvals < tol, 0.0, eigvals)
    lead = eigvecs[np.argmax(np.abs(eigvecs), axis=0), np.arange(p)]
    eigvecs = eigvecs * np.where(lead < 0, -1.0, 1.0)
    return PcaResult(eigvals, eigvecs, mean, eigvals <= tol)


def correlation_matrix(X) -> np.ndarray:
    """Pearson correlation matrix; symmetric with unit diagonal.

    A zero-variance column is an error naming the offending feature.
    """
    vals = as_values(X)
    names = X.feature_names if isinstance(X, DataMatrix) else \
        [f"x{j + 1}" for j in range(vals.shape[1])]
    sd = vals.std(axis=0, ddof=1)
    bad = np.flatnonzero(sd == 0)
    if bad.size:
        raise ValueError(f"correlation_matrix: zero-variance column '{names[bad[0]]}'")
    centered = (vals - vals.mean(axis=0)) / sd
    corr = centered.T @ centered / (vals.shape[0] - 1)
    corr = np.clip((corr + corr.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return corr
