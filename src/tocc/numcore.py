"""Shared numerical primitives: quantiles, medians, spatial median, PCA,
correlation, seeded random streams, and the one box counter and tie counter
behind both score forms.

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


def require_training_rows(vals: np.ndarray, s, where: str) -> None:
    """The rule every fit applies to its training rows and sensitivity:
    ValueError unless s lies strictly inside (0, 1) and vals holds at least
    5 rows, all finite and not all equal."""
    if not 0.0 < float(s) < 1.0:
        raise ValueError(f"sensitivity s={float(s)} must lie strictly inside (0, 1)")
    if vals.shape[0] < 5:
        raise ValueError("need at least 5 training rows")
    require_finite_rows(vals, where, "training")
    if np.all(vals == vals[0]):
        raise ValueError("degenerate constant training data")


def require_feature_names(names, p: int) -> None:
    """ValueError unless a fitted model's feature names are None or a list
    of p names."""
    if names is not None and not (isinstance(names, list) and len(names) == p):
        raise ValueError(f"feature_names must be None or a list of {p} names, "
                         f"not {names!r}")


def require_symmetric(a: np.ndarray, what: str) -> None:
    """ValueError unless each trailing square matrix of a equals its
    transpose to within 1e-10 of its largest entry. Fitted covariances and
    their inverses can differ from their transposes in the last bits, so
    exact symmetry is not asked for."""
    gap = np.abs(a - np.swapaxes(a, -1, -2)).max(axis=(-2, -1))
    if np.any(gap > 1e-10 * np.abs(a).max(axis=(-2, -1))):
        raise ValueError(f"{what} must be symmetric")


# Rows per block of the points a box count reads, and box-row pairs per
# tile of its comparison loop: cache-resident, and flat in memory at any
# number of points.
_CHUNK_ELEMENTS = 2 ** 14

# A segment is counted by the p = 2 sweep when every box of the segment is
# one-sided and there are at least _SWEEP_MIN_BOXES boxes and
# _SWEEP_MIN_PAIRS row-box pairs: the loop's cost grows with the pairs,
# the sweep's with the rows. Best of 31 runs on a 2-core Xeon (Python
# 3.11, numpy 2.4), one box_counts call on one segment, loop / sweep in ms:
#     rows    64 boxes    128 boxes    160 boxes    192 boxes    256 boxes
#      150   0.08/0.43    0.14/0.49    0.16/0.54    0.18/0.54    0.23/0.58
#      500   0.19/0.55    0.27/0.38    0.33/0.40    0.39/0.43    0.51/0.50
#    2 000   0.64/1.01    1.26/1.20    1.26/0.86    1.52/0.90    2.05/0.99
#    8 000   0.72/2.34    1.38/2.44    1.73/2.48    2.14/2.65    2.75/2.61
#   20 000   2.56/6.74    4.84/6.58    6.05/6.64    7.57/7.13    9.95/7.44
#  100 000   9.37/31.12  18.18/31.39  22.75/32.86  27.26/32.67  37.05/34.77
# The crossover is near 250 boxes at 8 000 and 100 000 rows, near 180 at
# 20 000 (a second block of 3 616 rows), near 120 at 2 000 and 250 at 500;
# at 150 rows it lies past 512, which the pair bound covers. At 192 every
# benchmark call takes its faster side: 20 000 draws against about 234
# boxes are swept, against about 159 looped, and 100 000 draws against 96
# to 147 boxes looped.
_SWEEP_MIN_BOXES = 192
_SWEEP_MIN_PAIRS = 2 ** 17


def box_counts(X: np.ndarray, ends, lower: np.ndarray, upper: np.ndarray,
               seg: np.ndarray) -> np.ndarray:
    """Count of the rows of segment seg[i] strictly inside each open box
    lower[i] < x < upper[i] of the b x p bounds, +-inf allowed, as b counts.
    The n x p points X hold the segments' rows in segment order, and ends
    the end of each: segment s is X[ends[s - 1]:ends[s]] (from row 0 for s =
    0), as in a CSR matrix. seg tags each box with its segment, in any
    order. A row with a coordinate that is not finite lies in no box.

    One loop over the segments counts each by one algorithm. When p = 2,
    every box of the segment is one-sided (each coordinate a half-line
    (a, inf) or (-inf, a), or the whole line) and the segment is large
    enough, its finite rows are swept by _sweep_counts in blocks of
    _CHUNK_ELEMENTS rows; any other segment is compared with its boxes in
    tiles of at most _CHUNK_ELEMENTS box-row pairs, a run of its boxes
    against a block of its rows. Both count exactly, so the choice never
    moves a count.
    """
    p = X.shape[1]
    order = np.argsort(seg, kind="stable")
    # np.take: a 2-D fancy index gathers rows several times slower.
    lower, upper = (np.take(a, order, axis=0) for a in (lower, upper))
    # Row and box bounds of each segment, as Python ints for the loop.
    rows = [0, *np.asarray(ends).tolist()]
    boxes = np.searchsorted(seg[order], np.arange(len(rows))).tolist()
    # Coordinates first, each contiguous: a tile compares one run of boxes
    # with one block of rows, coordinate by coordinate.
    LT, UT = np.ascontiguousarray(lower.T), np.ascontiguousarray(upper.T)
    counts = np.zeros(len(seg), dtype=np.int64)
    for start, stop, low, high in zip(rows, rows[1:], boxes, boxes[1:]):
        n, b, box = stop - start, high - low, slice(low, high)
        # n * b bounds the pairs of the finite rows from above.
        if (p == 2 and b >= _SWEEP_MIN_BOXES and n * b >= _SWEEP_MIN_PAIRS
                and np.all((lower[box] == -np.inf) | (upper[box] == np.inf))):
            real = np.isfinite(X[start:stop, 0]) & np.isfinite(X[start:stop, 1])
            if np.count_nonzero(real) * b >= _SWEEP_MIN_PAIRS:
                points = np.compress(real, X[start:stop], axis=0)
                up = upper[box] == np.inf
                anchors = np.where(up, lower[box], upper[box])
                for first in range(0, len(points), _CHUNK_ELEMENTS):
                    counts[box] += _sweep_counts(
                        points[first:first + _CHUNK_ELEMENTS], anchors, up)
                continue
        block = max(1, min(n, _CHUNK_ELEMENTS))
        run = max(1, min(b, _CHUNK_ELEMENTS // block))
        for first in range(start, stop, block):
            points = np.ascontiguousarray(X[first:min(first + block, stop)].T)[:, None]
            for left in range(low, high, run):
                tile = slice(left, min(left + run, high))
                inside = np.logical_and.reduce((points > LT[:, tile, None])
                                               & (points < UT[:, tile, None]))
                # int32 sums at most _CHUNK_ELEMENTS ones exactly, and fast.
                counts[tile] += inside.sum(axis=1, dtype=np.int32)
    out = np.empty_like(counts)
    out[order] = counts
    return out


def _sweep_counts(X, A, up):
    """Count of the rows of the n x 2 points X with x_u > a_u where up and
    x_u < a_u elsewhere, on both coordinates, for each row a of A: the
    one-sided boxes of box_counts, by sorting. Exact, in O((n + q) log^2 n).

    x > a is x >= nextafter(a, inf), so every count is of x_u >= b_u, and a
    coordinate pointing down is the complement of one: the four quadrants
    follow by inclusion-exclusion from the marginal counts and the
    dominance count D = #{x_0 >= b_0, x_1 >= b_1}. D is a merge-sort-tree
    query: with the rows in descending x_0, D counts the rows of a prefix
    whose x_1 rank is at least b_1's; each set bit of the prefix length is
    one sorted block of that many rows, searched once.
    """
    n = X.shape[0]
    B = np.where(up, np.nextafter(A, np.inf), A)
    cols = np.sort(X, axis=0)
    above = [n - np.searchsorted(cols[:, u], B[:, u]) for u in (0, 1)]
    rank = np.searchsorted(cols[:, 1], X[np.argsort(-X[:, 0]), 1])
    least = np.searchsorted(cols[:, 1], B[:, 1])
    dom = np.zeros(len(A), dtype=np.int64)
    for lvl in range(n.bit_length()):
        keys = np.sort((np.arange(n) >> lvl) * n + rank)
        hit = np.flatnonzero((above[0] >> lvl) & 1)
        block = (above[0][hit] >> lvl) - 1
        dom[hit] += ((block + 1) << lvl) - np.searchsorted(keys, block * n + least[hit])
    return np.select([up[:, 0] & up[:, 1], up[:, 0], up[:, 1]],
                     [dom, above[0] - dom, above[1] - dom],
                     n - above[0] - above[1] + dom)


def tie_counts(X: np.ndarray, ends, A: np.ndarray, kept: np.ndarray,
               seg: np.ndarray) -> np.ndarray:
    """Count of the rows of segment seg[i] equal to each anchor A[i] of the
    b x p anchors on the coordinates its row kept[i] of the boolean mask
    keeps, 0 for an anchor that keeps none, as b counts; X and ends hold
    the segments' rows as box_counts takes them. Per distinct mask row, by
    sorting one integer key per row of X, its segment and the rank of its
    columns among the distinct rows, and searching it for the anchors'."""
    segment = np.repeat(np.arange(len(ends)), np.diff(ends, prepend=0))
    counts = np.zeros(len(A), dtype=np.int64)
    first, which = distinct_rows(kept)
    for j, cols in enumerate(kept[first]):
        if cols.any():
            boxes = np.flatnonzero(which == j)
            # Each row's rank among the distinct row keys, led by its
            # segment; an anchor equal to no row gets -1.
            distinct, rank = np.unique(_row_keys(X[:, cols]), return_inverse=True)
            keys = np.sort(segment * distinct.size + rank.reshape(-1))
            anchors = _row_keys(A[np.ix_(boxes, cols)])
            place = np.searchsorted(distinct, anchors)
            anchors = np.where(np.searchsorted(distinct, anchors, "right") > place,
                               seg[boxes] * distinct.size + place, -1)
            counts[boxes] = (np.searchsorted(keys, anchors, "right")
                             - np.searchsorted(keys, anchors))
    return counts


def distinct_rows(M):
    """(first, which) for the float or integer matrix M: the index of the
    first of each distinct row of M, in the order of their _row_keys, and
    the position of each row's distinct row in that order."""
    _, first, which = np.unique(_row_keys(M + 0.0), return_index=True,
                                return_inverse=True)
    return first, which


def _row_keys(M):
    """One sortable key per row of the float array M whose equality is the
    rows' equality: the float itself for one column, a complex number
    (ordered by its real part first) for two, and otherwise the row's bytes,
    after adding 0.0 so that -0.0 and 0.0 have the same bytes."""
    if M.shape[1] == 1:
        return M[:, 0]
    if M.shape[1] == 2:
        return np.ascontiguousarray(M).view(complex)[:, 0]
    M = np.ascontiguousarray(M + 0.0)
    return M.view(np.dtype((np.void, M.itemsize * M.shape[1])))[:, 0]


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


_WEISZFELD_TOL = 1e-8
_WEISZFELD_MAX_ITER = 1000


def spatial_median(X) -> np.ndarray:
    """Spatial median (mediancentre): minimizer of the summed Euclidean
    distances, found by modified Weiszfeld iteration.

    Starts at the coordinatewise median (so the objective never exceeds its
    value there). Data points the iterate lands on are pulled out of the
    denominator and handled by the Vardi-Zhang correction. Convergence is
    declared when successive iterates move less than _WEISZFELD_TOL;
    exceeding _WEISZFELD_MAX_ITER iterations raises ConvergenceError
    carrying the last iterate.
    """
    vals = as_values(X)
    n = vals.shape[0]
    if n == 1:
        return vals[0].copy()

    y = np.median(vals, axis=0)
    for _ in range(_WEISZFELD_MAX_ITER):
        diff = vals - y
        dist = np.linalg.norm(diff, axis=1)
        at_point = dist < _WEISZFELD_TOL
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
        if np.linalg.norm(y_new - y) < _WEISZFELD_TOL:
            return y_new
        y = y_new
    raise ConvergenceError(
        f"spatial_median: no convergence after {_WEISZFELD_MAX_ITER} "
        "iterations", y)


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
