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
from dataclasses import dataclass, field, fields

import numpy as np

TARGET_LABEL = "target"
NONTARGET_LABEL = "non-target"

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15


def is_integer(v, least=-math.inf) -> bool:
    """Whether v is an integral number, not a bool, and at least least."""
    return (isinstance(v, numbers.Integral) and not isinstance(v, bool)
            and v >= least)


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted; carries the last iterate reached."""

    def __init__(self, message, last_iterate):
        super().__init__(message)
        self.last_iterate = last_iterate


# ---------------------------------------------------------------------------
# Containers
# ---------------------------------------------------------------------------

def _not_integer(least=-math.inf):
    """A rule's test: v is not an integer of at least least."""
    return lambda v: not is_integer(v, least)


# Each setting's rules in the order they are checked: a test the value
# fails, and the ValueError message, formatted with the value, that it
# raises. A message names the public callee whose rule it is (kmeans_lloyd's
# own check depends on the row count, so kmeans_k's is the record's alone).
_SETTING_RULES = {
    "k": [(_not_integer(1), "pam: k must be an integer >= 1, not {!r}")],
    "kmeans_k": [(_not_integer(1), "kmeans_k={!r} must be an integer >= 1")],
    "mc_samples": [(_not_integer(10_000), "monte_carlo integrator requires "
                                          "an integer mc_samples >= 10000, not {!r}")],
    "n_restarts": [(_not_integer(1), "fit_gmm: n_restarts={!r} must be an "
                                     "integer >= 1")],
    "s": [(lambda s: not 0.0 < s < 1.0,
           "sensitivity s={} must lie strictly inside (0, 1)")],
    "kappa": [(lambda v: not 0.0 < v <= 1.0, "kappa must lie in (0, 1]")],
    "n_keep": [(lambda v: v < 1, "n_keep must be at least 1")],
    "reps": [(lambda v: v < 1, "replications must be at least 1")],
    "b1": [(_not_integer(), "rp_select: b1={!r} must be an integer"),
           (lambda v: v < 1, "b1 must be at least 1"),
           (lambda v: v % 2 == 0, "b1 must be odd so majority votes cannot tie")],
    "b2": [(_not_integer(), "rp_select: b2={!r} must be an integer"),
           (lambda v: v < 1, "b2 must be at least 1")],
}


def check_setting(name: str, value) -> None:
    """Raise the ValueError of the named setting's first rule that value
    breaks: the Settings fields, the sensitivity s (a float), kappa-VIP's
    kappa and n_keep, rp_select's b1 and b2, and run_benchmark's reps. The
    library and the CLI check each of them through here only."""
    if name == "components_range":
        try:
            lo, hi = value
        except (TypeError, ValueError):
            lo = hi = None
        if not (is_integer(lo, 1) and is_integer(hi, lo)):
            raise ValueError(f"fit_gmm: components_range={value!r} must be "
                             "two integers 1 <= lo <= hi")
        return
    for breaks, message in _SETTING_RULES[name]:
        if breaks(value):
            raise ValueError(message.format(value))


@dataclass(frozen=True)
class Settings:
    """The fitting settings, with the only defaults they have: PAM-TOCC's
    cluster count k, the k-means baseline's kmeans_k, tocc-db's Monte Carlo
    draws, and the mixture search's component range (mclust's G = 1..9,
    Fraley & Raftery 2002) and EM restarts per G.

    Every field is checked by check_setting, whether or not a fit reads it.
    """

    k: int = 5
    kmeans_k: int = 5
    mc_samples: int = 100_000
    components_range: tuple[int, int] = (1, 9)
    n_restarts: int = 5

    def __post_init__(self):
        for f in fields(self):
            check_setting(f.name, getattr(self, f.name))


# The glass study's record: PAM-TOCC at k = 4, the k of the README's glass
# tables.
GLASS_SETTINGS = Settings(k=4)


@dataclass
class DataMatrix:
    """An n x p table of real-valued features with optional row labels.

    values must be finite and are stored as as_values gives them, row-major;
    feature names must be unique. row_labels, when present, tag each row
    (e.g. "target" / "non-target").
    """

    values: np.ndarray
    feature_names: list[str] = field(default_factory=list)
    row_labels: list[str] | None = None

    def __post_init__(self):
        self.values = as_values(self.values)
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
        # np.take copies the columns row-major, so as_values need not copy
        # them again.
        return DataMatrix(np.take(self.values, idx, axis=1),
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
    """Accept a DataMatrix or a plain array, return the float array (n x 1
    for a 1-D input) in row-major order, copying any other layout: the one
    place that decides layout, so every fit and prediction computes the
    same bits from the same values."""
    if isinstance(X, DataMatrix):
        return X.values
    arr = np.asarray(X, dtype=float, order="C")
    return arr.reshape(-1, 1) if arr.ndim == 1 else arr


def as_queries(Z, p: int, where: str, names=None) -> np.ndarray:
    """Query rows Z as an n x p float array; ValueError unless Z is 2-D (or
    1-D for p = 1), p wide and finite, naming the first non-finite row.
    When both the model's feature names and Z's (a DataMatrix) are known,
    they must be the same list in the same order, so that no column is
    scored under another column's name."""
    vals = as_values(Z)
    if vals.ndim != 2:
        raise ValueError(f"{where}: queries must be 2-D, got {vals.ndim}-D")
    if vals.shape[1] != p:
        raise ValueError(f"{where}: query dimension {vals.shape[1]} != "
                         f"model dimension {p}")
    if (names is not None and isinstance(Z, DataMatrix)
            and Z.feature_names != names):
        raise ValueError(f"{where}: query features {Z.feature_names} differ "
                         f"from the model's {names}")
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
    check_setting("s", float(s))
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

# A p = 2 segment whose boxes are all one-sided is counted by a sorting
# counter when it has at least _SORTING_MIN_BOXES boxes and
# _SORTING_MIN_PAIRS row-box pairs: by the grid when the (b + 1)^2 cells of
# its histogram are at most _GRID_CELLS_PER_ROW per row, by the sweep
# otherwise. Below those floors the comparison loop counts it. The loop's
# cost grows with the pairs, the grid's with the rows and the cells, the
# sweep's with the rows. Best of 7 to 31 runs on a 2-core Xeon (Python
# 3.11, numpy 2.4), one box_counts call on one segment of normal rows and
# boxes, loop / sweep / grid in ms (- not run):
#     rows       32 boxes           64 boxes          128 boxes          256 boxes
#      500   0.13/0.59/0.30     0.23/0.63/0.33     0.44/0.71/0.49     0.83/0.91/2.09
#    2 000   0.41/1.13/0.40     0.76/1.20/0.46     1.63/1.42/0.68     2.96/1.51/2.47
#    8 000   0.59/3.93/0.99     1.10/3.36/1.16     1.62/4.20/1.27     4.34/4.33/3.07
#   20 000   2.31/11.0/1.96     4.41/11.5/2.58     6.56/9.38/2.58     13.0/9.12/3.23
#  100 000   5.82/40.4/8.78     10.9/38.4/11.1     32.2/37.7/7.87     45.5/39.3/14.2
#     rows      512 boxes         1 024 boxes        2 048 boxes       20 000 boxes
#      500   1.27/0.84/9.08     3.06/1.28/28.4     5.32/2.15/130.0      58.9/18.5/-
#    2 000   4.98/1.35/3.14     9.97/2.51/28.3     21.4/4.45/131.1       206/31.6/-
#    8 000   6.23/3.14/3.36     12.2/5.36/24.6     36.4/7.21/133.9       337/38.1/-
#   20 000   23.7/12.3/7.17     68.9/13.3/33.6      111/18.2/141.9      1 218/66.9/-
#  100 000   89.8/50.0/15.1      194/62.1/38.8      398/70.0/236.5          -/285/-
# The grid overtakes the loop between 48 and 96 boxes at every row count,
# and below 2^17 pairs a sort's fixed cost outweighs the loop. Grid /
# sweep in ms where (b + 1)^2 is 4, 8 and 16 cells per row: 0.39/0.85,
# 0.40/0.89 and 0.85/0.93 at 2 000 rows; 0.95/2.99, 2.44/3.67 and
# 4.14/4.26 at 8 000; 2.31/8.84, 3.34/9.09 and 9.82/9.96 at 20 000;
# 22.4/42.6, 34.5/63.4 and 73.0/56.1 at 100 000. At eight cells per row
# the grid takes at most about 0.7 of the sweep's time, and its histogram
# about 64 bytes per row at most. The benchmark's calls are counted so:
# 20 000 draws against 154 to 229 boxes and 100 000 draws against
# 91 to 142 the grid, 2 000 rows against 2 004 to 10 004 boxes and about
# 400 rows against 391 to 2 383 the sweep, and every group scored against
# itself of at most 150 rows, or 87 rows against 142 boxes, the loop.
_SORTING_MIN_BOXES = 64
_SORTING_MIN_PAIRS = 2 ** 17
_GRID_CELLS_PER_ROW = 8


def box_counts(X: np.ndarray, ends, lower: np.ndarray, upper: np.ndarray,
               seg: np.ndarray) -> np.ndarray:
    """Count of the rows of segment seg[i] strictly inside each open box
    lower[i] < x < upper[i] of the b x p bounds, +-inf allowed, as b counts.
    The n x p points X hold the segments' rows in segment order, and ends
    the end of each: segment s is X[ends[s - 1]:ends[s]] (from row 0 for s =
    0), as in a CSR matrix. seg tags each box with its segment, in any
    order. A row with a coordinate that is not finite lies in no box.

    One loop over the segments counts each by one of three algorithms.
    When p = 2, every box of the segment is one-sided (each coordinate a
    half-line (a, inf) or (-inf, a), or the whole line) and the segment is
    large enough (_sorting_counter), its finite rows are binned into one
    cumulative histogram by _grid_counts when its boxes are few against
    its rows, and otherwise swept by _sweep_counts in blocks of
    _CHUNK_ELEMENTS rows; any other segment is compared with its boxes in
    tiles of at most _CHUNK_ELEMENTS box-row pairs, a run of its boxes
    against a block of its rows. All three count exactly, so the choice
    never moves a count.
    """
    p = X.shape[1]
    # Row and box bounds of each segment, as Python ints for the loop.
    rows = [0, *np.asarray(ends).tolist()]
    boxes = [0, *np.cumsum(np.bincount(seg, minlength=len(rows) - 1)).tolist()]
    # numpy sorts 8- and 16-bit keys stably by counting (a radix sort).
    order = np.argsort(seg.astype(np.min_scalar_type(len(rows))), kind="stable")
    # np.take: a 2-D fancy index gathers rows several times slower.
    lower, upper = (np.take(a, order, axis=0) for a in (lower, upper))
    # Coordinates first, each contiguous: a tile compares one run of boxes
    # with one block of rows, coordinate by coordinate.
    LT, UT = np.ascontiguousarray(lower.T), np.ascontiguousarray(upper.T)
    counts = np.zeros(len(seg), dtype=np.int64)
    for start, stop, low, high in zip(rows, rows[1:], boxes, boxes[1:]):
        n, b, box = stop - start, high - low, slice(low, high)
        counter = _sorting_counter(n, b) if p == 2 else None
        if counter and np.all((lower[box] == -np.inf) | (upper[box] == np.inf)):
            up = upper[box] == np.inf
            anchors = np.where(up, lower[box], upper[box])
            if counter == "grid":
                counts[box] = _grid_counts(X[start:stop], anchors, up)
                continue
            real = np.isfinite(X[start:stop, 0]) & np.isfinite(X[start:stop, 1])
            points = np.compress(real, X[start:stop], axis=0)
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


def _sorting_counter(n, b):
    """The counter of b one-sided boxes on n rows at p = 2: "grid"
    (_grid_counts), "sweep" (_sweep_counts on the finite rows, in row
    blocks), or None for the comparison loop."""
    if b < _SORTING_MIN_BOXES or n * b < _SORTING_MIN_PAIRS:
        return None
    return "grid" if (b + 1) ** 2 <= _GRID_CELLS_PER_ROW * n else "sweep"


def _grid_counts(X, A, up):
    """Count of the finite rows of the n x 2 points X with x_u > a_u where
    up and x_u < a_u elsewhere, on both coordinates, for each row a of A:
    the one-sided boxes of box_counts, from a summed-area table (Crow 1984).
    Exact, in O(n log n + m_0 m_1) for m_u distinct cuts on coordinate u.

    x > a is x >= nextafter(a, inf), so on each coordinate a box keeps the
    rows below its cut or the rest, and with t the sorted distinct cuts and
    a row's bin 1 + #{t <= x}, the rows below t[k] are those of bin at most
    k + 1. One bincount per block of _CHUNK_ELEMENTS rows adds the rows'
    bin pairs into an (m_0 + 2) x (m_1 + 2) histogram, whose cumulative
    sums S[i, j] = #{bin_0 <= i, bin_1 <= j} give each box's count from
    four entries by inclusion-exclusion. An infinite cut needs no case: no
    row lies below -inf, and every row below +inf. A row that is not finite
    is put in bin 0 on both coordinates, which no box reads.
    """
    B = np.where(up, np.nextafter(A, np.inf), A)
    cuts = [np.unique(B[:, u]) for u in (0, 1)]
    shape = (len(cuts[0]) + 2, len(cuts[1]) + 2)
    hist = np.zeros(shape[0] * shape[1], dtype=np.int64)
    for first in range(0, len(X), _CHUNK_ELEMENTS):
        block = X[first:first + _CHUNK_ELEMENTS]
        key = np.zeros(len(block), dtype=np.intp)
        for col, t, stride in zip(block.T, cuts, (shape[1], 1)):
            # In sorted order the rows of bin k + 1 run from the first row
            # at or above t[k - 1] to the first at or above t[k].
            order = np.argsort(col)
            ends = np.searchsorted(col[order], t)
            key[order] += np.repeat(np.arange(1, len(t) + 2) * stride,
                                    np.diff(ends, prepend=0, append=len(col)))
        key[~np.isfinite(block).all(axis=1)] = 0
        hist += np.bincount(key, minlength=hist.size)
    S = hist.reshape(shape).cumsum(0).cumsum(1)
    lo, hi = [], []
    for t, B_u, up_u in zip(cuts, B.T, up.T):
        edge = np.searchsorted(t, B_u, "right")
        lo.append(np.where(up_u, edge, 0))
        hi.append(np.where(up_u, len(t) + 1, edge))
    return S[hi[0], hi[1]] - S[lo[0], hi[1]] - S[hi[0], lo[1]] + S[lo[0], lo[1]]


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
            if not is_integer(value, 0):
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

    X is one n x p table, whose median is returned as a p-vector, or a
    (V, n, p) stack of V tables, whose medians are returned as a V x p
    array. The tables of a stack iterate together, each leaving when it
    stops, and each computes exactly what it computes alone.

    Starts at the coordinatewise median (so the objective never exceeds its
    value there). Data points the iterate lands on are pulled out of the
    denominator and handled by the Vardi-Zhang correction. Convergence is
    declared when successive iterates move less than _WEISZFELD_TOL. An
    empty table is a ValueError, and so is a non-finite row, which it
    names; the first table that exceeds _WEISZFELD_MAX_ITER iterations
    raises ConvergenceError carrying its last iterate.
    """
    vals = as_values(X)
    single = vals.ndim == 2
    stack = vals[None] if single else vals
    if stack.shape[1] == 0:
        raise ValueError("spatial_median: a table has no rows")
    if not np.isfinite(stack).all():
        v = np.flatnonzero(~np.isfinite(stack).all(axis=(1, 2)))[0]
        require_finite_rows(stack[v], "spatial_median",
                            "input" if single else f"table {v} input")
    medians = np.empty(stack.shape[::2])
    live = np.arange(len(stack))      # the table behind each row of the stack
    y = np.median(stack, axis=1)
    for _ in range(_WEISZFELD_MAX_ITER):
        diff = stack - y[:, None, :]
        # np.linalg.norm(diff, axis=2), without its per-call overhead.
        dist = np.sqrt(np.add.reduce(diff * diff, axis=2))
        at_point = dist < _WEISZFELD_TOL
        # The plain Weiszfeld update of every table; a table with a row on
        # its iterate gets a finite stand-in here, replaced below.
        w = 1.0 / np.maximum(dist, _WEISZFELD_TOL)
        y_new = (stack * w[..., None]).sum(axis=1) / w.sum(axis=1)[:, None]
        if at_point.any():
            # Vardi-Zhang step, on the table's own rows off the iterate: its
            # coincident mass eta pulls the plain update back toward the
            # current point. A table whose rows all coincide with the
            # iterate, or whose pull outweighs the update, stays where it is.
            for i in np.flatnonzero(at_point.any(axis=1)):
                far = ~at_point[i]
                y_new[i] = y[i]
                if not far.any():
                    continue
                wi = 1.0 / dist[i, far]
                t_tilde = (stack[i, far] * wi[:, None]).sum(axis=0) / wi.sum()
                eta = float(at_point[i].sum())
                r_norm = np.linalg.norm((diff[i, far] * wi[:, None]).sum(axis=0))
                if r_norm > eta:
                    gamma = min(1.0, eta / r_norm)
                    y_new[i] = (1.0 - gamma) * t_tilde + gamma * y[i]
        # Each step's Euclidean length, by the dot product np.linalg.norm
        # takes of one vector.
        step = y_new - y
        done = np.sqrt(step[:, None, :] @ step[:, :, None])[:, 0, 0] < _WEISZFELD_TOL
        medians[live[done]] = y_new[done]
        if done.all():
            return medians[0] if single else medians
        if done.any():
            stack, live, y_new = stack[~done], live[~done], y_new[~done]
        y = y_new
    raise ConvergenceError(
        f"spatial_median: {'' if single else f'table {live[0]}: '}"
        f"no convergence after {_WEISZFELD_MAX_ITER} iterations", y[0])


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
