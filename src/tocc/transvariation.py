"""Transvariation probability: the typicality score behind every TOCC.

A group and a constant c "transvariate" when some of the differences x_i - c
carry the opposite sign to m - c. Counting such units (ties weighted 1/2) and
normalizing by the maximum attainable count yields a score in [0, 1]: 1 means
c looks like the group's center, 0 means maximal atypicality.

Four forms are provided: univariate counting, univariate from a CDF,
multivariate counting (the maximum is re-estimated on shifted data because a
spatial median does not split all orthants evenly), and a density-based
multivariate version that integrates a fitted density over orthant-directed
boxes.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .density import box_masses
from .numcore import as_values, require_finite_rows, row_patterns, tiles

DROP_EPS = 1e-12


@dataclass
class TpScore:
    """A transvariation probability with its building blocks.

    numerator_count / denominator_count are unit counts for the counting
    forms and probability masses for the density form. dropped_coords lists
    coordinates excluded because the query ties the prototype there;
    degenerate marks a denominator too small to divide by (score 0).
    """

    value: float
    numerator_count: float
    denominator_count: float
    dropped_coords: list[int] = field(default_factory=list)
    degenerate: bool = False


# The batch forms' per-query record, one entry per row of C: value,
# numerator, denominator, the q x p mask of coordinates kept by the drop
# rule, and the degenerate-denominator flag. A TpScore is one row of it.
TpRows = namedtuple("TpRows", "value numerator denominator kept degenerate")


# A denominator below this is degenerate and scores 0. Weighted counts are
# multiples of 1/2, so for them this means a zero denominator.
_DEGENERATE = 1e-12


def _kept(C, m, eps):
    """The drop rule: a coordinate where the query lies within eps of the
    prototype carries no sign information and is dropped. eps must be at
    least 0, so every kept coordinate has c != m and a direction, _up."""
    if not eps >= 0:
        raise ValueError(f"eps={eps!r} must be a number >= 0")
    return np.abs(C - m) > eps


def _up(C, m):
    """The direction rule: on a kept coordinate the query points up from
    the prototype where c > m and down where c < m."""
    return C > m


# The p = 2 sweep below replaces the broadcast kernel from this many
# point-query pairs up. Medians on a 2-core Xeon (Python 3.11, numpy 2.4),
# n x q, broadcast -> sweep: 22 x 54 0.06 -> 0.17 ms, 87 x 214 0.30 ->
# 0.52 ms, 150 x 225 0.51 -> 0.50 ms, 256 x 256 0.81 -> 0.59 ms, 2000 x 2000
# 56 -> 4.0 ms, 2000 x 10 000 261 -> 20 ms. The crossover is near 2^15
# pairs; 2^16 leaves a margin where the two are within a few percent.
_SWEEP_MIN_PAIRS = 2 ** 16


def _orthant_counts(X, C, m):
    """Weighted counts of the rows of X beyond each query row of C, and
    beyond m, in the query's orthant direction from m (ties weight 1/2),
    for queries off m on every coordinate. Each query has two anchors, c
    for the numerator and m for the denominator: x is beyond an anchor a
    when x_u > a_u on every coordinate where c points up and x_u < a_u
    where it points down, and ties it when x == a. Returns (numerator,
    denominator)."""
    q, p = C.shape
    sweep = p == 2 and X.shape[0] * q >= _SWEEP_MIN_PAIRS
    strict, tie = (_sweep_counts if sweep else _broadcast_counts)(
        X, np.concatenate([C, np.broadcast_to(m, C.shape)]), np.tile(_up(C, m), (2, 1)))
    num, den = (strict + 0.5 * tie).reshape(2, q)
    if np.any(num > den):
        raise RuntimeError("numerator exceeded denominator (counting bug)")
    return num, den


def _broadcast_counts(X, A, up):
    """Strict and tie counts of the rows of X at each anchor row of A with
    directions up, by comparing every row with every anchor in cache-sized
    tiles. Negation is exact, so negating the down coordinates of both
    makes every strict test y > a and every tie y == a."""
    sign = np.where(up, 1.0, -1.0)
    A = A * sign
    counts = np.zeros((2, A.shape[0]), dtype=np.int64)
    for XT, rows in tiles(X, A.shape[0]):
        strict, tie = tests = np.ones((2, A[rows].shape[0], XT.shape[1]), dtype=bool)
        for u in range(X.shape[1]):
            y = XT[u] * sign[rows, u, None]
            strict &= y > A[rows, u, None]
            tie &= y == A[rows, u, None]
        counts[:, rows] += np.count_nonzero(tests, axis=2)
    return counts


def _sweep_counts(X, A, up):
    """The counts of _broadcast_counts for two columns, by sorting: strict
    counts the rows with x_u > a_u where up and x_u < a_u elsewhere, on
    both coordinates; tie counts x == a. Exact, in O((n + q) log^2 n).

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
    strict = np.select([up[:, 0] & up[:, 1], up[:, 0], up[:, 1]],
                       [dom, above[0] - dom, above[1] - dom],
                       n - above[0] - above[1] + dom)
    rows = np.sort(np.ascontiguousarray(X).view(complex).ravel())
    points = np.ascontiguousarray(A).view(complex).ravel()
    tie = np.searchsorted(rows, points, "right") - np.searchsorted(rows, points)
    return strict, tie


def _record(num, den, kept) -> TpRows:
    """The record of numerators and denominators: a degenerate denominator
    scores 0, any other ratio is clipped to [0, 1]."""
    degenerate = den < _DEGENERATE
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.where(degenerate, 0.0, np.clip(num / den, 0.0, 1.0))
    return TpRows(value, num, den, kept, degenerate)


def tp_scores(X, C, m, eps: float = DROP_EPS) -> TpRows:
    """Counting-form tp of each row of the float array C (q x p) against the
    rows of X and prototype m, numerator and denominator in unit counts.
    multivariate_tp is the one-query case."""
    vals = as_values(X)
    kept = _kept(C, m, eps)
    num, den = np.full((2, C.shape[0]), float(vals.shape[0]))
    for cols, rows in row_patterns(kept):
        num[rows], den[rows] = _orthant_counts(
            vals[:, cols], C[np.ix_(rows, cols)], m[cols])
    return _record(num, den, kept)


def tp_density_scores(density, C, m, integrator, eps: float = DROP_EPS) -> TpRows:
    """Density-form tp of each row of the float array C (q x p) with
    prototype m, numerator and denominator as probability masses;
    multivariate_tp_density is the one-query case. The numerator box lies
    beyond c and the denominator box beyond m, both in c's direction from
    m; a dropped coordinate is unbounded. One box_masses call integrates all
    2q boxes, so all boxes of the batch share one draw set."""
    kept = _kept(C, m, eps)
    anchors = np.concatenate([C, np.broadcast_to(m, C.shape)])
    bounded, up = np.tile([kept, _up(C, m)], (1, 2, 1))
    num, den = box_masses(density, np.where(bounded & up, anchors, -np.inf),
                          np.where(bounded & ~up, anchors, np.inf),
                          integrator).reshape(2, -1)
    return _record(num, den, kept)


def _one_query(batch, c, m, p: int, where: str) -> TpScore:
    """Row 0 of batch(C, m), a batch form, for the single query c against
    prototype m, both finite and p wide."""
    c, m = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (c, m))
    if c.shape != (p,) or m.shape != (p,):
        raise ValueError(f"{where}: dimension mismatch")
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(m))):
        raise ValueError(f"{where}: query and prototype must be finite")
    value, num, den, kept, degenerate = batch(c[None], m)
    return TpScore(float(value[0]), float(num[0]), float(den[0]),
                   np.flatnonzero(~kept[0]).tolist(), bool(degenerate[0]))


# ---------------------------------------------------------------------------
# Univariate forms
# ---------------------------------------------------------------------------

def _require_finite(where: str, **values) -> None:
    """ValueError naming the first of the scalar values that is not finite."""
    for name, v in values.items():
        if not np.isfinite(v):
            raise ValueError(f"{where}: {name}={v!r} is not finite")


def univariate_tp(xs, c: float, m: float) -> TpScore:
    """tp of a constant against a univariate group with median m.

    Counts opposite-sign differences (ties at half weight) and divides by the
    maximum n/2. m must be the sample median of xs for the normalization to
    be exact; it is taken as given. c = m ties every unit and scores 1. A
    non-finite entry of xs, c or m is an error.
    """
    arr = np.asarray(xs, dtype=float).reshape(-1, 1)
    if arr.size == 0:
        raise ValueError("univariate_tp: empty input")
    require_finite_rows(arr, "univariate_tp", "group")
    c, m = float(c), float(m)
    _require_finite("univariate_tp", c=c, m=m)
    if c == m:
        return TpScore(1.0, arr.size / 2.0, arr.size / 2.0)
    num, _ = _orthant_counts(arr, np.array([[c]]), np.array([m]))
    weighted = float(num[0])
    return TpScore(min(1.0, 2.0 * weighted / arr.size), weighted, arr.size / 2.0)


def univariate_tp_density(cdf, c: float, m: float) -> TpScore:
    """Density-based univariate tp: twice the tail mass on c's side of m.

    cdf is any monotone CDF of the target class; F(c) outside [0, 1] is an
    error (a broken estimator, not a tie case), and so is a non-finite c or
    m.
    """
    _require_finite("univariate_tp_density", c=c, m=m)
    f_c = float(cdf(c))
    if not 0.0 <= f_c <= 1.0:
        raise ValueError(f"univariate_tp_density: cdf returned {f_c}, outside [0, 1]")
    tail = f_c if m >= c else 1.0 - f_c
    return TpScore(min(1.0, 2.0 * tail), tail, 0.5)


# ---------------------------------------------------------------------------
# Multivariate forms
# ---------------------------------------------------------------------------

def multivariate_tp(X, c, m, eps: float = DROP_EPS) -> TpScore:
    """Multivariate tp by joint sign counting across coordinates.

    Numerator: units beyond c in c's direction from m on every coordinate,
    x_iu > c_u where c_u > m_u and x_iu < c_u where c_u < m_u (units equal
    to c count 1/2). Denominator: the same count on data shifted by
    -(m - c), which is the count beyond m in the same direction; this
    estimates the maximum attainable transvariability for a prototype that
    need not split the sample evenly.

    Coordinates where |c_u - m_u| <= eps carry no sign information and are
    dropped (recorded in dropped_coords). All dropped -> score 1. A zero
    denominator (no training mass in c's direction) -> score 0. A
    non-finite group row, c or m, or an eps below 0, is an error.
    """
    vals = as_values(X)
    require_finite_rows(vals, "multivariate_tp", "group")
    return _one_query(lambda C, m: tp_scores(vals, C, m, eps), c, m,
                      vals.shape[1], "multivariate_tp")


def multivariate_tp_density(density, c, m, integrator, eps: float = DROP_EPS) -> TpScore:
    """Density-based multivariate tp: ratio of two orthant-directed box masses.

    Numerator integrates the target density over the region beyond c in the
    orthant direction of c relative to m (per coordinate: [c_u, inf) when
    c_u >= m_u, else (-inf, c_u]); the denominator integrates beyond m in the
    same direction. Tied coordinates are dropped exactly as in the counting
    form (their bounds collapse to the full axis on both sides). Both masses
    are estimated on one common sample set so Monte Carlo noise partially
    cancels in the ratio; a denominator below 1e-12 flags degeneracy and
    scores 0. A non-finite c or m is an error.
    """
    return _one_query(lambda C, m: tp_density_scores(density, C, m, integrator, eps),
                      c, m, density.p, "multivariate_tp_density")
