"""Transvariation probability: the typicality score behind every TOCC.

A group and a constant c "transvariate" when some of the differences x_i - c
carry the opposite sign to m - c. Counting such units (ties weighted 1/2) and
normalizing by the maximum attainable count yields a score in [0, 1]: 1 means
c looks like the group's center, 0 means maximal atypicality.

Four forms are provided: univariate counting, univariate from a CDF,
multivariate counting (the maximum is re-estimated on shifted data because a
spatial median does not split all orthants evenly), and a density-based
multivariate version that integrates a fitted density over orthant-directed
boxes. An independence shortcut multiplies per-coordinate scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numcore import as_values

DROP_EPS = 1e-12


@dataclass
class TpScore:
    """A transvariation probability with its building blocks.

    numerator_count / denominator_count are unit counts for the counting
    forms and probability masses for the density form. dropped_coords lists
    coordinates excluded because the query ties the prototype there.
    """

    value: float
    numerator_count: float
    denominator_count: float
    dropped_coords: list[int] = field(default_factory=list)
    degenerate: bool = False


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


# Query-point pairs per kernel step (blocks of at most this many points,
# chunks of queries to match): cache-resident, and flat in memory at any n.
_CHUNK_ELEMENTS = 2 ** 14
# A denominator below this is degenerate and scores 0. Weighted counts are
# multiples of 1/2, so for them this means a zero denominator.
_DEGENERATE = 1e-12


def _orthant_counts(X, C, m):
    """Counts of the rows of X beyond each query row of C, and beyond m, in
    the query's orthant direction from m: x is beyond c when every product
    (x_u - c_u)(m_u - c_u) is negative and ties c when all are zero (weight
    1/2); the denominator tests (x_u - m_u)(m_u - c_u), the same products on
    data shifted by -(m - c) with ties at m exact. Returns the weighted
    numerator and denominator, then both counts boundary-inclusive (every
    product <= 0), as a box integral over Monte Carlo draws needs."""
    n, k = X.shape
    towards_m = m - C
    anchors = np.stack([C, np.broadcast_to(m, C.shape)])   # numerator, denominator
    counts = np.zeros((3, 2, C.shape[0]), dtype=np.int64)
    block = min(n, _CHUNK_ELEMENTS) or 1
    step = max(1, _CHUNK_ELEMENTS // block)
    for first in range(0, n, block):
        XT = np.ascontiguousarray(X[first:first + block].T)
        for start in range(0, C.shape[0], step):
            rows = slice(start, start + step)
            strict, tie, closed = tests = np.ones(
                (3, 2, C[rows].shape[0], XT.shape[1]), dtype=bool)
            for u in range(k):
                prod = (XT[u] - anchors[:, rows, u, None]) * towards_m[rows, u, None]
                strict &= prod < 0
                tie &= prod == 0
                closed &= prod <= 0
            counts[:, :, rows] += np.count_nonzero(tests, axis=3)
    strict, tie, closed = counts
    num, den = strict + 0.5 * tie
    if np.any(num > den):
        raise RuntimeError("numerator exceeded denominator (counting bug)")
    return num, den, *closed


def _kept_groups(C, m, eps):
    """(kept coordinates, query rows) for each distinct set of coordinates
    surviving the drop rule |c_u - m_u| <= eps; all-dropped rows are left out."""
    patterns, which = np.unique(np.abs(C - m) > eps, axis=0, return_inverse=True)
    for j, pattern in enumerate(patterns):
        if pattern.any():
            yield np.flatnonzero(pattern), np.flatnonzero(which.reshape(-1) == j)


def _ratio(num, den):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den < _DEGENERATE, 0.0, np.clip(num / den, 0.0, 1.0))


def tp_scores(X, C, m, eps: float = DROP_EPS):
    """Counting-form tp of each row of the float array C (q x p) against the
    rows of X and prototype m: (value, numerator, denominator) arrays, one
    entry per query. multivariate_tp is the one-query case."""
    vals = as_values(X)
    num, den = np.full((2, C.shape[0]), float(vals.shape[0]))
    for kept, rows in _kept_groups(C, m, eps):
        num[rows], den[rows], _, _ = _orthant_counts(
            vals[:, kept], C[np.ix_(rows, kept)], m[kept])
    return _ratio(num, den), num, den


def tp_density_scores(density, C, m, integrator, eps: float = DROP_EPS):
    """Density-form tp of each row of the float array C (q x p) with
    prototype m: (value, numerator mass, denominator mass) arrays, one entry
    per query; multivariate_tp_density is the one-query case. One kept
    coordinate is integrated in closed form; two or more count the
    integrator's draws of the kept coordinates' marginal (the density itself
    when nothing is dropped, so its sample cache hits) in each box, boundary
    included."""
    num, den = np.ones((2, C.shape[0]))
    for kept, rows in _kept_groups(C, m, eps):
        ck, mk = C[np.ix_(rows, kept)], m[kept]
        marginal = density if kept.size == density.p else density.marginal(kept)
        if kept.size == 1:
            up = ck[:, 0] >= mk[0]
            for out, bound in ((num, ck[:, 0]), (den, mk[0])):
                out[rows] = marginal.interval_probability(
                    np.where(up, bound, -np.inf), np.where(up, np.inf, bound))
        else:
            draws = integrator.samples(marginal)
            _, _, *closed = _orthant_counts(draws, ck, mk)
            num[rows], den[rows] = (cnt / draws.shape[0] for cnt in closed)
    return _ratio(num, den), num, den


def _query_pair(c, m, p: int, where: str):
    c, m = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (c, m))
    if c.shape != (p,) or m.shape != (p,):
        raise ValueError(f"{where}: dimension mismatch")
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(m))):
        raise ValueError(f"{where}: query and prototype must be finite")
    return c, m


# ---------------------------------------------------------------------------
# Univariate forms
# ---------------------------------------------------------------------------

def univariate_tp(xs, c: float, m: float) -> TpScore:
    """tp of a constant against a univariate group with median m.

    Counts opposite-sign differences (ties at half weight) and divides by the
    maximum n/2. m must be the sample median of xs for the normalization to
    be exact; it is taken as given.
    """
    arr = np.asarray(xs, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("univariate_tp: empty input")
    num, *_ = _orthant_counts(arr[:, None], np.array([[c]], dtype=float),
                              np.array([m], dtype=float))
    weighted = float(num[0])
    value = _clamp01(2.0 * weighted / arr.size)
    return TpScore(value, weighted, arr.size / 2.0)


def univariate_tp_density(cdf, c: float, m: float) -> TpScore:
    """Density-based univariate tp: twice the tail mass on c's side of m.

    cdf is any monotone CDF of the target class; F(c) outside [0, 1] is an
    error (a broken estimator, not a tie case).
    """
    f_c = float(cdf(c))
    if not 0.0 <= f_c <= 1.0:
        raise ValueError(f"univariate_tp_density: cdf returned {f_c}, outside [0, 1]")
    tail = f_c if m >= c else 1.0 - f_c
    return TpScore(_clamp01(2.0 * tail), tail, 0.5)


# ---------------------------------------------------------------------------
# Multivariate forms
# ---------------------------------------------------------------------------

def multivariate_tp(X, c, m, eps: float = DROP_EPS) -> TpScore:
    """Multivariate tp by joint sign counting across coordinates.

    Numerator: units whose products (x_iu - c_u)(m_u - c_u) are negative on
    every coordinate (ties on every coordinate count 1/2). Denominator: the
    same count on data shifted by -(m - c), which reduces to products
    (x_iu - m_u)(m_u - c_u); this estimates the maximum attainable
    transvariability for a prototype that need not split the sample evenly.

    Coordinates where |c_u - m_u| <= eps carry no sign information and are
    dropped (recorded in dropped_coords). All dropped -> score 1. A zero
    denominator (no training mass in c's direction) -> score 0. A
    non-finite c or m is an error.
    """
    vals = as_values(X)
    c, m = _query_pair(c, m, vals.shape[1], "multivariate_tp")
    value, num, den = tp_scores(vals, c[None], m, eps)
    return TpScore(float(value[0]), float(num[0]), float(den[0]),
                   np.flatnonzero(np.abs(c - m) <= eps).tolist())


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
    c, m = _query_pair(c, m, density.p, "multivariate_tp_density")
    value, num, den = tp_density_scores(density, c[None], m, integrator, eps)
    return TpScore(float(value[0]), float(num[0]), float(den[0]),
                   np.flatnonzero(np.abs(c - m) <= eps).tolist(),
                   degenerate=bool(den[0] < _DEGENERATE))


def independent_product_tp(per_coord_scores) -> TpScore:
    """Under coordinate independence, multivariate tp is the product of the
    univariate marginal scores."""
    scores = list(per_coord_scores)
    if not scores:
        raise ValueError("independent_product_tp: empty score list")
    value = math.prod(s.value for s in scores)
    return TpScore(_clamp01(value), value, 1.0)
