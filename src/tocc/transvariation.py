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
from .numcore import (as_values, box_counts, distinct_rows, require_finite_rows,
                      tie_counts)

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
    prototype carries no sign information and is dropped. eps, a number or
    one per row of C, must be at least 0, so every kept coordinate has
    c != m and a direction, _up. Near opposite ends of the float range
    c - m overflows to an infinity, which is kept, as it should be."""
    bound = np.asarray(eps, dtype=float)
    if not np.all(bound >= 0):
        raise ValueError(f"eps={eps!r} must be a number >= 0")
    with np.errstate(over="ignore"):
        return np.abs(C - m) > bound[..., None]


def _up(C, m):
    """The direction rule: on a kept coordinate the query points up from
    the prototype where c > m and down where c < m."""
    return C > m


def _orthant_boxes(C, M, kept, seg):
    """The open orthant boxes of the queries C (q x p), query i of segment
    seg[i] with prototype M[i]: bounds (lower, upper) of the q numerator
    boxes and then of one denominator box per (segment, pattern) present,
    the segment of each box, and the index of each query's denominator box
    among the latter. Box i lies beyond the anchor a = C[i] in its
    direction from M[i], (a_u, inf) where it points up and (-inf, a_u)
    where it points down, on each coordinate that the mask kept keeps; a
    coordinate not kept is unbounded. The denominator box lies beyond a =
    M[i] in the same direction, so it depends only on the segment and the
    query's pattern (each coordinate dropped, up or down): a segment has at
    most min(q, 3^p) of them."""
    up = _up(C, M)
    lo, hi = kept & up, kept & ~up
    _, pattern = distinct_rows(kept.view(np.int8) + hi.view(np.int8))
    # One key per (segment, pattern), ordered by segment first.
    _, first, which = np.unique(seg * len(C) + pattern, return_index=True,
                                return_inverse=True)
    return (np.concatenate([np.where(lo, C, -np.inf),
                            np.where(lo[first], M[first], -np.inf)]),
            np.concatenate([np.where(hi, C, np.inf),
                            np.where(hi[first], M[first], np.inf)]),
            np.concatenate([seg, seg[first]]), which)


def _record(num, den, kept) -> TpRows:
    """The record of numerators and denominators: a degenerate denominator
    scores 0, any other ratio is clipped to [0, 1]."""
    degenerate = den < _DEGENERATE
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.where(degenerate, 0.0, np.clip(num / den, 0.0, 1.0))
    return TpRows(value, num, den, kept, degenerate)


# Query coordinates per chunk of segments that tp_scores scores at a time:
# a chunk holds the segments whose queries start in one stretch of this
# many coordinates of their concatenation, so at most this many plus one
# segment's, which bounds the memory one call holds at any number of
# segments.
_QUERY_CHUNK = 2 ** 14


def tp_scores(groups, queries, prototypes, eps=DROP_EPS) -> TpRows:
    """Counting-form tp of each query of segment s, a row of the float
    array queries[s] (q_s x p), against the rows of the group groups[s]
    (n_s x p) and prototype prototypes[s] (S x p), with eps a number or one
    per segment: numerator and denominator in unit counts, each field of
    the record one entry per query (q x p for kept), in segment order.
    multivariate_tp is the one-segment, one-query case.

    Segments are scored in chunks of about _QUERY_CHUNK query coordinates.
    Per chunk, one box_counts call counts the rows strictly inside the
    boxes of _orthant_boxes, every query's numerator box and one
    denominator box per segment and orthant pattern, and one tie_counts
    call adds half the rows equal to each box's anchor on its bounded
    coordinates, none for a box bounded nowhere."""
    sizes = np.array([Q.size for Q in queries])
    chunk = (np.cumsum(sizes) - sizes) // _QUERY_CHUNK
    cuts = [0, *(np.flatnonzero(np.diff(chunk)) + 1), len(queries)]
    return TpRows(*map(np.concatenate, zip(*(
        _chunk_scores(groups[a:b], queries[a:b], prototypes[a:b],
                      eps if np.ndim(eps) == 0 else eps[a:b])
        for a, b in zip(cuts[:-1], cuts[1:])))))


def _chunk_scores(groups, queries, m, eps) -> TpRows:
    """tp_scores of one chunk of segments, in one box_counts and one
    tie_counts call."""
    X, ends = np.concatenate(groups), np.cumsum([len(g) for g in groups])
    C = np.concatenate(queries)
    seg = np.repeat(np.arange(len(queries)), [len(Q) for Q in queries])
    M = np.take(m, seg, axis=0)
    kept = _kept(C, M, eps if np.ndim(eps) == 0 else np.asarray(eps)[seg])
    lower, upper, boxseg, which = _orthant_boxes(C, M, kept, seg)
    below = lower > -np.inf
    counts = (box_counts(X, ends, lower, upper, boxseg)
              + 0.5 * tie_counts(X, ends, np.where(below, lower, upper),
                                 below | (upper < np.inf), boxseg))
    num, den = counts[:len(C)], counts[len(C):][which]
    if np.any(num > den):
        raise RuntimeError("numerator exceeded denominator (counting bug)")
    return _record(num, den, kept)


def tp_density_scores(density, C, m, integrator, eps: float = DROP_EPS) -> TpRows:
    """Density-form tp of each row of the float array C (q x p) with
    prototype m, numerator and denominator as probability masses;
    multivariate_tp_density is the one-query case. The numerator box lies
    beyond c and the denominator box beyond m, both in c's direction from
    m; a dropped coordinate is unbounded. One box_masses call integrates
    the q numerator boxes and one denominator box per orthant pattern, so
    all boxes of the batch share one draw set."""
    kept = _kept(C, m, eps)
    lower, upper, _, which = _orthant_boxes(C, np.broadcast_to(m, C.shape), kept,
                                            np.zeros(len(C), dtype=np.intp))
    masses = box_masses(density, lower, upper, integrator)
    return _record(masses[:len(C)], masses[len(C):][which], kept)


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
    rows = tp_scores([arr], [np.array([[c]])], np.array([[m]]), 0.0)
    weighted = float(rows.numerator[0])
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
    denominator (no training mass in c's direction) -> score 0. An empty
    group, a non-finite group row, c or m, or an eps below 0, is an error.
    """
    vals = as_values(X)
    if vals.shape[0] == 0:
        raise ValueError("multivariate_tp: empty group")
    require_finite_rows(vals, "multivariate_tp", "group")
    return _one_query(lambda C, m: tp_scores([vals], [C], m[None], eps),
                      c, m, vals.shape[1], "multivariate_tp")


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
