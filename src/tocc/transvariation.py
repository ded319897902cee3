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

from dataclasses import dataclass, field

import numpy as np

from .numcore import as_values

DROP_EPS = 1e-12


@dataclass(frozen=True)
class SignCounts:
    """Counts of strict (s) and tied (s_tie) transvariating units among n_eff."""

    s: int
    s_tie: int
    n_eff: int

    @property
    def weighted(self) -> float:
        return self.s + 0.5 * self.s_tie


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


def sign_counts(X, c, m) -> SignCounts:
    """Units whose per-coordinate products (x_iu - c_u)(m_u - c_u) are all
    negative (strict) or all zero (tie)."""
    vals = as_values(X)
    c = np.atleast_1d(np.asarray(c, dtype=float))
    m = np.atleast_1d(np.asarray(m, dtype=float))
    prod = (vals - c) * (m - c)
    strict = int(np.all(prod < 0, axis=1).sum())
    tie = int(np.all(prod == 0, axis=1).sum())
    return SignCounts(strict, tie, vals.shape[0])


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
    prod = (arr - c) * (m - c)
    s = int((prod < 0).sum())
    s_tie = int((prod == 0).sum())
    weighted = s + 0.5 * s_tie
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
    denominator (no training mass in c's direction) -> score 0.
    """
    vals = as_values(X)
    c = np.atleast_1d(np.asarray(c, dtype=float))
    m = np.atleast_1d(np.asarray(m, dtype=float))
    if c.shape[0] != vals.shape[1] or m.shape[0] != vals.shape[1]:
        raise ValueError("multivariate_tp: dimension mismatch")

    dropped = np.flatnonzero(np.abs(c - m) <= eps)
    keep = np.flatnonzero(np.abs(c - m) > eps)
    n = vals.shape[0]
    if keep.size == 0:
        return TpScore(1.0, float(n), float(n), dropped.tolist())

    sub = vals[:, keep]
    num = sign_counts(sub, c[keep], m[keep])
    # Counts on the shifted data Y = X - (m - c) reduce algebraically to
    # products (x - m)(m - c); the direct form keeps ties at m exact instead
    # of letting the shift's rounding break them.
    den_prod = (sub - m[keep]) * (m[keep] - c[keep])
    den_strict = int(np.all(den_prod < 0, axis=1).sum())
    den_tie = int(np.all(den_prod == 0, axis=1).sum())
    den = SignCounts(den_strict, den_tie, sub.shape[0])
    if den.weighted == 0.0:
        return TpScore(0.0, num.weighted, 0.0, dropped.tolist())
    ratio = num.weighted / den.weighted
    if not ratio <= 1.0 + 1e-12:
        raise RuntimeError("numerator exceeded denominator (counting bug)")
    return TpScore(_clamp01(ratio), num.weighted, den.weighted, dropped.tolist())


def multivariate_tp_density(density, c, m, integrator, eps: float = DROP_EPS) -> TpScore:
    """Density-based multivariate tp: ratio of two orthant-directed box masses.

    Numerator integrates the target density over the region beyond c in the
    orthant direction of c relative to m (per coordinate: [c_u, inf) when
    c_u >= m_u, else (-inf, c_u]); the denominator integrates beyond m in the
    same direction. Tied coordinates are dropped exactly as in the counting
    form (their bounds collapse to the full axis on both sides). Both masses
    are estimated on one common sample set so Monte Carlo noise partially
    cancels in the ratio; a denominator below 1e-12 flags degeneracy and
    scores 0.
    """
    c = np.atleast_1d(np.asarray(c, dtype=float))
    m = np.atleast_1d(np.asarray(m, dtype=float))
    if c.shape[0] != density.p or m.shape[0] != density.p:
        raise ValueError("multivariate_tp_density: dimension mismatch")

    dropped = np.flatnonzero(np.abs(c - m) <= eps)
    keep = np.flatnonzero(np.abs(c - m) > eps)
    if keep.size == 0:
        return TpScore(1.0, 1.0, 1.0, dropped.tolist())

    # Reuse the density object itself when nothing is dropped so the
    # integrator's sample cache can hit across queries.
    marginal = density if keep.size == density.p else density.marginal(keep)
    ck, mk = c[keep], m[keep]
    up = ck >= mk
    num_lower = np.where(up, ck, -np.inf)
    num_upper = np.where(up, np.inf, ck)
    den_lower = np.where(up, mk, -np.inf)
    den_upper = np.where(up, np.inf, mk)

    if keep.size == 1:
        num_mass = marginal.interval_probability(num_lower[0], num_upper[0])
        den_mass = marginal.interval_probability(den_lower[0], den_upper[0])
    else:
        samples = integrator.samples(marginal)
        inside_num = np.all((samples >= num_lower) & (samples <= num_upper), axis=1)
        inside_den = np.all((samples >= den_lower) & (samples <= den_upper), axis=1)
        num_mass = inside_num.mean()
        den_mass = inside_den.mean()

    if den_mass < 1e-12:
        return TpScore(0.0, float(num_mass), float(den_mass), dropped.tolist(),
                       degenerate=True)
    return TpScore(_clamp01(float(num_mass / den_mass)),
                   float(num_mass), float(den_mass), dropped.tolist())


def independent_product_tp(per_coord_scores) -> TpScore:
    """Under coordinate independence, multivariate tp is the product of the
    univariate marginal scores."""
    scores = list(per_coord_scores)
    if not scores:
        raise ValueError("independent_product_tp: empty score list")
    value = 1.0
    for s in scores:
        value *= s.value
    return TpScore(_clamp01(value), value, 1.0)
