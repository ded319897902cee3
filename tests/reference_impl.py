"""Per-query reference implementation of the transvariation scores.

A frozen copy of the straightforward one-query-at-a-time scoring code the
library used before its batched orthant-counting kernel: sign_counts, the
univariate counting score, the counting and density forms of the
multivariate score, the three calibration comprehensions and the predict
loops. The differential tests compare the library against it with
np.array_equal. Only tests import this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from tocc.numcore import as_values, empirical_quantile, spatial_median
from tocc.transvariation import DROP_EPS, TpScore


@dataclass(frozen=True)
class SignCounts:
    """Counts of strict (s) and tied (s_tie) transvariating units among n_eff."""

    s: int
    s_tie: int
    n_eff: int

    @property
    def weighted(self) -> float:
        return self.s + 0.5 * self.s_tie


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


def univariate_tp(xs, c: float, m: float) -> TpScore:
    arr = np.asarray(xs, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("univariate_tp: empty input")
    prod = (arr - c) * (m - c)
    s = int((prod < 0).sum())
    s_tie = int((prod == 0).sum())
    weighted = s + 0.5 * s_tie
    value = _clamp01(2.0 * weighted / arr.size)
    return TpScore(value, weighted, arr.size / 2.0)


def multivariate_tp(X, c, m, eps: float = DROP_EPS) -> TpScore:
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


def interval_probability(marginal, lower: float, upper: float) -> float:
    """P(lower <= X <= upper) for a univariate mixture, closed form."""
    sd = np.sqrt(marginal.covariances[:, 0, 0])
    mu = marginal.means[:, 0]
    hi = ndtr((upper - mu) / sd) if np.isfinite(upper) else np.ones_like(mu)
    lo = ndtr((lower - mu) / sd) if np.isfinite(lower) else np.zeros_like(mu)
    return float(np.sum(marginal.weights * (hi - lo)))


def multivariate_tp_density(density, c, m, integrator,
                            eps: float = DROP_EPS) -> TpScore:
    c = np.atleast_1d(np.asarray(c, dtype=float))
    m = np.atleast_1d(np.asarray(m, dtype=float))
    if c.shape[0] != density.p or m.shape[0] != density.p:
        raise ValueError("multivariate_tp_density: dimension mismatch")

    dropped = np.flatnonzero(np.abs(c - m) <= eps)
    keep = np.flatnonzero(np.abs(c - m) > eps)
    if keep.size == 0:
        return TpScore(1.0, 1.0, 1.0, dropped.tolist())

    marginal = density if keep.size == density.p else density.marginal(keep)
    ck, mk = c[keep], m[keep]
    up = ck >= mk
    num_lower = np.where(up, ck, -np.inf)
    num_upper = np.where(up, np.inf, ck)
    den_lower = np.where(up, mk, -np.inf)
    den_upper = np.where(up, np.inf, mk)

    if keep.size == 1:
        num_mass = interval_probability(marginal, num_lower[0], num_upper[0])
        den_mass = interval_probability(marginal, den_lower[0], den_upper[0])
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


# ---------------------------------------------------------------------------
# Calibration comprehensions and predict loops
# ---------------------------------------------------------------------------

def df_threshold(X_target, s: float, eps: float = DROP_EPS) -> float:
    vals = as_values(X_target)
    proto = spatial_median(vals)
    scores = [multivariate_tp(vals, row, proto, eps).value for row in vals]
    return empirical_quantile(scores, 1.0 - s)


def db_threshold(vals, s, density, proto, integrator, eps=DROP_EPS) -> float:
    scores = [multivariate_tp_density(density, row, proto, integrator, eps).value
              for row in vals]
    return empirical_quantile(scores, 1.0 - s)


def pam_thresholds(vals, result, s_arr, eps=DROP_EPS) -> np.ndarray:
    k = len(result.medoids)
    prototypes = vals[result.medoids]
    thresholds = np.empty(k)
    for g in range(k):
        members = vals[result.assignment == g]
        scores = [multivariate_tp(members, row, prototypes[g], eps).value
                  for row in members]
        thresholds[g] = empirical_quantile(scores, 1.0 - s_arr[g])
    return thresholds


def predict_scores(model, Z):
    """(scores, clusters) of every row of Z, one query at a time."""
    vals = as_values(Z)
    n = vals.shape[0]
    scores = np.empty(n)
    if model.variant == "pam_df":
        clusters = np.empty(n, dtype=int)
        d = np.linalg.norm(vals[:, None, :] - model.prototypes[None, :, :], axis=2)
        clusters[:] = d.argmin(axis=1)
        for i in range(n):
            g = clusters[i]
            scores[i] = multivariate_tp(model.groups[g], vals[i],
                                        model.prototypes[g], model.eps).value
        return scores, clusters

    proto = model.prototypes[0]
    if model.variant == "df":
        for i in range(n):
            scores[i] = multivariate_tp(model.groups[0], vals[i], proto,
                                        model.eps).value
    else:
        for i in range(n):
            scores[i] = multivariate_tp_density(model.density, vals[i], proto,
                                                model.integrator, model.eps).value
    return scores, None
