"""Reference implementations of the transvariation scores, the EM step,
the ROC sweep, the CSV reader and writer and the model-file writer and
reader.

A frozen copy of the straightforward one-query-at-a-time scoring code the
library used before its batched orthant-counting kernel: sign_counts, the
univariate counting score, the counting and density forms of the
multivariate score, the three calibration comprehensions and the predict
loops; the per-component EM iteration and Gaussian log-density the library
used before its stacked EM step, and the mixture search that ran each
restart on its own standardized copy of the rows; the per-cut-point ROC
loop; the row-by-row CSV reader and the cell-by-cell CSV writer; the
hand-written model save/load the library used before its
persistence table; orthant_probability and the batched density score as they
were before both integrated their boxes through density.box_masses (the
three density scores take their Monte Carlo draws as column subsets of the
full mixture's draws, as box_masses does, and their closed-form marginals
from _marginal); and the one-candidate-at-a-time random-projection
selection, the per-projection VIP loop and the per-column PCA sign fix the
feature-selection layer used before it worked on stacked arrays; and PAM
with whole n x n temporaries and the per-query product KDE, as they were
before both worked in blocks; and the counting form one group per call
with one denominator box per query, the per-prototype calibration and
predict, and the ensemble predict that calls predict once per view, as they
were before every segment of an ensemble was counted in one call. Beside
the frozen copies, comparison_tp counts
the multivariate score straight from its definition by plain comparisons:
the product tests agree with it unless a product of differences underflows
or a difference overflows.
The differential tests compare the library against it with np.array_equal
or byte equality. Only tests import this module.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import logsumexp, ndtr

from tocc import __version__
from tocc.baselines import BaselineModel
from tocc.classifier import PamResult, PredictionResult, ToccModel
from tocc.density import (MixtureDensity, OrthantIntegrator, box_masses,
                          kmeans_lloyd)
from tocc.evaluation import RocCurve
from tocc.featsel import VipRanking
from tocc.io_utils import IngestError
from tocc.numcore import (NONTARGET_LABEL, TARGET_LABEL, DataMatrix, PcaResult,
                          RngStream, as_values, box_counts,
                          empirical_quantile, spatial_median, tie_counts)
from tocc.transvariation import DROP_EPS, TpScore, _kept, _record


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


def comparison_tp(X, c, m, eps: float = DROP_EPS) -> TpScore:
    """The counting form by plain comparisons, one query at a time: a row
    is beyond an anchor a (c for the numerator, m for the denominator) when
    x_u > a_u on every kept coordinate with c_u > m_u and x_u < a_u on the
    others, and ties it when x_u == a_u on every kept coordinate."""
    vals = as_values(X)
    c = np.atleast_1d(np.asarray(c, dtype=float))
    m = np.atleast_1d(np.asarray(m, dtype=float))
    with np.errstate(over="ignore"):  # an infinite c - m is kept
        keep = np.abs(c - m) > eps
    dropped = np.flatnonzero(~keep).tolist()
    n = vals.shape[0]
    if not keep.any():
        return TpScore(1.0, float(n), float(n), dropped)
    sub, up = vals[:, keep], c[keep] > m[keep]

    def weighted(a):
        beyond = np.all(np.where(up, sub > a, sub < a), axis=1)
        ties = np.all(sub == a, axis=1)
        return beyond.sum() + 0.5 * ties.sum()

    num, den = weighted(c[keep]), weighted(m[keep])
    if den == 0.0:
        return TpScore(0.0, num, 0.0, dropped)
    return TpScore(min(1.0, num / den), num, den, dropped)


def _marginal(density, coords) -> MixtureDensity:
    """MixtureDensity.marginal: the exact marginal mixture over a coordinate
    subset."""
    idx = np.atleast_1d(np.asarray(coords, dtype=int))
    return MixtureDensity(density.weights.copy(), density.means[:, idx],
                          density.covariances[:, idx[:, None], idx[None, :]])


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

    marginal = density if keep.size == density.p else _marginal(density, keep)
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
        samples = integrator.samples(density)[:, keep]
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
# Orthant masses before box_masses: orthant_probability and the batched
# density score each integrated their own boxes
# ---------------------------------------------------------------------------

def _interval_masses(marginal, lower, upper):
    """MixtureDensity.interval_probability: P(lower <= X <= upper) of a
    univariate mixture per pair of bounds, a float for scalar bounds."""
    sd = np.sqrt(marginal.covariances[:, 0, 0])
    mu = marginal.means[:, 0]
    hi = ndtr((np.asarray(upper, dtype=float)[..., None] - mu) / sd)
    lo = ndtr((np.asarray(lower, dtype=float)[..., None] - mu) / sd)
    mass = np.sum(marginal.weights * (hi - lo), axis=-1)
    return float(mass) if mass.ndim == 0 else mass


def orthant_probability(density, lower, upper, integrator) -> float:
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    if lower.shape[0] != density.p or upper.shape[0] != density.p:
        raise ValueError("orthant_probability: bound dimension mismatch")
    if np.any(lower > upper):
        raise ValueError("orthant_probability: lower bound exceeds upper bound")
    active = np.flatnonzero(np.isfinite(lower) | np.isfinite(upper))
    if active.size == 0:
        return 1.0
    marginal = density if active.size == density.p else _marginal(density, active)
    if active.size == 1:
        return _interval_masses(marginal, lower[active[0]], upper[active[0]])
    draws = integrator.samples(density)[:, active]
    inside = np.all((draws >= lower[active]) & (draws <= upper[active]), axis=1)
    return float(inside.mean())


def tp_density_scores(density, C, m, integrator, eps: float = DROP_EPS):
    """(value, numerator mass, denominator mass) of each row of C, one
    pattern of kept coordinates at a time; a draw is in a box when every
    product (x_u - a_u)(m_u - c_u) <= 0, a = c for the numerator and m for
    the denominator."""
    num, den = np.ones((2, C.shape[0]))
    patterns, which = np.unique(np.abs(C - m) > eps, axis=0, return_inverse=True)
    for j, pattern in enumerate(patterns):
        if not pattern.any():
            continue
        kept = np.flatnonzero(pattern)
        rows = np.flatnonzero(which.reshape(-1) == j)
        ck, mk = C[np.ix_(rows, kept)], m[kept]
        marginal = density if kept.size == density.p else _marginal(density, kept)
        if kept.size == 1:
            up = ck[:, 0] >= mk[0]
            for out, bound in ((num, ck[:, 0]), (den, mk[0])):
                out[rows] = _interval_masses(marginal, np.where(up, bound, -np.inf),
                                             np.where(up, np.inf, bound))
            continue
        draws = integrator.samples(density)[:, kept]
        for out, anchors in ((num, ck), (den, np.broadcast_to(mk, ck.shape))):
            inside = [np.all((draws - a) * (mk - c) <= 0, axis=1).sum()
                      for a, c in zip(anchors, ck)]
            out[rows] = np.array(inside) / draws.shape[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.where(den < 1e-12, 0.0, np.clip(num / den, 0.0, 1.0))
    return value, num, den


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


# ---------------------------------------------------------------------------
# Per-component EM and Gaussian log-density
# ---------------------------------------------------------------------------
# The EM iteration as it was before it was stacked over components and
# restarts: one restart at a time, one Cholesky, solve_triangular and
# covariance product per component, and scipy's logsumexp; each run
# standardizes the rows, seeds itself and maps
# its fit back to data units, and fit_gmm keeps the BIC winner of the best
# restarts, as the search was before it standardized once per call.
# kmeans_lloyd is unchanged and shared; _regularize_spd is the copy that
# returns the ridged covariance alone.

_LOG_2PI = float(np.log(2.0 * np.pi))


def component_logpdf(density, X) -> np.ndarray:
    """n x G matrix of per-component Gaussian log densities."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    chols = [np.linalg.cholesky(c) for c in density.covariances]
    out = np.empty((X.shape[0], density.n_components))
    for g, (mu, L) in enumerate(zip(density.means, chols)):
        z = solve_triangular(L, (X - mu).T, lower=True)
        out[:, g] = -0.5 * (z * z).sum(axis=0) \
            - np.log(np.diag(L)).sum() - 0.5 * density.p * _LOG_2PI
    return out


def logpdf(density, X) -> np.ndarray:
    lp = component_logpdf(density, X) \
        + np.log(np.maximum(density.weights, 1e-300))
    return logsumexp(lp, axis=1)


def _initial_params(vals, labels, k, reg_base):
    n, p = vals.shape
    weights = np.empty(k)
    means = np.empty((k, p))
    covs = np.empty((k, p, p))
    global_cov = np.cov(vals, rowvar=False, ddof=1).reshape(p, p)
    for g in range(k):
        members = vals[labels == g]
        weights[g] = max(len(members), 1) / n
        if len(members) == 0:
            means[g] = vals.mean(axis=0)
            covs[g] = global_cov
        else:
            means[g] = members.mean(axis=0)
            covs[g] = np.cov(members, rowvar=False, ddof=0).reshape(p, p) \
                if len(members) > 1 else global_cov
        covs[g] += reg_base * np.eye(p)
    weights /= weights.sum()
    return weights, means, covs


def _regularize_spd(cov: np.ndarray) -> np.ndarray | None:
    """Nudge the diagonal until Cholesky succeeds; None if hopeless."""
    bump = 1e-8 * max(np.trace(cov) / cov.shape[0], 1e-12)
    for _ in range(8):
        try:
            np.linalg.cholesky(cov)
            return cov
        except np.linalg.LinAlgError:
            cov = cov + bump * np.eye(cov.shape[0])
            bump *= 10.0
    return None


def _chol_all(covs):
    """Cholesky factors for every component, ridging failures; returns
    (factors, covs, bumped) or None if some component is beyond repair."""
    chols = []
    out = covs
    bumped = False
    for g, cov in enumerate(covs):
        try:
            chols.append(np.linalg.cholesky(cov))
        except np.linalg.LinAlgError:
            fixed = _regularize_spd(cov)
            if fixed is None:
                return None
            if out is covs:
                out = covs.copy()
            out[g] = fixed
            chols.append(np.linalg.cholesky(fixed))
            bumped = True
    return chols, out, bumped


def _log_joint(z, weights, means, chols):
    n, p = z.shape
    out = np.empty((n, len(weights)))
    half_log_2pi = 0.5 * p * _LOG_2PI
    # A collapsed component can push the quadratic form past float range;
    # the resulting -inf/nan is caught by the caller's degeneracy check.
    with np.errstate(over="ignore"):
        for g, (mu, L) in enumerate(zip(means, chols)):
            y = solve_triangular(L, (z - mu).T, lower=True)
            out[:, g] = -0.5 * (y * y).sum(axis=0) - np.log(np.diag(L)).sum() \
                - half_log_2pi
    return out + np.log(np.maximum(weights, 1e-300))


def _em_single(vals, k, gen, tol=1e-6, max_iter=500):
    """One EM run; returns (mixture, loglik) or None on degeneracy."""
    n, p = vals.shape
    center = vals.mean(axis=0)
    scale = vals.std(axis=0, ddof=0)
    scale[scale == 0] = 1.0
    z = (vals - center) / scale

    reg_base = 1e-8 * max(np.trace(np.cov(z, rowvar=False, ddof=1).reshape(p, p)) / p,
                          1e-12)
    _, labels = kmeans_lloyd(z, k, gen)
    weights, means, covs = _initial_params(z, labels, k, reg_base)

    prev_ll = -np.inf
    prev_state = None
    state = None
    ll = -np.inf
    bumped = False
    for _ in range(max_iter):
        refit = _chol_all(covs)
        if refit is None:
            return None
        chols, covs, bumped_now = refit
        bumped = bumped or bumped_now
        # The cutoff is sqrt(eps / 1e-6), the pivot ratio below which
        # rounding alone can lower the log-likelihood by the 1e-6 fall test.
        fragile = any(np.diag(L).min()
                      < np.sqrt(np.finfo(float).eps / 1e-6) * max(np.diag(L).max(), 1.0)
                      for L in chols)

        log_joint = _log_joint(z, weights, means, chols)
        row_ll = logsumexp(log_joint, axis=1)
        ll = float(row_ll.sum())
        if not np.isfinite(ll):
            return None
        state = (weights, means, covs)
        if np.isfinite(prev_ll) and ll < prev_ll - 1e-6 * max(1.0, abs(prev_ll)):
            if not (bumped or fragile):
                raise RuntimeError("EM log-likelihood decreased on a healthy step")
            state, ll = prev_state, prev_ll
            break
        if ll - prev_ll < tol and np.isfinite(prev_ll):
            break
        prev_ll, prev_state = ll, state

        resp = np.exp(log_joint - row_ll[:, None])
        nk = resp.sum(axis=0)
        if np.any(nk < 1e-10):
            return None
        weights = nk / n
        means = (resp.T @ z) / nk[:, None]
        covs = np.empty((k, p, p))
        bumped = False
        for g in range(k):
            diff = z - means[g]
            cov = (resp[:, g][:, None] * diff).T @ diff / nk[g]
            covs[g] = 0.5 * (cov + cov.T)

    weights, means, covs = state
    out_means = means * scale + center
    out_covs = covs * scale[None, :, None] * scale[None, None, :]
    fixed = [_regularize_spd(c) for c in out_covs]
    if any(f is None for f in fixed):
        return None
    final = MixtureDensity(weights.copy(), out_means, np.array(fixed))
    return final, ll - n * float(np.log(scale).sum())


def fit_gmm(vals, components_range, rng, n_restarts=5) -> MixtureDensity:
    """The BIC winner over lo..hi of each G's best restart, the first
    among equals; a G with n <= G(p + 1) is skipped."""
    n, p = vals.shape
    lo, hi = components_range
    best = None
    for k in range(lo, hi + 1):
        if k < 1 or n <= k * (p + 1):
            continue
        best_run = None
        for r in range(n_restarts):
            result = _em_single(vals, k, rng.child(k).child(r).generator())
            if result is not None and (best_run is None or result[1] > best_run[1]):
                best_run = result
        if best_run is None:
            continue
        n_params = (k - 1) + k * p + k * p * (p + 1) // 2
        bic = 2.0 * best_run[1] - n_params * np.log(n)
        if best is None or bic > best[1]:
            best = (best_run[0], bic)
    if best is None:
        raise ValueError("fit_gmm: every candidate component count was degenerate")
    return best[0]


# ---------------------------------------------------------------------------
# ROC sweep, one cut point at a time
# ---------------------------------------------------------------------------

def roc_curve(scores, is_target) -> RocCurve:
    s = np.asarray(scores, dtype=float)
    tgt = np.asarray(is_target, dtype=bool)
    cuts = np.unique(s)[::-1]
    n_t, n_nt = tgt.sum(), (~tgt).sum()
    fpr = [0.0]
    tpr = [0.0]
    ths = [np.inf]
    for c in cuts:
        tpr.append(float((s[tgt] >= c).sum() / n_t))
        fpr.append(float((s[~tgt] >= c).sum() / n_nt))
        ths.append(float(c))
    fpr, tpr, ths = np.array(fpr), np.array(tpr), np.array(ths)
    auc = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))
    return RocCurve(fpr, tpr, ths, auc)


# ---------------------------------------------------------------------------
# CSV files, one row and one cell at a time
# ---------------------------------------------------------------------------

def ingest_csv(path, label_column=None, target_labels=None,
               nontarget_labels=None, normalize_by=None) -> DataMatrix:
    if target_labels is None and label_column is not None:
        target_labels = {TARGET_LABEL}
        nontarget_labels = nontarget_labels or {NONTARGET_LABEL}
    target_set = {str(v) for v in target_labels} if target_labels else set()
    nontarget_set = {str(v) for v in nontarget_labels} if nontarget_labels else None

    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise IngestError(f"{path}: empty file") from None
    header = [h.strip() for h in header]

    label_idx = None
    if label_column is not None:
        if label_column not in header:
            raise IngestError(f"{path}: missing column '{label_column}'")
        label_idx = header.index(label_column)
    norm_idx = None
    if normalize_by is not None:
        if normalize_by not in header:
            raise IngestError(f"{path}: missing column '{normalize_by}'")
        norm_idx = header.index(normalize_by)
        if norm_idx == label_idx:
            raise IngestError(f"{path}: normalize_by cannot be the label column")

    feature_idx = [j for j in range(len(header)) if j not in (label_idx, norm_idx)]
    feature_names = [header[j] for j in feature_idx]

    def number(record, r, j):
        try:
            cell = float(record[j])
        except ValueError:
            raise IngestError(f"{path}: row {r}, column '{header[j]}': "
                              f"non-numeric cell '{record[j]}'") from None
        if not np.isfinite(cell):
            raise IngestError(f"{path}: row {r}, column '{header[j]}': "
                              f"non-finite cell '{record[j]}'")
        return cell

    rows, labels = [], []
    for r, record in enumerate(reader, start=2):
        if not record:
            continue
        if len(record) != len(header):
            raise IngestError(f"{path}: row {r}: expected {len(header)} cells, "
                              f"got {len(record)}")
        vals = [number(record, r, j) for j in feature_idx]
        if norm_idx is not None:
            ref = number(record, r, norm_idx)
            if ref == 0:
                raise IngestError(f"{path}: row {r}, column '{normalize_by}': "
                                  f"zero reference value")
            vals = [v / ref for v in vals]
        rows.append(vals)
        if label_idx is not None:
            raw = record[label_idx].strip()
            if raw in target_set:
                labels.append(TARGET_LABEL)
            elif nontarget_set is None or raw in nontarget_set:
                labels.append(NONTARGET_LABEL)
            else:
                raise IngestError(f"{path}: row {r}, column '{label_column}': "
                                  f"unknown label '{raw}'")
    if not rows:
        raise IngestError(f"{path}: no data rows")
    return DataMatrix(np.array(rows), feature_names,
                      labels if label_idx is not None else None)


def write_csv(path, header, rows, command, config=None) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# tocc-version: {__version__}\n")
        fh.write(f"# command: {command}\n")
        for key in sorted((config or {}).keys()):
            fh.write(f"# {key}: {config[key]}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _cell(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.bool_,)):
        return bool(v)
    return v


# ---------------------------------------------------------------------------
# Model files, each field list written out by hand
# ---------------------------------------------------------------------------

def _arr(a) -> list:
    return np.asarray(a, dtype=float).tolist()


def _density_to_dict(d):
    if d is None:
        return None
    return {"weights": _arr(d.weights), "means": _arr(d.means),
            "covariances": _arr(d.covariances)}


def _density_from_dict(obj):
    if obj is None:
        return None
    return MixtureDensity(np.array(obj["weights"]), np.array(obj["means"]),
                          np.array(obj["covariances"]))


def _integrator_to_dict(integ):
    if integ is None:
        return None
    return {"method": integ.method, "mc_samples": integ.mc_samples,
            "seed": integ.rng.seed, "stream_id": integ.rng.stream_id}


def _integrator_from_dict(obj):
    if obj is None:
        return None
    return OrthantIntegrator(obj["method"], obj["mc_samples"],
                             RngStream(obj["seed"], obj["stream_id"]))


def save_model(model, path, config=None) -> None:
    doc = {"schema_version": 1, "library_version": __version__,
           "config": config or {}}
    if isinstance(model, ToccModel):
        doc["model"] = "tocc"
        doc["variant"] = model.variant
        doc["sensitivity"] = _arr(model.sensitivity)
        doc["eps"] = model.eps
        doc["prototypes"] = _arr(model.prototypes)
        doc["thresholds"] = _arr(model.thresholds)
        doc["feature_names"] = model.feature_names
        doc["groups"] = [_arr(g) for g in model.groups] if model.groups else None
        doc["density"] = _density_to_dict(model.density)
        doc["integrator"] = _integrator_to_dict(model.integrator)
        if model.pam is not None:
            doc["pam"] = {"medoids": list(model.pam.medoids),
                          "assignment": [int(a) for a in model.pam.assignment],
                          "total_cost": model.pam.total_cost}
    elif isinstance(model, BaselineModel):
        doc["model"] = "baseline"
        doc["kind"] = model.kind
        doc["sensitivity"] = model.sensitivity
        doc["threshold"] = model.threshold
        doc["score_direction"] = model.score_direction
        doc["feature_names"] = model.feature_names
        for name in ("mean", "cov_inv", "bandwidths", "train", "centroids"):
            val = getattr(model, name)
            doc[name] = _arr(val) if val is not None else None
        doc["density"] = _density_to_dict(model.density)
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path):
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema_version") != 1:
        raise ValueError(f"{path}: unsupported schema version "
                         f"{doc.get('schema_version')}")
    try:
        return _model_from_doc(doc, path)
    except KeyError as exc:
        raise ValueError(f"{path}: model file lacks the key {exc}") from None


def _model_from_doc(doc, path):
    if doc["model"] == "tocc":
        pam = None
        if doc.get("pam"):
            pam = PamResult(list(doc["pam"]["medoids"]),
                            np.array(doc["pam"]["assignment"], dtype=int),
                            doc["pam"]["total_cost"])
        return ToccModel(
            variant=doc["variant"],
            prototypes=np.array(doc["prototypes"]),
            thresholds=np.array(doc["thresholds"]),
            sensitivity=np.array(doc["sensitivity"]),
            eps=doc["eps"],
            groups=[np.array(g) for g in doc["groups"]] if doc["groups"] else None,
            density=_density_from_dict(doc["density"]),
            integrator=_integrator_from_dict(doc["integrator"]),
            feature_names=doc["feature_names"],
            pam=pam)
    if doc["model"] == "baseline":
        def arr(key):
            return np.array(doc[key]) if doc.get(key) is not None else None
        return BaselineModel(
            kind=doc["kind"], threshold=doc["threshold"],
            score_direction=doc["score_direction"], sensitivity=doc["sensitivity"],
            mean=arr("mean"), cov_inv=arr("cov_inv"),
            density=_density_from_dict(doc.get("density")),
            bandwidths=arr("bandwidths"), train=arr("train"),
            centroids=arr("centroids"), feature_names=doc["feature_names"])
    raise ValueError(f"{path}: unknown model type '{doc['model']}'")


# ---------------------------------------------------------------------------
# Feature selection: one candidate, projection and column at a time
# ---------------------------------------------------------------------------

def _orthonormal_columns(gen: np.random.Generator, p: int, d: int) -> np.ndarray:
    a = gen.standard_normal((p, d))
    q, r = np.linalg.qr(a)
    # Fix the QR sign ambiguity so the draw is reproducible bit for bit.
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q[:, :d] * signs


def _mad_compactness(projected: np.ndarray) -> float:
    med = np.median(projected, axis=0)
    return float(np.median(np.abs(projected - med), axis=0).sum())


def rp_select(X_target, d: int, b1: int, b2: int, rng: RngStream) -> list[np.ndarray]:
    vals = as_values(X_target)
    p = vals.shape[1]
    gen = rng.generator()
    chosen = []
    for _ in range(b1):
        best = None
        for _ in range(b2):
            proj = _orthonormal_columns(gen, p, d)
            spread = _mad_compactness(vals @ proj)
            if best is None or spread < best[0]:
                best = (spread, proj)
        chosen.append(best[1])
    return chosen


def compute_vip(projections, feature_sds) -> VipRanking:
    sds = np.asarray(feature_sds, dtype=float)
    if np.any(sds <= 0):
        raise ValueError("compute_vip: feature standard deviations must be positive")
    projections = list(projections)
    if not projections:
        raise ValueError("compute_vip: no projections")
    p = projections[0].shape[0]
    ci = np.empty((len(projections), p))
    for i, proj in enumerate(projections):
        weighted = np.abs(proj) * sds[:, None]
        norms = np.sqrt(((proj * sds[:, None]) ** 2).sum(axis=0))
        if np.any(norms == 0):
            raise ValueError("compute_vip: projection with a zero-norm column")
        ci[i] = (weighted / norms).sum(axis=1)
    vip = np.median(ci, axis=0)
    ranking = np.lexsort((np.arange(p), -vip))
    return VipRanking(vip, ranking)


def pca(X) -> PcaResult:
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
    eigvals = np.where(np.abs(eigvals) < 1e-12 * max(1.0, abs(eigvals[0])), 0.0, eigvals)
    eigvals = np.maximum(eigvals, 0.0)
    for j in range(p):
        lead = np.argmax(np.abs(eigvecs[:, j]))
        if eigvecs[lead, j] < 0:
            eigvecs[:, j] = -eigvecs[:, j]
    zero = eigvals <= 1e-12 * max(1.0, eigvals[0] if eigvals.size else 1.0)
    return PcaResult(eigvals, eigvecs, mean, zero)


# ---------------------------------------------------------------------------
# PAM with whole n x n temporaries, and the per-query product KDE
# ---------------------------------------------------------------------------

def _pairwise_distances(vals: np.ndarray) -> np.ndarray:
    sq = (vals ** 2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * vals @ vals.T
    np.fill_diagonal(d2, 0.0)
    return np.sqrt(np.maximum(d2, 0.0))


def pam(X, k: int, max_swaps: int = 1000) -> PamResult:
    vals = as_values(X)
    n = vals.shape[0]
    if k > n:
        raise ValueError(f"pam: k={k} exceeds n={n}")
    if k < 1:
        raise ValueError("pam: k must be at least 1")
    dist = _pairwise_distances(vals)

    medoids = [int(np.argmin(dist.sum(axis=1)))]
    nearest = dist[:, medoids[0]].copy()
    while len(medoids) < k:
        reduction = np.maximum(nearest[:, None] - dist, 0.0).sum(axis=0)
        reduction[medoids] = -np.inf
        j = int(np.argmax(reduction))
        medoids.append(j)
        nearest = np.minimum(nearest, dist[:, j])
    medoids.sort()

    swaps = 0
    cost = _assignment_cost(dist, medoids)[2]
    while swaps < max_swaps:
        nearest_pos, d1, d2 = _nearest_two(dist, medoids)
        improved = False
        for pos in range(len(medoids)):
            base = np.where(nearest_pos == pos, d2, d1)
            new_costs = np.minimum(base[:, None], dist).sum(axis=0)
            for j in range(n):
                if j in medoids:
                    continue
                if new_costs[j] < cost:
                    medoids[pos] = j
                    medoids.sort()
                    cost = float(new_costs[j])
                    swaps += 1
                    improved = True
                    break
            if improved:
                break
        if not improved:
            break

    assignment, d1, final_cost = _assignment_cost(dist, medoids)
    if not final_cost <= cost + 1e-9:
        raise RuntimeError("PAM cost increased during SWAP")
    return PamResult(list(medoids), assignment, final_cost)


def _nearest_two(dist, medoids):
    cols = dist[:, medoids]
    if cols.shape[1] == 1:
        pos = np.zeros(dist.shape[0], dtype=int)
        return pos, cols[:, 0], np.full(dist.shape[0], np.inf)
    order = np.argsort(cols, axis=1, kind="stable")
    pos = order[:, 0]
    rows = np.arange(dist.shape[0])
    return pos, cols[rows, order[:, 0]], cols[rows, order[:, 1]]


def _assignment_cost(dist, medoids):
    cols = dist[:, medoids]
    assignment = cols.argmin(axis=1)
    d1 = cols[np.arange(dist.shape[0]), assignment]
    return assignment, d1, float(d1.sum())


def product_kde(train: np.ndarray, h: np.ndarray, queries: np.ndarray) -> np.ndarray:
    out = np.empty(queries.shape[0])
    norm = 1.0 / (np.sqrt(2.0 * np.pi) * h).prod()
    for i, q in enumerate(queries):
        z = (q - train) / h
        out[i] = norm * np.exp(-0.5 * (z ** 2).sum(axis=1)).mean()
    return out


# ---------------------------------------------------------------------------
# The counting form one group per call, with one denominator box per query,
# and the ensemble predict that calls predict once per view
# ---------------------------------------------------------------------------
# transvariation.tp_scores and _orthant_boxes, classifier.predict and its
# calibration, and featsel.predict_ensemble as they were before every
# (view, cluster) segment was counted in one call and each denominator box
# once per orthant pattern. The library's counters now take the rows of
# many segments; these copies hand them one segment.

def _orthant_boxes(C, m, kept):
    """The 2q x p bounds (lower, upper) of the open orthant boxes of the
    queries C (q x p) with prototype m: box i lies beyond the anchor a =
    C[i] and box q + i beyond a = m, both in C[i]'s direction from m."""
    up = C > m
    lo, hi = kept & up, kept & ~up
    return (np.concatenate([np.where(lo, C, -np.inf), np.where(lo, m, -np.inf)]),
            np.concatenate([np.where(hi, C, np.inf), np.where(hi, m, np.inf)]))


def tp_scores(X, C, m, eps: float = DROP_EPS):
    """Counting-form tp of each row of C (q x p) against the rows of X and
    prototype m: 2q boxes counted in one box_counts call plus half the rows
    tying each box's anchor."""
    vals = as_values(X)
    kept = _kept(C, m, eps)
    anchors = np.concatenate([C, np.broadcast_to(m, C.shape)])
    lower, upper = _orthant_boxes(C, m, kept)
    ends, seg = [len(vals)], np.zeros(len(anchors), dtype=np.intp)
    num, den = (box_counts(vals, ends, lower, upper, seg)
                + 0.5 * tie_counts(vals, ends, anchors,
                                   np.concatenate([kept, kept]), seg)
                ).reshape(2, -1)
    if np.any(num > den):
        raise RuntimeError("numerator exceeded denominator (counting bug)")
    return _record(num, den, kept)


def box_density_scores(density, C, m, integrator, eps: float = DROP_EPS):
    """tp_density_scores with the 2q boxes of _orthant_boxes."""
    kept = _kept(C, m, eps)
    num, den = box_masses(density, *_orthant_boxes(C, m, kept),
                          integrator).reshape(2, -1)
    return _record(num, den, kept)


def _score(model, g, Z):
    if model.variant == "db":
        return box_density_scores(model.density, Z, model.prototypes[g],
                                  model.integrator, model.eps)
    return tp_scores(model.groups[g], Z, model.prototypes[g], model.eps)


def calibrated_thresholds(model, own_rows) -> np.ndarray:
    """Threshold g: the (1 - s_g) type-1 quantile of the scores of
    own_rows[g] against prototype g, one call per prototype."""
    return np.array([empirical_quantile(_score(model, g, rows).value, 1.0 - sg)
                     for g, (rows, sg) in enumerate(zip(own_rows,
                                                        model.sensitivity))])


def predict(model, Z) -> PredictionResult:
    """Nearest prototype, then one scoring call per prototype."""
    vals = as_values(Z)
    clusters = np.zeros(vals.shape[0], dtype=np.intp)
    if model.n_prototypes > 1:
        with np.errstate(over="ignore"):
            dist = np.linalg.norm(vals[:, None] - model.prototypes, axis=2)
        clusters = dist.argmin(1)
    scores = np.empty(vals.shape[0])
    for g in range(model.n_prototypes):
        rows = clusters == g
        scores[rows] = _score(model, g, vals[rows]).value
    return PredictionResult(scores >= model.thresholds[clusters], scores,
                            clusters if model.variant == "pam_df" else None)


def predict_ensemble(ensemble, Z) -> PredictionResult:
    """Strict-majority vote, one predict call per view."""
    vals = as_values(Z)
    votes = np.zeros(vals.shape[0])
    for proj, model in zip(ensemble.projections, ensemble.sub_models):
        votes += predict(model, vals @ proj).accept
    fraction = votes / len(ensemble.sub_models)
    return PredictionResult(fraction > 0.5, fraction, None)
