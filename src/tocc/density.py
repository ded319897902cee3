"""Gaussian-mixture density estimation and orthant-region integration.

The mixture backs the density-based classifier variant and the Mix-Gauss
baseline. Fitting is plain EM with full covariances, k-means-seeded restarts
that iterate together as one stacked EM loop, and BIC model selection over a
component range. Orthant/box probabilities are
closed-form in one dimension and Monte Carlo above, with a fixed stream so
every evaluation of the same integrator replays the same sample set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dtrtrs
from scipy.special import ndtr

from .numcore import (DataMatrix, RngStream, Settings, as_queries, as_values,
                      box_counts, check_setting, require_finite_rows,
                      require_symmetric)

_LOG_2PI = float(np.log(2.0 * np.pi))
_KMEANS_MAX_ITER = 100
_EM_TOL = 1e-6        # stop once an EM step gains less log-likelihood
_EM_MAX_ITER = 500
_EM_FALL = 1e-6       # a relative log-likelihood drop larger than this is a fall
# A factor is fragile (a component collapsing) below this pivot ratio. The
# log-likelihood's rounding grows like kappa * u, with u = eps and kappa
# about (pivot ratio)^-2 the covariance's condition number, so it can fall
# by _EM_FALL relative once the ratio is below sqrt(u / _EM_FALL) ~ 1.49e-5.
_EM_FRAGILE_PIVOT = float(np.sqrt(np.finfo(float).eps / _EM_FALL))


def _sum_last(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=-1) in the order numpy sums a row whose entries are
    contiguous, its pairwise_sum (a left fold below 8 terms, eight
    interleaved accumulators up to 128, halves cut at a multiple of 8
    above). numpy makes one slow call per short contiguous row; here each
    term is one array operation."""
    n = a.shape[-1]
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _sum_last(a[..., :half]) + _sum_last(a[..., half:])
    if n >= 8:
        r = a[..., :8].copy()
        for i in range(8, n - n % 8, 8):
            r += a[..., i:i + 8]
        res = ((r[..., 0] + r[..., 1]) + (r[..., 2] + r[..., 3])) \
            + ((r[..., 4] + r[..., 5]) + (r[..., 6] + r[..., 7]))
        tail = n - n % 8
    else:
        res = a[..., 0].copy()
        tail = 1
    for i in range(tail, n):
        res += a[..., i]
    return res


def _centered(X, means) -> np.ndarray:
    """Row-major (..., k, n, p) array X - means[..., None, :] for (..., k,
    p) means, written one coordinate at a time: numpy broadcasts over a
    short last axis one row at a time."""
    out = np.empty(means.shape[:-1] + X.shape)
    for j in range(X.shape[1]):
        np.subtract(X[:, j], means[..., j, None], out=out[..., j])
    return out


def _component_logpdf(X, means, chols) -> np.ndarray:
    """(..., k, n) array of Gaussian log densities of the rows of X, one row
    per component: means is (..., k, p) and chols the matching (..., k, p, p)
    lower Cholesky factors, so a stack of mixtures is scored in one call.

    dtrtrs(L.T, ., lower=0, trans=1) is the exact LAPACK call scipy's
    solve_triangular makes for a C-ordered lower factor; calling it directly
    skips the wrapper's per-call checks, and it whitens each component's
    row-major n x p block of `white` in place, as a column-major p x n
    matrix.
    """
    p = X.shape[1]
    # A collapsed component can push the quadratic form past float range;
    # EM's degeneracy check catches the resulting -inf/nan.
    with np.errstate(over="ignore"):
        white = _centered(X, means)
        for L, w in zip(chols.reshape(-1, p, p), white.reshape(-1, *X.shape)):
            dtrtrs(L.T, w.T, lower=0, trans=1, overwrite_b=1)
        quad = _sum_last(white * white)
        log_det = np.log(np.diagonal(chols, axis1=-2, axis2=-1)).sum(axis=-1)
        return -0.5 * quad - log_det[..., None] - 0.5 * p * _LOG_2PI


def logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over axis -2 (the components) of a (..., k, n)
    array, bit-identical to scipy.special.logsumexp(b, axis=-1) (scipy 1.17)
    for b = np.moveaxis(a, -2, -1) in C order, without its per-call
    overhead: the maximum's m tied entries are summed separately as
    log1p(s / m) + log(m) + max, and entries where that is not finite (all
    -inf, +inf or nan) fall back to log(sum(exp(a))).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        a_max = a.max(axis=-2)
        at_max = a == a_max[..., None, :]
        m = at_max.sum(axis=-2, dtype=float)
        terms = np.exp(np.where(at_max, -np.inf, a) - a_max[..., None, :])
        s = _sum_last(terms.swapaxes(-1, -2))
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
    if not np.isfinite(out).all():
        bad = ~np.isfinite(out)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out[bad] = np.log(np.exp(np.moveaxis(a, -2, -1)[bad]).sum(axis=1))
    return out


@dataclass
class MixtureDensity:
    """Gaussian mixture of k components in p dimensions: k weights summing
    to one, a k x p array of means and a k x p x p stack of SPD
    covariances."""

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.means = np.asarray(self.means, dtype=float)
        self.covariances = np.asarray(self.covariances, dtype=float)
        k = self.weights.size
        p = self.means.shape[-1] if self.means.ndim else 0
        if (self.weights.shape != (k,) or self.means.shape != (k, p)
                or self.covariances.shape != (k, p, p)):
            raise ValueError("MixtureDensity needs k weights, k x p means and "
                             "k x p x p covariances")
        if not all(np.isfinite(a).all()
                   for a in (self.weights, self.means, self.covariances)):
            raise ValueError("MixtureDensity weights, means and covariances "
                             "must all be finite")
        if np.any(self.weights < 0) or abs(self.weights.sum() - 1.0) > 1e-10:
            raise ValueError("mixture weights must be nonnegative and sum to 1")
        require_symmetric(self.covariances, "mixture covariances")
        self._chols, ok = _factor(self.covariances)
        if not ok.all():
            raise ValueError(f"mixture covariance {np.flatnonzero(~ok)[0]} "
                             f"is not positive definite")

    @property
    def n_components(self) -> int:
        return len(self.weights)

    @property
    def p(self) -> int:
        return self.means.shape[1]

    def component_logpdf(self, X) -> np.ndarray:
        """n x G matrix of per-component Gaussian log densities of the rows
        of X, a DataMatrix or an array (a 1-D array is one row), which must
        be finite and p wide."""
        X = as_queries(X if isinstance(X, DataMatrix) else np.atleast_2d(X),
                       self.p, "component_logpdf")
        return _component_logpdf(X, self.means, self._chols).T

    def logpdf(self, X) -> np.ndarray:
        lp = self.component_logpdf(X).T \
            + np.log(np.maximum(self.weights, 1e-300))[:, None]
        return logsumexp(lp)

    def pdf(self, X) -> np.ndarray:
        return np.exp(self.logpdf(X))

    def sample(self, n: int, gen: np.random.Generator) -> np.ndarray:
        counts = gen.multinomial(n, self.weights)
        parts = []
        for g, cnt in enumerate(counts):
            if cnt == 0:
                continue
            z = gen.standard_normal((cnt, self.p))
            parts.append(self.means[g] + z @ self._chols[g].T)
        return np.vstack(parts)


# ---------------------------------------------------------------------------
# Orthant / box integration
# ---------------------------------------------------------------------------

@dataclass
class OrthantIntegrator:
    """Monte Carlo engine for boxes of two or more bounded coordinates (one
    bounded coordinate is integrated in closed form without it).

    The stream is fixed, so the same integrator always replays the same
    sample set; numerator/denominator ratios built on one integrator share
    their draws (common random numbers).
    """

    method: str = "monte_carlo"
    mc_samples: int = Settings.mc_samples
    rng: RngStream = field(default_factory=lambda: RngStream(0))

    def __post_init__(self):
        if self.method != "monte_carlo":
            raise ValueError(f"unknown integrator method '{self.method}'")
        check_setting("mc_samples", self.mc_samples)

    def samples(self, density: MixtureDensity) -> np.ndarray:
        return density.sample(self.mc_samples, self.rng.generator())


def box_masses(density: MixtureDensity, lower, upper,
               integrator: OrthantIntegrator) -> np.ndarray:
    """Mass under the mixture of each box lower[i] <= x <= upper[i] of the
    q x p bounds (+-inf allowed). A box bounded nowhere has mass 1. A box
    bounded on one coordinate j is integrated in closed form under the
    mixture's exact marginal on j. A box bounded on two or more coordinates
    gets the share of the integrator's draws of the full mixture inside it,
    boundary included: every finite draw passes an infinite bound, so this
    marginalizes the unbounded coordinates out, and all such boxes of one
    call share one draw set."""
    bounded = np.isfinite(lower) | np.isfinite(upper)
    n_bounded = bounded.sum(axis=1)
    mass = np.ones(lower.shape[0])
    rows = np.flatnonzero(n_bounded == 1)
    j = bounded[rows].argmax(axis=1)
    mu = density.means.T[j]
    sd = np.sqrt(np.diagonal(density.covariances, axis1=1, axis2=2).T[j])
    lo, hi = lower[rows, j][:, None], upper[rows, j][:, None]
    # ndtr(+inf) = 1 and ndtr(-inf) = 0 exactly: no case for +-inf.
    mass[rows] = np.sum(density.weights * (ndtr((hi - mu) / sd)
                                           - ndtr((lo - mu) / sd)), axis=-1)
    rows = np.flatnonzero(n_bounded >= 2)
    if rows.size:
        draws = integrator.samples(density)
        # The draws are finite, so the closed box holds the draws of the
        # open box one ulp wider on every side.
        inside = box_counts(draws, [len(draws)],
                            np.nextafter(lower[rows], -np.inf),
                            np.nextafter(upper[rows], np.inf),
                            np.zeros(rows.size, dtype=np.intp))
        mass[rows] = inside / draws.shape[0]
    return mass


def orthant_probability(density: MixtureDensity, lower, upper,
                        integrator: OrthantIntegrator) -> float:
    """P(lower <= X <= upper) under the mixture for one box of p bounds,
    +-inf allowed, by box_masses; a nan bound is a ValueError."""
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    if lower.shape != (density.p,) or upper.shape != (density.p,):
        raise ValueError("orthant_probability: bound dimension mismatch")
    if np.isnan(lower).any() or np.isnan(upper).any():
        raise ValueError("orthant_probability: a bound is nan")
    if np.any(lower > upper):
        raise ValueError("orthant_probability: lower bound exceeds upper bound")
    return float(box_masses(density, lower[None], upper[None], integrator)[0])


# ---------------------------------------------------------------------------
# EM fitting with BIC selection
# ---------------------------------------------------------------------------

def kmeans_lloyd(vals: np.ndarray, k: int,
                 gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Plain Lloyd iteration from a random distinct-row start.

    Returns (centroids, labels). Empty clusters keep their previous centroid.
    """
    n = vals.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"kmeans: k={k} outside [1, {n}]")
    centroids = vals[gen.choice(n, size=k, replace=False)].astype(float)
    labels = np.zeros(n, dtype=int)
    for _ in range(_KMEANS_MAX_ITER):
        d2 = ((vals[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        for j in range(k):
            members = vals[new_labels == j]
            if len(members):
                centroids[j] = members.mean(axis=0)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return centroids, labels


def _initial_params(z, labels, k, global_cov, reg_base):
    n, p = z.shape
    weights = np.empty(k)
    means = np.empty((k, p))
    covs = np.empty((k, p, p))
    for g in range(k):
        members = z[labels == g]
        weights[g] = max(len(members), 1) / n
        if len(members) == 0:
            means[g] = z.mean(axis=0)
            covs[g] = global_cov
        else:
            means[g] = members.mean(axis=0)
            covs[g] = np.cov(members, rowvar=False, ddof=0).reshape(p, p) \
                if len(members) > 1 else global_cov
        covs[g] += reg_base * np.eye(p)
    weights /= weights.sum()
    return weights, means, covs


def _factor(covs):
    """Lower Cholesky factors of an (m, p, p) stack and one flag per matrix,
    True where it factors; a matrix that does not gets a nan factor.

    For p <= 2 this is OpenBLAS potf2's arithmetic on the lower triangle,
    l11 = sqrt(a), l21 = b * (1 / l11), l22 = sqrt(c - l21 * l21), so the
    factors have np.linalg.cholesky's bits, and a matrix fails where potf2
    does: on a pivot <= 0 (a nan pivot passes and gives a nan factor).
    Larger matrices are factored one LAPACK call each.
    """
    m, p = covs.shape[0], covs.shape[-1]
    if p > 2:
        chols = np.full(covs.shape, np.nan)
        ok = np.zeros(m, bool)
        for i, cov in enumerate(covs):
            try:
                chols[i] = np.linalg.cholesky(cov)
                ok[i] = True
            except np.linalg.LinAlgError:
                pass
        return chols, ok
    chols = np.zeros(covs.shape)
    a = covs[:, 0, 0]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        chols[:, 0, 0] = np.sqrt(a)
        ok = ~(a <= 0)
        if p == 2:
            # potf2 scales by 1 / l11, and a zero scale writes zeros.
            inverse = 1.0 / chols[:, 0, 0]
            chols[:, 1, 0] = np.where(inverse == 0, 0.0, covs[:, 1, 0] * inverse)
            pivot = covs[:, 1, 1] - chols[:, 1, 0] * chols[:, 1, 0]
            chols[:, 1, 1] = np.sqrt(pivot)
            ok &= ~(pivot <= 0)
    chols[~ok] = np.nan
    return chols, ok


def _chol_all(covs):
    """Cholesky factors of a (..., p, p) stack; returns (factors, covs,
    bumped), bumped one flag per matrix. When the stacked Cholesky fails,
    the matrices that do not factor climb a ridge ladder together: each is
    bumped by 1e-8 * max(trace / p, 1e-12) on the diagonal, ten times more
    at each further level, cumulatively, for at most seven levels. A
    repaired matrix is bumped and gets its ridged covariance; a matrix
    beyond repair keeps its covariance and gets a nan factor. Every factor
    has the bits a per-matrix np.linalg.cholesky call gives."""
    try:
        return np.linalg.cholesky(covs), covs, np.zeros(covs.shape[:-2], bool)
    except np.linalg.LinAlgError:
        pass
    p = covs.shape[-1]
    mats = covs.reshape(-1, p, p)
    chols, ok = _factor(mats)
    fixed = mats.copy()
    todo = np.flatnonzero(~ok)
    bumped = np.zeros(ok.shape, bool)
    ridged = mats[todo]
    bump = 1e-8 * np.maximum(np.trace(ridged, axis1=1, axis2=2) / p, 1e-12)
    eye = np.eye(p)
    for _ in range(7):
        ridged = ridged + bump[:, None, None] * eye
        bump = bump * 10.0
        factors, good = _factor(ridged)
        done = todo[good]
        chols[done], fixed[done], bumped[done] = factors[good], ridged[good], True
        todo, ridged, bump = todo[~good], ridged[~good], bump[~good]
        if not todo.size:
            break
    return (chols.reshape(covs.shape), fixed.reshape(covs.shape),
            bumped.reshape(covs.shape[:-2]))


def _em_restarts(z, k, gens, global_cov, reg_base):
    """EM on the standardized rows z from one k-means start per generator in
    gens, all runs iterating as one (R, k, ...) stack; returns one
    ((weights, means, covs), loglik) in z's units per run, in gens' order, or
    None for a run that degenerates.

    Each run stops on its own test and leaves the stack, and the others go
    on; every run computes exactly what it would compute alone. A pure EM
    step never lowers the log-likelihood (checked); a drop right after a
    covariance had to be ridge-bumped, or on a factor with a tiny pivot
    (a component collapsing onto a lower-dimensional set, where float
    arithmetic can wobble downhill), means the run has gone degenerate, so
    it keeps its last clean iterate. A covariance beyond repair gets a nan
    factor, so its run's log-likelihood is nan and the run leaves as None
    on that iteration, as it does alone.
    """
    n = z.shape[0]
    starts = [_initial_params(z, kmeans_lloyd(z, k, gen)[1], k, global_cov,
                              reg_base) for gen in gens]
    weights, means, covs = (np.array(a) for a in zip(*starts))
    runs = [None] * len(gens)
    live = np.arange(len(gens))       # the run behind each row of the stack
    prev_ll = np.full(len(gens), -np.inf)
    prev_state = weights, means, covs
    for _ in range(_EM_MAX_ITER):
        chols, covs, bumped = _chol_all(covs)
        log_joint = _component_logpdf(z, means, chols) \
            + np.log(np.maximum(weights, 1e-300))[..., None]
        row_ll = logsumexp(log_joint)
        ll = row_ll.sum(axis=1)
        # The frozen EM sums responsibilities over a fresh n x k array: a
        # fresh copy (C strides even when k = 1) gives nk and the means'
        # matmul operand the same bits.
        with np.errstate(invalid="ignore"):
            gain = ll - prev_ll
            resp_kn = np.exp(log_joint - row_ll[:, None, :])
            resp = resp_kn.transpose(0, 2, 1).copy()
            nk = resp.sum(axis=1)
            # A +inf log-likelihood comes from a +inf log density, whose
            # weight is nan, so only a finite one goes on.
            keep = (gain >= _EM_TOL) & (nk >= 1e-10).all(axis=1)
        if not keep.all():
            # A run stops on a non-finite log-likelihood (None), a fall (its
            # last clean iterate), convergence (this iterate; prev_ll is
            # -inf only before the first step) or, still climbing, a
            # vanishing weight (None).
            bad = ~np.isfinite(ll)
            fell = ~bad & (ll < prev_ll - _EM_FALL * np.maximum(1.0, np.abs(prev_ll)))
            for i in np.flatnonzero(fell):
                pivots = np.diagonal(chols[i], axis1=1, axis2=2)
                fragile = np.any(pivots.min(axis=1) < _EM_FRAGILE_PIVOT
                                 * np.maximum(pivots.max(axis=1), 1.0))
                if not (bumped[i].any() or fragile):
                    raise RuntimeError("EM log-likelihood decreased on a healthy step")
                runs[live[i]] = tuple(a[i] for a in prev_state), float(prev_ll[i])
            for i in np.flatnonzero(~bad & ~fell & (gain < _EM_TOL)):
                runs[live[i]] = (weights[i], means[i], covs[i]), float(ll[i])
            weights, means, covs, ll, live, resp_kn, resp, nk = (
                a[keep] for a in (weights, means, covs, ll, live, resp_kn, resp, nk))
            if not live.size:
                return runs
        prev_ll, prev_state = ll, (weights, means, covs)

        weights = nk / n
        means = (resp.transpose(0, 2, 1) @ z) / nk[..., None]
        # The stacked matmul makes one gemm per component.
        diff = _centered(z, means)
        weighted = np.empty_like(diff)
        for j in range(z.shape[1]):
            np.multiply(resp_kn, diff[..., j], out=weighted[..., j])
        cov = weighted.swapaxes(2, 3) @ diff / nk[..., None, None]
        covs = 0.5 * (cov + cov.swapaxes(2, 3))
    # The cap: each run still in the stack keeps its last iterate.
    for i, r in enumerate(live):
        runs[r] = tuple(a[i] for a in prev_state), float(prev_ll[i])
    return runs


def fit_gmm(X, components_range, rng: RngStream,
            n_restarts: int = Settings.n_restarts) -> MixtureDensity:
    """Fit full-covariance mixtures over a component range, keep the BIC winner.

    Each candidate G in lo..hi runs `n_restarts` k-means-seeded EM restarts,
    stacked into one EM loop in which each restart stops on its own, and
    keeps the one of highest log-likelihood, the first among equals;
    candidates with too few observations per component (n <= G*(p+1)) are
    skipped, and a range of only such candidates is an error.
    BIC = 2*loglik - params*ln(n), maximized. All candidates degenerate is an
    error.

    Parameters
    ----------
    X : DataMatrix or array
        Training sample.
    components_range : (lo, hi) tuple
        Inclusive bounds of the candidate component counts, integers with
        1 <= lo <= hi, e.g. (1, 9).
    rng : RngStream
        Drives the k-means seedings; the fit is deterministic given it.
    n_restarts : int, at least 1 (Settings.n_restarts by default)

    A non-finite training row is a ValueError that names it.
    """
    vals = as_values(X)
    require_finite_rows(vals, "fit_gmm", "training")
    n, p = vals.shape
    check_setting("n_restarts", n_restarts)
    check_setting("components_range", components_range)
    lo, hi = components_range
    top = min(hi, (n - 1) // (p + 1))
    if top < lo:
        raise ValueError(f"fit_gmm: {n} rows in {p} dimensions are too few for "
                         f"any component count G in {lo}..{hi} (n > G(p + 1) "
                         f"is needed)")

    # EM runs on per-column standardized rows z = (x - c) / s, an exact
    # reparameterization that keeps tiny-variance features well conditioned.
    # A fit maps back to data units as mu = z_mu * s + c and cov = S z_cov S,
    # and its log-likelihood shifts by -n * sum(log s).
    center = vals.mean(axis=0)
    scale = vals.std(axis=0, ddof=0)
    scale[scale == 0] = 1.0
    z = (vals - center) / scale
    global_cov = np.cov(z, rowvar=False, ddof=1).reshape(p, p)
    reg_base = 1e-8 * max(np.trace(global_cov) / p, 1e-12)
    shift = n * float(np.log(scale).sum())

    best = None
    for k in range(lo, top + 1):
        runs = _em_restarts(z, k, [rng.child(k).child(r).generator()
                                   for r in range(n_restarts)], global_cov, reg_base)
        # The best restart whose covariances factor in data units; the
        # sort is stable, so the first among equals.
        ranked = sorted(filter(None, runs), key=lambda run: run[1] - shift,
                        reverse=True)
        for (weights, means, covs), ll in ranked:
            chols, covs, _ = _chol_all(covs * scale[None, :, None] * scale[None, None, :])
            if np.isfinite(chols).all():
                break
        else:
            continue
        n_params = (k - 1) + k * p + k * p * (p + 1) // 2
        bic = 2.0 * (ll - shift) - n_params * np.log(n)
        if best is None or bic > best[0]:
            best = (bic, MixtureDensity(weights, means * scale + center, covs))
    if best is None:
        raise ValueError("fit_gmm: every candidate component count was degenerate")
    return best[1]
