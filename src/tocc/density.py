"""Gaussian-mixture density estimation and orthant-region integration.

The mixture backs the density-based classifier variant and the Mix-Gauss
baseline. Fitting is plain EM with full covariances, k-means-seeded restarts,
and BIC model selection over a component range. Orthant/box probabilities are
closed-form in one dimension and Monte Carlo above, with a fixed stream so
every evaluation of the same integrator replays the same sample set.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dtrtrs
from scipy.special import ndtr

from .numcore import (RngStream, as_queries, as_values, box_counts,
                      require_finite_rows, require_symmetric)

_LOG_2PI = float(np.log(2.0 * np.pi))
_KMEANS_MAX_ITER = 100
_EM_TOL = 1e-6        # stop once an EM step gains less log-likelihood
_EM_MAX_ITER = 500


def _component_logpdf(X, means, chols) -> np.ndarray:
    """C-ordered n x k matrix of Gaussian log densities of the rows of X, one
    column per component (mean means[g], lower Cholesky factor chols[g]).

    dtrtrs(L.T, ., lower=0, trans=1) is the exact LAPACK call scipy's
    solve_triangular makes for a C-ordered lower factor; calling it directly
    skips the wrapper's per-call checks. The output must stay C-ordered: EM's
    responsibility sums depend on its memory order.
    """
    # A collapsed component can push the quadratic form past float range;
    # EM's degeneracy check catches the resulting -inf/nan.
    with np.errstate(over="ignore"):
        white = X[None, :, :] - means[:, None, :]
        for g, L in enumerate(chols):
            white[g] = dtrtrs(L.T, white[g].T, lower=0, trans=1)[0].T
        quad = np.ascontiguousarray((white * white).sum(axis=2).T)
        log_det = np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)
        return -0.5 * quad - log_det - 0.5 * means.shape[1] * _LOG_2PI


def logsumexp(a: np.ndarray) -> np.ndarray:
    """Row-wise log(sum(exp(a))) of a 2-D array, bit-identical to
    scipy.special.logsumexp(a, axis=1) (scipy 1.17) without its per-call
    overhead: the row maximum's m tied entries are summed separately as
    log1p(s / m) + log(m) + max, and rows where that is not finite (all -inf,
    +inf or nan) fall back to log(sum(exp(a))).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        a_max = a.max(axis=1, keepdims=True)
        at_max = a == a_max
        m = at_max.sum(axis=1, keepdims=True, dtype=float)
        s = np.exp(np.where(at_max, -np.inf, a) - a_max).sum(axis=1, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = (np.log1p(s) + np.log(m) + a_max)[:, 0]
    bad = ~np.isfinite(out)
    if bad.any():
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out[bad] = np.log(np.exp(a[bad]).sum(axis=1))
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
        self._chols = np.linalg.cholesky(self.covariances)

    @property
    def n_components(self) -> int:
        return len(self.weights)

    @property
    def p(self) -> int:
        return self.means.shape[1]

    def component_logpdf(self, X) -> np.ndarray:
        """n x G matrix of per-component Gaussian log densities; X must be
        finite and p wide."""
        X = as_queries(np.atleast_2d(X), self.p, "component_logpdf")
        return _component_logpdf(X, self.means, self._chols)

    def logpdf(self, X) -> np.ndarray:
        lp = self.component_logpdf(X) + np.log(np.maximum(self.weights, 1e-300))
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
    mc_samples: int = 100_000
    rng: RngStream = field(default_factory=lambda: RngStream(0))

    def __post_init__(self):
        if self.method != "monte_carlo":
            raise ValueError(f"unknown integrator method '{self.method}'")
        if not (isinstance(self.mc_samples, numbers.Integral)
                and self.mc_samples >= 10_000):
            raise ValueError(f"monte_carlo integrator requires an integer "
                             f"mc_samples >= 10000, not {self.mc_samples!r}")

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
        inside = box_counts(draws, np.nextafter(lower[rows], -np.inf),
                            np.nextafter(upper[rows], np.inf))
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
    """Cholesky factors of every component as one (k, p, p) stack; returns
    (factors, covs, bumped) or None if some component is beyond repair. A
    failed stack is factored once more after _regularize_spd ridges each
    component, which leaves a healthy one unchanged; the stacked call factors
    each matrix exactly as a per-matrix call does."""
    try:
        return np.linalg.cholesky(covs), covs, False
    except np.linalg.LinAlgError:
        pass
    fixed = [_regularize_spd(cov) for cov in covs]
    if any(cov is None for cov in fixed):
        return None
    covs = np.array(fixed)
    return np.linalg.cholesky(covs), covs, True


def _em_single(z, k, gen, global_cov, reg_base):
    """One EM run on the standardized rows z from a k-means start drawn with
    gen; returns ((weights, means, covs), loglik) in z's units, or None on
    degeneracy.

    A pure EM step never lowers the log-likelihood (checked); a drop right
    after a covariance had to be ridge-bumped means a component is
    collapsing, so the run stops at the last clean iterate.
    """
    n = z.shape[0]
    _, labels = kmeans_lloyd(z, k, gen)
    weights, means, covs = _initial_params(z, labels, k, global_cov, reg_base)

    prev_ll, prev_state = -np.inf, None
    for _ in range(_EM_MAX_ITER):
        refit = _chol_all(covs)
        if refit is None:
            return None
        chols, covs, bumped = refit
        # A factor with a tiny pivot means a component is collapsing onto a
        # lower-dimensional set; float arithmetic can then wobble downhill.
        pivots = np.diagonal(chols, axis1=1, axis2=2)
        fragile = bool(np.any(pivots.min(axis=1)
                              < 1e-7 * np.maximum(pivots.max(axis=1), 1.0)))

        log_joint = _component_logpdf(z, means, chols) \
            + np.log(np.maximum(weights, 1e-300))
        row_ll = logsumexp(log_joint)
        ll = float(row_ll.sum())
        if not np.isfinite(ll):
            return None
        state = (weights, means, covs)
        if np.isfinite(prev_ll) and ll < prev_ll - 1e-6 * max(1.0, abs(prev_ll)):
            # EM guarantees a monotone log-likelihood; only the ridge repair
            # or a collapsing component may break it, and either way the run
            # has gone degenerate: keep the last clean iterate.
            if not (bumped or fragile):
                raise RuntimeError("EM log-likelihood decreased on a healthy step")
            state, ll = prev_state, prev_ll
            break
        if ll - prev_ll < _EM_TOL and np.isfinite(prev_ll):
            break
        prev_ll, prev_state = ll, state

        resp = np.exp(log_joint - row_ll[:, None])
        nk = resp.sum(axis=0)
        if np.any(nk < 1e-10):
            return None
        weights = nk / n
        means = (resp.T @ z) / nk[:, None]
        # The stacked matmul makes one gemm per component, as a loop would.
        diff = z - means[:, None, :]
        cov = (resp.T[:, :, None] * diff).transpose(0, 2, 1) @ diff \
            / nk[:, None, None]
        covs = 0.5 * (cov + cov.transpose(0, 2, 1))
    return state, ll


def _is_count(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 1


def fit_gmm(X, components_range, rng: RngStream, n_restarts: int = 5) -> MixtureDensity:
    """Fit full-covariance mixtures over a component range, keep the BIC winner.

    Each candidate G in lo..hi runs `n_restarts` k-means-seeded EM restarts
    and keeps the one of highest log-likelihood, the first among equals;
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
    n_restarts : int, at least 1

    A non-finite training row is a ValueError that names it.
    """
    vals = as_values(X)
    require_finite_rows(vals, "fit_gmm", "training")
    n, p = vals.shape
    lo, hi = components_range
    if not _is_count(n_restarts):
        raise ValueError(f"fit_gmm: n_restarts={n_restarts!r} must be an integer >= 1")
    if not (_is_count(lo) and _is_count(hi) and lo <= hi):
        raise ValueError(f"fit_gmm: components_range={components_range!r} must "
                         f"be two integers 1 <= lo <= hi")
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
        runs = [_em_single(z, k, rng.child(k).child(r).generator(), global_cov,
                           reg_base) for r in range(n_restarts)]
        # The best restart whose covariances factor in data units; the
        # sort is stable, so the first among equals.
        ranked = sorted(filter(None, runs), key=lambda run: run[1] - shift,
                        reverse=True)
        for (weights, means, covs), ll in ranked:
            refit = _chol_all(covs * scale[None, :, None] * scale[None, None, :])
            if refit is not None:
                break
        else:
            continue
        n_params = (k - 1) + k * p + k * p * (p + 1) // 2
        bic = 2.0 * (ll - shift) - n_params * np.log(n)
        if best is None or bic > best[0]:
            best = (bic, MixtureDensity(weights, means * scale + center, refit[1]))
    if best is None:
        raise ValueError("fit_gmm: every candidate component count was degenerate")
    return best[1]
