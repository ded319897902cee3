"""Gaussian-mixture density estimation and orthant-region integration.

The mixture backs the density-based classifier variant and the Mix-Gauss
baseline. Fitting is plain EM with full covariances, k-means-seeded restarts,
and BIC model selection over a component range. Orthant/box probabilities are
closed-form in one dimension and Monte Carlo above, with a fixed stream so
every evaluation of the same integrator replays the same sample set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import logsumexp, ndtr

from .numcore import RngStream, as_values

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class MixtureDensity:
    """Gaussian mixture: weights summing to one, component means, full SPD
    covariances."""

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.means = np.asarray(self.means, dtype=float)
        self.covariances = np.asarray(self.covariances, dtype=float)
        if self.means.ndim == 1:
            self.means = self.means.reshape(len(self.weights), -1)
        if self.covariances.ndim == 2:
            self.covariances = self.covariances.reshape(len(self.weights), 1, 1) \
                if self.means.shape[1] == 1 else self.covariances[None, :, :]
        if np.any(self.weights < 0) or abs(self.weights.sum() - 1.0) > 1e-10:
            raise ValueError("mixture weights must be nonnegative and sum to 1")
        self._chols = [np.linalg.cholesky(c) for c in self.covariances]

    @property
    def n_components(self) -> int:
        return len(self.weights)

    @property
    def p(self) -> int:
        return self.means.shape[1]

    def component_logpdf(self, X) -> np.ndarray:
        """n x G matrix of per-component Gaussian log densities."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.empty((X.shape[0], self.n_components))
        for g, (mu, L) in enumerate(zip(self.means, self._chols)):
            z = solve_triangular(L, (X - mu).T, lower=True)
            out[:, g] = -0.5 * (z * z).sum(axis=0) \
                - np.log(np.diag(L)).sum() - 0.5 * self.p * _LOG_2PI
        return out

    def logpdf(self, X) -> np.ndarray:
        lp = self.component_logpdf(X) + np.log(np.maximum(self.weights, 1e-300))
        return logsumexp(lp, axis=1)

    def pdf(self, X) -> np.ndarray:
        return np.exp(self.logpdf(X))

    def marginal(self, coords) -> "MixtureDensity":
        """Marginal mixture over a coordinate subset (exact for Gaussians)."""
        idx = np.atleast_1d(np.asarray(coords, dtype=int))
        return MixtureDensity(self.weights.copy(),
                              self.means[:, idx],
                              self.covariances[:, idx[:, None], idx[None, :]])

    def interval_probability(self, lower, upper):
        """P(lower <= X <= upper) for a univariate mixture, closed form.

        Bounds may be +-inf, and arrays of bounds give one probability per
        pair; scalar bounds give a float.
        """
        if self.p != 1:
            raise ValueError("interval_probability requires a 1-D mixture")
        sd = np.sqrt(self.covariances[:, 0, 0])
        mu = self.means[:, 0]
        # ndtr(+inf) = 1 and ndtr(-inf) = 0 exactly, so infinite bounds need
        # no special case.
        hi = ndtr((np.asarray(upper, dtype=float)[..., None] - mu) / sd)
        lo = ndtr((np.asarray(lower, dtype=float)[..., None] - mu) / sd)
        mass = np.sum(self.weights * (hi - lo), axis=-1)
        return float(mass) if mass.ndim == 0 else mass

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
    """Box-probability engine: closed form in 1-D, Monte Carlo above.

    The stream is fixed, so the same integrator always replays the same
    sample set; numerator/denominator ratios built on one integrator share
    their draws (common random numbers). The sample cache is keyed on the
    density object and is semantically invisible.
    """

    method: str = "monte_carlo"
    mc_samples: int = 100_000
    rng: RngStream = field(default_factory=lambda: RngStream(0))

    def __post_init__(self):
        if self.method not in ("monte_carlo", "closed_form_1d"):
            raise ValueError(f"unknown integrator method '{self.method}'")
        if self.method == "monte_carlo" and self.mc_samples < 10_000:
            raise ValueError("monte_carlo integrator requires mc_samples >= 10000")
        self._cache = None

    def samples(self, density: MixtureDensity) -> np.ndarray:
        if self._cache is not None and self._cache[0] is density \
                and self._cache[1] == self.mc_samples:
            return self._cache[2]
        draws = density.sample(self.mc_samples, self.rng.generator())
        self._cache = (density, self.mc_samples, draws)
        return draws


def orthant_probability(density: MixtureDensity, lower, upper,
                        integrator: OrthantIntegrator) -> float:
    """P(lower <= X <= upper) under the mixture, bounds may be +-inf.

    Coordinates unbounded on both sides are marginalized out exactly; a
    single bounded coordinate uses the closed-form normal CDF per component;
    two or more use the integrator's Monte Carlo draws (deterministic given
    the stream).
    """
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    if lower.shape[0] != density.p or upper.shape[0] != density.p:
        raise ValueError("orthant_probability: bound dimension mismatch")
    if np.any(lower > upper):
        raise ValueError("orthant_probability: lower bound exceeds upper bound")

    active = np.flatnonzero(np.isfinite(lower) | np.isfinite(upper))
    if active.size == 0:
        return 1.0
    marginal = density if active.size == density.p else density.marginal(active)
    if active.size == 1:
        return marginal.interval_probability(lower[active[0]], upper[active[0]])
    if integrator.method == "closed_form_1d":
        raise ValueError("closed_form_1d integrator cannot handle boxes above 1-D")
    draws = integrator.samples(marginal)
    inside = np.all((draws >= lower[active]) & (draws <= upper[active]), axis=1)
    return float(inside.mean())


# ---------------------------------------------------------------------------
# EM fitting with BIC selection
# ---------------------------------------------------------------------------

def kmeans_lloyd(vals: np.ndarray, k: int, gen: np.random.Generator,
                 max_iter: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Plain Lloyd iteration from a random distinct-row start.

    Returns (centroids, labels). Empty clusters keep their previous centroid.
    """
    n = vals.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"kmeans: k={k} outside [1, {n}]")
    centroids = vals[gen.choice(n, size=k, replace=False)].astype(float)
    labels = np.zeros(n, dtype=int)
    for _ in range(max_iter):
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
    """One EM run; returns (mixture, loglik) or None on degeneracy.

    Runs on per-column standardized data (an exact reparameterization that
    keeps tiny-variance features well conditioned) and rescales the fitted
    parameters at the end. A pure EM step never lowers the log-likelihood
    (checked); a drop right after a covariance had to be ridge-bumped means
    a component is collapsing, so the run stops at the last clean iterate.
    """
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
        # A factor with a tiny pivot means a component is collapsing onto a
        # lower-dimensional set; float arithmetic can then wobble downhill.
        fragile = any(np.diag(L).min() < 1e-7 * max(np.diag(L).max(), 1.0)
                      for L in chols)

        log_joint = _log_joint(z, weights, means, chols)
        row_ll = logsumexp(log_joint, axis=1)
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

    # Map parameters back to the original units: mu = z_mu * s + c,
    # cov = S z_cov S; the log-likelihood shifts by -n * sum(log s).
    weights, means, covs = state
    out_means = means * scale + center
    out_covs = covs * scale[None, :, None] * scale[None, None, :]
    fixed = [_regularize_spd(c) for c in out_covs]
    if any(f is None for f in fixed):
        return None
    final = MixtureDensity(weights.copy(), out_means, np.array(fixed))
    return final, ll - n * float(np.log(scale).sum())


def fit_gmm(X, components_range, rng: RngStream, n_restarts: int = 5) -> MixtureDensity:
    """Fit full-covariance mixtures over a component range, keep the BIC winner.

    Each candidate G runs `n_restarts` k-means-seeded EM restarts; candidates
    with too few observations per component (n <= G*(p+1)) are skipped.
    BIC = 2*loglik - params*ln(n), maximized. All candidates degenerate is an
    error.

    Parameters
    ----------
    X : DataMatrix or array
        Training sample.
    components_range : iterable of int, or (lo, hi) tuple
        Candidate component counts, e.g. range(1, 10).
    rng : RngStream
        Drives the k-means seedings; the fit is deterministic given it.
    """
    vals = as_values(X)
    n, p = vals.shape
    if isinstance(components_range, tuple) and len(components_range) == 2:
        candidates = list(range(components_range[0], components_range[1] + 1))
    else:
        candidates = list(components_range)
    if not candidates:
        raise ValueError("fit_gmm: empty component range")

    best = None
    for k in candidates:
        if k < 1 or n <= k * (p + 1):
            continue
        best_run = None
        for r in range(n_restarts):
            gen = rng.child(k).child(r).generator()
            result = _em_single(vals, k, gen)
            if result is None:
                continue
            mixture, ll = result
            if best_run is None or ll > best_run[1]:
                best_run = (mixture, ll)
        if best_run is None:
            continue
        n_params = (k - 1) + k * p + k * p * (p + 1) // 2
        bic = 2.0 * best_run[1] - n_params * np.log(n)
        if best is None or bic > best[1]:
            best = (best_run[0], bic)
    if best is None:
        raise ValueError("fit_gmm: every candidate component count was degenerate")
    return best[0]
