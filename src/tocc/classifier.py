"""The TOCC family: density-free, density-based, and PAM-partitioned variants.

Fitting calibrates a typicality threshold at a user-chosen minimum training
sensitivity s: every training unit is scored against the prototype, and the
threshold is the type-1 quantile of those scores at level 1-s, so at least a
fraction s of the training set scores at or above it. Prediction accepts a
query whose score reaches the threshold (ties accept).

The PAM variant clusters the target class first (BUILD + SWAP k-medoids) and
calibrates one threshold per cluster against the cluster medoid, which lets
it reject deviants buried inside the target cloud rather than only those on
its outer rim.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .density import MixtureDensity, OrthantIntegrator, fit_gmm
from .numcore import (RngStream, as_queries, as_values, empirical_quantile,
                      require_feature_names, require_training_rows,
                      spatial_median)
from .transvariation import DROP_EPS, TpRows, tp_density_scores, tp_scores


@dataclass
class PamResult:
    """k-medoids outcome: medoid row indices (ascending), 0-based cluster
    labels mapping each point to its nearest medoid, and the summed
    point-to-medoid distance. A malformed field is a ValueError."""

    medoids: list[int]
    assignment: np.ndarray
    total_cost: float

    def __post_init__(self):
        if not (isinstance(self.medoids, list) and self.medoids
                and all(_is_index(i) for i in self.medoids)
                and self.medoids == sorted(set(self.medoids))):
            raise ValueError("pam medoids must be an ascending list of distinct "
                             f"row indices, not {self.medoids!r:.60}")
        try:
            labels = np.asarray(self.assignment)
        except ValueError:
            labels = None
        if not (labels is not None and labels.ndim == 1 and labels.size
                and labels.dtype.kind in "iu" and labels.min() >= 0
                and labels.max() < len(self.medoids)):
            raise ValueError("pam assignment must be an array of cluster labels "
                             f"below {len(self.medoids)}, not {self.assignment!r:.60}")
        self.assignment = labels.astype(int, copy=False)
        if not (_is_real(self.total_cost) and 0 <= self.total_cost < np.inf):
            raise ValueError("pam total_cost must be a finite number >= 0, "
                             f"not {self.total_cost!r:.60}")


def _is_index(i) -> bool:
    return isinstance(i, numbers.Integral) and not isinstance(i, bool) and i >= 0


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


@dataclass
class ToccModel:
    """A fitted transvariation classifier.

    prototypes has one row per threshold (a single spatial median for df/db,
    the cluster medoids for pam_df). groups holds the reference sample each
    prototype is scored against -- the full target set for df, per-cluster
    member sets for pam_df; the db variant scores against its fitted density
    instead and keeps no group data.
    """

    variant: str
    prototypes: np.ndarray
    thresholds: np.ndarray
    sensitivity: np.ndarray
    eps: float = DROP_EPS
    groups: list[np.ndarray] | None = None
    density: MixtureDensity | None = None
    integrator: OrthantIntegrator | None = None
    feature_names: list[str] | None = None
    pam: PamResult | None = None

    def __post_init__(self):
        if self.variant not in ("df", "db", "pam_df"):
            raise ValueError(f"unknown variant '{self.variant}'")
        self.prototypes = np.atleast_2d(np.asarray(self.prototypes, dtype=float))
        self.thresholds = np.atleast_1d(np.asarray(self.thresholds, dtype=float))
        self.sensitivity = np.atleast_1d(np.asarray(self.sensitivity, dtype=float))
        k = self.n_prototypes
        if self.thresholds.shape != (k,) or self.sensitivity.shape != (k,):
            raise ValueError(f"need one threshold and one sensitivity per "
                             f"prototype ({k})")
        if not np.all((self.thresholds >= 0) & (self.thresholds <= 1)):
            raise ValueError("thresholds must lie in [0, 1]")
        if not np.all((self.sensitivity > 0) & (self.sensitivity < 1)):
            raise ValueError("sensitivity s must lie strictly inside (0, 1)")
        if not np.all(np.isfinite(self.prototypes)):
            raise ValueError("prototypes must be finite")
        if not (_is_real(self.eps) and np.isfinite(self.eps) and self.eps >= 0):
            raise ValueError(f"eps={self.eps!r} must be a finite number >= 0")
        require_feature_names(self.feature_names, self.p)
        if self.variant == "db" and getattr(self.density, "p", None) != self.p:
            raise ValueError(f"db variant requires a fitted density of width {self.p}")
        if self.variant == "db" and self.integrator is None:
            raise ValueError("db variant requires an integrator")
        if self.variant != "db" and (
                self.groups is None or len(self.groups) != k
                or any(np.ndim(g) != 2 or np.shape(g)[1] != self.p
                       for g in self.groups)):
            raise ValueError(f"{self.variant} variant needs one group of "
                             f"width {self.p} per prototype")
        if self.variant != "db" and not all(
                np.all(np.isfinite(np.asarray(g, dtype=float))) for g in self.groups):
            raise ValueError("group rows must be finite")
        if self.variant == "pam_df" and not all(
                np.all(g == proto, axis=1).any()
                for proto, g in zip(self.prototypes, self.groups)):
            raise ValueError("each pam_df prototype must be a row of its group")
        if self.pam is not None and (
                self.variant != "pam_df" or len(self.pam.medoids) != k
                or self.pam.medoids[-1] >= self.pam.assignment.size
                or np.bincount(self.pam.assignment, minlength=k).tolist()
                != [len(g) for g in self.groups]):
            raise ValueError(f"a pam block needs a pam_df model, one medoid row "
                             f"per prototype ({k}) and one label per group row")

    @property
    def n_prototypes(self) -> int:
        return self.prototypes.shape[0]

    @property
    def p(self) -> int:
        return self.prototypes.shape[1]

    def predict(self, Z) -> "PredictionResult":
        return predict(self, Z)

    def _score(self, g: int, Z) -> TpRows:
        """Score the float rows Z against prototype g: under the fitted
        density for db, by counting against group g otherwise. The one place
        a variant picks its kernel."""
        if self.variant == "db":
            return tp_density_scores(self.density, Z, self.prototypes[g],
                                     self.integrator, self.eps)
        return tp_scores(self.groups[g], Z, self.prototypes[g], self.eps)


@dataclass
class PredictionResult:
    """Per-row decisions: accept flag, typicality score, cluster (pam only).

    higher_is_typical records the score orientation so evaluation code can
    build ROC curves without knowing the model family.
    """

    accept: np.ndarray
    score: np.ndarray
    cluster: np.ndarray | None = None
    higher_is_typical: bool = True

    def typicality(self) -> np.ndarray:
        return self.score if self.higher_is_typical else -self.score


# ---------------------------------------------------------------------------
# Partitioning Around Medoids
# ---------------------------------------------------------------------------

# Rows per block of the n x n column sums in BUILD and SWAP; n up to this is
# one block.
_PAM_BLOCK = 256


def _pairwise_distances(vals: np.ndarray) -> np.ndarray:
    sq = (vals ** 2).sum(axis=1)
    d2 = np.add.outer(sq, sq)
    d2 -= (2.0 * vals) @ vals.T
    np.fill_diagonal(d2, 0.0)
    return np.sqrt(np.maximum(d2, 0.0, out=d2), out=d2)


def _column_sums(fill, buf) -> np.ndarray:
    """Column sums of an n x n array written block by block: fill(rows, out)
    writes the rows slice into out, a leading block of the reused buffer
    buf. Each block's first row takes the running sum, so every column adds
    up row after row, as numpy sums the whole array."""
    n = buf.shape[1]
    total = None
    for start in range(0, n, buf.shape[0]):
        out = buf[:n - start]
        fill(slice(start, start + out.shape[0]), out)
        if total is not None:
            out[0] += total
        total = out.sum(axis=0)
    return total


def pam(X, k: int, max_swaps: int = 1000) -> PamResult:
    """k-medoids by BUILD then SWAP on Euclidean distances.

    BUILD greedily seeds medoids by largest cost reduction; SWAP accepts the
    first medoid/candidate exchange that strictly lowers the total cost,
    scanning (medoid, candidate) pairs in ascending row-index order, until no
    exchange improves or max_swaps exchanges have been taken.
    """
    vals = as_values(X)
    n = vals.shape[0]
    if k > n:
        raise ValueError(f"pam: k={k} exceeds n={n}")
    if k < 1:
        raise ValueError("pam: k must be at least 1")
    dist = _pairwise_distances(vals)

    # BUILD: first medoid minimizes total distance; each next one maximizes
    # the summed reduction of point-to-nearest-medoid distances. Candidates
    # duplicating a chosen medoid reduce nothing, so distinct rows win first.
    buf = np.empty((min(n, _PAM_BLOCK), n))
    medoids = [int(np.argmin(dist.sum(axis=1)))]
    nearest = dist[:, medoids[0]].copy()
    while len(medoids) < k:
        reduction = _column_sums(lambda r, out: np.maximum(
            np.subtract(nearest[r, None], dist[r], out=out), 0.0, out=out), buf)
        reduction[medoids] = -np.inf
        j = int(np.argmax(reduction))
        medoids.append(j)
        nearest = np.minimum(nearest, dist[:, j])
    medoids.sort()

    swaps = 0
    cost = _assignment_cost(dist, medoids)[2]
    while swaps < max_swaps:
        nearest_pos, d1, d2 = _nearest_two(dist, medoids)
        for pos in range(len(medoids)):
            # Cost after dropping this medoid: covered points fall back to
            # their second-nearest, then everyone may adopt the candidate.
            base = np.where(nearest_pos == pos, d2, d1)
            new_costs = _column_sums(
                lambda r, out: np.minimum(base[r, None], dist[r], out=out), buf)
            new_costs[medoids] = np.inf
            better = np.flatnonzero(new_costs < cost)
            if better.size:
                medoids[pos] = int(better[0])
                medoids.sort()
                cost = float(new_costs[better[0]])
                swaps += 1
                break
        else:
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


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def _feature_names(X):
    return list(X.feature_names) if hasattr(X, "feature_names") else None


def _calibrated(own_rows, variant, prototypes, s, **fields) -> ToccModel:
    """A ToccModel whose threshold g is the (1 - s_g) type-1 quantile of the
    scores of group g's own rows, own_rows[g], against prototype g."""
    model = ToccModel(variant, prototypes, np.zeros(len(own_rows)), s, **fields)
    model.thresholds = np.array([
        empirical_quantile(model._score(g, rows).value, 1.0 - sg)
        for g, (rows, sg) in enumerate(zip(own_rows, model.sensitivity))])
    return model


def fit_tocc_df(X_target, s: float) -> ToccModel:
    """Density-free TOCC: spatial-median prototype, counting scores,
    threshold at the (1-s) type-1 quantile of training scores."""
    vals = as_values(X_target)
    require_training_rows(vals, s, "fit_tocc_df")
    return _calibrated([vals], "df", spatial_median(vals), [s], groups=[vals.copy()],
                       feature_names=_feature_names(X_target))


def fit_tocc_db(X_target, s: float, rng: RngStream,
                components_range=(1, 9), mc_samples: int = 100_000,
                n_restarts: int = 5) -> ToccModel:
    """Density-based TOCC: fits a Gaussian mixture (BIC over the component
    range), then scores by orthant-mass ratios under that density, counted
    on mc_samples Monte Carlo draws from stream rng.child(997)."""
    vals = as_values(X_target)
    require_training_rows(vals, s, "fit_tocc_db")
    density = fit_gmm(vals, components_range, rng, n_restarts=n_restarts)
    integrator = OrthantIntegrator("monte_carlo", mc_samples, rng.child(997))
    return _calibrated([vals], "db", spatial_median(vals), [s], density=density,
                       integrator=integrator, feature_names=_feature_names(X_target))


def fit_pam_tocc_df(X_target, k: int, s: float) -> ToccModel:
    """Two-phase PAM-TOCC: cluster the target class into k groups, then
    calibrate one counting-score threshold per cluster against its medoid.

    Every cluster must keep at least 3 members: an undersized cluster lowers
    k by one until all clusters are large enough (k = 1 always is);
    model.n_prototypes is the k used.
    """
    vals = as_values(X_target)
    require_training_rows(vals, s, "fit_pam_tocc_df")
    while True:
        result = pam(vals, k)
        if np.bincount(result.assignment, minlength=k).min() >= 3:
            break
        k -= 1
    groups = [vals[result.assignment == g] for g in range(k)]
    return _calibrated(groups, "pam_df", vals[result.medoids], [s] * k,
                       groups=groups, feature_names=_feature_names(X_target),
                       pam=result)


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

def predict(model: ToccModel, Z) -> PredictionResult:
    """Score each row of Z against its nearest prototype (the one spatial
    median for df and db, the nearest medoid for pam_df with ties to the
    lowest cluster index) and accept it when the score reaches that
    prototype's threshold. Z must be finite and as wide as the model."""
    vals = as_queries(Z, model.p, "predict")
    clusters = np.zeros(vals.shape[0], dtype=np.intp)
    if model.n_prototypes > 1:
        clusters = np.linalg.norm(vals[:, None] - model.prototypes, axis=2).argmin(1)
    scores = np.empty(vals.shape[0])
    for g in range(model.n_prototypes):
        rows = clusters == g
        scores[rows] = model._score(g, vals[rows]).value
    return PredictionResult(scores >= model.thresholds[clusters], scores,
                            clusters if model.variant == "pam_df" else None)
