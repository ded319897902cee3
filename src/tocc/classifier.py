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
from .numcore import (RngStream, Settings, as_queries, as_values,
                      check_setting, empirical_quantile, is_integer,
                      require_feature_names, require_finite_rows,
                      require_training_rows, spatial_median)
from .transvariation import DROP_EPS, tp_density_scores, tp_scores


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
                and all(is_integer(i, 0) for i in self.medoids)
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
        for s in self.sensitivity:
            check_setting("s", float(s))
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

# Rows per block of the distance matrix and of BUILD's column sums. A table
# of up to this many rows is one block: SWAP screens all its columns at
# once and carries nothing between scans. A larger table carries SWAP's
# bounds, and SWAP's screen and lazy BUILD take quarter blocks of columns.
_PAM_BLOCK = 256


def _pairwise_distances(vals: np.ndarray):
    """(dist, cols32): Euclidean distances as (|x|^2 + |y|^2) - 2 x.y, and
    their transpose in float32, cols32[j] = dist[:, j]. The Gram product is
    written first; each row block of the squared norms' outer sum is then
    subtracted into it in place, clamped, rooted and copied into cols32
    while it is in cache. A distance beyond float32 is inf in cols32."""
    n = vals.shape[0]
    sq = (vals ** 2).sum(axis=1)
    d2 = (2.0 * vals) @ vals.T
    cols32 = np.empty((n, n), dtype=np.float32)
    outer = np.empty((min(n, _PAM_BLOCK), n))
    with np.errstate(over="ignore"):
        for start in range(0, n, _PAM_BLOCK):
            block = d2[start:start + _PAM_BLOCK]
            rows = slice(start, start + len(block))
            np.subtract(np.add.outer(sq[rows], sq, out=outer[:len(block)]),
                        block, out=block)
            block.reshape(-1)[start::n + 1] = 0.0   # the diagonal
            np.sqrt(np.maximum(block, 0.0, out=block), out=block)
            cols32[:, rows] = block.T
    return d2, cols32


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
    exchange improves or max_swaps exchanges have been taken. k >= 1 and
    max_swaps >= 0 are integers, and every row is finite (ValueError).

    Tables of more than _PAM_BLOCK rows skip work whose outcome is already
    known (on one block a scan is a handful of array operations, and the
    bookkeeping would cost as much), and every shortcut is exact: the
    medoids, labels and cost are the ones the plain search finds.

    - Lazy BUILD. After the row sums and the first full reduction pass,
      each column keeps its last exact reduction. nearest only falls,
      fl(x - d) and max(., 0) are monotone, and a float sum of nonnegative
      terms in a fixed order is monotone in each term, so that value bounds
      the column's next reduction exactly, with no slack. The quarter block
      of columns with the highest bounds is evaluated exactly; if no other
      bound can beat the best of them (a bound that ties it only for a
      column of lower index, as argmax picks the first), that column wins,
      and otherwise one full pass decides.
    - Bounds that survive a swap. For each current medoid m, SWAP keeps
      low_j <= E(m, j), the float64 fold sum_i min(b_i, d_ij) over the base
      b (each row's distance to its nearest other medoid), and the b it
      holds for; a column is read only when low_j does not already prove
      E(m, j) >= cost. With u = 2^-53 and T(b) the exact sum:
      - T never falls when a b_i rises, and T(b') >= T(b) - D with
        D = sum_i max(b_i - b'_i, 0);
      - the fold is within gamma_{n-1} T of T, as every term is
        nonnegative (Higham 2002, 4.2);
      - so under a new base b', E' >= (1 - 3 n u) low - (1 + 2 u) D_fl for
        low >= 0, where D_fl is D added up in float64; low is lowered to
        (1 - c) low - (1 + c) D_fl with c = 8 n u, which leaves room for
        evaluating it, and a negative low stays at or below 0 <= E'. When
        no b_i fell, the fold's monotonicity keeps low as it is;
      - every screen and every exact fold in _first_below raises low.
    - The swapped-in medoid inherits the bounds. After a swap m -> j,
      removing j from the new medoids leaves exactly the old medoids less
      m, so j's base equals m's last base bit for bit, and j takes m's
      bounds and base with no drop. With k = 1 every base is +inf and never
      changes, so nothing is subtracted there (inf - inf would be nan).
    """
    vals = as_values(X)
    n = vals.shape[0]
    check_setting("k", k)
    if not is_integer(max_swaps, 0):
        raise ValueError(f"pam: max_swaps must be an integer >= 0, "
                         f"not {max_swaps!r}")
    if k > n:
        raise ValueError(f"pam: k={k} exceeds n={n}")
    # Beyond 2^+-255 the squares of the Gram trick overflow or fall below
    # the normal range and lose their bits. Such rows are scaled by a power
    # of two, exactly, so that their largest entry lies in [0.5, 1); the
    # medoids do not change, and the cost is scaled back at the end.
    shift = 0
    big = np.abs(vals).max()
    if not big < np.inf:
        require_finite_rows(vals, "pam", "input")
    if 0 < big < np.inf and not 2.0 ** -255 <= big <= 2.0 ** 255:
        shift = int(np.frexp(big)[1])
        vals = np.ldexp(vals, -shift)
    dist, cols32 = _pairwise_distances(vals)
    lazy = n > _PAM_BLOCK

    # BUILD: first medoid minimizes total distance; each next one maximizes
    # the summed reduction of point-to-nearest-medoid distances. Candidates
    # duplicating a chosen medoid reduce nothing, so distinct rows win first.
    medoids = [int(np.argmin(dist.sum(axis=1)))]
    nearest = dist[:, medoids[0]].copy()
    upper = None
    while len(medoids) < k:
        j = -1
        if lazy and upper is not None:
            j = _lazy_argmax(upper, nearest, dist, n - len(medoids))
        if j < 0:
            upper = _column_sums(lambda r, out: np.maximum(
                np.subtract(nearest[r, None], dist[r], out=out), 0.0, out=out),
                np.empty((min(n, _PAM_BLOCK), n)))
            upper[medoids] = -np.inf
            j = int(np.argmax(upper))
        upper[j] = -np.inf
        medoids.append(j)
        nearest = np.minimum(nearest, dist[:, j])
    medoids.sort()

    # SWAP; carried maps each medoid to its (base, low) while lazy. Nothing
    # in float64 can overflow here (every entry is at most 2^255, so a
    # distance is below 2^257 sqrt(p)), and nearest holds each row's
    # distance to its nearest medoid, so its sum is _assignment_cost's cost.
    buf32 = np.empty((_PAM_BLOCK // 4 if lazy else n, n), dtype=np.float32)
    slack = n * 2.0 ** -50
    positions = np.arange(k)[:, None]
    carried = {}
    swaps = 0
    cost = float(nearest.sum())
    while swaps < max_swaps:
        nearest_pos, d1, d2 = _nearest_two(dist, medoids)
        # Cost after dropping the medoid at pos: covered points fall back to
        # their second-nearest, then everyone may adopt the candidate.
        bases = np.where(nearest_pos == positions, d2, d1)
        free = np.ones(n, dtype=bool)
        free[medoids] = False
        free = free.nonzero()[0]
        for pos, m in enumerate(medoids):
            base, low = bases[pos], None
            if lazy:
                old, low = carried.get(m, (base, np.zeros(n)))
                drop = np.maximum(old - base, 0.0).sum() if k > 1 else 0.0
                if drop:
                    low = low * (1.0 - slack) - drop * (1.0 + slack)
                carried[m] = base, low
            found = _first_below(cost, base, dist, cols32, free, buf32, low)
            if found is not None:
                j, cost = found
                if lazy:
                    carried[j] = carried.pop(m)
                medoids[pos] = j
                medoids.sort()
                swaps += 1
                break
        else:
            break

    # final_cost and cost add the same n nonnegative distances in two
    # orders, each within gamma_{n-1} of their exact sum (Higham 2002, 4.2),
    # so for n u <= 1/4 they differ by at most 4 n u of cost, u = 2^-53.
    assignment, d1, final_cost = _assignment_cost(dist, medoids)
    if not final_cost <= cost * (1.0 + 4.0 * n * 2.0 ** -53):
        raise RuntimeError("PAM cost increased during SWAP")
    return PamResult(list(medoids), assignment,
                     float(np.ldexp(final_cost, shift)))


def _lazy_argmax(upper, nearest, dist, count):
    """The first column j of largest reduction sum_i max(nearest_i - d_ij, 0)
    (added row after row, as _column_sums adds it) among the count columns
    whose upper[j] is finite, or -1 when the quarter block of the highest
    upper bounds cannot settle it. upper[j] >= each column's reduction
    (-inf for a medoid); the columns evaluated take their exact values."""
    order = np.argsort(-upper, kind="stable")
    top = np.sort(order[:min(count, _PAM_BLOCK // 4)])
    cols = dist[:, top]
    np.maximum(np.subtract(nearest[:, None], cols, out=cols), 0.0, out=cols)
    exact = np.add.accumulate(cols, axis=0, out=cols)[-1]
    upper[top] = exact
    i = int(np.argmax(exact))
    if top.size < count:
        rival = order[top.size]
        if upper[rival] > exact[i] or (upper[rival] == exact[i]
                                       and rival < top[i]):
            return -1
    return int(top[i])


def _fold_sums(base, cols) -> np.ndarray:
    """Column sums of np.minimum(base[:, None], cols), each added row after
    row in float64 (the floats _column_sums gives). A plain sum(axis=0) is
    not that for one column, or for a gathered cols in F order: numpy then
    sums pairwise along the column."""
    terms = np.minimum(base[:, None], cols)
    return np.add.accumulate(terms, axis=0, out=terms)[-1]


def _first_below(cost, base, dist, cols32, free, buf32, low=None):
    """The first column j of dist among free (the ascending non-medoid
    columns) whose new cost E_j = sum_i min(base_i, dist_ij) (added row after
    row in float64) is below cost, as (j, E_j); None if there is none.

    low, when given, holds a lower bound on every E_j. A column whose
    low_j >= cost is not read, and every column read raises low_j: to E_j
    when it is summed exactly, and otherwise to the float32 screen's bound.

    The columns read are screened in float32 in chunks of buf32's rows, and
    a column is ruled out only when its float32 sum a exceeds cost by more
    than a can err. With u = 2^-24 and e = 2^-126, for the exact sum T:
    - base is clamped at 2^127 / n before its float32 cast, so no term and
      no sum overflows, and clamping only lowers terms;
    - float32 rounding is monotone, so a adds up terms of at most
      fl32(min(base_i, d_ij)) = min(fl32(base_i), fl32(d_ij)), each within
      u*t + e of its term t (e covers the subnormal range, even when it
      flushes to zero);
    - any order of n - 1 float32 additions errs by at most
      gamma_{n-1} = (n-1)u / (1 - (n-1)u) of the sum, plus e per addition
      (Higham 2002, Accuracy and Stability of Numerical Algorithms, 4.2);
    - the float64 fold gives E >= T (1 - gamma64_{n-1}).
    So a < E (1+u) / ((1 - (n-1)u)(1 - gamma64_{n-1})) + 4 n e, and for
    n u <= 1/4 (any n x n array that fits in memory) that is below
    E (1 + 2 n u) + 4 n e, with room to spare for evaluating it in float64:
    E >= (a - 4 n e) / (1 + 2 n u), and E < cost forces
    a < cost (1 + 2 n u) + 4 n e. Every column not ruled out is summed
    exactly in float64, so the answer is the one whole float64 column sums
    give.
    """
    n = base.size
    columns = free if low is None else free[low[free] < cost]
    base32 = np.minimum(base, 2.0 ** 127 / n).astype(np.float32)
    bound = cost * (1.0 + n * 2.0 ** -23) + n * 2.0 ** -124
    for start in range(0, columns.size, buf32.shape[0]):
        idx = columns[start:start + buf32.shape[0]]
        block = cols32.take(idx, axis=0, out=buf32[:idx.size], mode="clip")
        # Compared in float64: against a float32 array numpy may round
        # bound to float32, possibly below cost.
        approx = np.minimum(block, base32, out=block).sum(axis=1).astype(float)
        if low is not None:
            low[idx] = np.fmax(low[idx], (approx - n * 2.0 ** -124)
                               / (1.0 + n * 2.0 ** -23))
        candidates = idx[approx < bound]
        if candidates.size:
            exact = _fold_sums(base, dist[:, candidates])
            if low is not None:
                low[candidates] = exact
            below = (exact < cost).nonzero()[0]
            if below.size:
                return int(candidates[below[0]]), float(exact[below[0]])
    return None


def _nearest_two(dist, medoids):
    """(position among medoids of each row's nearest medoid, that distance,
    the distance to the nearest other medoid, +inf for k = 1); the first
    position wins a tie, as a stable sort puts it."""
    cols = dist[:, medoids]
    rows = np.arange(dist.shape[0])
    pos = cols.argmin(axis=1)
    d1 = cols[rows, pos]
    if cols.shape[1] == 1:
        return pos, d1, np.full(dist.shape[0], np.inf)
    cols[rows, pos] = np.inf
    return pos, d1, cols.min(axis=1)


def _assignment_cost(dist, medoids):
    cols = dist[:, medoids]
    assignment = cols.argmin(axis=1)
    d1 = cols[np.arange(dist.shape[0]), assignment]
    return assignment, d1, float(d1.sum())


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def _spatial_medians(tables) -> list[np.ndarray]:
    """The spatial median of each table, from one spatial_median call per
    distinct table shape (shapes in order of first appearance)."""
    medians = [None] * len(tables)
    for shape in dict.fromkeys(t.shape for t in tables):
        picked = [i for i, t in enumerate(tables) if t.shape == shape]
        stack = spatial_median(np.stack([tables[i] for i in picked]))
        for i, median in zip(picked, stack):
            medians[i] = median
    return medians


def fit_models(variant: str, tables, s: float, rngs=None,
               settings: Settings = Settings()) -> list[ToccModel]:
    """One TOCC of the variant ("df", "db" or "pam_df") per training table,
    each the model fit_tocc_df(table, s), fit_tocc_db(table, s, rngs[i],
    **vars(settings)) or fit_pam_tocc_df(table, settings.k, s) fits alone;
    only db tables take a stream. Every table is checked first, and must
    be as wide as the first; the df and db prototypes, spatial medians,
    are found in one call per table shape. The models are then drafted in
    table order and calibrated together: threshold g of each is the
    (1 - s_g) type-1 quantile of the scores against prototype g of the
    table's rows labelled g (every row for df and db, PAM's assignment for
    pam_df), all from one prototype_scores call on the tables as given.
    """
    fitter = {"df": "fit_tocc_df", "db": "fit_tocc_db",
              "pam_df": "fit_pam_tocc_df"}.get(variant)
    if fitter is None:
        raise ValueError(f"unknown variant '{variant}'")
    values = [as_values(X) for X in tables]
    for i, vals in enumerate(values):
        require_training_rows(vals, s, fitter)
        if vals.shape[1] != values[0].shape[1]:
            raise ValueError(f"{fitter}: table {i} has {vals.shape[1]} columns, "
                             f"table 0 has {values[0].shape[1]}")
    medians = (_spatial_medians(values) if variant != "pam_df"
               else [None] * len(values))
    models, labels = [], []
    for X, vals, median, rng in zip(tables, values, medians,
                                    rngs or [None] * len(tables)):
        names = list(X.feature_names) if hasattr(X, "feature_names") else None
        if variant == "df":
            model = ToccModel("df", median, [0.0], [s],
                              groups=[vals.copy()], feature_names=names)
        elif variant == "db":
            integrator = OrthantIntegrator("monte_carlo", settings.mc_samples,
                                           rng.child(997))
            density = fit_gmm(vals, settings.components_range, rng,
                              n_restarts=settings.n_restarts)
            model = ToccModel("db", median, [0.0], [s],
                              density=density, integrator=integrator,
                              feature_names=names)
        else:
            g = settings.k
            while True:
                result = pam(vals, g)
                if np.bincount(result.assignment, minlength=g).min() >= 3:
                    break
                g -= 1
            model = ToccModel(
                "pam_df", vals[result.medoids], np.zeros(g), [s] * g,
                groups=[vals[result.assignment == j] for j in range(g)],
                feature_names=names, pam=result)
        models.append(model)
        labels.append(np.zeros(len(vals), dtype=np.intp) if model.pam is None
                      else model.pam.assignment)
    scores = prototype_scores(models, values, labels)
    for model, score, own in zip(models, scores, labels):
        model.thresholds = np.array([
            empirical_quantile(score[own == g], 1.0 - sg)
            for g, sg in enumerate(model.sensitivity)])
    return models


def fit_tocc_df(X_target, s: float) -> ToccModel:
    """Density-free TOCC: spatial-median prototype, counting scores,
    threshold at the (1-s) type-1 quantile of training scores."""
    return fit_models("df", [X_target], s)[0]


def fit_tocc_db(X_target, s: float, rng: RngStream,
                components_range=Settings.components_range,
                mc_samples: int = Settings.mc_samples,
                n_restarts: int = Settings.n_restarts) -> ToccModel:
    """Density-based TOCC: fits a Gaussian mixture (BIC over the component
    range), then scores by orthant-mass ratios under that density, counted
    on mc_samples Monte Carlo draws from stream rng.child(997)."""
    return fit_models("db", [X_target], s, [rng], Settings(
        mc_samples=mc_samples, components_range=components_range,
        n_restarts=n_restarts))[0]


def fit_pam_tocc_df(X_target, k: int, s: float) -> ToccModel:
    """Two-phase PAM-TOCC: cluster the target class into k groups, then
    calibrate one counting-score threshold per cluster against its medoid.

    Every cluster must keep at least 3 members: an undersized cluster lowers
    k by one until all clusters are large enough (k = 1 always is);
    model.n_prototypes is the k used.
    """
    return fit_models("pam_df", [X_target], s, settings=Settings(k=k))[0]


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

def predict(model: ToccModel, Z) -> PredictionResult:
    """Score each row of Z against its nearest prototype (the one spatial
    median for df and db, the nearest medoid for pam_df with ties to the
    lowest cluster index) and accept it when the score reaches that
    prototype's threshold. Z must be finite and as wide as the model, and
    a DataMatrix must name the model's features in its order."""
    vals = as_queries(Z, model.p, "predict", model.feature_names)
    return predict_models([model], vals[None])[0]


def predict_models(models, views) -> list[PredictionResult]:
    """predict(models[i], views[i]) for each of V models at once, with
    views a V x q x p array of finite rows as wide as the models: every
    view's queries go to their nearest prototypes in one nearest_prototypes
    call, and all views are scored by one prototype_scores call."""
    # Rows of +inf fill out the views with fewer prototypes: no query is
    # nearer to one.
    prototypes = np.full((len(models), max(m.n_prototypes for m in models),
                          views.shape[2]), np.inf)
    for proto, model in zip(prototypes, models):
        proto[:model.n_prototypes] = model.prototypes
    clusters = nearest_prototypes(views, prototypes)
    return [PredictionResult(score >= model.thresholds[labels], score,
                             labels if model.variant == "pam_df" else None)
            for model, score, labels in zip(
                models, prototype_scores(models, views, clusters), clusters)]


def nearest_prototypes(Z, prototypes) -> np.ndarray:
    """The index of each query's nearest prototype in each of V views at
    once, for queries Z (V x q x p) and prototypes (V x k x p), rows of +inf
    padding a view's prototypes: ties go to the lowest index, and a query
    at inf from every prototype goes to 0. One prototype of every view at
    a time, so no V x q x k x p array is held."""
    nearest = np.zeros(Z.shape[:2], dtype=np.intp)
    least = np.full(Z.shape[:2], np.inf)
    # A far query's distances overflow to inf.
    with np.errstate(over="ignore"):
        for j in range(prototypes.shape[1]):
            dist = np.linalg.norm(Z - prototypes[:, j, None], axis=2)
            closer = dist < least
            nearest[closer], least[closer] = j, dist[closer]
    return nearest


def prototype_scores(models, Zs, clusters) -> list[np.ndarray]:
    """The score of each row of Zs[i] against prototype clusters[i] of
    models[i], in Zs[i]'s order. Each row's segment is its model's offset
    among all df and pam_df prototypes plus its cluster, and all those rows
    are counted in one tp_scores call; a db model's rows are scored under
    its density, one tp_density_scores call for all its prototypes."""
    scores = [None] * len(models)
    counted, groups, queries, segs, prototypes, eps = [], [], [], [], [], []
    for i, (model, Z, labels) in enumerate(zip(models, Zs, clusters)):
        if model.variant == "db":
            scores[i] = tp_density_scores(model.density, Z, labels,
                                          model.prototypes, model.integrator,
                                          model.eps).value
        else:
            counted.append(i)
            segs.append(labels + len(groups))
            groups += model.groups
            queries.append(Z)
            prototypes.append(model.prototypes)
            eps += [model.eps] * model.n_prototypes
    if counted:
        values = tp_scores(groups, np.concatenate(queries), np.concatenate(segs),
                           np.concatenate(prototypes), eps).value
        ends = np.cumsum([len(Z) for Z in queries])
        for i, score in zip(counted, np.split(values, ends[:-1])):
            scores[i] = score
    return scores
