"""Differential sweeps: the batched orthant-counting kernel and its p = 2
sort-and-search sweep, the one box-mass function, the stacked EM step, the
sorted ROC sweep, the table-driven model files, the stacked
feature-selection front-ends, blocked PAM and the blocked product KDE
against the frozen per-query, per-component, per-cut-point, hand-written,
per-candidate and whole-array references in reference_impl.py, compared
exactly. The counting kernels are also compared with the comparison oracle
there, on every case, since the frozen product tests are exact only inside
a value range.

Every comparison is np.array_equal or ==, never approx: batching the count
must not move a single score, tie or dropped coordinate, stacking the EM
step must not move a single mixture parameter or log-likelihood, a model
file must keep every byte, and stacking the projection candidates must not
change which projection is selected.
"""

import warnings

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

import reference_impl as ref
from tocc import (DataMatrix, MixtureDensity, OrthantIntegrator, RngStream,
                  fit_pam_tocc_df, fit_tocc_db, fit_tocc_df, load_glass,
                  load_model, multivariate_tp, multivariate_tp_density,
                  orthant_probability, predict, roc_curve, save_model,
                  univariate_tp)
from tocc import baselines, classifier, density, numcore, transvariation
from tocc.density import box_masses
from tocc.evaluation import ALL_METHODS, fit_method
from tocc.featsel import compute_vip, rp_select
from tocc.transvariation import tp_density_scores, tp_scores


def fields(score):
    return (score.value, score.numerator_count, score.denominator_count,
            score.dropped_coords, score.degenerate)


def assert_rows_match(rows, oracles, degenerate):
    """Each row of a batch record equals the one-query oracle's value,
    numerator, denominator, dropped coordinates and degenerate flag (read
    by the caller from the oracle's denominator)."""
    assert np.array_equal(rows.value, [o.value for o in oracles])
    assert np.array_equal(rows.numerator, [o.numerator_count for o in oracles])
    assert np.array_equal(rows.denominator, [o.denominator_count for o in oracles])
    assert [np.flatnonzero(~kept).tolist() for kept in rows.kept] \
        == [o.dropped_coords for o in oracles]
    assert rows.degenerate.tolist() == [degenerate(o) for o in oracles]


def zero_denominator(oracle):
    # The counting oracles never set their flag: a zero weighted count is
    # the degenerate denominator.
    return oracle.denominator_count == 0.0


# Where every entry is 0 or of a magnitude in this range, the frozen
# product tests equal the comparisons: every product of two nonzero
# differences is at least 2^-1074 and no difference overflows.
PRODUCT_RANGE = (2.0 ** -485, 2.0 ** 1022)


def counting_oracles(X, Q, m, eps):
    """The comparison oracle's score of each query row of Q, and, where the
    product tests are exact (PRODUCT_RANGE), the frozen product oracle's."""
    oracles = [[ref.comparison_tp(X, c, m, eps) for c in Q]]
    mags = np.abs(np.concatenate([X.ravel(), Q.ravel(), m]))
    tiny, huge = PRODUCT_RANGE
    if np.all((mags == 0) | (mags >= tiny) & (mags < huge)):
        # Near 1e160 the frozen products overflow to infinities of the
        # right sign.
        with np.errstate(over="ignore"):
            oracles.append([ref.multivariate_tp(X, c, m, eps) for c in Q])
    return oracles


def assert_counts_match(X, Q, m, eps):
    """tp_scores equals every oracle of counting_oracles on every row."""
    rows = tp_scores(X, Q, m, eps)
    for oracles in counting_oracles(X, Q, m, eps):
        assert_rows_match(rows, oracles, zero_denominator)


def sample_points(gen, n, p):
    """Integer grids with heavy ties, duplicated rows, or continuous data at
    scales from 1e-160 (products of differences underflow to 0) to 1e160
    (they overflow)."""
    kind = int(gen.integers(4))
    if kind == 0:
        return gen.integers(-2, 3, size=(n, p)).astype(float)
    X = gen.normal(size=(n, p))
    if kind == 1:
        return X[gen.integers(0, n, size=n)]
    if kind == 2:
        return X * 10.0 ** gen.uniform(-3, 3)
    return X * 10.0 ** float(gen.choice([-160, 160]))


def sample_queries(gen, X, m, eps):
    """Training rows, the prototype, the prototype nudged inside the drop
    band, and copies of it with a single coordinate moved, plus fresh
    points; one coordinate or every coordinate dropped is well covered."""
    p = X.shape[1]
    scale = np.abs(X).max() or 1.0
    moved = np.repeat(m[None, :], p, axis=0)
    moved[np.arange(p), np.arange(p)] = X[gen.integers(0, len(X), size=p),
                                         np.arange(p)]
    parts = [X[gen.integers(0, len(X), size=int(gen.integers(1, 120)))],
             m[None, :], m[None, :] + 0.5 * eps, moved,
             gen.integers(-3, 4, size=(20, p)) * scale / 2]
    return np.vstack(parts)


def counting_case(gen):
    p = int(gen.integers(1, 4))
    n = int(gen.integers(1, 301))
    X = sample_points(gen, n, p)
    m = X[int(gen.integers(n))] if gen.random() < 0.3 else np.median(X, axis=0)
    eps = 0.0 if np.abs(X).max() < 1e-100 else transvariation.DROP_EPS
    return X, m, sample_queries(gen, X, m, eps), eps


def force_sweep(monkeypatch):
    """Take the p = 2 sweep at every size, and count the groups it scores."""
    monkeypatch.setattr(transvariation, "_SWEEP_MIN_PAIRS", 0)
    calls = []
    sweep = transvariation._sweep_counts
    monkeypatch.setattr(transvariation, "_sweep_counts",
                        lambda *args: calls.append(1) or sweep(*args))
    return calls


def scaled_grid_case():
    """Integer-grid rows with ties and duplicated rows, a half-integer
    prototype and integer queries (some on the data, one on the prototype
    and one sharing a coordinate with it): every entry times 2^k is exact
    for k from -1070 to 1021."""
    gen = np.random.default_rng(107)
    X = gen.integers(-2, 3, size=(40, 2)).astype(float)
    X[30:] = X[:10]
    m = np.array([0.5, -0.5])
    Q = np.vstack([X[:12], gen.integers(-3, 4, size=(20, 2)), m, [[0.5, 2.0]]])
    return X, Q, m


# Turning RuntimeWarning into an error makes a floating-point overflow or
# invalid operation brought back into either counter fail these sweeps.
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestCountingKernel:
    def test_batched_scores_match_reference(self):
        gen = np.random.default_rng(101)
        for _ in range(60):
            X, m, Q, eps = counting_case(gen)
            assert_counts_match(X, Q, m, eps)

    def test_single_query_fields_match_reference(self):
        gen = np.random.default_rng(102)
        for _ in range(30):
            X, m, Q, eps = counting_case(gen)
            picked = Q[gen.integers(0, len(Q), size=10)]
            for oracles in counting_oracles(X, picked, m, eps):
                for c, want in zip(picked, oracles):
                    got = multivariate_tp(X, c, m, eps)
                    assert fields(got)[:4] == fields(want)[:4]
                    assert got.degenerate == zero_denominator(want)

    def test_chunk_boundaries(self, monkeypatch):
        # A tiny budget makes every batch span many chunks, with a ragged
        # last one.
        monkeypatch.setattr(numcore, "_CHUNK_ELEMENTS", 97)
        gen = np.random.default_rng(103)
        for _ in range(20):
            X, m, Q, eps = counting_case(gen)
            assert_counts_match(X, Q, m, eps)

    def test_univariate_matches_reference(self):
        gen = np.random.default_rng(104)
        for _ in range(200):
            xs = gen.integers(-3, 4, size=int(gen.integers(1, 40))).astype(float)
            m = float(np.median(xs)) if gen.random() < 0.7 else float(xs[0])
            c = float(gen.choice([m, float(gen.integers(-4, 5)), gen.normal()]))
            assert fields(univariate_tp(xs, c, m)) \
                == fields(ref.univariate_tp(xs, c, m))

    @pytest.mark.parametrize("sweep", [False, True], ids=["default", "sweep"])
    def test_power_of_two_scales(self, monkeypatch, sweep):
        # Scaling by 2^k is exact, so no count may move: not where products
        # of differences would underflow (k <= -537), nor near the top of
        # the range.
        X, Q, m = scaled_grid_case()
        if sweep:
            calls = force_sweep(monkeypatch)
        want = tp_scores(X, Q, m, 0.0)
        for k in range(-1070, 1022):
            s = 2.0 ** k
            for got, expected in zip(tp_scores(X * s, Q * s, m * s, 0.0), want):
                assert np.array_equal(got, expected), k
        assert not sweep or len(calls) > 2092


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestCountingSweep:
    def test_sweep_matches_reference(self, monkeypatch):
        calls = force_sweep(monkeypatch)
        gen = np.random.default_rng(105)
        for _ in range(40):
            X, m, Q, eps = counting_case(gen)
            assert_counts_match(X, Q, m, eps)
        assert len(calls) > 20

    def test_sweep_matches_broadcast_at_cli_scale(self, monkeypatch):
        # 2000 rows of a coarse grid with duplicated rows against 10 000
        # queries: training rows, grid points and continuous points.
        gen = np.random.default_rng(106)
        X = gen.integers(-20, 21, size=(2000, 2)).astype(float)
        X[1000:] = X[gen.integers(0, 1000, size=1000)]
        m = np.median(X, axis=0) + 0.5
        Q = np.vstack([X[gen.integers(0, 2000, size=4000)],
                       gen.integers(-22, 23, size=(3000, 2)),
                       gen.normal(size=(3000, 2)) * 10])
        monkeypatch.setattr(transvariation, "_SWEEP_MIN_PAIRS", len(X) * len(Q) + 1)
        broadcast = tp_scores(X, Q, m)
        calls = force_sweep(monkeypatch)
        sweep = tp_scores(X, Q, m)
        assert calls
        for got, want in zip(sweep, broadcast):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("scale", [2.0 ** -485, 2.0 ** -486, 2.0 ** 1023],
                             ids=["at-the-bound", "underflow", "overflow"])
    def test_sweep_guard(self, monkeypatch, scale):
        # The scales where products of differences stop being exact: at
        # 2^-485 they are still at least 2^-1074, near 2^-486 one-ulp
        # differences multiply to 2^-1076 and 2^-1075, which round to 0,
        # and near 2^1023 m - c overflows. Both counters compare, so the
        # sweep runs at each scale and equals the broadcast kernel and the
        # comparison oracle.
        s, u = scale, np.spacing(scale)
        m = np.array([s + 3 * u, s])
        X = np.array([[s + u, -(s + u)], [s + 2 * u, -s], m, [-s, -s],
                      [-(s + u), s + u], [s, -s]])
        Q = np.vstack([X, [[-s, -(s + u)], [s + 3 * u, -s]]])
        with warnings.catch_warnings():
            if scale == 2.0 ** 1023:
                # The drop rule's m - c overflows to an infinity, which is
                # kept, as it should be.
                warnings.filterwarnings(
                    "ignore", "overflow encountered in subtract", RuntimeWarning)
            broadcast = tp_scores(X, Q, m, 0.0)
            calls = force_sweep(monkeypatch)
            sweep = tp_scores(X, Q, m, 0.0)
            oracles = [ref.comparison_tp(X, c, m, 0.0) for c in Q]
        assert calls
        for got, want in zip(sweep, broadcast):
            assert np.array_equal(got, want)
        assert_rows_match(sweep, oracles, zero_denominator)

    def test_query_on_the_prototype(self):
        # A negative eps would keep the coordinates a query shares with m,
        # where it points neither up nor down; nan would drop nothing.
        Q = np.array(np.meshgrid([-2.0, -1, 0, 1, 2], [-2.0, -1, 0, 1, 2])).reshape(2, -1).T
        for eps in (-1.0, -1e-300, np.nan):
            with pytest.raises(ValueError, match="must be a number >= 0"):
                tp_scores(Q, Q, np.zeros(2), eps)


def mixture_case(gen, p):
    G = int(gen.integers(1, 4))
    means = gen.normal(size=(G, p)) * 2
    A = gen.normal(size=(G, p, p))
    covs = A @ A.transpose(0, 2, 1) + 0.2 * np.eye(p)
    weights = gen.dirichlet(np.ones(G))
    return MixtureDensity(weights / weights.sum(), means, covs)


class TestDensityKernel:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_batched_scores_match_reference(self, p):
        gen = np.random.default_rng(110 + p)
        for trial in range(3):
            density = mixture_case(gen, p)
            integ = OrthantIntegrator("monte_carlo", 10_000, RngStream(trial))
            X = density.sample(40, gen)
            m = np.median(X, axis=0)
            Q = sample_queries(gen, X, m, transvariation.DROP_EPS)
            assert_rows_match(
                tp_density_scores(density, Q, m, integ),
                [ref.multivariate_tp_density(density, c, m, integ) for c in Q],
                lambda oracle: oracle.denominator_count < 1e-12)
            for c in Q[:8]:
                assert fields(multivariate_tp_density(density, c, m, integ)) \
                    == fields(ref.multivariate_tp_density(density, c, m, integ))

    def test_draws_on_the_box_boundary_count(self):
        # A collapsed component (as EM leaves on one training row) puts its
        # draws exactly on the query's second coordinate: the box integral
        # counts them in full, not as half-weight ties.
        density = MixtureDensity([0.9, 0.1], [[0.0, 0.0], [1.0, 2.0]],
                                 [np.eye(2), np.diag([1.0, 1e-40])])
        integ = OrthantIntegrator("monte_carlo", 10_000, RngStream(8))
        Q = np.array([[0.5, 2.0], [1.5, 2.0], [-0.5, 2.0], [0.5, 1.0]])
        m = np.zeros(2)
        expected = [ref.multivariate_tp_density(density, c, m, integ).value
                    for c in Q]
        assert np.array_equal(tp_density_scores(density, Q, m, integ)[0],
                              expected)

    def test_degenerate_denominator_matches_reference(self):
        density = MixtureDensity([1.0], [[0.0, 0.0]], [np.eye(2)])
        integ = OrthantIntegrator("monte_carlo", 10_000, RngStream(9))
        for c, m in (([41.0, 41.0], [40.0, 40.0]), ([41.0, 0.0], [40.0, 0.0])):
            assert fields(multivariate_tp_density(density, c, m, integ)) \
                == fields(ref.multivariate_tp_density(density, c, m, integ))


def random_boxes(gen, density, integ, q):
    """q boxes, each coordinate unbounded, bounded below, above or on both
    sides; the first rows are bounded nowhere, and boxes bounded on two or
    more coordinates mostly take their bounds from two of the draws, so
    draws lie exactly on the boundary."""
    p = density.p
    lower, upper = np.full((q, p), -np.inf), np.full((q, p), np.inf)
    sides = gen.integers(4, size=(q, p))    # 0 none, 1 below, 2 above, 3 both
    sides[:3] = 0
    for i, side in enumerate(sides):
        kept = np.flatnonzero(side)
        if kept.size >= 2 and gen.random() < 0.8:
            pair = integ.samples(density)[:, kept][gen.integers(10_000, size=2)]
            lo, hi = pair.min(axis=0), pair.max(axis=0)
        else:
            lo = gen.normal(size=kept.size)
            hi = lo + gen.choice([0.0, gen.exponential()], size=kept.size)
        lower[i, kept] = np.where(side[kept] & 1, lo, -np.inf)
        upper[i, kept] = np.where(side[kept] & 2, hi, np.inf)
    return lower, upper


class TestBoxMasses:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_boxes_match_reference(self, p):
        gen = np.random.default_rng(120 + p)
        density = mixture_case(gen, p)
        integ = OrthantIntegrator("monte_carlo", 10_000, RngStream(p))
        lower, upper = random_boxes(gen, density, integ, 60)
        expected = [ref.orthant_probability(density, lo, hi, integ)
                    for lo, hi in zip(lower, upper)]
        assert np.array_equal(box_masses(density, lower, upper, integ), expected)
        assert [orthant_probability(density, lo, hi, integ)
                for lo, hi in zip(lower, upper)] == expected

    def test_chunk_boundaries(self, monkeypatch):
        monkeypatch.setattr(numcore, "_CHUNK_ELEMENTS", 97)
        gen = np.random.default_rng(124)
        density = mixture_case(gen, 3)
        integ = OrthantIntegrator("monte_carlo", 10_000, RngStream(4))
        lower, upper = random_boxes(gen, density, integ, 30)
        expected = [ref.orthant_probability(density, lo, hi, integ)
                    for lo, hi in zip(lower, upper)]
        assert np.array_equal(box_masses(density, lower, upper, integ), expected)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_density_scores_on_draws_match_reference(self, p):
        # The prototype and every kept query coordinate sit on the draws
        # their boxes are counted on.
        gen = np.random.default_rng(125 + p)
        density = mixture_case(gen, p)
        integ = OrthantIntegrator("monte_carlo", 10_000, RngStream(p))
        m = integ.samples(density)[0]
        Q = np.repeat(m[None, :], 40, axis=0)
        for c in Q[1:]:
            kept = np.flatnonzero(gen.random(p) < 0.7)
            if kept.size:
                c[kept] = integ.samples(density)[:, kept][gen.integers(10_000)]
        for got, want in zip(tp_density_scores(density, Q, m, integ),
                             ref.tp_density_scores(density, Q, m, integ)):
            assert np.array_equal(got, want)


def target_rows(seed, n=80, p=2):
    gen = np.random.default_rng(seed)
    return np.vstack([gen.normal(size=(n // 2, p)),
                      gen.normal(size=(n - n // 2, p)) * 0.5 + 3.0])


def query_rows(seed, X, model):
    gen = np.random.default_rng(seed + 1)
    return np.vstack([gen.normal(size=(150, X.shape[1])) * 3, X,
                      model.prototypes])


class TestFitPredict:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tocc_df(self, seed):
        X = target_rows(seed)
        model = fit_tocc_df(X, 0.9)
        assert model.thresholds[0] == ref.df_threshold(X, 0.9)
        Z = query_rows(seed, X, model)
        scores, _ = ref.predict_scores(model, Z)
        assert np.array_equal(predict(model, Z).score, scores)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pam_tocc_df(self, seed):
        X = np.round(target_rows(seed, n=120), 1)   # ties inside clusters
        model = fit_pam_tocc_df(X, 3, 0.9)
        assert np.array_equal(
            model.thresholds,
            ref.pam_thresholds(X, model.pam, model.sensitivity))
        Z = query_rows(seed, X, model)
        scores, clusters = ref.predict_scores(model, Z)
        result = predict(model, Z)
        assert np.array_equal(result.score, scores)
        assert np.array_equal(result.cluster, clusters)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_tocc_db(self, seed):
        X = target_rows(seed, n=60)
        integ = OrthantIntegrator("monte_carlo", 10_000, RngStream(seed, 5))
        model = fit_tocc_db(X, 0.9, RngStream(seed), components_range=(1, 2),
                            integrator=integ, n_restarts=2)
        assert model.thresholds[0] == ref.db_threshold(
            X, 0.9, model.density, model.prototypes[0], integ)
        Z = query_rows(seed, X, model)
        scores, _ = ref.predict_scores(model, Z)
        assert np.array_equal(predict(model, Z).score, scores)


def assert_same_em(vals, k, stream):
    """The library's and the reference EM run from the same seed: both
    degenerate (None), or equal weights, means, covariances and
    log-likelihood. Returns the library's result."""
    got = density._em_single(vals, k, stream.generator())
    want = ref._em_single(vals, k, stream.generator())
    if got is None or want is None:
        assert got is None and want is None
        return got
    (f, ll), (f_ref, ll_ref) = got, want
    assert np.array_equal(f.weights, f_ref.weights)
    assert np.array_equal(f.means, f_ref.means)
    assert np.array_equal(f.covariances, f_ref.covariances)
    assert ll == ll_ref
    return got


def glass_target(*features):
    glass = load_glass()
    return glass.select_rows(glass.is_target()).select_features(list(features)).values


class TestEmStep:
    def test_component_counts_and_restarts(self):
        gen = np.random.default_rng(120)
        X = np.vstack([gen.normal(size=(60, 2)),
                       gen.normal(size=(50, 2)) * 0.3 + [4.0, 1.0],
                       gen.normal(size=(40, 2)) @ [[1.0, 0.9], [0.0, 0.3]] - 3.0])
        for k in range(1, 10):
            for r in range(3):
                assert_same_em(X, k, RngStream(121).child(k).child(r))
        Y = gen.normal(size=(120, 3)) @ gen.normal(size=(3, 3))
        for k in range(1, 6):
            assert_same_em(Y, k, RngStream(122).child(k))

    @pytest.mark.parametrize("features", [("RI", "Na"), ("Si", "Mg"),
                                          ("Al", "Ca")], ids="-".join)
    def test_glass_column_pairs(self, features):
        vals = glass_target(*features)
        for k in range(1, 10):
            assert_same_em(vals, k, RngStream(71).child(k).child(k % 5))

    def test_ridge_bump(self, monkeypatch):
        # A component of the RI/Na glass targets collapses at G = 6, so its
        # covariance fails Cholesky and takes the per-component ridge path.
        bumps = []

        def counted(cov):
            bumps.append(cov)
            return ref._regularize_spd(cov)

        monkeypatch.setattr(density, "_regularize_spd", counted)
        assert assert_same_em(glass_target("RI", "Na"), 6,
                              RngStream(71).child(6).child(0)) is not None
        assert bumps

    def test_collapsing_component(self):
        # At G = 2 one RI/Ba component collapses onto the Ba = 0 rows: the
        # log-likelihood drops on a step with a tiny Cholesky pivot, and the
        # run keeps its last clean iterate instead of raising.
        assert assert_same_em(glass_target("RI", "Ba"), 2,
                              RngStream(71).child(2).child(0)) is not None

    def test_degenerate_run(self):
        # Ba is zero on most glass targets: this G = 3 restart degenerates.
        assert assert_same_em(glass_target("RI", "Ba"), 3,
                              RngStream(71).child(3).child(1)) is None


class TestMixtureLogDensity:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_matches_reference(self, p):
        gen = np.random.default_rng(130 + p)
        for _ in range(10):
            f = mixture_case(gen, p)
            # Far rows drive some component densities to -inf.
            X = np.vstack([f.sample(50, gen), gen.normal(size=(5, p)) * 1e160])
            with np.errstate(over="ignore"):
                assert np.array_equal(f.component_logpdf(X),
                                      ref.component_logpdf(f, X))
                assert np.array_equal(f.logpdf(X), ref.logpdf(f, X))

    def test_bad_rows_rejected(self):
        f = MixtureDensity([1.0], [[0.0, 0.0]], [np.eye(2)])
        with pytest.raises(ValueError, match="query row 1 is not finite"):
            f.logpdf([[0.0, 0.0], [np.nan, 1.0]])
        # One coordinate would broadcast over both.
        with pytest.raises(ValueError, match="query dimension 1 != model"):
            f.pdf([[0.5]])


class TestLogsumexp:
    def test_matches_scipy(self):
        gen = np.random.default_rng(140)
        for trial in range(200):
            a = gen.normal(size=(int(gen.integers(1, 40)),
                                 int(gen.integers(1, 10)))) * 20.0
            if trial % 3 == 0:
                a = np.round(a / 10.0)                  # tied maxima
            a[gen.random(a.shape) < 0.2] = -np.inf
            a[0] = -np.inf                              # an all -inf row
            with np.errstate(all="raise"):
                got = density.logsumexp(a)
                want = scipy_logsumexp(a, axis=1)
            assert np.array_equal(got, want)

    def test_non_finite_rows_match_scipy(self):
        a = np.array([[np.inf, 0.0], [np.nan, 0.0], [np.inf, -np.inf],
                      [-np.inf, -np.inf], [1e308, 1e308]])
        with np.errstate(all="ignore"):
            assert np.array_equal(density.logsumexp(a),
                                  scipy_logsumexp(a, axis=1), equal_nan=True)


class TestRocCurve:
    def test_matches_reference(self):
        gen = np.random.default_rng(91)
        for _ in range(300):
            n = int(gen.integers(2, 120))
            if gen.integers(2):   # heavy ties, signed zeros included
                scores = gen.integers(-3, 4, size=n) * float(gen.choice([0.5, -0.0]))
            else:
                scores = gen.normal(size=n) * 10.0 ** gen.uniform(-3, 3)
            is_target = gen.random(n) < gen.uniform(0.1, 0.9)
            is_target[:2] = (True, False)
            new, old = roc_curve(scores, is_target), ref.roc_curve(scores, is_target)
            for got, want in ((new.fpr, old.fpr), (new.tpr, old.tpr),
                              (new.thresholds, old.thresholds)):
                assert np.array_equal(got, want)
            assert new.auc == old.auc


@pytest.fixture(scope="module")
def fitted_models():
    gen = np.random.default_rng(93)
    X = DataMatrix(np.vstack([gen.normal(size=(40, 2)),
                              gen.normal(size=(30, 2)) * 0.5 + 3.0]), ["u", "v"])
    Z = gen.normal(size=(40, 2)) * 2.0 + 1.0
    return Z, {name: fit_method(name, X, 0.9, RngStream(94), k=2,
                                mc_samples=10_000, components_range=(1, 2),
                                n_restarts=2)
               for name in ALL_METHODS}


def assert_same_predictions(a, b, Z):
    pa, pb = a.predict(Z), b.predict(Z)
    assert np.array_equal(pa.score, pb.score)
    assert np.array_equal(pa.accept, pb.accept)
    assert (pa.cluster is None) == (pb.cluster is None)
    if pa.cluster is not None:
        assert np.array_equal(pa.cluster, pb.cluster)


class TestModelFiles:
    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_bytes_match_reference(self, tmp_path, fitted_models, name):
        model = fitted_models[1][name]
        config = {"method": name, "seed": 94, "s": 0.9}
        save_model(model, tmp_path / "new.json", config)
        ref.save_model(model, tmp_path / "old.json", config)
        assert (tmp_path / "new.json").read_bytes() == \
            (tmp_path / "old.json").read_bytes()

    @pytest.mark.parametrize("name", ALL_METHODS)
    def test_files_load_both_ways(self, tmp_path, fitted_models, name):
        Z, models = fitted_models
        model = models[name]
        save_model(model, tmp_path / "new.json")
        ref.save_model(model, tmp_path / "old.json")
        for loaded in (load_model(tmp_path / "old.json"),
                       ref.load_model(tmp_path / "new.json")):
            assert type(loaded) is type(model)
            assert loaded.feature_names == ["u", "v"]
            assert_same_predictions(loaded, model, Z)


def assert_same_selection(X, d, b1, b2, stream):
    got = rp_select(X, d, b1, b2, stream)
    want = ref.rp_select(X, d, b1, b2, stream)
    assert len(got) == len(want) == b1
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    return got


def assert_same_pca(X):
    got, want = numcore.pca(X), ref.pca(X)
    for name in ("eigenvalues", "components", "mean", "zero_variance"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestFeatureSelection:
    @pytest.mark.parametrize("p", [2, 3, 9])
    def test_rp_select_every_width(self, p):
        gen = np.random.default_rng(130 + p)
        sizes = iter(np.tile([2, 3, 5, 11, 87, 250, 1000], 4))
        for d in range(1, p):
            for b2 in (1, 50):
                n = int(next(sizes))
                X = gen.normal(size=(n, p)) * 10.0 ** gen.uniform(-2, 2, size=p)
                assert_same_selection(X, d, 3, b2, RngStream(131).child(n + d))

    def test_rp_select_ties_keep_the_first_candidate(self):
        # Identical rows give every candidate a spread of 0.
        X = np.tile([1.5, -2.0, 0.25], (6, 1))
        got = assert_same_selection(X, 2, 3, 50, RngStream(132))
        first = ref.rp_select(X, 2, 3, 1, RngStream(132))
        assert np.array_equal(got[0], first[0])

    def test_rp_select_glass_target(self):
        glass = load_glass()
        train = glass.select_rows(glass.is_target())
        assert_same_selection(train, 2, 101, 50, RngStream(7).child(1))

    def test_compute_vip(self):
        gen = np.random.default_rng(133)
        for _ in range(201):
            p = int(gen.integers(2, 10))
            d = int(gen.integers(1, p))
            projections = [gen.normal(size=(p, d))
                           for _ in range(int(gen.integers(1, 12)))]
            if gen.integers(2):   # exact zero loadings and tied VIPs
                projections = [np.round(a) for a in projections]
                projections = [a for a in projections if np.all(a.any(axis=0))]
                if not projections:
                    continue
            sds = 10.0 ** gen.uniform(-3, 3, size=p)
            got, want = compute_vip(projections, sds), ref.compute_vip(projections, sds)
            assert np.array_equal(got.vip, want.vip)
            assert np.array_equal(got.ranking, want.ranking)

    def test_pca(self):
        gen = np.random.default_rng(134)
        for _ in range(150):
            n, p = int(gen.integers(2, 60)), int(gen.integers(1, 8))
            assert_same_pca(gen.normal(size=(n, p)) * 10.0 ** gen.uniform(-3, 3, size=p))

    def test_pca_rank_deficient(self):
        gen = np.random.default_rng(135)
        for _ in range(150):
            n, p = int(gen.integers(2, 12)), int(gen.integers(2, 8))
            X = gen.normal(size=(n, p))
            kind = gen.integers(3)
            if kind == 0:   # a repeated column
                X[:, -1] = X[:, 0]
            elif kind == 1:   # a constant column
                X[:, int(gen.integers(p))] = 3.0
            else:   # a linear combination of two columns
                X[:, -1] = X[:, 0] - 2.0 * X[:, 1]
            assert_same_pca(X)
        assert_same_pca(np.ones((5, 3)))


def pam_points(gen, n):
    """n rows in 2 to 5 columns: a continuous cloud, a coarse integer grid
    (ties in every distance sum), or a cloud with duplicated rows."""
    p = int(gen.integers(2, 6))
    kind = int(gen.integers(3))
    if kind == 0:
        return gen.normal(size=(n, p)) * 10.0 ** gen.uniform(-2, 2)
    if kind == 1:
        return gen.integers(-3, 4, size=(n, p)).astype(float)
    X = gen.normal(size=(n, p))
    return X[gen.integers(0, n // 3, size=n)]


class TestPam:
    """Blocked BUILD and SWAP column sums pick the same medoids and costs
    as whole n x n temporaries, on both sides of the block size."""

    @pytest.mark.parametrize("n", [255, 256, 257, 600])
    def test_matches_reference(self, n):
        gen = np.random.default_rng(130 + n)
        for k in range(1, 7):
            X = pam_points(gen, n)
            got, want = classifier.pam(X, k), ref.pam(X, k)
            assert got.medoids == want.medoids
            assert np.array_equal(got.assignment, want.assignment)
            assert got.total_cost == want.total_cost

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
    def test_column_sums_match_whole_array(self, n):
        gen = np.random.default_rng(136)
        dist = classifier._pairwise_distances(pam_points(gen, n))
        base = gen.permutation(dist[0])
        buf = np.empty((min(n, classifier._PAM_BLOCK), n))
        got = classifier._column_sums(
            lambda r, out: np.minimum(base[r, None], dist[r], out=out), buf)
        assert np.array_equal(got, np.minimum(base[:, None], dist).sum(axis=0))

    def test_distances_match_reference(self):
        gen = np.random.default_rng(137)
        for _ in range(20):
            X = pam_points(gen, int(gen.integers(1, 300)))
            assert np.array_equal(classifier._pairwise_distances(X),
                                  ref._pairwise_distances(X))


class TestProductKde:
    def test_matches_reference(self):
        gen = np.random.default_rng(140)
        for _ in range(60):
            p = int(gen.integers(1, 6))
            train = gen.normal(size=(int(gen.integers(2, 300)), p))
            Q = gen.normal(size=(int(gen.integers(0, 200)), p)) * 2
            h = gen.uniform(0.1, 2.0, size=p)
            assert np.array_equal(baselines._product_kde(train, h, Q),
                                  ref.product_kde(train, h, Q))
