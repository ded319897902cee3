import numpy as np
import pytest

from tocc import (DataMatrix, MixtureDensity, OrthantIntegrator, RngStream,
                  fit_gmm, orthant_probability)
from tocc.density import box_masses


class TestMixtureDensity:
    def test_standard_normal_at_zero(self):
        f = MixtureDensity([1.0], [[0.0]], [[[1.0]]])
        assert f.pdf([0.0])[0] == pytest.approx(0.3989422804, abs=1e-5)

    def test_nonnegative(self):
        gen = np.random.default_rng(1)
        f = MixtureDensity([0.3, 0.7], [[0.0, 0.0], [2.0, -1.0]],
                           [np.eye(2), 2.0 * np.eye(2)])
        assert np.all(f.pdf(gen.normal(size=(50, 2))) >= 0)

    def test_distant_components_halve(self):
        f = MixtureDensity([0.5, 0.5], [[0.0], [1e9]], [[[1.0]], [[1.0]]])
        single = MixtureDensity([1.0], [[0.0]], [[[1.0]]])
        assert f.pdf([0.0])[0] == pytest.approx(0.5 * single.pdf([0.0])[0])

    def test_data_matrix_queries(self):
        # A DataMatrix is read through its values, bit for bit.
        f = MixtureDensity([0.3, 0.7], [[0.0, 0.0], [2.0, -1.0]],
                           [np.eye(2), [[2.0, 0.5], [0.5, 1.0]]])
        Z = DataMatrix(np.random.default_rng(2).normal(size=(3, 2)), ["a", "b"])
        for method in (f.logpdf, f.pdf, f.component_logpdf):
            assert np.array_equal(method(Z), method(Z.values))

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            MixtureDensity([0.5, 0.6], [[0.0], [1.0]], [[[1.0]], [[1.0]]])

    @pytest.mark.parametrize("means, covs", [
        ([0.0, 1.0], [[[1.0]], [[1.0]]]),       # 1-D means
        ([[0.0], [1.0]], [[1.0], [1.0]]),       # 2-D covariances
        ([[0.0, 0.0], [1.0, 1.0]], [np.eye(2)]),  # one covariance for two
    ], ids=["flat-means", "flat-covariances", "too-few-covariances"])
    def test_shape_validation(self, means, covs):
        with pytest.raises(ValueError, match="k x p means"):
            MixtureDensity([0.5, 0.5], means, covs)

    @pytest.mark.parametrize("field", ["weights", "means", "covariances"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, field, bad):
        params = {"weights": np.array([0.5, 0.5]),
                  "means": np.array([[0.0, 0.0], [1.0, 1.0]]),
                  "covariances": np.array([np.eye(2), np.eye(2)])}
        params[field].flat[0] = bad
        with pytest.raises(ValueError, match="must all be finite"):
            MixtureDensity(**params)

    def test_symmetry_within_a_relative_tolerance(self):
        # Fitted covariances can differ from their transposes in the last
        # bit; that passes at any scale, a visible asymmetry does not, even
        # beside a much larger component.
        small = np.array([[2.0, 0.3], [0.3, 0.5]]) * 1e-6
        small[0, 1] = np.nextafter(small[0, 1], 1.0)
        MixtureDensity([1.0], [[0.0, 0.0]], [small])
        lopsided = np.array([[2.0, 0.3], [0.3 + 1e-8, 0.5]])
        with pytest.raises(ValueError, match="covariances must be symmetric"):
            MixtureDensity([0.5, 0.5], [[0.0, 0.0], [1.0, 1.0]],
                           [lopsided, 1e6 * np.eye(2)])

    def test_pdf_integrates_to_one(self):
        f = MixtureDensity([0.4, 0.6], [[0.0, 0.0], [3.0, 1.0]],
                           [np.eye(2), [[2.0, 0.3], [0.3, 0.5]]])
        # Importance self-check of the normalization: draw from a broadened
        # proposal q and average f/q, which estimates the integral of f.
        q = MixtureDensity(f.weights, f.means, 4.0 * f.covariances)
        draws = q.sample(100_000, np.random.default_rng(5))
        integral = float(np.mean(f.pdf(draws) / q.pdf(draws)))
        assert integral == pytest.approx(1.0, abs=0.01)


class TestOrthantProbability:
    def test_half_line(self):
        f = MixtureDensity([1.0], [[0.0]], [[[1.0]]])
        integ = OrthantIntegrator("monte_carlo", 10_000, RngStream(1))
        assert orthant_probability(f, [-np.inf], [0.0], integ) == pytest.approx(0.5)

    def test_upper_decile_bound(self):
        f = MixtureDensity([1.0], [[0.0]], [[[1.0]]])
        integ = OrthantIntegrator("monte_carlo", 10_000, RngStream(2))
        p = orthant_probability(f, [-np.inf], [1.2816], integ)
        assert p == pytest.approx(0.9000, abs=1e-4)

    def test_positive_quadrant(self):
        f = MixtureDensity([1.0], [[0.0, 0.0]], [np.eye(2)])
        integ = OrthantIntegrator("monte_carlo", 100_000, RngStream(3))
        se = np.sqrt(0.25 * 0.75 / 100_000)
        p = orthant_probability(f, [0.0, 0.0], [np.inf, np.inf], integ)
        assert p == pytest.approx(0.25, abs=3 * se)

    def test_full_space(self):
        f = MixtureDensity([1.0], [[0.0, 0.0]], [np.eye(2)])
        integ = OrthantIntegrator("monte_carlo", 10_000, RngStream(4))
        assert orthant_probability(f, [-np.inf] * 2, [np.inf] * 2, integ) == 1.0

    def test_complementarity(self):
        gen = np.random.default_rng(44)
        f = MixtureDensity([0.5, 0.5], [[0.0, 0.0], [1.0, -1.0]],
                           [np.eye(2), np.eye(2)])
        integ = OrthantIntegrator("monte_carlo", 50_000, RngStream(5))
        for _ in range(10):
            t = float(gen.normal())
            below = orthant_probability(f, [-np.inf, -np.inf], [t, np.inf], integ)
            above = orthant_probability(f, [t, -np.inf], [np.inf, np.inf], integ)
            assert below + above == pytest.approx(1.0, abs=1e-12)

    def test_invalid_box(self):
        f = MixtureDensity([1.0], [[0.0]], [[[1.0]]])
        integ = OrthantIntegrator("monte_carlo", 10_000, RngStream(6))
        with pytest.raises(ValueError):
            orthant_probability(f, [1.0], [0.0], integ)

    @pytest.mark.parametrize("lower, upper", [
        ([np.nan], [0.0]), ([0.0], [np.nan]), ([np.nan] * 2, [np.nan] * 2),
        ([-np.inf, 0.0], [np.nan, 1.0])],
        ids=["nan-lower", "nan-upper", "all-nan", "nan-beside-a-bound"])
    def test_nan_bound_rejected(self, lower, upper):
        p = len(lower)
        f = MixtureDensity([1.0], [[0.0] * p], [np.eye(p)])
        integ = OrthantIntegrator("monte_carlo", 10_000, RngStream(6))
        with pytest.raises(ValueError, match="a bound is nan"):
            orthant_probability(f, lower, upper, integ)

    @pytest.mark.parametrize("mc_samples", [None, 100_000.5, "100000"])
    def test_non_integer_mc_samples_rejected(self, mc_samples):
        with pytest.raises(ValueError, match="integer mc_samples"):
            OrthantIntegrator("monte_carlo", mc_samples, RngStream(9))

    def test_closed_form_rejects_boxes(self):
        # The integrator is Monte Carlo only; one bounded coordinate is
        # integrated in closed form without it.
        with pytest.raises(ValueError, match="unknown integrator method"):
            OrthantIntegrator("closed_form_1d", rng=RngStream(7))

    def test_deterministic_given_stream(self):
        f = MixtureDensity([1.0], [[0.0, 0.0]], [np.eye(2)])
        a = orthant_probability(f, [0.0, -1.0], [2.0, 1.0],
                                OrthantIntegrator("monte_carlo", 20_000, RngStream(8)))
        b = orthant_probability(f, [0.0, -1.0], [2.0, 1.0],
                                OrthantIntegrator("monte_carlo", 20_000, RngStream(8)))
        assert a == b

    def test_small_mc_budget_rejected(self):
        with pytest.raises(ValueError):
            OrthantIntegrator("monte_carlo", 5_000, RngStream(9))


class TestBoxMasses:
    def test_one_draw_set_for_every_pattern(self):
        # A box bounded on coordinates {0, 1} is counted on those columns of
        # the full mixture's draws, and bounding coordinate 2 as well by the
        # draws' own range in that column leaves its mass unchanged.
        cov = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 3.0]])
        f = MixtureDensity([0.4, 0.6], [[1.0, 2.0, 3.0], [0.0, -1.0, 0.5]],
                           [cov, np.eye(3)])
        integ = OrthantIntegrator("monte_carlo", 10_000, RngStream(10))
        draws = integ.samples(f)
        lo, hi = np.array([0.5, -np.inf]), np.array([np.inf, 1.5])
        inside = np.count_nonzero(np.all((draws[:, :2] >= lo)
                                         & (draws[:, :2] <= hi), axis=1))
        lower = np.array([[*lo, -np.inf], [*lo, draws[:, 2].min()]])
        upper = np.array([[*hi, np.inf], [*hi, draws[:, 2].max()]])
        assert box_masses(f, lower, upper, integ).tolist() \
            == [inside / draws.shape[0]] * 2


class TestFitGmm:
    def test_weights_sum_to_one(self):
        gen = np.random.default_rng(10)
        X = gen.normal(size=(300, 2))
        f = fit_gmm(X, (1, 3), RngStream(11))
        assert abs(f.weights.sum() - 1.0) < 1e-10

    def test_single_gaussian_bic_consistency(self):
        hits = 0
        for seed in range(10):
            gen = np.random.default_rng(100 + seed)
            X = gen.normal(size=(1000, 2))
            f = fit_gmm(X, (1, 3), RngStream(seed), n_restarts=2)
            hits += f.n_components == 1
        assert hits >= 9

    def test_two_separated_components(self):
        gen = np.random.default_rng(12)
        X = np.vstack([gen.normal(size=(500, 2)),
                       gen.normal(size=(500, 2)) + 10.0])
        f = fit_gmm(X, (1, 5), RngStream(13))
        assert f.n_components == 2

    def test_recovers_moments(self):
        gen = np.random.default_rng(14)
        X = gen.normal(size=(2000, 1)) * 2.0 + 5.0
        f = fit_gmm(X, (1, 2), RngStream(15))
        mean = float(np.sum(f.weights * f.means[:, 0]))
        assert mean == pytest.approx(5.0, abs=0.2)

    def test_all_degenerate_errors(self):
        X = np.zeros((6, 2))
        X[:, 0] = np.arange(6.0)
        with pytest.raises(ValueError):
            # every candidate needs n > k * (p + 1) = 30
            fit_gmm(X[:4], (2, 3), RngStream(16))

    @pytest.mark.parametrize("n_restarts", [0, -2, 1.5, True, None])
    def test_bad_restart_count_rejected(self, n_restarts):
        X = np.random.default_rng(21).normal(size=(60, 2))
        with pytest.raises(ValueError, match=r"fit_gmm: n_restarts=.* must be "
                                             r"an integer >= 1"):
            fit_gmm(X, (1, 2), RngStream(22), n_restarts=n_restarts)

    @pytest.mark.parametrize("components_range", [
        (0, 0), (0, 2), (3, 2), (1.0, 3), (1, 3.0), (True, 2)])
    def test_bad_component_range_rejected(self, components_range):
        X = np.random.default_rng(21).normal(size=(60, 2))
        with pytest.raises(ValueError, match=r"must be two integers 1 <= lo <= hi"):
            fit_gmm(X, components_range, RngStream(22))

    def test_range_too_wide_for_the_rows(self):
        # 60 rows in 2 dimensions fit at most G = 19 components.
        X = np.random.default_rng(21).normal(size=(60, 2))
        with pytest.raises(ValueError, match=r"60 rows in 2 dimensions are too "
                                             r"few for any component count G "
                                             r"in 40\.\.45"):
            fit_gmm(X, (40, 45), RngStream(22))
        f = fit_gmm(X, (19, 45), RngStream(22), n_restarts=1)
        assert f.n_components == 19

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_training_row_rejected(self, bad):
        X = np.random.default_rng(19).normal(size=(40, 2))
        X[5, 0] = bad
        with pytest.raises(ValueError, match="training row 5 is not finite"):
            fit_gmm(X, (1, 2), RngStream(20))

    @pytest.mark.parametrize("seed", [1, 4, 6, 24, 32])
    def test_plain_gaussian_data_fits(self, seed):
        # On these 48 x 3 N(0, I) tables EM falls on a nearly collapsed
        # component (pivot ratio just above 1e-7) at some G in 5..7; that
        # is a degenerate fall, not a healthy one.
        X = np.random.default_rng(seed).normal(size=(48, 3))
        f = fit_gmm(X, (1, 9), RngStream(seed))
        assert abs(f.weights.sum() - 1.0) < 1e-10

    def test_deterministic(self):
        gen = np.random.default_rng(17)
        X = gen.normal(size=(200, 2))
        a = fit_gmm(X, (1, 3), RngStream(18))
        b = fit_gmm(X, (1, 3), RngStream(18))
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.weights, b.weights)
