import numpy as np
import pytest

from tocc import (MixtureDensity, OrthantIntegrator, RngStream, fit_gmm,
                  orthant_probability)


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

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            MixtureDensity([0.5, 0.6], [[0.0], [1.0]], [[[1.0]], [[1.0]]])

    def test_marginal(self):
        cov = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 3.0]])
        f = MixtureDensity([1.0], [[1.0, 2.0, 3.0]], [cov])
        marg = f.marginal([0, 2])
        assert np.allclose(marg.means, [[1.0, 3.0]])
        assert np.allclose(marg.covariances[0], [[2.0, 0.1], [0.1, 3.0]])

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

    def test_closed_form_rejects_boxes(self):
        f = MixtureDensity([1.0], [[0.0, 0.0]], [np.eye(2)])
        integ = OrthantIntegrator("closed_form_1d", rng=RngStream(7))
        with pytest.raises(ValueError):
            orthant_probability(f, [0.0, 0.0], [np.inf, np.inf], integ)

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

    def test_deterministic(self):
        gen = np.random.default_rng(17)
        X = gen.normal(size=(200, 2))
        a = fit_gmm(X, (1, 3), RngStream(18))
        b = fit_gmm(X, (1, 3), RngStream(18))
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.weights, b.weights)
