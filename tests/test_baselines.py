from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chi2

from tocc import RngStream, fit_baseline, predict_baseline


def gaussian_sample(seed=0, n=200, p=2):
    return np.random.default_rng(seed).normal(size=(n, p))


class TestGauss:
    def test_score_at_mean_is_zero(self):
        X = gaussian_sample(1)
        model = fit_baseline("gauss", X, 0.9)
        assert model.scores(X.mean(axis=0, keepdims=True))[0] == pytest.approx(0.0)

    def test_threshold_matches_chi2(self):
        X = gaussian_sample(2, n=1000)
        model = fit_baseline("gauss", X, 0.9)
        assert model.threshold ** 2 == pytest.approx(chi2.ppf(0.9, df=2), abs=0.3)

    def test_accept_region_convex(self):
        gen = np.random.default_rng(3)
        X = gaussian_sample(3, n=300)
        model = fit_baseline("gauss", X, 0.9)
        pred = predict_baseline(model, X)
        accepted = X[pred.accept]
        for _ in range(50):
            a, b = accepted[gen.integers(len(accepted), size=2)]
            mid = (a + b) / 2
            assert predict_baseline(model, mid.reshape(1, -1)).accept[0]

    def test_singular_covariance_message(self):
        x = np.arange(10.0)
        X = np.column_stack([x, 2 * x])
        with pytest.raises(ValueError, match="singular covariance"):
            fit_baseline("gauss", X, 0.9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("seed, noise", [(17, 1e-9), (12, 1e-8), (2, 1e-9)])
    def test_near_singular_covariance_message(self, seed, noise):
        # The inverse of a near-collinear covariance can pass as positive
        # definite and still give training rows a negative squared distance
        # (seeds 17 and 12), or fail to be positive definite (seed 2).
        gen = np.random.default_rng(seed)
        x = gen.normal(size=87)
        X = np.column_stack([x, 2 * x + noise * gen.normal(size=87)])
        with pytest.raises(ValueError, match="singular covariance"):
            fit_baseline("gauss", X, 0.9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1.0, 2.0 ** -30, 2.0 ** 30])
    def test_rounding_noise_distances_refused(self, scale):
        # The correlation matrix's condition number is about 1e15 to 1e16
        # at noise 1e-11 and 1e-7, above the 1 / (87 u) = 1.0e14 cutoff,
        # and about 1e9 at noise 1e-4. At noise 1e-11, seed 0 passed the
        # other checks and gave the 87 training rows only 23 distinct
        # scores. The rule reads the correlation matrix, so rescaling a
        # column moves no decision.
        for seed in range(5):
            gen = np.random.default_rng(seed)
            x = gen.normal(size=87)
            line = 2 * x + gen.normal(size=87) * np.array([[1e-11], [1e-7], [1e-4]])
            for noise, y in zip((1e-11, 1e-7, 1e-4), line):
                X = np.column_stack([x, y * scale])
                if noise < 1e-4:
                    with pytest.raises(ValueError, match="singular covariance"):
                        fit_baseline("gauss", X, 0.9)
                else:
                    model = fit_baseline("gauss", X, 0.9)
                    assert len(np.unique(model.scores(X))) == 87


class TestKmeans:
    def test_k_equals_n(self):
        X = gaussian_sample(4, n=30)
        model = fit_baseline("kmeans", X, 0.9, RngStream(5), kmeans_k=30)
        assert model.threshold == 0.0
        off = X[0] + 0.5
        assert not predict_baseline(model, off.reshape(1, -1)).accept[0]

    def test_far_point_rejected(self):
        X = gaussian_sample(6)
        model = fit_baseline("kmeans", X, 0.9, RngStream(7))
        far = X.max(axis=0) * 50
        assert not predict_baseline(model, far.reshape(1, -1)).accept[0]


class TestCalibration:
    @pytest.mark.parametrize("kind", ["gauss", "mix_gauss", "kde", "kmeans"])
    @pytest.mark.parametrize("s", [0.8, 0.9, 0.95])
    def test_training_acceptance(self, kind, s):
        X = gaussian_sample(8, n=150)
        model = fit_baseline(kind, X, s, RngStream(9), components_range=(1, 2))
        assert predict_baseline(model, X).accept.mean() >= s


class TestPredictBaseline:
    def test_mean_accepted(self):
        X = gaussian_sample(10)
        model = fit_baseline("gauss", X, 0.95)
        assert predict_baseline(model, X.mean(axis=0, keepdims=True)).accept[0]

    def test_dimension_mismatch(self):
        model = fit_baseline("gauss", gaussian_sample(11), 0.9)
        with pytest.raises(ValueError):
            predict_baseline(model, np.ones((2, 5)))

    def test_non_finite_query_rejected(self):
        model = fit_baseline("kde", gaussian_sample(11), 0.9)
        Z = np.zeros((3, model.train.shape[1]))
        Z[2, 0] = np.nan
        with pytest.raises(ValueError, match="query row 2 is not finite"):
            predict_baseline(model, Z)

    def test_score_orientation_recorded(self):
        X = gaussian_sample(12)
        dist_model = fit_baseline("gauss", X, 0.9)
        dens_model = fit_baseline("kde", X, 0.9)
        a = predict_baseline(dist_model, X)
        b = predict_baseline(dens_model, X)
        assert not a.higher_is_typical
        assert b.higher_is_typical
        # typicality() re-orients, so the mean score of accepted rows beats
        # that of rejected rows for both families
        for pred in (a, b):
            t = pred.typicality()
            assert t[pred.accept].mean() > t[~pred.accept].mean()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            fit_baseline("parzen", gaussian_sample(13), 0.9)

    @pytest.mark.parametrize("kind", ["gauss", "mix_gauss", "kde", "kmeans"])
    def test_non_finite_training_row_rejected(self, kind):
        X = gaussian_sample(15, n=50)
        X[3, 0] = np.nan
        with pytest.raises(ValueError, match="training row 3 is not finite"):
            fit_baseline(kind, X, 0.9, RngStream(15))

    @pytest.mark.parametrize("kind", ["gauss", "mix_gauss", "kde", "kmeans"])
    def test_identical_rows_rejected(self, kind):
        # mix_gauss fitted these and scored every query 0; kmeans fitted them.
        X = np.tile([1.0, 2.0], (50, 1))
        with pytest.raises(ValueError, match="degenerate constant training data"):
            fit_baseline(kind, X, 0.9, RngStream(15))

    @pytest.mark.parametrize("kind", ["gauss", "mix_gauss", "kde", "kmeans"])
    def test_three_rows_rejected(self, kind):
        X = gaussian_sample(15, n=3)
        with pytest.raises(ValueError, match="need at least 5 training rows"):
            fit_baseline(kind, X, 0.9, RngStream(15))

    def test_invalid_sensitivity(self):
        with pytest.raises(ValueError):
            fit_baseline("gauss", gaussian_sample(14), 1.0)


class TestBaselineModelChecks:
    def test_fitted_fields_rebuild(self):
        X = gaussian_sample(16)
        for kind in ("gauss", "mix_gauss", "kde", "kmeans"):
            model = fit_baseline(kind, X, 0.9, RngStream(16), components_range=(1, 2))
            again = replace(model)
            assert again.p == 2
            assert np.array_equal(predict_baseline(again, X).score,
                                  predict_baseline(model, X).score)

    @pytest.mark.parametrize("changes, message", [
        ({"kind": "parzen"}, "unknown baseline kind"),
        ({"score_direction": "higher_is_typical"}, "lower_is_typical"),
        ({"threshold": np.inf}, "finite number"),
        ({"sensitivity": 1.0}, r"inside \(0, 1\)"),
        ({"sensitivity": None}, r"inside \(0, 1\)"),
        ({"cov_inv": None}, "lacks its cov_inv"),
        ({"cov_inv": np.eye(3)}, "disagree on the width"),
        ({"mean": np.zeros((1, 2))}, "finite 1-D array"),
        ({"mean": np.array([0.0, np.nan])}, "finite 1-D array")],
        ids=["kind", "direction", "threshold", "sensitivity", "null-sensitivity",
             "missing-field", "width", "shape", "nan"])
    def test_inconsistent_gauss_rejected(self, changes, message):
        model = fit_baseline("gauss", gaussian_sample(17), 0.9)
        with pytest.raises(ValueError, match=message):
            replace(model, **changes)
