import numpy as np
import pytest

from tocc import (ConvergenceError, DataMatrix, RngStream, correlation_matrix,
                  empirical_quantile, load_glass, numcore, pca, spatial_median)
from tocc.numcore import distance_sum


class TestEmpiricalQuantile:
    def test_minimum(self):
        assert empirical_quantile([1, 2, 3, 4, 5], 0.0) == 1

    def test_maximum(self):
        assert empirical_quantile([1, 2, 3, 4, 5], 1.0) == 5

    def test_tenth_of_ten(self):
        xs = [0.1, 0.4, 0.2, 0.9, 0.5, 0.3, 0.7, 0.6, 0.8, 1.0]
        # k = ceil(0.1 * 10) = 1 -> smallest value
        assert empirical_quantile(xs, 0.10) == pytest.approx(0.1)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            empirical_quantile([], 0.5)

    def test_monotone_and_elementwise(self):
        gen = np.random.default_rng(42)
        for _ in range(20):
            xs = gen.normal(size=gen.integers(1, 40))
            qs = np.sort(gen.uniform(0, 1, size=8))
            vals = [empirical_quantile(xs, q) for q in qs]
            assert all(a <= b for a, b in zip(vals, vals[1:]))
            assert all(v in xs for v in vals)


class TestSpatialMedian:
    def test_symmetric_cross(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        assert np.allclose(spatial_median(X), [0, 0], atol=1e-7)

    def test_single_point(self):
        assert np.allclose(spatial_median(np.array([[3.0, 7.0]])), [3, 7])

    def test_grid_search_oracle(self):
        # Frozen from a 10^6-point grid search over [-0.5, 1.5]^2 (the Fermat
        # point of this triangle, 0.5 - 1/(2*sqrt(3)) in each coordinate).
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(spatial_median(X), [0.211325, 0.211325], atol=1e-3)

    def test_beats_coordinatewise_median(self):
        gen = np.random.default_rng(7)
        for _ in range(20):
            X = gen.normal(size=(gen.integers(3, 30), gen.integers(1, 4)))
            sm = spatial_median(X)
            cm = np.median(X, axis=0)
            assert distance_sum(X, sm) <= distance_sum(X, cm) + 1e-9

    def test_nonconvergence_carries_iterate(self, monkeypatch):
        monkeypatch.setattr(numcore, "_WEISZFELD_TOL", 1e-15)
        monkeypatch.setattr(numcore, "_WEISZFELD_MAX_ITER", 2)
        X = np.random.default_rng(0).normal(size=(50, 2))
        with pytest.raises(ConvergenceError) as err:
            spatial_median(X)
        assert err.value.last_iterate.shape == (2,)

    def test_coincident_points(self):
        X = np.array([[0.0, 0.0]] * 5 + [[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(spatial_median(X), [0, 0], atol=1e-6)


class TestPca:
    def test_dominant_axis(self):
        gen = np.random.default_rng(3)
        X = gen.normal(size=(10_000, 2)) * np.array([np.sqrt(10.0), 1.0])
        result = pca(X)
        angle = np.degrees(np.arccos(abs(result.components[0, 0])))
        assert angle < 2.0

    def test_rank_one(self):
        gen = np.random.default_rng(4)
        x = gen.normal(size=100)
        X = np.column_stack([x, 2.0 * x])
        result = pca(X)
        assert result.eigenvalues[1] == pytest.approx(0.0, abs=1e-10)
        assert result.zero_variance[1]
        assert result.rank == 1

    def test_identity_covariance_ratio(self):
        gen = np.random.default_rng(5)
        result = pca(gen.normal(size=(10_000, 2)))
        ratio = result.eigenvalues[0] / result.eigenvalues[1]
        assert 0.8 <= ratio <= 1.25

    def test_orthonormal_and_trace(self):
        gen = np.random.default_rng(6)
        for _ in range(10):
            X = gen.normal(size=(50, 4)) @ gen.normal(size=(4, 4))
            result = pca(X)
            V = result.components
            assert np.allclose(V.T @ V, np.eye(4), atol=1e-9)
            cov = np.cov(X, rowvar=False, ddof=1)
            assert result.eigenvalues.sum() == pytest.approx(np.trace(cov), abs=1e-9)

    def test_sign_convention(self):
        X = np.random.default_rng(8).normal(size=(200, 3))
        result = pca(X)
        for j in range(3):
            lead = np.argmax(np.abs(result.components[:, j]))
            assert result.components[lead, j] > 0


class TestCorrelationMatrix:
    def test_perfect_positive(self):
        x = np.arange(10.0)
        corr = correlation_matrix(np.column_stack([x, 2 * x]))
        assert corr[0, 1] == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = np.arange(10.0)
        corr = correlation_matrix(np.column_stack([x, -x]))
        assert corr[0, 1] == pytest.approx(-1.0)

    def test_glass_ri_ca(self):
        glass = load_glass()
        target = glass.select_rows(glass.is_target())
        corr = correlation_matrix(target)
        ri, ca = target.feature_names.index("RI"), target.feature_names.index("Ca")
        assert corr[ri, ca] == pytest.approx(0.842, abs=0.01)

    def test_bounds_and_psd(self):
        gen = np.random.default_rng(11)
        for _ in range(10):
            X = gen.normal(size=(30, 5)) @ gen.normal(size=(5, 5))
            corr = correlation_matrix(X)
            assert np.all(corr >= -1) and np.all(corr <= 1)
            assert np.linalg.eigvalsh(corr).min() > -1e-8

    def test_zero_variance_named(self):
        X = DataMatrix(np.column_stack([np.arange(5.0), np.ones(5)]),
                       ["good", "flat"])
        with pytest.raises(ValueError, match="flat"):
            correlation_matrix(X)


class TestRngStream:
    def test_replay(self):
        a = RngStream(123, 4).generator().normal(size=5)
        b = RngStream(123, 4).generator().normal(size=5)
        assert np.array_equal(a, b)

    def test_distinct_streams(self):
        a = RngStream(123, 0).generator().normal(size=5)
        b = RngStream(123, 1).generator().normal(size=5)
        assert not np.array_equal(a, b)

    def test_children_deterministic_and_distinct(self):
        base = RngStream(9)
        assert base.child(3) == base.child(3)
        ids = {base.child(k).stream_id for k in range(100)}
        assert len(ids) == 100

    @pytest.mark.parametrize("seed, stream_id", [
        (None, 0), (-1, 0), (1.5, 0), (True, 0), ("7", 0), (7, None), (7, -3),
        (7, 2.0)])
    def test_rejects_non_integer_or_negative(self, seed, stream_id):
        with pytest.raises(ValueError, match="must be a non-negative integer"):
            RngStream(seed, stream_id)

    def test_accepts_numpy_integers(self):
        assert RngStream(np.int64(5), np.uint64(2)) == RngStream(5, 2)


class TestDataMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            DataMatrix(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError):
            DataMatrix(np.ones((2, 2)), ["a", "a"])

    def test_default_names(self):
        dm = DataMatrix(np.ones((2, 3)))
        assert dm.feature_names == ["x1", "x2", "x3"]
