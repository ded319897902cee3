import numpy as np
import pytest

from tocc import RngStream, ScenarioSpec, generate


def spec(scenario, seed=0, n=500, **kw):
    return ScenarioSpec(scenario, n, RngStream(seed), **kw)


class TestBaseScenarios:
    def test_target_correlation(self):
        sample = generate(spec("a", seed=1))
        corr = np.corrcoef(sample.target.values.T)[0, 1]
        assert corr == pytest.approx(0.35, abs=0.09)

    def test_lambda_shifts_nontarget_mean(self):
        sample = generate(spec("a", seed=2, lam=2.0))
        se = 1.0 / np.sqrt(250)
        assert np.allclose(sample.nontarget.values.mean(axis=0), [2.0, 2.0],
                           atol=3 * se)

    def test_square_targets_nonnegative(self):
        sample = generate(spec("b", seed=3))
        assert np.all(sample.target.values >= 0)

    def test_sqrt_abs_targets_nonnegative(self):
        sample = generate(spec("c", seed=4))
        assert np.all(sample.target.values >= 0)

    def test_log_abs_finite(self):
        sample = generate(spec("d", seed=5, n=2000))
        assert np.all(np.isfinite(sample.target.values))
        assert np.all(np.isfinite(sample.nontarget.values))


class TestBoxScenarios:
    @pytest.mark.parametrize("scenario", ["e", "f", "g", "h"])
    def test_nontargets_inside_box(self, scenario):
        sample = generate(spec(scenario, seed=6))
        target = sample.target.values
        med = np.median(target, axis=0)
        iqr = np.percentile(target, 75, axis=0) - np.percentile(target, 25, axis=0)
        half = 3.0 * iqr
        nt = sample.nontarget.values
        assert np.all(nt >= med - half) and np.all(nt <= med + half)

    def test_box_scale_parameter(self):
        wide = generate(spec("e", seed=7, box_scale=6.0)).nontarget.values
        narrow = generate(spec("e", seed=7, box_scale=1.0)).nontarget.values
        assert wide.std() > narrow.std()


class TestBanana:
    def test_radii_concentrate_near_radius(self):
        sample = generate(spec("i", seed=8, n=2000))
        radii = np.linalg.norm(sample.target.values, axis=1)
        assert abs(np.median(radii) - 5.0) < 0.5

    def test_nontarget_arc_is_offset(self):
        sample = generate(spec("i", seed=9, n=2000))
        t_med = np.median(sample.target.values, axis=0)
        nt_med = np.median(sample.nontarget.values, axis=0)
        assert nt_med[1] < t_med[1]  # shifted toward the arc's hollow


class TestSpecMechanics:
    def test_default_nontarget_half(self):
        sample = generate(spec("a", seed=10, n=400))
        assert sample.target.n == 400
        assert sample.nontarget.n == 200

    def test_reproducible_bit_for_bit(self):
        a = generate(spec("g", seed=11))
        b = generate(spec("g", seed=11))
        assert np.array_equal(a.target.values, b.target.values)
        assert np.array_equal(a.nontarget.values, b.nontarget.values)

    def test_streams_differ(self):
        a = generate(spec("a", seed=12))
        b = generate(spec("a", seed=13))
        assert not np.array_equal(a.target.values, b.target.values)

    def test_labels(self):
        sample = generate(spec("a", seed=14, n=10))
        assert sample.target.is_target().all()
        assert not sample.nontarget.is_target().any()

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            ScenarioSpec("z", 100, RngStream(0))

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            ScenarioSpec("a", 0, RngStream(0))

    @pytest.mark.parametrize("value", [-1.0, 0.0, float("nan"), float("inf")])
    def test_bad_box_scale(self, value):
        with pytest.raises(ValueError, match="box_scale=.* must be a finite number > 0"):
            ScenarioSpec("e", 100, RngStream(0), box_scale=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_bad_lam(self, value):
        with pytest.raises(ValueError, match="lam=.* must be a finite number"):
            ScenarioSpec("a", 100, RngStream(0), lam=value)
