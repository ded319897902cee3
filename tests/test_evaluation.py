import numpy as np
import pytest

from tocc import (Method, RngStream, ScenarioSpec, confusion_metrics,
                  evaluate_method, fit_gmm, make_method, roc_curve,
                  run_benchmark)
from tocc.evaluation import ALL_METHODS, fit_method


class TestConfusionMetrics:
    def test_all_correct(self):
        truth = [True] * 5 + [False] * 5
        pred = [True] * 5 + [False] * 5
        assert confusion_metrics(pred, truth) == (1.0, 1.0)

    def test_accept_everything(self):
        truth = [True] * 5 + [False] * 5
        assert confusion_metrics([True] * 10, truth) == (1.0, 0.0)

    def test_arithmetic(self):
        truth = [True] * 10 + [False] * 51
        pred = [True] * 9 + [False] + [True] * 3 + [False] * 48
        sens, spec = confusion_metrics(pred, truth)
        assert sens == pytest.approx(0.9)
        assert spec == pytest.approx(0.941, abs=1e-3)

    def test_missing_class_is_none(self):
        sens, spec = confusion_metrics([True, False], [True, True])
        assert sens == 0.5 and spec is None
        sens, spec = confusion_metrics([True, False], [False, False])
        assert sens is None and spec == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion_metrics([True], [True, False])


class TestRocCurve:
    def test_perfect_separation(self):
        scores = [0.9, 0.8, 0.7, 0.2, 0.1]
        truth = [True, True, True, False, False]
        assert roc_curve(scores, truth).auc == 1.0

    def test_constant_scores_diagonal(self):
        curve = roc_curve([0.5] * 10, [True] * 5 + [False] * 5)
        assert curve.auc == pytest.approx(0.5)
        # single non-trivial point shared by every tied score
        assert len(curve.fpr) == 2

    def test_monotone(self):
        gen = np.random.default_rng(1)
        for _ in range(20):
            n = int(gen.integers(4, 50))
            scores = gen.normal(size=n)
            truth = gen.uniform(size=n) < 0.5
            if truth.all() or not truth.any():
                continue
            curve = roc_curve(scores, truth)
            assert np.all(np.diff(curve.fpr) >= 0)
            assert np.all(np.diff(curve.tpr) >= 0)

    def test_rank_transform_invariance(self):
        gen = np.random.default_rng(2)
        scores = gen.normal(size=40)
        truth = gen.uniform(size=40) < 0.4
        base = roc_curve(scores, truth).auc
        assert roc_curve(np.exp(scores), truth).auc == pytest.approx(base, abs=1e-12)
        assert roc_curve(3 * scores - 7, truth).auc == pytest.approx(base, abs=1e-12)

    def test_trapezoid_consistency(self):
        gen = np.random.default_rng(3)
        scores = gen.normal(size=30)
        truth = gen.uniform(size=30) < 0.5
        curve = roc_curve(scores, truth)
        manual = float(np.sum(np.diff(curve.fpr)
                              * (curve.tpr[1:] + curve.tpr[:-1]) / 2))
        assert curve.auc == pytest.approx(manual, abs=1e-12)

    def test_single_class_errors(self):
        with pytest.raises(ValueError):
            roc_curve([0.1, 0.2], [True, True])


def tiny_spec(seed=0, scenario="a", n=60):
    return ScenarioSpec(scenario, n, RngStream(seed))


class TestRunBenchmark:
    def test_single_replication_single_method(self):
        result = run_benchmark(["tocc-df"], tiny_spec(1), 1, 0.9)
        assert len(result.reports) == 1
        report = result.reports[0]
        assert report.error is None
        assert 0.0 <= report.specificity <= 1.0
        assert report.sensitivity >= 0.9  # training calibration floor is on
        # the training set; test-set sensitivity is close but can dip, so
        # just require it present
        assert report.auc is not None

    def test_same_seed_identical(self):
        a = run_benchmark(["tocc-df", "gauss"], tiny_spec(2), 3, 0.9)
        b = run_benchmark(["tocc-df", "gauss"], tiny_spec(2), 3, 0.9)
        for ra, rb in zip(a.reports, b.reports):
            assert ra.specificity == rb.specificity
            assert ra.auc == rb.auc

    def test_failures_recorded_not_fatal(self):
        def broken_fit(X, rng):
            raise RuntimeError("deliberately broken")

        broken = Method("broken", broken_fit, lambda m, Z: None)
        result = run_benchmark([broken, "gauss"], tiny_spec(3), 2, 0.9)
        broken_reports = result.for_method("broken")
        assert all(r.error and "deliberately" in r.error for r in broken_reports)
        assert all(r.error is None for r in result.for_method("gauss"))

    def test_summary_statistics(self):
        result = run_benchmark(["gauss"], tiny_spec(4), 5, 0.9)
        stats = result.summary()["gauss"]
        specs = [r.specificity for r in result.reports]
        assert stats["spec_median"] == pytest.approx(np.median(specs))
        assert stats["spec_min"] == min(specs)
        assert stats["spec_max"] == max(specs)
        assert stats["n_ok"] == 5

    def test_replications_validated(self):
        with pytest.raises(ValueError):
            run_benchmark(["gauss"], tiny_spec(5), 0, 0.9)


class TestEvaluateMethod:
    def test_sensitivity_floor_respected_on_training(self):
        from tocc import concat, generate
        sample = generate(tiny_spec(6, n=100))
        test = concat(sample.target, sample.nontarget)
        report = evaluate_method(make_method("kde", 0.9), sample.target, test,
                                 RngStream(7))
        assert report.error is None
        assert report.wall_time_seconds > 0

    def test_unknown_method_name(self):
        with pytest.raises(ValueError):
            make_method("svdd", 0.9)

    def test_unknown_setting(self):
        with pytest.raises(TypeError):
            make_method("pam-tocc-df", 0.9, pam_k=4)

    @pytest.mark.parametrize("seed", [2, 3])
    def test_mix_gauss_takes_n_restarts(self, seed):
        # At these seeds one restart and five restarts pick different
        # mixtures, so a dropped n_restarts shows.
        X = np.random.default_rng(seed).normal(size=(60, 2)) @ [[1, .5], [0, 1]]
        X[:20] += 3
        model = fit_method("mix-gauss", X, 0.9, RngStream(seed),
                           components_range=(1, 4), n_restarts=1)
        want = fit_gmm(X, (1, 4), RngStream(seed), n_restarts=1)
        for field in ("weights", "means", "covariances"):
            assert np.array_equal(getattr(model.density, field),
                                  getattr(want, field))


class TestFarQueries:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_scored_at_the_limit(self, method):
        # Distances to these queries overflow: they score at the limit
        # (density or transvariation 0, distance inf), are rejected, and
        # raise no floating-point warning.
        X = np.random.default_rng(64).normal(size=(60, 2))
        model = fit_method(method, X, 0.9, RngStream(65), k=2, mc_samples=10_000,
                           components_range=(1, 2), n_restarts=1)
        result = model.predict(np.array([[1e200, 0.0], [-1e300, 1e300]]))
        limit = np.inf if method in ("gauss", "kmeans") else 0.0
        assert result.score.tolist() == [limit, limit]
        assert not result.accept.any()
