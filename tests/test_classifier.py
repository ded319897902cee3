import numpy as np
import pytest

from tocc import (MixtureDensity, RngStream, ToccModel, fit_pam_tocc_df,
                  fit_rp_ensemble, fit_tocc_db, fit_tocc_df, load_glass,
                  multivariate_tp, multivariate_tp_density, pam, predict)
from tocc import classifier


def two_blobs(seed=0, n=50, spread=0.1, centers=((0.0, 0.0), (10.0, 10.0))):
    gen = np.random.default_rng(seed)
    parts = [gen.normal(size=(n, 2)) * spread + np.asarray(c) for c in centers]
    return np.vstack(parts)


class TestPam:
    def test_two_clusters_pure(self):
        X = two_blobs(seed=1)
        result = pam(X, 2)
        labels = result.assignment
        first, second = labels[:50], labels[50:]
        assert len(set(first)) == 1 and len(set(second)) == 1
        assert first[0] != second[0]
        meds = np.sort(result.medoids)
        assert (meds < 50).sum() == 1 and (meds >= 50).sum() == 1

    def test_k_equals_n(self):
        X = np.random.default_rng(2).normal(size=(12, 2))
        result = pam(X, 12)
        assert result.total_cost == 0.0
        assert sorted(result.medoids) == list(range(12))

    def test_k1_brute_force(self):
        X = np.random.default_rng(3).normal(size=(40, 3))
        result = pam(X, 1)
        dists = np.linalg.norm(X[:, None, :] - X[None, :, :], axis=2)
        best = int(np.argmin(dists.sum(axis=0)))
        assert result.medoids == [best]
        assert result.total_cost == pytest.approx(dists[:, best].sum())

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            pam(np.ones((3, 2)), 4)

    @pytest.mark.parametrize("k", [2.5, True, 0, -1, None, "2"])
    def test_bad_k_rejected(self, k):
        with pytest.raises(ValueError, match="k must be an integer >= 1"):
            pam(np.random.default_rng(7).normal(size=(20, 2)), k)

    @pytest.mark.parametrize("max_swaps", [-1, 2.5, True, None])
    def test_bad_max_swaps_rejected(self, max_swaps):
        with pytest.raises(ValueError, match="max_swaps must be an integer"):
            pam(np.random.default_rng(7).normal(size=(20, 2)), 2, max_swaps)

    def test_numpy_integers_accepted(self):
        X = np.random.default_rng(7).normal(size=(20, 2))
        got, want = pam(X, np.int64(3), np.int32(5)), pam(X, 3, 5)
        assert got.medoids == want.medoids
        assert got.total_cost == want.total_cost

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected(self, bad):
        X = np.random.default_rng(7).normal(size=(20, 2))
        X[11, 0] = bad
        with pytest.raises(ValueError, match="pam: input row 11 is not finite"):
            pam(X, 2)

    def test_assignment_is_nearest(self):
        X = np.random.default_rng(4).normal(size=(60, 2))
        result = pam(X, 4)
        d = np.linalg.norm(X[:, None, :] - X[result.medoids][None, :, :], axis=2)
        assert np.array_equal(result.assignment, d.argmin(axis=1))

    def test_swap_improves_on_build(self):
        gen = np.random.default_rng(5)
        for _ in range(5):
            X = gen.normal(size=(50, 2))
            full = pam(X, 3)
            build_only = pam(X, 3, max_swaps=0)
            assert full.total_cost <= build_only.total_cost + 1e-12

    @pytest.mark.parametrize("k", [-540, 300, 500])
    def test_scale_free(self, k):
        # Scaling by 2^k is exact, so neither the medoids nor the labels
        # may move, and the cost scales by 2^k: not where the Gram trick's
        # squares would underflow (k = -540) or its sums compare beyond an
        # absolute slack (k = 300, 500).
        X = np.random.default_rng(0).normal(size=(200, 2))
        base, scaled = pam(X, 3), pam(X * 2.0 ** k, 3)
        assert scaled.medoids == base.medoids
        assert np.array_equal(scaled.assignment, base.assignment)
        assert scaled.total_cost == np.ldexp(base.total_cost, k)

    def test_permutation_invariant_after_canonical_sort(self):
        # The swap scan follows row order, so fits are compared through a
        # canonical (lexicographic) row ordering.
        gen = np.random.default_rng(6)
        X = gen.normal(size=(40, 2))
        canon = X[np.lexsort(X.T[::-1])]
        base = pam(canon, 3)
        for _ in range(3):
            perm = gen.permutation(40)
            shuffled = X[perm]
            again = pam(shuffled[np.lexsort(shuffled.T[::-1])], 3)
            assert np.array_equal(base.assignment, again.assignment)
            assert base.medoids == again.medoids


class TestFitModels:
    @pytest.mark.parametrize("variant", ["df", "pam_df", "db"])
    def test_mixed_widths_named(self, monkeypatch, variant):
        def spy(*args, **kwargs):
            raise AssertionError("a fit ran before the widths were checked")

        for name in ("spatial_median", "pam", "fit_gmm"):
            monkeypatch.setattr(classifier, name, spy)
        gen = np.random.default_rng(11)
        tables = [gen.normal(size=(30, 2)), gen.normal(size=(25, 2)),
                  gen.normal(size=(30, 3))]
        with pytest.raises(ValueError, match=r"^fit_\w+: table 2 has 3 "
                           r"columns, table 0 has 2$"):
            classifier.fit_models(variant, tables, 0.9,
                                  [RngStream(i) for i in range(3)])


class TestFitToccDf:
    def test_calibration(self):
        gen = np.random.default_rng(10)
        for _ in range(10):
            X = gen.normal(size=(int(gen.integers(20, 80)), 2))
            s = float(gen.choice([0.8, 0.9, 0.95]))
            model = fit_tocc_df(X, s)
            accepted = predict(model, X).accept.mean()
            assert accepted >= s

    def test_threshold_monotone_in_s(self):
        X = np.random.default_rng(11).normal(size=(60, 2))
        m1, m2 = fit_tocc_df(X, 0.8), fit_tocc_df(X, 0.95)
        assert m1.thresholds[0] >= m2.thresholds[0]
        a1 = predict(m1, X).accept
        a2 = predict(m2, X).accept
        assert np.all(a2[a1])  # accepted set grows with s

    def test_limit_accepts_all(self):
        X = np.random.default_rng(12).normal(size=(40, 2))
        model = fit_tocc_df(X, (40 - 1) / 40)
        assert predict(model, X).accept.all()

    def test_constant_data_errors(self):
        with pytest.raises(ValueError):
            fit_tocc_df(np.ones((10, 2)), 0.9)

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            fit_tocc_df(np.random.default_rng(0).normal(size=(4, 2)), 0.9)

    def test_permutation_invariant_scores(self):
        gen = np.random.default_rng(13)
        X = gen.normal(size=(30, 2))
        Z = gen.normal(size=(10, 2))
        base = predict(fit_tocc_df(X, 0.9), Z).score
        for _ in range(3):
            perm = gen.permutation(30)
            assert np.allclose(predict(fit_tocc_df(X[perm], 0.9), Z).score,
                               base, atol=1e-12)


@pytest.mark.parametrize("fit", [
    lambda X: fit_tocc_df(X, 0.9),
    lambda X: fit_tocc_db(X, 0.9, RngStream(1), components_range=(1, 2)),
    lambda X: fit_pam_tocc_df(X, 2, 0.9),
], ids=["fit_tocc_df", "fit_tocc_db", "fit_pam_tocc_df"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_training_row_rejected(fit, bad):
    X = np.random.default_rng(16).normal(size=(50, 2))
    X[7, 1] = bad
    with pytest.raises(ValueError, match="training row 7 is not finite"):
        fit(X)


class TestFitToccDb:
    def test_calibration(self):
        X = np.random.default_rng(20).multivariate_normal(
            [0, 0], [[1, 0], [0, 1]], size=300)
        model = fit_tocc_db(X, 0.9, RngStream(21), components_range=(1, 2),
                            n_restarts=2)
        assert predict(model, X).accept.mean() >= 0.9

    def test_score_at_median_is_one(self):
        X = np.random.default_rng(22).normal(size=(200, 1))
        model = fit_tocc_db(X, 0.9, RngStream(23), components_range=(1, 1))
        score = predict(model, model.prototypes).score[0]
        assert score == 1.0

    def test_tail_score_matches_normal_cdf(self):
        X = np.random.default_rng(24).normal(size=(3000, 1))
        model = fit_tocc_db(X, 0.9, RngStream(25), components_range=(1, 1))
        mu = float(model.density.means[0, 0])
        sd = float(np.sqrt(model.density.covariances[0, 0, 0]))
        score = predict(model, np.array([[mu + 1.2816 * sd]])).score[0]
        assert score == pytest.approx(0.2, abs=0.02)

    def test_mc_samples_checked_before_the_mixture_search(self, monkeypatch):
        def spy(*args, **kwargs):
            raise AssertionError("fit_gmm ran before mc_samples was checked")

        monkeypatch.setattr(classifier, "fit_gmm", spy)
        X = np.random.default_rng(26).normal(size=(60, 2))
        with pytest.raises(ValueError, match="mc_samples >= 10000"):
            fit_tocc_db(X, 0.9, RngStream(27), mc_samples=5)


class TestFitPamToccDf:
    def test_k1_prototype_is_medoid(self):
        X = np.random.default_rng(30).normal(size=(25, 2))
        model = fit_pam_tocc_df(X, 1, 0.9)
        df_model = fit_tocc_df(X, 0.9)
        med = pam(X, 1).medoids[0]
        assert np.array_equal(model.prototypes[0], X[med])
        assert not np.allclose(model.prototypes[0], df_model.prototypes[0])

    def test_glass_k4_four_thresholds(self):
        glass = load_glass()
        target = glass.select_rows(glass.is_target())
        model = fit_pam_tocc_df(target.select_features(["Si", "Mg"]), 4, 0.9)
        assert model.thresholds.shape == (4,)
        assert model.n_prototypes == 4

    def test_per_cluster_calibration(self):
        X = two_blobs(seed=31, n=40, spread=0.5)
        model = fit_pam_tocc_df(X, 2, 0.9)
        pred = predict(model, X)
        for g in range(2):
            members = pred.cluster == g
            assert pred.accept[members].mean() >= 0.9

    def test_undersized_cluster_steps_k_down(self):
        X = np.vstack([two_blobs(seed=32, n=20, spread=0.1),
                       np.array([[100.0, 100.0]])])
        # k steps down until no cluster is undersized.
        model = fit_pam_tocc_df(X, 3, 0.9)
        assert model.n_prototypes == 2
        assert np.bincount(model.pam.assignment).min() >= 3

    def test_detects_interior_nontargets(self):
        # Two target lobes with non-targets in the gap: a single global
        # prototype cannot see them, per-cluster thresholds can.
        gen = np.random.default_rng(33)
        target = two_blobs(seed=34, n=60, spread=0.6, centers=((-4, 0), (4, 0)))
        nontarget = gen.normal(size=(40, 2)) * np.array([0.7, 0.7])
        df_model = fit_tocc_df(target, 0.9)
        pam_model = fit_pam_tocc_df(target, 2, 0.9)
        spec_df = (~predict(df_model, nontarget).accept).mean()
        spec_pam = (~predict(pam_model, nontarget).accept).mean()
        assert spec_pam > spec_df


class TestPredict:
    def test_prototype_accepted(self):
        X = np.random.default_rng(40).normal(size=(50, 2))
        model = fit_tocc_df(X, 0.9)
        pred = predict(model, model.prototypes)
        assert pred.accept[0]
        assert pred.score[0] == 1.0

    def test_far_point_rejected(self):
        X = np.random.default_rng(41).normal(size=(50, 2))
        model = fit_tocc_df(X, 0.9)
        far = X.max(axis=0) + 10 * (X.max(axis=0) - X.min(axis=0))
        pred = predict(model, far.reshape(1, -1))
        assert pred.score[0] == 0.0
        assert not pred.accept[0]

    def test_dimension_mismatch(self):
        model = fit_tocc_df(np.random.default_rng(42).normal(size=(20, 2)), 0.9)
        with pytest.raises(ValueError):
            predict(model, np.ones((3, 5)))

    def test_db_predict_deterministic(self):
        X = np.random.default_rng(43).normal(size=(100, 2))
        model = fit_tocc_db(X, 0.9, RngStream(44), components_range=(1, 1))
        Z = np.random.default_rng(45).normal(size=(12, 2))
        assert np.array_equal(predict(model, Z).score, predict(model, Z).score)

    def test_glass_kvip_specificity(self):
        glass = load_glass()
        is_target = glass.is_target()
        target = glass.select_rows(is_target)
        model = fit_tocc_df(target.select_features(["Si", "Mg"]), 0.9)
        pred = predict(model, glass.select_features(["Si", "Mg"]))
        specificity = (~pred.accept[~is_target]).mean()
        assert specificity == pytest.approx(0.961, abs=0.04)

    def test_non_finite_query_rejected(self):
        # A NaN coordinate is neither kept nor dropped by the drop rule, so
        # unchecked it scored 1.0 and was accepted.
        X = np.random.default_rng(47).normal(size=(60, 2))
        model = fit_tocc_df(X, 0.9)
        with pytest.raises(ValueError, match="query row 1 is not finite"):
            predict(model, [[0.0, 0.0], [np.nan, 0.0]])
        with pytest.raises(ValueError, match="query row 0"):
            predict(fit_pam_tocc_df(X, 2, 0.9), [[np.inf, 1.0]])

    def test_pam_nearest_cluster_tie_lowest(self):
        X = two_blobs(seed=46, n=30, spread=0.3)
        model = fit_pam_tocc_df(X, 2, 0.9)
        midpoint = model.prototypes.mean(axis=0, keepdims=True)
        pred = predict(model, midpoint)
        d = np.linalg.norm(midpoint - model.prototypes, axis=1)
        assert pred.cluster[0] == int(np.argmin(d))


class TestScoresFallOutward:
    """Moving a query outward from the prototype along a ray that stays in
    one orthant only shrinks the region beyond it, so its tocc-df and
    tocc-db scores never increase; tocc-db counts every ray point on the
    same draws."""

    @pytest.mark.parametrize("seed, n, p", [(0, 120, 2), (1, 120, 3),
                                            (2, 60, 2), (3, 2000, 2)],
                             ids=["p2", "p3", "small", "sweep"])
    def test_scores_never_increase(self, seed, n, p):
        gen = np.random.default_rng(300 + seed)
        X = gen.normal(size=(n, p)) @ gen.normal(size=(p, p))
        X[: n // 4] = np.round(X[: n // 4], 1)  # repeated coordinates
        models = [fit_tocc_df(X, 0.9)]
        if n <= 120:
            models.append(fit_tocc_db(X, 0.9, RngStream(seed),
                                      components_range=(1, 2), n_restarts=1,
                                      mc_samples=10_000))
        # 100 points per ray make 200 boxes, which at n = 2000 the p = 2
        # sweep counts.
        t = np.linspace(0.0, 4.0, 101)[1:, None]
        for model in models:
            m = model.prototypes[0]
            for _ in range(5):
                direction = gen.choice([-1.0, 1.0], size=p) \
                    * gen.uniform(0.1, 1.0, size=p)
                scores = predict(model, m + t * direction).score
                assert np.all(np.diff(scores) <= 0), (model.variant, scores)
            # Rays through data points, which meet them at t = 1.
            for x in X[:5]:
                if np.all(x != m):
                    scores = predict(model, m + t * (x - m)).score
                    assert np.all(np.diff(scores) <= 0), (model.variant, scores)


class TestToccModelConsistency:
    group = np.random.default_rng(48).normal(size=(20, 2))

    def make(self, **changes):
        fields = dict(variant="df", prototypes=np.zeros((1, 2)),
                      thresholds=[0.5], sensitivity=[0.9], groups=[self.group])
        fields.update(changes)
        return ToccModel(**fields)

    def test_consistent_model_builds(self):
        assert self.make().n_prototypes == 1

    @pytest.mark.parametrize("changes", [
        {"thresholds": [0.5, 0.5]},
        {"sensitivity": [0.9, 0.9]},
        {"prototypes": [[np.nan, 0.0]]},
        {"eps": -1.0},
        {"eps": np.nan},
        {"thresholds": [np.nan]},
        {"groups": None},
        {"groups": [np.zeros((20, 3))]},
        {"variant": "pam_df", "prototypes": np.zeros((2, 2)),
         "thresholds": [0.5, 0.5], "sensitivity": [0.9, 0.9]},
        {"variant": "db", "groups": None,
         "density": MixtureDensity([1.0], [[0.0, 0.0, 0.0]], [np.eye(3)])},
    ], ids=["thresholds", "sensitivity", "nan-prototype", "negative-eps",
            "nan-eps", "nan-threshold", "no-groups", "group-width",
            "groups-per-prototype", "density-width"])
    def test_inconsistent_model_rejected(self, changes):
        with pytest.raises(ValueError):
            self.make(**changes)


def assert_sensitivity_floor(model, own_rows):
    """At least a fraction s_g of the rows of group g score at or above
    threshold g against prototype g, each scored alone."""
    for rows, proto, threshold, s in zip(own_rows, model.prototypes,
                                         model.thresholds, model.sensitivity):
        if model.variant == "db":
            scores = [multivariate_tp_density(model.density, row, proto,
                                              model.integrator, model.eps).value
                      for row in rows]
        else:
            scores = [multivariate_tp(rows, row, proto, model.eps).value
                      for row in rows]
        assert np.mean(np.array(scores) >= threshold) >= s


class TestSensitivityFloor:
    """Every calibration meets its sensitivity floor on its own rows."""

    @pytest.mark.parametrize("s", [0.8, 0.9, 0.95])
    def test_df_and_pam_df(self, s):
        gen = np.random.default_rng(int(100 * s))
        for trial in range(4):
            n = int(gen.integers(20, 121))
            X = gen.normal(size=(n, 2)) @ gen.normal(size=(2, 2))
            if trial % 2:
                X = np.round(X)   # ties within groups
            df = fit_tocc_df(X, s)
            assert_sensitivity_floor(df, df.groups)
            pam_df = fit_pam_tocc_df(X, 3, s)
            assert_sensitivity_floor(pam_df, pam_df.groups)

    @pytest.mark.parametrize("variant, b1", [("df", 9), ("pam_df", 9), ("db", 3)])
    def test_rp2_sub_models(self, variant, b1):
        glass = load_glass()
        target = glass.values[glass.is_target()]
        ens = fit_rp_ensemble(target, 2, b1, 5, 0.9, RngStream(60),
                              variant=variant, k=4, mc_samples=10_000,
                              components_range=(1, 2), n_restarts=1)
        for proj, sub in zip(ens.projections, ens.sub_models):
            own = [target @ proj] if variant == "db" else sub.groups
            assert_sensitivity_floor(sub, own)
