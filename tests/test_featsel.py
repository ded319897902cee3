import re

import numpy as np
import pytest

from tocc import (RngStream, ToccModel, compute_vip, fit_rp_ensemble,
                  kappa_vip_select, load_glass, pca_reduce, predict_ensemble,
                  rp_select)
from tocc import featsel
from tocc.featsel import ProjectionEnsemble, VipRanking, kappa_vip


class TestPcaReduce:
    def test_full_rotation_preserves_distances(self):
        X = np.random.default_rng(1).normal(size=(40, 3))
        reducer, reduced = pca_reduce(X, 3, which="first")
        orig = np.linalg.norm(X[:, None] - X[None, :], axis=2)
        new = np.linalg.norm(reduced.values[:, None] - reduced.values[None, :],
                             axis=2)
        assert np.allclose(orig, new, atol=1e-9)

    def test_last_components_have_least_variance(self):
        gen = np.random.default_rng(2)
        X = gen.normal(size=(500, 4)) * np.array([10.0, 5.0, 1.0, 0.1])
        _, reduced = pca_reduce(X, 2, which="last")
        assert reduced.values.var(axis=0).max() < 1.5

    def test_zero_variance_direction(self):
        gen = np.random.default_rng(3)
        x = gen.normal(size=100)
        y = gen.normal(size=100)
        X = np.column_stack([x, y, x + y])  # rank 2
        _, reduced = pca_reduce(X, 1, which="last")
        assert reduced.values.var(axis=0)[0] == pytest.approx(0.0, abs=1e-12)

    def test_d_exceeding_rank_errors(self):
        x = np.random.default_rng(4).normal(size=50)
        X = np.column_stack([x, 2 * x])
        with pytest.raises(ValueError, match="rank"):
            pca_reduce(X, 2)

    def test_query_uses_training_centering(self):
        gen = np.random.default_rng(5)
        train = gen.normal(size=(100, 3))
        reducer, _ = pca_reduce(train, 2)
        z = gen.normal(size=(5, 3)) + 100.0
        projected = reducer.apply(z)
        expected = (z - train.mean(axis=0)) @ reducer.basis
        assert np.allclose(projected.values, expected)


class TestRpSelect:
    def test_returns_b1_orthonormal(self):
        X = np.random.default_rng(6).normal(size=(60, 5))
        projs = rp_select(X, 2, 7, 3, RngStream(7))
        assert len(projs) == 7
        for proj in projs:
            assert np.allclose(proj.T @ proj, np.eye(2), atol=1e-9)

    def test_even_b1_rejected(self):
        # Even sizes could tie a vote; b1 < 1 would leave an empty ensemble.
        X = np.random.default_rng(8).normal(size=(30, 4))
        for b1 in (10, 0, -1):
            with pytest.raises(ValueError):
                rp_select(X, 2, b1, 3, RngStream(9))

    def test_selection_prefers_low_variance_axis(self):
        gen = np.random.default_rng(10)
        X = gen.normal(size=(400, 3)) * np.array([10.0, 10.0, 0.1])
        selected = rp_select(X, 1, 21, 25, RngStream(11))
        unselected = rp_select(X, 1, 21, 1, RngStream(11))
        load_sel = np.mean([p[2, 0] ** 2 for p in selected])
        load_unsel = np.mean([p[2, 0] ** 2 for p in unselected])
        assert load_sel > load_unsel

    def test_glass_default_ensemble_size(self):
        glass = load_glass()
        target = glass.select_rows(glass.is_target())
        projs = rp_select(target, 2, 101, 50, RngStream(12))
        assert len(projs) == 101

    def test_bit_reproducible(self):
        X = np.random.default_rng(13).normal(size=(50, 4))
        a = rp_select(X, 2, 5, 4, RngStream(14))
        b = rp_select(X, 2, 5, 4, RngStream(14))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    @pytest.mark.parametrize("d, b1, b2, name", [
        (True, 5, 4, "d=True"), (2, True, 4, "b1=True"), (2, 5, True, "b2=True"),
        (2.0, 5, 4, "d=2.0"), (2, 3.0, 4, "b1=3.0"), (2, 5, 2.5, "b2=2.5"),
        (2, "5", 4, "b1='5'"), (None, 5, 4, "d=None")])
    def test_settings_must_be_integers(self, d, b1, b2, name):
        # A bool is no count, and a float used to raise a bare TypeError.
        X = np.random.default_rng(13).normal(size=(30, 4))
        message = f"rp_select: {name} must be an integer"
        with pytest.raises(ValueError, match=re.escape(message)):
            rp_select(X, d, b1, b2, RngStream(14))
        with pytest.raises(ValueError, match=re.escape(message)):
            fit_rp_ensemble(X, d, b1, b2, 0.9, RngStream(14))
        with pytest.raises(ValueError, match=re.escape(message)):
            kappa_vip(X, d, b1, b2, 0.5, 2, RngStream(14))

    def test_numpy_integer_settings(self):
        X = np.random.default_rng(13).normal(size=(30, 4))
        got = rp_select(X, np.int64(2), np.int32(5), np.uint8(4), RngStream(14))
        want = rp_select(X, 2, 5, 4, RngStream(14))
        assert all(np.array_equal(x, y) for x, y in zip(got, want))

    def test_non_finite_target_row_named(self):
        X = np.random.default_rng(13).normal(size=(30, 4))
        X[7, 2] = np.nan
        with pytest.raises(ValueError, match="rp_select: target row 7 is not finite"):
            rp_select(X, 2, 5, 4, RngStream(14))


def _stub_model(threshold):
    """1-D density-free model with a hand-set threshold: scores are real tp
    values, the threshold decides how permissive the vote is."""
    group = np.linspace(-1, 1, 9).reshape(-1, 1)
    return ToccModel("df", np.zeros((1, 1)), [threshold], [0.9],
                     groups=[group])


class TestEnsembleVoting:
    @staticmethod
    def _ensemble(thresholds):
        models = [_stub_model(t) for t in thresholds]
        eye = np.eye(1)
        return ProjectionEnsemble([eye] * len(models), models)

    def test_unanimous_accept(self):
        ens = self._ensemble([0.0, 0.0, 0.0])
        pred = predict_ensemble(ens, np.array([[0.1]]))
        assert pred.accept[0] and pred.score[0] == 1.0

    def test_minority_accept_rejected(self):
        # (b1 - 1) / 2 accepting is not a strict majority: threshold 1.0
        # sub-models only accept a perfect score, which 0.1 is not.
        ens = self._ensemble([0.0, 1.0, 1.0])
        pred = predict_ensemble(ens, np.array([[0.1]]))
        assert not pred.accept[0]
        assert pred.score[0] == pytest.approx(1 / 3)

    def test_b1_one_matches_single_model(self):
        gen = np.random.default_rng(15)
        X = gen.normal(size=(40, 3))
        ens = fit_rp_ensemble(X, 2, 1, 3, 0.9, RngStream(16))
        Z = gen.normal(size=(15, 3))
        from tocc import predict
        single = predict(ens.sub_models[0], Z @ ens.projections[0])
        combined = predict_ensemble(ens, Z)
        assert np.array_equal(single.accept, combined.accept)

    def test_fit_predict_roundtrip(self):
        gen = np.random.default_rng(17)
        X = gen.normal(size=(60, 4))
        ens = fit_rp_ensemble(X, 2, 5, 2, 0.9, RngStream(18))
        pred = predict_ensemble(ens, X)
        assert pred.accept.mean() >= 0.8  # mostly typical on its own data

    def test_bad_queries_rejected(self):
        # A 9-feature glass ensemble names both widths for an 8-wide query,
        # and the row of a non-finite one.
        glass = load_glass()
        target = glass.values[glass.is_target()]
        ens = fit_rp_ensemble(target, 2, 3, 5, 0.9, RngStream(19))
        with pytest.raises(ValueError, match="query dimension 8 != model dimension 9"):
            predict_ensemble(ens, target[:4, :8])
        bad = target[:4].copy()
        bad[2, 5] = np.nan
        with pytest.raises(ValueError, match="query row 2 is not finite"):
            predict_ensemble(ens, bad)

    def test_query_feature_names_checked(self):
        # The ensemble records the training table's names, and a query
        # table must name them in order: the glass table with its columns
        # reversed is refused, not scored by position. Plain arrays, and
        # ensembles fitted on them, are scored by position.
        glass = load_glass()
        target = glass.select_rows(glass.is_target())
        ens = fit_rp_ensemble(target, 2, 5, 5, 0.9, RngStream(1))
        assert ens.feature_names == glass.feature_names
        assert predict_ensemble(ens, glass).accept.sum() == 85
        reversed_glass = glass.select_features(range(9)[::-1])
        with pytest.raises(ValueError) as info:
            predict_ensemble(ens, reversed_glass)
        assert str(info.value) == (
            f"predict_ensemble: query features {reversed_glass.feature_names} "
            f"differ from the model's {glass.feature_names}")
        assert np.array_equal(predict_ensemble(ens, glass.values).score,
                              predict_ensemble(ens, glass).score)
        unnamed = fit_rp_ensemble(target.values, 2, 5, 5, 0.9, RngStream(1))
        assert unnamed.feature_names is None
        assert np.array_equal(predict_ensemble(unnamed, reversed_glass).score,
                              predict_ensemble(ens, reversed_glass.values).score)

    def test_bad_variant_or_setting_rejected(self, monkeypatch):
        X = np.random.default_rng(20).normal(size=(30, 3))
        with pytest.raises(ValueError, match="unknown variant 'kde'"):
            fit_rp_ensemble(X, 2, 1, 2, 0.9, RngStream(21), variant="kde")

        def spy(*args, **kwargs):
            raise AssertionError("rp_select drew before the settings were checked")

        # A misspelt setting is refused before any projection is drawn.
        monkeypatch.setattr(featsel, "rp_select", spy)
        for variant in ("df", "pam_df", "db"):
            with pytest.raises(TypeError, match="pam_k"):
                fit_rp_ensemble(X, 2, 1, 2, 0.9, RngStream(21),
                                variant=variant, pam_k=2)

    def test_pam_ensemble_steps_down_on_undersized_views(self):
        # The glass benchmark's pam_df ensemble at seed 35: some projected
        # views leave a k-medoids cluster under 3 members at k=4.
        glass = load_glass()
        target = glass.select_rows(glass.is_target())
        ens = fit_rp_ensemble(target, 2, 101, 50, 0.9, RngStream(35).child(101),
                              variant="pam_df", k=4)
        assert min(m.n_prototypes for m in ens.sub_models) < 4


class TestComputeVip:
    def test_basis_projection(self):
        proj = np.zeros((4, 1))
        proj[0, 0] = 1.0
        ranking = compute_vip([proj], np.ones(4))
        assert np.allclose(ranking.vip, [1, 0, 0, 0])
        assert ranking.ranking[0] == 0

    def test_symmetric_loadings_tie(self):
        proj = np.full((3, 1), 1 / np.sqrt(3))
        ranking = compute_vip([proj], np.ones(3))
        assert np.allclose(ranking.vip, ranking.vip[0])
        assert list(ranking.ranking) == [0, 1, 2]  # ties break by index

    def test_sd_scaling_raises_importance(self):
        gen = np.random.default_rng(20)
        projs = [np.linalg.qr(gen.normal(size=(3, 2)))[0] for _ in range(9)]
        base = compute_vip(projs, np.array([1.0, 1.0, 1.0]))
        boosted = compute_vip(projs, np.array([2.0, 1.0, 1.0]))
        assert boosted.vip[0] > base.vip[0]

    def test_projection_order_irrelevant(self):
        gen = np.random.default_rng(21)
        projs = [np.linalg.qr(gen.normal(size=(4, 2)))[0] for _ in range(7)]
        sds = gen.uniform(0.5, 2.0, size=4)
        a = compute_vip(projs, sds)
        b = compute_vip(projs[::-1], sds)
        assert np.allclose(a.vip, b.vip)

    def test_zero_sd_rejected(self):
        with pytest.raises(ValueError):
            compute_vip([np.eye(2)], np.array([1.0, 0.0]))

    def test_no_projections_rejected(self):
        with pytest.raises(ValueError, match="no projections"):
            compute_vip([], [1.0, 2.0])

    def test_zero_norm_column_rejected(self):
        with pytest.raises(ValueError, match="zero-norm column"):
            compute_vip([np.eye(3)[:, :2], np.zeros((3, 2))], [1.0, 2.0, 3.0])


class TestKappaVipSelect:
    @staticmethod
    def _ranking(vip):
        vip = np.asarray(vip, dtype=float)
        order = np.lexsort((np.arange(len(vip)), -vip))
        return VipRanking(vip, order)

    def test_kappa_one_keeps_top(self):
        ranking = self._ranking([0.9, 0.5, 0.7])
        corr = np.ones((3, 3))
        assert kappa_vip_select(ranking, corr, 1.0, 2) == [0, 2]

    def test_correlated_runner_up_skipped(self):
        ranking = self._ranking([0.9, 0.8, 0.7])
        corr = np.eye(3)
        corr[0, 1] = corr[1, 0] = 1.0
        assert kappa_vip_select(ranking, corr, 0.5, 2) == [0, 2]

    def test_glass_selects_si_mg(self):
        glass = load_glass()
        target = glass.select_rows(glass.is_target())
        _, selected = kappa_vip(target, 2, 101, 50, 0.5, 2, RngStream(7).child(1))
        names = {target.feature_names[j] for j in selected}
        assert names == {"Si", "Mg"}

    def test_preserves_ranking_order(self):
        gen = np.random.default_rng(22)
        for _ in range(10):
            vip = gen.uniform(size=6)
            ranking = self._ranking(vip)
            corr = np.clip(gen.uniform(-1, 1, size=(6, 6)), -1, 1)
            corr = (corr + corr.T) / 2
            np.fill_diagonal(corr, 1.0)
            chosen = kappa_vip_select(ranking, corr, 0.6, 4)
            positions = [list(ranking.ranking).index(j) for j in chosen]
            assert positions == sorted(positions)

    def test_n_keep_below_one_rejected(self):
        ranking = self._ranking([0.9, 0.8, 0.7])
        with pytest.raises(ValueError):
            kappa_vip_select(ranking, np.eye(3), 0.5, 0)

    def test_warns_when_short(self):
        ranking = self._ranking([0.9, 0.8, 0.7])
        corr = np.ones((3, 3))
        with pytest.warns(UserWarning):
            out = kappa_vip_select(ranking, corr, 0.5, 3)
        assert out == [0]
