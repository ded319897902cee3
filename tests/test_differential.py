"""Differential sweeps: the batched orthant-counting kernel against the frozen
per-query reference in reference_impl.py, compared exactly.

Every comparison is np.array_equal or ==, never approx: batching the count
must not move a single score, tie or dropped coordinate.
"""

import numpy as np
import pytest

import reference_impl as ref
from tocc import (MixtureDensity, OrthantIntegrator, RngStream,
                  fit_pam_tocc_df, fit_tocc_db, fit_tocc_df, multivariate_tp,
                  multivariate_tp_density, predict, univariate_tp)
from tocc import transvariation
from tocc.transvariation import tp_density_scores, tp_scores


def fields(score):
    return (score.value, score.numerator_count, score.denominator_count,
            score.dropped_coords, score.degenerate)


def sample_points(gen, n, p):
    """Integer grids with heavy ties, duplicated rows, or continuous data at
    scales from 1e-160 (products underflow to 0) to 1e160 (they overflow)."""
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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestCountingKernel:
    def test_batched_scores_match_reference(self):
        gen = np.random.default_rng(101)
        for _ in range(60):
            X, m, Q, eps = counting_case(gen)
            expected = [ref.multivariate_tp(X, c, m, eps).value for c in Q]
            assert np.array_equal(tp_scores(X, Q, m, eps)[0], expected)

    def test_single_query_fields_match_reference(self):
        gen = np.random.default_rng(102)
        for _ in range(30):
            X, m, Q, eps = counting_case(gen)
            for c in Q[gen.integers(0, len(Q), size=10)]:
                assert fields(multivariate_tp(X, c, m, eps)) \
                    == fields(ref.multivariate_tp(X, c, m, eps))

    def test_chunk_boundaries(self, monkeypatch):
        # A tiny budget makes every batch span many chunks, with a ragged
        # last one.
        monkeypatch.setattr(transvariation, "_CHUNK_ELEMENTS", 97)
        gen = np.random.default_rng(103)
        for _ in range(20):
            X, m, Q, eps = counting_case(gen)
            expected = [ref.multivariate_tp(X, c, m, eps).value for c in Q]
            assert np.array_equal(tp_scores(X, Q, m, eps)[0], expected)

    def test_univariate_matches_reference(self):
        gen = np.random.default_rng(104)
        for _ in range(200):
            xs = gen.integers(-3, 4, size=int(gen.integers(1, 40))).astype(float)
            m = float(np.median(xs)) if gen.random() < 0.7 else float(xs[0])
            c = float(gen.choice([m, float(gen.integers(-4, 5)), gen.normal()]))
            assert fields(univariate_tp(xs, c, m)) \
                == fields(ref.univariate_tp(xs, c, m))


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
            expected = [ref.multivariate_tp_density(density, c, m, integ).value
                        for c in Q]
            assert np.array_equal(tp_density_scores(density, Q, m, integ)[0],
                                  expected)
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
