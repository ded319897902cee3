"""Differential sweeps: the batched orthant-counting kernel, its p = 2
sort-and-search sweep and its p = 2 histogram grid, the one box-mass
function, the EM loop stacked over
components and restarts, the closed-form 2 x 2 Cholesky and the stacked
ridge ladder, the Weiszfeld iteration over a stack of tables, the mixture
search that standardizes once, the
sorted ROC sweep, the column-wise CSV reader and writer, the
table-driven model files, the stacked feature-selection front-ends, blocked
PAM and the blocked product KDE against the frozen per-query, per-restart
and per-component, per-cut-point, row-by-row, hand-written, per-candidate
and whole-array references in reference_impl.py, compared exactly. The counting kernels are
also compared with the comparison oracle there, on every case, since the
frozen product tests are exact only inside a value range.

Every comparison is np.array_equal or ==, never approx: batching the count
must not move a single score, tie or dropped coordinate, stacking EM over
components and restarts or sharing one standardization must not move a single
mixture parameter or log-likelihood, a model file must keep every byte, and
stacking the projection candidates must not change which projection is
selected.
"""

import warnings

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.special import logsumexp as scipy_logsumexp

import reference_impl as ref
from tocc import (ConvergenceError, DataMatrix, MixtureDensity, OrthantIntegrator, RngStream,
                  ScenarioSpec, fit_gmm, fit_pam_tocc_df, fit_tocc_db,
                  fit_tocc_df, generate, load_glass,
                  load_model, multivariate_tp, multivariate_tp_density,
                  orthant_probability, predict, roc_curve, save_model,
                  univariate_tp)
from tocc import (baselines, classifier, density, featsel, io_utils, numcore,
                  transvariation)
from tocc.density import box_masses
from tocc.evaluation import ALL_METHODS, fit_method
from tocc.featsel import (ProjectionEnsemble, compute_vip, fit_rp_ensemble,
                          predict_ensemble, rp_select)
from tocc.io_utils import IngestError, ingest_csv, write_csv
from tocc.transvariation import TpRows, tp_density_scores, tp_scores


def group_scores(X, Q, m, eps=transvariation.DROP_EPS):
    """tp_scores of the queries Q against the one group X, a one-segment
    call."""
    return tp_scores([X], Q, np.zeros(len(Q), dtype=np.intp), m[None], eps)


def density_scores(density, Q, m, integ, eps=transvariation.DROP_EPS):
    """tp_density_scores of the queries Q with the one prototype m."""
    return tp_density_scores(density, Q, np.zeros(len(Q), dtype=np.intp),
                             m[None], integ, eps)


def one_segment(counter, X, *arrays):
    """A numcore counter on the one segment of points X."""
    return counter(X, [len(X)], *arrays, np.zeros(len(arrays[0]), dtype=np.intp))


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
    rows = group_scores(X, Q, m, eps)
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


def spy_sweep(monkeypatch):
    """Count the row blocks the p = 2 sweep counts."""
    calls = []
    sweep = numcore._sweep_counts
    monkeypatch.setattr(numcore, "_sweep_counts",
                        lambda *args: calls.append(1) or sweep(*args))
    return calls


def spy_grid(monkeypatch):
    """Count the segments the p = 2 grid counts."""
    calls = []
    grid = numcore._grid_counts
    monkeypatch.setattr(numcore, "_grid_counts",
                        lambda *args: calls.append(1) or grid(*args))
    return calls


def force_sweep(monkeypatch):
    """Take the p = 2 sweep for every batch of one-sided boxes at every
    size, never the grid, and count the row blocks it counts."""
    monkeypatch.setattr(numcore, "_SORTING_MIN_BOXES", 0)
    monkeypatch.setattr(numcore, "_SORTING_MIN_PAIRS", 0)
    monkeypatch.setattr(numcore, "_GRID_CELLS_PER_ROW", 0)
    return spy_sweep(monkeypatch)


def force_grid(monkeypatch):
    """Take the p = 2 grid for every batch of one-sided boxes with a finite
    row, and count the segments it counts."""
    monkeypatch.setattr(numcore, "_SORTING_MIN_BOXES", 0)
    monkeypatch.setattr(numcore, "_SORTING_MIN_PAIRS", 0)
    monkeypatch.setattr(numcore, "_GRID_CELLS_PER_ROW", np.inf)
    return spy_grid(monkeypatch)


def force_counter(monkeypatch, counter):
    """Count p = 2 one-sided batches by the named counter ("loop", "sweep"
    or "grid") at every size; the spies on the sweep and the grid, in that
    order."""
    if counter == "loop":
        monkeypatch.setattr(numcore, "_SORTING_MIN_BOXES", np.inf)
        return spy_sweep(monkeypatch), spy_grid(monkeypatch)
    if counter == "sweep":
        return force_sweep(monkeypatch), spy_grid(monkeypatch)
    return spy_sweep(monkeypatch), force_grid(monkeypatch)


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

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_mixed_patterns_match_single_queries(self, p):
        # Every subset of coordinates is shared with the prototype by some
        # queries of one batch, so the batch mixes every kept pattern; the
        # prototype is off the integer grid, so only shared ones drop.
        gen = np.random.default_rng(109 + p)
        X = gen.integers(-2, 3, size=(60, p)).astype(float)
        X[40:] = X[:20]
        m = np.median(X, axis=0) + 0.25
        patterns = (np.arange(2 ** p)[:, None] >> np.arange(p)) & 1 == 1
        share = patterns[gen.permutation(np.repeat(np.arange(2 ** p), 12))]
        Q = np.where(share, m, gen.integers(-3, 4, size=share.shape))
        rows = group_scores(X, Q, m)
        assert np.array_equal(rows.kept, ~share)
        assert_rows_match(rows, [multivariate_tp(X, c, m) for c in Q],
                          lambda single: single.degenerate)
        assert_counts_match(X, Q, m, transvariation.DROP_EPS)

    @pytest.mark.parametrize("counter", ["default", "sweep", "grid"])
    def test_power_of_two_scales(self, monkeypatch, counter):
        # Scaling by 2^k is exact, so no count may move: not where products
        # of differences would underflow (k <= -537), nor near the top of
        # the range.
        X, Q, m = scaled_grid_case()
        if counter != "default":
            calls = force_counter(monkeypatch, counter)[counter == "grid"]
        want = group_scores(X, Q, m, 0.0)
        for k in range(-1070, 1022):
            s = 2.0 ** k
            for got, expected in zip(group_scores(X * s, Q * s, m * s, 0.0), want):
                assert np.array_equal(got, expected), k
        assert counter == "default" or len(calls) == 1 + 2092

    @pytest.mark.parametrize("counter", ["loop", "sweep", "grid"])
    def test_density_power_of_two_scales(self, monkeypatch, counter):
        # Scaling the means, the prototype and the queries by 2^k and the
        # covariances by 4^k scales every Cholesky factor, draw and bound
        # by exactly 2^k, so no box mass may move. Queries share a
        # coordinate with the prototype, or both, so some boxes are bounded
        # on one coordinate or none.
        gen = np.random.default_rng(108)
        density = mixture_case(gen, 2)
        m = np.array([0.25, -0.5])
        Q = np.vstack([gen.integers(-3, 4, size=(70, 2)) / 2, m,
                       [[0.25, 1.0], [-1.0, -0.5]]])
        sweeps, grids = force_counter(monkeypatch, counter)

        def scores(k):
            s = 2.0 ** k
            scaled = MixtureDensity(density.weights, density.means * s,
                                    density.covariances * s * s)
            integ = OrthantIntegrator("monte_carlo", 10_000, RngStream(5))
            return density_scores(scaled, Q * s, m * s, integ, 0.0)

        want = scores(0)
        for k in range(-200, 201, 25):
            for got, expected in zip(scores(k), want):
                assert np.array_equal(got, expected), k
        assert (bool(sweeps), bool(grids)) == (counter == "sweep", counter == "grid")


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestCountingSweep:
    def test_sweep_matches_reference(self, monkeypatch):
        # A batch is one box_counts call and its n <= 300 rows one block,
        # so each p = 2 case makes exactly one sweep call.
        calls = force_sweep(monkeypatch)
        gen = np.random.default_rng(105)
        wide = 0
        for _ in range(40):
            X, m, Q, eps = counting_case(gen)
            assert_counts_match(X, Q, m, eps)
            wide += X.shape[1] == 2
        assert len(calls) == wide > 0

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
        calls = force_sweep(monkeypatch)
        monkeypatch.setattr(numcore, "_SORTING_MIN_BOXES", 2 * len(Q) + 1)
        loop = group_scores(X, Q, m)
        assert not calls
        monkeypatch.setattr(numcore, "_SORTING_MIN_BOXES", 0)
        sweep = group_scores(X, Q, m)
        assert calls
        for got, want in zip(sweep, loop):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("scale", [2.0 ** -485, 2.0 ** -486, 2.0 ** 1023],
                             ids=["at-the-bound", "underflow", "overflow"])
    def test_sweep_guard(self, monkeypatch, scale):
        # The scales where products of differences stop being exact: at
        # 2^-485 they are still at least 2^-1074, near 2^-486 one-ulp
        # differences multiply to 2^-1076 and 2^-1075, which round to 0,
        # and near 2^1023 m - c overflows. Both counters compare, so the
        # sweep runs at each scale and equals the comparison loop and the
        # comparison oracle.
        s, u = scale, np.spacing(scale)
        m = np.array([s + 3 * u, s])
        X = np.array([[s + u, -(s + u)], [s + 2 * u, -s], m, [-s, -s],
                      [-(s + u), s + u], [s, -s]])
        Q = np.vstack([X, [[-s, -(s + u)], [s + 3 * u, -s]]])
        loop = group_scores(X, Q, m, 0.0)
        calls = force_sweep(monkeypatch)
        sweep = group_scores(X, Q, m, 0.0)
        oracles = [ref.comparison_tp(X, c, m, 0.0) for c in Q]
        assert calls
        for got, want in zip(sweep, loop):
            assert np.array_equal(got, want)
        assert_rows_match(sweep, oracles, zero_denominator)

    def test_query_on_the_prototype(self):
        # A negative eps would keep the coordinates a query shares with m,
        # where it points neither up nor down; nan would drop nothing.
        Q = np.array(np.meshgrid([-2.0, -1, 0, 1, 2], [-2.0, -1, 0, 1, 2])).reshape(2, -1).T
        for eps in (-1.0, -1e-300, np.nan):
            with pytest.raises(ValueError, match="must be a number >= 0"):
                group_scores(Q, Q, np.zeros(2), eps)


def signed_zero_grid(gen, n, p):
    """Rows of the grid {-1, 0, 1}^p, half of them repeated, with a random
    sign on every zero."""
    X = gen.integers(-1, 2, size=(n, p)).astype(float)
    X[n // 2:] = X[:n - n // 2]
    return np.where(X == 0, gen.choice([-0.0, 0.0], size=X.shape), X)


def open_boxes(gen, q, p, values, two_sided=False):
    """q open boxes whose coordinates are each unbounded, bounded below or
    above at one of values, or, with two_sided, bounded on both sides."""
    sides = gen.integers(4 if two_sided else 3, size=(q, p))
    lower = np.where(sides % 2 == 1, gen.choice(values, size=(q, p)), -np.inf)
    upper = np.where(sides >= 2, gen.choice(values, size=(q, p)), np.inf)
    return lower, upper


def box_count_oracle(X, lower, upper):
    return [int(np.count_nonzero(np.all((lo < X) & (X < hi), axis=1)))
            for lo, hi in zip(lower, upper)]


class TestCounters:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 70])
    def test_tie_counts(self, p):
        # Masks of every density, all-True and all-False rows among them,
        # in no order, so the anchors of one mask are scattered.
        gen = np.random.default_rng(130 + p)
        X = signed_zero_grid(gen, 300, p)
        A = np.vstack([X[:40], signed_zero_grid(gen, 60, p)])
        A = np.where(A == 0, gen.choice([-0.0, 0.0], size=A.shape), A)
        assert np.signbit(X[X == 0]).any() and np.signbit(A[A == 0]).any()
        kept = gen.random(A.shape) < gen.random((len(A), 1))
        kept[gen.choice(len(A), size=20, replace=False)] = [[True], [False]] * 10
        want = ((X[None] == A[:, None]) | ~kept[:, None]).all(2).sum(1)
        want[~kept.any(1)] = 0
        assert np.array_equal(one_segment(numcore.tie_counts, X, A, kept), want)
        assert want.max() > 1 and (want == 0).any()

    @pytest.mark.parametrize("p, counter", [(1, None), (2, None), (3, None),
                                            (2, "sweep"), (2, "grid")],
                             ids=["p1", "p2", "p3", "p2-sweep", "p2-grid"])
    def test_box_counts(self, monkeypatch, p, counter):
        # 300 rows in 97-row blocks leave a ragged last block of 9; bounds
        # on the grid put rows on the box faces.
        monkeypatch.setattr(numcore, "_CHUNK_ELEMENTS", 97)
        sweeps, grids = force_counter(monkeypatch, counter or "sweep")
        gen = np.random.default_rng(140 + p)
        X = signed_zero_grid(gen, 300, p)
        lower, upper = open_boxes(gen, 200, p, [-1.0, -0.0, 0.0, 0.5, 1.0],
                                       two_sided=not counter)
        lower[:3], upper[:3] = -np.inf, np.inf
        assert np.array_equal(one_segment(numcore.box_counts, X, lower, upper),
                              box_count_oracle(X, lower, upper))
        assert (len(sweeps), len(grids)) == {None: (0, 0), "sweep": (4, 0),
                                             "grid": (0, 1)}[counter]

    @pytest.mark.parametrize("counter", ["loop", "sweep", "grid"])
    def test_rows_that_are_not_finite(self, monkeypatch, counter):
        # A row with an infinite or nan coordinate lies in no open box, one
        # bounded nowhere included, whichever counter counts it.
        monkeypatch.setattr(numcore, "_CHUNK_ELEMENTS", 97)
        sweeps, grids = force_counter(monkeypatch, counter)
        gen = np.random.default_rng(145)
        X = signed_zero_grid(gen, 300, 2)
        X[gen.choice(300, size=30, replace=False), gen.integers(2, size=30)] = (
            gen.choice([np.inf, -np.inf, np.nan], size=30))
        lower, upper = open_boxes(gen, 200, 2, [-1.0, -0.0, 0.0, 0.5, 1.0],
                                  two_sided=counter == "loop")
        lower[:3], upper[:3] = -np.inf, np.inf
        assert np.array_equal(one_segment(numcore.box_counts, X, lower, upper),
                              box_count_oracle(X, lower, upper))
        assert (bool(sweeps), bool(grids)) == (counter == "sweep", counter == "grid")

    @pytest.mark.parametrize("lo, hi",[([-0.5, -0.5], [0.5, 0.5]),
                                        ([np.inf, -np.inf], [0.5, np.inf])],
                             ids=["two-sided", "empty"])
    def test_one_two_sided_box_keeps_the_loop(self, monkeypatch, lo, hi):
        # The empty coordinate (inf, 0.5) is bounded on both sides too.
        gen = np.random.default_rng(150)
        X = gen.normal(size=(2000, 2))
        lower, upper = open_boxes(gen, 512, 2, X[:50].ravel())
        both = np.vstack([lower, [lo]]), np.vstack([upper, [hi]])
        calls = spy_sweep(monkeypatch)
        assert np.array_equal(one_segment(numcore.box_counts, X, *both),
                              box_count_oracle(X, *both))
        assert not calls
        assert np.array_equal(one_segment(numcore.box_counts, X, lower, upper),
                              box_count_oracle(X, lower, upper))
        assert calls

    @pytest.mark.parametrize("p, counter", [(1, None), (2, None), (2, "sweep"),
                                            (2, "grid"), (3, None), (9, None)],
                             ids=["p1", "p2", "p2-sweep", "p2-grid", "p3", "p9"])
    def test_box_counts_properties(self, monkeypatch, p, counter):
        # Segments of 0 to 20 rows, some with nan or +-inf coordinates, and
        # 0 to 2b boxes each, every box bounded on the grid or nowhere, so
        # some segments have rows and no boxes and some boxes and no rows.
        # box_counts equals the oracle's counts, bit for bit, under every
        # tile size, with the box tags in shuffled order, a permutation of
        # the segments and of the rows within each segment; tie_counts,
        # with grid anchors and masks of every density, equals its oracle
        # under the same shuffles. The tile sizes run from one row against
        # one box (1) through ragged row blocks and box runs (7, 97) to
        # whole segments (2 500, 2 ** 14).
        gen = np.random.default_rng(180 + p + bool(counter))
        sweeps, grids = (force_counter(monkeypatch, counter) if counter else
                         (spy_sweep(monkeypatch), spy_grid(monkeypatch)))
        values = [-1.0, -0.0, 0.0, 0.5, 1.0]
        for b in (5, 26):
            # (rows, boxes) of each segment, in random order.
            shapes = gen.permutation([(0, b), (1, 0), (3, 2 * b), (3, 1),
                                      (11, 0), (11, b), (20, b)])
            groups = [signed_zero_grid(gen, n, p) for n in shapes[:, 0]]
            for X in groups:
                bad = gen.random(len(X)) < 0.2
                X[bad, gen.integers(p, size=bad.sum())] = gen.choice(
                    [np.inf, -np.inf, np.nan], size=bad.sum())
            seg = np.repeat(np.arange(len(groups)), shapes[:, 1])
            lower, upper = open_boxes(gen, len(seg), p, values,
                                      two_sided=not counter)
            nowhere = gen.random(len(seg)) < 0.1
            lower[nowhere], upper[nowhere] = -np.inf, np.inf
            A = signed_zero_grid(gen, len(seg), p)
            kept = gen.random(A.shape) < gen.random((len(A), 1))
            want = np.zeros(len(seg), dtype=int)
            ties = np.zeros(len(seg), dtype=int)
            for s, X in enumerate(groups):
                own = seg == s
                want[own] = box_count_oracle(X, lower[own], upper[own])
                ties[own] = [((X == a) | ~k).all(1).sum() if k.any() else 0
                             for a, k in zip(A[own], kept[own])]
            assert ties.max() > 0
            shuffled = [X[gen.permutation(len(X))] for X in groups]
            perm = gen.permutation(len(groups))
            tags = gen.permutation(len(seg))
            cases = [  # rows, box order, box tags
                (groups, slice(None), seg), (shuffled, slice(None), seg),
                (groups, tags, seg[tags]),
                ([groups[s] for s in perm], slice(None), np.argsort(perm)[seg])]
            for chunk in (1, 7, 97, 2500, 2 ** 14):
                monkeypatch.setattr(numcore, "_CHUNK_ELEMENTS", chunk)
                for rows, order, tagged in cases:
                    X, ends = np.concatenate(rows), np.cumsum(list(map(len, rows)))
                    got = numcore.box_counts(X, ends, lower[order], upper[order],
                                             tagged)
                    assert np.array_equal(got, want[order]), (b, chunk)
                    got = numcore.tie_counts(X, ends, A[order], kept[order], tagged)
                    assert np.array_equal(got, ties[order]), (b, chunk)
        assert (bool(sweeps), bool(grids)) == (counter == "sweep", counter == "grid")

    @pytest.mark.parametrize("counter", ["loop", "sweep", "grid"])
    def test_segments_without_rows_count_zero(self, monkeypatch, counter):
        gen = np.random.default_rng(186)
        force_counter(monkeypatch, counter)
        lower, upper = open_boxes(gen, 6, 2, [-1.0, 0.0, 1.0])
        lower, upper = np.tile(lower, (3, 1)), np.tile(upper, (3, 1))
        seg = np.repeat(np.arange(3), 6)
        kept = np.ones((18, 2), dtype=bool)
        for counter, bounds in [(numcore.box_counts, (lower, upper)),
                                (numcore.tie_counts, (lower, kept))]:
            assert np.array_equal(counter(np.empty((0, 2)), [0, 0, 0], *bounds, seg),
                                  np.zeros(18))
        X = signed_zero_grid(gen, 4, 2)
        want = np.zeros((3, 6), dtype=int)
        want[1] = box_count_oracle(X, lower[:6], upper[:6])
        assert np.array_equal(numcore.box_counts(X, [0, 4, 4], lower, upper, seg),
                              want.ravel())

    def test_sweep_traffic(self, monkeypatch):
        # Under the default routing rule, every benchmark shape takes its
        # counter: a replicate density call (20 000 draws, 229 boxes) and a
        # glass-study one (100 000 draws, 96 boxes) the grid, a
        # cli-bulk-sized call (2 000 rows, 2 009 boxes) the sweep, and an
        # rp2 view of the glass study (87 rows, 140 boxes) the loop.
        gen = np.random.default_rng(187)
        sweeps, grids = spy_sweep(monkeypatch), spy_grid(monkeypatch)
        for n, b, counter in [(20_000, 229, "grid"), (100_000, 96, "grid"),
                              (2000, 2009, "sweep"), (87, 140, "loop")]:
            X = gen.normal(size=(n, 2))
            lower, upper = open_boxes(gen, b, 2, X[:50].ravel())
            sweeps.clear(), grids.clear()
            assert np.array_equal(one_segment(numcore.box_counts, X, lower, upper),
                                  box_count_oracle(X, lower, upper))
            assert (bool(sweeps), bool(grids)) == (counter == "sweep",
                                                   counter == "grid"), (n, b)

    @pytest.mark.parametrize("chunk", [1, 7, 97, 2 ** 14])
    def test_grid_matches_oracle(self, monkeypatch, chunk):
        # Rows on every cut, one ulp either side of it and at -0.0 and 0.0,
        # some with a nan or infinite coordinate, against one-sided boxes
        # with anchors on those values, among them boxes bounded nowhere
        # and empty ones: (inf, inf) or (-inf, -inf) on a coordinate. The
        # row blocks run from one row to whole segments.
        monkeypatch.setattr(numcore, "_CHUNK_ELEMENTS", chunk)
        calls = force_grid(monkeypatch)
        gen = np.random.default_rng(188)
        cuts = np.array([-1.0, -0.0, 0.0, 0.5, 1.0])
        values = np.concatenate([cuts, np.nextafter(cuts, np.inf),
                                 np.nextafter(cuts, -np.inf)])
        for trial in range(12):
            n, b = int(gen.integers(1, 400)), int(gen.integers(1, 60))
            X = gen.choice(values, size=(n, 2))
            bad = gen.random(n) < 0.1
            X[bad, gen.integers(2, size=bad.sum())] = gen.choice(
                [np.inf, -np.inf, np.nan], size=bad.sum())
            lower, upper = open_boxes(gen, b, 2, cuts)
            empty = gen.random((b, 2)) < 0.1
            side = gen.choice([np.inf, -np.inf], size=(b, 2))
            lower[empty], upper[empty] = side[empty], side[empty]
            nowhere = gen.random(b) < 0.1
            lower[nowhere], upper[nowhere] = -np.inf, np.inf
            calls.clear()
            assert np.array_equal(one_segment(numcore.box_counts, X, lower, upper),
                                  box_count_oracle(X, lower, upper)), trial
            assert len(calls) == 1

    def test_one_call_mixes_the_counters(self, monkeypatch):
        # One call under the default rule with a segment for each counter,
        # box tags shuffled: 20 000 rows against 100 one-sided boxes (the
        # grid), 2 000 against 600 (the sweep), 87 against 140 and 3 000
        # against 100 boxes, one of them two-sided (the loop), and an
        # empty segment.
        gen = np.random.default_rng(189)
        sweeps, grids = spy_sweep(monkeypatch), spy_grid(monkeypatch)
        shapes = [(20_000, 100, False), (2000, 600, False), (87, 140, False),
                  (3000, 100, True), (0, 5, False)]
        groups = [np.round(gen.normal(size=(n, 2)), 2) for n, _, _ in shapes]
        bounds = [open_boxes(gen, b, 2, np.round(gen.normal(size=40), 2))
                  for _, b, _ in shapes]
        bounds[3][0][0], bounds[3][1][0] = -0.5, 0.5
        lower, upper = (np.concatenate(side) for side in zip(*bounds))
        seg = np.repeat(np.arange(len(shapes)), [b for _, b, _ in shapes])
        want = np.concatenate([box_count_oracle(X, lo, hi)
                               for X, (lo, hi) in zip(groups, bounds)])
        tags = gen.permutation(len(seg))
        got = numcore.box_counts(np.concatenate(groups),
                                 np.cumsum([n for n, _, _ in shapes]),
                                 lower[tags], upper[tags], seg[tags])
        assert np.array_equal(got, want[tags])
        assert len(grids) == 1 and len(sweeps) == 1


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
                density_scores(density, Q, m, integ),
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
        assert np.array_equal(density_scores(density, Q, m, integ)[0],
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
        for got, want in zip(density_scores(density, Q, m, integ),
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
        model = fit_tocc_db(X, 0.9, RngStream(seed), components_range=(1, 2),
                            mc_samples=10_000, n_restarts=2)
        assert model.thresholds[0] == ref.db_threshold(
            X, 0.9, model.density, model.prototypes[0], model.integrator)
        Z = query_rows(seed, X, model)
        scores, _ = ref.predict_scores(model, Z)
        assert np.array_equal(predict(model, Z).score, scores)

    def test_tocc_db_with_three_prototypes(self):
        # Every prototype is scored in one tp_density_scores call, with a
        # denominator box per prototype and orthant pattern.
        X = target_rows(3, n=150)
        fitted = fit_tocc_db(X, 0.9, RngStream(3), components_range=(1, 2),
                             mc_samples=10_000, n_restarts=1)
        model = classifier.ToccModel(
            "db", [fitted.prototypes[0], X[0], [3.0, 3.0]], [0.2, 0.3, 0.4],
            [0.9] * 3, density=fitted.density, integrator=fitted.integrator)
        Z = np.vstack([query_rows(3, X, model)[:-1], [[3.0, 3.0]]])
        want = ref.predict(model, Z)
        got = predict(model, Z)
        assert np.unique(want.score).size > 100
        assert np.bincount(np.linalg.norm(
            Z[:, None] - model.prototypes, axis=2).argmin(1)).min() > 20
        for field in ("score", "accept"):
            assert np.array_equal(getattr(got, field), getattr(want, field))


def segment_case(gen, p, S):
    """S integer-grid groups of 3 to 60 rows, with duplicated rows, some
    on the diagonal (so some orthants of their prototype hold no row and
    some denominators are 0), each with a prototype and 1 to 50 queries:
    its own rows, grid points, the prototype, the prototype moved by less
    than DROP_EPS (dropped at eps = DROP_EPS, kept at eps = 0), and points
    sharing a coordinate with it."""
    groups, queries, prototypes = [], [], []
    for s in range(S):
        n = int(gen.integers(3, 61))
        X = gen.integers(-3, 4, size=(n, p)).astype(float)
        if s % 3 == 0:
            X = np.repeat(X[:, :1], p, axis=1)
        X[n // 2:] = X[:n - n // 2]
        m = X[int(gen.integers(n))] if s % 2 else np.median(X, axis=0) + 0.5
        moved = np.where(gen.random((4, p)) < 0.5, m,
                         gen.integers(-4, 5, size=(4, p)))
        Q = np.vstack([X, gen.integers(-4, 5, size=(20, p)), m,
                       np.repeat([m + 2.0 ** -45], 5, axis=0), moved])
        groups.append(X)
        queries.append(Q[gen.permutation(len(Q))[:int(gen.integers(1, 51))]])
        prototypes.append(m)
    return groups, queries, np.array(prototypes)


def segmented_scores(groups, queries, prototypes, eps, order=None):
    """One tp_scores call on the queries of every segment, listed in the
    given order of their concatenation (segment order without one); the
    record comes back in segment order."""
    C = np.concatenate(queries)
    seg = np.repeat(np.arange(len(queries)), [len(Q) for Q in queries])
    order = np.arange(len(C)) if order is None else order
    rows = tp_scores(groups, C[order], seg[order], prototypes, eps)
    back = np.empty_like(order)
    back[order] = np.arange(len(order))
    return TpRows(*(field[back] for field in rows))


def assert_segments_match(got, groups, queries, prototypes, eps):
    """The segmented record got, one entry per query in segment order,
    equals the frozen one-group tp_scores of each segment, on every field
    of every query, and the comparison oracle's score of each query, which
    shares no code with numcore; returns the frozen records."""
    wants = [ref.tp_scores(X, Q, m, e)
             for X, Q, m, e in zip(groups, queries, prototypes, eps)]
    assert len(got.value) == sum(map(len, queries))
    ends = np.cumsum([len(Q) for Q in queries])
    for s, want in enumerate(wants):
        own = TpRows(*(field[ends[s] - len(queries[s]):ends[s]] for field in got))
        for field, expected in zip(own, want):
            assert np.array_equal(field, expected), s
        X, Q, m, e = groups[s], queries[s], prototypes[s], eps[s]
        assert_rows_match(own, [ref.comparison_tp(X, c, m, e) for c in Q],
                          zero_denominator)
    return wants


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSegmentedCounting:
    """tp_scores over many ragged segments against the frozen one-group
    tp_scores, which counts a denominator box per query."""

    @pytest.mark.parametrize("p, setting", [
        (1, "default"), (2, "default"), (3, "default"), (1, "small-tiles"),
        (2, "small-tiles"), (3, "small-tiles"), (2, "sweep"), (2, "grid"),
        (1, "shuffled"), (2, "shuffled"), (3, "shuffled")])
    def test_matches_one_group_calls(self, monkeypatch, p, setting):
        gen = np.random.default_rng(160 + p)
        groups, queries, prototypes = segment_case(gen, p, 14)
        eps = np.where(gen.random(14) < 0.5, 0.0, transvariation.DROP_EPS)
        sweeps, grids = spy_sweep(monkeypatch), spy_grid(monkeypatch)
        if setting == "small-tiles":
            # Tiles span segments and row blocks.
            monkeypatch.setattr(numcore, "_CHUNK_ELEMENTS", 97)
        if setting in ("sweep", "grid"):
            # The segments with 40 rows or more are swept or gridded on
            # their own, the rest counted together by the comparison loop.
            monkeypatch.setattr(numcore, "_SORTING_MIN_BOXES", 0)
            monkeypatch.setattr(numcore, "_SORTING_MIN_PAIRS",
                                40 * max(map(len, queries)))
            monkeypatch.setattr(numcore, "_GRID_CELLS_PER_ROW",
                                np.inf if setting == "grid" else 0)
        # Shuffled, the segments' queries are interleaved: no segment's
        # queries are one run.
        order = (gen.permutation(sum(map(len, queries)))
                 if setting == "shuffled" else None)
        got = segmented_scores(groups, queries, prototypes, eps, order)
        assert (0 < len(sweeps) < 14) if setting == "sweep" else not sweeps
        assert (0 < len(grids) < 14) if setting == "grid" else not grids
        wants = assert_segments_match(got, groups, queries, prototypes, eps)
        assert any(want.degenerate.any() for want in wants) or p == 1

    def test_denominator_boxes_per_segment(self):
        """Each segment counts one denominator box per orthant pattern of
        its own queries, not of every segment's: six segments at p = 9,
        each with three sign patterns no other segment has, build q + 3
        boxes each, tagged with their segment, and each query's
        denominator box is the frozen per-query one. The scores at p = 9
        match the frozen one-group calls."""
        gen = np.random.default_rng(171)
        S, q, p = 6, 30, 9
        signs = np.unique(gen.choice([-1.0, 1.0], size=(40, p)), axis=0)
        signs = gen.permutation(signs)[:3 * S].reshape(S, 3, p)
        C = (signs[np.arange(S)[:, None], gen.integers(3, size=(S, q))]
             * gen.integers(1, 4, size=(S, q, p)))
        m = np.zeros((S, p))
        seg = np.repeat(np.arange(S), q)
        kept = transvariation._kept(C.reshape(-1, p), m[seg], 0.0)
        lower, upper, boxseg, which = transvariation._orthant_boxes(
            C.reshape(-1, p), m[seg], kept, seg)
        assert lower.shape == upper.shape == (S * (q + 3), p)
        assert np.array_equal(np.bincount(boxseg), np.full(S, q + 3))
        assert np.array_equal(boxseg[S * q:][which], seg)
        for s in range(S):
            lo, hi = ref._orthant_boxes(C[s], m[s], kept[seg == s])
            assert np.array_equal(lower[S * q + which[seg == s]], lo[q:])
            assert np.array_equal(upper[S * q + which[seg == s]], hi[q:])
        groups = [gen.integers(-2, 3, size=(int(gen.integers(5, 40)), p))
                  .astype(float) for _ in range(S)]
        queries = [C[s, :int(gen.integers(1, q + 1))] for s in range(S)]
        got = segmented_scores(groups, queries, m, np.zeros(S))
        assert_segments_match(got, groups, queries, m, np.zeros(S))


def assert_ensemble_matches_per_view(ens, train, Z, stream=None, **kw):
    """Every sub-model's thresholds equal the frozen per-prototype
    calibration, and the ensemble's votes the frozen per-view predict; with
    a stream, every sub-model also equals fit_method on its view alone."""
    vals = train.values if hasattr(train, "values") else train
    for b, (proj, sub) in enumerate(zip(ens.projections, ens.sub_models)):
        view = vals @ proj
        own = [view] if sub.variant == "db" else sub.groups
        assert np.array_equal(sub.thresholds, ref.calibrated_thresholds(sub, own))
        if stream is not None:
            name = {"df": "tocc-df", "pam_df": "pam-tocc-df", "db": "tocc-db"}
            alone = fit_method(name[sub.variant], view, 0.9,
                               stream.child(b + 1), **kw)
            assert np.array_equal(sub.prototypes, alone.prototypes)
            assert np.array_equal(sub.thresholds, alone.thresholds)
    got, want = predict_ensemble(ens, Z), ref.predict_ensemble(ens, Z)
    assert np.array_equal(got.score, want.score)
    assert np.array_equal(got.accept, want.accept)


class TestEnsembleBatching:
    """An ensemble calibrated and predicted in one segmented counting call
    against the frozen per-view calibration and predict."""

    @pytest.mark.parametrize("variant, b1, seed",
                             [("df", 15, 170), ("pam_df", 15, 171),
                              ("db", 3, 172), ("df", 1, 173), ("pam_df", 1, 174)])
    def test_matches_per_view(self, variant, b1, seed):
        kw = dict(k=4, mc_samples=10_000, components_range=(1, 2), n_restarts=1)
        stream = RngStream(seed)
        glass = load_glass()
        target = glass.select_rows(glass.is_target())
        ens = fit_rp_ensemble(target, 2, b1, 5, 0.9, stream, variant=variant,
                              **kw)
        assert len(ens.sub_models) == b1
        assert_ensemble_matches_per_view(ens, target, glass.values, stream, **kw)

    def test_pam_views_that_step_down(self):
        # The glass benchmark's pam_df ensemble at seed 35, where some views
        # keep fewer than k = 4 clusters and are padded with +inf
        # prototypes.
        glass = load_glass()
        target = glass.select_rows(glass.is_target())
        ens = fit_rp_ensemble(target, 2, 101, 50, 0.9, RngStream(35).child(101),
                              variant="pam_df", k=4)
        assert min(m.n_prototypes for m in ens.sub_models) < 4
        assert_ensemble_matches_per_view(ens, target, glass.values)

    def test_queries_that_tie_a_prototype(self):
        # Coordinate projections keep integer-grid rows exact, so queries
        # equal a medoid, lie at equal distances from two medoids, or (far
        # out) at inf from every medoid; views keep 1 to 3 clusters.
        gen = np.random.default_rng(175)
        X = gen.integers(-3, 4, size=(60, 3)).astype(float)
        eye = np.eye(3)
        projections = [eye[:, [0, 1]], eye[:, [1, 2]], eye[:, [0, 2]],
                       eye[:, [2, 0]], eye[:, [1, 0]]]
        subs = [classifier.fit_pam_tocc_df(X @ P, k, 0.9)
                for P, k in zip(projections, (3, 1, 2, 3, 2))]
        subs[1] = classifier.fit_tocc_df(X @ projections[1], 0.9)
        ens = ProjectionEnsemble(projections, subs)
        Z = np.vstack([X, gen.integers(-4, 5, size=(40, 3)) / 2.0,
                       [[1e300, -1e300, 1e300], [0.0, 0.0, 0.0]]])
        assert_ensemble_matches_per_view(ens, X, Z)
        views = np.stack([Z @ P for P in projections])
        protos = np.full((len(subs), 3, 2), np.inf)
        for proto, model in zip(protos, subs):
            proto[:model.n_prototypes] = model.prototypes
        nearest = classifier.nearest_prototypes(views, protos)
        assert np.all(nearest[:, -2] == 0)
        for view, model, got in zip(views, subs, nearest):
            if model.n_prototypes > 1:
                with np.errstate(over="ignore"):
                    d = np.linalg.norm(view[:, None] - model.prototypes, axis=2)
                assert np.array_equal(got, d.argmin(axis=1))
                assert (np.sort(d, axis=1)[:, 0] == np.sort(d, axis=1)[:, 1]).any()


@pytest.fixture(scope="module")
def ragged_cases():
    """Counting models and ensembles with the queries they score: a df,
    pam_df (k = 4) and db model on two blobs, and df and pam_df
    ensembles on the glass table."""
    X = target_rows(190, n=80)
    models = [fit_tocc_df(X, 0.9), fit_pam_tocc_df(X, 4, 0.9),
              fit_tocc_db(X, 0.9, RngStream(190), components_range=(1, 2),
                          mc_samples=10_000, n_restarts=1)]
    glass = load_glass()
    target = glass.select_rows(glass.is_target())
    ensembles = [fit_rp_ensemble(target, 2, 15, 5, 0.9, RngStream(191 + i),
                                 variant=variant, k=4)
                 for i, variant in enumerate(("df", "pam_df"))]
    return (models, query_rows(190, X, models[1]), ensembles, glass.values)


class TestRaggedBatches:
    """Predict calls whose segments are ragged or empty: no query rows at
    all, clusters that receive no query, and any subset of a query table,
    whose rows must score as in the full call."""

    def test_zero_rows(self, ragged_cases):
        models, _, ensembles, _ = ragged_cases
        results = [predict(model, np.empty((0, 2))) for model in models]
        results.append(predict_ensemble(ensembles[1], np.empty((0, 9))))
        for got in results:
            assert got.score.shape == got.accept.shape == (0,)
            assert got.score.dtype == float and got.accept.dtype == bool

    def test_clusters_without_queries(self, ragged_cases):
        models, Z, ensembles, glass = ragged_cases
        model = models[1]
        near = model.prototypes[2] + np.random.default_rng(192).normal(
            scale=0.01, size=(5, 2))
        for rows in (near, near[:1], Z[:2]):
            got, want = predict(model, rows), ref.predict(model, rows)
            assert np.unique(got.cluster).size < model.n_prototypes
            for field in ("score", "accept", "cluster"):
                assert np.array_equal(getattr(got, field), getattr(want, field))
        for rows in (glass[:1], glass[100:102]):
            got, want = predict_ensemble(ensembles[1], rows), \
                ref.predict_ensemble(ensembles[1], rows)
            assert np.array_equal(got.score, want.score)
            assert np.array_equal(got.accept, want.accept)

    @pytest.mark.parametrize("setting", ["default", "small-chunks"])
    def test_subsets_score_as_in_the_full_call(self, monkeypatch,
                                               ragged_cases, setting):
        # An ensemble's views are scored as prototype_scores gets them:
        # predict_ensemble projects its queries with a matrix product,
        # whose last bits may depend on how many rows it is given.
        if setting == "small-chunks":
            monkeypatch.setattr(numcore, "_CHUNK_ELEMENTS", 97)
        models, Z, ensembles, glass = ragged_cases
        cases = [([model], [Z]) for model in models[:2]]
        for ens in ensembles:
            cases.append((ens.sub_models, [glass @ P for P in ens.projections]))
        gen = np.random.default_rng(193)
        for subs, views in cases:
            clusters = [classifier.nearest_prototypes(view[None],
                                                      model.prototypes[None])[0]
                        for view, model in zip(views, subs)]
            full = classifier.prototype_scores(subs, views, clusters)
            assert np.array_equal(full[0], subs[0].predict(views[0]).score)
            n = len(views[0])
            for size in (1, 2, 7, n // 2, n):
                pick = gen.choice(n, size=size, replace=False)
                got = classifier.prototype_scores(
                    subs, [view[pick] for view in views],
                    [labels[pick] for labels in clusters])
                for score, want in zip(got, full):
                    assert np.array_equal(score, want[pick]), size


def standardized(vals):
    """fit_gmm's shared EM input: the column centers and scales, the
    standardized rows z, their covariance and the ridge base."""
    p = vals.shape[1]
    center = vals.mean(axis=0)
    scale = vals.std(axis=0, ddof=0)
    scale[scale == 0] = 1.0
    z = (vals - center) / scale
    global_cov = np.cov(z, rowvar=False, ddof=1).reshape(p, p)
    return center, scale, z, global_cov, 1e-8 * max(np.trace(global_cov) / p, 1e-12)


def assert_same_em(vals, k, streams):
    """The library's stacked EM over one restart per stream and the
    reference EM run from each stream alone, under the same iteration cap:
    each restart and its reference run both degenerate (None), or have
    equal weights, means, covariances and log-likelihood once the library's
    run on the standardized rows is mapped back to data units as fit_gmm
    maps its best restart. Returns the mapped (mixture, loglik) or None of
    every restart."""
    center, scale, z, global_cov, reg_base = standardized(vals)
    runs = density._em_restarts(z, k, [s.generator() for s in streams],
                                global_cov, reg_base)
    assert len(runs) == len(streams)
    mapped = []
    for run, stream in zip(runs, streams):
        want = ref._em_single(vals, k, stream.generator(),
                              max_iter=density._EM_MAX_ITER)
        if run is not None:
            (weights, means, covs), ll = run
            chols, covs, _ = density._chol_all(covs * scale[None, :, None]
                                               * scale[None, None, :])
            run = None if not np.isfinite(chols).all() else (
                MixtureDensity(weights, means * scale + center, covs),
                ll - vals.shape[0] * float(np.log(scale).sum()))
        mapped.append(run)
        if run is None or want is None:
            assert run is None and want is None
            continue
        (f, ll), (f_ref, ll_ref) = run, want
        assert np.array_equal(f.weights, f_ref.weights)
        assert np.array_equal(f.means, f_ref.means)
        assert np.array_equal(f.covariances, f_ref.covariances)
        assert ll == ll_ref
    return mapped


def glass_target(*features):
    glass = load_glass()
    return glass.select_rows(glass.is_target()).select_features(list(features)).values


def restarts(stream, k, n):
    return [stream.child(k).child(r) for r in range(n)]


def counting_repairs(monkeypatch):
    """Record the flags of every stack the repair factors: _chol_all calls
    _factor when a stacked Cholesky fails, and a False flag is a matrix
    sent up the ridge ladder."""
    calls = []
    factor = density._factor

    def counted(covs):
        chols, ok = factor(covs)
        calls.append(ok)
        return chols, ok

    monkeypatch.setattr(density, "_factor", counted)
    return calls


def hopeless_ladder(factor):
    """_factor with every ridge declared hopeless: after a stack with a
    failing matrix, the seven ridge levels that follow report every matrix
    as failing."""
    levels = []

    def wrapped(covs):
        if levels:
            levels.pop()
            return np.full_like(covs, np.nan), np.zeros(len(covs), bool)
        chols, ok = factor(covs)
        if not ok.all():
            levels.extend([None] * 7)
        return chols, ok
    return wrapped


class TestEmStep:
    def test_component_counts_and_restarts(self):
        gen = np.random.default_rng(120)
        X = np.vstack([gen.normal(size=(60, 2)),
                       gen.normal(size=(50, 2)) * 0.3 + [4.0, 1.0],
                       gen.normal(size=(40, 2)) @ [[1.0, 0.9], [0.0, 0.3]] - 3.0])
        for k in range(1, 10):
            assert_same_em(X, k, restarts(RngStream(121), k, 3))
        Y = gen.normal(size=(120, 3)) @ gen.normal(size=(3, 3))
        for k in range(1, 6):
            assert_same_em(Y, k, restarts(RngStream(122), k, 2))

    @pytest.mark.parametrize("features", [("RI", "Na"), ("Si", "Mg"),
                                          ("Al", "Ca")], ids="-".join)
    def test_glass_column_pairs(self, features):
        vals = glass_target(*features)
        for k in range(1, 10):
            assert_same_em(vals, k, restarts(RngStream(71), k, 2))

    def test_ridge_bump(self, monkeypatch):
        # A component of the RI/Na glass targets collapses at G = 6, so its
        # covariance fails Cholesky and takes the per-component ridge path
        # while the other restarts of the stack run on.
        repairs = counting_repairs(monkeypatch)
        runs = assert_same_em(glass_target("RI", "Na"), 6, restarts(RngStream(71), 6, 3))
        assert runs[0] is not None
        assert any(not ok.all() for ok in repairs)

    def test_run_beyond_repair(self, monkeypatch):
        # With every ridge declared hopeless, the restart whose covariance
        # fails Cholesky leaves the stack as None and the rest go on, as in
        # the frozen runs.
        def hopeless(regularize):
            def wrapped(cov):
                try:
                    np.linalg.cholesky(cov)
                except np.linalg.LinAlgError:
                    return None
                return regularize(cov)
            return wrapped

        monkeypatch.setattr(density, "_factor", hopeless_ladder(density._factor))
        monkeypatch.setattr(ref, "_regularize_spd", hopeless(ref._regularize_spd))
        runs = assert_same_em(glass_target("RI", "Na"), 6, restarts(RngStream(71), 6, 3))
        assert runs[0] is None and runs[1] is not None

    def test_collapsing_component(self):
        # At G = 2 one RI/Ba component collapses onto the Ba = 0 rows: the
        # log-likelihood drops on a step with a tiny Cholesky pivot, and the
        # run keeps its last clean iterate instead of raising.
        runs = assert_same_em(glass_target("RI", "Ba"), 2, restarts(RngStream(71), 2, 2))
        assert runs[0] is not None
        # On RI/Fe the second restart collapses while the first runs on,
        # healthy: the fall is judged by the falling restart's own pivots.
        runs = assert_same_em(glass_target("RI", "Fe"), 2, restarts(RngStream(71), 2, 2))
        assert runs[1] is not None

    def test_degenerate_run(self):
        # Ba is zero on most glass targets: this G = 3 restart loses a
        # component's weight on its second step and degenerates, and
        # restart 0 goes on.
        runs = assert_same_em(glass_target("RI", "Ba"), 3, restarts(RngStream(71), 3, 3))
        assert runs[1] is None and runs[0] is not None

    def test_vanishing_weight_on_the_capped_iteration(self, monkeypatch):
        # The frozen EM still runs the capped iteration's M-step, so a
        # restart that loses a component's weight on its second step
        # degenerates when the cap is that step, while its stack-mates keep
        # their capped iterates.
        streams = restarts(RngStream(61), 3, 3)
        monkeypatch.setattr(density, "_EM_MAX_ITER", 1)
        runs = assert_same_em(glass_target("RI", "Ba"), 3, streams)
        assert all(run is not None for run in runs)
        # Each step's log-likelihoods, from the stack's logsumexp.
        lls, logsumexp = [], density.logsumexp

        def recorded(a):
            row_ll = logsumexp(a)
            lls.append(row_ll.sum(axis=-1))
            return row_ll
        monkeypatch.setattr(density, "logsumexp", recorded)
        monkeypatch.setattr(density, "_EM_MAX_ITER", 2)
        runs = assert_same_em(glass_target("RI", "Ba"), 3, streams)
        assert runs[1] is None and runs[0] is not None and runs[2] is not None
        # Restart 1 was still climbing, finitely: it left on its weight.
        first, second = lls
        assert np.isfinite(second[1]) and second[1] - first[1] >= density._EM_TOL

    def test_iteration_cap(self):
        # Scenario a at seed 3, G = 2: restart 0 converges after 456 steps and
        # restart 1 runs alone in the stack until the 500-step cap stops it.
        X = generate(ScenarioSpec("a", 150, RngStream(3))).target.values
        streams = restarts(RngStream(3), 2, 2)
        runs = assert_same_em(X, 2, streams)
        assert runs[0] is not None and runs[1] is not None
        longer = ref._em_single(X, 2, streams[1].generator(),
                                max_iter=density._EM_MAX_ITER + 1)
        assert longer[1] != runs[1][1]

    def test_healthy_drop_raises(self, monkeypatch):
        # A log-likelihood forced down on a healthy third step of one restart
        # raises in the stack, as it does in that restart's frozen run.
        gen = np.random.default_rng(130)
        X = np.vstack([gen.normal(size=(60, 2)), gen.normal(size=(60, 2)) + 1.5])
        streams = restarts(RngStream(131), 2, 3)

        def lowered(lse, rows):
            calls = []

            def wrapped(a, *args, **kwargs):
                out = lse(a, *args, **kwargs)
                calls.append(out.shape)
                if len(calls) == 3:
                    out = out.copy()
                    out[rows] -= 1.0
                return out
            return wrapped, calls

        spy, calls = lowered(density.logsumexp, 1)
        monkeypatch.setattr(density, "logsumexp", spy)
        center, scale, z, global_cov, reg_base = standardized(X)
        with pytest.raises(RuntimeError, match="decreased on a healthy step"):
            density._em_restarts(z, 2, [s.generator() for s in streams],
                                 global_cov, reg_base)
        assert calls[2] == (3, 120)        # all three restarts still ran
        spy, calls = lowered(ref.logsumexp, slice(None))
        monkeypatch.setattr(ref, "logsumexp", spy)
        with pytest.raises(RuntimeError, match="decreased on a healthy step"):
            ref._em_single(X, 2, streams[1].generator())


def assert_same_fit(vals, components_range, seed, n_restarts):
    got = fit_gmm(vals, components_range, RngStream(seed), n_restarts=n_restarts)
    want = ref.fit_gmm(vals, components_range, RngStream(seed), n_restarts=n_restarts)
    assert np.array_equal(got.weights, want.weights)
    assert np.array_equal(got.means, want.means)
    assert np.array_equal(got.covariances, want.covariances)


def awkward_table(kind, n, p):
    """n x p rows of N(0, I) that strain the EM: with a constant column, a
    column that nearly repeats another (condition number about 1e16), each
    row repeated six times, rounded to an integer grid (ties), or scaled by
    2^kind."""
    gen = np.random.default_rng(200 + n + p)
    X = gen.normal(size=(n, p))
    if kind == "constant":
        X[:, -1] = 3.0
    elif kind == "collinear":
        X[:, -1] = X[:, 0] + 1e-8 * gen.normal(size=n)
    elif kind == "duplicated":
        X = np.repeat(X[:-(-n // 6)], 6, axis=0)[:n]
    elif kind == "grid":
        X = np.round(X * 1.5)
    else:
        X *= 2.0 ** kind
    return X


# Each shape at every n, p alternating; a scaling runs the EM of its
# unscaled table, so each takes one (n, p).
AWKWARD = [(kind, n, 2 + (i + j) % 2)
           for i, kind in enumerate(["constant", "collinear", "duplicated", "grid"])
           for j, n in enumerate((30, 48, 87))] \
    + [(-300, 30, 2), (-40, 48, 3), (40, 87, 2), (300, 87, 3)]


class TestFitGmmSearch:
    """fit_gmm standardizes once per call and maps one restart per G back;
    the frozen search standardizes and maps back every restart."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind, n, p", AWKWARD)
    def test_awkward_tables(self, kind, n, p):
        # Collapsing components take the ridge repair, and restarts leave
        # the stack at different steps.
        assert_same_fit(awkward_table(kind, n, p), (1, 9), n + p, 2)

    def test_glass_pairs(self, monkeypatch):
        # RI/Na at stream 71 holds the G = 6 restart whose covariance takes
        # the ridge path; RI/Ba holds collapsing and degenerate restarts.
        repairs = counting_repairs(monkeypatch)
        assert_same_fit(glass_target("RI", "Na"), (1, 9), 71, 5)
        assert any(not ok.all() for ok in repairs)
        assert_same_fit(glass_target("RI", "Ba"), (1, 9), 71, 5)
        for features in (("Si", "Mg"), ("Al", "Ca")):
            assert_same_fit(glass_target(*features), (4, 7), 71, 2)

    @pytest.mark.parametrize("scenario", list("abdei"))
    def test_scenarios(self, scenario):
        X = generate(ScenarioSpec(scenario, 150, RngStream(1))).target.values
        assert_same_fit(X, (1, 3), 1, 2)

    def test_best_restart_that_maps_back(self, monkeypatch):
        # When the best restart's covariances do not factor in data units,
        # the next-best restart of that G is mapped back instead.
        vals = glass_target("Al", "Ca")
        center, scale, z, global_cov, reg_base = standardized(vals)
        runs = density._em_restarts(z, 4, [s.generator() for s in restarts(RngStream(2), 4, 3)],
                                    global_cov, reg_base)
        first, second = sorted(range(3), key=lambda r: runs[r][1], reverse=True)[:2]
        assert runs[first][1] > runs[second][1]
        to_data = [run[0][2] * scale[None, :, None] * scale[None, None, :]
                   for run in runs]
        chol_all = density._chol_all

        def beyond_repair(covs):
            if not np.array_equal(covs, to_data[first]):
                return chol_all(covs)
            return np.full_like(covs, np.nan), covs, np.zeros(len(covs), bool)
        monkeypatch.setattr(density, "_chol_all", beyond_repair)
        f = fit_gmm(vals, (4, 4), RngStream(2), n_restarts=3)
        weights, means, _ = runs[second][0]
        assert np.array_equal(f.weights, weights)
        assert np.array_equal(f.means, means * scale + center)
        assert np.array_equal(f.covariances, to_data[second])


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
                # The library sums over axis -2, a stack of such arrays at once.
                got = density.logsumexp(a.T)
                stacked = density.logsumexp(np.stack([a.T, a.T[::-1]]))
                want = scipy_logsumexp(a, axis=1)
            assert np.array_equal(got, want)
            assert np.array_equal(stacked[0], want)
            assert np.array_equal(stacked[1], scipy_logsumexp(a[:, ::-1], axis=1))

    def test_non_finite_rows_match_scipy(self):
        a = np.array([[np.inf, 0.0], [np.nan, 0.0], [np.inf, -np.inf],
                      [-np.inf, -np.inf], [1e308, 1e308]])
        with np.errstate(all="ignore"):
            assert np.array_equal(density.logsumexp(a.T),
                                  scipy_logsumexp(a, axis=1), equal_nan=True)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_sum_last_matches_numpy(self, order):
        # numpy sums a row of contiguous entries pairwise; the library adds
        # the terms one array at a time in that order, whatever a's layout.
        gen = np.random.default_rng(141)
        for n in list(range(1, 34)) + [127, 128, 129, 136, 300]:
            a = np.asarray(gen.normal(size=(40, n))
                           * np.exp(gen.normal(size=(40, n)) * 8), order=order)
            assert np.array_equal(density._sum_last(a),
                                  np.ascontiguousarray(a).sum(axis=1))


class TestCentered:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_the_broadcast(self, order, p):
        # The M-step's operands are X - means[..., None, :], laid out
        # row-major whatever X's layout.
        gen = np.random.default_rng(142)
        X = np.asarray(gen.normal(size=(30, p)), order=order)
        means = gen.normal(size=(3, 4, p))
        got = density._centered(X, means)
        assert np.array_equal(got, X - means[..., None, :])
        assert got.flags.c_contiguous

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("p", [2, 9])
    def test_log_density_sums_as_the_broadcast(self, order, p):
        # Squared distances are summed over p in the order numpy sums the
        # broadcast of row-major X - mean (pairwise, which differs from one
        # term after another from p = 8 on), whatever X's layout.
        gen = np.random.default_rng(143)
        X = np.asarray(gen.normal(size=(50, p)), order=order)
        means = gen.normal(size=(3, p))
        A = gen.normal(size=(3, p, p))
        chols = np.linalg.cholesky(A @ A.transpose(0, 2, 1) + np.eye(p))
        white = np.ascontiguousarray(X) - means[:, None, :]
        for g, L in enumerate(chols):
            white[g] = solve_triangular(L, white[g].T, lower=True).T
        log_det = np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)
        want = -0.5 * (white * white).sum(axis=2) - log_det[:, None] \
            - 0.5 * p * float(np.log(2.0 * np.pi))
        assert np.array_equal(density._component_logpdf(X, means, chols), want)


def lapack_factors(covs):
    """Per-matrix np.linalg.cholesky of an (m, p, p) stack: the factors
    (nan where it raises) and which matrices factored."""
    chols = np.full_like(covs, np.nan)
    ok = np.zeros(len(covs), bool)
    for i, cov in enumerate(covs):
        try:
            chols[i] = np.linalg.cholesky(cov)
            ok[i] = True
        except np.linalg.LinAlgError:
            pass
    return chols, ok


def stacked_cholesky_fails(covs):
    try:
        np.linalg.cholesky(covs)
    except np.linalg.LinAlgError:
        return True
    return False


class TestFactor:
    """density._factor against per-matrix LAPACK: equal factors wherever
    LAPACK succeeds, and a failure exactly where it raises."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_lapack(self, p):
        gen = np.random.default_rng(150 + p)
        m = 2000
        size = 10.0 ** gen.uniform(-8, 8, size=(m, 1, 1))
        A = gen.normal(size=(m, p, p)) * size
        spd = A @ A.transpose(0, 2, 1)
        v = gen.normal(size=(m, p, 1)) * size
        # Rank one plus a ridge of either sign near rounding: some factor
        # on a tiny pivot, the rest fail.
        near = v @ v.transpose(0, 2, 1) \
            + (v.transpose(0, 2, 1) @ v) * gen.normal(size=(m, 1, 1)) * 1e-15 * np.eye(p)
        near[:, 0, 0] *= np.sign(gen.normal(size=m)) if p == 1 else 1.0
        asymmetric = gen.normal(size=(m, p, p)) * size
        special = spd.copy()
        for value in (np.nan, np.inf, -np.inf, 0.0, -0.0):
            special.reshape(-1)[gen.random(special.size) < 0.03] = value
        for covs in (spd, near, asymmetric, special):
            want, want_ok = lapack_factors(covs)
            got, ok = density._factor(covs)
            assert np.array_equal(ok, want_ok)
            assert np.array_equal(got[ok], want[ok], equal_nan=True)
            assert np.isnan(got[~ok]).all()
            assert ok.any() and (ok.all() if covs is spd else not ok.all())


class TestCholAll:
    def test_repair_returns_its_factors(self):
        # A failed stack is repaired matrix by matrix, each factored once:
        # the factors equal a fresh stacked factorization of the repaired
        # covariances, which match the frozen repair, and only the ridged
        # matrix is flagged as bumped.
        covs = np.array([[[2.0, 0.5], [0.5, 1.0]], [[1.0, 1.0], [1.0, 1.0]],
                         [[1.0, 0.0], [0.0, 3.0]]])
        chols, fixed, bumped = density._chol_all(covs)
        assert bumped.tolist() == [False, True, False]
        assert np.array_equal(chols, np.linalg.cholesky(fixed))
        _, want, _ = ref._chol_all(covs)
        assert np.array_equal(fixed, want)
        assert np.array_equal(fixed[[0, 2]], covs[[0, 2]])

    @pytest.mark.parametrize("features", [("Fe",), ("RI", "Na"), ("RI", "Ba", "Fe")],
                             ids="-".join)
    def test_ladder_on_glass_em_stacks(self, monkeypatch, features):
        # Every failing stack a glass mixture search sends to _chol_all
        # (collapsing components, in the EM and in the map back to data
        # units) is repaired as the frozen matrix-by-matrix repair does.
        stacks = []
        chol_all = density._chol_all

        def recorded(covs):
            stacks.append(covs.copy())
            return chol_all(covs)
        monkeypatch.setattr(density, "_chol_all", recorded)
        fit_gmm(glass_target(*features), (1, 9), RngStream(71), n_restarts=2)
        failing = [covs for covs in stacks if stacked_cholesky_fails(covs)]
        assert failing
        for covs in failing:
            got, want = chol_all(covs), ref.chol_all_matrixwise(covs)
            assert got[2].any()
            for g, w in zip(got, want):
                assert np.array_equal(g, w, equal_nan=True)

    @pytest.mark.parametrize("p", range(1, 10))
    def test_ladder_levels_and_beyond_repair(self, p):
        # Matrices that factor after one to seven ridge levels, or never,
        # beside healthy ones, at every p up to 9: each bump comes from its
        # matrix's own trace.
        gen = np.random.default_rng(155 + p)
        covs = []
        for i in range(24):
            v = gen.normal(size=(p, 1)) * 10.0 ** gen.uniform(-3, 3)
            scale = (v.T @ v).item()
            kind = i % 4
            if kind == 0:
                covs.append(v @ v.T + scale * 1e-3 * np.eye(p))       # healthy
            elif kind == 1:
                shift = 10.0 ** -gen.uniform(5, 15)
                covs.append(v @ v.T - scale * shift * np.eye(p))      # some levels
            elif kind == 2:
                covs.append(-scale * np.eye(p))                       # beyond repair
            else:
                covs.append(np.zeros((p, p)))                         # trace 0
        covs = np.array(covs).reshape(2, 12, p, p)
        got, want = density._chol_all(covs), ref.chol_all_matrixwise(covs)
        assert got[2].any() and not got[2].all()
        for g, w in zip(got, want):
            assert np.array_equal(g, w, equal_nan=True)


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


# Cells a generated table may hold besides plain doubles: extreme doubles,
# text float() reads as a finite double, and text it refuses or reads as
# a non-finite one.
EXTREME_DOUBLES = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308,
                   2.2250738585072014e-308]
ODD_NUMBERS = [" 1.5 ", "1_0", "1e-400", "１２", "+.5"]
BAD_NUMBERS = ["nan", "Infinity", "1e400", "", "0x10", "-inf", "abc"]
# The last two labels are in no label set the sweep passes.
LABELS = ["t", "u", " t ", "target", "non-target", "v", "t,u"]


def number_cell(gen, bad_rate):
    if gen.random() < bad_rate:
        return str(gen.choice(BAD_NUMBERS))
    pick = gen.random()
    if pick < 0.15:
        return repr(float(gen.choice(EXTREME_DOUBLES)))
    if pick < 0.3:
        return str(gen.choice(ODD_NUMBERS))
    return repr(float(gen.normal() * 10.0 ** gen.integers(-300, 300)))


def csv_table(gen):
    """(text, column names) of a random table: features, maybe a reference
    column 'o' and a label column 'lab' in random places, with comment,
    blank and quoted cells and, in half the tables, bad cells and rows."""
    bad_rate = 0.0 if gen.integers(2) else 0.03
    names = [f"f{j}" for j in range(int(gen.integers(1, 4)))]
    names += ["o"] * int(gen.integers(2)) + ["lab"] * int(gen.integers(2))
    names = [str(v) for v in gen.permutation(names)]
    lines = ["# provenance"] * int(gen.integers(2))
    lines.append(",".join(f" {h} " if gen.random() < 0.2 else h for h in names))
    for _ in range(int(gen.integers(1, 25))):
        cells = []
        for name in names:
            if name == "lab":
                cell = str(gen.choice(LABELS[-2:] if gen.random() < bad_rate
                                      else LABELS[:-2]))
            elif name == "o" and gen.random() < bad_rate:
                cell = str(gen.choice(["0", "-0.0", "0e5"]))
            elif name == "o":
                cell = repr(float(gen.uniform(0.5, 2.0)))
            else:
                cell = number_cell(gen, bad_rate)
            if "," in cell or gen.random() < 0.1:
                cell = f'"{cell}"'
            cells.append(cell)
        if gen.random() < bad_rate:
            cells = cells[:-1] if gen.integers(2) else cells + ["1.0"]
        lines.append(",".join(cells))
        if gen.random() < 0.05:
            lines.append(str(gen.choice(["", "# note", "#"])))
    return "\n".join(lines) + "\n" * int(gen.integers(1, 3)), names


def ingest_options(gen, names):
    """Keyword arguments for ingest_csv that fit the columns, mostly."""
    options = {}
    if "lab" in names and gen.integers(4):
        options["label_column"] = "lab"
        options["target_labels"] = [None, ["t"], ["t", "target"]][gen.integers(3)]
        options["nontarget_labels"] = [None, ["u"], ["u", "non-target"]][
            gen.integers(3)]
    elif gen.random() < 0.1:
        options["label_column"] = "missing"
    if "o" in names and gen.integers(2):
        options["normalize_by"] = "o"
    elif "lab" in names and gen.random() < 0.1:
        options["normalize_by"] = "lab"
    return options


def ingest_outcome(ingest, path, **options):
    """What reading path gives: the table bit for bit, or the error."""
    try:
        data = ingest(path, **options)
    except Exception as exc:   # noqa: BLE001 - compared by the caller
        return type(exc), str(exc)
    values = data.values
    return (values.shape, values.dtype, values.flags.c_contiguous,
            values.tobytes(), data.feature_names, data.row_labels)


def assert_same_ingest(path, **options):
    got = ingest_outcome(ingest_csv, path, **options)
    assert got == ingest_outcome(ref.ingest_csv, path, **options)
    return got


class TestCsvFiles:
    def test_ingest_sweep_matches_reference(self, tmp_path, monkeypatch):
        gen = np.random.default_rng(150)
        path = tmp_path / "t.csv"
        errors = 0
        for _ in range(400):
            text, names = csv_table(gen)
            path.write_text(text, encoding="utf-8")
            # Tables span one block or several, blank ones included.
            monkeypatch.setattr(io_utils, "_BLOCK_ROWS",
                                int(gen.choice([1, 2, 5, 1024])))
            got = assert_same_ingest(path, **ingest_options(gen, names))
            errors += len(got) == 2
        # Both valid tables and refused ones are compared.
        assert 50 < errors < 350

    @pytest.mark.parametrize("cell", [*map(repr, EXTREME_DOUBLES),
                                      *ODD_NUMBERS, *BAD_NUMBERS])
    def test_each_odd_cell_matches_reference(self, tmp_path, cell):
        path = tmp_path / "t.csv"
        path.write_text(f'a,b\n1.0,2.0\n"{cell}",3.0\n', encoding="utf-8")
        assert_same_ingest(path)

    @pytest.mark.parametrize("text, options, message", [
        ("a,b\n1,2\n3,x\n5,6\n7\n", {},
         "row 3, column 'b': non-numeric cell 'x'"),
        ("a,lab\n1,t\n2,zz\ninf,t\n",
         {"label_column": "lab", "target_labels": ["t"],
          "nontarget_labels": ["u"]},
         "row 3, column 'lab': unknown label 'zz'"),
        ("a,o\n1,2\n3,0\n4,x\n", {"normalize_by": "o"},
         "row 3, column 'o': zero reference value"),
        ("a,b\n\n1,2\n\n3,nan\n", {}, "row 5, column 'b': non-finite cell 'nan'"),
        # Within one row: the cell count, each feature cell from left to
        # right, the reference cell, then the label.
        ("a,b,lab\n1,2,t\n3,x,zz\n",
         {"label_column": "lab", "target_labels": ["t"],
          "nontarget_labels": ["u"]},
         "row 3, column 'b': non-numeric cell 'x'"),
        ("a,o\n1,2\ninf,0\n", {"normalize_by": "o"},
         "row 3, column 'a': non-finite cell 'inf'"),
        ("a,b\n1,2\nx,3,4\n", {}, "row 3: expected 2 cells, got 3"),
        ("a,b\n1,2\nx,inf\n", {}, "row 3, column 'a': non-numeric cell 'x'"),
        ("a,o\n1,2\nx,inf\n", {"normalize_by": "o"},
         "row 3, column 'a': non-numeric cell 'x'"),
        ("a,o,lab\n1,2,t\n1,x,zz\n",
         {"label_column": "lab", "target_labels": ["t"],
          "nontarget_labels": ["u"], "normalize_by": "o"},
         "row 3, column 'o': non-numeric cell 'x'"),
        ("a,o,lab\n1,2,t\n1,0,zz\n",
         {"label_column": "lab", "target_labels": ["t"],
          "nontarget_labels": ["u"], "normalize_by": "o"},
         "row 3, column 'o': zero reference value")],
        ids=["non-numeric-before-short-row", "label-before-non-finite",
             "zero-reference", "blank-lines-counted", "cell-before-label",
             "feature-before-reference", "count-before-cells",
             "non-numeric-before-non-finite", "feature-before-bad-reference",
             "reference-before-label", "zero-reference-before-label"])
    @pytest.mark.parametrize("block_rows", [2, 1024])
    def test_first_bad_row_wins(self, tmp_path, monkeypatch, text, options,
                                message, block_rows):
        monkeypatch.setattr(io_utils, "_BLOCK_ROWS", block_rows)
        path = tmp_path / "t.csv"
        path.write_text(text)
        got = assert_same_ingest(path, **options)
        assert got == (IngestError, f"{path}: {message}")

    def test_writer_sweep_matches_reference(self, tmp_path):
        gen = np.random.default_rng(151)
        extremes = [-0.0, 5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan, 0.1]
        for case in range(150):
            n = int(gen.integers(0, 30))
            floats = gen.normal(size=n) * 10.0 ** gen.integers(-300, 300)
            floats[gen.random(n) < 0.2] = gen.choice(extremes)
            columns = [
                floats, gen.integers(-5, 5, size=n), gen.random(n) < 0.5,
                np.where(gen.random(n) < 0.5, "accept", "reject"), range(n),
                ["" if gen.random() < 0.3 else float(v) for v in floats],
                [str(gen.choice(["a", "b,c", 'q"x', ""])) for _ in range(n)],
                gen.normal(size=(2, n))[0].astype(np.float32)]
            picked = sorted(gen.choice(len(columns), size=int(gen.integers(1, 6)),
                                       replace=False))
            columns = [columns[j] for j in picked]
            header = [f"c{j}" for j in picked]
            config = {"seed": case, "data": "x.csv"} if gen.integers(2) else None
            write_csv(tmp_path / "new.csv", header, columns, "predict", config)
            ref.write_csv(tmp_path / "old.csv", header,
                          [list(row) for row in zip(*columns)], "predict", config)
            assert (tmp_path / "new.csv").read_bytes() == \
                (tmp_path / "old.csv").read_bytes()


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

    def test_medians_by_selection(self):
        # Odd and even counts, ties and signed zeros: the selected median
        # equals np.median's.
        gen = np.random.default_rng(134)
        for n in (1, 2, 3, 4, 7, 8, 86, 87):
            a = gen.normal(size=(6, 3, n))
            tied = np.round(a)
            tied[gen.random(tied.shape) < 0.3] = -0.0
            for case in (a, tied, np.zeros((2, 2, n))):
                assert np.array_equal(featsel._median_last(case),
                                      np.median(case, axis=-1))

    def test_rp_select_even_rows_with_ties(self):
        # With an even row count the median is the mean of the two middle
        # order statistics; rounded rows tie.
        X = np.round(np.random.default_rng(135).normal(size=(86, 4)) * 2.0)
        got = rp_select(X, 2, 5, 50, RngStream(136))
        want = ref.rp_select_median(X, 2, 5, 50, RngStream(136))
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

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


def assert_same_medians(stack):
    """spatial_median of the (V, n, p) stack and of each table alone equal
    the frozen one-table Weiszfeld, bit for bit, or the stack raises for
    the first table the frozen iteration does not converge on, with the
    same last iterate; returns how many tables took the Vardi-Zhang step
    at their end."""
    want = []
    for table in stack:
        try:
            want.append(ref.spatial_median_single(table))
        except ConvergenceError as err:
            with pytest.raises(ConvergenceError,
                               match=f"table {len(want)}: no convergence") as got:
                numcore.spatial_median(stack)
            assert np.array_equal(got.value.last_iterate, err.last_iterate)
            return 0
    got = numcore.spatial_median(stack)
    for table, g, w in zip(stack, got, want):
        assert np.array_equal(g, w) and np.array_equal(np.signbit(g), np.signbit(w))
        assert np.array_equal(numcore.spatial_median(table), w)
    return sum(np.linalg.norm(table - w, axis=1).min() < numcore._WEISZFELD_TOL
               for table, w in zip(stack, want))


class TestSpatialMedianStack:
    def test_random_stacks(self):
        gen = np.random.default_rng(137)
        vardi_zhang = 0
        for trial in range(120):
            p, n = 1 + trial % 3, int(gen.integers(3, 200))
            stack = gen.normal(size=(int(gen.integers(1, 6)), n, p))
            if trial % 3 == 0:
                stack = np.round(stack, 1)
            if trial % 4 == 0:         # coincident rows: the Vardi-Zhang step
                stack[:, :n // 2] = stack[:, :1]
            vardi_zhang += assert_same_medians(stack * 10.0 ** gen.uniform(-2, 2))
        assert vardi_zhang

    def test_glass_rp2_views(self):
        # The 101 views of glass-repro's seed-4 pam-tocc-df/rp2 ensemble;
        # three end on a data point, by the Vardi-Zhang step.
        glass = load_glass()
        train = glass.select_rows(glass.is_target()).values
        stream = RngStream(4).child(102).child(0)
        views = np.stack([train @ proj for proj in rp_select(train, 2, 101, 50, stream)])
        assert assert_same_medians(views) == 3

    def test_first_table_that_does_not_converge(self, monkeypatch):
        # Table 0 stops at once (every row coincides), tables 1 and 2 need
        # more than three steps: table 1's error carries its last iterate.
        monkeypatch.setattr(numcore, "_WEISZFELD_MAX_ITER", 3)
        stack = np.random.default_rng(138).normal(size=(3, 40, 2))
        stack[0] = stack[0, 0]
        with pytest.raises(ConvergenceError, match="table 1: no convergence") as err:
            numcore.spatial_median(stack)
        with pytest.raises(ConvergenceError) as want:
            ref.spatial_median_single(stack[1], max_iter=3)
        assert np.array_equal(err.value.last_iterate, want.value.last_iterate)

    def test_fit_models_stacks_each_shape(self):
        # Tables of three shapes, interleaved: one call per shape, and each
        # prototype is its table's own median.
        gen = np.random.default_rng(139)
        tables = [gen.normal(size=shape) for shape in
                  ((30, 2), (40, 2), (30, 2), (25, 2), (40, 2))]
        for model, table in zip(classifier.fit_models("df", tables, 0.9), tables):
            assert np.array_equal(model.prototypes[0], ref.spatial_median_single(table))


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


def pam_outcome(pam, X, k, max_swaps=1000):
    """(medoids, labels, cost) of pam(X, k, max_swaps), or its RuntimeError's
    text."""
    try:
        result = pam(X, k, max_swaps)
    except RuntimeError as err:
        return str(err)
    return result.medoids, result.assignment.tolist(), result.total_cost


def banana(seed, n):
    """The cli-bulk training geometry: a noisy arc of radius 5 and noise 0.8
    over 0.9 pi, drawn as the benchmark draws it."""
    gen = np.random.default_rng(seed)
    angles = gen.uniform(-0.45 * np.pi, 0.45 * np.pi, size=n)
    return 5.0 * np.column_stack([np.sin(angles), np.cos(angles)]) \
        + gen.normal(0.0, 0.8, size=(n, 2))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestPam:
    """Blocked and lazy BUILD column sums, and SWAP's float32 screen with
    exact float64 sums for the columns neither it nor the bounds carried
    across swaps rule out, pick the same medoids and costs as whole n x n
    temporaries, on both sides of the block size and across the float32
    range."""

    @pytest.mark.parametrize("n", [255, 256, 257, 600])
    def test_matches_reference(self, n):
        gen = np.random.default_rng(130 + n)
        for k in range(1, 7):
            X = pam_points(gen, n)
            got, want = classifier.pam(X, k), ref.pam(X, k)
            assert got.medoids == want.medoids
            assert np.array_equal(got.assignment, want.assignment)
            assert got.total_cost == want.total_cost

    def test_matches_reference_on_banana(self):
        # The cli-bulk geometry (a noisy arc) over four column blocks.
        X = banana(138, 900)
        assert pam_outcome(classifier.pam, X, 5) == pam_outcome(ref.pam, X, 5)

    @pytest.mark.parametrize("k", [2, 5, 8])
    def test_matches_reference_on_cli_bulk_table(self, k):
        # The benchmark's seed-4 training table: dozens of swaps, each
        # scan reading only the columns its carried bounds leave open.
        X = banana(4, 2000)
        assert pam_outcome(classifier.pam, X, k) == pam_outcome(ref.pam, X, k)

    @pytest.mark.parametrize("max_swaps", [0, 1, 2, 7])
    def test_matches_reference_when_swaps_run_out(self, max_swaps):
        gen = np.random.default_rng(143)
        for X in (banana(144, 600), gen.normal(size=(600, 3))):
            assert pam_outcome(classifier.pam, X, 6, max_swaps) \
                == pam_outcome(ref.pam, X, 6, max_swaps)

    @pytest.mark.parametrize("n", [255, 256, 257])
    def test_matches_reference_on_ties(self, n):
        # Duplicated rows and integer grids tie exact reductions in BUILD
        # and exact costs in SWAP, on both sides of the one-block size.
        gen = np.random.default_rng(145 + n)
        grid = gen.integers(-3, 4, size=(n, 2)).astype(float)
        copies = gen.normal(size=(n // 4, 3))[gen.integers(0, n // 4, size=n)]
        for X in (grid, copies):
            for k in (2, 4, 7):
                assert pam_outcome(classifier.pam, X, k) \
                    == pam_outcome(ref.pam, X, k)

    def test_carried_bounds_are_sound(self, monkeypatch):
        # Every bound SWAP hands to a scan, and every bound the scan leaves
        # behind, is at most the column's exact cost under the scan's base.
        seen = []
        first_below = classifier._first_below

        def checked(cost, base, dist, cols32, free, buf32, low=None):
            assert low is not None
            exact = classifier._fold_sums(base, dist[:, free])
            assert np.all(low[free] <= exact)
            found = first_below(cost, base, dist, cols32, free, buf32, low)
            assert np.all(low[free] <= exact)
            seen.append(found is not None)
            return found

        monkeypatch.setattr(classifier, "_first_below", checked)
        X = banana(146, 700)
        assert pam_outcome(classifier.pam, X, 7) == pam_outcome(ref.pam, X, 7)
        assert sum(seen) >= 20 and len(seen) >= 50

    @pytest.mark.parametrize("e", [-1070, -600, -150, -126, 100, 126, 127,
                                   140, 200, 500])
    def test_matches_reference_across_float32_range(self, e):
        # Scaled by 2^e, the distances leave float32's range (the screen
        # then rules nothing out) or its normal range; an integer grid puts
        # exact ties against the current cost. The reference runs on the
        # rows scaled back by 2^-e, which is exact: beyond 2^+-255 its Gram
        # trick over- or underflows, and pam scales such rows first.
        gen = np.random.default_rng(139)
        grid = gen.integers(-3, 4, size=(300, 2)).astype(float)
        cloud = gen.normal(size=(300, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for X in (grid * 2.0 ** e, cloud * 2.0 ** e):
                for k in (1, 4):
                    medoids, labels, cost = pam_outcome(ref.pam, np.ldexp(X, -e), k)
                    assert pam_outcome(classifier.pam, X, k) \
                        == (medoids, labels, np.ldexp(cost, e))

    @pytest.mark.parametrize("scale, half_ulp", [(1.0, 2.0 ** -24),
                                                 (2.0 ** -140, 2.0 ** -10)],
                             ids=["normal", "subnormal"])
    def test_screen_keeps_a_gain_below_float32_resolution(self, scale, half_ulp):
        # Column 290's new cost is below cost by less than float32 can
        # resolve (half a float32 ulp relative, 2^-24 for normal numbers,
        # 2^-10 near 2^-140), and its float32 sum lies above cost; the
        # screen must still pass it on to the exact sum.
        n, j = 300, 290
        t = scale * (1.0 + half_ulp + half_ulp * 2.0 ** -16)
        cost = n * scale * (1.0 + half_ulp + half_ulp * 2.0 ** -15)
        base = np.full(n, 2.0 * scale)
        dist = np.full((n, n), 3.0 * scale)
        dist[:, j] = t
        cols32 = dist.T.astype(np.float32, order="C")
        assert float(np.minimum(cols32[j], base.astype(np.float32)).sum()) > cost
        buf32 = np.empty((classifier._PAM_BLOCK, n), dtype=np.float32)
        free = np.arange(1, n)
        assert classifier._first_below(cost, base, dist, cols32, free,
                                       buf32) == (j, n * t)

    def test_screen_skips_medoid_columns(self):
        n = 300
        dist = np.random.default_rng(142).uniform(1.0, 2.0, size=(n, n))
        cols32 = dist.T.astype(np.float32, order="C")
        buf32 = np.empty((classifier._PAM_BLOCK, n), dtype=np.float32)
        j, _ = classifier._first_below(np.inf, np.full(n, 3.0), dist, cols32,
                                       np.array([271]), buf32)
        assert j == 271

    @pytest.mark.parametrize("rival, settled", [(5, -1), (270, 263)])
    def test_lazy_build_tie_goes_to_the_lower_column(self, rival, settled):
        # The quarter block of highest bounds (columns 200-263) holds the
        # best exact reduction, 50 at column 263; the rival column outside
        # it has bound and reduction 50 too. argmax takes the lower of the
        # two, so a rival below 263 leaves the step to a full pass.
        n = 300
        dist, nearest, upper = np.ones((n, n)), np.ones(n), np.zeros(n)
        upper[200:264] = 100.0
        upper[rival] = 50.0
        dist[:10, 200:264] = 0.0
        dist[:50, [rival, 263]] = 0.0
        assert classifier._lazy_argmax(upper, nearest, dist, n) == settled

    def test_bound_at_cost_is_not_read(self, monkeypatch):
        # A bound equal to the cost already proves that a column cannot
        # lower it, so no column is screened or summed.
        n = 300
        dist = np.full((n, n), 3.0)
        cols32 = dist.T.astype(np.float32, order="C")
        buf32 = np.empty((classifier._PAM_BLOCK // 4, n), dtype=np.float32)
        base = np.full(n, 2.0)
        low = np.full(n, 2.0 * n)
        summed = []
        fold = classifier._fold_sums
        monkeypatch.setattr(classifier, "_fold_sums", lambda base, cols: (
            summed.append(cols.shape[1]) or fold(base, cols)))
        assert classifier._first_below(2.0 * n, base, dist, cols32,
                                       np.arange(1, n), buf32, low) is None
        assert summed == [] and np.all(low == 2.0 * n)

    def test_swap_reads_few_columns_on_cli_bulk_table(self, monkeypatch):
        # Counts the columns SWAP screens in float32 on the benchmark's
        # seed-4 table at k = 5. Screening every column of every block up to
        # the one holding the first improvement read 115 136 of them.
        screened = []

        class Counted(np.ndarray):
            def take(self, indices, *args, **kwargs):
                screened.append(len(indices))
                return np.asarray(self).take(indices, *args, **kwargs)

        distances = classifier._pairwise_distances
        monkeypatch.setattr(classifier, "_pairwise_distances", lambda vals: (
            lambda dist, cols32: (dist, cols32.view(Counted)))(*distances(vals)))
        classifier.pam(banana(4, 2000), 5)
        assert 0 < sum(screened) < 115_136 // 2

    def test_screen_rules_out_most_columns(self, monkeypatch):
        # Only a few columns per scan are summed exactly on a plain cloud.
        summed = []
        fold = classifier._fold_sums
        monkeypatch.setattr(classifier, "_fold_sums", lambda base, cols: (
            summed.append(cols.shape[1]) or fold(base, cols)))
        X = np.random.default_rng(140).normal(size=(600, 2))
        classifier.pam(X, 5)
        assert 0 < sum(summed) < 600

    @pytest.mark.parametrize("width", [1, 2, 3, 8, 300])
    def test_fold_sums_match_column_sums(self, width):
        gen = np.random.default_rng(141 + width)
        dist = classifier._pairwise_distances(pam_points(gen, 2000))[0]
        base = gen.permutation(dist[0])
        buf = np.empty((classifier._PAM_BLOCK, 2000))
        want = classifier._column_sums(
            lambda r, out: np.minimum(base[r, None], dist[r], out=out), buf)
        cols = np.sort(gen.choice(2000, width, replace=False))
        assert np.array_equal(classifier._fold_sums(base, dist[:, cols]),
                              want[cols])

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
    def test_column_sums_match_whole_array(self, n):
        gen = np.random.default_rng(136)
        dist = classifier._pairwise_distances(pam_points(gen, n))[0]
        base = gen.permutation(dist[0])
        buf = np.empty((min(n, classifier._PAM_BLOCK), n))
        got = classifier._column_sums(
            lambda r, out: np.minimum(base[r, None], dist[r], out=out), buf)
        assert np.array_equal(got, np.minimum(base[:, None], dist).sum(axis=0))

    def test_distances_match_reference(self):
        gen = np.random.default_rng(137)
        for n in [*gen.integers(1, 300, size=20), 513, 2000]:
            X = pam_points(gen, int(n))
            dist, cols32 = classifier._pairwise_distances(X)
            assert np.array_equal(dist, ref._pairwise_distances(X))
            assert np.array_equal(cols32, dist.T.astype(np.float32))


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
