import math
import warnings

import numpy as np
import pytest
from scipy.stats import norm

from tocc import (MixtureDensity, OrthantIntegrator, RngStream,
                  multivariate_tp, multivariate_tp_density, univariate_tp,
                  univariate_tp_density)


def brute_force_tp(X, c, m, eps=1e-12):
    """Independent sign-enumeration oracle for the counting form: plain
    loops straight from the definition, no shared code with the library."""
    X = np.asarray(X, dtype=float)
    keep = [u for u in range(X.shape[1]) if abs(c[u] - m[u]) > eps]
    if not keep:
        return 1.0
    num_strict = num_tie = den_strict = den_tie = 0
    for row in X:
        prods_num = [(row[u] - c[u]) * (m[u] - c[u]) for u in keep]
        prods_den = [(row[u] - m[u]) * (m[u] - c[u]) for u in keep]
        if all(pr < 0 for pr in prods_num):
            num_strict += 1
        if all(pr == 0 for pr in prods_num):
            num_tie += 1
        if all(pr < 0 for pr in prods_den):
            den_strict += 1
        if all(pr == 0 for pr in prods_den):
            den_tie += 1
    num = num_strict + num_tie / 2
    den = den_strict + den_tie / 2
    if den == 0:
        return 0.0
    return min(1.0, num / den)


class TestUnivariateTp:
    def test_hand_enumeration(self):
        # Only x=5 sits on the opposite side of c=4.5 from the median.
        score = univariate_tp([1, 2, 3, 4, 5], c=4.5, m=3)
        assert score.value == pytest.approx(0.4)

    def test_at_median(self):
        assert univariate_tp([1, 2, 3, 4, 5], c=3, m=3).value == 1.0

    def test_beyond_data(self):
        assert univariate_tp([1, 2, 3, 4, 5], c=10, m=3).value == 0.0

    def test_median_scores_one_for_any_data(self):
        gen = np.random.default_rng(21)
        for _ in range(50):
            xs = gen.integers(-5, 6, size=gen.integers(1, 30)).astype(float)
            m = float(np.median(xs))
            score = univariate_tp(xs, m, m)
            assert (score.value, score.numerator_count, score.denominator_count) \
                == (1.0, xs.size / 2, xs.size / 2)

    @pytest.mark.parametrize("xs, c, m, message", [
        ([1, 2, 3, 4, 5], np.nan, 3, "c=nan is not finite"),
        ([1, 2, 3, 4, 5], 1, np.inf, "m=inf is not finite"),
        ([1, 2, np.nan, 4, 5], 1, 3, "group row 2 is not finite")])
    def test_non_finite_input_rejected(self, xs, c, m, message):
        with pytest.raises(ValueError, match=message):
            univariate_tp(xs, c, m)

    def test_nonincreasing_outward(self):
        gen = np.random.default_rng(22)
        for _ in range(20):
            xs = np.sort(gen.normal(size=25))
            m = float(np.median(xs))
            for cs in (np.linspace(m, xs.max() + 1, 15),
                       np.linspace(m, xs.min() - 1, 15)):
                vals = [univariate_tp(xs, c, m).value for c in cs]
                assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


class TestUnivariateTpDensity:
    def test_at_median(self):
        assert univariate_tp_density(norm.cdf, 0.0, 0.0).value == 1.0

    def test_upper_decile(self):
        score = univariate_tp_density(norm.cdf, 1.2816, 0.0)
        assert score.value == pytest.approx(0.20, abs=1e-3)

    def test_symmetry(self):
        score = univariate_tp_density(norm.cdf, -1.2816, 0.0)
        assert score.value == pytest.approx(0.20, abs=1e-3)

    def test_non_finite_query_rejected(self):
        with pytest.raises(ValueError, match="c=nan is not finite"):
            univariate_tp_density(norm.cdf, np.nan, 0.0)
        with pytest.raises(ValueError, match="m=-inf is not finite"):
            univariate_tp_density(norm.cdf, 0.0, -np.inf)

    def test_broken_cdf_rejected(self):
        with pytest.raises(ValueError):
            univariate_tp_density(lambda c: 1.5, 0.0, 0.0)


class TestMultivariateTp:
    corners = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])

    def test_quadrant_counts(self):
        score = multivariate_tp(self.corners, [0.5, 0.5], [0.0, 0.0])
        assert (score.value, score.numerator_count, score.denominator_count) \
            == (1.0, 1.0, 1.0)

    def test_outside_corner(self):
        score = multivariate_tp(self.corners, [1.5, 1.5], [0.0, 0.0])
        assert score.value == 0.0
        assert score.numerator_count == 0.0

    def test_query_at_prototype(self):
        score = multivariate_tp(self.corners, [0.0, 0.0], [0.0, 0.0])
        assert score.value == 1.0
        assert score.dropped_coords == [0, 1]

    def test_degenerate_denominator_flagged(self):
        # No row lies beyond m in c's direction from m: a zero denominator.
        X = [[0, 0], [1, 1], [2, 2], [3, 3], [4, 4]]
        score = multivariate_tp(X, [-1, -1], [-0.5, -0.5])
        assert (score.value, score.denominator_count) == (0.0, 0.0)
        assert score.degenerate

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            multivariate_tp(self.corners, [0.5], [0.0, 0.0])

    def test_non_finite_query_or_prototype_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            multivariate_tp(self.corners, [np.nan, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            multivariate_tp(self.corners, [0.5, 0.5], [0.0, np.inf])

    def test_non_finite_group_row_rejected(self):
        X = np.vstack([self.corners, [np.nan, 0.0]])
        with pytest.raises(ValueError, match="group row 4 is not finite"):
            multivariate_tp(X, [0.5, 0.5], [0.0, 0.0])

    @pytest.mark.parametrize("X, c, m", [(np.empty((0, 2)), [0, 0], [1, 1]),
                                         (np.empty(0), [0], [1])],
                             ids=["2-D", "1-D"])
    def test_empty_group_rejected(self, X, c, m):
        with pytest.raises(ValueError, match="multivariate_tp: empty group"):
            multivariate_tp(X, c, m)

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError, match="eps=-1.0 must be a number >= 0"):
            multivariate_tp(self.corners, [0.5, 0.5], [0.0, 0.0], eps=-1.0)

    def test_one_ulp_grid_near_the_bottom_of_the_range(self):
        # Products of one-ulp differences near 2^-486 round to 0; the
        # comparisons still see the 4 x 4 grid's strict and tied rows.
        s = 2.0 ** -486
        u = np.spacing(s)
        grid = [s, s + u, s + 2 * u, s + 3 * u]
        X = [[a, b] for a in grid for b in grid]
        score = multivariate_tp(X, [s + u, s + u], [s, s], eps=0.0)
        assert (score.numerator_count, score.denominator_count) == (4.5, 9.5)

    def test_ties_near_the_top_of_the_range(self):
        # m - c overflows to an infinity, silently; the tie with c still
        # counts.
        s = 2.0 ** 1023
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            score = multivariate_tp([[-s, -s], [s, s]], [-s, -s], [s, s],
                                    eps=0.0)
        assert (score.numerator_count, score.denominator_count) == (0.5, 1.5)
        assert score.value == pytest.approx(1 / 3)

    def test_matches_univariate_in_1d(self):
        # Exact agreement needs a tie-free sample: with ties at the median the
        # shifted-data denominator legitimately differs from n/2.
        gen = np.random.default_rng(31)
        for _ in range(40):
            xs = gen.normal(size=int(gen.integers(3, 25)))
            m = float(np.median(xs))
            c = float(gen.normal() * 2)
            uni = univariate_tp(xs, c, m).value
            multi = multivariate_tp(xs.reshape(-1, 1), [c], [m]).value
            assert multi == pytest.approx(uni, abs=1e-12)

    def test_translation_equivariance(self):
        gen = np.random.default_rng(32)
        for _ in range(20):
            X = gen.normal(size=(15, 3))
            c = gen.normal(size=3)
            m = np.median(X, axis=0)
            shift = gen.normal(size=3) * 10
            a = multivariate_tp(X, c, m).value
            b = multivariate_tp(X + shift, c + shift, m + shift).value
            assert a == pytest.approx(b, abs=1e-12)

    def test_brute_force_oracle(self):
        gen = np.random.default_rng(33)
        for _ in range(60):
            n = int(gen.integers(1, 21))
            p = int(gen.integers(1, 4))
            X = gen.integers(-3, 4, size=(n, p)).astype(float)
            c = gen.integers(-4, 5, size=p).astype(float)
            m = np.median(X, axis=0)
            assert multivariate_tp(X, c, m).value == brute_force_tp(X, c, m)

    def test_value_in_unit_interval(self):
        gen = np.random.default_rng(34)
        for _ in range(50):
            X = gen.normal(size=(gen.integers(2, 20), 2))
            score = multivariate_tp(X, gen.normal(size=2), np.median(X, axis=0))
            assert 0.0 <= score.value <= 1.0
            assert score.numerator_count <= max(score.denominator_count, 1e-300)


class TestMultivariateTpDensity:
    @staticmethod
    def standard_bivariate():
        return MixtureDensity([1.0], [[0.0, 0.0]], [np.eye(2)])

    def test_at_prototype(self):
        f = self.standard_bivariate()
        integ = OrthantIntegrator("monte_carlo", 10_000, RngStream(1))
        score = multivariate_tp_density(f, [0.0, 0.0], [0.0, 0.0], integ)
        assert score.value == 1.0

    def test_product_of_tail_ratios(self):
        f = self.standard_bivariate()
        integ = OrthantIntegrator("monte_carlo", 200_000, RngStream(2))
        score = multivariate_tp_density(f, [1.2816, 1.2816], [0.0, 0.0], integ)
        # (0.1 / 0.5)^2 under independence
        assert score.value == pytest.approx(0.04, abs=0.01)

    def test_dropped_coordinate_reduces_to_univariate(self):
        f = self.standard_bivariate()
        integ = OrthantIntegrator("monte_carlo", 10_000, RngStream(3))
        score = multivariate_tp_density(f, [1.2816, 0.0], [0.0, 0.0], integ)
        assert score.dropped_coords == [1]
        # effective 1-D, evaluated closed form: 0.1 / 0.5
        assert score.value == pytest.approx(0.2, abs=1e-3)

    def test_degenerate_denominator_flagged(self):
        # No training mass beyond m = 40 sigma, so the ratio is 0/0-like.
        f = MixtureDensity([1.0], [[0.0]], [[[1.0]]])
        integ = OrthantIntegrator("monte_carlo", 10_000, RngStream(4))
        score = multivariate_tp_density(f, [41.0], [40.0], integ)
        assert score.value == 0.0
        assert score.degenerate

    def test_non_finite_query_rejected(self):
        f = self.standard_bivariate()
        integ = OrthantIntegrator("monte_carlo", 10_000, RngStream(6))
        with pytest.raises(ValueError, match="finite"):
            multivariate_tp_density(f, [np.nan, 0.0], [0.0, 0.0], integ)

    def test_common_random_numbers_repeatable(self):
        f = self.standard_bivariate()
        integ = OrthantIntegrator("monte_carlo", 10_000, RngStream(5))
        a = multivariate_tp_density(f, [0.7, -0.3], [0.0, 0.0], integ).value
        b = multivariate_tp_density(f, [0.7, -0.3], [0.0, 0.0], integ).value
        assert a == b


class TestIndependentProduct:
    """Under coordinate independence the multivariate tp is the product of
    the univariate marginal scores."""

    def test_sampling_consistency(self):
        gen = np.random.default_rng(41)
        X = gen.normal(size=(20_000, 2))
        m = np.array([0.0, 0.0])
        c = np.array([0.8, -0.5])
        joint = multivariate_tp(X, c, m).value
        parts = [univariate_tp(X[:, u], c[u], m[u]).value for u in range(2)]
        assert math.prod(parts) == pytest.approx(joint, abs=0.05)
