"""End-to-end acceptance gate.

Each test implements one release criterion at its stated tolerance and
prints a PASS/FAIL line (run with -s to watch them go by). Criteria:

  1  counting-form scores match a brute-force sign-enumeration oracle
  2  exact trivial anchors of the typicality score
  3  counting vs density scoring agree on a known bivariate normal
  4  every method's training acceptance respects the sensitivity floor
  5  glass study reproduction (AUC, specificity, selected features)
  6  synthetic-scenario behavior (shift separation, box scenarios, banana)
  7  timing ordering on glass-scale data
  8  CLI determinism: same seed, byte-identical outputs
  9  numerical invariants over randomized trials
"""

import time

import numpy as np
import pytest

from tocc import (OrthantIntegrator, MixtureDensity, RngStream, ScenarioSpec,
                  fit_baseline, fit_pam_tocc_df, fit_tocc_db, fit_tocc_df,
                  load_glass, make_method, multivariate_tp,
                  multivariate_tp_density, orthant_probability, pam, predict,
                  predict_baseline, roc_curve, run_benchmark, run_glass_repro,
                  spatial_median, univariate_tp)
from tocc.cli import main as cli_main
from tocc.density import fit_gmm


class _Criterion:
    """Prints one PASS/FAIL line per criterion around the wrapped block."""

    def __init__(self, number, name):
        self.number = number
        self.name = name

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"\nACCEPTANCE {self.number} ({self.name}): {verdict} "
              f"[{elapsed:.1f}s]")
        return False


def brute_force_tp(X, c, m, eps=1e-12):
    """Sign-enumeration oracle, plain loops, independent of the library."""
    X = np.asarray(X, dtype=float)
    keep = [u for u in range(X.shape[1]) if abs(c[u] - m[u]) > eps]
    if not keep:
        return 1.0
    num = den = 0.0
    for row in X:
        np_all = all((row[u] - c[u]) * (m[u] - c[u]) < 0 for u in keep)
        nt_all = all((row[u] - c[u]) * (m[u] - c[u]) == 0 for u in keep)
        dp_all = all((row[u] - m[u]) * (m[u] - c[u]) < 0 for u in keep)
        dt_all = all((row[u] - m[u]) * (m[u] - c[u]) == 0 for u in keep)
        num += 1.0 * np_all + 0.5 * nt_all
        den += 1.0 * dp_all + 0.5 * dt_all
    if den == 0:
        return 0.0
    return min(1.0, num / den)


def test_criterion_1_oracle_equivalence():
    with _Criterion(1, "oracle equivalence"):
        gen = np.random.default_rng(101)
        start = time.perf_counter()
        for _ in range(200):
            n = int(gen.integers(1, 21))
            p = int(gen.integers(1, 4))
            X = gen.integers(-3, 4, size=(n, p)).astype(float)
            c = gen.integers(-4, 5, size=p).astype(float)
            m = np.median(X, axis=0)
            assert multivariate_tp(X, c, m).value == brute_force_tp(X, c, m)
        assert time.perf_counter() - start < 5.0


def test_criterion_2_trivial_anchors():
    with _Criterion(2, "trivial anchors"):
        gen = np.random.default_rng(102)
        for _ in range(100):
            n = int(gen.integers(5, 40))
            p = int(gen.integers(1, 4))
            X = gen.normal(size=(n, p))
            proto = spatial_median(X)
            assert multivariate_tp(X, proto, proto).value == 1.0
            beyond = X.max(axis=0) + 10 * (X.max(axis=0) - X.min(axis=0)) + 1.0
            assert multivariate_tp(X, beyond, proto).value == 0.0
            col = X[:, 0]
            med = float(np.median(col))
            assert univariate_tp(col, med, med).value == 1.0


def test_criterion_3_density_free_vs_density_based():
    with _Criterion(3, "counting vs density agreement"):
        start = time.perf_counter()
        gen = np.random.default_rng(103)
        X = gen.normal(size=(10_000, 2))
        m = spatial_median(X)
        f = MixtureDensity([1.0], [[0.0, 0.0]], [np.eye(2)])
        integ = OrthantIntegrator("monte_carlo", 100_000, RngStream(104))
        worst = 0.0
        grid = np.linspace(-2.0, 2.0, 5)
        for cx in grid:
            for cy in grid:
                c = np.array([cx, cy])
                a = multivariate_tp(X, c, m).value
                b = multivariate_tp_density(f, c, m, integ).value
                worst = max(worst, abs(a - b))
        assert worst <= 0.05, f"max |tp - tp_f| = {worst}"
        assert time.perf_counter() - start < 30.0


def test_criterion_4_calibration_floor():
    with _Criterion(4, "calibration"):
        gen = np.random.default_rng(105)
        methods = ("tocc-df", "tocc-db", "pam-tocc-df",
                   "gauss", "mix-gauss", "kde", "kmeans")
        for trial in range(20):
            X = gen.normal(size=(int(gen.integers(40, 90)), 2)) \
                + gen.normal(size=2) * 3
            s = (0.8, 0.9, 0.95)[trial % 3]
            for name in methods:
                rng = RngStream(1000 + trial).child(methods.index(name))
                if name == "tocc-df":
                    model, pred = fit_tocc_df(X, s), predict
                elif name == "tocc-db":
                    model = fit_tocc_db(X, s, rng, components_range=(1, 2),
                                        n_restarts=2, mc_samples=10_000)
                    pred = predict
                elif name == "pam-tocc-df":
                    model, pred = fit_pam_tocc_df(X, 2, s), predict
                else:
                    model = fit_baseline(name.replace("-", "_"), X, s, rng,
                                         components_range=(1, 2))
                    pred = predict_baseline
                acceptance = pred(model, X).accept.mean()
                assert acceptance >= s, f"{name} s={s}: acceptance {acceptance}"


def test_criterion_5_glass_reproduction():
    with _Criterion(5, "glass study reproduction"):
        result = run_glass_repro(frontends=("kvip2",), seed=7)
        assert result.vip_selected == ["Si", "Mg"], \
            f"kappa-VIP selected {result.vip_selected}"
        auc_df = result.cell("tocc-df", "kvip2").auc
        spec_pam = result.cell("pam-tocc-df", "kvip2").specificity
        # Strict published-value tolerances; the degraded floor (auc >= 0.90,
        # specificity >= 0.85) documented for irrecoverable-subset cases is
        # not needed on the recovered study subset.
        assert abs(auc_df - 0.986) <= 0.04, f"tocc-df kvip2 auc {auc_df}"
        assert abs(spec_pam - 0.980) <= 0.06, f"pam kvip2 specificity {spec_pam}"


def test_criterion_6_simulation_properties():
    with _Criterion(6, "simulation properties"):
        start = time.perf_counter()

        def median_spec(result, name):
            vals = [r.specificity for r in result.for_method(name)
                    if r.error is None and r.specificity is not None]
            return float(np.median(vals))

        # (a) shift separation: lambda = 2 beats lambda = 1 for tocc-df
        spec_by_lam = {}
        for lam in (1.0, 2.0):
            spec = ScenarioSpec("a", 500, RngStream(61), lam=lam)
            result = run_benchmark(["tocc-df"], spec, 20, 0.9)
            spec_by_lam[lam] = median_spec(result, "tocc-df")
        assert spec_by_lam[2.0] > spec_by_lam[1.0], spec_by_lam

        # (e)-(h) box scenarios: pooled TOCC specificity stays high.
        # The density variant runs a slimmed mixture search so the whole
        # criterion fits its five-minute budget.
        methods = [make_method("tocc-df", 0.9),
                   make_method("tocc-db", 0.9, mc_samples=20_000,
                               components_range=(1, 3), n_restarts=2),
                   make_method("pam-tocc-df", 0.9)]
        pooled = []
        for scenario in "efgh":
            spec = ScenarioSpec(scenario, 500, RngStream(62))
            result = run_benchmark(methods, spec, 10, 0.9)
            pooled.extend(r.specificity for r in result.reports
                          if r.error is None and r.specificity is not None)
        assert float(np.median(pooled)) >= 0.70, np.median(pooled)

        # (i) banana: the clustered variant is at least as specific
        spec = ScenarioSpec("i", 500, RngStream(63))
        result = run_benchmark(["pam-tocc-df", "tocc-df"], spec, 20, 0.9)
        assert median_spec(result, "pam-tocc-df") >= median_spec(result, "tocc-df")

        assert time.perf_counter() - start < 300.0


def test_criterion_7_timing_order():
    with _Criterion(7, "timing ordering"):
        glass = load_glass()
        target = glass.select_rows(glass.is_target()).select_features(["Si", "Mg"])
        queries = glass.select_features(["Si", "Mg"])

        start = time.perf_counter()
        pam_model = fit_pam_tocc_df(target, 4, 0.9)
        predict(pam_model, queries)
        pam_time = time.perf_counter() - start

        start = time.perf_counter()
        db_model = fit_tocc_db(target, 0.9, RngStream(71))
        predict(db_model, queries)
        db_time = time.perf_counter() - start

        assert pam_time < db_time, (pam_time, db_time)
        assert pam_time < 5.0 and db_time < 5.0, (pam_time, db_time)


def test_criterion_8_cli_determinism(tmp_path):
    with _Criterion(8, "CLI determinism"):
        # Fixed input files; every command is then invoked twice with
        # identical arguments except the output location.
        sim = tmp_path / "sim.csv"
        cli_main(["simulate", "--scenario", "e", "--n-target", "80",
                  "--seed", "7", "--out", str(sim)])
        model = tmp_path / "model.json"
        cli_main(["fit", "--data", str(sim), "--label-column", "label",
                  "--method", "tocc-db", "--mc-samples", "10000",
                  "--components", "1:2", "--s", "0.9", "--seed", "7",
                  "--out", str(model)])

        def invocations(tag):
            sim2 = tmp_path / f"sim_{tag}.csv"
            model2 = tmp_path / f"model_{tag}.json"
            pred = tmp_path / f"pred_{tag}.csv"
            bench = tmp_path / f"bench_{tag}.csv"
            summary = tmp_path / f"bench_{tag}.json"
            vip = tmp_path / f"vip_{tag}.csv"
            cli_main(["simulate", "--scenario", "e", "--n-target", "80",
                      "--seed", "7", "--out", str(sim2)])
            cli_main(["fit", "--data", str(sim), "--label-column", "label",
                      "--method", "tocc-db", "--mc-samples", "10000",
                      "--components", "1:2", "--s", "0.9", "--seed", "7",
                      "--out", str(model2)])
            cli_main(["predict", "--model", str(model), "--data", str(sim),
                      "--label-column", "label", "--out", str(pred)])
            cli_main(["bench", "--scenario", "a", "--lambda", "2",
                      "--n-target", "60", "--reps", "2", "--s", "0.9",
                      "--methods", "tocc-df,kmeans", "--seed", "11",
                      "--out", str(bench), "--summary", str(summary)])
            cli_main(["vip", "--glass", "--b1", "21", "--b2", "10",
                      "--seed", "7", "--out", str(vip)])
            return {"sim": sim2.read_bytes(), "model": model2.read_bytes(),
                    "pred": pred.read_bytes(), "bench": bench.read_bytes(),
                    "summary": summary.read_bytes(), "vip": vip.read_bytes()}

        first, second = invocations("a"), invocations("b")
        for key in first:
            assert first[key] == second[key], f"{key} outputs differ"


def test_criterion_9_numerical_invariants():
    with _Criterion(9, "numerical invariant suite"):
        gen = np.random.default_rng(109)

        # ROC monotonicity and AUC rank-transform invariance
        for _ in range(50):
            n = int(gen.integers(6, 60))
            scores = gen.normal(size=n)
            truth = gen.uniform(size=n) < 0.5
            if truth.all() or not truth.any():
                continue
            curve = roc_curve(scores, truth)
            assert np.all(np.diff(curve.fpr) >= 0)
            assert np.all(np.diff(curve.tpr) >= 0)
            again = roc_curve(np.tanh(scores) * 5 + 1, truth)
            assert curve.auc == pytest.approx(again.auc, abs=1e-12)

        # PAM cost never beats BUILD-only cost upward (SWAP is asserted
        # non-increasing internally; verify the end-to-end ordering here)
        for _ in range(50):
            X = gen.normal(size=(int(gen.integers(10, 50)), 2))
            k = int(gen.integers(1, 5))
            assert pam(X, k).total_cost <= pam(X, k, max_swaps=0).total_cost + 1e-9

        # EM log-likelihood monotonicity is asserted inside every fit; run a
        # spread of fits to exercise the assertion
        for trial in range(50):
            X = gen.normal(size=(60, 2)) * (1.0 + trial % 3)
            fit_gmm(X, (1, 2), RngStream(2000 + trial), n_restarts=1)

        # Orthant-probability complementarity on random split points
        f = MixtureDensity([0.6, 0.4], [[0.0, 0.0], [2.0, 1.0]],
                           [np.eye(2), np.eye(2) * 0.5])
        integ = OrthantIntegrator("monte_carlo", 20_000, RngStream(110))
        for _ in range(50):
            t = float(gen.normal())
            below = orthant_probability(f, [-np.inf, -np.inf], [t, np.inf], integ)
            above = orthant_probability(f, [t, -np.inf], [np.inf, np.inf], integ)
            assert below + above == pytest.approx(1.0, abs=1e-12)
