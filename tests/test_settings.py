"""The settings record: its defaults, which the CLI reads, the keyword names
the fitting entry points accept, and a bad setting refused whatever method
it is given to."""

import dataclasses
import inspect

import numpy as np
import pytest

from tocc import (RngStream, Settings, fit_baseline, fit_rp_ensemble,
                  fit_tocc_db, make_method, run_glass_repro)
from tocc.cli import _components_range, build_parser, main
from tocc.evaluation import fit_method
from tocc.numcore import GLASS_SETTINGS, is_integer

FIELDS = [f.name for f in dataclasses.fields(Settings)]
# Each setting's CLI option, by its argparse dest.
OPTIONS = {"k": "k", "kmeans_k": "kmeans_k", "mc_samples": "mc_samples",
           "components_range": "components"}


def parsed(*argv):
    return vars(build_parser().parse_args(list(argv)))


class TestRecords:
    def test_glass_record_differs_only_in_k(self):
        assert dataclasses.replace(GLASS_SETTINGS, k=Settings().k) == Settings()
        assert GLASS_SETTINGS.k == 4

    @pytest.mark.parametrize("argv, record, names", [
        (("fit", "--method", "tocc-df", "--out", "m.json"), GLASS_SETTINGS,
         ("k", "kmeans_k", "mc_samples", "components_range")),
        (("bench", "--scenario", "a", "--out", "b.csv"), Settings(),
         ("k", "mc_samples")),
        (("glass-repro", "--outdir", "g"), GLASS_SETTINGS,
         ("k", "mc_samples"))], ids=["fit", "bench", "glass-repro"])
    def test_cli_defaults_are_the_record(self, argv, record, names):
        args = parsed(*argv)
        assert {f for f in FIELDS if OPTIONS.get(f) in args} == set(names)
        for name in names:
            value = args[OPTIONS[name]]
            if name == "components_range":
                assert value == "1:9"
                value = _components_range(value)
            assert value == getattr(record, name)

    def test_bad_fields_use_the_callees_messages(self):
        for kwargs, message in (
                ({"k": 0}, "pam: k must be an integer >= 1, not 0"),
                ({"k": True}, "pam: k must be an integer >= 1, not True"),
                ({"kmeans_k": 2.0}, "kmeans_k=2.0 must be an integer >= 1"),
                ({"mc_samples": 9_999}, "monte_carlo integrator requires an "
                 "integer mc_samples >= 10000, not 9999"),
                ({"n_restarts": 0},
                 "fit_gmm: n_restarts=0 must be an integer >= 1"),
                ({"components_range": (2, 1)}, "fit_gmm: components_range="
                 "(2, 1) must be two integers 1 <= lo <= hi"),
                ({"components_range": (1, 2, 3)}, "fit_gmm: components_range="
                 "(1, 2, 3) must be two integers 1 <= lo <= hi"),
                ({"components_range": 3}, "fit_gmm: components_range=3 "
                 "must be two integers 1 <= lo <= hi")):
            with pytest.raises(ValueError) as info:
                Settings(**kwargs)
            assert str(info.value) == message

    def test_numpy_integers_accepted(self):
        settings = Settings(k=np.int64(3), components_range=np.array([2, 4]))
        assert settings.k == 3

    def test_is_integer(self):
        assert is_integer(0) and is_integer(-5) and is_integer(np.int32(7), 7)
        for value in (True, 1.0, "1", None, np.float64(3.0)):
            assert not is_integer(value)
        assert not is_integer(6, 7)


class TestKeywordNames:
    X = np.random.default_rng(3).normal(size=(30, 3))

    @pytest.mark.parametrize("func", [fit_method, make_method, fit_rp_ensemble])
    def test_settings_are_the_records_fields(self, func):
        params = inspect.signature(func).parameters
        assert [p.kind for p in params.values()].count(
            inspect.Parameter.VAR_KEYWORD) == 1
        assert not set(params) & set(FIELDS)

    @pytest.mark.parametrize("func, record, names", [
        (run_glass_repro, GLASS_SETTINGS, {"k", "mc_samples"}),
        (fit_tocc_db, Settings(),
         {"components_range", "mc_samples", "n_restarts"}),
        (fit_baseline, Settings(),
         {"kmeans_k", "components_range", "n_restarts"})])
    def test_fitters_take_the_settings_they_read(self, func, record, names):
        params = inspect.signature(func).parameters
        assert inspect.Parameter.VAR_KEYWORD not in [
            p.kind for p in params.values()]
        assert set(params) & set(FIELDS) == names
        for name in names:
            assert params[name].default == getattr(record, name)

    def test_every_field_accepted_by_name(self):
        settings = vars(Settings())
        fit_method("tocc-df", self.X, 0.9, RngStream(1), **settings)
        make_method("tocc-db", 0.9, **settings)
        fit_rp_ensemble(self.X, 2, 1, 2, 0.9, RngStream(2), **settings)

    def test_other_names_refused(self):
        # make_method's and fit_rp_ensemble's are in test_evaluation and
        # test_featsel.
        with pytest.raises(TypeError, match="pam_k"):
            fit_method("pam-tocc-df", self.X, 0.9, RngStream(1), pam_k=4)
        with pytest.raises(TypeError, match="pam_k"):
            run_glass_repro(frontends=(), variants=(), pam_k=4)
        # The k-means baseline's count is kmeans_k; k is PAM's and a
        # baseline refuses it rather than fitting five centroids.
        with pytest.raises(TypeError, match="'k'"):
            fit_baseline("kmeans", self.X, 0.9, RngStream(1), k=30)
        with pytest.raises(TypeError, match="'k'"):
            fit_tocc_db(self.X, 0.9, RngStream(1), k=3)


class TestBadSettingRefused:
    """A bad setting is refused even by a method that does not read it."""

    @pytest.mark.parametrize("name, value, method, argv, message", [
        ("k", -3, "tocc-df", ["--k", "-3"],
         "pam: k must be an integer >= 1, not -3"),
        ("kmeans_k", 0, "pam-tocc-df", ["--kmeans-k", "0"],
         "kmeans_k=0 must be an integer >= 1"),
        ("mc_samples", 5, "kde", ["--mc-samples", "5"],
         "monte_carlo integrator requires an integer mc_samples >= 10000, "
         "not 5"),
        ("components_range", (9, 1), "gauss", ["--components", "9:1"],
         "fit_gmm: components_range=(9, 1) must be two integers "
         "1 <= lo <= hi"),
        ("n_restarts", 0, "kmeans", None,
         "fit_gmm: n_restarts=0 must be an integer >= 1")],
        ids=["k", "kmeans_k", "mc_samples", "components_range", "n_restarts"])
    def test_library_and_cli(self, tmp_path, capsys, name, value, method,
                             argv, message):
        X = np.random.default_rng(5).normal(size=(40, 2))
        with pytest.raises(ValueError) as info:
            fit_method(method, X, 0.9, RngStream(6), **{name: value})
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            make_method(method, 0.9, **{name: value})
        assert str(info.value) == message
        if argv is None:   # n_restarts has no option
            return
        data = tmp_path / "d.csv"
        np.savetxt(data, X, delimiter=",", header="a,b", comments="")
        out = tmp_path / "m.json"
        code = main(["fit", "--data", str(data), "--method", method, *argv,
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"tocc: error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("text", ["1:2:3", "a:9", "", ":3"])
    def test_malformed_components_named(self, capsys, tmp_path, text):
        code = main(["fit", "--glass", "--method", "tocc-df", "--components",
                     text, "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"tocc: error: --components {text!r} must be lo:hi, two integers"
            " (or one)\n")

    def test_bench_and_glass_repro_refuse_before_fitting(self, capsys,
                                                        tmp_path):
        assert main(["bench", "--scenario", "a", "--methods", "tocc-df",
                     "--k", "0", "--out", str(tmp_path / "b.csv")]) == 2
        assert capsys.readouterr().err == (
            "tocc: error: pam: k must be an integer >= 1, not 0\n")
        assert not (tmp_path / "b.csv").exists()
        assert main(["glass-repro", "--skip-rp", "--mc-samples", "9",
                     "--outdir", str(tmp_path / "g")]) == 2
        assert capsys.readouterr().err.startswith(
            "tocc: error: monte_carlo integrator requires")
        assert not (tmp_path / "g").exists()

    def test_fit_refuses_before_reading_data(self, capsys, tmp_path):
        # The missing file is never opened: the bad --k is what is named.
        assert main(["fit", "--data", str(tmp_path / "missing.csv"),
                     "--method", "tocc-df", "--k", "0",
                     "--out", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr().err == (
            "tocc: error: pam: k must be an integer >= 1, not 0\n")


# Each subcommand with each option whose rule needs no data, and the one
# line it is refused with. fit and vip name a CSV that does not exist, so a
# check that came after reading it would name the file instead.
REFUSALS = [
    (["fit", "--method", "tocc-df", "--s", "2"],
     "sensitivity s=2.0 must lie strictly inside (0, 1)"),
    (["fit", "--method", "gauss", "--s", "0"],
     "sensitivity s=0.0 must lie strictly inside (0, 1)"),
    (["fit", "--method", "pam-tocc-df", "--k", "0"],
     "pam: k must be an integer >= 1, not 0"),
    (["fit", "--method", "kmeans", "--kmeans-k", "0"],
     "kmeans_k=0 must be an integer >= 1"),
    (["fit", "--method", "tocc-db", "--mc-samples", "5"],
     "monte_carlo integrator requires an integer mc_samples >= 10000, not 5"),
    (["fit", "--method", "mix-gauss", "--components", "9:1"],
     "fit_gmm: components_range=(9, 1) must be two integers 1 <= lo <= hi"),
    (["vip", "--b1", "4"], "b1 must be odd so majority votes cannot tie"),
    (["vip", "--b1", "0"], "b1 must be at least 1"),
    (["vip", "--b2", "0"], "b2 must be at least 1"),
    (["vip", "--kappa", "0"], "kappa must lie in (0, 1]"),
    (["vip", "--kappa", "1.5"], "kappa must lie in (0, 1]"),
    (["vip", "--n-keep", "0"], "n_keep must be at least 1"),
    (["bench", "--scenario", "a", "--s", "1"],
     "sensitivity s=1.0 must lie strictly inside (0, 1)"),
    (["bench", "--scenario", "a", "--reps", "0"],
     "replications must be at least 1"),
    (["bench", "--scenario", "a", "--k", "0"],
     "pam: k must be an integer >= 1, not 0"),
    (["bench", "--scenario", "a", "--mc-samples", "5"],
     "monte_carlo integrator requires an integer mc_samples >= 10000, not 5"),
    (["bench", "--scenario", "a", "--n-target", "0"],
     "n_target must be positive"),
    (["glass-repro", "--skip-rp", "--s", "2"],
     "sensitivity s=2.0 must lie strictly inside (0, 1)"),
    (["glass-repro", "--kappa", "7"], "kappa must lie in (0, 1]"),
    (["glass-repro", "--b1", "4"], "b1 must be odd so majority votes cannot tie"),
    (["glass-repro", "--b2", "0"], "b2 must be at least 1"),
    (["glass-repro", "--k", "0"], "pam: k must be an integer >= 1, not 0"),
    (["glass-repro", "--mc-samples", "9"],
     "monte_carlo integrator requires an integer mc_samples >= 10000, not 9"),
    (["glass-repro", "--skip-rp", "--seed", "-1"],
     "RngStream seed=-1 must be a non-negative integer"),
    (["glass-repro", "--skip-rp", "--d", "0"],
     "rp_select: need 1 <= d < p, got d=0, p=9"),
    (["glass-repro", "--skip-rp", "--d", "9"],
     "rp_select: need 1 <= d < p, got d=9, p=9"),
    (["fit", "--method", "tocc-df", "--seed", "-1"],
     "RngStream seed=-1 must be a non-negative integer"),
    (["simulate", "--scenario", "a", "--n-target", "0"],
     "n_target must be positive"),
    (["simulate", "--scenario", "e", "--box-scale", "nan"],
     "box_scale=nan must be a finite number > 0"),
]


@pytest.mark.parametrize("argv, message", REFUSALS,
                         ids=[" ".join(argv) for argv, _ in REFUSALS])
def test_data_free_refusals(capsys, tmp_path, argv, message):
    # Exit 2, one line on stderr, and no file or directory made.
    out = str(tmp_path / "out")
    argv = argv + {"fit": ["--data", str(tmp_path / "missing.csv"), "--out", out],
                   "vip": ["--data", str(tmp_path / "missing.csv"), "--out", out],
                   "bench": ["--out", out], "simulate": ["--out", out],
                   "glass-repro": ["--outdir", out]}[argv[0]]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"tocc: error: {message}\n"
    assert list(tmp_path.iterdir()) == []
