import json
import shutil
import warnings

import numpy as np
import pytest

import tocc.cli
import tocc.glass
from tocc import (RngStream, ingest_csv, load_glass, load_model,
                  run_glass_repro, save_model)
from tocc.cli import _write_repro_report, main
from tocc.evaluation import ALL_METHODS, fit_method
from tocc.io_utils import IngestError


def write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return str(path)


class TestIngestCsv:
    def test_basic(self, tmp_path):
        path = write(tmp_path / "d.csv", "a,b,kind\n1,2,t\n3,4,u\n")
        data = ingest_csv(path, label_column="kind", target_labels={"t"})
        assert data.feature_names == ["a", "b"]
        assert data.row_labels == ["target", "non-target"]
        assert np.array_equal(data.values, [[1, 2], [3, 4]])

    def test_unknown_label_located(self, tmp_path):
        path = write(tmp_path / "d.csv", "a,kind\n1,t\n2,x\n")
        with pytest.raises(IngestError, match="row 3.*unknown label"):
            ingest_csv(path, label_column="kind", target_labels={"t"},
                       nontarget_labels={"u"})

    def test_non_numeric_located(self, tmp_path):
        path = write(tmp_path / "d.csv", "a,b\n1,2\n3,oops\n")
        with pytest.raises(IngestError, match="row 3, column 'b'"):
            ingest_csv(path)

    def test_non_finite_located(self, tmp_path):
        path = write(tmp_path / "d.csv", "a,b\n1,2\n3,inf\n")
        with pytest.raises(IngestError, match="row 3.*non-finite"):
            ingest_csv(path)

    def test_missing_column(self, tmp_path):
        path = write(tmp_path / "d.csv", "a,b\n1,2\n")
        with pytest.raises(IngestError, match="missing column"):
            ingest_csv(path, label_column="kind")

    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "d.csv", "")
        with pytest.raises(IngestError, match="empty"):
            ingest_csv(path)

    def test_one_row(self, tmp_path):
        path = write(tmp_path / "d.csv", "a,b\n5,6\n")
        data = ingest_csv(path)
        assert data.n == 1

    def test_normalize_by(self, tmp_path):
        path = write(tmp_path / "d.csv", "a,b,o\n2,4,2\n9,3,3\n")
        data = ingest_csv(path, normalize_by="o")
        assert data.feature_names == ["a", "b"]
        assert np.allclose(data.values, [[1, 2], [3, 1]])
        for bad in ("inf", "nan"):
            path = write(tmp_path / "e.csv", f"a,b,o\n2,4,2\n9,3,{bad}\n")
            with pytest.raises(IngestError, match=f"row 3, column 'o': "
                                                  f"non-finite cell '{bad}'"):
                ingest_csv(path, normalize_by="o")

    def test_normalize_zero_reference(self, tmp_path):
        path = write(tmp_path / "d.csv", "a,o\n2,0\n")
        with pytest.raises(IngestError, match="zero reference"):
            ingest_csv(path, normalize_by="o")

    def test_comments_skipped(self, tmp_path):
        path = write(tmp_path / "d.csv", "# provenance\na,b\n1,2\n")
        assert ingest_csv(path).n == 1


class TestGlassLoader:
    def test_study_subset(self):
        glass = load_glass()
        assert glass.feature_names == ["RI", "Na", "Mg", "Al", "Si", "K", "Ca",
                                       "Ba", "Fe"]
        assert glass.n == 138
        assert int(glass.is_target().sum()) == 87

    def test_all_windows(self):
        glass = load_glass(subset="all-windows")
        assert glass.n == 214
        assert int(glass.is_target().sum()) == 163

    def test_bad_subset(self):
        with pytest.raises(ValueError):
            load_glass(subset="everything")

    @pytest.mark.parametrize("sep, header", [(", ", "Type"), (",", '"Type"')],
                             ids=["spaced", "quoted-header"])
    def test_reformatted_copy_loads_like_bundled(self, tmp_path, sep, header):
        # Spaces after the commas and a quoted header are valid CSV; the
        # study subset must still drop the type-2 windows.
        with open(tocc.glass.bundled_glass_path()) as fh:
            lines = fh.read().splitlines()
        lines[0] = lines[0].replace("Type", header)
        path = write(tmp_path / "copy.csv",
                     "\n".join(ln.replace(",", sep) for ln in lines) + "\n")
        for subset in ("float-windows", "all-windows"):
            copy, bundled = load_glass(path, subset), load_glass(subset=subset)
            assert copy.feature_names == bundled.feature_names
            assert copy.row_labels == bundled.row_labels
            assert np.array_equal(copy.values, bundled.values)


class TestGlassRepro:
    def test_rp2_forwards_mc_samples(self, monkeypatch):
        seen = []
        real = tocc.glass.fit_rp_ensemble

        def spy(*args, **kwargs):
            seen.append(kwargs)
            return real(*args, **kwargs)
        monkeypatch.setattr(tocc.glass, "fit_rp_ensemble", spy)
        run_glass_repro(b1=1, b2=2, mc_samples=12_345, frontends=("rp2",),
                        variants=("tocc-df",))
        assert [kw["mc_samples"] for kw in seen] == [12_345]

    @pytest.mark.parametrize("subset, line", [
        ("float-windows", "- Target class: float-process window fragments "
         "(types 1 and 3 of the bundled table, 87 rows); non-target: "
         "containers, tableware and headlamps (types 5-7, 51 rows). Non-float "
         "building windows (type 2) are excluded from this study subset."),
        ("all-windows", "- Target class: window fragments (types 1, 2 and 3 "
         "of the bundled table, 163 rows); non-target: containers, tableware "
         "and headlamps (types 5-7, 51 rows).")],
        ids=["float-windows", "all-windows"])
    def test_report_describes_the_subset_used(self, tmp_path, subset, line):
        result = run_glass_repro(subset=subset, frontends=("pca2",),
                                 variants=("tocc-df",))
        path = tmp_path / "report.md"
        _write_repro_report(path, result, {"glass_subset": subset}, None)
        assert line in path.read_text().splitlines()

    def test_cell_streams_do_not_depend_on_the_other_cells(self):
        def db_kvip2(**grid):
            result = run_glass_repro(b1=5, b2=5, mc_samples=10_000, **grid)
            cell = result.cell("tocc-db", "kvip2")
            return cell.auc, cell.sensitivity, cell.specificity
        alone = db_kvip2(frontends=("kvip2",), variants=("tocc-db",))
        beside = db_kvip2(frontends=("pca2", "kvip2"),
                          variants=("tocc-df", "tocc-db"))
        assert alone == beside

    def test_report_names_the_data_file(self, tmp_path, monkeypatch):
        real = tocc.cli.run_glass_repro
        monkeypatch.setattr(tocc.cli, "run_glass_repro", lambda **kw: real(
            **{**kw, "frontends": ("pca2",), "variants": ("tocc-df",)}))
        data = str(tmp_path / "glass.csv")
        shutil.copy(tocc.glass.bundled_glass_path(), data)
        outdir = tmp_path / "repro"
        assert run_cli("glass-repro", "--data", data, "--outdir", outdir) == 0
        report = (outdir / "report.md").read_text()
        assert f"(types 1 and 3 of {data}, 87 rows)" in report
        assert "bundled" not in report


class TestModelRoundTrip:
    def test_bit_exact_predictions(self, tmp_path):
        X = np.random.default_rng(50).normal(size=(60, 2))
        Z = np.random.default_rng(52).normal(size=(25, 2))
        for name in ALL_METHODS:
            model = fit_method(name, X, 0.9, RngStream(51), k=2,
                               mc_samples=10_000, components_range=(1, 2),
                               n_restarts=2)
            path = tmp_path / f"{name}.json"
            save_model(model, path)
            before, after = model.predict(Z), load_model(path).predict(Z)
            assert np.array_equal(before.score, after.score), name
            assert np.array_equal(before.accept, after.accept), name

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "m.json"
        with open(path, "w") as fh:
            json.dump({"schema_version": 99, "model": "tocc"}, fh)
        with pytest.raises(ValueError, match="schema"):
            load_model(path)


    @staticmethod
    def saved_df_doc(tmp_path):
        X = np.random.default_rng(53).normal(size=(30, 2))
        path = tmp_path / "m.json"
        save_model(fit_method("tocc-df", X, 0.9, RngStream(54)), path)
        return path, json.loads(path.read_text())

    def test_threshold_count_checked(self, tmp_path):
        path, doc = self.saved_df_doc(tmp_path)
        doc["thresholds"] = doc["thresholds"] * 2
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="one threshold"):
            load_model(path)

    def test_closed_form_integrator_rejected(self, tmp_path):
        X = np.random.default_rng(55).normal(size=(30, 2))
        path = tmp_path / "db.json"
        save_model(fit_method("tocc-db", X, 0.9, RngStream(56),
                              mc_samples=10_000, components_range=(1, 1),
                              n_restarts=1), path)
        doc = json.loads(path.read_text())
        doc["integrator"]["method"] = "closed_form_1d"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unknown integrator method"):
            load_model(path)

    def test_missing_key_named(self, tmp_path):
        path, doc = self.saved_df_doc(tmp_path)
        del doc["variant"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="'variant'"):
            load_model(path)

    def test_missing_key_exits_2(self, tmp_path, capsys):
        path, doc = self.saved_df_doc(tmp_path)
        del doc["variant"]
        path.write_text(json.dumps(doc))
        data = write(tmp_path / "q.csv", "a,b\n0.0,0.0\n")
        assert run_cli("predict", "--model", path, "--data", data,
                       "--out", tmp_path / "p.csv") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'variant'" in err




class TestToccModelFiles:
    """An edited tocc file is refused with a one-line exit 2 instead of
    crashing or scoring."""

    @pytest.mark.parametrize("method, edit, message", [
        ("tocc-db", {"integrator": None}, "db variant requires an integrator"),
        ("tocc-df", {"eps": None}, "eps=None must be a finite number >= 0"),
        ("tocc-db", {"integrator": {"mc_samples": None}},
         "requires an integer mc_samples >= 10000, not None"),
        ("tocc-db", {"integrator": {"mc_samples": 100000.5}},
         "requires an integer mc_samples >= 10000, not 100000.5"),
        ("tocc-df", {"feature_names": ["a"]},
         "feature_names must be None or a list of 2 names, not ['a']"),
        ("tocc-db", {"feature_names": ["a", "b", "c"]},
         "feature_names must be None or a list of 2 names"),
        ("tocc-df", {"feature_names": 5},
         "feature_names must be None or a list of 2 names, not 5"),
        ("tocc-db", {"integrator": {"seed": None}},
         "RngStream seed=None must be a non-negative integer"),
        ("tocc-db", {"integrator": {"stream_id": -1}},
         "RngStream stream_id=-1 must be a non-negative integer"),
        ("tocc-df", {"sensitivity": [1.5]},
         "sensitivity s must lie strictly inside (0, 1)"),
        ("tocc-df", {"sensitivity": [0.0]},
         "sensitivity s must lie strictly inside (0, 1)"),
        ("tocc-db", {"sensitivity": None},
         "sensitivity s must lie strictly inside (0, 1)"),
        ("tocc-df", {"groups": [[[0.0, None]] + [[0.0, 1.0]] * 29]},
         "model field 'groups' must hold only numbers (no string, bool or "
         "null), not [[[0.0, null]"),
        ("tocc-df", {"eps": True}, "model field 'eps' must hold only numbers"),
        ("tocc-db", {"integrator": 5},
         "model field 'integrator' must be an object, not 5"),
        ("tocc-db", {"density": [1, 2]},
         "model field 'density' must be an object, not [1, 2]"),
        ("pam-tocc-df", {"pam": 5}, "model field 'pam' must be an object"),
        ("tocc-df", {"groups": 5}, "model field 'groups' must be an array, not 5"),
        ("tocc-df", {"model": ["tocc"]}, "unknown model type"),
        ("tocc-db", {"density": {"means": [[float("nan"), 0.0]]}},
         "weights, means and covariances must all be finite"),
        ("tocc-db", {"density": {"weights": [float("nan")]}},
         "weights, means and covariances must all be finite"),
        ("tocc-df", {"sensitivity": {"a": 1}},
         """model field 'sensitivity' must be an array, not {"a": 1}"""),
        ("pam-tocc-df", {"thresholds": 0.5},
         "model field 'thresholds' must be an array, not 0.5"),
        ("pam-tocc-df", {"pam": {"medoids": None}},
         "pam medoids must be an ascending list of distinct row indices, not None"),
        ("pam-tocc-df", {"pam": {"medoids": "abc"}},
         "pam medoids must be an ascending list of distinct row indices, not 'abc'"),
        ("pam-tocc-df", {"pam": {"medoids": [8, 11, 17, 23, 999]}},
         "a pam block needs a pam_df model, one medoid row per prototype (5)"),
        ("pam-tocc-df", {"pam": {"assignment": None}},
         "pam assignment must be an array of cluster labels below 5, not None"),
        ("pam-tocc-df", {"pam": {"assignment": 1e308}},
         "pam assignment must be an array of cluster labels below 5, not 1e+308"),
        ("pam-tocc-df", {"pam": {"assignment": [0]}},
         "one label per group row"),
        ("pam-tocc-df", {"pam": {"total_cost": "abc"}},
         "pam total_cost must be a finite number >= 0, not 'abc'"),
        ("tocc-db", {"density": {"covariances": [[[1.0, 0.5], [0.0, 1.0]]]}},
         "mixture covariances must be symmetric"),
        ("tocc-df", {"thresholds": ["0.5"]},
         """model field 'thresholds' must hold only numbers (no string, bool """
         """or null), not ["0.5"]"""),
        ("tocc-df", {"prototypes": [["0.5", 0.0]]},
         "model field 'prototypes' must hold only numbers"),
        ("pam-tocc-df", {"groups": [[["0.5", 0.0]]] * 5},
         "model field 'groups' must hold only numbers"),
        ("tocc-db", {"density": {"weights": ["1.0"]}},
         "model field 'density' must hold only numbers"),
        ("tocc-df", {"eps": "0.5"}, "model field 'eps' must be a number, not \"0.5\""),
        ("tocc-df", {"sensitivity": [True]},
         "model field 'sensitivity' must hold only numbers"),
        ("tocc-db", {"integrator": {"mc_samples": 10 ** 400}},
         "model field 'integrator' holds an integer too large for a float")],
        ids=["db-null-integrator", "null-eps", "null-mc-samples",
             "fractional-mc-samples", "one-feature-name", "three-feature-names",
             "numeric-feature-names", "null-integrator-seed",
             "negative-stream-id", "sensitivity-above-1", "zero-sensitivity",
             "null-sensitivity", "null-in-group-row", "bool-eps",
             "numeric-integrator", "list-density", "numeric-pam",
             "numeric-groups", "list-model", "nan-mean", "nan-weight",
             "object-sensitivity", "numeric-thresholds", "null-medoids",
             "string-medoids", "medoid-out-of-range", "null-assignment",
             "huge-assignment", "one-entry-assignment", "string-total-cost",
             "asymmetric-covariance", "string-threshold", "string-prototype",
             "string-group-entry", "string-mixture-weight", "string-eps",
             "bool-sensitivity", "huge-mc-samples"])
    def test_edited_file_exits_2(self, tmp_path, capsys, method, edit, message):
        X = np.random.default_rng(55).normal(size=(30, 2))
        path = tmp_path / f"{method}.json"
        save_model(fit_method(method, X, 0.9, RngStream(56),
                              mc_samples=10_000, components_range=(1, 1),
                              n_restarts=1), path)
        doc = json.loads(path.read_text())
        for key, value in edit.items():
            if isinstance(value, dict) and isinstance(doc[key], dict):
                doc[key].update(value)
            else:
                doc[key] = value
        path.write_text(json.dumps(doc))
        data = write(tmp_path / "q.csv", "a,b\n0.5,0.5\n")
        assert run_cli("predict", "--model", path, "--data", data,
                       "--out", tmp_path / "p.csv") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err

    def test_deeply_nested_file_exits_2(self, tmp_path, capsys):
        # json.load recurses once per level; a file nested past the
        # interpreter's recursion limit is refused as a file, not a crash.
        path = write(tmp_path / "model.json",
                     '{"schema_version": 1, "model": "baseline", "threshold": '
                     + "[" * 5000 + "]" * 5000 + "}\n")
        data = write(tmp_path / "q.csv", "a,b\n0.5,0.5\n")
        assert run_cli("predict", "--model", path, "--data", data,
                       "--out", tmp_path / "p.csv") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{path}: model file is nested too deeply" in err

    def test_top_level_array_exits_2(self, tmp_path, capsys):
        path = write(tmp_path / "model.json", "[1]\n")
        data = write(tmp_path / "q.csv", "a,b\n0.5,0.5\n")
        assert run_cli("predict", "--model", path, "--data", data,
                       "--out", tmp_path / "p.csv") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "must hold a JSON object, not [1]" in err


class TestBaselineModelFiles:
    """An edited baseline file is refused with a one-line exit 2 instead of
    crashing or scoring."""

    @pytest.mark.parametrize("kind, edit, message", [
        ("gauss", {"mean": None}, "gauss model lacks its mean"),
        ("gauss", {"threshold": None}, "threshold=None must be a finite number"),
        ("gauss", {"score_direction": "up"},
         "gauss scores are lower_is_typical, not 'up'"),
        ("kde", {"bandwidths": [0.3]}, "kde fields disagree on the width"),
        ("gauss", {"feature_names": ["a"]},
         "feature_names must be None or a list of 2 names"),
        ("kde", {"feature_names": ["a", "b", "c"]},
         "feature_names must be None or a list of 2 names"),
        ("kde", {"bandwidths": [0.0, -1.0]}, "kde bandwidths must be positive"),
        ("gauss", {"cov_inv": [[-1.0, 0.0], [0.0, -1.0]]},
         "gauss cov_inv must be positive definite"),
        ("gauss", {"cov_inv": [[1.0, 0.5], [0.0, 1.0]]},
         "gauss cov_inv must be symmetric"),
        ("gauss", {"centroids": [[0.0, 0.0]]}, "a gauss model has no centroids"),
        ("gauss", {"threshold": "0.5"},
         "model field 'threshold' must be a number, not \"0.5\""),
        ("mix-gauss", {"threshold": True},
         "model field 'threshold' must hold only numbers (no string, bool or "
         "null), not true"),
        ("mix-gauss", {"sensitivity": "0.9"},
         "model field 'sensitivity' must be a number, not \"0.9\""),
        ("kde", {"sensitivity": [0.9]},
         "model field 'sensitivity' must be a number, not [0.9]"),
        ("mix-gauss", {"density": {"weights": ["1.0"], "means": [[0.0, 0.0]],
                                   "covariances": [[[1.0, 0.0], [0.0, 1.0]]]}},
         "model field 'density' must hold only numbers"),
        ("kmeans", {"centroids": [["0.5", 0.0]]},
         "model field 'centroids' must hold only numbers"),
        ("gauss", {"threshold": 10 ** 400},
         "model field 'threshold' holds an integer too large for a float"),
        ("kde", {"train": [[10 ** 400, 0.0]]},
         "model field 'train' holds an integer too large for a float"),
        # A value that breaks several rules is named by the size rule.
        ("kde", {"train": [[None, 10 ** 400]]},
         "model field 'train' holds an integer too large for a float"),
        ("gauss", {"threshold": ["x", 10 ** 400]},
         "model field 'threshold' holds an integer too large for a float")],
        ids=["null-mean", "null-threshold", "unknown-direction",
             "narrow-bandwidths", "one-feature-name", "three-feature-names",
             "non-positive-bandwidths", "negative-definite-cov-inv",
             "asymmetric-cov-inv", "gauss-with-centroids", "string-threshold",
             "bool-threshold", "string-sensitivity", "list-sensitivity",
             "string-mixture-weight", "string-centroid", "huge-threshold",
             "huge-train-entry", "null-and-huge-train-entries",
             "string-and-huge-threshold-list"])
    def test_edited_file_exits_2(self, tmp_path, capsys, kind, edit, message):
        X = np.random.default_rng(57).normal(size=(40, 2))
        path = tmp_path / f"{kind}.json"
        save_model(fit_method(kind, X, 0.9, RngStream(58)), path)
        doc = json.loads(path.read_text())
        doc.update(edit)
        path.write_text(json.dumps(doc))
        data = write(tmp_path / "q.csv", "a,b\n0.0,0.0\n1.0,-1.0\n")
        assert run_cli("predict", "--model", path, "--data", data,
                       "--out", tmp_path / "p.csv") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err

    def test_long_value_is_quoted_in_part(self, tmp_path, capsys):
        # A wrong-typed field is quoted up to 60 characters, not whole.
        X = np.random.default_rng(57).normal(size=(40, 2))
        path = tmp_path / "gauss.json"
        save_model(fit_method("gauss", X, 0.9, RngStream(58)), path)
        doc = json.loads(path.read_text())
        doc["threshold"] = [1.5] * 100_000
        path.write_text(json.dumps(doc))
        data = write(tmp_path / "q.csv", "a,b\n0.0,0.0\n")
        assert run_cli("predict", "--model", path, "--data", data,
                       "--out", tmp_path / "p.csv") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 200
        assert "model field 'threshold' must be a number, not [1.5, 1.5" in err


def run_cli(*argv):
    return main([str(a) for a in argv])


# Each field of a model file, and the first and last entry of each array,
# is replaced in turn by each of these values.
SWEEP_VALUES = [None, "x", "0.5", True, float("nan"), -1, 1e308, [], [[[1]]], 0,
                10 ** 400]


def edit_paths(value, path=()):
    """Key paths to every object field of a parsed JSON document, at any
    depth, and to the first and last entry of each array."""
    if isinstance(value, dict):
        keys = list(value)
    elif isinstance(value, list):
        keys = sorted({0, len(value) - 1}) if value else []
    else:
        return
    for key in keys:
        yield path + (key,)
        yield from edit_paths(value[key], path + (key,))


class TestModelFileSweep:
    def test_every_edit_predicts_or_exits_2(self, tmp_path, capsys,
                                            monkeypatch):
        # A valid edit, such as another threshold, may predict; nothing may
        # raise past main or exit with more than one line on stderr. One
        # parser serves every run, as building it costs more than a run.
        parser = tocc.cli.build_parser()
        monkeypatch.setattr(tocc.cli, "build_parser", lambda: parser)
        X = np.random.default_rng(60).normal(size=(30, 2))
        data = write(tmp_path / "q.csv", "a,b\n0.5,0.5\n-1.0,2.0\n")
        path, out = tmp_path / "m.json", tmp_path / "p.csv"
        failures, edits = [], 0
        for method in ALL_METHODS:
            save_model(fit_method(method, X, 0.9, RngStream(61), k=2,
                                  mc_samples=10_000, components_range=(1, 2),
                                  n_restarts=1), path)
            text = path.read_text()
            for edit in edit_paths(json.loads(text)):
                for value in SWEEP_VALUES:
                    doc = json.loads(text)
                    parent = doc
                    for key in edit[:-1]:
                        parent = parent[key]
                    parent[edit[-1]] = value
                    path.write_text(json.dumps(doc))
                    edits += 1
                    try:
                        rc = run_cli("predict", "--model", path, "--data", data,
                                     "--out", out)
                    except Exception as exc:    # noqa: BLE001 - reported below
                        rc = repr(exc)
                    err = capsys.readouterr().err
                    if not (rc == 0 or rc == 2 and err.count("\n") == 1):
                        failures.append((method, edit, value, rc, err))
        assert edits > 1000
        assert not failures, failures[:5]


class TestExtremeModelValues:
    """A finite but extreme entry is refused where it breaks what every
    fitted file holds, and otherwise predicts without a floating-point
    warning."""

    def with_huge_entry(self, tmp_path, method, field):
        """predict's arguments for a saved file whose first entry of field
        is 1e308."""
        X = np.random.default_rng(62).normal(size=(30, 2))
        path = tmp_path / "m.json"
        save_model(fit_method(method, X, 0.9, RngStream(63), k=2,
                              mc_samples=10_000, components_range=(1, 1),
                              n_restarts=1), path)
        doc = json.loads(path.read_text())
        entry = doc[field]
        while isinstance(entry[0], list):
            entry = entry[0]
        entry[0] = 1e308
        path.write_text(json.dumps(doc))
        data = write(tmp_path / "q.csv", "a,b\n0.5,0.5\n-1.0,2.0\n")
        return "predict", "--model", path, "--data", data, "--out", tmp_path / "p.csv"

    @pytest.mark.parametrize("method, field, message", [
        ("pam-tocc-df", "prototypes",
         "each pam_df prototype must be a row of its group"),
        ("kde", "bandwidths", "normaliser (sqrt(2 pi) h).prod() finite")],
        ids=["pam-prototype", "kde-bandwidth"])
    def test_huge_entry_exits_2(self, tmp_path, capsys, method, field, message):
        assert run_cli(*self.with_huge_entry(tmp_path, method, field)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("method", ["tocc-df", "tocc-db"])
    def test_huge_prototype_predicts_quietly(self, tmp_path, method):
        # One prototype needs no nearest-prototype distance, which would
        # overflow here.
        argv = self.with_huge_entry(tmp_path, method, "prototypes")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli(*argv) == 0


class TestFitRefusals:
    """tocc fit refuses training data and search settings no fit can use,
    with a one-line exit 2."""

    @pytest.mark.parametrize("method, rows, message", [
        ("mix-gauss", "1,2\n" * 50, "degenerate constant training data"),
        ("kmeans", "1,2\n" * 50, "degenerate constant training data"),
        ("gauss", "0,1\n1,0\n2,2\n", "need at least 5 training rows"),
        ("kde", "0,1\n1,0\n2,2\n", "need at least 5 training rows"),
        ("kmeans", "0,1\n1,0\n2,2\n", "need at least 5 training rows")],
        ids=["mix-gauss-identical", "kmeans-identical", "gauss-3-rows",
             "kde-3-rows", "kmeans-3-rows"])
    def test_training_rows(self, tmp_path, capsys, method, rows, message):
        data = write(tmp_path / "d.csv", "a,b\n" + rows)
        assert run_cli("fit", "--data", data, "--method", method,
                       "--out", tmp_path / "m.json") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err

    def test_empty_component_range(self, tmp_path, capsys):
        data = write(tmp_path / "d.csv", "a,b\n" + "".join(
            f"{i % 7},{i % 5}\n" for i in range(40)))
        assert run_cli("fit", "--data", data, "--method", "mix-gauss",
                       "--components", "0:0", "--out", tmp_path / "m.json") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "components_range=(0, 0) must be two integers 1 <= lo <= hi" in err


class TestCli:
    def test_simulate_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("simulate", "--scenario", "a", "--n-target", 50,
                       "--lambda", 2, "--seed", 7, "--out", out1) == 0
        assert run_cli("simulate", "--scenario", "a", "--n-target", 50,
                       "--lambda", 2, "--seed", 7, "--out", out2) == 0
        assert out1.read_bytes() == out2.read_bytes()
        meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert meta["config"]["seed"] == 7

    def test_fit_predict_roundtrip(self, tmp_path):
        sim = tmp_path / "sim.csv"
        run_cli("simulate", "--scenario", "a", "--n-target", 60, "--seed", 3,
                "--out", sim)
        model = tmp_path / "model.json"
        assert run_cli("fit", "--data", sim, "--label-column", "label",
                       "--method", "tocc-df", "--s", 0.9, "--seed", 3,
                       "--out", model) == 0
        pred1, pred2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        assert run_cli("predict", "--model", model, "--data", sim,
                       "--label-column", "label", "--out", pred1) == 0
        assert run_cli("predict", "--model", model, "--data", sim,
                       "--label-column", "label", "--out", pred2) == 0
        assert pred1.read_bytes() == pred2.read_bytes()
        text = pred1.read_text()
        assert text.startswith("# tocc-version:")
        assert "row,score,decision,cluster" in text

    def test_score_and_roc(self, tmp_path):
        model = tmp_path / "model.json"
        run_cli("fit", "--glass", "--method", "tocc-df", "--s", 0.9,
                "--out", model)
        scores = tmp_path / "scores.csv"
        assert run_cli("score", "--model", model, "--glass",
                       "--out", scores) == 0
        roc_csv, svg = tmp_path / "roc.csv", tmp_path / "roc.svg"
        assert run_cli("roc", "--model", model, "--glass", "--out", roc_csv,
                       "--svg", svg) == 0
        assert "auc:" in roc_csv.read_text()
        assert svg.read_text().startswith("<svg")

    def test_reduce_and_vip(self, tmp_path):
        reduced = tmp_path / "red.csv"
        assert run_cli("reduce", "--glass", "--d", 2, "--which", "last",
                       "--out", reduced) == 0
        header = [ln for ln in reduced.read_text().splitlines()
                  if not ln.startswith("#")][0]
        assert header == "pc_last1,pc_last2,label"

        vip1, vip2 = tmp_path / "v1.csv", tmp_path / "v2.csv"
        for out in (vip1, vip2):
            assert run_cli("vip", "--glass", "--b1", 21, "--b2", 10,
                           "--kappa", 0.5, "--seed", 7, "--out", out) == 0
        assert vip1.read_bytes() == vip2.read_bytes()
        text = vip1.read_text()
        assert "Si,0" in text or "Si," in text

    def test_bench_deterministic(self, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / f"{name}.csv"
            summary = tmp_path / f"{name}.json"
            svg = tmp_path / f"{name}.svg"
            assert run_cli("bench", "--scenario", "a", "--lambda", 2,
                           "--n-target", 60, "--reps", 2, "--s", 0.9,
                           "--methods", "tocc-df,gauss", "--seed", 11,
                           "--out", out, "--summary", summary,
                           "--svg", svg) == 0
            outs.append((out.read_bytes(), summary.read_bytes(),
                         svg.read_bytes()))
        assert outs[0] == outs[1]

    def test_glass_repro_smoke(self, tmp_path):
        outdir = tmp_path / "repro"
        assert run_cli("glass-repro", "--skip-rp", "--b1", 21, "--b2", 10,
                       "--mc-samples", 20000, "--seed", 7,
                       "--outdir", outdir) == 0
        auc = (outdir / "auc_table.csv").read_text()
        assert "varsel2" in auc.splitlines()[-4]  # header row carries columns
        assert (outdir / "report.md").read_text().startswith("# Glass study")

    def test_error_single_line(self, tmp_path, capsys):
        rc = run_cli("fit", "--data", tmp_path / "absent.csv",
                     "--method", "tocc-df", "--out", tmp_path / "m.json")
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("tocc: error:")
        assert "\n" not in err

    def test_unwritable_model_path_single_line(self, tmp_path, capsys):
        rows = np.random.default_rng(59).normal(size=(20, 2))
        data = write(tmp_path / "d.csv",
                     "a,b\n" + "".join(f"{x},{y}\n" for x, y in rows))
        assert run_cli("fit", "--data", data, "--method", "tocc-df",
                       "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("tocc: error:") and err.count("\n") == 1
        assert "Is a directory" in err

    def test_outdir_is_a_file_fails_before_the_grid(self, tmp_path, capsys,
                                                    monkeypatch):
        calls = []
        monkeypatch.setattr(tocc.cli, "run_glass_repro",
                            lambda **kw: calls.append(kw))
        outdir = write(tmp_path / "taken", "")
        assert run_cli("glass-repro", "--skip-rp", "--outdir", outdir) == 2
        err = capsys.readouterr().err
        assert err.startswith("tocc: error:") and err.count("\n") == 1
        assert calls == []

    def test_seed_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TOCC_SEED", "99")
        from tocc.cli import _default_seed
        assert _default_seed() == 99

    @pytest.mark.parametrize("env", ["abc", "-3", "1.5"])
    def test_bad_seed_env_exits_2(self, tmp_path, monkeypatch, capsys, env):
        monkeypatch.setenv("TOCC_SEED", env)
        out = tmp_path / "x.csv"
        assert run_cli("simulate", "--scenario", "a", "--out", out) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"TOCC_SEED={env!r}" in err
        assert not out.exists()

    def test_seed_env_writes_the_seeded_file(self, tmp_path, monkeypatch):
        by_flag, by_env = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("simulate", "--scenario", "a", "--n-target", 20,
                       "--seed", 7, "--out", by_flag) == 0
        monkeypatch.setenv("TOCC_SEED", "7")
        assert run_cli("simulate", "--scenario", "a", "--n-target", 20,
                       "--out", by_env) == 0
        assert by_flag.read_bytes() == by_env.read_bytes()
