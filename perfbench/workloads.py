"""The benchmark's three workloads.

Each workload builds its inputs from a seed (`prepare`) and then runs whole
passes over them (`run_pass`). A pass returns one output record per
operation, for the correctness check, and marks the given SpeedClock after
each fitting ("fit") or scoring ("score") call it makes into the library;
everything else in the pass is booked as "other".

A record holds "exact" outputs, which must stay bit-identical, or "approx"
ones (tocc-db AUCs and scores), which may move within the Monte Carlo
tolerance, or an "error" for an operation that failed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

from tocc import Method, RngStream, ScenarioSpec, load_glass
# Library functions are called through their modules, so that a tracer that
# rebinds module attributes sees these calls too.
from tocc import cli, evaluation, featsel

S = 0.9


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha(path: str) -> str:
    with open(path, "rb") as fh:
        return _sha(fh.read())


def _array_sha(a) -> str:
    return _sha(np.ascontiguousarray(a).tobytes())


@dataclass
class PassResult:
    outputs: dict = field(default_factory=dict)
    score_rows: int = 0  # query rows scored by the "score" segments


def _run_cli(argv) -> int:
    # The CLI reports on stdout; keep the benchmark's own stdout clean.
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class Workload:
    """Builds inputs from a seed and runs passes over them; files go under
    workdir."""

    name: str
    nominal_pass_s: float  # on a 2-core x86-64 machine; sets the pass count

    def __init__(self, workdir: str):
        self.workdir = workdir


# ---------------------------------------------------------------------------
# cli-bulk: tocc fit -> predict -> roc on a large labelled query file
# ---------------------------------------------------------------------------

class CliBulk(Workload):
    """In-process `tocc` CLI: fit, predict and roc for tocc-df, then for
    pam-tocc-df --k 5, on banana-shaped data (scenario i's geometry)."""

    name = "cli-bulk"
    nominal_pass_s = 6.0
    n_train = 2000
    n_query = 10_000  # half target, half non-target
    methods = (("tocc-df", []), ("pam-tocc-df", ["--k", "5"]))

    @staticmethod
    def _banana(gen, n, width, center):
        # Scenario i: noisy arcs of radius 5 and noise 0.8; the non-target arc
        # is narrower and shifted down by 1. Drawn here, not by the library,
        # so the inputs do not change when the library does.
        angles = gen.uniform(-width / 2.0, width / 2.0, size=n)
        points = 5.0 * np.column_stack([np.sin(angles), np.cos(angles)])
        return points + np.asarray(center) + gen.normal(0.0, 0.8, size=(n, 2))

    def prepare(self, seed: int) -> dict:
        gen = np.random.default_rng(seed)
        train = self._banana(gen, self.n_train, 0.9 * np.pi, (0.0, 0.0))
        half = self.n_query // 2
        query_t = self._banana(gen, half, 0.9 * np.pi, (0.0, 0.0))
        query_nt = self._banana(gen, half, 0.6 * np.pi, (0.0, -1.0))
        d = _fresh_dir(os.path.join(self.workdir, f"seed-{seed}"))
        inputs = {"dir": d, "seed": seed,
                  "train": os.path.join(d, "train.csv"),
                  "query": os.path.join(d, "query.csv")}
        with open(inputs["train"], "w") as fh:
            fh.write("x1,x2\n")
            fh.writelines(f"{x!r},{y!r}\n" for x, y in train.tolist())
        with open(inputs["query"], "w") as fh:
            fh.write("x1,x2,label\n")
            fh.writelines(f"{x!r},{y!r},target\n" for x, y in query_t.tolist())
            fh.writelines(f"{x!r},{y!r},non-target\n"
                          for x, y in query_nt.tolist())
        return inputs

    def run_pass(self, inputs: dict, clock, tracer=None) -> PassResult:
        out = PassResult()
        d, seed = inputs["dir"], str(inputs["seed"])
        for method, extra in self.methods:
            model = os.path.join(d, f"{method}.json")
            steps = (
                ("fit", ["fit", "--data", inputs["train"], "--method", method,
                         *extra, "--s", str(S), "--seed", seed, "--out", model]),
                ("predict", ["predict", "--model", model, "--data",
                             inputs["query"], "--label-column", "label",
                             "--seed", seed, "--out",
                             os.path.join(d, f"{method}.predict.csv")]),
                ("roc", ["roc", "--model", model, "--data", inputs["query"],
                         "--label-column", "label", "--seed", seed, "--out",
                         os.path.join(d, f"{method}.roc.csv")]),
            )
            for step, argv in steps:
                if tracer is not None:
                    tracer.operation += 1
                clock.mark("other")
                code = _run_cli(argv)
                if step == "fit":
                    clock.mark("fit")
                else:
                    clock.mark("score")
                    out.score_rows += self.n_query
                key = f"{method}/{step}"
                if code != 0:
                    out.outputs[key] = {"error": f"exit code {code}"}
                else:
                    out.outputs[key] = {"exact": {"sha256": _file_sha(argv[-1])}}
        return out


# ---------------------------------------------------------------------------
# replicate: the simulation study's replication harness
# ---------------------------------------------------------------------------

class Replicate(Workload):
    """evaluation.run_benchmark over scenarios a (lambda 2), e and i, two
    replications each, with criterion 6's tocc-db settings.

    The mix-gauss baseline is left out: its BIC search (G = 1..3, five EM
    restarts) took 0.4 s to 2.6 s per sample depending on the data, which
    spread run_s across seeds by 20-30%. fit_gmm is still measured here
    through tocc-db, and the baselines layer through the other three."""

    name = "replicate"
    nominal_pass_s = 9.0
    n_target = 150
    replications = 2
    scenarios = (("a", 2.0), ("e", 1.0), ("i", 1.0))
    method_names = ("tocc-df", "tocc-db", "pam-tocc-df", "gauss", "kde",
                    "kmeans")

    def prepare(self, seed: int) -> dict:
        return {"specs": [ScenarioSpec(sid, self.n_target, RngStream(seed),
                                       lam=lam)
                          for sid, lam in self.scenarios]}

    @staticmethod
    def _make(name):
        if name == "tocc-db":
            return evaluation.make_method(name, S, mc_samples=20_000,
                                          components_range=(1, 3),
                                          n_restarts=2)
        return evaluation.make_method(name, S)

    def run_pass(self, inputs: dict, clock, tracer=None) -> PassResult:
        out = PassResult()
        # One slot per evaluation, in run_benchmark's order, filled by the
        # evaluation's predict call (left None when its fit raised).
        predictions = []

        def timed(method):
            # Method objects are built per pass, after any tracer is
            # installed, because a Method holds its predict by value.
            def fit(X, rng):
                if tracer is not None:
                    tracer.operation += 1
                clock.mark("other")
                predictions.append(None)
                try:
                    return method.fit(X, rng)
                finally:
                    clock.mark("fit")

            def predict(model, Z):
                try:
                    result = method.predict(model, Z)
                finally:
                    clock.mark("score")
                out.score_rows += Z.n
                predictions[-1] = result
                return result
            return Method(method.name, fit, predict)

        methods = [timed(self._make(name)) for name in self.method_names]
        for spec in inputs["specs"]:
            predictions.clear()
            result = evaluation.run_benchmark(methods, spec,
                                              self.replications, S)
            for report, pred in zip(result.reports, predictions):
                key = f"{spec.id}/{report.replication}/{report.method}"
                if report.error is not None:
                    out.outputs[key] = {"error": report.error}
                    continue
                if report.method == "tocc-db":
                    out.outputs[key] = {"approx": {
                        "auc": report.auc, "score": pred.score.tolist()}}
                else:
                    metrics = [report.sensitivity, report.specificity,
                               report.auc]
                    out.outputs[key] = {"exact": {
                        "metrics": [repr(v) for v in metrics],
                        "score": _array_sha(pred.score),
                        "accept": _array_sha(pred.accept)}}
        return out


# ---------------------------------------------------------------------------
# glass-study: the paper's real-data study
# ---------------------------------------------------------------------------

class GlassStudy(Workload):
    """`tocc glass-repro --skip-rp` (pca2 and kvip2 for all three variants),
    then the rp2 ensembles of tocc-df and pam-tocc-df at b1=101, b2=50.

    The tocc-db/rp2 cell is left out: it fits 101 density models (a BIC
    search each) and took 473 s on a 2-core machine."""

    name = "glass-study"
    nominal_pass_s = 15.0
    rp2_variants = (("tocc-df", "df", {}), ("pam-tocc-df", "pam_df", {"k": 4}))

    def prepare(self, seed: int) -> dict:
        data = load_glass()
        is_target = data.is_target()
        return {"seed": seed, "data": data, "is_target": is_target,
                "train": data.select_rows(is_target),
                "outdir": os.path.join(self.workdir, f"seed-{seed}")}

    def run_pass(self, inputs: dict, clock, tracer=None) -> PassResult:
        out = PassResult()
        outdir = _fresh_dir(inputs["outdir"])
        if tracer is not None:
            tracer.operation += 1
        code = _run_cli(["glass-repro", "--skip-rp", "--seed",
                         str(inputs["seed"]), "--outdir", outdir])
        if code != 0:
            out.outputs["glass-repro"] = {"error": f"exit code {code}"}
        else:
            out.outputs.update(self._repro_records(outdir))

        data, is_target = inputs["data"], inputs["is_target"]
        rng = RngStream(inputs["seed"])
        for vi, (variant, ens_variant, kwargs) in enumerate(self.rp2_variants):
            if tracer is not None:
                tracer.operation += 1
            clock.mark("other")
            ens = featsel.fit_rp_ensemble(inputs["train"], 2, 101, 50, S,
                                          rng.child(100 + vi),
                                          variant=ens_variant, **kwargs)
            clock.mark("fit")
            pred = featsel.predict_ensemble(ens, data)
            clock.mark("score")
            out.score_rows += data.n
            sens, spec = evaluation.confusion_metrics(pred.accept, is_target)
            auc = evaluation.roc_curve(pred.typicality(), is_target).auc
            out.outputs[f"{variant}/rp2"] = {"exact": {
                "metrics": [repr(sens), repr(spec), repr(auc)],
                "score": _array_sha(pred.score),
                "accept": _array_sha(pred.accept)}}
        return out

    @staticmethod
    def _repro_records(outdir: str) -> dict:
        records = {}
        tables = {}
        for metric in ("auc", "specificity"):
            with open(os.path.join(outdir, f"{metric}_table.csv")) as fh:
                rows = list(csv.reader(ln for ln in fh if not ln.startswith("#")))
            header = rows[0]
            for row in rows[1:]:
                for col, cell in zip(header[1:], row[1:]):
                    if cell not in ("", "n/a"):
                        tables.setdefault((row[0], col), {})[metric] = cell
        for (variant, frontend), cells in sorted(tables.items()):
            if variant == "tocc-db":
                record = {"approx": {"auc": float(cells["auc"])}}
            else:
                record = {"exact": {"metrics": [cells["auc"],
                                                cells["specificity"]]}}
            records[f"{variant}/{frontend}"] = record
        # Study notes (kappa-VIP choice, PAM k step-down) must not change;
        # tocc-db lines carry Monte Carlo figures and are checked above.
        with open(os.path.join(outdir, "report.md")) as fh:
            notes = [ln for ln in fh if not ln.startswith("- tocc-db /")]
        records["glass-repro/notes"] = {"exact": {
            "sha256": _sha("".join(notes).encode()),
            "kvip2": [ln.strip() for ln in notes if "kappa-VIP" in ln]}}
        return records


WORKLOADS = {w.name: w for w in (CliBulk, Replicate, GlassStudy)}
