"""Metrics, ROC/AUC, and the replication benchmark harness.

Scores handed to roc_curve must be oriented so that higher means more
typical; PredictionResult.typicality() does that for any model family. The
benchmark runs fresh scenario draws per replication, fits each method on the
target sample only, and reports sensitivity/specificity at the calibrated
threshold plus the threshold-free AUC.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .baselines import fit_baseline
from .classifier import (PredictionResult, fit_pam_tocc_df, fit_tocc_db,
                         fit_tocc_df)
from .numcore import DataMatrix, RngStream, Settings, check_setting, concat
from .simgen import ScenarioSpec, generate


def confusion_metrics(predicted_accept, is_target) -> tuple[float | None, float | None]:
    """(sensitivity, specificity) of accept decisions against the truth.

    A missing class leaves the corresponding metric None rather than 0.
    """
    acc = np.asarray(predicted_accept, dtype=bool)
    tgt = np.asarray(is_target, dtype=bool)
    if acc.shape != tgt.shape:
        raise ValueError("confusion_metrics: length mismatch")
    sensitivity = float(acc[tgt].mean()) if tgt.any() else None
    specificity = float((~acc[~tgt]).mean()) if (~tgt).any() else None
    return sensitivity, specificity


@dataclass
class RocCurve:
    """ROC points sorted by nondecreasing fpr, with trapezoidal AUC.

    thresholds[i] is the score cutoff that produced point i (+inf sentinel
    first); tied scores share a single point.
    """

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray
    auc: float


def roc_curve(scores, is_target) -> RocCurve:
    """Sweep all distinct score thresholds; tpr/fpr are the fractions of each
    class scoring at or above the cutoff. Higher score = more typical."""
    s = np.asarray(scores, dtype=float)
    tgt = np.asarray(is_target, dtype=bool)
    if not tgt.any() or tgt.all():
        raise ValueError("roc_curve: need both classes present")
    if not np.all(np.isfinite(s)):
        raise ValueError("roc_curve: scores must be finite")

    cuts = np.unique(s)[::-1]

    def rate_at_or_above(class_scores):
        ranked = np.sort(class_scores)
        at_or_above = ranked.size - np.searchsorted(ranked, cuts, side="left")
        return np.concatenate(([0.0], at_or_above / ranked.size))

    tpr, fpr = rate_at_or_above(s[tgt]), rate_at_or_above(s[~tgt])
    ths = np.concatenate(([np.inf], cuts))
    auc = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))
    return RocCurve(fpr, tpr, ths, auc)


@dataclass
class EvalReport:
    """One method's result on one dataset: threshold metrics, AUC, wall
    time, and run provenance."""

    method: str
    sensitivity: float | None
    specificity: float | None
    auc: float | None
    wall_time_seconds: float
    replication: int | None = None
    error: str | None = None


# ---------------------------------------------------------------------------
# Method registry
# ---------------------------------------------------------------------------

@dataclass
class Method:
    """A uniformly-invokable classifier: fit on a target sample with a
    stream, then predict on mixed data."""

    name: str
    fit: Callable[[DataMatrix, RngStream], object]
    predict: Callable[[object, DataMatrix], PredictionResult]


# Method name -> ToccModel.variant, the name the ensembles take.
TOCC_VARIANTS = {"tocc-df": "df", "tocc-db": "db", "pam-tocc-df": "pam_df"}
TOCC_METHODS = tuple(TOCC_VARIANTS)
BASELINE_METHODS = ("gauss", "mix-gauss", "kde", "kmeans")
ALL_METHODS = TOCC_METHODS + BASELINE_METHODS


def _settings(name: str, settings: dict) -> Settings:
    """The settings record of a fit of the named method: ValueError for an
    unknown method, TypeError for an unknown setting."""
    if name not in ALL_METHODS:
        raise ValueError(f"unknown method '{name}' (choose from {ALL_METHODS})")
    return Settings(**settings)


def fit_method(name: str, X, s: float, rng: RngStream, **settings):
    """Fit the named method on target rows X at sensitivity s; every entry
    point fits through this table. settings are Settings fields by name,
    k for PAM-TOCC, kmeans_k for the k-means baseline, the rest for
    tocc-db's integrator and the mixture search."""
    settings = _settings(name, settings)
    if name == "tocc-df":
        return fit_tocc_df(X, s)
    if name == "tocc-db":
        return fit_tocc_db(X, s, rng, settings.components_range,
                           settings.mc_samples, settings.n_restarts)
    if name == "pam-tocc-df":
        return fit_pam_tocc_df(X, settings.k, s)
    return fit_baseline(name.replace("-", "_"), X, s, rng, settings.kmeans_k,
                        settings.components_range, settings.n_restarts)


def make_method(name: str, s: float, **settings) -> Method:
    """Build a Method by name; the name and the settings, fit_method's,
    are checked here, so that a misspelt one fails before any fit runs."""
    _settings(name, settings)

    def fit(X, rng):
        return fit_method(name, X, s, rng, **settings)
    return Method(name, fit, lambda model, Z: model.predict(Z))


# ---------------------------------------------------------------------------
# Replication harness
# ---------------------------------------------------------------------------

@dataclass
class BenchmarkResult:
    """All per-replication reports of one scenario."""

    reports: list[EvalReport] = field(default_factory=list)

    def for_method(self, name: str) -> list[EvalReport]:
        return [r for r in self.reports if r.method == name]

    def summary(self) -> dict[str, dict[str, float]]:
        """Boxplot statistics of specificity per method, plus mean time."""
        out = {}
        for name in sorted({r.method for r in self.reports}):
            ok = [r for r in self.for_method(name) if r.error is None]
            spec = np.array([r.specificity for r in ok if r.specificity is not None])
            entry = {"n_ok": float(len(ok)),
                     "n_failed": float(len(self.for_method(name)) - len(ok))}
            if spec.size:
                entry.update(
                    spec_median=float(np.median(spec)),
                    spec_q1=float(np.percentile(spec, 25)),
                    spec_q3=float(np.percentile(spec, 75)),
                    spec_min=float(spec.min()),
                    spec_max=float(spec.max()),
                )
            times = [r.wall_time_seconds for r in ok]
            if times:
                entry["mean_time_seconds"] = float(np.mean(times))
            out[name] = entry
        return out


def evaluate_method(method: Method, train: DataMatrix, test: DataMatrix,
                    rng: RngStream, replication: int | None = None) -> EvalReport:
    """Fit on the target sample, evaluate on the labeled test set."""
    is_target = test.is_target()
    start = time.perf_counter()
    try:
        fitted = method.fit(train, rng)
        result = method.predict(fitted, test)
    except Exception as exc:  # recorded, not fatal: the harness keeps going
        return EvalReport(method.name, None, None, None,
                          time.perf_counter() - start, replication,
                          error=f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    sens, spec = confusion_metrics(result.accept, is_target)
    auc = roc_curve(result.typicality(), is_target).auc
    return EvalReport(method.name, sens, spec, auc, elapsed, replication)


def run_benchmark(methods, spec: ScenarioSpec, replications: int,
                  s: float) -> BenchmarkResult:
    """Replicate scenario draws and evaluate every method on each.

    Methods may be names (built via make_method at sensitivity s) or Method
    objects. Streams derive from (replication, method) indices, so the
    aggregate is invariant to execution order, and rerunning with the same
    spec reproduces it exactly. Individual method failures are recorded in
    their reports rather than aborting the run.
    """
    check_setting("reps", replications)
    method_objs = [m if isinstance(m, Method) else make_method(m, s) for m in methods]
    result = BenchmarkResult()
    for r in range(replications):
        rep_rng = spec.rng.child(r)
        sample = generate(spec.with_stream(rep_rng))
        test = concat(sample.target, sample.nontarget)
        for mi, method in enumerate(method_objs):
            report = evaluate_method(method, sample.target, test,
                                     rep_rng.child(mi + 1), r)
            result.reports.append(report)
    return result
