"""Span tracing around the public functions of the `tocc` modules.

The tracer replaces each traced function at every name a `tocc` module binds
it under (and each traced method on its class), so calls made through
`from .x import f` bindings are caught as well. Spans stay in memory as
(name, start, end, parent, operation, ok) tuples and are written out once
the run ends. Work counts (rows, draws, bytes) are recorded at the same
boundaries as the spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from tocc.transvariation import DROP_EPS


def _rows(x) -> int:
    values = getattr(x, "values", x)
    return int(np.shape(values)[0])


def _file_bytes(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _density_draws(args, kwargs):
    # Monte Carlo draws are tested only when two or more coordinates of the
    # query survive the drop rule; one coordinate is integrated in closed form.
    c, m = np.asarray(args[1], dtype=float), np.asarray(args[2], dtype=float)
    eps = args[4] if len(args) > 4 else kwargs.get("eps", DROP_EPS)
    kept = int(np.count_nonzero(np.abs(c - m) > eps))
    return args[3].mc_samples if kept >= 2 else 0


# (module, attribute, class or None, {count name: fn(args, kwargs)}).
TRACED = (
    ("tocc.transvariation", "multivariate_tp", None,
     {"rows": lambda a, k: _rows(a[0])}),
    ("tocc.transvariation", "multivariate_tp_density", None,
     {"draws": _density_draws}),
    ("tocc.classifier", "predict", None, {"rows": lambda a, k: _rows(a[1])}),
    ("tocc.classifier", "fit_tocc_df", None, {}),
    ("tocc.classifier", "fit_pam_tocc_df", None, {}),
    ("tocc.classifier", "fit_tocc_db", None, {}),
    ("tocc.classifier", "pam", None, {}),
    ("tocc.numcore", "spatial_median", None, {}),
    ("tocc.density", "fit_gmm", None, {}),
    ("tocc.density", "kmeans_lloyd", None, {}),
    ("tocc.density", "samples", "OrthantIntegrator", {}),
    ("tocc.density", "sample", "MixtureDensity", {}),
    ("tocc.featsel", "rp_select", None, {}),
    ("tocc.featsel", "fit_rp_ensemble", None, {}),
    ("tocc.featsel", "predict_ensemble", None, {}),
    ("tocc.featsel", "pca_reduce", None, {}),
    ("tocc.featsel", "compute_vip", None, {}),
    ("tocc.baselines", "fit_baseline", None, {}),
    ("tocc.baselines", "predict_baseline", None,
     {"rows": lambda a, k: _rows(a[1])}),
    ("tocc.simgen", "generate", None, {}),
    ("tocc.evaluation", "roc_curve", None, {"rows": lambda a, k: _rows(a[0])}),
    ("tocc.evaluation", "evaluate_method", None, {}),
    ("tocc.io_utils", "ingest_csv", None,
     {"bytes": lambda a, k: _file_bytes(_arg(a, k, 0, "path"))}),
    ("tocc.io_utils", "write_csv", None,
     {"bytes": lambda a, k: _file_bytes(_arg(a, k, 0, "path"))}),
    ("tocc.io_utils", "save_model", None,
     {"bytes": lambda a, k: _file_bytes(_arg(a, k, 1, "path"))}),
    ("tocc.io_utils", "load_model", None,
     {"bytes": lambda a, k: _file_bytes(_arg(a, k, 0, "path"))}),
    ("tocc.cli", "cmd_fit", None, {}),
    ("tocc.cli", "cmd_predict", None, {}),
    ("tocc.cli", "cmd_roc", None, {}),
    ("tocc.cli", "cmd_glass_repro", None, {}),
)


def span_name(module: str, attr: str, cls: str | None) -> str:
    short = module.split(".", 1)[1]
    return f"{short}.{cls}.{attr}" if cls else f"{short}.{attr}"


class Tracer:
    """Collects spans and work counts while installed; restores the
    original functions on uninstall."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self.operation = 0
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name, fn, work):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent,
                                       tracer.operation, ok)
                if ok:
                    for key, count in work.items():
                        tracer.counts[f"{name}.{key}"] += count(args, kwargs)
        return traced

    def wrap(self, owner, attr: str, name: str, work=None) -> None:
        """Trace owner.attr (a class method or a module function) as name."""
        original = vars(owner)[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, work or {}))

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "tocc" or n.startswith("tocc."))]
        for module_name, attr, cls_name, work in TRACED:
            name = span_name(module_name, attr, cls_name)
            if cls_name:
                self.wrap(getattr(sys.modules[module_name], cls_name), attr,
                          name, work)
                continue
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original, work)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def layer_totals(self) -> dict[str, float]:
        """calls, errors and self time per span name, plus the work counts.

        Calls are synchronous, so a span's children never overlap and its
        self time is its duration minus the summed durations of its
        direct children.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _, ok) in enumerate(self.spans):
            totals[f"{name}.calls"] += 1
            totals[f"{name}.self_s"] += (end - start) - child_time[i]
            if not ok:
                totals[f"{name}.errors"] += 1
        for key, value in self.counts.items():
            totals[key] += value
        return totals

    def write(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "fields": ["name", "start", "end", "parent",
                                  "operation", "ok"],
                       "spans": [[index[n], s, e, p, op, int(ok)]
                                 for n, s, e, p, op, ok in self.spans]}, fh)
