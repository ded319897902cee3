"""CSV ingestion, model persistence, and report/plot writers.

Persisted files are deterministic: floats are serialized with Python's
shortest round-trip repr (so reload reproduces the exact double), key order
is fixed, and no wall-clock content is ever written. Every writer embeds the
library version plus the caller's configuration as leading '#' comment
lines, which ingest_csv skips on the way back in.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from . import __version__
from .baselines import BaselineModel
from .classifier import PamResult, ToccModel
from .density import MixtureDensity, OrthantIntegrator
from .numcore import NONTARGET_LABEL, TARGET_LABEL, DataMatrix, RngStream

SCHEMA_VERSION = 1


class IngestError(ValueError):
    """Malformed input data; message carries the file location."""


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def ingest_csv(path, label_column: str | None = None,
               target_labels=None, nontarget_labels=None,
               normalize_by: str | None = None) -> DataMatrix:
    """Read a header CSV of numeric features into a DataMatrix.

    label_column (if given) is mapped to target/non-target row labels:
    values in target_labels are targets; values in nontarget_labels are
    non-targets; with nontarget_labels omitted every other value is a
    non-target, otherwise an unmapped value is an error. Omitting both sets
    expects literal "target"/"non-target" values. normalize_by divides every
    other feature column by the named column row-wise (the reference column
    is dropped afterwards). Errors carry the offending row/column.
    """
    if target_labels is None and label_column is not None:
        target_labels = {TARGET_LABEL}
        nontarget_labels = nontarget_labels or {NONTARGET_LABEL}
    target_set = {str(v) for v in target_labels} if target_labels else set()
    nontarget_set = {str(v) for v in nontarget_labels} if nontarget_labels else None

    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise IngestError(f"{path}: empty file") from None
    header = [h.strip() for h in header]

    label_idx = None
    if label_column is not None:
        if label_column not in header:
            raise IngestError(f"{path}: missing column '{label_column}'")
        label_idx = header.index(label_column)
    norm_idx = None
    if normalize_by is not None:
        if normalize_by not in header:
            raise IngestError(f"{path}: missing column '{normalize_by}'")
        norm_idx = header.index(normalize_by)
        if norm_idx == label_idx:
            raise IngestError(f"{path}: normalize_by cannot be the label column")

    feature_idx = [j for j in range(len(header)) if j not in (label_idx, norm_idx)]
    feature_names = [header[j] for j in feature_idx]

    rows, labels = [], []
    for r, record in enumerate(reader, start=2):
        if not record:
            continue
        if len(record) != len(header):
            raise IngestError(f"{path}: row {r}: expected {len(header)} cells, "
                              f"got {len(record)}")
        vals = []
        for j in feature_idx:
            try:
                cell = float(record[j])
            except ValueError:
                raise IngestError(f"{path}: row {r}, column '{header[j]}': "
                                  f"non-numeric cell '{record[j]}'") from None
            if not np.isfinite(cell):
                raise IngestError(f"{path}: row {r}, column '{header[j]}': "
                                  f"non-finite cell '{record[j]}'")
            vals.append(cell)
        if norm_idx is not None:
            try:
                ref = float(record[norm_idx])
            except ValueError:
                raise IngestError(f"{path}: row {r}, column '{normalize_by}': "
                                  f"non-numeric cell '{record[norm_idx]}'") from None
            if ref == 0:
                raise IngestError(f"{path}: row {r}, column '{normalize_by}': "
                                  f"zero reference value")
            vals = [v / ref for v in vals]
        rows.append(vals)
        if label_idx is not None:
            raw = record[label_idx].strip()
            if raw in target_set:
                labels.append(TARGET_LABEL)
            elif nontarget_set is None or raw in nontarget_set:
                labels.append(NONTARGET_LABEL)
            else:
                raise IngestError(f"{path}: row {r}, column '{label_column}': "
                                  f"unknown label '{raw}'")
    if not rows:
        raise IngestError(f"{path}: no data rows")
    return DataMatrix(np.array(rows), feature_names,
                      labels if label_idx is not None else None)


# ---------------------------------------------------------------------------
# Model persistence
# ---------------------------------------------------------------------------

def _arr(a) -> list:
    return np.asarray(a, dtype=float).tolist()


def _density_to_dict(d: MixtureDensity | None):
    if d is None:
        return None
    return {"weights": _arr(d.weights), "means": _arr(d.means),
            "covariances": _arr(d.covariances)}


def _density_from_dict(obj):
    if obj is None:
        return None
    return MixtureDensity(np.array(obj["weights"]), np.array(obj["means"]),
                          np.array(obj["covariances"]))


def _integrator_to_dict(integ: OrthantIntegrator | None):
    if integ is None:
        return None
    return {"method": integ.method, "mc_samples": integ.mc_samples,
            "seed": integ.rng.seed, "stream_id": integ.rng.stream_id}


def _integrator_from_dict(obj):
    if obj is None:
        return None
    return OrthantIntegrator(obj["method"], obj["mc_samples"],
                             RngStream(obj["seed"], obj["stream_id"]))


def save_model(model, path, config: dict | None = None) -> None:
    """Write a fitted TOCC or baseline model as schema-versioned JSON."""
    doc = {"schema_version": SCHEMA_VERSION, "library_version": __version__,
           "config": config or {}}
    if isinstance(model, ToccModel):
        doc["model"] = "tocc"
        doc["variant"] = model.variant
        doc["sensitivity"] = _arr(model.sensitivity)
        doc["eps"] = model.eps
        doc["prototypes"] = _arr(model.prototypes)
        doc["thresholds"] = _arr(model.thresholds)
        doc["feature_names"] = model.feature_names
        doc["groups"] = [_arr(g) for g in model.groups] if model.groups else None
        doc["density"] = _density_to_dict(model.density)
        doc["integrator"] = _integrator_to_dict(model.integrator)
        if model.pam is not None:
            doc["pam"] = {"medoids": list(model.pam.medoids),
                          "assignment": [int(a) for a in model.pam.assignment],
                          "total_cost": model.pam.total_cost}
    elif isinstance(model, BaselineModel):
        doc["model"] = "baseline"
        doc["kind"] = model.kind
        doc["sensitivity"] = model.sensitivity
        doc["threshold"] = model.threshold
        doc["score_direction"] = model.score_direction
        doc["feature_names"] = model.feature_names
        for name in ("mean", "cov_inv", "bandwidths", "train", "centroids"):
            val = getattr(model, name)
            doc[name] = _arr(val) if val is not None else None
        doc["density"] = _density_to_dict(model.density)
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path):
    """Load a model written by save_model; predictions round-trip bit-exactly
    because floats are stored at full precision. A missing key or an
    inconsistent model is a ValueError."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported schema version "
                         f"{doc.get('schema_version')}")
    try:
        return _model_from_doc(doc, path)
    except KeyError as exc:
        raise ValueError(f"{path}: model file lacks the key {exc}") from None


def _model_from_doc(doc, path):
    if doc["model"] == "tocc":
        pam = None
        if doc.get("pam"):
            pam = PamResult(list(doc["pam"]["medoids"]),
                            np.array(doc["pam"]["assignment"], dtype=int),
                            doc["pam"]["total_cost"])
        return ToccModel(
            variant=doc["variant"],
            prototypes=np.array(doc["prototypes"]),
            thresholds=np.array(doc["thresholds"]),
            sensitivity=np.array(doc["sensitivity"]),
            eps=doc["eps"],
            groups=[np.array(g) for g in doc["groups"]] if doc["groups"] else None,
            density=_density_from_dict(doc["density"]),
            integrator=_integrator_from_dict(doc["integrator"]),
            feature_names=doc["feature_names"],
            pam=pam)
    if doc["model"] == "baseline":
        def arr(key):
            return np.array(doc[key]) if doc.get(key) is not None else None
        return BaselineModel(
            kind=doc["kind"], threshold=doc["threshold"],
            score_direction=doc["score_direction"], sensitivity=doc["sensitivity"],
            mean=arr("mean"), cov_inv=arr("cov_inv"),
            density=_density_from_dict(doc.get("density")),
            bandwidths=arr("bandwidths"), train=arr("train"),
            centroids=arr("centroids"), feature_names=doc["feature_names"])
    raise ValueError(f"{path}: unknown model type '{doc['model']}'")


# ---------------------------------------------------------------------------
# Report writers
# ---------------------------------------------------------------------------

def _config_lines(command: str, config: dict | None):
    lines = [f"# tocc-version: {__version__}", f"# command: {command}"]
    for key in sorted((config or {}).keys()):
        lines.append(f"# {key}: {config[key]}")
    return lines


def write_csv(path, header, rows, command: str, config: dict | None = None) -> None:
    """CSV with deterministic '#' provenance comments before the header."""
    with open(path, "w", newline="") as fh:
        for line in _config_lines(command, config):
            fh.write(line + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _cell(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.bool_,)):
        return bool(v)
    return v


def _json_default(v):
    if isinstance(v, (np.floating, np.integer, np.bool_)):
        return _cell(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    raise TypeError(f"not JSON-serializable: {type(v).__name__}")


def write_json_report(path, payload: dict, command: str,
                      config: dict | None = None) -> None:
    doc = {"tocc_version": __version__, "command": command,
           "config": {k: config[k] for k in sorted(config)} if config else {},
           **payload}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=False, default=_json_default)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Minimal SVG emission (dependency-free, deterministic bytes)
# ---------------------------------------------------------------------------

_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#17becf")


def _svg_meta(command, config):
    body = "; ".join(line.lstrip("# ") for line in _config_lines(command, config))
    return f"<!-- {body} -->"


def write_roc_svg(path, curves, width=480, height=480, command="roc",
                  config=None) -> None:
    """Plot (label, RocCurve) pairs as polylines in the unit square."""
    pad = 50.0
    w, h = width - 2 * pad, height - 2 * pad

    def sx(x):
        return pad + x * w

    def sy(y):
        return height - pad - y * h

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" font-family="sans-serif" font-size="12">',
             _svg_meta(command, config),
             f'<rect x="{pad}" y="{pad}" width="{w}" height="{h}" fill="none" '
             f'stroke="black"/>',
             f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(1)}" y2="{sy(1)}" '
             f'stroke="#999" stroke-dasharray="4 3"/>',
             f'<text x="{width / 2}" y="{height - 12}" text-anchor="middle">'
             f'false positive rate</text>',
             f'<text x="14" y="{height / 2}" text-anchor="middle" '
             f'transform="rotate(-90 14 {height / 2})">true positive rate</text>']
    for i, (label, curve) in enumerate(curves):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}"
                       for x, y in zip(curve.fpr, curve.tpr))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{pad + 8}" y="{pad + 16 + 14 * i}" fill="{color}">'
                     f'{label} (auc={curve.auc:.3f})</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def write_boxplot_svg(path, groups: dict, width=640, height=420,
                      ylabel: str = "specificity", command="bench",
                      config=None) -> None:
    """Median/quartile/whisker boxes, one per named group of values."""
    pad = 55.0
    names = list(groups.keys())
    w, h = width - 2 * pad, height - 2 * pad
    lo = min((min(v) for v in groups.values() if len(v)), default=0.0)
    hi = max((max(v) for v in groups.values() if len(v)), default=1.0)
    lo, hi = min(lo, 0.0), max(hi, 1.0)

    def sy(y):
        return height - pad - (y - lo) / (hi - lo) * h

    slot = w / max(len(names), 1)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" font-family="sans-serif" font-size="12">',
             _svg_meta(command, config),
             f'<rect x="{pad}" y="{pad}" width="{w}" height="{h}" fill="none" '
             f'stroke="black"/>',
             f'<text x="14" y="{height / 2}" text-anchor="middle" '
             f'transform="rotate(-90 14 {height / 2})">{ylabel}</text>']
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(f'<line x1="{pad - 4}" y1="{sy(tick):.2f}" x2="{pad}" '
                     f'y2="{sy(tick):.2f}" stroke="black"/>')
        parts.append(f'<text x="{pad - 8}" y="{sy(tick) + 4:.2f}" '
                     f'text-anchor="end">{tick:g}</text>')
    for i, name in enumerate(names):
        vals = np.asarray(groups[name], dtype=float)
        cx = pad + slot * (i + 0.5)
        parts.append(f'<text x="{cx:.2f}" y="{height - pad + 16}" '
                     f'text-anchor="middle">{name}</text>')
        if vals.size == 0:
            continue
        q1, med, q3 = (np.percentile(vals, q) for q in (25, 50, 75))
        bw = min(slot * 0.5, 48.0)
        parts.append(f'<line x1="{cx:.2f}" y1="{sy(vals.min()):.2f}" '
                     f'x2="{cx:.2f}" y2="{sy(vals.max()):.2f}" stroke="black"/>')
        parts.append(f'<rect x="{cx - bw / 2:.2f}" y="{sy(q3):.2f}" '
                     f'width="{bw:.2f}" height="{abs(sy(q1) - sy(q3)):.2f}" '
                     f'fill="#cfe2f3" stroke="black"/>')
        parts.append(f'<line x1="{cx - bw / 2:.2f}" y1="{sy(med):.2f}" '
                     f'x2="{cx + bw / 2:.2f}" y2="{sy(med):.2f}" '
                     f'stroke="black" stroke-width="2"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
