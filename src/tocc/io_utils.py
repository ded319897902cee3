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
from itertools import chain, count, islice
from typing import Callable, NamedTuple

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

# Records parsed per block. Only one block's cell strings are held at once;
# the rest of the file is held as doubles.
_BLOCK_ROWS = 1024


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
    is dropped afterwards).

    The file is read once, a block of records at a time, by one parser:
    each block is transposed, each column converted with one float
    conversion and checked with one finiteness test, normalize_by is one
    division, and each distinct label is looked up once. A cell is parsed
    as float() parses it. A check that fails on a block of several records
    parses that block's records again one at a time, in file order, through
    the same parser; the first record that fails on its own raises. A lone
    record meets the checks in row order (its cell count, each feature
    cell from left to right, the reference cell, its label), so the error
    names the row, column and cell that a row-by-row read would name.
    """
    if target_labels is None and label_column is not None:
        target_labels = {TARGET_LABEL}
        nontarget_labels = nontarget_labels or {NONTARGET_LABEL}
    target_set = {str(v) for v in target_labels} if target_labels else set()
    nontarget_set = {str(v) for v in nontarget_labels} if nontarget_labels else None

    def label_of(raw):
        """The row label of a stripped label cell; None if it is unknown."""
        if raw in target_set:
            return TARGET_LABEL
        if nontarget_set is None or raw in nontarget_set:
            return NONTARGET_LABEL
        return None

    with open(path, newline="") as fh:
        reader = csv.reader(ln for ln in fh if not ln.startswith("#"))
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty file") from None
        except csv.Error as err:
            raise IngestError(f"{path}: row 1: {err}") from None
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
                raise IngestError(f"{path}: normalize_by cannot be the label "
                                  f"column")
        feature_idx = [j for j in range(len(header))
                       if j not in (label_idx, norm_idx)]
        known = {}

        def parse(block, first_row):
            """(values, labels) of the records of block, a list of csv
            records with at least one not blank, whose first is file row
            first_row; blank records are skipped but counted."""
            records = list(filter(None, block))
            # The cell each message quotes is the lone record's: a block of
            # several records raises only through its records' own parse.
            record = records[0]

            def refuse(message):
                if len(block) > 1:
                    for r, lone in enumerate(block, first_row):
                        if lone:
                            parse([lone], r)
                raise IngestError(f"{path}: row {first_row}{message}") from None

            def floats(j):
                """Column j as finite doubles."""
                try:
                    col = np.array(columns[j], dtype=float)
                except ValueError:
                    refuse(f", column '{header[j]}': non-numeric cell "
                           f"'{record[j]}'")
                if not np.isfinite(col).all():
                    refuse(f", column '{header[j]}': non-finite cell "
                           f"'{record[j]}'")
                return col

            if set(map(len, records)) != {len(header)}:
                refuse(f": expected {len(header)} cells, got {len(record)}")
            columns = list(zip(*records))
            values = np.empty((len(records), len(feature_idx)))
            for k, j in enumerate(feature_idx):
                values[:, k] = floats(j)
            if norm_idx is not None:
                ref = floats(norm_idx)
                if not ref.all():
                    refuse(f", column '{normalize_by}': zero reference value")
                # A quotient too large for a double becomes inf without a
                # warning, as in Python float division; DataMatrix refuses it.
                with np.errstate(over="ignore"):
                    values /= ref[:, None]
            if label_idx is None:
                return values, []
            cells = columns[label_idx]
            distinct = set(cells)
            for raw in distinct.difference(known):
                known[raw] = label_of(raw.strip())
            # known keeps None for an unknown label, and so still holds it
            # while a block's records are parsed again one at a time: each
            # parse looks only at its own labels.
            if None in map(known.__getitem__, distinct):
                refuse(f", column '{label_column}': unknown label "
                       f"'{record[label_idx].strip()}'")
            return values, list(map(known.__getitem__, cells))

        blocks, labels, unreadable = [], [], None
        for first_row in count(2, _BLOCK_ROWS):
            if unreadable is not None:
                break
            block = []
            try:
                block.extend(islice(reader, _BLOCK_ROWS))
            except csv.Error as err:
                # A record csv cannot read (a cell over its field limit) ends
                # the read; the rows before it are checked first, as a
                # row-by-row read meets them.
                unreadable = IngestError(f"{path}: row {first_row + len(block)}: "
                                         f"{err}")
            if not block:
                break
            # Blank records stay in each block, so that a record's place in
            # it gives its row number.
            if any(block):
                values, block_labels = parse(block, first_row)
                blocks.append(values)
                labels += block_labels
    if unreadable is not None:
        raise unreadable
    if not blocks:
        raise IngestError(f"{path}: no data rows")
    return DataMatrix(np.concatenate(blocks), [header[j] for j in feature_idx],
                      labels if label_idx is not None else None)


# ---------------------------------------------------------------------------
# Model persistence
# ---------------------------------------------------------------------------

def _arr(a) -> list:
    return np.asarray(a, dtype=float).tolist()


def _leaves(value) -> list:
    """Every entry of a parsed JSON value, at any depth, that is neither an
    array nor an object; value itself when it is neither. One pass per
    nesting level, not one call per entry."""
    leaves, level = [], [value]
    while level:
        arrays = [v for v in level if type(v) is list]
        objects = [v.values() for v in level if type(v) is dict]
        leaves += [v for v in level if type(v) not in (list, dict)]
        level = [*chain.from_iterable(arrays), *chain.from_iterable(objects)]
    return leaves


class _Codec(NamedTuple):
    """How one kind of field value goes to JSON and back: dump writes it,
    build reads it from a JSON value of json_type (object: any), made of
    JSON numbers only when numeric. A None value is written as null, or left
    out of the file when optional."""

    dump: Callable
    build: Callable
    json_type: type = object
    optional: bool = False
    numeric: bool = False

    def load(self, name: str, value):
        # One walk serves both checks on the entries; an integer too large
        # for a float is named before a wrong type or a non-number.
        leaves = _leaves(value)
        kinds = set(map(type, leaves))
        if int in kinds:
            try:
                list(map(float, (v for v in leaves if type(v) is int)))
            except OverflowError:
                raise ValueError(f"model field '{name}' holds an integer too "
                                 f"large for a float") from None
        if not isinstance(value, self.json_type):
            kind = {dict: "an object", list: "an array"}.get(self.json_type,
                                                             "a number")
            raise ValueError(f"model field '{name}' must be {kind}, "
                             f"not {json.dumps(value):.60}")
        if self.numeric and not kinds <= {int, float}:
            raise ValueError(f"model field '{name}' must hold only numbers (no "
                             f"string, bool or null), not {json.dumps(value):.60}")
        return self.build(value)


_PLAIN = _Codec(lambda v: v, lambda v: v)
_NUMBER = _Codec(lambda v: v, lambda v: v, (int, float), numeric=True)
_FLOATS = _Codec(_arr, np.array, list, numeric=True)
# An empty list is written as null.
_ARRAYS = _Codec(lambda v: [_arr(g) for g in v] or None,
                 lambda v: [np.array(g) for g in v] or None, list, numeric=True)
_MIXTURE = _Codec(
    lambda d: {"weights": _arr(d.weights), "means": _arr(d.means),
               "covariances": _arr(d.covariances)},
    lambda o: MixtureDensity(o["weights"], o["means"], o["covariances"]), dict,
    numeric=True)
_INTEGRATOR = _Codec(
    lambda i: {"method": i.method, "mc_samples": i.mc_samples,
               "seed": i.rng.seed, "stream_id": i.rng.stream_id},
    lambda o: OrthantIntegrator(o["method"], o["mc_samples"],
                                RngStream(o["seed"], o["stream_id"])), dict)
_PAM = _Codec(
    lambda r: {"medoids": list(r.medoids),
               "assignment": [int(a) for a in r.assignment],
               "total_cost": r.total_cost},
    lambda o: PamResult(o["medoids"], o["assignment"], o["total_cost"]),
    dict, optional=True)

# Model tag -> (class, its persisted fields in file order). Loading builds
# cls(**fields), so every file passes the class's own consistency checks.
_MODELS = {
    "tocc": (ToccModel, (
        ("variant", _PLAIN), ("sensitivity", _FLOATS), ("eps", _NUMBER),
        ("prototypes", _FLOATS), ("thresholds", _FLOATS),
        ("feature_names", _PLAIN), ("groups", _ARRAYS), ("density", _MIXTURE),
        ("integrator", _INTEGRATOR), ("pam", _PAM))),
    "baseline": (BaselineModel, (
        ("kind", _PLAIN), ("sensitivity", _NUMBER), ("threshold", _NUMBER),
        ("score_direction", _PLAIN), ("feature_names", _PLAIN),
        ("mean", _FLOATS), ("cov_inv", _FLOATS), ("bandwidths", _FLOATS),
        ("train", _FLOATS), ("centroids", _FLOATS), ("density", _MIXTURE))),
}
_TAGS = {cls: tag for tag, (cls, _) in _MODELS.items()}


def save_model(model, path, config: dict | None = None) -> None:
    """Write a fitted TOCC or baseline model as schema-versioned JSON."""
    if type(model) not in _TAGS:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    tag = _TAGS[type(model)]
    doc = {"schema_version": SCHEMA_VERSION, "library_version": __version__,
           "config": config or {}, "model": tag}
    for name, codec in _MODELS[tag][1]:
        value = getattr(model, name)
        if value is not None:
            doc[name] = codec.dump(value)
        elif not codec.optional:
            doc[name] = None
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path):
    """Load a model written by save_model; predictions round-trip bit-exactly
    because floats are stored at full precision. A missing key, an
    inconsistent model or a file nested too deeply to read is a ValueError."""
    try:
        return _load_model(path)
    except RecursionError:
        raise ValueError(f"{path}: model file is nested too deeply to "
                         f"read") from None


def _load_model(path):
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a model file must hold a JSON object, "
                         f"not {json.dumps(doc)[:40]}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported schema version "
                         f"{doc.get('schema_version')}")
    try:
        if not isinstance(doc["model"], str) or doc["model"] not in _MODELS:
            raise ValueError(f"{path}: unknown model type '{doc['model']}'")
        cls, fields = _MODELS[doc["model"]]
        kwargs = {}
        for name, codec in fields:
            value = doc.get(name) if codec.optional else doc[name]
            kwargs[name] = None if value is None else codec.load(name, value)
        return cls(**kwargs)
    except KeyError as exc:
        raise ValueError(f"{path}: model file lacks the key {exc}") from None


# ---------------------------------------------------------------------------
# Report writers
# ---------------------------------------------------------------------------

def _config_lines(command: str, config: dict | None):
    lines = [f"# tocc-version: {__version__}", f"# command: {command}"]
    for key in sorted((config or {}).keys()):
        lines.append(f"# {key}: {config[key]}")
    return lines


def write_csv(path, header, columns, command: str,
              config: dict | None = None) -> None:
    """CSV with deterministic '#' provenance comments before the header.

    columns holds one sequence per header name, all of one length; an
    array is written as its Python values (tolist), any other sequence as
    it is. csv writes a Python float as its repr, the shortest text that
    reads back as the same double. The rows are written in one pass over
    the columns.
    """
    cells = [col.tolist() if isinstance(col, np.ndarray) else col
             for col in columns]
    with open(path, "w", newline="") as fh:
        for line in _config_lines(command, config):
            fh.write(line + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*cells))


def _json_default(v):
    if isinstance(v, np.floating):
        return repr(float(v))
    if isinstance(v, (np.integer, np.bool_)):
        return v.item()
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


def write_roc_svg(path, curves, config=None) -> None:
    """Plot (label, RocCurve) pairs as polylines in the unit square."""
    width = height = 480
    pad = 50.0
    w, h = width - 2 * pad, height - 2 * pad

    def sx(x):
        return pad + x * w

    def sy(y):
        return height - pad - y * h

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" font-family="sans-serif" font-size="12">',
             _svg_meta("roc", config),
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


def write_boxplot_svg(path, groups: dict, config=None) -> None:
    """Specificity boxes (median, quartiles, whiskers), one per named group
    of values."""
    width, height = 640, 420
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
             _svg_meta("bench", config),
             f'<rect x="{pad}" y="{pad}" width="{w}" height="{h}" fill="none" '
             f'stroke="black"/>',
             f'<text x="14" y="{height / 2}" text-anchor="middle" '
             f'transform="rotate(-90 14 {height / 2})">specificity</text>']
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
