"""Command-line entry point wiring the library into reproducible workflows.

Every subcommand validates its configuration, runs the corresponding library
pipeline, and writes deterministic output files (provenance comments carry
the configuration, seed, and library version; wall-clock timings go to
stdout only, never into files). Validation failures exit nonzero with a
single-line error on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .evaluation import (ALL_METHODS, TOCC_METHODS, fit_method, make_method,
                         roc_curve, run_benchmark)
from .featsel import kappa_vip, pca_reduce, require_projection_width
from .glass import FRONTENDS, SUBSETS, load_glass, run_glass_repro
from .io_utils import (ingest_csv, load_model, save_model, write_boxplot_svg,
                       write_csv, write_json_report, write_roc_svg)
from .numcore import (GLASS_SETTINGS, ConvergenceError, RngStream, Settings,
                      check_setting)
from .simgen import SCENARIOS, ScenarioSpec, generate

DEFAULT_SEED = 20260808


def _default_seed() -> int:
    """TOCC_SEED if set and not empty, else DEFAULT_SEED; ValueError unless
    it is a non-negative integer."""
    env = os.environ.get("TOCC_SEED")
    try:
        seed = int(env) if env else DEFAULT_SEED
    except ValueError:
        seed = -1
    if seed < 0:
        raise ValueError(f"TOCC_SEED={env!r} must be a non-negative integer")
    return seed


def _add_data_args(p):
    p.add_argument("--data", help="input CSV with a header row")
    p.add_argument("--glass", action="store_true",
                   help="use the bundled glass dataset instead of --data")
    p.add_argument("--glass-subset", default="float-windows",
                   choices=list(SUBSETS))
    p.add_argument("--label-column", help="column holding class labels")
    p.add_argument("--target-labels", help="comma-separated target label values")
    p.add_argument("--nontarget-labels",
                   help="comma-separated non-target label values")
    p.add_argument("--normalize-by",
                   help="divide every feature column by this column, row-wise")


def _load_data(args):
    if args.glass:
        return load_glass(subset=args.glass_subset)
    if not args.data:
        raise ValueError("provide --data or --glass")
    target = args.target_labels.split(",") if args.target_labels else None
    nontarget = args.nontarget_labels.split(",") if args.nontarget_labels else None
    return ingest_csv(args.data, label_column=args.label_column,
                      target_labels=target, nontarget_labels=nontarget,
                      normalize_by=args.normalize_by)


def _target_rows(data):
    if data.row_labels is None:
        return data
    return data.select_rows(data.is_target())


def _config(args, keys):
    return {k: getattr(args, k.replace("-", "_")) for k in keys
            if getattr(args, k.replace("-", "_"), None) is not None}


def _components_range(text):
    """The (lo, hi) of --components lo:hi, or (n, n) of --components n."""
    lo, _, hi = text.partition(":")
    try:
        return (int(lo), int(hi or lo))
    except ValueError:
        raise ValueError(f"--components {text!r} must be lo:hi, two integers"
                         " (or one)") from None


def _settings(args) -> Settings | None:
    """The fitting settings record of a subcommand's options, checked by
    Settings; None for a subcommand that takes none. An option a
    subcommand lacks keeps the record's default. The subcommand's other
    options whose rules need no data, --seed among them, are checked first,
    by the rules the library applies (--d's bound depends on the table's
    width, so a fit checks it, and glass-repro once it has read the
    table)."""
    for name in ("s", "kappa", "b1", "b2", "n_keep", "reps"):
        if hasattr(args, name):
            check_setting(name, getattr(args, name))
    if hasattr(args, "seed"):
        RngStream(args.seed)
    given = {name: getattr(args, name) for name in ("k", "kmeans_k", "mc_samples")
             if hasattr(args, name)}
    if hasattr(args, "components"):
        given["components_range"] = _components_range(args.components)
    return Settings(**given) if given else None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_fit(args):
    data = _load_data(args)
    train = _target_rows(data)
    model = fit_method(args.method, train, args.s, RngStream(args.seed),
                       **vars(args.settings))
    config = _config(args, ["method", "s", "k", "kmeans_k", "mc_samples",
                            "components", "seed"])
    save_model(model, args.out, config=config)
    print(f"fitted {args.method} on {train.n} target rows "
          f"({train.p} features) -> {args.out}")
    if args.method == "pam-tocc-df" and model.n_prototypes != args.k:
        print(f"cluster count reduced to k={model.n_prototypes} "
              f"(an undersized cluster blocked k={args.k})")
    return 0


def _predictions(args):
    model = load_model(args.model)
    data = _load_data(args)
    return data, model.predict(data)


def cmd_predict(args):
    data, pred = _predictions(args)
    decision = np.where(pred.accept, "accept", "reject")
    cluster = [""] * data.n if pred.cluster is None else pred.cluster
    write_csv(args.out, ["row", "score", "decision", "cluster"],
              [range(data.n), pred.score, decision, cluster],
              "predict", _config(args, ["model", "data", "glass", "seed"]))
    print(f"predicted {data.n} rows -> {args.out} "
          f"({int(pred.accept.sum())} accepted)")
    return 0


def cmd_score(args):
    data, pred = _predictions(args)
    write_csv(args.out, ["row", "score"], [range(data.n), pred.score], "score",
              _config(args, ["model", "data", "glass", "seed"]))
    print(f"scored {data.n} rows -> {args.out}")
    return 0


def cmd_roc(args):
    data, pred = _predictions(args)
    if data.row_labels is None:
        raise ValueError("roc requires labeled data (--label-column or --glass)")
    curve = roc_curve(pred.typicality(), data.is_target())
    config = {**_config(args, ["model", "data", "glass"]), "auc": repr(curve.auc)}
    write_csv(args.out, ["fpr", "tpr", "threshold"],
              [curve.fpr, curve.tpr, curve.thresholds], "roc", config)
    if args.svg:
        write_roc_svg(args.svg, [(os.path.basename(args.model), curve)],
                      config=config)
    print(f"roc: auc={curve.auc:.4f} ({curve.fpr.size} points) -> {args.out}")
    return 0


def cmd_reduce(args):
    data = _load_data(args)
    fit_on = _target_rows(data) if args.fit_on == "target" and data.row_labels \
        else data
    reducer, _ = pca_reduce(fit_on, args.d, which=args.which)
    reduced = reducer.apply(data)
    columns = list(reduced.values.T)
    header = list(reduced.feature_names)
    if data.row_labels is not None:
        columns.append(data.row_labels)
        header.append("label")
    write_csv(args.out, header, columns, "reduce",
              _config(args, ["data", "glass", "d", "which", "fit_on"]))
    print(f"reduced to {args.d} components ({args.which}) -> {args.out}")
    return 0


def cmd_vip(args):
    data = _load_data(args)
    train = _target_rows(data)
    ranking, selected = kappa_vip(train, args.d, args.b1, args.b2, args.kappa,
                                  args.n_keep, RngStream(args.seed).child(1))
    order = ranking.ranking.tolist()
    columns = [[train.feature_names[j] for j in order], ranking.vip[order],
               ["yes" if j in selected else "no" for j in order]]
    write_csv(args.out, ["feature", "vip", "selected"], columns, "vip",
              _config(args, ["d", "b1", "b2", "kappa", "n_keep", "seed"]))
    names = [train.feature_names[j] for j in selected]
    print(f"vip ranking -> {args.out}; kappa-VIP selected: {', '.join(names)}")
    return 0


def cmd_simulate(args):
    spec = ScenarioSpec(args.scenario, args.n_target, RngStream(args.seed),
                        n_nontarget=args.n_nontarget, lam=args.lam,
                        box_scale=args.box_scale)
    sample = generate(spec)
    values = np.concatenate([sample.target.values, sample.nontarget.values])
    labels = ["target"] * sample.target.n + ["non-target"] * sample.nontarget.n
    config = _config(args, ["scenario", "n_target", "n_nontarget",
                            "box_scale", "seed"])
    config["lambda"] = args.lam
    write_csv(args.out, ["x1", "x2", "label"], [*values.T, labels], "simulate",
              config)
    write_json_report(args.out + ".meta.json",
                      {"n_target": spec.n_target,
                       "n_nontarget": spec.nontarget_size,
                       "scenario": spec.id, "lambda": spec.lam,
                       "box_scale": spec.box_scale, "seed": args.seed},
                      "simulate", config)
    print(f"scenario {args.scenario}: {spec.n_target} target + "
          f"{spec.nontarget_size} non-target rows -> {args.out}")
    return 0


def cmd_bench(args):
    methods = args.methods.split(",") if args.methods else list(ALL_METHODS)
    spec = ScenarioSpec(args.scenario, args.n_target, RngStream(args.seed),
                        lam=args.lam, box_scale=args.box_scale)
    method_objs = [make_method(m, args.s, **vars(args.settings)) for m in methods]
    result = run_benchmark(method_objs, spec, args.reps, args.s)

    config = _config(args, ["scenario", "n_target", "reps", "s", "seed", "k",
                            "mc_samples"])
    config["lambda"] = args.lam
    config["methods"] = ",".join(methods)
    reports = result.reports
    columns = [[r.method for r in reports], [r.replication for r in reports]]
    for name in ("sensitivity", "specificity", "auc"):
        values = (getattr(r, name) for r in reports)
        columns.append(["" if v is None else v for v in values])
    columns.append([r.error or "" for r in reports])
    write_csv(args.out, ["method", "replication", "sensitivity", "specificity",
                         "auc", "error"], columns, "bench", config)

    summary = result.summary()
    printable = {}
    for name, stats in summary.items():
        printable[name] = {k: v for k, v in stats.items()
                           if k != "mean_time_seconds"}
    if args.summary:
        write_json_report(args.summary, {"summary": printable}, "bench", config)
    if args.svg:
        groups = {m: [r.specificity for r in result.for_method(m)
                      if r.specificity is not None] for m in methods}
        write_boxplot_svg(args.svg, groups, config=config)

    for name in methods:
        stats = summary.get(name, {})
        med = stats.get("spec_median")
        t = stats.get("mean_time_seconds")
        med_txt = f"{med:.3f}" if med is not None else "n/a"
        t_txt = f"{t:.3f}s" if t is not None else "n/a"
        print(f"{name:12s} median specificity {med_txt}  mean time {t_txt}")
    print(f"bench: {len(result.reports)} reports -> {args.out}")
    return 0


def cmd_glass_repro(args):
    frontends = [f for f in FRONTENDS if not (args.skip_rp and f == "rp2")]
    # kappa-VIP projects the table's features onto --d of them.
    require_projection_width(args.d, load_glass(args.data, args.glass_subset).p)
    # A bad --outdir fails here, before the grid runs.
    os.makedirs(args.outdir, exist_ok=True)
    result = run_glass_repro(kappa=args.kappa, k=args.settings.k, s=args.s,
                             d=args.d, b1=args.b1, b2=args.b2,
                             mc_samples=args.settings.mc_samples,
                             seed=args.seed, data_path=args.data,
                             subset=args.glass_subset, frontends=frontends)
    config = _config(args, ["kappa", "k", "s", "d", "b1", "b2", "mc_samples",
                            "seed", "glass_subset"])

    # One walk over the grid; a skipped cell stays empty.
    tables = {"auc": [], "specificity": [], "seconds": []}
    for variant in TOCC_METHODS:
        cells = [result.cells.get((variant, f)) for f in FRONTENDS]
        for metric, rows in tables.items():
            rows.append([variant] + [getattr(c, metric) if c else ""
                                     for c in cells])

    header = ["variant"] + list(FRONTENDS) + ["varsel2"]
    for metric in ("auc", "specificity"):
        # The external variable-selection column is n/a, see the report.
        rows = tables[metric]
        write_csv(os.path.join(args.outdir, f"{metric}_table.csv"), header,
                  [*zip(*rows), ["n/a"] * len(rows)], "glass-repro", config)
    _write_repro_report(os.path.join(args.outdir, "report.md"), result, config,
                        args.data)

    print(f"glass-repro ({args.glass_subset}, kappa={args.kappa}):")
    print(f"{'variant':14s} " + " ".join(f"{f:>18s}" for f in FRONTENDS))
    for metric, title, fmt in (
            ("auc", "auc", "18.3f"), ("specificity", "specificity", "18.3f"),
            ("seconds", "wall time (seconds, not persisted)", "18.2f")):
        print(f"-- {title}")
        for variant, *values in tables[metric]:
            print(f"{variant:14s} " + " ".join(
                format(v, fmt) if v != "" else f"{'skipped':>18s}"
                for v in values))
    for note in result.notes:
        print(note)
    print(f"tables -> {args.outdir}")
    return 0


def _write_repro_report(path, result, config, data_path):
    """report.md of a glass study; data_path is the table it read, None for
    the bundled one."""
    lines = ["# Glass study notes", ""]
    lines.append("Configuration: " + ", ".join(f"{k}={v}" for k, v in
                                               sorted(config.items())))
    lines.append("")
    float_only = config["glass_subset"] == "float-windows"
    types = SUBSETS[config["glass_subset"]][0]
    codes = ", ".join(map(str, types[:-1])) + f" and {types[-1]}"
    table = "the bundled table" if data_path is None else data_path
    line = (f"- Target class: {'float-process ' if float_only else ''}window"
            f" fragments (types {codes} of {table}, {result.n_target}"
            " rows); non-target: containers, tableware and headlamps (types"
            f" 5-7, {result.n_nontarget} rows).")
    if float_only:
        line += (" Non-float building windows (type 2) are excluded from this"
                 " study subset.")
    lines.append(line)
    lines.append("- Features are the raw refractive index and element"
                 " concentrations. No oxygen column exists in the public"
                 " table, so no per-row oxygen renormalization is applied;"
                 " ingest_csv(normalize_by=...) provides it for tables that"
                 " carry a reference column.")
    lines.append("- The external model-based variable-selection column is out"
                 " of scope here and reported as n/a.")
    for note in result.notes:
        lines.append(f"- {note}")
    for (variant, frontend), cell in sorted(result.cells.items()):
        lines.append(f"- {variant} / {frontend}: auc={cell.auc:.4f}, "
                     f"specificity={cell.specificity:.4f}, "
                     f"sensitivity={cell.sensitivity:.4f}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tocc",
        description="Transvariation-based one-class classification toolkit")
    parser.add_argument("--version", action="version",
                        version=f"tocc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a classifier on target rows")
    _add_data_args(p)
    p.add_argument("--method", required=True,
                   choices=list(ALL_METHODS))
    p.add_argument("--s", type=float, default=0.9,
                   help="minimum training sensitivity")
    p.add_argument("--k", type=int, default=GLASS_SETTINGS.k,
                   help="PAM cluster count")
    p.add_argument("--kmeans-k", type=int, default=GLASS_SETTINGS.kmeans_k)
    p.add_argument("--mc-samples", type=int, default=GLASS_SETTINGS.mc_samples)
    p.add_argument("--components",
                   default="{}:{}".format(*GLASS_SETTINGS.components_range),
                   help="mixture component range lo:hi")
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    for name, func, help_text in (
            ("predict", cmd_predict, "accept/reject rows with a saved model"),
            ("score", cmd_score, "typicality scores only"),
            ("roc", cmd_roc, "ROC curve of a saved model on labeled data")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--model", required=True)
        _add_data_args(p)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=_default_seed())
        if name == "roc":
            p.add_argument("--svg", help="also draw the curve to this SVG file")
        p.set_defaults(func=func)

    p = sub.add_parser("reduce", help="project onto principal components")
    _add_data_args(p)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--which", choices=["last", "first"], default="last")
    p.add_argument("--fit-on", choices=["target", "all"], default="target")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("vip", help="rank features by projection importance")
    _add_data_args(p)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--b1", type=int, default=101)
    p.add_argument("--b2", type=int, default=50)
    p.add_argument("--kappa", type=float, default=0.5)
    p.add_argument("--n-keep", type=int, default=2)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_vip)

    p = sub.add_parser("simulate", help="draw one synthetic scenario")
    p.add_argument("--scenario", required=True, choices=list(SCENARIOS))
    p.add_argument("--n-target", type=int, default=500)
    p.add_argument("--n-nontarget", type=int)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--box-scale", type=float, default=3.0)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench", help="replicated scenario benchmark")
    p.add_argument("--scenario", required=True, choices=list(SCENARIOS))
    p.add_argument("--n-target", type=int, default=500)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--box-scale", type=float, default=3.0)
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--s", type=float, default=0.9)
    p.add_argument("--methods", help="comma-separated subset of: "
                                     + ",".join(ALL_METHODS))
    p.add_argument("--k", type=int, default=Settings.k,
                   help="PAM cluster count")
    p.add_argument("--mc-samples", type=int, default=Settings.mc_samples)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--out", required=True)
    p.add_argument("--summary", help="also write a JSON summary here")
    p.add_argument("--svg", help="also draw a specificity boxplot here")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("glass-repro",
                       help="full evaluation grid on the glass study")
    p.add_argument("--data", help="custom glass CSV (defaults to bundled)")
    p.add_argument("--glass-subset", default="float-windows",
                   choices=list(SUBSETS))
    p.add_argument("--kappa", type=float, default=0.5)
    p.add_argument("--k", type=int, default=GLASS_SETTINGS.k)
    p.add_argument("--s", type=float, default=0.9)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--b1", type=int, default=101)
    p.add_argument("--b2", type=int, default=50)
    p.add_argument("--mc-samples", type=int, default=GLASS_SETTINGS.mc_samples)
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--skip-rp", action="store_true",
                   help="skip the (slow) random-projection column")
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_glass_repro)

    return parser


def main(argv=None) -> int:
    # Bad input (IngestError is a ValueError), a bad TOCC_SEED, paths that
    # cannot be read or written, and a spatial median that does not converge
    # on the data end in one line on stderr. Every other RuntimeError is a
    # broken invariant and stays loud. Every option whose rule needs no data
    # is checked before a subcommand reads a file or makes a directory.
    try:
        args = build_parser().parse_args(argv)
        args.settings = _settings(args)
        return args.func(args)
    except (ValueError, OSError, ConvergenceError) as exc:
        print(f"tocc: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
