"""Command-line entry points chaining the pipeline stages.

Every subcommand that trains or analyzes reads the same config file format
(see runconfig); repeated ``--set section.key=value`` flags override file
values, which keeps archived configs authoritative while still allowing
one-off tweaks.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path as FsPath

import numpy as np

from . import __version__
from .bounds import (
    TheoremInputs,
    discovery_probability_lb,
    ensemble_validation_bound,
    epsilon_interval,
    monte_carlo_coverage,
)
from .dataio import load_csv, load_idx, save_csv
from .ensemble import (
    _member_model_to_doc,
    analyze_model,
    classify_batch,
    load_bundle,
    tier_report,
    train_ensemble,
)
from .network import Dataset, accuracy, init_network, save_network, load_network, train
from .paths import save_path_model
from .pipeline import (
    PipelineError,
    emit_split_features,
    load_dataset,
    run_pipeline,
    write_predictions,
)
from .report import canonical_json, format_percent, format_tier_tables, render_report
from .runconfig import ConfigError, RunConfig, load_run_config


def _add_config_args(p: argparse.ArgumentParser):
    p.add_argument("--config", required=True, help="run config file")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="SECTION.KEY=VALUE", help="override a config value")


def _load_cfg(args) -> RunConfig:
    return load_run_config(args.config, args.overrides)


def _holdout(ds: Dataset, fraction: float):
    """Deterministic tail holdout used by the single-model subcommands."""
    if not 0.0 < fraction < 1.0:
        raise ConfigError("--val-fraction must lie in (0, 1)")
    n_val = max(1, int(round(fraction * len(ds))))
    if n_val >= len(ds):
        raise ConfigError("validation holdout swallows the whole dataset")
    split = len(ds) - n_val
    return ds.subset(np.arange(split)), ds.subset(np.arange(split, len(ds)))


def cmd_ingest(args) -> int:
    if args.images:
        if not args.labels:
            raise ConfigError("--images needs a matching --labels file")
        ds = load_idx(args.images, args.labels)
    else:
        ds = load_csv(args.csv)
    if args.limit > 0:
        ds = ds.subset(np.arange(min(args.limit, len(ds))))
    save_csv(ds, args.out)
    classes = int(ds.labels.max()) + 1 if len(ds) else 0
    print(f"wrote {args.out}: {len(ds)} points, dim {ds.dim}, {classes} classes")
    return 0


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    data = load_dataset(cfg, "train")
    train_set, val_set = _holdout(data, args.val_fraction)
    net = train(init_network(cfg.net_cfg, cfg.train_cfg.rng_seed),
                train_set, val_set, cfg.train_cfg)
    save_network(net, args.out)
    print(f"wrote {args.out}: validation accuracy {format_percent(accuracy(net, val_set))}")
    return 0


def cmd_analyze(args) -> int:
    cfg = _load_cfg(args)
    data = load_dataset(cfg, "train")
    train_set, val_set = _holdout(data, args.val_fraction)
    net = load_network(args.network)
    mm, train_good = analyze_model(
        net, train_set, val_set, cfg.cluster_policy, cfg.grid,
        cfg.target_accuracy, cfg.stats_basis)
    out = FsPath(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_path_model(mm.path_model, out / "path_model.json")
    doc = _member_model_to_doc(mm)
    (out / "stats.json").write_text(canonical_json(doc["stats"]))
    (out / "filter.json").write_text(canonical_json({**doc["params"], **doc["search"]}))
    flag = "" if mm.search.met_target else " (target missed)"
    print(f"filter keeps {int(train_good.sum())}/{len(train_set)} train points; "
          f"validation retains {mm.search.retained_count}/{len(val_set)} at "
          f"{format_percent(mm.search.retained_accuracy)}{flag}")
    print(f"artifacts in {out}")
    return 0


def cmd_ensemble_train(args) -> int:
    from .ensemble import save_bundle
    cfg = _load_cfg(args)
    data = load_dataset(cfg, "train")
    bundle = train_ensemble(
        data, cfg.scheme, cfg.net_cfg, cfg.train_cfg, cfg.grid, cfg.target_accuracy,
        cluster_policy=cfg.cluster_policy, agreement=cfg.agreement,
        stats_basis=cfg.stats_basis, copies=cfg.copies,
        progress=print if args.verbose else None)
    out = args.out or str(FsPath(cfg.out_dir) / "bundle")
    save_bundle(bundle, out)
    print(f"wrote bundle with {bundle.n_members} members to {out}")
    return 0


def cmd_ensemble_test(args) -> int:
    cfg = _load_cfg(args)
    test_data = load_dataset(cfg, "test")
    bundle = load_bundle(args.bundle)
    tiers = classify_batch(bundle, test_data.points)
    labels = np.asarray([tv.label for tv in tiers])
    tr = tier_report(tiers, labels, test_data.labels)
    print(format_tier_tables(tr))
    if args.out:
        write_predictions(args.out, tiers, labels, test_data.labels)
        print(f"wrote {args.out}")
    return 0


def cmd_features(args) -> int:
    cfg = _load_cfg(args)
    data = load_dataset(cfg, "train")
    bundle = load_bundle(args.bundle)
    mm = bundle.members[0].model1
    fold_train = data.subset(bundle.folds()[0][0])
    settings = dataclasses.replace(cfg.features, enabled=True)
    out = args.out or str(FsPath(cfg.out_dir) / "features")
    entries, files = emit_split_features(
        mm, fold_train, settings, data.points.mean(axis=0), out)
    print(f"emitted {len(files)} images for {len(entries)} splits to {out}")
    return 0


def cmd_bounds(args) -> int:
    if args.what == "discovery":
        print(f"{discovery_probability_lb(args.k):.6f}")
    elif args.what == "interval":
        br = epsilon_interval(TheoremInputs(args.k, args.n, args.eps_prime, args.z))
        lo, hi = br.interval
        print(f"interval [{lo:.6f}, {hi:.6f}], discovery probability >= "
              f"{br.confidence_lb:.6f}")
    elif args.what == "ensemble":
        bound = ensemble_validation_bound(args.v, Fraction(args.f1), Fraction(args.f2))
        print(f"{float(bound):.6f}")
    else:
        cov = monte_carlo_coverage(args.eps, args.n, args.k, args.trials,
                                   args.seed, z=args.z)
        print(f"{cov:.4f}")
    return 0


def cmd_report(args) -> int:
    doc = json.loads((FsPath(args.run) / "report.json").read_text())
    print(render_report(doc), end="")
    return 0


def cmd_pipeline(args) -> int:
    cfg = _load_cfg(args)
    manifest = run_pipeline(cfg, progress=print if args.verbose else None)
    print(render_report(manifest.report), end="")
    print(f"artifacts in {manifest.out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathens",
        description="Cluster-path analysis of feed-forward networks and "
                    "three-tier selective ensembles.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert IDX or CSV data to canonical CSV")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--images", help="IDX image file (optionally .gz)")
    src.add_argument("--csv", help="CSV dataset file")
    p.add_argument("--labels", help="IDX label file (with --images)")
    p.add_argument("--limit", type=int, default=0, help="keep only the first N points")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("train", help="train one network with a tail holdout")
    _add_config_args(p)
    p.add_argument("--val-fraction", type=float, default=0.1)
    p.add_argument("--out", required=True, help="network JSON path")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("analyze", help="path model, split stats, and filter search "
                                       "for a trained network")
    _add_config_args(p)
    p.add_argument("--network", required=True, help="network JSON from train")
    p.add_argument("--val-fraction", type=float, default=0.1)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("ensemble-train", help="train the two-model ensemble")
    _add_config_args(p)
    p.add_argument("--out", help="bundle directory (default <output.dir>/bundle)")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_ensemble_train)

    p = sub.add_parser("ensemble-test", help="three-tier classification of the test set")
    _add_config_args(p)
    p.add_argument("--bundle", required=True, help="bundle directory")
    p.add_argument("--out", help="per-point predictions CSV")
    p.set_defaults(fn=cmd_ensemble_test)

    p = sub.add_parser("features", help="emit averaged and synthesized split images")
    _add_config_args(p)
    p.add_argument("--bundle", required=True, help="bundle directory")
    p.add_argument("--out", help="image directory (default <output.dir>/features)")
    p.set_defaults(fn=cmd_features)

    p = sub.add_parser("bounds", help="closed-form bound calculators")
    bsub = p.add_subparsers(dest="what", required=True)
    b = bsub.add_parser("discovery", help="probability floor for k networks")
    b.add_argument("--k", type=int, required=True)
    b = bsub.add_parser("interval", help="error interval around the worst observed rate")
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--eps-prime", type=float, required=True)
    b.add_argument("--z", type=float, default=2.0)
    b = bsub.add_parser("ensemble", help="cap on incorrect voted points")
    b.add_argument("--v", type=int, required=True)
    b.add_argument("--f1", required=True, help="fraction, e.g. 0.5 or 3/5")
    b.add_argument("--f2", required=True)
    b = bsub.add_parser("coverage", help="Monte-Carlo interval coverage")
    b.add_argument("--eps", type=float, required=True)
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--trials", type=int, default=10000)
    b.add_argument("--seed", type=int, required=True)
    b.add_argument("--z", type=float, default=2.0)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("report", help="print the tables of a finished run")
    p.add_argument("--run", required=True, help="run output directory")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("pipeline", help="full run: load, train, test, bounds, report")
    _add_config_args(p)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
