"""End-to-end run driver: load, train, test, bound check, features, report.

Each stage is timed and error-tagged. A failing stage aborts the run with
its name and a stage-specific exit code; artifacts written before the
failure stay on disk for inspection. Two runs of the same config produce
byte-identical report.json files (run_manifest.json carries the timings
and is the one file allowed to differ).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path as FsPath

import numpy as np

from . import __version__
from .bounds import TheoremInputs, epsilon_interval, verify_ensemble_bound
from .dataio import load_csv, load_external_predictions, load_idx
from .ensemble import (
    EnsembleBundle,
    classify_batch,
    large_model_route,
    measure_bound_inputs,
    save_bundle,
    tier_report,
    train_ensemble,
)
from .features import activation_maximization, emit_image, good_splits, split_mean_feature
from .network import Dataset, accuracy, forward_batch
from .paths import compute_paths
from .report import canonical_json, render_report
from .runconfig import RunConfig

STAGE_EXIT_CODES = {
    "config": 2,
    "load": 3,
    "ensemble": 4,
    "test": 5,
    "bounds": 6,
    "features": 7,
    "route": 8,
    "report": 9,
}


class PipelineError(RuntimeError):
    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage

    @property
    def exit_code(self) -> int:
        return STAGE_EXIT_CODES.get(self.stage, 1)


@dataclass
class RunManifest:
    out_dir: FsPath
    report: dict
    manifest: dict


def emit_split_features(mm, fold_train: Dataset, settings, mean_init, feat_dir):
    """Averaged and synthesized images for one model's good splits.

    Works on the splits feeding the configured layer (``settings.layer`` in
    trace numbering, so layer 1 means input-to-first-hidden splits). Each
    split that passes the model's own count and accuracy thresholds gets an
    averaged image; synthesis runs once per destination center and is shared
    by splits landing in it. Returns (report entries, written file paths).
    """
    feat_dir = FsPath(feat_dir)
    feat_dir.mkdir(parents=True, exist_ok=True)
    layer = settings.layer
    if not 1 <= layer < mm.path_model.n_layers:
        raise ValueError(f"features layer must be in [1, {mm.path_model.n_layers - 1}]")
    _, acts = forward_batch(mm.net, fold_train.points, record=True)
    ids, _ = compute_paths(mm.path_model, acts)
    splits = [sp for sp in good_splits(mm.stats, mm.params) if sp.layer == layer - 1]
    if settings.max_splits > 0:
        splits = splits[:settings.max_splits]
    centers = mm.path_model.cluster_sets[layer].centers
    synth_cache: dict[int, tuple] = {}
    entries, files = [], []
    for sp in splits:
        entry = {"split": sp.key}
        if settings.method in ("average", "both"):
            avg = split_mean_feature(sp, fold_train, ids)
            avg_file = feat_dir / f"avg_{sp.layer}_{sp.src}_{sp.dst}.pgm"
            emit_image(avg, avg_file)
            files.append(str(avg_file))
            entry["average_file"] = avg_file.name
        if settings.method in ("backprop", "both"):
            if sp.dst not in synth_cache:
                img, losses = activation_maximization(
                    mm.net, layer, centers[sp.dst], settings.steps,
                    settings.step_size, mean_init,
                    tag=f"layer{layer}:cluster{sp.dst}")
                synth_file = feat_dir / f"synth_{layer}_c{sp.dst}.pgm"
                emit_image(img, synth_file)
                files.append(str(synth_file))
                synth_cache[sp.dst] = (synth_file.name, losses[0], min(losses))
            name, init_loss, final_loss = synth_cache[sp.dst]
            entry.update({
                "backprop_file": name,
                "init_loss": init_loss,
                "final_loss": final_loss,
            })
        entries.append(entry)
    return entries, files


def load_dataset(cfg: RunConfig, which: str) -> Dataset:
    """The config's "train" or "test" data, cut to its limit and checked
    against the network's input width and class count."""
    src, limit = ((cfg.train_source, cfg.limit_train) if which == "train"
                  else (cfg.test_source, cfg.limit_test))
    ds = load_csv(src.csv) if src.kind == "csv" else load_idx(src.images, src.labels)
    if limit > 0:
        ds = ds.subset(np.arange(min(limit, len(ds))))
    if ds.dim != cfg.net_cfg.input_dim:
        raise ValueError(
            f"{which} data dim {ds.dim} does not match network input {cfg.net_cfg.input_dim}")
    if len(ds) and ds.labels.max() >= cfg.net_cfg.n_classes:
        raise ValueError(
            f"{which} data has label {ds.labels.max()} but the network "
            f"has {cfg.net_cfg.n_classes} classes")
    return ds


def write_predictions(path, tiers, labels, truth) -> None:
    """Per-point CSV with header ``index,tier,label,truth``."""
    rows = [f"{i},{tv.tier},{int(lab)},{int(t)}"
            for i, (tv, lab, t) in enumerate(zip(tiers, labels, truth))]
    FsPath(path).write_text("\n".join(["index,tier,label,truth", *rows]) + "\n")


def _prepare_out_dir(cfg: RunConfig) -> FsPath:
    out = FsPath(cfg.out_dir)
    if out.exists() and any(out.iterdir()) and not cfg.overwrite:
        raise PipelineError(
            "config",
            f"output directory {out} is not empty; pass overwrite to reuse it",
        )
    out.mkdir(parents=True, exist_ok=True)
    return out


def run_pipeline(cfg: RunConfig, progress=None) -> RunManifest:
    say = progress or (lambda msg: None)
    out = _prepare_out_dir(cfg)
    artifacts: dict[str, list[str]] = {}
    timing: dict[str, float] = {}
    report: dict = {"config_fingerprint": cfg.fingerprint()}

    def run_stage(name, fn):
        say(f"stage {name}")
        t0 = time.perf_counter()
        try:
            result = fn()
        except PipelineError:
            raise
        except Exception as exc:
            raise PipelineError(name, str(exc)) from exc
        timing[name] = time.perf_counter() - t0
        return result

    # load
    def do_load():
        train_data = load_dataset(cfg, "train")
        test_data = load_dataset(cfg, "test")
        report["dataset"] = {
            "n_train": len(train_data),
            "n_test": len(test_data),
            "dim": train_data.dim,
            "n_classes": cfg.net_cfg.n_classes,
        }
        return train_data, test_data

    train_data, test_data = run_stage("load", do_load)

    # ensemble training
    def do_ensemble() -> EnsembleBundle:
        bundle = train_ensemble(
            train_data, cfg.scheme, cfg.net_cfg, cfg.train_cfg, cfg.grid,
            cfg.target_accuracy, cluster_policy=cfg.cluster_policy,
            agreement=cfg.agreement, stats_basis=cfg.stats_basis,
            copies=cfg.copies, progress=say,
        )
        bundle_dir = out / "bundle"
        save_bundle(bundle, bundle_dir)
        artifacts["ensemble"] = [str(bundle_dir / "bundle.json")] + [
            str(bundle_dir / f"member_{mb.fold_index}.json") for mb in bundle.members
        ]
        return bundle

    bundle = run_stage("ensemble", do_ensemble)

    # test-set classification and tier tables
    def do_test():
        folds = bundle.folds()
        members_doc = []
        for mb, (tr_idx, va_idx) in zip(bundle.members, folds):
            fold_val = train_data.subset(va_idx)
            members_doc.append({
                "fold": mb.fold_index,
                "val_accuracy": accuracy(mb.model1.net, fold_val),
                "test_accuracy": accuracy(mb.model1.net, test_data),
                "model2_test_accuracy": accuracy(mb.model2.net, test_data),
                "retained_count": mb.model1.search.retained_count,
                "retained_accuracy": mb.model1.search.retained_accuracy,
                "met_target": mb.model1.search.met_target,
                "n_bad_train": int(len(mb.bad_train_indices)),
            })
        tiers = classify_batch(bundle, test_data.points)
        labels = np.asarray([tv.label for tv in tiers], dtype=np.int64)
        tr = tier_report(tiers, labels, test_data.labels)
        report["members"] = members_doc
        report["tier_report"] = tr.to_doc()
        report["ensemble_test_accuracy"] = tr.overall_accuracy
        report["best_member_test_accuracy"] = max(m["test_accuracy"] for m in members_doc)
        pred_path = out / "test_predictions.csv"
        write_predictions(pred_path, tiers, labels, test_data.labels)
        artifacts["test"] = [str(pred_path)]
        return tiers

    tiers = run_stage("test", do_test)

    # bound verification over the voted training points
    def do_bounds():
        bi = measure_bound_inputs(bundle, train_data)
        check = verify_ensemble_bound(bi.v, bi.f1, bi.f2, bi.observed_incorrect)
        doc = check.to_doc()
        doc["n_voted"] = bi.n_voted
        report["bound_check"] = doc

        n_val_min = min(len(va_idx) for _, va_idx in bundle.folds())
        eps_prime = max(1.0 - m["val_accuracy"] for m in report["members"])
        inp = TheoremInputs(bundle.n_members, n_val_min, eps_prime, cfg.z)
        br = epsilon_interval(inp)
        report["theorem"] = {
            "k": inp.k, "n": inp.n, "eps_prime": inp.eps_prime, "z": inp.z,
            "confidence_lb": br.confidence_lb, "interval": list(br.interval),
        }

    run_stage("bounds", do_bounds)

    # optional feature images from the first member's original model
    if cfg.features.enabled:
        def do_features():
            mm = bundle.members[0].model1
            fold_train = train_data.subset(bundle.folds()[0][0])
            mean_init = train_data.points.mean(axis=0)
            feats_doc, files = emit_split_features(
                mm, fold_train, cfg.features, mean_init, out / "features")
            report["features"] = feats_doc
            artifacts["features"] = files

        run_stage("features", do_features)

    # optional routing with external prediction files
    if cfg.external_original:
        def do_route():
            orig = load_external_predictions(cfg.external_original, "original")
            bad = load_external_predictions(cfg.external_bad, "bad")
            routed = large_model_route(tiers, orig, bad)
            tr = tier_report(tiers, routed, test_data.labels)
            routed_path = out / "routed_predictions.csv"
            write_predictions(routed_path, tiers, routed, test_data.labels)
            artifacts["route"] = [str(routed_path)]
            report["routing"] = {
                "tier_report": tr.to_doc(),
                "overall_accuracy": tr.overall_accuracy,
            }

        run_stage("route", do_route)

    # report files
    def do_report():
        report_path = out / "report.json"
        report_path.write_text(canonical_json(report))
        text_path = out / "report.txt"
        text_path.write_text(render_report(report))
        artifacts["report"] = [str(report_path), str(text_path)]
        manifest = {
            "tool_version": __version__,
            "config_fingerprint": cfg.fingerprint(),
            "config": cfg.raw,
            "artifacts": artifacts,
            "timing_s": timing,
        }
        (out / "run_manifest.json").write_text(canonical_json(manifest))
        return manifest

    manifest = run_stage("report", do_report)
    say(f"run complete: {out}")
    return RunManifest(out, report, manifest)
