"""In-memory span tracer for the benchmark's traced run.

Each layer's public functions are wrapped where their callers look them
up (``pathens.ensemble.train``, ``pathens.paths.kmeans``, ...), so the
package itself carries no timing code. A wrapped call records one span
(name, start, end, parent) and may add to named counters at the same
boundary. Self time is a span's duration minus the time its direct
children cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from pathens import clustering, ensemble, features, network, paths, pipeline

ROOT_SPAN = "unit"


class Tracer:
    """Spans and counters of one traced unit of work."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.missing: list[str] = []  # wrap sites the code no longer has

    def call(self, name, fn, args, kwargs):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def add(self, key: str, amount) -> None:
        self.counts[key] += float(amount)

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] += (end - start) - child
        return dict(out)

    def write(self, path: Path) -> None:
        with open(path, "w") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent}) + "\n")


def _rows(x) -> int:
    return int(np.shape(x)[0])


def _dir_bytes(d) -> int:
    return sum(p.stat().st_size for p in Path(d).iterdir() if p.is_file())


def _count_tiers(t: Tracer, verdicts) -> None:
    for tv in verdicts:
        t.add(f"ensemble.tier.{tv.tier}", 1)


def _grid_triples(args, kwargs) -> int:
    grid = kwargs["grid"] if "grid" in kwargs else args[5]
    return (len(grid.max_norm_distances) * len(grid.min_split_counts)
            * len(grid.min_split_accuracies))


def _kmeans_with_history(real):
    """kmeans that always asks for the winning restart's inertia history,
    counts its Lloyd iterations, and hands the caller what it asked for."""
    def run(t: Tracer, X, k, seed, *args, collect_history=False, **kwargs):
        cs, history = real(X, k, seed, *args, collect_history=True, **kwargs)
        t.add("clustering.kmeans.lloyd_iters", len(history) - 1)
        t.add("clustering.kmeans.rows", _rows(X))
        return (cs, history) if collect_history else cs
    return run


# (span name, or None for a counter-only wrapper; [(owner, attribute)...];
#  counter(tracer, args, kwargs, result) or None; replacement callable that
#  takes the tracer first, or None to call the original).
def _site_table():
    km = _kmeans_with_history(clustering.kmeans)
    return [
        ("network.train", [(ensemble, "train")],
         lambda t, a, k, r: t.add("network.train.row_epochs", _rows(a[1].points) * a[3].epochs),
         None),
        ("network.loss_and_gradient", [(network, "loss_and_gradient")],
         lambda t, a, k, r: t.add("network.loss_and_gradient.calls", 1), None),
        ("network.sigmoid", [(network, "sigmoid"), (features, "sigmoid")], None, None),
        ("network.dropout_mask", [(network, "dropout_mask")], None, None),
        ("network.Adam.step", [(network.Adam, "step")], None, None),
        ("network.accuracy", [(network, "accuracy"), (pipeline, "accuracy")], None, None),
        ("network.forward_batch",
         [(network, "forward_batch"), (ensemble, "forward_batch"), (paths, "forward_batch"),
          (pipeline, "forward_batch")],
         lambda t, a, k, r: t.add("network.forward_batch.rows", _rows(a[1])), None),
        ("clustering.kmeans", [(paths, "kmeans"), (clustering, "kmeans")],
         lambda t, a, k, r: t.add("clustering.kmeans.calls", 1), km),
        ("clustering.elbow_select", [(paths, "elbow_select")],
         lambda t, a, k, r: t.add("clustering.elbow_select.fits",
                                  len((r[0] if isinstance(r, tuple) else r).candidates)),
         None),
        ("clustering.count_distinct", [(clustering, "count_distinct")], None, None),
        ("clustering.assign_batch", [(clustering.ClusterSet, "assign_batch")],
         lambda t, a, k, r: t.add("clustering.assign_batch.rows", _rows(r[0])), None),
        ("paths.compute_paths",
         [(ensemble, "compute_paths"), (pipeline, "compute_paths"), (paths, "compute_paths")],
         lambda t, a, k, r: t.add("paths.compute_paths.rows", _rows(r[0])), None),
        ("paths.filter_features", [(ensemble, "filter_features"), (paths, "filter_features")],
         lambda t, a, k, r: t.add("paths.filter_features.rows", _rows(r[0])), None),
        ("paths.build_path_model", [(ensemble, "build_path_model")], None, None),
        ("paths.split_stats", [(ensemble, "split_stats")], None, None),
        ("paths.grid_search", [(ensemble, "grid_search")],
         lambda t, a, k, r: t.add("paths.grid_search.triples", _grid_triples(a, k)), None),
        ("ensemble.train_ensemble", [(pipeline, "train_ensemble")], None, None),
        ("ensemble.analyze_model", [(ensemble, "analyze_model")], None, None),
        ("ensemble.member_eval", [(ensemble, "member_eval")],
         lambda t, a, k, r: (t.add("ensemble.member_eval.good", int(r[0].sum())),
                             t.add("ensemble.member_eval.rows", _rows(r[0]))),
         None),
        ("ensemble.classify_batch", [(pipeline, "classify_batch"), (ensemble, "classify_batch")],
         lambda t, a, k, r: (t.add("ensemble.classify_batch.rows", len(r)), _count_tiers(t, r)),
         None),
        ("ensemble.measure_bound_inputs", [(pipeline, "measure_bound_inputs")], None, None),
        ("ensemble.save_bundle", [(pipeline, "save_bundle")],
         lambda t, a, k, r: t.add("ensemble.save_bundle.bytes", _dir_bytes(a[1])), None),
        ("ensemble.load_bundle", [(ensemble, "load_bundle")], None, None),
        (None, [(ensemble, "oversample")],
         lambda t, a, k, r: t.add("ensemble.oversample.rows_added", len(r) - len(a[0])), None),
        ("features.activation_maximization", [(pipeline, "activation_maximization")],
         lambda t, a, k, r: t.add("features.activation_maximization.calls", 1), None),
        ("features.split_mean_feature", [(pipeline, "split_mean_feature")], None, None),
        ("features.emit_image", [(pipeline, "emit_image")], None, None),
        ("dataio.load", [(pipeline, "load_idx"), (pipeline, "load_csv")],
         lambda t, a, k, r: t.add("dataio.load.bytes",
                                  sum(Path(p).stat().st_size for p in a)), None),
        ("report.canonical_json", [(pipeline, "canonical_json")], None, None),
        ("report.render_report", [(pipeline, "render_report")], None, None),
    ]


SPAN_NAMES = tuple(name for name, *_ in _site_table() if name is not None)

COUNTERS = (
    "network.train.row_epochs", "network.loss_and_gradient.calls",
    "network.forward_batch.rows", "clustering.kmeans.calls", "clustering.kmeans.rows",
    "clustering.kmeans.lloyd_iters", "clustering.elbow_select.fits",
    "clustering.assign_batch.rows", "paths.compute_paths.rows", "paths.filter_features.rows",
    "paths.grid_search.triples", "ensemble.classify_batch.rows",
    "ensemble.oversample.rows_added", "ensemble.tier.original_good", "ensemble.tier.bad_1",
    "ensemble.tier.bad_2", "ensemble.save_bundle.bytes",
    "features.activation_maximization.calls", "dataio.load.bytes",
)


def layer_metrics(tracers: list[Tracer]) -> dict[str, float]:
    """Self time per span name and every counter, averaged over traced units.

    ``trace.unattributed_s`` is the root span's self time: the part of a
    unit no wrapped layer covers.
    """
    out = dict.fromkeys([f"{name}.s" for name in SPAN_NAMES] + list(COUNTERS), 0.0)
    out["trace.unattributed_s"] = 0.0
    good = rows = 0.0
    for t in tracers:
        own = t.self_times()
        for name in SPAN_NAMES:
            out[f"{name}.s"] += own.get(name, 0.0)
        for key in COUNTERS:
            out[key] += t.counts.get(key, 0.0)
        out["trace.unattributed_s"] += own.get(ROOT_SPAN, 0.0)
        good += t.counts.get("ensemble.member_eval.good", 0.0)
        rows += t.counts.get("ensemble.member_eval.rows", 0.0)
    out = {key: value / len(tracers) for key, value in out.items()}
    out["ensemble.member_eval.good_share"] = good / rows if rows else 0.0
    return out


def _wrapper(t: Tracer, name, fn, count, bind):
    target = (lambda *a, **k: bind(t, *a, **k)) if bind is not None else fn

    def wrapped(*args, **kwargs):
        if name is None:
            result = target(*args, **kwargs)
        else:
            result = t.call(name, target, args, kwargs)
        if count is not None:
            count(t, args, kwargs, result)
        return result

    wrapped.__wrapped__ = fn
    return wrapped


@contextmanager
def traced(t: Tracer):
    """Install the wrappers for the duration of the block, then restore.

    A site the code no longer has is skipped and listed in ``t.missing``,
    so a later rename shows up as a zero metric instead of a crash.
    """
    saved = []
    try:
        for name, sites, count, bind in _site_table():
            for owner, attr in sites:
                fn = owner.__dict__.get(attr)
                if fn is None:
                    t.missing.append(f"{owner.__name__}.{attr}")
                    continue
                saved.append((owner, attr, fn))
                setattr(owner, attr, _wrapper(t, name, fn, count, bind))
        yield t
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)
