"""Cluster paths through a network's layers and the good/bad point filter.

A path records, for one input, which cluster it lands in at every layer
(input space, each hidden space, output space) and how far from that
cluster's center it sits in normalized units. A split is the transition
between consecutive layers' clusters. Its statistics over the training set
(how many points took it, how often the network was right on them) live in
a SplitTable, one dense (k_l, k_{l+1}) count matrix and accuracy matrix per
layer boundary, and drive the three-threshold filter that separates
confident "good" points from "bad" ones.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path as FsPath

import numpy as np

from .clustering import (
    ClusterSet,
    ElbowCurve,
    cluster_set_from_doc,
    cluster_set_to_doc,
    default_k_candidates,
    elbow_select,
    kmeans,
)

PATH_MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Split:
    """A length-2 partial path: cluster ``src`` at layer ``layer`` to ``dst`` at layer+1."""

    layer: int
    src: int
    dst: int

    @property
    def key(self) -> str:
        return f"{self.layer}:{self.src}:{self.dst}"

    @staticmethod
    def from_key(key: str) -> "Split":
        l, s, d = key.split(":")
        return Split(int(l), int(s), int(d))


@dataclass(eq=False)
class SplitTable:
    """Split statistics of one path model, dense per layer boundary.

    ``count[l][s, d]`` is how many basis points went from cluster ``s`` at
    layer ``l`` to cluster ``d`` at layer ``l + 1``; ``accuracy[l][s, d]``
    is the share of them the network predicted correctly, and 0 where the
    count is 0. A split nobody traversed is simply a zero entry.
    """

    count: list[np.ndarray]
    accuracy: list[np.ndarray]

    def __post_init__(self):
        self.count = [np.asarray(c, dtype=np.int64) for c in self.count]
        self.accuracy = [np.asarray(a, dtype=np.float64) for a in self.accuracy]
        if not self.count or len(self.count) != len(self.accuracy):
            raise ValueError("need one count and one accuracy matrix per layer boundary")
        for l, (c, a) in enumerate(zip(self.count, self.accuracy)):
            if c.ndim != 2 or a.shape != c.shape:
                raise ValueError(f"layer {l}: count and accuracy must be matching 2-D arrays")
            bad = (c < 0) | ~((a >= 0.0) & (a <= 1.0)) | ((c == 0) & (a != 0.0))
            if bad.any():
                s, d = np.argwhere(bad)[0]
                raise ValueError(
                    f"split {Split(l, int(s), int(d)).key}: count {c[s, d]} and accuracy "
                    f"{a[s, d]} (need count >= 0, accuracy in [0, 1], 0 when the count is 0)")

    @classmethod
    def zeros(cls, ks) -> "SplitTable":
        """An all-empty table for consecutive layer sizes ``ks``."""
        shapes = list(zip(ks[:-1], ks[1:]))
        return cls([np.zeros(sh, dtype=np.int64) for sh in shapes],
                   [np.zeros(sh) for sh in shapes])

    def __eq__(self, other) -> bool:
        if not isinstance(other, SplitTable):
            return NotImplemented
        return len(self.count) == len(other.count) and all(
            np.array_equal(x, y) for x, y in zip(self.count + self.accuracy,
                                                 other.count + other.accuracy))


@dataclass(frozen=True)
class FilterParams:
    """The three thresholds defining a good point.

    ``max_norm_distance`` may be +inf (distance check off); the other two
    must be finite. A point is good only if every layer's normalized
    distance stays at or under the first threshold and every traversed
    split has at least ``min_split_count`` points and at least
    ``min_split_accuracy`` accuracy.
    """

    max_norm_distance: float
    min_split_count: int
    min_split_accuracy: float

    def __post_init__(self):
        if not self.max_norm_distance > 0:
            raise ValueError("max_norm_distance must be > 0")
        if np.isnan(self.max_norm_distance):
            raise ValueError("max_norm_distance must not be NaN")
        if self.min_split_count < 0:
            raise ValueError("min_split_count must be >= 0")
        if not 0.0 <= self.min_split_accuracy <= 1.0:
            raise ValueError("min_split_accuracy must lie in [0, 1]")


@dataclass(frozen=True)
class Verdict:
    """Filter outcome for one point; ``first_failure`` names the earliest broken rule."""

    good: bool
    first_failure: str | None = None

    def __post_init__(self):
        if self.good != (self.first_failure is None):
            raise ValueError("good verdicts carry no failure; bad ones must name one")


@dataclass
class Path:
    """Per-layer cluster ids and normalized center distances for one input."""

    cluster_ids: np.ndarray
    normalized_distances: np.ndarray

    def __post_init__(self):
        self.cluster_ids = np.asarray(self.cluster_ids, dtype=np.int64)
        self.normalized_distances = np.asarray(self.normalized_distances, dtype=np.float64)
        if self.cluster_ids.shape != self.normalized_distances.shape or self.cluster_ids.ndim != 1:
            raise ValueError("cluster ids and distances must be aligned 1-D sequences")

    def __len__(self) -> int:
        return len(self.cluster_ids)


@dataclass
class PathModel:
    """One ClusterSet per layer, fitted on a single training set's activations."""

    cluster_sets: list[ClusterSet]
    elbow_curves: list[ElbowCurve | None] = field(default_factory=list)

    def __post_init__(self):
        if len(self.cluster_sets) < 3:
            raise ValueError("a path model spans input, hidden..., output: 3+ layers")

    @property
    def n_layers(self) -> int:
        return len(self.cluster_sets)

    @property
    def ks(self) -> list[int]:
        return [cs.k for cs in self.cluster_sets]


@dataclass(frozen=True)
class KPolicy:
    """How to choose k per layer: elbow sweep by default, explicit overrides otherwise.

    ``candidates`` of None means the size-based default sweep.
    ``overrides`` maps layer index to a fixed k, skipping the sweep there.
    ``seed`` may be an int or tuple; the layer index is appended so layers
    cluster independently.
    """

    seed: int | tuple = 0
    candidates: tuple[int, ...] | None = None
    overrides: dict = field(default_factory=dict)
    restarts: int = 3

    def layer_seed(self, layer: int) -> tuple:
        base = self.seed if isinstance(self.seed, tuple) else (self.seed,)
        return (*base, layer)


def build_path_model(layer_acts: list[np.ndarray], policy: KPolicy) -> PathModel:
    """Cluster every layer's activations of the training set.

    ``layer_acts`` is ``forward_batch(net, X, record=True)[1]``: input,
    each hidden layer, softmax output. Each layer gets its own elbow sweep
    (or a fixed k from the policy's overrides) and k-means fit. The elbow
    curves ride along for inspection and for manual override in a
    follow-up run.
    """
    if len(layer_acts[0]) == 0:
        raise ValueError("training set is empty")
    cluster_sets, curves = [], []
    for layer, A in enumerate(layer_acts):
        seed = policy.layer_seed(layer)
        if layer in policy.overrides:
            k = int(policy.overrides[layer])
            cs = kmeans(A, k, seed, restarts=policy.restarts)
            curves.append(None)
        else:
            cand = policy.candidates or default_k_candidates(len(A))
            with warnings.catch_warnings():
                # tiny layers can collapse the sweep to 2 usable candidates
                warnings.simplefilter("ignore")
                curve, fits = elbow_select(A, cand, seed, restarts=policy.restarts,
                                           return_sets=True)
            cs = fits[curve.selected_k]
            curves.append(curve)
        cluster_sets.append(cs)
    return PathModel(cluster_sets, curves)


def compute_paths(pm: PathModel, layer_acts: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized paths for a batch given its per-layer activations.

    Returns ``(ids, norm_d)``, both (n, n_layers).
    """
    if len(layer_acts) != pm.n_layers:
        raise ValueError(f"expected {pm.n_layers} activation layers, got {len(layer_acts)}")
    ids_cols, nd_cols = [], []
    for cs, A in zip(pm.cluster_sets, layer_acts):
        ids, dist = cs.assign_batch(A)
        ids_cols.append(ids)
        nd_cols.append(cs.normalize(dist))
    return np.stack(ids_cols, axis=1), np.stack(nd_cols, axis=1)


def split_stats(pm: PathModel, ids: np.ndarray, labels, predictions) -> SplitTable:
    """Count and accuracy of every split of ``pm``.

    ``ids`` is the (n, n_layers) cluster-id matrix of the statistics basis
    (training points, normally). Splits nobody traversed keep count 0 and
    accuracy 0.
    """
    ids = np.asarray(ids, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    predictions = np.asarray(predictions, dtype=np.int64)
    if ids.ndim != 2 or ids.shape[1] != pm.n_layers:
        raise ValueError("ids must be (n, n_layers)")
    if labels.shape != (len(ids),) or predictions.shape != (len(ids),):
        raise ValueError("labels and predictions must align with ids")
    ks = pm.ks
    if ids.size and ((ids < 0) | (ids >= ks)).any():
        raise ValueError(f"cluster ids must lie within the path model's k per layer {ks}")
    correct = (labels == predictions).astype(np.float64)
    count, accuracy = [], []
    for l in range(pm.n_layers - 1):
        pair = ids[:, l] * ks[l + 1] + ids[:, l + 1]
        size = ks[l] * ks[l + 1]
        c = np.bincount(pair, minlength=size).reshape(ks[l], ks[l + 1])
        hits = np.bincount(pair, weights=correct, minlength=size).reshape(c.shape)
        count.append(c)
        accuracy.append(np.divide(hits, c, out=np.zeros(c.shape), where=c > 0))
    return SplitTable(count, accuracy)


def classify_point(stats: SplitTable, params: FilterParams, path: Path) -> Verdict:
    """Apply the three-threshold filter to one path.

    The scalar oracle for ``filter_features``/``good_mask``. Checks run in
    layer order; at each layer the distance rule comes first, then the
    outgoing split's count, then its accuracy, so ``first_failure`` is
    deterministic. An untraversed split has count 0 and accuracy 0.
    """
    nd = path.normalized_distances
    ids = path.cluster_ids
    n_layers = len(path)
    for l in range(n_layers):
        if nd[l] > params.max_norm_distance:
            return Verdict(False, f"distance-at-layer-{l}")
        if l < n_layers - 1:
            src, dst = ids[l], ids[l + 1]
            if stats.count[l][src, dst] < params.min_split_count:
                return Verdict(False, f"small-split-at-{l}")
            if stats.accuracy[l][src, dst] < params.min_split_accuracy:
                return Verdict(False, f"low-accuracy-split-at-{l}")
    return Verdict(True)


def filter_features(stats: SplitTable, ids: np.ndarray,
                    nd: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-point reductions the filter thresholds act on.

    ``ids`` and ``nd`` are (n, n_layers) paths under the table's path
    model. Returns ``(max_nd, min_count, min_acc)``, each (n,): the worst
    normalized distance across layers, and the smallest split count and
    accuracy along each point's traversed splits. A point is then good
    under params iff ``max_nd <= d and min_count >= c and min_acc >= a``,
    which lets grid search score thousands of triples without re-walking
    paths.
    """
    ids = np.asarray(ids, dtype=np.int64)
    nd = np.asarray(nd, dtype=np.float64)
    if ids.ndim != 2 or ids.shape[1] != len(stats.count) + 1:
        raise ValueError(f"ids must be (n, {len(stats.count) + 1})")
    src, dst = ids[:, :-1].T, ids[:, 1:].T
    counts = np.stack([c[s, d] for c, s, d in zip(stats.count, src, dst)])
    accs = np.stack([a[s, d] for a, s, d in zip(stats.accuracy, src, dst)])
    return nd.max(axis=1), counts.min(axis=0), accs.min(axis=0)


def good_mask(features, params: FilterParams) -> np.ndarray:
    """Boolean good/bad verdicts from precomputed filter features."""
    max_nd, min_count, min_acc = features
    return (
        (max_nd <= params.max_norm_distance)
        & (min_count >= params.min_split_count)
        & (min_acc >= params.min_split_accuracy)
    )


@dataclass(frozen=True)
class ParamGrid:
    """Candidate values per threshold; the search walks the full cross product."""

    max_norm_distances: tuple[float, ...]
    min_split_counts: tuple[int, ...]
    min_split_accuracies: tuple[float, ...]

    def __post_init__(self):
        if not (self.max_norm_distances and self.min_split_counts and self.min_split_accuracies):
            raise ValueError("every parameter needs at least one candidate")

    def triples(self):
        for d in self.max_norm_distances:
            for c in self.min_split_counts:
                for a in self.min_split_accuracies:
                    yield FilterParams(d, c, a)


@dataclass(frozen=True)
class GridSearchResult:
    params: FilterParams
    retained_count: int
    retained_accuracy: float
    met_target: bool


def grid_search(stats: SplitTable, val_ids, val_nd, val_labels,
                val_predictions, grid: ParamGrid, target_accuracy: float) -> GridSearchResult:
    """Pick the filter triple that keeps the most points at the target accuracy.

    Every triple in the grid is scored on the validation set: how many
    points it retains as good and how accurate the predictions are on
    them (an empty retained set scores 0 accuracy). Among triples meeting
    ``target_accuracy`` the most-retaining wins, ties broken toward the
    tighter filter (smaller distance, then larger count, then larger
    accuracy). When nothing reaches the target the highest-accuracy triple
    is returned with ``met_target`` unset.
    """
    val_labels = np.asarray(val_labels, dtype=np.int64)
    val_predictions = np.asarray(val_predictions, dtype=np.int64)
    if len(val_labels) == 0:
        raise ValueError("validation set is empty")
    if not 0.0 <= target_accuracy <= 1.0:
        raise ValueError("target_accuracy must lie in [0, 1]")
    features = filter_features(stats, val_ids, val_nd)
    correct = val_labels == val_predictions

    best_meeting = None   # (retained, -d, c, a, result)
    best_fallback = None  # (accuracy, retained, -d, c, a, result)
    for params in grid.triples():
        mask = good_mask(features, params)
        retained = int(mask.sum())
        acc = float(correct[mask].mean()) if retained else 0.0
        rank = (-params.max_norm_distance, params.min_split_count, params.min_split_accuracy)
        if acc >= target_accuracy:
            key = (retained, *rank)
            if best_meeting is None or key > best_meeting[0]:
                best_meeting = (key, GridSearchResult(params, retained, acc, True))
        key = (acc, retained, *rank)
        if best_fallback is None or key > best_fallback[0]:
            best_fallback = (key, GridSearchResult(params, retained, acc, False))
    return best_meeting[1] if best_meeting else best_fallback[1]


def stats_to_doc(stats: SplitTable) -> dict:
    """Traversed splits only, as ``{"layer:src:dst": {"count", "accuracy"}}``."""
    return {
        Split(l, int(s), int(d)).key: {"count": int(c[s, d]), "accuracy": float(a[s, d])}
        for l, (c, a) in enumerate(zip(stats.count, stats.accuracy))
        for s, d in np.argwhere(c > 0)
    }


def stats_from_doc(doc: dict, ks) -> SplitTable:
    """Inverse of ``stats_to_doc`` for a path model with per-layer sizes ``ks``."""
    table = SplitTable.zeros(ks)
    for key, item in doc.items():
        sp = Split.from_key(key)
        if not (0 <= sp.layer < len(ks) - 1 and 0 <= sp.src < ks[sp.layer]
                and 0 <= sp.dst < ks[sp.layer + 1]):
            raise ValueError(f"stats key {key!r} lies outside the path model (k per layer {ks})")
        table.count[sp.layer][sp.src, sp.dst] = int(item["count"])
        table.accuracy[sp.layer][sp.src, sp.dst] = float(item["accuracy"])
    return SplitTable(table.count, table.accuracy)


def path_model_to_doc(pm: PathModel) -> dict:
    curves = []
    for curve in pm.elbow_curves or [None] * pm.n_layers:
        if curve is None:
            curves.append(None)
        else:
            curves.append({
                "candidates": list(curve.candidates),
                "inertias": list(curve.inertias),
                "selected_k": curve.selected_k,
            })
    return {
        "cluster_sets": [cluster_set_to_doc(cs) for cs in pm.cluster_sets],
        "elbow_curves": curves,
    }


def path_model_from_doc(doc: dict) -> PathModel:
    sets = [cluster_set_from_doc(d) for d in doc["cluster_sets"]]
    curves = []
    for c in doc.get("elbow_curves", [None] * len(sets)):
        if c is None:
            curves.append(None)
        else:
            curves.append(ElbowCurve(
                [int(k) for k in c["candidates"]],
                [float(v) for v in c["inertias"]],
                int(c["selected_k"]),
            ))
    return PathModel(sets, curves)


def save_path_model(pm: PathModel, path) -> None:
    doc = {"format_version": PATH_MODEL_FORMAT_VERSION, **path_model_to_doc(pm)}
    FsPath(path).write_text(json.dumps(doc, sort_keys=True))


def load_path_model(path) -> PathModel:
    doc = json.loads(FsPath(path).read_text())
    if doc.get("format_version") != PATH_MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported path model format version {doc.get('format_version')}")
    return path_model_from_doc(doc)
