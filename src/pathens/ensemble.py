"""Partitioned two-model ensembles with three-tier selective voting.

Training builds one member per fold: a first network trained normally
("original"), its path model and filter thresholds, then a second network
retrained with the filtered-out training points duplicated. Testing sends
each point down three tiers: voted label from the originals when enough of
them call it good, else the same vote over the retrained models, else the
argmax of the retrained models' summed output vectors. Routing for large
external models reuses the tiers to pick which prediction file answers.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path as FsPath

import numpy as np

from .network import (
    Dataset,
    Network,
    NetworkConfig,
    TrainConfig,
    forward_batch,
    init_network,
    network_from_doc,
    network_to_doc,
    oversample,
    train,
)
from .paths import (
    FilterParams,
    GridSearchResult,
    KPolicy,
    ParamGrid,
    PathModel,
    SplitTable,
    compute_paths,
    build_path_model,
    filter_features,
    good_mask,
    grid_search,
    path_model_from_doc,
    path_model_to_doc,
    split_stats,
    stats_from_doc,
    stats_to_doc,
)

BUNDLE_FORMAT_VERSION = 1

TIER_ORIGINAL_GOOD = "original_good"
TIER_BAD_1 = "bad_1"
TIER_BAD_2 = "bad_2"
TIERS = (TIER_ORIGINAL_GOOD, TIER_BAD_1, TIER_BAD_2)

AGREEMENT_MODES = ("plurality", "unanimity")
STATS_BASES = ("train", "validation", "both")

# Seed offset separating each fold's second network from its first. Any
# fixed constant works; a large prime keeps the streams visibly apart even
# when fold counts and user seeds are small sequential integers.
MODEL2_SEED_OFFSET = 100003


@dataclass(frozen=True)
class PartitionScheme:
    """block(count): contiguous validation blocks; stride(count): index mod count."""

    kind: str
    count: int

    def __post_init__(self):
        if self.kind not in ("block", "stride"):
            raise ValueError(f"scheme kind must be block or stride, got {self.kind!r}")
        if self.count < 2:
            raise ValueError("need at least 2 folds")


def make_partitions(n: int, scheme: PartitionScheme) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-fold (train indices, validation indices) over range(n).

    Validation sets are pairwise disjoint and cover all indices; each
    fold's training set is everything else. Block folds use width
    ceil(n / count) so the last block may run short, but never empty.
    """
    if n < scheme.count:
        raise ValueError(f"cannot cut {n} points into {scheme.count} folds")
    everything = np.arange(n)
    folds = []
    if scheme.kind == "block":
        width = -(-n // scheme.count)
        for i in range(scheme.count):
            val = everything[i * width:(i + 1) * width]
            if len(val) == 0:
                raise ValueError(
                    f"block({scheme.count}) on {n} points leaves fold {i} empty; "
                    "use fewer folds or the stride scheme"
                )
            folds.append((np.setdiff1d(everything, val), val))
    else:
        for i in range(scheme.count):
            val = everything[everything % scheme.count == i]
            folds.append((np.setdiff1d(everything, val), val))
    return folds


@dataclass
class MemberModel:
    """One trained network plus everything its filter needs: the path
    model, the split table over the stats basis, and the chosen thresholds."""

    net: Network
    path_model: PathModel
    stats: SplitTable
    params: FilterParams
    search: GridSearchResult


@dataclass
class Member:
    fold_index: int
    model1: MemberModel
    model2: MemberModel
    bad_train_indices: np.ndarray  # positions in the full training dataset

    def __post_init__(self):
        self.bad_train_indices = np.asarray(self.bad_train_indices, dtype=np.int64)


@dataclass
class EnsembleBundle:
    members: list[Member]
    scheme: PartitionScheme
    n_train: int
    agreement: str = "plurality"
    stats_basis: str = "train"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.members:
            raise ValueError("bundle needs at least one member")
        if len(self.members) != self.scheme.count:
            raise ValueError("member count must equal fold count")
        if self.agreement not in AGREEMENT_MODES:
            raise ValueError(f"agreement must be one of {AGREEMENT_MODES}")
        if self.stats_basis not in STATS_BASES:
            raise ValueError(f"stats_basis must be one of {STATS_BASES}, "
                             f"got {self.stats_basis!r}")
        folds = [mb.fold_index for mb in self.members]
        if folds != list(range(len(folds))):
            raise ValueError(f"member fold indices must run 0..{len(folds) - 1} in order, "
                             f"got {folds}")

    @property
    def n_members(self) -> int:
        return len(self.members)

    def folds(self):
        return make_partitions(self.n_train, self.scheme)


@dataclass(frozen=True)
class TierVerdict:
    tier: str
    label: int

    def __post_init__(self):
        if self.tier not in TIERS:
            raise ValueError(f"unknown tier {self.tier!r}")


@dataclass
class ExternalPredictions:
    """Class-score rows from a model trained elsewhere."""

    scores: np.ndarray
    model_tag: str

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.ndim != 2:
            raise ValueError("scores must be (n_points, n_classes)")
        if self.model_tag not in ("original", "bad"):
            raise ValueError(f"model_tag must be original or bad, got {self.model_tag!r}")


def analyze_model(net: Network, fold_train: Dataset, fold_val: Dataset,
                   policy: KPolicy, grid: ParamGrid, target_accuracy: float,
                   stats_basis: str) -> tuple[MemberModel, np.ndarray]:
    """Path model, split stats, grid-searched filter; returns the model plus
    the good/bad mask of the fold's training points under the chosen filter."""
    tr_probs, tr_acts = forward_batch(net, fold_train.points, record=True)
    pm = build_path_model(tr_acts, policy)
    tr_ids, tr_nd = compute_paths(pm, tr_acts)
    tr_pred = tr_probs.argmax(axis=1)
    va_probs, va_acts = forward_batch(net, fold_val.points, record=True)
    va_ids, va_nd = compute_paths(pm, va_acts)
    va_pred = va_probs.argmax(axis=1)

    if stats_basis == "train":
        basis = (tr_ids, fold_train.labels, tr_pred)
    elif stats_basis == "validation":
        basis = (va_ids, fold_val.labels, va_pred)
    else:
        basis = (
            np.concatenate([tr_ids, va_ids]),
            np.concatenate([fold_train.labels, fold_val.labels]),
            np.concatenate([tr_pred, va_pred]),
        )
    stats = split_stats(pm, *basis)
    search = grid_search(stats, va_ids, va_nd, fold_val.labels, va_pred, grid, target_accuracy)
    train_good = good_mask(filter_features(stats, tr_ids, tr_nd), search.params)
    return MemberModel(net, pm, stats, search.params, search), train_good


def train_ensemble(data: Dataset, scheme: PartitionScheme, net_cfg: NetworkConfig,
                   train_cfg: TrainConfig, grid: ParamGrid, target_accuracy: float,
                   cluster_policy: KPolicy | None = None, agreement: str = "plurality",
                   stats_basis: str = "train", copies: int = 2,
                   progress=None) -> EnsembleBundle:
    """Train the full two-model ensemble, one member per fold.

    Per fold: train the first network, build its path model, grid-search
    the filter, mark the fold's training points good or bad, retrain with
    each bad point appearing ``copies`` times, and run the same analysis
    on the second network. Member seeds are the training seed plus the
    fold index; the second network's seeds sit a fixed offset above the
    first's. ``progress``, if given, is called with one status line per
    completed stage.
    """
    if agreement not in AGREEMENT_MODES:
        raise ValueError(f"agreement must be one of {AGREEMENT_MODES}")
    if stats_basis not in STATS_BASES:
        raise ValueError(f"stats_basis must be one of {STATS_BASES}")
    base_policy = cluster_policy or KPolicy()
    if not isinstance(base_policy.seed, int):
        raise ValueError("the ensemble cluster policy seed must be a plain integer")
    say = progress or (lambda msg: None)

    folds = make_partitions(len(data), scheme)
    members = []
    for fold_index, (tr_idx, va_idx) in enumerate(folds):
        fold_train = data.subset(tr_idx)
        fold_val = data.subset(va_idx)
        seed1 = train_cfg.rng_seed + fold_index
        seed2 = seed1 + MODEL2_SEED_OFFSET

        cfg1 = dataclasses.replace(train_cfg, rng_seed=seed1)
        net1 = train(init_network(net_cfg, seed1), fold_train, fold_val, cfg1)
        say(f"fold {fold_index}: original model trained")
        policy1 = dataclasses.replace(base_policy, seed=(base_policy.seed, fold_index, 1))
        model1, train_good = analyze_model(
            net1, fold_train, fold_val, policy1, grid, target_accuracy, stats_basis)
        bad_local = np.flatnonzero(~train_good)
        say(f"fold {fold_index}: filter keeps {int(train_good.sum())}/{len(fold_train)} "
            f"train points (val retained {model1.search.retained_count}, "
            f"acc {model1.search.retained_accuracy:.4f})")

        cfg2 = dataclasses.replace(train_cfg, rng_seed=seed2)
        boosted = oversample(fold_train, bad_local, copies)
        net2 = train(init_network(net_cfg, seed2), boosted, fold_val, cfg2)
        say(f"fold {fold_index}: retrained model trained on {len(boosted)} points")
        policy2 = dataclasses.replace(base_policy, seed=(base_policy.seed, fold_index, 2))
        # the repeat analysis runs on the fold's original training points;
        # duplicated rows would double-count their splits
        model2, _ = analyze_model(
            net2, fold_train, fold_val, policy2, grid, target_accuracy, stats_basis)

        members.append(Member(fold_index, model1, model2, tr_idx[bad_local]))
    return EnsembleBundle(
        members, scheme, len(data), agreement=agreement, stats_basis=stats_basis,
        metadata={
            "train_seed": train_cfg.rng_seed,
            "cluster_seed": base_policy.seed,
            "target_accuracy": target_accuracy,
            "copies": copies,
        },
    )


def member_eval(mm: MemberModel, X) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(good mask, predicted labels, class probabilities) for a batch."""
    probs, acts = forward_batch(mm.net, X, record=True)
    ids, nd = compute_paths(mm.path_model, acts)
    good = good_mask(filter_features(mm.stats, ids, nd), mm.params)
    return good, probs.argmax(axis=1), probs


@dataclass
class _SetEval:
    """Stacked member evaluations of one model set over a batch."""

    good: np.ndarray   # (m, n) bool
    pred: np.ndarray   # (m, n) int
    probs: np.ndarray  # (m, n, c) float

    @classmethod
    def run(cls, models, X):
        triples = [member_eval(mm, X) for mm in models]
        return cls(
            np.stack([t[0] for t in triples]),
            np.stack([t[1] for t in triples]),
            np.stack([t[2] for t in triples]),
        )


def _vote_batch(ev: _SetEval, agreement: str):
    """Selective vote of one model set over a batch.

    A point is voted when at least half the members (rounded up) call it
    good and, under unanimity, every good member predicts the same label.
    The label is the most common prediction among good members; plurality
    ties go to the tied label with the largest summed probability over the
    good members, then to the lowest label. Returns ``(voted mask, labels,
    good counts, agree counts)``, with -1, 0, 0 where the vote abstains.
    """
    m = len(ev.good)
    good = ev.good[:, :, None]
    votes = (good & (ev.pred[:, :, None] == np.arange(ev.probs.shape[2]))).sum(axis=0)
    goods = ev.good.sum(axis=0)
    top = votes.max(axis=1)
    summed = np.where(good, ev.probs, 0.0).sum(axis=0)
    labels = np.where(votes == top[:, None], summed, -np.inf).argmax(axis=1)
    voted = goods >= (m + 1) // 2
    if agreement == "unanimity":
        voted &= top == goods
    return (voted, np.where(voted, labels, -1), np.where(voted, goods, 0),
            np.where(voted, top, 0))


def classify_batch(bundle: EnsembleBundle, X) -> list[TierVerdict]:
    """Three-tier classification of a batch.

    Tier 1: the original models' selective vote. Tier 2: the retrained
    models' selective vote on the leftovers. Tier 3: argmax of the sum of
    every retrained model's probability vector.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    ev1 = _SetEval.run([mb.model1 for mb in bundle.members], X)
    ev2 = _SetEval.run([mb.model2 for mb in bundle.members], X)
    voted1, labels1, _, _ = _vote_batch(ev1, bundle.agreement)
    voted2, labels2, _, _ = _vote_batch(ev2, bundle.agreement)
    fallback = ev2.probs.sum(axis=0).argmax(axis=1)
    tier = np.where(voted1, 0, np.where(voted2, 1, 2))
    labels = np.where(voted1, labels1, np.where(voted2, labels2, fallback))
    return [TierVerdict(TIERS[t], lab) for t, lab in zip(tier.tolist(), labels.tolist())]


def large_model_route(tiers: list[TierVerdict], original: ExternalPredictions,
                      bad: ExternalPredictions) -> np.ndarray:
    """Route each point to the external prediction file its tier calls for.

    The original model answers original_good and bad_1 points; the bad
    model answers bad_2 points.
    """
    if len(original.scores) != len(tiers) or len(bad.scores) != len(tiers):
        raise ValueError("prediction files must align with the tier list")
    if original.scores.shape[1] != bad.scores.shape[1]:
        raise ValueError("prediction files disagree on class count")
    to_bad = np.array([tv.tier == TIER_BAD_2 for tv in tiers], dtype=bool)
    return np.where(to_bad, bad.scores.argmax(axis=1), original.scores.argmax(axis=1))


@dataclass
class TierReport:
    """Per-tier counts and accuracies plus the overall line."""

    counts: dict
    accuracies: dict  # tier -> float, or None for an empty tier
    overall_count: int
    overall_accuracy: float

    def to_doc(self) -> dict:
        return {
            "tiers": {
                t: {"count": self.counts[t], "accuracy": self.accuracies[t]}
                for t in TIERS
            },
            "overall": {"count": self.overall_count, "accuracy": self.overall_accuracy},
        }

    @staticmethod
    def from_doc(doc: dict) -> "TierReport":
        counts = {t: int(doc["tiers"][t]["count"]) for t in TIERS}
        accs = {
            t: (None if doc["tiers"][t]["accuracy"] is None
                else float(doc["tiers"][t]["accuracy"]))
            for t in TIERS
        }
        return TierReport(counts, accs, int(doc["overall"]["count"]),
                          float(doc["overall"]["accuracy"]))


def tier_report(tiers: list[TierVerdict], labels, truth) -> TierReport:
    """Accuracy and count per tier, mirroring the usual two result tables."""
    labels = np.asarray(labels, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if len(tiers) != len(labels) or len(labels) != len(truth):
        raise ValueError("tiers, labels, and truth must align")
    tier_names = np.asarray([tv.tier for tv in tiers])
    correct = labels == truth
    counts, accs = {}, {}
    for t in TIERS:
        mask = tier_names == t
        counts[t] = int(mask.sum())
        accs[t] = float(correct[mask].mean()) if counts[t] else None
    overall = float(correct.mean()) if len(truth) else 0.0
    return TierReport(counts, accs, len(truth), overall)


@dataclass
class BoundInputs:
    """Measured quantities for the voted-error counting bound.

    ``v`` is the worst member's count of points it deems good yet
    mislabels. ``f1`` is the smallest fraction of members deeming a voted
    point good; ``f2`` the smallest fraction of those good members that
    agree with the returned label. Both are exact rationals so the bound
    check carries no float noise.
    """

    v: int
    f1: Fraction
    f2: Fraction
    observed_incorrect: int
    n_voted: int


def measure_bound_inputs(bundle: EnsembleBundle, data: Dataset) -> BoundInputs:
    """Evaluate the original models' vote over ``data`` and record v, f1, f2."""
    ev = _SetEval.run([mb.model1 for mb in bundle.members], data.points)
    m = bundle.n_members
    v = int(max((ev.good[j] & (ev.pred[j] != data.labels)).sum() for j in range(m)))
    voted, labels, goods, agrees = _vote_batch(ev, bundle.agreement)
    if not voted.any():
        return BoundInputs(v, Fraction(1), Fraction(1), 0, 0)
    f1 = Fraction(int(goods[voted].min()), m)
    f2 = min(Fraction(int(a), int(g)) for a, g in zip(agrees[voted], goods[voted]))
    observed = int((voted & (labels != data.labels)).sum())
    return BoundInputs(v, f1, f2, observed, int(voted.sum()))


def _member_model_to_doc(mm: MemberModel) -> dict:
    return {
        "network": network_to_doc(mm.net),
        "path_model": path_model_to_doc(mm.path_model),
        "stats": stats_to_doc(mm.stats),
        "params": {
            "max_norm_distance": (
                "inf" if np.isinf(mm.params.max_norm_distance)
                else mm.params.max_norm_distance
            ),
            "min_split_count": mm.params.min_split_count,
            "min_split_accuracy": mm.params.min_split_accuracy,
        },
        "search": {
            "retained_count": mm.search.retained_count,
            "retained_accuracy": mm.search.retained_accuracy,
            "met_target": mm.search.met_target,
        },
    }


def _member_model_from_doc(doc: dict) -> MemberModel:
    pm = path_model_from_doc(doc["path_model"])
    raw_d = doc["params"]["max_norm_distance"]
    params = FilterParams(
        float("inf") if raw_d == "inf" else float(raw_d),
        int(doc["params"]["min_split_count"]),
        float(doc["params"]["min_split_accuracy"]),
    )
    search = GridSearchResult(
        params,
        int(doc["search"]["retained_count"]),
        float(doc["search"]["retained_accuracy"]),
        bool(doc["search"]["met_target"]),
    )
    return MemberModel(
        network_from_doc(doc["network"]),
        pm,
        stats_from_doc(doc["stats"], pm.ks),
        params,
        search,
    )


def save_bundle(bundle: EnsembleBundle, dirpath) -> None:
    """Bundle persistence: one JSON per member plus a manifest.

    The manifest's ``depth`` field is 2 (original + retrained); deeper
    towers are reserved, not implemented.
    """
    d = FsPath(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    member_files = []
    for mb in bundle.members:
        name = f"member_{mb.fold_index}.json"
        doc = {
            "fold_index": mb.fold_index,
            "bad_train_indices": mb.bad_train_indices.tolist(),
            "model1": _member_model_to_doc(mb.model1),
            "model2": _member_model_to_doc(mb.model2),
        }
        (d / name).write_text(json.dumps(doc, sort_keys=True))
        member_files.append(name)
    manifest = {
        "format_version": BUNDLE_FORMAT_VERSION,
        "depth": 2,
        "scheme": {"kind": bundle.scheme.kind, "count": bundle.scheme.count},
        "n_train": bundle.n_train,
        "agreement": bundle.agreement,
        "stats_basis": bundle.stats_basis,
        "metadata": bundle.metadata,
        "members": member_files,
    }
    (d / "bundle.json").write_text(json.dumps(manifest, sort_keys=True))


def load_bundle(dirpath) -> EnsembleBundle:
    """Inverse of ``save_bundle``.

    Raises ValueError, naming the fault, for an unknown format version or
    depth, member fold indices other than 0..count-1 in manifest order, an
    unknown agreement or stats basis, and split stats that do not fit the
    member's path model (keys outside its clusters, negative counts,
    accuracies outside [0, 1]).
    """
    d = FsPath(dirpath)
    manifest = json.loads((d / "bundle.json").read_text())
    if manifest.get("format_version") != BUNDLE_FORMAT_VERSION:
        raise ValueError(f"unsupported bundle format version {manifest.get('format_version')}")
    if manifest.get("depth") != 2:
        raise ValueError("only depth-2 bundles (original + retrained) are supported")
    members = []
    for name in manifest["members"]:
        doc = json.loads((d / name).read_text())
        members.append(Member(
            int(doc["fold_index"]),
            _member_model_from_doc(doc["model1"]),
            _member_model_from_doc(doc["model2"]),
            np.asarray(doc["bad_train_indices"], dtype=np.int64),
        ))
    return EnsembleBundle(
        members,
        PartitionScheme(manifest["scheme"]["kind"], int(manifest["scheme"]["count"])),
        int(manifest["n_train"]),
        agreement=manifest["agreement"],
        stats_basis=manifest["stats_basis"],
        metadata=manifest.get("metadata", {}),
    )
