"""Ensemble tests.

Voting and tiering are checked against scripted members: networks with zero
weights and chosen output biases always predict one label with a known
probability vector, and a single input-space cluster with a radius filter
makes goodness a pure distance rule. That pins every vote by hand before
any real training enters the picture.
"""

import json
import math

import numpy as np
import pytest
from fractions import Fraction
from numpy.testing import assert_allclose, assert_array_equal

from pathens.clustering import ClusterSet
from pathens.ensemble import AGREEMENT_MODES, _SetEval, _vote_batch
from pathens.network import Dataset, NetworkConfig, TrainConfig, init_network
from pathens.paths import FilterParams, GridSearchResult, KPolicy, ParamGrid, PathModel, SplitTable
from pathens import (
    MODEL2_SEED_OFFSET,
    TIERS,
    EnsembleBundle,
    ExternalPredictions,
    Member,
    MemberModel,
    PartitionScheme,
    TierReport,
    TierVerdict,
    classify_batch,
    large_model_route,
    load_bundle,
    make_partitions,
    measure_bound_inputs,
    save_bundle,
    tier_report,
    train_ensemble,
)

N_CLASSES = 3
INPUT_DIM = 2
HIDDEN = 2


def scripted_model(probs, good_center=None, good_radius=math.inf):
    """A member that always answers argmax(probs) and calls a point good
    exactly when it lies within ``good_radius`` of ``good_center``."""
    probs = np.asarray(probs, dtype=np.float64)
    cfg = NetworkConfig((INPUT_DIM, HIDDEN, N_CLASSES), "sigmoid")
    net = init_network(cfg, 0)
    for w in net.weights:
        w[:] = 0.0
    net.biases[0][:] = 0.0
    net.biases[1][:] = np.log(probs)  # softmax undoes the log exactly
    center = np.zeros(INPUT_DIM) if good_center is None else np.asarray(good_center, float)
    pm = PathModel([
        ClusterSet(center[None, :], 0.0, 1.0),
        ClusterSet(np.full((1, HIDDEN), 0.5), 0.0, 1.0),
        ClusterSet(probs[None, :], 0.0, 1.0),
    ])
    params = FilterParams(good_radius, 0, 0.0)
    return MemberModel(net, pm, SplitTable.zeros([1, 1, 1]), params,
                       GridSearchResult(params, 0, 0.0, True))


def scripted_member(fold, probs1, probs2, center1=None, radius1=math.inf,
                    center2=None, radius2=math.inf):
    return Member(
        fold,
        scripted_model(probs1, center1, radius1),
        scripted_model(probs2, center2, radius2),
        np.array([], dtype=np.int64),
    )


def scripted_bundle(members, n_train=12, agreement="plurality"):
    return EnsembleBundle(
        members, PartitionScheme("block", len(members)), n_train, agreement=agreement
    )


def p(favored, base=0.05):
    """A probability vector favoring one class."""
    out = np.full(N_CLASSES, base)
    out[favored] = 1.0 - base * (N_CLASSES - 1)
    return out


# ---------------------------------------------------------------- partitions


def test_block_partitions_for_ten_points():
    folds = make_partitions(10, PartitionScheme("block", 3))
    vals = [v.tolist() for _, v in folds]
    assert vals == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
    trains = [t.tolist() for t, _ in folds]
    assert trains[0] == [4, 5, 6, 7, 8, 9]
    assert trains[2] == [0, 1, 2, 3, 4, 5, 6, 7]


def test_stride_partitions_for_ten_points():
    folds = make_partitions(10, PartitionScheme("stride", 3))
    vals = [v.tolist() for _, v in folds]
    assert vals == [[0, 3, 6, 9], [1, 4, 7], [2, 5, 8]]
    assert folds[1][0].tolist() == [0, 2, 3, 5, 6, 8, 9]


def test_block_five_on_fifty_thousand():
    folds = make_partitions(50000, PartitionScheme("block", 5))
    assert [len(v) for _, v in folds] == [10000] * 5
    assert [len(t) for t, _ in folds] == [40000] * 5
    assert folds[2][1][0] == 20000


def test_partitions_cover_and_are_disjoint():
    rng = np.random.default_rng(55)
    for _ in range(20):
        n = int(rng.integers(10, 200))
        count = int(rng.integers(2, 8))
        kind = rng.choice(["block", "stride"])
        if kind == "block" and -(-n // count) * (count - 1) >= n:
            continue  # would leave an empty block; rejected by design
        folds = make_partitions(n, PartitionScheme(kind, count))
        all_val = np.concatenate([v for _, v in folds])
        assert len(all_val) == n
        assert len(np.unique(all_val)) == n
        for t, v in folds:
            assert len(np.intersect1d(t, v)) == 0
            assert len(t) + len(v) == n


def test_block_rejects_an_empty_tail_fold():
    # width ceil(8/5)=2 fills four folds and leaves the fifth empty
    with pytest.raises(ValueError, match="empty"):
        make_partitions(8, PartitionScheme("block", 5))
    folds = make_partitions(9, PartitionScheme("block", 5))
    assert [len(v) for _, v in folds] == [2, 2, 2, 2, 1]


def test_partition_scheme_validation():
    with pytest.raises(ValueError):
        PartitionScheme("random", 3)
    with pytest.raises(ValueError):
        PartitionScheme("block", 1)
    with pytest.raises(ValueError):
        make_partitions(3, PartitionScheme("block", 5))


# ------------------------------------------------------------------- voting


def vote_by_hand(good, pred, probs, agreement):
    """Selective vote for one point from its (m,) verdicts and predictions
    and (m, c) probabilities: ``(label, good_count, agree_count)``, or None
    when fewer than half the members (rounded up) call it good or, under
    unanimity, the good members disagree."""
    m = len(good)
    good_count = int(good.sum())
    if good_count < (m + 1) // 2:
        return None
    votes = pred[good]
    if agreement == "unanimity":
        first = int(votes[0])
        if not (votes == first).all():
            return None
        return first, good_count, good_count
    counts = np.bincount(votes)
    tied = np.flatnonzero(counts == counts.max())
    if len(tied) == 1:
        label = int(tied[0])
    else:
        # the good members' summed probabilities over the tied labels;
        # argmax takes the lowest label on a residual tie
        summed = probs[good].sum(axis=0)
        label = int(tied[np.argmax(summed[tied])])
    return label, good_count, int(np.sum(votes == label))


def vote_one(good, pred, probs, agreement):
    """``_vote_batch`` on a single point, in ``vote_by_hand``'s return shape."""
    ev = _SetEval(np.asarray(good)[:, None], np.asarray(pred)[:, None],
                  np.asarray(probs)[:, None, :])
    voted, labels, goods, agrees = _vote_batch(ev, agreement)
    return (int(labels[0]), int(goods[0]), int(agrees[0])) if voted[0] else None


@pytest.mark.parametrize("agreement", AGREEMENT_MODES)
def test_vote_batch_matches_vote_by_hand(agreement):
    rng = np.random.default_rng(1234)
    # a handful of probability rows, so summed probabilities tie often
    rows = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5],
                     [1 / 3, 1 / 3, 1 / 3]])
    vote_ties = residual_ties = 0
    for m in range(1, 7):
        n = 1000
        good = rng.random((m, n)) < 0.75
        pred = rng.integers(0, N_CLASSES, size=(m, n))
        probs = rows[rng.integers(0, len(rows), size=(m, n))]
        voted, labels, goods, agrees = _vote_batch(_SetEval(good, pred, probs), agreement)
        for i in range(n):
            want = vote_by_hand(good[:, i], pred[:, i], probs[:, i], agreement)
            got = (int(labels[i]), int(goods[i]), int(agrees[i])) if voted[i] else None
            assert got == want, (m, i)
            counts = np.bincount(pred[good[:, i], i], minlength=N_CLASSES)
            tied = np.flatnonzero(counts == counts.max())
            if want is not None and counts.max() > 0 and len(tied) > 1:
                vote_ties += 1
                summed = probs[good[:, i], i].sum(axis=0)[tied]
                residual_ties += int((summed == summed.max()).sum() > 1)
    if agreement == "plurality":
        assert vote_ties > 100 and residual_ties > 20


def test_vote_needs_at_least_half_the_members():
    probs = np.tile(p(0), (5, 1))
    pred = np.zeros(5, dtype=np.int64)
    for n_good in range(6):
        good = np.zeros(5, dtype=bool)
        good[:n_good] = True
        out = vote_one(good, pred, probs, "plurality")
        if n_good >= 3:  # ceil(5/2)
            assert out == (0, n_good, n_good)
        else:
            assert out is None


def test_vote_with_even_member_count_allows_an_exact_half():
    probs = np.tile(p(1), (4, 1))
    good = np.array([True, True, False, False])
    out = vote_one(good, np.full(4, 1, dtype=np.int64), probs, "plurality")
    assert out == (1, 2, 2)


def test_plurality_picks_the_most_common_good_label():
    good = np.array([True, True, True, False, True])
    pred = np.array([2, 2, 0, 1, 2], dtype=np.int64)
    probs = np.stack([p(2), p(2), p(0), p(1), p(2)])
    label, good_count, agree = vote_one(good, pred, probs, "plurality")
    assert (label, good_count, agree) == (2, 4, 3)


def test_plurality_tie_breaks_by_summed_probabilities_of_tied_labels_only():
    good = np.ones(4, dtype=bool)
    pred = np.array([0, 0, 1, 1], dtype=np.int64)
    # class 2 cheers loudest overall but got no votes, so it cannot win;
    # among the tied {0, 1}, label 1 has the heavier probability mass
    rows = np.array([
        [0.30, 0.20, 0.50],
        [0.30, 0.20, 0.50],
        [0.10, 0.40, 0.50],
        [0.10, 0.40, 0.50],
    ])
    label, _, agree = vote_one(good, pred, rows, "plurality")
    assert label == 1
    assert agree == 2


def test_plurality_residual_tie_takes_the_lowest_label():
    good = np.ones(2, dtype=bool)
    pred = np.array([0, 2], dtype=np.int64)
    rows = np.array([[0.4, 0.2, 0.4], [0.4, 0.2, 0.4]])
    label, _, _ = vote_one(good, pred, rows, "plurality")
    assert label == 0


def test_unanimity_withdraws_on_any_disagreement():
    good = np.array([True, True, True, False])
    agreeing = np.array([1, 1, 1, 0], dtype=np.int64)
    probs = np.tile(p(1), (4, 1))
    assert vote_one(good, agreeing, probs, "unanimity") == (1, 3, 3)
    dissent = np.array([1, 1, 2, 0], dtype=np.int64)
    assert vote_one(good, dissent, probs, "unanimity") is None


def test_set_vote_over_scripted_members():
    models = [
        scripted_model(p(0), good_radius=1.0),
        scripted_model(p(0), good_radius=1.0),
        scripted_model(p(1), good_radius=5.0),
    ]
    # at distance 3 only the wide-radius member remains: 1 < ceil(3/2)
    X = np.array([[0.0, 0.0], [3.0, 0.0]])
    voted, labels, goods, agrees = _vote_batch(_SetEval.run(models, X), "plurality")
    assert voted.tolist() == [True, False]
    assert (labels[0], goods[0], agrees[0]) == (0, 3, 2)
    assert (labels[1], goods[1], agrees[1]) == (-1, 0, 0)


# ------------------------------------------------------------------ tiering


def tiered_fixture():
    """Three members: originals trust points near the origin, retrained
    models trust points near (10, 10)."""
    members = [
        scripted_member(0, p(0), p(1), center1=(0, 0), radius1=1.0,
                        center2=(10, 10), radius2=1.0),
        scripted_member(1, p(0), p(2), center1=(0, 0), radius1=1.0,
                        center2=(10, 10), radius2=1.0),
        scripted_member(2, p(1), p(2), center1=(0, 0), radius1=1.0,
                        center2=(10, 10), radius2=1.0),
    ]
    return scripted_bundle(members)


def test_classify_batch_assigns_the_three_tiers():
    bundle = tiered_fixture()
    X = np.array([
        [0.0, 0.0],    # near the originals' trusted zone
        [10.0, 10.0],  # only the retrained models trust it
        [5.0, 5.0],    # nobody does
    ])
    verdicts = classify_batch(bundle, X)
    assert [v.tier for v in verdicts] == ["original_good", "bad_1", "bad_2"]
    # original models vote 0,0,1 -> 0; retrained vote 1,2,2 -> 2
    assert verdicts[0].label == 0
    assert verdicts[1].label == 2
    # fallback: argmax of the summed retrained probability vectors
    expected = np.argmax(p(1) + p(2) + p(2))
    assert verdicts[2].label == int(expected)


def test_classify_single_point_matches_batch():
    bundle = tiered_fixture()
    X = np.array([[0.0, 0.0], [10.0, 10.0], [5.0, 5.0]])
    batch = classify_batch(bundle, X)
    assert [classify_batch(bundle, x)[0] for x in X] == batch


def test_tier_verdict_rejects_unknown_tier():
    with pytest.raises(ValueError):
        TierVerdict("great", 0)


# ------------------------------------------------------------------- routing


def test_routing_sends_only_bad2_to_the_bad_model():
    tiers = [
        TierVerdict("original_good", 0),
        TierVerdict("bad_1", 1),
        TierVerdict("bad_2", 0),
        TierVerdict("original_good", 2),
    ]
    original = ExternalPredictions(np.eye(3)[[0, 1, 2, 2]], "original")
    bad = ExternalPredictions(np.eye(3)[[1, 0, 1, 0]], "bad")
    routed = large_model_route(tiers, original, bad)
    assert_array_equal(routed, [0, 1, 1, 2])


def test_routing_validates_alignment():
    tiers = [TierVerdict("bad_2", 0)] * 3
    two_rows = ExternalPredictions(np.eye(3)[[0, 1]], "original")
    three_rows = ExternalPredictions(np.eye(3), "bad")
    with pytest.raises(ValueError, match="align"):
        large_model_route(tiers, two_rows, three_rows)
    wide = ExternalPredictions(np.ones((3, 4)), "original")
    with pytest.raises(ValueError, match="class count"):
        large_model_route(tiers, wide, three_rows)


def test_external_predictions_validation():
    with pytest.raises(ValueError):
        ExternalPredictions(np.ones(3), "original")
    with pytest.raises(ValueError):
        ExternalPredictions(np.ones((3, 2)), "huge")


# ------------------------------------------------------------------ reports


def test_tier_report_counts_and_accuracies():
    tiers = [
        TierVerdict("original_good", 1),
        TierVerdict("original_good", 0),
        TierVerdict("bad_2", 2),
        TierVerdict("bad_2", 2),
        TierVerdict("bad_2", 1),
    ]
    labels = [1, 0, 2, 2, 1]
    truth = [1, 1, 2, 0, 1]
    rep = tier_report(tiers, labels, truth)
    assert rep.counts == {"original_good": 2, "bad_1": 0, "bad_2": 3}
    assert rep.accuracies["original_good"] == 0.5
    assert rep.accuracies["bad_1"] is None
    assert_allclose(rep.accuracies["bad_2"], 2 / 3)
    assert rep.overall_count == 5
    assert_allclose(rep.overall_accuracy, 3 / 5)
    assert sum(rep.counts.values()) == rep.overall_count


def test_tier_report_doc_round_trip():
    tiers = [TierVerdict("bad_1", 0), TierVerdict("original_good", 1)]
    rep = tier_report(tiers, [0, 1], [0, 0])
    back = TierReport.from_doc(rep.to_doc())
    assert back.counts == rep.counts
    assert back.accuracies == rep.accuracies
    assert back.overall_accuracy == rep.overall_accuracy


def test_tier_report_alignment_check():
    with pytest.raises(ValueError):
        tier_report([TierVerdict("bad_2", 0)], [0, 1], [0])


# -------------------------------------------------------------------- bound


def test_measured_bound_inputs_on_a_scripted_vote():
    members = [
        scripted_member(0, p(0), p(0)),
        scripted_member(1, p(0), p(0)),
        scripted_member(2, p(1), p(1)),
    ]
    bundle = scripted_bundle(members, n_train=4)
    ds = Dataset(np.zeros((4, 2)), np.array([0, 0, 1, 1]))
    bi = measure_bound_inputs(bundle, ds)
    # every member is wrong on exactly two of the four points
    assert bi.v == 2
    assert bi.f1 == Fraction(3, 3)
    # the vote returns 0 everywhere with two of three good members agreeing
    assert bi.f2 == Fraction(2, 3)
    assert bi.observed_incorrect == 2
    assert bi.n_voted == 4
    assert bi.observed_incorrect <= bi.v / (bi.f1 * bi.f2)


def test_bound_inputs_when_nothing_is_voted():
    never = FilterParams(np.inf, 1, 1.0)  # empty stats can never satisfy this
    members = []
    for fold in range(2):
        mm = scripted_model(p(0))
        starved = MemberModel(mm.net, mm.path_model, mm.stats, never,
                              GridSearchResult(never, 0, 0.0, False))
        members.append(Member(fold, starved, starved, np.array([], dtype=np.int64)))
    bundle = scripted_bundle(members, n_train=4)
    ds = Dataset(np.zeros((3, 2)), np.array([0, 1, 2]))
    bi = measure_bound_inputs(bundle, ds)
    assert bi.n_voted == 0
    assert bi.v == 0
    assert bi.f1 == Fraction(1) and bi.f2 == Fraction(1)
    assert bi.observed_incorrect == 0


# ----------------------------------------------------------- real training


def blob_data(n_per=20, seed=0):
    rng = np.random.default_rng(seed)
    anchors = np.array([[0.0, 0.0], [4.0, 4.0], [0.0, 4.0]])
    pts = np.vstack([a + rng.normal(scale=0.4, size=(n_per, 2)) for a in anchors])
    labels = np.repeat([0, 1, 2], n_per)
    order = rng.permutation(len(pts))
    return Dataset(pts[order], labels[order])


def tiny_ensemble(data, **overrides):
    kwargs = dict(
        target_accuracy=0.6,
        cluster_policy=KPolicy(seed=3, overrides={0: 3, 1: 2, 2: 3}, restarts=2),
    )
    kwargs.update(overrides)
    return train_ensemble(
        data,
        PartitionScheme("block", 3),
        NetworkConfig((2, 6, 3), "sigmoid"),
        TrainConfig(epochs=8, batch_size=8, step_size=0.05, rng_seed=5),
        ParamGrid((2.0, np.inf), (0, 2), (0.0, 0.5)),
        **kwargs,
    )


def test_train_ensemble_builds_one_member_per_fold():
    data = blob_data()
    lines = []
    bundle = tiny_ensemble(data, progress=lines.append)
    assert bundle.n_members == 3
    assert [mb.fold_index for mb in bundle.members] == [0, 1, 2]
    assert bundle.n_train == len(data)
    assert bundle.metadata["train_seed"] == 5
    assert bundle.metadata["cluster_seed"] == 3
    assert bundle.metadata["copies"] == 2
    assert any("fold 2" in line for line in lines)
    folds = bundle.folds()
    for mb, (tr_idx, _) in zip(bundle.members, folds):
        # bad indices live in the full dataset's coordinates, inside this fold's train part
        assert set(mb.bad_train_indices) <= set(tr_idx.tolist())
    verdicts = classify_batch(bundle, data.points)
    assert {v.tier for v in verdicts} <= set(TIERS)


def test_train_ensemble_is_reproducible():
    data = blob_data(seed=1)
    a = tiny_ensemble(data)
    b = tiny_ensemble(data)
    for ma, mb in zip(a.members, b.members):
        for wa, wb in zip(ma.model1.net.weights, mb.model1.net.weights):
            assert_array_equal(wa, wb)
        for wa, wb in zip(ma.model2.net.weights, mb.model2.net.weights):
            assert_array_equal(wa, wb)
        assert ma.model1.params == mb.model1.params
        assert_array_equal(ma.bad_train_indices, mb.bad_train_indices)


def test_train_ensemble_input_validation():
    data = blob_data(n_per=10)
    with pytest.raises(ValueError, match="agreement"):
        tiny_ensemble(data, agreement="majority")
    with pytest.raises(ValueError, match="stats_basis"):
        tiny_ensemble(data, stats_basis="test")
    with pytest.raises(ValueError, match="integer"):
        tiny_ensemble(data, cluster_policy=KPolicy(seed=(1, 2)))


def test_model2_seed_offset_separates_the_streams():
    assert MODEL2_SEED_OFFSET > 10000


# --------------------------------------------------------------- persistence


def test_bundle_round_trip(tmp_path):
    data = blob_data(seed=2)
    bundle = tiny_ensemble(data)
    save_bundle(bundle, tmp_path / "bundle")
    back = load_bundle(tmp_path / "bundle")
    assert back.n_members == bundle.n_members
    assert back.scheme == bundle.scheme
    assert back.n_train == bundle.n_train
    assert back.agreement == bundle.agreement
    assert back.metadata == bundle.metadata
    for ma, mb in zip(back.members, bundle.members):
        assert ma.fold_index == mb.fold_index
        assert ma.model1.params == mb.model1.params
        assert ma.model1.stats == mb.model1.stats
        assert ma.model1.search == mb.model1.search
        assert_array_equal(ma.bad_train_indices, mb.bad_train_indices)
        for wa, wb in zip(ma.model2.net.weights, mb.model2.net.weights):
            assert_array_equal(wa, wb)
    probe = data.points[:10]
    assert classify_batch(back, probe) == classify_batch(bundle, probe)


def test_bundle_round_trip_preserves_infinite_distance(tmp_path):
    members = [scripted_member(f, p(0), p(1)) for f in range(2)]
    bundle = scripted_bundle(members)
    save_bundle(bundle, tmp_path / "b")
    back = load_bundle(tmp_path / "b")
    assert back.members[0].model1.params.max_norm_distance == math.inf


def test_load_bundle_rejects_foreign_manifests(tmp_path):
    members = [scripted_member(f, p(0), p(1)) for f in range(2)]
    save_bundle(scripted_bundle(members), tmp_path / "b")
    manifest_path = tmp_path / "b" / "bundle.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["format_version"] = 7
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="format version"):
        load_bundle(tmp_path / "b")
    manifest["format_version"] = 1
    manifest["depth"] = 3
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="depth"):
        load_bundle(tmp_path / "b")


def test_bundle_validation():
    members = [scripted_member(f, p(0), p(1)) for f in range(2)]
    with pytest.raises(ValueError, match="member count"):
        EnsembleBundle(members, PartitionScheme("block", 3), 12)
    with pytest.raises(ValueError, match="agreement"):
        EnsembleBundle(members, PartitionScheme("block", 2), 12, agreement="quorum")
    with pytest.raises(ValueError, match="stats_basis"):
        EnsembleBundle(members, PartitionScheme("block", 2), 12, stats_basis="test")
    with pytest.raises(ValueError, match="fold indices"):
        EnsembleBundle(members[::-1], PartitionScheme("block", 2), 12)
    with pytest.raises(ValueError):
        EnsembleBundle([], PartitionScheme("block", 2), 12)


def saved_bundle(tmp_path):
    """A two-member scripted bundle on disk (every path model has k = 1)."""
    members = [scripted_member(f, p(0), p(1)) for f in range(2)]
    save_bundle(scripted_bundle(members), tmp_path)
    return tmp_path


def edit_json(path, change):
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def test_load_bundle_rejects_stats_outside_the_path_model(tmp_path):
    for i, key in enumerate(("2:0:0", "-1:0:0", "0:1:0", "0:0:-1", "1:-1:0")):
        d = saved_bundle(tmp_path / str(i))
        edit_json(d / "member_1.json", lambda doc: doc["model2"].update(
            stats={key: {"count": 4, "accuracy": 1.0}}))
        with pytest.raises(ValueError, match=f"stats key '{key}' lies outside"):
            load_bundle(d)


def test_load_bundle_rejects_impossible_split_stats(tmp_path):
    for i, item in enumerate(({"count": -2, "accuracy": 0.5},
                              {"count": 3, "accuracy": 1.25},
                              {"count": 3, "accuracy": -0.5})):
        d = saved_bundle(tmp_path / str(i))
        edit_json(d / "member_0.json", lambda doc: doc["model1"].update(
            stats={"1:0:0": item}))
        with pytest.raises(ValueError, match="split 1:0:0"):
            load_bundle(d)


def test_load_bundle_rejects_an_unknown_stats_basis(tmp_path):
    d = saved_bundle(tmp_path)
    edit_json(d / "bundle.json", lambda doc: doc.update(stats_basis="everything"))
    with pytest.raises(ValueError, match="stats_basis"):
        load_bundle(d)


def test_load_bundle_rejects_folds_out_of_manifest_order(tmp_path):
    d = saved_bundle(tmp_path / "swapped")
    edit_json(d / "bundle.json", lambda doc: doc["members"].reverse())
    with pytest.raises(ValueError, match=r"fold indices must run 0..1 in order, got \[1, 0\]"):
        load_bundle(d)
    d = saved_bundle(tmp_path / "duplicate")
    edit_json(d / "member_1.json", lambda doc: doc.update(fold_index=0))
    with pytest.raises(ValueError, match=r"got \[0, 0\]"):
        load_bundle(d)
