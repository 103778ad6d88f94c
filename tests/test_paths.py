"""Filter and split tests.

The root oracle is ``verdict_by_hand``: a direct restatement of the
three-threshold rule with no vectorization and no early-exit ordering.
classify_point, filter_features/good_mask, and grid_search all triangulate
through it.
"""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pathens.clustering import ClusterSet
from pathens.network import Dataset, NetworkConfig, forward_batch, init_network
from pathens.paths import (
    FilterParams,
    GridSearchResult,
    KPolicy,
    ParamGrid,
    Path,
    PathModel,
    Split,
    SplitTable,
    Verdict,
    build_path_model,
    classify_point,
    compute_paths,
    filter_features,
    good_mask,
    grid_search,
    load_path_model,
    path_model_from_doc,
    path_model_to_doc,
    save_path_model,
    split_stats,
    stats_from_doc,
    stats_to_doc,
)


def verdict_by_hand(stats, params, ids, nd):
    """Is the point good? All distances in bound, every traversed split
    populous and accurate enough. No ordering, no shortcuts."""
    if any(d > params.max_norm_distance for d in nd):
        return False
    for l in range(len(ids) - 1):
        count = stats.count[l][ids[l], ids[l + 1]]
        acc = stats.accuracy[l][ids[l], ids[l + 1]]
        if count < params.min_split_count or acc < params.min_split_accuracy:
            return False
    return True


def table(ks, entries):
    """SplitTable for layer sizes ``ks`` from {(layer, src, dst): (count, accuracy)}."""
    t = SplitTable.zeros(ks)
    for (l, s, d), (count, acc) in entries.items():
        t.count[l][s, d] = count
        t.accuracy[l][s, d] = acc
    return SplitTable(t.count, t.accuracy)


def stats_by_hand(ids, labels, preds, k):
    """Per-split count and accuracy by plain iteration."""
    tallies = {}
    for l in range(ids.shape[1] - 1):
        for i in range(len(ids)):
            sp = (l, int(ids[i, l]), int(ids[i, l + 1]))
            cnt, hit = tallies.get(sp, (0, 0))
            tallies[sp] = (cnt + 1, hit + int(labels[i] == preds[i]))
    return table([k] * ids.shape[1], {sp: (c, h / c) for sp, (c, h) in tallies.items()})


def random_filter_case(rng, n_layers=4, k=4):
    ids = rng.integers(0, k, size=n_layers)
    nd = rng.uniform(0.0, 3.0, size=n_layers)
    entries = {}
    for l in range(n_layers - 1):
        for src in range(k):
            for dst in range(k):
                if rng.random() < 0.6:
                    count, acc = int(rng.integers(0, 50)), float(rng.random())
                    entries[(l, src, dst)] = (count, acc if count else 0.0)
    d = np.inf if rng.random() < 0.1 else float(rng.uniform(0.5, 2.5))
    params = FilterParams(d, int(rng.integers(0, 30)), float(rng.random()))
    return table([k] * n_layers, entries), params, ids, nd


def dummy_model(n_layers, k=1):
    """PathModel stand-in when only the layer count and k matter."""
    return PathModel([ClusterSet(np.zeros((k, 2)), 0.0, 0.0)] * n_layers)


def layer_acts(net, X):
    return forward_batch(net, X, record=True)[1]


# ------------------------------------------------------------ value objects


def test_split_key_round_trip():
    sp = Split(2, 7, 11)
    assert sp.key == "2:7:11"
    assert Split.from_key("2:7:11") == sp


def test_split_stats_validation():
    table([2, 2], {(0, 1, 0): (3, 1.0)})
    for bad in ((-1, 0.0), (3, 1.5), (3, -0.1), (3, np.nan), (0, 0.5)):
        with pytest.raises(ValueError, match="split 0:1:0"):
            table([2, 2], {(0, 1, 0): bad})
    with pytest.raises(ValueError, match="layer 1"):
        SplitTable([np.zeros((2, 3)), np.zeros((3, 2))], [np.zeros((2, 3)), np.zeros((3, 3))])
    with pytest.raises(ValueError):
        SplitTable([], [])


def test_filter_params_accept_infinite_distance_but_not_nan():
    p = FilterParams(np.inf, 5, 0.9)
    assert p.max_norm_distance == np.inf
    with pytest.raises(ValueError):
        FilterParams(np.nan, 5, 0.9)
    with pytest.raises(ValueError):
        FilterParams(0.0, 5, 0.9)
    with pytest.raises(ValueError):
        FilterParams(1.0, -1, 0.9)
    with pytest.raises(ValueError):
        FilterParams(1.0, 5, 1.1)


def test_verdict_consistency_rule():
    Verdict(True)
    Verdict(False, "distance-at-layer-0")
    with pytest.raises(ValueError):
        Verdict(True, "distance-at-layer-0")
    with pytest.raises(ValueError):
        Verdict(False)


def test_path_needs_aligned_1d_arrays():
    assert len(Path(np.array([3, 1, 4, 1]), np.zeros(4))) == 4
    with pytest.raises(ValueError):
        Path(np.array([1, 2]), np.zeros(3))
    with pytest.raises(ValueError):
        Path(np.zeros((2, 2), dtype=int), np.zeros((2, 2)))


def test_path_model_needs_three_layers():
    with pytest.raises(ValueError):
        PathModel([ClusterSet(np.zeros((1, 2)), 0.0, 0.0)] * 2)


def test_kpolicy_layer_seeds():
    assert KPolicy(seed=9).layer_seed(3) == (9, 3)
    assert KPolicy(seed=(5, 1)).layer_seed(0) == (5, 1, 0)


# --------------------------------------------------------------- split stats


def test_split_stats_match_plain_iteration():
    rng = np.random.default_rng(31)
    for trial in range(10):
        n, n_layers = 80, 4
        ids = rng.integers(0, 5, size=(n, n_layers))
        labels = rng.integers(0, 3, size=n)
        preds = rng.integers(0, 3, size=n)
        got = split_stats(dummy_model(n_layers, 5), ids, labels, preds)
        want = stats_by_hand(ids, labels, preds, 5)
        assert got == want


def test_split_counts_conserve_points_per_layer():
    rng = np.random.default_rng(32)
    n, n_layers = 200, 5
    ids = rng.integers(0, 6, size=(n, n_layers))
    labels = rng.integers(0, 4, size=n)
    stats = split_stats(dummy_model(n_layers, 6), ids, labels, labels)
    for l in range(n_layers - 1):
        assert stats.count[l].sum() == n


def test_split_stats_input_validation():
    pm = dummy_model(3)
    ids = np.zeros((4, 3), dtype=int)
    with pytest.raises(ValueError):
        split_stats(pm, np.zeros((4, 2), dtype=int), np.zeros(4), np.zeros(4))
    with pytest.raises(ValueError):
        split_stats(pm, ids, np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError, match="k per layer"):
        split_stats(pm, ids + 1, np.zeros(4), np.zeros(4))
    with pytest.raises(ValueError, match="k per layer"):
        split_stats(pm, ids - 1, np.zeros(4), np.zeros(4))


# -------------------------------------------------------------------- filter


def test_classify_point_agrees_with_the_hand_rule():
    rng = np.random.default_rng(505)
    for _ in range(300):
        stats, params, ids, nd = random_filter_case(rng)
        got = classify_point(stats, params, Path(ids, nd))
        assert got.good == verdict_by_hand(stats, params, ids, nd)


def test_vectorized_filter_agrees_with_classify_point():
    rng = np.random.default_rng(606)
    for _ in range(50):
        stats, params, _, _ = random_filter_case(rng)
        n = 30
        ids = rng.integers(0, 4, size=(n, 4))
        nd = rng.uniform(0.0, 3.0, size=(n, 4))
        mask = good_mask(filter_features(stats, ids, nd), params)
        for i in range(n):
            point_verdict = classify_point(stats, params, Path(ids[i], nd[i]))
            assert mask[i] == point_verdict.good


def test_first_failure_reports_the_earliest_broken_rule():
    stats = table([1, 1, 1], {(0, 0, 0): (100, 1.0), (1, 0, 0): (100, 1.0)})
    params = FilterParams(1.0, 10, 0.9)
    ids = np.zeros(3, dtype=int)

    v = classify_point(stats, params, Path(ids, np.array([5.0, 9.0, 0.0])))
    assert v.first_failure == "distance-at-layer-0"

    # distance at a later layer loses to a broken split at an earlier one
    bad_first_split = table([1, 1, 1], {(0, 0, 0): (2, 1.0), (1, 0, 0): (100, 1.0)})
    v = classify_point(bad_first_split, params, Path(ids, np.array([0.0, 5.0, 0.0])))
    assert v.first_failure == "small-split-at-0"

    # within a layer: distance, then count, then accuracy
    v = classify_point(bad_first_split, params, Path(ids, np.array([5.0, 0.0, 0.0])))
    assert v.first_failure == "distance-at-layer-0"
    low_acc = table([1, 1, 1], {(0, 0, 0): (100, 0.2), (1, 0, 0): (100, 1.0)})
    v = classify_point(low_acc, params, Path(ids, np.zeros(3)))
    assert v.first_failure == "low-accuracy-split-at-0"

    v = classify_point(stats, params, Path(ids, np.array([0.0, 0.0, 2.0])))
    assert v.first_failure == "distance-at-layer-2"


def test_missing_split_counts_as_empty():
    empty = SplitTable.zeros([2, 2, 2])
    params_count = FilterParams(np.inf, 1, 0.0)
    v = classify_point(empty, params_count, Path(np.array([0, 1, 0]), np.zeros(3)))
    assert v.first_failure == "small-split-at-0"
    params_acc = FilterParams(np.inf, 0, 0.5)
    v = classify_point(empty, params_acc, Path(np.array([0, 1, 0]), np.zeros(3)))
    assert v.first_failure == "low-accuracy-split-at-0"


def test_vacuous_params_pass_everything():
    params = FilterParams(np.inf, 0, 0.0)
    rng = np.random.default_rng(9)
    for _ in range(20):
        ids = rng.integers(0, 3, size=4)
        nd = rng.uniform(0, 100, size=4)
        assert classify_point(SplitTable.zeros([3] * 4), params, Path(ids, nd)).good


def tighten(rng, params):
    d = params.max_norm_distance
    if np.isfinite(d):
        d = d * float(rng.uniform(0.3, 1.0))
    elif rng.random() < 0.5:
        d = float(rng.uniform(0.5, 3.0))
    c = params.min_split_count + int(rng.integers(0, 10))
    a = params.min_split_accuracy
    a = a + (1.0 - a) * float(rng.random())
    return FilterParams(d, c, a)


def test_tightening_never_flips_bad_to_good():
    rng = np.random.default_rng(707)
    for _ in range(300):
        stats, params, ids, nd = random_filter_case(rng)
        tighter = tighten(rng, params)
        loose = classify_point(stats, params, Path(ids, nd)).good
        tight = classify_point(stats, tighter, Path(ids, nd)).good
        assert not (tight and not loose)


def test_tightening_shrinks_the_good_set():
    rng = np.random.default_rng(808)
    stats, params, _, _ = random_filter_case(rng)
    loose = FilterParams(2.0, 3, 0.2)
    tight = FilterParams(1.0, 10, 0.6)
    ids = rng.integers(0, 4, size=(200, 4))
    nd = rng.uniform(0.0, 2.5, size=(200, 4))
    feats = filter_features(stats, ids, nd)
    loose_mask = good_mask(feats, loose)
    tight_mask = good_mask(feats, tight)
    assert not (tight_mask & ~loose_mask).any()


# --------------------------------------------------------------- grid search


def search_by_hand(stats, ids, nd, labels, preds, grid, target):
    """Score every triple with the hand verdict and replay the selection."""
    correct = labels == preds
    rows = []
    for p in grid.triples():
        kept = [i for i in range(len(ids)) if verdict_by_hand(stats, p, ids[i], nd[i])]
        acc = float(correct[kept].mean()) if kept else 0.0
        rows.append((p, len(kept), acc))

    def tightness(p):
        return (-p.max_norm_distance, p.min_split_count, p.min_split_accuracy)

    meeting = [r for r in rows if r[2] >= target]
    if meeting:
        p, kept, acc = max(meeting, key=lambda r: (r[1], *tightness(r[0])))
        return GridSearchResult(p, kept, acc, True)
    p, kept, acc = max(rows, key=lambda r: (r[2], r[1], *tightness(r[0])))
    return GridSearchResult(p, kept, acc, False)


def test_grid_search_matches_exhaustive_oracle():
    rng = np.random.default_rng(909)
    grid = ParamGrid((0.8, 1.5, 2.5), (0, 5, 20), (0.0, 0.4, 0.8))
    for target in (0.0, 0.5, 0.9, 1.0):
        for _ in range(8):
            stats, _, _, _ = random_filter_case(rng)
            n = 40
            ids = rng.integers(0, 4, size=(n, 4))
            nd = rng.uniform(0.0, 3.0, size=(n, 4))
            labels = rng.integers(0, 3, size=n)
            preds = np.where(rng.random(n) < 0.7, labels, (labels + 1) % 3)
            got = grid_search(stats, ids, nd, labels, preds, grid, target)
            want = search_by_hand(stats, ids, nd, labels, preds, grid, target)
            assert got == want


def test_grid_search_ties_prefer_the_tighter_filter():
    # every triple keeps the single (correctly predicted) point, so the
    # winner must be the smallest distance with the largest count and accuracy
    stats = table([1, 1, 1], {(0, 0, 0): (50, 1.0), (1, 0, 0): (50, 1.0)})
    ids = np.zeros((1, 3), dtype=int)
    nd = np.zeros((1, 3))
    grid = ParamGrid((1.0, 2.0), (5, 10), (0.5, 1.0))
    res = grid_search(stats, ids, nd, np.array([0]), np.array([0]), grid, 0.9)
    assert res.met_target
    assert res.params == FilterParams(1.0, 10, 1.0)
    assert res.retained_count == 1
    assert res.retained_accuracy == 1.0


def test_grid_search_falls_back_to_highest_accuracy():
    stats = table([1, 1, 1], {(0, 0, 0): (50, 1.0), (1, 0, 0): (50, 1.0)})
    n = 10
    ids = np.zeros((n, 3), dtype=int)
    nd = np.zeros((n, 3))
    labels = np.zeros(n, dtype=int)
    preds = np.ones(n, dtype=int)  # everything wrong
    grid = ParamGrid((1.0,), (0, 100), (0.0,))
    res = grid_search(stats, ids, nd, labels, preds, grid, 0.99)
    assert not res.met_target
    assert res.retained_accuracy == 0.0


def test_grid_search_input_validation():
    grid = ParamGrid((1.0,), (0,), (0.0,))
    empty = SplitTable.zeros([1, 1, 1])
    with pytest.raises(ValueError):
        grid_search(empty, np.zeros((0, 3), dtype=int), np.zeros((0, 3)),
                     np.zeros(0), np.zeros(0), grid, 0.5)
    with pytest.raises(ValueError):
        grid_search(empty, np.zeros((1, 3), dtype=int), np.zeros((1, 3)),
                     np.zeros(1), np.zeros(1), grid, 1.5)
    with pytest.raises(ValueError):
        ParamGrid((), (0,), (0.0,))


# ---------------------------------------------------------------- path model


def blob_dataset(seed=0):
    rng = np.random.default_rng(seed)
    anchors = np.array([[0.0, 0.0, 0.0], [4.0, 4.0, 4.0], [0.0, 4.0, 0.0]])
    pts = np.vstack([a + rng.normal(scale=0.3, size=(40, 3)) for a in anchors])
    labels = np.repeat([0, 1, 2], 40)
    return Dataset(pts, labels)


def test_build_path_model_shapes_and_overrides():
    ds = blob_dataset()
    net = init_network(NetworkConfig((3, 6, 5, 3), "sigmoid"), 2)
    policy = KPolicy(seed=1, overrides={0: 3, 3: 2}, candidates=(1, 2, 3, 4), restarts=2)
    pm = build_path_model(layer_acts(net, ds.points), policy)
    assert pm.n_layers == 4  # input, two hiddens, output
    assert pm.cluster_sets[0].k == 3
    assert pm.cluster_sets[3].k == 2
    assert pm.elbow_curves[0] is None and pm.elbow_curves[3] is None
    for layer in (1, 2):
        curve = pm.elbow_curves[layer]
        assert curve is not None
        assert pm.cluster_sets[layer].k == curve.selected_k


def test_build_path_model_is_deterministic():
    ds = blob_dataset(3)
    net = init_network(NetworkConfig((3, 5, 3), "relu"), 4)
    policy = KPolicy(seed=6, candidates=(1, 2, 3), restarts=2)
    a = build_path_model(layer_acts(net, ds.points), policy)
    b = build_path_model(layer_acts(net, ds.points), policy)
    for ca, cb in zip(a.cluster_sets, b.cluster_sets):
        assert_array_equal(ca.centers, cb.centers)


def test_compute_paths_and_single_point_agree():
    ds = blob_dataset(5)
    net = init_network(NetworkConfig((3, 6, 3), "sigmoid"), 7)
    pm = build_path_model(layer_acts(net, ds.points), KPolicy(seed=2, overrides={0: 3, 1: 3, 2: 2}))
    ids, nd = compute_paths(pm, layer_acts(net, ds.points))
    assert ids.shape == (len(ds), 3) and nd.shape == (len(ds), 3)
    for i in (0, 17, 80):
        one_ids, one_nd = compute_paths(pm, layer_acts(net, ds.points[i:i + 1]))
        assert_array_equal(one_ids[0], ids[i])
        assert_allclose(one_nd[0], nd[i], rtol=1e-12)


def test_single_cluster_everywhere_still_classifies():
    ds = blob_dataset(9)
    net = init_network(NetworkConfig((3, 4, 3), "sigmoid"), 0)
    pm = build_path_model(layer_acts(net, ds.points), KPolicy(seed=0, overrides={0: 1, 1: 1, 2: 1}))
    probs, acts = forward_batch(net, ds.points, record=True)
    ids, nd = compute_paths(pm, acts)
    assert (ids == 0).all()
    stats = split_stats(pm, ids, ds.labels, probs.argmax(axis=1))
    # one split per layer boundary, taken by every point
    assert [c.tolist() for c in stats.count] == [[[len(ds)]], [[len(ds)]]]
    verdict = classify_point(stats, FilterParams(np.inf, 0, 0.0),
                             Path(ids[0], nd[0]))
    assert verdict.good


def test_compute_paths_layer_count_mismatch():
    pm = dummy_model(3)
    with pytest.raises(ValueError):
        compute_paths(pm, [np.zeros((2, 2))] * 4)


def test_build_path_model_rejects_empty_training_set():
    net = init_network(NetworkConfig((3, 4, 2), "sigmoid"), 0)
    with pytest.raises(ValueError):
        build_path_model(layer_acts(net, np.zeros((0, 3))), KPolicy())


# --------------------------------------------------------------- persistence


def test_stats_doc_round_trip():
    stats = table([2, 3, 1, 1], {(0, 1, 2): (17, 0.75), (2, 0, 0): (3, 1.0)})
    doc = stats_to_doc(stats)
    assert doc == {"0:1:2": {"count": 17, "accuracy": 0.75},
                   "2:0:0": {"count": 3, "accuracy": 1.0}}
    assert stats_from_doc(doc, [2, 3, 1, 1]) == stats


def test_stats_doc_keys_must_lie_inside_the_path_model():
    item = {"count": 1, "accuracy": 1.0}
    for key in ("2:0:0", "-1:0:0", "0:2:0", "0:-1:0", "1:0:1", "1:0:-1"):
        with pytest.raises(ValueError, match=key):
            stats_from_doc({key: item}, [2, 3, 1])


def test_path_model_round_trip(tmp_path):
    ds = blob_dataset(11)
    net = init_network(NetworkConfig((3, 5, 3), "sigmoid"), 5)
    pm = build_path_model(layer_acts(net, ds.points), KPolicy(seed=4, candidates=(1, 2, 3, 4), restarts=2))
    fp = tmp_path / "pm.json"
    save_path_model(pm, fp)
    back = load_path_model(fp)
    assert back.n_layers == pm.n_layers
    for ca, cb in zip(back.cluster_sets, pm.cluster_sets):
        assert_array_equal(ca.centers, cb.centers)
        assert ca.inertia == cb.inertia
        assert ca.mean_center_distance == cb.mean_center_distance
    for va, vb in zip(back.elbow_curves, pm.elbow_curves):
        assert (va is None) == (vb is None)
        if va is not None:
            assert va.candidates == vb.candidates
            assert va.selected_k == vb.selected_k


def test_path_model_doc_preserves_override_markers():
    ds = blob_dataset(12)
    net = init_network(NetworkConfig((3, 4, 3), "sigmoid"), 6)
    pm = build_path_model(layer_acts(net, ds.points), KPolicy(seed=1, overrides={1: 2}, candidates=(1, 2, 3)))
    back = path_model_from_doc(path_model_to_doc(pm))
    assert back.elbow_curves[1] is None
    assert back.elbow_curves[0] is not None


def test_load_path_model_rejects_unknown_version(tmp_path):
    pm = dummy_model(3)
    fp = tmp_path / "pm.json"
    save_path_model(pm, fp)
    doc = json.loads(fp.read_text())
    doc["format_version"] = 0
    fp.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="format version"):
        load_path_model(fp)
