"""Clustering tests built around two oracles: exhaustive-partition search for
tiny instances and a linear-scan nearest-center assignment."""

import itertools
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pathens.clustering import (
    ClusterSet,
    ElbowCurve,
    cluster_set_from_doc,
    cluster_set_to_doc,
    count_distinct,
    default_k_candidates,
    elbow_select,
    kmeans,
    load_cluster_set,
    save_cluster_set,
)


def brute_force_inertia(X, k):
    """Exact global k-means optimum by enumerating every assignment.

    Groups may come out empty, which just means fewer than k clusters are
    used; that is a legal solution, so the minimum over all assignments is
    the true optimum. Only viable for tiny n and k.
    """
    n = len(X)
    best = math.inf
    for labels in itertools.product(range(k), repeat=n):
        total = 0.0
        for j in range(k):
            members = [X[i] for i in range(n) if labels[i] == j]
            if not members:
                continue
            center = np.mean(members, axis=0)
            total += sum(((m - center) ** 2).sum() for m in members)
        best = min(best, total)
    return best


def nearest_by_scan(centers, x):
    """Linear-scan assignment: lowest id wins ties."""
    best_id, best_d = 0, math.inf
    for j, c in enumerate(centers):
        d = math.dist(c, x)
        if d < best_d:
            best_id, best_d = j, d
    return best_id, best_d


# -------------------------------------------------------------------- kmeans


def test_k1_has_the_closed_form_solution():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 3))
    cs = kmeans(X, 1, seed=0)
    mean = X.mean(axis=0)
    assert_allclose(cs.centers[0], mean, rtol=1e-12)
    assert_allclose(cs.inertia, ((X - mean) ** 2).sum(), rtol=1e-12)
    dists = np.sqrt(((X - mean) ** 2).sum(axis=1))
    assert_allclose(cs.mean_center_distance, dists.mean(), rtol=1e-12)


def test_four_corners_with_k4_is_exact():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    cs = kmeans(X, 4, seed=1, restarts=5)
    assert cs.inertia == 0.0
    assert cs.mean_center_distance == 0.0
    assert {tuple(c) for c in cs.centers} == {tuple(x) for x in X}


def test_matches_brute_force_on_tiny_instances():
    rng = np.random.default_rng(2024)
    misses = 0
    for trial in range(25):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(1, 4))
        X = rng.normal(size=(n, 2))
        cs = kmeans(X, k, seed=trial, restarts=10)
        opt = brute_force_inertia(X, k)
        assert cs.inertia >= opt - 1e-9, "reported inertia below the true optimum"
        if cs.inertia > opt + 1e-9:
            misses += 1  # Lloyd can sit in a local minimum
    assert misses <= 2


def test_inertia_is_consistent_with_its_own_assignment():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(60, 4))
    cs = kmeans(X, 5, seed=4)
    _, dists = cs.assign_batch(X)
    assert_allclose((dists ** 2).sum(), cs.inertia, rtol=1e-10)
    assert_allclose(dists.mean(), cs.mean_center_distance, rtol=1e-10)


def test_lloyd_inertia_history_never_increases():
    rng = np.random.default_rng(12)
    for trial in range(10):
        X = rng.normal(size=(50, 3))
        _, history = kmeans(X, 4, seed=trial, collect_history=True)
        for earlier, later in zip(history, history[1:]):
            assert later <= earlier + 1e-9


def test_seed_determinism_including_tuple_seeds():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 2))
    a = kmeans(X, 3, seed=5)
    b = kmeans(X, 3, seed=5)
    assert_array_equal(a.centers, b.centers)
    c = kmeans(X, 3, seed=(5, 0, 2))
    d = kmeans(X, 3, seed=(5, 0, 2))
    assert_array_equal(c.centers, d.centers)


def test_identical_points_collapse_to_one_center():
    X = np.tile([[2.0, -1.0]], (7, 1))
    cs = kmeans(X, 1, seed=0)
    assert_allclose(cs.centers[0], [2.0, -1.0])
    assert cs.inertia == 0.0
    assert cs.mean_center_distance == 0.0
    with pytest.raises(ValueError, match="distinct"):
        kmeans(X, 2, seed=0)


def test_kmeans_input_validation():
    X = np.zeros((4, 2))
    with pytest.raises(ValueError):
        kmeans(np.zeros((0, 2)), 1, seed=0)
    with pytest.raises(ValueError):
        kmeans(X, 0, seed=0)
    with pytest.raises(ValueError):
        kmeans(X, 1, seed=0, restarts=0)
    with pytest.raises(ValueError):
        kmeans(np.array([[np.inf, 0.0]]), 1, seed=0)


def test_count_distinct():
    X = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]])
    assert count_distinct(X) == 2
    assert count_distinct(np.zeros((5, 3))) == 1


# ---------------------------------------------------------------- assignment


def test_assign_batch_matches_linear_scan():
    rng = np.random.default_rng(77)
    centers = rng.normal(size=(6, 3))
    cs = ClusterSet(centers, inertia=0.0, mean_center_distance=1.0)
    X = rng.normal(size=(50, 3))
    ids, dists = cs.assign_batch(X)
    for i in range(len(X)):
        want_id, want_d = nearest_by_scan(centers, X[i])
        assert ids[i] == want_id
        assert_allclose(dists[i], want_d, rtol=1e-10)


def test_assignment_ties_go_to_the_lowest_id():
    centers = np.array([[0.0, 0.0], [1.0, 0.0]])
    cs = ClusterSet(centers, 0.0, 1.0)
    ids, dist = cs.assign_batch(np.array([[0.5, 0.0]]))
    assert ids[0] == 0
    assert_allclose(dist[0], 0.5)


def test_assign_batch_rejects_wrong_dim():
    cs = ClusterSet(np.zeros((2, 3)), 0.0, 1.0)
    with pytest.raises(ValueError):
        cs.assign_batch(np.zeros((4, 2)))


def test_normalize_divides_by_mean_center_distance():
    cs = ClusterSet(np.zeros((1, 2)), 0.0, 0.5)
    assert_allclose(cs.normalize(np.array([1.0, 0.25])), [2.0, 0.5])


def test_normalize_with_collapsed_space():
    cs = ClusterSet(np.zeros((1, 2)), 0.0, 0.0)
    out = cs.normalize(np.array([0.0, 1e-12, 3.0]))
    assert out[0] == 0.0
    assert out[1] == np.inf and out[2] == np.inf


def test_cluster_set_validation():
    with pytest.raises(ValueError):
        ClusterSet(np.zeros((0, 2)), 0.0, 0.0)
    with pytest.raises(ValueError):
        ClusterSet(np.array([[np.nan, 0.0]]), 0.0, 0.0)
    with pytest.raises(ValueError):
        ClusterSet(np.zeros((1, 2)), -1.0, 0.0)


# --------------------------------------------------------------------- elbow


def three_blobs(seed=0, per=30, spread=0.05):
    rng = np.random.default_rng(seed)
    anchors = np.array([[0.0, 0.0], [5.0, 5.0], [10.0, 0.0]])
    pts = [a + rng.normal(scale=spread, size=(per, 2)) for a in anchors]
    return np.vstack(pts)


def test_elbow_finds_three_blobs():
    X = three_blobs()
    curve = elbow_select(X, range(1, 7), seed=2, restarts=5)
    assert curve.selected_k == 3
    assert curve.candidates == [1, 2, 3, 4, 5, 6]
    # inertia declines as k grows
    for earlier, later in zip(curve.inertias, curve.inertias[1:]):
        assert later <= earlier + 1e-9


def test_elbow_with_identical_points_selects_one_outright():
    X = np.tile([[1.0, 1.0]], (10, 1))
    curve = elbow_select(X, range(1, 6), seed=0)
    assert curve.candidates == [1]
    assert curve.selected_k == 1
    assert curve.inertias == [0.0]


def test_elbow_with_two_usable_candidates_warns_and_takes_the_smaller():
    X = np.array([[0.0, 0.0], [1.0, 0.0]] * 5)
    with pytest.warns(UserWarning, match="smaller k"):
        curve = elbow_select(X, [1, 2, 3, 4], seed=0)
    assert curve.candidates == [1, 2]
    assert curve.selected_k == 1


def test_elbow_ties_break_toward_smaller_k():
    # a perfectly straight inertia curve scores zero curvature everywhere,
    # so the first interior candidate must win
    X = three_blobs(seed=1)
    curve = elbow_select(X, range(1, 7), seed=3, restarts=5)
    scores = [
        curve.inertias[i - 1] - 2.0 * curve.inertias[i] + curve.inertias[i + 1]
        for i in range(1, len(curve.candidates) - 1)
    ]
    best = max(scores)
    first_best = next(i for i, s in enumerate(scores) if s == best)
    assert curve.selected_k == curve.candidates[first_best + 1]


def test_elbow_return_sets_hands_back_every_fit():
    X = three_blobs(seed=4)
    curve, fits = elbow_select(X, range(1, 6), seed=0, return_sets=True)
    assert sorted(fits) == curve.candidates
    for c, inertia in zip(curve.candidates, curve.inertias):
        assert fits[c].k == c
        assert fits[c].inertia == inertia


def test_elbow_input_validation():
    X = np.zeros((3, 2))
    with pytest.raises(ValueError):
        elbow_select(X, [], seed=0)
    with pytest.raises(ValueError):
        elbow_select(X, [0, 1], seed=0)
    with pytest.raises(ValueError):
        elbow_select(np.zeros((0, 2)), [1], seed=0)
    with pytest.raises(ValueError, match="no candidate"):
        elbow_select(X, [5], seed=0)  # only one distinct row


def test_default_k_candidates_scale_with_n():
    assert default_k_candidates(5) == [1, 2]
    assert default_k_candidates(50) == [1, 2, 3, 4, 5]
    assert default_k_candidates(200) == list(range(1, 21))
    assert default_k_candidates(100000) == list(range(1, 21))
    with pytest.raises(ValueError):
        default_k_candidates(0)


def test_elbow_curve_validation():
    with pytest.raises(ValueError):
        ElbowCurve([1, 2], [1.0], selected_k=1)
    with pytest.raises(ValueError):
        ElbowCurve([1, 2], [2.0, 1.0], selected_k=3)


# --------------------------------------------------------------- persistence


def test_cluster_set_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    cs = kmeans(rng.normal(size=(25, 3)), 4, seed=9)
    path = tmp_path / "clusters.json"
    save_cluster_set(cs, path)
    back = load_cluster_set(path)
    assert_array_equal(back.centers, cs.centers)
    assert back.inertia == cs.inertia
    assert back.mean_center_distance == cs.mean_center_distance


def test_cluster_set_doc_guards(tmp_path):
    cs = ClusterSet(np.zeros((2, 2)), 1.0, 0.5)
    doc = cluster_set_to_doc(cs)
    assert doc["k"] == 2
    doc["k"] = 3
    with pytest.raises(ValueError, match="disagrees"):
        cluster_set_from_doc(doc)

    path = tmp_path / "clusters.json"
    save_cluster_set(cs, path)
    raw = json.loads(path.read_text())
    raw["format_version"] = 42
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match="format version"):
        load_cluster_set(path)
