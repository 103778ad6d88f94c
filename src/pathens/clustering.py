"""k-means with k-means++ seeding, restarts, and elbow-based k selection."""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CLUSTER_SET_FORMAT_VERSION = 1


@dataclass
class ClusterSet:
    """Fitted centers for one space.

    ``inertia`` is the sum of squared distances of the fitted points to
    their nearest centers. ``mean_center_distance`` is the mean (plain,
    not squared) distance of the fitted points to their assigned centers;
    dividing by it lets one distance threshold span spaces whose raw
    scales differ wildly.
    """

    centers: np.ndarray
    inertia: float
    mean_center_distance: float

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=np.float64)
        if self.centers.ndim != 2 or len(self.centers) == 0:
            raise ValueError("centers must be a non-empty 2-D array (k, dim)")
        if not np.isfinite(self.centers).all():
            raise ValueError("centers must be finite")
        self.inertia = float(self.inertia)
        self.mean_center_distance = float(self.mean_center_distance)
        if self.inertia < 0 or self.mean_center_distance < 0:
            raise ValueError("inertia and mean_center_distance must be >= 0")

    @property
    def k(self) -> int:
        return len(self.centers)

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    def assign_batch(self, X):
        """Nearest-center ids and Euclidean distances for each row of X.

        Ties go to the lowest cluster id. Returns ``(ids, distances)``.
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.dim:
            raise ValueError(f"expected points of dim {self.dim}, got {X.shape[1]}")
        d2 = _distances_sq(X, self.centers)
        ids = d2.argmin(axis=1)
        dist = np.sqrt(d2[np.arange(len(X)), ids])
        return ids, dist

    def normalize(self, distances):
        """Distances divided by mean_center_distance.

        When the fitted points sat exactly on their centers the divisor is
        zero; a zero distance then normalizes to 0.0 and anything else to
        +inf (off-center is infinitely far in a collapsed space).
        """
        d = np.asarray(distances, dtype=np.float64)
        if self.mean_center_distance > 0.0:
            return d / self.mean_center_distance
        return np.where(d == 0.0, 0.0, np.inf)


@dataclass
class ElbowCurve:
    """Inertia per candidate k, plus the chosen k."""

    candidates: list[int]
    inertias: list[float]
    selected_k: int

    def __post_init__(self):
        if len(self.candidates) != len(self.inertias):
            raise ValueError("candidates and inertias must align")
        if self.selected_k not in self.candidates:
            raise ValueError("selected k must be one of the candidates")


def _distances_sq(X, C) -> np.ndarray:
    """Squared Euclidean distances, (n, k). Clamped at zero against roundoff."""
    x2 = (X * X).sum(axis=1)[:, None]
    c2 = (C * C).sum(axis=1)[None, :]
    return np.maximum(x2 - 2.0 * (X @ C.T) + c2, 0.0)


def count_distinct(X) -> int:
    X = np.ascontiguousarray(np.asarray(X, dtype=np.float64))
    return len({row.tobytes() for row in X})


def _kmeans_pp_centers(X, k, rng) -> np.ndarray:
    """k-means++ seeding: first center uniform, the rest D^2-weighted."""
    n = len(X)
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    closest = _distances_sq(X, centers[0:1])[:, 0]
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # every point already sits on a chosen center; any pick works
            centers[j] = X[rng.integers(n)]
        else:
            centers[j] = X[rng.choice(n, p=closest / total)]
        closest = np.minimum(closest, _distances_sq(X, centers[j:j + 1])[:, 0])
    return centers


def _lloyd(X, centers, max_iter, tol):
    """Lloyd iterations from the given seeds.

    Returns (centers, inertia, mean assigned distance, inertia history).
    The history holds the inertia of each visited assignment, final one
    included, so callers can check it never increases.
    """
    n, k = len(X), len(centers)
    history = []
    for _ in range(max_iter):
        d2 = _distances_sq(X, centers)
        assign_ids = d2.argmin(axis=1)
        history.append(float(d2[np.arange(n), assign_ids].sum()))
        new_centers = np.empty_like(centers)
        for j in range(k):
            members = assign_ids == j
            if members.any():
                new_centers[j] = X[members].mean(axis=0)
            else:
                # reseed an emptied cluster at the point farthest from its center
                far = d2[np.arange(n), assign_ids].argmax()
                new_centers[j] = X[far]
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        if shift <= tol:
            break
    d2_min = _distances_sq(X, centers).min(axis=1)
    inertia = float(d2_min.sum())
    history.append(inertia)
    mean_dist = float(np.sqrt(d2_min).mean())
    return centers, inertia, mean_dist, history


def kmeans(X, k, seed, restarts: int = 3, max_iter: int = 300, tol: float = 1e-8,
           n_distinct: int | None = None, collect_history: bool = False):
    """Best-of-``restarts`` k-means fit.

    ``seed`` may be an int or a tuple of ints; restart r draws from
    ``default_rng((*seed, r))``, making fits reproducible and restarts
    independent. Requires k distinct rows; pass ``n_distinct`` if the
    caller already counted them. Lloyd stops once the largest center
    movement drops to ``tol`` or after ``max_iter`` rounds. The lowest
    inertia wins, earliest restart on ties. With ``collect_history`` the
    winning restart's per-iteration inertias come back alongside.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or len(X) == 0:
        raise ValueError("X must be a non-empty 2-D array")
    if not np.isfinite(X).all():
        raise ValueError("X contains non-finite values")
    if k < 1:
        raise ValueError("k must be >= 1")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    distinct = count_distinct(X) if n_distinct is None else n_distinct
    if k > distinct:
        raise ValueError(f"k={k} exceeds the {distinct} distinct points available")

    seed_key = seed if isinstance(seed, tuple) else (seed,)
    best = None
    for r in range(restarts):
        rng = np.random.default_rng((*seed_key, r))
        centers = _kmeans_pp_centers(X, k, rng)
        centers, inertia, mean_dist, history = _lloyd(X, centers, max_iter, tol)
        if best is None or inertia < best[0]:
            best = (inertia, centers, mean_dist, history)
    cs = ClusterSet(best[1], best[0], best[2])
    return (cs, best[3]) if collect_history else cs


def default_k_candidates(n_points: int) -> list[int]:
    """1 .. max(2, min(20, n // 10)): modest sweeps that scale with the data."""
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    upper = max(2, min(20, n_points // 10))
    return list(range(1, upper + 1))


def elbow_select(X, k_candidates, seed, restarts: int = 3, max_iter: int = 300,
                 tol: float = 1e-8, return_sets: bool = False):
    """Pick k at the sharpest bend of the inertia curve.

    Fits every candidate, then scores each interior candidate by the
    discrete second difference inertia(prev) - 2*inertia(k) + inertia(next)
    and takes the argmax, ties to the smaller k. Candidates beyond the
    number of distinct rows are dropped first. Two survivors select the
    smaller with a warning (no curvature from two points); one survivor is
    selected outright. Returns the ElbowCurve, plus the per-candidate fits
    when ``return_sets`` is set (saves refitting the winner).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or len(X) == 0:
        raise ValueError("X must be a non-empty 2-D array")
    cand = sorted({int(c) for c in k_candidates})
    if not cand:
        raise ValueError("no k candidates supplied")
    if cand[0] < 1:
        raise ValueError("k candidates must be >= 1")
    distinct = count_distinct(X)
    usable = [c for c in cand if c <= distinct]
    if not usable:
        raise ValueError(f"no candidate is <= the {distinct} distinct points available")

    fits = {
        c: kmeans(X, c, seed, restarts=restarts, max_iter=max_iter, tol=tol,
                  n_distinct=distinct)
        for c in usable
    }
    inertias = [fits[c].inertia for c in usable]
    if len(usable) == 1:
        selected = usable[0]
    elif len(usable) == 2:
        warnings.warn("elbow selection needs 3+ candidates for curvature; taking the smaller k")
        selected = usable[0]
    else:
        best_i, best_score = None, None
        for i in range(1, len(usable) - 1):
            score = inertias[i - 1] - 2.0 * inertias[i] + inertias[i + 1]
            if best_score is None or score > best_score:
                best_i, best_score = i, score
        selected = usable[best_i]
    curve = ElbowCurve(usable, inertias, selected)
    return (curve, fits) if return_sets else curve


def cluster_set_to_doc(cs: ClusterSet) -> dict:
    return {
        "centers": cs.centers.tolist(),
        "k": cs.k,
        "inertia": cs.inertia,
        "mean_center_distance": cs.mean_center_distance,
    }


def cluster_set_from_doc(doc: dict) -> ClusterSet:
    cs = ClusterSet(
        np.asarray(doc["centers"], dtype=np.float64),
        doc["inertia"],
        doc["mean_center_distance"],
    )
    if "k" in doc and int(doc["k"]) != cs.k:
        raise ValueError("stored k disagrees with the number of centers")
    return cs


def save_cluster_set(cs: ClusterSet, path) -> None:
    doc = {"format_version": CLUSTER_SET_FORMAT_VERSION, **cluster_set_to_doc(cs)}
    Path(path).write_text(json.dumps(doc, sort_keys=True))


def load_cluster_set(path) -> ClusterSet:
    doc = json.loads(Path(path).read_text())
    if doc.get("format_version") != CLUSTER_SET_FORMAT_VERSION:
        raise ValueError(f"unsupported cluster set format version {doc.get('format_version')}")
    return cluster_set_from_doc(doc)
