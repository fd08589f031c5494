"""Flat k-clustering primitives for binary and relaxed-real descriptors.

Both iterative clusterers run one loop, `_lloyd`: k-means++ seeding, then
alternate (update centroids, reassign, repair empty clusters) until the
post-repair assignment vector reaches a fixpoint or `max_iters` passes run
out. They differ only in the assignment and the centroid update they pass:

* `kmajority`: Hamming assignment, per-bit majority-vote centroids.
* `lloyd_real`: squared-Euclidean assignment, arithmetic-mean centroids.
* `brb_kmeans`: relax the binary inputs to reals, run `lloyd_real`, binarize
  the converged centroids once, then reassign in Hamming space.

Every step is non-increasing in the respective objective (sum of distances
to the assigned centroid), including the repair move: the stolen point's new
distance is zero, and no other point changes cluster.

Ties everywhere break toward the lowest index: assignment picks the first
nearest centroid, repair donors are the first largest cluster, and the stolen
point is the first farthest member.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .descriptors import _as_codes, binarize_matrix, hamming_cdist, hamming_to_all, realize_matrix
from .errors import ConfigError, CorpusConsistencyError, InsufficientPointsError


@dataclass(frozen=True)
class ClusterConfig:
    k: int
    max_iters: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class ClusterResult:
    centroids: np.ndarray
    assignments: np.ndarray
    objective: float
    iterations_run: int


def kmeanspp_seed(points, k: int, metric: str, rng: np.random.Generator) -> np.ndarray:
    """Pick k initial centroids, each subsequent one sampled proportionally to
    its distance from the nearest already-chosen centroid.

    `metric` is "hamming" (packed uint8 rows) or "sqeuclidean" (float rows).
    When every remaining point sits at distance zero from the chosen set, the
    next seed is drawn uniformly from the not-yet-chosen indices. Returns a
    copy of the selected rows.
    """
    pts = np.asarray(points)
    if pts.ndim != 2:
        raise CorpusConsistencyError(f"expected an (n, dim) matrix, got shape {pts.shape}")
    if metric not in ("hamming", "sqeuclidean"):
        raise ConfigError(f"unknown metric {metric!r}")
    n = pts.shape[0]
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if n < k:
        raise InsufficientPointsError(f"cannot seed {k} clusters from {n} points")

    def dist_to(idx: int) -> np.ndarray:
        if metric == "hamming":
            return hamming_to_all(pts[idx], pts).astype(np.float64)
        diff = pts - pts[idx]
        return np.einsum("ij,ij->i", diff, diff, dtype=np.float64)

    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = int(rng.integers(n))
    dist = dist_to(int(chosen[0]))
    for j in range(1, k):
        total = float(dist.sum())
        if total > 0.0:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(dist), r, side="right"))
            idx = min(idx, n - 1)
        else:
            unchosen = np.ones(n, dtype=bool)
            unchosen[chosen[:j]] = False
            candidates = np.flatnonzero(unchosen)
            idx = int(candidates[rng.integers(candidates.size)])
        chosen[j] = idx
        np.minimum(dist, dist_to(idx), out=dist)
    return pts[chosen].copy()


def _assign_hamming(codes: np.ndarray, cents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d = hamming_cdist(codes, cents)
    assign = d.argmin(axis=1)
    return assign, d[np.arange(codes.shape[0]), assign].astype(np.float64)


def _assign_sq(x: np.ndarray, x2: np.ndarray, cents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # ||x - c||^2 expanded through a single gemm; clamped at zero against
    # cancellation noise. Only the argmin and the objective are consumed.
    d = x2[:, None] + np.einsum("ij,ij->i", cents, cents)[None, :] - 2.0 * (x @ cents.T)
    np.maximum(d, 0.0, out=d)
    assign = d.argmin(axis=1)
    return assign, d[np.arange(x.shape[0]), assign].astype(np.float64)


def _repair_empty(points, cents, assign, obj_vec, metric: str) -> None:
    """Give every empty cluster one point, mutating cents/assign/obj_vec.

    Each empty cluster (ascending index) steals the member of the currently
    largest cluster that lies farthest from the empty cluster's stale
    centroid; that point becomes the new centroid, so its contribution to the
    objective drops to zero and the repair never increases the objective.
    """
    k = cents.shape[0]
    sizes = np.bincount(assign, minlength=k)
    for c in np.flatnonzero(sizes == 0):
        donor = int(np.argmax(sizes))
        members = np.flatnonzero(assign == donor)
        if metric == "hamming":
            d = hamming_to_all(cents[c], points[members])
        else:
            diff = points[members] - cents[c]
            d = np.einsum("ij,ij->i", diff, diff)
        p = int(members[np.argmax(d)])
        cents[c] = points[p]
        assign[p] = c
        obj_vec[p] = 0.0
        sizes[donor] -= 1
        sizes[c] += 1


def _lloyd(points, cfg: ClusterConfig, rng, trace, metric: str, assign, update) -> ClusterResult:
    """The loop every clusterer runs: k-means++ seeding, assignment and repair,
    then (update, assign, repair) passes until the post-repair assignment
    repeats or `max_iters` passes have run.

    `assign(cents)` returns (labels, float64 distance per point) and
    `update(cents, labels)` rewrites the centroids in place. The objective is
    appended to `trace` after seeding and after every pass.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    cents = kmeanspp_seed(points, cfg.k, metric, rng)
    labels, obj_vec = assign(cents)
    _repair_empty(points, cents, labels, obj_vec, metric)
    if trace is not None:
        trace.append(float(obj_vec.sum()))
    iterations = 0
    while iterations < cfg.max_iters:
        update(cents, labels)
        prev = labels
        labels, obj_vec = assign(cents)
        _repair_empty(points, cents, labels, obj_vec, metric)
        iterations += 1
        if trace is not None:
            trace.append(float(obj_vec.sum()))
        if np.array_equal(labels, prev):
            break
    return ClusterResult(cents, labels, float(obj_vec.sum()), iterations)


def kmajority(descs, cfg: ClusterConfig, *, rng: np.random.Generator | None = None,
              trace: list | None = None) -> ClusterResult:
    """Cluster packed binary descriptors with Hamming distance and per-bit
    majority-vote centroid updates.

    With k = 1 this reduces to a single `majority_centroid`. The integer
    objective (sum of Hamming distances to assigned centroids) is appended to
    `trace` after seeding and after every iteration when a list is passed.
    """
    codes = _as_codes(descs)
    if codes.shape[0] == 0:
        raise InsufficientPointsError("kmajority needs at least one descriptor")
    bits = np.unpackbits(codes, axis=1)

    def update(cents, labels):
        for c in range(cents.shape[0]):
            rows = bits[labels == c]
            cents[c] = np.packbits(rows.sum(axis=0, dtype=np.int64) * 2 > rows.shape[0])

    return _lloyd(codes, cfg, rng, trace, "hamming",
                  lambda cents: _assign_hamming(codes, cents), update)


def lloyd_real(points, cfg: ClusterConfig, *, rng: np.random.Generator | None = None,
               trace: list | None = None) -> ClusterResult:
    """Standard k-means on real vectors: squared-Euclidean assignment,
    arithmetic-mean updates, same seeding/repair/stopping rules as kmajority.
    """
    x = np.asarray(points)
    if x.dtype not in (np.float32, np.float64):
        x = x.astype(np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise CorpusConsistencyError(f"expected a non-empty (n, dim) matrix, got shape {x.shape}")
    x2 = np.einsum("ij,ij->i", x, x)

    def update(cents, labels):
        for c in range(cents.shape[0]):
            cents[c] = x[labels == c].mean(axis=0)

    return _lloyd(x, cfg, rng, trace, "sqeuclidean", lambda cents: _assign_sq(x, x2, cents), update)


def brb_kmeans(descs, cfg: ClusterConfig, *, rng: np.random.Generator | None = None,
               trace: list | None = None) -> ClusterResult:
    """Binary-real-binary k-means on packed descriptors.

    The inputs are relaxed to 0/1 reals exactly once, clustered with
    `lloyd_real`, and the converged real centroids are binarized exactly once
    (strict > 0.5, ties to 0). Points are then reassigned by Hamming distance
    to the binary centroids, empty clusters repaired, and the reported
    objective is the resulting Hamming objective. With k = 1 the single
    centroid equals `majority_centroid(descs)`.
    """
    codes = _as_codes(descs)
    if codes.shape[0] == 0:
        raise InsufficientPointsError("brb_kmeans needs at least one descriptor")
    real = realize_matrix(codes)
    res = lloyd_real(real, cfg, rng=rng, trace=trace)
    cents = binarize_matrix(res.centroids)
    assign, obj_vec = _assign_hamming(codes, cents)
    _repair_empty(codes, cents, assign, obj_vec, "hamming")
    return ClusterResult(cents, assign, float(obj_vec.sum()), res.iterations_run)
