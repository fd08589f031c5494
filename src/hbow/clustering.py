"""Flat k-clustering primitives for binary descriptors.

Both iterative clusterers take packed codes, relax them to 0/1 rows, and
run one loop, `_lloyd`: k-means++ seeding, then alternate (update centroids,
reassign, repair empty clusters) until the post-repair assignment vector
reaches a fixpoint or `max_iters` passes run out. They differ only in the
centroid update they pass:

* `kmajority`: per-bit majority-vote centroids, kept as 0/1 rows and packed
  once on return.
* `lloyd_real`: arithmetic-mean centroids.
* `brb_kmeans`: run `lloyd_real`, binarize the converged centroids once, then
  reassign and repair against those 0/1 rows.

Every assignment is one squared-Euclidean pass (`_assign_sq`) and every
repair measures squared Euclidean distance, both on the 0/1 rows. Between a
0/1 row and a 0/1 centroid that distance is the Hamming distance exactly: an
integer of at most the bit count, exact in float32 in any summation order.
So kmajority and brb's final partition are Hamming clusterings without a
separate Hamming kernel. Seeding runs in Hamming on the packed codes for the
same reason. Both update from one grouped pass of per-cluster bit counts
(`_cluster_sums`), which are exact integers, so neither depends on the
summation order.

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

from .descriptors import _as_codes, binarize_matrix, hamming_to_all, realize_matrix
from .errors import ConfigError, CorpusConsistencyError, InsufficientPointsError

# A float32 sum of 0/1 values is an exact integer while it stays below 2**24.
_F32_EXACT_COUNT = 1 << 24


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


def kmeanspp_seed(codes, k: int, rng: np.random.Generator) -> np.ndarray:
    """Pick k initial centroids from packed codes, each subsequent one sampled
    proportionally to its Hamming distance from the nearest already-chosen
    centroid.

    When every remaining point sits at distance zero from the chosen set, the
    next seed is drawn uniformly from the not-yet-chosen indices. Returns a
    copy of the selected rows.
    """
    pts = np.asarray(codes)
    if pts.ndim != 2:
        raise CorpusConsistencyError(f"expected an (n, octets) matrix, got shape {pts.shape}")
    n = pts.shape[0]
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if n < k:
        raise InsufficientPointsError(f"cannot seed {k} clusters from {n} points")

    def dist_to(idx: int) -> np.ndarray:
        return hamming_to_all(pts[idx], pts).astype(np.float64)

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


def _assign_sq(x: np.ndarray, x2: np.ndarray, cents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # ||x - c||^2 expanded through a single gemm; clamped at zero against
    # cancellation noise. Only the argmin and the objective are consumed.
    d = x2[:, None] + np.einsum("ij,ij->i", cents, cents)[None, :] - 2.0 * (x @ cents.T)
    np.maximum(d, 0.0, out=d)
    assign = d.argmin(axis=1)
    return assign, d[np.arange(x.shape[0]), assign].astype(np.float64)


def _repair_empty(x, cents, assign, obj_vec) -> None:
    """Give every empty cluster one point, mutating cents/assign/obj_vec.

    Each empty cluster (ascending index) steals the member of the currently
    largest cluster that lies farthest (squared Euclidean) from the empty
    cluster's stale centroid; that row becomes the new centroid, so its
    contribution to the objective drops to zero and the repair never
    increases the objective.
    """
    k = cents.shape[0]
    sizes = np.bincount(assign, minlength=k)
    for c in np.flatnonzero(sizes == 0):
        donor = int(np.argmax(sizes))
        members = np.flatnonzero(assign == donor)
        diff = x[members] - cents[c]
        p = int(members[np.argmax(np.einsum("ij,ij->i", diff, diff))])
        cents[c] = x[p]
        assign[p] = c
        obj_vec[p] = 0.0
        sizes[donor] -= 1
        sizes[c] += 1


def _cluster_sums(bits: np.ndarray, labels: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-cluster bit counts S (k, bits) and member counts n (k,) of a float
    0/1 matrix, from one one-hot product.

    Every partial sum is an integer no larger than the row count, so S is
    exact in any summation order: float32 rows sum in float32 below
    `_F32_EXACT_COUNT` rows and in float64 above; float64 rows sum in float64.
    """
    small = bits.dtype == np.float32 and bits.shape[0] < _F32_EXACT_COUNT
    dtype = np.float32 if small else np.float64
    onehot = np.zeros((k, bits.shape[0]), dtype=dtype)
    onehot[labels, np.arange(bits.shape[0])] = 1.0
    return onehot @ bits.astype(dtype, copy=False), np.bincount(labels, minlength=k)


def _lloyd(codes, x, cfg: ClusterConfig, rng, trace, update) -> ClusterResult:
    """The loop every clusterer runs on `x`, the 0/1 rows of `codes`:
    k-means++ seeding on `codes`, assignment and repair, then (update, assign,
    repair) passes until the post-repair assignment repeats or `max_iters`
    passes have run.

    `update(cents, labels)` rewrites the centroid rows (of `x`'s dtype) in
    place. The objective is appended to `trace` after seeding and after
    every pass.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    x2 = np.einsum("ij,ij->i", x, x)
    cents = realize_matrix(kmeanspp_seed(codes, cfg.k, rng), x.dtype)
    labels, obj_vec = _assign_sq(x, x2, cents)
    _repair_empty(x, cents, labels, obj_vec)
    if trace is not None:
        trace.append(float(obj_vec.sum()))
    iterations = 0
    while iterations < cfg.max_iters:
        update(cents, labels)
        prev = labels
        labels, obj_vec = _assign_sq(x, x2, cents)
        _repair_empty(x, cents, labels, obj_vec)
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
    bits = realize_matrix(codes, np.float32)

    def update(cents, labels):
        sums, counts = _cluster_sums(bits, labels, cents.shape[0])
        cents[:] = sums * 2 > counts[:, None]

    res = _lloyd(codes, bits, cfg, rng, trace, update)
    res.centroids = binarize_matrix(res.centroids)
    return res


def lloyd_real(descs, cfg: ClusterConfig, *, dtype=np.float64,
               rng: np.random.Generator | None = None, trace: list | None = None) -> ClusterResult:
    """Standard k-means on packed descriptors relaxed to 0/1 reals of `dtype`
    (float32 or float64): squared-Euclidean assignment, arithmetic-mean
    updates, same seeding/repair/stopping rules as kmajority.

    The centroids come back as `dtype` rows. Each one is its members' bit
    counts divided by their number in `dtype`, which is bit for bit the mean
    of the relaxed rows.
    """
    codes = _as_codes(descs)
    if codes.shape[0] == 0:
        raise InsufficientPointsError("lloyd_real needs at least one descriptor")
    dtype = np.dtype(dtype)
    if dtype not in (np.float32, np.float64):
        raise ConfigError(f"dtype must be float32 or float64, got {dtype}")
    x = realize_matrix(codes, dtype)

    def update(cents, labels):
        sums, counts = _cluster_sums(x, labels, cents.shape[0])
        cents[:] = sums.astype(dtype) / counts[:, None].astype(dtype)

    return _lloyd(codes, x, cfg, rng, trace, update)


def brb_kmeans(descs, cfg: ClusterConfig, *, rng: np.random.Generator | None = None,
               trace: list | None = None) -> ClusterResult:
    """Binary-real-binary k-means on packed descriptors.

    The inputs are clustered as float64 0/1 reals with `lloyd_real`, and the
    converged real centroids are binarized exactly once (strict > 0.5, ties
    to 0). Points are then reassigned to the binary centroids and empty
    clusters repaired on float32 0/1 rows, where squared Euclidean is the
    Hamming distance, so the reported objective is the Hamming objective.
    With k = 1 the single centroid equals `majority_centroid(descs)`.
    """
    codes = _as_codes(descs)
    if codes.shape[0] == 0:
        raise InsufficientPointsError("brb_kmeans needs at least one descriptor")
    res = lloyd_real(codes, cfg, rng=rng, trace=trace)
    x = realize_matrix(codes, np.float32)
    cents = realize_matrix(binarize_matrix(res.centroids), np.float32)
    labels, obj_vec = _assign_sq(x, np.einsum("ij,ij->i", x, x), cents)
    _repair_empty(x, cents, labels, obj_vec)
    return ClusterResult(binarize_matrix(cents), labels, float(obj_vec.sum()), res.iterations_run)
