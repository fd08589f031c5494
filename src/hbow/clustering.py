"""Flat k-clustering primitives for binary descriptors.

Both iterative clusterers take packed codes and run one loop, `_lloyd`:
k-means++ seeding, then alternate (update centroids, reassign, repair empty
clusters) until the post-repair assignment vector reaches a fixpoint or
`max_iters` passes run out. They differ only in the assignment and the
centroid update they pass:

* `kmajority`: Hamming assignment, per-bit majority-vote centroids.
* `lloyd_real`: the codes relaxed to 0/1 reals, squared-Euclidean
  assignment, arithmetic-mean centroids.
* `brb_kmeans`: run `lloyd_real`, binarize the converged centroids once, then
  reassign in Hamming space.

Both seed in Hamming on the packed codes: between two relaxed 0/1 rows the
squared Euclidean distance equals the Hamming distance exactly. Both update
from one grouped pass of per-cluster bit counts (`_cluster_sums`), which are
exact integers, so neither depends on the summation order.

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


def _lloyd(codes, points, cfg: ClusterConfig, rng, trace, assign, update) -> ClusterResult:
    """The loop every clusterer runs: k-means++ seeding, assignment and repair,
    then (update, assign, repair) passes until the post-repair assignment
    repeats or `max_iters` passes have run.

    `points` is `codes` itself (Hamming) or their 0/1 relaxation (squared
    Euclidean); seeding runs on `codes` either way. `assign(cents)` returns
    (labels, float64 distance per point) and `update(cents, labels)` rewrites
    the centroids in place. The objective is appended to `trace` after
    seeding and after every pass.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    metric = "hamming" if points is codes else "sqeuclidean"
    cents = kmeanspp_seed(codes, cfg.k, rng)
    if points is not codes:
        cents = realize_matrix(cents, points.dtype)
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
    bits = realize_matrix(codes, np.float32)

    def update(cents, labels):
        sums, counts = _cluster_sums(bits, labels, cents.shape[0])
        cents[:] = np.packbits(sums * 2 > counts[:, None], axis=1)

    return _lloyd(codes, codes, cfg, rng, trace, lambda cents: _assign_hamming(codes, cents), update)


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
    x2 = np.einsum("ij,ij->i", x, x)

    def update(cents, labels):
        sums, counts = _cluster_sums(x, labels, cents.shape[0])
        cents[:] = sums.astype(dtype) / counts[:, None].astype(dtype)

    return _lloyd(codes, x, cfg, rng, trace, lambda cents: _assign_sq(x, x2, cents), update)


def brb_kmeans(descs, cfg: ClusterConfig, *, rng: np.random.Generator | None = None,
               trace: list | None = None) -> ClusterResult:
    """Binary-real-binary k-means on packed descriptors.

    The inputs are clustered as float64 0/1 reals with `lloyd_real`, and the
    converged real centroids are binarized exactly once (strict > 0.5, ties
    to 0). Points are then reassigned by Hamming distance to the binary
    centroids, empty clusters repaired, and the reported objective is the
    resulting Hamming objective. With k = 1 the single centroid equals
    `majority_centroid(descs)`.
    """
    codes = _as_codes(descs)
    if codes.shape[0] == 0:
        raise InsufficientPointsError("brb_kmeans needs at least one descriptor")
    res = lloyd_real(codes, cfg, rng=rng, trace=trace)
    cents = binarize_matrix(res.centroids)
    assign, obj_vec = _assign_hamming(codes, cents)
    _repair_empty(codes, cents, assign, obj_vec, "hamming")
    return ClusterResult(cents, assign, float(obj_vec.sum()), res.iterations_run)
