"""Flat k-clustering primitives for binary descriptors.

Every clusterer is `(codes, ClusterConfig) -> ClusterResult`: it relaxes the
codes once to 0/1 rows and runs one loop, `_lloyd`: k-means++ seeding from
the config's seed, then alternate (update centroids, reassign, repair empty
clusters) until the post-repair assignment vector reaches a fixpoint or
`max_iters` passes run out. They differ only in the centroid update they pass:

* `kmajority`: per-bit majority-vote centroids, packed once on return.
* `lloyd_real`: arithmetic-mean centroids.
* `brb_kmeans`: run the same mean loop, binarize its converged centroids
  once, then reassign and repair the mean loop's own rows against them.

A centroid is held as its integer bit counts S and its member count n; its
real value is the mean S/n. A seed, a repaired centroid and a majority-vote
row are (row, 1). Every assignment and every repair goes through one integer
kernel, `_numerators`:

    |x_i - S_j/n_j|^2 = |x_i| + M_ij / n_j^2,  M_ij = |S_j|^2 - 2*n_j*(x_i . S_j)

x . S^T is one gemm over integers, each at most bits*max(n): the rows are
relaxed to float32 while that bound is below 2**24 and to float64 above, so
the gemm is exact in any summation order. kmajority's centroids have n = 1,
so its rows are float32 at any node size; the mean loop's centroids have up
to `rows` members, so its rows are float64 once rows*bits reaches 2**24, and
brb's binary pass (n = 1) reuses them. M is combined in int64. Each row goes
to the centroid of least M_ij / n_j^2, one correctly rounded division of the
exact integer (none when every n_j is 1, where |x_i| + M_ij is the Hamming
distance), and the repair picks its farthest member by the integer
n^2*|x| + M. So no assignment, repair or objective depends on the BLAS
kernel or its thread count: the integers come out the same in any summation
order, and the division and comparisons are IEEE operations on them. Seeding
runs in Hamming on the codes cut into word-major 64-bit words, with int64
distances and running sums, and the updates come from one grouped pass of
per-cluster bit counts (`_cluster_sums`), exact integers as well.

Every step is non-increasing in the respective objective (sum of distances
to the assigned centroid), including the repair move: the stolen point's new
distance is zero, and no other point changes cluster.

Ties everywhere break toward the lowest index: assignment picks the first
nearest centroid (two quotients that round to the same float64 tie), repair
donors are the first largest cluster, and the stolen point is the first
farthest member.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .descriptors import _as_codes, _word_distances, _word_major, binarize_matrix, \
    realize_matrix
from .errors import ConfigError, CorpusConsistencyError, InsufficientPointsError

# A float32 sum of integers is exact while every partial sum stays below 2**24.
_F32_EXACT_COUNT = 1 << 24


def _config_int(value, name: str) -> int:
    """`value` as a Python int: a numpy integer is one, but a bool, a float
    such as 2.0 or a string such as "3" raises ConfigError."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class ClusterConfig:
    """`seed` is an int >= 0 or a `np.random.SeedSequence`; `_lloyd` seeds
    with `np.random.default_rng(seed)`, which takes either."""

    k: int
    max_iters: int = 100
    seed: int | np.random.SeedSequence = 0

    def __post_init__(self) -> None:
        for name in ("k", "max_iters"):
            value = _config_int(getattr(self, name), name)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
            object.__setattr__(self, name, value)
        if not isinstance(self.seed, np.random.SeedSequence):
            object.__setattr__(self, "seed", _config_int(self.seed, "seed"))
            if self.seed < 0:
                raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class ClusterResult:
    centroids: np.ndarray
    assignments: np.ndarray
    objective: float
    iterations_run: int
    objectives: list[float]  # the loop's objective after seeding and after every pass


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
    pts = _as_codes(pts)
    words = _word_major(pts)
    scratch = np.empty_like(words)

    def dist_to(idx: int) -> np.ndarray:
        return _word_distances(words, words[:, idx:idx + 1], scratch)

    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = int(rng.integers(n))
    dist = dist_to(int(chosen[0]))
    cum = np.empty_like(dist)
    for j in range(1, k):
        np.cumsum(dist, out=cum)
        total = int(cum[-1])
        if total > 0:
            # the partial sums are exact integers, so the first one above the
            # draw is the first one above its integer part
            r = rng.random() * total
            idx = int(np.searchsorted(cum, int(r), side="right"))
            idx = min(idx, n - 1)
        else:
            unchosen = np.ones(n, dtype=bool)
            unchosen[chosen[:j]] = False
            candidates = np.flatnonzero(unchosen)
            idx = int(candidates[rng.integers(candidates.size)])
        chosen[j] = idx
        np.minimum(dist, dist_to(idx), out=dist)
    return pts[chosen]


def _row_dtype(bits: int, max_members: int) -> type:
    """The float width of 0/1 rows of `bits` bits whose centroids have at
    most `max_members` members: float32 while bits*max_members <
    `_F32_EXACT_COUNT`, float64 above. Every x . S product of `_numerators`
    is an integer of at most that size, so it sums exactly in this dtype."""
    return np.float32 if bits * max_members < _F32_EXACT_COUNT else np.float64


def _relax(codes: np.ndarray, max_members: int) -> tuple[np.ndarray, np.ndarray]:
    """The 0/1 rows of a code matrix, in `_row_dtype` for centroids of at
    most `max_members` members, and their popcounts |x| (int64)."""
    x1 = np.bitwise_count(_word_major(codes)).sum(axis=0, dtype=np.int64)
    return realize_matrix(codes, _row_dtype(codes.shape[1] * 8, max_members)), x1


def _numerators(x: np.ndarray, s: np.ndarray, n: np.ndarray) -> np.ndarray:
    """M_ij = |S_j|^2 - 2*n_j*(x_i . S_j) (int64) for 0/1 rows `x` and
    centroids of bit counts `s` (integer-valued) over `n` members, an exact
    integer for every (row, centroid): |x_i - S_j/n_j|^2 = |x_i| + M_ij / n_j^2.

    x . S^T is one gemm in the rows' dtype, exact when the rows are in
    `_row_dtype` for max(n); M is combined in int64, exact while
    2*bits*max(n)^2 < 2**63.
    """
    m = (x @ s.astype(x.dtype, copy=False).T).astype(np.int64)
    m *= -2 * n
    counts = s.astype(np.int64)
    m += np.einsum("ij,ij->i", counts, counts)
    return m


def _assign(x: np.ndarray, x1: np.ndarray, s: np.ndarray,
            n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid of every row, by M / n^2 with ties to the lowest
    index, and the row's squared Euclidean distance to it, |x| + M / n^2, as
    float64. M / n^2 is one correctly rounded division of the exact integer
    while |M| < 2**53 (a larger M rounds to float64 first), and none when
    every n_j is 1, where the distance is the Hamming distance."""
    d = _numerators(x, s, n)
    if n.max() > 1:
        d = d.astype(np.float64)
        d /= n * n
    labels = d.argmin(axis=1)
    return labels, (x1 + d[np.arange(x.shape[0]), labels]).astype(np.float64)


def _repair_empty(x, x1, s, n, labels, obj_vec) -> None:
    """Give every empty cluster one point, mutating s/n/labels/obj_vec.

    Each empty cluster (ascending index) steals the member of the currently
    largest cluster that lies farthest from the empty cluster's stale
    centroid, by the exact integer n^2*|x - S/n|^2 = n^2*|x| + M; that row
    becomes the new centroid (row, 1), so its contribution to the objective
    drops to zero and the repair never increases the objective.
    """
    sizes = np.bincount(labels, minlength=s.shape[0])
    for c in np.flatnonzero(sizes == 0):
        donor = int(np.argmax(sizes))
        members = np.flatnonzero(labels == donor)
        far = n[c] * n[c] * x1[members] + _numerators(x[members], s[c:c + 1], n[c:c + 1])[:, 0]
        p = int(members[np.argmax(far)])
        s[c] = x[p]
        n[c] = 1
        labels[p] = c
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


def _lloyd(codes, x, x1, cfg: ClusterConfig, update) -> tuple[ClusterResult, np.ndarray]:
    """The loop every clusterer runs on `x`, the 0/1 rows of `codes`, with
    popcounts `x1`: k-means++ seeding on `codes` with
    `np.random.default_rng(cfg.seed)`, assignment and repair, then (update,
    assign, repair) passes until the post-repair assignment repeats or
    `max_iters` passes have run.

    `update(labels)` returns the new centroids as (bit counts S of `x`'s
    dtype, member counts n). Returns the result, whose `centroids` hold the
    final S and whose `objectives` hold the objective after seeding and after
    every pass, and the final n.
    """
    s = realize_matrix(kmeanspp_seed(codes, cfg.k, np.random.default_rng(cfg.seed)), x.dtype)
    n = np.ones(cfg.k, dtype=np.int64)
    labels, obj_vec = _assign(x, x1, s, n)
    _repair_empty(x, x1, s, n, labels, obj_vec)
    objectives = [float(obj_vec.sum())]
    while len(objectives) <= cfg.max_iters:
        s, n = update(labels)
        prev = labels
        labels, obj_vec = _assign(x, x1, s, n)
        _repair_empty(x, x1, s, n, labels, obj_vec)
        objectives.append(float(obj_vec.sum()))
        if np.array_equal(labels, prev):
            break
    return ClusterResult(s, labels, objectives[-1], len(objectives) - 1, objectives), n


def _mean_lloyd(codes, cfg: ClusterConfig):
    """`_lloyd` with arithmetic-mean updates, for lloyd_real and brb_kmeans:
    returns the 0/1 rows, their popcounts, the result and the member counts."""
    x, x1 = _relax(codes, codes.shape[0])
    res, n = _lloyd(codes, x, x1, cfg, lambda labels: _cluster_sums(x, labels, cfg.k))
    return x, x1, res, n


def kmajority(descs, cfg: ClusterConfig) -> ClusterResult:
    """Cluster packed binary descriptors with Hamming distance and per-bit
    majority-vote centroid updates.

    With k = 1 this reduces to a single `majority_centroid`. The objective is
    the integer sum of Hamming distances to the assigned centroids, and
    `objectives` holds it after seeding and after every pass.
    """
    codes = _as_codes(descs)
    if codes.shape[0] == 0:
        raise InsufficientPointsError("kmajority needs at least one descriptor")
    x, x1 = _relax(codes, 1)

    def update(labels):
        sums, counts = _cluster_sums(x, labels, cfg.k)
        return (sums * 2 > counts[:, None]).astype(x.dtype), np.ones(cfg.k, dtype=np.int64)

    res, _ = _lloyd(codes, x, x1, cfg, update)
    res.centroids = binarize_matrix(res.centroids)
    return res


def lloyd_real(descs, cfg: ClusterConfig) -> ClusterResult:
    """Standard k-means on packed descriptors relaxed to 0/1 reals:
    squared-Euclidean assignment, arithmetic-mean updates, same
    seeding/repair/stopping rules as kmajority.

    Assignment and repair run on the exact integer kernel, so the clusters
    and the objective do not depend on a float width or the BLAS kernel. The
    centroids come back as float64 rows, each its members' bit counts divided
    by their number: bit for bit the float64 mean of the relaxed rows.
    """
    codes = _as_codes(descs)
    if codes.shape[0] == 0:
        raise InsufficientPointsError("lloyd_real needs at least one descriptor")
    _, _, res, n = _mean_lloyd(codes, cfg)
    res.centroids = res.centroids.astype(np.float64) / n[:, None]
    return res


def brb_kmeans(descs, cfg: ClusterConfig) -> ClusterResult:
    """Binary-real-binary k-means on packed descriptors.

    The inputs are clustered with `lloyd_real`'s mean loop, and each
    converged centroid is binarized exactly once from its integer counts:
    bit i is 1 iff 2*S_i > n (a mean strictly above 0.5, ties to 0). Points
    are then reassigned to the binary centroids, as (row, 1), and empty
    clusters repaired on the mean loop's own 0/1 rows, where the kernel's
    distance is the Hamming distance, so the reported objective is the Hamming
    objective; `objectives` are the mean loop's. With k = 1 the single
    centroid equals `majority_centroid(descs)`.
    """
    codes = _as_codes(descs)
    if codes.shape[0] == 0:
        raise InsufficientPointsError("brb_kmeans needs at least one descriptor")
    x, x1, res, n = _mean_lloyd(codes, cfg)
    cents = (res.centroids * 2 > n[:, None]).astype(x.dtype)
    ones = np.ones_like(n)
    labels, obj_vec = _assign(x, x1, cents, ones)
    _repair_empty(x, x1, cents, ones, labels, obj_vec)
    return ClusterResult(binarize_matrix(cents), labels, float(obj_vec.sum()), res.iterations_run,
                         res.objectives)
