"""Flat k-clustering primitives for binary descriptors.

Every clusterer is `(codes, ClusterConfig) -> ClusterResult`: it reads the
codes as checked 0/1 rows (`_Rows`) and runs one loop, `_lloyd`: k-means++
seeding from the config's seed, then (assign, repair empty clusters) passes,
each after the first led by a centroid update, until the assignment vector
repeats or `max_iters` passes run out. They differ only in the update they pass:

* `kmajority`: per-bit majority-vote centroids, packed once on return.
* `lloyd_real`: arithmetic-mean centroids; it also returns the per-bit
  majority of each cluster's final members.
* `brb_kmeans`: run the same mean loop, binarize its converged centroids
  once, then reassign and repair the mean loop's own rows against them.

A centroid is held as its integer bit counts S and its member count n; its
real value is the mean S/n. A seed, a repaired centroid and a majority-vote
row are (row, 1). Each assignment runs on one of two exact integer kernels:

* where every n is 1 (the assignment after seeding, every kmajority pass,
  brb's binary pass, and a mean pass whose clusters are single rows),
  `_nearest` takes the Hamming distance on the codes cut into word-major
  64-bit words, as a (k, rows) table from `descriptors._hamming_table`,
  which walks the rows in blocks;
* elsewhere `_assign` uses

      |x_i - S_j/n_j|^2 = |x_i| + M_ij / n_j^2,  M_ij = |S_j|^2 - 2*n_j*(x_i . S_j)

  from `_numerators`, where x . S^T is one gemm over integers, each at most
  bits*max(n), and M is combined in int64.

For n = 1, M = Hamming - |x|, so the two kernels pick the same centroid and
report the same objective. The rows are relaxed to float32 while bits*max(n)
is below 2**24 and to float64 above, so the gemm is exact in any summation
order: kmajority's centroids have n = 1, so its rows are float32 at any node
size; the mean loop's centroids have up to `rows` members, so its rows are
float64 once rows*bits reaches 2**24. Each row goes to the centroid of least
M_ij / n_j^2, one correctly rounded division of the exact integer, and the
repair, which always runs on `_numerators`, picks its farthest member by the
integer n^2*|x| + M. So no assignment, repair or objective depends on the
BLAS kernel or its thread count: the integers come out the same in any
summation order, and the division and comparisons are IEEE operations on
them. Seeding runs in Hamming on the same 64-bit words, one k = 1 table per
seed, with int64 running minima and sums.

The loop keeps every cluster's bit counts S and member count n across
passes, and one function changes them, `_move_rows`: from zero counts, each
update adds the rows that moved in and subtracts the rows that moved out, in
+-1 one-hot gemms over the moved rows only, and moves n by the row sums of
the same one-hot matrix. The first update moves every row in. Every partial
sum is an integer no larger than the row count, so the counts are exact too.

A split holds its packed codes, per-row bookkeeping (popcounts, 64-bit
words, labels, distances) and at most one block of relaxed rows,
`_RELAXED_BLOCK_BYTES`. A node whose rows fit in one block is relaxed once;
a larger node unpacks its rows from the codes, block by block, on every pass
that reads them: the mean loop's assignment gemm, the moved rows (all of
them on the first pass) and the repair's walk over the donor's members. The
row dtype is picked from the node's size, never the block's, so the blocks
change no product, label or objective.

Every step is non-increasing in the respective objective (sum of distances
to the assigned centroid), including the repair move: the stolen point's new
distance is zero, and no other point changes cluster.

Ties everywhere break toward the lowest index: assignment picks the first
nearest centroid (two quotients that round to the same float64 tie), repair
donors are the first largest cluster, and the stolen point is the first
farthest member.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .descriptors import _as_codes, _hamming_table, _integer, _word_major, \
    binarize_matrix, realize_matrix
from .errors import CorpusConsistencyError, InsufficientPointsError

# A float32 sum of integers is exact while every partial sum stays below 2**24.
_F32_EXACT_COUNT = 1 << 24
# The most relaxed 0/1 rows of one node held at a time (`_Rows`): 1,024
# float32 or 512 float64 rows of 256 bits. A block this small stays in cache
# between its unpacking and its gemm, and the allocator reuses its pages
# rather than faulting in fresh ones for every block.
_RELAXED_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class ClusterConfig:
    """`seed` is an int >= 0 or a `np.random.SeedSequence`; `_lloyd` seeds
    with `np.random.default_rng(seed)`, which takes either."""

    k: int
    max_iters: int = 100
    seed: int | np.random.SeedSequence = 0

    def __post_init__(self) -> None:
        for name in ("k", "max_iters"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, 1))
        if not isinstance(self.seed, np.random.SeedSequence):
            object.__setattr__(self, "seed", _integer(self.seed, "seed", 0))


@dataclass
class ClusterResult:
    centroids: np.ndarray
    assignments: np.ndarray
    objective: float
    iterations_run: int
    objectives: list[float]  # the loop's objective after seeding and after every pass
    # lloyd_real only: each cluster's packed per-bit majority over its final
    # members, which `majority_centroid` of those members equals
    member_majorities: np.ndarray | None = None


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
    k = _integer(k, "k", 1)
    if n < k:
        raise InsufficientPointsError(f"cannot seed {k} clusters from {n} points")
    pts = _as_codes(pts)
    words = _word_major(pts)

    def dist_to(idx: int) -> np.ndarray:
        return _hamming_table(words, words[:, idx:idx + 1])[0]

    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = int(rng.integers(n))
    dist = dist_to(int(chosen[0])).astype(np.int64)
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


class _Rows:
    """A clusterer's descriptors, checked by `_as_codes` (no rows raise
    InsufficientPointsError naming the clusterer) and read as 0/1 rows in `dtype`,
    the `_row_dtype` for centroids of at most `max_members` members (default: all
    rows), with popcounts `x1` (|x|, int64) and word-major 64-bit `words`.

    `sum_dtype` holds the clusters' bit counts, integers of at most the row
    count: float32 for float32 rows below `_F32_EXACT_COUNT` rows, else
    float64, so every partial sum is exact.

    Rows are read in blocks of `step` rows, `_RELAXED_BLOCK_BYTES` of relaxed
    rows: a node that fits in one block is relaxed once and kept, and a
    larger one unpacks each block from its codes at every read. The dtype
    comes from the node's size, never the block's, so every product is the
    same exact integer however the rows are cut.
    """

    def __init__(self, descs, name: str, max_members: int | None = None):
        codes = _as_codes(descs)
        if codes.shape[0] == 0:
            raise InsufficientPointsError(f"{name} needs at least one descriptor")
        bits = codes.shape[1] * 8
        self.codes = codes
        self.words = _word_major(codes)
        self.x1 = np.bitwise_count(self.words).sum(axis=0, dtype=np.int64)
        self.dtype = _row_dtype(bits, len(self) if max_members is None else max_members)
        small = self.dtype == np.float32 and len(self) < _F32_EXACT_COUNT
        self.sum_dtype = np.float32 if small else np.float64
        self.step = max(1, _RELAXED_BLOCK_BYTES // (bits * np.dtype(self.dtype).itemsize))
        self._kept = realize_matrix(codes, self.dtype) if len(self) <= self.step else None

    def __len__(self) -> int:
        return self.codes.shape[0]

    def take(self, ids) -> np.ndarray:
        """The 0/1 rows of `codes[ids]` for a slice or an index array."""
        if self._kept is not None:
            return self._kept[ids]
        return realize_matrix(self.codes[ids], self.dtype)

    def blocks(self, index: np.ndarray | None = None):
        """Yield (ids, rows) for each block of at most `step` of the rows at
        `index`, or of all rows when it is None: `ids` is that block's slice
        of consecutive rows or index array, and `rows` is `take(ids)`."""
        count = len(self) if index is None else index.size
        for start in range(0, count, self.step):
            ids = slice(start, min(count, start + self.step)) if index is None \
                else index[start:start + self.step]
            yield ids, self.take(ids)


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
    while |M| < 2**53 (a larger M rounds to float64 first); where n_j is 1
    the division is exact and the distance is the Hamming distance."""
    d = _numerators(x, s, n).astype(np.float64)
    d /= n * n
    labels = d.argmin(axis=1)
    return labels, (x1 + d[np.arange(x.shape[0]), labels]).astype(np.float64)


def _nearest(rows: _Rows, s: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_assign` of every row to the centroids (s, n), one block of rows at
    a time. Where every n is 1 it takes the Hamming table of the packed words
    instead: `_assign`'s M is the Hamming distance minus |x| there, so both
    give the same labels, ties to the lowest index, and the same float64
    objectives."""
    if n.max() == 1:
        dist = _hamming_table(rows.words, _word_major(binarize_matrix(s)))
        labels = dist.argmin(axis=0)
        return labels, dist[labels, np.arange(len(rows))].astype(np.float64)
    labels = np.empty(len(rows), dtype=np.int64)
    obj_vec = np.empty(len(rows))
    for ids, x in rows.blocks():
        labels[ids], obj_vec[ids] = _assign(x, rows.x1[ids], s, n)
    return labels, obj_vec


def _repair_empty(rows: _Rows, s, n, labels, obj_vec) -> None:
    """Give every empty cluster one point, mutating s/n/labels/obj_vec.

    Each empty cluster (ascending index) steals the member of the currently
    largest cluster that lies farthest from the empty cluster's stale
    centroid, by the exact integer n^2*|x - S/n|^2 = n^2*|x| + M over the
    donor's members, read one block at a time; that row becomes the new
    centroid (row, 1), so its contribution to the objective drops to zero and
    the repair never increases the objective.
    """
    sizes = np.bincount(labels, minlength=s.shape[0])
    for c in np.flatnonzero(sizes == 0):
        donor = int(np.argmax(sizes))
        members = np.flatnonzero(labels == donor)
        far = n[c] * n[c] * rows.x1[members] + np.concatenate(
            [_numerators(x, s[c:c + 1], n[c:c + 1])[:, 0] for _, x in rows.blocks(members)])
        p = int(members[np.argmax(far)])
        s[c] = rows.take(slice(p, p + 1))[0]
        n[c] = 1
        labels[p] = c
        obj_vec[p] = 0.0
        sizes[donor] -= 1
        sizes[c] += 1


def _move_rows(rows: _Rows, sums: np.ndarray, sizes: np.ndarray, old: np.ndarray | None,
               new: np.ndarray) -> None:
    """Turn the counts (sums, sizes) of the rows labelled `old` into those of
    the labels `new`, in place, from the rows whose label changed; `old` None
    means no row is counted yet, so every row moves in. Per block of moved
    rows, a +-1 one-hot matrix (+1 at the new cluster, -1 at the old) times
    the rows moves the bit counts and its row sums move the member counts,
    every entry an integer no larger than the row count: exact in `sums`'
    dtype."""
    moved = None if old is None else np.flatnonzero(old != new)
    for ids, x in rows.blocks(moved):
        cols = np.arange(x.shape[0])
        delta = np.zeros((sums.shape[0], x.shape[0]), dtype=sums.dtype)
        delta[new[ids], cols] = 1.0
        if old is not None:
            delta[old[ids], cols] = -1.0
        sums += delta @ x.astype(sums.dtype, copy=False)
        sizes += delta.sum(axis=1).astype(np.int64)


def _lloyd(rows: _Rows, cfg: ClusterConfig, update):
    """The loop every clusterer runs on `rows`: k-means++ seeding on the
    codes with `np.random.default_rng(cfg.seed)`, then (assign, repair)
    passes, the first to the seeds as (row, 1) and each later one after an
    update, until the post-repair assignment repeats or `max_iters` passes
    follow the first.

    The loop keeps the clusters' bit counts S (in `rows.sum_dtype`) and
    member counts n from zero, and only `_move_rows` changes them: the first
    update moves every row in, every later one the rows whose label changed.
    `update(S, n)` returns new arrays for the centroids (bit counts S of the
    rows' dtype, member counts n), which the repair may overwrite. Returns
    the result, whose `centroids` hold the final S and whose `objectives`
    hold the objective after seeding and after every pass, the final n, and
    the kept (S, n) with the labels they count.
    """
    s = realize_matrix(kmeanspp_seed(rows.codes, cfg.k, np.random.default_rng(cfg.seed)),
                       rows.dtype)
    n = np.ones(cfg.k, dtype=np.int64)
    sums = np.zeros((cfg.k, rows.codes.shape[1] * 8), dtype=rows.sum_dtype)
    sizes = np.zeros(cfg.k, dtype=np.int64)
    objectives, counted = [], None
    while True:
        labels, obj_vec = _nearest(rows, s, n)
        _repair_empty(rows, s, n, labels, obj_vec)
        objectives.append(float(obj_vec.sum()))
        if len(objectives) > cfg.max_iters or np.array_equal(labels, counted):
            break
        _move_rows(rows, sums, sizes, counted, labels)
        counted = labels
        s, n = update(sums, sizes)
    result = ClusterResult(s, labels, objectives[-1], len(objectives) - 1, objectives)
    return result, n, (sums, sizes, counted)


def _mean_update(sums: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Arithmetic-mean centroids: copies of the kept counts, which the
    repair must not overwrite."""
    return sums.copy(), sizes.copy()


def kmajority(descs, cfg: ClusterConfig) -> ClusterResult:
    """Cluster packed binary descriptors with Hamming distance and per-bit
    majority-vote centroid updates.

    With k = 1 this reduces to a single `majority_centroid`. The objective is
    the integer sum of Hamming distances to the assigned centroids, and
    `objectives` holds it after seeding and after every pass.
    """
    rows = _Rows(descs, "kmajority", 1)

    def update(sums, sizes):
        return (sums * 2 > sizes[:, None]).astype(rows.dtype), np.ones(cfg.k, dtype=np.int64)

    res, _, _ = _lloyd(rows, cfg, update)
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
    `member_majorities` holds the packed per-bit majority (2*S > n, ties to
    0) of each cluster's final members, from the loop's kept counts.
    """
    rows = _Rows(descs, "lloyd_real")
    res, n, (sums, sizes, counted) = _lloyd(rows, cfg, _mean_update)
    _move_rows(rows, sums, sizes, counted, res.assignments)
    res.member_majorities = np.packbits(sums * 2 > sizes[:, None], axis=1)
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
    rows = _Rows(descs, "brb_kmeans")
    res, n, _ = _lloyd(rows, cfg, _mean_update)
    cents = (res.centroids * 2 > n[:, None]).astype(rows.dtype)
    ones = np.ones_like(n)
    labels, obj_vec = _nearest(rows, cents, ones)
    _repair_empty(rows, cents, ones, labels, obj_vec)
    return ClusterResult(binarize_matrix(cents), labels, float(obj_vec.sum()), res.iterations_run,
                         res.objectives)
