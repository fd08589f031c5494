"""Reference implementations and data generators the tests use.

These are helpers hbow itself does not need: scalar Hamming distance and
binarization, a one-row tree descent, a clustered-corpus generator, the
relaxed-domain helpers and the float k-means path. hbow seeds in Hamming on
packed codes and updates from integer bit counts; each oracle here works one
row at a time or on float rows the plain way, so a test can demand that the
packed path gives the same results.
"""

import numpy as np

from hbow import ClusterResult, DescriptorSet


def hamming(a, b):
    """Number of differing bits between two packed descriptors."""
    return int(np.count_nonzero(np.unpackbits(np.asarray(a, dtype=np.uint8))
                                != np.unpackbits(np.asarray(b, dtype=np.uint8))))


def binarize(values):
    """Pack a real vector to bits: bit i is 1 iff values[i] > 0.5 (ties to 0)."""
    return np.packbits(np.asarray(values, dtype=np.float64) > 0.5)


def lookup_word(vocab, code):
    """Greedy descent for one packed descriptor, one node at a time: children
    found by scanning `parent`, distances from unpacked bits, ties toward the
    earliest child. Returns (word id, weight, leaf node id)."""
    node = 0
    while (kids := np.flatnonzero(vocab.parent == node)).size:
        dists = [hamming(code, vocab.centroids[c]) for c in kids]
        node = int(kids[int(np.argmin(dists))])
    return int(vocab.word_of_node[node]), float(vocab.weight[node]), node


def synth_clustered(num_clusters, per_cluster, flip_prob, bits=256, seed=0):
    """A clustered corpus: random cluster centers, members are copies of their
    center with every bit flipped with probability `flip_prob`; one group per
    cluster."""
    rng = np.random.default_rng(seed)
    octets = bits // 8
    groups = []
    for _ in range(num_clusters):
        center = rng.integers(0, 256, size=(1, octets), dtype=np.uint8)
        members = np.repeat(center, per_cluster, axis=0)
        flips = np.packbits(rng.random((per_cluster, bits)) < flip_prob, axis=1)
        groups.append(np.bitwise_xor(members, flips))
    return DescriptorSet.from_groups(groups)


def realize(code):
    """A packed descriptor as a float64 0/1 vector, one entry per bit."""
    return np.unpackbits(np.asarray(code, dtype=np.uint8)).astype(np.float64)


def real_mean(points):
    """Componentwise float64 mean of a set of real vectors."""
    return np.asarray(points, dtype=np.float64).mean(axis=0)


def euclidean_sq(a, b):
    """Squared Euclidean distance between two real vectors."""
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float(d @ d)


def kmeanspp_seed_sqeuclidean(x, k, rng):
    """k-means++ seeding on float rows: each next seed is drawn with
    probability proportional to its squared Euclidean distance from the
    nearest chosen seed, uniformly among the unchosen rows when every distance
    is zero. Returns a copy of the chosen rows."""
    n = x.shape[0]

    def dist_to(idx):
        diff = x - x[idx]
        return np.einsum("ij,ij->i", diff, diff, dtype=np.float64)

    chosen = [int(rng.integers(n))]
    dist = dist_to(chosen[0])
    for _ in range(1, k):
        total = float(dist.sum())
        if total > 0.0:
            idx = int(np.searchsorted(np.cumsum(dist), rng.random() * total, side="right"))
            idx = min(idx, n - 1)
        else:
            candidates = np.setdiff1d(np.arange(n), chosen)
            idx = int(candidates[rng.integers(candidates.size)])
        chosen.append(idx)
        np.minimum(dist, dist_to(idx), out=dist)
    return x[chosen].copy()


def _assign(x, cents):
    # The same gemm expansion of ||x - c||^2, in x's dtype, as hbow's
    # assignment: its float32 rounding decides near-ties, so an oracle that
    # computed the distance another way would pick other labels.
    x2 = np.einsum("ij,ij->i", x, x)
    d = x2[:, None] + np.einsum("ij,ij->i", cents, cents)[None, :] - 2.0 * (x @ cents.T)
    np.maximum(d, 0.0, out=d)
    labels = d.argmin(axis=1)
    return labels, d[np.arange(x.shape[0]), labels].astype(np.float64)


def _repair(x, cents, labels, obj):
    # each empty cluster, in ascending order, takes the member of the first
    # largest cluster farthest from its stale centroid
    sizes = np.bincount(labels, minlength=cents.shape[0])
    for c in np.flatnonzero(sizes == 0):
        donor = int(np.argmax(sizes))
        members = np.flatnonzero(labels == donor)
        diff = x[members] - cents[c]
        p = int(members[np.argmax(np.einsum("ij,ij->i", diff, diff))])
        cents[c] = x[p]
        labels[p] = c
        obj[p] = 0.0
        sizes[donor] -= 1
        sizes[c] += 1


def lloyd_float(x, cfg, *, rng=None, trace=None):
    """k-means on float rows x: `kmeanspp_seed_sqeuclidean`, then (mean of
    each cluster's rows, reassign, repair) until the assignment repeats or
    `cfg.max_iters` passes have run."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    cents = kmeanspp_seed_sqeuclidean(x, cfg.k, rng)
    labels, obj = _assign(x, cents)
    _repair(x, cents, labels, obj)
    if trace is not None:
        trace.append(float(obj.sum()))
    iterations = 0
    while iterations < cfg.max_iters:
        for c in range(cfg.k):
            cents[c] = x[labels == c].mean(axis=0)
        prev = labels
        labels, obj = _assign(x, cents)
        _repair(x, cents, labels, obj)
        iterations += 1
        if trace is not None:
            trace.append(float(obj.sum()))
        if np.array_equal(labels, prev):
            break
    return ClusterResult(cents, labels, float(obj.sum()), iterations)
