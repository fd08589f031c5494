"""Reference implementations and data generators the tests use.

These are helpers hbow itself does not need: scalar and octet-wise
all-pairs Hamming distance, binarization, a one-row tree descent, L1
normalization of a bag-of-words vector, the dict-based `transform`,
`score_l1` and L1 norm that the array-backed `BowVector` replaced, a
database's query candidates read from its postings, a full cross-check of a
retrieval database, a clustered-corpus generator, a per-cluster recount
of bit and member counts, the relaxed-domain helpers, an exact k-means path
and a retrieval report scored against every same-place pair of frames. hbow
seeds in Hamming on packed codes, updates from integer bit counts and
assigns through one gemm kernel; each oracle here works one row at a
time, on float rows the plain way or in Python integers, so a test can
demand that the packed path gives the same results.
"""

import numpy as np

from hbow import BowVector, ClusterResult, DescriptorSet, InternalInvariantError, \
    RetrievalDatabase, RetrievalReport, transform


def hamming(a, b):
    """Number of differing bits between two packed descriptors."""
    return int(np.count_nonzero(np.unpackbits(np.asarray(a, dtype=np.uint8))
                                != np.unpackbits(np.asarray(b, dtype=np.uint8))))


def octet_cdist(a, b):
    """All-pairs Hamming distances (int64) between two packed code
    matrices, shape (len(a), len(b)), on octets: every row of `a` XORed with
    every row of `b`, popcounted and summed, one row of `a` at a time."""
    a, b = np.asarray(a, dtype=np.uint8), np.asarray(b, dtype=np.uint8)
    out = np.empty((a.shape[0], b.shape[0]), dtype=np.int64)
    for i, row in enumerate(a):
        out[i] = np.bitwise_count(np.bitwise_xor(row[None, :], b)).sum(axis=1, dtype=np.int64)
    return out


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


def normalize_l1(v):
    """Scale a BowVector, or a mapping of word id -> weight, to unit L1 norm:
    each weight over their total, added one by one in ascending word order
    (not the built-in `sum`, which some Python versions compensate); an
    all-zero or empty one becomes the empty vector. `transform` does the same
    over its words."""
    entries = v.entries if isinstance(v, BowVector) else v
    total = reference_l1_norm(entries)
    if total <= 0.0:
        return BowVector.empty()
    return BowVector({w: val / total for w, val in entries.items()})


def reference_l1_norm(entries):
    """Sum of a mapping's weights, added one by one in ascending word order:
    the dict-based `BowVector.l1_norm` of old."""
    total = 0.0
    for _, x in sorted(entries.items()):
        total += x
    return total


def reference_transform(vocab, descriptors):
    """The dict-based `transform` of old, as {word id: weight}: the words of
    the one-row descent counted by `np.unique`, tf as count over total, times
    idf, zero weights dropped, each weight over the left-to-right total of
    the kept ones."""
    arr = np.asarray(descriptors, dtype=np.uint8)
    if arr.size == 0:
        return {}
    ids = [lookup_word(vocab, row)[0] for row in arr.reshape(-1, arr.shape[-1])]
    words, counts = np.unique(ids, return_counts=True)
    weighted = counts / counts.sum() * vocab.word_weight[words]
    keep = weighted > 0.0
    kept = dict(zip(words[keep].tolist(), weighted[keep].tolist()))
    total = reference_l1_norm(kept)
    return {w: x / total for w, x in kept.items()}


def reference_score_l1(a, b):
    """The dict-based `score_l1` of old over two mappings: the shared words'
    minima summed in ascending word order, then the clamped expression of
    the module docstring of `hbow.bow`."""
    words = a.keys() & b.keys()
    if not words:
        return 0.0
    shared = 0.0
    for w in sorted(words):
        shared += min(a[w], b[w])
    return min(1.0, max(0.0, (1.0 - (reference_l1_norm(a) + reference_l1_norm(b)) / 2.0)
                        + shared))


def query_candidates(db, vector, exclude=None):
    """The entries of `db` that share a word with `vector` and are not
    excluded, read from the public postings one word at a time."""
    found = set()
    for w in vector.entries:
        found.update(e for e, _ in db.postings.get(w, ()))
    return found - set(exclude or ())


def audit(db, vectors):
    """Full cross-check of a RetrievalDatabase against the vectors added to
    it, in order: its norms and postings; raises InternalInvariantError on
    any mismatch."""
    n = len(vectors)
    if len(db.norms) != n:
        raise InternalInvariantError(f"{len(db.norms)} norms for {n} entries")
    seen: dict[int, dict[int, float]] = {}
    for w, plist in db.postings.items():
        ids = plist.ids.tolist()
        if len(ids) != len(plist.weights) or ids != sorted(set(ids)):
            raise InternalInvariantError(
                f"posting list for word {w} is not sorted unique ids with one weight each")
        for e, weight in plist:
            if not 0 <= e < n:
                raise InternalInvariantError(f"posting for word {w} points at missing entry {e}")
            seen.setdefault(e, {})[w] = weight
    for e, vector in enumerate(vectors):
        if seen.get(e, {}) != vector.entries:
            raise InternalInvariantError(f"entry {e} disagrees with the inverted index")
        if db.norms[e] != reference_l1_norm(vector.entries):
            raise InternalInvariantError(f"entry {e} stores norm {db.norms[e]}, "
                                         f"not {reference_l1_norm(vector.entries)}")


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


def cluster_counts(codes, labels, k):
    """Each cluster's per-bit counts (int64, (k, bits)) and member counts
    (int64, (k,)): one cluster at a time, the column sums of its members'
    `np.unpackbits` rows and their number."""
    bits = np.unpackbits(np.asarray(codes, dtype=np.uint8), axis=1)
    sums = np.zeros((k, bits.shape[1]), dtype=np.int64)
    sizes = np.zeros(k, dtype=np.int64)
    for j in range(k):
        members = bits[np.asarray(labels) == j]
        sums[j] = members.sum(axis=0, dtype=np.int64)
        sizes[j] = members.shape[0]
    return sums, sizes


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


def exact_numerators(x, sums, counts):
    """M = |S|^2 - 2n*(x . S) for every 0/1 row of x and every centroid of bit
    sums S over n members, as rows of Python ints (the dot products in int64,
    which numpy sums without BLAS): |x - S/n|^2 = |x| + M / n^2."""
    s = np.asarray(sums).astype(np.int64)
    dots = (np.asarray(x).astype(np.int64) @ s.T).tolist()
    squares = (s * s).sum(axis=1).tolist()
    n = [int(c) for c in counts]
    return [[q - 2 * m * d for d, q, m in zip(row, squares, n)] for row in dots]


def _assign(x, sums, counts):
    # nearest mean of every row by M / n^2, the first of equal quotients;
    # Python's int / int is correctly rounded
    ones = np.asarray(x).sum(axis=1).tolist()
    n = [int(c) for c in counts]
    labels, dists = [], []
    for a, row in zip(ones, exact_numerators(x, sums, counts)):
        quotients = [v / (m * m) for v, m in zip(row, n)]
        j = min(range(len(quotients)), key=quotients.__getitem__)
        labels.append(j)
        dists.append(a + quotients[j])
    return np.array(labels, dtype=np.int64), np.array(dists, dtype=np.float64)


def _repair(x, sums, counts, labels, obj):
    # each empty cluster, in ascending order, takes the member of the first
    # largest cluster farthest from its stale mean, by n^2*|x - S/n|^2 =
    # n^2*|x| + M; that row becomes its centroid, with one member
    sizes = np.bincount(labels, minlength=sums.shape[0])
    for c in np.flatnonzero(sizes == 0):
        donor = int(np.argmax(sizes))
        members = np.flatnonzero(labels == donor)
        m = int(counts[c])
        far = [m * m * int(a) + row[0] for a, row in
               zip(x[members].sum(axis=1), exact_numerators(x[members], sums[c:c + 1], [m]))]
        p = int(members[max(range(len(far)), key=far.__getitem__)])
        sums[c] = x[p]
        counts[c] = 1
        labels[p] = c
        obj[p] = 0.0
        sizes[donor] -= 1
        sizes[c] += 1


def lloyd_float(x, cfg):
    """k-means on float 0/1 rows x: `kmeanspp_seed_sqeuclidean` seeded with
    `cfg.seed`, then (bit sums and sizes of each cluster, reassign by
    `exact_numerators`, repair) until the assignment repeats or
    `cfg.max_iters` passes have run. The centroids come back as float64
    means, sums / sizes, and `objectives` after seeding and every pass."""
    rng = np.random.default_rng(cfg.seed)
    sums = kmeanspp_seed_sqeuclidean(x, cfg.k, rng).astype(np.int64)
    counts = np.ones(cfg.k, dtype=np.int64)
    labels, obj = _assign(x, sums, counts)
    _repair(x, sums, counts, labels, obj)
    objectives = [float(obj.sum())]
    iterations = 0
    while iterations < cfg.max_iters:
        for c in range(cfg.k):
            members = x[labels == c]
            sums[c] = members.sum(axis=0)
            counts[c] = members.shape[0]
        prev = labels
        labels, obj = _assign(x, sums, counts)
        _repair(x, sums, counts, labels, obj)
        iterations += 1
        objectives.append(float(obj.sum()))
        if np.array_equal(labels, prev):
            break
    return ClusterResult(sums / counts[:, None], labels, float(obj.sum()), iterations, objectives)


def same_place_pairs(frame_places):
    """Every (frame, earlier frame) pair of one place, by a walk over every
    earlier frame."""
    return {(t, s) for t in range(len(frame_places)) for s in range(t)
            if frame_places[t] == frame_places[s]}


def retrieval_report(vocab, frames, gt_pairs, temporal_exclusion=1):
    """The retrieval report scored against a set of (query frame, earlier
    frame) ground-truth pairs: a query is eligible if one of its sources
    lies before the exclusion window, a top-1 entry is correct if it forms a
    pair with its query, and the PR sweep rescans every prediction at each
    distinct top-1 score."""
    gt_pairs = set(map(tuple, gt_pairs))
    db = RetrievalDatabase(vocab)
    top1 = {}
    for t, frame in enumerate(frames):
        vec = transform(vocab, frame)
        exclude = range(max(0, t - temporal_exclusion), t)
        if len(db):
            res = db.query(vec, 1, exclude)
            if res:
                top1[t] = res[0]
        db.add(vec)

    gt_by_query = {}
    for t, s in gt_pairs:
        gt_by_query.setdefault(t, set()).add(s)
    eligible = [
        t for t, sources in gt_by_query.items()
        if any(s < t - temporal_exclusion for s in sources)
    ]
    if not eligible:
        return RetrievalReport(1.0, 1.0, [], 0, 0, True)

    hits = sum(1 for t in eligible if t in top1 and (t, top1[t][0]) in gt_pairs)
    recall_at_1 = hits / len(eligible)

    predictions = [(score, (t, entry) in gt_pairs) for t, (entry, score) in top1.items()]
    curve = []
    max_f1 = 0.0
    for threshold in sorted({score for score, _ in predictions}):
        kept = [(s, ok) for s, ok in predictions if s >= threshold]
        tp = sum(1 for _, ok in kept if ok)
        precision = tp / len(kept)
        recall = tp / len(eligible)
        curve.append((float(threshold), precision, recall))
        if precision + recall > 0.0:
            max_f1 = max(max_f1, 2.0 * precision * recall / (precision + recall))
    return RetrievalReport(recall_at_1, max_f1, curve, len(eligible), hits, False)
