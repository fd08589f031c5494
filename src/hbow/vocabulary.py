"""Hierarchical binary vocabularies: training, structure, and word lookup.

A vocabulary is a k-ary tree of packed binary centroids, stored as flat
read-only arrays (see `Vocabulary`). The root's centroid is unused; every
other node holds one. Leaves carry word ids (assigned in node order, which
is file order, as DBoW2 numbers them) and idf weights. Looking up a
descriptor walks greedily from the root, at each internal node moving to the
child with the smallest Hamming distance (ties to the lowest-index child),
and returns the reached leaf's word.

Three training strategies share one level-by-level builder and differ only
in how one node's points are partitioned into k groups:

* KMAJORITY       - Hamming k-majority at every node.
* LOCAL_BRB       - binary-real-binary k-means at every node: relax, run
                    real k-means, binarize the centroids, reassign.
* GLOBAL_HBRB     - run real k-means (exact integer assignment, see
                    `clustering`) down the entire hierarchy, each node
                    relaxing its own members' codes, and partition
                    children by the real assignments; binary centroids enter
                    only as derived artifacts. A node's stored binary centroid is the
                    per-bit majority vote of its members, read from the
                    split's kept bit counts (`member_majorities`), so every
                    leaf satisfies centroid == majority_centroid(members)
                    exactly.

Node splitting rules: a node becomes a leaf when it reaches depth L, holds a
single point, or holds a single distinct value; a node with 2 <= distinct < k
values splits into exactly `distinct` clusters. The root always splits (into
one child when the corpus is degenerate).

Training runs on one thread. Each split is seeded from its node path in
NumPy's `SeedSequence` spawn tree and nodes are numbered breadth-first, so a
node's clustering does not depend on the order in which nodes are split.
"""

from __future__ import annotations

from collections import deque
from dataclasses import InitVar, dataclass, field, replace
from decimal import Context, Decimal
from enum import Enum
from time import perf_counter

import numpy as np

from .clustering import ClusterConfig, brb_kmeans, kmajority, lloyd_real
from .descriptors import DescriptorSet, _as_codes, _block_columns, _integer, _quote, \
    _word_major, _xor_distances
from .errors import ConfigError, CorpusConsistencyError, InsufficientPointsError, \
    InternalInvariantError


class Strategy(str, Enum):
    KMAJORITY = "kmajority"
    LOCAL_BRB = "local-brb"
    GLOBAL_HBRB = "hbrb"


def _as_strategy(value, error: type[Exception]) -> Strategy:
    """`value` as a Strategy (a member or its name); `error` if it is neither."""
    try:
        return Strategy(value)
    except ValueError:
        raise error(f"unknown strategy {_quote(value)}, expected one of "
                    f"{', '.join(s.value for s in Strategy)}") from None


@dataclass(frozen=True, eq=False)
class Vocabulary:
    """A vocabulary tree as read-only flat arrays with one row per node, and
    descent tables with one row per node above the deepest level.

    Node 0 is the root and every other node's parent is an earlier node.
    Training numbers nodes breadth-first; the loaders keep file order.
    Given at construction:

    * `parent`    (nodes,) int64, -1 for the root;
    * `centroids` (nodes, octets) uint8, octets >= 1, row 0 (the root) unused;
    * `weight`    (nodes,) float64, the idf weight of each leaf.

    Derived once at construction:

    * `descriptor_bits` 8 * octets;
    * `word_of_node` (nodes,) int64, word id of each leaf, -1 elsewhere: the
                     leaves numbered 0..W-1 in node order (`assign_word_ids`);
    * `word_weight`  (word_count,) float64, the weight of each word;
    * `height`       the depth of the deepest leaf;
    * the descent tables, one row per *slot*: a node above depth `height`
      (every internal node and any shallower leaf), numbered in node order
      from the root's slot 0:
      * `descent_children` (slots, widest fan-out) int64: an internal
                     node's child ids ascending, padded with its first child;
                     a leaf's row holds the leaf itself, so a descent that
                     has reached it stays;
      * `descent_words` (ceil(bits/64), slots, widest fan-out) uint64, the
                     centroids of those children in 64-bit words, word-major,
                     the last word zero-padded;
      * `descent_slot` (nodes,) int64, each node's slot, -1 for the leaves
                     at depth `height`.

    Construction copies the given arrays and builds child rows for the slots
    only; the whole tree's 64-bit word copy it gathers `descent_words` from
    is not kept. No array can be written; derive a changed vocabulary with
    `dataclasses.replace`.
    """

    k: int
    L: int
    strategy: Strategy | None
    parent: np.ndarray = field(repr=False)
    centroids: np.ndarray = field(repr=False)
    weight: np.ndarray = field(repr=False)
    descriptor_bits: int = field(init=False)
    word_of_node: np.ndarray = field(init=False, repr=False)
    word_weight: np.ndarray = field(init=False, repr=False)
    descent_words: np.ndarray = field(init=False, repr=False)
    descent_children: np.ndarray = field(init=False, repr=False)
    descent_slot: np.ndarray = field(init=False, repr=False)
    word_count: int = field(init=False)
    height: int = field(init=False)

    def __post_init__(self) -> None:
        if self.strategy is not None:
            object.__setattr__(self, "strategy", _as_strategy(self.strategy, InternalInvariantError))
        parent = np.array(self.parent, dtype=np.int64)
        centroids = np.array(self.centroids, dtype=np.uint8)
        weight = np.array(self.weight, dtype=np.float64)
        n = parent.size
        if parent.shape != (n,) or n < 2 or parent[0] != -1:
            raise InternalInvariantError(
                "parent must be 1-d with the root (-1) at node 0 and a node below it")
        if np.any(parent[1:] < 0) or np.any(parent[1:] >= np.arange(1, n)):
            raise InternalInvariantError("every node's parent must be an earlier node")
        if centroids.ndim != 2 or centroids.shape[0] != n or centroids.shape[1] == 0 \
                or weight.shape != (n,):
            raise InternalInvariantError(f"centroids {centroids.shape} and weights "
                                         f"{weight.shape} do not fit {n} nodes of >= 1 octet")
        word_of_node = assign_word_ids(parent)
        word_weight = weight[word_of_node >= 0]
        depth = _depth(parent)
        height = int(depth.max())
        slots = np.flatnonzero(depth < height)
        del depth
        descent_slot = np.full(n, -1, dtype=np.int64)
        descent_slot[slots] = np.arange(slots.size)
        descent_children = _slot_table(parent, slots, descent_slot)
        del slots  # the gather below sets the peak on deep trees
        arrays = {"parent": parent, "centroids": centroids, "weight": weight,
                  "word_of_node": word_of_node, "word_weight": word_weight,
                  "descent_words": _word_major(centroids).take(descent_children, axis=1),
                  "descent_children": descent_children, "descent_slot": descent_slot}
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "descriptor_bits", centroids.shape[1] * 8)
        object.__setattr__(self, "word_count", word_weight.size)
        object.__setattr__(self, "height", height)

    def __reduce__(self):
        # Deep copies and pickles go through the constructor; numpy would
        # otherwise restore the arrays writable.
        return Vocabulary, (self.k, self.L, self.strategy, self.parent, self.centroids,
                            self.weight)


def _slot_table(parent: np.ndarray, slots: np.ndarray, slot_of: np.ndarray) -> np.ndarray:
    """(slots, widest fan-out) `descent_children`: an internal node's child
    ids ascending, padded with its first child, which `argmin` never prefers
    over column 0; a leaf's row holds the leaf itself, so a descent that has
    reached it stays. Each row starts as its first child (the leaf, for a
    leaf) repeated; one scatter writes each child into its parent's row."""
    counts = np.bincount(parent[1:], minlength=parent.size)
    fan = int(counts.max())
    order = np.argsort(parent[1:], kind="stable") + 1   # child ids grouped by parent
    first = np.cumsum(counts) - counts
    head = np.where(counts[slots] > 0, order.take(first[slots], mode="clip"), slots)
    table = np.repeat(head, fan).reshape(slots.size, fan)
    owner = parent[order]
    table.reshape(-1)[slot_of[owner] * fan + (np.arange(order.size) - first[owner])] = order
    return table


def _depth(parent: np.ndarray) -> np.ndarray:
    """Depth of every node (the root's is 0), from one walk up the
    ancestors that doubles its stride each pass: `up` holds an ancestor of
    each node, `depth` the levels to it, and each pass adds the ancestor's
    own count and jumps to the ancestor's ancestor, until every node's
    ancestor is the root. A tree of height h takes ceil(log2(h)) passes."""
    depth = np.ones(parent.size, dtype=np.int64)
    depth[0] = 0
    up = parent.copy()
    up[0] = 0
    while up.any():
        depth += depth.take(up)
        up = up.take(up)
    return depth


@dataclass(frozen=True)
class TrainConfig:
    """Tree shape, strategy, seed and iteration cap of one training run.

    `k` caps each node's fan-out and `L` the depth, each below 2**63 so that
    the int64 file headers hold it. Each split clusters into min(k, distinct
    member values) groups, seeded with `SeedSequence(seed, spawn_key=node
    path)`, for at most `max_iters` passes (default 100). The four numbers
    must be integers (numpy's too) and are kept as Python ints. `cluster` is
    a deprecated init-only alias, checked but not stored: it must equal
    ClusterConfig(k, max_iters, seed), which checks `seed` and `max_iters`,
    and an unset `max_iters` is taken from it.
    """

    k: int = 10
    L: int = 6
    strategy: Strategy = Strategy.GLOBAL_HBRB
    cluster: InitVar[ClusterConfig | None] = None
    seed: int = 0
    max_iters: int | None = None

    def __post_init__(self, cluster: ClusterConfig | None) -> None:
        object.__setattr__(self, "strategy", _as_strategy(self.strategy, ConfigError))
        k, L = _integer(self.k, "k", 2, 2 ** 63), _integer(self.L, "L", 1, 2 ** 63)
        max_iters = self.max_iters
        if max_iters is None:  # 100, or a given cluster's; any other cluster fails below
            max_iters = getattr(cluster, "max_iters", 100)
        want = ClusterConfig(k, max_iters, _integer(self.seed, "seed"))
        if cluster not in (None, want):
            raise ConfigError(f"cluster {_quote(cluster)} disagrees with {_quote(want)}")
        for name, value in (("k", k), ("L", L), ("seed", want.seed), ("max_iters", want.max_iters)):
            object.__setattr__(self, name, value)


@dataclass
class TrainResult:
    vocabulary: Vocabulary
    member_word_ids: np.ndarray  # training-partition word id per corpus descriptor
    seconds: float


def _grow(codes: np.ndarray,
          cfg: TrainConfig) -> tuple[list[int], list[np.ndarray], np.ndarray]:
    """Grow the tree from one first-in first-out queue, in level order, so
    nodes are numbered breadth-first (root = 0). A split numbers and queues
    each child, every leaf test runs where a node leaves the queue, and the
    walk ends when it empties. Returns the parent list, the centroid rows,
    and the deepest node each corpus row reached (int64, one per row). Each
    split calls its clusterer by module-level name (a tracer rebinds it)
    with `ClusterConfig(min(k, distinct), max_iters, SeedSequence(train seed,
    spawn_key=node path))`, so its result depends only on its members and path.
    """
    parent, centroids = [-1], [np.zeros(codes.shape[1], dtype=np.uint8)]
    node_of_row = np.zeros(codes.shape[0], dtype=np.int64)
    queue = deque([(0, np.arange(codes.shape[0], dtype=np.int64), ())])  # (node id, members, path)
    while queue:
        nid, members, path = queue.popleft()
        # below the root, depth L makes a leaf; so does one point, a shortcut for one distinct value
        if path and (len(path) == cfg.L or members.size == 1):
            continue
        node_codes = codes[members]
        # only min(k, distinct rows) matters: k distinct first words settle
        # it, and fewer leave it to a unique over whole rows as byte strings
        first = np.sort(_word_major(node_codes[:, :8])[0])
        distinct = 1 + int(np.count_nonzero(first[1:] != first[:-1]))
        if distinct < cfg.k:
            distinct = np.unique(node_codes.view(np.dtype((np.void, codes.shape[1])))).size
        if path and distinct <= 1:  # the root always splits, into one child if degenerate
            continue
        ccfg = ClusterConfig(min(cfg.k, distinct), cfg.max_iters,
                             np.random.SeedSequence(cfg.seed, spawn_key=path))
        if cfg.strategy is Strategy.KMAJORITY:
            res = kmajority(node_codes, ccfg)
        elif cfg.strategy is Strategy.LOCAL_BRB:
            res = brb_kmeans(node_codes, ccfg)
        else:
            res = lloyd_real(node_codes, ccfg)
        for j in range(ccfg.k):
            child = members[res.assignments == j]
            if child.size == 0:
                raise InternalInvariantError("clustering produced an empty cluster after repair")
            cid = len(parent)
            parent.append(nid)
            centroids.append(res.member_majorities[j]
                             if cfg.strategy is Strategy.GLOBAL_HBRB else res.centroids[j])
            node_of_row[child] = cid
            queue.append((cid, child, (*path, j)))
    return parent, centroids, node_of_row


def assign_word_ids(parent: np.ndarray) -> np.ndarray:
    """Word id of every node: a leaf, a node no other node names as its
    parent, gets its rank among the leaves in node order, which is file
    order, as DBoW2's `TemplatedVocabulary::loadFromTextFile` numbers them;
    -1 for the root and every internal node.
    """
    is_leaf = np.bincount(parent[1:], minlength=parent.size) == 0
    return np.where(is_leaf, np.cumsum(is_leaf) - 1, -1)


def compute_idf(vocab: Vocabulary, corpus: DescriptorSet) -> Vocabulary:
    """Return a copy of `vocab` whose leaf weights are ln(N / N_i): N = corpus
    group count, N_i = number of groups containing word i (by greedy lookup).
    Words absent from the corpus get weight 0; internal nodes keep theirs.
    `vocab` itself is unchanged.

    Each weight is the correctly rounded ln of the float quotient N / N_i,
    taken once per distinct N_i through 50-digit `decimal` arithmetic, so it
    does not depend on which CPU-specific `log` NumPy dispatches to."""
    if corpus.group_count < 1:
        raise InsufficientPointsError("idf needs a corpus with at least one group")
    W = vocab.word_count
    word_ids, _ = lookup_words(vocab, corpus.codes)
    group = np.repeat(np.arange(corpus.group_count), np.diff(corpus.group_ends, prepend=0))
    doc_count = np.bincount(np.unique(group * W + word_ids) % W, minlength=W)
    n_groups = float(corpus.group_count)
    counts, inverse = np.unique(doc_count, return_inverse=True)
    ln = Context(prec=50).ln
    idf = np.array([float(ln(Decimal(n_groups / c))) if c else 0.0 for c in counts.tolist()])
    idf = idf[inverse]
    weight = vocab.weight.copy()
    weight[vocab.word_of_node >= 0] = idf
    return replace(vocab, weight=weight)


def lookup_words(vocab: Vocabulary, codes) -> tuple[np.ndarray, np.ndarray]:
    """Greedy root-to-leaf descent for every row of a code matrix.

    All rows descend together one tree level at a time: each row at an
    internal node moves to the child with the smallest Hamming distance, ties
    to the lowest-index child, and a row at a leaf stays there, so every row
    takes `vocab.height` steps. A row is tracked by its node, starting at the
    root. A block of rows first repeats its own 64-bit words across the
    fan-out, once, into a contiguous (words, rows, fan-out) array. One level
    is then one gather, `vocab.descent_words.take` of the rows' slots
    (`descent_slot`), into an array of that same shape; then
    `descriptors._xor_distances` of it and the repeated words, XORing two
    equal-shaped arrays in place into the gathered one; then the first
    minimum over the fan-out axis. The slot times the fan-out plus that
    column indexes `descent_children` flat and names the row's next node. A
    padding column repeats the first child and a shallow leaf's row holds the
    leaf, so nothing needs a mask. Rows go in blocks of
    `descriptors._block_columns` for the fan-out, counting the repeated
    words. Returns (word_ids, leaf_node_ids), int64 each.
    """
    codes = _as_codes(codes)
    if codes.shape[1] * 8 != vocab.descriptor_bits:
        raise CorpusConsistencyError(
            f"descriptor width {codes.shape[1] * 8} does not match vocabulary width "
            f"{vocab.descriptor_bits}"
        )
    table, children, slot_of = vocab.descent_words, vocab.descent_children, vocab.descent_slot
    fan = children.shape[1]
    query = _word_major(codes)
    n = codes.shape[0]
    leaf = np.empty(n, dtype=np.int64)
    # per (row, child): 8 bytes per word each for the repeated query words
    # and the gathered ones, 1 for their bit counts, and up to 12 for the sum
    # and the row's indices
    step = _block_columns(fan, 17 * table.shape[0] + 12)
    for start in range(0, n, step):
        q = query[:, start:start + step, None].repeat(fan, axis=2)  # (words, rows, fan)
        xor = np.empty_like(q)
        kid = np.zeros(q.shape[1], dtype=np.int64)  # the root
        for _ in range(vocab.height):
            cur = slot_of.take(kid)
            # "clip" gathers straight into xor, where "raise" would buffer;
            # every slot is in range
            table.take(cur, axis=1, out=xor, mode="clip")
            cur *= fan
            cur += _xor_distances(xor, q, xor).argmin(axis=1)
            kid = children.take(cur)
        leaf[start:start + step] = kid
        del q, xor  # before the next block's are made
    return vocab.word_of_node[leaf], leaf


def validate_structure(vocab: Vocabulary) -> None:
    """Check the training contract; raises InternalInvariantError on breach.

    Construction already guarantees a tree rooted at node 0 with parents
    before children, centroid rows of `descriptor_bits`, and word ids that
    are a bijection onto the leaves. Checked here: no node has more than k
    children, no leaf sits below depth L, and every weight is finite and
    non-negative.
    """
    fanout = np.bincount(vocab.parent[1:], minlength=vocab.parent.size)
    wide = np.flatnonzero(fanout > vocab.k)
    if wide.size:
        nid = int(wide[0])
        raise InternalInvariantError(f"node {nid} has {fanout[nid]} children, more than {vocab.k}")
    if vocab.height > vocab.L:
        raise InternalInvariantError(f"a leaf sits at depth {vocab.height}, below depth {vocab.L}")
    bad = np.flatnonzero(~np.isfinite(vocab.weight) | (vocab.weight < 0.0))
    if bad.size:
        nid = int(bad[0])
        raise InternalInvariantError(f"node {nid} has invalid weight {vocab.weight[nid]}")


def train_result(corpus: DescriptorSet, cfg: TrainConfig) -> TrainResult:
    """Train a vocabulary and report the training-partition word id of every
    corpus descriptor alongside it. Greedy lookup may send a descriptor to
    another word: the per-node strategies descend close to their partition,
    while hbrb partitions by real-domain assignments that a Hamming descent
    often leaves."""
    t0 = perf_counter()
    if len(corpus) == 0:
        raise InsufficientPointsError("training corpus is empty")
    parent, centroids, node_of_row = _grow(corpus.codes, cfg)
    vocab = Vocabulary(cfg.k, cfg.L, cfg.strategy, parent, np.vstack(centroids),
                       np.zeros(len(parent)))
    member_word_ids = vocab.word_of_node[node_of_row]
    if (member_word_ids < 0).any():
        raise InternalInvariantError("some descriptors fell outside every leaf")
    vocab = compute_idf(vocab, corpus)
    validate_structure(vocab)
    return TrainResult(vocab, member_word_ids, perf_counter() - t0)


def train(corpus: DescriptorSet, cfg: TrainConfig, *, threads: int = 1) -> Vocabulary:
    """Train a hierarchical vocabulary on a descriptor corpus.

    Builds the tree with `cfg.strategy`, numbers words in node order, weights
    leaves by idf over the corpus groups, and validates the structure.
    Bit-identical for identical (corpus, config). Training runs on one
    thread; `threads` is kept for callers that pass 1, and any other value
    raises ConfigError.
    """
    if threads != 1:
        raise ConfigError(f"training runs on one thread, got threads={_quote(threads)}")
    return train_result(corpus, cfg).vocabulary
