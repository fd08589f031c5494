import copy
import hashlib
import math
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from decimal import Context, Decimal

import numpy as np
import pytest

from hbow import (
    ClusterConfig,
    ConfigError,
    CorpusConsistencyError,
    DescriptorSet,
    InsufficientPointsError,
    InternalInvariantError,
    Strategy,
    TrainConfig,
    Vocabulary,
    assign_word_ids,
    brb_kmeans,
    compute_idf,
    kmajority,
    load_vocabulary,
    lookup_words,
    majority_centroid,
    quantization_report,
    realize_matrix,
    save_vocabulary,
    train,
    train_result,
    transform,
    validate_structure,
    write_descriptors,
)
import hbow.clustering
import hbow.vocabulary
from hbow.descriptors import _word_major
from hbow.cli import main
from oracles import binarize, lloyd_float, lookup_word, real_mean, synth_clustered

ALL_STRATEGIES = (Strategy.KMAJORITY, Strategy.LOCAL_BRB, Strategy.GLOBAL_HBRB)


def _cfg(k, L, strategy, seed=0, max_iters=50):
    return TrainConfig(k=k, L=L, strategy=strategy, seed=seed, max_iters=max_iters)


def _bundle_corpus(vals, n_per=8, group_ends=None):
    rows = np.array([v for v in vals for _ in range(n_per)], dtype=np.uint8)
    return DescriptorSet(codes=rows, group_ends=group_ends)


# four 64-bit piles, pairwise 32 apart (one pair 64): flat separable geometry
FLAT_VALS = (
    [0x00] * 8,
    [0xFF] * 4 + [0x00] * 4,
    [0xF0] * 8,
    [0x0F] * 8,
)

# four 64-bit piles with two tight pairs 16 apart, pairs 48+ from each other:
# the natural geometry for a k=2, L=2 tree
HIER_VALS = (
    [0x00] * 8,
    [0xFF, 0xFF] + [0x00] * 6,
    [0x00, 0x00] + [0xFF] * 6,
    [0xFF] * 8,
)


def _random_corpus(n, octets, seed):
    rng = np.random.default_rng(seed)
    return DescriptorSet(codes=rng.integers(0, 256, size=(n, octets), dtype=np.uint8))


def _kids(vocab, nid):
    # children found by scanning `parent`, independent of the derived table
    return np.flatnonzero(vocab.parent == nid)


def _leaf_ids(vocab):
    """Leaf node ids in word order."""
    leaves = np.flatnonzero(vocab.word_of_node >= 0)
    return leaves[np.argsort(vocab.word_of_node[leaves])]


def _check_derived_arrays(vocab):
    """Check the word ids and descent tables against a scan of `parent`, one
    node at a time. Word ids: each leaf's rank among the leaves in node
    order. Descent tables: a slot for every node above the deepest level,
    numbered in node order; a slot's children ascending, padded with the
    first child, a shallow leaf's row holding only the leaf, and the
    children's centroids in 64-bit words."""
    n = vocab.parent.size
    leaves = [nid for nid in range(n) if _kids(vocab, nid).size == 0]
    want = np.full(n, -1)
    want[leaves] = np.arange(len(leaves))
    assert vocab.word_of_node.tolist() == want.tolist()
    assert assign_word_ids(vocab.parent).tolist() == want.tolist()
    depth = np.zeros(n, dtype=np.int64)
    for nid in range(1, n):
        depth[nid] = depth[vocab.parent[nid]] + 1
    slots = np.flatnonzero(depth < vocab.height)
    assert vocab.height == depth.max()
    assert vocab.descent_slot[slots].tolist() == list(range(slots.size))
    assert (vocab.descent_slot[depth == vocab.height] == -1).all()
    for nid, row in zip(slots.tolist(), vocab.descent_children, strict=True):
        kids = _kids(vocab, nid).tolist()
        assert row.tolist() == kids + kids[:1] * (row.size - len(kids)) if kids \
            else row.tolist() == [nid] * row.size
    assert np.array_equal(vocab.descent_words,
                          _word_major(vocab.centroids)[:, vocab.descent_children])


# ---------------------------------------------------------------- structure


def test_flat_separable_bundles_recovered_by_every_strategy():
    ds = _bundle_corpus(FLAT_VALS)
    want = {bytes(bytearray(v)) for v in FLAT_VALS}
    for strategy in ALL_STRATEGIES:
        for seed in range(4):
            vocab = train(ds, _cfg(4, 1, strategy, seed=seed))
            leaves = _leaf_ids(vocab)
            assert len(leaves) == 4
            assert {bytes(vocab.centroids[n]) for n in leaves} == want
            assert vocab.word_count == 4


def test_hierarchical_separable_bundles_recovered_by_every_strategy():
    ds = _bundle_corpus(HIER_VALS)
    want = {bytes(bytearray(v)) for v in HIER_VALS}
    for strategy in ALL_STRATEGIES:
        for seed in range(4):
            vocab = train(ds, _cfg(2, 2, strategy, seed=seed))
            assert {bytes(vocab.centroids[n]) for n in _leaf_ids(vocab)} == want
            assert vocab.word_count == 4


def test_leaf_purity_on_separable_bundles():
    # every bundle value quantizes to its own word, for every strategy
    ds = _bundle_corpus(HIER_VALS)
    for strategy in ALL_STRATEGIES:
        vocab = train(ds, _cfg(2, 2, strategy, seed=1))
        words = {lookup_word(vocab, np.array(v, dtype=np.uint8))[0] for v in HIER_VALS}
        assert words == set(range(4))


def test_tree_shape_and_metadata():
    ds = _random_corpus(400, 8, seed=9)
    for strategy in ALL_STRATEGIES:
        vocab = train(ds, _cfg(3, 2, strategy, seed=2))
        assert vocab.k == 3 and vocab.L == 2
        assert vocab.strategy is strategy
        assert vocab.descriptor_bits == 64
        assert vocab.parent[0] == -1 and vocab.word_of_node[0] == -1
        assert _kids(vocab, 0).size > 0
        _check_derived_arrays(vocab)
        assert vocab.word_count == len(_leaf_ids(vocab)) == vocab.word_weight.size
        validate_structure(vocab)


def test_word_ids_follow_node_order_on_uneven_trees(tmp_path):
    # twelve values repeated: nodes stop on one distinct value at every
    # depth, so leaves sit at several depths and depth-first order differs
    # from node order
    rng = np.random.default_rng(0)
    pool = rng.integers(0, 256, size=(12, 8), dtype=np.uint8)
    ds = DescriptorSet(pool[rng.integers(12, size=300)])
    for strategy in ALL_STRATEGIES:
        vocab = train(ds, _cfg(3, 3, strategy, seed=0))
        leaves = [nid for nid in range(1, vocab.parent.size) if not _kids(vocab, nid).size]
        assert vocab.word_of_node[leaves].tolist() == list(range(vocab.word_count))

        depth_first = []

        def walk(nid):
            kids = _kids(vocab, nid)
            if nid != 0 and not kids.size:
                depth_first.append(nid)
            for c in kids:
                walk(c)

        walk(0)
        assert depth_first != leaves, strategy

        # DBoW2's text loader gives each leaf line the next word id
        path = tmp_path / "vocab.txt"
        save_vocabulary(path, vocab)
        words, next_word = [-1], 0
        for line in path.read_text().splitlines()[1:]:
            if line.split()[1] == "1":
                words.append(next_word)
                next_word += 1
            else:
                words.append(-1)
        assert vocab.word_of_node.tolist() == words


# ---------------------------------------------------------------- small-node rules


def test_single_descriptor_corpus():
    code = np.array([0xAB, 0xCD, 0x12, 0x34], dtype=np.uint8)
    ds = DescriptorSet(codes=code[None, :])
    for strategy in ALL_STRATEGIES:
        vocab = train(ds, _cfg(5, 3, strategy))
        assert vocab.word_count == 1
        assert _kids(vocab, 0).size == 1
        assert bytes(vocab.centroids[_leaf_ids(vocab)[0]]) == bytes(code)
        # any probe lands on the only word
        probe = np.array([0x00, 0x00, 0x00, 0x00], dtype=np.uint8)
        assert lookup_word(vocab, probe)[0] == 0


def test_identical_corpus_collapses_to_one_leaf():
    code = np.array([0x5A] * 8, dtype=np.uint8)
    ds = DescriptorSet(codes=np.tile(code, (100, 1)))
    for strategy in ALL_STRATEGIES:
        vocab = train(ds, _cfg(10, 4, strategy))
        assert vocab.word_count == 1
        assert bytes(vocab.centroids[_leaf_ids(vocab)[0]]) == bytes(code)


def test_fanout_clamps_to_distinct_count():
    vals = ([0x00] * 4, [0xFF] * 4, [0x0F] * 4)
    ds = _bundle_corpus(vals, n_per=10)
    for strategy in ALL_STRATEGIES:
        vocab = train(ds, _cfg(10, 2, strategy, seed=3))
        assert _kids(vocab, 0).size == 3
        assert vocab.word_count == 3
        assert {bytes(vocab.centroids[n]) for n in _leaf_ids(vocab)} == \
            {bytes(bytearray(v)) for v in vals}


def test_depth_cap_limits_tree():
    ds = _bundle_corpus(HIER_VALS)
    for strategy in ALL_STRATEGIES:
        vocab = train(ds, _cfg(2, 1, strategy, seed=0))
        assert vocab.word_count == 2
        assert (vocab.parent[_leaf_ids(vocab)] == 0).all()


# ---------------------------------------------------------------- descent


def test_lookup_matches_independent_descent_oracle():
    ds = _random_corpus(600, 8, seed=11)
    probes = np.random.default_rng(77).integers(0, 256, size=(300, 8), dtype=np.uint8)
    for strategy in ALL_STRATEGIES:
        vocab = train(ds, _cfg(3, 3, strategy, seed=5))
        batch_words, batch_leaves = lookup_words(vocab, probes)
        for i, probe in enumerate(probes):
            want_word, _, want_leaf = lookup_word(vocab, probe)
            assert batch_words[i] == want_word and batch_leaves[i] == want_leaf


def test_round_trips_and_descent_on_generated_corpora(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=25, deadline=None, database=None)
    # widths on both sides of the 64-bit words the descent XORs
    @hypothesis.given(n=st.integers(1, 60), octets=st.sampled_from([1, 3, 7, 8, 9, 33]),
                      pool=st.integers(1, 30),
                      k=st.integers(2, 4), L=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
    def check(n, octets, pool, k, L, seed):
        # drawing from a small pool repeats values, so nodes also stop on a
        # single distinct value and split into fewer than k clusters
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 256, size=(pool, octets), dtype=np.uint8)
        codes = values[rng.integers(pool, size=n)]
        ends = np.union1d(rng.integers(0, n + 1, size=3), [n])
        probes = np.vstack([codes, rng.integers(0, 256, size=(20, octets), dtype=np.uint8)])
        for strategy in ALL_STRATEGIES:
            vocab = train(DescriptorSet(codes, ends), _cfg(k, L, strategy, seed=seed % 7,
                                                           max_iters=10))
            for suffix in (".txt", ".json"):
                first, second = tmp_path / f"a{suffix}", tmp_path / f"b{suffix}"
                save_vocabulary(first, vocab)
                save_vocabulary(second, load_vocabulary(first))
                assert first.read_bytes() == second.read_bytes()
            words, leaves = lookup_words(vocab, probes)
            for probe, word, leaf in zip(probes, words, leaves):
                assert (word, leaf) == lookup_word(vocab, probe)[::2]

    check()


def test_streamed_training_and_descent_equal_resident(tmp_path, monkeypatch):
    # with relaxed blocks of a few rows every split larger than that streams
    # its rows, and with a Hamming block cap below one column's buffers every
    # row is seeded, assigned and descends alone; files, training partitions
    # and looked-up words must not change
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def run(ds, cfg, probes, relaxed_bytes, hamming_bytes, path):
        with monkeypatch.context() as m:
            m.setattr(hbow.clustering, "_RELAXED_BLOCK_BYTES", relaxed_bytes)
            m.setattr(hbow.descriptors, "_HAMMING_BLOCK_BYTES", hamming_bytes)
            res = train_result(ds, cfg)
            save_vocabulary(path, res.vocabulary)
            return path.read_bytes(), res.member_word_ids, lookup_words(res.vocabulary, probes)

    @hypothesis.settings(max_examples=30, deadline=None, database=None, derandomize=True)
    @hypothesis.given(n=st.integers(1, 200), octets=st.sampled_from([1, 3, 9]),
                      pool=st.integers(1, 100), k=st.integers(2, 4), L=st.integers(1, 3),
                      block_rows=st.integers(1, 4), seed=st.integers(0, 2 ** 16))
    def check(n, octets, pool, k, L, block_rows, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 256, size=(pool, octets), dtype=np.uint8)
        codes = values[rng.integers(pool, size=n)]
        ds = DescriptorSet(codes, np.union1d(rng.integers(0, n + 1, size=3), [n]))
        probes = np.vstack([codes, rng.integers(0, 256, size=(20, octets), dtype=np.uint8)])
        for strategy in ALL_STRATEGIES:
            cfg = _cfg(k, L, strategy, seed=seed % 7, max_iters=10)
            resident = run(ds, cfg, probes, hbow.clustering._RELAXED_BLOCK_BYTES,
                           hbow.descriptors._HAMMING_BLOCK_BYTES, tmp_path / "resident.txt")
            streamed = run(ds, cfg, probes, block_rows * octets * 64, 1, tmp_path / "streamed.txt")
            assert streamed[0] == resident[0]
            assert np.array_equal(streamed[1], resident[1])
            for got, want in zip(streamed[2], resident[2]):
                assert np.array_equal(got, want)

    check()


def test_lookup_of_leaf_centroids_on_separable_tree():
    ds = _bundle_corpus(HIER_VALS)
    vocab = train(ds, _cfg(2, 2, Strategy.GLOBAL_HBRB, seed=0))
    for leaf in _leaf_ids(vocab):
        word, _, leaf_id = lookup_word(vocab, vocab.centroids[leaf])
        assert word == vocab.word_of_node[leaf] and leaf_id == leaf


def _bits72(*positions):
    # a 72-bit code (two 64-bit words, the second padded) with these bits set
    row = np.zeros(72, dtype=np.uint8)
    row[list(positions)] = 1
    return np.packbits(row)


def test_descent_on_a_hand_built_uneven_tree():
    # root 0 -> leaf 1, node 2, leaf 3 (the widest fan-out, 3);
    # node 2 -> node 4, node 5 (a narrower row, padded with one -1);
    # node 4 -> leaves 6, 7, 8; node 5 -> leaf 9, the last node, which a
    # -1 child slot would read if the table were padded with -1. Words number
    # the leaves in node order: 1, 3, 6, 7, 8, 9
    parent = [-1, 0, 0, 0, 2, 2, 4, 4, 4, 5]
    centroids = np.vstack([_bits72(), _bits72(*range(8)), _bits72(), _bits72(*range(64, 72)),
                           _bits72(8), _bits72(9), _bits72(8, 10), _bits72(8, 11), _bits72(8, 12),
                           _bits72(20, 21, 22, 23)])
    vocab = Vocabulary(3, 3, None, parent, centroids, np.arange(10) / 10.0)
    assert vocab.height == 3
    # nodes 0-5 lie above depth 3, so they are slots 0-5, shallow leaves 1
    # and 3 included; leaves 6-9 have none. The descent table pads a
    # narrower row with its first child and fills a shallow leaf's row with
    # the leaf. Padding with the last child descends the same on every tree,
    # and rows of leaves 1 and 3 pointing at the root descend the same on
    # this one (two spare steps: up and back), so the layout itself is
    # pinned here
    assert vocab.descent_slot.tolist() == [0, 1, 2, 3, 4, 5, -1, -1, -1, -1]
    assert vocab.descent_children.tolist() == [[1, 2, 3], [1, 1, 1], [4, 5, 4], [3, 3, 3],
                                               [6, 7, 8], [9, 9, 9]]
    assert vocab.descent_words.shape == (2, 6, 3)
    assert vocab.descent_words[1, 0].tolist() == [0, 0, 0xFF]  # the second word of 1, 2, 3
    with pytest.raises(InternalInvariantError):  # a root alone has no word to descend to
        Vocabulary(3, 3, None, [-1], centroids[:1], [0.0])
    assert vocab.word_of_node.tolist() == [-1, 0, -1, 1, -1, -1, 2, 3, 4, 5]
    probes = np.vstack([
        _bits72(0, 1, 2, 3, 64, 65, 66, 67),  # 8 from each root child, across both words: leaf 1
        _bits72(),                            # ties at 2 (4 vs 5) and 3 (6, 7, 8): leaf 6
        _bits72(9, 20, 21, 22, 23),           # the padded slot would be nearest: leaf 9
        _bits72(8, 11, 12),                   # tie of 7 and 8 at depth 3: leaf 7
        _bits72(*range(64, 72)),              # leaf 3, the last root child
    ])
    words, leaves = lookup_words(vocab, probes)
    assert leaves.tolist() == [1, 6, 9, 7, 3]
    assert words.tolist() == [0, 2, 5, 3, 1]
    rng = np.random.default_rng(0)
    noisy = np.vstack([probes, rng.integers(0, 256, size=(40, 9), dtype=np.uint8),
                       centroids ^ rng.integers(0, 256, size=centroids.shape, dtype=np.uint8)
                       & np.uint8(0x11)])
    words, leaves = lookup_words(vocab, noisy)
    for probe, word, leaf in zip(noisy, words, leaves):
        assert (word, leaf) == lookup_word(vocab, probe)[::2]


def test_lookup_equals_the_one_row_oracle_on_generated_trees(monkeypatch):
    # uneven trees, widths that are no multiple of 64 bits, centroids from a
    # small pool so siblings tie, probes near them, and block caps that cut
    # the rows into blocks of one row upwards
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    default = hbow.descriptors._HAMMING_BLOCK_BYTES

    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True,
                         suppress_health_check=list(hypothesis.HealthCheck))
    @hypothesis.given(data=st.data())
    def check(data):
        nodes = data.draw(st.integers(2, 40))
        parent = [-1] + [data.draw(st.integers(0, i - 1)) for i in range(1, nodes)]
        octets = data.draw(st.sampled_from([1, 3, 8, 9, 17, 33]))
        pool = data.draw(st.lists(st.binary(min_size=octets, max_size=octets), min_size=1,
                                  max_size=5))
        centroids = np.frombuffer(b"".join(data.draw(st.sampled_from(pool))
                                           for _ in range(nodes)), np.uint8).reshape(nodes, -1)
        vocab = Vocabulary(2, 40, None, parent, centroids, np.ones(nodes))
        _check_derived_arrays(vocab)
        rows = data.draw(st.integers(1, 60))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        flips = np.packbits(rng.random((rows, octets * 8)) < 0.1, axis=1)
        probes = centroids[rng.integers(0, nodes, size=rows)] ^ flips
        cap = data.draw(st.sampled_from([1, 200, 3000, default]))
        monkeypatch.setattr(hbow.descriptors, "_HAMMING_BLOCK_BYTES", cap)
        words, leaves = lookup_words(vocab, probes)
        monkeypatch.setattr(hbow.descriptors, "_HAMMING_BLOCK_BYTES", default)
        for probe, word, leaf in zip(probes, words, leaves):
            assert (word, leaf) == lookup_word(vocab, probe)[::2]

    check()


def test_lookup_of_many_rows_stays_within_its_block_budget():
    # 20,000 rows of 256 bits down a full k=10 tree hold their 64-bit words
    # (625 KiB), the two outputs (313 KiB) and one block of descent buffers:
    # the query words repeated across the fan-out, the gathered and XORed
    # words, their bit counts and sums, within _HAMMING_BLOCK_BYTES. Blocks
    # sized without the repeated words overrun it by over 40 %
    rows, octets = 20_000, 32
    parent = [-1] + [0] * 10 + [1 + i // 10 for i in range(100)]
    rng = np.random.default_rng(4)
    centroids = rng.integers(0, 256, size=(len(parent), octets), dtype=np.uint8)
    vocab = Vocabulary(10, 2, None, parent, centroids, np.ones(len(parent)))
    codes = rng.integers(0, 256, size=(rows, octets), dtype=np.uint8)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        words, leaves = lookup_words(vocab, codes)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert words.shape == leaves.shape == (rows,)
    assert peak <= hbow.descriptors._HAMMING_BLOCK_BYTES + codes.nbytes + 2 * rows * 8, peak


def test_lookup_sums_distances_of_65536_bits_without_wrapping():
    # a child that differs in all 65,536 bits is farther than one that
    # differs in one; a uint16 sum would wrap its distance to 0
    query = np.zeros((1, 8192), dtype=np.uint8)
    one = query.copy()
    one[0, 0] = 1
    vocab = Vocabulary(2, 1, None, [-1, 0, 0], np.vstack([query, ~query, one]), [0.0, 1.0, 1.0])
    assert lookup_words(vocab, query)[1].tolist() == [2]


def test_lookup_width_mismatch_raises():
    ds = _random_corpus(100, 8, seed=0)
    vocab = train(ds, _cfg(2, 1, Strategy.KMAJORITY))
    bad = np.zeros(16, dtype=np.uint8)
    with pytest.raises(CorpusConsistencyError):
        lookup_words(vocab, bad)
    with pytest.raises(CorpusConsistencyError):
        lookup_words(vocab, bad[None, :])


# ---------------------------------------------------------------- leaf contract


def test_global_leaf_centroids_are_member_majorities():
    ds = synth_clustered(6, 200, 0.06, bits=128, seed=3)
    result = train_result(ds, _cfg(3, 3, Strategy.GLOBAL_HBRB, seed=7))
    vocab = result.vocabulary
    for w, leaf in enumerate(_leaf_ids(vocab)):
        assert vocab.word_of_node[leaf] == w
        members = ds.codes[result.member_word_ids == w]
        assert len(members) > 0
        want = majority_centroid(members)
        assert bytes(vocab.centroids[leaf]) == bytes(want)
        # same thing phrased through the real domain
        assert bytes(binarize(real_mean(realize_matrix(members)))) == bytes(want)


def test_hbrb_leaves_are_member_majorities_on_generated_corpora():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @hypothesis.given(n=st.integers(1, 150), octets=st.integers(1, 4), pool=st.integers(1, 60),
                      flip=st.sampled_from([0.0, 0.1, 0.3]), k=st.integers(2, 5),
                      L=st.integers(1, 4), max_iters=st.integers(1, 10),
                      seed=st.integers(0, 2 ** 16))
    def check(n, octets, pool, flip, k, L, max_iters, seed):
        # noisy copies of a small pool: repeated rows, near ties and leaves
        # whose members disagree on some bits; few iterations leave splits
        # unconverged, where the last real centroids are not the members' mean
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 256, size=(pool, octets), dtype=np.uint8)
        noise = np.packbits(rng.random((n, octets * 8)) < flip, axis=1)
        codes = values[rng.integers(pool, size=n)] ^ noise
        result = train_result(DescriptorSet(codes), _cfg(k, L, Strategy.GLOBAL_HBRB,
                                                         seed=seed % 7, max_iters=max_iters))
        vocab = result.vocabulary
        for leaf in _leaf_ids(vocab):
            members = codes[result.member_word_ids == vocab.word_of_node[leaf]]
            assert np.array_equal(vocab.centroids[leaf], majority_centroid(members))

    check()


def test_member_word_ids_cover_all_words():
    ds = _random_corpus(800, 8, seed=21)
    for strategy in ALL_STRATEGIES:
        result = train_result(ds, _cfg(3, 2, strategy, seed=1))
        ids = result.member_word_ids
        assert ids.shape == (len(ds),)
        assert set(np.unique(ids)) == set(range(result.vocabulary.word_count))
        assert result.seconds >= 0.0


# ---------------------------------------------------------------- idf weighting


def test_idf_shared_word_gets_zero_weight():
    # bundle A sits in all three groups, B/C/D in exactly one each
    a, b, c, d = (np.array(v, dtype=np.uint8) for v in HIER_VALS)
    groups = [
        np.vstack([np.tile(a, (4, 1)), np.tile(b, (4, 1))]),
        np.vstack([np.tile(a, (4, 1)), np.tile(c, (4, 1))]),
        np.vstack([np.tile(a, (4, 1)), np.tile(d, (4, 1))]),
    ]
    ds = DescriptorSet.from_groups(groups)
    vocab = train(ds, _cfg(2, 2, Strategy.KMAJORITY, seed=0))
    assert vocab.word_count == 4
    weight_of = {bytes(v): lookup_word(vocab, v)[1] for v in (a, b, c, d)}
    assert weight_of[bytes(a)] == 0.0
    for v in (b, c, d):
        assert weight_of[bytes(v)] == pytest.approx(math.log(3.0), abs=1e-12)


def test_idf_one_group_per_word():
    # four groups, one bundle each: every word appears in exactly 1 of 4 groups
    vals = [np.array(v, dtype=np.uint8) for v in HIER_VALS]
    ds = DescriptorSet.from_groups([np.tile(v, (6, 1)) for v in vals])
    vocab = train(ds, _cfg(2, 2, Strategy.GLOBAL_HBRB, seed=0))
    for v in vals:
        assert lookup_word(vocab, v)[1] == pytest.approx(math.log(4.0), abs=1e-12)


def test_idf_weights_are_finite_and_nonnegative():
    ds = _random_corpus(400, 8, seed=2)
    grouped = DescriptorSet(codes=ds.codes, group_ends=[100, 200, 300, 400])
    for strategy in ALL_STRATEGIES:
        vocab = train(grouped, _cfg(3, 2, strategy, seed=0))
        for weight in vocab.weight[_leaf_ids(vocab)]:
            assert math.isfinite(weight) and weight >= 0.0


def test_idf_counts_each_group_once_on_generated_corpora():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @hypothesis.given(sizes=st.lists(st.integers(0, 8), min_size=1, max_size=12),
                      pool=st.integers(1, 12), strategy=st.sampled_from(ALL_STRATEGIES),
                      seed=st.integers(0, 2 ** 16))
    def check(sizes, pool, strategy, seed):
        # rows drawn from a small pool repeat words inside a group; zero sizes
        # leave groups empty anywhere, the first and last included
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 256, size=(pool, 2), dtype=np.uint8)
        vocab = train(DescriptorSet(values[rng.integers(pool, size=40)]),
                      _cfg(3, 2, strategy, seed=seed % 5, max_iters=5))
        codes = values[rng.integers(pool, size=sum(sizes))]
        corpus = DescriptorSet(codes, np.cumsum(sizes))
        doc_count = np.zeros(vocab.word_count, dtype=np.int64)
        for i in range(corpus.group_count):
            for w in {lookup_word(vocab, code)[0] for code in corpus.group_codes(i)}:
                doc_count[w] += 1
        n = len(sizes)
        want = [math.log(n / c) if c else 0.0 for c in doc_count]
        got = compute_idf(vocab, corpus).word_weight
        assert got.tolist() == pytest.approx(want, rel=1e-14, abs=0.0)

    check()


def _two_word_vocab():
    """k=2, L=1 vocabulary whose words are the all-zero and all-one 64-bit
    rows; returns it and the two rows."""
    a, b = np.zeros((1, 8), dtype=np.uint8), np.full((1, 8), 255, dtype=np.uint8)
    vocab = train(DescriptorSet.from_groups([np.vstack([a, b]), a]),
                  _cfg(2, 1, Strategy.KMAJORITY))
    return vocab, a, b


def test_idf_is_the_correctly_rounded_log_on_generated_counts():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    vocab, a, b = _two_word_vocab()
    (word_a, word_b), _ = lookup_words(vocab, np.vstack([a, b]))
    reference = Context(prec=80)

    # on an AVX512 host np.log misses the correctly rounded value for
    # 21 / 20 and 1000 / 897
    @hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @hypothesis.given(counts=st.integers(1, 3000).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(1, n))))
    @hypothesis.example(counts=(21, 20))
    @hypothesis.example(counts=(1000, 897))
    def check(counts):
        # n groups of one row each: b in the first n_b of them, a in the rest
        n, n_b = counts
        corpus = DescriptorSet(np.vstack([b] * n_b + [a] * (n - n_b)), np.arange(1, n + 1))
        weight = compute_idf(vocab, corpus).word_weight
        for word, c in ((word_b, n_b), (word_a, n - n_b)):
            assert weight[word] == (float(reference.ln(Decimal(n / c))) if c else 0.0)

    check()


def test_idf_rejects_zero_group_corpus():
    ds = _random_corpus(100, 8, seed=0)
    vocab = train(ds, _cfg(2, 1, Strategy.KMAJORITY))
    empty = DescriptorSet(codes=np.zeros((0, 8), dtype=np.uint8))
    with pytest.raises(InsufficientPointsError):
        compute_idf(vocab, empty)


def test_idf_rejects_width_mismatch():
    ds = _random_corpus(100, 8, seed=0)
    vocab = train(ds, _cfg(2, 1, Strategy.KMAJORITY))
    other = _random_corpus(50, 16, seed=1)
    with pytest.raises(CorpusConsistencyError):
        compute_idf(vocab, other)


# ---------------------------------------------------------------- determinism


def _fingerprint(vocab):
    return [vocab.parent.tobytes(), vocab.centroids.tobytes(), vocab.weight.tobytes(),
            vocab.word_of_node.tobytes()]


def test_training_is_deterministic_per_seed():
    ds = synth_clustered(5, 120, 0.05, bits=64, seed=8)
    for strategy in ALL_STRATEGIES:
        first = _fingerprint(train(ds, _cfg(3, 2, strategy, seed=4)))
        second = _fingerprint(train(ds, _cfg(3, 2, strategy, seed=4)))
        assert first == second


def _text_bytes(tmp_path, ds, cfg):
    path = tmp_path / "v.txt"
    save_vocabulary(path, train(ds, cfg))
    return path.read_bytes()


def test_max_iters_is_the_only_clustering_setting_and_cluster_an_alias(tmp_path, capsys):
    # each split clusters into min(k, distinct) groups with an RNG seeded from
    # (TrainConfig.seed, node path), so max_iters is all a split reads; the
    # deprecated `cluster` alias must agree with k, seed and max_iters
    ds = _random_corpus(600, 8, seed=0)
    corpus = tmp_path / "c.hbdc"
    write_descriptors(corpus, ds)
    assert TrainConfig().max_iters == 100
    for strategy in ALL_STRATEGIES:
        cfg = TrainConfig(k=4, L=2, strategy=strategy, seed=3, max_iters=20)
        want = _text_bytes(tmp_path, ds, cfg)
        for alias in (TrainConfig(k=4, L=2, strategy=strategy, seed=3,
                                  cluster=ClusterConfig(4, 20, 3)),
                      TrainConfig(4, 2, strategy, ClusterConfig(4, 20, 3), 3, 20)):
            assert alias == cfg
            assert _text_bytes(tmp_path, ds, alias) == want, strategy
        # the alias is checked, not stored, so replace works however a config was built
        for built in (cfg, TrainConfig(k=4, L=2, strategy=strategy, seed=3,
                                       cluster=ClusterConfig(4, 20, 3))):
            assert replace(built, seed=4) == TrainConfig(k=4, L=2, strategy=strategy, seed=4,
                                                         max_iters=20)
        assert _text_bytes(tmp_path, ds, replace(cfg, cluster=None, max_iters=1)) != want
        for cluster in (ClusterConfig(9, 20, 3), ClusterConfig(4, 20, 99)):
            with pytest.raises(ConfigError, match="disagrees"):
                TrainConfig(k=4, L=2, strategy=strategy, seed=3, cluster=cluster)
        with pytest.raises(ConfigError, match="disagrees"):
            TrainConfig(k=4, L=2, strategy=strategy, seed=3, max_iters=5,
                        cluster=ClusterConfig(4, 20, 3))
        with pytest.raises(ConfigError, match="max_iters"):
            TrainConfig(k=4, L=2, strategy=strategy, seed=3, max_iters=0)
        with pytest.raises(ConfigError, match="disagrees"):  # a seed in cluster's slot
            TrainConfig(4, 2, strategy, 3)
        assert main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "w.txt"),
                     "--k", "4", "--L", "2", "--strategy", strategy.value,
                     "--max-iters", "0"]) == 1
        assert "max_iters" in capsys.readouterr().err


def test_strategy_is_checked_and_may_be_given_by_name(tmp_path):
    ds = _random_corpus(300, 8, seed=2)
    for strategy in ALL_STRATEGIES:
        by_name = TrainConfig(k=3, L=2, strategy=strategy.value, max_iters=10)
        assert by_name.strategy is strategy
        assert _text_bytes(tmp_path, ds, by_name) == \
            _text_bytes(tmp_path, ds, _cfg(3, 2, strategy, max_iters=10))
    for bad in ("nope", "HBRB", 3, None):
        with pytest.raises(ConfigError, match="unknown strategy"):
            TrainConfig(k=3, L=2, strategy=bad)
    vocab = train(ds, _cfg(3, 2, Strategy.KMAJORITY))
    named = replace(vocab, strategy="hbrb")
    assert named.strategy is Strategy.GLOBAL_HBRB
    save_vocabulary(tmp_path / "v.json", named)
    assert load_vocabulary(tmp_path / "v.json").strategy is Strategy.GLOBAL_HBRB
    for bad in ("nope", 3):
        with pytest.raises(InternalInvariantError, match="unknown strategy"):
            replace(vocab, strategy=bad)


# SHA-256 of each strategy's text file for the corpus and config below, as
# trained before kmajority and brb's final partition moved from the packed
# Hamming kernel to the squared-Euclidean pass on 0/1 rows
_PINNED_TEXT_SHA256 = {
    Strategy.KMAJORITY: "0cb71b0607f32be37b0401ed923ed87647011238ba45f0df629b205d5a803154",
    Strategy.LOCAL_BRB: "979b8ae135145dc822c9bcf6f6c4d65e11a3990343a29de531d0e850fa455641",
    Strategy.GLOBAL_HBRB: "cfa7c070e36c2e86d4e76680e792b3cc11e159cac45501e2cff62dc96ac1adb4",
}


def test_training_writes_the_pinned_files(tmp_path):
    # The pins cover every assignment, repair and update rule. On this corpus
    # a float32 distance to hbrb's real centroids S/n rounds a near-tie the
    # other way than the exact integer kernel, so the hbrb pin also shows that
    # the kernel stays exact; a change that moves a file on purpose updates
    # its pin.
    rng = np.random.default_rng(0)
    ds = DescriptorSet(rng.integers(0, 256, size=(2000, 32), dtype=np.uint8),
                       np.arange(100, 2001, 100))
    for strategy in ALL_STRATEGIES:
        path = tmp_path / f"{strategy.value}.txt"
        save_vocabulary(path, train(ds, _cfg(6, 3, strategy, seed=0, max_iters=20)))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == _PINNED_TEXT_SHA256[strategy], strategy


_TRAIN_PINNED_CORPUS = """
import sys
import numpy as np
import hbow
rng = np.random.default_rng(0)
corpus = hbow.DescriptorSet(rng.integers(0, 256, size=(2000, 32), dtype=np.uint8),
                            np.arange(100, 2001, 100))
for strategy in hbow.Strategy:
    cfg = hbow.TrainConfig(k=6, L=3, strategy=strategy, seed=0, max_iters=20)
    hbow.save_vocabulary(f"{sys.argv[1]}/{strategy.value}.txt", hbow.train(corpus, cfg))
"""


def test_training_is_byte_identical_across_blas_core_types(tmp_path):
    # OpenBLAS picks its gemm kernel by CPU, and OPENBLAS_CORETYPE forces one:
    # Prescott's kernel sums in another order than the Haswell-class kernels.
    # The pinned corpus has a near-tie that a rounded float32 distance breaks
    # one way or the other by that order; the integer kernel must not care.
    files = {}
    for core in (None, "Prescott"):
        out = tmp_path / str(core)
        out.mkdir()
        env = {key: v for key, v in os.environ.items() if key != "OPENBLAS_CORETYPE"}
        if core is not None:
            env["OPENBLAS_CORETYPE"] = core
        subprocess.run([sys.executable, "-c", _TRAIN_PINNED_CORPUS, str(out)],
                       env=env, check=True, timeout=300)
        files[core] = {s.value: (out / f"{s.value}.txt").read_bytes() for s in ALL_STRATEGIES}
    assert files[None] == files["Prescott"]


_TRAIN_21_IMAGES = """
import sys
import numpy as np
import hbow
a, b = np.zeros((1, 8), dtype=np.uint8), np.full((1, 8), 255, dtype=np.uint8)
# a's word is in all 21 images and b's in 20 of them, so b's idf is ln(21 / 20)
corpus = hbow.DescriptorSet.from_groups([np.vstack([a, b])] * 20 + [a])
cfg = hbow.TrainConfig(k=2, L=1, strategy="kmajority", seed=0, max_iters=5)
hbow.save_vocabulary(sys.argv[1], hbow.train(corpus, cfg))
"""


def test_idf_is_byte_identical_across_numpy_cpu_dispatch(tmp_path):
    # NumPy dispatches its log by CPU, and NPY_DISABLE_CPU_FEATURES turns its
    # AVX512 paths off; on AVX512 hosts np.log(21 / 20) differs between the
    # two in the last bit
    files = {}
    for disabled in (None, "AVX512_SPR AVX512_ICL X86_V4"):
        out = tmp_path / f"{disabled is not None}.txt"
        env = {key: v for key, v in os.environ.items() if key != "NPY_DISABLE_CPU_FEATURES"}
        if disabled is not None:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        proc = subprocess.run([sys.executable, "-c", _TRAIN_21_IMAGES, str(out)], env=env,
                              capture_output=True, text=True, timeout=300)
        if disabled is not None and proc.returncode and "NPY_DISABLE_CPU_FEATURES" in proc.stderr:
            continue   # a NumPy that does not know these feature names
        assert proc.returncode == 0, proc.stderr
        files[disabled] = out.read_bytes()
    assert len(set(files.values())) == 1
    # the correctly rounded ln(21 / 20), so a host where both runs take one
    # path still checks the weight
    weights = load_vocabulary(tmp_path / "False.txt").word_weight
    assert sorted(weights.tolist()) == [0.0, 0.04879016416943205]


_TRAIN_ALL_STRATEGIES = """
import sys
import hbow
corpus = hbow.read_descriptors(sys.argv[1])
for strategy in hbow.Strategy:
    cfg = hbow.TrainConfig(k=8, L=3, strategy=strategy, seed=3, max_iters=20)
    hbow.save_vocabulary(f"{sys.argv[2]}/{strategy.value}.txt", hbow.train(corpus, cfg))
"""


def test_training_is_byte_identical_across_blas_thread_counts(tmp_path):
    # the node gemms (n x 256 x 8, n up to 2400) are large enough for OpenBLAS
    # to split them across threads; the bit counts are exact and each distance
    # keeps its summation order, so the files must not change
    corpus = tmp_path / "corpus.hbdc"
    write_descriptors(corpus, synth_clustered(12, 200, 0.08, bits=256, seed=9))
    files = {}
    for blas_threads in ("1", "2"):
        out = tmp_path / blas_threads
        out.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads, OMP_NUM_THREADS=blas_threads)
        subprocess.run([sys.executable, "-c", _TRAIN_ALL_STRATEGIES, str(corpus), str(out)],
                       env=env, check=True, timeout=300)
        files[blas_threads] = {s.value: (out / f"{s.value}.txt").read_bytes()
                               for s in ALL_STRATEGIES}
    assert files["1"] == files["2"]


# ---------------------------------------------------------------- reference builder


def _reference_train(corpus, cfg):
    """Depth-first recursive build, numbered breadth-first afterwards.

    A node splits unless it sits at depth L, holds one point or holds one
    distinct value; the root always splits. A split makes min(k, distinct)
    groups and is seeded with SeedSequence(train seed, spawn_key=node path).
    Returns (parent, centroids, member word ids), leaves numbered as the
    breadth-first pass dequeues them, which is node order. hbrb clusters
    slices of the corpus relaxed once to float32 rows, with the exact k-means
    oracle.
    """
    codes = corpus.codes
    real = realize_matrix(codes, dtype=np.float32)

    def distinct(idx):
        return len({bytes(row) for row in codes[idx]})

    def split(idx, path):
        ccfg = ClusterConfig(min(cfg.k, distinct(idx)), cfg.max_iters,
                             np.random.SeedSequence(cfg.seed, spawn_key=path))
        if cfg.strategy is Strategy.KMAJORITY:
            res = kmajority(codes[idx], ccfg)
        elif cfg.strategy is Strategy.LOCAL_BRB:
            res = brb_kmeans(codes[idx], ccfg)
        else:
            res = lloyd_float(real[idx], ccfg)
        groups = [idx[res.assignments == j] for j in range(ccfg.k)]
        if cfg.strategy is Strategy.GLOBAL_HBRB:
            return [(majority_centroid(codes[g]), g) for g in groups]
        return [(res.centroids[j], g) for j, g in enumerate(groups)]

    def subtree(centroid, idx, depth, path):
        kids = []
        if depth < cfg.L and idx.size > 1 and distinct(idx) > 1:
            kids = [subtree(c, g, depth + 1, (*path, j)) for j, (c, g) in enumerate(split(idx, path))]
        return centroid, idx, kids

    everything = np.arange(len(corpus))
    root = (np.zeros(codes.shape[1], dtype=np.uint8), everything,
            [subtree(c, g, 1, (j,)) for j, (c, g) in enumerate(split(everything, ()))])
    member_words = np.full(len(corpus), -1, dtype=np.int64)
    parent, centroids, queue, word = [-1], [root[0]], [root], 0
    for nid, node in enumerate(queue):  # a node's id is its place in the queue
        if not node[2]:
            member_words[node[1]] = word
            word += 1
        for kid in node[2]:
            queue.append(kid)
            parent.append(nid)
            centroids.append(kid[0])
    return np.array(parent), np.vstack(centroids), member_words


REFERENCE_CORPORA = {
    "separable": lambda: _bundle_corpus(HIER_VALS),
    "random": lambda: _random_corpus(300, 8, seed=4),
    "clustered": lambda: synth_clustered(6, 60, 0.1, bits=64, seed=5),
    "one-descriptor": lambda: _random_corpus(1, 8, seed=1),
    "all-identical": lambda: _bundle_corpus(FLAT_VALS[1:2], n_per=12),
    "fewer-distinct-than-k": lambda: _bundle_corpus(FLAT_VALS[:2], n_per=5),
}


@pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.value)
@pytest.mark.parametrize("corpus", sorted(REFERENCE_CORPORA))
def test_train_matches_reference_builder(corpus, strategy):
    ds = REFERENCE_CORPORA[corpus]()
    cfg = _cfg(3, 3, strategy, seed=5, max_iters=10)
    parent, centroids, member_words = _reference_train(ds, cfg)
    res = train_result(ds, cfg)
    assert np.array_equal(res.vocabulary.parent, parent)
    assert np.array_equal(res.vocabulary.centroids, centroids)
    assert np.array_equal(res.member_word_ids, member_words)


def test_train_matches_reference_builder_on_generated_corpora():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @hypothesis.given(n=st.integers(1, 500), octets=st.sampled_from([1, 3, 8, 9, 32, 40]),
                      pool=st.integers(1, 80), shared_first=st.booleans(), k=st.integers(2, 5),
                      L=st.integers(1, 4), max_iters=st.integers(1, 10),
                      seed=st.integers(0, 2 ** 16))
    def check(n, octets, pool, shared_first, k, L, max_iters, seed):
        # a small pool repeats values: single-value nodes, fewer distinct
        # values than k, and ties in every clusterer's assignment. Rows that
        # share their first 8 octets are distinct only in later words, which
        # the training's distinct-value check must read.
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 256, size=(pool, octets), dtype=np.uint8)
        if shared_first:
            values[:, :8] = values[0, :8]
        ds = DescriptorSet(values[rng.integers(pool, size=n)])
        for strategy in ALL_STRATEGIES:
            cfg = _cfg(k, L, strategy, seed=seed % 7, max_iters=max_iters)
            parent, centroids, member_words = _reference_train(ds, cfg)
            res = train_result(ds, cfg)
            assert np.array_equal(res.vocabulary.parent, parent)
            assert np.array_equal(res.vocabulary.centroids, centroids)
            assert np.array_equal(res.member_word_ids, member_words)

    check()


def test_every_split_draws_a_stream_of_its_own(monkeypatch):
    # SeedSequence pads short entropy with zeros and cuts big ints into
    # 32-bit words, so seeding a split with the tuple (train seed, *path)
    # gave the root and its first-child chain one stream, and gave the root
    # of train seed 2**32 the stream of node (1,) of train seed 0
    seeds = []

    def record(codes, cfg):
        seeds.append(cfg.seed)
        return kmajority(codes, cfg)

    monkeypatch.setattr("hbow.vocabulary.kmajority", record)
    ds = _random_corpus(400, 8, seed=6)
    for train_seed in (0, 5, 2 ** 32):
        train(ds, _cfg(3, 4, Strategy.KMAJORITY, seed=train_seed, max_iters=2))
    assert len(seeds) == 3 * (1 + 3 + 9 + 27)  # every node above depth 4 splits
    draws = {tuple(np.random.default_rng(seed).random(4)) for seed in seeds}
    assert len(draws) == len(seeds)


def test_distinct_check_reads_whole_rows_only_below_k_first_words(monkeypatch):
    # Rows whose first 64-bit words differ are distinct, so a node whose
    # first words take k values splits into k without a unique over whole
    # rows. Both paths give the same tree, so this counts the whole-row
    # uniques (rows viewed as void byte strings) that training runs.
    whole_row_uniques = []
    real_unique = np.unique

    def spy(ar, *args, **kwargs):
        if np.asarray(ar).dtype.kind == "V":
            whole_row_uniques.append(np.asarray(ar).size)
        return real_unique(ar, *args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    values = np.zeros((3, 40), dtype=np.uint8)
    values[:, 0] = [1, 2, 3]  # three first words; every later word is shared
    res = train_result(DescriptorSet(np.repeat(values, 4, axis=0)),
                       _cfg(3, 2, Strategy.KMAJORITY))
    assert res.vocabulary.word_count == 3
    # the root's three first words settle its split; each one-value child reads its rows
    assert whole_row_uniques == [4, 4, 4]


# ---------------------------------------------------------------- validation


def _with_node(vocab, parent):
    """`vocab` plus one leaf under `parent`."""
    return replace(vocab, parent=np.append(vocab.parent, parent),
                   centroids=np.vstack([vocab.centroids, vocab.centroids[-1]]),
                   weight=np.append(vocab.weight, 0.0))


def test_validate_structure_catches_corruption():
    ds = _random_corpus(300, 8, seed=5)
    vocab = train(ds, _cfg(3, 2, Strategy.KMAJORITY, seed=0))
    assert _kids(vocab, 0).size == 3 and vocab.word_count == 9

    # construction refuses arrays that are not a tree rooted at node 0
    for parent in (np.append(vocab.parent[:-1], vocab.parent.size - 1),  # own parent
                   np.append(vocab.parent[:-1], vocab.parent.size),     # later node
                   np.append(vocab.parent[:-1], -1),                    # second root
                   np.append(0, vocab.parent[1:])):                     # root with a parent
        with pytest.raises(InternalInvariantError, match="parent"):
            replace(vocab, parent=parent)
    # the centroid width sets descriptor_bits; a zero-width tree has no bits
    assert replace(vocab, centroids=vocab.centroids[:, :4]).descriptor_bits == 32
    for centroids in (vocab.centroids[:, :0], vocab.centroids[:-1], vocab.centroids[0]):
        with pytest.raises(InternalInvariantError, match="do not fit"):
            replace(vocab, centroids=centroids)
    with pytest.raises(InternalInvariantError, match="do not fit"):
        Vocabulary(2, 1, None, [-1, 0], np.zeros((2, 0), np.uint8), [0.0, 0.0])
    with pytest.raises(InternalInvariantError, match="do not fit"):
        replace(vocab, weight=vocab.weight[:-1])

    # the training contract: fan-out, depth and weights
    with pytest.raises(InternalInvariantError, match="more than 3"):
        validate_structure(_with_node(vocab, 0))
    with pytest.raises(InternalInvariantError, match="below depth 2"):
        validate_structure(_with_node(vocab, _leaf_ids(vocab)[0]))
    for bad in (-1.0, math.nan, math.inf):
        weight = vocab.weight.copy()
        weight[_leaf_ids(vocab)[3]] = bad
        with pytest.raises(InternalInvariantError, match="invalid weight"):
            validate_structure(replace(vocab, weight=weight))
    validate_structure(vocab)


def test_vocabulary_is_immutable_and_lookup_agrees_with_transform():
    ds = DescriptorSet(codes=_random_corpus(400, 8, seed=3).codes,
                       group_ends=[100, 200, 300, 400])
    vocab = train(ds, _cfg(3, 2, Strategy.GLOBAL_HBRB, seed=0))
    probes = _random_corpus(50, 8, seed=4).codes
    want = lookup_words(vocab, probes)
    reweighted = replace(vocab, weight=vocab.weight + 1.0)
    for v in (vocab, copy.deepcopy(vocab), pickle.loads(pickle.dumps(vocab)), reweighted):
        if v is not reweighted:
            assert _fingerprint(v) == _fingerprint(vocab)
        assert v is vocab or not np.shares_memory(v.descent_words, vocab.descent_words)
        for name in ("descent_words", "descent_children", "descent_slot"):
            assert np.array_equal(getattr(v, name), getattr(vocab, name))
        # a full-depth root and its children: slots 0 to 3, fan-out 3
        assert v.descent_words.shape == (1, 4, 3)
        assert v.height == vocab.height == 2
        for name in ("parent", "centroids", "weight", "word_of_node", "word_weight",
                     "descent_words", "descent_children", "descent_slot"):
            arr = getattr(v, name)
            with pytest.raises(ValueError):
                arr[-1] = 0
        for got, expected in zip(lookup_words(v, probes), want):
            assert np.array_equal(got, expected)
    with pytest.raises(FrozenInstanceError):
        vocab.weight = np.zeros(vocab.parent.size)

    # compute_idf returns a new vocabulary and leaves its input alone
    saved = vocab.weight.copy()
    one_group = compute_idf(vocab, DescriptorSet(codes=ds.codes))
    assert one_group is not vocab
    assert np.array_equal(vocab.weight, saved)
    assert not one_group.weight.any()

    # a leaf reweighted through replace: lookup_word and transform agree for
    # every word, before and after
    leaves = _leaf_ids(vocab)
    weight = one_group.weight.copy()
    weight[leaves[0]] = 7.0
    for v in (vocab, one_group, replace(one_group, weight=weight)):
        for w, leaf in enumerate(leaves):
            word, word_weight, _ = lookup_word(v, v.centroids[leaf])
            assert word == w and word_weight == v.word_weight[w] == v.weight[leaf]
            assert transform(v, v.centroids[leaf]).entries == ({w: 1.0} if word_weight else {})
    assert lookup_word(replace(one_group, weight=weight), vocab.centroids[leaves[0]])[1] == 7.0


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(k=1, L=2)
    with pytest.raises(ConfigError):
        TrainConfig(k=2, L=0)
    with pytest.raises(ConfigError):
        TrainConfig(k=2, L=1, seed=-1)
    # a split's ClusterConfig takes a SeedSequence; a training seed stays one int
    with pytest.raises(ConfigError, match="seed must be an integer"):
        TrainConfig(k=2, L=1, seed=(1, 2))


def test_config_numbers_must_be_integers(tmp_path):
    # a float or a string once reached the clusterers: a bare TypeError (the
    # exit-3 class), or max_iters=2.5 training without complaint
    for name, value in [("k", 2.5), ("k", "3"), ("L", 1.5), ("seed", 1.5), ("max_iters", 2.5),
                        ("seed", np.float64(1.0))]:
        with pytest.raises(ConfigError, match=re.escape(f"{name} must be an integer, got {value!r}")):
            TrainConfig(**{"k": 3, "L": 2, name: value})
    for name, value in [("k", 2.5), ("k", "3"), ("max_iters", 2.5), ("seed", 1.5)]:
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            ClusterConfig(**{"k": 2, name: value})
    # a value out of its range raises with the bound it breaks
    for name, value, bound in [("k", 1, "in [2, 9223372036854775808)"),
                               ("k", 2 ** 63, "in [2, 9223372036854775808)"),
                               ("L", 0, "in [1, 9223372036854775808)"),
                               ("max_iters", 0, ">= 1"), ("seed", -1, ">= 0")]:
        with pytest.raises(ConfigError, match=re.escape(f"{name} must be {bound}, got {value}")):
            TrainConfig(**{"k": 3, "L": 2, name: value})
    for name, value, bound in [("k", 0, ">= 1"), ("max_iters", 0, ">= 1"), ("seed", -1, ">= 0")]:
        with pytest.raises(ConfigError, match=re.escape(f"{name} must be {bound}, got {value}")):
            ClusterConfig(**{"k": 2, name: value})
    # numpy integers still count, and train the same bytes as Python ints
    ds = _random_corpus(200, 8, seed=1)
    numpy_cfg = TrainConfig(k=np.int64(3), L=np.int32(2), seed=np.uint8(1),
                            max_iters=np.int64(10))
    assert all(type(getattr(numpy_cfg, name)) is int for name in ("k", "L", "seed", "max_iters"))
    assert numpy_cfg == TrainConfig(k=3, L=2, seed=1, max_iters=10)
    assert _text_bytes(tmp_path, ds, numpy_cfg) == \
        _text_bytes(tmp_path, ds, TrainConfig(k=3, L=2, seed=1, max_iters=10))
    assert ClusterConfig(np.int64(2), np.int64(5), np.int64(0)) == ClusterConfig(2, 5, 0)


@pytest.mark.parametrize("make, name, flag", [
    (lambda **kw: TrainConfig(k=3, L=2, **kw), "seed", True),
    (lambda **kw: TrainConfig(k=3, L=2, **kw), "max_iters", False),
    (lambda **kw: ClusterConfig(**{"k": 2, **kw}), "k", True),
])
def test_config_numbers_reject_bools(make, name, flag):
    # operator.index takes a bool as 0 or 1, so unchecked, seed=True trains with seed 1
    for value in (flag, np.bool_(flag)):
        with pytest.raises(ConfigError, match=re.escape(f"{name} must be an integer, got {value!r}")):
            make(**{name: value})
    accepted = getattr(make(**{name: np.int64(3)}), name)
    assert accepted == 3 and type(accepted) is int


def test_empty_corpus_rejected():
    ds = DescriptorSet(codes=np.zeros((0, 8), dtype=np.uint8))
    with pytest.raises(InsufficientPointsError):
        train(ds, _cfg(2, 1, Strategy.KMAJORITY))


def test_negative_thread_argument_rejected():
    # training runs on one thread: every other count is refused, not capped
    ds = _random_corpus(50, 8, seed=0)
    cfg = _cfg(2, 1, Strategy.GLOBAL_HBRB)
    for threads in (0, 2, -1):
        with pytest.raises(ConfigError, match="one thread"):
            train(ds, cfg, threads=threads)
    assert _fingerprint(train(ds, cfg, threads=1)) == _fingerprint(train(ds, cfg))


# ---------------------------------------------------------------- quantization ordering


def _mean_qe(make_corpus, strategy, k, L, n_seeds=5):
    vals = []
    for s in range(n_seeds):
        ds = make_corpus(s)
        vocab = train(ds, _cfg(k, L, strategy, seed=s))
        vals.append(quantization_report(vocab, ds).mean_qe)
    return float(np.mean(vals))


def _check_qe_ordering(make_corpus, k, L):
    # benchmark-style assertion over seed means with 2% slack, not per seed
    mean_global = _mean_qe(make_corpus, Strategy.GLOBAL_HBRB, k, L)
    mean_kmaj = _mean_qe(make_corpus, Strategy.KMAJORITY, k, L)
    mean_local = _mean_qe(make_corpus, Strategy.LOCAL_BRB, k, L)
    assert mean_global <= mean_kmaj * 1.02
    lo = min(mean_global, mean_kmaj)
    hi = max(mean_global, mean_kmaj)
    assert lo * 0.98 <= mean_local <= hi * 1.02


def test_qe_ordering_on_random_corpus():
    _check_qe_ordering(lambda s: _random_corpus(3000, 16, seed=s), 4, 2)


def test_qe_ordering_on_clustered_corpus():
    _check_qe_ordering(lambda s: synth_clustered(6, 500, 0.04, bits=128, seed=s), 4, 2)
