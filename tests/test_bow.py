import copy
import dataclasses
import math
import pickle
import re
from collections import Counter
from collections.abc import Mapping
from decimal import Decimal
from fractions import Fraction
from functools import reduce
from operator import add

import numpy as np
import pytest

from hbow import (
    BowVector,
    ConfigError,
    CorpusConsistencyError,
    DescriptorSet,
    InternalInvariantError,
    RetrievalDatabase,
    Strategy,
    TrainConfig,
    Vocabulary,
    lookup_words,
    score_l1,
    train,
    transform,
    transform_set,
)
from oracles import audit, lookup_word, normalize_l1

HIER_VALS = (
    [0x00] * 8,
    [0xFF, 0xFF] + [0x00] * 6,
    [0x00, 0x00] + [0xFF] * 6,
    [0xFF] * 8,
)


def _idf_fixture():
    """4-word vocabulary where bundle A sits in every group (idf 0) and
    B/C/D each sit in one of three groups (idf ln 3)."""
    a, b, c, d = (np.array(v, dtype=np.uint8) for v in HIER_VALS)
    groups = [
        np.vstack([np.tile(a, (4, 1)), np.tile(b, (4, 1))]),
        np.vstack([np.tile(a, (4, 1)), np.tile(c, (4, 1))]),
        np.vstack([np.tile(a, (4, 1)), np.tile(d, (4, 1))]),
    ]
    ds = DescriptorSet.from_groups(groups)
    cfg = TrainConfig(k=2, L=2, strategy=Strategy.KMAJORITY, max_iters=50, seed=0)
    return train(ds, cfg), (a, b, c, d)


def _random_vocab(seed=0, k=7, L=2, n=3000):
    # 30 groups of 100 so most words miss a few groups and carry nonzero idf
    rng = np.random.default_rng(seed)
    ds = DescriptorSet(codes=rng.integers(0, 256, size=(n, 8), dtype=np.uint8),
                       group_ends=list(range(100, n + 1, 100)))
    cfg = TrainConfig(k=k, L=L, strategy=Strategy.KMAJORITY, max_iters=30, seed=seed)
    return train(ds, cfg)


def _random_vector(rng, word_count, max_support=6):
    # positive weights in 64ths so every norm and score is an exact float
    m = int(rng.integers(1, max_support + 1))
    words = rng.choice(word_count, size=m, replace=False)
    cuts = np.sort(rng.choice(np.arange(1, 64), size=m - 1, replace=False))
    parts = np.diff(np.concatenate([[0], cuts, [64]]))
    return BowVector({int(w): float(p) / 64.0 for w, p in zip(words, parts)})


# ---------------------------------------------------------------- scoring


def test_score_identical_vectors_is_exactly_one():
    v = BowVector({3: 0.25, 7: 0.5, 9: 0.25})
    assert score_l1(v, v) == 1.0


def test_score_of_a_vector_whose_weights_sum_below_one_against_itself_is_one():
    # L1 normalization can leave the weights summing to 1 - 2**-52; the norm
    # and the shared sum add the same terms in the same order, so the score
    # is still exactly 1, from score_l1 and from a query alike
    v = normalize_l1(BowVector({0: 2.0, 1: 6.0, 2: 7.0, 3: 3.0, 4: 3.0}))
    assert v.l1_norm() == 1.0 - 2.0 ** -52
    assert score_l1(v, v) == 1.0
    db = RetrievalDatabase(_random_vocab(seed=4))
    db.add(v)
    assert db.query(v) == [(0, 1.0)]


def test_score_disjoint_supports_is_exactly_zero():
    a = BowVector({0: 0.5, 1: 0.5})
    b = BowVector({2: 0.25, 3: 0.75})
    assert score_l1(a, b) == 0.0
    # the weights of a normalized vector can sum to 1 - 2**-52; disjoint is
    # still exactly 0, not the rounding residue of 1 - (|a| + |b|) / 2
    c = normalize_l1(BowVector({0: 2.0, 1: 6.0, 2: 7.0, 3: 3.0, 4: 3.0}))
    assert c.l1_norm() < 1.0
    assert score_l1(c, BowVector({9: 1.0})) == 0.0
    assert score_l1(BowVector({0: 0.1}), BowVector({1: 0.1})) == 0.0


def test_score_hand_fixtures():
    a = BowVector({1: 1.0})
    b = BowVector({1: 0.5, 2: 0.5})
    assert score_l1(a, b) == pytest.approx(0.5, abs=1e-12)
    c = BowVector({1: 0.25, 2: 0.75})
    d = BowVector({1: 0.5, 2: 0.5})
    assert score_l1(c, d) == pytest.approx(0.75, abs=1e-12)


def test_score_empty_operands():
    v = BowVector({0: 1.0})
    e = BowVector.empty()
    assert score_l1(e, v) == 0.0
    assert score_l1(v, e) == 0.0
    assert score_l1(e, e) == 0.0


def test_score_symmetry_and_range_on_random_vectors():
    rng = np.random.default_rng(42)
    for _ in range(200):
        a = _random_vector(rng, 30)
        b = _random_vector(rng, 30)
        s_ab = score_l1(a, b)
        s_ba = score_l1(b, a)
        assert s_ab == s_ba
        assert 0.0 <= s_ab <= 1.0


def test_score_is_the_l1_similarity_over_the_word_union():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    weights = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)
    vectors = st.dictionaries(st.integers(0, 11), weights, min_size=1, max_size=10).map(
        lambda d: normalize_l1(BowVector(d)))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(a=vectors, b=vectors)
    def check(a, b):
        s = score_l1(a, b)
        assert s == score_l1(b, a)
        assert 0.0 <= s <= 1.0
        assert score_l1(a, a) == 1.0
        union = set(a.entries) | set(b.entries)
        l1 = math.fsum(abs(a.entries.get(w, 0.0) - b.entries.get(w, 0.0)) for w in union)
        assert abs(s - (1.0 - 0.5 * l1)) <= 1e-12

    check()


def test_normalize_idempotent():
    v = BowVector({0: 2.0, 5: 6.0})
    once = normalize_l1(v)
    twice = normalize_l1(once)
    assert once.entries == twice.entries
    assert once.l1_norm() == pytest.approx(1.0, abs=1e-9)


def test_normalize_empty_and_zero():
    assert normalize_l1(BowVector.empty()).is_empty
    assert normalize_l1({1: 0.0}).is_empty


# ---------------------------------------------------------------- transform


def test_transform_empty_input_gives_empty_vector():
    vocab, _ = _idf_fixture()
    assert transform(vocab, np.zeros((0, 8), dtype=np.uint8)).is_empty
    assert transform(vocab, []).is_empty


def test_transform_single_active_word_gets_unit_weight():
    vocab, (_, b, _, _) = _idf_fixture()
    v = transform(vocab, np.tile(b, (5, 1)))
    assert len(v) == 1
    word, _, _ = lookup_word(vocab, b)
    assert v.entries == {word: 1.0}


def test_transform_drops_zero_weight_words():
    vocab, (a, b, _, _) = _idf_fixture()
    # a's word has idf 0, so only b's word survives
    v = transform(vocab, np.vstack([np.tile(a, (3, 1)), np.tile(b, (3, 1))]))
    word_b, _, _ = lookup_word(vocab, b)
    assert set(v.entries) == {word_b}
    assert v.l1_norm() == pytest.approx(1.0, abs=1e-9)
    # nothing but zero-weight words leaves the empty vector
    assert transform(vocab, np.tile(a, (4, 1))).is_empty


def test_transform_matches_counting_oracle():
    vocab = _random_vocab(seed=3)
    rng = np.random.default_rng(17)
    probes = rng.integers(0, 256, size=(50, 8), dtype=np.uint8)
    got = transform(vocab, probes)

    # independent recomputation: count words one by one, weight, normalize
    hits = [lookup_word(vocab, p) for p in probes]
    counts = Counter(word for word, _, _ in hits)
    weight_of = {word: w for word, w, _ in hits}
    raw = {w: (counts[w] / len(probes)) * weight_of[w]
           for w in sorted(counts) if weight_of[w] > 0.0}
    want = normalize_l1(BowVector(raw)).entries

    # transform normalizes over its words in ascending order, as the oracle
    # does here, so every weight is the same float
    assert got.entries == want
    assert got.l1_norm() == pytest.approx(1.0, abs=1e-9)
    assert all(x > 0.0 for x in got.entries.values())


def _neumaier_sum(values):
    # compensated summation, the algorithm of the built-in `sum` over floats
    # from Python 3.12 on
    total = comp = 0.0
    for x in values:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp


def test_transform_normalizes_by_the_left_to_right_total():
    # four leaves, one descriptor each, so tf = 1/4 exactly and each weighted
    # value is its idf over 4: a plain left-to-right sum drops the three tiny
    # words, a compensated sum keeps them, so the two totals differ on every
    # Python version and transform must divide by the plain one
    codes = np.array([[0x00], [0x0F], [0xF0], [0xFF]], dtype=np.uint8)
    idf = [1.0, 2.0 ** -53, 2.0 ** -53, 2.0 ** -53]
    vocab = Vocabulary(4, 1, None, [-1, 0, 0, 0, 0], np.vstack([[0], codes]), [0.0, *idf])
    weighted = [x / 4 for x in idf]
    plain = reduce(add, weighted)
    assert plain != _neumaier_sum(weighted)
    want = {w: x / plain for w, x in enumerate(weighted)}
    assert transform(vocab, codes).entries == want
    assert normalize_l1(BowVector(dict(enumerate(weighted)))).entries == want


def test_transform_width_mismatch_raises():
    vocab, _ = _idf_fixture()
    with pytest.raises(CorpusConsistencyError):
        transform(vocab, np.zeros((3, 16), dtype=np.uint8))
    # a matrix with no rows is checked like any other: the wrong width, or
    # the right width in the wrong dtype, raises what lookup_words raises
    for empty in (np.zeros((0, 16), dtype=np.uint8), np.zeros((0, 8), dtype=np.float64)):
        with pytest.raises(CorpusConsistencyError) as raised:
            transform(vocab, empty)
        with pytest.raises(CorpusConsistencyError, match=re.escape(str(raised.value))):
            lookup_words(vocab, empty)


# ---------------------------------------------------------------- database


def test_add_assigns_sequential_ids_and_updates_postings():
    vocab = _random_vocab(seed=1)
    db = RetrievalDatabase(vocab)
    v = BowVector({0: 0.25, 1: 0.25, 2: 0.5})
    assert db.add(v) == 0
    assert db.add(BowVector({0: 1.0})) == 1
    assert len(db) == 2
    assert list(db.postings[0].ids) == [0, 1]
    assert list(db.postings[0].weights) == [0.25, 1.0]
    assert list(db.postings[1]) == [(0, 0.25)]
    assert list(db.postings[2]) == [(0, 0.5)]
    assert list(db.norms) == [1.0, 1.0]
    audit(db, [v, BowVector({0: 1.0})])


def test_posting_mass_conservation():
    vocab = _random_vocab(seed=2)
    db = RetrievalDatabase(vocab)
    rng = np.random.default_rng(5)
    added = [_random_vector(rng, vocab.word_count) for _ in range(60)]
    for v in added:
        db.add(v)
    assert sum(len(p) for p in db.postings.values()) == sum(len(v) for v in added)
    audit(db, added)


def test_add_rejects_out_of_range_word():
    vocab = _random_vocab(seed=1)
    db = RetrievalDatabase(vocab)
    with pytest.raises(CorpusConsistencyError):
        db.add(BowVector({vocab.word_count: 1.0}))
    with pytest.raises(CorpusConsistencyError):
        db.add(BowVector({-1: 1.0}))


def test_word_ids_must_be_integers():
    # a float id was once stored and matched as its integer part; Python and
    # NumPy integers, ids outside int64 and the empty vector still build
    for bad in (1.5, 1.0, np.float64(2.0), "1", b"1", True, np.True_, None, (1,)):
        with pytest.raises(CorpusConsistencyError, match="word ids must be integers"):
            BowVector({bad: 1.0})
        with pytest.raises(CorpusConsistencyError, match="word ids must be integers"):
            BowVector({0: 0.5, bad: 0.5})
    v = BowVector({np.int64(1): 0.25, np.uint8(0): 0.25, np.int32(2): 0.5})
    assert v.words.tolist() == [0, 1, 2] and v.words.dtype == np.int64
    assert BowVector({2 ** 70: 1.0, 1: 1.0}).words.tolist() == [1, 2 ** 70]
    assert BowVector({}) == BowVector.empty()


def test_word_ids_must_be_distinct():
    # a dict cannot repeat a key, but any Mapping can name one id twice
    class Twice(Mapping):
        def __getitem__(self, word):
            return 0.5

        def __iter__(self):
            return iter((3, 3))

        def __len__(self):
            return 2

    with pytest.raises(CorpusConsistencyError, match="word ids must be distinct integers"):
        BowVector(Twice())


def test_weights_must_be_real_numbers():
    # "0.5" was once stored as 0.5 and True as 1.0, though ids reject both;
    # ints, numpy reals and fractions are real numbers, and a Decimal is not
    for bad in ("0.5", b"1", True, np.True_, None, [0.5], 1j, Decimal("0.5")):
        with pytest.raises(CorpusConsistencyError,
                           match=re.escape(f"every weight must be a real number, got {bad!r}")):
            BowVector({1: bad})
        with pytest.raises(CorpusConsistencyError, match="every weight must be a real number"):
            BowVector({0: 0.5, 2: bad})
    # an int beyond the float range once raised a bare OverflowError
    with pytest.raises(CorpusConsistencyError, match="every weight must be a finite real number"):
        BowVector({1: 10 ** 400})
    v = BowVector({2: 1, 0: np.float32(0.25), 1: np.int8(3), 3: Fraction(1, 2)})
    assert v.weights.tolist() == [0.25, 3.0, 1.0, 0.5] and v.weights.dtype == np.float64


def test_query_takes_exclude_as_any_iterable_of_ids():
    # NumPy arrays of any length, ranges and sets exclude what the same ids
    # in a list exclude; ids outside the database are ignored
    vocab = _random_vocab(seed=4)
    db = RetrievalDatabase(vocab)
    rng = np.random.default_rng(3)
    vectors = [_random_vector(rng, 8) for _ in range(12)]
    for v in vectors:
        db.add(v)
    for ids in ([], [0], [0, 1], [3, 5, 7, 11], [2, 2 ** 70], [-1, 12, 4]):
        forms = [np.array(ids), set(ids), tuple(ids)]
        if ids == sorted(ids) and ids and ids[-1] - ids[0] == len(ids) - 1:
            forms.append(range(ids[0], ids[-1] + 1))
        for q in vectors[:4]:
            want = db.query(q, 5, list(ids))
            assert want == _exhaustive_query(vectors, q, 5, ids)
            for form in forms:
                assert db.query(q, 5, form) == want
    assert db.query(vectors[0], 5, np.array([], dtype=np.int64)) == db.query(vectors[0], 5)
    assert db.query(vectors[0], 5, range(12)) == []
    # a range excludes its ids within the database, worked out from its
    # bounds without listing them, so range(1, 2**40) costs no more than a
    # short one
    big = 2 ** 70
    for ids in (range(1, 2 ** 40), range(0, 12, 3), range(11, -1, -2), range(-7, 5, 3),
                range(5, 40, 4), range(4, 100, 50), range(-big, big, 3), range(-big, 3),
                range(big + 5, -big, -(2 ** 66 + 1)), range(big, 2 * big), range(-5, -1),
                range(5, 0), range(3, 3), range(0, 2 ** 64, 2 ** 63 + 1)):
        clipped = [i for i in range(len(vectors)) if i in ids]
        for q in vectors[:4]:
            want = db.query(q, 5, clipped)
            assert want == _exhaustive_query(vectors, q, 5, clipped)
            assert db.query(q, 5, ids) == want, ids


def test_query_rejects_exclude_ids_that_are_not_integers():
    # 0.5 once excluded entry 0 (its self-match of score 1.0), a string
    # raised NumPy's own error and [True, 5] excluded entry 1; every id that
    # is not an integer raises ConfigError, as do a nested list and a bare
    # id, while empty exclusions, ranges and integers outside the database
    # pass as before
    vocab = _random_vocab(seed=4)
    db = RetrievalDatabase(vocab)
    rng = np.random.default_rng(3)
    vectors = [_random_vector(rng, 8) for _ in range(6)]
    for v in vectors:
        db.add(v)
    want = db.query(vectors[0], 5)
    assert want[0] == (0, 1.0)
    for bad in ([0.5], [1, 2.0], ["0"], "0", [True], [np.True_], [None], np.array([0.5]),
                [0, np.float64(1)], np.array([0.0, 1.0]), np.array([True]), [2 ** 70, 0.5],
                [1, None], [True, 5], [np.True_, 1], np.array([[0, 1]]), [[0], [1]], 0):
        with pytest.raises(ConfigError, match="exclude id"):
            db.query(vectors[0], 5, bad)
    # NumPy reads [2**63, 7] as float64; its ids are integers all the same
    for passes in ([], (), set(), np.array([]), range(0), range(3, 3), [2 ** 70], [-1, 6, 10 ** 30],
                   [2 ** 63, 7], np.array([-5, 99]), np.arange(6, 9, dtype=np.uint64), range(6, 9),
                   np.array([2 ** 63, 7], dtype=np.uint64), range(2 ** 63, 2 ** 63 + 2)):
        assert db.query(vectors[0], 5, passes) == want
    without_0 = db.query(vectors[0], 6)[1:]
    for ids in ([np.int32(0)], range(1), np.array([0], dtype=np.int64), np.array([0, 2 ** 40]),
                [0, 2 ** 70], np.array([0], dtype=np.uint8)):
        assert db.query(vectors[0], 5, ids) == without_0
    kept = [hit for hit in db.query(vectors[0], 6) if hit[0] not in (0, 2, 4)]
    assert db.query(vectors[0], 6, np.arange(0, 6, 2, dtype=np.int64)) == kept


def test_add_and_query_reject_weights_that_are_not_finite_and_positive():
    vocab = _random_vocab(seed=1)
    db = RetrievalDatabase(vocab)
    db.add(BowVector({0: 0.5, 1: 0.5}))
    for bad in (0.0, -0.0, -0.25, math.nan, math.inf, -math.inf):
        with pytest.raises(CorpusConsistencyError, match="finite and > 0"):
            db.add(BowVector({2: 0.5, 0: bad}))
        with pytest.raises(CorpusConsistencyError, match="finite and > 0"):
            db.query(BowVector({0: 0.5, 1: bad}))
    # a rejected vector leaves no trace
    assert len(db) == 1 and len(db.norms) == 1 and set(db.postings) == {0, 1}
    audit(db, [BowVector({0: 0.5, 1: 0.5})])


def test_query_own_vector_ranks_first_with_unit_score():
    vocab = _random_vocab(seed=4)
    db = RetrievalDatabase(vocab)
    rng = np.random.default_rng(9)
    vectors = [_random_vector(rng, vocab.word_count) for _ in range(20)]
    for v in vectors:
        db.add(v)
    for e, v in enumerate(vectors):
        results = db.query(v, max_results=3)
        assert results[0][1] == 1.0
        first_ids = [r for r, s in results if s == 1.0]
        assert e in first_ids


def test_query_disjoint_database_returns_single_match():
    vocab = _random_vocab(seed=4)
    db = RetrievalDatabase(vocab)
    for w in range(4):
        db.add(BowVector({w: 1.0}))
    results = db.query(BowVector({2: 1.0}), max_results=10)
    assert results == [(2, 1.0)]


def _oracle_score(a, b):
    # the identity of the module docstring on its own: two norms and the
    # min-sum over shared words, each added term by term in ascending word
    # order; no shared word scores 0
    shared = sorted(set(a.entries) & set(b.entries))
    if not shared:
        return 0.0
    a_norm = reduce(add, (a.entries[w] for w in sorted(a.entries)), 0.0)
    b_norm = reduce(add, (b.entries[w] for w in sorted(b.entries)), 0.0)
    overlap = reduce(add, (min(a.entries[w], b.entries[w]) for w in shared), 0.0)
    return min(1.0, max(0.0, (1.0 - (a_norm + b_norm) / 2.0) + overlap))


def _exhaustive_query(stored, vector, max_results, exclude=None):
    # independent full scan over the vectors as they were added
    skip = set(exclude) if exclude else set()
    scored = [(e, _oracle_score(vector, v)) for e, v in enumerate(stored) if e not in skip]
    scored = [(e, s) for e, s in scored if s > 0.0]
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:max_results]


def test_query_matches_exhaustive_oracle():
    vocab = _random_vocab(seed=6)
    db = RetrievalDatabase(vocab)
    rng = np.random.default_rng(33)
    vectors = [_random_vector(rng, vocab.word_count) for _ in range(200)]
    # exact duplicates exercise the ascending-id tie rule
    vectors[50] = BowVector(dict(vectors[10].entries))
    vectors[90] = BowVector(dict(vectors[10].entries))
    for v in vectors:
        db.add(v)
    audit(db, vectors)
    queries = [vectors[10], vectors[3]] + [_random_vector(rng, vocab.word_count)
                                           for _ in range(30)]
    for q in queries:
        got = db.query(q, max_results=15)
        want = _exhaustive_query(vectors, q, 15)
        assert got == want


def test_query_ranks_near_ties_as_brute_force_does():
    # e1 and e2 score within an ulp of each other against q, and over the
    # word union the order of the two would flip; query must rank them as
    # brute force over score_l1 does, whichever was added first
    q = BowVector({2: 0.45454545454545453, 5: 0.4090909090909091, 1: 0.13636363636363638})
    e1 = BowVector({0: 0.5263157894736842, 5: 0.4736842105263158})
    e2 = BowVector({0: 0.18181818181818185, 1: 0.27272727272727276, 2: 0.09090909090909093,
                    3: 0.09090909090909093, 4: 0.18181818181818185, 5: 0.18181818181818185})
    assert 0.0 < abs(score_l1(q, e1) - score_l1(q, e2)) <= 2.0 ** -52
    vocab = _random_vocab(seed=4)
    for order in ((e1, e2), (e2, e1)):
        db = RetrievalDatabase(vocab)
        for v in order:
            db.add(v)
        brute = sorted(((e, score_l1(q, v)) for e, v in enumerate(order)),
                       key=lambda t: (-t[1], t[0]))
        assert db.query(q, 2) == brute
        assert db.query(q, 1) == brute[:1]


def test_query_reads_the_vectors_as_they_were_added():
    # a vector copies the caller's mapping and cannot be written, and the
    # database keeps its own copy of the weights
    vocab = _random_vocab(seed=4)
    db = RetrievalDatabase(vocab)
    raw = {1: 0.5, 0: 0.5}
    v = BowVector(raw)
    db.add(v)
    raw[2] = 0.75
    del raw[0], raw[1]
    assert list(v.entries.items()) == [(0, 0.5), (1, 0.5)]
    assert db.query(v) == [(0, 1.0)]
    with pytest.raises(TypeError):
        v.entries[2] = 0.75
    for arr in (v.words, v.weights, copy.deepcopy(v).words, pickle.loads(pickle.dumps(v)).weights):
        with pytest.raises(ValueError):
            arr[0] = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.words = np.array([5])
    assert copy.deepcopy(v) == v != BowVector({0: 0.5, 1: 0.25}) and v.l1_norm() == 1.0
    assert db.query(BowVector({0: 0.5, 1: 0.5})) == [(0, 1.0)]


def test_query_with_exclusions_matches_oracle():
    vocab = _random_vocab(seed=6)
    db = RetrievalDatabase(vocab)
    rng = np.random.default_rng(8)
    vectors = [_random_vector(rng, vocab.word_count) for _ in range(80)]
    for v in vectors:
        db.add(v)
    for e in (0, 40, 79):
        q = vectors[e]
        excl = {e, (e + 1) % 80}
        got = db.query(q, max_results=10, exclude=excl)
        assert got == _exhaustive_query(vectors, q, 10, exclude=excl)
        assert all(r not in excl for r, _ in got)


def test_query_truncates_to_max_results():
    vocab = _random_vocab(seed=4)
    db = RetrievalDatabase(vocab)
    shared = BowVector({0: 0.5, 1: 0.5})
    for _ in range(25):
        db.add(BowVector(dict(shared.entries)))
    assert len(db.query(shared, max_results=7)) == 7
    with pytest.raises(ConfigError):
        db.query(shared, max_results=0)


def test_query_empty_cases():
    vocab = _random_vocab(seed=4)
    db = RetrievalDatabase(vocab)
    assert db.query(BowVector({0: 1.0})) == []
    db.add(BowVector({0: 1.0}))
    assert db.query(BowVector.empty()) == []
    # stored empty vectors never match anything
    db.add(BowVector.empty())
    assert db.query(BowVector({0: 1.0})) == [(0, 1.0)]


def test_audit_catches_tampering():
    # each tampering writes into the arenas behind `postings`; ids and weights
    # share one count per word, so a weight cannot go missing on its own
    vocab = _random_vocab(seed=4)
    rng = np.random.default_rng(2)
    vectors = [_random_vector(rng, 8) for _ in range(10)]

    def fresh():
        db = RetrievalDatabase(vocab)
        for v in vectors:
            db.add(v)
        audit(db, vectors)
        return db, max(db.postings, key=lambda w: len(db.postings[w]))

    def bucket(db, w):
        start = int(db._start[w])
        return slice(start, start + int(db._count[w]))

    def set_weight(db, w):
        db._weights[bucket(db, w).start] = -1.0

    def point_past_the_end(db, w):
        db._ids[bucket(db, w).stop - 1] = len(db)

    def unsort(db, w):
        db._ids[bucket(db, w)] = db._ids[bucket(db, w)][::-1].copy()

    def drop_posting(db, w):
        db._count[w] -= 1

    def share_a_bucket(db, w):
        other = min(set(db.postings) - {w})
        db._start[other], db._count[other] = db._start[w], db._count[w]

    def change_norm(db, w):
        db.norms[3] += 0.5

    def drop_norm(db, w):
        db.norms.pop()

    for tamper in (set_weight, point_past_the_end, unsort, drop_posting, share_a_bucket,
                   change_norm, drop_norm):
        db, word = fresh()
        tamper(db, word)
        with pytest.raises(InternalInvariantError):
            audit(db, vectors)


def test_postings_are_read_only_views():
    vocab = _random_vocab(seed=1)
    db = RetrievalDatabase(vocab)
    db.add(BowVector({3: 0.5, 1: 0.5}))
    db.add(BowVector({3: 1.0}))
    assert list(db.postings) == [1, 3] and len(db.postings) == 2
    assert 3 in db.postings and 0 not in db.postings
    for missing in (0, -1, vocab.word_count, 2 ** 63):
        assert db.postings.get(missing, ()) == ()
    plist = db.postings[3]
    assert len(plist) == 2 and list(plist) == [(0, 0.5), (1, 1.0)]
    with pytest.raises(ValueError):
        plist.ids[0] = 5
    with pytest.raises(ValueError):
        plist.weights[0] = 5.0


def test_interleaved_adds_and_queries_match_the_exhaustive_oracle():
    # long streams over a few words move every bucket to the arena's end
    # many times; ids outside the vocabulary, up to 2**64 and beyond, make
    # `add` refuse the vector and `query` skip the word but count its weight
    # in the query's norm
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    vocab = _random_vocab(seed=4)
    outside = [-2 ** 64, -1, vocab.word_count, 2 ** 63 - 1, 2 ** 63, 2 ** 64, 2 ** 70]
    weights = st.one_of(
        st.floats(min_value=1e-9, max_value=1e6, allow_nan=False, allow_infinity=False),
        st.sampled_from([1.0 / 64, 0.1, 1.0 / 3, 0.5, 1.0]),
    )
    # one step: (query?, words of 0..5 as a bit mask, weight shift, stray id
    # index, exclusion mask, max_results), flat integers that draw fast
    steps = st.tuples(st.integers(0, 4), st.integers(0, 63), st.integers(0, 5),
                      st.integers(0, 5 * len(outside)), st.integers(0, 63), st.integers(1, 8))

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                         suppress_health_check=list(hypothesis.HealthCheck))
    @hypothesis.given(pool=st.lists(weights, min_size=6, max_size=6),
                      stream=st.integers(1, 150).flatmap(
                          lambda n: st.lists(steps, min_size=n, max_size=n)))
    def check(pool, stream):
        db, added = RetrievalDatabase(vocab), []
        for query, mask, shift, stray, excluded, k in stream:
            entries = {w: pool[(w + shift) % 6] for w in range(6) if mask >> w & 1}
            if stray < len(outside):
                entries[outside[stray]] = pool[shift]
            vector = BowVector(entries)
            if not query:
                n = len(added)
                # the last four entries and the ids just outside the database
                exclude = {e for i, e in enumerate([n - 1, n - 2, n - 3, n - 4, -1, n])
                           if excluded >> i & 1} or None
                assert db.query(vector, k, exclude) == _exhaustive_query(added, vector, k,
                                                                         exclude)
            elif stray < len(outside):
                with pytest.raises(CorpusConsistencyError, match="outside vocabulary"):
                    db.add(vector)
                audit(db, added)
            else:
                assert db.add(vector) == len(added)
                added.append(BowVector(dict(entries)))
                audit(db, added)

    check()


def test_query_matches_exhaustive_oracle_on_generated_databases():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    vocab = _random_vocab(seed=4)
    words = st.integers(0, min(vocab.word_count, 12) - 1)
    # arbitrary floats, a few dyadic and non-dyadic constants, and vectors
    # both as drawn and L1-normalized
    weights = st.one_of(
        st.floats(min_value=1e-9, max_value=1e6, allow_nan=False, allow_infinity=False),
        st.sampled_from([1.0 / 64, 0.1, 0.2, 1.0 / 3, 0.5, 0.7, 1.0]),
    )

    @st.composite
    def vectors(draw, min_size=1):
        v = BowVector(draw(st.dictionaries(words, weights, min_size=min_size, max_size=8)))
        return normalize_l1(v) if draw(st.booleans()) else v

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                         suppress_health_check=list(hypothesis.HealthCheck))
    @hypothesis.given(data=st.data())
    def check(data):
        stored = data.draw(st.lists(vectors(min_size=0), min_size=1, max_size=25))
        # exact duplicates of earlier entries exercise the ascending-id tie rule
        for i in data.draw(st.lists(st.integers(1, len(stored) - 1), max_size=6)
                           if len(stored) > 1 else st.just([])):
            stored[i] = BowVector(dict(stored[data.draw(st.integers(0, i - 1))].entries))
        db = RetrievalDatabase(vocab)
        for v in stored:
            db.add(v)
        n = len(stored)
        for _ in range(3):
            if data.draw(st.booleans()):
                q = BowVector(dict(data.draw(st.sampled_from(stored)).entries))
            else:
                q = data.draw(vectors())
            k = data.draw(st.integers(1, n + 2))
            exclude = data.draw(st.one_of(st.none(), st.sets(st.integers(-3, n + 3), max_size=6)))
            assert db.query(q, k, exclude) == _exhaustive_query(stored, q, k, exclude)
            # brute force through score_l1 agrees, disjoint pairs included
            assert [score_l1(q, v) for v in stored] == [_oracle_score(q, v) for v in stored]

    check()


def test_top_k_equals_brute_force_at_every_cut_through_ties():
    # copies of a few vectors tie exactly and one-ulp nudges tie nearly, so
    # equal scores straddle the k-th place for some k; a heavy copy shares
    # the query's words but its norm clips its score to 0. Every k from 1
    # to len(db) + 1, with and without exclusions, equals brute force over
    # score_l1: descending score, ties by ascending entry id, zeros dropped
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    vocab = _random_vocab(seed=4)
    weights = st.sampled_from([1.0 / 64, 0.1, 1.0 / 3, 0.5, 3.0])
    vectors = st.dictionaries(st.integers(0, 5), weights, min_size=1, max_size=4)
    straddled, clipped = [], []

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True,
                         suppress_health_check=list(hypothesis.HealthCheck))
    @hypothesis.given(bases=st.lists(vectors, min_size=1, max_size=4),
                      entries=st.lists(st.tuples(st.integers(0, 3), st.sampled_from(
                          ("copy", "copy", "nudged", "heavy"))), min_size=1, max_size=24),
                      which=st.integers(0, 3), excluded=st.sets(st.integers(-1, 25), max_size=6))
    def check(bases, entries, which, excluded):
        stored = []
        for base, kind in entries:
            entry = dict(bases[base % len(bases)])
            if kind == "nudged":
                entry[min(entry)] = float(np.nextafter(entry[min(entry)], np.inf))
            elif kind == "heavy":
                entry = dict.fromkeys(entry, 1e6)
            stored.append(BowVector(entry))
        db = RetrievalDatabase(vocab)
        for v in stored:
            db.add(v)
        q = normalize_l1(BowVector(bases[which % len(bases)]))
        for exclude in (None, excluded):
            brute = sorted(((e, score_l1(q, v)) for e, v in enumerate(stored)
                            if e not in (exclude or ())), key=lambda t: (-t[1], t[0]))
            brute = [(e, s) for e, s in brute if s > 0.0]
            for k in range(1, len(stored) + 2):
                assert db.query(q, k, exclude) == brute[:k]
                straddled.append(k < len(brute) and brute[k - 1][1] == brute[k][1])
                clipped.append(db.candidates > len(brute))

    check()
    assert any(straddled) and any(clipped)


# ------------------------------------------------- array path vs references


def _generated_vocab(rng):
    # an uneven tree: each node's parent is any earlier node; centroids from
    # a pool, a small one so that siblings tie; some leaves weigh 0 (idf 0)
    # or a tiny amount, so words drop out and the normalizing sum rounds
    nodes, octets = int(rng.integers(2, 61)), int(rng.choice([1, 3, 8, 9]))
    pool = rng.integers(0, 256, size=(int(rng.choice([1, 3, 64])), octets), dtype=np.uint8)
    parent = [-1] + [int(rng.integers(0, i)) for i in range(1, nodes)]
    weights = rng.choice([0.0, 2.0 ** -53, 0.1, 1.0 / 3, 1.0, math.log(3.0), 7.5], size=nodes)
    return Vocabulary(7, 40, None, parent, pool[rng.integers(0, len(pool), size=nodes)],
                      weights), pool


def test_transform_equals_the_dict_reference_on_generated_vocabularies():
    # transform against the dict reference, and transform_set of the same
    # rows cut into groups against transform of each group, bit for bit
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from oracles import reference_l1_norm, reference_transform
    group_counts, group_sizes = [], []

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                         suppress_health_check=list(hypothesis.HealthCheck))
    @hypothesis.given(seed=st.integers(0, 2 ** 32 - 1))
    def check(seed):
        rng = np.random.default_rng(seed)
        vocab, pool = _generated_vocab(rng)
        # random rows reach many words, rows of the pool tie
        codes = rng.integers(0, 256, size=(int(rng.choice([0, 1, 7, 80])), pool.shape[1]),
                             dtype=np.uint8)
        tied = rng.random(len(codes)) < 0.3
        codes[tied] = pool[rng.integers(0, len(pool), size=int(tied.sum()))]
        got, want = transform(vocab, codes), reference_transform(vocab, codes)
        assert list(got.entries.items()) == sorted(want.items())
        assert got.words.dtype == np.int64 and got.weights.dtype == np.float64
        assert got.l1_norm() == reference_l1_norm(want)
        assert not (got.words.flags.writeable or got.weights.flags.writeable)
        # cuts anywhere, so groups may be empty; no rows and no cuts is a set
        # with no groups
        ends = np.sort(rng.integers(0, len(codes) + 1, size=int(rng.integers(0, 6))))
        dset = DescriptorSet(codes, np.append(ends, len(codes)) if len(codes) else ends)
        vectors = transform_set(vocab, dset)
        group_counts.append(len(vectors))
        group_sizes.extend(np.diff(dset.group_ends, prepend=0).tolist())
        assert len(vectors) == dset.group_count
        for i, vec in enumerate(vectors):
            one = transform(vocab, dset.group_codes(i))
            for a, b in ((vec.words, one.words), (vec.weights, one.weights)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                assert not a.flags.writeable
            assert vec.l1_norm().hex() == one.l1_norm().hex()
        # a set with no rows is checked like a matrix with none
        wrong = DescriptorSet(np.zeros((0, pool.shape[1] + 1), dtype=np.uint8), ends * 0)
        with pytest.raises(CorpusConsistencyError) as raised:
            lookup_words(vocab, wrong.codes)
        with pytest.raises(CorpusConsistencyError, match=re.escape(str(raised.value))):
            transform_set(vocab, wrong)

    check()
    assert 0 in group_counts and max(group_counts) == 6 and 0 in group_sizes


def test_score_and_norm_equal_the_dict_references_on_generated_pairs():
    # ids outside int64 keep an object array of Python ints: they order,
    # count in the norm and share like any other id
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from oracles import reference_l1_norm, reference_score_l1
    ids = st.one_of(st.integers(0, 24), st.sampled_from(
        [-2 ** 70, -2 ** 64, -2 ** 63, -1, 2 ** 63 - 1, 2 ** 63, 2 ** 64, 2 ** 70]))
    weights = st.one_of(
        st.floats(min_value=5e-324, max_value=1e300, allow_nan=False, allow_infinity=False),
        st.sampled_from([1.0 / 64, 0.1, 1.0 / 3, 0.5, 1.0]))
    dicts = st.one_of(st.dictionaries(ids, weights, max_size=20), st.lists(
        weights, min_size=8, max_size=30).map(lambda xs: dict(enumerate(xs))))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(da=dicts, db=dicts, same=st.booleans())
    def check(da, db, same):
        if same:  # shared words with other weights
            db = {w: x / 3.0 or x for w, x in da.items()}
        a, b = BowVector(da), BowVector(db)
        assert list(a.entries.items()) == sorted(da.items())
        assert a.l1_norm() == reference_l1_norm(da) and len(a) == len(da)
        assert score_l1(a, b) == score_l1(b, a) == reference_score_l1(da, db)
        assert BowVector(da) == a

    check()


def test_index_memory_is_bounded_per_posting():
    # words that get a posting at every add come nearest both bounds, which
    # the generated streams stay far below: up to 3.99 slots in use and 7.98
    # arena slots per posting here
    vocab = _random_vocab(seed=4)
    for words in ([0], list(range(20))):
        db, postings = RetrievalDatabase(vocab), 0
        for _ in range(600):
            db.add(BowVector(dict.fromkeys(words, 1.0)))
            postings += len(words)
            assert db._end < 4 * postings and db._ids.size < 8 * postings


def test_generated_streams_place_grow_and_regrow_buckets():
    # adds over a vocabulary of many words: a word new to the index takes
    # a fresh bucket, a full bucket grows, a full arena regrows; the index passes
    # `audit` after every add, and each query scores the entries that share
    # a word with it, as read from the postings
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from oracles import query_candidates
    vocab = _random_vocab(seed=4, k=7, L=3, n=6000)
    seen = set()
    weights = st.sampled_from([1.0 / 64, 0.1, 1.0 / 3, 0.5, 1.0, 3.0])
    vectors = st.dictionaries(st.one_of(st.integers(0, 5), st.integers(0, vocab.word_count - 1)),
                              weights, max_size=12).map(BowVector)

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                         suppress_health_check=list(hypothesis.HealthCheck))
    @hypothesis.given(stream=st.lists(st.tuples(st.booleans(), vectors, st.integers(0, 4)),
                                      min_size=1, max_size=80))
    def check(stream):
        db, added = RetrievalDatabase(vocab), []
        for query, v, window in stream:
            if query:
                exclude = range(max(0, len(added) - window), len(added) + 1)
                assert db.query(v, 3, exclude) == _exhaustive_query(added, v, 3, exclude)
                assert db.candidates == len(query_candidates(db, v, exclude))
                continue
            count, size = db._count[v.words], db._ids.size
            db.add(v)
            added.append(v)
            audit(db, added)
            # a bucket holds the next power of two >= its count, so it is
            # full at a count that is a power of two
            seen.update({"fresh"} if (count == 0).any() else set())
            seen.update({"grown"} if ((count > 0) & (count & (count - 1) == 0)).any() else set())
            seen.update({"regrown"} if size and db._ids.size > size else set())
            # buckets left behind are never reclaimed, yet the slots in use
            # stay under 4 per posting and the arenas under 8
            postings = int(db._count.sum())
            assert db._end < 4 * postings or db._end == postings == 0
            assert db._ids.size < 8 * postings or db._ids.size == postings == 0

    check()
    assert seen == {"fresh", "grown", "regrown"}


def test_query_candidates_count_the_entries_sharing_a_word():
    vocab = _random_vocab(seed=4)
    db = RetrievalDatabase(vocab)
    assert db.candidates == 0
    for v in ({0: 0.5, 1: 0.5}, {1: 1.0}, {2: 1.0}, {0: 0.25, 2: 0.75}):
        db.add(BowVector(v))
    assert db.query(BowVector({0: 0.5, 1: 0.5})) and db.candidates == 3
    db.query(BowVector({0: 0.5, 1: 0.5}), exclude=[0, 7, -1, 2 ** 70])
    assert db.candidates == 2
    assert db.query(BowVector({3: 1.0})) == [] and db.candidates == 0
    with pytest.raises(AttributeError):
        db.candidates = 5
