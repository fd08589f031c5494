"""Bag-of-words vectors, L1 similarity, and inverted-index retrieval.

A BowVector holds word ids, strictly ascending, and their strictly positive
weights as two read-only arrays, as DBoW2's `BowVector` is a map ordered by
word id; construction checks them and adds up the L1 norm once. After
`transform` or `transform_set` (every group of a `DescriptorSet` from one
descent) the norm is 1. For positive weights

    1 - 0.5 * sum_w |a_w - b_w| = 1 - (|a|_1 + |b|_1) / 2 + sum_{w in a and b} min(a_w, b_w)

and the right-hand side reads only the words the two vectors share, as
DBoW2's L1 scoring does. `score_l1` computes exactly that float: 0.0 when
the vectors share no word (so also when either is empty), otherwise
`(1 - (|a|_1 + |b|_1) / 2) + shared` clamped to [0, 1], where the norms and
the shared sum each add their terms one by one in ascending word order. So
the score is bit-exact symmetric, and exactly 1 for identical normalized
vectors.

The RetrievalDatabase keeps its inverted index in flat arrays: two arenas,
entry ids (int64) and weights (float64), and per word the start and count of
its bucket there, whose postings are contiguous and ascending by entry id,
plus each entry's L1 norm, all copied at `add`. A bucket holds the next power
of two >= its count, so it is full at count 0 or a power of two; then it moves
to twice the slots (1 for a first posting) at the arena's end. A full arena
grows to twice the slots in use. Buckets left behind are never reclaimed, so
the slots in use stay under 4 per posting and the arenas under 8. A query
gathers the postings of its own words in ascending word order, sums the
shared minima of every entry in that order, and scores each entry sharing a
word by the same expression, so every returned score is the float `score_l1`
gives and the ranking equals brute force. Zero scores are dropped; ties order
by ascending entry id. Each `add` and `query` is a fixed number of numpy calls.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .descriptors import DescriptorSet, _integer, _integer_array, _quote, _real
from .errors import ConfigError, CorpusConsistencyError
from .vocabulary import Vocabulary, lookup_words

_INF = float("inf")


def _sum_in_order(x: np.ndarray) -> float:
    """x[0] + x[1] + ... added one by one, left to right (0.0 if empty);
    `np.sum` would add pairwise."""
    return np.add.accumulate(x).item(-1) if x.size else 0.0


@dataclass(frozen=True, eq=False, init=False)
class BowVector:
    """Word ids, strictly ascending (int64, or Python ints in an object array
    when one does not fit int64), and their finite positive weights, as
    read-only arrays; built from a mapping of word id -> weight whose ids are
    Python or NumPy integers and whose weights are real numbers, not bools or
    strings."""

    words: np.ndarray
    weights: np.ndarray

    def __new__(cls, entries: Mapping = MappingProxyType({})):
        words = _integer_array(list(entries), CorpusConsistencyError, "word ids must be integers")
        order = np.argsort(words, kind="stable")
        weights = np.fromiter((_real(w, "every weight", error=CorpusConsistencyError)
                               for w in entries.values()), np.float64, words.size)
        words, weights = words[order], weights[order]
        if (bad := np.flatnonzero(~((weights > 0.0) & (weights < _INF)))).size:
            raise CorpusConsistencyError(f"word {_quote(words.item(bad[0]))} has weight "
                                         f"{weights[bad[0]]}; weights must be finite and > 0")
        if not (words[1:] > words[:-1]).all():
            raise CorpusConsistencyError("word ids must be distinct integers")
        return cls._of(words, weights)

    @classmethod
    def _of(cls, words: np.ndarray, weights: np.ndarray) -> "BowVector":
        """A vector of arrays that already hold to the contract, as they are."""
        words.flags.writeable = weights.flags.writeable = False
        vector = object.__new__(cls)
        object.__setattr__(vector, "words", words)
        object.__setattr__(vector, "weights", weights)
        object.__setattr__(vector, "_l1", _sum_in_order(weights))
        return vector

    def __reduce__(self):  # copies and pickles come back read-only
        return BowVector._of, (self.words, self.weights)

    def __eq__(self, other) -> bool:
        return isinstance(other, BowVector) and self.entries == other.entries

    @classmethod
    def empty(cls) -> "BowVector":
        return cls._of(np.empty(0, dtype=np.int64), np.empty(0))

    @property
    def entries(self) -> Mapping:
        """Read-only mapping of word id -> weight, in ascending word order."""
        return MappingProxyType(dict(zip(self.words.tolist(), self.weights.tolist())))

    @property
    def is_empty(self) -> bool:
        return not self.words.size

    def l1_norm(self) -> float:
        """Sum of the weights, added one by one in ascending word order."""
        return self._l1

    def __len__(self) -> int:
        return self.words.size


def transform(vocab: Vocabulary, descriptors) -> BowVector:
    """Quantize one image's descriptors into an L1-normalized tf-idf vector.

    An empty sequence gives the empty vector; a matrix, one with no rows
    included, goes through `lookup_words` and its checks. Words with zero idf
    weight drop out; if everything drops the result is the empty vector.
    """
    arr = np.asarray(descriptors)
    if arr.size == 0 and arr.ndim < 2:
        return BowVector.empty()
    return _bow(vocab, lookup_words(vocab, arr)[0])


def transform_set(vocab: Vocabulary, dset: DescriptorSet) -> list[BowVector]:
    """`transform` of each group of `dset`, in group order, from one descent
    of all its rows; equal bit for bit to `transform(vocab, dset.group_codes(i))`
    for every group i, and [] for a set with no groups."""
    ids, ends = lookup_words(vocab, dset.codes)[0], dset.group_ends.tolist()
    return [_bow(vocab, ids[start:end]) for start, end in zip([0] + ends, ends)]


def _bow(vocab: Vocabulary, ids: np.ndarray) -> BowVector:
    """The tf-idf vector of one image's word ids, which it sorts in place."""
    ids.sort()
    # where each run of equal ids starts, and the end of the last
    edge = np.empty(ids.size + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(ids[1:], ids[:-1], out=edge[1:-1])
    runs = edge.nonzero()[0]
    words = ids.take(runs[:-1])
    # term frequency: each word's run length over the descriptor count
    weighted = (runs[1:] - runs[:-1]) / ids.size
    weighted *= vocab.word_weight.take(words)
    if not (keep := weighted > 0.0).all():
        words, weighted = words[keep], weighted[keep]
    # L1 normalization: each kept weight over their sum, added left to right
    # in ascending word order as `l1_norm` adds
    weighted /= _sum_in_order(weighted)
    return BowVector._of(words, weighted)


def score_l1(a: BowVector, b: BowVector) -> float:
    """L1 similarity as in the module docstring; 0.0 if either vector is
    empty or they share no word."""
    if not (a.words.size and b.words.size):
        return 0.0
    at = np.searchsorted(b.words, a.words)
    shared = b.words.take(at, mode="clip") == a.words
    if not shared.any():
        return 0.0
    overlap = _sum_in_order(np.minimum(a.weights[shared], b.weights[at[shared]]))
    return min(1.0, max(0.0, (1.0 - (a._l1 + b._l1) / 2.0) + overlap))


def _in_database(ids: range, n: int) -> slice:
    """The ids of a range that lie in [0, n), as a slice, ascending. Worked
    out from the range's bounds, which may lie beyond int64, without
    listing its ids."""
    if ids.step < 0:
        ids = ids[::-1]
    start = ids.start % ids.step if ids.start < 0 else ids.start  # its first id >= 0
    return slice(start, max(0, min(ids.stop, n)), ids.step)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The index ranges [start, start + count) end to end, in the given order.
    Overwrites `starts` with each range's start less the output position of
    its first index."""
    starts -= counts.cumsum()
    starts += counts
    index = starts.repeat(counts)
    index += np.arange(index.size)
    return index


class _WordPostings:
    """One word's postings as read-only views of the arenas: entry ids
    ascending and their weights. Iterating yields (entry id, weight) pairs."""

    __slots__ = ("ids", "weights")

    def __init__(self, ids: np.ndarray, weights: np.ndarray):
        ids.flags.writeable = weights.flags.writeable = False
        self.ids, self.weights = ids, weights

    def __len__(self) -> int:
        return self.ids.size

    def __iter__(self):
        return zip(self.ids.tolist(), self.weights.tolist())


class _PostingIndex(Mapping):
    """Read-only mapping from each word with postings to its `_WordPostings`,
    views that an `add` may leave stale."""

    __slots__ = ("_db",)

    def __init__(self, db: "RetrievalDatabase"):
        self._db = db

    def __getitem__(self, word) -> _WordPostings:
        db = self._db
        if not 0 <= word < db._count.size or not (count := db._count.item(word)):
            raise KeyError(word)
        start = db._start.item(word)
        return _WordPostings(db._ids[start:start + count], db._weights[start:start + count])

    def __iter__(self):
        return iter(np.flatnonzero(self._db._count).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self._db._count))


class RetrievalDatabase:
    """Append-only store of BoW entries with an inverted index for queries."""

    def __init__(self, vocab: Vocabulary):
        self.vocab = vocab
        self.norms = array("d")                    # L1 norm of each entry
        # word w's postings are _ids/_weights[_start[w]:_start[w] + _count[w]],
        # in a bucket of the next power of two >= _count[w] slots
        self._start = np.zeros(vocab.word_count, dtype=np.int64)
        self._count = np.zeros(vocab.word_count, dtype=np.int64)
        self._ids = np.empty(0, dtype=np.int64)
        self._weights = np.empty(0, dtype=np.float64)
        self._end = 0                              # arena slots in use
        self._candidates = 0

    def __len__(self) -> int:
        return len(self.norms)

    @property
    def postings(self) -> Mapping:
        """word id -> its postings (`ids`, `weights`; iterates as pairs)."""
        return _PostingIndex(self)

    @property
    def candidates(self) -> int:
        """How many entries the last `query` scored: those sharing a word
        with it, after exclusion (0 before the first query)."""
        return self._candidates

    def add(self, vector: BowVector) -> int:
        """Store a vector and index its words; returns the new entry id.

        Word ids must lie in the vocabulary. Entry ids are assigned
        sequentially, so each posting list stays sorted by construction. The
        database keeps copies of the weights.
        """
        words, weights = vector.words, vector.weights
        word_count = self.vocab.word_count
        if words.size and not (0 <= words[0] and words[-1] < word_count):
            bad = words[0] if words[0] < 0 else words[words >= word_count][0]
            raise CorpusConsistencyError(
                f"word id {_quote(int(bad))} outside vocabulary of {word_count} words")
        count = self._count.take(words)
        full = ((count & (count - 1)) == 0).nonzero()[0]   # count 0 or a power of two
        if full.size:
            self._place(words.take(full), count.take(full))
        slots = self._start.take(words)
        slots += count
        entry_id = len(self.norms)
        self._ids[slots] = entry_id
        self._weights[slots] = weights
        count += 1
        self._count[words] = count
        self.norms.append(vector._l1)
        return entry_id

    def _place(self, words: np.ndarray, count: np.ndarray) -> None:
        """Give these words, whose buckets are full, new buckets of twice the
        slots (1 for a word without postings) at the arena's end and move
        their `count` postings there. When the arena has no space left, both
        arenas first grow to twice the slots in use, new buckets included."""
        room = count + count
        np.maximum(room, 1, out=room)
        ends = room.cumsum()
        end = self._end + ends.item(-1)
        if end > self._ids.size:
            ids, weights = np.empty(2 * end, dtype=np.int64), np.empty(2 * end)
            ids[:self._end], weights[:self._end] = self._ids[:self._end], self._weights[:self._end]
            self._ids, self._weights = ids, weights
        # each bucket's new start: the arena's end plus the room before it
        start = ends - room
        start += self._end
        old = self._start.take(words)
        dst = (start - old).repeat(count)
        src = _ranges(old, count)
        dst += src
        self._ids[dst] = self._ids.take(src)
        self._weights[dst] = self._weights.take(src)
        self._start[words] = start
        self._end = end

    def query(self, vector: BowVector, max_results: int = 10,
              exclude=None) -> list[tuple[int, float]]:
        """Top `max_results` entries by `score_l1`, descending.

        Entries in `exclude`, any iterable of integer ids, are skipped (ids
        outside the database are ignored; a float, string, bool or None
        raises ConfigError); zero scores are dropped; ties order by ascending
        entry id. Equal to brute force over all entries. Words outside the
        vocabulary match no entry but count in the query's norm.
        """
        max_results = _integer(max_results, "max_results", 1)
        n = len(self.norms)
        words, weights = vector.words, vector.weights
        if words.size and not (0 <= words[0] and words[-1] < self.vocab.word_count):
            lo, hi = words.searchsorted((0, self.vocab.word_count))
            words, weights = words[lo:hi].astype(np.int64, copy=False), weights[lo:hi]
        counts = self._count.take(words)
        # shared[e] = sum over the words of both of min(a_w, b_w), added in
        # ascending word order: the query words' postings gathered end to
        # end, which bincount sums one element at a time
        slots = _ranges(self._start.take(words), counts)
        overlap = self._weights.take(slots)
        np.minimum(overlap, weights.repeat(counts), out=overlap)
        shared = np.bincount(self._ids.take(slots), minlength=n, weights=overlap)
        if isinstance(exclude, range):
            shared[_in_database(exclude, n)] = 0.0
        elif exclude is not None:
            ids = _integer_array(exclude, ConfigError, "exclude ids must be integers")
            shared[ids[(ids >= 0) & (ids < n)].astype(np.intp)] = 0.0
        # positive exactly where an entry shares a word and is not excluded
        candidates = shared.nonzero()[0]
        self._candidates = candidates.size
        # (1 - (|a|_1 + |b|_1) / 2) + shared, clamped to [0, 1], step by step
        # in place: x / -2.0 + 1.0 is exactly 1.0 - x / 2.0
        scores = np.frombuffer(self.norms).take(candidates)
        scores += vector._l1
        scores /= -2.0
        scores += 1.0
        scores += shared.take(candidates)
        scores.clip(0.0, 1.0, out=scores)
        # a stable sort keeps equal scores in ascending entry id. With more
        # candidates than places it sorts only those scoring at least the
        # k-th largest score, still in ascending entry id: their stable
        # order begins with the whole sort's first k, ties at the cut included
        if (cut := candidates.size - max_results) > 0:
            top = (scores >= np.partition(scores, cut)[cut]).nonzero()[0]
            order = top.take((-scores.take(top)).argsort(kind="stable")[:max_results])
        else:
            order = (-scores).argsort(kind="stable")
        return [(e, s) for e, s in zip(candidates.take(order).tolist(),
                                       scores.take(order).tolist()) if s > 0.0]
