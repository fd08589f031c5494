"""Bag-of-words vectors, L1 similarity, and inverted-index retrieval.

A BowVector maps word ids to strictly positive weights and, after
`transform`, has unit L1 norm. For positive weights

    1 - 0.5 * sum_w |a_w - b_w| = 1 - (|a|_1 + |b|_1) / 2 + sum_{w in a and b} min(a_w, b_w)

and the right-hand side reads only the words the two vectors share, as
DBoW2's L1 scoring does. `score_l1` computes exactly that float: 0.0 when
the vectors share no word (so also when either is empty), otherwise
`(1 - (|a|_1 + |b|_1) / 2) + shared` clamped to [0, 1], where the norms and
the shared sum each add their terms one by one in ascending word order. So
the score is bit-exact symmetric, and exactly 1 for identical normalized
vectors.

The RetrievalDatabase keeps its inverted index in flat arrays: two arenas,
entry ids (int64) and weights (float64), and per word the start, count and
room of its bucket there, whose postings are contiguous and ascending by
entry id, plus each entry's L1 norm, all copied at `add`. A full bucket
moves to the arena's end with twice the room; when the arena has no space
left, all buckets move into new arenas twice their total room, which drops
the space moves left behind. A query gathers the postings of its own words
in ascending word order, sums the shared minima of every entry in that
order, and scores each entry sharing a word by the same expression, so every
returned score is the float `score_l1` gives and the ranking equals brute
force. Zero scores are dropped; ties order by ascending entry id. Each `add`
and `query` is a fixed number of numpy calls, whatever the vector's length.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .clustering import _config_int
from .errors import ConfigError, CorpusConsistencyError
from .vocabulary import Vocabulary, lookup_words

_INF = float("inf")


@dataclass
class BowVector:
    entries: dict[int, float] = field(default_factory=dict)

    @classmethod
    def empty(cls) -> "BowVector":
        return cls({})

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def l1_norm(self) -> float:
        """Sum of the weights, added one by one in ascending word order."""
        total = 0.0
        for _, x in sorted(self.entries.items()):
            total += x
        return total

    def __len__(self) -> int:
        return len(self.entries)


def _sum_in_order(x: np.ndarray) -> float:
    """x[0] + x[1] + ... added one by one, left to right (0.0 if empty), as
    `BowVector.l1_norm` adds; `np.sum` would add pairwise."""
    return float(np.add.accumulate(x)[-1]) if x.size else 0.0


def transform(vocab: Vocabulary, descriptors) -> BowVector:
    """Quantize one image's descriptors into an L1-normalized tf-idf vector.

    Words with zero idf weight drop out; if everything drops (or the input
    is empty) the result is the empty vector.
    """
    arr = np.asarray(descriptors)
    if arr.size == 0:
        return BowVector.empty()
    word_ids, _ = lookup_words(vocab, arr)
    words, counts = np.unique(word_ids, return_counts=True)
    tf = counts / counts.sum()
    weighted = tf * vocab.word_weight[words]
    keep = weighted > 0.0
    weighted = weighted[keep]
    if not weighted.size:
        return BowVector.empty()
    # L1 normalization: each kept weight over their sum, added left to right
    # in ascending word order as `l1_norm` adds
    return BowVector(dict(zip(words[keep].tolist(),
                              (weighted / _sum_in_order(weighted)).tolist())))


def score_l1(a: BowVector, b: BowVector) -> float:
    """L1 similarity as in the module docstring; 0.0 if either vector is
    empty or they share no word."""
    ax, bx = a.entries, b.entries
    words = ax.keys() & bx.keys()
    if not words:
        return 0.0
    shared = 0.0
    for w in sorted(words):
        shared += min(ax[w], bx[w])
    return min(1.0, max(0.0, (1.0 - (a.l1_norm() + b.l1_norm()) / 2.0) + shared))


def _sorted_weights(vector: BowVector) -> tuple[list, np.ndarray]:
    """The vector's word ids ascending, and their weights in that order."""
    entries = vector.entries
    words = sorted(entries)
    return words, np.fromiter(map(entries.__getitem__, words), np.float64, len(words))


def _check_weights(vector: BowVector, weights: np.ndarray) -> None:
    if not ((weights > 0.0) & (weights < _INF)).all():
        for w, x in vector.entries.items():  # name the first offender
            if not 0.0 < x < _INF:
                raise CorpusConsistencyError(
                    f"word {w} has weight {x}; weights must be finite and > 0")


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The index ranges [start, start + count) end to end, in the given order."""
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(counts.sum())


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
        # in a bucket of _room[w] slots
        self._start = np.zeros(vocab.word_count, dtype=np.int64)
        self._count = np.zeros(vocab.word_count, dtype=np.int64)
        self._room = np.zeros(vocab.word_count, dtype=np.int64)
        self._ids = np.empty(0, dtype=np.int64)
        self._weights = np.empty(0, dtype=np.float64)
        self._end = 0                              # arena slots in use

    def __len__(self) -> int:
        return len(self.norms)

    @property
    def postings(self) -> Mapping:
        """word id -> its postings (`ids`, `weights`; iterates as pairs)."""
        return _PostingIndex(self)

    def add(self, vector: BowVector) -> int:
        """Store a vector and index its words; returns the new entry id.

        Word ids must lie in the vocabulary and weights must be finite and
        positive. Entry ids are assigned sequentially, so each posting list
        stays sorted by construction. The database keeps copies of the
        weights, so changing `vector` afterwards does not change it.
        """
        words, weights = _sorted_weights(vector)
        word_count = self.vocab.word_count
        if words and not (0 <= words[0] and words[-1] < word_count):
            for w in vector.entries:  # name the first offender
                if not 0 <= w < word_count:
                    raise CorpusConsistencyError(
                        f"word id {w} outside vocabulary of {word_count} words")
        _check_weights(vector, weights)
        words = np.fromiter(words, np.int64, len(words))
        count = self._count[words]
        full = count == self._room[words]
        if full.any():
            self._move(words[full], np.maximum(2 * count[full], 1))
        slots = self._start[words] + count
        entry_id = len(self.norms)
        self._ids[slots] = entry_id
        self._weights[slots] = weights
        self._count[words] = count + 1
        self.norms.append(_sum_in_order(weights))
        return entry_id

    def _move(self, words: np.ndarray, room: np.ndarray) -> None:
        """Give each of these words a bucket of `room` slots at the arena's
        end, holding its postings. When the arena has no space left, every
        bucket moves instead, into new arenas of twice their total room,
        which drops the space that earlier moves left behind."""
        arenas = self._ids, self._weights
        if self._end + int(room.sum()) > self._ids.size:
            self._room[words] = room
            words = np.flatnonzero(self._room)
            room = self._room[words]
            size = 2 * int(room.sum())
            self._ids, self._weights = np.empty(size, dtype=np.int64), np.empty(size)
            self._end = 0
        count = self._count[words]
        start = self._end + np.cumsum(room) - room
        old = self._start[words]
        src = _ranges(old, count)
        dst = src + np.repeat(start - old, count)
        self._ids[dst] = arenas[0][src]
        self._weights[dst] = arenas[1][src]
        self._start[words], self._room[words] = start, room
        self._end = int(start[-1] + room[-1])

    def query(self, vector: BowVector, max_results: int = 10,
              exclude=None) -> list[tuple[int, float]]:
        """Top `max_results` entries by `score_l1`, descending.

        Entries in `exclude` are skipped (ids outside the database are
        ignored); zero scores are dropped; ties order by ascending entry id.
        Equal to brute force over all entries. Query weights must be finite
        and positive, as in `add`; words outside the vocabulary match no
        entry but count in the query's norm.
        """
        max_results = _config_int(max_results, "max_results")
        if max_results < 1:
            raise ConfigError(f"max_results must be >= 1, got {max_results}")
        n = len(self.norms)
        words, weights = _sorted_weights(vector)
        _check_weights(vector, weights)
        lo, hi = bisect_left(words, 0), bisect_left(words, self.vocab.word_count)
        words = np.fromiter(words[lo:hi], np.int64, hi - lo)
        counts = self._count[words]
        # shared[e] = sum over the words of both of min(a_w, b_w), added in
        # ascending word order: the query words' postings gathered end to
        # end, which bincount sums one element at a time
        slots = _ranges(self._start[words], counts)
        if not slots.size:
            return []
        shared = np.bincount(self._ids[slots], minlength=n, weights=np.minimum(
            self._weights[slots], np.repeat(weights[lo:hi], counts)))
        if exclude:
            shared[np.array([e for e in exclude if 0 <= e < n], dtype=np.intp)] = 0.0
        candidates = np.flatnonzero(shared > 0.0)
        norms = np.frombuffer(self.norms)[candidates]
        scores = np.clip((1.0 - (_sum_in_order(weights) + norms) / 2.0) + shared[candidates],
                         0.0, 1.0)
        # a stable sort keeps equal scores in ascending entry id
        order = np.argsort(-scores, kind="stable")[:max_results]
        order = order[scores[order] > 0.0]
        return list(zip(candidates[order].tolist(), scores[order].tolist()))
