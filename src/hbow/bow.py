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

The RetrievalDatabase keeps one posting list per word as two typed columns
(entry ids, weights) plus each entry's L1 norm, all copied at `add`. A query
walks the posting lists of its own words in ascending word order, sums the
shared minima of every entry in that order, and scores each entry sharing a
word by the same expression, so every returned score is the float
`score_l1` gives and the ranking equals brute force. Zero scores are dropped;
ties order by ascending entry id.
"""

from __future__ import annotations

from array import array
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
    # L1 normalization: each kept weight over their sum in ascending word
    # order, built as one dict of Python numbers
    vals = weighted[keep].tolist()
    if not vals:
        return BowVector.empty()
    total = sum(vals)
    return BowVector({w: x / total for w, x in zip(words[keep].tolist(), vals)})


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


def _check_weights(vector: BowVector) -> None:
    for w, x in vector.entries.items():
        if not 0.0 < x < _INF:
            raise CorpusConsistencyError(f"word {w} has weight {x}; weights must be finite and > 0")


class _PostingList:
    """One word's postings: entry ids (int64) and weights (float64) in two
    parallel growable columns, ids ascending. Iterating yields (id, weight)."""

    __slots__ = ("ids", "weights")

    def __init__(self):
        self.ids = array("q")
        self.weights = array("d")

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return zip(self.ids, self.weights)


class RetrievalDatabase:
    """Append-only store of BoW entries with an inverted index for queries."""

    def __init__(self, vocab: Vocabulary):
        self.vocab = vocab
        self.norms = array("d")                    # L1 norm of each entry
        self.postings: dict[int, _PostingList] = {}

    def __len__(self) -> int:
        return len(self.norms)

    def add(self, vector: BowVector) -> int:
        """Store a vector and index its words; returns the new entry id.

        Word ids must lie in the vocabulary and weights must be finite and
        positive. Entry ids are assigned sequentially, so each posting list
        stays sorted by construction. The database keeps copies of the
        weights, so changing `vector` afterwards does not change it.
        """
        for w in vector.entries:
            if not 0 <= w < self.vocab.word_count:
                raise CorpusConsistencyError(
                    f"word id {w} outside vocabulary of {self.vocab.word_count} words"
                )
        _check_weights(vector)
        entry_id = len(self.norms)
        self.norms.append(vector.l1_norm())
        postings = self.postings
        for w, weight in vector.entries.items():
            plist = postings.get(w)
            if plist is None:
                plist = postings[w] = _PostingList()
            plist.ids.append(entry_id)
            plist.weights.append(weight)
        return entry_id

    def query(self, vector: BowVector, max_results: int = 10,
              exclude=None) -> list[tuple[int, float]]:
        """Top `max_results` entries by `score_l1`, descending.

        Entries in `exclude` are skipped (ids outside the database are
        ignored); zero scores are dropped; ties order by ascending entry id.
        Equal to brute force over all entries. Query weights must be finite
        and positive, as in `add`.
        """
        max_results = _config_int(max_results, "max_results")
        if max_results < 1:
            raise ConfigError(f"max_results must be >= 1, got {max_results}")
        n = len(self.norms)
        _check_weights(vector)
        # shared[e] = sum over the words of both of min(a_w, b_w), added in
        # ascending word order: the query words' posting lists joined end to
        # end, which bincount sums one element at a time
        get = self.postings.get
        hits = [(plist, q) for w, q in sorted(vector.entries.items())
                if (plist := get(w)) is not None]
        if not hits:
            return []
        ids = np.frombuffer(b"".join([plist.ids for plist, _ in hits]), dtype=np.int64)
        weights = np.frombuffer(b"".join([plist.weights for plist, _ in hits]))
        query_weights = np.repeat([q for _, q in hits], [len(plist) for plist, _ in hits])
        shared = np.bincount(ids, weights=np.minimum(weights, query_weights), minlength=n)
        if exclude:
            shared[np.array([e for e in exclude if 0 <= e < n], dtype=np.intp)] = 0.0
        candidates = np.flatnonzero(shared > 0.0)
        norms = np.frombuffer(self.norms)[candidates]
        scores = np.clip((1.0 - (vector.l1_norm() + norms) / 2.0) + shared[candidates], 0.0, 1.0)
        # a stable sort keeps equal scores in ascending entry id
        order = np.argsort(-scores, kind="stable")[:max_results]
        order = order[scores[order] > 0.0]
        return list(zip(candidates[order].tolist(), scores[order].tolist()))
