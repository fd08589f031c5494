"""Bag-of-words vectors, L1 similarity, and inverted-index retrieval.

A BowVector maps word ids to strictly positive weights and, after
`transform`, has unit L1 norm. Similarity between two normalized vectors is

    s(a, b) = 1 - 0.5 * sum_w |a_w - b_w|

which lies in [0, 1], is 1 exactly for identical vectors and exactly 0 for
vectors with disjoint support. Either operand being empty scores 0 by
definition.

The RetrievalDatabase keeps one posting list per word as two typed columns
(entry ids, weights) plus each entry's L1 norm. For positive weights

    sum_w |a_w - b_w| = |a|_1 + |b|_1 - 2 * sum_{w in a and b} min(a_w, b_w)

so a query scores every entry from the posting lists of its own words alone
(DBoW2's L1 scoring). The entries within a proven float-error margin of the
k-th of those scores are then rescored with `score_l1`, so every returned
score is the float `score_l1` gives and the ranking equals brute force:
entries sharing no word score 0 and zero scores are dropped. Ties order by
ascending entry id.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, CorpusConsistencyError
from .vocabulary import Vocabulary, lookup_words

_EPS = float(np.finfo(np.float64).eps)
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
        return float(sum(self.entries.values()))

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
    """L1 similarity of two normalized vectors; 0.0 if either is empty or
    they share no word."""
    ax, bx = a.entries, b.entries
    if ax.keys().isdisjoint(bx):
        return 0.0
    total = 0.0
    for w, av in ax.items():
        total += abs(av - bx.get(w, 0.0))
    for w, bv in bx.items():
        if w not in ax:
            total += bv
    return min(1.0, max(0.0, 1.0 - 0.5 * total))


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
        self.entries: list[BowVector] = []
        self.norms = array("d")                    # L1 norm of each entry
        self.postings: dict[int, _PostingList] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, vector: BowVector) -> int:
        """Store a vector and index its words; returns the new entry id.

        Word ids must lie in the vocabulary and weights must be finite and
        positive. Entry ids are assigned sequentially, so each posting list
        stays sorted by construction.
        """
        for w in vector.entries:
            if not 0 <= w < self.vocab.word_count:
                raise CorpusConsistencyError(
                    f"word id {w} outside vocabulary of {self.vocab.word_count} words"
                )
        _check_weights(vector)
        entry_id = len(self.entries)
        self.entries.append(vector)
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
        """Top `max_results` entries by L1 similarity, descending.

        Entries in `exclude` are skipped (ids outside the database are
        ignored); zero scores are dropped; ties order by ascending entry id.
        Equivalent to brute force over all entries. Query weights must be
        finite and positive, as in `add`.
        """
        if max_results < 1:
            raise ConfigError(f"max_results must be >= 1, got {max_results}")
        n = len(self.entries)
        if vector.is_empty or not n:
            return []
        _check_weights(vector)
        # shared[e] = sum over the words of both of min(a_w, b_w), read from
        # the query words' posting lists joined end to end
        get = self.postings.get
        hits = [(plist, q) for w, q in vector.entries.items() if (plist := get(w)) is not None]
        if not hits:
            return []
        ids = np.frombuffer(b"".join([plist.ids for plist, _ in hits]), dtype=np.int64)
        weights = np.frombuffer(b"".join([plist.weights for plist, _ in hits]))
        query_weights = np.repeat([q for _, q in hits], [len(plist) for plist, _ in hits])
        shared = np.bincount(ids, weights=np.minimum(weights, query_weights), minlength=n)
        if exclude:
            shared[np.array([e for e in exclude if 0 <= e < n], dtype=np.intp)] = 0.0
        candidates = np.flatnonzero(shared > 0.0)
        if candidates.size > max_results:
            candidates = self._shortlist(vector, candidates, shared[candidates], max_results)
        entries = self.entries
        scored = []
        for e in candidates.tolist():
            s = score_l1(vector, entries[e])
            if s > 0.0:
                scored.append((e, s))
        scored.sort(key=lambda item: (-item[1], item[0]))
        return scored[:max_results]

    def _shortlist(self, vector: BowVector, candidates: np.ndarray, shared: np.ndarray,
                   k: int) -> np.ndarray:
        """The candidates that can still reach the top k under `score_l1`.

        approx_e = 1 - (|a| + |b_e|)/2 + shared_e is the unclamped score
        `1 - total/2` of `score_l1` by the identity in the module docstring.
        Both are float computations of it: score_l1 rounds |a| subtractions,
        at most |a| + |b| additions and one `1 - x`; approx rounds the
        |a| - 1 and |b| - 1 additions of the two norms, the |a| additions of
        shared, and three more. Each rounding errs by at most eps/2 times a
        value bounded by S = 1 + |a|_1 + |b|_1 and the error reaches the
        result with a factor of at most 1, so |approx - raw| is at most
        (4|a| + 2|b| + 2)(eps/2)S. `tol` doubles that to absorb second-order
        terms, bounding |b| by the vocabulary size and |b|_1 by the largest
        candidate norm.

        Let T be the k-th largest approx. An entry with approx below
        min(T, 1) - 2 tol has raw < 1 and raw below that of k entries, so
        when its score is positive k entries score strictly higher: it
        cannot rank. Everything else goes to the exact rescore.
        """
        a_norm = vector.l1_norm()
        b_norm = np.frombuffer(self.norms)[candidates]
        tol = ((4 * len(vector) + 2 * self.vocab.word_count + 4) * _EPS
               * (1.0 + a_norm + float(b_norm.max())))
        if not np.isfinite(tol):
            return candidates
        approx = (1.0 - 0.5 * (a_norm + b_norm)) + shared
        cut = candidates.size - k
        kth = float(np.partition(approx, cut)[cut])
        return candidates[approx >= min(kth, 1.0) - 2.0 * tol]
