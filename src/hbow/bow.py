"""Bag-of-words vectors, L1 similarity, and inverted-index retrieval.

A BowVector maps word ids to strictly positive weights and, after
`transform`, has unit L1 norm. Similarity between two normalized vectors is

    s(a, b) = 1 - 0.5 * sum_w |a_w - b_w|

which lies in [0, 1], is 1 exactly for identical vectors and 0 for vectors
with disjoint support. Either operand being empty scores 0 by definition.

The RetrievalDatabase answers top-N queries through an inverted index over
word ids; only entries sharing at least one word with the query are scored,
which returns exactly the same ranking as brute force because non-overlapping
pairs score 0 and zero scores are dropped. Ties order by ascending entry id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .descriptors import _as_codes
from .errors import CorpusConsistencyError, InternalInvariantError
from .vocabulary import Vocabulary, lookup_words


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


def normalize_l1(v: BowVector) -> BowVector:
    """Scale to unit L1 norm; an all-zero or empty vector stays empty."""
    total = v.l1_norm()
    if total <= 0.0:
        return BowVector.empty()
    return BowVector({w: val / total for w, val in v.entries.items()})


def transform(vocab: Vocabulary, descriptors) -> BowVector:
    """Quantize one image's descriptors into an L1-normalized tf-idf vector.

    Words with zero idf weight drop out; if everything drops (or the input
    is empty) the result is the empty vector.
    """
    arr = np.asarray(descriptors)
    if arr.size == 0:
        return BowVector.empty()
    codes = _as_codes(arr)
    if codes.shape[1] * 8 != vocab.descriptor_bits:
        raise CorpusConsistencyError(
            f"descriptor width {codes.shape[1] * 8} does not match vocabulary width "
            f"{vocab.descriptor_bits}"
        )
    word_ids, _ = lookup_words(vocab, codes)
    words, counts = np.unique(word_ids, return_counts=True)
    tf = counts / counts.sum()
    weighted = tf * vocab.word_weight[words]
    keep = weighted > 0.0
    return normalize_l1(BowVector({int(w): float(x) for w, x in zip(words[keep], weighted[keep])}))


def score_l1(a: BowVector, b: BowVector) -> float:
    """L1 similarity of two normalized vectors; 0.0 if either is empty."""
    if a.is_empty or b.is_empty:
        return 0.0
    bx = b.entries
    total = 0.0
    for w, av in a.entries.items():
        total += abs(av - bx.get(w, 0.0))
    ax = a.entries
    for w, bv in bx.items():
        if w not in ax:
            total += bv
    return min(1.0, max(0.0, 1.0 - 0.5 * total))


class RetrievalDatabase:
    """Append-only store of BoW entries with an inverted index for queries."""

    def __init__(self, vocab: Vocabulary):
        self.vocab = vocab
        self.entries: list[BowVector] = []
        self.postings: dict[int, list[tuple[int, float]]] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, vector: BowVector) -> int:
        """Store a vector and index its words; returns the new entry id.

        Entry ids are assigned sequentially, so each posting list stays
        sorted by construction.
        """
        for w in vector.entries:
            if not 0 <= w < self.vocab.word_count:
                raise CorpusConsistencyError(
                    f"word id {w} outside vocabulary of {self.vocab.word_count} words"
                )
        entry_id = len(self.entries)
        self.entries.append(vector)
        for w, weight in vector.entries.items():
            self.postings.setdefault(w, []).append((entry_id, weight))
        return entry_id

    def query(self, vector: BowVector, max_results: int = 10,
              exclude=None) -> list[tuple[int, float]]:
        """Top `max_results` entries by L1 similarity, descending.

        Candidates are gathered from the posting lists of the query's words;
        anything in `exclude` is skipped; zero scores are dropped; ties order
        by ascending entry id. Equivalent to brute force over all entries.
        """
        if max_results < 1:
            raise ValueError(f"max_results must be >= 1, got {max_results}")
        if vector.is_empty or not self.entries:
            return []
        candidates: set[int] = set()
        for w in vector.entries:
            candidates.update(e for e, _ in self.postings.get(w, ()))
        if exclude:
            candidates.difference_update(exclude)
        scored = []
        for e in sorted(candidates):
            s = score_l1(vector, self.entries[e])
            if s > 0.0:
                scored.append((e, s))
        scored.sort(key=lambda item: (-item[1], item[0]))
        return scored[:max_results]

    def audit(self) -> None:
        """Full cross-check of entries against postings; raises
        InternalInvariantError on any mismatch. Meant for tests."""
        seen: dict[int, dict[int, float]] = {}
        for w, plist in self.postings.items():
            ids = [e for e, _ in plist]
            if ids != sorted(set(ids)):
                raise InternalInvariantError(f"posting list for word {w} is not sorted unique")
            for e, weight in plist:
                if not 0 <= e < len(self.entries):
                    raise InternalInvariantError(f"posting for word {w} points at missing entry {e}")
                seen.setdefault(e, {})[w] = weight
        for e, vector in enumerate(self.entries):
            if seen.get(e, {}) != vector.entries:
                raise InternalInvariantError(f"entry {e} disagrees with the inverted index")
