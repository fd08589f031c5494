"""Quantization-quality reports and a synthetic place-recognition benchmark.

The synthetic world: `num_places` places, each a fixed set of random
prototype descriptors. A traversal visits every place once (in order) and
mixes in revisit frames so that revisits are `revisit_fraction` of all
frames. A fresh visit observes the prototypes verbatim; a revisit picks a
uniformly random already-visited place and observes its prototypes with every
bit flipped independently with probability `bit_flip_prob`. Ground truth is
each frame's place: two frames show the same place iff their places are equal.

`retrieval_report` replays such a sequence through a RetrievalDatabase in
streaming order (transform, query with a temporal exclusion window, then
add), scoring recall@1 over the queries whose place was first seen before
the window, plus a precision/recall sweep over top-1 score thresholds.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from io import StringIO

import numpy as np

from .bow import RetrievalDatabase, transform
from .descriptors import DescriptorSet, _as_codes, _integer, _integer_array, _real, hamming_rows
from .errors import ConfigError, CorpusConsistencyError, InsufficientPointsError
from .io import _atomic_write_bytes
from .vocabulary import TrainConfig, Vocabulary, _as_strategy, lookup_words, train_result

EVAL_COLUMNS = [
    "strategy", "seed", "mean_qe", "p95_qe", "words_used", "entropy",
    "recall_at_1", "max_f1", "train_seconds",
]

# Most frames a synthetic traversal may have: the frame count sizes every
# array `synth_sequence` builds, and a revisit_fraction just below 1 would
# ask for up to 2**53 frames per place.
MAX_FRAMES = 10_000


@dataclass(frozen=True)
class SynthConfig:
    """One synthetic world and traversal. The traversal has `frame_count`
    frames, round(num_places / (1 - revisit_fraction)), and a config whose
    frame count exceeds `MAX_FRAMES` raises ConfigError before anything is
    allocated."""

    num_places: int = 20
    descriptors_per_place: int = 50
    revisit_fraction: float = 0.3
    bit_flip_prob: float = 0.05
    descriptor_bits: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (("num_places", 1), ("descriptors_per_place", 1),
                          ("descriptor_bits", None), ("seed", 0)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, low))
        for name, high in (("revisit_fraction", 1), ("bit_flip_prob", 0.5)):
            object.__setattr__(self, name, _real(getattr(self, name), name, 0, high))
        # every place is visited, so more places than MAX_FRAMES need no division
        if self.num_places > MAX_FRAMES or self.frame_count > MAX_FRAMES:
            raise ConfigError(
                f"a traversal may have at most {MAX_FRAMES} frames; {self.num_places} places at "
                f"revisit_fraction {self.revisit_fraction} make more")
        if self.descriptor_bits < 8 or self.descriptor_bits % 8 != 0:
            raise ConfigError(
                f"descriptor_bits must be a positive multiple of 8, got {self.descriptor_bits}"
            )

    @property
    def frame_count(self) -> int:
        """round(num_places / (1 - revisit_fraction)), the traversal's frames."""
        return int(round(self.num_places / (1.0 - self.revisit_fraction)))


@dataclass
class SynthSequence:
    training: DescriptorSet            # prototypes, one group per place
    frames: list[np.ndarray]           # observed descriptor matrices, traversal order
    frame_places: list[int]            # true place of each frame, the ground truth


def _flip_bits(codes: np.ndarray, prob: float, rng: np.random.Generator) -> np.ndarray:
    """Flip every bit independently with probability `prob` (0 flips nothing)."""
    mask = np.packbits(rng.random((codes.shape[0], codes.shape[1] * 8)) < prob, axis=1)
    return np.bitwise_xor(codes, mask)


def synth_sequence(cfg: SynthConfig) -> SynthSequence:
    """Generate a traversal with revisits plus its training corpus and ground truth.

    The total frame count is `cfg.frame_count`, round(P / (1 -
    revisit_fraction)), at most `MAX_FRAMES`; the first frame is always a
    fresh visit. Deterministic for a fixed config.
    """
    rng = np.random.default_rng(cfg.seed)
    octets = cfg.descriptor_bits // 8
    protos = [
        rng.integers(0, 256, size=(cfg.descriptors_per_place, octets), dtype=np.uint8)
        for _ in range(cfg.num_places)
    ]
    p = cfg.num_places
    total = cfg.frame_count
    markers = np.array([0] * p + [1] * (total - p), dtype=np.int64)
    rng.shuffle(markers)
    if markers[0] == 1:
        first_fresh = int(np.flatnonzero(markers == 0)[0])
        markers[0], markers[first_fresh] = 0, 1

    frames: list[np.ndarray] = []
    frame_places: list[int] = []
    visited = 0
    for marker in markers:
        if marker == 0:
            place = visited
            visited += 1
            observed = protos[place].copy()
        else:
            place = int(rng.integers(visited))
            observed = _flip_bits(protos[place], cfg.bit_flip_prob, rng)
        frames.append(observed)
        frame_places.append(place)
    training = DescriptorSet.from_groups(protos)
    return SynthSequence(training, frames, frame_places)


@dataclass
class QuantReport:
    mean_qe: float
    p50_qe: float
    p95_qe: float
    words_used: int
    entropy: float
    count: int


def quantization_report(vocab: Vocabulary, descriptors) -> QuantReport:
    """Distance-to-assigned-leaf statistics plus word-usage spread.

    Quantization error of a descriptor is its Hamming distance to the
    centroid of the leaf that greedy lookup assigns it to; a 1-d row is one
    descriptor. Entropy is the Shannon entropy (bits) of the word usage
    distribution, summed with `math.fsum`, so it does not depend on the order
    of the words and hence not on their labels.
    """
    codes = _as_codes(descriptors.codes if isinstance(descriptors, DescriptorSet) else descriptors)
    if codes.shape[0] == 0:
        raise InsufficientPointsError("quantization_report needs at least one descriptor")
    word_ids, leaf_ids = lookup_words(vocab, codes)
    qe = hamming_rows(codes, vocab.centroids[leaf_ids])
    _, counts = np.unique(word_ids, return_counts=True)
    probs = counts / counts.sum()
    # 0.0 - sum rather than -sum: one word's term is 0.0, and -0.0 would
    # print as "-0.0" in the eval rows
    entropy = 0.0 - math.fsum((probs * np.log2(probs)).tolist())
    return QuantReport(
        mean_qe=float(qe.mean()),
        p50_qe=float(np.percentile(qe, 50)),
        p95_qe=float(np.percentile(qe, 95)),
        words_used=int(counts.size),
        entropy=entropy,
        count=int(codes.shape[0]),
    )


@dataclass
class RetrievalReport:
    recall_at_1: float
    max_f1: float
    pr_curve: list[tuple[float, float, float]]  # (threshold, precision, recall)
    eligible_queries: int
    hits: int
    vacuous: bool


def retrieval_report(vocab: Vocabulary, frames, frame_places,
                     temporal_exclusion: int = 1) -> RetrievalReport:
    """Stream a frame sequence through a fresh database and score its top-1
    entries, which are frame indices, against `frame_places`, one integer
    place per frame (anything else raises CorpusConsistencyError).

    For each frame: transform, query top-1 excluding the previous
    `temporal_exclusion` entries, then add. A query counts toward recall
    only if its place was first seen before that window, so that a frame of
    its place is admissible; recall@1 is the fraction of those whose top-1
    shows their place. The PR sweep thresholds the top-1 score; with no
    eligible queries the report is vacuous (both metrics 1.0).
    """
    temporal_exclusion = _integer(temporal_exclusion, "temporal_exclusion", 0)
    frames = list(frames)
    if isinstance(frame_places, range):  # listed only as far as the length check needs
        frame_places = frame_places[:len(frames) + 1]
    message = "frame_places must list one integer per frame"
    if isinstance(frame_places, (set, frozenset, dict)):
        raise CorpusConsistencyError(
            f"{message}: a {type(frame_places).__name__} has no frame order")
    places = _integer_array(frame_places, CorpusConsistencyError, message).tolist()
    if len(places) != len(frames):
        raise CorpusConsistencyError(f"{len(places)} frame_places for {len(frames)} frames")
    db = RetrievalDatabase(vocab)
    first_frame: dict[int, int] = {}
    eligible, scores, correct = 0, [], []
    for t, (frame, place) in enumerate(zip(frames, places)):
        vec = transform(vocab, frame)
        if len(db):
            res = db.query(vec, 1, range(t - temporal_exclusion, t))
            if res:
                entry, score = res[0]
                scores.append(score)
                correct.append(places[entry] == place)
        db.add(vec)
        eligible += first_frame.setdefault(place, t) < t - temporal_exclusion
    if not eligible:
        return RetrievalReport(1.0, 1.0, [], 0, 0, True)

    # a correct entry lies before the window, so its query is eligible
    hits = sum(correct)
    # a threshold at each distinct score keeps the ranked predictions from
    # its first occurrence on
    order = np.argsort(scores)
    thresholds, start = np.unique(np.asarray(scores)[order], return_index=True)
    tp = hits - np.concatenate(([0], np.cumsum(np.asarray(correct)[order])))[start]
    precision = tp / (len(scores) - start)
    recall = tp / eligible
    f1 = 2.0 * precision * recall / np.where(tp > 0, precision + recall, 1.0)
    curve = list(zip(thresholds.tolist(), precision.tolist(), recall.tolist()))
    return RetrievalReport(hits / eligible, float(f1.max(initial=0.0)), curve, eligible, hits,
                           False)


def compare_strategies(synth_cfg: SynthConfig, strategies, seeds, k: int = 10, L: int = 6,
                       max_iters: int = 100, temporal_exclusion: int = 1) -> list[dict]:
    """Run the full benchmark grid and return one row dict per (seed, strategy).

    Every strategy within a seed sees the identical corpus and sequence; the
    synthetic world is regenerated for each seed. Row fields follow
    EVAL_COLUMNS; everything except train_seconds is deterministic.
    """
    strategies = [_as_strategy(s, ConfigError) for s in strategies]
    if not isinstance(seeds, range):  # a range is checked from its bounds, never listed
        seeds = _integer_array(seeds, ConfigError, "seeds must be integers").tolist()
    temporal_exclusion = _integer(temporal_exclusion, "temporal_exclusion", 0)
    if not strategies:
        raise ConfigError("need at least one strategy")
    if not seeds:
        raise ConfigError("need at least one seed")
    # every seed checked before any training; a range's smallest id is one of its ends
    for seed in (seeds[0], seeds[-1]) if isinstance(seeds, range) else seeds:
        replace(synth_cfg, seed=seed)
    rows: list[dict] = []
    for seed in seeds:
        seq = synth_sequence(replace(synth_cfg, seed=seed))
        for strategy in strategies:
            cfg = TrainConfig(k=k, L=L, strategy=strategy, seed=seed, max_iters=max_iters)
            result = train_result(seq.training, cfg)
            vocab = result.vocabulary
            quant = quantization_report(vocab, seq.training)
            retr = retrieval_report(vocab, seq.frames, seq.frame_places, temporal_exclusion)
            rows.append({
                "strategy": strategy.value,
                "seed": seed,
                "mean_qe": quant.mean_qe,
                "p95_qe": quant.p95_qe,
                "words_used": quant.words_used,
                "entropy": quant.entropy,
                "recall_at_1": retr.recall_at_1,
                "max_f1": retr.max_f1,
                "train_seconds": result.seconds,
            })
    return rows


def write_rows_csv(path, rows) -> None:
    buf = StringIO(newline="")
    writer = csv.DictWriter(buf, fieldnames=EVAL_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    _atomic_write_bytes(path, [buf.getvalue().encode()])


def write_rows_json(path, rows) -> None:
    _atomic_write_bytes(path, [(json.dumps(list(rows), indent=2) + "\n").encode()])
