import csv
import json
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

import hbow.evaluation
from hbow import (
    BowVector,
    ConfigError,
    CorpusConsistencyError,
    DescriptorSet,
    EVAL_COLUMNS,
    InsufficientPointsError,
    RetrievalDatabase,
    Strategy,
    SynthConfig,
    TrainConfig,
    compare_strategies,
    hamming_rows,
    lookup_words,
    quantization_report,
    retrieval_report,
    synth_sequence,
    train,
    write_rows_csv,
    write_rows_json,
)
from hbow.cli import main
from hbow.evaluation import MAX_FRAMES
from oracles import hamming, lookup_word, same_place_pairs, synth_clustered
from oracles import retrieval_report as pair_retrieval_report

HIER_VALS = (
    [0x00] * 8,
    [0xFF, 0xFF] + [0x00] * 6,
    [0x00, 0x00] + [0xFF] * 6,
    [0xFF] * 8,
)


def _bundle_vocab():
    # one group per bundle so every word carries idf ln(4) > 0
    groups = [np.tile(np.array(v, dtype=np.uint8), (8, 1)) for v in HIER_VALS]
    cfg = TrainConfig(k=2, L=2, strategy=Strategy.KMAJORITY, max_iters=50, seed=0)
    return train(DescriptorSet.from_groups(groups), cfg)


def _revisit_frames(seq):
    seen = set()
    revisits = []
    for t, place in enumerate(seq.frame_places):
        if place in seen:
            revisits.append(t)
        seen.add(place)
    return revisits


# ---------------------------------------------------------------- generator


def test_synth_noiseless_revisits_equal_prototypes():
    cfg = SynthConfig(num_places=10, descriptors_per_place=20,
                      revisit_fraction=0.4, bit_flip_prob=0.0,
                      descriptor_bits=64, seed=5)
    seq = synth_sequence(cfg)
    revisits = _revisit_frames(seq)
    assert revisits
    for t in revisits:
        place = seq.frame_places[t]
        assert np.array_equal(seq.frames[t], seq.training.group_codes(place))


def test_synth_zero_revisit_fraction():
    cfg = SynthConfig(num_places=7, descriptors_per_place=10,
                      revisit_fraction=0.0, bit_flip_prob=0.1,
                      descriptor_bits=64, seed=0)
    seq = synth_sequence(cfg)
    assert len(seq.frames) == 7
    assert seq.frame_places == list(range(7))


def test_synth_first_frame_is_fresh_and_counts_add_up():
    cfg = SynthConfig(num_places=12, descriptors_per_place=5,
                      revisit_fraction=0.3, bit_flip_prob=0.05,
                      descriptor_bits=64, seed=9)
    seq = synth_sequence(cfg)
    assert len(seq.frames) == round(12 / 0.7)
    assert seq.frame_places[0] == 0
    assert np.array_equal(seq.frames[0], seq.training.group_codes(0))
    # every place appears, fresh visits in order of first appearance
    first_seen = []
    for place in seq.frame_places:
        if place not in first_seen:
            first_seen.append(place)
    assert first_seen == list(range(12))


def test_synth_ground_truth_pairs_are_complete_and_correct(tmp_path, capsys):
    # `hbow synth --gt` writes the places of `synth_sequence` and every
    # same-place pair, found here by a walk over every earlier frame, in
    # ascending (frame, earlier frame) order, as the bytes of one
    # json.dumps(..., indent=1) of the whole object, though it writes a
    # frame's pairs at a time; the console-script config, one place seen in
    # 400 frames (79,800 pairs) and the last config, one place seen in 100
    # frames (4,950 pairs), are among them
    for places, per_place, revisit, seed in [(9, 4, 0.5, 3), (1, 2, 0.9, 0), (4, 1, 0.8, 1),
                                             (30, 3, 0.6, 2), (7, 1, 0.0, 4), (4, 5, 0.6, 2),
                                             (1, 1, 1 - 1 / 400, 6), (1, 1, 0.99, 5)]:
        gt = tmp_path / "gt.json"
        assert main(["synth", "--places", str(places), "--per-place", str(per_place),
                     "--revisit", repr(revisit), "--flip", "0.02", "--bits", "64",
                     "--seed", str(seed), "--out", str(tmp_path / "f.hbdc"),
                     "--gt", str(gt)]) == 0
        seq = synth_sequence(SynthConfig(num_places=places, descriptors_per_place=per_place,
                                         revisit_fraction=revisit, bit_flip_prob=0.02,
                                         descriptor_bits=64, seed=seed))
        pairs = [list(p) for p in sorted(same_place_pairs(seq.frame_places))]
        assert gt.read_bytes() == (json.dumps({"pairs": pairs, "frame_places": seq.frame_places},
                                              indent=1) + "\n").encode()
    capsys.readouterr()
    assert len(seq.frames) == 100 and len(pairs) == 100 * 99 // 2


def test_synth_ground_truth_is_written_in_bounded_memory(tmp_path, capsys):
    # one place seen in 1,500 frames: 1,124,250 pairs, 27.6 MB of JSON, which
    # one list and one string of them would hold whole
    tracemalloc.start()
    try:
        assert main(["synth", "--places", "1", "--per-place", "1", "--revisit",
                     repr(1 - 1 / 1500), "--flip", "0.02", "--bits", "64", "--seed", "5",
                     "--out", str(tmp_path / "f.hbdc"), "--gt", str(tmp_path / "gt.json")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert (tmp_path / "gt.json").stat().st_size == 27_574_150
    assert peak < 6 * 2 ** 20, peak


def test_synth_sequence_memory_does_not_grow_with_same_place_pairs():
    # one place seen in 1,500 frames makes 1,124,250 same-place pairs; the
    # sequence keeps each frame's place instead, a few hundred KiB in all
    cfg = SynthConfig(num_places=1, descriptors_per_place=1, revisit_fraction=1 - 1 / 1500,
                      bit_flip_prob=0.02, descriptor_bits=64, seed=5)
    tracemalloc.start()
    try:
        seq = synth_sequence(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(seq.frames) == 1500 and set(seq.frame_places) == {0}
    assert peak < 5 * 2 ** 20, peak


def test_synth_corruption_matches_binomial_rate():
    # 20 revisit frames x 500 descriptors = 1e4 corrupted samples; the mean
    # Hamming distance to the prototype must sit within 3 sigma of D * p
    cfg = SynthConfig(num_places=20, descriptors_per_place=500,
                      revisit_fraction=0.5, bit_flip_prob=0.05,
                      descriptor_bits=256, seed=123)
    seq = synth_sequence(cfg)
    dists = []
    for t in _revisit_frames(seq):
        place = seq.frame_places[t]
        dists.append(hamming_rows(seq.frames[t], seq.training.group_codes(place)))
    dists = np.concatenate(dists)
    assert len(dists) >= 10_000
    expect = 256 * 0.05
    sigma_mean = math.sqrt(256 * 0.05 * 0.95 / len(dists))
    assert abs(float(dists.mean()) - expect) <= 3.0 * sigma_mean


def test_synth_deterministic_per_seed():
    cfg = SynthConfig(num_places=6, descriptors_per_place=8,
                      revisit_fraction=0.25, bit_flip_prob=0.05,
                      descriptor_bits=64, seed=11)
    a = synth_sequence(cfg)
    b = synth_sequence(cfg)
    assert a.frame_places == b.frame_places
    assert all(np.array_equal(x, y) for x, y in zip(a.frames, b.frames))


def test_synth_config_validation():
    with pytest.raises(ConfigError):
        SynthConfig(num_places=0)
    with pytest.raises(ConfigError):
        SynthConfig(descriptors_per_place=0)
    with pytest.raises(ConfigError):
        SynthConfig(revisit_fraction=1.0)
    # the frame cap, round(P / (1 - revisit_fraction)) <= MAX_FRAMES, holds
    # before anything is allocated, also where the quotient has no float
    assert SynthConfig(num_places=100, revisit_fraction=0.99).frame_count == MAX_FRAMES
    for places, revisit in ((101, 0.99), (1, float(np.nextafter(1.0, 0))),
                            (MAX_FRAMES + 1, 0.0), (10 ** 400, 0.5)):
        with pytest.raises(ConfigError, match=f"at most {MAX_FRAMES} frames"):
            SynthConfig(num_places=places, revisit_fraction=revisit)
    with pytest.raises(ConfigError):
        SynthConfig(bit_flip_prob=0.5)
    with pytest.raises(ConfigError):
        SynthConfig(descriptor_bits=12)
    with pytest.raises(ConfigError):
        SynthConfig(seed=-1)


# each integer argument: a call taking it, a value that call accepts, and a
# value below its bound with the message that value raises
_INTEGER_ARGUMENTS = {
    "num_places": (lambda v: SynthConfig(num_places=v), 3, 0, "num_places must be >= 1, got 0"),
    "descriptors_per_place": (lambda v: SynthConfig(descriptors_per_place=v), 3, 0,
                              "descriptors_per_place must be >= 1, got 0"),
    "descriptor_bits": (lambda v: SynthConfig(descriptor_bits=v), 64, 0,
                        "descriptor_bits must be a positive multiple of 8, got 0"),
    "seed": (lambda v: SynthConfig(seed=v), 3, -1, "seed must be >= 0, got -1"),
    "temporal_exclusion": (lambda v: retrieval_report(_bundle_vocab(), [], [], v), 3, -1,
                           "temporal_exclusion must be >= 0, got -1"),
    "max_results": (lambda v: RetrievalDatabase(_bundle_vocab()).query(BowVector({0: 1.0}), v),
                    3, 0, "max_results must be >= 1, got 0"),
}


@pytest.mark.parametrize("name", list(_INTEGER_ARGUMENTS))
def test_integer_arguments_must_be_integers(name):
    # unchecked, a float fails later with a bare TypeError (the exit code of
    # an hbow bug), and a bool passes as 0 or 1
    make, good, below, below_message = _INTEGER_ARGUMENTS[name]
    for value in (2.5, np.float64(3.0), "3", True, np.bool_(True)):
        message = re.escape(f"{name} must be an integer, got {value!r}")
        with pytest.raises(ConfigError, match=message):
            make(value)
    with pytest.raises(ConfigError, match=re.escape(below_message)):
        make(below)
    made = make(np.int64(good))
    if isinstance(made, SynthConfig):
        assert getattr(made, name) == good and type(getattr(made, name)) is int


def test_synth_config_real_fields_must_be_real_numbers():
    # a string or None once reached `<=` and raised a bare TypeError (the
    # exit code of an hbow bug); ints and numpy reals count as real numbers
    for name, high in (("revisit_fraction", 1), ("bit_flip_prob", 0.5)):
        for value in ("0.3", None, True, np.bool_(False), b"0", [0.1], 1j):
            with pytest.raises(ConfigError,
                               match=re.escape(f"{name} must be a real number, got {value!r}")):
                SynthConfig(**{name: value})
        for value in (-0.1, high, float("nan"), float("inf")):
            with pytest.raises(ConfigError,
                               match=re.escape(f"{name} must be in [0, {high}), got {value}")):
                SynthConfig(**{name: value})
        for value, want in ((0, 0.0), (np.float32(0.25), 0.25), (np.float64(0.125), 0.125)):
            made = getattr(SynthConfig(**{name: value}), name)
            assert made == want and type(made) is float


def test_a_real_that_rounds_onto_its_bound_raises_quoting_the_given_value():
    # each lies just below its bound and rounds onto it as a float: a
    # revisit_fraction of 1.0 once built, after which frame_count raised a
    # plain ZeroDivisionError (an hbow bug's exit code). A value that stays
    # below the bound as a float still passes
    from fractions import Fraction
    for name, high in (("revisit_fraction", 1), ("bit_flip_prob", 0.5)):
        for value in (Fraction(high) - Fraction(1, 2 ** 62),
                      np.longdouble(high) - np.longdouble(2.0) ** -62):
            with pytest.raises(ConfigError,
                               match=re.escape(f"{name} must be in [0, {high}), got {value!r}")):
                SynthConfig(num_places=3, **{name: value})
    made = SynthConfig(bit_flip_prob=Fraction(1, 2) - Fraction(1, 2 ** 54))
    assert made.bit_flip_prob == 0.5 - 2.0 ** -54


_HUGE = 10 ** 5000  # Python prints no int of more than 4,300 digits
_HUGE_ARGUMENTS = {
    "TrainConfig k": (lambda: TrainConfig(k=_HUGE), ConfigError, "k must be in"),
    "ClusterConfig k": (lambda: hbow.ClusterConfig(k=-_HUGE), ConfigError, "k must be >= 1"),
    "num_places": (lambda: SynthConfig(num_places=-_HUGE), ConfigError, "num_places must be"),
    "revisit_fraction": (lambda: SynthConfig(revisit_fraction=_HUGE), ConfigError,
                         "revisit_fraction must be in"),
    "k in a list": (lambda: TrainConfig(k=[_HUGE]), ConfigError, "k must be an integer"),
    "strategy": (lambda: TrainConfig(strategy=_HUGE), ConfigError, "unknown strategy"),
    "cluster": (lambda: TrainConfig(cluster=_HUGE), ConfigError, "disagrees"),
    "weight": (lambda: BowVector({1: _HUGE}), CorpusConsistencyError, "finite real number"),
    "word id": (lambda: BowVector({_HUGE: 0.0}), CorpusConsistencyError, "has weight 0.0"),
    "added word id": (lambda: RetrievalDatabase(_bundle_vocab()).add(BowVector({_HUGE: 1.0})),
                      CorpusConsistencyError, "outside vocabulary"),
    "group end": (lambda: DescriptorSet(np.zeros((2, 4), np.uint8), [_HUGE]),
                  CorpusConsistencyError, "within int64"),
    "group ends": (lambda: DescriptorSet(np.zeros((2, 4), np.uint8), [_HUGE, 1.5]),
                   CorpusConsistencyError, "within int64"),
}


@pytest.mark.parametrize("name", list(_HUGE_ARGUMENTS))
def test_a_huge_int_raises_its_documented_class(name):
    # each message once raised a plain ValueError (the exit code of an hbow
    # bug) while quoting the int; now it gives the int's sign and size
    make, error, message = _HUGE_ARGUMENTS[name]
    with pytest.raises(error, match=message) as raised:
        make()
    assert re.search(r"<(negative )?int of 16610 bits>", str(raised.value))


def test_a_value_whose_repr_raises_is_quoted_without_a_memory_address():
    # an object array and a dataclass holding a huge int: their own repr
    # raises, and reprlib's fallback once showed `<... instance at 0x...>`
    cases = (
        (lambda: DescriptorSet(np.zeros((2, 4), np.uint8), np.array([_HUGE], dtype=object)),
         CorpusConsistencyError, "got array([<int of 16610 bits>])"),
        (lambda: TrainConfig(cluster=hbow.ClusterConfig(2, _HUGE, 0)), ConfigError,
         "cluster ClusterConfig(k=2, max_iters=<int of 16610 bits>, seed=0) disagrees"),
    )
    for make, error, message in cases:
        with pytest.raises(error, match=re.escape(message)) as raised:
            make()
        assert "0x" not in str(raised.value)

    class NoRepr:
        def __repr__(self):
            raise RuntimeError("no repr")

    with pytest.raises(ConfigError, match=r"got <NoRepr with no repr>$") as raised:
        TrainConfig(k=NoRepr())
    assert "0x" not in str(raised.value)


# ---------------------------------------------------------------- quantization


def test_quantization_zero_on_leaf_centroids():
    vocab = _bundle_vocab()
    corpus = vocab.centroids[vocab.word_of_node >= 0]
    report = quantization_report(vocab, corpus)
    assert report.mean_qe == 0.0
    assert report.p50_qe == 0.0 and report.p95_qe == 0.0
    assert report.words_used == 4
    assert report.entropy == pytest.approx(2.0, abs=1e-12)
    assert report.count == 4


def test_quantization_half_bit_fixture():
    # one-word vocabulary, corpus = centroid plus a 1-bit-flipped copy
    code = np.array([0x0F] * 8, dtype=np.uint8)
    ds = DescriptorSet(codes=np.tile(code, (5, 1)))
    vocab = train(ds, TrainConfig(k=2, L=1, strategy=Strategy.KMAJORITY, seed=0))
    assert vocab.word_count == 1
    flipped = code.copy()
    flipped[0] ^= 0x01
    report = quantization_report(vocab, np.vstack([code, flipped]))
    assert report.mean_qe == 0.5
    assert report.p50_qe == 0.5
    assert report.words_used == 1
    assert report.entropy == 0.0


def test_quantization_matches_independent_recomputation():
    rng = np.random.default_rng(31)
    ds = DescriptorSet(codes=rng.integers(0, 256, size=(400, 8), dtype=np.uint8))
    vocab = train(ds, TrainConfig(k=3, L=2, strategy=Strategy.GLOBAL_HBRB, seed=1))
    report = quantization_report(vocab, ds)
    dists = []
    words = []
    for code in ds.codes:
        _, _, leaf = lookup_word(vocab, code)
        dists.append(hamming(code, vocab.centroids[leaf]))
        words.append(vocab.word_of_node[leaf])
    dists = np.array(dists, dtype=np.float64)
    assert report.mean_qe == pytest.approx(float(dists.mean()), abs=1e-12)
    assert report.p50_qe == pytest.approx(float(np.percentile(dists, 50)), abs=1e-12)
    assert report.p95_qe == pytest.approx(float(np.percentile(dists, 95)), abs=1e-12)
    assert report.words_used == len(set(words))
    counts = np.bincount(words)
    probs = counts[counts > 0] / len(words)
    assert report.entropy == pytest.approx(float(-(probs * np.log2(probs)).sum()), abs=1e-12)


def test_quantization_report_ranges():
    ds = synth_clustered(5, 80, 0.08, bits=64, seed=7)
    vocab = train(ds, TrainConfig(k=3, L=2, strategy=Strategy.KMAJORITY, seed=0))
    report = quantization_report(vocab, ds)
    assert 0.0 <= report.mean_qe <= 64.0
    assert report.words_used <= vocab.word_count
    assert report.entropy <= math.log2(report.words_used) + 1e-9


def test_quantization_rejects_empty_input():
    vocab = _bundle_vocab()
    with pytest.raises(InsufficientPointsError):
        quantization_report(vocab, np.zeros((0, 8), dtype=np.uint8))


def test_quantization_counts_a_1d_row_as_one_descriptor():
    # a 1-d row is one descriptor, not one per octet
    vocab = _bundle_vocab()
    row = np.array([0xFF, 0xFF, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01], dtype=np.uint8)
    report = quantization_report(vocab, row)
    assert report.count == 1 and report.words_used == 1
    assert report.mean_qe == 1.0
    assert report == quantization_report(vocab, row[None, :])


def test_quantization_entropy_of_one_word_is_positive_zero(tmp_path):
    # every descriptor on one word: the entropy is 0.0, not -0.0, and the
    # eval rows print it so
    vocab = _bundle_vocab()
    report = quantization_report(vocab, vocab.centroids[vocab.word_of_node >= 0][:1])
    assert report.words_used == 1
    assert math.copysign(1.0, report.entropy) == 1.0
    write_rows_csv(tmp_path / "rows.csv", [{"entropy": report.entropy}])
    write_rows_json(tmp_path / "rows.json", [{"entropy": report.entropy}])
    assert "-0.0" not in (tmp_path / "rows.csv").read_text()
    assert json.loads((tmp_path / "rows.json").read_text()) == [{"entropy": 0.0}]
    assert "-0.0" not in (tmp_path / "rows.json").read_text()


def test_quantization_entropy_is_a_correctly_rounded_sum():
    # the entropy terms summed exactly once, so it cannot depend on the
    # order of the words, and hence not on how they are numbered
    ds = synth_clustered(6, 60, 0.2, bits=64, seed=3)
    vocab = train(ds, TrainConfig(k=4, L=3, strategy=Strategy.KMAJORITY, seed=0))
    report = quantization_report(vocab, ds)
    counts = np.unique(lookup_words(vocab, ds.codes)[0], return_counts=True)[1]
    terms = (counts / counts.sum()) * np.log2(counts / counts.sum())
    for order in (terms, terms[::-1]):
        assert report.entropy == -math.fsum(order.tolist())


# ---------------------------------------------------------------- retrieval


def test_retrieval_noiseless_recall_is_exact():
    # a word space much larger than the place count keeps distinct places
    # from colliding onto identical word histograms
    cfg = SynthConfig(num_places=12, descriptors_per_place=30,
                      revisit_fraction=0.3, bit_flip_prob=0.0,
                      descriptor_bits=64, seed=2)
    seq = synth_sequence(cfg)
    vocab = train(seq.training, TrainConfig(k=4, L=3, strategy=Strategy.GLOBAL_HBRB, seed=0))
    report = retrieval_report(vocab, seq.frames, seq.frame_places, temporal_exclusion=1)
    assert not report.vacuous
    assert report.eligible_queries > 0
    assert report.recall_at_1 == 1.0
    assert report.max_f1 == 1.0


def test_retrieval_vacuous_without_revisits():
    cfg = SynthConfig(num_places=6, descriptors_per_place=10,
                      revisit_fraction=0.0, bit_flip_prob=0.05,
                      descriptor_bits=64, seed=0)
    seq = synth_sequence(cfg)
    vocab = train(seq.training, TrainConfig(k=2, L=2, strategy=Strategy.KMAJORITY, seed=0))
    report = retrieval_report(vocab, seq.frames, seq.frame_places)
    assert report.vacuous
    assert report.recall_at_1 == 1.0 and report.max_f1 == 1.0
    assert report.eligible_queries == 0 and report.hits == 0
    assert report.pr_curve == []


def test_retrieval_temporal_exclusion_boundary():
    vocab = _bundle_vocab()
    frame = np.array([v for v in HIER_VALS for _ in range(4)], dtype=np.uint8)
    frames = [frame, frame.copy()]
    gt = [0, 0]
    # the only correct source sits inside the exclusion window: vacuous
    inside = retrieval_report(vocab, frames, gt, temporal_exclusion=1)
    assert inside.vacuous
    # with no exclusion the frame is admissible and matches itself exactly
    outside = retrieval_report(vocab, frames, gt, temporal_exclusion=0)
    assert not outside.vacuous
    assert outside.recall_at_1 == 1.0
    with pytest.raises(ConfigError):
        retrieval_report(vocab, frames, gt, temporal_exclusion=-1)


def test_retrieval_curve_is_monotone_and_bounded():
    cfg = SynthConfig(num_places=15, descriptors_per_place=20,
                      revisit_fraction=0.4, bit_flip_prob=0.08,
                      descriptor_bits=64, seed=6)
    seq = synth_sequence(cfg)
    vocab = train(seq.training, TrainConfig(k=3, L=2, strategy=Strategy.KMAJORITY, seed=0))
    report = retrieval_report(vocab, seq.frames, seq.frame_places)
    assert 0.0 <= report.recall_at_1 <= 1.0
    assert 0.0 <= report.max_f1 <= 1.0
    assert report.hits <= report.eligible_queries
    thresholds = [t for t, _, _ in report.pr_curve]
    recalls = [r for _, _, r in report.pr_curve]
    assert thresholds == sorted(thresholds)
    for i in range(1, len(recalls)):
        assert recalls[i] <= recalls[i - 1] + 1e-12
    for _, precision, recall in report.pr_curve:
        assert 0.0 <= precision <= 1.0 and 0.0 <= recall <= 1.0


# the vocabulary and prototypes the generated retrieval cases draw from
_RETRIEVAL_VOCAB = train(synth_clustered(8, 20, 0.1, bits=64, seed=4),
                         TrainConfig(k=3, L=2, strategy=Strategy.KMAJORITY, seed=0))


def _place_frames(places, flip, seed):
    """One frame per entry of `places`: its place's six prototype
    descriptors with every bit flipped with probability `flip`."""
    rng = np.random.default_rng(seed)
    protos = {p: rng.integers(0, 256, size=(6, 8), dtype=np.uint8) for p in sorted(set(places))}
    return [np.bitwise_xor(protos[p], np.packbits(rng.random((6, 64)) < flip, axis=1))
            for p in places]


def test_retrieval_report_equals_the_pair_based_oracle():
    # scoring each frame's place gives, field for field and float for float,
    # the report scored against every same-place pair, over generated place
    # labels, one-place and no-revisit sequences and exclusion windows up to
    # past the last frame
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = set()

    def check(places, window, flip, seed):
        frames = _place_frames(places, flip, seed)
        exclusion = len(places) + 1 if window == "past" else window
        got = retrieval_report(_RETRIEVAL_VOCAB, frames, places, exclusion)
        want = pair_retrieval_report(_RETRIEVAL_VOCAB, frames, same_place_pairs(places),
                                     exclusion)
        assert got == want and repr(got) == repr(want)
        seen.add("vacuous" if got.vacuous else
                 "miss" if got.hits < got.eligible_queries else "hit")
        if flip == 0.0 and got.hits >= 2:  # each hit then scores exactly 1.0
            seen.add("tied scores")

    @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @hypothesis.given(places=st.one_of(st.lists(st.integers(-2, 5), max_size=40),
                                       st.integers(0, 40).map(lambda n: [3] * n),
                                       st.integers(0, 40).map(lambda n: list(range(n, 0, -1)))),
                      window=st.sampled_from([0, 1, 3, "past", 2 ** 70]),
                      flip=st.sampled_from([0.0, 0.05, 0.3]), seed=st.integers(0, 2 ** 16))
    def generated(places, window, flip, seed):
        check(places, window, flip, seed)

    generated()
    for window in (0, 1, 3, "past"):
        check([0] * 25, window, 0.05, 1)
        check(list(range(25)), window, 0.05, 1)
    assert seen == {"vacuous", "miss", "hit", "tied scores"}


@pytest.mark.parametrize("frame_places", [
    {(1, 0), (2, 0)},          # ground-truth pairs
    [(1, 0), (2, 0), (2, 1)],  # the same pairs in a list
    np.zeros((3, 1), dtype=np.int64),
    [0, 1],                    # too few
    [0, 1, 0, 1],              # too many
    [0, 1.0, 0],
    [0, True, 0],
    [0, "1", 0],
    {0, 1, 2},                 # no frame order
    {0: 0, 1: 1, 2: 0},
    None,
    3,
    range(2 ** 40),            # too many, and too many to list
], ids=["pair-set", "pair-list", "column", "short", "long", "float", "bool", "string",
        "int-set", "dict", "none", "int", "huge-range"])
def test_retrieval_report_rejects_frame_places_that_are_not_one_integer_per_frame(frame_places):
    frames = _place_frames([0, 1, 0], 0.0, 0)
    assert retrieval_report(_RETRIEVAL_VOCAB, frames, [0, 1, 0]) == \
        retrieval_report(_RETRIEVAL_VOCAB, frames, np.array([0, 1, 0]))
    with pytest.raises(CorpusConsistencyError, match="frame_places|frames"):
        retrieval_report(_RETRIEVAL_VOCAB, frames, frame_places)


def test_the_pr_sweep_over_10000_top1_scores_takes_well_under_a_second(monkeypatch):
    # a stand-in database answers every frame at once with a distinct score,
    # so the time is the report's own; rescanning every prediction at each
    # threshold takes seconds here
    class Answers:
        def __init__(self, vocab):
            self.count = 0

        def __len__(self):
            return self.count

        def add(self, vec):
            self.count += 1

        def query(self, vec, max_results, exclude):
            return [(vec // 2, (vec * 7919 % 10007 + 1) / 10008)]

    monkeypatch.setattr(hbow.evaluation, "RetrievalDatabase", Answers)
    monkeypatch.setattr(hbow.evaluation, "transform", lambda vocab, frame: frame)
    frames = list(range(10_001))
    start = time.perf_counter()
    report = retrieval_report(None, frames, [t % 100 for t in frames], temporal_exclusion=0)
    seconds = time.perf_counter() - start
    assert len(report.pr_curve) == 10_000 and 0 < report.hits < report.eligible_queries
    assert seconds < 0.5, seconds


# ---------------------------------------------------------------- comparison


def _strip_seconds(rows):
    return [{k: v for k, v in row.items() if k != "train_seconds"} for row in rows]


def test_compare_strategies_schema_and_determinism():
    cfg = SynthConfig(num_places=8, descriptors_per_place=20,
                      revisit_fraction=0.3, bit_flip_prob=0.05,
                      descriptor_bits=64, seed=0)
    strategies = ["kmajority", "local-brb", "hbrb"]
    rows = compare_strategies(cfg, strategies, seeds=[0, 1], k=3, L=2, max_iters=30)
    assert len(rows) == 6
    for row in rows:
        assert list(row) == EVAL_COLUMNS
        assert row["strategy"] in strategies
        assert isinstance(row["words_used"], int)
        assert row["train_seconds"] >= 0.0
        assert 0.0 <= row["recall_at_1"] <= 1.0
    again = compare_strategies(cfg, strategies, seeds=[0, 1], k=3, L=2, max_iters=30)
    assert _strip_seconds(rows) == _strip_seconds(again)


def test_compare_strategies_duplicate_strategy_gives_identical_rows():
    cfg = SynthConfig(num_places=6, descriptors_per_place=15,
                      revisit_fraction=0.25, bit_flip_prob=0.05,
                      descriptor_bits=64, seed=0)
    rows = compare_strategies(cfg, ["kmajority", "kmajority"], seeds=[3], k=3, L=2)
    a, b = _strip_seconds(rows)
    assert a == b


# `compare_strategies` rows, without train_seconds, on a noisy grid whose
# trees have leaves at several depths, so these rows also pin that the eval
# does not depend on how words are numbered
_PINNED_EVAL_ROWS = [
    ("kmajority", 0, 47.6875, 80.0, 252, 7.7738089821040965, 1.0, 1.0),
    ("local-brb", 0, 47.32083333333333, 84.0, 252, 7.718030557321127, 0.9090909090909091,
     0.9090909090909091),
    ("hbrb", 0, 59.07083333333333, 118.0, 233, 7.609374353324416, 0.6363636363636364,
     0.7058823529411764),
    ("kmajority", 1, 47.78333333333333, 81.04999999999995, 248, 7.730294861616012, 1.0,
     0.8888888888888888),
    ("local-brb", 1, 48.54375, 82.0, 245, 7.713613455042469, 0.7777777777777778,
     0.7142857142857143),
    ("hbrb", 1, 60.63333333333333, 118.0, 220, 7.550663989685754, 0.7777777777777778, 0.75),
    ("kmajority", 2, 47.520833333333336, 82.0, 252, 7.74197589601555, 0.9, 0.8421052631578948),
    ("local-brb", 2, 47.80833333333333, 80.0, 249, 7.756973682109775, 0.8, 0.8000000000000002),
    ("hbrb", 2, 60.483333333333334, 118.0, 220, 7.508131751536915, 0.8, 0.8235294117647058),
]


def test_compare_strategies_pinned_rows():
    cfg = SynthConfig(num_places=12, descriptors_per_place=40, bit_flip_prob=0.3,
                      revisit_fraction=0.5)
    rows = compare_strategies(cfg, ["kmajority", "local-brb", "hbrb"], seeds=[0, 1, 2],
                              k=4, L=4, max_iters=10)
    want = [dict(zip(EVAL_COLUMNS, row)) for row in _PINNED_EVAL_ROWS]
    assert _strip_seconds(rows) == want


def test_compare_strategies_rejects_empty_inputs():
    cfg = SynthConfig(num_places=4, descriptors_per_place=10, descriptor_bits=64)
    with pytest.raises(ConfigError):
        compare_strategies(cfg, [], seeds=[0])
    with pytest.raises(ConfigError):
        compare_strategies(cfg, ["kmajority"], seeds=[])
    with pytest.raises(ConfigError, match="unknown strategy"):
        compare_strategies(cfg, ["kmajority", "nope"], seeds=[0])


def test_compare_strategies_checks_every_seed_before_training(monkeypatch):
    # a bad last seed once failed only after every earlier seed had trained
    trained = []
    monkeypatch.setattr(hbow.evaluation, "train_result",
                        lambda *args: trained.append(args) or pytest.fail("trained"))
    cfg = SynthConfig(num_places=4, descriptors_per_place=10, descriptor_bits=64)
    for seeds, message in (([0, 1.5], "seeds must be integers"), ([0, True], "seeds"),
                           ([0, -1], "seed must be >= 0"), (3, "seeds must be integers"),
                           ([[0], [1]], "seeds")):
        with pytest.raises(ConfigError, match=message):
            compare_strategies(cfg, ["kmajority"], seeds)
    assert trained == []


def test_compare_strategies_checks_a_range_of_seeds_from_its_bounds(monkeypatch):
    # a range of 2**40 seeds was once listed first, and raised a bare MemoryError
    cfg = SynthConfig(num_places=4, descriptors_per_place=10, descriptor_bits=64)
    rows = compare_strategies(cfg, ["kmajority"], range(3, 4), k=2, L=2)
    assert _strip_seconds(rows) == _strip_seconds(
        compare_strategies(cfg, ["kmajority"], [3], k=2, L=2))
    monkeypatch.setattr(hbow.evaluation, "train_result",
                        lambda *args: pytest.fail("trained"))
    for seeds in (range(-1, 2 ** 40), range(2 ** 40, -2, -1)):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            compare_strategies(cfg, ["kmajority"], seeds)
    with pytest.raises(ConfigError, match="need at least one seed"):
        compare_strategies(cfg, ["kmajority"], range(5, 5))


def test_row_writers_round_trip(tmp_path):
    cfg = SynthConfig(num_places=5, descriptors_per_place=10,
                      revisit_fraction=0.2, bit_flip_prob=0.05,
                      descriptor_bits=64, seed=1)
    rows = compare_strategies(cfg, ["kmajority"], seeds=[0], k=2, L=2)
    csv_path = tmp_path / "rows.csv"
    json_path = tmp_path / "rows.json"
    write_rows_csv(csv_path, rows)
    write_rows_json(json_path, rows)

    with open(csv_path, newline="") as fh:
        got_csv = list(csv.DictReader(fh))
    assert len(got_csv) == 1
    assert list(got_csv[0]) == EVAL_COLUMNS
    assert got_csv[0]["strategy"] == "kmajority"
    assert int(got_csv[0]["words_used"]) == rows[0]["words_used"]
    assert float(got_csv[0]["mean_qe"]) == pytest.approx(rows[0]["mean_qe"], abs=1e-12)

    with open(json_path) as fh:
        got_json = json.load(fh)
    assert got_json == rows
