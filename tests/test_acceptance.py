"""End-to-end acceptance suite.

Ten checks, one per shipped guarantee: exact identities, oracle equivalences,
direction-of-effect comparisons on synthetic corpora, format round trips,
determinism, and default parameters. Every test prints a single line

    [criterion NN] PASS|FAIL: <measured detail>

through the capture-disabled channel so the verdicts show up in plain pytest
output, then asserts the check and its runtime budget.
"""

import hashlib
import os
import subprocess
import sys
import time

import numpy as np

from hbow import (
    BowVector,
    ClusterConfig,
    DescriptorSet,
    RetrievalDatabase,
    Strategy,
    SynthConfig,
    TrainConfig,
    binarize_matrix,
    hamming_cdist,
    hamming_rows,
    kmajority,
    lloyd_real,
    lookup_words,
    majority_centroid,
    quantization_report,
    read_descriptors,
    read_vocab_text,
    realize_matrix,
    retrieval_report,
    score_l1,
    synth_sequence,
    train,
    train_result,
    write_descriptors,
    write_vocab_text,
)
from hbow.cli import build_parser
from oracles import euclidean_sq, realize, synth_clustered


def _emit(capsys, num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[criterion {num:02d}] {verdict}: {detail}")


def test_round_trip_identities(capsys):
    """Criterion 1: unpack/repack is the identity and the squared euclidean
    distance between relaxed descriptors equals the Hamming distance."""
    rng = np.random.default_rng(11)
    codes = rng.integers(0, 256, size=(10_000, 32), dtype=np.uint8)
    t0 = time.perf_counter()
    bulk_ok = np.array_equal(binarize_matrix(realize_matrix(codes)), codes)
    single_ok = all(
        np.array_equal(binarize_matrix(realize(codes[i])[None, :])[0], codes[i])
        for i in range(100)
    )
    metric_ok = True
    for i in range(1000):
        a, b = codes[2 * i], codes[2 * i + 1]
        if euclidean_sq(realize(a), realize(b)) != float(hamming_rows(a, b)[0]):
            metric_ok = False
            break
    elapsed = time.perf_counter() - t0
    passed = bulk_ok and single_ok and metric_ok
    ok = passed and elapsed < 1.0
    _emit(capsys, 1, ok,
          f"identity on 10000 descriptors of 256 bits, metric equality on "
          f"1000 pairs, {elapsed:.2f}s (budget 1s)")
    assert bulk_ok and single_ok and metric_ok
    assert elapsed < 1.0


def test_majority_vote_optimality(capsys):
    """Criterion 2: the per-bit majority centroid attains the exhaustive
    minimum total Hamming distance over all 256 eight-bit candidates."""
    rng = np.random.default_rng(22)
    candidates = np.arange(256, dtype=np.uint8)[:, None]
    t0 = time.perf_counter()
    checked = 0
    mismatches = 0
    nonunique = 0
    for n in (3, 5, 7):
        for _ in range(100):
            codes = rng.integers(0, 256, size=(n, 1), dtype=np.uint8)
            maj = majority_centroid(codes)
            totals = hamming_cdist(candidates, codes).sum(axis=1)
            best = int(totals.min())
            maj_total = int(hamming_cdist(maj[None, :], codes).sum())
            if maj_total != best:
                mismatches += 1
            # odd n admits no per-bit vote ties, so the optimum is unique
            if int((totals == best).sum()) != 1:
                nonunique += 1
            checked += 1
    elapsed = time.perf_counter() - t0
    passed = mismatches == 0 and nonunique == 0
    ok = passed and elapsed < 5.0
    _emit(capsys, 2, ok,
          f"{checked} instances (n in 3/5/7, 100 each), {mismatches} above "
          f"the exhaustive optimum, {nonunique} non-unique optima, "
          f"{elapsed:.2f}s (budget 5s)")
    assert mismatches == 0 and nonunique == 0
    assert elapsed < 5.0


def test_clustering_objectives_monotone(capsys):
    """Criterion 3: per-iteration objectives of both clustering loops never
    increase, on 20 random corpora each."""
    t0 = time.perf_counter()
    violations = 0
    steps = 0
    for i in range(20):
        rng = np.random.default_rng(300 + i)
        codes = rng.integers(0, 256, size=(400, 16), dtype=np.uint8)
        trace = kmajority(codes, ClusterConfig(k=5, max_iters=40, seed=i)).objectives
        violations += sum(1 for a, b in zip(trace, trace[1:]) if b > a)
        steps += len(trace) - 1
        codes = rng.integers(0, 256, size=(400, 8), dtype=np.uint8)
        trace = lloyd_real(codes, ClusterConfig(k=5, max_iters=40, seed=i)).objectives
        violations += sum(1 for a, b in zip(trace, trace[1:]) if b > a)
        steps += len(trace) - 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 10.0
    _emit(capsys, 3, ok,
          f"{steps} objective steps over 20 Hamming and 20 relaxed real corpora, "
          f"{violations} increases, {elapsed:.2f}s (budget 10s)")
    assert violations == 0
    assert elapsed < 10.0


def test_global_flow_leaf_majority(capsys):
    """Criterion 4: after global real-domain training, every leaf centroid is
    exactly the majority vote of the descriptors partitioned into it."""
    rng = np.random.default_rng(44)
    corpus = DescriptorSet(rng.integers(0, 256, size=(100_000, 32), dtype=np.uint8))
    cfg = TrainConfig(k=10, L=3, strategy=Strategy.GLOBAL_HBRB, seed=0, max_iters=25)
    t0 = time.perf_counter()
    result = train_result(corpus, cfg)
    vocab = result.vocabulary
    words = result.member_word_ids
    empty = 0
    bad = 0
    leaves = np.flatnonzero(vocab.word_of_node >= 0)
    for leaf in leaves:
        members = corpus.codes[words == vocab.word_of_node[leaf]]
        if members.shape[0] == 0:
            empty += 1
        elif not np.array_equal(majority_centroid(members), vocab.centroids[leaf]):
            bad += 1
    elapsed = time.perf_counter() - t0
    passed = bad == 0 and empty == 0
    ok = passed and elapsed < 30.0
    _emit(capsys, 4, ok,
          f"k=10 L=3 n=100000: {len(leaves)} leaves, {bad} centroids off the "
          f"member majority, {empty} empty, {elapsed:.1f}s (budget 30s)")
    assert bad == 0 and empty == 0
    assert elapsed < 30.0


def test_quantization_direction(capsys):
    """Criterion 5: on clustered 256-bit corpora of about 50000 descriptors
    the global flow's mean quantization error stays within 2 percent of the
    Hamming baseline in the mean over 5 seeds."""
    t0 = time.perf_counter()
    global_qe = []
    baseline_qe = []
    for s in range(5):
        corpus = synth_clustered(32, 1562, 0.04, 256, 9000 + 37 * s)
        per = {}
        for strat in (Strategy.GLOBAL_HBRB, Strategy.KMAJORITY):
            cfg = TrainConfig(k=8, L=3, strategy=strat, seed=s, max_iters=50)
            per[strat] = quantization_report(train(corpus, cfg), corpus).mean_qe
        global_qe.append(per[Strategy.GLOBAL_HBRB])
        baseline_qe.append(per[Strategy.KMAJORITY])
    elapsed = time.perf_counter() - t0
    mean_g = float(np.mean(global_qe))
    mean_b = float(np.mean(baseline_qe))
    ratios = [round(g / b, 4) for g, b in zip(global_qe, baseline_qe)]
    direction = mean_g <= mean_b * 1.02
    ok = direction and elapsed < 300.0
    _emit(capsys, 5, ok,
          f"5 seeds, k=8 L=3 n=49984: mean qe {mean_g:.3f} (global) vs "
          f"{mean_b:.3f} (kmajority), per-seed ratios {ratios}, "
          f"{elapsed:.1f}s (budget 300s)")
    assert direction, f"mean qe {mean_g} vs {mean_b} breaks the 1.02 bound"
    assert elapsed < 300.0


def test_retrieval_direction(capsys):
    """Criterion 6: the global flow's recall@1 keeps up with the baseline on
    noisy synthetic sequences, and every strategy is perfect without noise."""
    t0 = time.perf_counter()
    recalls = {Strategy.GLOBAL_HBRB: [], Strategy.KMAJORITY: []}
    for s in range(5):
        seq = synth_sequence(SynthConfig(
            num_places=50, descriptors_per_place=200, revisit_fraction=0.3,
            bit_flip_prob=0.05, descriptor_bits=256, seed=s))
        for strat in recalls:
            cfg = TrainConfig(k=8, L=3, strategy=strat, seed=s, max_iters=50)
            vocab = train(seq.training, cfg)
            rep = retrieval_report(vocab, seq.frames, seq.frame_places,
                                   temporal_exclusion=1)
            recalls[strat].append(rep.recall_at_1)
    clean = synth_sequence(SynthConfig(
        num_places=50, descriptors_per_place=200, revisit_fraction=0.3,
        bit_flip_prob=0.0, descriptor_bits=256, seed=0))
    clean_recalls = {}
    for strat in (Strategy.KMAJORITY, Strategy.LOCAL_BRB, Strategy.GLOBAL_HBRB):
        cfg = TrainConfig(k=8, L=3, strategy=strat, seed=0, max_iters=50)
        vocab = train(clean.training, cfg)
        rep = retrieval_report(vocab, clean.frames, clean.frame_places,
                               temporal_exclusion=1)
        clean_recalls[strat.value] = rep.recall_at_1
    elapsed = time.perf_counter() - t0
    mean_g = float(np.mean(recalls[Strategy.GLOBAL_HBRB]))
    mean_b = float(np.mean(recalls[Strategy.KMAJORITY]))
    direction = mean_g >= mean_b - 0.02
    noiseless = all(r == 1.0 for r in clean_recalls.values())
    ok = direction and noiseless and elapsed < 300.0
    _emit(capsys, 6, ok,
          f"noisy recall@1 mean {mean_g:.3f} (global) vs {mean_b:.3f} "
          f"(kmajority) over 5 seeds, noiseless {clean_recalls}, "
          f"{elapsed:.1f}s (budget 300s)")
    assert direction, f"recall {mean_g} vs {mean_b} breaks the 0.02 bound"
    assert noiseless, f"noiseless recall not perfect: {clean_recalls}"
    assert elapsed < 300.0


def _dyadic_vector(rng, word_count, max_support=6):
    """Random sparse vector whose weights are multiples of 1/64 summing to 1,
    so similarity scores compare exactly across summation orders."""
    support = int(rng.integers(1, max_support + 1))
    words = rng.choice(word_count, size=support, replace=False)
    cuts = np.sort(rng.choice(np.arange(1, 64), size=support - 1, replace=False))
    parts = np.diff(np.concatenate(([0], cuts, [64])))
    return BowVector({int(w): float(p) / 64.0 for w, p in zip(words, parts)})


def test_query_matches_brute_force(capsys):
    """Criterion 7: inverted-index queries return exactly what brute-force
    scoring over every stored entry returns, ties included."""
    rng = np.random.default_rng(77)
    corpus = DescriptorSet(rng.integers(0, 256, size=(3000, 32), dtype=np.uint8),
                           group_ends=list(range(100, 3001, 100)))
    vocab = train(corpus, TrainConfig(
        k=7, L=2, strategy=Strategy.KMAJORITY, seed=0, max_iters=30))
    t0 = time.perf_counter()
    db = RetrievalDatabase(vocab)
    vectors = []
    for i in range(1000):
        if i % 10 == 3 and vectors:
            # repeat an earlier entry so exact score ties actually occur
            v = vectors[int(rng.integers(0, len(vectors)))]
        else:
            v = _dyadic_vector(rng, vocab.word_count)
        vectors.append(v)
        db.add(v)
    mismatches = 0
    for qi in range(100):
        if qi % 4 == 0:
            q = vectors[qi * 7]
        else:
            q = _dyadic_vector(rng, vocab.word_count)
        exclude = None
        if qi % 3 == 0:
            exclude = {int(x) for x in rng.integers(0, 1000, size=5)}
        got = db.query(q, max_results=10, exclude=exclude)
        scored = []
        for e, v in enumerate(vectors):
            if exclude and e in exclude:
                continue
            s = score_l1(q, v)
            if s > 0.0:
                scored.append((e, s))
        scored.sort(key=lambda item: (-item[1], item[0]))
        if got != scored[:10]:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 30.0
    _emit(capsys, 7, ok,
          f"100 queries against 1000 entries ({vocab.word_count} words, "
          f"duplicates and exclusions included), {mismatches} ranking "
          f"mismatches, {elapsed:.1f}s (budget 30s)")
    assert mismatches == 0
    assert elapsed < 30.0


def test_format_round_trips(tmp_path, capsys):
    """Criterion 8: the binary descriptor format round-trips byte-exactly and
    the text vocabulary format preserves structure and lookup behavior."""
    rng = np.random.default_rng(88)
    t0 = time.perf_counter()
    codes = rng.integers(0, 256, size=(10_000, 32), dtype=np.uint8)
    ends = sorted(int(e) for e in
                  rng.choice(np.arange(1, 10_000), size=9, replace=False))
    ends.append(10_000)
    first = tmp_path / "corpus_a.hbdc"
    second = tmp_path / "corpus_b.hbdc"
    write_descriptors(first, DescriptorSet(codes, group_ends=ends))
    back = read_descriptors(first)
    write_descriptors(second, back)
    desc_ok = (first.read_bytes() == second.read_bytes()
               and np.array_equal(back.codes, codes)
               and np.array_equal(back.group_ends, np.asarray(ends)))

    corpus = synth_clustered(20, 500, 0.05, 256, 5)
    vocab = train(corpus, TrainConfig(
        k=10, L=3, strategy=Strategy.GLOBAL_HBRB, seed=0, max_iters=20))
    vpath = tmp_path / "vocab.txt"
    vpath2 = tmp_path / "vocab_rewrite.txt"
    write_vocab_text(vpath, vocab)
    loaded = read_vocab_text(vpath)
    write_vocab_text(vpath2, loaded)
    struct_ok = (loaded.k == vocab.k and loaded.L == vocab.L
                 and loaded.word_count == vocab.word_count
                 and vpath.read_bytes() == vpath2.read_bytes())
    for name in ("parent", "centroids", "weight", "word_of_node", "word_weight", "descent_words",
                 "descent_children", "descent_slot"):
        struct_ok = struct_ok and np.array_equal(getattr(vocab, name), getattr(loaded, name))
    probes = rng.integers(0, 256, size=(10_000, 32), dtype=np.uint8)
    words_a, leaves_a = lookup_words(vocab, probes)
    words_b, leaves_b = lookup_words(loaded, probes)
    lookup_ok = (np.array_equal(words_a, words_b)
                 and np.array_equal(leaves_a, leaves_b))
    elapsed = time.perf_counter() - t0
    passed = desc_ok and struct_ok and lookup_ok
    ok = passed and elapsed < 30.0
    _emit(capsys, 8, ok,
          f"binary format byte-exact on 10000 descriptors {desc_ok}, text "
          f"format structure exact {struct_ok}, 10000-probe lookups equal "
          f"{lookup_ok}, {elapsed:.1f}s (budget 30s)")
    assert desc_ok and struct_ok and lookup_ok
    assert elapsed < 30.0


def test_cli_train_determinism(tmp_path, capsys):
    """Criterion 9: repeated CLI training runs with the same seed and flags
    write byte-identical vocabulary files regardless of the BLAS thread
    budget."""
    corpus = synth_clustered(12, 400, 0.05, 128, 3)
    cpath = tmp_path / "corpus.hbdc"
    write_descriptors(cpath, corpus)
    t0 = time.perf_counter()
    digests = []
    failures = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / f"vocab_{name}.txt"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "hbow", "train",
             "--corpus", str(cpath), "--out", str(out),
             "--strategy", "hbrb", "--k", "5", "--L", "3", "--seed", "7"],
            capture_output=True, text=True, env=env)
        if proc.returncode != 0:
            failures.append(proc.stderr.strip())
        else:
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    elapsed = time.perf_counter() - t0
    identical = not failures and len(set(digests)) == 1
    ok = identical and elapsed < 120.0
    _emit(capsys, 9, ok,
          f"3 train runs (BLAS threads 1, 1, 2) produced "
          f"{len(set(digests))} distinct file hash(es), {elapsed:.1f}s "
          f"(budget 120s)")
    assert not failures, failures
    assert len(set(digests)) == 1, digests
    assert elapsed < 120.0


def test_default_parameters(capsys):
    """Criterion 10: the training defaults are a branching factor of 10 and a
    depth of 6, both on the command line and in the library config."""
    args = build_parser().parse_args(["train", "--corpus", "c.hbdc",
                                      "--out", "v.txt"])
    cfg = TrainConfig()
    parser_ok = args.k == 10 and args.L == 6
    config_ok = cfg.k == 10 and cfg.L == 6
    ok = parser_ok and config_ok
    _emit(capsys, 10, ok,
          f"cli train defaults k={args.k} L={args.L} strategy={args.strategy}, "
          f"library defaults k={cfg.k} L={cfg.L}")
    assert parser_ok
    assert config_ok
