import itertools
import tracemalloc

import numpy as np
import pytest

import hbow.clustering
from hbow import (
    ClusterConfig,
    ConfigError,
    CorpusConsistencyError,
    InsufficientPointsError,
    brb_kmeans,
    kmajority,
    kmeanspp_seed,
    lloyd_real,
    majority_centroid,
    realize_matrix,
)
from oracles import _repair, cluster_counts, exact_numerators, hamming, kmeanspp_seed_sqeuclidean, \
    lloyd_float


def _hamming_objective(codes, centroids, assignments):
    # independent recompute of the reported objective
    return sum(hamming(codes[i], centroids[assignments[i]]) for i in range(len(codes)))


def _two_bundles(n_per=8):
    # two exact-duplicate piles 16 bits apart out of 32
    x = np.zeros(4, dtype=np.uint8)
    y = np.array([0xF0, 0xF0, 0xF0, 0xF0], dtype=np.uint8)
    codes = np.vstack([np.tile(x, (n_per, 1)), np.tile(y, (n_per, 1))])
    return codes, x, y


def test_seeding_selects_every_distinct_point_when_k_equals_n():
    rng_data = np.random.default_rng(0)
    pts = rng_data.integers(0, 256, size=(6, 4), dtype=np.uint8)
    while np.unique(pts, axis=0).shape[0] != 6:
        pts = rng_data.integers(0, 256, size=(6, 4), dtype=np.uint8)
    for seed in range(100):
        cents = kmeanspp_seed(pts, 6, np.random.default_rng(seed))
        assert np.unique(cents, axis=0).shape[0] == 6


def test_seeding_weights_by_distance():
    # with two duplicate piles, all residual mass sits on the other pile, so
    # the second seed always comes from it
    codes, x, y = _two_bundles()
    for seed in range(100):
        cents = kmeanspp_seed(codes, 2, np.random.default_rng(seed))
        got = {bytes(c) for c in cents}
        assert got == {bytes(x), bytes(y)}


def test_seeding_zero_mass_fallback():
    pts = np.tile(np.array([0xAA, 0xBB], dtype=np.uint8), (3, 1))
    cents = kmeanspp_seed(pts, 3, np.random.default_rng(5))
    assert cents.shape == (3, 2)
    assert np.all(cents == pts[0])


def test_seeding_errors():
    pts = np.zeros((3, 2), dtype=np.uint8)
    with pytest.raises(InsufficientPointsError):
        kmeanspp_seed(pts, 4, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        kmeanspp_seed(pts, 0, np.random.default_rng(0))
    with pytest.raises(CorpusConsistencyError):
        kmeanspp_seed(pts[0], 1, np.random.default_rng(0))


def test_seeding_takes_k_as_an_integer():
    # a float, bool, string or None k raises ConfigError, as ClusterConfig.k
    # does, rather than NumPy's TypeError; a NumPy integer is an integer
    pts = np.arange(12, dtype=np.uint8).reshape(6, 2)
    for bad in (2.0, True, "2", None):
        with pytest.raises(ConfigError, match="k must be an integer"):
            kmeanspp_seed(pts, bad, np.random.default_rng(0))
    with pytest.raises(ConfigError, match="k must be >= 1, got 0"):
        kmeanspp_seed(pts, 0, np.random.default_rng(0))
    assert np.array_equal(kmeanspp_seed(pts, np.int64(3), np.random.default_rng(4)),
                          kmeanspp_seed(pts, 3, np.random.default_rng(4)))


def test_seeding_rejects_rows_that_are_not_octets():
    # a uint64 view of float64 or int16 rows would seed without complaint
    rng = np.random.default_rng(2)
    for dtype in (np.float64, np.int16):
        pts = rng.integers(0, 256, size=(6, 8)).astype(dtype)
        with pytest.raises(CorpusConsistencyError, match="uint8"):
            kmeanspp_seed(pts, 2, np.random.default_rng(0))


def test_seeding_a_strided_view_picks_what_its_copy_picks():
    rng = np.random.default_rng(8)
    codes = rng.integers(0, 256, size=(300, 40), dtype=np.uint8)
    codes[::3, :8] = codes[0, :8]  # shared first words, so later words decide
    for view in (codes[:, 3:20], codes[:, 8:16], codes[::2], codes[1::3, ::2]):
        assert not view.flags.c_contiguous
        for seed in range(10):
            got = kmeanspp_seed(view, 7, np.random.default_rng(seed))
            want = kmeanspp_seed(np.ascontiguousarray(view), 7, np.random.default_rng(seed))
            assert np.array_equal(got, want)


def test_hamming_seeding_picks_the_rows_float_seeding_picks():
    # squared Euclidean on relaxed rows is the Hamming distance, so the same
    # RNG draws choose the same rows, including the zero-mass fallback. The
    # widths cover a zero-padded last 64-bit word and several words, and n up
    # to 2,000 large integer partial sums.
    rng = np.random.default_rng(15)
    for octets, trial in itertools.product((1, 3, 8, 9, 32, 40), range(8)):
        n = int(rng.integers(1, 40 if trial % 2 else 2000))
        pool = int(rng.integers(1, 6)) if trial % 4 < 2 else n  # duplicates, or random rows
        codes = rng.integers(0, 256, size=(pool, octets), dtype=np.uint8)
        codes = codes[rng.integers(pool, size=n)]
        k = int(rng.integers(1, min(n, 12) + 1))
        seed = octets * 100 + trial
        for dtype in (np.float32, np.float64):
            got = kmeanspp_seed(codes, k, np.random.default_rng(seed))
            want = kmeanspp_seed_sqeuclidean(realize_matrix(codes, dtype), k,
                                             np.random.default_rng(seed))
            assert np.array_equal(realize_matrix(got, dtype), want)


def test_cluster_config_validation():
    with pytest.raises(ConfigError):
        ClusterConfig(k=0)
    with pytest.raises(ConfigError):
        ClusterConfig(k=2, max_iters=0)
    with pytest.raises(ConfigError):
        ClusterConfig(k=2, seed=-1)
    # a seed is an int >= 0 or a SeedSequence, each of which np.random.default_rng takes
    for seed in (True, 1.5, [1, 2], (1, 2), (3,), np.bool_(True)):
        with pytest.raises(ConfigError, match="seed"):
            ClusterConfig(k=2, seed=seed)
    assert type(ClusterConfig(k=2, seed=np.uint8(3)).seed) is int
    seq = np.random.SeedSequence(3, spawn_key=(0, 2))
    assert ClusterConfig(k=2, seed=seq).seed is seq


@pytest.mark.parametrize("cluster", [kmajority, lloyd_real, brb_kmeans])
def test_an_int_seed_and_its_seed_sequence_cluster_alike(cluster):
    # training seeds a root split with SeedSequence(train seed), whose spawn
    # key is empty, so it must draw what the int seed draws; a child's spawn
    # key gives it a stream of its own
    rng = np.random.default_rng(17)
    codes = rng.integers(0, 256, size=(150, 4), dtype=np.uint8)
    for seed in (0, 5, 2 ** 32):
        _assert_same_result(cluster(codes, ClusterConfig(k=6, seed=np.random.SeedSequence(seed))),
                            cluster(codes, ClusterConfig(k=6, seed=seed)))
    first_child = np.random.SeedSequence(5, spawn_key=(0,))
    assert cluster(codes, ClusterConfig(k=6, seed=first_child)).assignments.tolist() != \
        cluster(codes, ClusterConfig(k=6, seed=5)).assignments.tolist()


def test_brb_objectives_are_the_mean_loops():
    rng = np.random.default_rng(18)
    codes = rng.integers(0, 256, size=(200, 8), dtype=np.uint8)
    for seed in range(5):
        cfg = ClusterConfig(k=5, seed=seed)
        brb, real = brb_kmeans(codes, cfg), lloyd_real(codes, cfg)
        assert brb.objectives == real.objectives
        assert brb.iterations_run == real.iterations_run == len(brb.objectives) - 1
        assert brb.objective == sum(hamming(c, brb.centroids[j])
                                    for c, j in zip(codes, brb.assignments))


def test_kmajority_recovers_separated_bundles():
    codes, x, y = _two_bundles()
    for seed in range(10):
        res = kmajority(codes, ClusterConfig(k=2, seed=seed))
        assert res.objective == 0
        assert {bytes(c) for c in res.centroids} == {bytes(x), bytes(y)}
        # both bundles intact: one cluster per pile
        assert len(set(res.assignments[:8])) == 1
        assert len(set(res.assignments[8:])) == 1


def test_kmajority_k1_is_majority_centroid():
    rng = np.random.default_rng(3)
    for n in (31, 30):  # an even count has tied bits, which go to 0
        codes = rng.integers(0, 256, size=(n, 4), dtype=np.uint8)
        res = kmajority(codes, ClusterConfig(k=1))
        assert np.array_equal(res.centroids[0], majority_centroid(codes))
        assert res.objective == _hamming_objective(codes, res.centroids, res.assignments)


def test_kmajority_objective_vs_exhaustive_partitions():
    # D=8, n=6, k=2: enumerate every 2-partition, build majority centroids for
    # each side, and take the best objective. The local search can't beat it.
    rng = np.random.default_rng(4)
    for trial in range(30):
        codes = rng.integers(0, 256, size=(6, 1), dtype=np.uint8)
        best = None
        for mask in range(1, 63):  # non-empty proper subsets, complement-symmetric
            left = [i for i in range(6) if mask >> i & 1]
            right = [i for i in range(6) if not mask >> i & 1]
            cents = np.vstack([majority_centroid(codes[left]), majority_centroid(codes[right])])
            assigns = np.array([0 if i in left else 1 for i in range(6)])
            obj = _hamming_objective(codes, cents, assigns)
            best = obj if best is None else min(best, obj)
        res = kmajority(codes, ClusterConfig(k=2, seed=trial))
        assert res.objective >= best
        assert res.objective == _hamming_objective(codes, res.centroids, res.assignments)


def test_kmajority_trace_monotone_and_exact():
    rng = np.random.default_rng(5)
    for trial in range(10):
        codes = rng.integers(0, 256, size=(120, 8), dtype=np.uint8)
        res = kmajority(codes, ClusterConfig(k=6, seed=trial))
        trace = res.objectives
        assert len(trace) == res.iterations_run + 1
        assert all(a >= b for a, b in zip(trace, trace[1:]))
        assert trace[-1] == res.objective


def test_no_empty_clusters_even_with_duplicates():
    codes = np.tile(np.array([0x12, 0x34], dtype=np.uint8), (5, 1))
    res = kmajority(codes, ClusterConfig(k=3, seed=0))
    assert np.bincount(res.assignments, minlength=3).min() >= 1
    assert res.objective == 0


def test_kmajority_objective_always_matches_recompute():
    rng = np.random.default_rng(6)
    for trial in range(20):
        n = int(rng.integers(5, 60))
        k = int(rng.integers(1, min(n, 8) + 1))
        codes = rng.integers(0, 256, size=(n, 3), dtype=np.uint8)
        res = kmajority(codes, ClusterConfig(k=k, seed=trial))
        assert np.bincount(res.assignments, minlength=k).min() >= 1
        assert res.objective == _hamming_objective(codes, res.centroids, res.assignments)


def test_kmajority_deterministic_for_seed():
    rng = np.random.default_rng(7)
    codes = rng.integers(0, 256, size=(80, 4), dtype=np.uint8)
    a = kmajority(codes, ClusterConfig(k=5, seed=9))
    b = kmajority(codes, ClusterConfig(k=5, seed=9))
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(a.assignments, b.assignments)
    assert a.objective == b.objective and a.iterations_run == b.iterations_run


def test_lloyd_trace_monotone():
    rng = np.random.default_rng(8)
    for trial in range(10):
        codes = rng.integers(0, 256, size=(150, 8), dtype=np.uint8)
        res = lloyd_real(codes, ClusterConfig(k=5, seed=trial))
        trace = res.objectives
        assert len(trace) == res.iterations_run + 1
        assert all(a >= b for a, b in zip(trace, trace[1:]))
        assert res.objective == trace[-1] >= 0.0


def test_lloyd_objective_matches_recompute():
    rng = np.random.default_rng(9)
    codes = rng.integers(0, 256, size=(70, 2), dtype=np.uint8)
    x = realize_matrix(codes)
    res = lloyd_real(codes, ClusterConfig(k=4, seed=1))
    manual = sum(
        float(((x[i] - res.centroids[res.assignments[i]]) ** 2).sum()) for i in range(len(x))
    )
    assert res.objective == pytest.approx(manual, rel=1e-9)
    assert np.bincount(res.assignments, minlength=4).min() >= 1
    with pytest.raises(CorpusConsistencyError):
        lloyd_real(x, ClusterConfig(k=4))


def test_loop_stops_at_first_assignment_fixpoint():
    # A_m is the post-repair assignment after m passes; the loop stops at the
    # first pass with A_m == A_(m-1)
    rng = np.random.default_rng(14)
    codes = rng.integers(0, 256, size=(120, 8), dtype=np.uint8)
    for cluster in (kmajority, lloyd_real):
        full = cluster(codes, ClusterConfig(k=6, seed=1))
        n = full.iterations_run
        assert 3 <= n < 100
        labels = [cluster(codes, ClusterConfig(k=6, seed=1, max_iters=m)).assignments
                  for m in range(1, n + 1)]
        assert np.array_equal(labels[-1], full.assignments)
        assert np.array_equal(labels[-1], labels[-2])
        for prev, cur in zip(labels[:-2], labels[1:-1]):
            assert not np.array_equal(prev, cur)


def test_brb_k1_is_majority_centroid():
    rng = np.random.default_rng(11)
    codes = rng.integers(0, 256, size=(25, 4), dtype=np.uint8)
    res = brb_kmeans(codes, ClusterConfig(k=1))
    assert np.array_equal(res.centroids[0], majority_centroid(codes))


def test_brb_centroids_are_binary_and_objective_exact():
    rng = np.random.default_rng(12)
    codes = rng.integers(0, 256, size=(90, 6), dtype=np.uint8)
    res = brb_kmeans(codes, ClusterConfig(k=4, seed=3))
    assert res.centroids.dtype == np.uint8
    assert res.centroids.shape == (4, 6)
    assert np.bincount(res.assignments, minlength=4).min() >= 1
    assert res.objective == _hamming_objective(codes, res.centroids, res.assignments)


def test_brb_recovers_separated_bundles():
    codes, x, y = _two_bundles()
    res = brb_kmeans(codes, ClusterConfig(k=2, seed=0))
    assert res.objective == 0
    assert {bytes(c) for c in res.centroids} == {bytes(x), bytes(y)}


def test_brb_beats_or_ties_kmajority_on_average():
    # aggregate direction-of-effect check; individual corpora may go either way
    rng = np.random.default_rng(13)
    brb_total = 0.0
    kmaj_total = 0.0
    per_corpus = []
    for corpus_id in range(20):
        codes = rng.integers(0, 256, size=(400, 4), dtype=np.uint8)
        b_sum = k_sum = 0.0
        for seed in range(5):
            cfg = ClusterConfig(k=8, seed=seed)
            b_sum += brb_kmeans(codes, cfg).objective
            k_sum += kmajority(codes, cfg).objective
        per_corpus.append((corpus_id, b_sum / 5, k_sum / 5))
        brb_total += b_sum
        kmaj_total += k_sum
    for corpus_id, b_mean, k_mean in per_corpus:
        print(f"corpus {corpus_id}: brb {b_mean:.1f} kmajority {k_mean:.1f}")
    assert brb_total <= kmaj_total


def test_insufficient_points_propagates():
    codes = np.zeros((2, 2), dtype=np.uint8)
    with pytest.raises(InsufficientPointsError):
        kmajority(codes, ClusterConfig(k=3))
    for cluster in (kmajority, lloyd_real, brb_kmeans):
        with pytest.raises(InsufficientPointsError, match=cluster.__name__):
            cluster(np.empty((0, 2), dtype=np.uint8), ClusterConfig(k=1))


def _assert_same_result(got, want):
    assert got.centroids.dtype == want.centroids.dtype
    assert np.array_equal(got.centroids, want.centroids)
    assert np.array_equal(got.assignments, want.assignments)
    assert got.objective == want.objective
    assert got.iterations_run == want.iterations_run
    assert got.objectives == want.objectives


def test_lloyd_real_matches_float_oracle_on_generated_codes():
    # the packed flow (Hamming seeding, grouped bit counts, the gemm kernel)
    # against the plain flow (sqeuclidean seeding on relaxed rows, per-cluster
    # mask sums, distances in Python integers): every float must be the same
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @hypothesis.given(n=st.integers(1, 80), octets=st.integers(1, 4), pool=st.integers(1, 80),
                      seed=st.integers(0, 2 ** 16), max_iters=st.integers(1, 30),
                      data=st.data())
    def check(n, octets, pool, seed, max_iters, data):
        # a pool smaller than n repeats rows
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 256, size=(pool, octets), dtype=np.uint8)
        codes = values[rng.integers(pool, size=n)]
        distinct = np.unique(codes, axis=0).shape[0]
        k = data.draw(st.one_of(st.just(distinct), st.integers(1, n)))
        cfg = ClusterConfig(k=k, max_iters=max_iters, seed=seed % 5)
        _assert_same_result(lloyd_real(codes, cfg), lloyd_float(realize_matrix(codes), cfg))

    check()


def test_float64_grouped_sums_give_the_same_clusters(monkeypatch):
    # a node of 2**24 or more points sums its bit counts in float64, and rows
    # whose x . S products can reach 2**24 (bits times the most members a
    # centroid may have) relax to float64 and assign with a float64 gemm;
    # lower the limit so these small inputs take those paths. At 2 * bits the
    # mean loop's rows are float64 while kmajority's are float32, and brb's
    # binary pass runs on the mean loop's float64 rows
    rng = np.random.default_rng(16)
    codes = rng.integers(0, 256, size=(300, 8), dtype=np.uint8)[rng.integers(300, size=600)]
    cfg = ClusterConfig(k=7, seed=2)
    runs = {}
    for limit in (hbow.clustering._F32_EXACT_COUNT, 2 * 64, 1):
        monkeypatch.setattr(hbow.clustering, "_F32_EXACT_COUNT", limit)
        sum_dtype = hbow.clustering._Rows(codes, "test", 1).sum_dtype
        assert sum_dtype == (np.float32 if codes.shape[0] < limit else np.float64)
        widths = [hbow.clustering._Rows(codes, "test", m).dtype for m in (1, codes.shape[0])]
        assert widths == [np.float32 if 64 * m < limit else np.float64 for m in (1, codes.shape[0])]
        # the default, which lloyd_real and brb_kmeans take, is the row count
        assert hbow.clustering._Rows(codes, "test").dtype == widths[1]
        runs[limit] = [cluster(codes, cfg) for cluster in (kmajority, lloyd_real, brb_kmeans)]
    for limit in (2 * 64, 1):
        for got, want in zip(runs[limit], runs[1 << 24]):
            _assert_same_result(got, want)
    _assert_same_result(runs[1][1], lloyd_float(realize_matrix(codes), cfg))


def test_assignment_kernel_is_exact_under_permutations_and_either_width():
    # generated centroids (bit counts S over n members) up to n = 3 * 2**26,
    # with scaled copies of a neighbour (an exact tie) and copies one count
    # off (a near-tie far below float32's resolution); the rows are in the
    # width `_Rows` would pick for these n, and float64 rows must agree
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def assign(x, s, n):
        x1 = x.sum(axis=1).astype(np.int64)
        return hbow.clustering._assign(x, x1, s, n)

    @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @hypothesis.given(rows=st.integers(1, 40), bits=st.integers(1, 64), k=st.integers(1, 8),
                      n_max=st.sampled_from([1, 2, 7, 300, 1 << 20, 1 << 26]),
                      copies=st.lists(st.sampled_from(["none", "scaled", "off-by-one"]),
                                      min_size=8, max_size=8),
                      seed=st.integers(0, 2 ** 16))
    def check(rows, bits, k, n_max, copies, seed):
        rng = np.random.default_rng(seed)
        bools = rng.random((rows, bits)) < 0.5
        bools = bools[rng.integers(rows, size=rows)]  # repeated rows
        n = rng.integers(1, n_max + 1, size=k)
        s = np.floor(rng.random((k, bits)) * (n[:, None] + 1)).astype(np.int64)
        for j in range(1, k):
            if copies[j] != "none":
                m = int(rng.integers(1, 4)) if n[j - 1] <= n_max else 1
                n[j], s[j] = m * n[j - 1], m * s[j - 1]
            if copies[j] == "off-by-one":
                b = int(rng.integers(bits))
                s[j, b] += 1 if s[j, b] < n[j] else -1
        x = bools.astype(hbow.clustering._row_dtype(bits, int(n.max())))
        labels, obj = assign(x, s, n)
        assert labels.dtype == np.int64 and obj.dtype == np.float64
        perm = rng.permutation(bits)
        got = assign(np.ascontiguousarray(x[:, perm]), np.ascontiguousarray(s[:, perm]), n)
        assert np.array_equal(got[0], labels) and np.array_equal(got[1], obj)
        got = assign(x[::-1].copy(), s, n)
        assert np.array_equal(got[0], labels[::-1]) and np.array_equal(got[1], obj[::-1])
        got = assign(bools.astype(np.float64), s, n)
        assert np.array_equal(got[0], labels) and np.array_equal(got[1], obj)
        if 2 * bits * int(n.max()) ** 2 < 1 << 53:
            # below 2**53 M / n^2 is one correctly rounded division, as in Python
            quotients = [[v / int(m) ** 2 for v, m in zip(row, n)]
                         for row in exact_numerators(x, s, n)]
            assert labels.tolist() == [min(range(k), key=row.__getitem__) for row in quotients]
            assert obj.tolist() == [a + row[j] for a, row, j in
                                    zip(x.sum(axis=1).tolist(), quotients, labels)]

    check()


def test_repair_steals_the_farthest_member_by_exact_distance(monkeypatch):
    # a stale mean of zeros is equally far from every row in M alone, so the
    # farthest member is the one with the most bits set
    codes = np.array([[0b10000000], [0b11100000], [0b11000000]], dtype=np.uint8)
    s, n = np.zeros((2, 8), dtype=np.float32), np.array([3, 2])
    s[0, :2] = [2, 1]
    labels, obj = np.zeros(3, dtype=np.int64), np.ones(3)
    hbow.clustering._repair_empty(hbow.clustering._Rows(codes, "test", 3), s, n, labels, obj)
    assert labels.tolist() == [0, 1, 0] and obj.tolist() == [1.0, 0.0, 1.0]
    assert s[1].tolist() == [1, 1, 1, 0, 0, 0, 0, 0] and n.tolist() == [3, 1]

    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @hypothesis.given(rows=st.integers(1, 30), octets=st.integers(1, 5), k=st.integers(2, 8),
                      n_max=st.sampled_from([1, 5, 1 << 20]), block_rows=st.integers(1, 40),
                      seed=st.integers(0, 2 ** 16))
    def check(rows, octets, k, n_max, block_rows, seed):
        # the oracle's repair on random labels that leave clusters empty,
        # with the donor's members read in blocks of `block_rows` rows
        rng = np.random.default_rng(seed)
        codes = np.packbits(rng.random((rows, 8 * octets)) < rng.random(), axis=1)
        n = rng.integers(1, n_max + 1, size=k)
        dtype = hbow.clustering._row_dtype(8 * octets, int(n.max()))
        monkeypatch.setattr(hbow.clustering, "_RELAXED_BLOCK_BYTES",
                            block_rows * 8 * octets * np.dtype(dtype).itemsize)
        relaxed = hbow.clustering._Rows(codes, "test", int(n.max()))
        sums = np.floor(rng.random((k, 8 * octets)) * (n[:, None] + 1))
        labels = rng.integers(int(rng.integers(1, k + 1)), size=rows)
        obj = rng.random(rows)
        want = [sums.astype(np.int64), n.copy(), labels.copy(), obj.copy()]
        _repair(realize_matrix(codes, relaxed.dtype), *want)
        got = [sums.copy(), n.copy(), labels.copy(), obj.copy()]
        hbow.clustering._repair_empty(relaxed, *got)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    check()


def test_packed_assignment_equals_the_gemm_kernel_where_every_n_is_1():
    # `_nearest` with every n = 1, which takes the Hamming table of the
    # word-major codes, against `_assign` on 0/1 rows with (row, 1)
    # centroids: the same labels, ties to the lowest index, and the same
    # float64 objectives. Rows repeat, and centroids repeat rows and each
    # other, so exact ties are common; one octet makes them commoner
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def both(codes, cents):
        x = realize_matrix(codes, np.float32)
        x1 = x.sum(axis=1).astype(np.int64)
        s, n = realize_matrix(cents, np.float32), np.ones(cents.shape[0], dtype=np.int64)
        want = hbow.clustering._assign(x, x1, s, n)
        got = hbow.clustering._nearest(hbow.clustering._Rows(codes, "test", 1), s, n)
        assert got[0].dtype == want[0].dtype and got[1].dtype == want[1].dtype == np.float64
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        return got

    @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @hypothesis.given(octets=st.sampled_from([1, 3, 9, 32]), rows=st.integers(1, 120),
                      pool=st.integers(1, 40), k=st.integers(1, 12),
                      from_rows=st.integers(0, 12), seed=st.integers(0, 2 ** 16))
    def check(octets, rows, pool, k, from_rows, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 256, size=(pool, octets), dtype=np.uint8)
        codes = values[rng.integers(pool, size=rows)]
        cents = rng.integers(0, 256, size=(k, octets), dtype=np.uint8)
        picked = rng.integers(rows, size=min(k, from_rows))
        cents[:picked.size] = codes[picked]
        cents = cents[rng.integers(k, size=k)]  # repeated centroids tie exactly
        labels, obj = both(codes, cents)
        first = np.array([min(range(k), key=lambda j: hamming(c, cents[j])) for c in codes])
        assert np.array_equal(labels, first)

    check()
    # 8,192 octets reach distances past 2**16 - 1, which take a wider accumulator
    zeros, ones = np.zeros((1, 8192), dtype=np.uint8), np.full((1, 8192), 255, dtype=np.uint8)
    labels, obj = both(np.vstack([zeros, ones, ones]), np.vstack([ones, zeros]))
    assert labels.tolist() == [1, 0, 0] and obj.tolist() == [0.0, 0.0, 0.0]
    labels, obj = both(zeros, ones)
    assert obj.tolist() == [65536.0]


def test_streamed_rows_equal_resident_rows(monkeypatch):
    # a node larger than one relaxed block unpacks its rows a block at a time
    # wherever they are read; with blocks of a few rows every clusterer must
    # give what it gives on rows relaxed once, on float32 rows and, with the
    # exactness limit lowered, on float64 rows
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    default = hbow.clustering._RELAXED_BLOCK_BYTES

    def runs(codes, cfg, block_rows, f64):
        got = []
        for block in (default, block_rows * codes.shape[1] * 64):  # block_rows float64 rows
            with monkeypatch.context() as m:
                m.setattr(hbow.clustering, "_RELAXED_BLOCK_BYTES", block)
                if f64:
                    m.setattr(hbow.clustering, "_F32_EXACT_COUNT", 1)
                got.append([cluster(codes, cfg) for cluster in (kmajority, lloyd_real, brb_kmeans)])
        for streamed, resident in zip(*got[::-1]):
            _assert_same_result(streamed, resident)
            assert np.array_equal(streamed.member_majorities, resident.member_majorities)

    @hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @hypothesis.given(n=st.integers(1, 150), octets=st.sampled_from([1, 3, 9]),
                      pool=st.integers(1, 150), k=st.integers(1, 12),
                      max_iters=st.sampled_from([1, 2, 100]), block_rows=st.integers(1, 5),
                      f64=st.booleans(), seed=st.integers(0, 2 ** 16))
    def check(n, octets, pool, k, max_iters, block_rows, f64, seed):
        # a small pool repeats rows, and a k above the distinct count repairs
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 256, size=(pool, octets), dtype=np.uint8)
        codes = values[rng.integers(pool, size=n)]
        runs(codes, ClusterConfig(k=min(k, n), max_iters=max_iters, seed=seed % 7), block_rows, f64)

    check()
    # three distinct rows and k = 6: the seeds repeat rows, so the first
    # assignment leaves clusters empty and the repair walks donors of 40 rows
    rng = np.random.default_rng(3)
    codes = rng.integers(0, 256, size=(3, 4), dtype=np.uint8)[rng.integers(3, size=120)]
    for f64 in (False, True):
        runs(codes, ClusterConfig(k=6, max_iters=20, seed=1), 3, f64)


@pytest.mark.parametrize("cluster", [kmajority, lloyd_real, brb_kmeans])
def test_kept_bit_counts_equal_a_recount_after_every_pass(monkeypatch, cluster):
    # the loop keeps (S, n) across passes, from zero, and moves only the rows
    # whose label changed (every row on the first pass); after every move
    # they must equal an independent recount over the new labels, in the
    # rows' sum dtype, and lloyd_real's member majorities must be those of
    # its final clusters
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    move = hbow.clustering._move_rows
    moves = []

    def checked_move(x, sums, sizes, old, new):
        move(x, sums, sizes, old, new)
        want_sums, want_sizes = cluster_counts(x.codes, new, sums.shape[0])
        assert sums.dtype == (np.float32 if x.dtype == np.float32 else np.float64)
        assert sizes.dtype == np.int64
        assert np.array_equal(sums, want_sums) and np.array_equal(sizes, want_sizes)
        moves.append(len(new) if old is None else int(np.count_nonzero(old != new)))

    monkeypatch.setattr(hbow.clustering, "_move_rows", checked_move)
    # 1 to 31 rows per block, so the rows are read in several blocks
    monkeypatch.setattr(hbow.clustering, "_RELAXED_BLOCK_BYTES", 1000)

    @hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @hypothesis.given(n=st.integers(1, 200), octets=st.sampled_from([1, 3, 9]),
                      pool=st.integers(1, 200), k=st.integers(1, 12),
                      max_iters=st.sampled_from([1, 2, 100]), seed=st.integers(0, 2 ** 16))
    def check(n, octets, pool, k, max_iters, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 256, size=(pool, octets), dtype=np.uint8)
        codes = values[rng.integers(pool, size=n)]
        k = min(k, n)
        moves.clear()
        res = cluster(codes, ClusterConfig(k=k, max_iters=max_iters, seed=seed % 7))
        # one move per pass, the first of every row, and lloyd_real's to its
        # final labels
        assert len(moves) == res.iterations_run + (cluster is lloyd_real)
        assert moves[0] == n
        if cluster is lloyd_real:
            for j in range(k):
                want = majority_centroid(codes[res.assignments == j])
                assert np.array_equal(res.member_majorities[j], want)
        else:
            assert res.member_majorities is None

    check()


@pytest.mark.parametrize("cluster", [kmajority, lloyd_real, brb_kmeans])
def test_one_large_split_stays_within_its_memory_bound(cluster):
    # a 100,000 x 32-octet split relaxes to 97.7 MiB of float32 rows
    # (kmajority) or 195.3 MiB of float64 rows (the mean loop); the split
    # holds its 64-bit words (3.1 MiB), per-row bookkeeping, one block of
    # relaxed rows and one block of Hamming buffers, and must peak below
    # 12 MiB, under an eighth of the float32 rows
    rng = np.random.default_rng(21)
    codes = rng.integers(0, 256, size=(100_000, 32), dtype=np.uint8)
    tracemalloc.start()
    try:
        cluster(codes, ClusterConfig(k=10, max_iters=3, seed=7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20, peak / 2 ** 20
