import numpy as np
import pytest

import hbow
from hbow import (
    CorpusConsistencyError,
    DescriptorSet,
    InsufficientPointsError,
    binarize_matrix,
    hamming_cdist,
    hamming_rows,
    hamming_to_all,
    majority_centroid,
    realize_matrix,
)
from oracles import euclidean_sq, hamming, real_mean, realize


def b(*octets):
    return np.array(octets, dtype=np.uint8)


def test_hamming_hand_enumerated():
    # 0b11001010 ^ 0b10101010 = 0b01100000, two set bits
    assert hamming_rows(b(0b11001010), b(0b10101010)).tolist() == [2]
    assert hamming_rows(b(0x00), b(0xFF)).tolist() == [8]
    assert hamming_rows(b(0xAB, 0xCD), b(0xAB, 0xCD)).tolist() == [0]
    assert hamming_rows(b(0x00, 0x00), b(0xFF, 0xFF)).tolist() == [16]


def test_bit_order_is_msb_first():
    assert realize_matrix(b(0x81)).tolist() == [[1, 0, 0, 0, 0, 0, 0, 1]]
    assert realize_matrix(b(0x80)).tolist() == [[1, 0, 0, 0, 0, 0, 0, 0]]
    assert realize_matrix(b(0x01)).tolist() == [[0, 0, 0, 0, 0, 0, 0, 1]]


def test_binarize_strict_threshold():
    # exactly 0.5 rounds down to 0
    packed = binarize_matrix(np.array([[0.51, 0.5, 0.49, 1.0, 0.0, 0.5, 0.6, 0.4]]))
    assert packed.tolist() == [[0b10010010]]
    assert binarize_matrix(np.zeros((1, 8))).tolist() == [[0]]
    assert binarize_matrix(np.ones((1, 8))).tolist() == [[0xFF]]


def test_binarize_matrix_shape_validation():
    with pytest.raises(CorpusConsistencyError):
        binarize_matrix(np.zeros((1, 7)))  # not a multiple of 8
    with pytest.raises(CorpusConsistencyError):
        binarize_matrix(np.zeros((1, 0)))
    with pytest.raises(CorpusConsistencyError):
        binarize_matrix(np.zeros(8))  # not a matrix


def test_realize_binarize_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(200):
        code = rng.integers(0, 256, size=rng.integers(1, 9) * 4, dtype=np.uint8)
        assert np.array_equal(binarize_matrix(realize_matrix(code))[0], code)


def test_realize_matrix_matches_rowwise():
    rng = np.random.default_rng(8)
    codes = rng.integers(0, 256, size=(50, 16), dtype=np.uint8)
    mat = realize_matrix(codes)
    assert mat.shape == (50, 128)
    for i in range(0, 50, 7):
        assert np.array_equal(mat[i], realize(codes[i]))
    assert np.array_equal(binarize_matrix(mat), codes)


def test_euclidean_sq_equals_hamming_on_relaxed_bits():
    rng = np.random.default_rng(9)
    for _ in range(300):
        x = rng.integers(0, 256, size=32, dtype=np.uint8)
        y = rng.integers(0, 256, size=32, dtype=np.uint8)
        assert euclidean_sq(realize(x), realize(y)) == float(hamming_rows(x, y)[0])


def test_majority_hand_enumerated():
    codes = np.array([[0b11000000], [0b10100000], [0b10000000]], dtype=np.uint8)
    assert majority_centroid(codes).tolist() == [0b10000000]
    # even split: every contested bit ties, and ties go to 0
    even = np.array([[0b11110000], [0b00000000]], dtype=np.uint8)
    assert majority_centroid(even).tolist() == [0b00000000]
    single = np.array([[0xCD, 0x12]], dtype=np.uint8)
    assert np.array_equal(majority_centroid(single), single[0])


def test_majority_equals_binarized_mean():
    # the two routes must agree bit for bit, including all tie cases
    rng = np.random.default_rng(10)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        codes = rng.integers(0, 256, size=(n, 8), dtype=np.uint8)
        via_votes = majority_centroid(codes)
        via_mean = binarize_matrix(real_mean(realize_matrix(codes))[None, :])[0]
        assert np.array_equal(via_votes, via_mean)


def test_majority_minimizes_hamming_sum_for_odd_sets():
    # with an odd count there are no ties and the majority vote is the unique
    # minimizer of the summed Hamming distance over all 256 single-octet codes
    rng = np.random.default_rng(11)
    all_codes = np.arange(256, dtype=np.uint8)[:, None]
    for _ in range(50):
        n = int(rng.choice([3, 5, 7, 9]))
        codes = rng.integers(0, 256, size=(n, 1), dtype=np.uint8)
        costs = hamming_cdist(all_codes, codes).sum(axis=1)
        best = int(costs.argmin())
        assert int(majority_centroid(codes)[0]) == best
        assert (costs == costs[best]).sum() == 1  # unique for odd n


def test_hamming_to_all_and_cdist_match_scalar():
    rng = np.random.default_rng(12)
    a = rng.integers(0, 256, size=(17, 5), dtype=np.uint8)
    c = rng.integers(0, 256, size=(9, 5), dtype=np.uint8)
    d = hamming_cdist(a, c)
    assert d.shape == (17, 9)
    for i in range(17):
        assert np.array_equal(hamming_to_all(a[i], c), d[i])
        for j in range(9):
            assert d[i, j] == hamming(a[i], c[j])
    assert np.array_equal(hamming_rows(a[:9], c), d[np.arange(9), np.arange(9)])


def test_hamming_kernel_equals_the_octet_reference(monkeypatch):
    # the fixed-candidate table and the per-block core, XORing in place into
    # a gathered buffer as the descent does, against the octet loop: widths
    # that are no multiple of 64 bits (a padded last word), 65,544 bits
    # (uint32 sums), repeated candidates (first-minimum ties) and block caps
    # from one column upward
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from oracles import octet_cdist
    kernel = hbow.descriptors

    @hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @hypothesis.given(octets=st.sampled_from([o for o in range(1, 34) if o % 8] + [8193]),
                      rows=st.integers(0, 40), k=st.integers(1, 12), pool=st.integers(1, 12),
                      cap=st.sampled_from([1, 64, 2000, kernel._HAMMING_BLOCK_BYTES]),
                      seed=st.integers(0, 2 ** 16))
    def check(octets, rows, k, pool, cap, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 256, size=(pool, octets), dtype=np.uint8)
        values[rng.random(pool) < 0.3] = 255  # all-ones and all-zeros rows are
        values[rng.random(pool) < 0.3] = 0    # the farthest apart
        codes = values[rng.integers(pool, size=rows)]
        cands = values[rng.integers(pool, size=k)]
        want = octet_cdist(cands, codes)
        words, cwords = kernel._word_major(codes), kernel._word_major(cands)
        wide = np.uint32 if octets * 8 > 65536 else np.uint16
        with monkeypatch.context() as m:
            m.setattr(kernel, "_HAMMING_BLOCK_BYTES", cap)
            table = kernel._hamming_table(words, cwords)
            gathered = cwords.take(np.repeat(np.arange(k)[:, None], rows, axis=1), axis=1)
            block = kernel._xor_distances(gathered, words[:, None, :], gathered)
            got_cdist, got_all = hamming_cdist(cands, codes), hamming_to_all(cands[0], codes)
        assert table.dtype == block.dtype == wide
        assert np.array_equal(table, want) and np.array_equal(block, want)
        assert got_cdist.dtype == got_all.dtype == np.int64
        assert np.array_equal(got_cdist, want) and np.array_equal(got_all, want[0])
        first = [min(range(k), key=lambda j: want[j, i]) for i in range(rows)]
        assert table.argmin(axis=0).tolist() == block.argmin(axis=0).tolist() == first

    check()
    # a distance past 2**16 - 1 keeps its value
    ones, zeros = np.full((1, 8193), 255, np.uint8), np.zeros((1, 8193), np.uint8)
    assert hamming_cdist(ones, np.vstack([zeros, ones])).tolist() == [[65544, 0]]


def test_width_and_dtype_errors():
    with pytest.raises(CorpusConsistencyError):
        hamming_to_all(b(1, 2), b(1, 2, 3))
    with pytest.raises(CorpusConsistencyError):
        hamming_to_all(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    with pytest.raises(CorpusConsistencyError):
        hamming_cdist(b(1, 2)[None, :], np.zeros((3, 3), dtype=np.uint8))
    with pytest.raises(InsufficientPointsError):
        majority_centroid(np.empty((0, 4), dtype=np.uint8))
    with pytest.raises(CorpusConsistencyError, match="1-d octet row"):
        hamming_to_all(np.zeros((1, 2), dtype=np.uint8), np.zeros((3, 2), dtype=np.uint8))
    with pytest.raises(CorpusConsistencyError, match="shape mismatch"):
        hamming_rows(np.zeros((3, 2), dtype=np.uint8), np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(CorpusConsistencyError, match="matrix"):
        DescriptorSet(np.zeros((2, 3, 4), dtype=np.uint8))


def test_descriptor_set_group_accounting():
    codes = np.arange(40, dtype=np.uint8).reshape(10, 4)
    ds = DescriptorSet(codes, np.array([3, 3, 10]))  # middle group is empty
    assert len(ds) == 10
    assert ds.bits == 32
    assert ds.group_count == 3
    assert ds.group_range(0) == (0, 3)
    assert ds.group_range(1) == (3, 3)
    assert ds.group_codes(1).shape == (0, 4)
    assert ds.group_range(2) == (3, 10)
    assert sum(ds.group_codes(i).shape[0] for i in range(ds.group_count)) == 10
    for i in (-1, ds.group_count):
        with pytest.raises(IndexError, match="out of range"):
            ds.group_range(i)


def test_descriptor_set_group_index_must_be_an_integer():
    # a bool, a float, a string or None is no group index; numpy's int is one
    ds = DescriptorSet(np.arange(40, dtype=np.uint8).reshape(10, 4), np.array([3, 3, 10]))
    for bad in (True, np.True_, 1.0, "1", None):
        for get in (ds.group_range, ds.group_codes):
            with pytest.raises(IndexError, match="group must be an integer"):
                get(bad)
    assert ds.group_range(np.int64(2)) == (3, 10)
    assert ds.group_codes(np.int64(1)).shape == (0, 4)


def test_descriptor_set_defaults_and_empty():
    codes = np.zeros((5, 2), dtype=np.uint8)
    assert DescriptorSet(codes).group_count == 1  # no metadata = one group
    empty = DescriptorSet(np.zeros((0, 2), dtype=np.uint8))
    assert len(empty) == 0 and empty.group_count == 0


def test_descriptor_set_validation():
    codes = np.zeros((4, 2), dtype=np.uint8)
    with pytest.raises(CorpusConsistencyError):
        DescriptorSet(codes, np.array([3, 2, 4]))  # not ascending
    with pytest.raises(CorpusConsistencyError):
        DescriptorSet(codes, np.array([2, 3]))  # last end != n
    # more than n + 1 distinct offsets cannot ascend to n; a range is
    # checked by its length, without listing it
    for too_long in (range(1, 2 ** 40), range(0, 6), range(2 ** 70, -1, -1), range(-2 ** 70, 4)):
        with pytest.raises(CorpusConsistencyError, match="more than 5 values"):
            DescriptorSet(codes, too_long)
    assert DescriptorSet(codes, range(0, 5)).group_ends.tolist() == [0, 1, 2, 3, 4]
    with pytest.raises(CorpusConsistencyError):
        DescriptorSet(np.zeros((4, 2), dtype=np.int32))


def test_group_ends_must_be_integers_within_int64():
    # 1.5 once truncated to 1, "1" parsed and 2**63 raised a plain
    # OverflowError; [True, 3] was read as [1, 3], [[1], [3]] flattened and a
    # bare 3 read as [3]; ranges, integer arrays of any width and the empty
    # default keep working
    codes = np.zeros((3, 2), dtype=np.uint8)
    for bad in ([1.5, 3], ["1", "3"], [2 ** 63, 3], [2 ** 64, 3], np.array([1.0, 3.0]),
                np.array([2 ** 63, 3], dtype=np.uint64), [True, True, True], [None],
                [-2 ** 70, 3], [1, None], np.array([1, 3], dtype=object) + 0.5,
                [True, 3], [[1], [3]], 3, np.array([[1, 3]]), range(2 ** 63, 2 ** 63 + 1)):
        with pytest.raises(CorpusConsistencyError, match="integers within int64"):
            DescriptorSet(codes, bad)
    for good, want in ((range(1, 4), [1, 2, 3]), (np.array([1, 3], dtype=np.int32), [1, 3]),
                       (np.array([0, 3], dtype=np.uint64), [0, 3]), ([np.int16(3)], [3]),
                       (None, [3]), ([], [3]), (np.array([]), [3]), (range(0), [3])):
        ends = DescriptorSet(codes, good).group_ends
        assert ends.dtype == np.int64 and ends.tolist() == want
    assert DescriptorSet(np.zeros((0, 2), dtype=np.uint8), []).group_count == 0


def test_from_groups_concatenates_in_order():
    rng = np.random.default_rng(13)
    parts = [rng.integers(0, 256, size=(m, 3), dtype=np.uint8) for m in (4, 0, 7)]
    ds = DescriptorSet.from_groups(parts)
    assert ds.group_ends.tolist() == [4, 4, 11]
    assert np.array_equal(ds.group_codes(2), parts[2])
    with pytest.raises(CorpusConsistencyError):
        DescriptorSet.from_groups([parts[0], rng.integers(0, 256, size=(2, 5), dtype=np.uint8)])
    with pytest.raises(InsufficientPointsError, match="at least one group"):
        DescriptorSet.from_groups([])
