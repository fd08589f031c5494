import json
import os
import stat
import struct
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from hbow import (
    DescriptorFileError,
    DescriptorSet,
    FormatError,
    Strategy,
    TrainConfig,
    VocabularyFileError,
    load_vocabulary,
    lookup_words,
    read_descriptors,
    read_vocab_json,
    read_vocab_text,
    save_vocabulary,
    Vocabulary,
    train,
    write_descriptors,
    write_rows_csv,
    write_rows_json,
    write_vocab_json,
    write_vocab_text,
)
import hbow.cli
import hbow.io
from hbow.cli import main
from hbow.io import _TEXT_BLOCK_BYTES
from oracles import lookup_word

HEADER = struct.Struct("<4sIIQQ")


def _random_set(n, octets, seed, groups=None):
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 256, size=(n, octets), dtype=np.uint8)
    return DescriptorSet(codes=codes, group_ends=groups)


def _grouped_vocab(seed=0, k=4, L=2, n=2000, octets=8, strategy=Strategy.GLOBAL_HBRB):
    rng = np.random.default_rng(seed)
    ds = DescriptorSet(codes=rng.integers(0, 256, size=(n, octets), dtype=np.uint8),
                       group_ends=list(range(100, n + 1, 100)))
    cfg = TrainConfig(k=k, L=L, strategy=strategy, max_iters=30, seed=seed)
    return train(ds, cfg)


# ---------------------------------------------------------------- binary format


def test_descriptor_empty_set_round_trip(tmp_path):
    path = tmp_path / "empty.hbdc"
    write_descriptors(path, DescriptorSet(codes=np.zeros((0, 32), dtype=np.uint8)))
    raw = path.read_bytes()
    assert len(raw) == HEADER.size
    magic, version, bits, count, groups = HEADER.unpack(raw)
    assert (magic, version, bits, count, groups) == (b"HBDC", 1, 256, 0, 0)
    back = read_descriptors(path)
    assert len(back) == 0 and back.bits == 256 and back.group_count == 0


def test_descriptor_file_size_arithmetic(tmp_path):
    path = tmp_path / "three.hbdc"
    ds = _random_set(3, 32, seed=1)
    write_descriptors(path, ds)
    raw = path.read_bytes()
    # header + 3 x 32 payload octets + one u64 end offset
    assert len(raw) == HEADER.size + 96 + 8
    assert struct.unpack_from("<Q", raw, HEADER.size + 96)[0] == 3


def test_descriptor_round_trip_is_byte_identical(tmp_path):
    ends = [100, 1500, 4000, 9000, 10_000]
    ds = _random_set(10_000, 32, seed=7, groups=ends)
    p1 = tmp_path / "a.hbdc"
    p2 = tmp_path / "b.hbdc"
    write_descriptors(p1, ds)
    back = read_descriptors(p1)
    write_descriptors(p2, back)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(back.codes, ds.codes)
    assert np.array_equal(back.group_ends, ds.group_ends)


def test_descriptor_write_does_not_copy_the_payload(tmp_path):
    # the payload goes to the file from the codes' own buffer: a writer that
    # copies it first (`tobytes`) peaks at the payload's 3.2 MB
    ds = _random_set(100_000, 32, seed=3, groups=[40_000, 100_000])
    path = tmp_path / "big.hbdc"
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        write_descriptors(path, ds)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 1 << 20, peak
    raw = HEADER.pack(b"HBDC", 1, 256, 100_000, 2) + ds.codes.tobytes() \
        + np.array([40_000, 100_000], dtype="<u8").tobytes()
    assert path.read_bytes() == raw
    # the in-place path for pipes writes the same bytes
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()), daemon=True)
    reader.start()
    write_descriptors(pipe, ds)
    reader.join(timeout=10)
    assert got == [raw]


def test_descriptor_missing_group_table_means_one_group(tmp_path):
    ds = _random_set(5, 4, seed=2)
    header = HEADER.pack(b"HBDC", 1, 32, 5, 0)
    path = tmp_path / "nogroups.hbdc"
    path.write_bytes(header + ds.codes.tobytes())
    back = read_descriptors(path)
    assert back.group_count == 1
    assert np.array_equal(back.group_ends, [5])


def test_descriptor_parse_errors_name_the_field(tmp_path):
    path = tmp_path / "bad.hbdc"
    good = HEADER.pack(b"HBDC", 1, 32, 2, 1) + bytes(8) + struct.pack("<Q", 2)

    path.write_bytes(good[:10])
    with pytest.raises(DescriptorFileError, match="truncated header"):
        read_descriptors(path)

    path.write_bytes(b"XXXX" + good[4:])
    with pytest.raises(DescriptorFileError, match="magic"):
        read_descriptors(path)

    path.write_bytes(HEADER.pack(b"HBDC", 9, 32, 2, 1) + good[HEADER.size:])
    with pytest.raises(DescriptorFileError, match="version 9"):
        read_descriptors(path)

    path.write_bytes(HEADER.pack(b"HBDC", 1, 12, 2, 1) + good[HEADER.size:])
    with pytest.raises(DescriptorFileError, match="descriptor_bits"):
        read_descriptors(path)

    path.write_bytes(good[:-4])
    with pytest.raises(DescriptorFileError, match="header implies"):
        read_descriptors(path)

    path.write_bytes(good + b"\x00")
    with pytest.raises(DescriptorFileError, match="trailing"):
        read_descriptors(path)

    bad_table = HEADER.pack(b"HBDC", 1, 32, 2, 1) + bytes(8) + struct.pack("<Q", 7)
    path.write_bytes(bad_table)
    with pytest.raises(DescriptorFileError, match="group_ends"):
        read_descriptors(path)

    # an end offset of 2**64 - 1 reads as -1 once signed; it must not get past the reader
    path.write_bytes(HEADER.pack(b"HBDC", 1, 32, 2, 2) + bytes(8) + struct.pack("<QQ", 2**64 - 1, 2))
    with pytest.raises(DescriptorFileError, match="group_ends"):
        read_descriptors(path)


def test_descriptors_read_from_a_pipe(tmp_path):
    # a pipe reports size 0, so the reader must not trust the size it is given
    ds = _random_set(50, 8, seed=4, groups=[20, 50])
    write_descriptors(tmp_path / "d.hbdc", ds)
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    raw = (tmp_path / "d.hbdc").read_bytes()
    writer = threading.Thread(target=lambda: pipe.write_bytes(raw), daemon=True)
    writer.start()
    back = read_descriptors(pipe)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert np.array_equal(back.codes, ds.codes) and np.array_equal(back.group_ends, [20, 50])
    back.codes[0, 0] ^= 1  # the codes own a writable buffer, as a copy would


def test_descriptor_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "clean.hbdc"
    write_descriptors(path, _random_set(10, 8, seed=0))
    assert os.listdir(tmp_path) == ["clean.hbdc"]


def test_a_failed_replace_keeps_the_old_file_and_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "kept.hbdc"
    write_descriptors(path, _random_set(10, 8, seed=0))
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        write_descriptors(path, _random_set(20, 8, seed=1))
    assert os.listdir(tmp_path) == ["kept.hbdc"]
    assert path.read_bytes() == before


def test_writes_to_a_pipe_go_in_place(tmp_path):
    # the pipe stands in for /dev/null or /dev/stdout, which a rename would replace
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_bytes()), daemon=True)
    reader.start()
    write_rows_json(pipe, [{"seed": 1}])
    reader.join(timeout=10)
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)
    assert got == [b'[\n  {\n    "seed": 1\n  }\n]\n']
    assert os.listdir(tmp_path) == ["pipe"]


def test_written_files_get_the_mode_a_plain_open_gives(tmp_path):
    # the temporary file once came from mkstemp, whose mode 0600 the rename
    # kept, so every written file was its owner's alone whatever the umask
    vocab = _grouped_vocab(k=3, L=2, n=300)
    writers = {
        "d.hbdc": lambda p: write_descriptors(p, _random_set(10, 8, seed=0)),
        "v.txt": lambda p: write_vocab_text(p, vocab),
        "v.json": lambda p: write_vocab_json(p, vocab),
        "e.csv": lambda p: write_rows_csv(p, [{"seed": 1}]),
        "e.json": lambda p: write_rows_json(p, [{"seed": 1}]),
        "bow.json": lambda p: hbow.cli._emit({"groups": []}, p),
    }
    old = os.umask(0o022)
    try:
        for umask in (0o022, 0o077):
            os.umask(umask)
            folder = tmp_path / f"umask{umask:03o}"
            folder.mkdir()
            (folder / "plain").open("wb").close()
            plain = stat.S_IMODE(os.stat(folder / "plain").st_mode)
            assert plain == 0o666 & ~umask
            for name, write in writers.items():
                write(folder / name)
                assert stat.S_IMODE(os.stat(folder / name).st_mode) == plain, name
                # a replaced file keeps its own mode
                os.chmod(folder / name, 0o640)
                write(folder / name)
                assert stat.S_IMODE(os.stat(folder / name).st_mode) == 0o640, name
            assert sorted(os.listdir(folder)) == sorted([*writers, "plain"])
    finally:
        os.umask(old)


# ---------------------------------------------------------------- text format


def test_text_single_leaf_vocabulary_is_two_lines(tmp_path):
    code = np.array([0xC3] * 8, dtype=np.uint8)
    ds = DescriptorSet(codes=np.tile(code, (6, 1)))
    vocab = train(ds, TrainConfig(k=2, L=2, strategy=Strategy.KMAJORITY, seed=0))
    path = tmp_path / "one.txt"
    write_vocab_text(path, vocab)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == "2 2 0 0"
    fields = lines[1].split()
    assert fields[0] == "0" and fields[1] == "1"
    assert [int(x) for x in fields[2:-1]] == [0xC3] * 8


def test_text_two_leaf_tree_is_three_lines(tmp_path):
    a = np.array([0x00] * 4, dtype=np.uint8)
    b = np.array([0xFF] * 4, dtype=np.uint8)
    ds = DescriptorSet(codes=np.vstack([np.tile(a, (6, 1)), np.tile(b, (6, 1))]))
    vocab = train(ds, TrainConfig(k=2, L=1, strategy=Strategy.KMAJORITY, seed=0))
    path = tmp_path / "two.txt"
    write_vocab_text(path, vocab)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split()
        assert fields[0] == "0" and fields[1] == "1"


def test_text_round_trip_preserves_structure_and_lookups(tmp_path):
    vocab = _grouped_vocab(seed=3)
    path = tmp_path / "vocab.txt"
    write_vocab_text(path, vocab)
    back = read_vocab_text(path)

    assert back.k == vocab.k and back.L == vocab.L
    assert back.descriptor_bits == vocab.descriptor_bits
    assert back.word_count == vocab.word_count
    assert np.array_equal(back.parent, vocab.parent)
    assert np.array_equal(back.descent_children, vocab.descent_children)
    assert np.array_equal(back.centroids, vocab.centroids)
    assert np.array_equal(back.word_of_node, vocab.word_of_node)
    assert np.array_equal(back.weight, vocab.weight)

    probes = np.random.default_rng(55).integers(0, 256, size=(2000, 8), dtype=np.uint8)
    want_words, want_leaves = lookup_words(vocab, probes)
    got_words, got_leaves = lookup_words(back, probes)
    assert np.array_equal(want_words, got_words)
    assert np.array_equal(want_leaves, got_leaves)


def test_text_reserialization_is_byte_identical(tmp_path):
    vocab = _grouped_vocab(seed=5)
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    write_vocab_text(p1, vocab)
    write_vocab_text(p2, read_vocab_text(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_text_writer_writes_each_node_as_its_line_in_any_block_size(tmp_path, monkeypatch):
    # every octet value and float64 spellings repr keeps apart (signed zero,
    # subnormals, the extremes, integers past 2**53, inf, nan) through the
    # block writer's fixed-width records, against one formatted line per node
    rng = np.random.default_rng(8)
    specials = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 0.1, 1 / 3, 2.0 ** 53 + 2,
                1e16, 1.7976931348623157e308, np.inf, np.nan, 123456789.125]
    n = 300
    parent = np.append(-1, np.arange(n - 1) // 3)
    octets = rng.integers(0, 256, size=(n, 33), dtype=np.uint8)
    octets[1:257, 0] = np.arange(256)
    weight = rng.choice(np.array(specials), size=n)
    vocab = Vocabulary(3, 9, None, parent, octets, weight)
    want = "".join([f"{vocab.k} {vocab.L} 0 0\n"] + [
        f"{p} {int(leaf)} {' '.join(map(str, cent))} {w!r}\n" for p, leaf, cent, w in
        zip(parent[1:].tolist(), (vocab.word_of_node[1:] >= 0).tolist(), octets[1:].tolist(),
            weight[1:].tolist())]).encode("ascii")
    for nodes in (1, 7, 299, 300, hbow.io._TEXT_WRITE_NODES):
        monkeypatch.setattr(hbow.io, "_TEXT_WRITE_NODES", nodes)
        path = tmp_path / f"v{nodes}.txt"
        write_vocab_text(path, vocab)
        assert path.read_bytes() == want


def test_text_writer_memory_is_bounded_by_one_block(tmp_path, monkeypatch):
    # a full k=13, L=4 tree of 30,941 256-bit nodes (4.3 MB of text) written
    # 1,024 nodes at a time holds a few blocks' worth (0.12x the text), where
    # a writer that joins the whole text peaks at several times its size
    k, L = 13, 4
    n = sum(k ** d for d in range(L + 1))
    rng = np.random.default_rng(0)
    weight = np.where(np.arange(n) >= n - k ** L, rng.uniform(0.5, 4.0, n), 0.0)
    vocab = Vocabulary(k, L, None, np.append(-1, np.arange(n - 1) // k),
                       rng.integers(0, 256, size=(n, 32), dtype=np.uint8), weight)
    monkeypatch.setattr(hbow.io, "_TEXT_WRITE_NODES", 1024)
    path = tmp_path / "v.txt"
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        write_vocab_text(path, vocab)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < path.stat().st_size / 5, peak / path.stat().st_size


def test_text_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"

    path.write_text("")
    with pytest.raises(VocabularyFileError, match="line 1"):
        read_vocab_text(path)

    path.write_text("2 2 0\n")
    with pytest.raises(VocabularyFileError, match="line 1: header needs 4 fields"):
        read_vocab_text(path)

    path.write_text("2 x 0 0\n")
    with pytest.raises(VocabularyFileError, match="line 1: header fields"):
        read_vocab_text(path)

    path.write_text("0 6 0 0\n0 1 7 0.0\n")
    with pytest.raises(VocabularyFileError, match="line 1: k and L must be >= 1"):
        read_vocab_text(path)

    path.write_text("2 2 1 0\n0 1 7 0.0\n")
    with pytest.raises(VocabularyFileError, match="unsupported scoring"):
        read_vocab_text(path)

    path.write_text("2 2 0 0\n5 1 7 0.0\n")
    with pytest.raises(VocabularyFileError, match="line 2: parent 5"):
        read_vocab_text(path)

    path.write_text("2 2 0 0\n0 2 7 0.0\n")
    with pytest.raises(VocabularyFileError, match="line 2: is_leaf"):
        read_vocab_text(path)

    path.write_text("2 2 0 0\n0 0 7 0.0\n1 1 300 1.0\n1 1 5 1.0\n")
    with pytest.raises(VocabularyFileError, match=r"line 3: centroid octets must lie"):
        read_vocab_text(path)

    path.write_text("2 2 0 0\n0 0 7 0.0\n1 1 9 1.0\n1 1 5 4 1.0\n")
    with pytest.raises(VocabularyFileError, match="line 4: expected 4 fields, got 5"):
        read_vocab_text(path)

    path.write_text("2 2 0 0\n0 1 7 abc\n")
    with pytest.raises(VocabularyFileError, match="line 2: weight"):
        read_vocab_text(path)

    path.write_text("2 2 0 0\n0 1 7 -1.5\n")
    with pytest.raises(VocabularyFileError, match="line 2: weight must be finite"):
        read_vocab_text(path)

    path.write_text("2 2 0 0\n")
    with pytest.raises(VocabularyFileError, match="defines no nodes"):
        read_vocab_text(path)

    # referencing a leaf as a parent
    path.write_text("2 2 0 0\n0 1 7 0.0\n1 1 5 1.0\n")
    with pytest.raises(VocabularyFileError, match="line 3: parent 1 is a leaf"):
        read_vocab_text(path)

    # internal node that never receives children
    path.write_text("2 2 0 0\n0 0 7 0.0\n0 1 5 1.0\n")
    with pytest.raises(VocabularyFileError, match="marked internal"):
        read_vocab_text(path)

    path.write_bytes("2 2 0 0\n0 1 7 0.0\n0 1 \u00e9 1.0\n".encode("utf-8"))
    with pytest.raises(VocabularyFileError, match="line 3: non-ASCII"):
        read_vocab_text(path)

    path.write_text("2 2 0 0\n0 0 7 0.0\n\n1 1 5 1.0\n")
    with pytest.raises(VocabularyFileError, match="line 3: expected 4 fields, got 0"):
        read_vocab_text(path)
    path.write_text("2 2 0 0\n \x0c\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's no-data warning must not leak out
        with pytest.raises(VocabularyFileError, match="line 2: expected 4 fields, got 0"):
            read_vocab_text(path)

    # only "\n" numbers lines: "\x0c" and "\r" separate fields inside a line
    path.write_text("2 2 0 0\n0 0\x0c7 0.0\n1 1 9 1.0\x0c\n1 1 5 4 1.0\n")
    with pytest.raises(VocabularyFileError, match="line 4: expected 4 fields, got 5"):
        read_vocab_text(path)
    path.write_bytes(b"2 2 0 0\r\n0 0\x0c7 0.0\r\n1 1 9 1.0\x0b\r\n1 1 5\r1.0\r\n")
    assert read_vocab_text(path).word_count == 2

    # decimal tokens only: no Python-only underscores, no float spelling of an integer
    for line, message in [("0 1 1_0 0.5", "line 2: centroid octet '1_0' does not parse"),
                          ("0 1 7 1_0.5", "line 2: weight '1_0.5' does not parse"),
                          ("0 1 7.0 0.5", "line 2: centroid octet '7.0' does not parse"),
                          ("0 1_0 7 0.5", "line 2: is_leaf flag '1_0' does not parse"),
                          ("0x0 1 7 0.5", "line 2: parent id '0x0' does not parse")]:
        path.write_text(f"2 2 0 0\n{line}\n")
        with pytest.raises(VocabularyFileError, match=message):
            read_vocab_text(path)
    path.write_text("2 2_0 0 0\n0 1 7 0.5\n")
    with pytest.raises(VocabularyFileError, match="line 1: header fields must be integers"):
        read_vocab_text(path)



def test_text_parse_errors_carry_line_numbers_in_tiny_blocks(tmp_path, monkeypatch):
    # 3-byte reads split every line, so a loader that numbered lines per
    # block, or lost the partial line between reads, would misname them
    monkeypatch.setattr("hbow.io._TEXT_BLOCK_BYTES", 3)
    test_text_parse_errors_carry_line_numbers(tmp_path)

def test_text_loader_numbers_words_in_line_order(tmp_path):
    # root -> internal A (0), leaf B (200), internal C (255); A -> leaves 1,
    # 2; C -> leaves 250, 251. Stored breadth-first, leaf B comes before A's
    # leaves, so it takes word 0, as DBoW2's loader numbers it; depth-first
    # numbering would give it word 2
    breadth_first = (
        "3 2 0 0\n"
        "0 0 0 0.0\n"      # node 1, A
        "0 1 200 1.0\n"    # node 2, B (word 0)
        "0 0 255 0.0\n"    # node 3, C
        "1 1 1 1.0\n"      # node 4, leaf (word 1)
        "1 1 2 1.0\n"      # node 5, leaf (word 2)
        "3 1 250 1.0\n"    # node 6, leaf (word 3)
        "3 1 251 1.0\n"    # node 7, leaf (word 4)
    )
    # the same tree stored depth-first: parents still precede children
    depth_first = (
        "3 2 0 0\n"
        "0 0 0 0.0\n"      # node 1, A
        "1 1 1 1.0\n"      # node 2, leaf (word 0)
        "1 1 2 1.0\n"      # node 3, leaf (word 1)
        "0 1 200 1.0\n"    # node 4, B (word 2)
        "0 0 255 0.0\n"    # node 5, C
        "5 1 250 1.0\n"    # node 6, leaf (word 3)
        "5 1 251 1.0\n"    # node 7, leaf (word 4)
    )
    probes = np.array([[1], [2], [200], [250], [251]], dtype=np.uint8)
    reached = []
    for text, word_of_node, leaves, words in (
            (breadth_first, [-1, -1, 0, -1, 1, 2, 3, 4], [4, 5, 2, 6, 7], [1, 2, 0, 3, 4]),
            (depth_first, [-1, -1, 0, 1, 2, -1, 3, 4], [2, 3, 4, 6, 7], [0, 1, 2, 3, 4])):
        path = tmp_path / "tree.txt"
        path.write_text(text)
        vocab = read_vocab_text(path)
        assert vocab.word_count == 5
        assert vocab.word_of_node.tolist() == word_of_node
        got_words, got_leaves = lookup_words(vocab, probes)
        assert got_leaves.tolist() == leaves and got_words.tolist() == words
        reached.append(vocab.centroids[got_leaves])
    assert np.array_equal(*reached)  # both files descend to the same leaves


def test_word_ids_are_leaf_ranks_in_node_order_through_round_trips(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @hypothesis.given(picks=st.lists(st.integers(0, 2 ** 16), min_size=1, max_size=60),
                      seed=st.integers(0, 2 ** 16))
    def check(picks, seed):
        # node i + 1 hangs under any earlier node: a random topological order
        parent = [-1] + [pick % (i + 1) for i, pick in enumerate(picks)]
        n = len(parent)
        depth = [0] * n
        for i in range(1, n):
            depth[i] = depth[parent[i]] + 1
        fanout = np.bincount(parent[1:], minlength=n)
        is_leaf = [i > 0 and fanout[i] == 0 for i in range(n)]
        want, word = [], 0
        for leaf in is_leaf:
            want.append(word if leaf else -1)
            word += leaf
        rng = np.random.default_rng(seed)
        weight = np.where(is_leaf, rng.uniform(0.0, 5.0, n), 0.0)
        vocab = Vocabulary(max(2, int(fanout.max())), max(depth), None, parent,
                           rng.integers(0, 256, size=(n, 3), dtype=np.uint8), weight)
        assert vocab.word_of_node.tolist() == want
        assert np.array_equal(vocab.word_weight, weight[vocab.word_of_node >= 0])
        for suffix in (".txt", ".json"):
            path = tmp_path / f"v{suffix}"
            save_vocabulary(path, vocab)
            back = load_vocabulary(path)
            assert np.array_equal(back.word_of_node, vocab.word_of_node)
            assert np.array_equal(back.word_weight, vocab.word_weight)

    check()


# ---------------------------------------------------------------- text blocks

_ONE_BLOCK = 1 << 20  # larger than every text file these tests write
_CRLF_FIXTURE = b"2 2 0 0\r\n0 0\x0c7 0.0\r\n1 1 9 1.0\x0b\r\n1 1 5\r1.0\r\n"


def _text_outcome(path):
    """The arrays a text load gives, or its error message."""
    try:
        return _arrays(read_vocab_text(path))
    except VocabularyFileError as exc:
        return str(exc)


def _outcome_in_blocks(monkeypatch, path, block_bytes):
    with monkeypatch.context() as m:
        m.setattr("hbow.io._TEXT_BLOCK_BYTES", block_bytes)
        return _text_outcome(path)


def _same(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return len(a) == len(b) and all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
                                    for x, y in zip(a, b))


@pytest.mark.parametrize("strategy", list(Strategy))
def test_text_loads_alike_in_any_block_size(tmp_path, monkeypatch, strategy):
    # lines of 100+ bytes against blocks of 1-64 bytes: a boundary falls
    # inside tokens, between fields and several times within one line
    path = tmp_path / "v.txt"
    write_vocab_text(path, _grouped_vocab(seed=2, k=3, L=2, n=300, octets=32, strategy=strategy))
    one = _outcome_in_blocks(monkeypatch, path, _ONE_BLOCK)
    assert not isinstance(one, str), one
    for block_bytes in (1, 2, 7, 16, 64, 1000):
        assert _same(_outcome_in_blocks(monkeypatch, path, block_bytes), one), block_bytes


def test_text_block_boundaries_in_crlf_and_unterminated_lines(tmp_path, monkeypatch):
    # every block size up to the file's length puts a boundary at every
    # offset, so 8-byte blocks end the first read between the header's "\r"
    # and "\n"; the last line may lack its "\r\n" or its "\n"
    assert _CRLF_FIXTURE[7:9] == b"\r\n"
    path = tmp_path / "v.txt"
    for data in (_CRLF_FIXTURE, _CRLF_FIXTURE[:-1], _CRLF_FIXTURE[:-2]):
        path.write_bytes(data)
        one = _outcome_in_blocks(monkeypatch, path, _ONE_BLOCK)
        assert not isinstance(one, str) and read_vocab_text(path).word_count == 2, one
        for block_bytes in range(1, len(data) + 2):
            assert _same(_outcome_in_blocks(monkeypatch, path, block_bytes), one), (data, block_bytes)


def test_text_errors_in_a_later_block_name_the_file_line(tmp_path, monkeypatch):
    path = tmp_path / "v.txt"
    write_vocab_text(path, _grouped_vocab(seed=4, k=3, L=2, n=300, octets=4))
    *lines, leaf = path.read_bytes().split(b"\n")[:-1]
    last = len(lines) + 1  # the file line number of `leaf`, the last node
    fields = leaf.split(b" ")
    assert fields[1] == b"1" and sum(map(len, lines)) > 200

    def respell(index, token):
        return b" ".join(fields[:index] + [token] + fields[index + 1:])

    for body, message in [
        (lines + [b"", leaf], f"line {last}: expected 7 fields, got 0"),
        (lines + [leaf + b"\xe9"], f"line {last}: non-ASCII byte"),
        (lines + [respell(2, b"1_0")], f"line {last}: centroid octet '1_0' does not parse"),
        (lines + [respell(1, b"2")], f"line {last}: is_leaf flag must be 0 or 1"),
        (lines + [respell(2, b"300")], f"line {last}: centroid octets must lie in [0, 255]"),
        (lines + [respell(2, b"70000")], f"line {last}: centroid octet '70000' does not parse as int16"),
        # the first faulty line in file order wins, whichever check finds it
        (lines[:2] + [lines[2] + b"\xe9"] + lines[3:] + [respell(2, b"1_0")], "line 3: non-ASCII"),
        (lines[:2] + [lines[2] + b" 1"] + lines[3:] + [leaf + b"\xe9"], "line 3: expected 7 fields"),
    ]:
        path.write_bytes(b"\n".join(body) + b"\n")
        one = _outcome_in_blocks(monkeypatch, path, _ONE_BLOCK)
        assert isinstance(one, str) and one.startswith(message), (message, one)
        for block_bytes in (1, 16, 100):
            assert _outcome_in_blocks(monkeypatch, path, block_bytes) == one, (message, block_bytes)


def test_text_header_line_is_read_alone_in_any_block_size(tmp_path, monkeypatch):
    # line 1 is read by itself, before the node blocks; a header without its
    # "\n" ends the file, and the header's fault wins over a later line's
    path = tmp_path / "v.txt"
    for data, message in [(b"2 2 0 0\xe9\n0 1 7 0.0\n", "line 1: non-ASCII byte"),
                          (b"2 2 \xe90 0\n0 1 \xe9 0.0\n", "line 1: non-ASCII byte"),
                          (b"2 2 0 0\n0 1 \xe97 0.0\n0 1 5 1.0\n", "line 2: non-ASCII byte"),
                          (b"2 2 0 0\r\n\xe9\n", "line 2: non-ASCII byte"),
                          (b"2 2 0 0", "vocabulary file defines no nodes")]:
        path.write_bytes(data)
        for block_bytes in (_TEXT_BLOCK_BYTES, 1):
            assert _outcome_in_blocks(monkeypatch, path, block_bytes) == message, (data, block_bytes)


def test_text_vocabulary_read_from_a_pipe(tmp_path):
    # a pipe returns short reads, most of them without a "\n"
    path = tmp_path / "v.txt"
    write_vocab_text(path, _grouped_vocab(seed=6, k=3, L=2, n=300, octets=4))
    raw = path.read_bytes()
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)

    def write_in_pieces():
        with open(pipe, "wb", buffering=0) as fh:
            for start in range(0, len(raw), 5):
                fh.write(raw[start:start + 5])
                time.sleep(0.001)

    writer = threading.Thread(target=write_in_pieces, daemon=True)
    writer.start()
    back = read_vocab_text(pipe)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert _same(_arrays(back), _arrays(read_vocab_text(path)))


def test_text_loader_memory_is_bounded_by_the_loaded_arrays(tmp_path):
    # a full k=13, L=4 tree of 30,941 256-bit nodes (4.3 MB of text): the
    # whole-file loader peaked at 4.9x the arrays the vocabulary kept, the
    # block loader at 2.3x; numpy reports its buffers to tracemalloc. The
    # block loader's peak of 8.4 MiB is 2.6x the 3.3 MiB kept since the
    # descent tables hold only the nodes above the deepest level and are
    # built without a whole-tree child table
    k, L = 13, 4
    n = sum(k ** d for d in range(L + 1))
    rng = np.random.default_rng(0)
    weight = np.where(np.arange(n) >= n - k ** L, rng.uniform(0.5, 4.0, n), 0.0)
    path = tmp_path / "v.txt"
    write_vocab_text(path, Vocabulary(k, L, None, np.append(-1, np.arange(n - 1) // k),
                                      rng.integers(0, 256, size=(n, 32), dtype=np.uint8), weight))
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        vocab = read_vocab_text(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    kept = sum(getattr(vocab, name).nbytes for name in (
        "parent", "centroids", "weight", "word_of_node", "word_weight", "descent_words",
        "descent_children", "descent_slot"))
    assert vocab.word_count == k ** L
    assert peak <= 3 * kept + 2 * 2 ** 20, (peak / kept, kept)


# ---------------------------------------------------------------- json format


def test_json_round_trip_preserves_everything(tmp_path):
    vocab = _grouped_vocab(seed=9)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    write_vocab_json(p1, vocab)
    back = read_vocab_json(p1)
    assert back.strategy is Strategy.GLOBAL_HBRB
    assert back.k == vocab.k and back.L == vocab.L
    assert back.word_count == vocab.word_count
    assert np.array_equal(back.parent, vocab.parent)
    assert np.array_equal(back.centroids, vocab.centroids)
    assert np.array_equal(back.word_of_node, vocab.word_of_node)
    assert np.array_equal(back.weight, vocab.weight)
    write_vocab_json(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def _json_object(vocab):
    """The whole JSON file of `vocab` as one Python object."""
    return {
        "format": "hbow-vocabulary", "version": 1, "k": vocab.k, "L": vocab.L,
        "strategy": None if vocab.strategy is None else vocab.strategy.value,
        "descriptor_bits": vocab.descriptor_bits, "scoring": "L1", "weighting": "tf-idf",
        "nodes": [{"parent": p, "leaf": leaf, "centroid": cent, "weight": w} for p, leaf, cent, w
                  in zip(vocab.parent[1:].tolist(), (vocab.word_of_node[1:] >= 0).tolist(),
                         vocab.centroids[1:].tolist(), vocab.weight[1:].tolist())],
    }


@pytest.mark.parametrize("strategy", [Strategy.GLOBAL_HBRB, None])
def test_json_writer_writes_the_dumped_object_in_any_block_size(tmp_path, monkeypatch, strategy):
    # the node list is written in blocks; the file must be byte for byte the
    # whole object dumped at once, whether the strategy is set or `null` (a
    # second `null` before the nodes), for one node per block, uneven blocks,
    # a last block of one node, one block of every node and the default
    rng = np.random.default_rng(5)
    specials = [0.0, -0.0, 5e-324, 1e-05, 1 / 3, 2.0 ** 53 + 2, 1e16, np.inf, 123456789.125]
    n = 301
    vocab = Vocabulary(3, 9, strategy, np.append(-1, np.arange(n - 1) // 3),
                       rng.integers(0, 256, size=(n, 5), dtype=np.uint8),
                       rng.choice(np.array(specials), size=n))
    want = (json.dumps(_json_object(vocab), indent=1) + "\n").encode("ascii")
    for nodes in (1, 7, 299, 300, hbow.io._JSON_WRITE_NODES):
        monkeypatch.setattr(hbow.io, "_JSON_WRITE_NODES", nodes)
        path = tmp_path / f"v{nodes}.json"
        write_vocab_json(path, vocab)
        assert path.read_bytes() == want
    # a single-node tree is one block of one node
    single = Vocabulary(1, 1, strategy, [-1, 0], [[1], [2]], [0.0, 1.5])
    write_vocab_json(tmp_path / "one.json", single)
    assert (tmp_path / "one.json").read_bytes() == \
        (json.dumps(_json_object(single), indent=1) + "\n").encode("ascii")


def test_json_writer_memory_is_bounded_by_one_block(tmp_path):
    # a full k=16, L=3 tree of 4,369 256-bit nodes, five blocks of the
    # default 1,024 nodes: written a block at a time it peaks at about
    # 4 MiB under tracemalloc, where dumping the whole object at once peaks
    # near 16 MiB and grows with the tree
    k, L = 16, 3
    n = sum(k ** d for d in range(L + 1))
    rng = np.random.default_rng(0)
    weight = np.where(np.arange(n) >= n - k ** L, rng.uniform(0.5, 4.0, n), 0.0)
    vocab = Vocabulary(k, L, Strategy.GLOBAL_HBRB, np.append(-1, np.arange(n - 1) // k),
                       rng.integers(0, 256, size=(n, 32), dtype=np.uint8), weight)
    path = tmp_path / "v.json"
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        write_vocab_json(path, vocab)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 8 * 2 ** 20, peak / 2 ** 20
    assert path.read_bytes() == (json.dumps(_json_object(vocab), indent=1) + "\n").encode("ascii")


def test_json_parse_errors(tmp_path):
    path = tmp_path / "bad.json"

    path.write_text("{not json")
    with pytest.raises(VocabularyFileError, match="not valid JSON"):
        read_vocab_json(path)

    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(VocabularyFileError, match="format tag"):
        read_vocab_json(path)

    base = {
        "format": "hbow-vocabulary", "version": 1, "k": 2, "L": 1,
        "strategy": "kmajority", "descriptor_bits": 8,
        "nodes": [{"parent": 0, "leaf": True, "centroid": [7], "weight": 0.0}],
    }
    assert read_vocab_json(_dump(path, base)).word_count == 1

    # json.loads refuses an int of more than 4,300 digits with a plain
    # ValueError, which once made `hbow convert` exit 3
    for field in ('"k": 2', '"weight": 0.0'):
        name = field.split(":")[0]
        path.write_text(json.dumps(base).replace(field, f"{name}: {'9' * 5000}"))
        with pytest.raises(VocabularyFileError, match="not valid JSON"):
            read_vocab_json(path)
        assert main(["convert", "--src", str(path), "--dst", str(tmp_path / "out.txt")]) == 2
        assert not (tmp_path / "out.txt").exists()

    with pytest.raises(VocabularyFileError, match="version"):
        read_vocab_json(_dump(path, {**base, "version": 2}))

    with pytest.raises(VocabularyFileError, match="k and L must be >= 1"):
        read_vocab_json(_dump(path, {**base, "k": 0}))

    with pytest.raises(VocabularyFileError, match="missing vocabulary field 'nodes'"):
        read_vocab_json(_dump(path, {key: v for key, v in base.items() if key != "nodes"}))

    with pytest.raises(VocabularyFileError, match="unknown strategy 'mystery'"):
        read_vocab_json(_dump(path, {**base, "strategy": "mystery"}))

    with pytest.raises(VocabularyFileError, match="descriptor_bits"):
        read_vocab_json(_dump(path, {**base, "descriptor_bits": 12}))

    bad_nodes = [{"parent": 3, "leaf": True, "centroid": [7], "weight": 0.0}]
    with pytest.raises(VocabularyFileError, match="node 1: parent 3"):
        read_vocab_json(_dump(path, {**base, "nodes": bad_nodes}))

    bad_nodes = [{"parent": 0, "leaf": True, "centroid": [7, 8], "weight": 0.0}]
    with pytest.raises(VocabularyFileError, match="node 1: centroid"):
        read_vocab_json(_dump(path, {**base, "nodes": bad_nodes}))

    with pytest.raises(VocabularyFileError, match="defines no nodes"):
        read_vocab_json(_dump(path, {**base, "nodes": []}))

    # JSON types are strict: no truthy strings, truncated floats or bools as numbers
    node = base["nodes"][0]
    for field, value, message in [
        ("leaf", "false", "leaf must be true or false"),
        ("leaf", 0, "leaf must be true or false"),
        ("centroid", [1.9], "centroid octet must be a JSON integer"),
        ("centroid", [True], "centroid octet must be a JSON integer"),
        ("centroid", "7", "centroid must be 1 octets"),
        ("parent", 0.0, "parent must be a JSON integer"),
        ("weight", "0.5", "weight must be a JSON number"),
        ("weight", False, "weight must be a JSON number"),
        ("weight", 10 ** 400, "weight must be finite"),
        ("weight", -10 ** 400, "weight must be finite"),
        ("weight", -0.5, "weight must be finite and >= 0"),
        ("parent", 10 ** 30, "parent must be a JSON integer"),
        ("centroid", [2 ** 64], "centroid octet must be a JSON integer"),
        ("centroid", [256], "centroid octets must lie in"),
    ]:
        with pytest.raises(VocabularyFileError, match=f"node 1: {message}"):
            read_vocab_json(_dump(path, {**base, "nodes": [{**node, field: value}]}))
    for field, value, message in [
        ("k", 3.7, "k must be a JSON integer"),
        ("k", True, "k must be a JSON integer"),
        ("L", "1", "L must be a JSON integer"),
        ("descriptor_bits", 8.0, "descriptor_bits must be a JSON integer"),
        ("version", True, "unsupported version"),
        ("scoring", "l1", "unsupported scoring"),
        ("weighting", "bm25", "unsupported weighting"),
    ]:
        with pytest.raises(VocabularyFileError, match=message):
            read_vocab_json(_dump(path, {**base, field: value}))
    with pytest.raises(VocabularyFileError, match="node 1: bad fields"):
        read_vocab_json(_dump(path, {**base, "nodes": [[0, True, [7], 0.0]]}))
    assert read_vocab_json(_dump(path, {**base, "scoring": "L1",
                                        "weighting": "tf-idf"})).word_count == 1


def _dump(path, obj):
    path.write_text(json.dumps(obj))
    return path


# ---------------------------------------------------------------- dispatch


def test_save_load_dispatch_by_suffix(tmp_path):
    vocab = _grouped_vocab(seed=1)
    text_path = tmp_path / "v.txt"
    json_path = tmp_path / "v.json"
    save_vocabulary(text_path, vocab)
    save_vocabulary(json_path, vocab)
    assert text_path.read_text().splitlines()[0].split()[2:] == ["0", "0"]
    from_text = load_vocabulary(text_path)
    from_json = load_vocabulary(json_path)
    # the text format does not carry the strategy tag, JSON does
    assert from_text.strategy is None
    assert from_json.strategy is Strategy.GLOBAL_HBRB
    probe = np.random.default_rng(0).integers(0, 256, size=8, dtype=np.uint8)
    assert lookup_word(from_text, probe) == lookup_word(from_json, probe)


# ---------------------------------------------------------------- mutation fuzz

_RESPELL = b"0123456789-+.eE_x \n\r\x0c"


def _mutate(data: bytes, other: bytes, op: int, rng) -> bytes:
    """One seeded mutation: truncate, flip bits, respell number characters, or
    splice a prefix of `data` onto a suffix of `other`."""
    data = bytearray(data)
    if op == 0:
        del data[rng.integers(len(data)):]
    elif op == 1:
        for pos in rng.integers(len(data), size=rng.integers(1, 4)):
            data[pos] ^= 1 << int(rng.integers(8))
    elif op == 2:
        digits = [i for i, b in enumerate(data) if b in b"0123456789"] or range(len(data))
        for pos in rng.choice(digits, size=rng.integers(1, 3)):
            data[pos] = _RESPELL[rng.integers(len(_RESPELL))]
    else:
        data = data[:rng.integers(len(data) + 1)] + other[rng.integers(len(other) + 1):]
    return bytes(data)


def _arrays(obj):
    if isinstance(obj, DescriptorSet):
        return [obj.codes, obj.group_ends]
    return [obj.k, obj.L, obj.strategy, obj.descriptor_bits, obj.height, obj.parent,
            obj.centroids, obj.weight, obj.word_of_node, obj.word_weight, obj.descent_words,
            obj.descent_children, obj.descent_slot]


def _fuzz(tmp_path, rng, suffix, objs, write, read, good_vocab) -> set:
    """200 seeded mutants of two valid files of one format: every rejection
    is a FormatError, every accepted mutant round-trips, and the CLI exits 2
    on a sample of them, never 3. Returns the outcomes seen, as (suffix,
    accepted) pairs."""
    valid = []
    for obj in objs:
        write(tmp_path / f"valid{suffix}", obj)
        valid.append((tmp_path / f"valid{suffix}").read_bytes())
    path, resaved = tmp_path / f"mutant{suffix}", tmp_path / f"resaved{suffix}"
    outcomes = set()
    for m in range(200):
        path.write_bytes(_mutate(valid[m % 2], valid[1 - m % 2], m % 4, rng))
        try:
            loaded = read(path)
        except FormatError:
            accepted = False
        else:
            accepted = True
            write(resaved, loaded)
            for a, b in zip(_arrays(loaded), _arrays(read(resaved))):
                assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
        outcomes.add((suffix, accepted))
        if m % 5 == 0:
            if suffix == ".hbdc":
                argv = ["transform", "--vocab", str(good_vocab), "--corpus", str(path),
                        "--out", os.devnull]
            else:
                argv = ["convert", "--src", str(path), "--dst", str(tmp_path / "out.txt")]
            code = main(argv)
            assert code in (0, 2) and (code == 2 or accepted), (suffix, m, code)
    return outcomes


def test_mutated_files_are_rejected_as_format_errors_or_round_trip(tmp_path):
    rng = np.random.default_rng(20261018)
    vocabs = [_grouped_vocab(seed=s, k=3, L=2, n=200, octets=4) for s in (0, 1)]
    sets = [_random_set(12, 4, seed=2, groups=[3, 3, 7, 12]), _random_set(9, 4, seed=3)]
    good_vocab = tmp_path / "good.txt"
    write_vocab_text(good_vocab, vocabs[0])
    outcomes = set()
    for suffix, objs, write, read in [(".txt", vocabs, write_vocab_text, read_vocab_text),
                                      (".json", vocabs, write_vocab_json, read_vocab_json),
                                      (".hbdc", sets, write_descriptors, read_descriptors)]:
        outcomes |= _fuzz(tmp_path, rng, suffix, objs, write, read, good_vocab)
    assert len(outcomes) == 6  # each format had accepted and rejected mutants


def test_mutated_text_files_in_tiny_blocks(tmp_path, monkeypatch):
    # the text half of the fuzz above in 5-byte blocks, the CLI included;
    # each mutant also gives exactly the one-block arrays or message
    monkeypatch.setattr("hbow.io._TEXT_BLOCK_BYTES", 5)

    def read_alike(path):
        assert _same(_text_outcome(path), _outcome_in_blocks(monkeypatch, path, _ONE_BLOCK))
        return read_vocab_text(path)

    vocabs = [_grouped_vocab(seed=s, k=3, L=2, n=200, octets=4) for s in (0, 1)]
    outcomes = _fuzz(tmp_path, np.random.default_rng(20261018), ".txt", vocabs,
                     write_vocab_text, read_alike, None)
    assert len(outcomes) == 2
