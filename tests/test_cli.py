import contextlib
import csv
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from hbow import DescriptorSet, Strategy, load_vocabulary, read_descriptors, save_vocabulary, \
    write_descriptors, write_rows_csv
from hbow.cli import build_parser, main
from oracles import synth_clustered


def _write_corpus(path, num_clusters=6, per_cluster=40, bits=64, seed=0):
    ds = synth_clustered(num_clusters, per_cluster, 0.05, bits=bits, seed=seed)
    write_descriptors(path, ds)
    return ds


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------- parser


def test_train_defaults_are_k10_l6_hbrb():
    parser = build_parser()
    args = parser.parse_args(["train", "--corpus", "c.hbdc", "--out", "v.txt"])
    assert args.k == 10
    assert args.L == 6
    assert args.strategy == "hbrb"
    assert args.seed == 0


def test_eval_defaults():
    parser = build_parser()
    args = parser.parse_args(["eval"])
    assert args.k == 10 and args.L == 6
    assert sorted(args.strategies.split(",")) == ["hbrb", "kmajority", "local-brb"]
    assert args.seeds == "0"


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["train", "--help"]) == 0
    capsys.readouterr()


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["train", "--corpus", "c", "--out", "v", "--strategy", "bogus"]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------- exit codes


def test_train_with_k1_is_usage_error(tmp_path, capsys):
    corpus = tmp_path / "c.hbdc"
    _write_corpus(corpus)
    code = main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "v.txt"),
                 "--k", "1", "--L", "2"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_missing_corpus_is_data_error(tmp_path, capsys):
    code = main(["train", "--corpus", str(tmp_path / "absent.hbdc"),
                 "--out", str(tmp_path / "v.txt"), "--k", "2", "--L", "1"])
    assert code == 2
    capsys.readouterr()


def test_malformed_corpus_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.hbdc"
    bad.write_bytes(b"this is not a descriptor file at all")
    code = main(["train", "--corpus", str(bad), "--out", str(tmp_path / "v.txt"),
                 "--k", "2", "--L", "1"])
    assert code == 2
    capsys.readouterr()


def test_plain_value_error_from_the_library_is_an_internal_error(tmp_path, capsys,
                                                                   monkeypatch):
    # input checks raise a documented subclass; a bare ValueError is a bug
    def broken(path):
        raise ValueError("not an input problem")

    monkeypatch.setattr("hbow.cli.load_vocabulary", broken)
    code = main(["convert", "--src", str(tmp_path / "v.txt"), "--dst", str(tmp_path / "w.txt")])
    assert code == 3
    assert "internal error: not an input problem" in capsys.readouterr().err


def test_eval_with_garbage_seeds_is_usage_error(capsys):
    assert main(["eval", "--seeds", "a,b", "--places", "4", "--per-place", "5",
                 "--bits", "64", "--k", "2", "--L", "1",
                 "--out-csv", "/dev/null"]) == 1
    # an unknown strategy name is a usage error too, not an internal one
    assert main(["eval", "--strategies", "kmajority,nope", "--seeds", "0", "--places", "4",
                 "--per-place", "5", "--bits", "64", "--k", "2", "--L", "1",
                 "--out-csv", "/dev/null"]) == 1
    assert "unknown strategy 'nope'" in capsys.readouterr().err


# ---------------------------------------------------------------- workflows


def test_synth_train_eval_pipeline(tmp_path, capsys):
    frames = tmp_path / "frames.hbdc"
    protos = tmp_path / "protos.hbdc"
    gt = tmp_path / "gt.json"
    vocab_path = tmp_path / "vocab.txt"
    csv_path = tmp_path / "rows.csv"
    json_path = tmp_path / "rows.json"
    bow_path = tmp_path / "bow.json"

    assert main(["synth", "--places", "8", "--per-place", "20", "--revisit", "0.3",
                 "--flip", "0.05", "--bits", "64", "--seed", "1",
                 "--out", str(frames), "--train-out", str(protos),
                 "--gt", str(gt)]) == 0
    assert main(["train", "--corpus", str(protos), "--out", str(vocab_path),
                 "--k", "3", "--L", "2", "--strategy", "hbrb"]) == 0
    out = capsys.readouterr().out
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["word_count"] >= 2
    assert summary["mean_qe"] >= 0.0

    assert main(["transform", "--vocab", str(vocab_path), "--corpus", str(frames),
                 "--out", str(bow_path)]) == 0
    assert main(["eval", "--places", "8", "--per-place", "20", "--bits", "64",
                 "--k", "3", "--L", "2", "--max-iters", "30",
                 "--out-csv", str(csv_path), "--out-json", str(json_path)]) == 0
    printed = json.loads(capsys.readouterr().out)
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) >= 2
    assert {row["strategy"] for row in rows} == {"kmajority", "local-brb", "hbrb"}
    assert json.loads(json_path.read_text()) == printed
    assert csv_path.read_bytes().count(b"\r\n") == len(rows) + 1
    # every output went through a temp file and a rename, leaving nothing else
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        p.name for p in (frames, protos, gt, vocab_path, csv_path, json_path, bow_path))

    gt_obj = json.loads(gt.read_text())
    assert all(s < q for q, s in gt_obj["pairs"])
    assert len(gt_obj["frame_places"]) == round(8 / 0.7)


def test_transform_emits_normalized_groups(tmp_path, capsys):
    corpus = tmp_path / "c.hbdc"
    vocab_path = tmp_path / "v.txt"
    out = tmp_path / "bow.json"
    _write_corpus(corpus)
    assert main(["train", "--corpus", str(corpus), "--out", str(vocab_path),
                 "--k", "3", "--L", "2"]) == 0
    assert main(["transform", "--vocab", str(vocab_path), "--corpus", str(corpus),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert len(payload["groups"]) == 6
    for group in payload["groups"]:
        weights = list(group["words"].values())
        if weights:
            assert sum(weights) == pytest.approx(1.0, abs=1e-9)
            assert all(w > 0.0 for w in weights)


def test_query_self_match(tmp_path, capsys):
    corpus = tmp_path / "c.hbdc"
    vocab_path = tmp_path / "v.txt"
    out = tmp_path / "hits.json"
    _write_corpus(corpus)
    # enough words that distinct clusters cannot share a word histogram
    assert main(["train", "--corpus", str(corpus), "--out", str(vocab_path),
                 "--k", "4", "--L", "3"]) == 0
    assert main(["query", "--vocab", str(vocab_path), "--db", str(corpus),
                 "--queries", str(corpus), "--top", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert len(payload["queries"]) == 6
    for qi, entry in enumerate(payload["queries"]):
        top = entry["matches"][0]
        assert top["entry"] == qi
        assert top["score"] == pytest.approx(1.0, abs=1e-9)


def test_query_exclude_window(tmp_path, capsys):
    corpus = tmp_path / "c.hbdc"
    vocab_path = tmp_path / "v.txt"
    out = tmp_path / "hits.json"
    _write_corpus(corpus)
    assert main(["train", "--corpus", str(corpus), "--out", str(vocab_path),
                 "--k", "4", "--L", "3"]) == 0
    query = ["query", "--vocab", str(vocab_path), "--db", str(corpus),
             "--queries", str(corpus), "--top", "3", "--out", str(out)]
    assert main([*query, "--exclude-window", "0"]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    for qi, entry in enumerate(payload["queries"]):
        assert all(m["entry"] != qi for m in entry["matches"])
    # the command passes the whole window and the database clips it, so the
    # largest window excludes every entry without listing its ids
    with _time_limit(10):
        assert main([*query, "--exclude-window", str(2 ** 63 - 1)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert [entry["matches"] for entry in payload["queries"]] == [[]] * 6


def test_transform_and_query_print_their_file_to_stdout(tmp_path, capsys):
    corpus = tmp_path / "c.hbdc"
    vocab_path = tmp_path / "v.txt"
    _write_corpus(corpus)
    assert main(["train", "--corpus", str(corpus), "--out", str(vocab_path),
                 "--k", "3", "--L", "2"]) == 0
    capsys.readouterr()
    for command in (["transform", "--corpus", str(corpus)],
                    ["query", "--db", str(corpus), "--queries", str(corpus)]):
        args = [command[0], "--vocab", str(vocab_path), *command[1:]]
        out = tmp_path / f"{command[0]}.json"
        assert main([*args, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(args) == 0
        assert capsys.readouterr().out == out.read_text()


@pytest.mark.parametrize("command", ["transform", "query"])
def test_a_wrong_width_file_with_no_descriptors_is_a_data_error(tmp_path, capsys, command):
    # the width is checked once per file, so a file of no groups fails as one
    # of empty groups does
    corpus = tmp_path / "c.hbdc"
    vocab_path = tmp_path / "v.txt"
    _write_corpus(corpus)
    assert main(["train", "--corpus", str(corpus), "--out", str(vocab_path),
                 "--k", "3", "--L", "2"]) == 0
    capsys.readouterr()
    for ends in ([], [0], [0, 0]):
        wrong = tmp_path / f"wrong{len(ends)}.hbdc"
        write_descriptors(wrong, DescriptorSet(np.zeros((0, 16), dtype=np.uint8), ends))
        places = ([["--corpus", wrong]] if command == "transform" else
                  [["--db", wrong, "--queries", corpus], ["--db", corpus, "--queries", wrong]])
        for files in places:
            out = tmp_path / "out.json"
            assert main([command, "--vocab", str(vocab_path), *map(str, files),
                         "--out", str(out)]) == 2
            assert "descriptor width 128 does not match vocabulary width 64" in \
                capsys.readouterr().err
            assert not out.exists()


def test_query_rejects_a_bad_top_or_window_as_usage_error(tmp_path, capsys):
    corpus = tmp_path / "c.hbdc"
    vocab_path = tmp_path / "v.txt"
    _write_corpus(corpus)
    assert main(["train", "--corpus", str(corpus), "--out", str(vocab_path),
                 "--k", "4", "--L", "2"]) == 0
    query = ["query", "--vocab", str(vocab_path), "--db", str(corpus), "--queries", str(corpus),
             "--out", str(tmp_path / "hits.json")]
    assert main([*query, "--top", "0"]) == 1
    assert "--top must be >= 1" in capsys.readouterr().err
    assert main([*query, "--exclude-window", "-1"]) == 1
    assert "--exclude-window must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "hits.json").exists()


def test_convert_round_trip_is_byte_identical(tmp_path, capsys):
    corpus = tmp_path / "c.hbdc"
    txt1 = tmp_path / "v.txt"
    as_json = tmp_path / "v.json"
    txt2 = tmp_path / "v2.txt"
    _write_corpus(corpus)
    assert main(["train", "--corpus", str(corpus), "--out", str(txt1),
                 "--k", "3", "--L", "2"]) == 0
    assert main(["convert", "--src", str(txt1), "--dst", str(as_json)]) == 0
    assert main(["convert", "--src", str(as_json), "--dst", str(txt2)]) == 0
    capsys.readouterr()
    assert txt1.read_bytes() == txt2.read_bytes()
    assert load_vocabulary(as_json).word_count == load_vocabulary(txt1).word_count

    tampered = tmp_path / "tampered.json"
    tampered.write_text(as_json.read_text().replace('"leaf": true', '"leaf": "true"', 1))
    assert main(["convert", "--src", str(tampered), "--dst", str(tmp_path / "out.txt")]) == 2
    assert "leaf must be true or false" in capsys.readouterr().err
    assert not (tmp_path / "out.txt").exists()


def test_train_is_deterministic_across_runs(tmp_path, capsys):
    corpus = tmp_path / "c.hbdc"
    _write_corpus(corpus, num_clusters=8, per_cluster=50)
    paths = [tmp_path / f"v{i}.txt" for i in range(3)]
    for path in paths:
        assert main(["train", "--corpus", str(corpus), "--out", str(path),
                     "--k", "3", "--L", "2", "--seed", "9"]) == 0
    capsys.readouterr()
    digests = {_digest(p) for p in paths}
    assert len(digests) == 1


def test_module_entrypoint_runs_in_subprocess():
    proc = subprocess.run([sys.executable, "-m", "hbow", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("train", "transform", "query", "synth", "eval", "convert"):
        assert name in proc.stdout


# ---------------------------------------------------------------- argument bounds


class _PastTimeLimit(BaseException):
    """Raised into a call that runs too long; `main` catches only Exception."""


@contextlib.contextmanager
def _time_limit(seconds):
    def expire(signum, frame):
        raise _PastTimeLimit(f"the call ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _synth_world(directory):
    """Frames `f.hbdc` (3 places of 8 descriptors), their training corpus
    `t.hbdc` and a vocabulary `v.txt` trained on it: small inputs that every
    subcommand accepts."""
    frames, protos, vocab = (directory / name for name in ("f.hbdc", "t.hbdc", "v.txt"))
    assert main(["synth", "--places", "3", "--per-place", "8", "--bits", "64",
                 "--out", str(frames), "--train-out", str(protos)]) == 0
    assert main(["train", "--corpus", str(protos), "--out", str(vocab), "--k", "3", "--L", "2",
                 "--max-iters", "5"]) == 0
    return frames, protos, vocab


def test_train_with_the_largest_L_stops_at_the_deepest_split(tmp_path, capsys):
    # the tree stops at its first empty level, so L = 2**63 - 1 trains the
    # tree that L = 100 trains; the walk once ran all L levels, so a
    # regression hangs, and the timeout fails it instead of the suite
    frames, protos = tmp_path / "f.hbdc", tmp_path / "t.hbdc"
    assert main(["synth", "--places", "5", "--per-place", "20", "--out", str(frames),
                 "--train-out", str(protos)]) == 0
    capsys.readouterr()
    vocabs = {}
    for L in (2 ** 63 - 1, 100):
        out = tmp_path / f"{L}.txt"
        proc = subprocess.run([sys.executable, "-m", "hbow", "train", "--corpus", str(protos),
                               "--out", str(out), "--k", "4", "--L", str(L)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        vocabs[L] = load_vocabulary(out)
    huge, small = vocabs[2 ** 63 - 1], vocabs[100]
    assert huge.L == 2 ** 63 - 1 and huge.height == small.height < 100
    assert np.array_equal(huge.parent, small.parent)
    assert np.array_equal(huge.centroids, small.centroids)


@pytest.mark.parametrize("flag", ["--k", "--L"])
def test_train_takes_k_and_L_up_to_what_the_loaders_read(tmp_path, capsys, flag):
    # both loaders hold header integers in int64; a k or L of 2**63 once
    # trained into a file that neither could read back
    _, protos, _ = _synth_world(tmp_path)
    base = ["train", "--corpus", str(protos), "--k", "3", "--L", "2", "--max-iters", "5"]
    for suffix in (".txt", ".json"):
        too_big = tmp_path / f"big{suffix}"
        with _time_limit(60):
            assert main([*base, flag, str(2 ** 63), "--out", str(too_big)]) == 1
        assert f"{flag[2:]} must be in [" in capsys.readouterr().err
        assert not too_big.exists()
        largest, again = tmp_path / f"largest{suffix}", tmp_path / f"again{suffix}"
        with _time_limit(60):
            assert main([*base, flag, str(2 ** 63 - 1), "--out", str(largest)]) == 0
        save_vocabulary(again, load_vocabulary(largest))
        assert again.read_bytes() == largest.read_bytes()
    capsys.readouterr()


_INTS = ["-1", "0", "1", str(2 ** 31), str(2 ** 63 - 1), str(2 ** 63), str(2 ** 70)]
# a count that sizes the synthetic world takes only these, so no call can
# exhaust memory
_SIZES = ["-1", "0", "1"]
_NON_FINITE = ["nan", "inf", "-inf"]


def _vocabulary_again(raw, written, scratch):
    # in the format that save_vocabulary picked by the name it wrote
    suffix = ".json" if Path(written).suffix == ".json" else ".txt"
    path, again = scratch / f"written{suffix}", scratch / f"again{suffix}"
    path.write_bytes(raw)
    save_vocabulary(again, load_vocabulary(path))
    return again.read_bytes()


def _descriptors_again(raw, written, scratch):
    path, again = scratch / "written.hbdc", scratch / "again.hbdc"
    path.write_bytes(raw)
    write_descriptors(again, read_descriptors(path))
    return again.read_bytes()


def _rows_csv_again(raw, written, scratch):
    rows = list(csv.DictReader(io.StringIO(raw.decode(), newline="")))
    write_rows_csv(scratch / "again.csv", rows)
    return (scratch / "again.csv").read_bytes()


def _json_again(indent):
    return lambda raw, written, scratch: (json.dumps(json.loads(raw), indent=indent)
                                          + "\n").encode()


def _command_flags(world, out):
    """Per subcommand: a working call as {flag: value}, the values each
    number flag is tried with, the input path flags (with the file that a
    pipe in their place is fed) and the output path flags (with a function
    that loads what was written and returns it saved again)."""
    frames, protos, vocab = world
    strategies = ",".join(s.value for s in Strategy)
    ints = {flag: _INTS for flag in ("--k", "--L", "--max-iters", "--seed")}
    # a revisit fraction just below 1 asks for 2.7e16 frames of 3 places,
    # past the frame cap; 0.99 asks for 300
    synth_floats = {"--revisit": _NON_FINITE + ["0", "0.99",
                                                repr(float(np.nextafter(1.0, 0))), "1"],
                    "--flip": _NON_FINITE + ["0", repr(float(np.nextafter(0.5, 0))), "0.5"]}
    sizes = {flag: _SIZES for flag in ("--places", "--per-place", "--bits")}
    return {
        "train": ({"--corpus": protos, "--out": out / "v.txt", "--k": "3", "--L": "2",
                   "--max-iters": "5", "--seed": "0"},
                  {**ints, "--strategy": [s.value for s in Strategy]},
                  {"--corpus": protos}, {"--out": _vocabulary_again}),
        "transform": ({"--vocab": vocab, "--corpus": frames, "--out": out / "bow.json"}, {},
                      {"--vocab": vocab, "--corpus": frames}, {"--out": _json_again(1)}),
        "query": ({"--vocab": vocab, "--db": frames, "--queries": frames, "--top": "3",
                   "--exclude-window": "1", "--out": out / "q.json"},
                  {"--top": _INTS, "--exclude-window": _INTS},
                  {"--vocab": vocab, "--db": frames, "--queries": frames},
                  {"--out": _json_again(1)}),
        "synth": ({"--places": "3", "--per-place": "8", "--bits": "64", "--seed": "0",
                   "--revisit": "0.3", "--flip": "0.05", "--out": out / "f.hbdc",
                   "--train-out": out / "t.hbdc", "--gt": out / "gt.json"},
                  {**sizes, **synth_floats, "--seed": _INTS}, {},
                  {"--out": _descriptors_again, "--train-out": _descriptors_again,
                   "--gt": _json_again(1)}),
        "eval": ({"--strategies": strategies, "--seeds": "0", "--places": "3",
                  "--per-place": "8", "--bits": "64", "--revisit": "0.3", "--flip": "0.05",
                  "--k": "3", "--L": "2", "--max-iters": "5", "--temporal-exclusion": "1",
                  "--out-csv": out / "rows.csv", "--out-json": out / "rows.json"},
                 {**sizes, **synth_floats, "--k": _INTS, "--L": _INTS, "--max-iters": _INTS,
                  "--temporal-exclusion": _INTS, "--seeds": _INTS}, {},
                 {"--out-csv": _rows_csv_again, "--out-json": _json_again(2)}),
        "convert": ({"--src": vocab, "--dst": out / "v.json"}, {}, {"--src": vocab},
                    {"--dst": _vocabulary_again}),
    }


@contextlib.contextmanager
def _fifo(path, feed):
    """Make a FIFO at `path` for one call and hold its far end, so that no
    open() blocks: a thread feeds it the bytes of the file `feed`, or, when
    `feed` is None, the test holds it open for reading and the yielded list
    receives what the call wrote. The writes must fit the 64 KiB pipe buffer,
    as the small inputs' outputs do."""
    os.mkfifo(path)
    received = []
    if feed is None:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        try:
            yield received
            # the call has closed its end, so the reads end at EOF
            received.append(b"".join(iter(lambda: os.read(fd, 1 << 16), b"")))
        finally:
            os.close(fd)
            path.unlink()
        return

    def feed_it():
        try:
            path.write_bytes(feed.read_bytes())
        except BrokenPipeError:  # the call stopped reading first
            pass

    thread = threading.Thread(target=feed_it, daemon=True)
    thread.start()
    try:
        yield received
    finally:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)  # frees a feeder the call never read
        thread.join(timeout=10)
        os.close(fd)
        path.unlink()
    assert not thread.is_alive()


@pytest.mark.parametrize("command", ["train", "transform", "query", "synth", "eval", "convert"])
def test_generated_arguments_exit_with_a_documented_code(tmp_path, monkeypatch, capsys, command):
    # every subcommand, one flag at a time over its edge values: each call
    # exits 0, 1 or 2, never 3, within a time limit, and every file it
    # writes loads back and saves again to the same bytes
    monkeypatch.chdir(tmp_path)
    world = _synth_world(tmp_path)
    (tmp_path / "a-directory").mkdir()
    calls, pipe = [], tmp_path / "pipe"
    _, values, inputs, outputs = _command_flags(world, tmp_path)[command]
    for flag, tried in values.items():
        calls += [(flag, value, None) for value in tried]
    for flag in [*inputs, *outputs]:
        calls += [(flag, tmp_path / "a-directory", None),
                  (flag, tmp_path / "no-such-dir" / "file", None),
                  (flag, Path("/dev/null"), None), (flag, pipe, inputs.get(flag))]
    for i, (flag, value, feed) in enumerate(calls):
        out = tmp_path / f"out{i}"
        out.mkdir()
        base, _, _, outputs = _command_flags(world, out)[command]
        args = {**base, flag: value}
        # the time limit makes a hang, such as walking every one of L levels, fail
        with _fifo(pipe, feed) if value == pipe else contextlib.nullcontext() as received, \
                _time_limit(60):
            code = main([command, *(str(part) for item in args.items() for part in item)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (flag, value, err)
        if code:
            continue
        for out_flag, resave in outputs.items():
            written = args[out_flag]
            if written == pipe:
                raw = received[0]
            elif Path(written).is_file():
                raw = Path(written).read_bytes()
            else:
                assert written == Path("/dev/null"), (flag, value, out_flag)
                continue
            assert resave(raw, written, out) == raw, (flag, value, out_flag)
