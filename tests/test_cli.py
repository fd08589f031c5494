import csv
import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from hbow import DescriptorSet, load_vocabulary, write_descriptors
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
    assert main(["query", "--vocab", str(vocab_path), "--db", str(corpus),
                 "--queries", str(corpus), "--top", "3",
                 "--exclude-window", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    for qi, entry in enumerate(payload["queries"]):
        assert all(m["entry"] != qi for m in entry["matches"])


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
