"""Command line interface.

Subcommands: train, transform, query, synth, eval, convert. Data goes to
stdout or the requested output files; progress notes go to stderr.

Exit codes: 0 success, 1 usage or configuration error, 2 unreadable or
malformed data, 3 internal error. Every input check raises one of the
classes in `errors`; a plain ValueError is a bug and exits 3.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bow import RetrievalDatabase, transform_set
from .descriptors import DescriptorSet, _integer
from .errors import (
    ConfigError,
    CorpusConsistencyError,
    FormatError,
    InsufficientPointsError,
    InternalInvariantError,
)
from .evaluation import (
    SynthConfig,
    compare_strategies,
    quantization_report,
    synth_sequence,
    write_rows_csv,
    write_rows_json,
)
from .io import _atomic_write_bytes, load_vocabulary, read_descriptors, save_vocabulary, \
    write_descriptors
from .vocabulary import Strategy, TrainConfig, train_result

_STRATEGY_NAMES = [s.value for s in Strategy]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hbow",
        description="Train and use hierarchical binary bag-of-words vocabularies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a vocabulary from a descriptor file")
    p.add_argument("--corpus", required=True, help="input descriptor file")
    p.add_argument("--out", required=True, help="output vocabulary (.json for JSON, else text)")
    p.add_argument("--strategy", choices=_STRATEGY_NAMES, default=Strategy.GLOBAL_HBRB.value)
    p.add_argument("--k", type=int, default=10, help="branching factor (default 10)")
    p.add_argument("--L", type=int, default=6, help="tree depth (default 6)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=100)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("transform", help="turn grouped descriptors into BoW vectors")
    p.add_argument("--vocab", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("query", help="rank database groups against query groups")
    p.add_argument("--vocab", required=True)
    p.add_argument("--db", required=True, help="descriptor file, one group per database entry")
    p.add_argument("--queries", required=True, help="descriptor file, one group per query")
    p.add_argument("--top", type=int, default=5)
    p.add_argument("--exclude-window", type=int, default=None,
                   help="exclude db entries e with |e - query_index| <= this")
    p.add_argument("--out", default=None, help="output JSON path (default stdout)")
    p.set_defaults(func=_cmd_query)

    # the synthetic world's flags, shared by synth and eval
    world = argparse.ArgumentParser(add_help=False)
    world.add_argument("--places", type=int, default=20)
    world.add_argument("--per-place", type=int, default=50)
    world.add_argument("--revisit", type=float, default=0.3)
    world.add_argument("--flip", type=float, default=0.05)
    world.add_argument("--bits", type=int, default=256)

    p = sub.add_parser("synth", help="generate a synthetic revisit sequence", parents=[world])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="frame descriptor file, one group per frame")
    p.add_argument("--train-out", default=None, help="also write the prototype corpus here")
    p.add_argument("--gt", default=None, help="also write ground-truth pairs as JSON here")
    p.set_defaults(func=_cmd_synth)

    # eval lists its grid before the world
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--strategies", default=",".join(_STRATEGY_NAMES),
                      help="comma-separated subset of " + ",".join(_STRATEGY_NAMES))
    grid.add_argument("--seeds", default="0", help="comma-separated integer seeds")
    p = sub.add_parser("eval", help="benchmark strategies on a synthetic sequence",
                       parents=[grid, world])
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--L", type=int, default=6)
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--temporal-exclusion", type=int, default=1)
    p.add_argument("--out-csv", default="eval_results.csv")
    p.add_argument("--out-json", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("convert", help="convert a vocabulary between text and JSON")
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    p.set_defaults(func=_cmd_convert)
    return parser


def _emit(payload, out_path) -> None:
    text = json.dumps(payload, indent=1)
    if out_path:
        _atomic_write_bytes(out_path, [(text + "\n").encode()])
    else:
        print(text)


def _cmd_train(args) -> int:
    cfg = TrainConfig(k=args.k, L=args.L, strategy=args.strategy, seed=args.seed,
                      max_iters=args.max_iters)
    corpus = read_descriptors(args.corpus)
    print(f"training on {len(corpus)} descriptors in {corpus.group_count} groups",
          file=sys.stderr)
    result = train_result(corpus, cfg)
    vocab = result.vocabulary
    save_vocabulary(args.out, vocab)
    quant = quantization_report(vocab, corpus)
    print(json.dumps({
        "word_count": vocab.word_count,
        "train_seconds": result.seconds,
        "mean_qe": quant.mean_qe,
    }))
    return 0


def _cmd_transform(args) -> int:
    vocab = load_vocabulary(args.vocab)
    vectors = transform_set(vocab, read_descriptors(args.corpus))
    groups = [{"group": i, "words": {str(w): v for w, v in vec.entries.items()}}
              for i, vec in enumerate(vectors)]
    _emit({"groups": groups}, args.out)
    return 0


def _cmd_query(args) -> int:
    _integer(args.top, "--top", 1)
    if args.exclude_window is not None:
        _integer(args.exclude_window, "--exclude-window", 0)
    vocab = load_vocabulary(args.vocab)
    db_set = read_descriptors(args.db)
    query_set = read_descriptors(args.queries)
    db = RetrievalDatabase(vocab)
    for vec in transform_set(vocab, db_set):
        db.add(vec)
    results = []
    for qi, vec in enumerate(transform_set(vocab, query_set)):
        exclude = None
        if args.exclude_window is not None:
            exclude = range(qi - args.exclude_window, qi + args.exclude_window + 1)
        matches = db.query(vec, args.top, exclude)
        results.append({
            "query": qi,
            "matches": [{"entry": e, "score": s} for e, s in matches],
        })
    _emit({"queries": results}, args.out)
    return 0


def _synth_config(args, seed: int = 0) -> SynthConfig:
    return SynthConfig(num_places=args.places, descriptors_per_place=args.per_place,
                       revisit_fraction=args.revisit, bit_flip_prob=args.flip,
                       descriptor_bits=args.bits, seed=seed)


def _gt_chunks(frame_places: list[int]):
    """`json.dumps({"pairs": pairs, "frame_places": frame_places}, indent=1)`
    and a newline as bytes, one frame's pairs at a time; `pairs` is [frame,
    earlier frame] for every two frames of one place, ascending."""
    earlier: dict[int, list[int]] = {}
    sep = "\n"
    yield b'{\n "pairs": ['
    for t, place in enumerate(frame_places):
        if seen := earlier.setdefault(place, []):
            head = "  [\n   %d,\n   " % t
            yield (sep + head + ("\n  ],\n" + head).join(map(str, seen)) + "\n  ]").encode()
            sep = ",\n"
        seen.append(t)
    tail = json.dumps({"frame_places": frame_places}, indent=1)[1:]
    yield (("]" if sep == "\n" else "\n ]") + "," + tail + "\n").encode()


def _cmd_synth(args) -> int:
    cfg = _synth_config(args, args.seed)
    seq = synth_sequence(cfg)
    write_descriptors(args.out, DescriptorSet.from_groups(seq.frames))
    if args.train_out:
        write_descriptors(args.train_out, seq.training)
    if args.gt:
        _atomic_write_bytes(args.gt, _gt_chunks(seq.frame_places))
    print(f"wrote {len(seq.frames)} frames over {cfg.num_places} places to {args.out}",
          file=sys.stderr)
    return 0


def _cmd_eval(args) -> int:
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    rows = compare_strategies(
        _synth_config(args), strategies, seeds, k=args.k, L=args.L,
        max_iters=args.max_iters, temporal_exclusion=args.temporal_exclusion,
    )
    if args.out_csv:
        write_rows_csv(args.out_csv, rows)
        print(f"wrote {len(rows)} rows to {args.out_csv}", file=sys.stderr)
    if args.out_json:
        write_rows_json(args.out_json, rows)
    print(json.dumps(rows, indent=1))
    return 0


def _cmd_convert(args) -> int:
    save_vocabulary(args.dst, load_vocabulary(args.src))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; fold the latter
        # into this tool's usage-error code.
        return 0 if not exc.code else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FormatError, CorpusConsistencyError, InsufficientPointsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # InternalInvariantError and genuine bugs
        kind = "invariant violation" if isinstance(exc, InternalInvariantError) else "internal error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
