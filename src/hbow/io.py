"""File formats: packed descriptor sets and vocabulary serialization.

Binary descriptor file (magic "HBDC"), all integers little-endian:

    offset  size  field
    0       4     magic, b"HBDC"
    4       4     format version (u32) == 1
    8       4     descriptor_bits (u32), positive multiple of 8
    12      8     descriptor_count (u64)
    20      8     group_count (u64)
    28      ...   payload: descriptor_count * descriptor_bits/8 octets
    ...     ...   group table: group_count u64 ascending end offsets

Text vocabulary format (interoperable with common BoW vocabularies):

    line 1:   "k L scoring_id weighting_id"   (0 0 = L1 scoring, tf-idf)
    line i+1: "parent_id is_leaf octet_0 ... octet_{B-1} weight"

Node i is defined by line i+1; the root is node 0 and is not written. Parent
ids may only point at already-defined nodes, so the node order is a valid
breadth-first (or any topological) order. Word ids are not stored: loaders
renumber leaves depth-first, children in stored order, which is the same rule
training uses, so a save/load round trip preserves every lookup result.

The JSON format is this library's native serialization; it additionally
carries the training strategy tag.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

from .descriptors import DescriptorSet
from .errors import DescriptorFileError, InternalInvariantError, VocabularyFileError
from .vocabulary import Strategy, Vocabulary, validate_structure

DESCRIPTOR_MAGIC = b"HBDC"
DESCRIPTOR_VERSION = 1
_HEADER = struct.Struct("<4sIIQQ")

VOCAB_JSON_FORMAT = "hbow-vocabulary"
VOCAB_JSON_VERSION = 1
SCORING_L1 = "L1"
WEIGHTING_TFIDF = "tf-idf"


def _atomic_write_bytes(path, data: bytes) -> None:
    """Write via a sibling temp file and os.replace, so readers never see a
    half-written file. A path that exists but is no regular file, such as a
    pipe or /dev/null, is written in place: replacing it would put a regular
    file where the device or pipe was."""
    path = Path(path)
    if path.exists() and not path.is_file():
        path.write_bytes(data)
        return
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_descriptors(path, dset: DescriptorSet) -> None:
    header = _HEADER.pack(
        DESCRIPTOR_MAGIC, DESCRIPTOR_VERSION, dset.bits, len(dset), dset.group_count
    )
    payload = np.ascontiguousarray(dset.codes).tobytes()
    table = dset.group_ends.astype("<u8").tobytes()
    _atomic_write_bytes(path, header + payload + table)


def read_descriptors(path) -> DescriptorSet:
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise DescriptorFileError(f"truncated header: {len(data)} bytes, need {_HEADER.size}")
    magic, version, bits, count, groups = _HEADER.unpack_from(data)
    if magic != DESCRIPTOR_MAGIC:
        raise DescriptorFileError(f"bad magic {magic!r}, expected {DESCRIPTOR_MAGIC!r}")
    if version != DESCRIPTOR_VERSION:
        raise DescriptorFileError(f"unsupported version {version}, expected {DESCRIPTOR_VERSION}")
    if bits < 8 or bits % 8 != 0:
        raise DescriptorFileError(f"descriptor_bits must be a positive multiple of 8, got {bits}")
    octets = bits // 8
    payload_size = count * octets
    table_size = groups * 8
    expected = _HEADER.size + payload_size + table_size
    if len(data) < expected:
        raise DescriptorFileError(
            f"file holds {len(data)} bytes but header implies {expected}"
        )
    if len(data) > expected:
        raise DescriptorFileError(f"{len(data) - expected} trailing bytes after group table")
    payload = np.frombuffer(data, dtype=np.uint8, count=payload_size, offset=_HEADER.size)
    codes = payload.reshape(count, octets).copy()
    ends = np.frombuffer(data, dtype="<u8", count=groups, offset=_HEADER.size + payload_size)
    ends = ends.astype(np.int64)
    if groups == 0 and count > 0:
        # No group metadata: treat the whole payload as a single group.
        return DescriptorSet(codes, None)
    if ends.size:
        if np.any(np.diff(ends) < 0) or int(ends[-1]) != count:
            raise DescriptorFileError("group_ends are not ascending offsets ending at descriptor_count")
    return DescriptorSet(codes, ends)


def _node_rows(vocab: Vocabulary):
    """(parent, is_leaf, centroid octets, weight) of every node but the root,
    in stored order, as Python values."""
    return zip(vocab.parent[1:].tolist(), (vocab.word_of_node[1:] >= 0).tolist(),
               vocab.centroids[1:].tolist(), vocab.weight[1:].tolist())


def write_vocab_text(path, vocab: Vocabulary) -> None:
    lines = [f"{vocab.k} {vocab.L} 0 0"]
    for parent, is_leaf, cent, weight in _node_rows(vocab):
        lines.append(f"{parent} {int(is_leaf)} {' '.join(map(str, cent))} {weight!r}")
    _atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("ascii"))


def _assemble(k: int, L: int, strategy: Strategy | None,
              rows: list[tuple[int, bool, list[int], float]], octets: int) -> Vocabulary:
    """Shared tail of the text and JSON loaders: check the leaf flags against
    the parent links, build the vocabulary, validate."""
    parent, is_leaf, centroids, weight = zip(*rows)
    n = len(rows) + 1
    has_children = np.bincount(parent, minlength=n)[1:] > 0
    flagged = np.array(is_leaf, dtype=bool)
    bad = np.flatnonzero(flagged == has_children)
    if bad.size:
        i = int(bad[0])
        state = "leaf but has children" if flagged[i] else "internal but has no children"
        raise VocabularyFileError(f"node {i + 1} is marked {state}")
    cents = np.zeros((n, octets), dtype=np.uint8)
    cents[1:] = centroids
    try:
        vocab = Vocabulary(k, L, strategy, octets * 8, [-1, *parent], cents, [0.0, *weight])
        validate_structure(vocab)
    except InternalInvariantError as exc:
        raise VocabularyFileError(f"invalid vocabulary structure: {exc}") from None
    return vocab


def read_vocab_text(path) -> Vocabulary:
    data = Path(path).read_bytes()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise VocabularyFileError(f"line {lineno}: non-ASCII byte") from None
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise VocabularyFileError("line 1: missing header")
    head = lines[0].split()
    if len(head) != 4:
        raise VocabularyFileError(f"line 1: header needs 4 fields, got {len(head)}")
    try:
        k, L, scoring_id, weighting_id = (int(x) for x in head)
    except ValueError:
        raise VocabularyFileError("line 1: header fields must be integers") from None
    if k < 1 or L < 1:
        raise VocabularyFileError(f"line 1: k and L must be >= 1, got k={k} L={L}")
    if scoring_id != 0 or weighting_id != 0:
        raise VocabularyFileError(
            f"line 1: unsupported scoring/weighting ids {scoring_id}/{weighting_id}, only 0/0"
        )
    rows: list[tuple[int, bool, list[int], float]] = []
    octets: int | None = None
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts:
            raise VocabularyFileError(f"line {lineno}: empty node line")
        if octets is None:
            octets = len(parts) - 3
            if octets < 1:
                raise VocabularyFileError(f"line {lineno}: too few fields for any descriptor width")
        if len(parts) != octets + 3:
            raise VocabularyFileError(
                f"line {lineno}: expected {octets + 3} fields, got {len(parts)}"
            )
        nid = lineno - 1
        try:
            parent = int(parts[0])
        except ValueError:
            raise VocabularyFileError(f"line {lineno}: parent id must be an integer") from None
        if not 0 <= parent < nid:
            raise VocabularyFileError(
                f"line {lineno}: parent {parent} is not an already-defined node"
            )
        if parts[1] not in ("0", "1"):
            raise VocabularyFileError(f"line {lineno}: is_leaf flag must be 0 or 1")
        if parent > 0 and rows[parent - 1][1]:
            raise VocabularyFileError(f"line {lineno}: parent {parent} is a leaf")
        try:
            cent = list(map(int, parts[2:-1]))
        except ValueError:
            raise VocabularyFileError(f"line {lineno}: centroid octets must be integers") from None
        if min(cent) < 0 or max(cent) > 255:
            raise VocabularyFileError(f"line {lineno}: centroid octets must lie in [0, 255]")
        try:
            weight = float(parts[-1])
        except ValueError:
            raise VocabularyFileError(f"line {lineno}: weight must be a float") from None
        if not np.isfinite(weight) or weight < 0.0:
            raise VocabularyFileError(f"line {lineno}: weight must be finite and >= 0")
        rows.append((parent, parts[1] == "1", cent, weight))
    if not rows:
        raise VocabularyFileError("vocabulary file defines no nodes")
    return _assemble(k, L, None, rows, octets)


def write_vocab_json(path, vocab: Vocabulary) -> None:
    obj = {
        "format": VOCAB_JSON_FORMAT,
        "version": VOCAB_JSON_VERSION,
        "k": vocab.k,
        "L": vocab.L,
        "strategy": vocab.strategy.value if vocab.strategy is not None else None,
        "descriptor_bits": vocab.descriptor_bits,
        "scoring": SCORING_L1,
        "weighting": WEIGHTING_TFIDF,
        "nodes": [
            {"parent": parent, "leaf": is_leaf, "centroid": cent, "weight": weight}
            for parent, is_leaf, cent, weight in _node_rows(vocab)
        ],
    }
    _atomic_write_bytes(path, (json.dumps(obj, indent=1) + "\n").encode("ascii"))


def _json_int(value, what: str) -> int:
    """A JSON integer; bools and floats such as 3.0 are rejected."""
    if type(value) is not int:
        raise VocabularyFileError(f"{what} must be a JSON integer, got {value!r}")
    return value


def read_vocab_json(path) -> Vocabulary:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise VocabularyFileError(f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict) or obj.get("format") != VOCAB_JSON_FORMAT:
        raise VocabularyFileError(f"missing or wrong format tag, expected {VOCAB_JSON_FORMAT!r}")
    version = obj.get("version")
    if type(version) is not int or version != VOCAB_JSON_VERSION:
        raise VocabularyFileError(f"unsupported version {version!r}")
    try:
        k = _json_int(obj["k"], "k")
        L = _json_int(obj["L"], "L")
        bits = _json_int(obj["descriptor_bits"], "descriptor_bits")
        node_objs = obj["nodes"]
    except KeyError as exc:
        raise VocabularyFileError(f"missing vocabulary field {exc}") from None
    if k < 1 or L < 1:
        raise VocabularyFileError(f"k and L must be >= 1, got k={k} L={L}")
    if bits < 8 or bits % 8 != 0:
        raise VocabularyFileError(f"descriptor_bits must be a positive multiple of 8, got {bits}")
    for key, want in (("scoring", SCORING_L1), ("weighting", WEIGHTING_TFIDF)):
        if key in obj and obj[key] != want:
            raise VocabularyFileError(f"unsupported {key} {obj[key]!r}, only {want!r}")
    strategy_tag = obj.get("strategy")
    strategy = None
    if strategy_tag is not None:
        try:
            strategy = Strategy(strategy_tag)
        except ValueError:
            raise VocabularyFileError(f"unknown strategy tag {strategy_tag!r}") from None
    if not isinstance(node_objs, list) or not node_objs:
        raise VocabularyFileError("vocabulary defines no nodes")
    rows: list[tuple[int, bool, list[int], float]] = []
    octets = bits // 8
    for nid, entry in enumerate(node_objs, start=1):
        try:
            parent, is_leaf, cent, weight = (entry[key] for key in
                                             ("parent", "leaf", "centroid", "weight"))
        except (KeyError, TypeError) as exc:
            raise VocabularyFileError(f"node {nid}: bad fields: {exc}") from None
        if not 0 <= _json_int(parent, f"node {nid}: parent") < nid:
            raise VocabularyFileError(f"node {nid}: parent {parent} is not an already-defined node")
        if not isinstance(is_leaf, bool):
            raise VocabularyFileError(f"node {nid}: leaf must be true or false, got {is_leaf!r}")
        if not isinstance(cent, list) or len(cent) != octets or any(
                _json_int(b, f"node {nid}: centroid octet") not in range(256) for b in cent):
            raise VocabularyFileError(f"node {nid}: centroid must be {octets} octets in [0, 255]")
        if isinstance(weight, bool) or not isinstance(weight, (int, float)):
            raise VocabularyFileError(f"node {nid}: weight must be a JSON number, got {weight!r}")
        if not 0.0 <= weight <= sys.float_info.max:
            raise VocabularyFileError(f"node {nid}: weight must be finite and >= 0")
        rows.append((parent, is_leaf, cent, float(weight)))
    return _assemble(k, L, strategy, rows, octets)


def save_vocabulary(path, vocab: Vocabulary) -> None:
    """Write text or JSON depending on the file extension (.json = JSON)."""
    if Path(path).suffix.lower() == ".json":
        write_vocab_json(path, vocab)
    else:
        write_vocab_text(path, vocab)


def load_vocabulary(path) -> Vocabulary:
    """Read text or JSON depending on the file extension (.json = JSON)."""
    if Path(path).suffix.lower() == ".json":
        return read_vocab_json(path)
    return read_vocab_text(path)
