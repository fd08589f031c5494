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

Only LF ends a line and numbers it; fields are separated by runs of other
ASCII whitespace (space, tab, CR, VT, FF, 0x1c-0x1f). Integers are
[+-]?[0-9]+ within int64, octets within int16 (so 300 fails the [0, 255]
check and 70000 the parse); the weight is
[+-]?([0-9]+([.][0-9]*)?|[.][0-9]+)([eE][+-]?[0-9]+)?. Python-only spellings
such as 1_0 or 0x1 are rejected.

The text loader reads line 1 alone, then reads the file _TEXT_BLOCK_BYTES at a
time, each block extended to the end of the line it stops in, so no partial
line is carried between blocks. It parses each block in one numpy call and
keeps only the parsed columns, so its memory is a small multiple of the loaded
arrays plus one block, however large the file. Errors name the first faulty
line in file order: lexical faults (non-ASCII, field count, grammar) before
node checks, each of which names the first line that fails it.

Node i is defined by line i+1; the root is node 0 and is not written. Parent
ids may only point at already-defined nodes, so the node order is a valid
breadth-first (or any topological) order. Word ids are not stored: loaders
give each leaf line the next word id, as DBoW2's loadFromTextFile does, so
words follow file order. Training numbers words in node order and writers
keep node order, so a save/load round trip preserves every lookup result.

The JSON format is this library's native serialization; it additionally
carries the training strategy tag.

Every writer goes through `_atomic_write_bytes`: a new file gets the mode a
plain `open` gives under the process umask (0644 under umask 022), and a
replaced file keeps its mode.
"""

from __future__ import annotations

import json
import os
import secrets
import stat
import struct
import sys
import warnings
from pathlib import Path

import numpy as np

from .descriptors import DescriptorSet
from .errors import DescriptorFileError, InternalInvariantError, VocabularyFileError
from .vocabulary import Strategy, Vocabulary, _as_strategy, validate_structure

DESCRIPTOR_MAGIC = b"HBDC"
DESCRIPTOR_VERSION = 1
_HEADER = struct.Struct("<4sIIQQ")

VOCAB_JSON_FORMAT = "hbow-vocabulary"
VOCAB_JSON_VERSION = 1
SCORING_L1 = "L1"
WEIGHTING_TFIDF = "tf-idf"

# text vocabularies are read and parsed this many bytes at a time
_TEXT_BLOCK_BYTES = 1 << 18
# text vocabularies are formatted this many nodes at a time
_TEXT_WRITE_NODES = 1 << 14
# JSON vocabularies are formatted this many nodes at a time
_JSON_WRITE_NODES = 1 << 10
# the text of each centroid octet value, " 0" to " 255"
_OCTET_TEXT = np.array([f" {i}".encode("ascii") for i in range(256)], dtype="S4")


def _atomic_write_bytes(path, chunks) -> None:
    """Write an iterable of byte chunks via a sibling temp file and
    os.replace, so readers never see a half-written file. A new file gets the
    mode a plain `open` gives, 0666 less the umask, and a replaced regular
    file keeps its mode. A path that exists but is no regular file, such as a
    pipe or /dev/null, is written in place: replacing it would put a regular
    file where the device or pipe was."""
    path = Path(path)
    if path.exists() and not path.is_file():
        with open(path, "wb") as fh:
            fh.writelines(chunks)
        return
    while True:
        tmp = path.parent / f"{path.name}.{secrets.token_hex(4)}"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "wb") as fh:
            if path.is_file():
                os.fchmod(fh.fileno(), stat.S_IMODE(path.stat().st_mode))
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_descriptors(path, dset: DescriptorSet) -> None:
    header = _HEADER.pack(
        DESCRIPTOR_MAGIC, DESCRIPTOR_VERSION, dset.bits, len(dset), dset.group_count
    )
    payload = np.ascontiguousarray(dset.codes).data  # a view: no copy of the payload
    table = dset.group_ends.astype("<u8").tobytes()
    _atomic_write_bytes(path, (header, payload, table))


def read_descriptors(path) -> DescriptorSet:
    with open(path, "rb") as fh:  # into one writable buffer that the codes then share
        data = np.empty(os.fstat(fh.fileno()).st_size, dtype=np.uint8)
        data = data[:fh.readinto(data)]
        if rest := fh.read():  # a pipe reports size 0
            data = np.append(data, np.frombuffer(rest, dtype=np.uint8))
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
    codes = np.frombuffer(data, dtype=np.uint8, count=payload_size, offset=_HEADER.size)
    ends = np.frombuffer(data, dtype="<u8", count=groups, offset=_HEADER.size + payload_size)
    # compared unsigned, so an end offset of 2**63 or more cannot wrap negative
    if ends.size and (np.any(ends[1:] < ends[:-1]) or int(ends[-1]) != count):
        raise DescriptorFileError("group_ends are not ascending offsets ending at descriptor_count")
    # no group table means one group (DescriptorSet's default)
    return DescriptorSet(codes.reshape(count, octets), ends.astype(np.int64))


def _text_chunks(vocab: Vocabulary):
    """The text file of `vocab` as byte chunks: the header line, then the
    node lines `_TEXT_WRITE_NODES` nodes at a time. A block fills one
    fixed-width record per node, each field NUL-padded: the parent id, " 0"
    or " 1", the octets' `_OCTET_TEXT` and " {weight!r}\n". The format holds
    no NUL, so the block's bytes with every NUL dropped are its lines."""
    yield f"{vocab.k} {vocab.L} 0 0\n".encode("ascii")
    record = np.dtype([("parent", "S20"), ("leaf", "S2"),
                       ("octets", "S4", (vocab.centroids.shape[1],)), ("weight", "S28")])
    for start in range(1, vocab.parent.size, _TEXT_WRITE_NODES):
        block = slice(start, start + _TEXT_WRITE_NODES)
        parent = vocab.parent[block]
        rec = np.empty(parent.size, dtype=record)
        rec["parent"] = parent
        rec["leaf"] = np.where(vocab.word_of_node[block] >= 0, b" 1", b" 0")
        rec["octets"] = _OCTET_TEXT[vocab.centroids[block]]
        rec["weight"] = [f" {weight!r}\n" for weight in vocab.weight[block].tolist()]
        yield rec.tobytes().replace(b"\0", b"")


def write_vocab_text(path, vocab: Vocabulary) -> None:
    _atomic_write_bytes(path, _text_chunks(vocab))


def _assemble(k: int, L: int, strategy: Strategy | None, parent: np.ndarray, leaf: np.ndarray,
              octets: np.ndarray, weight: np.ndarray, where) -> Vocabulary:
    """Shared tail of the text and JSON loaders. Takes the node columns, root
    excluded: `parent` int64, `leaf` 0/1 integers or bool, `octets` an
    integer (nodes, width) matrix and `weight` float64. Makes every node check
    once, on the whole table, naming the first offending row as `where(row)`;
    then builds the vocabulary and validates it."""
    def check(bad: np.ndarray, message: str) -> None:
        rows = np.flatnonzero(bad)
        if rows.size:
            i = int(rows[0])
            raise VocabularyFileError(f"{where(i)}: " + message.format(parent=parent[i]))

    check((leaf != 0) & (leaf != 1), "is_leaf flag must be 0 or 1")
    leaf = leaf == 1
    n = parent.size + 1
    check((parent < 0) | (parent >= np.arange(1, n)), "parent {parent} is not an already-defined node")
    check(np.append(False, leaf)[parent], "parent {parent} is a leaf")
    # a leaf with children has failed the check above
    check(~leaf & (np.bincount(parent, minlength=n)[1:] == 0), "marked internal but has no children")
    check(((octets < 0) | (octets > 255)).any(axis=1), "centroid octets must lie in [0, 255]")
    check(~np.isfinite(weight) | (weight < 0.0), "weight must be finite and >= 0")
    cents = np.zeros((n, octets.shape[1]), dtype=np.uint8)
    cents[1:] = octets
    try:
        vocab = Vocabulary(k, L, strategy, np.append(-1, parent), cents, np.append(0.0, weight))
        validate_structure(vocab)
    except InternalInvariantError as exc:
        raise VocabularyFileError(f"invalid vocabulary structure: {exc}") from None
    return vocab


def _parse(lines: list[str], dtype) -> np.ndarray:
    """One row per line by numpy's C text reader; ValueError for a blank line
    or a token outside the text grammar or the field's dtype."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)  # older numpy's int64 "7.0"
        warnings.simplefilter("ignore", UserWarning)  # no data: all lines blank, caught below
        rows = np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1)
    if len(rows) != len(lines):  # loadtxt skips blank lines
        raise ValueError("blank line")
    return rows


def _node_dtype(octets: int) -> np.dtype:
    """One parsed node line. Octets are int16: wide enough for the range check
    to report 300, while a larger token fails the parse and names its field."""
    return np.dtype([("parent", np.int64), ("leaf", np.int64), ("octets", np.int16, (octets,)),
                     ("weight", np.float64)])


def _bad_line(lines: list[str], first: int, dtype: np.dtype) -> str:
    """Name the first bad node line and field, converting each field alone
    with the reader and dtype the block parse uses; `first` is the file line
    number of `lines[0]`."""
    fields = [("parent id", dtype["parent"]), ("is_leaf flag", dtype["leaf"]),
              *[("centroid octet", dtype["octets"].base)] * dtype["octets"].shape[0],
              ("weight", dtype["weight"])]
    for lineno, line in enumerate(lines, start=first):
        tokens = line.split()
        if len(tokens) != len(fields):
            return f"line {lineno}: expected {len(fields)} fields, got {len(tokens)}"
        for (name, field_dtype), token in zip(fields, tokens):
            try:
                _parse([token], field_dtype)
            except ValueError:
                return f"line {lineno}: {name} {token!r} does not parse as {field_dtype}"
    return "node lines do not parse"


def _text_blocks(fh):
    """Yield (file line number of the first line, lines) for each block of
    whole lines read from the binary file `fh`, whose header line has been
    read: _TEXT_BLOCK_BYTES bytes, extended to the end of the line they stop in.
    Only "\n" ends a line, and "\r" becomes a space, a field separator like
    "\t", so CRLF files load.
    A non-ASCII byte raises VocabularyFileError once the lines before its
    own have been yielded, so errors come in file order."""
    lineno = 2
    while data := fh.read(_TEXT_BLOCK_BYTES) + fh.readline():
        try:
            text, bad = data.decode("ascii"), False
        except UnicodeDecodeError as exc:  # keep the lines before the faulty one
            text, bad = data[:data.rfind(b"\n", 0, exc.start) + 1].decode("ascii"), True
        if text:
            lines = text.replace("\r", " ").removesuffix("\n").split("\n")
            yield lineno, lines
            lineno += len(lines)
        if bad:
            raise VocabularyFileError(f"line {lineno}: non-ASCII byte")


def _text_header(line: str) -> tuple[int, int]:
    """k and L from line 1 of a text vocabulary."""
    head = line.split()
    if len(head) != 4:
        raise VocabularyFileError(f"line 1: header needs 4 fields, got {len(head)}")
    try:
        k, L, scoring_id, weighting_id = _parse(head, np.int64).tolist()
    except ValueError:
        raise VocabularyFileError("line 1: header fields must be integers") from None
    if k < 1 or L < 1:
        raise VocabularyFileError(f"line 1: k and L must be >= 1, got k={k} L={L}")
    if scoring_id != 0 or weighting_id != 0:
        raise VocabularyFileError(
            f"line 1: unsupported scoring/weighting ids {scoring_id}/{weighting_id}, only 0/0"
        )
    return k, L


def read_vocab_text(path) -> Vocabulary:
    dtype, tables = None, []
    with open(path, "rb") as fh:
        try:
            header = fh.readline().decode("ascii")
        except UnicodeDecodeError:
            raise VocabularyFileError("line 1: non-ASCII byte") from None
        k, L = _text_header(header)
        for first, lines in _text_blocks(fh):
            if dtype is None:  # the first node line sets the descriptor width
                dtype = _node_dtype(max(len(lines[0].split()) - 3, 1))
            try:
                tables.append(_parse(lines, dtype))
            except ValueError:
                raise VocabularyFileError(_bad_line(lines, first, dtype)) from None
    if not tables:
        raise VocabularyFileError("vocabulary file defines no nodes")
    nodes = np.concatenate(tables)
    del tables  # else the block tables stay alive through _assemble, a second node table
    return _assemble(k, L, None, nodes["parent"], nodes["leaf"], nodes["octets"], nodes["weight"],
                     lambda i: f"line {i + 2}")


def _json_chunks(vocab: Vocabulary):
    """The JSON file of `vocab` as byte chunks, byte for byte
    `json.dumps(obj, indent=1) + "\n"` of the whole object, with the node
    list formatted `_JSON_WRITE_NODES` nodes at a time. The head and tail
    come from the metadata dumped with a one-element node list, split at its
    last `null` (a text-loaded vocabulary's strategy is `null` too). Each
    block is its own list dumped without the brackets and indented one more
    space, and the blocks are joined as the list's items are."""
    meta = {
        "format": VOCAB_JSON_FORMAT,
        "version": VOCAB_JSON_VERSION,
        "k": vocab.k,
        "L": vocab.L,
        "strategy": vocab.strategy.value if vocab.strategy is not None else None,
        "descriptor_bits": vocab.descriptor_bits,
        "scoring": SCORING_L1,
        "weighting": WEIGHTING_TFIDF,
        "nodes": [None],
    }
    head, _, tail = json.dumps(meta, indent=1).rpartition("null")
    yield head.encode("ascii")
    for start in range(1, vocab.parent.size, _JSON_WRITE_NODES):
        block = slice(start, start + _JSON_WRITE_NODES)
        nodes = [{"parent": parent, "leaf": is_leaf, "centroid": cent, "weight": weight}
                 for parent, is_leaf, cent, weight in zip(
                     vocab.parent[block].tolist(), (vocab.word_of_node[block] >= 0).tolist(),
                     vocab.centroids[block].tolist(), vocab.weight[block].tolist())]
        # "[\n {...},\n {...}\n]" -> "{...},\n  {...}"
        text = json.dumps(nodes, indent=1)[3:-2].replace("\n", "\n ")
        yield (text if start == 1 else ",\n  " + text).encode("ascii")
    yield (tail + "\n").encode("ascii")


def write_vocab_json(path, vocab: Vocabulary) -> None:
    _atomic_write_bytes(path, _json_chunks(vocab))


def _json_int(value, what: str) -> int:
    """A JSON integer within int64; bools and floats such as 3.0 are rejected."""
    if type(value) is not int or not -2 ** 63 <= value < 2 ** 63:
        raise VocabularyFileError(f"{what} must be a JSON integer of at most 64 bits, got {value!r}")
    return value


def read_vocab_json(path) -> Vocabulary:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # also a decode error, or an int too long for Python to read
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
    strategy = obj.get("strategy")
    if strategy is not None:
        strategy = _as_strategy(strategy, VocabularyFileError)
    if not isinstance(node_objs, list) or not node_objs:
        raise VocabularyFileError("vocabulary defines no nodes")
    rows = []
    octets = bits // 8
    for nid, entry in enumerate(node_objs, start=1):
        try:
            parent, is_leaf, cent, weight = (entry[key] for key in
                                             ("parent", "leaf", "centroid", "weight"))
        except (KeyError, TypeError) as exc:
            raise VocabularyFileError(f"node {nid}: bad fields: {exc}") from None
        _json_int(parent, f"node {nid}: parent")
        if not isinstance(is_leaf, bool):
            raise VocabularyFileError(f"node {nid}: leaf must be true or false, got {is_leaf!r}")
        if not isinstance(cent, list) or len(cent) != octets:
            raise VocabularyFileError(f"node {nid}: centroid must be {octets} octets")
        for b in cent:
            _json_int(b, f"node {nid}: centroid octet")
        if isinstance(weight, bool) or not isinstance(weight, (int, float)):
            raise VocabularyFileError(f"node {nid}: weight must be a JSON number, got {weight!r}")
        # an integer beyond the float range would make the float conversion overflow
        rows.append((parent, is_leaf, cent, weight if abs(weight) <= sys.float_info.max else np.inf))
    parent, is_leaf, cent, weight = zip(*rows)
    return _assemble(k, L, strategy, np.array(parent, dtype=np.int64), np.array(is_leaf),
                     np.array(cent, dtype=np.int64), np.array(weight, dtype=np.float64),
                     lambda i: f"node {i + 1}")


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
