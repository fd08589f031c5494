"""Bit-packed binary descriptors and their real-valued relaxations.

A binary descriptor of D bits (D a positive multiple of 8) is stored as a row
of D/8 octets, MSB-first inside each octet. This is exactly numpy's
packbits/unpackbits convention, so bit i of a descriptor is
``unpackbits(code)[i]``. A real-valued relaxation is a float vector in
[0, 1]^D whose component i mirrors bit i.

Hamming distances are exact integer popcounts. The squared Euclidean
distance between two relaxed bit vectors equals the Hamming distance between
the originals, so the clusterers seed on packed codes, assign on packed codes
where every centroid is one row, and assign on relaxed rows elsewhere, with
one distance. Seeding, those assignments, the vocabulary descent,
`hamming_to_all` and `hamming_cdist` all take their distances from one
kernel on word-major 64-bit words (`_word_major`): `_xor_distances` on one
block, which the descent calls per level, and `_hamming_table` over fixed
candidates. The table and the descent walk their queries in blocks of
`_block_columns`.

`hamming_cdist` has no caller inside the package; README lists it among the
names kept for the benchmark.
"""

from __future__ import annotations

import dataclasses
import numbers
import operator
import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, CorpusConsistencyError, InsufficientPointsError

# Cap on the buffers of one block of query columns against k candidates
# (`_block_columns`): at k = 10 and 256 bits, 4,369 columns for
# `_hamming_table` and 2,621 for the descent, which also holds its query
# words repeated k times.
_HAMMING_BLOCK_BYTES = 1 << 21


class _Quote(reprlib.Repr):
    """reprlib's bounded repr, where an int of more than 128 bits shows as
    its sign and size: `repr` refuses an int of more than 4,300 digits."""

    def __init__(self):
        super().__init__()
        self.maxother = 100  # room for a whole ClusterConfig, where reprlib keeps 30

    def repr_int(self, x, level):
        if x.bit_length() <= 128:
            return repr(x)
        return f"<{'negative ' if x < 0 else ''}int of {x.bit_length()} bits>"

    def repr_instance(self, x, level):
        # where an object's own repr raises (an array or a dataclass holding
        # a huge int), reprlib would show its memory address
        try:
            repr(x)
        except Exception:
            if isinstance(x, np.ndarray):
                return f"array({self.repr1(x.tolist(), level - 1)})"
            if dataclasses.is_dataclass(x) and not isinstance(x, type):
                return f"{type(x).__name__}(" + ", ".join(
                    f"{f.name}={self.repr1(getattr(x, f.name), level - 1)}"
                    for f in dataclasses.fields(x) if f.repr) + ")"
            return f"<{type(x).__name__} with no repr>"
        return super().repr_instance(x, level)


_quote = _Quote().repr  # a value from outside as a message shows it, without raising


def _in_range(value, name: str, low, high, error: type[Exception], shown=None):
    """`value` if it lies in [low, high), or at or above `low` when `high` is
    None (NaN lies in no range); else `error`, quoting `shown` (the value as
    the caller gave it) if given, else `value`."""
    if high is not None and not low <= value < high:
        bound = f"in [{low}, {high})"
    elif low is not None and not value >= low:
        bound = f">= {low}"
    else:
        return value
    raise error(f"{name} must be {bound}, got {_quote(value if shown is None else shown)}")


def _integer(value, name: str, low: int | None = None, high: int | None = None,
             error: type[Exception] = ConfigError) -> int:
    """`value`, a number from outside, as a Python int within `_in_range`'s
    bounds: a numpy integer is one, but a bool, a float such as 2.0, a string
    such as "3" or None raises `error`, as does a value out of range."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {_quote(value)}") from None
    return _in_range(value, name, low, high, error)


def _real(value, name: str, low: float | None = None, high: float | None = None,
          error: type[Exception] = ConfigError) -> float:
    """`value`, a real number from outside (a Python or numpy int or float),
    as a Python float within `_in_range`'s bounds: a bool, a string such as
    "0.5" or None raises `error`, as does a value out of range or an int
    beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, got {_quote(value)}")
    try:
        real = float(_in_range(value, name, low, high, error))
    except OverflowError:
        raise error(f"{name} must be a finite real number, got {_quote(value)}") from None
    # a value just inside a bound can round onto it as a float
    return _in_range(real, name, low, high, error, shown=value)


def _integer_array(values, error: type[Exception], message: str) -> np.ndarray:
    """`values`, a list of integers from outside, as a new 1-d array: int64,
    or exact Python ints in an object array when one lies outside int64. A
    1-d integer array or a range passes by its dtype; anything else is
    checked value by value with `_integer`, so a bool, float, string, None,
    nested list or bare number raises `error(message + ", got ...")`."""
    if isinstance(values, (np.ndarray, range)):
        arr = np.asarray(values)
        # a uint64 above int64 goes on to the object array
        if arr.ndim == 1 and (arr.dtype.kind == "i"
                              or arr.dtype.kind == "u" and arr.max(initial=0) < 2 ** 63):
            return arr.astype(np.int64)
    try:
        ints = [_integer(v, message, error=TypeError) for v in values]
    except TypeError:
        raise error(f"{message}, got {_quote(values)}") from None
    try:
        return np.array(ints, dtype=np.int64)
    except OverflowError:
        return np.array(ints, dtype=object)


def _as_code(code) -> np.ndarray:
    arr = np.ascontiguousarray(code)
    if arr.dtype != np.uint8:
        raise CorpusConsistencyError(f"descriptor octets must be uint8, got {arr.dtype}")
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise CorpusConsistencyError(f"expected a 1-d octet row, got shape {arr.shape}")
    return arr


def _as_codes(codes) -> np.ndarray:
    arr = np.ascontiguousarray(codes)
    if arr.dtype != np.uint8:
        raise CorpusConsistencyError(f"descriptor octets must be uint8, got {arr.dtype}")
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] < 1:
        raise CorpusConsistencyError(f"expected an (n, octets) matrix, got shape {arr.shape}")
    return arr


def _check_same_width(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[-1] != b.shape[-1]:
        raise CorpusConsistencyError(
            f"descriptor widths differ: {a.shape[-1] * 8} bits vs {b.shape[-1] * 8} bits"
        )


def _word_major(codes: np.ndarray) -> np.ndarray:
    """Packed rows as a C-contiguous (ceil(octets/8), rows) uint64 array: row
    i holds every row's i-th 64-bit word in native byte order, the last word
    zero-padded."""
    octets = codes.shape[1]
    if octets % 8:
        padded = np.zeros((codes.shape[0], -(-octets // 8) * 8), dtype=np.uint8)
        padded[:, :octets] = codes
        codes = padded
    return np.ascontiguousarray(codes.view(np.uint64).T)


def _block_columns(k: int, pair_bytes: int) -> int:
    """Query columns per block against `k` candidates, at least 1, when each
    (candidate, column) pair holds `pair_bytes` bytes of buffers, within
    `_HAMMING_BLOCK_BYTES` in all. `_xor_distances` alone holds 9 bytes per
    64-bit word per pair (XOR and bit count) and up to 4 for the sum; each
    caller counts what it keeps besides."""
    return max(1, _HAMMING_BLOCK_BYTES // max(1, k * pair_bytes))


def _sum_dtype(words: int) -> type:
    """The dtype of Hamming distances over `words` 64-bit words: uint16
    below 65,536 bits, uint32 from there, so no sum wraps."""
    return np.uint16 if words * 64 < 1 << 16 else np.uint32


def _xor_distances(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Hamming distances between the word-major 64-bit words `a` and `b`,
    which broadcast to `out`'s shape (words, ...): XOR into the uint64 buffer
    `out`, which may be `a` itself, a popcount into uint8 and a sum over the
    words axis into `_sum_dtype`."""
    np.bitwise_xor(a, b, out=out)
    return np.add.reduce(np.bitwise_count(out), axis=0, dtype=_sum_dtype(out.shape[0]))


def _hamming_table(words: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """(k, rows) Hamming distances from every column of `candidates` (words,
    k) to every column of `words` (words, rows), both word-major 64-bit
    words, in `_xor_distances`' sum dtype. The rows go in blocks of
    `_block_columns`, all through one XOR buffer."""
    k, rows = candidates.shape[1], words.shape[1]
    # per (candidate, column): XOR and bit count per word, the sum and the
    # table's entry, up to 12 bytes
    step = _block_columns(k, 9 * words.shape[0] + 12)
    table = np.empty((k, rows), dtype=_sum_dtype(words.shape[0]))
    buf = np.empty((words.shape[0], k, min(step, rows)), dtype=np.uint64)
    for start in range(0, rows, step):
        stop = min(rows, start + step)
        table[:, start:stop] = _xor_distances(candidates[:, :, None], words[:, None, start:stop],
                                              buf[:, :, :stop - start])
    return table


def hamming_to_all(code, codes) -> np.ndarray:
    """Hamming distance from one packed descriptor to every row of a code matrix."""
    code = _as_code(code)
    codes = _as_codes(codes)
    _check_same_width(code, codes)
    return _hamming_table(_word_major(codes), _word_major(code[None, :]))[0].astype(np.int64)


def hamming_cdist(a, b) -> np.ndarray:
    """All-pairs Hamming distances between two code matrices, shape (len(a), len(b))."""
    a = _as_codes(a)
    b = _as_codes(b)
    _check_same_width(a, b)
    return _hamming_table(_word_major(b), _word_major(a)).astype(np.int64)


def hamming_rows(a, b) -> np.ndarray:
    """Row-wise Hamming distance between two code matrices of equal shape."""
    a = _as_codes(a)
    b = _as_codes(b)
    if a.shape != b.shape:
        raise CorpusConsistencyError(f"shape mismatch: {a.shape} vs {b.shape}")
    return np.bitwise_count(np.bitwise_xor(a, b)).sum(axis=1, dtype=np.int64)


def realize_matrix(codes, dtype=np.float64) -> np.ndarray:
    """Relax a code matrix to an (n, bits) float matrix of 0/1 values."""
    return np.unpackbits(_as_codes(codes), axis=1).astype(dtype)


def binarize_matrix(values) -> np.ndarray:
    """Pack (n, bits) reals row-wise to (n, bits/8) codes: bit i is 1 iff
    values[i] > 0.5.

    The comparison is strict, so a component of exactly 0.5 rounds down to 0.
    This makes ``binarize_matrix(realize_matrix(c)) == c`` and gives per-bit
    majority votes a fixed tie rule (ties go to 0).
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise CorpusConsistencyError(f"expected an (n, bits) real matrix, got shape {arr.shape}")
    if arr.shape[1] == 0 or arr.shape[1] % 8 != 0:
        raise CorpusConsistencyError(
            f"bit count must be a positive multiple of 8, got {arr.shape[1]}"
        )
    return np.packbits(arr > 0.5, axis=1)


def majority_centroid(codes) -> np.ndarray:
    """Per-bit majority vote over a set of packed descriptors.

    Bit i of the result is 1 iff strictly more than half of the inputs have
    bit i set; exact half votes round to 0. This is computed from integer bit
    counts, so it equals binarizing the mean of the relaxed rows exactly for
    any input size.
    """
    arr = _as_codes(codes)
    if arr.shape[0] == 0:
        raise InsufficientPointsError("majority_centroid needs at least one descriptor")
    votes = np.unpackbits(arr, axis=1).sum(axis=0, dtype=np.int64)
    return np.packbits(votes * 2 > arr.shape[0])


@dataclass
class DescriptorSet:
    """A uniform-width descriptor corpus with optional per-image group boundaries.

    `codes` is the (n, bits/8) packed matrix. `group_ends` holds ascending end
    offsets, one per group, the last equal to n; groups may be empty. A set
    built without group metadata is treated as a single group.
    """

    codes: np.ndarray
    group_ends: np.ndarray | None = None

    def __post_init__(self) -> None:
        codes = self.codes = _as_codes(self.codes)
        n = codes.shape[0]
        message = "group end offsets must be integers within int64"
        if isinstance(self.group_ends, range) and self.group_ends[n + 1:]:
            # n + 2 distinct offsets cannot all lie in [0, n]; checked on the
            # range itself, which may be too long to list
            raise CorpusConsistencyError(f"group end offsets {_quote(self.group_ends)} hold more "
                                         f"than {n + 1} values and cannot ascend to {n}")
        ends = _integer_array(() if self.group_ends is None else self.group_ends,
                              CorpusConsistencyError, message)
        if ends.dtype == object:
            raise CorpusConsistencyError(f"{message}, got {_quote(self.group_ends)}")
        if ends.size == 0 and n > 0:
            ends = np.array([n], dtype=np.int64)
        if ends.size:
            if ends[0] < 0 or np.any(np.diff(ends) < 0):
                raise CorpusConsistencyError("group end offsets must be non-negative and ascending")
            if int(ends[-1]) != n:
                raise CorpusConsistencyError(
                    f"last group end {int(ends[-1])} does not match descriptor count {n}"
                )
        self.group_ends = ends

    def __len__(self) -> int:
        return self.codes.shape[0]

    @property
    def bits(self) -> int:
        return self.codes.shape[1] * 8

    @property
    def group_count(self) -> int:
        return int(self.group_ends.size)

    def group_range(self, i: int) -> tuple[int, int]:
        i = _integer(i, "group", error=IndexError)
        if not 0 <= i < self.group_count:
            raise IndexError(f"group {i} out of range [0, {self.group_count})")
        start = 0 if i == 0 else int(self.group_ends[i - 1])
        return start, int(self.group_ends[i])

    def group_codes(self, i: int) -> np.ndarray:
        start, end = self.group_range(i)
        return self.codes[start:end]

    @classmethod
    def from_groups(cls, groups) -> "DescriptorSet":
        """Build a set from a sequence of (m_i, octets) arrays, one group each."""
        mats = [_as_codes(g) for g in groups]
        if not mats:
            raise InsufficientPointsError("from_groups needs at least one group")
        for m in mats[1:]:
            _check_same_width(mats[0], m)
        ends = np.cumsum([m.shape[0] for m in mats], dtype=np.int64)
        return cls(np.vstack(mats), ends)
