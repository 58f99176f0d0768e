"""Binary persistence for trained models and built indexes.

One little-endian container with a 4-byte magic, a version byte, and a kind
byte. A model file carries ``TOKENIZER_ID``, the encoder configuration, the
projection head (its seed, then its four tensors as float32 arrays), the
training configuration, the strategy and the best epoch; no optimizer
state, as no command resumes training. An index file is the same model
section followed by the indexed columns, version 10 laid out as:

1. the index configuration;
2. the key table: every indexed column key, sorted, as a string table of
   the distinct table ids, then one counted byte string of varints: each
   table's column count minus one, then table by table its column
   positions;
3. the set postings, one block per measure in ``SET_MEASURES`` order
   (name q-grams, value terms, format patterns): a string table of the
   distinct tokens in sorted order, then one counted byte string of
   varints holding each token's row count minus one, then, list by list,
   the first row and each later row's gap minus one, so it cannot express
   an empty list or a row that does not increase;
4. the corpus document frequencies: a string table of the tokens in
   sorted order and a counted byte string of their counts, over one
   document per key;
5. every stored vector as one float32 array whose row i belongs to key i.
   It comes last, so a load decodes it once the postings' working arrays
   are freed.

A varint is minimal unsigned LEB128 (d-gaps plus variable-byte coding,
Zobel & Moffat, ACM CSUR 2006). A string table is a counted byte string of
each string's UTF-8 length as a varint, then the UTF-8 blob, as long as
their sum.

A float32 array is its rank and shape, each value's three low bytes as
they are, then the plane of its top bytes (sign and high exponent bits),
whose one mode byte says raw or coded. Raw holds the bytes as they are.
Coded is patched frame-of-reference coding (Zukowski, Heman, Nes & Boncz,
ICDE 2006): a dictionary of up to 15 byte values, the most frequent, ties
to the smaller, in increasing order; a 4-bit code per value, two to a
byte, the earlier one low, a zero nibble after an odd count; then one
byte per code 15, the exceptions, in plane order: the codes mark where
they go. A save stores the plane coded only when that is smaller than raw,
and codes it ``FLOAT_CHUNK`` values at a time. Every stored bit is kept.

Each configuration is written field by field in ``dataclasses.fields``
order, coded by the field's type (bool u8, int u64, float f64, text; an
optional text stores None as ""), so only the dataclass knows its fields.
A load validates the configurations, the head's tensor shapes and, for a
hashing model, that the head takes the encoder's dimension: it rejects
what would fail later, and a non-finite tensor or stored vector, which
would load silently, and anything else a save does not write. For a float
array: a mode other than raw or coded, a dictionary not strictly
increasing or longer than 15, a code past the dictionary, a non-zero pad
nibble and an exception byte in the dictionary. For varints: more than
``VARINT_BYTES`` bytes, a zero last byte in a multi-byte group or a string
that ends inside a group. For string tables: bad UTF-8. For the key
table: table ids not strictly increasing, a number of varints other than
the counts name, positions not increasing within a table or at 2**32 or
more. For the postings: tokens not strictly increasing, a number of
varints other than the counts name, or a row at or past the column
count. For the document frequencies: tokens not
strictly increasing, and counts other than one in [1, key count] per
token.

The cosine LSH index is not stored: loading hands the keys and the vector
matrix, decoded into a fresh array, in key-table order, to the
``SearchEngine``, whose cosine index takes that array as its rows and
files them as ``build_engine`` filed its own. No array a load returns is a
view of the file bytes.

Every file ends in a 32-byte blake2b digest of all bytes before it. Loads
read the file into an anonymous memory mapping, which goes back to the
system when the load drops it, and check magic, version and kind, then the
digest, before parsing anything else, so a truncated or corrupt file fails
with InputError; versions 1 to 9 are rejected, and so is a file whose
tokenizer id is not ``TOKENIZER_ID``.
Saves are atomic (temp file + rename) and streamed: the body goes to the
temp file in chunks of about ``CHUNK_BYTES`` through one running blake2b,
and the digest is written last, so a save never holds the file whole; it
encodes the postings about ``POSTINGS_CHUNK`` rows at a time.
"""

from __future__ import annotations

import hashlib
import math
import mmap
import os
import struct
import tempfile
from collections import Counter
from dataclasses import dataclass, fields
from pathlib import Path
from itertools import chain, repeat
from typing import BinaryIO, Callable, Iterator, Sequence, get_type_hints

import numpy as np

from .corpus import ColumnKey, TOKENIZER_ID
from .encoder import Encoder, EncoderConfig, HASHING_BACKEND
from .errors import ConfigError, InputError, NumericError
from .projection import ProjectionHead, TrainConfig, Velocity
from .search import IndexConfig, SearchEngine
from .syntactic import SET_MEASURES, SetPostings, TfidfModel

MAGIC = b"PYLN"
VERSION = 10
KIND_MODEL = 1
KIND_INDEX = 2
CHECKSUM_BYTES = 32
# The most bytes one varint takes: 35 bits hold any u32.
VARINT_BYTES = 5
# About how many posting rows a save encodes at a time; a list is never
# split, so a longer one is encoded whole.
POSTINGS_CHUNK = 1 << 13
# Bytes of small fields a save gathers before it hashes and writes them.
CHUNK_BYTES = 1 << 16
# How many values of a float32 array a save codes, and a load decodes, at
# a time, rounded up to even so that no byte holds codes of two chunks.
FLOAT_CHUNK = 1 << 16
# The modes of a float array's top-byte plane, and the code of a value
# whose top byte is not in the dictionary.
RAW, CODED = 0, 1
EXCEPTION = 15


@dataclass
class ModelBundle:
    """Everything the training step produces and the index step consumes.

    ``velocity`` is the optimizer state a training run ends with. It lives
    in memory only: a save does not write it and a load returns None.
    """

    encoder_config: EncoderConfig
    head: ProjectionHead
    train_config: TrainConfig
    strategy: str
    best_epoch: int
    velocity: Velocity | None = None


class _Writer:
    """Streams fields into a binary file through one running blake2b.

    Small fields gather in one buffer of about ``CHUNK_BYTES``, so a save
    holds no object per field; a piece at least that long, such as a chunk
    of the vector matrix, is hashed and written from its own memory.
    ``finish`` appends the digest of every byte before it.
    """

    def __init__(self, fh: BinaryIO) -> None:
        self.fh = fh
        self.digest = hashlib.blake2b(digest_size=CHECKSUM_BYTES)
        self.buf = bytearray()

    def _emit(self, data: bytes | bytearray | memoryview) -> None:
        self.digest.update(data)
        self.fh.write(data)

    def _flush(self) -> None:
        self._emit(self.buf)
        self.buf.clear()

    def raw(self, data: bytes | memoryview) -> None:
        if len(data) >= CHUNK_BYTES:
            self._flush()
            self._emit(data)
            return
        self.buf += data
        if len(self.buf) >= CHUNK_BYTES:
            self._flush()

    def u8(self, v: int) -> None:
        self.raw(struct.pack("<B", v))

    def u32(self, v: int) -> None:
        self.raw(struct.pack("<I", v))

    def u64(self, v: int) -> None:
        # Out of range raises, so no value is stored as another.
        self.raw(struct.pack("<Q", v))

    def f64(self, v: float) -> None:
        self.raw(struct.pack("<d", v))

    def text(self, s: str) -> None:
        raw = s.encode("utf-8")
        self.u32(len(raw))
        self.raw(raw)

    def varints(self, values: np.ndarray) -> None:
        """A counted byte string of ``_varints``."""
        data = _varints(values)
        self.u32(len(data))
        self.raw(data.data)

    def strings(self, items: Sequence[str]) -> None:
        """A string table: the UTF-8 lengths as varints, then the blob."""
        blob = "".join(items).encode("utf-8")
        lengths = np.fromiter(map(len, items), dtype=np.int64,
                              count=len(items))
        if lengths.sum() != len(blob):
            # Not all ASCII, so some string's bytes outnumber its characters.
            lengths = np.fromiter((len(s.encode("utf-8")) for s in items),
                                  dtype=np.int64, count=len(items))
        self.varints(lengths)
        self.raw(blob)

    def f32_array(self, arr: np.ndarray) -> None:
        """Shape, low bytes, then the top-byte plane, ``FLOAT_CHUNK`` values
        at a time: one pass writes the low bytes and counts the top ones,
        and ``_top_plane`` codes them."""
        a = np.ascontiguousarray(arr, dtype="<f4")
        self.u8(a.ndim)
        for d in a.shape:
            self.u32(d)
        values = a.reshape(-1).view(np.uint8).reshape(-1, 4)
        counts = np.zeros(256, dtype=np.int64)
        for _, chunk in _chunks(values):
            low = np.empty((len(chunk), 3), dtype=np.uint8)
            # Column by column: one copy of 3-byte rows takes 3-4x as long.
            for j in range(3):
                low[:, j] = chunk[:, j]
            self.raw(low.reshape(-1).data)
            counts += np.bincount(chunk[:, 3], minlength=256)
        self._top_plane(values, counts)

    def _top_plane(self, values: np.ndarray, counts: np.ndarray) -> None:
        """The top bytes of values, coded against the up to 15 most frequent
        unless that is no smaller than raw; counts holds each byte's count."""
        n = len(values)
        ranked = np.argsort(-counts, kind="stable")[:EXCEPTION]
        words = np.sort(ranked[counts[ranked] > 0]).astype(np.uint8)
        n_exceptions = n - int(counts[words].sum())
        # Mode, dictionary size, dictionary, codes and the exceptions' bytes.
        if 2 + len(words) + (n + 1) // 2 + n_exceptions >= 1 + n:
            self.u8(RAW)
            for _, chunk in _chunks(values):
                self.raw(np.ascontiguousarray(chunk[:, 3]).data)
            return
        codes = np.full(256, EXCEPTION, dtype=np.uint8)
        codes[words] = np.arange(len(words))
        self.u8(CODED)
        self.u8(len(words))
        self.raw(words.data)
        found: list[np.ndarray] = []
        for packed in _coded(values, codes, found):
            self.raw(packed.data)
        for piece in found:
            self.raw(piece.data)

    def finish(self) -> None:
        self._flush()
        self.fh.write(self.digest.digest())


class _Reader:
    """Reads fields in order from ``data`` up to ``end``.

    Integers are unpacked in place and a counted byte string is a read-only
    uint8 view of ``data``, which callers read and drop. A float32 array is
    decoded into a fresh array of its own, so no array a load keeps is a
    view of the file bytes.
    """

    def __init__(self, data: bytes, path: str):
        self.data = data
        self.end = len(data)
        self.pos = 0
        self.path = path

    def _advance(self, n: int) -> int:
        """Where the next n bytes start; they must lie before ``end``."""
        start = self.pos
        if start + n > self.end:
            raise InputError(f"{self.path}: truncated file")
        self.pos = start + n
        return start

    def _take(self, n: int) -> bytes:
        start = self._advance(n)
        return self.data[start:self.pos]

    def _view(self, n: int) -> np.ndarray:
        """The next n bytes, as a read-only uint8 view of ``data``."""
        return np.frombuffer(self.data, dtype=np.uint8, count=n,
                             offset=self._advance(n))

    def u8(self) -> int:
        return struct.unpack_from("<B", self.data, self._advance(1))[0]

    def u32(self) -> int:
        return struct.unpack_from("<I", self.data, self._advance(4))[0]

    def u64(self) -> int:
        return struct.unpack_from("<Q", self.data, self._advance(8))[0]

    def f64(self) -> float:
        return struct.unpack_from("<d", self.data, self._advance(8))[0]

    def text(self) -> str:
        try:
            return self._take(self.u32()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(f"{self.path}: bad UTF-8 text: {exc}") from exc

    def u8_array(self) -> np.ndarray:
        """A counted byte string, as a read-only uint8 view of ``data``."""
        return self._view(self.u32())

    def strings(self, what: str) -> list[str]:
        """A string table: its blob is as long as its lengths' sum."""
        lengths = _read_varints(self, f"{what} lengths")
        # Each length within the bytes left first, so the sum cannot overflow.
        if lengths.size and lengths.max() > self.end - self.pos:
            raise InputError(f"{self.path}: truncated file")
        blob = self._take(int(lengths.sum()))
        ends = np.cumsum(lengths).tolist()
        bounds = zip([0, *ends], ends)
        if blob.isascii():
            # An ASCII string's characters are its bytes.
            text = blob.decode("ascii")
            return [text[a:b] for a, b in bounds]
        try:
            return [blob[a:b].decode("utf-8") for a, b in bounds]
        except UnicodeDecodeError as exc:
            raise InputError(f"{self.path}: bad UTF-8 text: {exc}") from exc

    def f32_array(self) -> np.ndarray:
        """A float32 array as ``_Writer.f32_array`` writes it, decoded
        ``FLOAT_CHUNK`` values at a time into a fresh array."""
        ndim = self.u8()
        shape = tuple(self.u32() for _ in range(ndim))
        n = math.prod(shape)
        low = self._view(3 * n).reshape(n, 3)
        mode = self.u8()
        if mode not in (RAW, CODED):
            raise InputError(f"{self.path}: float array mode {mode} is "
                             f"neither raw ({RAW}) nor coded ({CODED})")
        try:
            out = np.empty(shape, dtype="<f4")
        except ValueError as exc:
            # No values, but axes whose product numpy cannot size.
            raise InputError(f"{self.path}: float array shape {shape}: "
                             f"{exc}") from exc
        values = out.reshape(-1).view(np.uint8).reshape(n, 4)
        for j in range(3):
            values[:, j] = low[:, j]
        if mode == RAW:
            values[:, 3] = self._view(n)
        else:
            self._coded_plane(values[:, 3])
        return out

    def _coded_plane(self, top: np.ndarray) -> None:
        """Decodes a coded top-byte plane into top, checking that it is one
        a save writes; each code 15 takes the next exception byte."""
        n = len(top)
        words = self._view(self.u8())
        if len(words) > EXCEPTION:
            raise InputError(f"{self.path}: float array dictionary of "
                             f"{len(words)} bytes, more than {EXCEPTION}")
        if (words[1:] <= words[:-1]).any():
            raise InputError(f"{self.path}: float array dictionary not "
                             "strictly increasing")
        packed = self._view((n + 1) // 2)
        if n % 2 and packed[-1] >> 4:
            raise InputError(f"{self.path}: float array codes end in a "
                             "non-zero pad nibble")
        table = np.zeros(EXCEPTION + 1, dtype=np.uint8)
        table[:len(words)] = words
        past = np.arange(EXCEPTION + 1) >= len(words)
        past[EXCEPTION] = False
        in_words = np.zeros(256, dtype=bool)
        in_words[words] = True
        for lo, chunk in _chunks(top):
            pairs = packed[lo // 2:(lo + len(chunk) + 1) // 2]
            codes = np.empty(2 * len(pairs), dtype=np.uint8)
            codes[0::2] = pairs & 0x0F
            codes[1::2] = pairs >> 4
            codes = codes[:len(chunk)]
            if np.take(past, codes).any():
                raise InputError(f"{self.path}: float array code past its "
                                 f"dictionary of {len(words)}")
            chunk[...] = np.take(table, codes)
            # The chunk's exception bytes follow those of the chunks before.
            marked = codes == EXCEPTION
            exceptions = self._view(int(np.count_nonzero(marked)))
            if in_words[exceptions].any():
                raise InputError(f"{self.path}: float array exception byte "
                                 "in its dictionary")
            chunk[marked] = exceptions

    def expect_end(self) -> None:
        if self.pos != self.end:
            raise InputError(f"{self.path}: {self.end - self.pos} "
                             "trailing bytes")


def _chunks(values: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """The start and the rows of each chunk of ``FLOAT_CHUNK`` rows of
    values, rounded up to even."""
    step = FLOAT_CHUNK + FLOAT_CHUNK % 2
    for lo in range(0, len(values), step):
        yield lo, values[lo:lo + step]


def _coded(values: np.ndarray, codes: np.ndarray,
           found: list[np.ndarray]) -> Iterator[np.ndarray]:
    """Each chunk's codes of its values' top bytes, two to a byte, by the
    byte -> code table codes; the exceptions' bytes go to found on the
    way."""
    for _, chunk in _chunks(values):
        pairs = np.take(codes, chunk[:, 3])
        found.append(chunk[pairs == EXCEPTION, 3])
        if len(pairs) % 2:
            pairs = np.append(pairs, np.uint8(0))
        yield pairs[0::2] | pairs[1::2] << 4


def atomic_write(path: str | Path, write: Callable[[str], None]) -> None:
    """Run a path-taking writer against a temp file, then rename into place.

    If the writer fails, the temp file is removed and the target is left
    as it was.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                               suffix=".tmp")
    os.close(fd)
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# Writer and reader of a config field, by its annotation; None text is "".
_FIELD_CODECS: dict[object, tuple[Callable, Callable]] = {
    bool: (lambda w, v: w.u8(int(v)), lambda r: bool(r.u8())),
    int: (_Writer.u64, _Reader.u64),
    float: (_Writer.f64, _Reader.f64),
    str: (_Writer.text, _Reader.text),
    str | None: (lambda w, v: w.text(v or ""), lambda r: r.text() or None),
}


def _write_config(w: _Writer, cfg: object) -> None:
    """Every field of a config dataclass in field order, coded by type."""
    hints = get_type_hints(type(cfg))
    for f in fields(cfg):
        _FIELD_CODECS[hints[f.name]][0](w, getattr(cfg, f.name))


def _read_config(r: _Reader, cls: type) -> object:
    hints = get_type_hints(cls)
    return cls(**{f.name: _FIELD_CODECS[hints[f.name]][1](r)
                  for f in fields(cls)})


def _write_model_section(w: _Writer, bundle: ModelBundle) -> None:
    w.text(TOKENIZER_ID)
    _write_config(w, bundle.encoder_config)
    w.u64(bundle.head.init_seed)
    for t in bundle.head.tensors():
        w.f32_array(t)
    _write_config(w, bundle.train_config)
    w.text(bundle.strategy)
    w.u32(bundle.best_epoch)


def _read_model_section(r: _Reader) -> ModelBundle:
    tokenizer_id = r.text()
    if tokenizer_id != TOKENIZER_ID:
        raise InputError(f"{r.path}: tokenizer {tokenizer_id!r} is not {TOKENIZER_ID!r}")
    ec = _read_config(r, EncoderConfig)
    init_seed = r.u64()
    tensors = [r.f32_array() for _ in range(4)]
    tc = _read_config(r, TrainConfig)
    strategy = r.text()
    best_epoch = r.u32()
    if not all(np.isfinite(t).all() for t in tensors):
        raise InputError(f"{r.path}: non-finite head tensor")
    try:
        ec.validate()
        tc.validate()
        head = ProjectionHead(*tensors, init_seed=init_seed)
        if ec.backend == HASHING_BACKEND and head.dims[0] != ec.dim:
            raise ConfigError(f"head takes {head.dims[0]}-dim base embeddings "
                              f"but the hashing encoder makes {ec.dim}")
    except ConfigError as exc:
        # Stored values the constructors reject are bad input all the same.
        raise InputError(f"{r.path}: {exc}") from exc
    return ModelBundle(encoder_config=ec, head=head, train_config=tc,
                       strategy=strategy, best_epoch=best_epoch)


def _write_key_table(w: _Writer, keys: list[ColumnKey]) -> None:
    """Each table id once, then each table's column count minus one, then
    table by table its positions. Keys out of order would be stored as
    other keys, so they are refused."""
    if any(after <= before for before, after in zip(keys, keys[1:])):
        raise ValueError("keys must be strictly increasing")
    table_ids, positions = zip(*keys) if keys else ((), ())
    counts = Counter(table_ids)
    positions = np.array(positions, dtype=np.int64)
    if positions.size and positions.max() >= 1 << 32:
        raise ValueError("column positions must lie below 2**32")
    w.strings(list(counts))
    w.varints(np.concatenate([np.fromiter(counts.values(), dtype=np.int64,
                                          count=len(counts)) - 1,
                              positions]))


def _check_increasing(r: _Reader, items: list, what: str) -> None:
    for before, after in zip(items, items[1:]):
        if not before < after:
            raise InputError(f"{r.path}: {what} not strictly increasing: "
                             f"{after!r} follows {before!r}")


def _read_lists(r: _Reader, n_lists: int, what: str
                ) -> tuple[np.ndarray, np.ndarray]:
    """The counts and the items of a counted byte string of varints that
    holds n_lists counts minus one, then the items of every list."""
    values = _read_varints(r, what)
    counts = values[:n_lists] + 1
    if len(values) != n_lists + counts.sum():
        raise InputError(f"{r.path}: {what} hold {len(values)} varints, "
                         f"not {n_lists} counts and the {counts.sum()} "
                         "items they name")
    return counts, values[n_lists:]


def _read_key_table(r: _Reader) -> list[ColumnKey]:
    """The stored keys, strictly increasing as saves write them: table ids
    strictly increasing, and positions below 2**32 and increasing within
    each table."""
    table_ids = r.strings("table id")
    _check_increasing(r, table_ids, "table ids")
    counts, positions = _read_lists(r, len(table_ids), "key table columns")
    if positions.size and positions.max() >= 1 << 32:
        raise InputError(f"{r.path}: key table holds a column position of "
                         "2**32 or more")
    steps = np.diff(positions)
    # A table's first position follows no position of its own table.
    steps[np.cumsum(counts)[:-1] - 1] = 1
    if (steps <= 0).any():
        raise InputError(f"{r.path}: key table positions not increasing "
                         "within a table")
    ids = chain.from_iterable(map(repeat, table_ids, counts.tolist()))
    return list(zip(ids, positions.tolist()))


def _varints(values: np.ndarray) -> np.ndarray:
    """Each value as minimal unsigned LEB128, one uint8 array for them all:
    7 bits per byte, low bits first, the high bit set on every byte but a
    value's last."""
    if values.size and not (values.min() >= 0
                            and values.max() < 1 << 7 * VARINT_BYTES):
        raise ValueError("varint values must lie in "
                         f"[0, 2**{7 * VARINT_BYTES})")
    widths = np.ones(len(values), dtype=np.uint8)
    top = int(values.max()) if values.size else 0
    for k in range(1, VARINT_BYTES):
        if top < 1 << 7 * k:
            break
        widths += values >= 1 << 7 * k
    at = np.cumsum(widths, dtype=np.int64)
    out = np.empty(at[-1] if len(at) else 0, dtype=np.uint8)
    at -= widths
    # The next byte of every value with bytes left, fewer values each
    # round; a uint8 cast keeps a value's low 8 bits.
    rest = values
    while len(rest):
        more = widths > 1
        out[at] = rest.astype(np.uint8) & 0x7F | more.view(np.uint8) << 7
        rest, widths, at = rest[more] >> 7, widths[more] - 1, at[more] + 1
    return out


def _read_varints(r: _Reader, what: str) -> np.ndarray:
    """The values of a counted byte string of ``_varints``, as int64.

    Every value must be canonical, as ``_varints`` writes it: at most
    ``VARINT_BYTES`` bytes, a multi-byte value's last byte not zero, and no
    byte string that ends inside a value. Past byte masks, the one array
    as long as the values is the result; the work on multi-byte values is
    the size of their continuation bytes.
    """
    data = r.u8_array()
    if data.size and not data[-1] < 0x80:
        raise InputError(f"{r.path}: {what} end inside a varint")
    more = data >= 0x80
    values = data[~more].astype(np.int64)
    # Each continuation byte belongs to the value of the next last byte:
    # the one whose index is the count of last bytes before it.
    at = np.flatnonzero(more)
    owner = at - np.arange(len(at))
    firsts = np.flatnonzero(np.diff(owner, prepend=-1))
    lengths = np.diff(firsts, append=len(at))
    wide = owner[firsts]
    if (lengths >= VARINT_BYTES).any():
        raise InputError(f"{r.path}: {what} hold a varint of more than "
                         f"{VARINT_BYTES} bytes")
    if (values[wide] == 0).any():
        raise InputError(f"{r.path}: {what} hold a varint that is not "
                         "minimal")
    if len(at):
        shifts = 7 * (np.arange(len(at)) - np.repeat(firsts, lengths))
        low = np.add.reduceat((data[at] & 0x7F).astype(np.int64) << shifts,
                              firsts)
        values[wide] = values[wide] << 7 * lengths | low
    return values


def _write_postings(w: _Writer, postings: SetPostings) -> None:
    tokens = sorted(postings.postings)
    w.strings(tokens)
    lists = [postings.postings[tok] for tok in tokens]
    counts = np.array([len(rows) for rows in lists], dtype=np.int64)
    pieces = [_varints(counts - 1)]
    # The lists of about POSTINGS_CHUNK rows at a time, so the arrays a
    # save makes stay small: each first row as itself, each later row as
    # its gap minus 1.
    ends = np.cumsum(counts)
    cuts = np.searchsorted(ends, np.arange(POSTINGS_CHUNK, ends[-1],
                                           POSTINGS_CHUNK),
                           side="right").tolist() if len(ends) else []
    for a, b in zip([0, *cuts], [*cuts, len(lists)]):
        if a == b:
            continue
        rows = np.concatenate(lists[a:b])
        gaps = np.empty_like(rows)
        np.subtract(rows[1:], rows[:-1], out=gaps[1:])
        gaps -= 1
        firsts = ends[a:b] - counts[a:b] - (ends[a] - counts[a])
        gaps[firsts] = rows[firsts]
        pieces.append(_varints(gaps))
    w.u32(sum(len(piece) for piece in pieces))
    for piece in pieces:
        w.raw(piece.data)


def _read_postings(r: _Reader, n_rows: int) -> SetPostings:
    """One measure's postings, as ``_write_postings`` writes them.

    Tokens must be strictly increasing, the varints canonical, their number
    the tokens' count plus the sum of the row counts, and each list's last
    row below n_rows. A list then is non-empty and strictly increasing, so
    a row's count of entries is its set's size.
    """
    tokens = r.strings("postings token")
    _check_increasing(r, tokens, "postings tokens")
    counts, rows = _read_lists(r, len(tokens), "postings")
    # The gaps become the rows in place: each later row steps its gap plus
    # 1, and each first row steps from the last row of the list before.
    firsts = np.cumsum(counts) - counts
    first_rows = rows[firsts]
    rows += 1
    rows[firsts] = first_rows
    lasts = np.add.reduceat(rows, firsts) if len(firsts) else firsts
    if lasts.size and lasts.max() >= n_rows:
        raise InputError(f"{r.path}: postings hold a row at or past the "
                         f"column count {n_rows}")
    rows[firsts[1:]] -= lasts[:-1]
    np.cumsum(rows, out=rows)
    # Each list copied out as its own array: small arrays fill the free
    # space a build leaves, where views of one array per measure take new
    # pages (1-2 MB more peak RSS in a build-save-load-serve process).
    cuts = (firsts + counts).tolist()
    return SetPostings({tok: rows[a:b].copy() for tok, a, b
                        in zip(tokens, [0, *cuts], cuts)}, n_rows)


def _write_index_section(w: _Writer, engine: SearchEngine) -> None:
    """The index section; the document frequencies must count one document
    per key, as a load takes the column count from the key table."""
    if engine.tfidf.n_columns != len(engine.keys):
        raise ValueError(f"document frequencies over {engine.tfidf.n_columns}"
                         f" columns, not the {len(engine.keys)} keys")
    _write_config(w, engine.index_config)

    _write_key_table(w, engine.keys)
    for measure in SET_MEASURES:
        _write_postings(w, engine.postings[measure])

    tokens = sorted(engine.tfidf.df)
    w.strings(tokens)
    w.varints(np.fromiter(map(engine.tfidf.df.__getitem__, tokens),
                          dtype=np.int64, count=len(tokens)))
    w.f32_array(engine.semantic_index.vectors)


def _read_index_section(r: _Reader, bundle: ModelBundle) -> SearchEngine:
    cfg = _read_config(r, IndexConfig)
    keys = _read_key_table(r)
    postings = {measure: _read_postings(r, len(keys))
                for measure in SET_MEASURES}

    # One document per indexed column, as build_tfidf counts them.
    tokens = r.strings("df token")
    _check_increasing(r, tokens, "df tokens")
    dfs = _read_varints(r, "document frequencies")
    if len(dfs) != len(tokens):
        raise InputError(f"{r.path}: {len(dfs)} document frequencies for "
                         f"{len(tokens)} df tokens")
    if dfs.size and not (dfs.min() > 0 and dfs.max() <= len(keys)):
        raise InputError(f"{r.path}: document frequencies are not counts in "
                         f"[1, {len(keys)}] over {len(keys)} columns")
    tfidf = TfidfModel(df=dict(zip(tokens, dfs.tolist())),
                       n_columns=len(keys))

    dim = bundle.head.dims[2]
    matrix = r.f32_array()
    if matrix.shape != (len(keys), dim):
        raise InputError(f"{r.path}: vector matrix shape {matrix.shape} != "
                         f"{(len(keys), dim)}")

    try:
        # The decoded matrix is this load's own, so the index keeps it.
        return SearchEngine._adopting(Encoder(bundle.encoder_config),
                                      bundle.head, cfg, tfidf, keys, matrix,
                                      postings)
    except (ConfigError, NumericError) as exc:
        # Stored values the constructors reject are bad input all the same.
        raise InputError(f"{r.path}: {exc}") from exc


def _checksum(body: bytes | memoryview) -> bytes:
    return hashlib.blake2b(body, digest_size=CHECKSUM_BYTES).digest()


def _save(path: str | Path, bundle: ModelBundle,
          engine: SearchEngine | None) -> None:
    """A model file, or an index file when an engine is given, streamed
    into an ``atomic_write`` temp file."""
    def write(tmp: str) -> None:
        with open(tmp, "wb") as fh:
            w = _Writer(fh)
            w.raw(MAGIC)
            w.u8(VERSION)
            w.u8(KIND_MODEL if engine is None else KIND_INDEX)
            _write_model_section(w, bundle)
            if engine is not None:
                _write_index_section(w, engine)
            w.finish()

    atomic_write(path, write)


def _open(path: str | Path, expected_kind: int) -> _Reader:
    """A reader past the header, over the body once its checksum matches."""
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            # An anonymous mapping of its own goes back to the system when
            # dropped; a buffer from the heap can leave its pages resident
            # under what a load keeps.
            data = mmap.mmap(-1, size) if size else b""
            if size and fh.readinto(data) != size:
                raise InputError(f"{path}: truncated file")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    r = _Reader(data, str(path))
    if r._take(4) != MAGIC:
        raise InputError(f"{path}: bad magic, not a model/index file")
    version = r.u8()
    if version != VERSION:
        raise InputError(f"{path}: unsupported version {version}")
    kind = r.u8()
    if kind != expected_kind:
        found = "model" if kind == KIND_MODEL else "index"
        want = "model" if expected_kind == KIND_MODEL else "index"
        raise InputError(f"{path}: this is a {found} file, expected {want}")
    body = memoryview(data)[:-CHECKSUM_BYTES]
    if len(body) < r.pos or _checksum(body) != data[-CHECKSUM_BYTES:]:
        raise InputError(f"{path}: checksum mismatch, the file is truncated "
                         "or corrupt")
    r.end = len(body)
    return r


def save_model(path: str | Path, bundle: ModelBundle) -> None:
    _save(path, bundle, None)


def load_model(path: str | Path) -> ModelBundle:
    r = _open(path, KIND_MODEL)
    bundle = _read_model_section(r)
    r.expect_end()
    return bundle


def save_index(path: str | Path, bundle: ModelBundle,
               engine: SearchEngine) -> None:
    _save(path, bundle, engine)


def load_index(path: str | Path) -> tuple[ModelBundle, SearchEngine]:
    r = _open(path, KIND_INDEX)
    bundle = _read_model_section(r)
    engine = _read_index_section(r, bundle)
    r.expect_end()
    return bundle, engine
