"""Binary persistence for trained models and built indexes.

One little-endian container with a 4-byte magic, a version byte, and a kind
byte. A model file carries ``TOKENIZER_ID``, the encoder configuration, the
projection head (its seed, its dimensions in, hidden and out as three u32,
then its four tensors as float32 arrays of the shapes they imply), the
training configuration, the strategy and the best epoch; no optimizer
state, as no command resumes training. An index file is the same model
section followed by the indexed columns, version 11 laid out as:

1. the index configuration;
2. the key table: every indexed column key, sorted, as a list block of
   each table's column positions named by its table id;
3. the set postings, one list block per measure in ``SET_MEASURES`` order
   (name q-grams, value terms, format patterns), each token's rows named
   by the token;
4. the corpus document frequencies: a string table of the tokens in
   sorted order and a counted byte string of their counts, over one
   document per key;
5. every stored vector as one float32 array of (key count, out) values
   whose row i belongs to key i. It comes last, so a load decodes it once
   the postings' working arrays are freed.

A list block is a string table of the lists' names in sorted order, then
one counted byte string of varints holding each list's length minus one,
then, list by list, the first item and each later item's gap minus one
(d-gaps, Zobel & Moffat, ACM CSUR 2006), so it cannot express an empty
list or an item that does not increase. A varint is minimal unsigned
LEB128. A string table is a counted byte string of each string's UTF-8
length as a varint, then the UTF-8 blob, as long as their sum.

A float32 array stores no shape: a load knows it from the head's
dimensions and the key count. It is each value's three low bytes as they
are, then the plane of its top bytes (sign and high exponent bits), coded
by patched frame-of-reference (Zukowski, Heman, Nes & Boncz, ICDE 2006): a
dictionary size and a dictionary of up to 15 byte values, the most
frequent, ties to the smaller, in increasing order; a 4-bit code per
value, two to a byte, the earlier one low, a zero nibble after an odd
count; then one byte per code 15, the exceptions, in plane order: the
codes mark where they go. A save codes ``FLOAT_CHUNK`` values at a time.
Every stored bit is kept.

Each configuration is written field by field in ``dataclasses.fields``
order, coded by the field's type (bool u8, int u64, float f64, text; an
optional text stores None as ""), so only the dataclass knows its fields.
A load refuses a configuration that its constructor refuses and, for a
hashing model or any index, a head that does not take the encoder's
dimension: it rejects what would fail later, and a non-finite tensor or
stored vector, which would load silently, and anything else a save does
not write. For a float array: a dictionary not strictly increasing or
longer than 15, a code past the dictionary, a non-zero pad nibble and an
exception byte in the dictionary. For varints: more than ``VARINT_BYTES``
bytes, a zero last byte in a multi-byte group or a string that ends inside
a group. For string tables: bad UTF-8. For a list block: names not
strictly increasing, a number of varints other than the lengths name, or
an item at or past its bound: 2**32 for a column position, the key count
for a posting row. For the document frequencies: tokens not strictly
increasing, and counts other than one in [1, key count] per token.

The cosine LSH index is not stored: loading hands the keys and the vector
matrix, decoded into a fresh array, in key-table order, to the
``SearchEngine``, whose cosine index takes that array as its rows and
files them as ``build_engine`` filed its own. No array a load returns is a
view of the file bytes.

Every file ends in a 32-byte blake2b digest of all bytes before it. Loads
read the file into an anonymous memory mapping, which goes back to the
system when the load drops it, and check magic, version and kind, then the
digest, before parsing anything else, so a truncated or corrupt file fails
with InputError; versions 1 to 10 are rejected, and so is a file whose
tokenizer id is not ``TOKENIZER_ID``.
Saves are atomic (temp file + rename) and streamed: each field goes
through one running blake2b to the temp file's own buffer, and the digest
is written last, so a save never holds the file whole; it encodes a list
block about ``POSTINGS_CHUNK`` items at a time.
"""

from __future__ import annotations

import hashlib
import math
import mmap
import os
import struct
import tempfile
from collections import Counter
from dataclasses import dataclass, fields, replace
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
VERSION = 11
KIND_MODEL = 1
KIND_INDEX = 2
CHECKSUM_BYTES = 32
# The most bytes one varint takes: 35 bits hold any u32.
VARINT_BYTES = 5
# About how many items of a list block a save encodes at a time; a list is
# never split, so a longer one is encoded whole.
POSTINGS_CHUNK = 1 << 13
# How many values of a float32 array a save codes, and a load decodes, at
# a time, rounded up to even so that no byte holds codes of two chunks.
FLOAT_CHUNK = 1 << 16
# The code of a value whose top byte is not in its plane's dictionary.
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
    """Writes fields to a file object, whose own buffer gathers the small
    ones, through one running blake2b; ``finish`` appends the digest of
    every byte before it."""

    def __init__(self, fh: BinaryIO) -> None:
        self.fh = fh
        self.digest = hashlib.blake2b(digest_size=CHECKSUM_BYTES)

    def raw(self, data: bytes | memoryview) -> None:
        self.digest.update(data)
        self.fh.write(data)

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
        """Low bytes, then the coded top-byte plane, ``FLOAT_CHUNK`` values
        at a time: one pass writes the low bytes and counts the top ones,
        and one writes the codes, keeping the exceptions' bytes for last."""
        a = np.ascontiguousarray(arr, dtype="<f4")
        values = a.reshape(-1).view(np.uint8).reshape(-1, 4)
        counts = np.zeros(256, dtype=np.int64)
        for _, chunk in _chunks(values):
            low = np.empty((len(chunk), 3), dtype=np.uint8)
            # Column by column: one copy of 3-byte rows takes 3-4x as long.
            for j in range(3):
                low[:, j] = chunk[:, j]
            self.raw(low.reshape(-1).data)
            counts += np.bincount(chunk[:, 3], minlength=256)
        ranked = np.argsort(-counts, kind="stable")[:EXCEPTION]
        words = np.sort(ranked[counts[ranked] > 0]).astype(np.uint8)
        codes = np.full(256, EXCEPTION, dtype=np.uint8)
        codes[words] = np.arange(len(words))
        self.u8(len(words))
        self.raw(words.data)
        exceptions = []
        for _, chunk in _chunks(values):
            pairs = np.take(codes, chunk[:, 3])
            exceptions.append(chunk[pairs == EXCEPTION, 3])
            if len(pairs) % 2:
                pairs = np.append(pairs, np.uint8(0))
            self.raw((pairs[0::2] | pairs[1::2] << 4).data)
        for piece in exceptions:
            self.raw(piece.data)

    def finish(self) -> None:
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

    def f32_array(self, shape: tuple[int, ...]) -> np.ndarray:
        """A float32 array of shape as ``_Writer.f32_array`` writes it,
        decoded ``FLOAT_CHUNK`` values at a time into a fresh array, once
        its plane is checked to be one a save writes; each code 15 takes
        the next exception byte."""
        n = math.prod(shape)
        low = self._view(3 * n).reshape(n, 3)
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
        in_words = np.zeros(256, dtype=bool)
        in_words[words] = True
        out = np.empty(shape, dtype="<f4")
        values = out.reshape(-1).view(np.uint8).reshape(n, 4)
        for j in range(3):
            values[:, j] = low[:, j]
        for lo, chunk in _chunks(values[:, 3]):
            pairs = packed[lo // 2:(lo + len(chunk) + 1) // 2]
            codes = np.empty(2 * len(pairs), dtype=np.uint8)
            codes[0::2] = pairs & 0x0F
            codes[1::2] = pairs >> 4
            codes = codes[:len(chunk)]
            marked = codes == EXCEPTION
            if ((codes >= len(words)) & ~marked).any():
                raise InputError(f"{self.path}: float array code past its "
                                 f"dictionary of {len(words)}")
            chunk[...] = np.take(table, codes)
            # The chunk's exception bytes follow those of the chunks before.
            exceptions = self._view(int(np.count_nonzero(marked)))
            if in_words[exceptions].any():
                raise InputError(f"{self.path}: float array exception byte "
                                 "in its dictionary")
            chunk[marked] = exceptions
        return out

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
    values = {f.name: _FIELD_CODECS[hints[f.name]][1](r) for f in fields(cls)}
    try:
        return cls(**values)
    except ConfigError as exc:
        # Stored values the constructors reject are bad input all the same.
        raise InputError(f"{r.path}: {exc}") from exc


def _tensor_shapes(dims: tuple[int, int, int]) -> list[tuple[int, ...]]:
    """The shapes of W1, b1, W2 and b2 in a head of dims (in, hidden, out)."""
    n_in, hidden, out = dims
    return [(hidden, n_in), (hidden,), (out, hidden), (out,)]


def _write_model_section(w: _Writer, bundle: ModelBundle) -> None:
    """The model section. A file stores the head's dims, not its tensors'
    shapes, so a head whose tensors have other shapes is refused."""
    head = bundle.head
    shapes = [np.shape(t) for t in head.tensors()]
    if len(shapes[0]) != 2 or shapes != _tensor_shapes(head.dims):
        raise ValueError(f"head tensor shapes {shapes} do not agree; want "
                         "W1 (h, in), b1 (h,), W2 (out, h), b2 (out,)")
    w.text(TOKENIZER_ID)
    _write_config(w, bundle.encoder_config)
    w.u64(head.init_seed)
    for d in head.dims:
        w.u32(d)
    for t in head.tensors():
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
    dims = (r.u32(), r.u32(), r.u32())
    tensors = [r.f32_array(shape) for shape in _tensor_shapes(dims)]
    tc = _read_config(r, TrainConfig)
    strategy = r.text()
    best_epoch = r.u32()
    if not all(np.isfinite(t).all() for t in tensors):
        raise InputError(f"{r.path}: non-finite head tensor")
    # The shapes come from the dims, so the head's own check passes.
    head = ProjectionHead(*tensors, init_seed=init_seed)
    if ec.backend == HASHING_BACKEND and head.dims[0] != ec.dim:
        raise InputError(f"{r.path}: head takes {head.dims[0]}-dim base "
                         f"embeddings but the hashing encoder makes {ec.dim}")
    return ModelBundle(encoder_config=ec, head=head, train_config=tc,
                       strategy=strategy, best_epoch=best_epoch)


def _write_lists(w: _Writer, names: Sequence[str],
                 lists: Sequence[np.ndarray], bound: int) -> None:
    """A list block: the names' string table, then each list's length
    minus one and, list by list, its first item and each later gap minus
    one, as varints. An item at or past bound, which a load refuses, is
    refused first, before any of the block is written."""
    counts = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
    pieces = [_varints(counts - 1)]
    # About POSTINGS_CHUNK items at a time, so the arrays a save makes
    # stay small.
    ends = np.cumsum(counts)
    cuts = np.searchsorted(ends, np.arange(POSTINGS_CHUNK, ends[-1],
                                           POSTINGS_CHUNK),
                           side="right").tolist() if len(ends) else []
    for a, b in zip([0, *cuts], [*cuts, len(lists)]):
        if a == b:
            continue
        items = np.concatenate(lists[a:b])
        if items.max() >= bound:
            raise ValueError(f"list items must lie below {bound}")
        gaps = np.empty_like(items)
        np.subtract(items[1:], items[:-1], out=gaps[1:])
        gaps -= 1
        firsts = ends[a:b] - counts[a:b] - (ends[a] - counts[a])
        gaps[firsts] = items[firsts]
        pieces.append(_varints(gaps))
    w.strings(names)
    w.u32(sum(len(piece) for piece in pieces))
    for piece in pieces:
        w.raw(piece.data)


def _check_increasing(r: _Reader, items: list, what: str) -> None:
    for before, after in zip(items, items[1:]):
        if not before < after:
            raise InputError(f"{r.path}: {what} not strictly increasing: "
                             f"{after!r} follows {before!r}")


def _read_lists(r: _Reader, what: str, bound: int
                ) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The names, the lengths and the items, list after list, of a list
    block as ``_write_lists`` writes it.

    Names must be strictly increasing, the varints canonical, their number
    the names' count plus the sum of the lengths, and each list's last
    item below bound. A list then is non-empty and strictly increasing.
    """
    names = r.strings(what)
    _check_increasing(r, names, f"{what}s")
    values = _read_varints(r, f"{what} lists")
    n_lists = len(names)
    counts = values[:n_lists] + 1
    if len(values) != n_lists + counts.sum():
        raise InputError(f"{r.path}: {what} lists hold {len(values)} "
                         f"varints, not {n_lists} counts and the "
                         f"{counts.sum()} items they name")
    items = values[n_lists:]
    # The gaps become the items in place: each later item steps its gap
    # plus 1, and each first item steps from the last item of the list
    # before.
    firsts = np.cumsum(counts) - counts
    first_items = items[firsts]
    items += 1
    items[firsts] = first_items
    lasts = np.add.reduceat(items, firsts) if len(firsts) else firsts
    if lasts.size and lasts.max() >= bound:
        raise InputError(f"{r.path}: {what} lists hold an item at or past "
                         f"{bound}")
    items[firsts[1:]] -= lasts[:-1]
    np.cumsum(items, out=items)
    return names, counts, items


def _write_key_table(w: _Writer, keys: Sequence[ColumnKey]) -> None:
    """Each table's column positions, named by its table id."""
    table_ids, positions = zip(*keys) if keys else ((), ())
    counts = Counter(table_ids)
    ends = np.cumsum(np.fromiter(counts.values(), dtype=np.int64,
                                 count=len(counts)))
    _write_lists(w, list(counts),
                 np.split(np.array(positions, dtype=np.int64), ends[:-1])
                 if keys else [], 1 << 32)


def _read_key_table(r: _Reader) -> list[ColumnKey]:
    table_ids, counts, positions = _read_lists(r, "table id", 1 << 32)
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


def _read_postings(r: _Reader, n_rows: int) -> SetPostings:
    """One measure's postings, each row below n_rows; a list then is
    strictly increasing, so a row's count of entries is its set's size."""
    tokens, counts, rows = _read_lists(r, "postings token", n_rows)
    # Each list copied out as its own array: small arrays fill the free
    # space a build leaves, where views of one array per measure take new
    # pages (1-2 MB more peak RSS in a build-save-load-serve process).
    cuts = np.cumsum(counts).tolist()
    return SetPostings({tok: rows[a:b].copy() for tok, a, b
                        in zip(tokens, [0, *cuts], cuts)}, n_rows)


def _write_index_section(w: _Writer, engine: SearchEngine) -> None:
    _write_config(w, engine.index_config)
    _write_key_table(w, engine.keys)
    for measure in SET_MEASURES:
        lists = engine.postings[measure].postings
        tokens = sorted(lists)
        _write_lists(w, tokens, [lists[tok] for tok in tokens],
                     len(engine.keys))

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

    matrix = r.f32_array((len(keys), bundle.head.dims[2]))

    try:
        # The decoded matrix is this load's own, so the index keeps it.
        return SearchEngine._adopting(Encoder(bundle.encoder_config),
                                      bundle.head, cfg, tfidf, keys, matrix,
                                      postings)
    except (ConfigError, NumericError) as exc:
        # Stored values the constructors reject are bad input all the same.
        raise InputError(f"{r.path}: {exc}") from exc


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
    kinds = {KIND_MODEL: "a model", KIND_INDEX: "an index"}
    kind = r.u8()
    if kind not in kinds:
        raise InputError(f"{path}: unknown file kind {kind}")
    if kind != expected_kind:
        raise InputError(f"{path}: this is {kinds[kind]} file, expected "
                         f"{kinds[expected_kind]}")
    body = memoryview(data)[:-CHECKSUM_BYTES]
    digest = hashlib.blake2b(body, digest_size=CHECKSUM_BYTES).digest()
    if len(body) < r.pos or digest != data[-CHECKSUM_BYTES:]:
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
    """Refuses with ValueError, writing nothing, a bundle whose head or
    encoder configuration is not the engine's bit for bit, as it would load
    as another engine; a vector file's dim is the file's, as a load sets it."""
    stored = bundle.encoder_config
    if stored.backend != HASHING_BACKEND:
        stored = replace(stored, dim=engine.encoder.dim)
    bits = [[(t.dtype.str, t.shape, t.tobytes())
             for t in map(np.asarray, head.tensors())]
            for head in (bundle.head, engine.head)]
    if stored != engine.encoder.cfg or bits[0] != bits[1]:
        raise ValueError("the bundle's head or encoder configuration is not "
                         "the engine's")
    _save(path, bundle, engine)


def load_index(path: str | Path) -> tuple[ModelBundle, SearchEngine]:
    r = _open(path, KIND_INDEX)
    bundle = _read_model_section(r)
    engine = _read_index_section(r, bundle)
    r.expect_end()
    return bundle, engine
