"""Binary persistence for trained models and built indexes.

One little-endian container with a 4-byte magic, a version byte, and a kind
byte. A model file carries ``TOKENIZER_ID``, the encoder configuration, the
projection head (its seed, then its four tensors row-major as 32-bit
floats, each with its shape), the training configuration, the strategy and
the best epoch; no optimizer state, as no command resumes training. An
index file is the same model section followed by the indexed columns,
version 8 laid out as:

1. the index configuration;
2. the key table: every indexed column key, sorted (a load rejects a table
   that is not strictly increasing);
3. every stored vector as one float32 matrix whose row i belongs to key i;
4. the set postings, one block per measure in ``SET_MEASURES`` order
   (name q-grams, value terms, format patterns): a token count, each
   distinct token once in sorted order, then one counted byte string of
   minimal unsigned LEB128 varints (d-gaps plus variable-byte coding,
   Zobel & Moffat, ACM CSUR 2006). It holds each token's row count minus
   one, then, list by list, the first row and each later row's gap minus
   one, so it cannot express an empty list or a row that does not
   increase;
5. the corpus document frequencies.

Each configuration is written field by field in ``dataclasses.fields``
order, coded by the field's type (bool u8, int u64, float f64, text; an
optional text stores None as ""), so only the dataclass knows its fields.
A load validates the configurations, the head's tensor shapes and, for a
hashing model, that the head takes the encoder's dimension: it rejects
what would fail later, and a non-finite tensor or stored vector, which
would load silently, and postings or document frequencies other than a
save writes: for the postings, tokens not strictly increasing, a varint
that is not canonical (more than ``VARINT_BYTES`` bytes, a zero last byte
in a multi-byte group, a string that ends inside a group), a number of
varints other than the counts name, or a row at or past the column count.

The cosine LSH index is not stored: loading hands the keys and the stored
vector matrix, in key-table order, to the ``SearchEngine`` constructor,
which allocates the index for that many rows and files the matrix in one
``insert_many``, exactly as ``build_engine`` filed it. The matrix it is
handed is a read-only view of the file bytes, so the index rows are the
load's one copy of the vectors.

Every file ends in a 32-byte blake2b digest of all bytes before it. Loads
check magic, version and kind, then the digest, before parsing anything
else, so a truncated or corrupt file fails with InputError; versions 1 to 7
are rejected, and so is a file whose tokenizer id is not ``TOKENIZER_ID``.
Saves are atomic (temp file + rename) and streamed: the body goes to the
temp file in chunks of about ``CHUNK_BYTES`` through one running blake2b,
and the digest is written last, so a save never holds the file whole; it
encodes the postings about ``POSTINGS_CHUNK`` rows at a time.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import tempfile
from dataclasses import dataclass, fields
from pathlib import Path
from typing import BinaryIO, Callable, get_type_hints

import numpy as np

from .corpus import ColumnKey, TOKENIZER_ID
from .encoder import Encoder, EncoderConfig, HASHING_BACKEND
from .errors import ConfigError, InputError, NumericError
from .projection import ProjectionHead, TrainConfig, Velocity
from .search import IndexConfig, SearchEngine
from .syntactic import SET_MEASURES, SetPostings, TfidfModel

MAGIC = b"PYLN"
VERSION = 8
KIND_MODEL = 1
KIND_INDEX = 2
CHECKSUM_BYTES = 32
# The most bytes one posting varint takes: 35 bits hold any u32.
VARINT_BYTES = 5
# About how many posting rows a save encodes at a time; a list is never
# split, so a longer one is encoded whole.
POSTINGS_CHUNK = 1 << 13
# Bytes of small fields a save gathers before it hashes and writes them.
CHUNK_BYTES = 1 << 16


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
    holds no object per field; a piece at least that long, such as the
    vector matrix, is hashed and written from its own memory. ``finish``
    appends the digest of every byte before it.
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

    def f32_array(self, arr: np.ndarray) -> None:
        a = np.ascontiguousarray(arr, dtype="<f4")
        self.u8(len(a.shape))
        for d in a.shape:
            self.u32(d)
        # Written from the array's own buffer, with no bytes copy between.
        # (memoryview.cast refuses a shape with a zero in it.)
        self.raw(a.reshape(-1).view(np.uint8).data)

    def finish(self) -> None:
        self._flush()
        self.fh.write(self.digest.digest())


class _Reader:
    """Reads fields in order from ``data`` up to ``end``, copying no body.

    Integers are unpacked in place and a float32 array is a read-only view
    of ``data``, so a caller that keeps the array, rather than reading it
    once, copies it; a kept view would keep the whole file alive.
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

    def f32_array(self) -> np.ndarray:
        ndim = self.u8()
        shape = tuple(self.u32() for _ in range(ndim))
        count = math.prod(shape)
        start = self._advance(count * 4)
        return np.frombuffer(self.data, dtype="<f4", count=count,
                             offset=start).reshape(shape)

    def u8_array(self) -> np.ndarray:
        """A counted byte string, as a read-only uint8 view of ``data``."""
        count = self.u32()
        return np.frombuffer(self.data, dtype=np.uint8, count=count,
                             offset=self._advance(count))

    def expect_end(self) -> None:
        if self.pos != self.end:
            raise InputError(f"{self.path}: {self.end - self.pos} "
                             "trailing bytes")


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
    # Owned copies: a view would keep the whole file alive with the head.
    tensors = [r.f32_array().copy() for _ in range(4)]
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
    w.u32(len(keys))
    for table_id, position in keys:
        w.text(table_id)
        w.u32(position)


def _check_increasing(r: _Reader, items: list, what: str) -> None:
    for before, after in zip(items, items[1:]):
        if not before < after:
            raise InputError(f"{r.path}: {what} not strictly increasing: "
                             f"{after!r} follows {before!r}")


def _read_key_table(r: _Reader) -> list[ColumnKey]:
    """The stored keys; they must be strictly increasing, as saves write them."""
    keys = [(r.text(), r.u32()) for _ in range(r.u32())]
    _check_increasing(r, keys, "key table")
    return keys


def _varints(values: np.ndarray) -> np.ndarray:
    """Each value as minimal unsigned LEB128, one uint8 array for them all:
    7 bits per byte, low bits first, the high bit set on every byte but a
    value's last."""
    if values.size and not (values.min() >= 0
                            and values.max() < 1 << 7 * VARINT_BYTES):
        raise ValueError("varint values must lie in "
                         f"[0, 2**{7 * VARINT_BYTES})")
    widths = np.ones(len(values), dtype=np.uint8)
    for k in range(1, VARINT_BYTES):
        widths += values >= 1 << 7 * k
    at = np.cumsum(widths, dtype=np.int64)
    out = np.empty(at[-1] if len(at) else 0, dtype=np.uint8)
    at -= widths
    # The k-th byte of every value wider than k, narrowing as k grows; a
    # uint8 cast keeps a value's low 8 bits.
    rest = values
    for k in range(VARINT_BYTES):
        more = widths > k + 1
        out[at] = rest.astype(np.uint8) & 0x7F | more.view(np.uint8) << 7
        rest, widths, at = rest[more] >> 7, widths[more], at[more] + 1
    return out


def _read_varints(r: _Reader) -> np.ndarray:
    """The values of a counted byte string of ``_varints``, as int64.

    Every value must be canonical, as ``_varints`` writes it: at most
    ``VARINT_BYTES`` bytes, a multi-byte value's last byte not zero, and no
    byte string that ends inside a value. Past byte masks, the one array
    as long as the values is the result; the work on multi-byte values is
    the size of their continuation bytes.
    """
    data = r.u8_array()
    if data.size and not data[-1] < 0x80:
        raise InputError(f"{r.path}: postings end inside a varint")
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
        raise InputError(f"{r.path}: postings hold a varint of more than "
                         f"{VARINT_BYTES} bytes")
    if (values[wide] == 0).any():
        raise InputError(f"{r.path}: postings hold a varint that is not "
                         "minimal")
    if len(at):
        shifts = 7 * (np.arange(len(at)) - np.repeat(firsts, lengths))
        low = np.add.reduceat((data[at] & 0x7F).astype(np.int64) << shifts,
                              firsts)
        values[wide] = values[wide] << 7 * lengths | low
    return values


def _write_postings(w: _Writer, postings: SetPostings) -> None:
    tokens = sorted(postings.postings)
    w.u32(len(tokens))
    for tok in tokens:
        w.text(tok)
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
    tokens = [r.text() for _ in range(r.u32())]
    _check_increasing(r, tokens, "postings tokens")
    values = _read_varints(r)
    counts = values[:len(tokens)] + 1
    if len(values) != len(tokens) + counts.sum():
        raise InputError(f"{r.path}: postings hold {len(values)} varints, "
                         f"not {len(tokens)} counts and the "
                         f"{counts.sum()} rows they name")
    # The gaps become the rows in place: each later row steps its gap plus
    # 1, and each first row steps from the last row of the list before.
    rows = values[len(tokens):]
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
    _write_config(w, engine.index_config)

    _write_key_table(w, engine.keys)
    w.f32_array(engine.semantic_index.vectors)

    for measure in SET_MEASURES:
        _write_postings(w, engine.postings[measure])

    w.u32(engine.tfidf.n_columns)
    w.u32(len(engine.tfidf.df))
    for tok in sorted(engine.tfidf.df):
        w.text(tok)
        w.u32(engine.tfidf.df[tok])


def _read_index_section(r: _Reader, bundle: ModelBundle) -> SearchEngine:
    cfg = _read_config(r, IndexConfig)
    keys = _read_key_table(r)
    dim = bundle.head.dims[2]
    matrix = r.f32_array()
    if matrix.shape != (len(keys), dim):
        raise InputError(f"{r.path}: vector matrix shape {matrix.shape} != "
                         f"{(len(keys), dim)}")

    postings = {measure: _read_postings(r, len(keys))
                for measure in SET_MEASURES}

    # One document per indexed column, as build_tfidf counts them.
    n_columns = r.u32()
    entries = [(r.text(), r.u32()) for _ in range(r.u32())]
    _check_increasing(r, [tok for tok, _ in entries], "df tokens")
    if n_columns != len(keys) or not all(0 < df <= n_columns
                                         for _, df in entries):
        raise InputError(f"{r.path}: document frequencies are not counts in "
                         f"[1, {len(keys)}] over {len(keys)} columns")
    tfidf = TfidfModel(df=dict(entries), n_columns=n_columns)

    try:
        return SearchEngine(Encoder(bundle.encoder_config), bundle.head, cfg,
                            tfidf, keys, matrix, postings)
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
        data = Path(path).read_bytes()
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
