"""Binary persistence for trained models and built indexes.

One little-endian container with a 4-byte magic, a version byte, and a kind
byte. A model file carries the encoder configuration, the tokenizer id, the
projection head (parameters row-major as 32-bit floats), the loss
temperature, and every RNG seed needed to reproduce a run. An index file is
the same model section followed by the indexed columns, version 4 laid out
as:

1. the index configuration, one u64 per ``IndexConfig`` field in field
   order;
2. the key table: every indexed column key, sorted (a load rejects a table
   that is not strictly increasing);
3. every stored vector as one float32 matrix whose row i belongs to key i;
4. the syntactic profiles, one per key in key-table order: name q-grams,
   value terms, format patterns;
5. the corpus document frequencies.

The LSH indexes are not stored: loading hands the columns, in key-table
order, to the ``SearchEngine`` constructor, which rebuilds them exactly as
``build_engine`` built them.

Every file ends in a 32-byte blake2b digest of all bytes before it. Loads
check magic, version and kind, then the digest, before parsing anything
else, so a truncated or corrupt file fails with InputError; versions 1 to 3
are rejected, and so is a file whose tokenizer id is not ``TOKENIZER_ID``.
Saves are atomic (temp file + rename).
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from .corpus import ColumnKey, TOKENIZER_ID
from .encoder import Encoder, EncoderConfig
from .errors import ConfigError, InputError, NumericError
from .projection import ProjectionHead, TrainConfig, Velocity
from .search import IndexConfig, SearchEngine
from .syntactic import SyntacticProfile, TfidfModel

MAGIC = b"PYLN"
VERSION = 4
KIND_MODEL = 1
KIND_INDEX = 2
CHECKSUM_BYTES = 32

_U64_MASK = (1 << 64) - 1


@dataclass
class ModelBundle:
    """Everything the training step produces and the index step consumes."""

    encoder_config: EncoderConfig
    head: ProjectionHead
    train_config: TrainConfig
    strategy: str
    best_epoch: int
    velocity: Velocity | None = None
    tokenizer_id: str = TOKENIZER_ID


class _Writer:
    def __init__(self) -> None:
        self.parts: list[bytes] = []

    def u8(self, v: int) -> None:
        self.parts.append(struct.pack("<B", v))

    def u32(self, v: int) -> None:
        self.parts.append(struct.pack("<I", v))

    def u64(self, v: int) -> None:
        self.parts.append(struct.pack("<Q", v & _U64_MASK))

    def f64(self, v: float) -> None:
        self.parts.append(struct.pack("<d", v))

    def text(self, s: str) -> None:
        raw = s.encode("utf-8")
        self.u32(len(raw))
        self.parts.append(raw)

    def f32_array(self, arr: np.ndarray) -> None:
        a = np.ascontiguousarray(arr, dtype="<f4")
        self.u8(len(a.shape))
        for d in a.shape:
            self.u32(d)
        self.parts.append(a.tobytes())

    def getvalue(self) -> bytes:
        return b"".join(self.parts)


class _Reader:
    def __init__(self, data: bytes, path: str):
        self.data = data
        self.pos = 0
        self.path = path

    def _take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise InputError(f"{self.path}: truncated file")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        return struct.unpack("<B", self._take(1))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self._take(8))[0]

    def text(self) -> str:
        try:
            return self._take(self.u32()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(f"{self.path}: bad UTF-8 text: {exc}") from exc

    def f32_array(self) -> np.ndarray:
        ndim = self.u8()
        shape = tuple(self.u32() for _ in range(ndim))
        count = int(np.prod(shape)) if shape else 1
        raw = self._take(count * 4)
        return np.frombuffer(raw, dtype="<f4").reshape(shape).copy()

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise InputError(f"{self.path}: {len(self.data) - self.pos} "
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


def _write_model_section(w: _Writer, bundle: ModelBundle) -> None:
    ec = bundle.encoder_config
    w.text(bundle.tokenizer_id)
    w.text(ec.backend)
    w.u32(ec.dim)
    w.u64(ec.hash_seed)
    w.u8(1 if ec.cell_as_single_token else 0)
    w.text(ec.vector_file_path or "")

    in_d, hid_d, out_d = bundle.head.dims
    w.u32(in_d)
    w.u32(hid_d)
    w.u32(out_d)
    w.u64(bundle.head.init_seed)
    for t in bundle.head.tensors():
        w.f32_array(t)

    tc = bundle.train_config
    w.f64(tc.temperature)
    w.f64(tc.learning_rate)
    w.f64(tc.momentum)
    w.u32(tc.epochs)
    w.u32(tc.batch_size)
    w.u32(tc.sample_size)
    w.u64(tc.seed)
    w.f64(tc.validation_fraction)
    w.f64(tc.offline_floor)
    w.text(bundle.strategy)
    w.u32(bundle.best_epoch)

    w.u8(1 if bundle.velocity is not None else 0)
    if bundle.velocity is not None:
        for t in bundle.velocity.tensors():
            w.f32_array(t)


def _read_model_section(r: _Reader) -> ModelBundle:
    tokenizer_id = r.text()
    if tokenizer_id != TOKENIZER_ID:
        raise InputError(f"{r.path}: tokenizer {tokenizer_id!r} is not {TOKENIZER_ID!r}")
    ec = EncoderConfig(backend=r.text(), dim=r.u32(), hash_seed=r.u64(),
                       cell_as_single_token=bool(r.u8()))
    vec_path = r.text()
    ec.vector_file_path = vec_path or None

    in_d, hid_d, out_d = r.u32(), r.u32(), r.u32()
    init_seed = r.u64()
    W1, b1, W2, b2 = (r.f32_array() for _ in range(4))
    head = ProjectionHead(W1=W1, b1=b1, W2=W2, b2=b2, init_seed=init_seed)
    if head.dims != (in_d, hid_d, out_d):
        raise InputError(f"{r.path}: head dims {head.dims} do not match "
                         f"declared ({in_d}, {hid_d}, {out_d})")

    tc = TrainConfig(temperature=r.f64(), learning_rate=r.f64(),
                     momentum=r.f64(), epochs=r.u32(), batch_size=r.u32(),
                     sample_size=r.u32(), seed=r.u64(),
                     validation_fraction=r.f64(), offline_floor=r.f64())
    strategy = r.text()
    best_epoch = r.u32()
    velocity = None
    if r.u8():
        vW1, vb1, vW2, vb2 = (r.f32_array() for _ in range(4))
        velocity = Velocity(vW1=vW1, vb1=vb1, vW2=vW2, vb2=vb2)
    return ModelBundle(encoder_config=ec, head=head, train_config=tc,
                       strategy=strategy, best_epoch=best_epoch,
                       velocity=velocity, tokenizer_id=tokenizer_id)


def _write_key_table(w: _Writer, keys: list[ColumnKey]) -> None:
    w.u32(len(keys))
    for table_id, position in keys:
        w.text(table_id)
        w.u32(position)


def _read_key_table(r: _Reader) -> list[ColumnKey]:
    """The stored keys; they must be strictly increasing, as saves write them."""
    keys = [(r.text(), r.u32()) for _ in range(r.u32())]
    for before, after in zip(keys, keys[1:]):
        if not before < after:
            raise InputError(f"{r.path}: key table not strictly increasing: "
                             f"{after!r} follows {before!r}")
    return keys


def _write_token_set(w: _Writer, tokens: frozenset[str]) -> None:
    w.u32(len(tokens))
    for tok in sorted(tokens):
        w.text(tok)


def _read_token_set(r: _Reader) -> frozenset[str]:
    return frozenset(r.text() for _ in range(r.u32()))


def _write_index_section(w: _Writer, engine: SearchEngine) -> None:
    for v in astuple(engine.index_config):
        w.u64(v)

    _write_key_table(w, engine.keys)
    w.f32_array(engine.semantic_index.matrix(engine.keys))

    for key in engine.keys:
        p = engine.profiles[key]
        for tokens in (p.name_grams, p.value_term_set, p.format_set):
            _write_token_set(w, tokens)

    w.u32(engine.tfidf.n_columns)
    w.u32(len(engine.tfidf.df))
    for tok in sorted(engine.tfidf.df):
        w.text(tok)
        w.u32(engine.tfidf.df[tok])


def _read_index_section(r: _Reader, bundle: ModelBundle) -> SearchEngine:
    cfg = IndexConfig(*(r.u64() for _ in fields(IndexConfig)))
    keys = _read_key_table(r)
    dim = bundle.head.dims[2]
    matrix = r.f32_array()
    if matrix.shape != (len(keys), dim):
        raise InputError(f"{r.path}: vector matrix shape {matrix.shape} != "
                         f"{(len(keys), dim)}")

    profiles = [SyntacticProfile(column_key=key, name_grams=_read_token_set(r),
                                 value_term_set=_read_token_set(r),
                                 format_set=_read_token_set(r))
                for key in keys]

    n_columns = r.u32()
    df = {r.text(): r.u32() for _ in range(r.u32())}
    tfidf = TfidfModel(df=df, n_columns=n_columns)

    try:
        return SearchEngine(Encoder(bundle.encoder_config), bundle.head, cfg,
                            tfidf, zip(keys, matrix, profiles))
    except (ConfigError, NumericError) as exc:
        # Stored values the constructors reject are bad input all the same.
        raise InputError(f"{r.path}: {exc}") from exc


def _checksum(body: bytes) -> bytes:
    return hashlib.blake2b(body, digest_size=CHECKSUM_BYTES).digest()


def _serialize(kind: int, bundle: ModelBundle,
               engine: SearchEngine | None) -> bytes:
    w = _Writer()
    w.parts.append(MAGIC)
    w.u8(VERSION)
    w.u8(kind)
    _write_model_section(w, bundle)
    if kind == KIND_INDEX:
        assert engine is not None
        _write_index_section(w, engine)
    body = w.getvalue()
    return body + _checksum(body)


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
    body = data[:-CHECKSUM_BYTES]
    if len(body) < r.pos or _checksum(body) != data[-CHECKSUM_BYTES:]:
        raise InputError(f"{path}: checksum mismatch, the file is truncated "
                         "or corrupt")
    r.data = body
    return r


def save_model(path: str | Path, bundle: ModelBundle) -> None:
    data = _serialize(KIND_MODEL, bundle, None)
    atomic_write(path, lambda tmp: Path(tmp).write_bytes(data))


def load_model(path: str | Path) -> ModelBundle:
    r = _open(path, KIND_MODEL)
    bundle = _read_model_section(r)
    r.expect_end()
    return bundle


def save_index(path: str | Path, bundle: ModelBundle,
               engine: SearchEngine) -> None:
    data = _serialize(KIND_INDEX, bundle, engine)
    atomic_write(path, lambda tmp: Path(tmp).write_bytes(data))


def load_index(path: str | Path) -> tuple[ModelBundle, SearchEngine]:
    r = _open(path, KIND_INDEX)
    bundle = _read_model_section(r)
    engine = _read_index_section(r, bundle)
    r.expect_end()
    return bundle, engine
