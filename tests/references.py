"""Column-by-column references that the lake-wide passes over cell blocks
must equal: document frequencies counted one column at a time, postings
appended one set at a time, and base embeddings from fresh cell means;
token vectors and column samples each from its own ``default_rng``; and a
model or index file coded and read one value at a time: its field map,
what a load of it must return or refuse, and seeded edits of each field."""

import dataclasses
import hashlib
import math
import struct
from collections import Counter
from itertools import accumulate
from typing import NamedTuple, Sequence, get_type_hints

import numpy as np

from unionsearch.corpus import (TOKENIZER_ID, Column, Corpus, cell_tokens,
                               tokenize)
from unionsearch.encoder import HASHING_BACKEND, Encoder, EncoderConfig
from unionsearch.errors import ConfigError
from unionsearch.modelfile import (CHECKSUM_BYTES, KIND_INDEX, MAGIC,
                                   VARINT_BYTES, VERSION)
from unionsearch.projection import TrainConfig
from unionsearch.search import IndexConfig
from unionsearch.seeding import stable_token_hash
from unionsearch.syntactic import SET_MEASURES, SetPostings, TfidfModel


def postings_from_sets(sets: Sequence[frozenset[str]]) -> SetPostings:
    """The postings of sets, row i being ``sets[i]``."""
    lists: dict[str, list[int]] = {}
    for row, tokens in enumerate(sets):
        for tok in tokens:
            lists.setdefault(tok, []).append(row)
    return SetPostings({tok: np.array(rows, dtype=np.int64)
                        for tok, rows in lists.items()}, len(sets))


def counted_tfidf(corpus: Corpus) -> TfidfModel:
    """One document per encodable column, each column's distinct tokens
    counted once; tokens in order of first use."""
    df: Counter[str] = Counter()
    columns = corpus.encodable_columns()
    for col in columns:
        df.update(list(dict.fromkeys(
            t for v in col.non_empty_values() for t in tokenize(v))))
    return TfidfModel(df=dict(df), n_columns=len(columns))


def column_embedding(encoder: Encoder, values: Sequence[str]) -> np.ndarray:
    """``embed_column`` with every cell mean made afresh: the cell's token
    vectors added into new zeros and divided by their count, even for one
    token, so a -0.0 entry of a token's vector becomes +0.0."""
    acc = np.zeros(encoder.dim)
    n = 0
    for cell in values:
        tokens = cell_tokens(cell)
        if not tokens:
            continue
        if encoder.cfg.cell_as_single_token:
            tokens = ["_".join(tokens)]
        mean = np.zeros(encoder.dim)
        for token in tokens:
            mean += encoder.embed_token(token)
        acc += mean / len(tokens)
        n += 1
    return acc / n


def token_vector(token: str, dim: int, hash_seed: int) -> np.ndarray:
    """The hashing embedder's vector of one token, made alone: the draws of
    ``default_rng`` seeded by the token's stable hash, over their norm as
    numpy's own ``einsum`` adds it."""
    v = np.random.default_rng(
        stable_token_hash(token, hash_seed)).standard_normal(dim)
    return v / np.sqrt(np.einsum("i,i->", v, v))


def sampled_values(column: Column, s: int, seed: int) -> list[str]:
    """s of the column's cells that yield a token, drawn with replacement
    by ``default_rng(seed)``."""
    pool = [v for v in column.values if cell_tokens(v)]
    rng = np.random.default_rng(seed)
    return [pool[i] for i in rng.integers(0, len(pool), size=s)]


def varint(value: int) -> bytes:
    """Minimal unsigned LEB128: 7 bits per byte, low bits first, the high
    bit set on every byte but the last."""
    out = bytearray()
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def varint_value(group: bytes) -> int:
    """The value of one LEB128 group."""
    return sum((b & 0x7F) << 7 * i for i, b in enumerate(group))


def list_values(lists: Sequence[Sequence[int]]) -> list[int]:
    """The varint values of a list block's lists, in the order given: each
    list's length minus one, then list by list the first item and each
    later item's gap minus one."""
    values = [len(items) - 1 for items in lists]
    for items in lists:
        items = [int(item) for item in items]
        values += [items[0]] + [b - a - 1 for a, b in zip(items, items[1:])]
    return values


def string_table(strings: Sequence[bytes]) -> bytes:
    """A string table as an index file holds it: the byte count of the
    varint lengths and the varints, then the strings."""
    stream = b"".join(varint(len(s)) for s in strings)
    return struct.pack("<I", len(stream)) + stream + b"".join(strings)


def postings_block(tokens: Sequence[bytes], groups: Sequence[bytes]) -> bytes:
    """A list block as an index file holds it: the names' string table,
    then the byte count of the varint groups and the groups."""
    stream = b"".join(groups)
    return string_table(tokens) + struct.pack("<I", len(stream)) + stream


def key_table(tables: Sequence[tuple[bytes, Sequence[int]]]) -> bytes:
    """A key table as an index file holds it, from each table id and its
    column positions: a list block of the positions named by the ids."""
    return postings_block(
        [table_id for table_id, _ in tables],
        [varint(v) for v in list_values([p for _, p in tables])])


# The code that marks an exception in a float array's top-byte plane.
EXCEPTION = 15


def float_fields(values: np.ndarray) -> dict:
    """A float32 array's fields as an index file codes them, value by
    value: each value's three low bytes, and its top bytes coded against a
    dictionary (``words``, the up to 15 most frequent, ties to the smaller,
    sorted), with ``codes``, the pad nibble and the exceptions' bytes in
    plane order."""
    raw = np.ascontiguousarray(values, dtype="<f4").tobytes()
    items = [raw[i:i + 4] for i in range(0, len(raw), 4)]
    tops = [item[3] for item in items]
    counts = Counter(tops)
    words = sorted(sorted(counts, key=lambda b: (-counts[b], b))[:EXCEPTION])
    code = {b: i for i, b in enumerate(words)}
    codes = [code.get(t, EXCEPTION) for t in tops]
    return {"low": b"".join(item[:3] for item in items), "words": words,
            "codes": codes, "pad": 0,
            "exceptions": [t for t, c in zip(tops, codes) if c == EXCEPTION]}


def float_array(fields: dict) -> bytes:
    """A float array as an index file holds it: the low bytes, then the
    top-byte plane: the dictionary size and words, the codes two to a
    byte (the earlier low, ``pad`` after an odd count) and the exceptions'
    bytes."""
    codes = list(fields["codes"])
    if len(codes) % 2:
        codes.append(fields["pad"])
    packed = bytes(a | b << 4 for a, b in zip(codes[0::2], codes[1::2]))
    return (fields["low"] + bytes([len(fields["words"])])
            + bytes(fields["words"]) + packed + bytes(fields["exceptions"]))


def checksummed(body: bytes) -> bytes:
    """body followed by its digest, as every model and index file ends."""
    return body + hashlib.blake2b(body, digest_size=CHECKSUM_BYTES).digest()


class Refused(Exception):
    """Bytes no save writes, met by ``read_file``: a load of them must raise
    InputError."""


# The kinds of field a file holds; a config field's kind is its type's.
FIELD_KINDS = ("u8", "u32", "u64", "f64", "text", "varint stream",
               "string table", "list block", "coded float plane")
_CONFIG_KINDS = {bool: "u8", int: "u64", float: "f64", str: "text",
                 str | None: "text"}


class Field(NamedTuple):
    """One field of a file: its name, kind and byte span, the parts it is
    coded from, as ``Cursor`` reads them, and for a list block or a varint
    stream the least value its items may not take."""

    name: str
    kind: str
    start: int
    end: int
    parts: object
    bound: int | None = None


def _utf8(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise Refused("bad UTF-8") from exc


def _increasing(items: list) -> None:
    if any(b <= a for a, b in zip(items, items[1:])):
        raise Refused("not strictly increasing")


def _floats(fields: dict, shape: tuple[int, ...]) -> np.ndarray:
    """The float32 values of a float array's fields, decoded one value at a
    time, once its top-byte plane is one a save writes."""
    words = fields["words"]
    if len(words) > EXCEPTION or fields["pad"]:
        raise Refused("float array dictionary or pad")
    _increasing(words)
    exceptions = iter(fields["exceptions"])
    tops = []
    for code in fields["codes"]:
        if code == EXCEPTION:
            tops.append(next(exceptions))
            if tops[-1] in words:
                raise Refused("exception byte in the dictionary")
        elif code < len(words):
            tops.append(words[code])
        else:
            raise Refused("code past the dictionary")
    low = np.frombuffer(fields["low"], dtype=np.uint8).reshape(len(tops), 3)
    return np.column_stack([low, np.array(tops, dtype=np.uint8)]).view(
        "<f4").reshape(shape)


def _bits(array: np.ndarray) -> tuple[tuple[int, ...], bytes]:
    return array.shape, np.ascontiguousarray(array, dtype="<f4").tobytes()


class Cursor:
    """Reads a file body field by field, one value at a time, refusing what
    no save writes, and keeps each field it reads in ``fields``.

    The reader of each kind, named after it, gives the field's parts: a
    number; a text's bytes; each varint of a varint stream as its own
    bytes; a string table's strings as bytes; a list block's names and
    varint stream; a float array's fields as ``float_fields`` names them.
    """

    def __init__(self, data: bytes):
        self.data, self.pos, self.fields = data, 0, []

    def field(self, name: str, kind: str, *args, bound: int | None = None):
        start = self.pos
        parts = getattr(self, kind.replace(" ", "_"))(*args)
        self.fields.append(Field(name, kind, start, self.pos, parts, bound))
        return parts

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise Refused("truncated")
        self.pos += n
        return self.data[self.pos - n:self.pos]

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def text(self) -> bytes:
        return self.take(self.u32())

    def varint_stream(self) -> list[bytes]:
        """Each varint minimal, of at most ``VARINT_BYTES`` bytes, and none
        cut off by the end of the stream."""
        data = self.take(self.u32())
        groups, start = [], 0
        for end, byte in enumerate(data, 1):
            if byte < 0x80:
                if end - start > VARINT_BYTES or end - start > 1 and not byte:
                    raise Refused("varint not canonical")
                groups.append(data[start:end])
                start = end
        if start < len(data):
            raise Refused("stream ends inside a varint")
        return groups

    def string_table(self) -> list[bytes]:
        lengths = [varint_value(g) for g in self.varint_stream()]
        blob = self.take(sum(lengths))
        ends = list(accumulate(lengths))
        return [blob[a:b] for a, b in zip([0, *ends], ends)]

    def list_block(self) -> tuple[list[bytes], list[bytes]]:
        return self.string_table(), self.varint_stream()

    def coded_float_plane(self, n: int) -> dict:
        fields = {"low": self.take(3 * n),
                  "words": list(self.take(self.u8()))}
        packed = self.take((n + 1) // 2)
        codes = [c for b in packed for c in (b & 0x0F, b >> 4)]
        fields["codes"], fields["pad"] = codes[:n], sum(codes[n:])
        fields["exceptions"] = list(self.take(
            fields["codes"].count(EXCEPTION)))
        return fields

    def config(self, prefix: str, cls: type):
        """A config's fields in ``dataclasses.fields`` order, coded by type;
        a bool is any non-zero byte and an optional text's None is ""."""
        hints = get_type_hints(cls)
        values = {}
        for f in dataclasses.fields(cls):
            hint = hints[f.name]
            value = self.field(f"{prefix}.{f.name}", _CONFIG_KINDS[hint])
            if hint is bool:
                value = value != 0
            elif isinstance(value, bytes):
                value = _utf8(value) or (None if hint == str | None else "")
            values[f.name] = value
        try:
            return cls(**values)
        except ConfigError as exc:
            raise Refused(str(exc)) from exc

    def lists(self, name: str, bound: int) -> dict[str, list[int]]:
        """A list block's lists by name: names strictly increasing, each
        list's length minus one, then its first item and each later gap
        minus one, every last item below bound."""
        names, groups = self.field(name, "list block", bound=bound)
        names = [_utf8(n) for n in names]
        _increasing(names)
        values = [varint_value(g) for g in groups]
        counts = [v + 1 for v in values[:len(names)]]
        if len(values) != len(names) + sum(counts):
            raise Refused("list lengths")
        gaps = iter(values[len(names):])
        lists = {}
        for list_name, count in zip(names, counts):
            items = [next(gaps)]
            for _ in range(count - 1):
                items.append(items[-1] + next(gaps) + 1)
            if items[-1] >= bound:
                raise Refused("list item at its bound")
            lists[list_name] = items
        return lists


def read_file(data: bytes, kind: int) -> tuple[list[Field], dict]:
    """The field map of a file of kind (``KIND_MODEL`` or ``KIND_INDEX``),
    and what a load of it returns, read one value at a time: the model
    section's configs, head, strategy and best epoch, and an index's
    config, keys, postings, document frequencies and vector matrix, as
    ``values_of`` gives them. Raises Refused where a load must raise
    InputError."""
    body = data[:-CHECKSUM_BYTES]
    if len(data) < 6 + CHECKSUM_BYTES or checksummed(body) != data:
        raise Refused("checksum")
    c = Cursor(body)
    header = (c.field("magic", "u32"), c.field("version", "u8"),
              c.field("kind", "u8"))
    if header != (struct.unpack("<I", MAGIC)[0], VERSION, kind):
        raise Refused("header")
    if _utf8(c.field("tokenizer", "text")) != TOKENIZER_ID:
        raise Refused("tokenizer")
    values = {"encoder": c.config("encoder", EncoderConfig),
              "head seed": c.field("head seed", "u64")}
    n_in, hidden, out = (c.field(f"head {d}", "u32")
                         for d in ("in", "hidden", "out"))
    tensors = [_floats(c.field(name, "coded float plane", math.prod(shape)),
                       shape)
               for name, shape in (("W1", (hidden, n_in)), ("b1", (hidden,)),
                                   ("W2", (out, hidden)), ("b2", (out,)))]
    values |= {"tensors": [_bits(t) for t in tensors],
               "train": c.config("train", TrainConfig),
               "strategy": _utf8(c.field("strategy", "text")),
               "best epoch": c.field("best epoch", "u32")}
    if not all(np.isfinite(t).all() for t in tensors):
        raise Refused("non-finite head tensor")
    if values["encoder"].backend == HASHING_BACKEND \
            and n_in != values["encoder"].dim:
        raise Refused("head and encoder dims")
    if kind == KIND_INDEX:
        values["index"] = c.config("index", IndexConfig)
        keys = [(table_id, p) for table_id, positions
                in c.lists("keys", 1 << 32).items() for p in positions]
        values["keys"] = keys
        values["postings"] = {m: c.lists(m, len(keys)) for m in SET_MEASURES}
        tokens = [_utf8(t) for t in c.field("df tokens", "string table")]
        _increasing(tokens)
        counts = [varint_value(g) for g in c.field(
            "df counts", "varint stream", bound=len(keys) + 1)]
        if len(counts) != len(tokens) \
                or not all(0 < n <= len(keys) for n in counts):
            raise Refused("document frequencies")
        values["df"] = dict(zip(tokens, counts))
        matrix = _floats(c.field("matrix", "coded float plane",
                                 len(keys) * out), (len(keys), out))
        # A row with a non-finite entry, or of zeros only, has no direction.
        if not (np.isfinite(matrix).all() and (matrix != 0).any(axis=1).all()):
            raise Refused("vector without a direction")
        values["matrix"] = _bits(matrix)
    if c.pos != len(body):
        raise Refused("trailing bytes")
    return c.fields, values


def values_of(bundle, engine=None) -> dict:
    """What ``read_file`` reads, from a loaded bundle and engine."""
    values = {"encoder": bundle.encoder_config,
              "head seed": bundle.head.init_seed,
              "tensors": [_bits(t) for t in bundle.head.tensors()],
              "train": bundle.train_config, "strategy": bundle.strategy,
              "best epoch": bundle.best_epoch}
    if engine is not None:
        values |= {"index": engine.index_config, "keys": list(engine.keys),
                   "postings": {m: {tok: rows.tolist()
                                    for tok, rows in p.postings.items()}
                                for m, p in engine.postings.items()},
                   "df": dict(engine.tfidf.df),
                   "matrix": _bits(engine.semantic_index.vectors)}
    return values


def _stream(groups: list[bytes]) -> bytes:
    """A varint stream of the given varints' bytes."""
    data = b"".join(groups)
    return struct.pack("<I", len(data)) + data


def _text(raw: bytes, length: int | None = None) -> bytes:
    return struct.pack("<I", len(raw) if length is None else length) + raw


def _varint_edits(groups: list[bytes]) -> dict[str, list[bytes]]:
    """A stream's varints with the last dropped, one more, a continuation
    byte at the end, the first widened by a zero byte, so not minimal, and
    the first of a byte more than ``VARINT_BYTES``."""
    edits = {"truncate values": groups[:-1],
             "extend values": [*groups, varint(1)],
             "end inside a value": [*groups, b"\x80"],
             "bound: long value": [b"\x80" * VARINT_BYTES + b"\x01",
                                   *groups[1:]]}
    if groups:
        first = groups[0]
        edits["widen a value"] = [first[:-1] + bytes([first[-1] | 0x80, 0]),
                                  *groups[1:]]
    return edits


def _string_edits(strings: list[bytes]) -> dict[str, list[bytes]]:
    """A table's strings with the last dropped, one more that sorts last,
    the first two swapped or the second made the first, and the first
    byte's high bit flipped."""
    edits = {"truncate strings": strings[:-1],
             "extend strings": [*strings, (strings or [b""])[-1] + b"~"]}
    if len(strings) > 1:
        edits["swap strings"] = [strings[1], strings[0], *strings[2:]]
        edits["repeat a string"] = [strings[0], *strings[:1], *strings[2:]]
    if strings and strings[0]:
        edits["flip a string"] = [bytes([strings[0][0] ^ 0x80])
                                  + strings[0][1:], *strings[1:]]
    return edits


def _with_last_item(n_lists: int, groups: list[bytes], item: int
                    ) -> list[bytes]:
    """A list block's varints with the last list's last item set to item,
    which is above the item before it."""
    values = [varint_value(g) for g in groups]
    first = n_lists + sum(v + 1 for v in values[:n_lists - 1])
    if first == len(values) - 1:
        return [*groups[:-1], varint(item)]
    before = values[first] + sum(v + 1 for v in values[first + 1:-1])
    return [*groups[:-1], varint(item - before - 1)]


def _first_coded(fields: dict, code: int, exception: int = 0) -> dict:
    """A float array's fields with the first value's code set to code, and
    its exception byte when the code is ``EXCEPTION``."""
    codes, exceptions = fields["codes"], fields["exceptions"]
    exceptions = exceptions[codes[0] == EXCEPTION:]
    if code == EXCEPTION:
        exceptions = [exception, *exceptions]
    return {**fields, "codes": [code, *codes[1:]], "exceptions": exceptions}


def _number_edits(fmt: str, *bounds):
    return lambda field: {f"bound {b}": struct.pack(fmt, b) for b in bounds}


def _text_edits(field: Field) -> dict[str, bytes]:
    s = field.parts
    edits = {"extend text": _text(s + b"x"),
             "bound: length": _text(s, 2**32 - 1)}
    if s:
        edits["truncate text"] = _text(s[:-1])
        edits["flip text"] = _text(bytes([s[0] ^ 0x80]) + s[1:])
    return edits


def _stream_edits(field: Field) -> dict[str, bytes]:
    groups = field.parts
    edits = {label: _stream(g) for label, g in _varint_edits(groups).items()}
    if groups:
        edits["bound: first zero"] = _stream([varint(0), *groups[1:]])
        edits["bound: every zero"] = _stream([varint(0)] * len(groups))
        edits["bound: last highest"] = _stream([*groups[:-1],
                                                varint(field.bound - 1)])
        edits["bound: last past"] = _stream([*groups[:-1],
                                             varint(field.bound)])
    return edits


def _table_edits(field: Field) -> dict[str, bytes]:
    strings = field.parts
    edits = {label: string_table(s)
             for label, s in _string_edits(strings).items()}
    if strings:
        # The first length the largest a varint holds.
        edits["bound: length"] = _stream(
            [varint(2**(7 * VARINT_BYTES) - 1),
             *(varint(len(s)) for s in strings[1:])]) + b"".join(strings)
    return edits


def _list_edits(field: Field) -> dict[str, bytes]:
    names, groups = field.parts
    table, stream = string_table(names), _stream(groups)
    edits = {f"names: {label}": string_table(s) + stream
             for label, s in _string_edits(names).items()}
    edits |= {f"lists: {label}": table + _stream(g)
              for label, g in _varint_edits(groups).items()}
    if names:
        for label, item in (("highest", field.bound - 1),
                            ("past", field.bound)):
            edits[f"lists: bound: last {label}"] = table + _stream(
                _with_last_item(len(names), groups, item))
    return edits


def _plane_edits(field: Field) -> dict[str, bytes]:
    fields = field.parts
    words, codes = fields["words"], fields["codes"]
    if not words:
        return {}
    spare = [b for b in range(256)
             if b not in words and b not in fields["exceptions"]]
    edits = {
        "truncate dictionary": {**fields, "words": words[:-1]},
        "extend dictionary": {**fields, "words": sorted(words + spare[:1])},
        "reverse dictionary": {**fields, "words": words[::-1]},
        "bound: dictionary": {**fields, "words": sorted(
            words + spare[:EXCEPTION + 1 - len(words)])},
        "bound: exception in dictionary": _first_coded(fields, EXCEPTION,
                                                       words[0]),
        "bound: zeros": float_fields(np.zeros(len(codes), dtype=np.float32)),
    }
    if len(words) < EXCEPTION:
        edits["bound: code past dictionary"] = _first_coded(fields,
                                                            len(words))
    if len(codes) % 2:
        edits["bound: pad"] = {**fields, "pad": 1}
    for name, value in (("inf", math.inf), ("nan", math.nan)):
        raw = struct.pack("<f", value)
        code = words.index(raw[3]) if raw[3] in words else EXCEPTION
        edits[f"bound: {name}"] = {**_first_coded(fields, code, raw[3]),
                                   "low": raw[:3] + fields["low"][3:]}
    return {label: float_array(f) for label, f in edits.items()}


_KIND_EDITS = {
    "u8": _number_edits("<B", 0, 2**8 - 1),
    "u32": _number_edits("<I", 0, 2**32 - 1),
    "u64": _number_edits("<Q", 0, 2**64 - 1),
    "f64": _number_edits("<d", math.inf, math.nan),
    "text": _text_edits,
    "varint stream": _stream_edits,
    "string table": _table_edits,
    "list block": _list_edits,
    "coded float plane": _plane_edits,
}


def field_edits(data: bytes, field: Field, rng) -> dict[str, bytes]:
    """Seeded edits of one field of a file, each the whole file,
    re-checksummed, by label: the field's last byte cut, a byte appended
    and one flipped, and its kind's own edits, which truncate, extend and
    flip inside the field's structure and set values to their bounds."""
    raw = bytearray(data[field.start:field.end])
    edits = {"truncate": bytes(raw[:-1]),
             "extend": bytes(raw) + bytes([int(rng.integers(256))])}
    raw[int(rng.integers(len(raw)))] ^= int(rng.integers(1, 256))
    edits["flip"] = bytes(raw)
    edits |= _KIND_EDITS[field.kind](field)
    return {label: with_field(data, field, new)
            for label, new in edits.items()}


def with_field(data: bytes, field: Field, new: bytes) -> bytes:
    """The file data with the bytes of field replaced by new,
    re-checksummed."""
    return checksummed(data[:field.start] + new
                       + data[field.end:-CHECKSUM_BYTES])


def field_edit(data: bytes, kind: int, name: str, label: str) -> bytes:
    """The edit under label of the named field of a file of kind."""
    (field,) = (f for f in read_file(data, kind)[0] if f.name == name)
    return field_edits(data, field, np.random.default_rng(0))[label]
