"""Column-by-column references that the lake-wide passes over cell blocks
must equal: document frequencies counted one column at a time, postings
appended one set at a time, and base embeddings from fresh cell means;
and an index file's blocks, coded and parsed one value at a time."""

import hashlib
import struct
from collections import Counter
from typing import Sequence

import numpy as np

from unionsearch.corpus import Corpus, cell_tokens, tokenize
from unionsearch.encoder import Encoder
from unionsearch.modelfile import CHECKSUM_BYTES
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


def postings_values(postings: dict[str, Sequence[int]]) -> list[int]:
    """The varint values of a postings block: each token's row count minus
    one in token order, then list by list the first row and each later
    row's gap minus one."""
    tokens = sorted(postings)
    values = [len(postings[tok]) - 1 for tok in tokens]
    for tok in tokens:
        rows = [int(row) for row in postings[tok]]
        values += [rows[0]] + [b - a - 1 for a, b in zip(rows, rows[1:])]
    return values


def string_table(strings: Sequence[bytes]) -> bytes:
    """A string table as an index file holds it: the byte count of the
    varint lengths and the varints, then the strings."""
    stream = b"".join(varint(len(s)) for s in strings)
    return struct.pack("<I", len(stream)) + stream + b"".join(strings)


def postings_block(tokens: Sequence[bytes], groups: Sequence[bytes]) -> bytes:
    """A postings block as an index file holds it: the tokens' string
    table, then the byte count of the varint groups and the groups."""
    stream = b"".join(groups)
    return string_table(tokens) + struct.pack("<I", len(stream)) + stream


def key_table(tables: Sequence[tuple[bytes, Sequence[int]]]) -> bytes:
    """A key table as an index file holds it, from each table id and its
    column positions: the ids' string table, then one counted varint
    string of each table's position count minus one and then every
    table's positions."""
    values = [len(positions) - 1 for _, positions in tables]
    values += [p for _, positions in tables for p in positions]
    stream = b"".join(varint(v) for v in values)
    return (string_table([table_id for table_id, _ in tables])
            + struct.pack("<I", len(stream)) + stream)


# The modes of a float array's top-byte plane, and the code that marks an
# exception.
RAW, CODED, EXCEPTION = 0, 1, 15


def float_fields(values: np.ndarray) -> dict:
    """A float32 array's fields as an index file codes them, value by
    value: its shape, each value's three low bytes, and its top bytes
    either raw (``tops``) or coded against a dictionary (``words``, the up
    to 15 most frequent, ties to the smaller, sorted), with ``codes``, the
    exceptions' bytes in plane order."""
    raw = np.ascontiguousarray(values, dtype="<f4").tobytes()
    items = [raw[i:i + 4] for i in range(0, len(raw), 4)]
    tops = [item[3] for item in items]
    counts = Counter(tops)
    words = sorted(sorted(counts, key=lambda b: (-counts[b], b))[:EXCEPTION])
    code = {b: i for i, b in enumerate(words)}
    codes = [code.get(t, EXCEPTION) for t in tops]
    fields = {"shape": list(values.shape),
              "low": b"".join(item[:3] for item in items),
              "mode": CODED, "words": words, "codes": codes, "pad": 0,
              "exceptions": [t for t, c in zip(tops, codes)
                             if c == EXCEPTION]}
    if len(top_plane(fields)) >= 1 + len(tops):
        fields.update(mode=RAW, tops=tops)
    return fields


def top_plane(fields: dict) -> bytes:
    """The top-byte plane of float array fields: the mode byte, then the
    raw bytes, or the dictionary size and words, the codes two to a byte
    (the earlier low, ``pad`` after an odd count) and the exceptions'
    bytes."""
    if fields["mode"] != CODED:
        return bytes([fields["mode"]]) + bytes(fields.get("tops", []))
    codes = list(fields["codes"])
    if len(codes) % 2:
        codes.append(fields["pad"])
    packed = bytes(a | b << 4 for a, b in zip(codes[0::2], codes[1::2]))
    return (bytes([CODED, len(fields["words"])]) + bytes(fields["words"])
            + packed + bytes(fields["exceptions"]))


def float_array(fields: dict) -> bytes:
    """A float array as an index file holds it: rank, shape, low bytes,
    then the top-byte plane."""
    shape = fields["shape"]
    return (struct.pack("<B", len(shape))
            + b"".join(struct.pack("<I", d) for d in shape)
            + fields["low"] + top_plane(fields))


class Cursor:
    """Reads an index file's blocks one value at a time from pos on."""

    def __init__(self, data: bytes, pos: int):
        self.data, self.pos = data, pos

    def take(self, n: int) -> bytes:
        self.pos += n
        assert self.pos <= len(self.data)
        return self.data[self.pos - n:self.pos]

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def groups(self) -> list[bytes]:
        """A counted byte string of varints, as each varint's own bytes."""
        groups, group = [], bytearray()
        for byte in self.take(self.u32()):
            group.append(byte)
            if byte < 0x80:
                groups.append(bytes(group))
                group.clear()
        return groups

    def varints(self) -> list[int]:
        return [varint_value(g) for g in self.groups()]

    def strings(self) -> list[bytes]:
        lengths = self.varints()
        blob = self.take(sum(lengths))
        ends = np.cumsum(lengths, dtype=np.int64).tolist()
        return [blob[a:b] for a, b in zip([0, *ends], ends)]

    def key_table(self) -> list[tuple[bytes, list[int]]]:
        table_ids = self.strings()
        values = self.varints()
        counts = [v + 1 for v in values[:len(table_ids)]]
        positions = values[len(table_ids):]
        ends = np.cumsum(counts, dtype=np.int64).tolist()
        return [(t, positions[a:b])
                for t, a, b in zip(table_ids, [0, *ends], ends)]

    def float_array(self) -> dict:
        shape = [self.u32() for _ in range(self.u8())]
        n = int(np.prod(shape))
        fields = {"shape": shape, "low": self.take(3 * n), "mode": self.u8()}
        if fields["mode"] != CODED:
            fields["tops"] = list(self.take(n))
            return fields
        fields["words"] = list(self.take(self.u8()))
        packed = self.take((n + 1) // 2)
        codes = [c for b in packed for c in (b & 0x0F, b >> 4)]
        fields["codes"], fields["pad"] = codes[:n], sum(codes[n:])
        fields["exceptions"] = list(self.take(
            fields["codes"].count(EXCEPTION)))
        return fields

    def postings(self) -> tuple[list[bytes], list[bytes]]:
        return self.strings(), self.groups()

    def tfidf(self) -> tuple[list[bytes], list[int]]:
        return self.strings(), self.varints()


def index_blocks(data: bytes, model_bytes: int) -> dict[str, tuple[int, int]]:
    """Where each block of an index file's index section starts and ends:
    ``keys``, one per set measure, ``df`` and ``matrix``. The section
    follows the 6-byte header, the model section of model_bytes and the
    index configuration (its seed, one u64), and the digest ends the file."""
    cursor = Cursor(data, 6 + model_bytes + 8)
    spans = {}
    for name, read in (("keys", cursor.key_table),
                       *((m, cursor.postings) for m in SET_MEASURES),
                       ("df", cursor.tfidf),
                       ("matrix", cursor.float_array)):
        start = cursor.pos
        read()
        spans[name] = (start, cursor.pos)
    assert cursor.pos == len(data) - CHECKSUM_BYTES
    return spans


def with_key_table(data: bytes, model_bytes: int, make) -> bytes:
    """The index file with its key table replaced by make(tables), given
    each table id with its positions, re-checksummed."""
    span = index_blocks(data, model_bytes)["keys"]
    return with_block(data, span, make(Cursor(data, span[0]).key_table()))


def with_block(data: bytes, span: tuple[int, int], block: bytes) -> bytes:
    """The file with the bytes of span replaced by block, re-checksummed."""
    body = data[:span[0]] + block + data[span[1]:-CHECKSUM_BYTES]
    return body + hashlib.blake2b(body, digest_size=CHECKSUM_BYTES).digest()
