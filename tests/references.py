"""Column-by-column references that the lake-wide passes over cell blocks
must equal: document frequencies counted one column at a time, postings
appended one set at a time, and base embeddings from fresh cell means;
token vectors and column samples each from its own ``default_rng``; and an
index file's blocks, coded and parsed one value at a time."""

import hashlib
import struct
from collections import Counter
from typing import Sequence

import numpy as np

from unionsearch.corpus import Column, Corpus, cell_tokens, tokenize
from unionsearch.encoder import Encoder
from unionsearch.modelfile import CHECKSUM_BYTES
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
        gaps = iter(values[len(table_ids):])
        tables = []
        for table_id, count in zip(table_ids, counts):
            positions = [next(gaps)]
            for _ in range(count - 1):
                positions.append(positions[-1] + next(gaps) + 1)
            tables.append((table_id, positions))
        return tables

    def float_array(self, n: int) -> dict:
        """The fields of a float array of n values."""
        fields = {"low": self.take(3 * n), "words": list(self.take(self.u8()))}
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
    ``keys``, one per set measure, ``df`` and ``matrix``, which takes the
    rest of the file up to the digest. The section follows the 6-byte
    header, the model section of model_bytes and the index configuration
    (its seed, one u64)."""
    cursor = Cursor(data, 6 + model_bytes + 8)
    spans = {}
    for name, read in (("keys", cursor.key_table),
                       *((m, cursor.postings) for m in SET_MEASURES),
                       ("df", cursor.tfidf)):
        start = cursor.pos
        read()
        spans[name] = (start, cursor.pos)
    spans["matrix"] = (cursor.pos, len(data) - CHECKSUM_BYTES)
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
