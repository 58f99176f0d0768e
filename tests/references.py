"""Column-by-column references that the lake-wide passes over cell blocks
must equal: document frequencies counted one column at a time, postings
appended one set at a time, and base embeddings from fresh cell means;
and an index file's postings block, coded one value at a time."""

import struct
from collections import Counter
from typing import Sequence

import numpy as np

from unionsearch.corpus import Corpus, cell_tokens, tokenize
from unionsearch.encoder import Encoder
from unionsearch.syntactic import SetPostings, TfidfModel


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


def postings_block(tokens: Sequence[bytes], groups: Sequence[bytes]) -> bytes:
    """A postings block as an index file holds it: the token count, each
    token counted, then the byte count of the varint groups and the groups."""
    stream = b"".join(groups)
    return (struct.pack("<I", len(tokens))
            + b"".join(struct.pack("<I", len(tok)) + tok for tok in tokens)
            + struct.pack("<I", len(stream)) + stream)
