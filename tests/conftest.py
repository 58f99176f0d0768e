import hashlib
import struct

import numpy as np
import pytest

from unionsearch.corpus import Column, Corpus, Table
from unionsearch.modelfile import CHECKSUM_BYTES

from references import string_table, varint


def make_table(table_id: str, cols: dict[str, list[str]]) -> Table:
    """Build an in-memory table from {column name: values}."""
    names = list(cols)
    columns = [Column(table_id=table_id, position=i, name=n, values=list(cols[n]))
               for i, n in enumerate(names)]
    return Table(table_id=table_id, name=table_id, headers=names,
                 columns=columns, source_path=None)


def make_corpus(tables: dict[str, dict[str, list[str]]]) -> Corpus:
    return Corpus(tables=[make_table(tid, cols) for tid, cols in tables.items()])


@pytest.fixture
def toy_corpus() -> Corpus:
    return make_corpus({
        "papers": {
            "title": ["deep learning survey", "graph neural networks",
                      "attention is all", "convex optimization"],
            "venue": ["Very Large Data Bases", "neural info processing",
                      "machine learning", "operations research"],
            "year": ["2007", "2014", "2017", "2004"],
        },
        "articles": {
            "name": ["statistical learning", "random forests",
                     "boosting methods", "kernel machines"],
            "published": ["1999", "2001", "2003", "1998"],
            "journal": ["annals statistics", "machine learning",
                        "neural computation", "data mining"],
        },
        "cities": {
            "city": ["lisbon", "porto", "madrid", "seville"],
            "country": ["portugal", "portugal", "spain", "spain"],
            "population": ["505", "237", "3223", "688"],
        },
    })


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def rotate_from(base: np.ndarray, other: np.ndarray, cos_target: float) -> np.ndarray:
    """Unit vector at exactly the requested cosine to `base`, in span(base, other)."""
    b = unit(base)
    o = np.asarray(other, dtype=np.float64)
    o = o - (o @ b) * b
    o = o / np.linalg.norm(o)
    s = np.sqrt(max(0.0, 1.0 - cos_target * cos_target))
    return cos_target * b + s * o


def forced(frozen, name: str, value) -> None:
    """Write a field of a frozen config or head past its constructor's
    checks: the one way a test makes a value the library refuses to make,
    such as a bad setting for a save to store."""
    object.__setattr__(frozen, name, value)


def _tfidf_block(entries, extra=()) -> bytes:
    tokens = [tok.encode("utf-8") for tok, _ in entries]
    stream = b"".join(varint(df) for df in [*(df for _, df in entries),
                                            *extra])
    return string_table(tokens) + struct.pack("<I", len(stream)) + stream


def with_tfidf(data: bytes, tfidf, edit) -> bytes:
    """The index file with its document frequencies edited, re-checksummed.

    They are the tokens' string table, tokens sorted, then their counts
    as varints, over the ``tfidf.n_columns`` indexed columns. ``edit``
    gets them as ``[n_columns, [[token, df], ...], extra]`` and changes
    the entries and extra in place; the counts in ``extra`` follow the
    tokens' own.
    """
    entries = sorted(tfidf.df.items())
    body = data[:-CHECKSUM_BYTES]
    block = _tfidf_block(entries)
    start = body.index(block)
    assert body.count(block) == 1
    edited = [tfidf.n_columns, [list(e) for e in entries], []]
    edit(edited)
    body = (body[:start] + _tfidf_block(*edited[1:])
            + body[start + len(block):])
    return body + hashlib.blake2b(body, digest_size=CHECKSUM_BYTES).digest()


def _one_df_zero(block):
    block[1][0][1] = 0


def _every_df_zero(block):
    # Every token, so that any query meets one.
    for entry in block[1]:
        entry[1] = 0


def _df_above_columns(block):
    block[1][-1][1] = block[0] + 1


def _tokens_out_of_order(block):
    entries = block[1]
    entries[0], entries[1] = entries[1], entries[0]


def _duplicate_token(block):
    block[1][1][0] = block[1][0][0]


def _count_without_token(block):
    block[2].append(1)


# Document-frequency blocks no save writes, each with the load's message.
TFIDF_EDITS = {
    "one-df-zero": (_one_df_zero, "not counts"),
    "every-df-zero": (_every_df_zero, "not counts"),
    "df-above-columns": (_df_above_columns, "not counts"),
    "tokens-out-of-order": (_tokens_out_of_order,
                            "df tokens not strictly increasing"),
    "duplicate-token": (_duplicate_token, "df tokens not strictly increasing"),
    "count-without-token": (_count_without_token, "document frequencies for"),
}
