"""Column-by-column references that the lake-wide passes over cell blocks
must equal: document frequencies counted one column at a time, postings
appended one set at a time, and base embeddings from fresh cell means."""

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
