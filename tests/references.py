"""Column-by-column references that the lake-wide passes over cell blocks
must equal: document frequencies counted one column at a time, and
postings appended one set at a time."""

from collections import Counter
from typing import Sequence

import numpy as np

from unionsearch.corpus import Corpus, tokenize
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
