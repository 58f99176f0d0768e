"""Syntactic column-similarity measures used alongside the learned one.

Three set-overlap measures, each a Jaccard over a different view of a column:

* name: character q-grams of the normalized column name,
* value: the column's top TF-IDF value tokens,
* format: the distinct shape patterns of the column's values.

All are cheap, deterministic, and need no training; the search layer can
average any subset of them with the semantic measure, scoring each with
``SetPostings`` (``SYNTACTIC_FUNCS`` is the one-pair reference), which
lists only the pairs of query set and row that share a token.
``build_profile`` builds just the sets it is asked for, from ``SET_BUILDERS``.

A lake repeats its cells (1.3% of the benchmark lake's cells are
distinct), so per-cell work is memoized and done once per distinct string:
a cell's tokens, read by ``build_tfidf`` and ``value_terms``, and its
``format_pattern``. A ``TfidfModel`` maps each token to its idf once, on
first use, from ``_idf``, which is memoized by (columns, document
frequency). Each memo is a ``functools.lru_cache`` of ``MEMO_CAP`` entries
over a pure function, so it returns exactly what a fresh call computes,
and no result changes.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from collections import Counter
from itertools import chain
from typing import Callable, Iterator, Sequence

import numpy as np

from .corpus import Column, Corpus, tokenize

SEMANTIC = "semantic"
NAME = "name"
VALUE = "value"
FORMAT = "format"
SET_MEASURES = (NAME, VALUE, FORMAT)
ALL_MEASURES = (SEMANTIC, *SET_MEASURES)

DEFAULT_QGRAM = 3
DEFAULT_TOP_TERMS = 20
# Entries each memo keeps, the least recently used evicted first.
MEMO_CAP = 1 << 16

_NON_ALNUM = re.compile(r"[^0-9a-z]+")

TokenSets = dict[str, frozenset[str]]   # keyed by set measure


def jaccard(a: frozenset | set, b: frozenset | set) -> float:
    """|a & b| / |a | b|, with two empty sets scoring 0.0, not 1.0.

    The union's size is counted as |a| + |b| - |a & b|, the same integer,
    without building the union.
    """
    inter = len(a & b)
    union = len(a) + len(b) - inter
    if union == 0:
        return 0.0
    return inter / union


class SetPostings:
    """Inverted lists over token sets numbered by row, with each set's size.

    Each token's rows are a strictly increasing int64 array below
    ``n_rows``, so a row's count of entries, ``sizes``, is its set's size.
    ``match`` finds the rows that overlap each of a stack of query sets by
    ScanCount (Li, Lu & Lu, ICDE 2008), counting only the rows the query
    tokens' lists touch. Its Jaccards divide the same two integers that
    ``jaccard`` divides, so they agree bit for bit.
    """

    def __init__(self, postings: dict[str, np.ndarray], n_rows: int):
        self.postings = postings
        self.sizes = np.bincount(
            np.concatenate([np.empty(0, dtype=np.int64), *postings.values()]),
            minlength=n_rows)

    @classmethod
    def from_sets(cls, sets: Sequence[frozenset[str]]) -> SetPostings:
        """The postings of sets, row i being ``sets[i]``."""
        lists: dict[str, list[int]] = {}
        for row, tokens in enumerate(sets):
            for tok in tokens:
                lists.setdefault(tok, []).append(row)
        return cls({tok: np.array(rows, dtype=np.int64)
                    for tok, rows in lists.items()}, len(sets))

    def match(self, sets: Sequence[frozenset[str]]
              ) -> tuple[np.ndarray, np.ndarray]:
        """The (set, row) pairs that share a token, and their Jaccards.

        A pair of ``sets[j]`` and row is named by the id ``j * n_rows +
        row``; the ids come ascending. Every other pair's Jaccard is 0.0.
        One sort counts the entries of every set's lists, each list shifted
        by its set's ``j * n_rows``.
        """
        n = len(self.sizes)
        shifted = []
        for j, tokens in enumerate(sets):
            lists = [self.postings[t] for t in tokens if t in self.postings]
            if lists:
                shifted.append(np.concatenate(lists) + j * n)
        if not shifted:
            return np.empty(0, dtype=np.int64), np.empty(0)
        ids, counts = np.unique(np.concatenate(shifted), return_counts=True)
        which, rows = np.divmod(ids, n)
        lens = np.array([len(tokens) for tokens in sets])
        return ids, counts / (lens[which] + self.sizes[rows] - counts)


def name_qgrams(name: str, q: int = DEFAULT_QGRAM) -> frozenset[str]:
    """Character q-grams of the lowercased, alphanumeric-only column name.

    Names shorter than q collapse to the whole normalized name, so "id"
    still produces a usable (single-element) set.
    """
    norm = _NON_ALNUM.sub("", name.lower())
    if not norm:
        return frozenset()
    if len(norm) < q:
        return frozenset({norm})
    return frozenset(norm[i:i + q] for i in range(len(norm) - q + 1))


@dataclass
class TfidfModel:
    """Corpus-level document frequencies, one document per column.

    ``df`` is not to change once ``idf`` has been read.
    """

    df: dict[str, int]
    n_columns: int

    @functools.cached_property
    def idf(self) -> dict[str, float]:
        """Each token's idf, built on first read."""
        return {tok: _idf(self.n_columns, df) for tok, df in self.df.items()}


@functools.lru_cache(maxsize=MEMO_CAP)
def _idf(n_columns: int, df: int) -> float:
    return float(np.log(1.0 + n_columns / df))


@functools.lru_cache(maxsize=MEMO_CAP)
def _cell_tokens(value: str) -> tuple[str, ...]:
    return tuple(tokenize(value))


def _column_tokens(column: Column) -> Iterator[str]:
    """Every token of the column's non-empty cells, in cell order."""
    return chain.from_iterable(map(_cell_tokens, column.non_empty_values()))


def build_tfidf(corpus: Corpus) -> TfidfModel:
    df: Counter[str] = Counter()
    columns = corpus.encodable_columns()
    for col in columns:
        df.update(set(_column_tokens(col)))
    return TfidfModel(df=dict(df), n_columns=len(columns))


def value_terms(column: Column, tfidf: TfidfModel,
                top_t: int = DEFAULT_TOP_TERMS) -> frozenset[str]:
    """Top-t column tokens by TF-IDF weight; ties break lexicographically."""
    tf = Counter(_column_tokens(column))
    if not tf:
        return frozenset()
    idf = tfidf.idf
    # Tokens never seen at build time count as maximally rare.
    rare = _idf(tfidf.n_columns, 1)
    ranked = sorted(tf, key=lambda tok: (-(tf[tok] * idf.get(tok, rare)), tok))
    return frozenset(ranked[:top_t])


@functools.lru_cache(maxsize=MEMO_CAP)
def format_pattern(value: str) -> str:
    """Shape of a value: digits->9, letters->a, whitespace->_, rest verbatim.

    Runs of the same class character collapse to one; verbatim characters
    never collapse, so "https://x.y" -> "a://a.a" keeps both slashes.
    Digits and letters are Unicode-wide ("٣٤" -> "9"), which is why this
    is memoized rather than mapped through an ASCII translation table.
    """
    out: list[str] = []
    prev_class: str | None = None
    for ch in value:
        if ch.isdigit():
            cls = "9"
        elif ch.isalpha():
            cls = "a"
        elif ch.isspace():
            cls = "_"
        else:
            out.append(ch)
            prev_class = None
            continue
        if cls != prev_class:
            out.append(cls)
        prev_class = cls
    return "".join(out)


def format_patterns(column: Column) -> frozenset[str]:
    return frozenset(format_pattern(v) for v in column.non_empty_values())


# Each set measure's token set of a column, given the lake's frequencies.
SET_BUILDERS: dict[str, Callable[[Column, TfidfModel], frozenset[str]]] = {
    NAME: lambda column, tfidf: name_qgrams(column.name),
    VALUE: value_terms,
    FORMAT: lambda column, tfidf: format_patterns(column),
}


def build_profile(column: Column, tfidf: TfidfModel,
                  measures: Sequence[str] = SET_MEASURES) -> TokenSets:
    """The column's token set of each named set measure, in the order named."""
    return {m: SET_BUILDERS[m](column, tfidf) for m in measures}


def name_measure(a: TokenSets, b: TokenSets) -> float:
    return jaccard(a[NAME], b[NAME])


def value_measure(a: TokenSets, b: TokenSets) -> float:
    return jaccard(a[VALUE], b[VALUE])


def format_measure(a: TokenSets, b: TokenSets) -> float:
    return jaccard(a[FORMAT], b[FORMAT])


SYNTACTIC_FUNCS = {
    NAME: name_measure,
    VALUE: value_measure,
    FORMAT: format_measure,
}
