"""Syntactic column-similarity measures used alongside the learned one.

Three set-overlap measures, each a Jaccard over a different view of a column:

* name: character q-grams of the normalized column name,
* value: the column's top TF-IDF value tokens,
* format: the distinct shape patterns of the column's values.

All are cheap, deterministic, and need no training; the search layer can
average any subset of them with the semantic measure, scoring each with
``SetPostings`` (``SYNTACTIC_FUNCS`` is the one-pair reference), which
lists only the pairs of query set and row that share a token.

A lake's sets, for the index and for offline training, come from
``lake_sets``: array passes over ``corpus.CellBlock`` slots count the
document frequencies (``build_tfidf`` is that pass alone) and file each
column's sets as postings. A query table's few columns cost less column by
column: ``build_profile`` builds just the sets asked for, the same ones.

A lake repeats its cells (1.3% of the benchmark lake's cells are
distinct), so per-cell work is memoized and done once per distinct string:
a cell's tokens (``corpus.cell_tokens``), read at both scales, and its
``format_pattern``. Each memo is a ``functools.lru_cache`` over a pure
function, so it returns exactly what a fresh call computes, and no result
changes. A token's idf comes from ``_idf``, which ``TfidfModel.idf`` and
the lake pass call once per distinct document frequency, so ranking a
query column's terms makes no call per token.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from collections import Counter
from itertools import chain, compress, repeat
from operator import mul, neg
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .corpus import CellBlock, Column, Corpus, cell_blocks, cell_tokens

SEMANTIC = "semantic"
NAME = "name"
VALUE = "value"
FORMAT = "format"
SET_MEASURES = (NAME, VALUE, FORMAT)
ALL_MEASURES = (SEMANTIC, *SET_MEASURES)

QGRAM = 3
TOP_TERMS = 20
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
    ``jaccard`` divides, so they agree bit for bit. ``postings`` is a
    read-only view of the mapping given; an engine's arrays are read-only.
    """

    def __init__(self, postings: Mapping[str, np.ndarray], n_rows: int):
        self.postings = MappingProxyType(postings)
        self.sizes = np.bincount(
            np.concatenate([np.empty(0, dtype=np.int64), *postings.values()]),
            minlength=n_rows)

    @classmethod
    def from_pairs(cls, vocab: Sequence[str], tokens: np.ndarray,
                   rows: np.ndarray, n_rows: int) -> SetPostings:
        """The postings of distinct (token, row) pairs, token id i naming
        ``vocab[i]``: one sort by token, then row, cut at each token."""
        order = np.lexsort((rows, tokens))
        tokens, rows = tokens[order], rows[order]
        cuts = (np.flatnonzero(tokens[1:] != tokens[:-1]) + 1).tolist()
        firsts = tokens[[0, *cuts]].tolist() if len(tokens) else []
        return cls({vocab[tok]: rows[a:b] for tok, a, b in
                    zip(firsts, [0, *cuts], [*cuts, len(rows)])},
                   n_rows)

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


def name_qgrams(name: str) -> frozenset[str]:
    """Character q-grams of the lowercased, alphanumeric-only column name.

    Names shorter than q (``QGRAM``) collapse to the whole normalized name,
    so "id" still produces a usable (single-element) set.
    """
    norm = _NON_ALNUM.sub("", name.lower())
    if not norm:
        return frozenset()
    if len(norm) < QGRAM:
        return frozenset({norm})
    return frozenset(norm[i:i + QGRAM] for i in range(len(norm) - QGRAM + 1))


@dataclass(frozen=True)
class TfidfModel:
    """Corpus-level document frequencies, one document per column.

    ``idf`` maps each document frequency a token can have here, the stored
    ones and 1 for a token the corpus never saw, to its ``_idf``. It is
    made on first use (289 distinct frequencies for the 5,708 tokens of the
    benchmark lake), as the model is frozen and ``df`` a read-only view.
    """

    df: Mapping[str, int]
    n_columns: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "df", MappingProxyType(self.df))

    @functools.cached_property
    def idf(self) -> dict[int, float]:
        return {df: _idf(self.n_columns, df) for df in {1, *self.df.values()}}


def _idf(n_columns: int, df: int) -> float:
    return float(np.log(1.0 + n_columns / df))


def build_tfidf(corpus: Corpus) -> TfidfModel:
    """The corpus's document frequencies: ``lake_sets``'s first pass."""
    vocab, df, encodable = _frequencies(corpus.columns())
    return TfidfModel(df=dict(zip(vocab, df.tolist())),
                      n_columns=int(encodable.sum()))


def _frequencies(columns: Sequence[Column]
                 ) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
    """Token ids, numbered in order of first use, each id's document
    frequency over the columns that yield a token, one document per
    column, and which columns those are: one pass over the columns' cell
    blocks."""
    vocab: dict[str, int] = {}
    df = np.zeros(0, dtype=np.int64)
    encodable = np.zeros(len(columns), dtype=bool)
    start = 0
    for block in cell_blocks(columns):
        found, ids, _ = _block_terms(block, vocab, *block.column_slots())
        df = np.concatenate([df, np.zeros(len(vocab) - len(df), np.int64)])
        df += np.bincount(ids, minlength=len(vocab))
        encodable[start + found] = True
        start += len(block.columns)
    return vocab, df, encodable


def _ids(vocab: dict[str, int], items: list[str]) -> np.ndarray:
    """Each item's id in vocab, in order; an item not in vocab joins it
    first, ids counting up in order of first use."""
    new = [item for item in dict.fromkeys(items) if item not in vocab]
    vocab.update(zip(new, range(len(vocab), len(vocab) + len(new))))
    return np.fromiter(map(vocab.__getitem__, items), dtype=np.int64,
                       count=len(items))


def _block_terms(block: CellBlock, vocab: dict[str, int],
                 columns: np.ndarray, slots: np.ndarray, cells: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each column's distinct tokens, those of its non-empty cells,
    with their counts: (columns, token ids, counts), ordered by column, then
    token id. columns, slots and cells are ``block.column_slots()``; a
    token not in vocab joins it."""
    tokens = list(map(cell_tokens, block.values))
    per_slot = np.fromiter(map(len, tokens), dtype=np.intp, count=len(tokens))
    ids = _ids(vocab, list(chain.from_iterable(tokens)))
    per = per_slot[slots]
    # Position of each of each column slot's tokens in ids.
    at = np.repeat(np.cumsum(per_slot)[slots] - np.cumsum(per), per) \
        + np.arange(per.sum())
    stride = max(len(vocab), 1)
    pairs, which = np.unique(np.repeat(columns, per) * stride + ids[at],
                             return_inverse=True)
    counts = np.bincount(which, weights=np.repeat(cells, per))
    return *np.divmod(pairs, stride), counts


def lake_sets(columns: Sequence[Column]
              ) -> tuple[TfidfModel, list[Column], dict[str, SetPostings]]:
    """The lake's document frequencies, its encodable columns in the order
    given, and each set measure's postings over those, row i being the i-th;
    in two passes over the columns' cell blocks.

    The first pass is ``build_tfidf``'s. In the second, each row's sets
    are ``build_profile``'s: name q-grams column by column; value terms
    ranked by one lexsort of each block's token counts on (column,
    -tf * idf, token rank), the rank being the token's place in sorted
    order, as ``value_terms`` sorts them; format patterns read once per
    distinct value of a block, "" left out as ``non_empty_values`` leaves
    it. Each measure's postings come from its sorted (token, row) pairs.
    """
    sets = _LakeSets(columns)
    for block in cell_blocks(sets.columns):
        sets.add(block)
    return sets.tfidf, sets.columns, sets.postings()


class _LakeSets:
    """The state of ``lake_sets``: the first pass is the constructor, and
    ``add`` takes the second pass's blocks in turn."""

    def __init__(self, columns: Sequence[Column]):
        vocab, df, encodable = _frequencies(columns)
        self.columns = list(compress(columns, encodable))
        self.tfidf = TfidfModel(df=dict(zip(vocab, df.tolist())),
                                n_columns=len(self.columns))
        # Each token id's rank and idf; an idf per distinct frequency.
        self._rank = np.empty(len(vocab), dtype=np.int64)
        self._rank[np.fromiter(map(vocab.__getitem__, sorted(vocab)),
                               dtype=np.int64, count=len(vocab))] = \
            np.arange(len(vocab))
        counts, which = np.unique(df, return_inverse=True)
        self._idf = np.array([_idf(len(self.columns), c)
                              for c in counts.tolist()])[which]
        self._vocabs: dict[str, dict[str, int]] = {NAME: {}, VALUE: vocab,
                                                   FORMAT: {}}
        self.n_rows = 0
        # Each measure's token ids over rows, one (2, pairs) array per block.
        self._pairs: dict[str, list[np.ndarray]] = {m: [] for m in SET_MEASURES}

    def add(self, block: CellBlock) -> None:
        start = self.n_rows
        grams = [name_qgrams(column.name) for column in block.columns]
        self._pairs[NAME].append(np.stack([
            _ids(self._vocabs[NAME], list(chain.from_iterable(grams))),
            np.repeat(np.arange(start, start + len(grams)),
                      np.fromiter(map(len, grams), dtype=np.intp,
                                  count=len(grams)))]))

        columns, slots, cells = block.column_slots()
        found, ids, tf = _block_terms(block, self._vocabs[VALUE], columns,
                                      slots, cells)
        order = np.lexsort((self._rank[ids], -(tf * self._idf[ids]), found))
        found, ids = found[order], ids[order]
        firsts = np.flatnonzero(np.diff(found, prepend=-1))
        place = np.arange(len(found)) - np.repeat(
            firsts, np.diff(firsts, append=len(found)))
        top = place < TOP_TERMS
        self._pairs[VALUE].append(np.stack([ids[top], start + found[top]]))

        patterns = self._vocabs[FORMAT]
        of_value = _ids(patterns, list(map(format_pattern, block.values)))
        # Only "" has the pattern "", and non_empty_values leaves it out.
        of_value[of_value == patterns.get("", -1)] = -1
        of_slot = of_value[slots]
        kept = of_slot >= 0
        stride = max(len(patterns), 1)
        pairs = np.sort(columns[kept] * stride + of_slot[kept])
        found, ids = np.divmod(pairs[np.diff(pairs, prepend=-1) != 0], stride)
        self._pairs[FORMAT].append(np.stack([ids, start + found]))
        self.n_rows += len(block.columns)

    def postings(self) -> dict[str, SetPostings]:
        """Each set measure's postings, in ``SET_MEASURES`` order."""
        out = {}
        for measure in SET_MEASURES:
            ids, rows = np.concatenate(
                [np.empty((2, 0), dtype=np.int64), *self._pairs[measure]],
                axis=1)
            out[measure] = SetPostings.from_pairs(
                list(self._vocabs[measure]), ids, rows, self.n_rows)
        return out


def value_terms(column: Column, tfidf: TfidfModel) -> frozenset[str]:
    """The column's ``TOP_TERMS`` tokens of highest TF-IDF weight; ties
    break lexicographically."""
    # An empty cell has no tokens, so it adds nothing.
    tf = Counter(chain.from_iterable(map(cell_tokens, column.values)))
    # Tokens never seen at build time count as maximally rare: df 1. Each
    # sort key is (-(tf * idf), token), built with no Python call per token.
    weights = map(mul, tf.values(),
                  map(tfidf.idf.__getitem__, map(tfidf.df.get, tf, repeat(1))))
    ranked = sorted(zip(map(neg, weights), tf))
    return frozenset(tok for _, tok in ranked[:TOP_TERMS])


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
