"""Top-k table union search over the indexed corpus.

A query table is answered column by column: each encodable query column
gathers candidate columns from the enabled indexes, every candidate pair is
scored exactly under each enabled measure, and the per-pair ensemble score
is the unweighted mean of those measures. Pairs below the similarity
threshold are dropped. Surviving pairs are grouped by candidate table and
greedily matched one-to-one; the table score is the weighted mean of its
matched pair scores, each weight the inclusive empirical CDF position of
the pair's score among that query column's surviving scores — so a pair
that stands out against its column's alternatives counts for more.

Candidate generation never affects score precision. A query table is
scored in table-wide array passes, one per stage, not one per column. A
pair of query column j and engine row is named by the id ``j * n + row``,
n being the engine's row count (row i of every engine index is
``keys[i]``), and the passes keep the ids ascending. Each enabled
set measure's postings give, in one ``match`` of the table's sets (built
for those measures only), exact Jaccards for just the pairs that share a
token; every other pair's part is +0.0. The semantic parts are exact
cosines from the cosine index. In exhaustive mode ``scores`` gives them
for every row against all of the table's columns in one pass, the set
parts are spread over every pair, and every pair is a pair row. When
banded, the pair rows and their semantic parts come from one
``CosineLshIndex.banded`` call: the pairs that reach the threshold on the
semantic part and share a cosine band, and the pairs that reach it on name
or value, which it is given. A key is looked up only for a pair that
survives. A pair's score is its parts summed left to right from 0.0, in
``ordered_measures`` order, over their count: the same float that
``attribute_unionability`` and the ``SYNTACTIC_FUNCS`` entries give pair
by pair.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from numbers import Real
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Sequence

import numpy as np

from .corpus import Column, ColumnKey, Corpus, Table, cell_blocks
from .encoder import Encoder
from .errors import ConfigError, InputError, NumericError, check_integer
from .lshindex import CosineLshIndex, cosines
from .projection import ProjectionHead, project, widened
from .seeding import check_seed, derive_seed
from . import syntactic
from .syntactic import ALL_MEASURES, FORMAT, SEMANTIC, TfidfModel, TokenSets


@dataclass(frozen=True)
class IndexConfig:
    """The one index setting: the seed of its hyperplanes and permutations."""

    seed: int = 0

    def __post_init__(self) -> None:
        check_seed("index seed", self.seed)


@dataclass(frozen=True)
class SearchConfig:
    k: int = 10
    threshold: float = 0.7
    measures: tuple[str, ...] = (SEMANTIC,)
    exhaustive: bool = False

    def __post_init__(self) -> None:
        check_integer("k", self.k, 1)
        # A bool is a Real too, but never a score.
        if isinstance(self.threshold, bool) \
                or not isinstance(self.threshold, Real):
            raise ConfigError(f"threshold must be a number, "
                              f"got {self.threshold!r}")
        if not (0.0 <= self.threshold <= 1.0):
            raise ConfigError(f"threshold must be in [0, 1], got {self.threshold}")
        # A bare string would be read as a tuple of one-letter measures.
        if isinstance(self.measures, str):
            raise ConfigError(f"measures must be a sequence of measure names, "
                              f"not the string {self.measures!r}")
        bad = [m for m in self.measures if m not in ALL_MEASURES]
        if bad:
            raise ConfigError(f"unknown measures {bad}; valid: {list(ALL_MEASURES)}")
        if len(set(self.measures)) != len(self.measures):
            raise ConfigError(f"duplicate measures in {self.measures}")
        if SEMANTIC not in self.measures:
            raise ConfigError("the semantic measure must always be enabled")
        # A string such as "false" would be truthy and run the oracle.
        if not isinstance(self.exhaustive, bool):
            raise ConfigError(f"exhaustive must be a bool, "
                              f"got {self.exhaustive!r}")

    def ordered_measures(self) -> tuple[str, ...]:
        return tuple(m for m in ALL_MEASURES if m in self.measures)


@dataclass
class AttributeMatch:
    query_position: int
    candidate_position: int
    score: float
    weight: float


@dataclass
class RankedTable:
    candidate_table_id: str
    table_score: float
    matches: list[AttributeMatch]


@dataclass
class QueryResult:
    query_table_id: str
    ranked: list[RankedTable]


def attribute_unionability(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two embedding vectors, clamped to [-1, 1]."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    na, nb = np.linalg.norm(av), np.linalg.norm(bv)
    if na == 0.0 or nb == 0.0:
        raise NumericError("cosine of a zero vector is undefined")
    return float(cosines(av, na, bv, nb))


def left_sum(values: Iterable[float]) -> float:
    """The values added left to right from 0.0. Builtin ``sum`` compensates
    its rounding from Python 3.12 on, so it gives other bits on other
    versions; this gives the same bits on every one."""
    total = 0.0
    for value in values:
        total += value
    return total


def match_attributes(pair_scores: dict[tuple[int, int], float]
                     ) -> list[tuple[int, int, float]]:
    """Greedy one-to-one matching, best surviving pair first.

    Ties break toward the smaller (query position, candidate position).
    """
    order = sorted(pair_scores.items(), key=lambda kv: (-kv[1], kv[0]))
    used_q: set[int] = set()
    used_c: set[int] = set()
    matches = []
    for (qpos, cpos), score in order:
        if qpos in used_q or cpos in used_c:
            continue
        used_q.add(qpos)
        used_c.add(cpos)
        matches.append((qpos, cpos, score))
    return matches


def table_unionability(matches: list[AttributeMatch]) -> float:
    """Weighted mean of matched pair scores; zero total weight scores 0."""
    total_w = left_sum(m.weight for m in matches)
    if total_w == 0.0:
        return 0.0
    return left_sum(m.weight * m.score for m in matches) / total_w


class SearchEngine:
    """Immutable query-side bundle: encoder, head, and indexes.

    Made from ``keys``, ``vectors``, one float32 vector per key, and
    ``postings``, each set measure's inverted lists of its token sets. It
    checks once, here, that the head takes the encoder's dim, the keys
    strictly increase and the postings' ``sizes`` and ``tfidf.n_columns``
    count one row per key, so row i is ``keys[i]`` everywhere (others
    raise ConfigError). After that, ``keys`` is the sealed cosine index's
    tuple, ``postings`` a read-only mapping of read-only arrays, and
    ``tfidf``, the encoder's config and ``head``, the engine's own
    read-only copy, are frozen. The constructor copies its arguments;
    ``build_engine`` and ``modelfile.load_index`` hand theirs to
    ``_adopting``, which freezes them in place.
    """

    def __init__(self, encoder: Encoder, head: ProjectionHead,
                 index_config: IndexConfig, tfidf: TfidfModel,
                 keys: Sequence[ColumnKey], vectors: np.ndarray,
                 postings: dict[str, syntactic.SetPostings]):
        self._hold(encoder, head, index_config,
                   TfidfModel(dict(tfidf.df), tfidf.n_columns), keys,
                   np.array(vectors, dtype=np.float32, order="C"),
                   {m: syntactic.SetPostings(
                       {tok: rows.copy() for tok, rows in p.postings.items()},
                       len(p.sizes)) for m, p in postings.items()})

    @classmethod
    def _adopting(cls, *parts) -> SearchEngine:
        """The engine of the constructor's arguments, frozen in place with
        no copy but the head's: the vectors, a C-contiguous float32 matrix,
        become its rows."""
        engine = cls.__new__(cls)
        engine._hold(*parts)
        return engine

    def _hold(self, encoder: Encoder, head: ProjectionHead,
              index_config: IndexConfig, tfidf: TfidfModel,
              keys: Sequence[ColumnKey], matrix: np.ndarray,
              postings: dict[str, syntactic.SetPostings]) -> None:
        """Check the parts, the one check of an engine, and keep them."""
        if encoder.dim != head.dims[0]:
            raise ConfigError(f"head takes {head.dims[0]}-dim base embeddings "
                              f"but the encoder makes {encoder.dim}")
        if any(after <= before for before, after in zip(keys, keys[1:])):
            raise ConfigError("keys must be strictly increasing")
        covered = [len(p.sizes) for p in postings.values()] + [tfidf.n_columns]
        if any(rows != len(keys) for rows in covered):
            raise ConfigError(f"engine row counts disagree: {len(keys)} keys, "
                              f"postings and document frequencies {covered}")
        self.semantic_index = CosineLshIndex(
            dim=head.dims[2], seed=derive_seed(index_config.seed, "cosine"))
        self.semantic_index._adopt(keys, matrix)
        self.semantic_index._seal()
        self.keys: tuple[ColumnKey, ...] = self.semantic_index.keys
        self.encoder = encoder
        self.head = head.copy()
        self._wide_head = widened(self.head)
        self.index_config = index_config
        self.tfidf = tfidf
        for array in chain(self.head.tensors(), *(
                (p.sizes, *p.postings.values()) for p in postings.values())):
            array.flags.writeable = False
        self.postings = MappingProxyType(postings)

    def project_column(self, column: Column) -> np.ndarray:
        """Projected embedding, quantized to float32 like every stored vector."""
        base = self.encoder.embed_column(column.values)
        return project(self._wide_head, base).astype(np.float32)

    def query_profile(self, column: Column, measures: Sequence[str]) -> TokenSets:
        """The query column's token sets of just the named set measures."""
        return syntactic.build_profile(column, self.tfidf, measures)


def build_engine(corpus: Corpus, encoder: Encoder, head: ProjectionHead,
                 index_config: IndexConfig | None = None) -> SearchEngine:
    """Index every encodable corpus column under all measures.

    Array passes over the columns' cell blocks, in key order:
    ``syntactic.lake_sets`` counts the document frequencies, keeps the
    encodable columns and files their token sets; then each block's columns
    are embedded at once, and each base embedding projected alone, since a
    batched projection would change the bits. The sets are filed before any
    vector is made, so their working state is gone before the encoder's
    memos fill. The engine equals one built column by column with a
    ``Counter`` of document frequencies, ``build_profile``, postings
    appended row by row and ``embed_column``, bit for bit. The projected
    matrix becomes the cosine index's rows, with no copy.
    """
    cfg = index_config or IndexConfig()
    tfidf, columns, postings = syntactic.lake_sets(
        sorted(corpus.columns(), key=lambda col: col.column_key))
    wide = widened(head)
    vectors = np.empty((len(columns), head.dims[2]), dtype=np.float32)
    row = 0
    for block in cell_blocks(columns):
        for base in encoder.embed_block(block):
            vectors[row] = project(wide, base)
            row += 1
    return SearchEngine._adopting(encoder, head, cfg, tfidf,
                                  [c.column_key for c in columns], vectors,
                                  postings)


def _table_pairs(engine: SearchEngine, cfg: SearchConfig,
                 columns: Sequence[Column], qvecs: np.ndarray
                 ) -> list[dict[ColumnKey, tuple[float, float]]]:
    """Each query column's surviving candidates: key -> (score, weight).

    qvecs stacks the columns' projected vectors. A pair of column j and
    engine row is named by the id ``j * len(engine.keys) + row``, as the
    cosine index and the set postings name it.
    """
    t = cfg.threshold
    index = engine.semantic_index
    n = index.size
    measures = cfg.ordered_measures()[1:]
    sets = [engine.query_profile(c, measures) for c in columns]
    matches = {m: engine.postings[m].match([s[m] for s in sets])
               for m in measures}
    if cfg.exhaustive:
        # The oracle pool is every indexed column, so it also scores pairs
        # no generating measure would have surfaced on its own.
        ids = np.arange(len(columns) * n)
        semantic = index.scores(qvecs).ravel()
    else:
        # Name and value also gather pairs; format only scores.
        gathered = np.concatenate(
            [np.empty(0, dtype=np.int64),
             *(found[jaccards >= t]
               for m, (found, jaccards) in matches.items() if m != FORMAT)])
        ids, semantic = index.banded(qvecs, t, gathered)
    set_parts = []
    for found, jaccards in matches.values():
        every = np.zeros(len(columns) * n)
        every[found] = jaccards
        set_parts.append(every[ids])
    bounds = np.searchsorted(ids, np.arange(len(columns) + 1) * n).tolist()
    n_parts = 1 + len(set_parts)
    column_pairs = []
    for j, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        pair_scores: dict[ColumnKey, float] = {}
        # Semantic is always first in ordered_measures. Each pair's parts
        # are added as ``left_sum`` adds them, written out: a call per pair
        # would cost the exhaustive pair loop about a fifth of its time.
        for row, *parts in zip((ids[lo:hi] - j * n).tolist(),
                               *(p[lo:hi].tolist()
                                 for p in (semantic, *set_parts))):
            score = 0.0
            for part in parts:
                score += part
            score /= n_parts
            if score >= t:
                pair_scores[engine.keys[row]] = score
        # A pair's weight is the inclusive empirical CDF position of its
        # score among every surviving score of its column, the query
        # table's own columns included — self matches are excluded from the
        # ranking only after weights are fixed.
        ranked = sorted(pair_scores.values())
        column_pairs.append(
            {key: (score, bisect_right(ranked, score) / len(ranked))
             for key, score in pair_scores.items()})
    return column_pairs


def top_k_search(engine: SearchEngine, query_table: Table,
                 cfg: SearchConfig) -> QueryResult:
    """Rank candidate tables by unionability with the query table."""
    eligible = [c for c in query_table.columns if c.is_encodable()]
    if not eligible:
        raise InputError(
            f"query table {query_table.table_id!r} has no encodable columns")
    # The table's first-use tokens, hashed in one batch.
    engine.encoder.hash_cells(chain.from_iterable(c.values for c in eligible))
    qvecs = np.stack([engine.project_column(c) for c in eligible])
    by_table: dict[str, dict[tuple[int, int], tuple[float, float]]] = {}
    for column, pairs in zip(eligible,
                             _table_pairs(engine, cfg, eligible, qvecs)):
        for (table_id, cpos), score_weight in pairs.items():
            if table_id == query_table.table_id:
                continue
            by_table.setdefault(table_id, {})[(column.position, cpos)] = \
                score_weight

    ranked: list[RankedTable] = []
    for table_id in sorted(by_table):
        pairs = by_table[table_id]
        matched = match_attributes({pq: sw[0] for pq, sw in pairs.items()})
        matches = [AttributeMatch(qpos, cpos, score, pairs[(qpos, cpos)][1])
                   for qpos, cpos, score in matched]
        ranked.append(RankedTable(candidate_table_id=table_id,
                                  table_score=table_unionability(matches),
                                  matches=matches))
    ranked.sort(key=lambda r: (-r.table_score, r.candidate_table_id))
    return QueryResult(query_table_id=query_table.table_id,
                       ranked=ranked[:cfg.k])


def write_results(path: str | Path, results: list[QueryResult]) -> None:
    """Flat CSV, one row per (query, rank); matches joined as pos->pos:score."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["query_table_id", "rank", "candidate_table_id",
                    "table_score", "match_count", "matches"])
        for result in results:
            for rank, entry in enumerate(result.ranked, start=1):
                joined = ";".join(
                    f"{m.query_position}->{m.candidate_position}:{m.score:.9f}"
                    for m in entry.matches)
                w.writerow([result.query_table_id, rank,
                            entry.candidate_table_id,
                            f"{entry.table_score:.9f}",
                            len(entry.matches), joined])
