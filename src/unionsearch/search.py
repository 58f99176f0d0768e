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

Candidate generation never affects score precision: the banded indexes only
choose which pairs get scored, and an exhaustive mode scores them all.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .corpus import Column, ColumnKey, Corpus, Table
from .encoder import Encoder
from .errors import ConfigError, InputError, NumericError
from .lshindex import CosineLshIndex, MinHashIndex, cosines
from .projection import ProjectionHead, project
from .seeding import derive_seed
from . import syntactic
from .syntactic import (ALL_MEASURES, NAME, SEMANTIC, VALUE, SyntacticProfile,
                        TfidfModel)


@dataclass
class IndexConfig:
    n_bands: int = 32
    rows_per_band: int = 8
    minhash_bands: int = 32
    minhash_rows: int = 4
    qgram: int = syntactic.DEFAULT_QGRAM
    top_terms: int = syntactic.DEFAULT_TOP_TERMS
    seed: int = 0


@dataclass
class SearchConfig:
    k: int = 10
    threshold: float = 0.7
    measures: tuple[str, ...] = (SEMANTIC,)
    exhaustive: bool = False

    def validate(self) -> None:
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if not (0.0 <= self.threshold <= 1.0):
            raise ConfigError(f"threshold must be in [0, 1], got {self.threshold}")
        bad = [m for m in self.measures if m not in ALL_MEASURES]
        if bad:
            raise ConfigError(f"unknown measures {bad}; valid: {list(ALL_MEASURES)}")
        if len(set(self.measures)) != len(self.measures):
            raise ConfigError(f"duplicate measures in {self.measures}")
        if SEMANTIC not in self.measures:
            raise ConfigError("the semantic measure must always be enabled")

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
    total_w = sum(m.weight for m in matches)
    if total_w == 0.0:
        return 0.0
    return sum(m.weight * m.score for m in matches) / total_w


class SearchEngine:
    """Immutable query-side bundle: encoder, head, indexes, and profiles.

    Made from ``columns``: ``(key, float32 vector, profile)`` in strictly
    increasing key order, kept in ``keys``. The three indexes follow from
    ``index_config`` and ``head.dims[2]``, and each column is filed in turn,
    so the same columns give the same rows and buckets. An empty name or
    value set stays out of its index.
    """

    def __init__(self, encoder: Encoder, head: ProjectionHead,
                 index_config: IndexConfig, tfidf: TfidfModel,
                 columns: Iterable[tuple[ColumnKey, np.ndarray,
                                         SyntacticProfile]]):
        cfg = index_config
        self.encoder = encoder
        self.head = head
        self.index_config = cfg
        self.tfidf = tfidf
        self.semantic_index = CosineLshIndex(
            dim=head.dims[2], n_planes=cfg.n_bands * cfg.rows_per_band,
            n_bands=cfg.n_bands, rows_per_band=cfg.rows_per_band,
            seed=derive_seed(cfg.seed, "cosine"))
        self.name_index, self.value_index = (
            MinHashIndex(n_perms=cfg.minhash_bands * cfg.minhash_rows,
                         n_bands=cfg.minhash_bands,
                         rows_per_band=cfg.minhash_rows,
                         seed=derive_seed(cfg.seed, label))
            for label in ("mh-name", "mh-value"))
        self.keys: list[ColumnKey] = []
        self.profiles: dict[ColumnKey, SyntacticProfile] = {}
        for key, vector, profile in columns:
            self.semantic_index.insert(key, vector)
            if profile.name_grams:
                self.name_index.insert(key, profile.name_grams)
            if profile.value_term_set:
                self.value_index.insert(key, profile.value_term_set)
            self.keys.append(key)
            self.profiles[key] = profile

    def project_column(self, column: Column) -> np.ndarray:
        """Projected embedding, quantized to float32 like every stored vector."""
        base = self.encoder.embed_column(column.values)
        return project(self.head, base).astype(np.float32)

    def query_profile(self, column: Column) -> SyntacticProfile:
        return syntactic.build_profile(column, self.tfidf,
                                       q=self.index_config.qgram,
                                       top_t=self.index_config.top_terms)


def build_engine(corpus: Corpus, encoder: Encoder, head: ProjectionHead,
                 index_config: IndexConfig | None = None) -> SearchEngine:
    """Index every encodable corpus column under all measures."""
    cfg = index_config or IndexConfig()
    tfidf = syntactic.build_tfidf(corpus)
    # One column at a time: a batched projection would change the bits.
    return SearchEngine(encoder, head, cfg, tfidf, (
        (c.column_key,
         project(head, encoder.embed_column(c.values)).astype(np.float32),
         syntactic.build_profile(c, tfidf, cfg.qgram, cfg.top_terms))
        for c in sorted(corpus.encodable_columns(),
                        key=lambda col: col.column_key)))


@dataclass
class _ColumnPairs:
    """One query column's surviving candidate pairs, each with its weight."""

    query_position: int
    pairs: dict[ColumnKey, tuple[float, float]]   # key -> (score, weight)


def _gather_candidates(engine: SearchEngine, cfg: SearchConfig,
                       qvec: np.ndarray | None,
                       qprofile: SyntacticProfile) -> list[ColumnKey]:
    """Keys to score, sorted."""
    if cfg.exhaustive:
        # The oracle pool is every indexed column, so it also scores pairs
        # no generating measure would have surfaced on its own.
        return engine.keys
    t = cfg.threshold
    candidates: set[ColumnKey] = set()
    if SEMANTIC in cfg.measures and qvec is not None:
        candidates.update(k for k, _ in engine.semantic_index.lookup(qvec, t))
    if NAME in cfg.measures and qprofile.name_grams:
        candidates.update(
            k for k, _ in engine.name_index.lookup(qprofile.name_grams, t))
    if VALUE in cfg.measures and qprofile.value_term_set:
        candidates.update(
            k for k, _ in engine.value_index.lookup(qprofile.value_term_set, t))
    return sorted(candidates)


def _pair_score(engine: SearchEngine, cfg: SearchConfig,
                qvec: np.ndarray | None, qprofile: SyntacticProfile,
                key: ColumnKey) -> float:
    parts = []
    for measure in cfg.ordered_measures():
        if measure == SEMANTIC:
            stored = engine.semantic_index.vector(key)
            parts.append(attribute_unionability(qvec, stored))
        else:
            func = syntactic.SYNTACTIC_FUNCS[measure]
            parts.append(func(qprofile, engine.profiles[key]))
    return float(sum(parts) / len(parts))


def _query_column_pairs(engine: SearchEngine, cfg: SearchConfig,
                        column: Column) -> _ColumnPairs:
    qvec = (engine.project_column(column)
            if SEMANTIC in cfg.measures else None)
    qprofile = engine.query_profile(column)
    pair_scores: dict[ColumnKey, float] = {}
    for key in _gather_candidates(engine, cfg, qvec, qprofile):
        score = _pair_score(engine, cfg, qvec, qprofile, key)
        if score >= cfg.threshold:
            pair_scores[key] = score
    # A pair's weight is the inclusive empirical CDF position of its score
    # among every surviving score, the query table's own columns included —
    # self matches are excluded from the ranking only after weights are
    # fixed.
    ranked = sorted(pair_scores.values())
    pairs = {key: (score, bisect_right(ranked, score) / len(ranked))
             for key, score in pair_scores.items()}
    return _ColumnPairs(query_position=column.position, pairs=pairs)


def top_k_search(engine: SearchEngine, query_table: Table,
                 cfg: SearchConfig) -> QueryResult:
    """Rank candidate tables by unionability with the query table."""
    cfg.validate()
    eligible = [c for c in query_table.columns if c.is_encodable()]
    if not eligible:
        raise InputError(
            f"query table {query_table.table_id!r} has no encodable columns")
    per_column = [_query_column_pairs(engine, cfg, c) for c in eligible]

    by_table: dict[str, dict[tuple[int, int], tuple[float, float]]] = {}
    for cp in per_column:
        for (table_id, cpos), score_weight in cp.pairs.items():
            if table_id == query_table.table_id:
                continue
            by_table.setdefault(table_id, {})[(cp.query_position, cpos)] = \
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
