"""Seeded properties of pair scoring.

A pair's score is the mean of its measures in ``ordered_measures`` order.
The search reads each measure's parts from arrays over all of a query
table's pairs at once; it must give, bit for bit, what the plain formula
gives pair by pair, and the banded mode must score a subset of the
exhaustive mode's pairs with the same floats.
"""

import itertools
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from unionsearch.bench import BenchmarkSpec, generate_benchmark
from unionsearch.corpus import Column
from unionsearch.encoder import Encoder, EncoderConfig
from unionsearch.lshindex import CosineLshIndex
from unionsearch.projection import init_head
from unionsearch import search, syntactic
from unionsearch.search import (IndexConfig, SearchConfig, _table_pairs,
                                attribute_unionability, build_engine,
                                left_sum, top_k_search)
from unionsearch.syntactic import (ALL_MEASURES, FORMAT, NAME, SEMANTIC,
                                   SYNTACTIC_FUNCS, VALUE, SetPostings,
                                   build_profile, jaccard)

# Every measure set the search accepts: semantic plus any syntactic subset.
MEASURE_SETS = [(SEMANTIC, *extra) for r in range(len(ALL_MEASURES))
                for extra in itertools.combinations(ALL_MEASURES[1:], r)]
THRESHOLD = 0.5


@pytest.fixture(scope="module", params=[3, 14])
def lake(request):
    seed = request.param
    spec = BenchmarkSpec(n_bases=5, derivations_per_base=4, n_topics=2,
                         base_columns=(3, 5), base_rows=15, seed=seed)
    corpus, _ = generate_benchmark(spec)
    engine = build_engine(corpus, Encoder(EncoderConfig(dim=24, hash_seed=seed)),
                          init_head(24, 24, 12, seed=seed),
                          IndexConfig(seed=seed))
    return corpus, engine


@pytest.fixture(scope="module")
def profiles(lake):
    """Each indexed column's sets, rebuilt from the corpus as the reference."""
    corpus, engine = lake
    return {c.column_key: build_profile(c, engine.tfidf)
            for c in corpus.encodable_columns()}


def _reference(engine, profiles, cfg, column, key, qvec=None) -> float:
    """The pair score written out: one function call per measure, the
    semantic part from qvec, the column's projection by default."""
    q = engine.project_column(column) if qvec is None else qvec
    qprofile = build_profile(column, engine.tfidf)
    parts = [attribute_unionability(q, engine.semantic_index.vector(key)),
             *(SYNTACTIC_FUNCS[m](qprofile, profiles[key])
               for m in cfg.ordered_measures() if m != SEMANTIC)]
    return left_sum(parts) / len(parts)


def _pairs(engine, cfg, columns, qvecs=None):
    """Each of a query table's columns' pairs, from the table-level helper;
    the vectors are the columns' projections unless given."""
    if qvecs is None:
        qvecs = np.stack([engine.project_column(c) for c in columns])
    return _table_pairs(engine, cfg, columns, qvecs)


def _query_tables(corpus):
    return [[c for c in t.columns if c.is_encodable()]
            for t in corpus.tables[::5]]


@pytest.mark.parametrize("measures", MEASURE_SETS, ids=",".join)
def test_exhaustive_pairs_are_the_reference_scores(lake, profiles, measures):
    corpus, engine = lake
    cfg = SearchConfig(threshold=THRESHOLD, measures=measures,
                       exhaustive=True)
    survivors = 0
    for columns in _query_tables(corpus):
        for column, pairs in zip(columns, _pairs(engine, cfg, columns)):
            want = {key: _reference(engine, profiles, cfg, column, key)
                    for key in engine.keys}
            assert set(pairs) == {k for k, s in want.items()
                                  if s >= THRESHOLD}
            for key, (score, _) in pairs.items():
                assert score == want[key]
            survivors += len(pairs)
    assert survivors > 0


@pytest.mark.parametrize("measures", MEASURE_SETS, ids=",".join)
def test_banded_pairs_are_exhaustive_pairs(lake, measures):
    corpus, engine = lake
    banded = SearchConfig(threshold=THRESHOLD, measures=measures)
    exhaustive = SearchConfig(threshold=THRESHOLD, measures=measures,
                              exhaustive=True)
    for columns in _query_tables(corpus):
        for few, every in zip(_pairs(engine, banded, columns),
                              _pairs(engine, exhaustive, columns)):
            assert set(few) <= set(every)
            for key, (score, _) in few.items():
                assert score == every[key][0]


def _low_vector(rng, index, row, cosine):
    """A float32 vector whose cosine with stored row is about cosine and
    whose cosine with every stored row is below THRESHOLD: the best of 200
    seeded tries."""
    unit = index.vectors[row].astype(np.float64)
    unit /= np.linalg.norm(unit)
    best, best_max = None, np.inf
    for _ in range(200):
        w = rng.standard_normal(len(unit))
        w -= (w @ unit) * unit
        v = (cosine * unit
             + np.sqrt(1 - cosine ** 2) * w / np.linalg.norm(w))
        v = v.astype(np.float32)
        top = index.scores(v[None]).max()
        if top < best_max:
            best, best_max = v, top
    assert best_max < THRESHOLD
    return best


def test_table_pairs_of_many_column_tables(lake, profiles):
    """Tables of several columns through the table-level passes, bit for
    bit against the per-pair reference under all eight measure sets: a
    column asked twice; a column whose name set is empty and whose value
    set touches no row; and a table whose only pairs come from name or
    value, its vectors below THRESHOLD with every row."""
    corpus, engine = lake
    index = engine.semantic_index
    rng = np.random.default_rng(29)
    lake_columns = [c for t in corpus.tables for c in t.columns
                    if c.is_encodable()]
    picked = [lake_columns[i] for i in rng.choice(len(lake_columns), 5,
                                                   replace=False)]
    # No alphanumeric name character, no cell token the lake has.
    odd = Column(table_id="odd", position=0, name="--",
                 values=["qqzxv jjwyk", "qqzxv", "xkcdz"])
    qsets = build_profile(odd, engine.tfidf)
    assert not qsets[NAME] and not any(qsets[VALUE] & p[VALUE]
                                       for p in profiles.values())
    repeated = [picked[0], picked[1], odd, picked[0], picked[2]]
    # Each vector meets its own column's stored row at cosine 0.2, so its
    # pair survives only with that row's name or value part.
    lonely = picked[3:]
    lonely_vecs = np.stack([
        _low_vector(rng, index, index.rows[c.column_key], 0.2)
        for c in lonely])
    tables = [(repeated, None), (lonely, lonely_vecs)]
    found = Counter()
    for measures in MEASURE_SETS:
        runs = {exhaustive: [
            _pairs(engine, SearchConfig(threshold=THRESHOLD,
                                        measures=measures,
                                        exhaustive=exhaustive),
                   columns, qvecs)
            for columns, qvecs in tables] for exhaustive in (False, True)}
        cfg = SearchConfig(threshold=THRESHOLD, measures=measures)
        for (columns, qvecs), banded, every in zip(tables, runs[False],
                                                   runs[True]):
            vectors = (qvecs if qvecs is not None else
                       [engine.project_column(c) for c in columns])
            assert len(banded) == len(every) == len(columns)
            for column, qvec, few, pairs in zip(columns, vectors, banded,
                                                every):
                want = {key: _reference(engine, profiles, cfg, column, key,
                                        qvec)
                        for key in engine.keys}
                survivors = sorted(s for s in want.values()
                                   if s >= THRESHOLD)
                assert set(pairs) == {k for k, s in want.items()
                                      if s >= THRESHOLD}
                assert set(few) <= set(pairs)
                for got in (few, pairs):
                    ranked = sorted(score for score, _ in got.values())
                    for key, (score, weight) in got.items():
                        assert score == want[key]
                        assert weight == bisect_right(ranked, score) \
                            / len(ranked)
                for key, (score, weight) in pairs.items():
                    assert weight == bisect_right(survivors, score) \
                        / len(survivors)
            found[(columns is lonely, measures)] += sum(map(len, banded))
        # The repeated column gets the same pairs both times.
        assert runs[False][0][0] == runs[False][0][3]
        assert runs[True][0][0] == runs[True][0][3]
    assert found[(False, (SEMANTIC,))] > 0
    for measures in MEASURE_SETS:
        gathers = NAME in measures or VALUE in measures
        assert (found[(True, measures)] > 0) == gathers


@pytest.mark.parametrize("measures", MEASURE_SETS, ids=",".join)
@pytest.mark.parametrize("exhaustive", [False, True])
def test_match_scores_are_the_reference_scores(lake, profiles, measures,
                                               exhaustive):
    corpus, engine = lake
    cfg = SearchConfig(k=50, threshold=THRESHOLD, measures=measures,
                       exhaustive=exhaustive)
    matches = 0
    for table in corpus.tables[::5]:
        for ranked in top_k_search(engine, table, cfg).ranked:
            for m in ranked.matches:
                key = (ranked.candidate_table_id, m.candidate_position)
                column = table.columns[m.query_position]
                assert m.score == _reference(engine, profiles, cfg, column,
                                             key)
                matches += 1
    assert matches > 0


def test_search_scores_on_its_one_path(lake, monkeypatch):
    """The pair-by-pair references and the key-level lookup are never
    called. Banded, each query table makes one ``banded`` call over all its
    columns, and so one ``prefilter`` call, one exact ``pair_scores`` call
    and one ``band_hits`` call; exhaustive, one full ``scores`` call.
    Either way the set postings, the only other scoring source, are
    matched once per table and set measure."""
    corpus, engine = lake
    configs = [SearchConfig(k=50, threshold=THRESHOLD, measures=measures,
                            exhaustive=exhaustive)
               for measures in MEASURE_SETS for exhaustive in (False, True)]
    tables = corpus.tables[::5]
    columns = sum(c.is_encodable() for t in tables for c in t.columns)
    assert columns > len(tables)   # some table has several query columns
    want = [[top_k_search(engine, t, cfg) for t in tables] for cfg in configs]

    def refuse(*args, **kwargs):
        raise AssertionError("search scored a pair outside its one path")

    for measure in SYNTACTIC_FUNCS:
        monkeypatch.setitem(SYNTACTIC_FUNCS, measure, refuse)
    monkeypatch.setattr(search, "attribute_unionability", refuse)
    monkeypatch.setattr(CosineLshIndex, "lookup", refuse)
    calls = Counter()

    def counted(owner, name):
        method = getattr(owner, name)

        def call(self, *args):
            calls[name] += 1
            return method(self, *args)
        return call

    for name in ("scores", "banded", "prefilter", "pair_scores", "band_hits"):
        monkeypatch.setattr(CosineLshIndex, name,
                            counted(CosineLshIndex, name))
    monkeypatch.setattr(SetPostings, "match", counted(SetPostings, "match"))
    for cfg, results in zip(configs, want):
        calls.clear()
        assert [top_k_search(engine, t, cfg) for t in tables] == results
        matches = len(tables) * (len(cfg.measures) - 1)
        if cfg.exhaustive:
            want_calls = Counter(scores=len(tables), match=matches)
        else:
            want_calls = Counter(banded=len(tables), prefilter=len(tables),
                                 pair_scores=len(tables),
                                 band_hits=len(tables), match=matches)
        assert calls == +want_calls
    assert any(r.ranked for results in want for r in results)


class _Name(str):
    """A column name that counts the q-gram builds that normalize it."""

    reads = 0

    def lower(self):
        _Name.reads += 1
        return super().lower()


def _set_work(tokenized: list[str]) -> tuple[int, int, int]:
    """Name, value and format set work so far: name normalizations, the
    cells syntactic has tokenized (tokenized lists them), and calls into
    the memo of format patterns."""
    patterns = syntactic.format_pattern.cache_info()
    return (_Name.reads, len(tokenized), patterns.hits + patterns.misses)


@pytest.mark.parametrize("exhaustive", [False, True])
def test_query_builds_only_its_measures_sets(lake, monkeypatch, exhaustive):
    """Each query column asks for the sets of its enabled set measures and
    gets exactly those back; ``semantic`` alone builds no set at all."""
    corpus, engine = lake
    tables = [replace(t, columns=[replace(c, name=_Name(c.name))
                                  for c in t.columns])
              for t in corpus.tables[::5]]
    columns = sum(c.is_encodable() for t in tables for c in t.columns)
    query_profile = search.SearchEngine.query_profile
    asked = []

    def spy(self, column, measures):
        sets = query_profile(self, column, measures)
        assert isinstance(sets, dict) and set(sets) == set(measures)
        asked.append(tuple(measures))
        return sets

    monkeypatch.setattr(search.SearchEngine, "query_profile", spy)
    # Wrapped where syntactic calls it: query columns and the encoder read
    # the same memo through other names.
    tokenized = []
    cell_tokens = syntactic.cell_tokens
    monkeypatch.setattr(syntactic, "cell_tokens",
                        lambda cell: tokenized.append(cell)
                        or cell_tokens(cell))
    for measures in MEASURE_SETS:
        cfg = SearchConfig(threshold=THRESHOLD, measures=measures,
                           exhaustive=exhaustive)
        asked.clear()
        before = _set_work(tokenized)
        for table in tables:
            top_k_search(engine, table, cfg)
        work = [after - b for after, b in zip(_set_work(tokenized), before)]
        assert asked == [cfg.ordered_measures()[1:]] * columns
        assert [w > 0 for w in work] == [m in measures
                                         for m in (NAME, VALUE, FORMAT)]


def test_jaccard_is_the_set_formula():
    rng = random.Random(8)
    alphabet = [f"t{i}" for i in range(12)]
    for _ in range(500):
        a = frozenset(rng.sample(alphabet, rng.randint(0, 8)))
        b = set(rng.sample(alphabet, rng.randint(0, 8)))
        if a or b:
            assert jaccard(a, b) == len(a & b) / len(a | b)
            assert jaccard(a, b) == jaccard(b, a)
    assert jaccard(frozenset(), frozenset()) == 0.0
    assert jaccard(set(), set()) == 0.0
