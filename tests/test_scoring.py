"""Seeded properties of pair scoring.

A pair's score is the mean of its measures in ``ordered_measures`` order.
The search reads each measure's parts from one array over a query column's
pair rows; it must give, bit for bit, what the plain formula gives pair by
pair, and the banded mode must score a subset of the exhaustive mode's
pairs with the same floats.
"""

import itertools
import random
from collections import Counter
from dataclasses import replace

import pytest

from unionsearch.bench import BenchmarkSpec, generate_benchmark
from unionsearch.encoder import Encoder, EncoderConfig
from unionsearch.lshindex import CosineLshIndex
from unionsearch.projection import init_head
from unionsearch import search, syntactic
from unionsearch.search import (IndexConfig, SearchConfig,
                                _query_column_pairs, attribute_unionability,
                                build_engine, top_k_search)
from unionsearch.syntactic import (ALL_MEASURES, FORMAT, NAME, SEMANTIC,
                                   SYNTACTIC_FUNCS, VALUE, build_profile,
                                   jaccard)

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


def _reference(engine, profiles, cfg, column, key) -> float:
    """The pair score written out: one function call per measure."""
    q = engine.project_column(column)
    qprofile = build_profile(column, engine.tfidf)
    parts = [attribute_unionability(q, engine.semantic_index.vector(key)),
             *(SYNTACTIC_FUNCS[m](qprofile, profiles[key])
               for m in cfg.ordered_measures() if m != SEMANTIC)]
    return float(sum(parts) / len(parts))


def _pairs(engine, cfg, column):
    """One column's pairs, its semantic part found as for a stack of one:
    every row's score in exhaustive mode, the prefilter's rows if banded."""
    qvec = engine.project_column(column)
    index = engine.semantic_index
    semantic = (index.scores(qvec[None]) if cfg.exhaustive
                else index.prefilter(qvec[None], cfg.threshold))
    return _query_column_pairs(engine, cfg, column, qvec, semantic[0])


def _query_columns(corpus):
    return [c for t in corpus.tables[::5] for c in t.columns
            if c.is_encodable()]


@pytest.mark.parametrize("measures", MEASURE_SETS, ids=",".join)
def test_exhaustive_pairs_are_the_reference_scores(lake, profiles, measures):
    corpus, engine = lake
    cfg = SearchConfig(threshold=THRESHOLD, measures=measures,
                       exhaustive=True)
    survivors = 0
    for column in _query_columns(corpus):
        pairs = _pairs(engine, cfg, column)
        want = {key: _reference(engine, profiles, cfg, column, key)
                for key in engine.keys}
        assert set(pairs) == {k for k, s in want.items() if s >= THRESHOLD}
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
    for column in _query_columns(corpus):
        few = _pairs(engine, banded, column)
        every = _pairs(engine, exhaustive, column)
        assert set(few) <= set(every)
        for key, (score, _) in few.items():
            assert score == every[key][0]


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
    called. Banded, one ``prefilter`` call per query table, over all its
    columns, and one exact ``row_scores`` and one ``collisions`` call per
    query column; exhaustive, one full ``scores`` call per query table. The
    set postings are the only other scoring source."""
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

    def counted(name):
        method = getattr(CosineLshIndex, name)

        def call(index, *args):
            calls[name] += 1
            return method(index, *args)
        return call

    for name in ("scores", "prefilter", "row_scores", "collisions"):
        monkeypatch.setattr(CosineLshIndex, name, counted(name))
    for cfg, results in zip(configs, want):
        calls.clear()
        assert [top_k_search(engine, t, cfg) for t in tables] == results
        if cfg.exhaustive:
            assert calls == Counter(scores=len(tables))
        else:
            assert calls == Counter(prefilter=len(tables), row_scores=columns,
                                    collisions=columns)
    assert any(r.ranked for results in want for r in results)


class _Name(str):
    """A column name that counts the q-gram builds that normalize it."""

    reads = 0

    def lower(self):
        _Name.reads += 1
        return super().lower()


def _set_work() -> tuple[int, int, int]:
    """Name, value and format set work so far: name normalizations, and
    calls into the memos of cell tokens and of format patterns."""
    tokens = syntactic._cell_tokens.cache_info()
    patterns = syntactic.format_pattern.cache_info()
    return (_Name.reads, tokens.hits + tokens.misses,
            patterns.hits + patterns.misses)


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
    for measures in MEASURE_SETS:
        cfg = SearchConfig(threshold=THRESHOLD, measures=measures,
                           exhaustive=exhaustive)
        asked.clear()
        before = _set_work()
        for table in tables:
            top_k_search(engine, table, cfg)
        work = [after - b for after, b in zip(_set_work(), before)]
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
