import numpy as np
import pytest

from unionsearch.bench import BenchmarkSpec, brute_force_search, generate_benchmark
from unionsearch.corpus import Column, ColumnKey, Table
from unionsearch.encoder import Encoder, EncoderConfig
from unionsearch.errors import ConfigError, InputError, NumericError
from unionsearch.projection import init_head
from unionsearch.search import (
    AttributeMatch,
    IndexConfig,
    QueryResult,
    RankedTable,
    SearchConfig,
    SearchEngine,
    attribute_unionability,
    build_engine,
    match_attributes,
    table_unionability,
    top_k_search,
    write_results,
)
from unionsearch.syntactic import NAME, SEMANTIC, SyntacticProfile, TfidfModel, VALUE

from conftest import make_table, rotate_from, unit


# ---------------------------------------------------------------- attribute score

def test_attribute_unionability_examples():
    assert attribute_unionability(np.array([1.0, 0.0]), np.array([2.0, 0.0])) == pytest.approx(1.0)
    assert attribute_unionability(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)
    assert attribute_unionability(np.array([1.0, 0.0]), np.array([1.0, 1.0])) == pytest.approx(1 / np.sqrt(2))


def test_attribute_unionability_clamped():
    v = np.full(4, 0.5)
    assert attribute_unionability(v, v) <= 1.0


def test_attribute_unionability_zero_vector():
    with pytest.raises(NumericError):
        attribute_unionability(np.zeros(3), np.ones(3))


# ---------------------------------------------------------------- greedy matching

def test_match_attributes_worked_example():
    got = match_attributes({(0, 0): 0.9, (0, 1): 0.8, (1, 0): 0.85, (1, 1): 0.75})
    assert got == [(0, 0, 0.9), (1, 1, 0.75)]


def test_match_attributes_one_to_one():
    got = match_attributes({(0, 5): 0.9, (1, 5): 0.8, (2, 5): 0.7})
    assert got == [(0, 5, 0.9)]  # candidate column 5 used once


def test_match_attributes_tie_breaks_by_position():
    got = match_attributes({(1, 0): 0.8, (0, 1): 0.8})
    assert got == [(0, 1, 0.8), (1, 0, 0.8)]


def test_match_attributes_empty():
    assert match_attributes({}) == []


# ---------------------------------------------------------------- table score

def _m(q, c, s, w):
    return AttributeMatch(query_position=q, candidate_position=c, score=s, weight=w)


def test_table_unionability_equal_weights():
    assert table_unionability([_m(0, 0, 0.8, 1.0), _m(1, 1, 0.6, 1.0)]) == pytest.approx(0.7)


def test_table_unionability_weighted_example():
    got = table_unionability([_m(0, 0, 0.9, 1.0), _m(1, 1, 0.5, 0.5)])
    assert got == pytest.approx((0.9 + 0.25) / 1.5)
    assert got == pytest.approx(0.7667, abs=1e-4)


def test_table_unionability_degenerate():
    assert table_unionability([]) == 0.0
    assert table_unionability([_m(0, 0, 0.9, 0.0)]) == 0.0


def test_table_unionability_bounded_by_match_scores():
    rng = np.random.default_rng(2)
    for _ in range(50):
        ms = [_m(i, i, float(rng.uniform(0, 1)), float(rng.uniform(0.01, 1)))
              for i in range(int(rng.integers(1, 6)))]
        u = table_unionability(ms)
        assert min(m.score for m in ms) - 1e-12 <= u <= max(m.score for m in ms) + 1e-12


# ---------------------------------------------------------------- config

def test_search_config_validation():
    SearchConfig().validate()
    with pytest.raises(ConfigError):
        SearchConfig(k=0).validate()
    with pytest.raises(ConfigError):
        SearchConfig(threshold=1.5).validate()
    with pytest.raises(ConfigError):
        SearchConfig(measures=("name",)).validate()  # semantic is mandatory
    with pytest.raises(ConfigError):
        SearchConfig(measures=(SEMANTIC, "sonic")).validate()
    with pytest.raises(ConfigError):
        SearchConfig(measures=(SEMANTIC, SEMANTIC)).validate()


def test_ordered_measures_canonical():
    cfg = SearchConfig(measures=(VALUE, SEMANTIC, NAME))
    assert cfg.ordered_measures() == (SEMANTIC, NAME, VALUE)


# ---------------------------------------------------------------- ranking mechanics

class VectorEngine(SearchEngine):
    """Engine with hand-planted projected vectors; semantic measure only."""

    def __init__(self, dim: int, stored: dict[ColumnKey, np.ndarray],
                 queries: dict[ColumnKey, np.ndarray]):
        columns = ((key, np.asarray(stored[key], dtype=np.float32),
                    SyntacticProfile(key, frozenset(), frozenset(), frozenset()))
                   for key in sorted(stored))
        # The head only sets the index dimension; queries bypass it.
        super().__init__(encoder=None, head=init_head(dim, dim, dim, seed=0),
                         index_config=IndexConfig(),
                         tfidf=TfidfModel(df={}, n_columns=0), columns=columns)
        self._queries = {k: np.asarray(v, dtype=np.float32) for k, v in queries.items()}

    def project_column(self, column: Column) -> np.ndarray:
        return self._queries[column.column_key]

    def query_profile(self, column: Column) -> SyntacticProfile:
        return SyntacticProfile(column.column_key, frozenset(), frozenset(), frozenset())


def _planted_world(include_self: bool):
    e = np.eye(6)
    helper = np.arange(1.0, 7.0)
    stored = {
        ("x", 0): rotate_from(e[0], e[1], 0.9),
        ("x", 1): rotate_from(e[2], e[3], 0.9),
        ("y", 0): rotate_from(e[0], e[4], 0.85),
    }
    queries = {("q", 0): e[0], ("q", 1): e[2]}
    if include_self:
        stored.update(queries)
    engine = VectorEngine(dim=6, stored=stored, queries=queries)
    qtable = make_table("q", {"c0": ["alpha"], "c1": ["beta"]})
    return engine, qtable


def test_two_shared_columns_outrank_one():
    engine, qtable = _planted_world(include_self=False)
    res = top_k_search(engine, qtable, SearchConfig(k=10, threshold=0.7))
    assert [r.candidate_table_id for r in res.ranked] == ["x", "y"]
    assert res.ranked[0].table_score == pytest.approx(0.9, abs=1e-6)
    assert res.ranked[1].table_score == pytest.approx(0.85, abs=1e-6)
    # x matched both columns one-to-one
    assert {(m.query_position, m.candidate_position) for m in res.ranked[0].matches} == {(0, 0), (1, 1)}
    # y's single pair is the weaker of column 0's two options: weight 1/2
    assert res.ranked[1].matches[0].weight == pytest.approx(0.5)


def test_self_match_excluded_but_still_weighs():
    engine, qtable = _planted_world(include_self=True)
    res = top_k_search(engine, qtable, SearchConfig(k=10, threshold=0.7))
    assert [r.candidate_table_id for r in res.ranked] == ["x", "y"]
    x = res.ranked[0]
    # the self pair (score 1.0) sits above 0.9 in column 0's distribution
    w_by_q = {m.query_position: m.weight for m in x.matches}
    assert w_by_q[0] == pytest.approx(2 / 3)
    assert w_by_q[1] == pytest.approx(1 / 2)
    y = res.ranked[1]
    assert y.matches[0].weight == pytest.approx(1 / 3)


def _weights_by_table(stored_cosines: dict[str, float]) -> dict[str, float]:
    """Weight of each one-column table's pair with query column e0."""
    e = np.eye(6)
    stored = {(tid, 0): rotate_from(e[0], e[1 + i], cos)
              for i, (tid, cos) in enumerate(stored_cosines.items())}
    engine = VectorEngine(dim=6, stored=stored, queries={("q", 0): e[0]})
    res = top_k_search(engine, make_table("q", {"c0": ["alpha"]}),
                       SearchConfig(k=10, threshold=0.1, exhaustive=True))
    return {r.candidate_table_id: r.matches[0].weight for r in res.ranked}


def test_cdf_weight_examples():
    w = _weights_by_table({"a": 0.2, "b": 0.4, "c": 0.6, "d": 0.8})
    assert w == pytest.approx({"a": 0.25, "b": 0.5, "c": 0.75, "d": 1.0})


def test_cdf_weight_ties_inclusive():
    w = _weights_by_table({"a": 0.5, "b": 0.5, "c": 0.9})
    assert w == pytest.approx({"a": 2 / 3, "b": 2 / 3, "c": 1.0})


def test_k_truncates_ranking():
    engine, qtable = _planted_world(include_self=False)
    res = top_k_search(engine, qtable, SearchConfig(k=1, threshold=0.7))
    assert [r.candidate_table_id for r in res.ranked] == ["x"]


def test_threshold_filters_everything():
    engine, qtable = _planted_world(include_self=False)
    res = top_k_search(engine, qtable, SearchConfig(k=5, threshold=0.95))
    assert res.ranked == []


def test_scores_scale_invariant():
    e = np.eye(6)
    stored = {("x", 0): rotate_from(e[0], e[1], 0.9)}
    queries = {("q", 0): e[0]}
    qtable = make_table("q", {"c0": ["alpha"]})
    r1 = top_k_search(VectorEngine(6, stored, queries), qtable, SearchConfig(threshold=0.5))
    scaled = VectorEngine(6, {k: 40.0 * v for k, v in stored.items()},
                          {k: 0.25 * v for k, v in queries.items()})
    r2 = top_k_search(scaled, qtable, SearchConfig(threshold=0.5))
    assert r1.ranked[0].table_score == pytest.approx(r2.ranked[0].table_score, abs=1e-6)


def test_query_without_encodable_columns_rejected():
    engine, _ = _planted_world(include_self=False)
    bad = make_table("q", {"c0": ["", "--"]})
    with pytest.raises(InputError):
        top_k_search(engine, bad, SearchConfig())


# ---------------------------------------------------------------- real pipeline

def _bench_engine(seed: int):
    spec = BenchmarkSpec(n_bases=4, derivations_per_base=4, n_topics=2,
                         base_columns=(3, 5), base_rows=24, seed=seed)
    corpus, truth = generate_benchmark(spec)
    enc = Encoder(EncoderConfig(dim=64, hash_seed=seed))
    head = init_head(64, 64, 32, seed=seed)
    engine = build_engine(corpus, enc, head, IndexConfig(seed=seed))
    return engine, corpus, truth


@pytest.mark.parametrize("seed", [0, 1])
def test_banded_search_matches_brute_force(seed):
    engine, corpus, _ = _bench_engine(seed)
    cfg = SearchConfig(k=8, threshold=0.7, measures=(SEMANTIC, NAME, VALUE))
    for table in corpus.tables[:4]:
        fast = top_k_search(engine, table, cfg)
        slow = brute_force_search(engine, table, cfg)
        assert [r.candidate_table_id for r in fast.ranked] == \
               [r.candidate_table_id for r in slow.ranked]
        for a, b in zip(fast.ranked, slow.ranked):
            assert a.table_score == pytest.approx(b.table_score, abs=1e-12)


def test_search_results_well_formed():
    engine, corpus, _ = _bench_engine(3)
    cfg = SearchConfig(k=5, threshold=0.7)
    for table in corpus.tables[:6]:
        res = top_k_search(engine, table, cfg)
        assert res.query_table_id == table.table_id
        assert len(res.ranked) <= 5
        scores = [r.table_score for r in res.ranked]
        assert scores == sorted(scores, reverse=True)
        for r in res.ranked:
            assert r.candidate_table_id != table.table_id  # self excluded
            qs = [m.query_position for m in r.matches]
            cs = [m.candidate_position for m in r.matches]
            assert len(qs) == len(set(qs)) and len(cs) == len(set(cs))
            lo = min(m.score for m in r.matches)
            hi = max(m.score for m in r.matches)
            assert lo - 1e-12 <= r.table_score <= hi + 1e-12
            for m in r.matches:
                assert m.score >= cfg.threshold
                assert 0.0 < m.weight <= 1.0


# ---------------------------------------------------------------- output file

def test_write_results_format(tmp_path):
    results = [QueryResult("q1", [
        RankedTable("cand", 0.75, [_m(0, 2, 0.8, 1.0), _m(1, 0, 0.7, 0.5)]),
    ])]
    out = tmp_path / "results.csv"
    write_results(out, results)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "query_table_id,rank,candidate_table_id,table_score,match_count,matches"
    assert lines[1] == "q1,1,cand,0.750000000,2,0->2:0.800000000;1->0:0.700000000"
