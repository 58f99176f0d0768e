import numpy as np
import pytest

from unionsearch.bench import (
    ROW_FLOOR,
    BenchmarkSpec,
    avg_answer_size,
    brute_force_search,
    evaluate_engine,
    generate_benchmark,
    precision_recall_at_k,
    read_truth,
    timing_harness,
    topic_of,
    write_metrics,
    write_truth,
)
from unionsearch.encoder import Encoder, EncoderConfig
from unionsearch.errors import ConfigError, InputError
from unionsearch.projection import init_head
from unionsearch.search import (
    AttributeMatch,
    IndexConfig,
    QueryResult,
    RankedTable,
    SearchConfig,
    build_engine,
    top_k_search,
)


def _small_spec(**kw) -> BenchmarkSpec:
    base = dict(n_bases=4, derivations_per_base=3, n_topics=2,
                base_columns=(3, 5), base_rows=20, seed=0)
    base.update(kw)
    return BenchmarkSpec(**base)


# ---------------------------------------------------------------- generator

def test_generator_deterministic():
    c1, t1 = generate_benchmark(_small_spec())
    c2, t2 = generate_benchmark(_small_spec())
    assert t1 == t2
    assert [t.table_id for t in c1.tables] == [t.table_id for t in c2.tables]
    for a, b in zip(c1.tables, c2.tables):
        assert [c.values for c in a.columns] == [c.values for c in b.columns]
    c3, _ = generate_benchmark(_small_spec(seed=1))
    assert any(a.headers != b.headers for a, b in zip(c1.tables, c3.tables))


def test_single_base_all_siblings_answer():
    # one base, one column: every derivation keeps it, so each of the 10
    # queries has the other 9 as its answer set
    spec = _small_spec(n_bases=1, derivations_per_base=10, n_topics=1,
                       base_columns=(1, 1))
    corpus, truth = generate_benchmark(spec)
    assert len(corpus.tables) == 10
    for tid, answers in truth.items():
        assert len(answers) == 9
        assert tid not in answers


def test_disjoint_bases_never_cross():
    corpus, truth = generate_benchmark(_small_spec())
    for tid, answers in truth.items():
        base = tid.split("_")[0]
        assert all(a.split("_")[0] == base for a in answers)


def test_truth_symmetric_irreflexive():
    _, truth = generate_benchmark(_small_spec(n_bases=3, derivations_per_base=5))
    for tid, answers in truth.items():
        assert tid not in answers
        for a in answers:
            assert tid in truth[a]


def test_derived_tables_subset_of_base_values():
    spec = _small_spec()
    corpus, _ = generate_benchmark(spec)
    groups: dict[str, list] = {}
    for t in corpus.tables:
        groups.setdefault(t.table_id.split("_")[0], []).append(t)
    for base_id, tables in groups.items():
        # per base column name, union of sibling values must look consistent:
        # every shared column name carries values drawn from one pool
        by_name: dict[str, set] = {}
        for t in tables:
            for c in t.columns:
                by_name.setdefault(c.name, set()).update(c.values)
        for t in tables:
            assert t.n_rows >= ROW_FLOOR
            for c in t.columns:
                assert set(c.values) <= by_name[c.name]


def test_derivations_keep_at_least_half_the_columns():
    spec = _small_spec(base_columns=(4, 6), derivations_per_base=6)
    corpus, _ = generate_benchmark(spec)
    widths: dict[str, int] = {}
    for t in corpus.tables:
        base = t.table_id.split("_")[0]
        widths[base] = max(widths.get(base, 0), t.n_columns)
    for t in corpus.tables:
        full = widths[t.table_id.split("_")[0]]
        assert t.n_columns >= (full + 1) // 2


def test_topics_partition_bases():
    spec = _small_spec(n_bases=6, n_topics=3)
    corpus, _ = generate_benchmark(spec)
    topics = {topic_of(t.table_id, spec) for t in corpus.tables}
    assert topics == {0, 1, 2}


def test_include_bases_mode():
    spec = _small_spec(include_bases=True)
    corpus, truth = generate_benchmark(spec)
    base_ids = [t.table_id for t in corpus.tables if "_" not in t.table_id]
    assert len(base_ids) == 4
    # bases join the pool symmetrically: each answers its derivations
    for b in base_ids:
        assert truth[b] == {t.table_id for t in corpus.tables
                            if t.table_id.startswith(b + "_")}
        for d in truth[b]:
            assert b in truth[d]


def test_generator_parameter_validation():
    with pytest.raises(ConfigError):
        _small_spec(n_bases=0).validate()
    with pytest.raises(ConfigError):
        _small_spec(base_columns=(5, 3)).validate()
    with pytest.raises(ConfigError):
        _small_spec(base_rows=2).validate()  # below the selection floor
    with pytest.raises(ConfigError):
        _small_spec(p_attr=0.8, p_topic=0.3).validate()  # mixture over 1
    with pytest.raises(ConfigError):
        _small_spec(derived_row_range=(0.9, 0.5)).validate()


# ---------------------------------------------------------------- metrics

def _result(tids: list[str]) -> QueryResult:
    ranked = [RankedTable(t, 1.0 - 0.01 * i,
                          [AttributeMatch(0, 0, 1.0 - 0.01 * i, 1.0)])
              for i, t in enumerate(tids)]
    return QueryResult("q", ranked)


def test_precision_recall_example():
    res = _result(["a", "x", "b", "y"])
    p, r = precision_recall_at_k(res, {"a", "b", "c", "d"}, k=4)
    assert (p, r) == (0.5, 0.5)


def test_precision_recall_perfect_and_empty():
    res = _result(["a", "b"])
    assert precision_recall_at_k(res, {"a", "b"}, k=2) == (1.0, 1.0)
    assert precision_recall_at_k(res, {"z"}, k=2) == (0.0, 0.0)


def test_precision_short_result_list():
    res = _result(["a"])
    p, r = precision_recall_at_k(res, {"a", "b"}, k=5)
    # precision over returned results only; recall over the full answer set
    assert p == 1.0 and r == 0.5


def test_recall_monotone_in_k():
    res = _result(["a", "x", "b", "y", "c"])
    answers = {"a", "b", "c"}
    recalls = [precision_recall_at_k(res, answers, k)[1] for k in range(1, 6)]
    assert recalls == sorted(recalls)


def test_avg_answer_size():
    truth = {"a": {"b", "c"}, "b": {"a"}, "c": set()}
    assert avg_answer_size(truth) == pytest.approx(1.5)  # empty sets excluded
    with pytest.raises(InputError):
        avg_answer_size({"a": set()})


# ---------------------------------------------------------------- evaluation

@pytest.fixture(scope="module")
def small_world():
    spec = _small_spec(n_bases=3, derivations_per_base=4, base_rows=16)
    corpus, truth = generate_benchmark(spec)
    enc = Encoder(EncoderConfig(dim=48, hash_seed=0))
    engine = build_engine(corpus, enc, init_head(48, 48, 24, seed=0),
                         IndexConfig(seed=0))
    return engine, corpus, truth


def test_evaluate_engine_rows(small_world):
    engine, corpus, truth = small_world
    cfg = SearchConfig(threshold=0.7)
    rows = evaluate_engine(engine, corpus, truth, cfg, ks=[1, 3, 5])
    assert [k for k, _, _ in rows] == [1, 3, 5]
    for _, p, r in rows:
        assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0
    # recall means inherit per-query monotonicity
    recalls = [r for _, _, r in rows]
    assert recalls == sorted(recalls)


def test_evaluate_engine_query_order_irrelevant(small_world):
    engine, corpus, truth = small_world
    cfg = SearchConfig(threshold=0.7)
    ids = sorted(truth)
    a = evaluate_engine(engine, corpus, truth, cfg, ks=[3], query_ids=ids)
    b = evaluate_engine(engine, corpus, truth, cfg, ks=[3], query_ids=list(reversed(ids)))
    assert a == b


def test_evaluate_engine_missing_query_rejected(small_world):
    engine, corpus, truth = small_world
    with pytest.raises(InputError):
        evaluate_engine(engine, corpus, truth, SearchConfig(), ks=[1],
                        query_ids=["ghost_d0"])


def test_evaluate_engine_needs_ks(small_world):
    engine, corpus, truth = small_world
    with pytest.raises(ConfigError):
        evaluate_engine(engine, corpus, truth, SearchConfig(), ks=[])


def test_brute_force_is_search_oracle(small_world):
    engine, corpus, _ = small_world
    cfg = SearchConfig(k=6, threshold=0.7)
    for table in corpus.tables[:3]:
        fast = top_k_search(engine, table, cfg)
        slow = brute_force_search(engine, table, cfg)
        assert [r.candidate_table_id for r in fast.ranked] == \
               [r.candidate_table_id for r in slow.ranked]


# ---------------------------------------------------------------- timing

def test_timing_harness_query_phases(small_world):
    engine, corpus, _ = small_world
    rows = timing_harness(engine, corpus.tables[:2], SearchConfig(threshold=0.7))
    assert [r[0] for r in rows] == ["query", "query_exhaustive"]
    for _, total, per in rows:
        assert total >= 0.0 and per >= 0.0


def test_timing_harness_empty_workload(small_world):
    engine, _, _ = small_world
    with pytest.raises(InputError):
        timing_harness(engine, [], SearchConfig())


# ---------------------------------------------------------------- files

def test_truth_roundtrip(tmp_path):
    truth = {"q1": {"a", "b"}, "q2": set(), "q3": {"c"}}
    p = tmp_path / "truth.csv"
    write_truth(p, truth)
    back = read_truth(p)
    assert back["q1"] == {"a", "b"}
    assert back["q3"] == {"c"}
    lines = p.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "query_table_id,answer_table_id"


def test_read_truth_short_row_names_file_and_line(tmp_path):
    p = tmp_path / "truth.csv"
    p.write_text("query_table_id,answer_table_id\nq1,a\nq2\n",
                 encoding="utf-8")
    with pytest.raises(InputError, match="truth.csv:3: expected 2 fields"):
        read_truth(p)


def test_metrics_file(tmp_path):
    mp = tmp_path / "metrics.csv"
    write_metrics(mp, [(5, 0.5, 0.25)])
    lines = mp.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "k,mean_precision,mean_recall"
    assert lines[1] == "5,0.500000000,0.250000000"
