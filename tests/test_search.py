import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, replace
from operator import setitem
from pathlib import Path

import numpy as np
import pytest

from unionsearch.bench import BenchmarkSpec, brute_force_search, generate_benchmark
from unionsearch.contrast import ONLINE
from unionsearch.corpus import Column, ColumnKey, Table
from unionsearch.encoder import Encoder, EncoderConfig
from unionsearch.errors import ConfigError, InputError, NumericError
from unionsearch.modelfile import ModelBundle, load_index, save_index
from unionsearch.projection import ProjectionHead, TrainConfig, init_head
from unionsearch.search import (
    AttributeMatch,
    IndexConfig,
    QueryResult,
    RankedTable,
    SearchConfig,
    SearchEngine,
    attribute_unionability,
    build_engine,
    left_sum,
    match_attributes,
    table_unionability,
    top_k_search,
    write_results,
)
from unionsearch.syntactic import (FORMAT, NAME, SEMANTIC, SET_MEASURES,
                                   SetPostings, TfidfModel, VALUE,
                                   build_profile, jaccard)

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


def test_sums_fold_left_from_zero_on_every_python():
    # Builtin sum gives 1.0 here from Python 3.12 on, and
    # 0.9999999999999999 before; scores must not depend on the version.
    assert left_sum([0.1] * 10) == 0.9999999999999999
    assert left_sum(iter([0.1] * 10)) == 0.9999999999999999
    assert left_sum([]) == 0.0
    assert left_sum([0.5, 0.25]) == 0.75
    # Both of a table's sums fold the same way: ten weights of 0.1 add up
    # to 0.9999999999999999, not 1.0.
    ms = [_m(i, i, 0.3, 0.1) for i in range(10)]
    assert table_unionability(ms) == \
        left_sum([0.1 * 0.3] * 10) / 0.9999999999999999


# ---------------------------------------------------------------- config

def test_search_config_validation():
    SearchConfig()
    with pytest.raises(ConfigError):
        SearchConfig(k=0)
    with pytest.raises(ConfigError):
        SearchConfig(threshold=1.5)
    with pytest.raises(ConfigError):
        SearchConfig(measures=("name",))  # semantic is mandatory
    with pytest.raises(ConfigError):
        SearchConfig(measures=(SEMANTIC, "sonic"))
    with pytest.raises(ConfigError):
        SearchConfig(measures=(SEMANTIC, SEMANTIC))


@pytest.mark.parametrize("field,value", [
    ("k", 2.5), ("k", 3.0), ("k", True), ("k", "3"), ("k", None),
    ("threshold", "0.7"), ("threshold", True), ("threshold", None),
])
def test_search_config_rejects_wrongly_typed_k_and_threshold(field, value):
    with pytest.raises(ConfigError, match=field):
        SearchConfig(**{field: value})


@pytest.mark.parametrize("value", ["false", "true", 1, 0, None, np.bool_(True)])
def test_search_config_rejects_a_non_bool_exhaustive(value):
    # "false" is truthy: it used to validate and then run the oracle.
    with pytest.raises(ConfigError, match="exhaustive must be a bool"):
        SearchConfig(exhaustive=value)


def test_non_bool_exhaustive_fails_before_any_query_work():
    engine, corpus, _ = _bench_engine(2)
    with pytest.raises(ConfigError, match="exhaustive"):
        top_k_search(engine, corpus.tables[0], SearchConfig(exhaustive="false"))


@pytest.mark.parametrize("value", [SEMANTIC, "semantic,name"])
def test_search_config_names_a_bare_measures_string(value):
    # It used to fail with "unknown measures ['s', 'e', 'm', ...]".
    with pytest.raises(ConfigError, match=f"not the string {value!r}"):
        SearchConfig(measures=value)


def test_wrongly_typed_k_fails_before_any_query_work():
    # Before validation checked types, k=2.5 ran the whole query and then
    # failed slicing its ranking with a TypeError.
    engine, corpus, _ = _bench_engine(2)
    with pytest.raises(ConfigError, match="k"):
        top_k_search(engine, corpus.tables[0], SearchConfig(k=2.5))


def test_search_config_takes_numpy_numbers():
    SearchConfig(k=np.int64(3), threshold=np.float64(0.5))
    SearchConfig(k=4, threshold=1)


@pytest.mark.parametrize("cls, name, bad", [
    (SearchConfig, "k", 0),
    (IndexConfig, "seed", -1),
    (EncoderConfig, "dim", 4),
    (TrainConfig, "batch_size", 1),
    (BenchmarkSpec, "n_bases", 0),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_configs_are_frozen_and_checked_when_made(cls, name, bad):
    """A config that exists is valid and stays so: no field can be
    assigned, and a bad value is refused when made, by ``replace`` too."""
    cfg = cls()
    for f in fields(cfg):
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, f.name, getattr(cfg, f.name))
    with pytest.raises(ConfigError):
        cls(**{name: bad})
    with pytest.raises(ConfigError):
        replace(cfg, **{name: bad})
    assert cfg == cls()


# Every integer field of a config, and every seed check_seed checks.
INTEGER_FIELDS = {
    "k": lambda v: SearchConfig(k=v),
    "index-seed": lambda v: IndexConfig(seed=v),
    "dim": lambda v: EncoderConfig(dim=v),
    "hash-seed": lambda v: EncoderConfig(hash_seed=v),
    "epochs": lambda v: TrainConfig(epochs=v),
    "batch-size": lambda v: TrainConfig(batch_size=v),
    "sample-size": lambda v: TrainConfig(sample_size=v),
    "train-seed": lambda v: TrainConfig(seed=v),
    "head-seed": lambda v: init_head(8, 8, 8, seed=v),
}


@pytest.mark.parametrize("value", [True, 8.5, 8.0, "8", None])
@pytest.mark.parametrize("field", INTEGER_FIELDS)
def test_integer_fields_refuse_a_bool_or_a_non_integer(field, value):
    """Each would fail later with TypeError or struct.error, if at all."""
    with pytest.raises(ConfigError, match="must be an integer"):
        INTEGER_FIELDS[field](value)
    INTEGER_FIELDS[field](np.int64(8))


def test_ordered_measures_canonical():
    cfg = SearchConfig(measures=(VALUE, SEMANTIC, NAME))
    assert cfg.ordered_measures() == (SEMANTIC, NAME, VALUE)


# ---------------------------------------------------------------- ranking mechanics

class VectorEngine(SearchEngine):
    """Engine with hand-planted projected vectors; semantic measure only."""

    def __init__(self, dim: int, stored: dict[ColumnKey, np.ndarray],
                 queries: dict[ColumnKey, np.ndarray]):
        keys = sorted(stored)
        # The encoder and head only set the index dimension; queries
        # bypass them.
        super().__init__(encoder=Encoder(EncoderConfig(dim=8)),
                         head=init_head(8, dim, dim, seed=0),
                         index_config=IndexConfig(),
                         tfidf=TfidfModel(df={}, n_columns=len(keys)),
                         keys=keys,
                         vectors=np.array([stored[key] for key in keys],
                                          dtype=np.float32).reshape(-1, dim),
                         postings={})
        self._queries = {k: np.asarray(v, dtype=np.float32) for k, v in queries.items()}

    def project_column(self, column: Column) -> np.ndarray:
        return self._queries[column.column_key]


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


@pytest.mark.parametrize("exhaustive", [False, True])
def test_zero_norm_query_vector_raises(exhaustive):
    built, corpus, _ = _bench_engine(0)
    head = built.head
    # A head whose last layer is zero projects every query column to zeros.
    engine = SearchEngine(built.encoder,
                          ProjectionHead(head.W1, head.b1,
                                         np.zeros_like(head.W2),
                                         np.zeros_like(head.b2)),
                          built.index_config, built.tfidf, built.keys,
                          built.semantic_index.vectors, built.postings)
    cfg = SearchConfig(measures=(SEMANTIC, NAME, VALUE), exhaustive=exhaustive)
    with pytest.raises(NumericError, match="zero-norm"):
        top_k_search(engine, corpus.tables[0], cfg)


@pytest.mark.parametrize("make", [SearchEngine, SearchEngine._adopting],
                         ids=["constructor", "adopting"])
@pytest.mark.parametrize("edit", [
    lambda keys: [keys[1], keys[0], *keys[2:]],
    lambda keys: [keys[0], *keys[:-1]],
    lambda keys: [keys[0], keys[-1], *keys[1:-1]],
], ids=["swapped", "repeated", "last-first"])
def test_engine_refuses_keys_not_strictly_increasing(make, edit):
    """Row i belongs to keys[i], and a save stores keys sorted, so an
    engine of keys out of order would answer queries a load of it does not
    and save as another engine: keys (a, 0), (b, 5), (a, 1) would store as
    (a, 0), (a, 5), (b, 1)."""
    built, _, _ = _bench_engine(0)
    with pytest.raises(ConfigError, match="keys must be strictly increasing"):
        make(built.encoder, built.head, built.index_config, built.tfidf,
             edit(built.keys), built.semantic_index.vectors.copy(),
             built.postings)


@pytest.mark.parametrize("exhaustive", [False, True],
                         ids=["banded", "exhaustive"])
@pytest.mark.parametrize("part", ["grown-index", "postings", "tfidf",
                                  "tfidf-fewer"])
def test_search_refuses_parts_over_other_row_counts(exhaustive, part):
    """Pairs are named ``j * rows + row`` by the cosine index and by each
    postings block alike, so a part over another row count, such as a
    cosine index that grew after the engine was made, would pair every
    query column after the first with other rows' name and value parts,
    and a load, which counts one document per key, would answer as another
    engine. No such engine can be made: its constructors refuse the parts
    and its cosine index refuses an insert, and the engine answers as
    before."""
    built, corpus, _ = _bench_engine(0)
    table = next(t for t in corpus.tables if len(t.columns) == 5)
    cfg = SearchConfig(threshold=0.5, measures=(SEMANTIC, NAME, VALUE),
                       exhaustive=exhaustive)
    answer = top_k_search(built, table, cfg)
    n = len(built.keys)
    postings, tfidf = dict(built.postings), built.tfidf
    if part == "grown-index":
        with pytest.raises(ConfigError, match="takes no inserts"):
            built.semantic_index.insert(("zzz", 0),
                                        built.semantic_index.vectors[0])
    else:
        if part == "postings":
            postings[NAME] = SetPostings(built.postings[NAME].postings, n + 1)
        else:
            tfidf = TfidfModel(df=built.tfidf.df,
                               n_columns=n + (1 if part == "tfidf" else -1))
        for make in (SearchEngine, SearchEngine._adopting):
            with pytest.raises(ConfigError,
                               match="engine row counts disagree"):
                make(built.encoder, built.head, built.index_config, tfidf,
                     built.keys, built.semantic_index.vectors.copy(),
                     postings)
    assert top_k_search(built, table, cfg) == answer


def test_engine_refuses_an_encoder_of_another_dim():
    """A head that does not take the encoder's dim would fail the first
    query; either maker refuses it, and ``load_index`` refuses it as bad
    input (tests/test_cli.py)."""
    built, _, _ = _bench_engine(0)
    for make in (SearchEngine, SearchEngine._adopting):
        with pytest.raises(ConfigError, match="head takes 64-dim base "
                           "embeddings but the encoder makes 16"):
            make(Encoder(EncoderConfig(dim=16)), built.head,
                 built.index_config, built.tfidf, built.keys,
                 built.semantic_index.vectors.copy(), dict(built.postings))


def _some(rng, items):
    items = list(items)
    return items[rng.integers(len(items))]


def _write_into(rng, array):
    array.flat[rng.integers(array.size)] = rng.integers(1, 9)


# Each public route into a made engine's parts, and what refuses it.
MUTATIONS = {
    "insert": (ConfigError, lambda e, rng: e.semantic_index.insert(
        ("zzz", 0), rng.standard_normal(e.semantic_index.dim))),
    "insert-many": (ConfigError, lambda e, rng: e.semantic_index.insert_many(
        [("zzz", 0), ("zzz", 1)], rng.standard_normal((2, e.head.dims[2])))),
    "key-assign": (TypeError, lambda e, rng: setitem(
        e.keys, rng.integers(len(e.keys)), ("zzz", 0))),
    "key-append": (AttributeError, lambda e, rng: e.keys.append(("zzz", 0))),
    "postings-replace": (TypeError, lambda e, rng: setitem(
        e.postings, _some(rng, SET_MEASURES), SetPostings({}, len(e.keys)))),
    "list-replace": (TypeError, lambda e, rng: setitem(
        _some(rng, e.postings.values()).postings, "zzz", np.arange(1))),
    "list-write": (ValueError, lambda e, rng: _write_into(rng, _some(
        rng, _some(rng, e.postings.values()).postings.values()))),
    "sizes-write": (ValueError, lambda e, rng: _write_into(
        rng, _some(rng, e.postings.values()).sizes)),
    "df-write": (TypeError, lambda e, rng: setitem(
        e.tfidf.df, _some(rng, e.tfidf.df), rng.integers(1, 9))),
    "df-replace": (AttributeError, lambda e, rng: setattr(e.tfidf, "df", {})),
    "n-columns": (AttributeError, lambda e, rng: setattr(
        e.tfidf, "n_columns", len(e.keys) + 1)),
    "head-tensor": (ValueError, lambda e, rng: _write_into(
        rng, _some(rng, e.head.tensors()))),
    "index-seed": (AttributeError, lambda e, rng: setattr(
        e.index_config, "seed", int(rng.integers(1 << 32)))),
    "encoder-seed": (FrozenInstanceError, lambda e, rng: setattr(
        e.encoder.cfg, "hash_seed", int(rng.integers(1 << 32)))),
    "head-rebind": (FrozenInstanceError, lambda e, rng: setattr(
        e.head, "W1", e.head.W1[::-1].copy())),
}


def _bundle_of(engine):
    return ModelBundle(encoder_config=engine.encoder.cfg, head=engine.head,
                       train_config=TrainConfig(), strategy=ONLINE,
                       best_epoch=0)


def _answers_and_bytes(engine, corpus, tmp_path):
    """The result CSV of three tables and the bytes of a save."""
    cfg = SearchConfig(threshold=0.5, measures=(SEMANTIC, NAME, VALUE))
    write_results(tmp_path / "results.csv",
                  [top_k_search(engine, t, cfg) for t in corpus.tables[:3]])
    save_index(tmp_path / "engine.usi", _bundle_of(engine), engine)
    return ((tmp_path / "results.csv").read_bytes(),
            (tmp_path / "engine.usi").read_bytes())


@pytest.mark.parametrize("exhaustive", [False, True])
def test_loaded_engines_answer_alike_in_any_order(tmp_path, exhaustive):
    """A loaded engine hashes each query table's first-use tokens as it
    meets them, so its token memo fills in the order tables come. Every
    table's result CSV is the built engine's, tables asked forward or in
    reverse."""
    built, corpus, _ = _bench_engine(4)
    path = tmp_path / "engine.usi"
    save_index(path, _bundle_of(built), built)
    cfg = SearchConfig(threshold=0.5, measures=(SEMANTIC, NAME, VALUE),
                       exhaustive=exhaustive)

    def answers(engine, tables) -> list[bytes]:
        out = []
        for table in tables:
            write_results(tmp_path / "results.csv",
                          [top_k_search(engine, table, cfg)])
            out.append((tmp_path / "results.csv").read_bytes())
        return out

    want = answers(built, corpus.tables)
    assert sum(len(csv.splitlines()) > 1 for csv in want) > len(want) // 2
    forward, backward = load_index(path)[1], load_index(path)[1]
    assert answers(forward, corpus.tables) == want
    assert answers(backward, corpus.tables[::-1]) == want[::-1]


@pytest.fixture(scope="module")
def made_engines(tmp_path_factory):
    """An engine from each maker, with its answers and saved bytes."""
    built, corpus, _ = _bench_engine(3)
    path = tmp_path_factory.mktemp("made") / "engine.usi"
    save_index(path, _bundle_of(built), built)
    engines = {
        "constructor": SearchEngine(built.encoder, built.head,
                                    built.index_config, built.tfidf,
                                    built.keys, built.semantic_index.vectors,
                                    built.postings),
        "build-engine": built,
        "load-index": load_index(path)[1],
    }
    work = tmp_path_factory.mktemp("answers")
    return corpus, {origin: (engine, _answers_and_bytes(engine, corpus, work))
                    for origin, engine in engines.items()}


@pytest.mark.parametrize("route", MUTATIONS)
@pytest.mark.parametrize("origin", ["constructor", "build-engine",
                                    "load-index"])
def test_made_engine_refuses_every_mutation(made_engines, tmp_path, origin,
                                            route):
    """Whichever way an engine was made, each public route into its
    cosine index, keys, postings, document frequencies, head or index seed
    raises, at seeded rows, tokens and values, and leaves its answers and
    its saved bytes as they were."""
    corpus, engines = made_engines
    engine, before = engines[origin]
    error, mutate = MUTATIONS[route]
    for seed in range(3):
        with pytest.raises(error):
            mutate(engine, np.random.default_rng(seed))
    assert _answers_and_bytes(engine, corpus, tmp_path) == before


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


def test_set_postings_match_is_exact():
    engine, corpus, _ = _bench_engine(2)
    columns = {c.column_key: c for c in corpus.encodable_columns()}
    stored = [build_profile(columns[key], engine.tfidf)
              for key in engine.keys]
    n = len(stored)
    queries = corpus.encodable_columns()
    qsets = [engine.query_profile(column, SET_MEASURES) for column in queries]
    found = 0
    for measure in (NAME, VALUE, FORMAT):
        # Every query column's set in one call, as search asks for a table.
        ids, scores = engine.postings[measure].match(
            [q[measure] for q in qsets])
        want = [(j * n + row, jaccard(q[measure], s[measure]))
                for j, q in enumerate(qsets) for row, s in enumerate(stored)
                if q[measure] & s[measure]]
        assert list(zip(ids.tolist(), scores.tolist())) == want
        for t in (0.3, 0.5, 0.7):
            # The candidates search takes from a measure's postings.
            at = ids[scores >= t].tolist()
            assert at == [i for i, score in want if score >= t]
            found += len(at)
    # More than each column finding itself under 3 measures at 3 thresholds.
    assert found > 9 * len(engine.keys)


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


# ---------------------------------------------------------------- imports

# A banded query on a fresh engine, in a fresh interpreter: prints whether
# numpy's masked-array package was loaded before and after it.
MASKED_IMPORT_CHILD = """
import sys
from unionsearch.bench import BenchmarkSpec, generate_benchmark
from unionsearch.encoder import Encoder, EncoderConfig
from unionsearch.projection import init_head
from unionsearch.search import SearchConfig, build_engine, top_k_search
corpus, _ = generate_benchmark(BenchmarkSpec(
    n_bases=5, derivations_per_base=4, n_topics=2, base_columns=(3, 5),
    base_rows=15, seed=4))
engine = build_engine(corpus, Encoder(EncoderConfig(dim=16, hash_seed=4)),
                      init_head(16, 16, 16, seed=4))
before = "numpy.ma" in sys.modules
result = top_k_search(engine, corpus.tables[0],
                      SearchConfig(measures=("semantic", "name", "value")))
print(before, "numpy.ma" in sys.modules, len(result.ranked))
"""


def test_a_banded_query_does_not_import_masked_arrays():
    """np.union1d imports numpy.ma, about 32 ms, on a process's first
    banded query; the query unions its pair ids without it."""
    src = Path(__file__).resolve().parent.parent / "src"
    path = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    done = subprocess.run([sys.executable, "-c", MASKED_IMPORT_CHILD],
                          env={**os.environ,
                               "PYTHONPATH": os.pathsep.join(path)},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    before, after, ranked = done.stdout.split()
    assert (before, after) == ("False", "False") and int(ranked) > 0
