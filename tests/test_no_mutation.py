"""No API changes what its caller hands it: training, indexing, search,
persistence, lake generation and evaluation leave their head, corpus, query
table, engine, bundle, truth and configs as they found them."""

import copy
from dataclasses import replace

import numpy as np
import pytest

from unionsearch.bench import BenchmarkSpec, evaluate_engine, generate_benchmark
from unionsearch.contrast import OFFLINE, ONLINE, train
from unionsearch.encoder import Encoder, EncoderConfig
from unionsearch.lshindex import CosineLshIndex
from unionsearch.modelfile import ModelBundle, load_index, save_index
from unionsearch.projection import (HeadGradients, TrainConfig, Velocity,
                                    init_head, sgd_step)
from unionsearch.search import (IndexConfig, SearchConfig, SearchEngine,
                                build_engine, top_k_search, write_results)
from unionsearch.syntactic import (NAME, SEMANTIC, VALUE, SetPostings,
                                   TfidfModel)

LAKE_SPEC = BenchmarkSpec(n_bases=4, derivations_per_base=4, n_topics=2,
                          base_columns=(3, 4), base_rows=16, seed=5)


@pytest.fixture(scope="module")
def lake():
    corpus, _ = generate_benchmark(LAKE_SPEC)
    return corpus


@pytest.fixture(scope="module")
def engine(lake):
    return build_engine(lake, Encoder(EncoderConfig(dim=32, hash_seed=1)),
                        init_head(32, 32, 16, seed=3), IndexConfig(seed=4))


def _head_state(head):
    return [t.copy() for t in head.tensors()], head.init_seed


def _assert_head_unchanged(head, state):
    tensors, init_seed = state
    assert head.init_seed == init_seed
    for now, before in zip(head.tensors(), tensors):
        assert now.dtype == before.dtype
        np.testing.assert_array_equal(now, before)


@pytest.mark.parametrize("values", [["apple pie", "--", "apple pie", "x"],
                                    ["apple pie"]])
def test_embed_column_returns_an_array_the_caller_owns(values):
    encoder = Encoder(EncoderConfig(dim=16, hash_seed=2))
    first = encoder.embed_column(values)
    before = first.copy()
    first += 1.0   # the caller's to change: the next embedding is untouched
    np.testing.assert_array_equal(encoder.embed_column(values), before)


@pytest.mark.parametrize("strategy", [ONLINE, OFFLINE])
def test_train_leaves_head_config_and_corpus_alone(lake, strategy):
    head = init_head(32, 32, 16, seed=3)
    cfg = TrainConfig(epochs=2, batch_size=4, sample_size=6, seed=7,
                      offline_floor=0.3)
    state, cfg_before, lake_before = (_head_state(head), copy.deepcopy(cfg),
                                      copy.deepcopy(lake))
    result = train(lake, Encoder(EncoderConfig(dim=32, hash_seed=1)), head,
                   cfg, strategy=strategy)
    _assert_head_unchanged(head, state)
    assert cfg == cfg_before
    assert lake == lake_before
    # The training did move the returned head away from its start.
    assert any(not np.array_equal(a, b)
               for a, b in zip(result.head.tensors(), state[0]))
    assert result.head is not head


@pytest.mark.parametrize("exhaustive", [False, True])
def test_build_and_search_leave_their_inputs_alone(lake, exhaustive):
    head = init_head(32, 32, 16, seed=3)
    icfg = IndexConfig(seed=4)
    cfg = SearchConfig(k=3, threshold=0.5, measures=(SEMANTIC, NAME, VALUE),
                       exhaustive=exhaustive)
    query = lake.tables[0]
    state = _head_state(head)
    before = copy.deepcopy((lake, icfg, cfg, query))
    engine = build_engine(lake, Encoder(EncoderConfig(dim=32, hash_seed=1)),
                          head, icfg)
    result = top_k_search(engine, query, cfg)
    assert result.ranked    # the query did find something
    _assert_head_unchanged(head, state)
    assert (lake, icfg, cfg, query) == before


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batched_build_and_filing_leave_corpus_config_and_matrix_alone(
        lake, dtype):
    encoder_config = EncoderConfig(dim=32, hash_seed=1)
    encoder = Encoder(encoder_config)
    before = copy.deepcopy((lake, encoder_config, encoder.cfg))
    values = [list(c.values) for c in lake.columns()]
    built = build_engine(lake, encoder, init_head(32, 32, 16, seed=3),
                         IndexConfig(seed=4))
    assert (lake, encoder_config, encoder.cfg) == before
    # The very cell objects, not only equal ones.
    assert all(a is b for c, vs in zip(lake.columns(), values)
               for a, b in zip(c.values, vs))
    state = _engine_state(built)
    matrix = built.semantic_index.vectors.astype(dtype)
    matrix_before = matrix.copy()
    engine = SearchEngine(built.encoder, built.head, built.index_config,
                          built.tfidf, built.keys, matrix, built.postings)
    np.testing.assert_array_equal(matrix, matrix_before)
    assert matrix.flags.writeable
    _assert_engine_unchanged(engine, state)
    # The caller's to change: the engine keeps its own rows.
    assert not np.shares_memory(engine.semantic_index.vectors, matrix)
    matrix[:] = 0.0
    _assert_engine_unchanged(engine, state)
    # An engine's index takes no inserts, so a fresh one of its kind does.
    index = CosineLshIndex(dim=matrix.shape[1], seed=4)
    index.insert_many(built.keys, matrix_before)
    stack = matrix_before[:5] + 1.0
    stack_before = stack.copy()
    index.insert_many([("new", i) for i in range(5)], stack)
    np.testing.assert_array_equal(stack, stack_before)
    assert not np.shares_memory(index.vectors, stack)


def _writeable_parts(engine):
    """A head, postings and document frequencies equal to the engine's,
    of the caller's own: writeable arrays and a dict."""
    postings = {m: SetPostings({tok: rows.copy()
                                for tok, rows in p.postings.items()},
                               len(p.sizes))
                for m, p in engine.postings.items()}
    return engine.head.copy(), postings, dict(engine.tfidf.df)


def _arrays(head, postings):
    """Every tensor of head, and every list and ``sizes`` of postings."""
    return [*head.tensors(), *(a for p in postings.values()
                               for a in (p.sizes, *p.postings.values()))]


def test_constructor_copies_and_adopting_freezes_in_place(engine):
    """The constructor leaves its caller's head tensors, postings arrays
    and df dict writeable and as they were, and holds read-only copies.
    Only ``_adopting`` freezes what it is handed in place, with no copy;
    it too copies the head, the one part a build shares with its
    caller."""
    head, postings, df = _writeable_parts(engine)
    tfidf = TfidfModel(df, engine.tfidf.n_columns)
    arrays = _arrays(head, postings)
    before = [a.copy() for a in arrays], dict(df)
    made = SearchEngine(engine.encoder, head, engine.index_config, tfidf,
                        engine.keys, engine.semantic_index.vectors, postings)
    assert all(a.flags.writeable for a in arrays)
    for now, was in zip(arrays, before[0]):
        np.testing.assert_array_equal(now, was)
    assert df == before[1]
    df["zzz"] = 1   # the caller's to change, not the engine's
    assert "zzz" not in made.tfidf.df
    del df["zzz"]
    assert _postings_state(made) == _postings_state(engine)
    for own in _arrays(made.head, made.postings):
        assert not own.flags.writeable
        assert not any(np.shares_memory(own, a) for a in arrays)

    matrix = engine.semantic_index.vectors.copy()
    adopted = SearchEngine._adopting(engine.encoder, head,
                                     engine.index_config, tfidf, engine.keys,
                                     matrix, postings)
    assert adopted.tfidf is tfidf
    assert all(adopted.postings[m] is p for m, p in postings.items())
    assert not any(a.flags.writeable for a in _arrays(adopted.head, postings))
    assert np.shares_memory(adopted.semantic_index.vectors, matrix)
    assert not matrix.flags.writeable
    assert all(t.flags.writeable for t in head.tensors())
    assert not any(np.shares_memory(a, b) for a, b
                   in zip(head.tensors(), adopted.head.tensors()))


@pytest.mark.parametrize("make", ["build-engine", "constructor"])
def test_edits_to_the_callers_head_stay_out_of_the_engine(lake, engine,
                                                          tmp_path, make):
    """A training step on the head an engine was made from changes neither
    the engine's answers nor what a save of ``engine.head`` loads to; a
    bundle of the edited head is not the engine's, so it does not save."""
    head = init_head(32, 32, 16, seed=3)
    if make == "build-engine":
        made = build_engine(lake, engine.encoder, head, IndexConfig(seed=4))
    else:
        made = SearchEngine(engine.encoder, head, engine.index_config,
                            engine.tfidf, engine.keys,
                            engine.semantic_index.vectors, engine.postings)
    cfg = SearchConfig(k=3, threshold=0.5, measures=(SEMANTIC, NAME, VALUE))

    def answers(eng):
        write_results(tmp_path / "results.csv",
                      [top_k_search(eng, t, cfg) for t in lake.tables[:3]])
        return (tmp_path / "results.csv").read_bytes()

    before = answers(made)
    grads = HeadGradients(*(np.full(t.shape, 0.5) for t in head.tensors()))
    sgd_step(head, grads, 0.1, 0.9, Velocity.zeros_like(head))
    assert answers(made) == before

    def bundle(h):
        return ModelBundle(encoder_config=EncoderConfig(dim=32, hash_seed=1),
                           head=h, train_config=TrainConfig(),
                           strategy=ONLINE, best_epoch=0)

    path = tmp_path / "made.usi"
    save_index(path, bundle(made.head), made)
    assert answers(load_index(path)[1]) == before
    path.unlink()
    with pytest.raises(ValueError, match="not the engine's"):
        save_index(path, bundle(head), made)
    assert not path.exists()


def _postings_state(engine):
    """Each set measure's token -> rows lists and set sizes, as lists."""
    return {measure: ({tok: rows.tolist()
                       for tok, rows in postings.postings.items()},
                      postings.sizes.tolist())
            for measure, postings in engine.postings.items()}


def _engine_state(engine):
    index = engine.semantic_index
    return (tuple(engine.keys), _postings_state(engine),
            index.vectors.copy(), copy.deepcopy(index.buckets))


def _assert_engine_unchanged(engine, state):
    keys, postings, matrix, buckets = state
    assert engine.keys == keys
    assert _postings_state(engine) == postings
    np.testing.assert_array_equal(engine.semantic_index.vectors, matrix)
    assert engine.semantic_index.buckets == buckets


def test_lookup_leaves_query_and_index_alone(engine):
    index = engine.semantic_index
    # float32, as search projects it: preparing it must not alias it.
    query = np.random.default_rng(8).standard_normal(index.dim, np.float32)
    query_before = query.copy()
    state = _engine_state(engine)
    norms = index._norms[:index.size].copy()
    hits = index.lookup(query, threshold=-1.0)
    assert hits   # some rows collided
    every = np.arange(index.size)
    scores, shared = (index.scores(query[None]),
                        index.band_hits(query[None], every))
    scores_before, shared_before = scores.copy(), shared.copy()
    # The caller's to change.
    scores[:] = 2.0
    shared[:] = -1
    every[:] = 0
    np.testing.assert_array_equal(query, query_before)
    _assert_engine_unchanged(engine, state)
    np.testing.assert_array_equal(index._norms[:index.size], norms)
    np.testing.assert_array_equal(index.scores(query[None]), scores_before)
    np.testing.assert_array_equal(
        index.band_hits(query[None], np.arange(index.size)), shared_before)
    assert index.lookup(query, threshold=-1.0) == hits


def _index_arrays(index):
    n = index.size
    return [a[:n].copy() for a in (index._rows, index._norms, index._packed)]


def test_scoring_a_stack_leaves_vectors_and_index_alone(engine):
    index = engine.semantic_index
    stack = np.random.default_rng(9).standard_normal((4, index.dim),
                                                     np.float32)
    stack_before = stack.copy()
    arrays = _index_arrays(index)
    state = _engine_state(engine)
    ids = np.arange(len(stack) * index.size)
    ids_before = ids.copy()

    def outputs():
        return [index.scores(stack), index.prefilter(stack, 0.0),
                index.pair_scores(stack, ids), index.band_hits(stack, ids),
                *index.banded(stack, 0.0, ids[::3])]

    got = outputs()
    outputs_before = [a.copy() for a in got]
    np.testing.assert_array_equal(ids, ids_before)
    # The caller's to change.
    for out in got:
        out[:] = 0
    np.testing.assert_array_equal(stack, stack_before)
    for now, before in zip(_index_arrays(index), arrays):
        np.testing.assert_array_equal(now, before)
    _assert_engine_unchanged(engine, state)
    for now, before in zip(outputs(), outputs_before):
        np.testing.assert_array_equal(now, before)


def test_set_match_leaves_query_sets_and_postings_alone(lake, engine):
    columns = [c for t in lake.tables[:3] for c in t.columns
               if c.is_encodable()]
    state = _engine_state(engine)
    for measure, postings in engine.postings.items():
        sets = [engine.query_profile(c, [measure])[measure] for c in columns]
        sets_before = list(sets)
        got = postings.match(sets)
        outputs_before = [a.copy() for a in got]
        assert len(got[0]) > 0   # some set shared a token with some row
        # The caller's to change.
        for out in got:
            out[:] = 0
        assert sets == sets_before
        _assert_engine_unchanged(engine, state)
        for now, before in zip(postings.match(sets), outputs_before):
            np.testing.assert_array_equal(now, before)


def test_writing_into_buckets_leaves_the_index_alone(engine):
    index = engine.semantic_index
    query = np.random.default_rng(10).standard_normal(index.dim, np.float32)
    arrays = _index_arrays(index)
    state = _engine_state(engine)
    hits = index.lookup(query, threshold=0.0)
    buckets = index.buckets
    for band in buckets:
        for rows in band.values():
            rows[0] = index.size   # no such row
            rows.append(0)
        band.clear()
    buckets.clear()
    for now, before in zip(_index_arrays(index), arrays):
        np.testing.assert_array_equal(now, before)
    _assert_engine_unchanged(engine, state)
    assert index.lookup(query, threshold=0.0) == hits


def test_save_and_load_leave_bundle_and_engine_alone(engine, tmp_path):
    velocity = Velocity.zeros_like(engine.head)
    for t in velocity.tensors():
        t += 0.25
    bundle = ModelBundle(encoder_config=EncoderConfig(dim=32, hash_seed=1),
                         head=engine.head, train_config=TrainConfig(seed=7),
                         strategy=ONLINE, best_epoch=2, velocity=velocity)
    configs = copy.deepcopy((bundle.encoder_config, bundle.train_config,
                             bundle.strategy, bundle.best_epoch))
    head_state = _head_state(bundle.head)
    velocity_state = [t.copy() for t in velocity.tensors()]
    engine_state = _engine_state(engine)
    path = tmp_path / "lake.usi"
    save_index(path, bundle, engine)
    _, loaded = load_index(path)
    assert (bundle.encoder_config, bundle.train_config, bundle.strategy,
            bundle.best_epoch) == configs
    _assert_head_unchanged(bundle.head, head_state)
    for now, before in zip(bundle.velocity.tensors(), velocity_state):
        np.testing.assert_array_equal(now, before)
    _assert_engine_unchanged(engine, engine_state)
    _assert_engine_unchanged(loaded, engine_state)   # a load rebuilds it all


@pytest.mark.parametrize("include_bases", [False, True])
def test_generate_benchmark_leaves_its_spec_alone(include_bases):
    spec = replace(LAKE_SPEC, include_bases=include_bases)
    before = copy.deepcopy(spec)
    generate_benchmark(spec)
    assert spec == before


def test_evaluate_engine_leaves_its_inputs_alone(lake, engine):
    _, truth = generate_benchmark(LAKE_SPEC)
    cfg = SearchConfig(k=3, threshold=0.5, measures=(SEMANTIC, NAME, VALUE))
    query_ids = [t.table_id for t in reversed(lake.tables[:6])]
    engine_state = _engine_state(engine)
    before = copy.deepcopy((lake, truth, cfg, query_ids))
    rows = evaluate_engine(engine, lake, truth, cfg, [1, 3], query_ids)
    assert [k for k, _, _ in rows] == [1, 3]
    assert (lake, truth, cfg, query_ids) == before
    _assert_engine_unchanged(engine, engine_state)
