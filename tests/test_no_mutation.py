"""No API changes what its caller hands it: training, indexing and search
leave their head, corpus, query table and configs as they found them."""

import copy

import numpy as np
import pytest

from unionsearch.bench import BenchmarkSpec, generate_benchmark
from unionsearch.contrast import OFFLINE, ONLINE, train
from unionsearch.encoder import Encoder, EncoderConfig
from unionsearch.projection import TrainConfig, init_head
from unionsearch.search import (IndexConfig, SearchConfig, build_engine,
                                top_k_search)
from unionsearch.syntactic import NAME, SEMANTIC, VALUE


@pytest.fixture(scope="module")
def lake():
    corpus, _ = generate_benchmark(BenchmarkSpec(
        n_bases=4, derivations_per_base=4, n_topics=2, base_columns=(3, 4),
        base_rows=16, seed=5))
    return corpus


def _head_state(head):
    return [t.copy() for t in head.tensors()], head.init_seed


def _assert_head_unchanged(head, state):
    tensors, init_seed = state
    assert head.init_seed == init_seed
    for now, before in zip(head.tensors(), tensors):
        assert now.dtype == before.dtype
        np.testing.assert_array_equal(now, before)


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
