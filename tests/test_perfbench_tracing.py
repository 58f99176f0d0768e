"""The benchmark's tracer still fits the library: ``perfbench/run.py
--trace 1`` patches the names below by attribute, so a renamed or removed
one would only show up in a traced run. Its patches install, leave the
results alone and put every original back."""

import importlib.util
from pathlib import Path

import pytest

from unionsearch.bench import BenchmarkSpec, generate_benchmark
from unionsearch.encoder import Encoder, EncoderConfig
from unionsearch.projection import init_head
from unionsearch import search
from unionsearch.search import IndexConfig, SearchConfig, build_engine
from unionsearch.syntactic import NAME, SEMANTIC, VALUE

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def lake():
    corpus, _ = generate_benchmark(BenchmarkSpec(
        n_bases=4, derivations_per_base=4, n_topics=2, base_columns=(3, 4),
        base_rows=16, seed=6))
    engine = build_engine(corpus, Encoder(EncoderConfig(dim=32, hash_seed=2)),
                          init_head(32, 32, 16, seed=2), IndexConfig(seed=3))
    return corpus, engine


def _current(owner, attr):
    return owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]


def test_patches_trace_search_and_restore_every_original(tracing, lake):
    corpus, engine = lake
    configs = [SearchConfig(threshold=0.5, measures=(SEMANTIC, NAME, VALUE)),
               SearchConfig(threshold=0.5, exhaustive=True)]
    tables = corpus.tables[::4]
    want = [[search.top_k_search(engine, t, cfg) for t in tables]
            for cfg in configs]
    tracer = tracing.Tracer()
    with tracing.Patches(tracer) as patches:
        saved = list(patches._saved)
        assert all(_current(owner, attr) is not original
                   for owner, attr, original in saved)
        got = [[search.top_k_search(engine, t, cfg) for t in tables]
               for cfg in configs]
    assert saved and all(_current(owner, attr) is original
                         for owner, attr, original in saved)
    assert got == want
    assert any(r.ranked for results in want for r in results)
    totals = tracer.layer_totals()
    assert totals["search.top_k_search"]["calls"] == 2 * len(tables)
    tracing.per_layer(tracer, 2 * len(tables))
