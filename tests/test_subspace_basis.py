"""No basis, rank or stage of the cosine prefilter changes a result.

Stage 1 of ``CosineLshIndex.prefilter`` bounds cosines in the span of a
basis computed from the stored rows, and stage 2 tests the rows it passes
over the full dimension. Each stage keeps a superset of the pairs at the
threshold, so results must be byte-identical under the computed basis, a
random orthonormal one, a basis of full rank, and either stage alone. The
reference is a search whose prefilter keeps every pair.
"""

import hashlib

import numpy as np
import pytest

from unionsearch import lshindex
from unionsearch.bench import BenchmarkSpec, generate_benchmark
from unionsearch.encoder import Encoder, EncoderConfig
from unionsearch.lshindex import CosineLshIndex
from unionsearch.projection import init_head
from unionsearch.search import (IndexConfig, SearchConfig, SearchEngine,
                                build_engine, top_k_search, write_results)

SPEC = BenchmarkSpec(n_bases=40, derivations_per_base=6, n_topics=4,
                     base_columns=(3, 6), base_rows=20, seed=4)
# The eight settings of the frozen result digests.
SETTINGS = [(measures, exhaustive)
            for measures in ("semantic", "semantic,name,value",
                             "semantic,format", "semantic,name,value,format")
            for exhaustive in (False, True)]
PREFILTER = CosineLshIndex.prefilter
REFINED = CosineLshIndex._refined


@pytest.fixture(scope="module")
def lake():
    corpus, _ = generate_benchmark(SPEC)
    built = build_engine(corpus, Encoder(EncoderConfig(dim=64, hash_seed=4)),
                         init_head(64, 64, 64, seed=4), IndexConfig(seed=4))
    return built, corpus.tables[::9]


def _digests(lake, tmp_path) -> dict:
    """Each setting's result CSV digest, from an engine whose cosine index
    is filed afresh, so its sketch is built under the patches in force."""
    built, queries = lake
    engine = SearchEngine(built.encoder, built.head, built.index_config,
                          built.tfidf, built.keys,
                          built.semantic_index.vectors, built.postings)
    digests = {}
    for measures, exhaustive in SETTINGS:
        cfg = SearchConfig(k=10, threshold=0.7,
                           measures=tuple(measures.split(",")),
                           exhaustive=exhaustive)
        path = tmp_path / "results.csv"
        write_results(path, [top_k_search(engine, q, cfg) for q in queries])
        digests[measures, exhaustive] = \
            hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def reference(lake, tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CosineLshIndex, "prefilter",
                      lambda self, vectors, threshold:
                      np.arange(len(vectors) * self.size))
        return _digests(lake, tmp_path_factory.mktemp("reference"))


def _random_basis(self, k, blocks):
    rng = np.random.default_rng(self.size)
    return np.linalg.qr(rng.standard_normal((self.dim, k)))[0].T


VARIANTS = {
    "computed basis": {},
    "random orthonormal basis": {"_basis": _random_basis},
    "full rank": {"_SUBSPACE_RANK": 1 << 20},
    "stage 2 alone": {"_bounded": lambda self, unit, t:
                      np.ones((len(unit), self.size), dtype=bool)},
    "stage 1 alone": {"_refined": lambda self, stack, norms, rows, t:
                      np.ones((len(stack), len(rows)), dtype=bool)},
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_results_do_not_depend_on_the_basis_or_the_stages(
        lake, reference, tmp_path, monkeypatch, variant):
    calls = {"prefilter": 0}

    def checked(self, vectors, threshold):
        kept = PREFILTER(self, vectors, threshold)
        at = np.flatnonzero(self.scores(vectors) >= threshold)
        assert set(at.tolist()) <= set(kept.tolist())
        calls["prefilter"] += 1
        return kept

    monkeypatch.setattr(CosineLshIndex, "prefilter", checked)
    for name, value in VARIANTS[variant].items():
        owner = lshindex if name == "_SUBSPACE_RANK" else CosineLshIndex
        monkeypatch.setattr(owner, name, value)
    assert _digests(lake, tmp_path) == reference
    # Four banded settings, one prefilter per query table each.
    assert calls["prefilter"] == 4 * len(lake[1])


def test_the_computed_basis_passes_few_rows_to_stage_two(lake, monkeypatch):
    """The lake's rows have the low-rank shape the bound needs: stage 1
    passes a small share of the rows, and so stage 2 gathers few."""
    built, queries = lake
    index = built.semantic_index
    shares = []

    def spied(self, stack, norms, rows, t):
        shares.append(len(rows) / self.size)
        return REFINED(self, stack, norms, rows, t)

    monkeypatch.setattr(CosineLshIndex, "_refined", spied)
    for table in queries:
        qvecs = np.stack([built.project_column(c) for c in table.columns
                          if c.is_encodable()])
        index.prefilter(qvecs, 0.7)
    assert index.size >= index.dim
    assert np.median(shares) < 0.1
