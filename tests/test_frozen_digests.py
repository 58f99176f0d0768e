"""Frozen output digests on a small seeded lake.

Gate 9 checks that two runs agree with each other; these check that every
run agrees with the bytes the code wrote when they were pinned. A speedup
that must be byte-identical (a memo, a cache, a faster packing) fails here
if it changes a single bit of a model file, an index file or a result CSV.
If a change is meant to alter these bytes, it must say so and re-pin them.
The result CSVs are pinned twice: on the small lake, and on acceptance
gate 8's 10k lake, where banded and exhaustive results differ.
"""

import hashlib

import numpy as np
import pytest

from unionsearch.bench import BenchmarkSpec, generate_benchmark
from unionsearch.contrast import OFFLINE, ONLINE, train
from unionsearch.encoder import Encoder, EncoderConfig
from unionsearch.modelfile import ModelBundle, save_index, save_model
from unionsearch.projection import TrainConfig, init_head
from unionsearch.search import (IndexConfig, SearchConfig, build_engine,
                                top_k_search, write_results)
from unionsearch.seeding import rng_for

SPEC = BenchmarkSpec(n_bases=8, derivations_per_base=5, n_topics=3,
                     base_columns=(3, 5), base_rows=20, seed=4)

MODEL_DIGESTS = {
    ONLINE: "66b32c5aece872e6de666e9e64ff42294e5b92748129976e3761180bdd4e195a",
    OFFLINE: "02a0ad06b8f5087fe36eb4bd13b926a0b4524ec799600eee80a9322195623626",
}
# Float64 base embeddings: files hold float32 vectors and results nine
# decimals, so only this one sees a change in the last bit of a base sum.
EMBEDDING_DIGEST = \
    "4c9b1b84b455584218a30095b90b99c0a26fe2947f8f3e2eb3a855a86e132917"
INDEX_DIGEST = "6d9df4ff809d1f0f9e60ffb1506e03cc25b50e167e28fb56c02d3d27c4c3d45b"
# On a lake this small, banding loses no pair, so both modes write the
# same bytes, except with format: no index gathers format candidates, so
# only the exhaustive mode scores the pairs format alone lifts over the
# threshold.
RESULT_DIGESTS = {
    ("semantic", False):
        "029518a1f4b60776a9bd4e14d3249e663ccd1cad54a9b40169d78d4d2ec68cb6",
    ("semantic", True):
        "029518a1f4b60776a9bd4e14d3249e663ccd1cad54a9b40169d78d4d2ec68cb6",
    ("semantic,name,value", False):
        "ae23d44023349959a9d0010091f515abc44d3f4bd69a34cf8de8154f6a5c120d",
    ("semantic,name,value", True):
        "ae23d44023349959a9d0010091f515abc44d3f4bd69a34cf8de8154f6a5c120d",
    ("semantic,format", False):
        "dff10c090774d08175c799ee4edb6c5214e93ba0708aaf7f12c573e6a5f507f9",
    ("semantic,format", True):
        "8bec3760488196a7e282a91b365e35df6974fa6404f9ae0ea34721b2edbfeaeb",
    ("semantic,name,value,format", False):
        "18cb9094336cd14f7ac83f65c2b2254586bbd9e39965964585614901dac2d45d",
    ("semantic,name,value,format", True):
        "18cb9094336cd14f7ac83f65c2b2254586bbd9e39965964585614901dac2d45d",
}

# The same measure sets on acceptance gate 8's lake of 10,374 columns and
# its 25 picked query tables, at k = 10. Here banding does lose pairs: the
# untrained head's semantic lookup misses some that the exhaustive scan
# scores, and format pairs are gathered only exhaustively.
LAKE_10K_SPEC = BenchmarkSpec(n_bases=300, derivations_per_base=9,
                              n_topics=10, base_columns=(4, 6), base_rows=60,
                              seed=21)
RESULT_10K_DIGESTS = {
    ("semantic", False):
        "e8fb3fc2ad8ff5adcca5e33c4cbba360dd7782a649d832f83fc68add40f7cbc4",
    ("semantic", True):
        "5a2f777b4ffc920d55e2edf1ef9030091c8c2d4402df53e60df4f689ce889a75",
    ("semantic,name,value", False):
        "ba86363e19bec1277dde80dc14855aaf07fbbcf59a64d7be1f8d0df314e3aefb",
    ("semantic,name,value", True):
        "ba86363e19bec1277dde80dc14855aaf07fbbcf59a64d7be1f8d0df314e3aefb",
    ("semantic,format", False):
        "2c0e61b801ef11d7fab86dcdfbc55087c9354e5596adb90c952da5e59a348fa9",
    ("semantic,format", True):
        "144712a607a33aeca9d3effd0d669860cb2dbc99e579ceb840fe11d6f257670e",
    ("semantic,name,value,format", False):
        "555f80e807b8429cd675f8df21d88850ae5bb087233cea28c89ba77d38f60c38",
    ("semantic,name,value,format", True):
        "555f80e807b8429cd675f8df21d88850ae5bb087233cea28c89ba77d38f60c38",
}
# The 10k lake's index file, saved with the bundle perfbench's query
# workloads save (untrained head seed 9, a default TrainConfig): its size
# over the 10,374 columns is their index_bytes_per_col, so a format change
# that grows it fails here.
INDEX_10K_BYTES = 5_253_898
INDEX_10K_DIGEST = \
    "73e7bbed1e77275a87116db6008c6fc69e83efe10bd3a93f32d6b275fd96bd73"
MEASURE_SETS = ["semantic", "semantic,name,value", "semantic,format",
                "semantic,name,value,format"]


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def lake():
    corpus, _ = generate_benchmark(SPEC)
    return corpus


def test_base_embedding_digest(lake):
    encoder = Encoder(EncoderConfig(dim=32, hash_seed=7))
    matrix = np.stack([encoder.embed_column(c.values)
                       for c in lake.encodable_columns()])
    assert matrix.dtype == np.float64
    assert hashlib.sha256(matrix.tobytes()).hexdigest() == EMBEDDING_DIGEST


@pytest.mark.parametrize("strategy", [ONLINE, OFFLINE])
def test_one_epoch_model_file_digest(lake, tmp_path, strategy):
    encoder = Encoder(EncoderConfig(dim=32, hash_seed=7))
    head = init_head(32, 32, 16, seed=5)
    cfg = TrainConfig(epochs=1, batch_size=4, sample_size=8, seed=3)
    result = train(lake, encoder, head, cfg, strategy=strategy)
    path = tmp_path / "model.usm"
    save_model(path, ModelBundle(encoder_config=encoder.cfg, head=result.head,
                                 train_config=cfg, strategy=strategy,
                                 best_epoch=result.best_epoch,
                                 velocity=result.velocity))
    assert _sha256(path) == MODEL_DIGESTS[strategy]


@pytest.fixture(scope="module")
def engine_and_bundle(lake):
    encoder = Encoder(EncoderConfig(dim=32, hash_seed=7))
    head = init_head(32, 32, 16, seed=5)
    engine = build_engine(lake, encoder, head, IndexConfig(seed=9))
    return engine, ModelBundle(encoder_config=encoder.cfg, head=head,
                               train_config=TrainConfig(epochs=1),
                               strategy="none", best_epoch=0)


def test_index_file_digest(engine_and_bundle, tmp_path):
    engine, bundle = engine_and_bundle
    path = tmp_path / "index.usi"
    save_index(path, bundle, engine)
    assert _sha256(path) == INDEX_DIGEST


@pytest.mark.parametrize("measures", MEASURE_SETS)
@pytest.mark.parametrize("exhaustive", [False, True])
def test_result_csv_digest(lake, engine_and_bundle, tmp_path, measures,
                           exhaustive):
    engine, _ = engine_and_bundle
    cfg = SearchConfig(k=5, threshold=0.7,
                       measures=tuple(measures.split(",")),
                       exhaustive=exhaustive)
    queries = lake.tables[::6]
    path = tmp_path / "results.csv"
    write_results(path, [top_k_search(engine, q, cfg) for q in queries])
    assert _sha256(path) == RESULT_DIGESTS[(measures, exhaustive)]


@pytest.fixture(scope="module")
def engine_10k():
    corpus, _ = generate_benchmark(LAKE_10K_SPEC)
    engine = build_engine(corpus, Encoder(EncoderConfig(dim=128, hash_seed=9)),
                          init_head(128, 128, 128, seed=9), IndexConfig(seed=9))
    order = rng_for(77, "pick").permutation(len(corpus.tables))
    return engine, [corpus.tables[int(i)] for i in order[:25]]


def test_10k_index_file_digest(engine_10k, tmp_path):
    engine, _ = engine_10k
    path = tmp_path / "index.usi"
    save_index(path, ModelBundle(encoder_config=engine.encoder.cfg,
                                 head=engine.head, train_config=TrainConfig(),
                                 strategy=ONLINE, best_epoch=0), engine)
    assert path.stat().st_size == INDEX_10K_BYTES
    assert _sha256(path) == INDEX_10K_DIGEST


@pytest.mark.parametrize("measures", MEASURE_SETS)
@pytest.mark.parametrize("exhaustive", [False, True])
def test_10k_result_csv_digest(engine_10k, tmp_path, measures, exhaustive):
    engine, queries = engine_10k
    cfg = SearchConfig(k=10, threshold=0.7,
                       measures=tuple(measures.split(",")),
                       exhaustive=exhaustive)
    path = tmp_path / "results.csv"
    write_results(path, [top_k_search(engine, q, cfg) for q in queries])
    assert _sha256(path) == RESULT_10K_DIGESTS[(measures, exhaustive)]
