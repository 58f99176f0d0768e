import copy
import hashlib
import os
import struct
from dataclasses import fields, replace

import numpy as np
import pytest

from unionsearch.bench import BenchmarkSpec, generate_benchmark
from unionsearch.contrast import ONLINE
from unionsearch.corpus import Corpus
from unionsearch.encoder import Encoder, EncoderConfig
from unionsearch.errors import InputError
from unionsearch.modelfile import (
    CHECKSUM_BYTES,
    ModelBundle,
    atomic_write,
    load_index,
    load_model,
    save_index,
    save_model,
)
from unionsearch.projection import TrainConfig, Velocity, init_head
from unionsearch.search import IndexConfig, SearchConfig, build_engine, top_k_search


def _bundle(with_velocity: bool = True) -> ModelBundle:
    head = init_head(32, 24, 16, seed=9)
    vel = None
    if with_velocity:
        vel = Velocity.zeros_like(head)
        for t in vel.tensors():
            t += 0.125
    return ModelBundle(
        encoder_config=EncoderConfig(backend="hashing", dim=32, hash_seed=77),
        head=head,
        train_config=TrainConfig(temperature=0.15, learning_rate=5e-4, epochs=7, seed=3),
        strategy=ONLINE,
        best_epoch=4,
        velocity=vel,
    )


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    spec = BenchmarkSpec(n_bases=3, derivations_per_base=3, n_topics=2,
                         base_columns=(3, 4), base_rows=16, seed=2)
    corpus, _ = generate_benchmark(spec)
    enc = Encoder(EncoderConfig(dim=32, hash_seed=77))
    head = init_head(32, 24, 16, seed=9)
    engine = build_engine(corpus, enc, head, IndexConfig(seed=5))
    return corpus, engine


# ---------------------------------------------------------------- model files

def test_model_roundtrip_bit_exact(tmp_path):
    bundle = _bundle()
    p = tmp_path / "model.usm"
    save_model(p, bundle)
    back = load_model(p)
    assert back.encoder_config == bundle.encoder_config
    assert back.train_config == bundle.train_config
    assert back.strategy == ONLINE
    assert back.best_epoch == 4
    assert back.tokenizer_id == bundle.tokenizer_id
    for a, b in zip(back.head.tensors(), bundle.head.tensors()):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    for a, b in zip(back.velocity.tensors(), bundle.velocity.tensors()):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("kind", ["model", "index"])
def test_other_tokenizer_rejected(tmp_path, world, kind):
    corpus, engine = world
    other = replace(_bundle(), tokenizer_id="some-other-tokenizer-v9")
    p = tmp_path / f"other.{kind}"
    if kind == "model":
        save_model(p, other)
        load = load_model
    else:
        save_index(p, other, engine)
        load = load_index
    with pytest.raises(InputError, match="some-other-tokenizer-v9"):
        load(p)


def test_model_roundtrip_without_velocity(tmp_path):
    p = tmp_path / "model.usm"
    save_model(p, _bundle(with_velocity=False))
    assert load_model(p).velocity is None


def test_model_save_byte_stable(tmp_path):
    p1, p2 = tmp_path / "a.usm", tmp_path / "b.usm"
    save_model(p1, _bundle())
    save_model(p2, _bundle())
    assert p1.read_bytes() == p2.read_bytes()


def test_model_file_magic_checked(tmp_path):
    p = tmp_path / "junk.usm"
    p.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(InputError):
        load_model(p)


def test_model_file_truncation_detected(tmp_path):
    p = tmp_path / "model.usm"
    save_model(p, _bundle())
    data = p.read_bytes()
    for cut in (len(data) // 3, len(data) - 1):
        (tmp_path / "cut.usm").write_bytes(data[:cut])
        with pytest.raises(InputError):
            load_model(tmp_path / "cut.usm")


def test_model_file_trailing_garbage_detected(tmp_path):
    p = tmp_path / "model.usm"
    save_model(p, _bundle())
    p.write_bytes(p.read_bytes() + b"x")
    with pytest.raises(InputError):
        load_model(p)


def test_model_missing_file(tmp_path):
    with pytest.raises(InputError):
        load_model(tmp_path / "absent.usm")


def test_kind_byte_distinguishes_model_from_index(tmp_path, world):
    corpus, engine = world
    ip = tmp_path / "x.usi"
    save_index(ip, _bundle(), engine)
    with pytest.raises(InputError):
        load_model(ip)  # an index is not a model
    mp = tmp_path / "x.usm"
    save_model(mp, _bundle())
    with pytest.raises(InputError):
        load_index(mp)


# ---------------------------------------------------------------- index files

def test_index_roundtrip_preserves_queries(tmp_path, world):
    corpus, engine = world
    p = tmp_path / "engine.usi"
    save_index(p, _bundle(), engine)
    bundle, loaded = load_index(p)
    assert bundle.best_epoch == 4
    cfg = SearchConfig(k=6, threshold=0.7, measures=("semantic", "name", "value"))
    for table in corpus.tables[:4]:
        before = top_k_search(engine, table, cfg)
        after = top_k_search(loaded, table, cfg)
        assert [r.candidate_table_id for r in before.ranked] == \
               [r.candidate_table_id for r in after.ranked]
        for a, b in zip(before.ranked, after.ranked):
            assert a.table_score == b.table_score  # same floats, not just close
            assert [(m.query_position, m.candidate_position, m.score, m.weight)
                    for m in a.matches] == \
                   [(m.query_position, m.candidate_position, m.score, m.weight)
                    for m in b.matches]


def test_index_roundtrip_preserves_structures(tmp_path, world):
    corpus, engine = world
    p = tmp_path / "engine.usi"
    save_index(p, _bundle(), engine)
    _, loaded = load_index(p)
    assert loaded.keys == engine.keys
    for key in engine.keys:
        vec = engine.semantic_index.vector(key)
        np.testing.assert_array_equal(vec.astype(np.float32), vec)
        assert not vec.flags.writeable
        assert np.shares_memory(engine.semantic_index.vector(key), vec)
        np.testing.assert_array_equal(loaded.semantic_index.vector(key), vec)
    assert loaded.profiles == engine.profiles
    assert loaded.tfidf.df == engine.tfidf.df
    assert loaded.tfidf.n_columns == engine.tfidf.n_columns
    assert loaded.name_index.token_sets == engine.name_index.token_sets
    assert loaded.value_index.token_sets == engine.value_index.token_sets
    assert loaded.index_config == engine.index_config
    # The file stores no LSH state; loading must rebuild the same one.
    np.testing.assert_array_equal(loaded.semantic_index.planes,
                                  engine.semantic_index.planes)
    for attr in ("name_index", "value_index"):
        built, back = getattr(engine, attr), getattr(loaded, attr)
        np.testing.assert_array_equal(back.coef_a, built.coef_a)
        np.testing.assert_array_equal(back.coef_b, built.coef_b)
    for attr in ("semantic_index", "name_index", "value_index"):
        assert getattr(loaded, attr).buckets == getattr(engine, attr).buckets


def test_built_and_loaded_cosine_lookups_identical(tmp_path, world):
    corpus, engine = world
    # The constructor files columns in key order, so neither the corpus
    # order nor a save and load changes a row number or a bucket.
    reversed_corpus = Corpus(list(reversed(corpus.tables)))
    built = build_engine(reversed_corpus, engine.encoder, engine.head,
                         engine.index_config)
    engines = [engine, built]
    for i, eng in enumerate([engine, built]):
        p = tmp_path / f"engine{i}.usi"
        save_index(p, _bundle(), eng)
        engines.append(load_index(p)[1])
    for eng in engines:
        assert eng.keys == sorted(eng.profiles)
        sem = eng.semantic_index
        assert [sem.key_of(r) for r in range(sem.size)] == engine.keys
        for attr in ("semantic_index", "name_index", "value_index"):
            assert getattr(eng, attr).buckets == getattr(engine, attr).buckets
    for column in corpus.encodable_columns():
        q = engine.project_column(column)
        for threshold in (-1.0, 0.7):
            hits = engine.semantic_index.lookup(q, threshold)
            for eng in engines[1:]:
                assert eng.semantic_index.lookup(q, threshold) == hits


def test_index_save_byte_stable(tmp_path, world):
    corpus, engine = world
    p1, p2 = tmp_path / "a.usi", tmp_path / "b.usi"
    save_index(p1, _bundle(), engine)
    save_index(p2, _bundle(), engine)
    assert p1.read_bytes() == p2.read_bytes()


def test_index_resave_of_loaded_index_byte_identical(tmp_path, world):
    corpus, engine = world
    p1, p2 = tmp_path / "a.usi", tmp_path / "b.usi"
    save_index(p1, _bundle(), engine)
    bundle, loaded = load_index(p1)
    save_index(p2, bundle, loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_loaded_token_indexes_share_profile_sets(tmp_path, world):
    corpus, engine = world
    p = tmp_path / "engine.usi"
    save_index(p, _bundle(), engine)
    for eng in (engine, load_index(p)[1]):
        assert eng.name_index.size > 0 and eng.value_index.size > 0
        for key, tokens in eng.name_index.token_sets.items():
            assert tokens is eng.profiles[key].name_grams
        for key, tokens in eng.value_index.token_sets.items():
            assert tokens is eng.profiles[key].value_term_set


def test_failed_write_keeps_old_target(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("old\n")

    def half_then_fail(path: str) -> None:
        with open(path, "w") as fh:
            fh.write("new, partial")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        atomic_write(target, half_then_fail)
    assert target.read_text() == "old\n"
    assert sorted(os.listdir(tmp_path)) == ["out.csv"]  # no *.tmp left


def test_failed_save_leaves_no_partial_file(tmp_path, world):
    corpus, engine = world
    target = tmp_path / "out.usi"
    bad = _bundle()
    bad.strategy = 123  # text writer will reject a non-string
    with pytest.raises(Exception):
        save_index(target, bad, engine)
    assert not target.exists()
    assert os.listdir(tmp_path) == []  # no orphaned temp files either


# ---------------------------------------------------------------- corruption

@pytest.mark.parametrize("kind", ["model", "index"])
def test_flipped_or_truncated_file_raises_input_error(tmp_path, world, kind):
    corpus, engine = world
    p = tmp_path / f"good.{kind}"
    if kind == "model":
        save_model(p, _bundle())
        load = load_model
    else:
        save_index(p, _bundle(), engine)
        load = load_index
    data = p.read_bytes()
    rng = np.random.default_rng(31)
    bad = tmp_path / "bad"
    cases = []
    for pos, mask in zip(rng.integers(0, len(data), size=200),
                         rng.integers(1, 256, size=200)):
        flipped = bytearray(data)
        flipped[pos] ^= int(mask)
        cases.append(bytes(flipped))
    cases += [data[:cut] for cut in rng.integers(0, len(data), size=50)]
    for case in cases:
        bad.write_bytes(case)
        with pytest.raises(InputError):  # anything else fails the test
            load(bad)


def _with_fresh_checksum(data: bytes) -> bytes:
    body = data[:-CHECKSUM_BYTES]
    return body + hashlib.blake2b(body, digest_size=CHECKSUM_BYTES).digest()


def test_checksummed_bad_utf8_raises_input_error(tmp_path):
    p = tmp_path / "model.usm"
    save_model(p, _bundle())
    data = bytearray(p.read_bytes())
    # Magic, version and kind take 6 bytes, the tokenizer id's length 4.
    data[10] = 0xFF
    p.write_bytes(_with_fresh_checksum(bytes(data)))
    with pytest.raises(InputError, match="UTF-8"):
        load_model(p)


def test_checksummed_bad_index_config_raises_input_error(tmp_path, world):
    corpus, engine = world
    odd = copy.copy(engine)
    odd.index_config = replace(engine.index_config, rows_per_band=0)
    p = tmp_path / "odd.usi"
    save_index(p, _bundle(), odd)
    with pytest.raises(InputError, match="bands"):
        load_index(p)


def _with_key_table(data: bytes, model_bytes: int, edit) -> bytes:
    """The index file with its key table replaced by edit(keys), re-checksummed.

    The key table follows the 6-byte header, the model section and the
    index configuration (one u64 per field).
    """
    start = 6 + model_bytes + 8 * len(fields(IndexConfig))
    (count,) = struct.unpack_from("<I", data, start)
    pos, keys = start + 4, []
    for _ in range(count):
        (n,) = struct.unpack_from("<I", data, pos)
        table_id = data[pos + 4:pos + 4 + n]
        (column,) = struct.unpack_from("<I", data, pos + 4 + n)
        keys.append((table_id, column))
        pos += 8 + n
    table = struct.pack("<I", count) + b"".join(
        struct.pack("<I", len(t)) + t + struct.pack("<I", c) for t, c in edit(keys))
    return _with_fresh_checksum(data[:start] + table + data[pos:])


@pytest.mark.parametrize("edit", [
    lambda keys: [keys[1], keys[0]] + keys[2:],   # unsorted
    lambda keys: [keys[0], keys[0]] + keys[2:],   # duplicate
], ids=["unsorted", "duplicate"])
def test_checksummed_bad_key_table_raises_input_error(tmp_path, world, edit):
    corpus, engine = world
    model, index = tmp_path / "model.usm", tmp_path / "engine.usi"
    save_model(model, _bundle())
    save_index(index, _bundle(), engine)
    model_bytes = model.stat().st_size - 6 - CHECKSUM_BYTES
    index.write_bytes(_with_key_table(index.read_bytes(), model_bytes, edit))
    with pytest.raises(InputError, match="key table"):
        load_index(index)

