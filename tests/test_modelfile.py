import io
import os
import struct
import tracemalloc
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from unionsearch.bench import BenchmarkSpec, generate_benchmark
from unionsearch.contrast import ONLINE
from unionsearch.corpus import Corpus
from unionsearch.encoder import Encoder, EncoderConfig
from unionsearch.errors import ConfigError, InputError
from unionsearch import lshindex, modelfile
from unionsearch.modelfile import (
    CHECKSUM_BYTES,
    KIND_INDEX,
    KIND_MODEL,
    ModelBundle,
    atomic_write,
    load_index,
    load_model,
    save_index,
    save_model,
)
from unionsearch.projection import TrainConfig, Velocity, init_head
from unionsearch.search import (IndexConfig, SearchConfig, SearchEngine,
                                build_engine, top_k_search)
from unionsearch.syntactic import SET_MEASURES, SetPostings

from conftest import TFIDF_EDITS, forced
from references import (FIELD_KINDS, Refused, checksummed, field_edit,
                        field_edits, float_array, float_fields, key_table,
                        list_values, postings_block, read_file, string_table,
                        values_of, varint, with_field)


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


def assert_same_postings(a, b):
    """Same measures, each with the same token -> rows lists and set sizes."""
    assert a.postings.keys() == b.postings.keys()
    for measure, built in b.postings.items():
        other = a.postings[measure]
        assert built.postings, measure
        assert other.postings.keys() == built.postings.keys()
        for tok, rows in built.postings.items():
            assert other.postings[tok].dtype == np.int64
            np.testing.assert_array_equal(other.postings[tok], rows)
        np.testing.assert_array_equal(other.sizes, built.sizes)


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
    for a, b in zip(back.head.tensors(), bundle.head.tensors()):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    assert back.velocity is None


@pytest.mark.parametrize("kind", ["model", "index"])
def test_other_tokenizer_rejected(tmp_path, monkeypatch, world, kind):
    corpus, engine = world
    p = tmp_path / f"other.{kind}"
    # A save always writes TOKENIZER_ID; write a foreign one by swapping it
    # for the save only.
    with monkeypatch.context() as m:
        m.setattr(modelfile, "TOKENIZER_ID", "some-other-tokenizer-v9")
        if kind == "model":
            save_model(p, _bundle())
            load = load_model
        else:
            save_index(p, _bundle(), engine)
            load = load_index
    with pytest.raises(InputError, match="some-other-tokenizer-v9"):
        load(p)


def test_every_config_field_roundtrips(tmp_path, world):
    corpus, engine = world
    vectors = tmp_path / "v.txt"
    vectors.write_text("alpha " + " ".join(["0.5"] * 12) + "\n",
                       encoding="utf-8")
    # The encoder takes its dim, 12, from the file, and a save of the index
    # compares the bundle's with the engine's as a load sets it.
    ec = EncoderConfig(backend="vector_file", dim=20,
                       vector_file_path=str(vectors), hash_seed=2**64 - 1,
                       cell_as_single_token=True)
    tc = TrainConfig(temperature=0.25, learning_rate=3e-3, momentum=0.5,
                     epochs=3, batch_size=5, sample_size=7, seed=2**63 + 1,
                     validation_fraction=0.2, offline_floor=0.75)
    icfg = IndexConfig(seed=2**64 - 2)
    for cfg in (ec, tc, icfg):
        for f in fields(cfg):   # a new field must join this test
            assert getattr(cfg, f.name) != f.default, (type(cfg), f.name)
    bundle = replace(_bundle(), encoder_config=ec, train_config=tc,
                     head=init_head(12, 24, 16, seed=9))
    model, index = tmp_path / "m.usm", tmp_path / "i.usi"
    save_model(model, bundle)
    back = load_model(model)
    assert (back.encoder_config, back.train_config) == (ec, tc)
    save_index(index, bundle,
               build_engine(corpus, Encoder(ec), bundle.head, icfg))
    back, loaded = load_index(index)
    assert (back.encoder_config, back.train_config) == (ec, tc)
    assert loaded.index_config == icfg


@pytest.mark.parametrize("seed", [-1, 2**64, -3])
def test_index_seed_outside_u64_rejected(tmp_path, seed):
    """Every stored seed is a u64; one outside it is refused, never wrapped."""
    for make in (lambda s: IndexConfig(seed=s),
                 lambda s: EncoderConfig(hash_seed=s),
                 lambda s: TrainConfig(seed=s),
                 lambda s: init_head(4, 4, 4, seed=s)):
        with pytest.raises(ConfigError, match="seed"):
            make(seed)
        make(2**64 - 1)
    # A forced seed skips the checks; its save fails, writing nothing.
    bundle = _bundle()
    forced(bundle.train_config, "seed", seed)
    with pytest.raises(struct.error):
        save_model(tmp_path / "m.usm", bundle)
    assert list(tmp_path.iterdir()) == []
    assert init_head(4, 4, 4, seed=2**64 - 1).init_seed == 2**64 - 1


@pytest.mark.parametrize("kind", ["model", "index"])
def test_velocity_is_not_stored(tmp_path, world, kind):
    """A file holds no optimizer state: a bundle saves to the same bytes
    with and without its velocity, and loads without one."""
    corpus, engine = world
    if kind == "model":
        save, load = save_model, load_model
    else:
        save = lambda p, b: save_index(p, b, engine)
        load = lambda p: load_index(p)[0]
    with_it, without = tmp_path / "with", tmp_path / "without"
    assert _bundle().velocity is not None
    save(with_it, _bundle())
    save(without, _bundle(with_velocity=False))
    assert with_it.read_bytes() == without.read_bytes()
    assert load(with_it).velocity is None


def test_model_save_byte_stable(tmp_path):
    p1, p2 = tmp_path / "a.usm", tmp_path / "b.usm"
    save_model(p1, _bundle())
    save_model(p2, _bundle())
    assert p1.read_bytes() == p2.read_bytes()


def test_model_file_magic_checked(tmp_path):
    """A checksummed file of a valid version and kind, but another magic."""
    p = tmp_path / "junk.usm"
    save_model(p, _bundle())
    p.write_bytes(checksummed(b"NOPE" + p.read_bytes()[4:-CHECKSUM_BYTES]))
    with pytest.raises(InputError, match="bad magic"):
        load_model(p)


def test_model_file_truncation_detected(tmp_path):
    p = tmp_path / "model.usm"
    save_model(p, _bundle())
    data = p.read_bytes()
    for cut in (0, len(data) // 3, len(data) - 1):
        (tmp_path / "cut.usm").write_bytes(data[:cut])
        with pytest.raises(InputError):
            load_model(tmp_path / "cut.usm")


def test_model_file_trailing_garbage_detected(tmp_path):
    p = tmp_path / "model.usm"
    save_model(p, _bundle())
    p.write_bytes(p.read_bytes() + b"x")
    with pytest.raises(InputError):
        load_model(p)


@pytest.mark.parametrize("kind", ["model", "index"])
def test_checksummed_trailing_bytes_raise_input_error(tmp_path, world, kind):
    """Bytes between the last field and a checksum that covers them."""
    corpus, engine = world
    p = tmp_path / kind
    if kind == "model":
        save_model(p, _bundle())
        load = load_model
    else:
        save_index(p, _bundle(), engine)
        load = load_index
    data = p.read_bytes()
    p.write_bytes(checksummed(data[:-CHECKSUM_BYTES] + b"xyz"))
    with pytest.raises(InputError, match="3 trailing bytes"):
        load(p)


def test_model_missing_file(tmp_path):
    with pytest.raises(InputError):
        load_model(tmp_path / "absent.usm")


def test_kind_byte_distinguishes_model_from_index(tmp_path, world):
    corpus, engine = world
    ip = tmp_path / "x.usi"
    save_index(ip, _bundle(), engine)
    with pytest.raises(InputError, match="this is an index file, expected "
                                         "a model"):
        load_model(ip)
    mp = tmp_path / "x.usm"
    save_model(mp, _bundle())
    with pytest.raises(InputError, match="this is a model file, expected "
                                         "an index"):
        load_index(mp)
    # The kind byte is checked before the digest, so none is redone.
    data = bytearray(mp.read_bytes())
    data[5] = 7
    mp.write_bytes(bytes(data))
    for load in (load_model, load_index):
        with pytest.raises(InputError, match="unknown file kind 7"):
            load(mp)


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


def test_load_allocates_the_vector_matrix_once(tmp_path, world, monkeypatch):
    """A load allocates one (n, dim) float32 array: the matrix it decodes,
    which the cosine index then adopts as its rows, with no copy."""
    _, engine = world
    p = tmp_path / "engine.usi"
    bundle = _bundle()
    save_index(p, bundle, engine)
    n, dim = len(engine.keys), 16
    matrix_bytes = n * dim * 4
    # No other array the load keeps has the matrix's size, and no posting
    # list (at most n int64 rows) reaches it.
    index = engine.semantic_index
    assert matrix_bytes not in {a.nbytes for a in (
        *bundle.head.tensors(), index._norms, index._packed, index.planes)}
    handed = []
    live = []
    adopt = lshindex.CosineLshIndex._adopt

    def counted_adopt(index, keys, matrix):
        handed.append(matrix)
        adopt(index, keys, matrix)
        # numpy arrays of the matrix's size alive once the rows are filed.
        snapshot = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
        live.append(sum(t.size == matrix_bytes for t in snapshot.traces))

    monkeypatch.setattr(lshindex.CosineLshIndex, "_adopt", counted_adopt)
    tracemalloc.start()
    try:
        _, loaded = load_index(p)
    finally:
        tracemalloc.stop()
    assert live == [1]
    (matrix,) = handed
    rows = loaded.semantic_index._rows
    assert rows is matrix and rows.flags.owndata
    assert rows.shape == (n, dim) and rows.dtype == np.float32
    assert rows.tobytes() == engine.semantic_index.vectors.tobytes()


def test_engines_allocate_their_rows_once(tmp_path, world, monkeypatch):
    """Built and loaded engines allocate each cosine index array once, at
    their row count: the rows are the matrix the build projects into or
    the load decodes, and the norms and packed keys are grown once."""
    corpus, engine = world
    p = tmp_path / "engine.usi"
    save_index(p, _bundle(), engine)
    grown = []
    grow = lshindex._grown

    def spied(array, rows):
        grown.append((len(array), rows))
        return grow(array, rows)

    monkeypatch.setattr(lshindex, "_grown", spied)
    built = build_engine(corpus, engine.encoder, engine.head,
                         engine.index_config)
    _, loaded = load_index(p)
    # One allocation of norms and packed keys per engine.
    assert grown == [(0, len(engine.keys))] * 4
    for eng in (built, loaded):
        index = eng.semantic_index
        assert index._rows.flags.owndata
        assert len(index._rows) == len(index._norms) == len(index._packed) \
            == index.size == len(engine.keys)


def test_insert_after_adoption_grows_the_rows(world):
    """An index that adopted its rows copies them once it grows, so a
    later insert never writes past the adopted matrix."""
    _, engine = world
    matrix = engine.semantic_index.vectors.copy()
    adopted = lshindex.CosineLshIndex(dim=16, seed=1)
    rows = matrix[1:].copy()
    adopted._adopt(engine.keys[1:], rows)
    assert adopted._rows is rows
    adopted.insert(engine.keys[0], matrix[0])
    assert adopted._rows is not rows
    np.testing.assert_array_equal(rows, matrix[1:])
    copied = lshindex.CosineLshIndex(dim=16, seed=1)
    copied.insert_many(engine.keys[1:], matrix[1:])
    copied.insert(engine.keys[0], matrix[0])
    assert adopted.keys == copied.keys
    assert adopted.buckets == copied.buckets
    np.testing.assert_array_equal(adopted.vectors, copied.vectors)
    np.testing.assert_array_equal(adopted._norms[:adopted.size],
                                  copied._norms[:copied.size])
    with pytest.raises(ValueError, match="only an empty index adopts"):
        adopted._adopt([("t", 0)], matrix[:1].copy())
    with pytest.raises(ValueError, match="only an empty index adopts"):
        lshindex.CosineLshIndex(dim=16)._adopt(engine.keys,
                                               matrix.astype(np.float64))


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
    assert loaded.tfidf.df == engine.tfidf.df
    assert loaded.tfidf.n_columns == engine.tfidf.n_columns
    assert loaded.index_config == engine.index_config
    # The file stores no index state; loading must rebuild the same one.
    np.testing.assert_array_equal(loaded.semantic_index.planes,
                                  engine.semantic_index.planes)
    assert loaded.semantic_index.buckets == engine.semantic_index.buckets
    assert_same_postings(loaded, engine)


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
        assert list(eng.keys) == sorted(eng.keys)
        sem = eng.semantic_index
        assert tuple(sem.keys[r] for r in range(sem.size)) == engine.keys
        assert eng.keys is sem.keys
        assert sem.buckets == engine.semantic_index.buckets
        assert_same_postings(eng, engine)
    for column in corpus.encodable_columns():
        q = engine.project_column(column)
        profile = engine.query_profile(column, SET_MEASURES)
        for threshold in (-1.0, 0.7):
            hits = engine.semantic_index.lookup(q, threshold)
            for eng in engines[1:]:
                assert eng.semantic_index.lookup(q, threshold) == hits
        for measure, tokens in profile.items():
            ids, scores = engine.postings[measure].match([tokens])
            for eng in engines[1:]:
                other = eng.postings[measure].match([tokens])
                np.testing.assert_array_equal(other[0], ids)
                np.testing.assert_array_equal(other[1], scores)


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


# ---------------------------------------------------------------- postings

# A row gap g is stored as g - 1, so these sit at each varint width's edges
# from both sides. A gap of 2**28 would need a measure of more than 2**28
# rows, whose set sizes alone take 2 GB: the varint tests reach that width.
EDGE_GAPS = [1, 2, 127, 128, 129, 16383, 16384, 16385, 2**21, 2**21 + 1]
EDGE_ROWS = 2**21 + 7


def _edge_postings(seed: int, n_rows: int):
    """Seeded random postings from ``SetPostings.from_pairs``, with a
    two-row list per edge gap (at the bottom and at the top of the rows
    when they fit), single-row lists, and rows 0 and n_rows - 1."""
    rng = np.random.default_rng(seed)
    pairs = {(int(t), int(r)) for t, r in zip(rng.integers(0, 40, 300),
                                              rng.integers(0, n_rows, 300))}
    tok = 40
    for gap in EDGE_GAPS:
        if gap < n_rows:
            pairs |= {(tok, 0), (tok, gap), (tok + 1, n_rows - 1 - gap),
                      (tok + 1, n_rows - 1)}
            tok += 2
    for row in {0, 127, 128, 16383, 16384, n_rows - 1}:
        if row < n_rows:
            pairs.add((tok, row))
            tok += 1
    vocab = [f"tok{i:03d}" for i in range(tok)]
    tokens, rows = np.array(sorted(pairs), dtype=np.int64).T
    return SetPostings.from_pairs(vocab, tokens, rows, n_rows)


def _postings_bytes(postings: SetPostings) -> bytes:
    out = io.BytesIO()
    tokens = sorted(postings.postings)
    modelfile._write_lists(modelfile._Writer(out), tokens,
                           [postings.postings[tok] for tok in tokens],
                           len(postings.sizes))
    return out.getvalue()


def _read_postings_bytes(data: bytes, n_rows: int) -> SetPostings:
    r = modelfile._Reader(data, "postings")
    postings = modelfile._read_postings(r, n_rows)
    r.expect_end()
    return postings


def _assert_same_lists(got: SetPostings, want: SetPostings) -> None:
    assert list(got.postings) == sorted(want.postings)
    for tok, rows in want.postings.items():
        assert got.postings[tok].dtype == np.int64
        np.testing.assert_array_equal(got.postings[tok], rows)
    np.testing.assert_array_equal(got.sizes, want.sizes)


def test_varints_round_trip_at_every_width():
    values = [0, 1, 127, 128, 16383, 16384, 2**21 - 1, 2**21, 2**28 - 1,
              2**28, 2**35 - 1]
    stream = modelfile._varints(np.array(values, dtype=np.int64))
    assert stream.dtype == np.uint8
    assert stream.tobytes() == b"".join(varint(v) for v in values)
    assert [len(varint(v)) for v in values] == [1, 1, 1, 2, 2, 3, 3, 4, 4,
                                                5, 5]
    for vals in (values, []):
        data = modelfile._varints(np.array(vals, dtype=np.int64)).tobytes()
        r = modelfile._Reader(struct.pack("<I", len(data)) + data, "varints")
        back = modelfile._read_varints(r, "varints")
        r.expect_end()
        assert back.dtype == np.int64 and back.tolist() == vals


@pytest.mark.parametrize("value", [-1, 2**35])
def test_varints_refuse_values_they_cannot_hold(value):
    with pytest.raises(ValueError, match="varint values"):
        modelfile._varints(np.array([0, value], dtype=np.int64))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_postings_block_round_trip_at_varint_edges(seed):
    postings = _edge_postings(seed, EDGE_ROWS)
    lists = postings.postings
    data = _postings_bytes(postings)
    # The layout, coded one value at a time.
    tokens = sorted(lists)
    assert data == postings_block(
        [tok.encode() for tok in tokens],
        [varint(v) for v in list_values([lists[tok] for tok in tokens])])
    back = _read_postings_bytes(data, EDGE_ROWS)
    _assert_same_lists(back, postings)
    assert _postings_bytes(back) == data


@pytest.mark.parametrize("chunk", [1, 7, 100])
def test_postings_block_does_not_depend_on_the_chunk_size(monkeypatch, chunk):
    postings = _edge_postings(3, 40_000)
    data = _postings_bytes(postings)
    monkeypatch.setattr(modelfile, "POSTINGS_CHUNK", chunk)
    assert _postings_bytes(postings) == data


def test_postings_block_of_no_tokens_round_trips():
    empty = SetPostings({}, 5)
    data = _postings_bytes(empty)
    assert data == struct.pack("<II", 0, 0)
    back = _read_postings_bytes(data, 5)
    assert back.postings == {}
    np.testing.assert_array_equal(back.sizes, np.zeros(5, dtype=np.int64))


@pytest.mark.parametrize("seed", [0, 1])
def test_index_round_trip_of_random_postings(tmp_path, world, seed):
    corpus, engine = world
    n_rows = len(engine.keys)
    postings = {"name": _edge_postings(seed, n_rows),
                "value": _edge_postings(seed + 10, n_rows),
                "format": SetPostings({}, n_rows)}
    eng = SearchEngine(engine.encoder, engine.head, engine.index_config,
                       engine.tfidf, engine.keys,
                       engine.semantic_index.vectors, postings)
    p1, p2 = tmp_path / "a.usi", tmp_path / "b.usi"
    save_index(p1, _bundle(), eng)
    bundle, loaded = load_index(p1)
    assert loaded.postings.keys() == postings.keys()
    for measure, built in postings.items():
        _assert_same_lists(loaded.postings[measure], built)
    save_index(p2, bundle, loaded)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------- float arrays

def _float_bytes(arr: np.ndarray) -> bytes:
    out = io.BytesIO()
    modelfile._Writer(out).f32_array(arr)
    return out.getvalue()


def _read_float_bytes(data: bytes, shape: tuple[int, ...]) -> np.ndarray:
    r = modelfile._Reader(data, "floats")
    arr = r.f32_array(shape)
    r.expect_end()
    return arr


def _with_tops(rng, tops, shape=None) -> np.ndarray:
    """float32 values with the given top bytes and seeded low bytes."""
    tops = np.asarray(tops, dtype=np.uint32)
    bits = tops << 24 | rng.integers(0, 1 << 24, len(tops), dtype=np.uint32)
    return bits.view(np.float32).reshape(shape or len(tops))


def _specials(rng) -> np.ndarray:
    """Signed zeros, subnormals, the extremes, infinities and a NaN among
    seeded normal values: 35 of them, an odd count."""
    tiny = np.finfo(np.float32).smallest_subnormal
    special = np.array([0.0, -0.0, tiny, -tiny, np.finfo(np.float32).tiny,
                        np.finfo(np.float32).tiny - tiny,
                        np.finfo(np.float32).max, -np.finfo(np.float32).max,
                        np.inf, -np.inf], dtype=np.float32)
    nan = np.array([0x7FC01234], dtype=np.uint32).view(np.float32)
    values = rng.standard_normal(35).astype(np.float32)
    values[:len(special)] = special
    values[-1] = nan[0]
    return values.reshape(7, 5)


def _tied_with_raw(rng) -> np.ndarray:
    """4,096 values whose coded top plane takes as many bytes as the raw
    top bytes, 4,096: dictionary size, 15 words, 2,048 code bytes and 2,032
    exceptions, 16 each of 127 rarer top bytes."""
    tops = np.concatenate([np.resize(np.arange(15), 2064),
                           np.repeat(np.arange(100, 227), 16)])
    return _with_tops(rng, rng.permutation(tops), (64, 64))


def _every_top_byte(rng) -> np.ndarray:
    """Each of the 256 top bytes three times: 15 of them coded, the other
    723 values exceptions, so the plane takes more bytes than the values."""
    return _with_tops(rng, rng.permutation(np.repeat(np.arange(256), 3)),
                      (3, 256))


FLOAT_CASES = {
    "specials": _specials,
    "one-value": lambda rng: np.full((9, 4), 0.3, dtype=np.float32),
    "15-top-bytes": lambda rng: _with_tops(
        rng, rng.permutation(np.repeat(np.arange(60, 75), 7)), (15, 7)),
    "16-top-bytes": lambda rng: _with_tops(
        rng, rng.permutation(np.repeat(np.arange(16), 5)), (8, 10)),
    "equally-common": lambda rng: _with_tops(
        rng, rng.permutation(np.repeat(np.arange(64) * 4, 4)), (16, 16)),
    "every-top-byte": _every_top_byte,
    "odd-count": lambda rng: rng.standard_normal(101).astype(np.float32),
    "trained-like": lambda rng: (rng.standard_normal((300, 16))
                                 * 0.2).astype(np.float32),
    "tied-with-raw": _tied_with_raw,
    "zero-rows": lambda rng: np.empty((0, 128), dtype=np.float32),
    "empty": lambda rng: np.empty(0, dtype=np.float32),
}


@pytest.mark.parametrize("case", FLOAT_CASES)
@pytest.mark.parametrize("seed", [0, 1])
def test_float_arrays_round_trip_bit_for_bit(case, seed):
    arr = FLOAT_CASES[case](np.random.default_rng(seed))
    data = _float_bytes(arr)
    # The layout, coded one value at a time.
    assert data == float_array(float_fields(arr))
    back = _read_float_bytes(data, arr.shape)
    assert back.dtype == np.float32 and back.shape == arr.shape
    assert back.flags.owndata and back.flags.writeable
    assert back.tobytes() == arr.tobytes()
    assert _float_bytes(back) == data


def test_float_array_of_every_top_byte_is_coded():
    """Where most top bytes lie outside the 15 most common, the plane is
    still coded: dictionary size, dictionary, a code nibble per value and
    every exception's byte."""
    arr = _every_top_byte(np.random.default_rng(4))
    n = arr.size
    fields = float_fields(arr)
    assert fields["words"] == list(range(15))
    assert len(fields["exceptions"]) == n - 15 * 3
    plane = _float_bytes(arr)[3 * n:]
    assert len(plane) == (1 + len(fields["words"]) + (n + 1) // 2
                          + len(fields["exceptions"]))


def test_float_array_codes_ending_in_a_non_zero_pad_nibble_raise_input_error():
    """An odd count leaves the last code byte's high nibble over: a save
    writes it zero, and a load refuses any other."""
    arr = _specials(np.random.default_rng(0))
    assert arr.size % 2
    fields = float_fields(arr)
    back = _read_float_bytes(float_array(fields), arr.shape)
    assert back.tobytes() == arr.tobytes()
    fields["pad"] = 1
    with pytest.raises(InputError, match="non-zero pad nibble"):
        _read_float_bytes(float_array(fields), arr.shape)


def test_float_array_dictionary_ties_go_to_the_smaller_byte():
    """Top bytes 0-15 five times each: 15 is the one left out, and its
    five values are the exceptions."""
    arr = FLOAT_CASES["16-top-bytes"](np.random.default_rng(3))
    fields = float_fields(arr)
    assert fields["words"] == list(range(15))
    assert fields["exceptions"] == [15] * 5


@pytest.mark.parametrize("chunk", [1, 7, 100])
def test_float_array_does_not_depend_on_the_chunk_size(monkeypatch, chunk):
    rng = np.random.default_rng(5)
    # Exponents two apart, fewer the larger: many rare top bytes.
    spread = 4.0 ** rng.geometric(0.3, (40, 9))
    arrays = [(rng.standard_normal((40, 9)) * spread).astype(np.float32),
              FLOAT_CASES["16-top-bytes"](rng),
              FLOAT_CASES["equally-common"](rng), _specials(rng)]
    data = [_float_bytes(arr) for arr in arrays]
    assert len(float_fields(arrays[0])["exceptions"]) > 2
    monkeypatch.setattr(modelfile, "FLOAT_CHUNK", chunk)
    for arr, want in zip(arrays, data):
        assert _float_bytes(arr) == want
        assert _read_float_bytes(want, arr.shape).tobytes() == arr.tobytes()


def test_string_tables_round_trip():
    """Non-ASCII text, and UTF-8 lengths at the one- to two-byte varint
    edge: 127, 128 and 129 bytes."""
    items = ["", "a", "x" * 127, "\u00e9" * 64, "y" * 129,
             "z" * 127 + "\u00e9", "\u65e5\u672c\u8a9e", "caf\u00e9"]
    assert [len(s.encode()) for s in items] == [0, 1, 127, 128, 129, 129, 9,
                                                5]
    for strings in (items, items[:3], []):
        out = io.BytesIO()
        modelfile._Writer(out).strings(strings)
        data = out.getvalue()
        assert data == string_table([s.encode() for s in strings])
        r = modelfile._Reader(data, "strings")
        assert r.strings("test") == strings
        r.expect_end()


@pytest.mark.parametrize("lengths", [[4], [1, 3], [2**35 - 1] * 2])
def test_string_table_longer_than_the_bytes_left_raises_input_error(lengths):
    """Three bytes follow the lengths: a blob that would need more is a
    truncated file, each length checked before they are summed."""
    stream = b"".join(varint(n) for n in lengths)
    r = modelfile._Reader(struct.pack("<I", len(stream)) + stream + b"abc",
                          "strings")
    with pytest.raises(InputError, match="truncated file"):
        r.strings("test")


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


def test_save_failing_in_the_index_section_keeps_old_target(tmp_path, world,
                                                            monkeypatch):
    """A save that fails after part of the file reached the temp file leaves
    an existing target byte-identical and no temp file behind."""
    _, engine = world
    target = tmp_path / "out.usi"
    save_index(target, _bundle(), engine)
    old = target.read_bytes()
    written = []

    def failing_lists(w, names, lists, bound):
        w.fh.flush()
        (tmp,) = tmp_path.glob("*.tmp")
        written.append(tmp.stat().st_size)
        raise OSError("disk full")

    monkeypatch.setattr(modelfile, "_write_lists", failing_lists)
    with pytest.raises(OSError, match="disk full"):
        save_index(target, _bundle(), engine)
    assert written and written[0] > 0
    assert target.read_bytes() == old
    assert os.listdir(tmp_path) == ["out.usi"]  # no *.tmp left


@pytest.mark.parametrize("chunk", [1, 64, 4096])
def test_saves_do_not_depend_on_the_chunk_size(tmp_path, world, monkeypatch,
                                               chunk):
    """Whole files, with the float arrays and the list blocks coded chunk
    by chunk at once."""
    _, engine = world
    model, index = tmp_path / "a.usm", tmp_path / "a.usi"
    save_model(model, _bundle())
    save_index(index, _bundle(), engine)
    monkeypatch.setattr(modelfile, "FLOAT_CHUNK", chunk)
    monkeypatch.setattr(modelfile, "POSTINGS_CHUNK", chunk)
    save_model(tmp_path / "b.usm", _bundle())
    save_index(tmp_path / "b.usi", _bundle(), engine)
    assert (tmp_path / "b.usm").read_bytes() == model.read_bytes()
    assert (tmp_path / "b.usi").read_bytes() == index.read_bytes()


# ---------------------------------------------------------------- corruption

@pytest.fixture(scope="module")
def saved(world, tmp_path_factory) -> dict[int, bytes]:
    """The bytes of ``_bundle()``'s model file and of the world's index
    file, by kind."""
    _, engine = world
    path = tmp_path_factory.mktemp("saved") / "file"
    save_model(path, _bundle())
    model = path.read_bytes()
    save_index(path, _bundle(), engine)
    return {KIND_MODEL: model, KIND_INDEX: path.read_bytes()}


def _loaded_values(path, kind: int) -> dict:
    if kind == KIND_MODEL:
        return values_of(load_model(path))
    return values_of(*load_index(path))


def test_field_map_covers_each_file(tmp_path, saved):
    """Every byte before the digest lies in one field, every kind of field
    occurs, and a load returns what the reference read of the file does."""
    kinds = set()
    for kind, data in saved.items():
        fields, values = read_file(data, kind)
        assert [f.start for f in fields] == [0, *(f.end for f in fields[:-1])]
        assert fields[-1].end == len(data) - CHECKSUM_BYTES
        assert len({f.name for f in fields}) == len(fields)
        kinds |= {f.kind for f in fields}
        path = tmp_path / "file"
        path.write_bytes(data)
        assert _loaded_values(path, kind) == values
    assert kinds == set(FIELD_KINDS)


@pytest.mark.parametrize("field_kind", FIELD_KINDS)
def test_edited_fields_load_as_read_or_raise_input_error(tmp_path, saved,
                                                         field_kind):
    """Seeded edits of every field of a kind (``references.field_edits``):
    the model file's fields and the index file's past its model section,
    each edited file re-checksummed. A load raises InputError where the
    reference read refuses the bytes and otherwise returns what it reads;
    no other exception escapes."""
    rng = np.random.default_rng(FIELD_KINDS.index(field_kind))
    path = tmp_path / "edited"
    edits = 0
    for kind, data in saved.items():
        fields, _ = read_file(data, kind)
        first = 0 if kind == KIND_MODEL else next(
            f.start for f in fields if f.name == "index.seed")
        for field in fields:
            if field.kind != field_kind or field.start < first:
                continue
            for label, edit in field_edits(data, field, rng).items():
                try:
                    want = read_file(edit, kind)[1]
                except Refused:
                    want = None
                path.write_bytes(edit)
                try:
                    got = _loaded_values(path, kind)
                except InputError:
                    got = None
                assert got == want, (field.name, label)
                edits += 1
    assert edits


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


def test_fuzzed_index_sections_load_or_raise_input_error(tmp_path, saved):
    """Seeded byte flips, inserts, deletes and sets in a small index's index
    section, each file re-checksummed so that its parser meets the edit:
    every load raises InputError or returns an engine, and nothing else
    escapes. Both outcomes occur."""
    data = saved[KIND_INDEX]
    fields, _ = read_file(data, KIND_INDEX)
    start = next(f.start for f in fields if f.name == "index.seed")
    end = len(data) - CHECKSUM_BYTES
    path = tmp_path / "engine.usi"
    rng = np.random.default_rng(41)
    outcomes = {"loaded": 0, "refused": 0}
    for _ in range(500):
        body = bytearray(data[:end])
        at, byte = int(rng.integers(start, end)), int(rng.integers(256))
        edit = rng.integers(4)
        if edit == 0:
            body[at] ^= int(rng.integers(1, 256))
        elif edit == 1:
            body.insert(at, byte)
        elif edit == 2:
            del body[at]
        else:
            body[at] = byte
        path.write_bytes(checksummed(bytes(body)))
        try:
            load_index(path)
            outcomes["loaded"] += 1
        except InputError:
            outcomes["refused"] += 1
    assert min(outcomes.values()) > 0, outcomes


def test_short_read_raises_input_error(tmp_path, monkeypatch):
    """A file that reads fewer bytes than its size said, as one cut while
    it is read, is a truncated file."""
    path = tmp_path / "model.usm"
    save_model(path, _bundle())
    fstat = os.fstat
    monkeypatch.setattr(modelfile.os, "fstat", lambda fd: SimpleNamespace(
        st_size=fstat(fd).st_size + 1))
    with pytest.raises(InputError, match="truncated file"):
        load_model(path)


def _assert_edit_refused(tmp_path, saved, kind: int, name: str, label: str,
                         message: str) -> None:
    """The edit under label of the named field fails to load, with
    message."""
    path = tmp_path / "edited"
    path.write_bytes(field_edit(saved[kind], kind, name, label))
    with pytest.raises(InputError, match=message):
        (load_model if kind == KIND_MODEL else load_index)(path)


def test_checksummed_bad_utf8_raises_input_error(tmp_path, saved):
    _assert_edit_refused(tmp_path, saved, KIND_MODEL, "tokenizer", "flip text",
                         "UTF-8")


@pytest.mark.parametrize("label", ["names: swap strings",
                                   "names: repeat a string"],
                         ids=["unsorted", "duplicate"])
def test_checksummed_bad_key_table_raises_input_error(tmp_path, saved, label):
    _assert_edit_refused(tmp_path, saved, KIND_INDEX, "keys", label,
                         "table ids not strictly increasing")


@pytest.mark.parametrize("case", TFIDF_EDITS)
def test_checksummed_bad_document_frequencies_raise_input_error(tmp_path,
                                                                saved, case):
    _assert_edit_refused(tmp_path, saved, KIND_INDEX, *TFIDF_EDITS[case])


@pytest.mark.parametrize("craft, saves", [
    (lambda b: forced(b.head, "b1", b.head.b1[:5]), False),
    (lambda b: forced(b.head, "W2", b.head.W2.T), False),
    (lambda b: forced(b.head, "W1", b.head.W1.ravel()), False),
    (lambda b: forced(b.encoder_config, "backend", "nope"), True),
    (lambda b: forced(b.train_config, "batch_size", 1), True),
    (lambda b: setattr(b, "encoder_config",
                       replace(b.encoder_config, dim=48)), True),
    (lambda b: b.head.W1.__setitem__((0, 0), np.nan), True),
    (lambda b: b.head.b2.__setitem__(-1, -np.inf), True),
    (lambda b: forced(b.train_config, "temperature", np.nan), True),
    (lambda b: forced(b.train_config, "learning_rate", np.nan), True),
    (lambda b: forced(b.train_config, "momentum", np.nan), True),
    (lambda b: forced(b.train_config, "offline_floor", np.nan), True),
    (lambda b: forced(b.train_config, "offline_floor", 2.0), True),
], ids=["short-b1", "transposed-W2", "flat-W1", "unknown-backend",
        "batch-size-1", "head-encoder-dim-mismatch", "nan-W1", "inf-b2",
        "nan-temperature", "nan-learning-rate", "nan-momentum",
        "nan-offline-floor", "offline-floor-2"])
def test_checksummed_bad_model_section_raises_input_error(tmp_path, world,
                                                          craft, saves):
    """A bad model section saves and then fails to load; a head whose
    tensors have other shapes than its dims imply, which a file cannot
    store, fails to save and leaves no file. The index file is written
    past ``save_index``, which refuses a head or an encoder configuration
    that is not the engine's."""
    corpus, engine = world
    bundle = _bundle()
    craft(bundle)
    for path, save, load in ((tmp_path / "m.usm", save_model, load_model),
                             (tmp_path / "i.usi",
                              lambda p, b: modelfile._save(p, b, engine),
                              load_index)):
        if not saves:
            with pytest.raises(ValueError, match="head tensor shapes"):
                save(path, bundle)
            assert list(tmp_path.iterdir()) == []
            continue
        save(path, bundle)
        with pytest.raises(InputError):
            load(path)


def test_key_table_edit_helper_rewrites_an_unedited_file(saved):
    """The keys field of an index file, written afresh from the keys the
    reference read returns and put back by ``with_field``, leaves the file
    as it was."""
    data = saved[KIND_INDEX]
    fields, values = read_file(data, KIND_INDEX)
    (field,) = (f for f in fields if f.name == "keys")
    tables = {}
    for table_id, position in values["keys"]:
        tables.setdefault(table_id, []).append(position)
    new = key_table([(t.encode(), positions)
                     for t, positions in tables.items()])
    assert with_field(data, field, new) == data


@pytest.mark.parametrize("tables", [
    [],
    [("a", [127, 128, 2**32 - 1])],
    [("a", [0]), ("b", [5]), ("c", [0, 1])],
    [("a", [0, 3, 200]), ("b", [1, 2**20]), ("\u00e9", [7])],
], ids=["no-keys", "varint-edges", "one-column-tables", "gaps"])
def test_key_tables_round_trip(tables):
    """Positions at the one- to two-byte varint edge and at the largest
    a load accepts, one-column tables, and gaps between positions."""
    keys = [(table_id, p) for table_id, positions in tables
            for p in positions]
    out = io.BytesIO()
    modelfile._write_key_table(modelfile._Writer(out), keys)
    data = out.getvalue()
    assert data == key_table([(t.encode(), positions)
                              for t, positions in tables])
    r = modelfile._Reader(data, "keys")
    assert modelfile._read_key_table(r) == keys
    r.expect_end()


@pytest.mark.parametrize("keys, lists, bound", [
    ([("a", 0), ("a", 2**32)], None, None),
    (None, [np.array([0, 3]), np.array([5])], 5),
], ids=["position-2**32", "row-at-bound"])
def test_save_refuses_list_items_at_their_bound(keys, lists, bound):
    """A column position at 2**32 or a posting row at the key count would
    be refused by a load, so a save refuses it and writes nothing."""
    out = io.BytesIO()
    w = modelfile._Writer(out)
    with pytest.raises(ValueError, match="list items must lie below"):
        if keys is None:
            modelfile._write_lists(w, ["x", "y"], lists, bound)
        else:
            modelfile._write_key_table(w, keys)
    assert out.getvalue() == b""


def _flip_first_bit(tensor: np.ndarray) -> None:
    tensor.reshape(-1).view(np.uint32)[0] ^= 1


@pytest.mark.parametrize("edit", [
    lambda b: _flip_first_bit(b.head.W2),
    lambda b: b.head.b1.__setitem__(0, -0.0),
    lambda b: setattr(b, "head", replace(b.head,
                                         W1=b.head.W1.astype(np.float64))),
    lambda b: setattr(b, "encoder_config",
                      replace(b.encoder_config, hash_seed=78)),
    lambda b: setattr(b, "encoder_config",
                      replace(b.encoder_config, cell_as_single_token=True)),
    lambda b: setattr(b, "encoder_config", replace(b.encoder_config, dim=48)),
], ids=["head-bit", "head-negative-zero", "head-dtype", "hash-seed",
        "cell-tokens", "dim"])
def test_save_refuses_a_bundle_that_is_not_the_engines(tmp_path, world,
                                                       edit):
    """A file stores the bundle's head and encoder configuration next to
    the engine's rows, so a bundle that differs from the engine in any
    stored bit would load as another engine: a save refuses it and writes
    nothing."""
    corpus, engine = world
    bundle = _bundle()
    edit(bundle)
    with pytest.raises(ValueError, match="not the engine's"):
        save_index(tmp_path / "engine.usi", bundle, engine)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("step", [1, -1])
def test_save_refuses_document_frequencies_over_other_columns(tmp_path, world,
                                                              step):
    """A load counts one document per key, so document frequencies over
    another column count would load as another engine. No engine over
    them can be made to save, by either constructor, and an engine's own
    frequencies cannot be edited: nothing is written, and the engine
    saves as before."""
    corpus, engine = world
    saved = tmp_path / "engine.usi"
    save_index(saved, _bundle(), engine)
    data = saved.read_bytes()
    saved.unlink()
    tfidf = replace(engine.tfidf, n_columns=engine.tfidf.n_columns + step)
    for make in (SearchEngine, SearchEngine._adopting):
        with pytest.raises(ConfigError, match="engine row counts disagree"):
            make(engine.encoder, engine.head, engine.index_config, tfidf,
                 engine.keys, engine.semantic_index.vectors.copy(),
                 dict(engine.postings))
    with pytest.raises(AttributeError):
        engine.tfidf.n_columns += step
    assert list(tmp_path.iterdir()) == []
    save_index(saved, _bundle(), engine)
    assert saved.read_bytes() == data
