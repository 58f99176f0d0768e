import numpy as np
import pytest

from unionsearch import encoder as encoder_module
from unionsearch.corpus import cell_blocks, cell_tokens
from unionsearch.encoder import CELL_CACHE_CAP, Encoder, EncoderConfig, load_vectors
from unionsearch.errors import ConfigError, EmptyColumnError, InputError
from unionsearch.projection import init_head, project, widened
from unionsearch.search import IndexConfig, build_engine

from conftest import make_corpus
from references import column_embedding, token_vector


def hashing_encoder(dim: int = 128, seed: int = 0, **kw) -> Encoder:
    return Encoder(EncoderConfig(backend="hashing", dim=dim, hash_seed=seed, **kw))


def cos(a: np.ndarray, b: np.ndarray) -> float:
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


# ---------------------------------------------------------------- tokens

def test_token_embedding_deterministic_unit():
    enc = hashing_encoder()
    v1 = enc.embed_token("budget")
    v2 = hashing_encoder().embed_token("budget")
    np.testing.assert_array_equal(v1, v2)
    assert v1.shape == (128,)
    assert np.linalg.norm(v1) == pytest.approx(1.0, abs=1e-12)


def test_token_embedding_changes_with_seed():
    a = hashing_encoder(seed=0).embed_token("budget")
    b = hashing_encoder(seed=1).embed_token("budget")
    assert not np.allclose(a, b)


def test_embed_token_equals_its_reference():
    enc = hashing_encoder(dim=48, seed=11)
    tokens = [f"t{i}" for i in range(490)] + [
        "0", "budget", "ação", "日本", "x" * 300, "a_b", "t1_t2", "7",
        "tok", "z9"]
    assert len(set(tokens)) == 500
    for token in tokens:
        assert enc.embed_token(token).tobytes() \
            == token_vector(token, 48, 11).tobytes()


# ---------------------------------------------------------------- batches

@pytest.mark.parametrize("backend", ["hashing", "vector_file"])
@pytest.mark.parametrize("single", [False, True])
def test_tokens_hash_alike_in_any_batch(tmp_path, monkeypatch, backend,
                                        single):
    """The same tokens hashed in one batch, one at a time, or in two
    interleaved halves give the same arrays, the reference's bits."""
    p = tmp_path / "v.txt"
    # A vector file holding some of the tokens of either kind.
    _write_vectors(p, [f"w{i} " + " ".join(["0.5"] * 8)
                       for i in range(0, 300, 3)]
                   + [f"w{i}_w{i * 7 % 300} " + " ".join(["0.25"] * 8)
                      for i in range(0, 300, 5)])
    cfg = EncoderConfig(backend=backend, dim=8, hash_seed=4,
                        cell_as_single_token=single,
                        vector_file_path=str(p) if backend == "vector_file"
                        else None)
    # 300 distinct word tokens, or 300 joined cell tokens.
    cells = [f"w{i} w{(i * 7) % 300}" for i in range(300)]
    tokens = list(dict.fromkeys(
        t for cell in cells
        for t in (["_".join(cell_tokens(cell))] if single
                  else cell_tokens(cell))))
    assert len(tokens) == 300
    passes = []
    rngs = encoder_module.default_rngs
    monkeypatch.setattr(encoder_module, "default_rngs",
                        lambda seeds: passes.append(len(seeds)) or rngs(seeds))

    def hashed(feed) -> tuple[bytes, bytes]:
        enc = Encoder(cfg)
        passes.clear()
        feed(enc)
        vectors = np.stack([enc.embed_token(t) for t in tokens])
        return vectors.tobytes(), enc.embed_column(cells).tobytes()

    def halves(enc):
        enc.hash_cells(cells[::2])
        enc.hash_cells(cells[1::2])

    one = hashed(lambda enc: enc.hash_cells(cells))
    assert len(passes) == 1
    filed = {t for t in tokens if t in Encoder(cfg)._cache}
    assert sum(passes) == len(tokens) - len(filed)
    assert hashed(lambda enc: [enc.embed_token(t) for t in tokens]) == one
    assert passes == [1] * (len(tokens) - len(filed))
    assert hashed(halves) == one
    assert len(passes) == 2
    enc = Encoder(cfg)
    for t in tokens:
        if t not in filed:
            assert enc.embed_token(t).tobytes() \
                == token_vector(t, 8, 4).tobytes()


def test_empty_token_rejected():
    with pytest.raises(InputError):
        hashing_encoder().embed_token("")


def test_random_token_pairs_near_orthogonal_dim128():
    enc = hashing_encoder(dim=128)
    rng = np.random.default_rng(42)
    coss = []
    for _ in range(1000):
        a, b = rng.integers(0, 10**9, size=2)
        if a == b:
            continue
        coss.append(abs(cos(enc.embed_token(f"tok{a}"), enc.embed_token(f"tok{b}"))))
    assert np.mean(coss) <= 0.15


# ---------------------------------------------------------------- cells

# A one-cell column embeds as its cell: (0 + m) / 1 == m, bit for bit.

def test_cell_single_token_equals_token_vector():
    enc = hashing_encoder()
    np.testing.assert_array_equal(enc.embed_column(["apple"]), enc.embed_token("apple"))


def test_cell_mean_of_tokens():
    enc = hashing_encoder()
    expected = (enc.embed_token("new") + enc.embed_token("york")) / 2
    np.testing.assert_allclose(enc.embed_column(["New York"]), expected, atol=1e-12)


def test_cell_as_single_token_mode():
    enc = hashing_encoder(cell_as_single_token=True)
    got = enc.embed_column(["New York"])
    np.testing.assert_array_equal(got, enc.embed_token("new_york"))
    # differs from the token-mean embedding of the same cell
    plain = hashing_encoder().embed_column(["New York"])
    assert not np.allclose(got, plain)


# ---------------------------------------------------------------- columns

def test_column_of_repeated_cell_equals_cell():
    enc = hashing_encoder()
    one = enc.embed_column(["lisbon"])
    np.testing.assert_array_equal(one, enc.embed_token("lisbon"))
    np.testing.assert_allclose(enc.embed_column(["lisbon"] * 3), one, atol=1e-12)


def test_column_mean_midpoint_oracle():
    enc = hashing_encoder()
    got = enc.embed_column(["alpha beta", "gamma"])
    expected = (enc.embed_column(["alpha beta"]) + enc.embed_column(["gamma"])) / 2
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_column_skips_empty_and_tokenless_cells():
    enc = hashing_encoder()
    with_junk = enc.embed_column(["x", "", "??", "y"])
    clean = enc.embed_column(["x", "y"])
    np.testing.assert_allclose(with_junk, clean, atol=1e-12)


def test_column_order_invariant():
    enc = hashing_encoder()
    a = enc.embed_column(["one", "two", "three"])
    b = enc.embed_column(["three", "one", "two"])
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_column_all_tokenless_rejected():
    with pytest.raises(EmptyColumnError):
        hashing_encoder().embed_column(["", "--", ""])


def test_disjoint_columns_concentrate_near_zero_dim512():
    enc = hashing_encoder(dim=512)
    rng = np.random.default_rng(7)
    coss = []
    for i in range(500):
        # single-token cells; "left"/"right" vocabularies never overlap
        left = [f"left{i}q{j}" for j in range(rng.integers(3, 8))]
        right = [f"right{i}q{j}" for j in range(rng.integers(3, 8))]
        coss.append(cos(enc.embed_column(left), enc.embed_column(right)))
    assert abs(np.mean(coss)) < 0.05


# ---------------------------------------------------------------- vector files

def _write_vectors(path, rows):
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def test_load_vectors_basic(tmp_path):
    p = tmp_path / "v.txt"
    _write_vectors(p, ["cat 1.0 0.0 0.0", "dog 0.0 1.0 0.0"])
    vt = load_vectors(p)
    assert vt.dim == 3
    np.testing.assert_array_equal(vt.get("cat"), [1.0, 0.0, 0.0])
    assert vt.get("fish") is None


def test_load_vectors_duplicate_last_wins(tmp_path):
    p = tmp_path / "v.txt"
    _write_vectors(p, ["cat 1 0", "cat 0 1"])
    vt = load_vectors(p)
    np.testing.assert_array_equal(vt.get("cat"), [0.0, 1.0])


def test_load_vectors_inconsistent_dim(tmp_path):
    p = tmp_path / "v.txt"
    _write_vectors(p, ["cat 1 0", "dog 1 0 0"])
    with pytest.raises(InputError):
        load_vectors(p)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "Infinity"])
def test_load_vectors_rejects_non_finite_values(tmp_path, bad):
    p = tmp_path / "v.txt"
    _write_vectors(p, ["cat 1 0 0", f"dog 0 {bad} 0"])
    with pytest.raises(InputError, match=f"{p}:2: non-finite"):
        load_vectors(p)


def test_vector_file_below_the_dim_floor_rejected(tmp_path):
    p = tmp_path / "v.txt"
    _write_vectors(p, ["cat 1 0 0", "dog 0 1 0"])
    with pytest.raises(InputError, match=f"{p}: .*got 3"):
        Encoder(EncoderConfig(backend="vector_file", vector_file_path=str(p)))


def test_load_vectors_empty_file(tmp_path):
    p = tmp_path / "v.txt"
    p.write_text("", encoding="utf-8")
    with pytest.raises(InputError):
        load_vectors(p)


def test_vector_backend_uses_file_and_falls_back(tmp_path):
    p = tmp_path / "v.txt"
    _write_vectors(p, ["cat 1 0 0 0 0 0 0 0", "dog 0 1 0 0 0 0 0 0"])
    enc = Encoder(EncoderConfig(backend="vector_file", vector_file_path=str(p), hash_seed=5))
    assert enc.dim == 8  # dim comes from the file
    np.testing.assert_array_equal(enc.embed_token("cat"), [1, 0, 0, 0, 0, 0, 0, 0])
    # out-of-vocabulary token: deterministic hashed fallback, stable across encoders
    a = enc.embed_token("zebra")
    b = Encoder(EncoderConfig(backend="vector_file", vector_file_path=str(p), hash_seed=5)).embed_token("zebra")
    np.testing.assert_array_equal(a, b)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)


def test_vector_backend_leaves_callers_config_alone(tmp_path):
    p = tmp_path / "v.txt"
    _write_vectors(p, ["cat 1 0 0 0 0 0 0 0", "dog 0 1 0 0 0 0 0 0"])
    cfg = EncoderConfig(backend="vector_file", vector_file_path=str(p), dim=64)
    enc = Encoder(cfg)
    assert enc.cfg.dim == 8
    assert cfg.dim == 64


def test_vector_backend_requires_path():
    with pytest.raises(ConfigError):
        Encoder(EncoderConfig(backend="vector_file", vector_file_path=None))


def test_unknown_backend_rejected():
    with pytest.raises(ConfigError):
        Encoder(EncoderConfig(backend="transformer"))


def test_nonpositive_dim_rejected():
    with pytest.raises(ConfigError):
        Encoder(EncoderConfig(dim=0))


# ---------------------------------------------------------------- cell memo

# Repeated cells, token-less cells, a cell whose tokens differ from another
# cell's only in case and punctuation, and vector-file words.
MEMO_COLUMNS = [
    ["apple pie", "apple pie", "", "--", "Apple  PIE!", "cat 7", "apple pie"],
    ["cat 7", "--", "dog", "dog", "", "zebra dog cat"],
    ["dog"],
]


def _assert_warm_equals_fresh(make_encoder) -> None:
    warm = make_encoder()
    for values in MEMO_COLUMNS:
        warm.embed_column(values)
    for values in MEMO_COLUMNS + MEMO_COLUMNS[::-1]:
        fresh = make_encoder().embed_column(values)
        assert warm.embed_column(values).tobytes() == fresh.tobytes()


@pytest.mark.parametrize("single", [False, True])
def test_warm_encoder_embeds_bit_for_bit_like_a_fresh_one(single):
    _assert_warm_equals_fresh(
        lambda: hashing_encoder(dim=32, seed=4, cell_as_single_token=single))


def test_warm_vector_file_encoder_embeds_like_a_fresh_one(tmp_path):
    p = tmp_path / "v.txt"
    _write_vectors(p, ["cat 1 0 0 0.5 0 0 0 0", "dog 0 1 0 0 0 0 0 0",
                       "pie 0.25 0 1 0 0 0 0 0"])
    _assert_warm_equals_fresh(lambda: Encoder(EncoderConfig(
        backend="vector_file", vector_file_path=str(p), hash_seed=5)))


def test_cells_past_the_cap_embed_like_a_fresh_encoder():
    cells = [f"cell{i} x" for i in range(CELL_CACHE_CAP + 40)]
    warm = hashing_encoder(dim=8)
    warm.embed_column(cells)
    assert len(warm._cell_means) == CELL_CACHE_CAP   # the memo stays bounded
    for values in (cells[-60:], cells[:5] + cells[-5:]):
        fresh = hashing_encoder(dim=8).embed_column(values)
        assert warm.embed_column(values).tobytes() == fresh.tobytes()


# ---------------------------------------------------------------- shared memos

def _signed_zero_vectors(path):
    """Word vectors holding -0.0 entries next to +0.0 ones."""
    _write_vectors(path, ["cat -0.0 0.0 1 -0.0 0.5 0 0 0",
                          "dog 0 -0.0 0 1 -0.0 0.25 0 -0.0"])


@pytest.mark.parametrize("backend", ["hashing", "vector_file"])
def test_memoized_arrays_are_read_only(tmp_path, backend):
    p = tmp_path / "v.txt"
    _signed_zero_vectors(p)
    cfg = EncoderConfig(backend=backend, dim=8, hash_seed=5,
                        vector_file_path=str(p) if backend == "vector_file"
                        else None)
    enc = Encoder(cfg)
    values = ["cat", "zebra", "cat dog", "zebra cat", "", "cat"]
    before = enc.embed_column(values).tobytes()
    for token in ("cat", "zebra"):
        vec = enc.embed_token(token)
        with pytest.raises(ValueError):
            vec[0] = 7.0
        with pytest.raises(ValueError):
            vec += 1.0
    assert all(not mean.flags.writeable
               for mean in enc._cell_means.values() if mean is not None)
    assert enc.embed_column(values).tobytes() == before
    assert Encoder(cfg).embed_column(values).tobytes() == before


@pytest.mark.parametrize("single", [False, True])
def test_signed_zero_single_token_cells_embed_like_fresh_means(tmp_path,
                                                                single):
    """A one-token cell's mean is its token's vector itself, -0.0 entries
    and all; the column sums start at +0.0, so every path gives the bits of
    a fresh ``(0.0 + v) / 1`` mean."""
    p = tmp_path / "v.txt"
    _signed_zero_vectors(p)
    enc = Encoder(EncoderConfig(backend="vector_file", vector_file_path=str(p),
                                hash_seed=5, cell_as_single_token=single))
    assert np.signbit(enc.embed_token("cat")[[0, 3]]).all()
    columns = {"a": ["cat"], "b": ["cat", "cat"], "c": ["dog", "", "cat"],
               "d": ["cat dog", "dog"], "e": ["zebra", "cat", "??"]}
    lake = make_corpus({"t": columns})
    want = [column_embedding(enc, values) for values in columns.values()]
    assert want[0].tobytes() == np.array([0, 0, 1, 0, 0.5, 0, 0, 0.0]).tobytes()
    for values, ref in zip(columns.values(), want):
        assert enc.embed_column(values).tobytes() == ref.tobytes()
    (block,) = cell_blocks(lake.tables[0].columns)
    assert enc.embed_block(block).tobytes() == np.stack(want).tobytes()

    head = init_head(8, 8, 8, seed=3)
    engine = build_engine(lake, enc, head, IndexConfig(seed=1))
    wide = widened(head)
    for row, ref in enumerate(want):
        assert engine.semantic_index.vector(engine.keys[row]).tobytes() == \
            project(wide, ref).astype(np.float32).tobytes()
