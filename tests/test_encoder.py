import numpy as np
import pytest

from unionsearch.encoder import Encoder, EncoderConfig, load_vectors
from unionsearch.errors import ConfigError, EmptyColumnError, InputError


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
    assert vt.duplicate_count == 0


def test_load_vectors_duplicate_last_wins(tmp_path):
    p = tmp_path / "v.txt"
    _write_vectors(p, ["cat 1 0", "cat 0 1"])
    vt = load_vectors(p)
    np.testing.assert_array_equal(vt.get("cat"), [0.0, 1.0])
    assert vt.duplicate_count == 1


def test_load_vectors_inconsistent_dim(tmp_path):
    p = tmp_path / "v.txt"
    _write_vectors(p, ["cat 1 0", "dog 1 0 0"])
    with pytest.raises(InputError):
        load_vectors(p)


def test_load_vectors_empty_file(tmp_path):
    p = tmp_path / "v.txt"
    p.write_text("", encoding="utf-8")
    with pytest.raises(InputError):
        load_vectors(p)


def test_vector_backend_uses_file_and_falls_back(tmp_path):
    p = tmp_path / "v.txt"
    _write_vectors(p, ["cat 1 0 0 0", "dog 0 1 0 0"])
    enc = Encoder(EncoderConfig(backend="vector_file", vector_file_path=str(p), hash_seed=5))
    assert enc.dim == 4  # dim comes from the file
    np.testing.assert_array_equal(enc.embed_token("cat"), [1, 0, 0, 0])
    # out-of-vocabulary token: deterministic hashed fallback, stable across encoders
    a = enc.embed_token("zebra")
    b = Encoder(EncoderConfig(backend="vector_file", vector_file_path=str(p), hash_seed=5)).embed_token("zebra")
    np.testing.assert_array_equal(a, b)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)


def test_vector_backend_leaves_callers_config_alone(tmp_path):
    p = tmp_path / "v.txt"
    _write_vectors(p, ["cat 1 0 0 0", "dog 0 1 0 0"])
    cfg = EncoderConfig(backend="vector_file", vector_file_path=str(p), dim=64)
    enc = Encoder(cfg)
    assert enc.cfg.dim == 4
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
