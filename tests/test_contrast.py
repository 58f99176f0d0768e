import math

import numpy as np
import pytest

from unionsearch.contrast import (
    OFFLINE,
    ONLINE,
    OfflinePair,
    build_offline_pairs,
    build_online_batch,
    nt_xent_loss,
    read_offline_pairs,
    train,
    write_loss_history,
    write_offline_pairs,
)
from unionsearch.encoder import Encoder, EncoderConfig
from unionsearch.errors import ConfigError, InputError, NumericError
from unionsearch.projection import TrainConfig, init_head

from conftest import make_corpus, make_table, unit


# ---------------------------------------------------------------- online batches

def _two_tables():
    a = make_table("a", {"x": ["red", "green", "blue"], "y": ["1", "2", "3"]})
    b = make_table("b", {"p": ["cat", "dog", "fox"]})
    return [a, b]


def test_online_batch_shape_and_pairing():
    batch = build_online_batch(_two_tables(), s=5, seed=0)
    assert batch.m_pairs == 3
    assert len(batch.samples) == 6
    keys = [s.column_key for s in batch.samples]
    # instance k and k+M come from the same column, with distinct draws
    for k in range(batch.m_pairs):
        assert keys[k] == keys[k + batch.m_pairs]
        assert batch.samples[k].seed_used != batch.samples[k + batch.m_pairs].seed_used
    assert all(len(s.sampled_values) == 5 for s in batch.samples)


def test_online_batch_values_subset_of_source():
    tables = _two_tables()
    batch = build_online_batch(tables, s=8, seed=1)
    by_key = {c.column_key: set(c.values) for t in tables for c in t.columns}
    for s in batch.samples:
        assert set(s.sampled_values) <= by_key[s.column_key]


def test_online_batch_deterministic():
    a = build_online_batch(_two_tables(), s=6, seed=42)
    b = build_online_batch(_two_tables(), s=6, seed=42)
    assert [s.sampled_values for s in a.samples] == [s.sampled_values for s in b.samples]
    c = build_online_batch(_two_tables(), s=6, seed=43)
    assert [s.sampled_values for s in a.samples] != [s.sampled_values for s in c.samples]


def test_online_batch_needs_two_tables():
    with pytest.raises(InputError):
        build_online_batch(_two_tables()[:1], s=5, seed=0)


def test_online_batch_rejected_without_negatives():
    blank = make_table("blank", {"v": ["", "--"]})
    ok = make_table("ok", {"w": ["word", "word"]})
    with pytest.raises(NumericError):
        build_online_batch([blank, ok], s=5, seed=0)


def test_pair_counting_two_m_positives():
    batch = build_online_batch(_two_tables(), s=4, seed=0)
    n = len(batch.samples)
    M = batch.m_pairs
    keys = [s.column_key for s in batch.samples]
    positives = sum(1 for k in range(n) if keys[k] == keys[(k + M) % n])
    assert positives == 2 * M
    unordered_negatives = sum(
        1 for i in range(n) for j in range(i + 1, n)
        if j != i + M  # everything but the planted pairings
    )
    assert unordered_negatives == 2 * M * (M - 1)


# ---------------------------------------------------------------- loss values

def test_loss_single_pair_is_zero():
    E = np.stack([unit([1.0, 0.2]), unit([0.3, 1.0])])
    loss, grad = nt_xent_loss(E, temperature=0.5)
    # with one pair the softmax has a single term: -log(1) = 0, flat everywhere
    assert loss == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(grad, 0.0, atol=1e-15)


def test_loss_identical_embeddings_log_2m_minus_1():
    for M in (2, 3, 5):
        E = np.tile(unit([0.4, -1.0, 0.2]), (2 * M, 1))
        loss, _ = nt_xent_loss(E, temperature=0.3)
        assert loss == pytest.approx(math.log(2 * M - 1), abs=1e-9)


def test_loss_hand_case_two_orthogonal_pairs():
    # pairs (e1, e1) and (e2, e2), temperature 1: loss = log(2 + e) - 1
    E = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    loss, _ = nt_xent_loss(E, temperature=1.0)
    assert loss == pytest.approx(math.log(2.0 + math.e) - 1.0, abs=1e-12)
    assert loss == pytest.approx(0.5514, abs=1e-4)


def test_loss_scale_invariance():
    rng = np.random.default_rng(3)
    E = rng.standard_normal((8, 5))
    l1, _ = nt_xent_loss(E, temperature=0.2)
    l2, _ = nt_xent_loss(3.0 * E, temperature=0.2)
    assert l2 == pytest.approx(l1, abs=1e-12)


def test_loss_symmetric_under_half_swap():
    rng = np.random.default_rng(4)
    E = rng.standard_normal((10, 6))
    M = 5
    swapped = np.vstack([E[M:], E[:M]])
    assert nt_xent_loss(swapped, 0.4)[0] == pytest.approx(nt_xent_loss(E, 0.4)[0], abs=1e-12)


def test_loss_decreases_as_positive_alignment_grows():
    # fixed negatives; rotate the partner of instance 0 toward it
    rng = np.random.default_rng(5)
    fixed = rng.standard_normal((2, 8))  # instances 1 and 3 (second pair)
    anchor = unit(rng.standard_normal(8))
    other = unit(rng.standard_normal(8))
    losses = []
    for c in (0.1, 0.4, 0.7, 0.95):
        partner = unit(c * anchor + math.sqrt(1 - c * c) * (other - (other @ anchor) * anchor) / np.linalg.norm(other - (other @ anchor) * anchor))
        E = np.vstack([anchor, fixed[0], partner, fixed[1]])
        losses.append(nt_xent_loss(E, 0.5)[0])
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_loss_zero_norm_instance_reported():
    E = np.array([[1.0, 0.0], [0.0, 0.0], [0.5, 0.5], [0.2, 0.9]])
    with pytest.raises(NumericError, match="instance 1"):
        nt_xent_loss(E, 0.5)


def test_loss_shape_and_temperature_validation():
    with pytest.raises(ConfigError):
        nt_xent_loss(np.zeros((3, 2)), 0.5)  # odd count
    with pytest.raises(ConfigError):
        nt_xent_loss(np.ones((4, 2)), 0.0)


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    for trial in range(3):
        M = int(rng.integers(2, 5))
        d = int(rng.integers(3, 7))
        tau = float(rng.uniform(0.1, 1.0))
        E = rng.standard_normal((2 * M, d))
        _, grad = nt_xent_loss(E, tau)
        h = 1e-6
        fd = np.zeros_like(E)
        for i in range(2 * M):
            for j in range(d):
                Ep, Em = E.copy(), E.copy()
                Ep[i, j] += h
                Em[i, j] -= h
                fd[i, j] = (nt_xent_loss(Ep, tau)[0] - nt_xent_loss(Em, tau)[0]) / (2 * h)
        assert np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12) < 1e-6


# ---------------------------------------------------------------- offline pairs

def test_offline_pairs_exact_clone_scores_one():
    corpus = make_corpus({
        "t1": {"color": ["red", "blue", "red"]},
        "t2": {"shade": ["red", "blue", "red"]},
        "t3": {"animal": ["stork", "heron", "crane"]},
    })
    pairs = build_offline_pairs(corpus, floor=0.5)
    best = {frozenset((p.column_key_a, p.column_key_b)): p.match_score for p in pairs}
    assert best[frozenset((("t1", 0), ("t2", 0)))] == pytest.approx(1.0)
    # the bird column shares no token with anything and stays unpaired
    assert all(("t3", 0) not in fs for fs in best)


def test_offline_pairs_value_overlap_example():
    corpus = make_corpus({
        "u": {"c1": ["a", "b"]},
        "v": {"c2": ["a", "b", "c"]},
        "w": {"c3": ["x", "y"]},
    })
    pairs = build_offline_pairs(corpus, floor=0.5)
    assert len(pairs) == 1
    (p,) = pairs
    assert {p.column_key_a, p.column_key_b} == {("u", 0), ("v", 0)}
    assert p.match_score == pytest.approx(2.0 / 3.0)


def test_offline_pairs_floor_filters():
    corpus = make_corpus({
        "u": {"c1": ["a", "b"]},
        "v": {"c2": ["a", "b", "c"]},
        "w": {"c3": ["x", "y"]},
    })
    assert build_offline_pairs(corpus, floor=0.7) == []


def test_offline_pairs_deduped_and_sorted():
    corpus = make_corpus({
        "t1": {"a": ["p", "q"], "b": ["m", "n"]},
        "t2": {"a": ["p", "q"], "b": ["m", "n"]},
        "t3": {"a": ["p", "q", "r"]},
    })
    pairs = build_offline_pairs(corpus, floor=0.1)
    seen = {frozenset((p.column_key_a, p.column_key_b)) for p in pairs}
    assert len(seen) == len(pairs)  # no unordered duplicates
    scores = [p.match_score for p in pairs]
    assert scores == sorted(scores, reverse=True)
    for p in pairs:  # canonical endpoint order inside a pair
        assert p.column_key_a < p.column_key_b


def test_offline_pairs_floor_validation():
    corpus = make_corpus({"a": {"c": ["x"]}, "b": {"c": ["x"]}})
    with pytest.raises(ConfigError):
        build_offline_pairs(corpus, floor=0.0)
    with pytest.raises(ConfigError):
        build_offline_pairs(corpus, floor=1.5)


def test_offline_pairs_deterministic():
    corpus = make_corpus({
        "t1": {"a": ["p", "q"], "b": ["m", "n"]},
        "t2": {"a": ["p", "r"], "b": ["m", "o"]},
    })
    p1 = build_offline_pairs(corpus, floor=0.05)
    p2 = build_offline_pairs(corpus, floor=0.05)
    assert p1 == p2


def test_offline_pairs_file_roundtrip(tmp_path):
    pairs = [
        OfflinePair(("ta", 0), ("tb", 1), 0.875),
        OfflinePair(("t:odd", 2), ("tc", 0), 0.5),  # id containing a colon
    ]
    path = tmp_path / "pairs.csv"
    # 0.1 + 0.2 is no short decimal: the floor must round-trip exactly.
    write_offline_pairs(path, pairs, 0.1 + 0.2, "9f" * 16)
    assert read_offline_pairs(path, 0.1 + 0.2, "9f" * 16) == pairs


@pytest.mark.parametrize("floor, digest", [(0.3, "9f" * 16), (0.5, "9e" * 16)])
def test_offline_pairs_from_other_inputs_not_read(tmp_path, floor, digest):
    path = tmp_path / "pairs.csv"
    write_offline_pairs(path, [OfflinePair(("ta", 0), ("tb", 1), 0.875)],
                        0.5, "9f" * 16)
    assert read_offline_pairs(path, floor, digest) is None


@pytest.mark.parametrize("row", ["ta:0,tb:1", "ta:0,tb:x,0.5",
                                 "ta:0,tb:1,high"])
def test_read_offline_pairs_bad_row_names_file_and_line(tmp_path, row):
    path = tmp_path / "pairs.csv"
    path.write_text("floor,corpus\n0.5,9f\ncolumn_key_a,column_key_b,score\n"
                    "ta:1,tb:2,0.5\n" + row + "\n", encoding="utf-8")
    with pytest.raises(InputError, match="pairs.csv:5: bad pair row"):
        read_offline_pairs(path, 0.5, "9f")


def test_read_offline_pairs_rejects_garbage(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("column_a,column_b,match_score\nnocolon,alsobad,0.5\n", encoding="utf-8")
    with pytest.raises(InputError):
        read_offline_pairs(path, 0.5, "9f")


def test_read_offline_pairs_without_inputs_rejected(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("column_key_a,column_key_b,score\nta:1,tb:2,0.5\n",
                    encoding="utf-8")
    with pytest.raises(InputError, match="not an offline-pairs file"):
        read_offline_pairs(path, 0.5, "9f")


# ---------------------------------------------------------------- training loop

_GROUP_VOCAB = {
    "fruit": ["apple", "pear", "plum", "grape", "peach", "mango", "melon", "fig"],
    "metal": ["iron", "zinc", "lead", "gold", "tin", "copper", "silver", "nickel"],
    "city": ["lisbon", "porto", "madrid", "paris", "rome", "berlin", "oslo", "bern"],
    "bird": ["stork", "heron", "crane", "finch", "robin", "swift", "owl", "tern"],
}


def _training_corpus(tables_per_group: int = 10):
    """Tables whose single column draws from one of four group vocabularies."""
    tables = {}
    i = 0
    for group, vocab in _GROUP_VOCAB.items():
        for t in range(tables_per_group):
            rng = np.random.default_rng(i)
            i += 1
            tables[f"{group}{t}"] = {
                "items": [vocab[int(rng.integers(0, len(vocab)))] for _ in range(14)]
            }
    return make_corpus(tables)


def _small_cfg(**kw) -> TrainConfig:
    base = dict(temperature=0.2, learning_rate=1e-3, momentum=0.9, epochs=3,
                batch_size=8, sample_size=8, seed=0, validation_fraction=0.1)
    base.update(kw)
    return TrainConfig(**base)


def test_train_online_reduces_loss_and_records_history():
    corpus = _training_corpus()
    enc = Encoder(EncoderConfig(dim=32, hash_seed=1))
    head = init_head(32, 32, 16, seed=2)
    result = train(corpus, enc, head, _small_cfg(epochs=4), strategy=ONLINE)
    train_rows = [(e, v) for e, split, v in result.history if split == "train"]
    assert [e for e, _ in train_rows] == [1, 2, 3, 4]
    assert train_rows[-1][1] < train_rows[0][1]
    val_rows = [(e, v) for e, split, v in result.history if split == "val"]
    assert len(val_rows) == 4  # 40 tables -> validation split is active
    assert 1 <= result.best_epoch <= 4
    assert result.velocity is not None


def test_train_deterministic_bitwise():
    corpus = _training_corpus()
    enc = Encoder(EncoderConfig(dim=32, hash_seed=1))
    r1 = train(corpus, enc, init_head(32, 32, 16, seed=2), _small_cfg(), strategy=ONLINE)
    r2 = train(corpus, enc, init_head(32, 32, 16, seed=2), _small_cfg(), strategy=ONLINE)
    for a, b in zip(r1.head.tensors(), r2.head.tensors()):
        np.testing.assert_array_equal(a, b)
    assert r1.history == r2.history


def test_train_seed_changes_outcome():
    corpus = _training_corpus()
    enc = Encoder(EncoderConfig(dim=32, hash_seed=1))
    r1 = train(corpus, enc, init_head(32, 32, 16, seed=2), _small_cfg(seed=0), strategy=ONLINE)
    r2 = train(corpus, enc, init_head(32, 32, 16, seed=2), _small_cfg(seed=1), strategy=ONLINE)
    assert any(not np.array_equal(a, b) for a, b in zip(r1.head.tensors(), r2.head.tensors()))


def test_train_offline_strategy_runs():
    corpus = _training_corpus()
    enc = Encoder(EncoderConfig(dim=32, hash_seed=1))
    pairs = build_offline_pairs(corpus, floor=0.3)
    assert pairs, "fixture must produce usable pairs"
    result = train(corpus, enc, init_head(32, 32, 16, seed=2), _small_cfg(),
                   strategy=OFFLINE, pairs=pairs)
    assert any(split == "train" for _, split, _ in result.history)


def test_train_unknown_strategy():
    corpus = _training_corpus()
    enc = Encoder(EncoderConfig(dim=32, hash_seed=1))
    with pytest.raises(ConfigError):
        train(corpus, enc, init_head(32, 32, 16), _small_cfg(), strategy="federated")


def test_train_single_table_rejected():
    corpus = make_corpus({"only": {"a": ["x", "y"]}})
    enc = Encoder(EncoderConfig(dim=16, hash_seed=0))
    with pytest.raises(InputError):
        train(corpus, enc, init_head(16, 16, 8), _small_cfg(), strategy=ONLINE)


def test_validation_skipped_for_tiny_corpora():
    corpus = make_corpus({
        "t1": {"a": ["x", "y"]},
        "t2": {"b": ["p", "q"]},
        "t3": {"c": ["m", "n"]},
    })
    enc = Encoder(EncoderConfig(dim=16, hash_seed=0))
    result = train(corpus, enc, init_head(16, 16, 8, seed=1), _small_cfg(epochs=2), strategy=ONLINE)
    assert all(split != "val" for _, split, _ in result.history)


def test_loss_history_file_format(tmp_path):
    path = tmp_path / "loss.csv"
    write_loss_history(path, [(1, "train", 1.25), (1, "val", 1.5)])
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "epoch,split,mean_loss"
    assert lines[1].startswith("1,train,1.25")
