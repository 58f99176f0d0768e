import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from unionsearch.errors import ConfigError, DuplicateKeyError, InputError, NumericError
from unionsearch.lshindex import CosineLshIndex, MinHashIndex
from unionsearch.search import attribute_unionability
from unionsearch.syntactic import jaccard

from conftest import rotate_from, unit


# ---------------------------------------------------------------- cosine signatures

def test_signature_deterministic_and_binary():
    idx = CosineLshIndex(dim=16, seed=3)
    v = np.random.default_rng(0).standard_normal(16)
    s1, s2 = idx.signature(v), idx.signature(v)
    np.testing.assert_array_equal(s1, s2)
    assert s1.shape == (256,)
    assert set(np.unique(s1)) <= {0, 1}


def test_signature_scale_invariant():
    idx = CosineLshIndex(dim=16, seed=3)
    v = np.random.default_rng(1).standard_normal(16)
    np.testing.assert_array_equal(idx.signature(v), idx.signature(2.0 * v))
    np.testing.assert_array_equal(idx.signature(v), idx.signature(0.001 * v))


def test_signature_sign_flip_complements():
    idx = CosineLshIndex(dim=16, seed=4)
    v = np.random.default_rng(2).standard_normal(16)
    s, sneg = idx.signature(v), idx.signature(-v)
    # random planes almost surely avoid exact-zero dot products
    np.testing.assert_array_equal(sneg, 1 - s)


def test_per_bit_collision_rate_matches_angle():
    # agreement probability for angle theta is 1 - theta/pi
    idx = CosineLshIndex(dim=8, n_planes=10_000, n_bands=1000, rows_per_band=10, seed=9)
    rng = np.random.default_rng(5)
    a = unit(rng.standard_normal(8))
    helper = rng.standard_normal(8)
    theta = np.pi / 3
    b = rotate_from(a, helper, np.cos(theta))
    agree = float(np.mean(idx.signature(a) == idx.signature(b)))
    assert agree == pytest.approx(1 - theta / np.pi, abs=0.02)


def test_signature_is_float64_plane_signs():
    idx = CosineLshIndex(dim=16, seed=7)
    rng = np.random.default_rng(31)
    planes = idx.planes.astype(np.float64)
    for _ in range(20):
        v = rng.standard_normal(16).astype(np.float32)
        want = (planes @ v.astype(np.float64) >= 0).astype(np.uint8)
        np.testing.assert_array_equal(idx.signature(v), want)


def test_band_plane_consistency_enforced():
    with pytest.raises(ConfigError):
        CosineLshIndex(dim=8, n_planes=256, n_bands=10, rows_per_band=10)


@pytest.mark.parametrize("n_bands, rows_per_band", [(0, 8), (8, 0), (-2, -4)])
def test_cosine_empty_bands_rejected(n_bands, rows_per_band):
    with pytest.raises(ConfigError, match="bands and rows must be >= 1"):
        CosineLshIndex(dim=8, n_planes=n_bands * rows_per_band,
                       n_bands=n_bands, rows_per_band=rows_per_band)


# ---------------------------------------------------------------- cosine index

def test_insert_lookup_self_retrieval():
    idx = CosineLshIndex(dim=12, seed=0)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(12)
    idx.insert(("t", 0), v)
    assert idx.size == 1
    hits = idx.lookup(v, threshold=0.99)
    assert hits[0][0] == ("t", 0)
    assert hits[0][1] == pytest.approx(1.0, abs=1e-6)


def test_duplicate_key_rejected():
    idx = CosineLshIndex(dim=8)
    v = np.ones(8)
    idx.insert(("t", 0), v)
    with pytest.raises(DuplicateKeyError):
        idx.insert(("t", 0), v)


def test_zero_vector_rejected():
    idx = CosineLshIndex(dim=8)
    with pytest.raises(NumericError):
        idx.insert(("t", 0), np.zeros(8))
    with pytest.raises(NumericError):
        idx.lookup(np.zeros(8), threshold=0.5)


def test_lookup_empty_index():
    idx = CosineLshIndex(dim=8)
    assert idx.lookup(np.ones(8), threshold=0.5) == []


def test_lookup_scores_are_exact_cosines():
    idx = CosineLshIndex(dim=10, seed=1)
    rng = np.random.default_rng(7)
    for i in range(40):
        idx.insert(("t", i), rng.standard_normal(10))
    q = rng.standard_normal(10)
    hits = idx.lookup(q, threshold=-1.0)
    assert hits
    for key, score in hits:
        assert score == attribute_unionability(q.astype(np.float32),
                                               idx.vector(key))


def test_lookup_sorted_and_thresholded():
    idx = CosineLshIndex(dim=6, seed=2)
    rng = np.random.default_rng(11)
    for i in range(30):
        idx.insert(("t", i), rng.standard_normal(6))
    q = rng.standard_normal(6)
    hits = idx.lookup(q, threshold=0.2)
    scores = [s for _, s in hits]
    assert scores == sorted(scores, reverse=True)
    assert all(s >= 0.2 for s in scores)


def test_lookup_subset_of_scan():
    idx = CosineLshIndex(dim=6, n_planes=64, n_bands=16, rows_per_band=4, seed=5)
    rng = np.random.default_rng(13)
    for i in range(200):
        idx.insert(("t", i), rng.standard_normal(6))
    q = rng.standard_normal(6)
    got = dict(idx.lookup(q, threshold=0.3))
    full = _brute_force_cosines(idx, q, threshold=0.3)
    assert set(got) <= set(full)
    for k, s in got.items():
        assert s == full[k]


def _brute_force_cosines(idx: CosineLshIndex, q, threshold: float) -> dict:
    """Every stored row scored one at a time, as the exhaustive search does."""
    qv = np.asarray(q, dtype=np.float32)
    scores = {k: attribute_unionability(qv, idx.vector(k))
              for k in map(idx.key_of, range(idx.size))}
    return {k: s for k, s in scores.items() if s >= threshold}


# Vectors that share a common component collide with most of the index
# (about 7.7k of the 12k rows per lookup): enough rows for OpenBLAS to split
# a matrix product across threads.
_THREADS_SCRIPT = """
import hashlib
import numpy as np
from unionsearch.lshindex import CosineLshIndex
rng = np.random.default_rng(5)
common = rng.standard_normal(128)
idx = CosineLshIndex(dim=128, seed=3)
for i in range(12000):
    idx.insert(("t", i), common + rng.standard_normal(128))
digest = hashlib.sha256()
for _ in range(20):
    hits = idx.lookup(common + rng.standard_normal(128), threshold=-1.0)
    digest.update(repr(hits).encode())
print(digest.hexdigest())
"""


def test_lookup_scores_do_not_depend_on_blas_threads():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT], env=env,
                              capture_output=True, text=True, check=True)
        digests.append(done.stdout)
    assert digests[0] == digests[1]


def test_insert_copies_the_callers_vector():
    idx = CosineLshIndex(dim=8, seed=1)
    rng = np.random.default_rng(29)
    v = rng.standard_normal(8).astype(np.float32)
    idx.insert(("t", 0), v)
    q = v.copy()
    before = idx.lookup(q, threshold=-1.0)
    v[:] = -v  # the caller reuses its buffer
    assert idx.lookup(q, threshold=-1.0) == before
    np.testing.assert_array_equal(idx.vector(("t", 0)), q)


def test_high_similarity_neighbors_retrieved():
    # tight cluster + noise: banded lookup must recover the cluster
    idx = CosineLshIndex(dim=24, seed=6)
    rng = np.random.default_rng(17)
    center = unit(rng.standard_normal(24))
    planted = []
    for i in range(20):
        v = rotate_from(center, rng.standard_normal(24), float(rng.uniform(0.92, 0.995)))
        planted.append(("hit", i))
        idx.insert(("hit", i), v)
    for i in range(500):
        idx.insert(("noise", i), rng.standard_normal(24))
    hits = {k for k, _ in idx.lookup(center, threshold=0.7)}
    assert set(planted) <= hits


def test_each_key_lands_in_exactly_n_bands_buckets():
    idx = CosineLshIndex(dim=8, n_planes=64, n_bands=16, rows_per_band=4, seed=8)
    rng = np.random.default_rng(19)
    for i in range(25):
        idx.insert(("t", i), rng.standard_normal(8))
    counts = {}
    for band in idx.buckets:  # bucket table introspection
        for rows in band.values():
            for row in rows:
                key = idx.key_of(row)
                counts[key] = counts.get(key, 0) + 1
    assert all(c == 16 for c in counts.values())
    assert len(counts) == 25


def _colliding_keys(idx: CosineLshIndex, q) -> set:
    """Keys of the rows that share at least one band with q."""
    bits = idx.signature(q).reshape(idx.n_bands, idx.rows_per_band)
    keys = set()
    for band, row in enumerate(bits):
        rows = idx.buckets[band].get(np.packbits(row).tobytes(), ())
        keys.update(idx.key_of(r) for r in rows)
    return keys


@pytest.mark.parametrize("seed", range(5))
def test_lookup_is_brute_force_over_colliding_rows(seed):
    rng = np.random.default_rng(100 + seed)
    idx = CosineLshIndex(dim=8, n_planes=48, n_bands=12, rows_per_band=4,
                         seed=seed)
    # Keys inserted out of key order, so row numbers and key order differ.
    for i in rng.permutation(300):
        idx.insert((f"t{i % 7}", int(i)), rng.standard_normal(8))
    for threshold in (-1.0, 0.0, 0.5):
        q = rng.standard_normal(8)
        qv = unit(np.asarray(q, dtype=np.float32).astype(np.float64))
        scores = {k: float(unit(idx.vector(k).astype(np.float64)) @ qv)
                  for k in _colliding_keys(idx, q)}
        want = sorted(((k, s) for k, s in scores.items() if s >= threshold),
                      key=lambda kv: (-kv[1], kv[0]))
        got = idx.lookup(q, threshold)
        assert [k for k, _ in got] == [k for k, _ in want]
        for (_, s), (_, w) in zip(got, want):
            assert s == pytest.approx(w, abs=1e-12)


def test_cosine_between_stored_keys():
    idx = CosineLshIndex(dim=5)
    idx.insert(("a", 0), np.array([1.0, 0, 0, 0, 0]))
    idx.insert(("b", 0), np.array([0.0, 2.0, 0, 0, 0]))
    a, b = idx.vector(("a", 0)), idx.vector(("b", 0))
    assert float(unit(a) @ unit(b)) == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_array_equal(b, [0.0, 2.0, 0, 0, 0])
    assert not b.flags.writeable
    with pytest.raises(InputError):
        idx.vector(("missing", 0))


def test_dim_mismatch_rejected():
    idx = CosineLshIndex(dim=8)
    with pytest.raises(ConfigError):
        idx.insert(("t", 0), np.ones(9))


# ---------------------------------------------------------------- minhash

def _range_set(lo: int, hi: int) -> frozenset[str]:
    return frozenset(f"tok{i}" for i in range(lo, hi))


def test_minhash_signature_deterministic():
    idx = MinHashIndex(seed=0)
    s = _range_set(0, 30)
    np.testing.assert_array_equal(idx.signature(s), idx.signature(set(s)))
    assert idx.signature(s).shape == (128,)
    other = MinHashIndex(seed=1)
    assert not np.array_equal(idx.signature(s), other.signature(s))


def test_minhash_empty_set_rejected():
    idx = MinHashIndex()
    with pytest.raises(InputError):
        idx.signature(frozenset())
    with pytest.raises(InputError):
        idx.insert(("t", 0), frozenset())


def test_minhash_collision_rate_tracks_jaccard():
    # |A|=|B|=120 overlapping in 80 -> J = 80/160 = 0.5
    idx = MinHashIndex(n_perms=4096, n_bands=1024, rows_per_band=4, seed=2)
    a, b = _range_set(0, 120), _range_set(40, 160)
    rate = float(np.mean(idx.signature(a) == idx.signature(b)))
    assert rate == pytest.approx(0.5, abs=0.02)


def test_minhash_lookup_exact_rescoring():
    idx = MinHashIndex(seed=3)
    idx.insert(("a", 0), _range_set(0, 100))
    idx.insert(("b", 0), _range_set(20, 120))  # J = 80/120 = 2/3, reliably banded
    idx.insert(("c", 0), _range_set(500, 600))
    hits = dict(idx.lookup(_range_set(0, 100), threshold=0.2))
    assert hits[("a", 0)] == pytest.approx(1.0)
    assert hits.get(("b", 0)) == pytest.approx(80 / 120)  # exact, not estimated
    assert ("c", 0) not in hits


def test_minhash_jaccard_and_duplicate():
    idx = MinHashIndex()
    idx.insert(("a", 0), _range_set(0, 4))
    idx.insert(("b", 0), _range_set(2, 6))
    a, b = idx.token_sets[("a", 0)], idx.token_sets[("b", 0)]
    assert jaccard(a, b) == pytest.approx(2 / 6)
    with pytest.raises(DuplicateKeyError):
        idx.insert(("a", 0), _range_set(0, 4))


def test_minhash_band_shape_validation():
    with pytest.raises(ConfigError):
        MinHashIndex(n_perms=128, n_bands=3, rows_per_band=4)


@pytest.mark.parametrize("n_bands, rows_per_band", [(0, 4), (4, 0), (-2, -4)])
def test_minhash_empty_bands_rejected(n_bands, rows_per_band):
    with pytest.raises(ConfigError, match="bands and rows must be >= 1"):
        MinHashIndex(n_perms=n_bands * rows_per_band, n_bands=n_bands,
                     rows_per_band=rows_per_band)


def test_minhash_lookup_sorted_subset_of_scan():
    idx = MinHashIndex(n_perms=64, n_bands=16, rows_per_band=4, seed=5)
    rng = np.random.default_rng(23)
    for i in range(100):
        lo = int(rng.integers(0, 50))
        idx.insert(("t", i), _range_set(lo, lo + 40))
    q = _range_set(10, 50)
    got = idx.lookup(q, threshold=0.3)
    scores = [s for _, s in got]
    assert scores == sorted(scores, reverse=True)
    full = {k: jaccard(q, tokens) for k, tokens in idx.token_sets.items()}
    assert set(dict(got)) <= {k for k, s in full.items() if s >= 0.3}
    for k, s in got:
        assert s == full[k]
