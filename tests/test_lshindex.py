import os
import re
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
              for k in idx.keys}
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
                key = idx.keys[row]
                counts[key] = counts.get(key, 0) + 1
    assert all(c == 16 for c in counts.values())
    assert len(counts) == 25


@pytest.mark.parametrize("n_planes,n_bands,rows_per_band",
                         [(256, 32, 8), (20, 4, 5), (36, 3, 12)])
def test_bucket_keys_are_per_band_packbits(n_planes, n_bands, rows_per_band):
    # Readers outside the index find a row's buckets by these keys.
    idx = CosineLshIndex(dim=16, n_planes=n_planes, n_bands=n_bands,
                         rows_per_band=rows_per_band, seed=6)
    rng = np.random.default_rng(23)
    vectors = rng.standard_normal((40, 16))
    for i, v in enumerate(vectors):
        idx.insert(("t", i), v)
    expected: list[dict[bytes, list[int]]] = [{} for _ in range(n_bands)]
    for row, v in enumerate(vectors):
        bits = idx.signature(v).reshape(n_bands, rows_per_band)
        for band, band_bits in enumerate(bits):
            expected[band].setdefault(np.packbits(band_bits).tobytes(),
                                      []).append(row)
    assert [{k: list(rows) for k, rows in b.items()} for b in idx.buckets] \
        == expected


def _colliding_keys(idx: CosineLshIndex, q) -> set:
    """Keys of the rows that share at least one band with q."""
    bits = idx.signature(q).reshape(idx.n_bands, idx.rows_per_band)
    keys = set()
    for band, row in enumerate(bits):
        rows = idx.buckets[band].get(np.packbits(row).tobytes(), ())
        keys.update(idx.keys[r] for r in rows)
    return keys


@pytest.mark.parametrize("seed", range(5))
def test_lookup_is_brute_force_over_colliding_rows(seed):
    # 48 planes over 8 dims, banded so that a random query collides with
    # about half of 300 random rows (0.45-0.63 on these seeds) or with a
    # fifth of them (0.12-0.25).
    for n_bands, rows_per_band in ((12, 4), (8, 6)):
        rng = np.random.default_rng(100 + seed)
        idx = CosineLshIndex(dim=8, n_planes=48, n_bands=n_bands,
                             rows_per_band=rows_per_band, seed=seed)
        # Keys inserted out of key order, so row numbers and key order differ.
        for i in rng.permutation(300):
            idx.insert((f"t{i % 7}", int(i)), rng.standard_normal(8))
        for threshold in (-1.0, 0.0, 0.5):
            q = rng.standard_normal(8)
            colliding = _colliding_keys(idx, q)
            want = sorted(((k, s) for k, s in
                           _brute_force_cosines(idx, q, threshold).items()
                           if k in colliding), key=lambda kv: (-kv[1], kv[0]))
            got = idx.lookup(q, threshold)
            # Keys, order and score bits.
            assert [(k, s.hex()) for k, s in got] == \
                [(k, s.hex()) for k, s in want]


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


def test_vectors_is_a_read_only_view_in_row_order():
    idx = CosineLshIndex(dim=4, seed=2)
    rng = np.random.default_rng(31)
    for i in rng.permutation(70):   # past the rows' doubling at 64
        idx.insert(("t", int(i)), rng.standard_normal(4))
    vectors = idx.vectors
    assert vectors.shape == (70, 4) and not vectors.flags.writeable
    for row, key in enumerate(idx.keys):
        np.testing.assert_array_equal(vectors[row], idx.vector(key))
    assert CosineLshIndex(dim=4).vectors.shape == (0, 4)


def _hex_rows(scores) -> list[list[str]]:
    return [[s.hex() for s in row] for row in np.asarray(scores).tolist()]


def test_scores_equals_attribute_unionability_bit_for_bit():
    idx = CosineLshIndex(dim=12, seed=4)
    rng = np.random.default_rng(17)
    for i in range(50):   # 14 allocated rows spare past the stored 50
        idx.insert(("t", i), rng.standard_normal(12))
    hits = 0
    for _ in range(5):
        q = rng.standard_normal(12)
        qv = q.astype(np.float32)
        got = idx.scores(q[None])
        assert got.dtype == np.float64 and got.shape == (1, idx.size)
        assert _hex_rows(got) == [[
            attribute_unionability(qv, idx.vector(k)).hex() for k in idx.keys]]
        # The lookup's own scores, for the lookup's own hits.
        found = idx.lookup(q, threshold=-1.0)
        assert [got[0, idx.rows[k]].hex() for k, _ in found] == \
            [s.hex() for _, s in found]
        hits += len(found)
    assert hits > 0


@pytest.mark.parametrize("n_stored", [0, 1, 300])
def test_scores_of_a_stack_are_each_vectors_scores(n_stored):
    # 128 dimensions, as the engine's head, so each dot product is long
    # enough for a blocked product to round differently.
    idx = CosineLshIndex(dim=128, seed=2)
    rng = np.random.default_rng(43)
    for i in range(n_stored):
        idx.insert(("t", i), rng.standard_normal(128))
    stack = rng.standard_normal((7, 128)).astype(np.float32)
    got = idx.scores(stack)
    assert got.dtype == np.float64 and got.shape == (7, n_stored)
    for j, q in enumerate(stack):
        alone = idx.scores(q[None])
        assert _hex_rows(alone) == _hex_rows(got[j:j + 1])
        assert _hex_rows(idx.scores(stack[j:])[0:1]) == _hex_rows(alone)
        assert _hex_rows(alone) == [[attribute_unionability(q, idx.vector(k))
                                     .hex() for k in idx.keys]]
    assert idx.scores(stack[:0]).shape == (0, n_stored)


def test_scores_clamps_like_clip_nan_included():
    idx = CosineLshIndex(dim=3)
    idx.insert(("same", 0), np.array([1.0, 2.0, 3.0]))
    idx.insert(("opposite", 0), np.array([-1.0, -2.0, -3.0]))
    got = idx.scores(np.array([[1.0, 2.0, 3.0]]))
    assert ((-1.0 <= got) & (got <= 1.0)).all()
    # Stored vectors are finite, so an infinite query makes the NaN:
    # inf / inf. The clamp must pass it through, as np.clip does.
    inf = np.array([np.inf, 0.0, 0.0])
    with np.errstate(invalid="ignore"):
        want = [attribute_unionability(inf, idx.vector(k)) for k in idx.keys]
        got = idx.scores(inf[None])
    assert np.isnan(want).all() and got.shape == (1, 2) and np.isnan(got).all()


@pytest.mark.parametrize("vector", [
    [np.nan, 1.0, 0.0], [np.inf, 1.0, 0.0], [0.0, -np.inf, 1.0],
    [1e39, 1.0, 0.0],   # finite in float64, infinite once stored as float32
], ids=["nan", "inf", "-inf", "float32-overflow"])
def test_insert_rejects_non_finite_vectors(vector):
    idx = CosineLshIndex(dim=3)
    idx.insert(("ok", 0), np.array([1.0, 2.0, 3.0]))
    buckets = [dict(b) for b in idx.buckets]
    with np.errstate(over="ignore"), pytest.raises(NumericError,
                                                   match="non-finite"):
        idx.insert(("bad", 0), np.array(vector))
    assert idx.keys == [("ok", 0)] and idx.rows == {("ok", 0): 0}
    assert [dict(b) for b in idx.buckets] == buckets


def test_scores_rejects_zero_and_misshapen_queries():
    filled = CosineLshIndex(dim=4)
    filled.insert(("t", 0), np.ones(4))
    # Rejected whether or not any row is stored, wherever in the stack.
    for idx in (filled, CosineLshIndex(dim=4)):
        for at in range(3):
            stack = np.ones((3, 4))
            stack[at] = 0.0
            with pytest.raises(NumericError):
                idx.scores(stack)
        for shape in [(1, 5), (3, 5), (4,), (1, 1, 4), ()]:
            with pytest.raises(ConfigError):
                idx.scores(np.ones(shape))
    assert CosineLshIndex(dim=4).scores(np.ones((1, 4))).shape == (1, 0)


def _band_key_rows(idx: CosineLshIndex, q) -> set[int]:
    """Rows that share a band key with q, from signatures and packbits."""
    def keys(v):
        bits = idx.signature(v).reshape(idx.n_bands, idx.rows_per_band)
        return [np.packbits(band).tobytes() for band in bits]

    mine = keys(q)
    return {row for row, key in enumerate(idx.keys)
            if any(a == b for a, b in zip(keys(idx.vector(key)), mine))}


@pytest.mark.parametrize("n_bands,rows_per_band", [(12, 4), (4, 12)],
                         ids=["dense", "sparse"])
def test_collisions_are_the_band_key_rows(n_bands, rows_per_band):
    # 48 planes over 8 dims: a random query shares a band with about half
    # of the rows at 12 x 4, and with a few of them at 4 x 12.
    idx = CosineLshIndex(dim=8, n_planes=48, n_bands=n_bands,
                         rows_per_band=rows_per_band, seed=5)
    rng = np.random.default_rng(41)
    for i in rng.permutation(200):   # past the rows' doubling at 128
        idx.insert(("t", int(i)), rng.standard_normal(8))
    found = dict.fromkeys((0.0, 0.7, 1.0), 0)
    n = idx.size
    queries = rng.standard_normal((10, 8))
    colliding = [_band_key_rows(idx, q) for q in queries]
    every = np.arange(n)
    for q, rows in zip(queries, colliding):
        assert rows == {idx.rows[k] for k in _colliding_keys(idx, q)}
        assert idx.band_hits(q[None], every).tolist() == sorted(rows)
        # The rows at a threshold, as lookup passes them.
        (scores,) = idx.scores(q[None])
        for t in (0.0, 0.7, 1.0):
            at = np.flatnonzero(scores >= t)
            got = idx.band_hits(q[None], at)
            assert got.dtype == at.dtype
            assert got.tolist() == [r for r in at.tolist() if r in rows]
            found[t] += len(got)
        assert idx.band_hits(q[None], every[:0]).tolist() == []
    # The whole stack at once, as search passes a table's pairs at t:
    # pair j * n + row is vector j's.
    scores = idx.scores(queries)
    for t in (0.0, 0.7):
        at = np.flatnonzero(scores >= t)
        assert idx.band_hits(queries, at).tolist() == \
            [i for i in at.tolist() if i % n in colliding[i // n]]
    # Pairs in any order come back in that order.
    ids = rng.permutation(len(queries) * n)[:200]
    assert idx.band_hits(queries, ids).tolist() == \
        [i for i in ids.tolist() if i % n in colliding[i // n]]
    assert found[0.7] > 0 and found[0.0] > found[0.7]


def test_pair_scores_are_the_scores_entries():
    idx = CosineLshIndex(dim=128, seed=6)
    rng = np.random.default_rng(47)
    for i in range(90):
        idx.insert(("t", i), rng.standard_normal(128))
    stack = rng.standard_normal((5, 128)).astype(np.float32)
    flat = idx.scores(stack).ravel()
    ids = rng.permutation(len(flat))
    for some in (ids, ids[:7], np.sort(ids[:40]), ids[:0]):
        got = idx.pair_scores(stack, some)
        assert got.dtype == np.float64 and got.shape == some.shape
        assert [s.hex() for s in got.tolist()] == \
            [s.hex() for s in flat[some].tolist()]
    with pytest.raises(NumericError):
        idx.pair_scores(np.concatenate([stack, np.zeros((1, 128))]), ids[:3])


def test_banded_is_also_and_the_band_hits_at_t():
    """banded returns the pairs it is also given, below t or at t without a
    shared band, and the band hits at t, ascending and each once, with
    their pair_scores cosines; lookup is banded of a stack of one."""
    # 48 planes in 4 bands of 12 over 8 dims: many pairs at t share no band.
    idx = CosineLshIndex(dim=8, n_planes=48, n_bands=4, rows_per_band=12,
                         seed=5)
    rng = np.random.default_rng(59)
    idx.insert_many([("t", i) for i in range(300)],
                    rng.standard_normal((300, 8)))
    queries = rng.standard_normal((6, 8)).astype(np.float32)
    t = 0.5
    flat = idx.scores(queries).ravel()
    at = np.flatnonzero(flat >= t)
    hits = idx.band_hits(queries, at)
    unbanded = np.setdiff1d(at, hits)
    below = np.flatnonzero(flat < t)
    assert len(hits) > 0 and len(unbanded) > 10
    # Unsorted, with repeats and with a band hit among them.
    also = np.concatenate([rng.choice(below, 20, replace=False),
                           unbanded[:10], unbanded[:3], hits[:1]])
    rng.shuffle(also)
    also_before = also.copy()
    for given, want in [(also, np.unique(np.concatenate([also, hits]))),
                        (None, hits), (also[:0], hits)]:
        ids, cos = idx.banded(queries, t, given)
        assert ids.dtype == np.int64 and ids.tolist() == want.tolist()
        assert _hex_rows([cos]) == _hex_rows([idx.pair_scores(queries, want)])
        assert _hex_rows([cos]) == _hex_rows([flat[want]])
    np.testing.assert_array_equal(also, also_before)
    for q in queries:
        rows, cos = idx.banded(q[None], t)
        keyed = sorted(zip(map(idx.keys.__getitem__, rows.tolist()),
                           cos.tolist()), key=lambda kv: (-kv[1], kv[0]))
        assert idx.lookup(q, t) == keyed


@pytest.mark.parametrize("call", ["insert", "lookup", "scores", "band_hits",
                                  "prefilter", "pair_scores"])
def test_each_call_prepares_its_vector_once(monkeypatch, call):
    idx = CosineLshIndex(dim=6, seed=1)
    idx.insert(("t", 0), np.arange(1.0, 7.0))
    prepare = CosineLshIndex._prepare
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(1)
        return prepare(self, *args, **kwargs)

    monkeypatch.setattr(CosineLshIndex, "_prepare", counted)
    v = np.arange(6.0, 0.0, -1.0)
    if call == "insert":
        idx.insert(("t", 1), v)
    elif call == "lookup":
        idx.lookup(v, threshold=0.0)
    elif call == "scores":
        idx.scores(np.stack([v, v + 1.0]))
    elif call == "prefilter":
        idx.prefilter(np.stack([v, v + 1.0]), 0.5)
    elif call == "pair_scores":
        idx.pair_scores(np.stack([v, v + 1.0]), np.arange(2 * idx.size))
    else:
        idx.band_hits(np.stack([v, v + 1.0]), np.arange(2 * idx.size))
    # lookup is banded through its three stages, which prepare one each.
    assert len(calls) == (3 if call == "lookup" else 1)
    # The public signature still prepares what it is given.
    calls.clear()
    idx.signature(v)
    assert len(calls) == 1


@pytest.mark.parametrize("dim", [3, 8, 128, 129])
def test_query_norms_equal_insert_norms_bit_for_bit(dim):
    # A query's norm must be the one insert stores for the same vector, or a
    # stored key would not score 1.0 against itself. Random vectors from
    # float32 subnormals to near the float32 maximum.
    rng = np.random.default_rng(53)
    scales = [1e-42, 1e-30, 1e-3, 1.0, 1e20, 1e37]
    vectors = np.concatenate([rng.standard_normal((40, dim)) * s
                              for s in scales])
    vectors[120:125, 1:] = 0.0   # one non-zero entry
    idx = CosineLshIndex(dim=dim, seed=3)
    for i, v in enumerate(vectors):
        idx.insert(("t", i), v)
    stack = idx._prepare(vectors, ndim=2)
    assert CosineLshIndex._query_norms(stack).tobytes() \
        == idx._norms[:idx.size].tobytes()


def test_dim_mismatch_rejected():
    idx = CosineLshIndex(dim=8)
    with pytest.raises(ConfigError):
        idx.insert(("t", 0), np.ones(9))


# ---------------------------------------------------------------- batched filing

def _near_plane_rows(idx, rng, n):
    """n float32 rows on a hyperplane or a hair off it, and which plane.

    Entries i and j are (p_j, -p_i) * 2**s for plane p: float32 products
    are exact in float64, so their two terms cancel exactly. Row 0 has only
    those, so its dot with p is exactly 0. The others add +-2**-60 at a
    third entry, so the exact dot is that times p_k, far inside the margin,
    where summation order can decide the sign bit.
    """
    rows = np.zeros((n, idx.dim), dtype=np.float32)
    planes = rng.integers(len(idx.planes), size=n)
    for r, plane in enumerate(planes):
        p = idx.planes[plane]
        i, j, k = rng.choice(idx.dim, 3, replace=False)
        scale = 2.0 ** int(rng.integers(-3, 4))
        rows[r, i], rows[r, j] = p[j] * scale, -p[i] * scale
        if r:
            rows[r, k] = rng.choice([-1.0, 1.0]) * 2.0 ** -60
    return rows, planes


def test_batched_filing_resigns_rows_within_the_margin(monkeypatch):
    idx = CosineLshIndex(dim=16, seed=7)
    rng = np.random.default_rng(11)
    near, planes = _near_plane_rows(idx, rng, 24)
    rows = np.concatenate([near, rng.standard_normal((200, 16))]) \
        .astype(np.float32)
    rng.shuffle(order := np.arange(len(rows)))
    rows = rows[order]
    widened = rows.astype(np.float64)
    want_bits = [idx._bits(v) for v in widened]
    want_packed = np.stack([
        np.packbits(b.reshape(idx.n_bands, idx.rows_per_band), axis=1).ravel()
        for b in want_bits])
    want_norms = np.array([np.linalg.norm(v) for v in widened])
    on_plane = int(np.flatnonzero(order == 0)[0])
    assert (idx.planes[planes[0]] @ widened[on_plane]) == 0.0
    assert want_bits[on_plane][planes[0]] == 1   # a zero dot counts as 1

    calls = []
    bits = CosineLshIndex._bits

    def counted(self, v):
        calls.append(1)
        return bits(self, v)

    monkeypatch.setattr(CosineLshIndex, "_bits", counted)
    idx.insert_many([("t", i) for i in range(len(rows))], rows)
    # The exact signing ran for the planted rows, and only for them.
    assert len(calls) == len(near)
    assert idx._packed[:idx.size].tobytes() == want_packed.tobytes()
    assert idx._norms[:idx.size].tobytes() == want_norms.tobytes()
    filed = np.unpackbits(idx._packed[on_plane].reshape(idx.n_bands, -1),
                          axis=1)[:, :idx.rows_per_band].ravel()
    assert filed[planes[0]] == 1


def test_band_hits_signs_a_stack_as_signature_does():
    """band_hits signs its stack in one pass; its hits are those of each
    vector's signature, packed band by band, for a vector on a plane, a
    zero vector and a vector with an inf entry too."""
    idx = CosineLshIndex(dim=16, n_planes=32, n_bands=8, rows_per_band=4,
                         seed=7)
    rng = np.random.default_rng(13)
    near, planes = _near_plane_rows(idx, rng, 8)
    widened = near.astype(np.float64)
    assert (idx.planes[planes[0]] @ widened[0]) == 0.0
    with_inf = rng.standard_normal(16).astype(np.float32)
    with_inf[3] = np.inf
    stack = np.concatenate([near, np.zeros((1, 16), dtype=np.float32),
                            with_inf[None],
                            rng.standard_normal((4, 16)).astype(np.float32)])
    # Stored rows near the stack's vectors, so many pairs share a band.
    finite = np.isfinite(stack).all(axis=1) & stack.any(axis=1)
    stored = np.concatenate([
        np.repeat(stack[finite], 5, axis=0)
        + rng.normal(scale=0.3, size=(5 * finite.sum(), 16)),
        rng.standard_normal((100, 16))])
    idx.insert_many([("t", i) for i in range(len(stored))], stored)
    n = idx.size
    packed = idx._packed[:n].reshape(n, idx.n_bands, -1)
    keys = [np.packbits(idx.signature(v).reshape(idx.n_bands,
                                                 idx.rows_per_band), axis=1)
            for v in stack]
    ids = rng.permutation(len(stack) * n)
    want = [i for i in ids.tolist()
            if (packed[i % n] == keys[i // n]).all(axis=1).any()]
    assert 0 < len(want) < len(ids)
    assert idx.band_hits(stack, ids).tolist() == want
    # The zero vector signs 1 on every plane.
    assert keys[len(near)].tolist() == [[0xF0]] * idx.n_bands


def test_batched_filing_equals_inserting_row_by_row():
    rng = np.random.default_rng(12)
    rows = rng.standard_normal((150, 12))
    keys = [("t", i) for i in range(150)]
    one = CosineLshIndex(dim=12, seed=2)
    for key, row in zip(keys, rows):
        one.insert(key, row)
    many = CosineLshIndex(dim=12, seed=2)
    many.insert(keys[0], rows[0])          # onto a filled index, grown
    many.insert_many(keys[1:100], rows[1:100])
    many.insert_many(keys[100:], rows[100:].astype(np.float32))
    many.insert_many([], np.empty((0, 12)))
    assert many.keys == one.keys and many.rows == one.rows
    n = one.size
    for a, b in zip((many._rows, many._norms, many._packed),
                    (one._rows, one._norms, one._packed)):
        assert a[:n].tobytes() == b[:n].tobytes()
    assert many.buckets == one.buckets


@pytest.mark.parametrize("case, error, bad", [
    ("nan", NumericError, 3), ("inf", NumericError, 3),
    ("zero", NumericError, 3), ("duplicate", DuplicateKeyError, 3),
    ("filed", DuplicateKeyError, 2),
    ("duplicate-before-nan", DuplicateKeyError, 2),
    ("nan-before-duplicate", NumericError, 1),
    ("float32-overflow", NumericError, 4),
])
def test_batched_filing_refuses_a_bad_stack_whole(case, error, bad):
    idx = CosineLshIndex(dim=4, seed=2)
    idx.insert(("ok", 0), np.ones(4))
    before = (list(idx.keys), dict(idx.rows), idx.vectors.copy(),
              idx._norms[:1].copy(), idx._packed[:1].copy(), idx.buckets)
    rows = np.random.default_rng(13).standard_normal((6, 4))
    keys = [("t", i) for i in range(6)]
    if case in ("nan", "duplicate-before-nan"):
        rows[3, 1] = np.nan
    if case == "nan-before-duplicate":
        rows[1, 1] = np.nan
    if case == "inf":
        rows[3, 0] = -np.inf
    if case == "zero":
        rows[3] = 0.0
    if case == "float32-overflow":
        rows[4, 2] = 1e39   # finite in float64, infinite once float32
    if case in ("duplicate", "nan-before-duplicate"):
        keys[3] = keys[0]
    if case in ("filed", "duplicate-before-nan"):
        keys[2] = ("ok", 0)
    message = {NumericError: "zero-norm" if case == "zero" else "non-finite",
               DuplicateKeyError: "already indexed"}[error]
    with np.errstate(over="ignore"), \
            pytest.raises(error, match=rf"{message}.*{re.escape(str(keys[bad]))}"):
        idx.insert_many(keys, rows)
    assert idx.keys == before[0] and idx.rows == before[1]
    np.testing.assert_array_equal(idx.vectors, before[2])
    np.testing.assert_array_equal(idx._norms[:1], before[3])
    np.testing.assert_array_equal(idx._packed[:1], before[4])
    assert idx.buckets == before[5]


def test_batched_filing_checks_its_shape():
    idx = CosineLshIndex(dim=4)
    for vectors, keys in [(np.ones((2, 5)), [("a", 0), ("b", 0)]),
                          (np.ones(4), [("a", 0)]),
                          (np.ones((3, 4)), [("a", 0), ("b", 0)])]:
        with pytest.raises(ConfigError):
            idx.insert_many(keys, vectors)
    assert idx.size == 0


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
