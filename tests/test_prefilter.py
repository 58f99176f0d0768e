"""Seeded soundness fuzz of the cosine index's float32 prefilter.

``CosineLshIndex.prefilter`` must keep, per query vector, every stored row
whose exact cosine (``scores``) reaches the threshold; banded search scores
only the rows it keeps. Rows are planted within 1e-12 of the threshold at
norms from 1e-30 to 1e30, past them on both sides, and in dimensions where
the float32 error bound differs by orders of magnitude. The first stage,
the subspace bound, is checked alone too, on those lakes and on rows whose
cosine rests on their distance from the subspace, and both stages on
cosines crowding just below the threshold, which the bound cannot tell
apart.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from unionsearch import lshindex
from unionsearch.bench import BenchmarkSpec, generate_benchmark
from unionsearch.encoder import Encoder, EncoderConfig
from unionsearch.lshindex import CosineLshIndex, cosines
from unionsearch.projection import init_head
from unionsearch.search import (IndexConfig, SearchConfig, SearchEngine,
                                _table_pairs, build_engine)
from unionsearch.syntactic import (ALL_MEASURES, FORMAT, SEMANTIC,
                                   build_profile, jaccard)

THRESHOLDS = (0.0, 0.7, 1.0)
NEAR = 1e-12


def _query(rng, dim: int) -> np.ndarray:
    """A float32 query whose first entry is about 1e-3 of its norm: the
    entry ``_plant`` tunes rows against."""
    q = rng.standard_normal(dim)
    q[0] = 1e-3 * np.linalg.norm(q[1:])
    return q.astype(np.float32)


def _exact(rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Each float32 row's cosine with q, computed as ``scores`` computes it."""
    wide = rows.astype(np.float64)
    norms = np.array([np.linalg.norm(r) for r in wide])
    qv = q.astype(np.float64)
    return cosines(wide, norms, qv, np.linalg.norm(qv))


def _plant(rng, q: np.ndarray, targets: np.ndarray,
           space: np.ndarray | None = None) -> np.ndarray:
    """Float32 rows of norm about 1 whose exact cosine with q is each
    target's, to within about 1e-13.

    A row is target * q/|q| plus a random direction orthogonal to q and to
    the first axis, rounded to float32; then its first entry, where it and
    the query are both small, is bisected until the exact cosine meets the
    target. A target near 1 starts from q's direction alone, and its first
    entry moves past q's. Given space, orthonormal rows that miss the first
    axis, the direction is drawn in their span, orthogonal to q's part
    there, so each row leaves that span exactly as target * q/|q| does.
    """
    dim = len(q)
    qhat = q.astype(np.float64) / np.linalg.norm(q.astype(np.float64))
    near_one = targets > 1.0 - 1e-6
    rows = np.empty((len(targets), dim), dtype=np.float32)
    for i, target in enumerate(targets):
        if space is None:
            u = rng.standard_normal(dim)
            u[0] = 0.0
            u -= (u @ qhat) * qhat
            u[0] = 0.0
            u -= (u @ qhat) * qhat
        else:
            inside = space.T @ (space @ qhat)
            u = rng.standard_normal(len(space)) @ space
            u -= (u @ inside) / (inside @ inside) * inside
        u /= np.linalg.norm(u)
        side = 0.0 if near_one[i] else np.sqrt(1.0 - target ** 2)
        rows[i] = target * qhat + side * u
    lo = targets * qhat[0]
    hi = lo + 5e-4
    lo = np.where(near_one, lo, lo - 5e-4)

    def miss(x):
        rows[:, 0] = x
        return _exact(rows, q) - targets

    # The cosine rises with the first entry below q's direction and falls
    # past it; either way the bracket's ends miss the target on opposite
    # sides.
    m_lo = miss(lo)
    assert (np.sign(m_lo) != np.sign(miss(hi))).all()
    for _ in range(60):
        mid = (lo + hi) / 2
        m_mid = miss(mid)
        low_side = np.sign(m_mid) == np.sign(m_lo)
        lo, hi = np.where(low_side, mid, lo), np.where(low_side, hi, mid)
        m_lo = np.where(low_side, m_mid, m_lo)
    best = np.where(np.abs(miss(lo)) <= np.abs(miss(hi)), lo, hi)
    rows[:, 0] = best
    return rows


def _targets(rng, t: float, n: int) -> np.ndarray:
    """n cosines within NEAR of t, on both sides of it. At 1 they lie
    below it, and at least 1e-13 below, which a float32 row rounded from
    q's direction can still reach."""
    if t == 1.0:
        return t - rng.uniform(NEAR / 10, NEAR, n)
    return t + rng.uniform(-NEAR, NEAR, n)


def _lake_rows(rng, q: np.ndarray, t: float, n: int) -> np.ndarray:
    """n float32 rows: most planted within NEAR of t against q, some
    exact power-of-two multiples of q, the rest random; each scaled by a
    power of two to a norm between about 1e-30 and 1e30, and a few far
    past that range on either side, down to float32 subnormals."""
    n_near = n // 2
    rows = np.concatenate([
        _plant(rng, q, _targets(rng, t, n_near)),
        np.ldexp(q, -int(np.frexp(np.linalg.norm(q))[1]))[None].repeat(4, 0),
        rng.standard_normal((n - n_near - 4, len(q))).astype(np.float32)])
    exps = rng.integers(-99, 100, n)
    exps[rng.choice(n, 8, replace=False)] = [-140, -136, -132, -124, 104, 112,
                                              116, 120]
    scaled = np.ldexp(rows, exps[:, None].astype(np.int32))
    assert np.isfinite(scaled).all()
    return scaled[rng.permutation(n)]


@pytest.mark.parametrize("dim", [8, 128, 2048])
@pytest.mark.parametrize("t", THRESHOLDS)
def test_prefilter_keeps_every_row_that_reaches_t(dim, t):
    rng = np.random.default_rng([dim, int(10 * t)])
    q = _query(rng, dim)
    idx = CosineLshIndex(dim=dim, seed=dim)
    for i, row in enumerate(_lake_rows(rng, q, t, 96)):
        idx.insert(("t", i), row)
    norms = np.linalg.norm(idx.vectors.astype(np.float64), axis=1)
    assert norms.min() < 1e-30 and norms.max() > 1e30
    # The query alone, scaled far up and down, and stacked with others.
    stacks = [q[None], np.ldexp(q, 60)[None], np.ldexp(q, -60)[None],
              np.stack([rng.standard_normal(dim).astype(np.float32), q,
                        -q, np.ldexp(q, 90)])]
    near = reached = 0
    for stack in stacks:
        scores = idx.scores(stack)
        # Pair ids j * size + row, over the whole stack at once.
        kept = idx.prefilter(stack, t)
        at = np.flatnonzero(scores >= t)
        assert kept.dtype == np.int64
        assert set(at.tolist()) <= set(kept.tolist())
        assert kept.tolist() == sorted(set(kept.tolist()))
        assert kept.min() >= 0 and kept.max() < scores.size
        near += int((np.abs(scores - t) <= NEAR).sum())
        reached += len(at)
    # The plant worked: of the 48 rows planted against each of the five
    # copies of q, most sit at the threshold. Some rows reach it, except
    # perhaps at 1, where only a cosine rounded up to 1 does.
    assert near >= 5 * 40
    assert reached > 0 or t == 1.0


@pytest.mark.parametrize("dim", [8, 2048])
def test_prefilter_keeps_all_for_a_non_finite_query(dim):
    rng = np.random.default_rng(dim)
    idx = CosineLshIndex(dim=dim, seed=1)
    for i in range(20):
        idx.insert(("t", i), rng.standard_normal(dim))
    q = rng.standard_normal((3, dim))
    q[1, 2] = np.inf
    q[2, 0] = np.nan
    kept = idx.prefilter(q, 0.7)
    assert kept[kept >= 20].tolist() == list(range(20, 60))
    with np.errstate(invalid="ignore"):
        assert not (idx.scores(q)[1:] >= 0.7).any()


def _dense_pairs(engine, cfg, profiles, column, qvec):
    """One column's banded pairs found as before the prefilter: every row's
    semantic part from ``scores``, the rows at t tested for a band, each
    set part the reference Jaccard of every row, and each pair's parts
    folded left from 0.0."""
    index = engine.semantic_index
    (semantic,) = index.scores(qvec[None])
    t = cfg.threshold
    mask = np.full(index.size, False)
    mask[index.band_hits(qvec[None], np.flatnonzero(semantic >= t))] = True
    measure_scores = [semantic]
    for measure, tokens in engine.query_profile(
            column, cfg.ordered_measures()[1:]).items():
        stored = [profiles[key][measure] for key in engine.keys]
        scores = np.array([jaccard(tokens, s) for s in stored])
        if measure != FORMAT:
            mask |= np.array([bool(tokens & s) for s in stored]) \
                & (scores >= t)
        measure_scores.append(scores)
    pair_scores = {}
    for row in np.flatnonzero(mask).tolist():
        total = 0.0
        for scores in measure_scores:
            total += float(scores[row])
        score = total / len(measure_scores)
        if score >= t:
            pair_scores[engine.keys[row]] = score
    ranked = sorted(pair_scores.values())
    return {key: (score, sum(s <= score for s in ranked) / len(ranked))
            for key, score in pair_scores.items()}


@pytest.mark.parametrize("t", THRESHOLDS)
def test_banded_pairs_are_the_dense_reference(t):
    """On a lake whose stored vectors are planted at t, banded pairs from
    the prefilter's pairs are the pairs of the dense semantic row, bit for
    bit, under every measure set. One query table pairs each column with
    each of five vectors, so the table-level passes see many columns at
    once and each column several times."""
    rng = np.random.default_rng(int(10 * t))
    corpus, _ = generate_benchmark(BenchmarkSpec(
        n_bases=5, derivations_per_base=4, n_topics=2, base_columns=(3, 5),
        base_rows=15, seed=4))
    dim = 16
    built = build_engine(corpus, Encoder(EncoderConfig(dim=24, hash_seed=4)),
                         init_head(24, 24, dim, seed=4), IndexConfig(seed=4))
    q = _query(rng, dim)
    engine = SearchEngine(built.encoder, built.head, built.index_config,
                          built.tfidf, built.keys,
                          _lake_rows(rng, q, t, len(built.keys)),
                          built.postings)
    profiles = {c.column_key: build_profile(c, engine.tfidf)
                for c in corpus.encodable_columns()}
    columns = [c for table in corpus.tables[::4] for c in table.columns
               if c.is_encodable()]
    vectors = [q, -q, *(engine.project_column(c) for c in columns[:3])]
    table = [(column, qvec) for column in columns for qvec in vectors]
    qvecs = np.stack([qvec for _, qvec in table])
    measure_sets = [(SEMANTIC, *extra) for r in range(len(ALL_MEASURES))
                    for extra in itertools.combinations(ALL_MEASURES[1:], r)]
    pairs = 0
    for measures in measure_sets:
        cfg = SearchConfig(threshold=t, measures=measures)
        got = _table_pairs(engine, cfg, [c for c, _ in table], qvecs)
        assert len(got) == len(table)
        for (column, qvec), column_pairs in zip(table, got):
            want = _dense_pairs(engine, cfg, profiles, column, qvec)
            assert list(column_pairs.items()) == list(want.items())
            pairs += len(column_pairs)
    assert pairs > 0


def _stage_two_passes_all(self, stack, norms, rows, t):
    return np.ones((len(stack), len(rows)), dtype=bool)


@pytest.mark.parametrize("dim", [8, 128])
@pytest.mark.parametrize("t", THRESHOLDS)
def test_stage_one_alone_keeps_every_row_that_reaches_t(monkeypatch, dim, t):
    """The lakes above, grown past dim rows so the index has a sketch, and
    of full rank, so the bound is nearly each cosine and only the margin
    keeps the rows at t: with stage 2 passing every pair, the subspace
    bound alone decides, at every norm and threshold. (At 2048 dimensions
    the basis alone would take seconds.)"""
    monkeypatch.setattr(lshindex, "_SUBSPACE_RANK", dim)
    monkeypatch.setattr(CosineLshIndex, "_refined", _stage_two_passes_all)
    rng = np.random.default_rng([dim, int(10 * t), 1])
    q = _query(rng, dim)
    idx = CosineLshIndex(dim=dim, seed=dim)
    rows = _lake_rows(rng, q, t, max(96, dim + 32))
    idx.insert_many([("t", i) for i in range(len(rows))], rows)
    stacks = [q[None], np.ldexp(q, 60)[None], np.ldexp(q, -60)[None],
              np.stack([rng.standard_normal(dim).astype(np.float32), q,
                        -q, np.ldexp(q, 90)])]
    near = dropped = 0
    for stack in stacks:
        scores = idx.scores(stack)
        kept = idx.prefilter(stack, t)
        at = np.flatnonzero(scores >= t)
        assert set(at.tolist()) <= set(kept.tolist())
        near += int((np.abs(scores - t) <= NEAR).sum())
        dropped += scores.size - len(kept)
    assert len(idx._sketch.basis) == dim
    assert near >= 5 * 40
    assert dropped > 0 or t == 0.0


@pytest.mark.parametrize("t", [0.3, 0.7])
def test_stage_one_keeps_rows_whose_cosine_rests_on_the_residuals(
        monkeypatch, t):
    """Rows planted within 1e-12 of t whose cosine with q is mostly sigma
    rho. The lake's principal subspace S is 48 axes, each filled by 200
    background rows; q has four fifths of its square outside S, and each
    planted row leaves S along q's own direction there. So u.v is nearly
    sigma rho, the bound a.b + sigma rho is nearly the cosine, and only
    the margin keeps the rows at t. The bound still drops every
    background row."""
    monkeypatch.setattr(CosineLshIndex, "_refined", _stage_two_passes_all)
    rng = np.random.default_rng(int(10 * t))
    dim, rank = 64, 48
    space = np.eye(dim)[1:rank + 1]
    q = np.zeros(dim)
    q[1:rank + 1] = rng.standard_normal(rank)
    q[1:rank + 1] *= np.sqrt(0.2) / np.linalg.norm(q[1:rank + 1])
    q[rank + 1:] = rng.standard_normal(dim - rank - 1)
    q[rank + 1:] *= np.sqrt(0.8) / np.linalg.norm(q[rank + 1:])
    q[0] = 1e-3
    q = q.astype(np.float32)
    planted = _plant(rng, q, _targets(rng, t, 48), space=space)
    background = np.repeat(space, 200, axis=0).astype(np.float32)
    rows = np.concatenate([planted, background])
    rows = np.ldexp(rows, rng.integers(-20, 21, len(rows))[:, None])
    order = rng.permutation(len(rows))
    idx = CosineLshIndex(dim=dim, seed=2)
    idx.insert_many([("t", int(i)) for i in order], rows[order])
    scores = idx.scores(q[None])[0]
    kept = idx.prefilter(q[None], t)
    at = np.flatnonzero(scores >= t)
    assert set(at.tolist()) <= set(kept.tolist())
    planted_rows = np.flatnonzero(order < len(planted))
    assert set(kept.tolist()) <= set(planted_rows.tolist())
    assert (np.abs(scores[planted_rows] - t) <= NEAR).sum() >= 40
    assert len(at) > 0
    # The bound is within 1e-6 of each planted cosine, against a margin
    # near 1e-5, and its residual term is most of it.
    basis, aug = idx._sketch.basis, idx._sketch.aug
    qhat = q.astype(np.float64) / np.linalg.norm(q.astype(np.float64))
    b = basis @ qhat
    residual = np.linalg.norm(qhat - basis.T @ b) \
        * aug[len(basis), planted_rows]
    bound = b @ aug[:len(basis), planted_rows] + residual
    assert (np.abs(bound - scores[planted_rows]) < 1e-6).all()
    assert (residual >= 0.7 * t).all()


def test_crowded_cosines_pass_stage_one_and_stage_two_decides(monkeypatch):
    """A block of rows whose cosines crowd just below t, beside some within
    1e-12 of it: the subspace bound cannot tell them apart and passes them
    all, and stage 2 drops all but those near t. Each stage keeps a
    superset of the pairs at t."""
    rng = np.random.default_rng(71)
    dim, t = 128, 0.7
    q = _query(rng, dim)
    rows = np.concatenate([
        _plant(rng, q, t - rng.uniform(1e-4, 0.02, 300)),
        _plant(rng, q, _targets(rng, t, 30)),
        rng.standard_normal((400, dim)).astype(np.float32)])
    idx = CosineLshIndex(dim=dim, seed=3)
    idx.insert_many([("t", i) for i in range(len(rows))], rows)
    stack = np.stack([q, rng.standard_normal(dim).astype(np.float32)])
    scores = idx.scores(stack)
    at = np.flatnonzero(scores >= t)
    assert len(at) > 0
    refined = CosineLshIndex._refined
    passed = []

    def spied(self, stack, norms, rows, t):
        passed.append(rows)
        return refined(self, stack, norms, rows, t)

    monkeypatch.setattr(CosineLshIndex, "_refined", spied)
    kept = idx.prefilter(stack, t)
    assert np.isin(np.arange(330), passed[0]).mean() > 0.9
    assert set(at.tolist()) <= set(kept.tolist())
    assert set(kept.tolist()) <= set(np.flatnonzero(scores >= t - 1e-5)
                                     .tolist())
    monkeypatch.setattr(CosineLshIndex, "_refined", _stage_two_passes_all)
    bound = idx.prefilter(stack, t)
    assert len(bound) >= 330
    assert set(at.tolist()) <= set(bound.tolist())


@pytest.mark.parametrize("scale", [1 - 2.0 ** -8, 1 + 2.0 ** -8])
def test_a_basis_off_orthonormal_turns_stage_one_off(monkeypatch, scale):
    """A basis whose Gram matrix is off the identity by more than 2**-10
    gives no bound: stage 1 then passes every pair, where the computed
    basis drops some, and banded still equals the dense reference, the
    band hits of the pairs at t."""
    rng = np.random.default_rng(73)
    dim, t = 16, 0.7
    # Rows near a few directions, so many pairs reach t and many do not.
    centers = rng.standard_normal((6, dim))
    rows = centers[rng.integers(6, size=300)] \
        + rng.normal(scale=0.4, size=(300, dim))
    idx = CosineLshIndex(dim=dim, n_planes=32, n_bands=8, rows_per_band=4,
                         seed=3)
    idx.insert_many([("t", i) for i in range(len(rows))], rows)
    stack = (centers[:4] + rng.normal(scale=0.4, size=(4, dim))) \
        .astype(np.float32)
    unit = stack.astype(np.float64) \
        / np.linalg.norm(stack.astype(np.float64), axis=1, keepdims=True)
    assert not idx._bounded(unit, t).all()
    basis = CosineLshIndex._basis
    monkeypatch.setattr(CosineLshIndex, "_basis",
                        lambda self, k, blocks: scale * basis(self, k, blocks))
    idx._sketch = None   # built again, from the scaled basis
    assert idx._bounded(unit, t).all()
    assert idx._sketch.eps > 2.0 ** -10
    dense = idx.scores(stack).ravel()
    at = np.flatnonzero(dense >= t)
    want = idx.band_hits(stack, at)
    assert 0 < len(want) < len(at) < len(dense) // 2
    ids, cos = idx.banded(stack, t)
    assert ids.tolist() == want.tolist()
    assert [c.hex() for c in cos.tolist()] == \
        [c.hex() for c in dense[want].tolist()]


def test_first_prefilter_memory_is_a_few_row_blocks_past_the_sketch():
    """The sketch is built in row blocks: the first prefilter of a
    20,000 x 128 index allocates its (K + 2) x n float32 array and a few
    blocks more, where the widened rows alone would take 20 MB."""
    rng = np.random.default_rng(5)
    n, dim = 20_000, 128
    idx = CosineLshIndex(dim=dim, seed=4)
    idx.insert_many([("t", i) for i in range(n)],
                    rng.standard_normal((n, dim)).astype(np.float32))
    q = rng.standard_normal((1, dim)).astype(np.float32)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        idx.prefilter(q, 0.7)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    stored = idx._sketch.aug.nbytes
    assert stored == (min(lshindex._SUBSPACE_RANK, dim) + 2) * n * 4
    assert stored < peak < stored + 6 * lshindex._BLOCK_BYTES
