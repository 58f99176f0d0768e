"""Seeding many generators in one pass gives numpy's own bits."""

import numpy as np
import pytest

from unionsearch.seeding import default_rngs, rng_for, seed_states

# Seeds at the edges of the one- and two-word entropy SeedSequence makes.
EDGE_SEEDS = [0, 1, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]


def _seeds(n: int) -> list[int]:
    drawn = rng_for(5, "seeds").integers(0, 2**64, size=n, dtype=np.uint64)
    return EDGE_SEEDS + [int(s) for s in drawn]


def test_seed_states_are_seed_sequence_states():
    seeds = _seeds(5000)
    states = seed_states(seeds)
    assert states.shape == (len(seeds), 4) and states.dtype == np.uint64
    want = np.stack([np.random.SeedSequence(s).generate_state(4, np.uint64)
                     for s in seeds])
    np.testing.assert_array_equal(states, want)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_a_seed_state_does_not_depend_on_its_batch(n):
    seeds = _seeds(40)
    whole = seed_states(seeds)
    parts = [seed_states(seeds[i:i + n]) for i in range(0, len(seeds), n)]
    assert np.concatenate(parts).tobytes() == whole.tobytes()
    assert seed_states(np.array(seeds, dtype=np.uint64)).tobytes() \
        == whole.tobytes()


def test_default_rngs_draw_as_default_rng():
    seeds = _seeds(300)
    for seed, rng in zip(seeds, default_rngs(seeds), strict=True):
        want = np.random.default_rng(seed)
        assert rng.standard_normal(9).tobytes() \
            == want.standard_normal(9).tobytes()
        assert rng.integers(0, 1000, size=5).tolist() \
            == want.integers(0, 1000, size=5).tolist()
    assert list(default_rngs([])) == []
