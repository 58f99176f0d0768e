"""Deterministic seed derivation.

Every randomized component takes an explicit integer seed. Sub-seeds for
per-column, per-epoch, or per-batch RNG streams are derived by hashing the
master seed together with string/int context parts, so results never depend
on Python's salted hash() or on call order.

Where many generators are made at once (a token vector each, a sampled
view each), ``default_rngs`` seeds them in one array pass: numpy's
``SeedSequence`` hashes a seed in about sixty steps of 32-bit arithmetic,
which cost more per generator than the PCG64 draws that follow.
``seed_states`` does those steps for a whole batch of seeds, and each
generator starts from its row, the bits ``np.random.default_rng(seed)``
starts from.
"""

import hashlib
from typing import Iterator, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ConfigError, check_integer

_MASK64 = (1 << 64) - 1


def check_seed(what: str, seed: int) -> None:
    """Reject a seed that a stored u64 field would not give back as is."""
    check_integer(what, seed, 0)
    if seed > _MASK64:
        raise ConfigError(f"{what} must be in [0, 2**64), got {seed}")


def derive_seed(*parts: object) -> int:
    """Map (seed, context...) to a stable 64-bit sub-seed."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little") & _MASK64


def rng_for(*parts: object) -> np.random.Generator:
    """A fresh PCG64 generator seeded from the given context parts."""
    return np.random.default_rng(derive_seed(*parts))


def stable_token_hash(token: str, seed: int = 0) -> int:
    """Stable 64-bit hash of a token string, independent of PYTHONHASHSEED."""
    h = hashlib.blake2b(token.encode("utf-8"), digest_size=8,
                        salt=(seed & _MASK64).to_bytes(8, "little"))
    return int.from_bytes(h.digest(), "little")


def _hash_constants(init: int, mult: int, n: int) -> tuple[list[int], ...]:
    """The n (xor, multiplier) pairs a SeedSequence hash runs through: each
    step xors the word with the constant, advances the constant by mult and
    multiplies by the advanced one."""
    xors, mults = [], []
    for _ in range(n):
        xors.append(init)
        init = init * mult & 0xFFFFFFFF
        mults.append(init)
    return xors, mults


def _column(values: list[int]) -> np.ndarray:
    return np.array(values, dtype=np.uint32)[:, None]


# numpy.random.SeedSequence's constants: the xorshift of every hash and
# mix step, and the two multipliers that mix a hashed word into another.
_SHIFT = np.uint32(16)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hashmix(words: np.ndarray, xors: np.ndarray,
             mults: np.ndarray) -> np.ndarray:
    words = words ^ xors
    words *= mults
    words ^= words >> _SHIFT
    return words


# The entropy mix hashes through 16 steps for a pool of 4 words: 4 to fill
# the pool, then 3 as each pool word in turn is hashed into the three
# others, in order.
_FILL = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
# A seed's two little-endian 32-bit words fill pool words 0 and 1; words 2
# and 3 hash a zero, the same for every seed. A seed under 2**32 is one
# word to SeedSequence, and its pool word 1 hashes a zero too.
_FILL_XOR, _FILL_MULT = (_column(c[:2]) for c in _FILL)
_POOL_TAIL = _hashmix(np.zeros((2, 1), dtype=np.uint32),
                      *(_column(c[2:4]) for c in _FILL))
# Round s hashes pool word s into all four rows at once; row s's constants
# are unused zeros, and the row keeps its word.
_ROUNDS = [tuple(_column([c[4 + 3 * s + d - (d > s)] if d != s else 0
                          for d in range(4)]) for c in _FILL)
           for s in range(4)]
# The state hash runs through 8 steps for 4 uint64 words, cycling the pool.
_STATE_XOR, _STATE_MULT = (_column(c) for c in _hash_constants(
    0x8B51F9DD, 0x58F38DED, 8))


def seed_states(seeds: Sequence[int] | np.ndarray) -> np.ndarray:
    """``np.random.SeedSequence(s).generate_state(4, np.uint64)`` of each
    64-bit seed s, one row per seed, bit for bit, in one array pass.

    The same 32-bit wrapping steps as numpy's, on a (4, seeds) pool:
    entropy assembled as little-endian words, mixed into the pool, then
    hashed out as 8 words read as little-endian uint64 pairs.
    """
    words = np.asarray(seeds, dtype="<u8").view("<u4").reshape(-1, 2).T
    pool = np.empty((4, words.shape[1]), dtype=np.uint32)
    pool[:2] = _hashmix(words, _FILL_XOR, _FILL_MULT)
    pool[2:] = _POOL_TAIL
    for source, (xors, mults) in enumerate(_ROUNDS):
        hashed = _hashmix(pool[source], xors, mults)
        hashed *= _MIX_R
        mixed = pool * _MIX_L
        mixed -= hashed
        mixed ^= mixed >> _SHIFT
        mixed[source] = pool[source]
        pool = mixed
    state = _hashmix(np.tile(pool, (2, 1)), _STATE_XOR, _STATE_MULT)
    return np.ascontiguousarray(state.T).view("<u8").astype(np.uint64,
                                                          copy=False)


class _State(ISeedSequence):
    """A seed sequence whose state is one row of ``seed_states``."""

    __slots__ = ("_row",)

    def __init__(self, row: np.ndarray):
        self._row = row

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64, the one caller, asks for its 4 uint64 words.
        return self._row


def default_rngs(seeds: Sequence[int]) -> Iterator[np.random.Generator]:
    """``np.random.default_rng(s)`` for each seed s, seeded in one pass.
    Each generator is made as it is asked for, so a large batch does not
    hold all of them at once."""
    return (np.random.Generator(np.random.PCG64(_State(row)))
            for row in seed_states(seeds))
