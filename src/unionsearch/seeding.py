"""Deterministic seed derivation.

Every randomized component takes an explicit integer seed. Sub-seeds for
per-column, per-epoch, or per-batch RNG streams are derived by hashing the
master seed together with string/int context parts, so results never depend
on Python's salted hash() or on call order.
"""

import hashlib

import numpy as np

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
