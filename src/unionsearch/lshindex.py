"""Locality-sensitive indexes for fast candidate generation.

Two families, both used only to gather candidates — every returned score is
an exact rescoring, so the index can lose recall but never precision:

* CosineLshIndex: random-hyperplane signatures for unit-ish vectors. Each
  of the P hyperplanes contributes one sign bit; bits are grouped into B
  bands of R rows, and two vectors collide when any band matches exactly.
  A single bit agrees with probability 1 - angle/pi.
* MinHashIndex: min-wise signatures for token sets under universal hashing
  h_i(x) = (a_i * x + b_i) mod p, banded the same way; a single slot
  matches with probability equal to the Jaccard similarity.

State is held once. A cosine index numbers its vectors by insertion order
and keeps one float64 matrix, each row a stored float32 vector widened
exactly, plus each row's norm for scoring; its buckets hold those row
numbers. A lookup marks the colliding rows in one boolean mask, scores
them with ``cosines``, the one cosine formula that
``search.attribute_unionability`` also uses, and names only the rows that
pass the threshold. Each row's dot product is reduced on its own, so a
lookup score equals the pair score bit for bit, whatever the row numbering
or the BLAS thread count. A min-hash
index keeps no copy of its token sets: ``token_sets`` maps each key to the
frozenset the caller inserted, which in a search engine is the column's
``SyntacticProfile`` set; its buckets hold keys. Exact scores come from
those rows and sets; buckets only choose what gets scored.

Everything else is derived: hyperplanes and hash coefficients follow from
the seed, buckets from the inserted rows and sets, in insertion order. An
index file therefore stores none of it.
"""

from __future__ import annotations

from array import array

import numpy as np

from .corpus import ColumnKey
from .errors import ConfigError, DuplicateKeyError, InputError, NumericError
from .seeding import rng_for, stable_token_hash
from .syntactic import jaccard

MERSENNE_P = (1 << 31) - 1   # prime modulus; products stay below 2**62


def cosines(rows: np.ndarray, row_norms: np.ndarray, v: np.ndarray,
            v_norm: float) -> np.ndarray:
    """Cosines of float64 rows (or one vector) with v, clamped to [-1, 1].

    vecdot reduces each row on its own, so a row's cosine does not depend
    on its place among the rows or on the BLAS thread count.
    """
    return np.clip(np.vecdot(rows, v) / (row_norms * v_norm), -1.0, 1.0)


def _band_check(n_total: int, n_bands: int, rows_per_band: int, kind: str) -> None:
    if n_bands < 1 or rows_per_band < 1:
        raise ConfigError(f"{kind}: bands and rows must be >= 1, "
                          f"got {n_bands} and {rows_per_band}")
    if n_bands * rows_per_band != n_total:
        raise ConfigError(
            f"{kind}: bands * rows must equal {n_total}, "
            f"got {n_bands} * {rows_per_band} = {n_bands * rows_per_band}")


class CosineLshIndex:
    """Random-hyperplane index over fixed-dimension vectors.

    Each inserted vector gets the next row number. Rows live in one float64
    matrix, each the float32 vector widened exactly, with their norms next
    to it for scoring. Buckets hold row numbers as ``array("q")``;
    ``key_of`` names a row and ``_rows`` maps each key back to its row.
    """

    def __init__(self, dim: int, n_planes: int = 256, n_bands: int = 32,
                 rows_per_band: int = 8, seed: int = 0):
        if dim < 1:
            raise ConfigError(f"dim must be >= 1, got {dim}")
        _band_check(n_planes, n_bands, rows_per_band, "cosine index")
        self.dim = dim
        self.n_planes = n_planes
        self.n_bands = n_bands
        self.rows_per_band = rows_per_band
        self.seed = seed
        raw = rng_for(seed, "cosine-planes").standard_normal((n_planes, dim))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        self.planes = raw.astype(np.float32)
        self._planes64 = self.planes.astype(np.float64)
        self.buckets: list[dict[bytes, array]] = [{} for _ in range(n_bands)]
        self._rows: dict[ColumnKey, int] = {}
        self._keys: list[ColumnKey] = []
        # Capacity grows by doubling; rows past size are unused.
        self._wide = np.empty((0, dim), dtype=np.float64)
        self._norms = np.empty(0, dtype=np.float64)

    @property
    def size(self) -> int:
        return len(self._keys)

    def key_of(self, row: int) -> ColumnKey:
        """The key stored at a row number, as found in ``buckets``."""
        return self._keys[row]

    def vector(self, key: ColumnKey) -> np.ndarray:
        """The stored vector of key, float32-exact, as a read-only row view."""
        try:
            row = self._wide[self._rows[key]]
        except KeyError:
            raise InputError(f"unknown key {key!r} in cosine index") from None
        row.flags.writeable = False
        return row

    def matrix(self, keys: list[ColumnKey]) -> np.ndarray:
        """Stored vectors of keys, one row each, in the given order."""
        return self._wide[[self._rows[k] for k in keys]]

    def signature(self, vector: np.ndarray) -> np.ndarray:
        """P sign bits as uint8; a dot product of exactly zero counts as 1."""
        v = self._prepare(vector)
        dots = self._planes64 @ v
        return (dots >= 0.0).astype(np.uint8)

    def _prepare(self, vector: np.ndarray) -> np.ndarray:
        v = np.asarray(vector, dtype=np.float32).astype(np.float64)
        if v.shape != (self.dim,):
            raise ConfigError(f"vector shape {v.shape} != ({self.dim},)")
        return v

    def _band_keys(self, bits: np.ndarray) -> list[bytes]:
        per_band = bits.reshape(self.n_bands, self.rows_per_band)
        return [np.packbits(row).tobytes() for row in per_band]

    def insert(self, key: ColumnKey, vector: np.ndarray) -> None:
        if key in self._rows:
            raise DuplicateKeyError(f"key already indexed: {key}")
        v = self._prepare(vector)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise NumericError(f"zero-norm vector for key {key}")
        row = len(self._keys)
        for band, bkey in enumerate(self._band_keys(self.signature(v))):
            bucket = self.buckets[band].get(bkey)
            if bucket is None:
                self.buckets[band][bkey] = array("q", (row,))
            else:
                bucket.append(row)
        if row == len(self._wide):
            grown = max(64, 2 * row)
            self._wide = np.resize(self._wide, (grown, self.dim))
            self._norms = np.resize(self._norms, grown)
        # v holds the float32 values widened exactly.
        self._wide[row] = v
        self._norms[row] = norm
        self._rows[key] = row
        self._keys.append(key)

    def lookup(self, vector: np.ndarray, threshold: float
               ) -> list[tuple[ColumnKey, float]]:
        """Bucket collisions, exactly rescored; sorted by (-cosine, key).

        Scores are ``cosines`` of the stored float32 vectors, equal to
        ``search.attribute_unionability`` of the same pair — banding only
        decides which rows get scored at all, and only the rows that reach
        the threshold are turned back into keys.
        """
        v = self._prepare(vector)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise NumericError("zero-norm query vector")
        hit = np.zeros(self.size, dtype=bool)
        for band, bkey in enumerate(self._band_keys(self.signature(v))):
            bucket = self.buckets[band].get(bkey)
            if bucket is not None:
                hit[np.frombuffer(bucket, dtype=np.int64)] = True
        rows = np.flatnonzero(hit)
        scores = cosines(self._wide[rows], self._norms[rows], v, norm)
        keep = scores >= threshold
        hits = [(self._keys[r], s)
                for r, s in zip(rows[keep].tolist(), scores[keep].tolist())]
        hits.sort(key=lambda kv: (-kv[1], kv[0]))
        return hits


class MinHashIndex:
    """Banded min-hash index over token sets, with exact Jaccard rescoring.

    A frozenset passed to insert is kept as is, not copied, so the index
    and the profile it came from share one set.
    """

    def __init__(self, n_perms: int = 128, n_bands: int = 32,
                 rows_per_band: int = 4, seed: int = 0):
        _band_check(n_perms, n_bands, rows_per_band, "minhash index")
        self.n_perms = n_perms
        self.n_bands = n_bands
        self.rows_per_band = rows_per_band
        self.seed = seed
        rng = rng_for(seed, "minhash-perms")
        self.coef_a = rng.integers(1, MERSENNE_P, size=n_perms, dtype=np.uint64)
        self.coef_b = rng.integers(0, MERSENNE_P, size=n_perms, dtype=np.uint64)
        self.buckets: list[dict[bytes, list[ColumnKey]]] = [
            {} for _ in range(n_bands)]
        self.token_sets: dict[ColumnKey, frozenset[str]] = {}

    @property
    def size(self) -> int:
        return len(self.token_sets)

    def signature(self, tokens: frozenset[str] | set[str]) -> np.ndarray:
        """Per-permutation minimum of (a*x + b) mod p over the token hashes."""
        if not tokens:
            raise InputError("cannot build a min-hash signature of an empty set")
        xs = np.array(sorted(stable_token_hash(t, self.seed) % MERSENNE_P
                             for t in tokens), dtype=np.uint64)
        # (n_tokens, n_perms): a*x stays < 2**62, so uint64 never wraps.
        prods = (xs[:, None] * self.coef_a[None, :] + self.coef_b[None, :]) \
            % np.uint64(MERSENNE_P)
        return prods.min(axis=0)

    def _band_keys(self, sig: np.ndarray) -> list[bytes]:
        per_band = sig.reshape(self.n_bands, self.rows_per_band)
        return [row.tobytes() for row in per_band]

    def insert(self, key: ColumnKey, tokens: frozenset[str] | set[str]) -> None:
        if key in self.token_sets:
            raise DuplicateKeyError(f"key already indexed: {key}")
        sig = self.signature(tokens)
        for band, bkey in enumerate(self._band_keys(sig)):
            self.buckets[band].setdefault(bkey, []).append(key)
        self.token_sets[key] = frozenset(tokens)

    def lookup(self, tokens: frozenset[str] | set[str], threshold: float
               ) -> list[tuple[ColumnKey, float]]:
        """Bucket collisions rescored with exact Jaccard; (-score, key) order."""
        if not tokens:
            return []
        sig = self.signature(tokens)
        candidates: set[ColumnKey] = set()
        for band, bkey in enumerate(self._band_keys(sig)):
            candidates.update(self.buckets[band].get(bkey, ()))
        query = frozenset(tokens)
        hits = []
        for key in sorted(candidates):
            score = jaccard(query, self.token_sets[key])
            if score >= threshold:
                hits.append((key, score))
        hits.sort(key=lambda kv: (-kv[1], kv[0]))
        return hits
