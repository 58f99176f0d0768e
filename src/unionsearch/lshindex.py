"""Locality-sensitive indexes for fast candidate generation.

Two families, both used only to gather candidates — every returned score is
an exact rescoring, so the index can lose recall but never precision:

* CosineLshIndex: random-hyperplane signatures for unit-ish vectors. Each
  of the P hyperplanes contributes one sign bit; bits are grouped into B
  bands of R rows, and two vectors collide when any band matches exactly.
  A single bit agrees with probability 1 - angle/pi. The search engine
  scores its semantic parts with it and masks them with its collisions.
* MinHashIndex: min-wise signatures for token sets under universal hashing
  h_i(x) = (a_i * x + b_i) mod p, banded the same way; a single slot
  matches with probability equal to the Jaccard similarity. It is a library
  class that the search engine no longer uses: the engine finds name and
  value candidates exactly, with ``syntactic.SetPostings``.

State is held once. A cosine index numbers its finite vectors by insertion
order, lists their keys in ``keys`` (row i is ``keys[i]``, and ``rows``
maps back) and keeps one float64 matrix, each row a stored float32 vector
widened exactly, plus each row's norm for scoring and its band keys packed
into one uint8 row; ``buckets`` is derived from those packed keys when it
is read. Its hyperplanes are one float64 array, float32-rounded values
widened exactly, that every signature multiplies by. ``scores`` gives a
stack of vectors' cosines with every stored row, in one ``cosines`` pass
over the matrix where it sits: each stored row is dotted with the whole
stack at once, so the matrix is streamed once per stack, not once per
vector. ``collisions`` keeps those of the rows it is given that share a
band with a vector, comparing only their packed keys; banding only masks:
``lookup`` tests the rows at or above its threshold and names them by key.
Each pair's dot product is reduced on its own, so a ``scores`` entry, a
lookup score and ``search.attribute_unionability`` of the same pair agree
bit for bit, whatever the stack and the BLAS thread count. A min-hash
index keeps no copy of its token sets: ``token_sets`` maps each key to the
frozenset the caller inserted; its buckets hold keys. Exact scores come
from those rows and sets; buckets only choose what counts.

Everything else is derived: hyperplanes and hash coefficients follow from
the seed, band keys and buckets from the inserted rows and sets, in
insertion order. An index file therefore stores none of it.
"""

from __future__ import annotations

from array import array

import numpy as np

from .corpus import ColumnKey
from .errors import ConfigError, DuplicateKeyError, InputError, NumericError
from .seeding import rng_for, stable_token_hash
from .syntactic import jaccard

MERSENNE_P = (1 << 31) - 1   # prime modulus; products stay below 2**62


def cosines(rows: np.ndarray, row_norms: np.ndarray | float, v: np.ndarray,
            v_norm: np.ndarray | float) -> np.ndarray:
    """Cosines of float64 rows with v, clamped to [-1, 1]; both sides
    broadcast as in vecdot, so rows of shape (n, 1, d) and a stack v of
    shape (m, d) give an (n, m) array.

    vecdot reduces each pair on its own, so a pair's cosine does not depend
    on its place among the rows or the stack, or on the BLAS thread count.
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
    matrix, each the float32 vector widened exactly, with their norms and
    their packed band keys next to it. ``capacity`` rows are allocated up
    front, and an insert past them doubles the allocation. ``keys`` names
    each row, in insertion order, and ``rows`` maps each key back to its
    row. ``planes`` is the one hyperplane array.
    """

    def __init__(self, dim: int, n_planes: int = 256, n_bands: int = 32,
                 rows_per_band: int = 8, seed: int = 0, capacity: int = 0):
        if dim < 1:
            raise ConfigError(f"dim must be >= 1, got {dim}")
        _band_check(n_planes, n_bands, rows_per_band, "cosine index")
        if capacity < 0:
            raise ConfigError(f"capacity must be >= 0, got {capacity}")
        self.dim = dim
        self.n_bands = n_bands
        self.rows_per_band = rows_per_band
        raw = rng_for(seed, "cosine-planes").standard_normal((n_planes, dim))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        # Rounded to float32 once, then widened exactly for every product.
        self.planes = raw.astype(np.float32).astype(np.float64)
        self.rows: dict[ColumnKey, int] = {}
        self.keys: list[ColumnKey] = []
        # Rows past size are unused.
        self._wide = np.empty((capacity, dim), dtype=np.float64)
        self._norms = np.empty(capacity, dtype=np.float64)
        # Row i holds its band keys side by side, band_width bytes each.
        self._band_width = (rows_per_band + 7) // 8
        self._packed = np.empty((capacity, n_bands * self._band_width),
                                dtype=np.uint8)

    @property
    def size(self) -> int:
        return len(self.keys)

    def vector(self, key: ColumnKey) -> np.ndarray:
        """The stored vector of key, float32-exact, as a read-only row view."""
        try:
            row = self._wide[self.rows[key]]
        except KeyError:
            raise InputError(f"unknown key {key!r} in cosine index") from None
        row.flags.writeable = False
        return row

    @property
    def vectors(self) -> np.ndarray:
        """Every stored vector, float32-exact, as a read-only view: row i
        is ``keys[i]``."""
        view = self._wide[:self.size]
        view.flags.writeable = False
        return view

    @property
    def buckets(self) -> list[dict[bytes, array]]:
        """Per band, each band key's rows in insertion order, as
        ``array("q")``.

        Built from the packed keys on every read, so writing into it leaves
        the index alone.
        """
        width = self._band_width
        tables: list[dict[bytes, array]] = []
        for band in range(self.n_bands):
            raw = self._packed[:self.size,
                               band * width:(band + 1) * width].tobytes()
            table: dict[bytes, array] = {}
            for row, start in enumerate(range(0, len(raw), width)):
                bkey = raw[start:start + width]
                if bkey in table:
                    table[bkey].append(row)
                else:
                    table[bkey] = array("q", (row,))
            tables.append(table)
        return tables

    def signature(self, vector: np.ndarray) -> np.ndarray:
        """P sign bits as uint8; a dot product of exactly zero counts as 1."""
        return self._bits(self._prepare(vector))

    def _bits(self, v: np.ndarray) -> np.ndarray:
        """``signature`` of a vector that ``_prepare`` has already made."""
        return (self.planes @ v >= 0.0).astype(np.uint8)

    def _prepare(self, vectors: np.ndarray, ndim: int = 1) -> np.ndarray:
        """One vector, or with ndim 2 a stack of them one per row, as
        float32 values widened exactly."""
        v = np.asarray(vectors, dtype=np.float32).astype(np.float64)
        if v.ndim != ndim or v.shape[-1] != self.dim:
            raise ConfigError(f"vector shape {v.shape}: want {ndim} axes, "
                              f"the last of {self.dim}")
        return v

    def scores(self, vectors: np.ndarray) -> np.ndarray:
        """The cosines of a stack of vectors, one per row, with every stored
        vector: row j of the result is ``vectors[j]``'s, in row order.

        One ``cosines`` pass over the stored rows where they sit, each row
        dotted with every vector of the stack while it is at hand, and the
        norms kept at insert. Each pair is reduced on its own, so a score
        equals the lookup's, and ``search.attribute_unionability``'s, bit
        for bit, whatever else is in the stack. A zero-norm vector anywhere
        in the stack raises NumericError.
        """
        return self._scores(self._prepare(vectors, ndim=2))

    def _scores(self, stack: np.ndarray) -> np.ndarray:
        # One norm per vector, computed as insert computes a stored one.
        norms = np.array([np.linalg.norm(v) for v in stack])
        if (norms == 0.0).any():
            raise NumericError("zero-norm query vector")
        n = self.size
        return cosines(self._wide[:n, None, :], self._norms[:n, None], stack,
                       norms).T

    def collisions(self, vector: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The stored rows, of those given, that share a band with vector,
        in the order given.

        Only the given rows' packed keys are compared with vector's, so a
        caller that passes the few rows at its threshold tests just those.
        """
        return self._collisions(self._prepare(vector), rows)

    def _collisions(self, v: np.ndarray, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        query = self._band_keys(self._bits(v))
        stored = self._packed[:self.size][rows].reshape(
            len(rows), self.n_bands, self._band_width)
        return rows[(stored == query).all(axis=2).any(axis=1)]

    def _band_keys(self, bits: np.ndarray) -> np.ndarray:
        """Each band's bits packed, row b being ``np.packbits(band b)``.

        One packbits over all bands pads each band to whole bytes just as
        packing it alone does, so row b is band b's key.
        """
        return np.packbits(bits.reshape(self.n_bands, self.rows_per_band),
                           axis=1)

    def insert(self, key: ColumnKey, vector: np.ndarray) -> None:
        if key in self.rows:
            raise DuplicateKeyError(f"key already indexed: {key}")
        v = self._prepare(vector)
        norm = np.linalg.norm(v)
        # Widened float32 values cannot overflow it: finite iff each entry is.
        if not np.isfinite(norm):
            raise NumericError(f"non-finite vector for key {key}")
        if norm == 0.0:
            raise NumericError(f"zero-norm vector for key {key}")
        row = len(self.keys)
        if row == len(self._wide):
            grown = max(64, 2 * row)
            self._wide = np.resize(self._wide, (grown, self.dim))
            self._norms = np.resize(self._norms, grown)
            self._packed = np.resize(self._packed,
                                     (grown, self._packed.shape[1]))
        # v holds the float32 values widened exactly.
        self._wide[row] = v
        self._norms[row] = norm
        self._packed[row] = self._band_keys(self._bits(v)).ravel()
        self.rows[key] = row
        self.keys.append(key)

    def lookup(self, vector: np.ndarray, threshold: float
               ) -> list[tuple[ColumnKey, float]]:
        """Colliding rows at or above threshold; sorted by (-cosine, key).

        The vector is prepared once and scored as a stack of one; only the
        rows at or above threshold are tested for a shared band, and only
        the rows that pass are turned into keys.
        """
        v = self._prepare(vector)
        scores = self._scores(v[None])[0]
        rows = self._collisions(v, np.flatnonzero(scores >= threshold))
        hits = [(self.keys[r], s)
                for r, s in zip(rows.tolist(), scores[rows].tolist())]
        hits.sort(key=lambda kv: (-kv[1], kv[0]))
        return hits


class MinHashIndex:
    """Banded min-hash index over token sets, with exact Jaccard rescoring.

    A frozenset passed to insert is kept as is, not copied, so the index
    and its caller share one set.
    """

    def __init__(self, n_perms: int = 128, n_bands: int = 32,
                 rows_per_band: int = 4, seed: int = 0):
        _band_check(n_perms, n_bands, rows_per_band, "minhash index")
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
