"""Locality-sensitive indexes for fast candidate generation.

Two families, both used only to gather candidates — every returned score is
an exact rescoring, so the index can lose recall but never precision:

* CosineLshIndex: random-hyperplane signatures for unit-ish vectors. Each
  of the P hyperplanes contributes one sign bit; bits are grouped into B
  bands of R rows, and two vectors collide when any band matches exactly.
  A single bit agrees with probability 1 - angle/pi. The search engine
  scores its semantic parts with it and masks them with its band test.
* MinHashIndex: min-wise signatures for token sets under universal hashing
  h_i(x) = (a_i * x + b_i) mod p, banded the same way; a single slot
  matches with probability equal to the Jaccard similarity. It is a library
  class that the search engine no longer uses: the engine finds name and
  value candidates exactly, with ``syntactic.SetPostings``.

State is held once. A cosine index numbers its finite vectors by insertion
order, lists their keys in ``keys`` (row i is ``keys[i]``, and ``rows``
maps back) and keeps one float32 matrix of the stored vectors, plus each
row's float64 norm for scoring and its band keys packed into one uint8
row; ``buckets`` is derived from those packed keys when it is read. Its
hyperplanes are one float64 array, float32-rounded values widened exactly,
that every signature multiplies by. ``insert_many`` files a whole matrix
in array passes over row blocks, and ``insert`` is a stack of one through
it: every norm, stored or of a query, is ``_norms``'s square root of a
float64 self-dot, and the sign bits come from one float64 product per
block, with the few rows within a proven margin of a hyperplane re-signed
one by one, so the packed keys are those of signing each row alone.
``scores`` gives a stack of vectors' cosines with every stored row in one
``cosines`` pass, widening the rows block by block into one float64
buffer. The other calls take a stack too and name a pair of its vector j
and stored row by the id ``j * size + row``: ``prefilter`` finds, with a
proven error margin, the ids whose exact cosine can reach a threshold;
``pair_scores`` scores given ids exactly in one pass; ``band_hits`` keeps
those of given ids whose vector shares a band with the row, comparing only
their packed keys. ``banded`` is the one banded answer, made of those three
calls, and ``lookup`` is ``banded`` of a stack of one, named by key. Each
pair's dot product is reduced on its own, in float64, so a ``scores``
entry, a ``pair_scores`` entry, a ``banded`` cosine, a lookup score and
``search.attribute_unionability`` of the same pair agree bit for bit,
whatever the stack and the BLAS thread count. A min-hash
index keeps no copy of its token sets: ``token_sets`` maps each key to the
frozenset the caller inserted; its buckets hold keys. Exact scores come
from those rows and sets; buckets only choose what counts.

Everything else is derived: hyperplanes and hash coefficients follow from
the seed, band keys and buckets from the inserted rows and sets, in
insertion order, and the prefilter's subspace sketch from the rows, at its
first call after an insert. An index file therefore stores none of it.
"""

from __future__ import annotations

from array import array
from types import MappingProxyType
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import ColumnKey
from .errors import ConfigError, DuplicateKeyError, InputError, NumericError
from .seeding import rng_for, stable_token_hash
from .syntactic import jaccard

MERSENNE_P = (1 << 31) - 1   # prime modulus; products stay below 2**62
# Bytes of float64 rows that ``scores`` widens at a time.
_BLOCK_BYTES = 1 << 19
# Bytes of float32 rows that ``prefilter`` gathers at a time: small enough
# to stay in a core's L2 cache for its product.
_GATHER_BYTES = 1 << 17
# Stored norms the full-dimension stage of ``prefilter`` is proven for; it
# keeps every other row.
_NORM_RANGE = (2.0 ** -100, 2.0 ** 100)
# The rank of the subspace ``prefilter`` bounds cosines in first: min(this,
# dim) principal directions of the stored rows.
_SUBSPACE_RANK = 48


def cosines(rows: np.ndarray, row_norms: np.ndarray | float, v: np.ndarray,
            v_norm: np.ndarray | float) -> np.ndarray:
    """Cosines of float64 rows with v, clamped to [-1, 1]; both sides
    broadcast as in vecdot, so rows of shape (n, 1, d) and a stack v of
    shape (m, d) give an (n, m) array.

    vecdot reduces each pair on its own, so a pair's cosine does not depend
    on its place among the rows or the stack, or on the BLAS thread count.
    """
    return np.clip(np.vecdot(rows, v) / (row_norms * v_norm), -1.0, 1.0)


def _norms(vectors: np.ndarray) -> np.ndarray:
    """The norm of each float64 vector along the last axis: the square root
    of its dot with itself. It is the one norm expression of the index, so
    a query's norm is the one stored for the same vector."""
    return np.sqrt(np.vecdot(vectors, vectors))


def _dot_margin(dim: int, unit: float = 2.0 ** -24) -> float:
    """Twice gamma_dim = dim*u / (1 - dim*u), by default with the float32
    u = 2**-24: the relative error bound of a dot product of dim terms in
    any summation order (Higham, Accuracy and Stability of Numerical
    Algorithms, section 3.1), and infinite once dim*u reaches 1."""
    du = dim * unit
    return 2.0 * du / (1.0 - du) if du < 1.0 else np.inf


def _coordinates(unit: np.ndarray, basis: np.ndarray, slack: float
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Float64 unit vectors' float32 coordinates in basis, one row each,
    and a float32 bound on each one's distance from basis.T times them:
    the float64 residual norm plus slack, rounded up."""
    coords = (unit @ basis.T).astype(np.float32)
    residuals = _norms(unit - coords.astype(np.float64) @ basis) + slack
    # Rounding to nearest moves a value by under 2**-24 of it.
    return coords, (residuals * (1.0 + 2.0 ** -23)).astype(np.float32)


def _grown(array: np.ndarray, rows: int) -> np.ndarray:
    """A new array of rows along the first axis that starts with array's
    rows. Unlike ``np.resize`` it writes nothing past them, so their pages
    are not touched before they are filled."""
    out = np.empty((rows, *array.shape[1:]), dtype=array.dtype)
    out[:len(array)] = array
    return out


class _Sketch(NamedTuple):
    """What stage 1 of ``CosineLshIndex.prefilter`` reads: its basis P,
    the (K + 2) x n array [a; rho; 1], A, R, eps and H."""

    basis: np.ndarray
    aug: np.ndarray
    a_max: float
    rho_max: float
    eps: float
    slack: float


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

    Each inserted vector gets the next row number. Rows live in one float32
    matrix, the vectors as stored, with their float64 norms and their
    packed band keys next to it. An insert past the allocated rows grows
    them to twice the rows filed, or to the new row count if that is more,
    so the first ``insert_many`` allocates exactly its stack. ``keys`` names
    each row, in insertion order, and ``rows`` maps each key back to its
    row. ``planes`` is the one hyperplane array. ``prefilter`` derives its
    subspace sketch of the rows when it first needs it, and every insert
    drops it. A search engine's index is sealed: ``keys`` a tuple, ``rows``
    a read-only mapping, its arrays read-only, and inserts refused.
    """

    def __init__(self, dim: int, n_planes: int = 256, n_bands: int = 32,
                 rows_per_band: int = 8, seed: int = 0):
        if dim < 1:
            raise ConfigError(f"dim must be >= 1, got {dim}")
        _band_check(n_planes, n_bands, rows_per_band, "cosine index")
        self.dim = dim
        self.n_bands = n_bands
        self.rows_per_band = rows_per_band
        raw = rng_for(seed, "cosine-planes").standard_normal((n_planes, dim))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        # Rounded to float32 once, then widened exactly for every product.
        self.planes = raw.astype(np.float32).astype(np.float64)
        self.rows: dict[ColumnKey, int] = {}
        self.keys: list[ColumnKey] = []
        self._margin = _dot_margin(dim)
        # A row's sign bits are unsure where its float64 dot with plane i
        # is at most twice gamma_dim (u = 2**-53) times |plane i| |row|.
        self._sign_limits = _dot_margin(dim, 2.0 ** -53) * _norms(self.planes)
        # Rows past size are unused.
        self._rows = np.empty((0, dim), dtype=np.float32)
        self._norms = np.empty(0, dtype=np.float64)
        # Row i holds its band keys side by side, band_width bytes each.
        self._band_width = (rows_per_band + 7) // 8
        self._packed = np.empty((0, n_bands * self._band_width),
                                dtype=np.uint8)
        # Derived from the stored rows when ``prefilter`` first needs it.
        self._sketch: _Sketch | None = None

    @property
    def size(self) -> int:
        return len(self.keys)

    def vector(self, key: ColumnKey) -> np.ndarray:
        """The stored float32 vector of key, as a read-only row view."""
        try:
            row = self._rows[self.rows[key]]
        except KeyError:
            raise InputError(f"unknown key {key!r} in cosine index") from None
        row.flags.writeable = False
        return row

    @property
    def vectors(self) -> np.ndarray:
        """Every stored float32 vector, as a read-only view: row i is
        ``keys[i]``."""
        view = self._rows[:self.size]
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
        return self._shaped(vectors, ndim).astype(np.float64)

    def _shaped(self, vectors: np.ndarray, ndim: int) -> np.ndarray:
        """The vectors as float32, which a float32 array already is."""
        v = np.asarray(vectors, dtype=np.float32)
        if v.ndim != ndim or v.shape[-1] != self.dim:
            raise ConfigError(f"vector shape {v.shape}: want {ndim} axes, "
                              f"the last of {self.dim}")
        return v

    def scores(self, vectors: np.ndarray) -> np.ndarray:
        """The cosines of a stack of vectors, one per row, with every stored
        vector: row j of the result is ``vectors[j]``'s, in row order.

        One ``cosines`` pass over the stored rows, widened block by block
        into one float64 buffer, each row dotted with every vector of the
        stack while it is at hand, and the norms kept at insert. Each pair
        is reduced on its own, so a score equals the lookup's, and
        ``search.attribute_unionability``'s, bit for bit, whatever else is
        in the stack. A zero-norm vector anywhere in the stack raises
        NumericError.
        """
        stack = self._prepare(vectors, ndim=2)
        norms = self._query_norms(stack)
        n = self.size
        out = np.empty((n, len(stack)))
        step = max(1, _BLOCK_BYTES // (8 * self.dim))
        buf = np.empty((min(step, n), self.dim))
        for start in range(0, n, step):
            block = buf[:min(step, n - start)]
            stop = start + len(block)
            block[...] = self._rows[start:stop]
            out[start:stop] = cosines(block[:, None, :],
                                      self._norms[start:stop, None], stack,
                                      norms)
        return out.T

    @staticmethod
    def _query_norms(stack: np.ndarray) -> np.ndarray:
        """One norm per vector, computed by ``_norms`` as a stored one is."""
        norms = _norms(stack)
        if (norms == 0.0).any():
            raise NumericError("zero-norm query vector")
        return norms

    def prefilter(self, vectors: np.ndarray, threshold: float) -> np.ndarray:
        """The pairs of a stack's vectors and stored rows whose exact cosine
        can reach threshold, as ascending ids ``j * size + row`` for vector
        j: a superset of ``np.flatnonzero(scores(vectors) >= threshold)``.

        Two stages decide it, t being the threshold clamped to [-1, 1], a
        filter and a refinement (GEMINI: Faloutsos, Ranganathan and
        Manolopoulos, SIGMOD 1994):

        * Stage 1 bounds each cosine in a subspace. The sketch of the stored
          rows, built in row blocks at the first call after an insert,
          holds P, the top K = min(``_SUBSPACE_RANK``, dim) principal
          directions of the unit rows r/|r| (one float64 row of P each),
          and per row its float32 coordinates a = P r/|r| and a bound rho
          on its distance from the subspace, as one (K + 2) x n float32
          array [a; rho; 1]. Each vector q gets b and sigma the same way,
          and one float32 product [b; sigma; -t] @ [a; rho; 1] gives
          a.b + sigma rho - t for every pair. A pair passes unless that
          is below -m rounded down to float32, m being a margin per vector
          (below). An index of fewer rows than dimensions has no sketch,
          and every pair passes: its basis would cost a dim-cubed
          eigensolver to save part of a product of under dim rows.
        * Stage 2 refines the rows that pass stage 1 for any vector of the
          stack. They are gathered, and one float32 product with the stack
          over the full dimension decides each of their pairs: a pair is
          kept unless its float32 dot is below (t - margin) * |r| |q|, with
          the float64 norms of ``scores`` and margin twice gamma_d
          (``_dot_margin``); so NaN and infinite dots are kept.

        Either stage alone keeps a superset, so their chain does. Its cost
        follows stage 1's pruning: on rows without low-rank structure
        stage 1 passes most rows, and stage 2 is a full scan plus a gather.

        Both passes read the same float32 values exactly. Let x = r/|r| and
        y = q/|q| be the real unit vectors, D = r.q and N = |r| |q|. The
        float64 pass of ``scores`` rounds its dot, its norms, their product
        and their quotient: its cosine reaches t only if D >= (t - e) N,
        with e under d * 2**-52. Its clamp adds nothing for t in (-1, 1],
        and at t = -1 every pair reaches t and every pair stays: each bound
        below holds for any x.y >= -1.

        Why stage 1 loses no pair at t:

        * With u = x - P^T a, v = y - P^T b, delta = P x - a and eta =
          P y - b, exactly x.y = a.b + E + u.v, where E = delta.b +
          a.(eta + (I - P P^T) b), and u.v <= rho sigma once rho >= |u|
          and sigma >= |v|. So a pair at t has a.b + sigma rho >= t - e
          - |E|.
        * eps bounds the spectral norm of I - P P^T: the Frobenius norm of
          the float64 P P^T - I, plus H (below). The basis eigh gives has
          eps near 1e-14; past 2**-10 every margin is infinite, so every
          pair passes and stage 2 decides. Below it, P and every
          vector here are of unit scale.
        * a is the float64 P x rounded to float32, so |delta| <= 2**-23 A
          + H, A being the largest |a|, and likewise |eta| <= 2**-23 B + H,
          with B = |b| (coordinates that underflow in float32 move by
          under 2**-150 each). So |E| <= (2**-22 + eps) A B + H (A + B).
        * H = 4 (K + 1) ``_dot_margin(dim + K + 8, 2**-53)`` bounds each
          float64 rounding of these unit-scale terms: the division by the
          stored norm, the products with P and P^T and the residual norms
          (Higham, section 3.1), and e. rho and sigma are the float64
          residual norms plus H, rounded up to float32.
        * The float32 product sums K + 2 products of float32 values: in
          any order within gamma_(K+2) (A B + sigma R + 1) of their real
          sum, R being the largest rho, and -t rounds to float32 by at most
          2**-24. Underflowing products add under (K + 2) 2**-149.
        * So the product of a pair at t is at least -(e + |E| + 2**-24 +
          gamma_(K+2) (A B + sigma R + 1)). m = 2 gamma_(K+2) (A B +
          sigma R + 1) + (eps + 2**-22) A B + H (A + B + 1) exceeds that:
          H covers e, and the second gamma_(K+2) (A B + sigma R + 1), at
          least 3 * 2**-24, covers the 2**-24 and the rounding of m, A
          and B.
        * Range. In float64, no float32 row or its unit vector comes near
          overflow or underflow, so stage 1 needs no norm range. A vector
          with a non-finite entry keeps every row (its cosines are NaN),
          whatever either stage says.

        Why stage 2 loses no pair at t:

        * Any float32 summation order gives |dot - D| <= gamma_d * N
          (Higham, section 3.1, with Cauchy-Schwarz), while no product or
          sum leaves the float32 range.
        * So a row at t has dot >= (t - gamma_d - e) N, and the second
          gamma_d covers e and the rounding of the limit.
        * Range. Each vector is scaled by a power of two to a norm in
          [1/2, 1), which moves no bit but those of entries that underflow,
          each by under 2**-149. A row whose norm lies in ``_NORM_RANGE``
          then keeps every partial sum below 2**101, far from overflow,
          and underflowing products add under d * 2**-149, below 2**-24 of
          gamma_d * N. Rows outside that range are always kept.

        Any superset gives the same search results, since only the pairs
        at t are scored and kept. A zero-norm vector anywhere in the stack
        raises NumericError.
        """
        stack = self._prepare(vectors, ndim=2)
        norms = self._query_norms(stack)
        t = float(np.clip(threshold, -1.0, 1.0))
        # A vector with a non-finite entry keeps every row; both stages
        # see it as a zero vector of norm 1, and their answers are ignored.
        finite = np.isfinite(norms)
        stack = np.where(finite[:, None], stack, 0.0)
        norms = np.where(finite, norms, 1.0)
        keep = self._bounded(stack / norms[:, None], t)
        keep[~finite] = True
        rows = np.flatnonzero(keep.any(axis=0))
        keep = self._refined(stack, norms, rows, t)
        keep[~finite] = True
        which, at = np.nonzero(keep)
        return which * self.size + rows[at]

    def _bounded(self, unit: np.ndarray, t: float) -> np.ndarray:
        """Stage 1 of ``prefilter``: whether each pair of the unit vectors
        and the stored rows passes the subspace bound."""
        if self.size < self.dim:
            return np.ones((len(unit), self.size), dtype=bool)
        if self._sketch is None:
            self._sketch = self._sketched()
        basis, aug, a_max, rho_max, eps, slack = self._sketch
        k = len(basis)
        b, sigma = _coordinates(unit, basis, slack)
        lhs = np.empty((len(unit), k + 2), dtype=np.float32)
        lhs[:, :k], lhs[:, k], lhs[:, k + 1] = b, sigma, -t
        b_norms = _norms(b.astype(np.float64))
        ab = a_max * b_norms
        margins = _dot_margin(k + 2) \
            * (ab + sigma.astype(np.float64) * rho_max + 1.0) \
            + (eps + 2.0 ** -22) * ab + slack * (a_max + b_norms + 1.0)
        if not eps <= 2.0 ** -10:
            margins[:] = np.inf
        # Rounding to nearest moves -m (1 + 2**-23) by under 2**-24 of it,
        # so each float32 limit is at most -m.
        limits = (-margins * (1.0 + 2.0 ** -23)).astype(np.float32)
        # The unit vectors are finite, so no product is NaN.
        return lhs @ aug >= limits[:, None]

    def _refined(self, stack: np.ndarray, norms: np.ndarray,
                 rows: np.ndarray, t: float) -> np.ndarray:
        """Stage 2 of ``prefilter``: whether each pair of the vectors and
        the given stored rows passes the full-dimension float32 test,
        one column per row, gathering the rows in blocks of
        ``_GATHER_BYTES``."""
        _, exps = np.frexp(norms)
        scaled = np.ldexp(stack.astype(np.float32), -exps[:, None])
        row_norms = self._norms[rows]
        row_limits = (t - self._margin) * row_norms
        low, high = _NORM_RANGE
        row_limits[(row_norms < low) | (row_norms > high)] = -np.inf
        # One vector's limits per row of the result, so each product runs
        # along the stored rows.
        limits = np.ldexp(norms, -exps)[:, None] * row_limits
        dots = np.empty((len(rows), len(stack)), dtype=np.float32)
        step = max(1, _GATHER_BYTES // (4 * self.dim))
        for lo in range(0, len(rows), step):
            dots[lo:lo + step] = self._rows[rows[lo:lo + step]] @ scaled.T
        return ~(dots.T < limits)

    def _sketched(self) -> _Sketch:
        """The sketch stage 1 of ``prefilter`` reads, built in row blocks
        of ``_BLOCK_BYTES`` of float64 values."""
        n, dim = self.size, self.dim
        step = max(1, _BLOCK_BYTES // (8 * dim))
        blocks = [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]
        basis = self._basis(min(_SUBSPACE_RANK, dim), blocks)
        k = len(basis)
        slack = 4.0 * (k + 1) * _dot_margin(dim + k + 8, 2.0 ** -53)
        eps = float(np.linalg.norm(basis @ basis.T - np.eye(k))) + slack
        aug = np.empty((k + 2, n), dtype=np.float32)
        aug[k + 1] = 1.0
        a_max = 0.0
        for block in blocks:
            a, aug[k, block] = _coordinates(self._unit(block), basis, slack)
            aug[:k, block] = a.T
            a_max = max(a_max, float(_norms(a.astype(np.float64)).max()))
        return _Sketch(basis, aug, a_max, float(aug[k].max()), eps, slack)

    def _basis(self, k: int, blocks: list[slice]) -> np.ndarray:
        """The top k principal directions of the unit rows, one per row:
        eigenvectors of their Gram matrix, summed over the row blocks."""
        gram = np.zeros((self.dim, self.dim))
        for block in blocks:
            unit = self._unit(block)
            gram += unit.T @ unit
        return np.ascontiguousarray(np.linalg.eigh(gram)[1][:, ::-1][:, :k].T)

    def _unit(self, which: slice | np.ndarray) -> np.ndarray:
        """The stored rows which picks, widened and divided by their
        norms."""
        return self._rows[which].astype(np.float64) / self._norms[which, None]

    def pair_scores(self, vectors: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """The cosines of the pairs of a stack's vectors and stored rows
        named by ids, as ``prefilter`` names them, in the order given; each
        equals its ``scores`` entry bit for bit. A zero-norm vector
        anywhere in the stack raises NumericError."""
        stack = self._prepare(vectors, ndim=2)
        norms = self._query_norms(stack)
        which, rows = np.divmod(np.asarray(ids, dtype=np.int64), self.size)
        return cosines(self._rows[rows].astype(np.float64), self._norms[rows],
                       stack[which], norms[which])

    def band_hits(self, vectors: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """The pairs, of those named by ids as ``prefilter`` names them,
        whose vector shares a band with the stored row, in the order given.

        Each vector's band keys come from its own signature, signed in one
        ``_signed`` pass as ``insert_many`` signs a stored row. Only the
        named rows' packed keys are compared, so a caller that passes the
        few pairs at its threshold tests just those.
        """
        stack = self._prepare(vectors, ndim=2)
        ids = np.asarray(ids, dtype=np.int64)
        which, rows = np.divmod(ids, self.size)
        shape = (self.n_bands, self._band_width)
        query = self._signed(stack, _norms(stack)).reshape(len(stack), *shape)
        stored = self._packed[rows].reshape(len(rows), *shape)
        return ids[(stored == query[which]).all(axis=2).any(axis=1)]

    def insert(self, key: ColumnKey, vector: np.ndarray) -> None:
        """File one vector under key: ``insert_many`` of a stack of one."""
        self._file([key], self._prepare(vector)[None])

    def insert_many(self, keys: Sequence[ColumnKey],
                    vectors: np.ndarray) -> None:
        """File a stack of vectors, one per row, under keys in order.

        The rows, norms and band keys are those of inserting each vector in
        turn, and so is the error: a key already filed, or earlier in keys,
        raises DuplicateKeyError, a non-finite or zero vector NumericError,
        naming the first such key (a key's duplicate before its vector).
        Nothing is filed then. The vectors are read, never written.

        Two passes over row blocks, widened to float64: ``_norms``, then
        one float64 product with the hyperplanes and one ``packbits``.
        That product may round other bits than ``_bits``'s own, so a row
        whose dot d with some plane p has |d| <= 2 gamma_dim |p| |v|
        (u = 2**-53, ``_dot_margin``) is re-signed by ``_bits`` alone.
        Every other row's bits are ``_bits``'s:

        * The widened float32 values multiply exactly in float64 (24-bit
          significands give 48-bit products), and no product or partial sum
          leaves the float64 range or underflows. So each pass's dot is
          the exact dot D of p and v summed in some order, within
          gamma_(dim-1) P of D, where P = sum |p_i v_i| <= |p| |v|
          (Higham, section 3.1, with or without fused multiply-adds).
        * If the two dots differ in sign bit, d lies within 2 gamma_(dim-1)
          P of the other one, on the other side of zero or at it, so |d|
          is at most that.
        * The limit rounds each norm's dot, its square root and two
          products, and so lies within a relative (dim + 4) u below
          2 gamma_dim |p| |v|. That is still above 2 gamma_(dim-1) P: the
          two gammas differ by more than 2u, against 2 gamma_dim (dim + 4)
          u, for any dim below 2**26.
        """
        self._file(list(keys), self._shaped(vectors, ndim=2))

    def _adopt(self, keys: Sequence[ColumnKey], matrix: np.ndarray) -> None:
        """``insert_many`` into an empty index that takes matrix as its rows
        instead of copying it: the private handoff of a float32 matrix that
        its maker fills once and then drops, as a build and a load do."""
        if self.size or matrix.dtype != np.float32 \
                or not matrix.flags.c_contiguous:
            raise ValueError("only an empty index adopts, and only a "
                             "C-contiguous float32 matrix")
        self._rows = self._shaped(matrix, ndim=2)
        self._file(list(keys), self._rows)

    def _seal(self) -> None:
        """Make the index read-only in place, so ``_file`` refuses inserts."""
        self.keys, self.rows = tuple(self.keys), MappingProxyType(self.rows)
        for stored in (self._rows, self._norms, self._packed):
            stored.flags.writeable = False

    def _file(self, keys: list[ColumnKey], matrix: np.ndarray) -> None:
        """``insert_many`` of a stack already shaped, of float32 values; an
        adopted matrix is the rows already."""
        if isinstance(self.keys, tuple):
            raise ConfigError("a sealed cosine index takes no inserts")
        if len(matrix) != len(keys):
            raise ConfigError(f"{len(matrix)} vectors for {len(keys)} keys")
        self._sketch = None
        start, stop = self.size, self.size + len(keys)
        filed: dict[ColumnKey, int] = {}
        duplicate = len(keys)
        for i, key in enumerate(keys):
            if key in self.rows or key in filed:
                duplicate = i
                break
            filed[key] = start + i
        if stop > len(self._norms):
            grown = max(2 * start, stop)
            if stop > len(self._rows):
                self._rows = _grown(self._rows, grown)
            self._norms = _grown(self._norms, grown)
            self._packed = _grown(self._packed, grown)
        # Rows past size are unused until the keys are filed, so a refused
        # stack leaves nothing behind. The stored float32 values are the
        # vectors', and the passes widen them exactly.
        rows, norms, packed = (self._rows[start:stop], self._norms[start:stop],
                               self._packed[start:stop])
        if matrix is not self._rows:
            rows[...] = matrix
        # Each block's float64 rows, and its dots with the planes, fill at
        # most _BLOCK_BYTES.
        step = max(1, _BLOCK_BYTES // (8 * max(self.dim, len(self.planes))))
        for lo in range(0, len(rows), step):
            norms[lo:lo + step] = _norms(rows[lo:lo + step].astype(np.float64))
        # Widened float32 values cannot overflow a norm: finite iff each
        # entry is.
        bad = np.flatnonzero(~np.isfinite(norms) | (norms == 0.0))
        first = int(bad[0]) if bad.size else len(keys)
        if duplicate < len(keys) and duplicate <= first:
            raise DuplicateKeyError(f"key already indexed: {keys[duplicate]}")
        if first < len(keys):
            kind = "zero-norm" if np.isfinite(norms[first]) else "non-finite"
            raise NumericError(f"{kind} vector for key {keys[first]}")
        for lo in range(0, len(rows), step):
            packed[lo:lo + step] = self._signed(
                rows[lo:lo + step].astype(np.float64), norms[lo:lo + step])
        self.rows.update(filed)
        self.keys.extend(keys)

    def _signed(self, block: np.ndarray, norms: np.ndarray) -> np.ndarray:
        """The packed band keys of widened rows with their norms, one row of
        the result per row of block (``insert_many`` proves them)."""
        dots = block @ self.planes.T
        bits = dots >= 0.0
        limits = norms[:, None] * self._sign_limits
        unsure = (np.abs(dots, out=dots) <= limits).any(axis=1)
        for row in np.flatnonzero(unsure):
            bits[row] = self._bits(block[row])
        return np.packbits(
            bits.reshape(len(block), self.n_bands, self.rows_per_band),
            axis=2).reshape(len(block), -1)

    def banded(self, vectors: np.ndarray, threshold: float,
               also: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
        """The banded answer for a stack of vectors: the pairs at or above
        threshold whose vector shares a band with the row, and the pairs
        named in also, as ascending ids each once (named as ``prefilter``
        names them), with their exact cosines.

        ``prefilter`` picks the pairs that can reach threshold; they and
        those in also are scored in one ``pair_scores`` pass, and only the
        scored pairs at or above threshold are tested by ``band_hits``.
        Banding only masks, so each cosine is its ``scores`` entry, bit for
        bit. A zero-norm vector anywhere in the stack raises NumericError.
        """
        also = np.asarray([] if also is None else also, dtype=np.int64)
        # Sorted, each id once: np.union1d would import numpy.ma.
        ids = np.sort(np.concatenate([self.prefilter(vectors, threshold),
                                      also]))
        ids = ids[np.diff(ids, prepend=-1) != 0]
        scores = self.pair_scores(vectors, ids)
        keep = np.full(len(ids), False)
        keep[np.searchsorted(ids, also)] = True
        hits = self.band_hits(vectors, ids[scores >= threshold])
        keep[np.searchsorted(ids, hits)] = True
        return ids[keep], scores[keep]

    def lookup(self, vector: np.ndarray, threshold: float
               ) -> list[tuple[ColumnKey, float]]:
        """Colliding rows at or above threshold; sorted by (-cosine, key).

        ``banded`` of a stack of one, whose pair ids are its rows, turned
        into keys.
        """
        rows, scores = self.banded(self._shaped(vector, ndim=1)[None],
                                   threshold)
        hits = [(self.keys[r], s)
                for r, s in zip(rows.tolist(), scores.tolist())]
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
