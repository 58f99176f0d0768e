"""Base column embeddings from token and cell aggregation.

Two interchangeable backends produce the same interface (values -> vector):

* ``hashing``: each token maps to a deterministic pseudo-random unit vector
  seeded by a stable hash of the token. Dependency-free and reproducible;
  token-disjoint columns come out near-orthogonal at reasonable dimensions.
* ``vector_file``: pretrained word vectors loaded from a plain-text file
  ("word v1 ... vD" per line), with the hashing embedder as the
  out-of-vocabulary fallback.

Cell embeddings are the mean of token embeddings, column embeddings the mean
of non-empty cell embeddings (two-stage, so cells with unequal token counts
weigh equally). A transformer-backed contextual encoder would slot in behind
the same values -> vector interface.

``embed_block`` embeds a ``corpus.CellBlock`` of a lake's or a training
batch's columns at once; ``embed_column`` one query column, where a block
pass costs more than it saves. The bits are the same: the block looks up
each distinct cell's mean once and adds the columns' cells position by
position, the same left-to-right float64 adds.

Tokens are hashed in batches: every token the memo lacks goes through one
path, which seeds the whole batch's generators in one array pass
(``seeding.default_rngs``). Both embedders first hand their cells to
``hash_cells``, so a block, a column or, through ``search.top_k_search``,
a query table is one batch. A token's vector is the same in any batch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path
from typing import Iterable

import numpy as np

from .corpus import CellBlock, cell_tokens
from .errors import ConfigError, EmptyColumnError, InputError, check_integer
from .seeding import check_seed, default_rngs, stable_token_hash

HASHING_BACKEND = "hashing"
VECTOR_FILE_BACKEND = "vector_file"
# Cells whose token mean an encoder keeps. On a lake of IDs every cell is
# distinct, and at dim 128 each kept mean costs 1 KB: 16 MB at the cap.
CELL_CACHE_CAP = 1 << 14


@dataclass(frozen=True)
class EncoderConfig:
    backend: str = HASHING_BACKEND
    dim: int = 128
    vector_file_path: str | None = None
    hash_seed: int = 0
    # When set, a whole cell becomes one underscore-joined token instead of
    # word-level tokens.
    cell_as_single_token: bool = False

    def __post_init__(self) -> None:
        if self.backend not in (HASHING_BACKEND, VECTOR_FILE_BACKEND):
            raise ConfigError(f"unknown encoder backend {self.backend!r}")
        check_integer("embedding dim", self.dim, 8)
        check_seed("hash_seed", self.hash_seed)
        if self.backend == VECTOR_FILE_BACKEND and not self.vector_file_path:
            raise ConfigError("vector_file backend requires vector_file_path")


@dataclass
class VectorTable:
    vectors: dict[str, np.ndarray]
    dim: int

    def get(self, word: str) -> np.ndarray | None:
        return self.vectors.get(word)


def load_vectors(path: str | Path) -> VectorTable:
    """Parse a word-vector file: "word v1 ... vD" per line, consistent D.

    Every value must be finite. On duplicate words the last occurrence wins.
    The vectors are read-only.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
    except OSError as exc:
        raise InputError(f"cannot read vector file {path}: {exc}") from exc

    table: dict[str, np.ndarray] = {}
    dim: int | None = None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) < 2:
            raise InputError(f"{path}:{lineno}: expected word plus vector")
        word = parts[0]
        try:
            vec = np.array([float(x) for x in parts[1:]], dtype=np.float64)
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: bad float") from exc
        if not np.isfinite(vec).all():
            raise InputError(f"{path}:{lineno}: non-finite value")
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            raise InputError(
                f"{path}:{lineno}: dimension {len(vec)} != {dim} from first line")
        vec.flags.writeable = False
        table[word] = vec
    if not table or dim is None:
        raise InputError(f"vector file {path} has no entries")
    return VectorTable(vectors=table, dim=dim)


class Encoder:
    """Deterministic given its config and (read-only) vector file.

    Two memos make each piece of work happen once, and neither changes a
    bit of any result. Every array either holds is read-only, and each
    float row is held once:

    * One token -> vector map serves both backends: a vector file's words
      fill it at construction, and any other token is hashed and added on
      first use. The hashing embedder is a pure function of (token,
      hash_seed): standard normal draws of the generator
      ``default_rng(stable_token_hash(token, hash_seed))`` would give,
      over their norm. ``embed_token`` returns the memo's own array.
    * A cell -> token-mean map (None for a token-less cell) holds up to
      ``CELL_CACHE_CAP`` cells, the first ones met; others are computed
      each time. A cell's tokens depend only on the cell and the fixed
      config, so a kept mean is the array the cell would yield afresh. A
      one-token cell's mean is its token's vector itself, shared with the
      token map; a fresh mean ``(0.0 + v) / 1`` would differ only where v
      holds -0.0, and the column sums, which start at +0.0, make both +0.0.
    """

    def __init__(self, cfg: EncoderConfig):
        self.cfg = cfg
        self._cache: dict[str, np.ndarray] = {}
        self._cell_means: dict[str, np.ndarray | None] = {}
        if cfg.backend == VECTOR_FILE_BACKEND:
            table = load_vectors(cfg.vector_file_path)
            try:
                self.cfg = replace(cfg, dim=table.dim)
            except ConfigError as exc:   # the file carries the bad dim
                raise InputError(f"{cfg.vector_file_path}: {exc}") from exc
            self._cache.update(table.vectors)

    @property
    def dim(self) -> int:
        return self.cfg.dim

    def _tokens(self, cell: str) -> tuple[str, ...]:
        """The tokens a cell's mean averages under this config."""
        tokens = cell_tokens(cell)
        if tokens and self.cfg.cell_as_single_token:
            return ("_".join(tokens),)
        return tokens

    def _hash(self, tokens: Iterable[str]) -> None:
        """Add each token the memo lacks, hashed, their generators seeded
        in one pass. The vectors are rows of one read-only matrix.

        Each row's norm is numpy's own ``einsum`` sum, which adds in the
        same order for a batch of any size and under every BLAS kernel; a
        1-D ``np.linalg.norm`` is a BLAS dot, whose order is the kernel's.
        """
        new = [t for t in dict.fromkeys(tokens) if t not in self._cache]
        if not new:
            return
        vectors = np.empty((len(new), self.cfg.dim))
        for row, rng in zip(vectors, default_rngs(
                [stable_token_hash(t, self.cfg.hash_seed) for t in new])):
            rng.standard_normal(out=row)
        vectors /= np.sqrt(np.einsum("ij,ij->i", vectors, vectors))[:, None]
        vectors.flags.writeable = False
        self._cache.update(zip(new, vectors))

    def hash_cells(self, cells: Iterable[str]) -> None:
        """Hash, in one batch, every token of the cells that the memo lacks.
        A cell the cell memo holds is passed over: its tokens are in."""
        self._hash(chain.from_iterable(
            self._tokens(cell) for cell in cells
            if cell not in self._cell_means))

    def embed_token(self, token: str) -> np.ndarray:
        if token == "":
            raise InputError("cannot embed an empty token")
        if token not in self._cache:
            self._hash((token,))
        return self._cache[token]

    def _cell_mean(self, cell: str) -> np.ndarray | None:
        """Mean of the cell's token vectors; None if it yields no token.
        Its tokens must have been hashed (``hash_cells``)."""
        try:
            return self._cell_means[cell]
        except KeyError:
            pass
        tokens = self._tokens(cell)
        if not tokens:
            mean = None
        elif len(tokens) == 1:
            mean = self._cache[tokens[0]]
        else:
            mean = np.zeros(self.cfg.dim)
            for t in tokens:
                mean += self._cache[t]
            mean /= len(tokens)
            mean.flags.writeable = False
        if len(self._cell_means) < CELL_CACHE_CAP:
            self._cell_means[cell] = mean
        return mean

    def embed_column(self, values: list[str]) -> np.ndarray:
        """Mean of non-empty cell embeddings.

        Token-less cells (empty or punctuation-only) are excluded from the
        mean so padding cannot drag embeddings toward the origin.
        """
        self.hash_cells(values)
        acc = np.zeros(self.cfg.dim)
        n = 0
        for cell in values:
            mean = self._cell_mean(cell)
            if mean is not None:
                acc += mean
                n += 1
        if n == 0:
            raise EmptyColumnError("no cell in the column yields any token")
        return acc / n

    def embed_block(self, block: CellBlock) -> np.ndarray:
        """``embed_column`` of each column of the block, one per row.

        Row s of ``means`` is slot s's cell mean, or zeros for a token-less
        cell and the padding slot; the sums add one cell position of every
        column at a time, in cell order. Each sum starts at +0.0, so it is
        never -0.0, and adding +0.0 leaves it as it was: the bits are
        ``embed_column``'s, which skips such cells.
        """
        self.hash_cells(block.values)
        means = np.zeros((block.padding + 1, self.cfg.dim))
        counted = np.zeros(block.padding + 1, dtype=np.intp)
        for slot, cell in enumerate(block.values):
            mean = self._cell_mean(cell)
            if mean is not None:
                means[slot] = mean
                counted[slot] = 1
        acc = np.zeros((len(block.columns), self.cfg.dim))
        for position in block.slots:
            acc += means[position]
        n = counted[block.slots].sum(axis=0)
        if not n.all():
            raise EmptyColumnError(
                f"no cell of column {block.columns[int(np.argmin(n))].column_key}"
                " yields any token")
        return acc / n[:, None]
