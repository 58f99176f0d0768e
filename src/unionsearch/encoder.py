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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .corpus import tokenize
from .errors import ConfigError, EmptyColumnError, InputError
from .seeding import stable_token_hash

HASHING_BACKEND = "hashing"
VECTOR_FILE_BACKEND = "vector_file"


@dataclass
class EncoderConfig:
    backend: str = HASHING_BACKEND
    dim: int = 128
    vector_file_path: str | None = None
    hash_seed: int = 0
    # When set, a whole cell becomes one underscore-joined token instead of
    # word-level tokens.
    cell_as_single_token: bool = False

    def validate(self) -> None:
        if self.backend not in (HASHING_BACKEND, VECTOR_FILE_BACKEND):
            raise ConfigError(f"unknown encoder backend {self.backend!r}")
        if self.dim < 8:
            raise ConfigError(f"embedding dim must be >= 8, got {self.dim}")
        if self.backend == VECTOR_FILE_BACKEND and not self.vector_file_path:
            raise ConfigError("vector_file backend requires vector_file_path")


@dataclass
class VectorTable:
    vectors: dict[str, np.ndarray]
    dim: int
    duplicate_count: int = 0

    def get(self, word: str) -> np.ndarray | None:
        return self.vectors.get(word)


def load_vectors(path: str | Path) -> VectorTable:
    """Parse a word-vector file: "word v1 ... vD" per line, consistent D.

    On duplicate words the last occurrence wins; duplicates are counted as
    warnings on the returned table.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
    except OSError as exc:
        raise InputError(f"cannot read vector file {path}: {exc}") from exc

    table: dict[str, np.ndarray] = {}
    dim: int | None = None
    duplicates = 0
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
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            raise InputError(
                f"{path}:{lineno}: dimension {len(vec)} != {dim} from first line")
        if word in table:
            duplicates += 1
        table[word] = vec
    if not table or dim is None:
        raise InputError(f"vector file {path} has no entries")
    return VectorTable(vectors=table, dim=dim, duplicate_count=duplicates)


class Encoder:
    """Stateless given its config and (read-only) vector table.

    Token vectors are memoized; memoization is invisible to callers since the
    hashing embedder is a pure function of (token, hash_seed).
    """

    def __init__(self, cfg: EncoderConfig):
        cfg.validate()
        # An own copy: the vector file's dim replaces the configured one
        # here, never in the caller's config.
        self.cfg = replace(cfg)
        self._vectors: VectorTable | None = None
        self._cache: dict[str, np.ndarray] = {}
        if cfg.backend == VECTOR_FILE_BACKEND:
            self._vectors = load_vectors(cfg.vector_file_path)
            self.cfg.dim = self._vectors.dim

    @property
    def dim(self) -> int:
        return self.cfg.dim

    def _hash_vector(self, token: str) -> np.ndarray:
        rng = np.random.default_rng(stable_token_hash(token, self.cfg.hash_seed))
        v = rng.standard_normal(self.cfg.dim)
        return v / np.linalg.norm(v)

    def embed_token(self, token: str) -> np.ndarray:
        if token == "":
            raise InputError("cannot embed an empty token")
        cached = self._cache.get(token)
        if cached is not None:
            return cached
        if self._vectors is not None:
            vec = self._vectors.get(token)
            if vec is None:
                vec = self._hash_vector(token)
        else:
            vec = self._hash_vector(token)
        self._cache[token] = vec
        return vec

    def _cell_tokens(self, cell: str) -> list[str]:
        tokens = tokenize(cell)
        if tokens and self.cfg.cell_as_single_token:
            return ["_".join(tokens)]
        return tokens

    def _token_mean(self, tokens: list[str]) -> np.ndarray:
        acc = np.zeros(self.cfg.dim)
        for t in tokens:
            acc += self.embed_token(t)
        return acc / len(tokens)

    def embed_column(self, values: list[str]) -> np.ndarray:
        """Mean of non-empty cell embeddings.

        Token-less cells (empty or punctuation-only) are excluded from the
        mean so padding cannot drag embeddings toward the origin.
        """
        acc = np.zeros(self.cfg.dim)
        n = 0
        for cell in values:
            tokens = self._cell_tokens(cell)
            if tokens:
                acc += self._token_mean(tokens)
                n += 1
        if n == 0:
            raise EmptyColumnError("no cell in the column yields any token")
        return acc / n
