"""Trainable two-layer projection head with explicit gradients.

The head maps base embeddings into the search embedding space:

    y = W2 @ relu(W1 @ e + b1) + b2

Parameters are stored as float32 (the on-disk format), all arithmetic runs
in float64. Gradients are exact; the rectifier subgradient at 0 is 0. The
optimizer is momentum SGD with a deterministic update order, so identical
seeds reproduce identical parameter trajectories bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_integer
from .seeding import check_seed

F32 = np.float32


@dataclass(frozen=True)
class ProjectionHead:
    W1: np.ndarray  # (hidden, in)
    b1: np.ndarray  # (hidden,)
    W2: np.ndarray  # (out, hidden)
    b2: np.ndarray  # (out,)
    init_seed: int = 0

    def __post_init__(self) -> None:
        w1, _, w2, _ = shapes = tuple(np.shape(t) for t in self.tensors())
        if not (len(w1) == len(w2) == 2
                and shapes == (w1, w1[:1], (w2[0], w1[0]), w2[:1])):
            raise ConfigError(f"head tensor shapes {shapes} do not agree; want "
                              "W1 (h, in), b1 (h,), W2 (out, h), b2 (out,)")

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.W1.shape[1], self.W1.shape[0], self.W2.shape[0])

    def copy(self) -> "ProjectionHead":
        return ProjectionHead(self.W1.copy(), self.b1.copy(),
                              self.W2.copy(), self.b2.copy(), self.init_seed)

    def tensors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (self.W1, self.b1, self.W2, self.b2)


@dataclass
class HeadGradients:
    dW1: np.ndarray
    db1: np.ndarray
    dW2: np.ndarray
    db2: np.ndarray

    def tensors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (self.dW1, self.db1, self.dW2, self.db2)


@dataclass
class Velocity:
    vW1: np.ndarray
    vb1: np.ndarray
    vW2: np.ndarray
    vb2: np.ndarray

    @classmethod
    def zeros_like(cls, head: ProjectionHead) -> "Velocity":
        return cls(*(np.zeros_like(t) for t in head.tensors()))

    def tensors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (self.vW1, self.vb1, self.vW2, self.vb2)


@dataclass(frozen=True)
class TrainConfig:
    temperature: float = 0.1
    learning_rate: float = 1e-3
    momentum: float = 0.9
    epochs: int = 20
    batch_size: int = 8            # tables per online batch / pairs per offline batch
    sample_size: int = 20          # values per sampled column view
    seed: int = 0
    validation_fraction: float = 0.05
    offline_floor: float = 0.5     # min match score for offline positive pairs

    def __post_init__(self) -> None:
        if not self.temperature > 0:    # NaN too
            raise ConfigError(f"temperature must be > 0, got {self.temperature}")
        for name in ("learning_rate", "momentum"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, "
                                  f"got {getattr(self, name)}")
        check_integer("batch_size", self.batch_size, 2)
        check_integer("epochs", self.epochs, 1)
        check_integer("sample_size", self.sample_size, 1)
        check_seed("seed", self.seed)
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ConfigError("validation_fraction must be in [0, 1), "
                              f"got {self.validation_fraction}")
        # The rule build_offline_pairs applies, so no strategy stores a
        # floor it would refuse.
        if not 0.0 < self.offline_floor <= 1.0:    # NaN too
            raise ConfigError("offline_floor must be in (0, 1], "
                              f"got {self.offline_floor}")


def init_head(in_dim: int, hidden_dim: int, out_dim: int, seed: int = 0) -> ProjectionHead:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases."""
    if min(in_dim, hidden_dim, out_dim) < 1:
        raise ConfigError(f"head dims must be >= 1, got {(in_dim, hidden_dim, out_dim)}")
    check_seed("head seed", seed)
    rng = np.random.default_rng(seed)
    bound1 = 1.0 / np.sqrt(in_dim)
    bound2 = 1.0 / np.sqrt(hidden_dim)
    W1 = rng.uniform(-bound1, bound1, size=(hidden_dim, in_dim)).astype(F32)
    W2 = rng.uniform(-bound2, bound2, size=(out_dim, hidden_dim)).astype(F32)
    return ProjectionHead(W1=W1, b1=np.zeros(hidden_dim, dtype=F32),
                          W2=W2, b2=np.zeros(out_dim, dtype=F32),
                          init_seed=seed)


def widened(head: ProjectionHead) -> ProjectionHead:
    """The head with float64 copies of its tensors, for a caller that
    projects many vectors: ``project`` then widens nothing, and gives the
    same bits as with the head itself."""
    return ProjectionHead(*(t.astype(np.float64) for t in head.tensors()),
                          init_seed=head.init_seed)


def _check_input(head: ProjectionHead, e: np.ndarray) -> np.ndarray:
    e = np.asarray(e, dtype=np.float64)
    in_dim = head.dims[0]
    if e.shape[-1] != in_dim:
        raise ConfigError(f"input dim {e.shape[-1]} != head in_dim {in_dim}")
    return e


def project(head: ProjectionHead, e: np.ndarray) -> np.ndarray:
    """Forward pass; accepts a single vector (in,) or a batch (n, in)."""
    e = _check_input(head, e)
    W1, b1, W2, b2 = (t.astype(np.float64, copy=False) for t in head.tensors())
    z1 = e @ W1.T + b1
    a1 = np.maximum(z1, 0.0)
    return a1 @ W2.T + b2


def backward(head: ProjectionHead, batch: np.ndarray,
             upstream: np.ndarray) -> HeadGradients:
    """Exact parameter gradients chained with upstream output gradients.

    batch: (n, in) base embeddings; upstream: (n, out) dLoss/dOutput.
    """
    X = _check_input(head, np.atleast_2d(batch))
    G = np.asarray(upstream, dtype=np.float64)
    G = np.atleast_2d(G)
    W1, b1, W2, _ = (t.astype(np.float64) for t in head.tensors())
    if G.shape != (X.shape[0], W2.shape[0]):
        raise ConfigError(
            f"upstream shape {G.shape} does not match (n, out)=({X.shape[0]}, {W2.shape[0]})")

    z1 = X @ W1.T + b1
    a1 = np.maximum(z1, 0.0)

    dW2 = G.T @ a1
    db2 = G.sum(axis=0)
    dA1 = G @ W2
    dZ1 = dA1 * (z1 > 0.0)      # subgradient at exactly 0 is 0
    dW1 = dZ1.T @ X
    db1 = dZ1.sum(axis=0)
    return HeadGradients(dW1=dW1, db1=db1, dW2=dW2, db2=db2)


def sgd_step(head: ProjectionHead, grads: HeadGradients, lr: float,
             momentum: float, velocity: Velocity) -> None:
    """v <- momentum * v + g; params <- params - lr * v.

    Updates the head's tensors and the velocity in place, each kept in
    its own dtype.
    """
    params = head.tensors()
    vels = velocity.tensors()
    for p, v, g in zip(params, vels, grads.tensors()):
        if p.shape != g.shape:
            raise ConfigError(f"gradient shape {g.shape} != param shape {p.shape}")
        v_new = momentum * v.astype(np.float64) + g
        p_new = p.astype(np.float64) - lr * v_new
        v[...] = v_new.astype(v.dtype)
        p[...] = p_new.astype(p.dtype)
