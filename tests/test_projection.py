from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from unionsearch.errors import ConfigError
from unionsearch.projection import (
    HeadGradients,
    ProjectionHead,
    TrainConfig,
    Velocity,
    backward,
    init_head,
    project,
    sgd_step,
)


def random_head(in_dim: int, hidden: int, out: int, seed: int) -> ProjectionHead:
    """Float64 head for clean finite-difference numerics."""
    rng = np.random.default_rng(seed)
    return ProjectionHead(
        W1=rng.standard_normal((hidden, in_dim)) * 0.5,
        b1=rng.standard_normal(hidden) * 0.1,
        W2=rng.standard_normal((out, hidden)) * 0.5,
        b2=rng.standard_normal(out) * 0.1,
    )


# ---------------------------------------------------------------- init

def test_init_deterministic_and_bounded():
    h1 = init_head(16, 8, 4, seed=3)
    h2 = init_head(16, 8, 4, seed=3)
    for a, b in zip(h1.tensors(), h2.tensors()):
        np.testing.assert_array_equal(a, b)
    assert np.abs(h1.W1).max() <= 1.0 / np.sqrt(16)
    assert np.abs(h1.W2).max() <= 1.0 / np.sqrt(8)
    assert not np.any(h1.b1) and not np.any(h1.b2)
    assert h1.W1.dtype == np.float32
    assert not np.allclose(h1.W1, init_head(16, 8, 4, seed=4).W1)


def test_init_dims_and_validation():
    h = init_head(10, 6, 3)
    assert h.dims == (10, 6, 3)
    assert project(h, np.zeros(10)).shape == (3,)
    with pytest.raises(ConfigError):
        init_head(0, 6, 3)


# ---------------------------------------------------------------- forward

def test_identity_head_relu_clips_negative():
    eye = np.eye(2)
    h = ProjectionHead(W1=eye, b1=np.zeros(2), W2=eye, b2=np.zeros(2))
    np.testing.assert_array_equal(project(h, np.array([1.0, -1.0])), [1.0, 0.0])


def test_forward_matches_straight_line_recompute():
    h = random_head(7, 5, 3, seed=11)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((4, 7))
    got = project(h, X)
    want = np.maximum(X @ h.W1.T + h.b1, 0.0) @ h.W2.T + h.b2
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_all_zero_head_maps_to_zero():
    h = ProjectionHead(W1=np.zeros((4, 3)), b1=np.zeros(4),
                       W2=np.zeros((2, 4)), b2=np.zeros(2))
    np.testing.assert_array_equal(project(h, np.ones(3)), np.zeros(2))


def test_forward_batch_agrees_with_single():
    h = random_head(6, 6, 4, seed=2)
    rng = np.random.default_rng(1)
    X = rng.standard_normal((5, 6))
    batch = project(h, X)
    for i in range(5):
        np.testing.assert_allclose(batch[i], project(h, X[i]), atol=1e-12)


def test_forward_wrong_dim_rejected():
    h = init_head(8, 8, 4)
    with pytest.raises(ConfigError):
        project(h, np.zeros(9))


def test_head_is_frozen():
    """No field of a head can be rebound; its tensors are written in place,
    as ``sgd_step`` writes them, and ``replace`` checks the shapes again."""
    head = init_head(8, 6, 4, seed=1)
    for f in fields(head):
        with pytest.raises(FrozenInstanceError):
            setattr(head, f.name, getattr(head, f.name))
    with pytest.raises(ConfigError, match="head tensor shapes"):
        replace(head, b1=head.b1[:3])


def test_scaling_output_layer_preserves_cosines():
    h = random_head(6, 5, 4, seed=9)
    scaled = h.copy()
    scaled.W2[...] *= 3.5
    scaled.b2[...] *= 3.5
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal(6), rng.standard_normal(6)
    def cosine(head):
        u, v = project(head, a), project(head, b)
        return u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
    assert cosine(scaled) == pytest.approx(cosine(h), abs=1e-12)


# ---------------------------------------------------------------- backward

def _fd_grads(head: ProjectionHead, X: np.ndarray, U: np.ndarray, h: float = 1e-6):
    """Central differences of L = sum(U * project(head, X)) per parameter."""
    out = []
    for t in head.tensors():
        g = np.zeros_like(t)
        it = np.nditer(t, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = t[idx]
            t[idx] = orig + h
            lp = float((U * project(head, X)).sum())
            t[idx] = orig - h
            lm = float((U * project(head, X)).sum())
            t[idx] = orig
            g[idx] = (lp - lm) / (2 * h)
        out.append(g)
    return out


def _relu_margin(head: ProjectionHead, X: np.ndarray) -> float:
    z1 = X @ head.W1.T + head.b1
    return float(np.abs(z1).min())


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(17)
    for trial in range(5):
        dims = rng.integers(2, 7, size=3)
        head = random_head(int(dims[0]), int(dims[1]), int(dims[2]), seed=100 + trial)
        X = rng.standard_normal((4, int(dims[0])))
        if _relu_margin(head, X) < 1e-3:  # keep away from the relu kink
            X = X + 0.001
        U = rng.standard_normal((4, int(dims[2])))
        grads = backward(head, X, U)
        for got, want in zip(grads.tensors(), _fd_grads(head, X, U)):
            denom = max(np.linalg.norm(want), 1e-12)
            assert np.linalg.norm(got - want) / denom < 1e-4


def test_backward_zero_upstream_zero_grads():
    head = random_head(5, 4, 3, seed=1)
    X = np.random.default_rng(0).standard_normal((3, 5))
    grads = backward(head, X, np.zeros((3, 3)))
    for g in grads.tensors():
        assert not np.any(g)


def test_backward_linear_in_upstream():
    head = random_head(5, 4, 3, seed=1)
    rng = np.random.default_rng(2)
    X = rng.standard_normal((3, 5))
    U = rng.standard_normal((3, 3))
    g1 = backward(head, X, U)
    g2 = backward(head, X, 2.0 * U)
    for a, b in zip(g1.tensors(), g2.tensors()):
        np.testing.assert_allclose(b, 2.0 * a, atol=1e-12)


def test_backward_shape_mismatch_rejected():
    head = random_head(5, 4, 3, seed=1)
    with pytest.raises(ConfigError):
        backward(head, np.zeros((3, 5)), np.zeros((3, 4)))


# ---------------------------------------------------------------- sgd

def test_sgd_zero_gradient_fixed_point():
    head = random_head(4, 4, 2, seed=5)
    before = [t.copy() for t in head.tensors()]
    zero = HeadGradients(*(np.zeros_like(t) for t in head.tensors()))
    sgd_step(head, zero, lr=0.1, momentum=0.9,
             velocity=Velocity.zeros_like(head))
    for t, b in zip(head.tensors(), before):
        np.testing.assert_array_equal(t, b)


def test_sgd_no_momentum_is_plain_descent():
    head = random_head(4, 3, 2, seed=6)
    before = [t.copy() for t in head.tensors()]
    grads = HeadGradients(*(np.full_like(t, 0.25) for t in head.tensors()))
    sgd_step(head, grads, lr=0.01, momentum=0.0,
             velocity=Velocity.zeros_like(head))
    for t, b in zip(head.tensors(), before):
        np.testing.assert_allclose(t, b - 0.01 * 0.25, atol=1e-12)


def test_sgd_momentum_accumulates():
    head = random_head(4, 3, 2, seed=7)
    g = 0.5
    grads = HeadGradients(*(np.full_like(t, g) for t in head.tensors()))
    vel = Velocity.zeros_like(head)
    sgd_step(head, grads, lr=0.01, momentum=0.9, velocity=vel)
    before_second = [t.copy() for t in head.tensors()]
    sgd_step(head, grads, lr=0.01, momentum=0.9, velocity=vel)
    # second step: velocity = 0.9*g + g, so delta = lr * 1.9 * g
    for t, b in zip(head.tensors(), before_second):
        np.testing.assert_allclose(b - t, 0.01 * 1.9 * g, atol=1e-12)


def test_sgd_velocity_dtype_follows_params():
    head = init_head(6, 6, 3, seed=0)
    grads = HeadGradients(*(np.ones_like(t, dtype=np.float64) for t in head.tensors()))
    vel = Velocity.zeros_like(head)
    sgd_step(head, grads, lr=1e-3, momentum=0.9, velocity=vel)
    assert all(v.dtype == np.float32 for v in vel.tensors())
    assert all(t.dtype == np.float32 for t in head.tensors())


# ---------------------------------------------------------------- config

def test_train_config_validation():
    TrainConfig()
    with pytest.raises(ConfigError):
        TrainConfig(temperature=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=1)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(sample_size=0)
