"""Dense numeric kernel: seeded RNG derivation, parameter initialization,
optimizer steps, and a finite-difference gradient oracle used by the tests.

Everything here is a pure function of its inputs. Randomness never comes
from global state: each consumer derives its own generator from an integer
seed plus component tags, so concurrent callers cannot perturb each other's
streams.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

_SEED_MASK = 0xFFFFFFFFFFFFFFFF


def _entropy_word(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & _SEED_MASK
    if isinstance(tag, str):
        return zlib.crc32(tag.encode("utf-8"))
    raise TypeError(f"seed tag must be int or str, got {type(tag).__name__}")


def seed_sequence(seed: int, *tags) -> np.random.SeedSequence:
    return np.random.SeedSequence([_entropy_word(seed)] + [_entropy_word(t) for t in tags])


def rng_for(seed: int, *tags) -> np.random.Generator:
    """Generator for (seed, *tags). Tags are ints or short strings naming the
    consumer ("partition", client id, round index, ...)."""
    return np.random.Generator(np.random.PCG64(seed_sequence(seed, *tags)))


def derive_seed(seed: int, *tags) -> int:
    """Collapse (seed, *tags) to a single integer sub-seed."""
    return int(seed_sequence(seed, *tags).generate_state(1, np.uint64)[0])


def fan_bound(shape: tuple[int, ...]) -> float:
    """Uniform init half-width sqrt(6 / (fan_in + fan_out)).

    Vectors use their length as the combined fan.
    """
    if len(shape) == 2:
        fan = shape[0] + shape[1]
    elif len(shape) == 1:
        fan = shape[0]
    else:
        raise ValueError(f"unsupported tensor rank {len(shape)}")
    return float(np.sqrt(6.0 / fan))


def init_uniform(shape: tuple[int, ...], seed: int, dtype=np.float32) -> np.ndarray:
    """I.i.d. Uniform(-s, s) entries with s = fan_bound(shape).

    Draws are made in float64 and cast, so float32 and float64 tensors built
    from the same seed agree to float32 precision.
    """
    if any(d <= 0 for d in shape):
        raise ValueError(f"non-positive dimension in shape {shape}")
    s = fan_bound(shape)
    values = rng_for(seed, "uniform").uniform(-s, s, size=shape)
    return values.astype(dtype)


@dataclass
class OptimizerState:
    """Server optimizer over a flat parameter vector. kind must be
    "nesterov" (momentum 0 makes it plain SGD, bit for bit)."""

    kind: str
    lr: float
    momentum: float
    velocity: np.ndarray

    def __post_init__(self):
        if self.kind != "nesterov":
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")


def make_optimizer(kind: str, lr: float, momentum: float, size: int, dtype=np.float64) -> OptimizerState:
    return OptimizerState(kind=kind, lr=lr, momentum=momentum, velocity=np.zeros(size, dtype=dtype))


def sgd_step(params: np.ndarray, grads: np.ndarray, lr: float) -> np.ndarray:
    """params - lr * grads."""
    if params.shape != grads.shape:
        raise ValueError(f"shape mismatch: params {params.shape} vs grads {grads.shape}")
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    return params - lr * grads


def nesterov_step(state: OptimizerState, pseudo_grad: np.ndarray, params: np.ndarray) -> tuple[np.ndarray, OptimizerState]:
    """Nesterov accelerated step in applied form.

    v' = mu * v + g
    params' = params - lr * (mu * v' + g)

    With momentum 0 this is bit-identical to sgd_step at equal lr.
    """
    if params.shape != pseudo_grad.shape or state.velocity.shape != pseudo_grad.shape:
        raise ValueError("shape mismatch between params, gradient, and velocity")
    v = state.momentum * state.velocity + pseudo_grad
    new_params = params - state.lr * (state.momentum * v + pseudo_grad)
    return new_params, replace(state, velocity=v)


def finite_diff_grad(loss_fn: Callable[[np.ndarray], float], params: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient oracle, (loss(p+h*e_i) - loss(p-h*e_i)) / 2h.

    Requires float64 parameters; this is the independent reference the
    hand-derived backward pass is checked against.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    if params.dtype != np.float64:
        raise ValueError("finite differences require float64 parameters")
    grad = np.empty_like(params)
    for i in range(params.size):
        p = params.copy()
        p[i] += h
        up = loss_fn(p)
        p[i] -= 2 * h
        down = loss_fn(p)
        grad[i] = (up - down) / (2.0 * h)
    return grad
