"""Deterministic dense-matrix numerics: layers, dropout, Adam, gradient oracle,
and the finite-matrix check shared by the fitting code.

Everything operates on float64 numpy arrays.  Randomness always flows through
an explicit numpy ``Generator`` built by ``RngStream(seed)``, so that a fixed
seed reproduces every draw bit-for-bit; ``Generator.spawn`` splits a stream
into independent child streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericError, ShapeError


def RngStream(seed: int = 0) -> np.random.Generator:
    """A PCG64 ``Generator`` for ``seed``; never seeded from OS entropy.

    Identical seeds yield identical draws, and ``Generator.spawn(n)`` derives
    n independent child streams from the seed's ``SeedSequence``.
    """
    return np.random.Generator(np.random.PCG64(int(seed)))


def as_stream(rng) -> np.random.Generator:
    """Accept a ``Generator``, a plain integer seed, or None (seed 0)."""
    if isinstance(rng, np.random.Generator):
        return rng
    return RngStream(0 if rng is None else rng)


def _as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def require_finite(X: np.ndarray, who: str):
    """DataError naming the first non-finite cell of a 2-D matrix."""
    if not np.isfinite(X).all():
        i, j = np.argwhere(~np.isfinite(X))[0]
        raise DataError(f"{who}: non-finite value {X[i, j]} at row {i}, column {j}")


def affine_forward(x, W, b) -> np.ndarray:
    """out[i, j] = sum_m x[i, m] * W[m, j] + b[0, j]."""
    x, W, b = _as_f64(x), _as_f64(W), _as_f64(b)
    if x.ndim != 2 or W.ndim != 2:
        raise ShapeError(f"affine_forward expects 2-D operands, got {x.shape} and {W.shape}")
    if x.shape[1] != W.shape[0]:
        raise ShapeError(f"affine_forward: x has {x.shape[1]} columns but W has {W.shape[0]} rows")
    b = b.reshape(1, -1)
    if b.shape[1] != W.shape[1]:
        raise ShapeError(f"affine_forward: b has width {b.shape[1]}, W has {W.shape[1]} columns")
    return x @ W + b


def affine_backward(x, W, upstream):
    """Gradients of the affine map given upstream dL/dout.

    Returns (grad_x, grad_W, grad_b).
    """
    x, W, upstream = _as_f64(x), _as_f64(W), _as_f64(upstream)
    if upstream.shape != (x.shape[0], W.shape[1]):
        raise ShapeError(
            f"affine_backward: upstream shape {upstream.shape} does not match "
            f"({x.shape[0]}, {W.shape[1]})"
        )
    grad_x = upstream @ W.T
    grad_W = x.T @ upstream
    grad_b = upstream.sum(axis=0, keepdims=True)
    return grad_x, grad_W, grad_b


def relu_forward(x) -> np.ndarray:
    return np.maximum(0.0, _as_f64(x))


def relu_backward(upstream, x) -> np.ndarray:
    """Mask the upstream gradient where the forward input was <= 0.

    The subgradient at exactly 0 is taken to be 0.
    """
    upstream, x = _as_f64(upstream), _as_f64(x)
    if upstream.shape != x.shape:
        raise ShapeError(f"relu_backward: shapes {upstream.shape} vs {x.shape}")
    return upstream * (x > 0.0)


def dropout_forward(x, rate: float, training: bool, rng: np.random.Generator | None = None):
    """Inverted dropout: zero entries with probability ``rate`` and scale
    survivors by 1/(1-rate) so inference is a pure identity.

    Returns (out, mask) where mask already carries the 1/(1-rate) scaling,
    so backward is just upstream * mask.
    """
    x = _as_f64(x)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x, np.ones_like(x)
    keep = as_stream(rng).uniform(size=x.shape) >= rate
    mask = keep / (1.0 - rate)
    return x * mask, mask


def dropout_backward(upstream, mask) -> np.ndarray:
    return _as_f64(upstream) * mask


def init_weights(fan_in: int, fan_out: int, rng) -> np.ndarray:
    """He-normal weights: i.i.d. zero mean, variance 2/fan_in."""
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"init_weights needs positive fans, got ({fan_in}, {fan_out})")
    return as_stream(rng).normal(size=(fan_in, fan_out)) * np.sqrt(2.0 / fan_in)


# Adam's moment decay rates and denominator guard (the Kingma & Ba defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment buffers and step counter for a parameter list."""

    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    t: int = 0

    @classmethod
    def for_params(cls, params) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params])


def adam_step(params, grads, state: AdamState, lr: float) -> AdamState:
    """One bias-corrected Adam update, applied to ``params`` in place.

    Raises NumericError, before any parameter is written, when a second
    moment is non-finite: a non-finite gradient always makes it so, and a
    finite gradient whose square overflows does too.
    """
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeError("adam_step: params, grads and state lengths differ")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ShapeError(f"adam_step: param shape {p.shape} vs grad {g.shape}")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    with np.errstate(over="ignore", invalid="ignore"):
        for g, m, v in zip(grads, state.m, state.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            if not np.all(np.isfinite(v)):
                raise NumericError("adam_step: non-finite second moment")
    for p, m, v in zip(params, state.m, state.v):
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return state


def finite_diff_grad(f, x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a matrix.

    Used throughout the test suite as the independent oracle for every
    analytic backward pass.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    x = _as_f64(x).copy()
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        f_plus = float(f(x))
        x[idx] = orig - h
        f_minus = float(f(x))
        x[idx] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError(f"finite_diff_grad: non-finite value at index {idx}")
        grad[idx] = (f_plus - f_minus) / (2.0 * h)
        it.iternext()
    return grad
