"""Deterministic dense-matrix numerics: seeded streams, He init, Adam, the
gradient oracle, and the finite-matrix check shared by the fitting code.

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


def require_finite(X: np.ndarray, who: str):
    """DataError naming the first non-finite cell of a 2-D matrix."""
    if not np.isfinite(X).all():
        i, j = np.argwhere(~np.isfinite(X))[0]
        raise DataError(f"{who}: non-finite value {X[i, j]} at row {i}, column {j}")


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
    # each expression is formed in as few temporaries as its operands allow:
    # (1 - b2) * g * g in one, lr * (m / bc1) / (sqrt(v / bc2) + eps) in two
    with np.errstate(over="ignore", invalid="ignore"):
        for g, m, v in zip(grads, state.m, state.v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            g2 = (1.0 - b2) * g
            g2 *= g
            v += g2
            del g2
            # v is >= 0 or NaN, and max passes NaN and inf on, so one
            # reduction checks the tensor; initial lets an empty one pass
            if not np.isfinite(v.max(initial=0.0)):
                raise NumericError("adam_step: non-finite second moment")
    for p, m, v in zip(params, state.m, state.v):
        step = m / bc1
        step *= lr
        denom = v / bc2
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        step /= denom
        p -= step
    return state


def finite_diff_grad(f, x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a matrix.

    Used throughout the test suite as the independent oracle for every
    analytic backward pass.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=np.float64).copy()
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
