#!/usr/bin/env python3
"""A tour of the numeric core: seeded streams, He init, Adam, and the
finite-difference oracle that checks the models' analytic gradients."""

import numpy as np

from pathae.models import ArchitectureConfig, build_model, flat_params, forward, loss_and_grads
from pathae.ndcore import (
    AdamState,
    RngStream,
    adam_step,
    finite_diff_grad,
    init_weights,
)

# --- seeded, splittable randomness ----------------------------------------
# Everything stochastic flows through a numpy Generator that RngStream(seed)
# builds; the same seed replays the same draws, and spawn() derives
# independent child streams (one per grid cell, fold or tree).
rng = RngStream(42)
print("same seed, same draws:",
      np.array_equal(RngStream(7).normal(size=3), RngStream(7).normal(size=3)))
child_a, child_b = rng.spawn(2)
print("spawned streams differ:", not np.allclose(child_a.normal(size=3),
                                                 child_b.normal(size=3)))

# --- He-normal initial weights ---------------------------------------------
W = init_weights(400, 300, rng)
print(f"\nHe init, fan_in 400: weight variance {W.var():.5f} ~ {2 / 400:.5f}")

# --- a model's gradients against central differences -----------------------
# A tiny dense VAE with dropout. Its analytic backward pass must agree with
# central differences of the same loss; the test suite runs this check on
# every model kind. Replaying the dropout stream (seed 9) on every forward
# keeps the masks fixed while one weight moves.
arch = ArchitectureConfig(kind="vae", encoder_layer_sizes=[5, 3], dropout_rate=0.3)
model = build_model(arch, gene_count=6, rng=rng)
x = rng.normal(size=(4, 6))
beta = 0.5
_, grads = loss_and_grads(model, x, forward(model, x, training=True, rng=RngStream(9)), beta)


def loss_at(p, value):
    old = p.copy()
    p[...] = value
    total, _ = loss_and_grads(model, x, forward(model, x, training=True, rng=RngStream(9)), beta)
    p[...] = old
    return total


worst = 0.0
for p, g in zip(flat_params(model), grads):
    fd = finite_diff_grad(lambda v, p=p: loss_at(p, v), p)
    worst = max(worst, float(np.abs(g - fd).max()))
print(f"{len(grads)} parameter tensors; max |analytic - finite difference|: {worst:.2e}")

# --- Adam walks against the gradient ---------------------------------------
param = [np.array([[4.0]])]
state = AdamState.for_params(param)
trace = [param[0][0, 0]]
for _ in range(200):
    grad = [np.array([[2.0 * param[0][0, 0]]])]  # d/dp of p^2
    adam_step(param, grad, state, lr=0.05)
    trace.append(param[0][0, 0])
print("\nminimizing p^2 from 4.0:", [round(float(v), 3) for v in trace[::50]])
