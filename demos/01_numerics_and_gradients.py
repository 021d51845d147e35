#!/usr/bin/env python3
"""A tour of the numeric core: seeded streams, layers, Adam, and the
finite-difference oracle that keeps every backward pass honest."""

import numpy as np

from pathae.ndcore import (
    AdamState,
    RngStream,
    adam_step,
    affine_backward,
    affine_forward,
    dropout_forward,
    finite_diff_grad,
    init_weights,
    relu_forward,
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

# --- a layer forward and its gradient -------------------------------------
x = rng.normal(size=(4, 3))
W = init_weights(3, 2, rng)   # He-normal: variance 2/fan_in
b = np.zeros((1, 2))
out = affine_forward(x, W, b)
print("\naffine output shape:", out.shape)

# The analytic backward must agree with central differences. This oracle is
# used across the test suite for every layer and every composite loss.
upstream = rng.normal(size=out.shape)
grad_x, grad_W, grad_b = affine_backward(x, W, upstream)
fd_W = finite_diff_grad(lambda v: float(np.sum(affine_forward(x, v, b) * upstream)), W)
print("max |analytic - finite difference| on W:", np.abs(grad_W - fd_W).max())

# --- inverted dropout ------------------------------------------------------
h = relu_forward(out)
dropped, mask = dropout_forward(np.ones((2000, 8)), rate=0.5, training=True, rng=rng)
print("\ndropout keeps the expectation:", round(float(dropped.mean()), 3), "~ 1.0")
print("survivors are scaled by 1/(1-rate):", sorted(set(np.unique(dropped).tolist())))

# --- Adam walks against the gradient ---------------------------------------
param = [np.array([[4.0]])]
state = AdamState.for_params(param)
trace = [param[0][0, 0]]
for _ in range(200):
    grad = [np.array([[2.0 * param[0][0, 0]]])]  # d/dp of p^2
    adam_step(param, grad, state, lr=0.05)
    trace.append(param[0][0, 0])
print("\nminimizing p^2 from 4.0:", [round(float(v), 3) for v in trace[::50]])
