import numpy as np
import pytest

from pathae.errors import ShapeError
from pathae.ndcore import (
    AdamState,
    RngStream,
    adam_step,
    as_stream,
    finite_diff_grad,
    init_weights,
)

from conftest import max_rel_err
from reference import (
    affine_backward,
    affine_forward,
    dropout_backward,
    dropout_forward,
    relu_backward,
    relu_forward,
)


class TestAffine:
    def test_identity_weights(self):
        x = np.array([[1.0, -2.0], [0.5, 3.0]])
        out = affine_forward(x, np.eye(2), np.zeros((1, 2)))
        np.testing.assert_array_equal(out, x)

    def test_hand_product(self):
        out = affine_forward([[1.0, 2.0]], [[1.0, 0.0], [0.0, 2.0]], [[3.0, 3.0]])
        np.testing.assert_array_equal(out, [[4.0, 7.0]])

    def test_zero_rows(self):
        out = affine_forward(np.empty((0, 3)), np.ones((3, 4)), np.zeros((1, 4)))
        assert out.shape == (0, 4)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            affine_forward(np.ones((2, 3)), np.ones((4, 2)), np.zeros((1, 2)))

    def test_backward_zero_upstream(self):
        x, W = np.ones((2, 3)), np.ones((3, 4))
        gx, gW, gb = affine_backward(x, W, np.zeros((2, 4)))
        assert not gx.any() and not gW.any() and not gb.any()

    def test_backward_scalar_case(self):
        gx, gW, gb = affine_backward([[2.0]], [[3.0]], [[1.0]])
        assert gx[0, 0] == 3.0
        assert gW[0, 0] == 2.0
        assert gb[0, 0] == 1.0

    def test_backward_matches_finite_differences(self):
        rng = RngStream(7)
        x = rng.normal(size=(3, 4))
        W = rng.normal(size=(4, 5))
        b = rng.normal(size=(1, 5))
        upstream = rng.normal(size=(3, 5))
        gx, gW, gb = affine_backward(x, W, upstream)
        fx = finite_diff_grad(lambda v: np.sum(affine_forward(v, W, b) * upstream), x)
        fW = finite_diff_grad(lambda v: np.sum(affine_forward(x, v, b) * upstream), W)
        fb = finite_diff_grad(lambda v: np.sum(affine_forward(x, W, v) * upstream), b)
        assert max_rel_err(gx, fx) < 1e-3
        assert max_rel_err(gW, fW) < 1e-3
        assert max_rel_err(gb, fb) < 1e-3


class TestRelu:
    def test_nonnegative_passthrough(self):
        x = np.array([[0.0, 1.0, 2.5]])
        np.testing.assert_array_equal(relu_forward(x), x)

    def test_definition(self):
        np.testing.assert_array_equal(
            relu_forward(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0]
        )

    def test_backward_masks_nonpositive(self):
        out = relu_backward(np.array([5.0, 5.0]), np.array([-1.0, 2.0]))
        np.testing.assert_array_equal(out, [0.0, 5.0])

    def test_subgradient_at_zero_is_zero(self):
        out = relu_backward(np.array([7.0]), np.array([0.0]))
        assert out[0] == 0.0


class TestDropout:
    def test_rate_zero_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        out, mask = dropout_forward(x, 0.0, training=True, rng=RngStream(0))
        np.testing.assert_array_equal(out, x)
        np.testing.assert_array_equal(mask, np.ones_like(x))

    def test_inference_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        out, mask = dropout_forward(x, 0.9, training=False)
        np.testing.assert_array_equal(out, x)
        np.testing.assert_array_equal(mask, np.ones_like(x))

    def test_survivors_scaled(self):
        x = np.ones((4, 4))
        out, mask = dropout_forward(x, 0.5, training=True, rng=RngStream(3))
        survived = out[out != 0]
        assert np.allclose(survived, 2.0)
        np.testing.assert_array_equal(out, x * mask)

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            dropout_forward(np.ones((1, 1)), 1.0, training=True, rng=RngStream(0))

    def test_expectation_preserved(self):
        # inverted scaling keeps the mean within 5% over many draws
        x = np.full((10_000, 4), 3.0)
        out, _ = dropout_forward(x, 0.5, training=True, rng=RngStream(11))
        assert np.all(np.abs(out.mean(axis=0) - 3.0) / 3.0 < 0.05)

    def test_backward_uses_mask(self):
        x = np.ones((50, 50))
        _, mask = dropout_forward(x, 0.3, training=True, rng=RngStream(5))
        up = np.full_like(x, 2.0)
        np.testing.assert_array_equal(dropout_backward(up, mask), up * mask)


class TestInitWeights:
    def test_he_variance(self):
        W = init_weights(1000, 100, RngStream(42))
        target = 2.0 / 1000
        assert abs(W.var() - target) / target < 0.20

    def test_same_seed_identical(self):
        a = init_weights(30, 20, RngStream(9))
        b = init_weights(30, 20, RngStream(9))
        np.testing.assert_array_equal(a, b)

    def test_zero_fan_rejected(self):
        with pytest.raises(ValueError):
            init_weights(0, 5, RngStream(0))


class TestAdam:
    def test_zero_grads_leave_params(self):
        p = [np.array([[1.0, 2.0]])]
        state = AdamState.for_params(p)
        adam_step(p, [np.zeros((1, 2))], state, lr=0.1)
        np.testing.assert_array_equal(p[0], [[1.0, 2.0]])
        assert state.t == 1

    def test_first_step_magnitude(self):
        # bias-corrected first step: delta = -lr * g / (|g| + eps) ~ -lr
        p = [np.array([[0.0]])]
        state = AdamState.for_params(p)
        adam_step(p, [np.array([[1.0]])], state, lr=0.001)
        assert abs(p[0][0, 0] + 0.001) < 1e-9

    def test_constant_gradient_monotone(self):
        p = [np.array([[5.0]])]
        state = AdamState.for_params(p)
        values = [p[0][0, 0]]
        for _ in range(100):
            adam_step(p, [np.array([[2.0]])], state, lr=0.01)
            values.append(p[0][0, 0])
        diffs = np.diff(values)
        assert np.all(diffs < 0)

    def test_nan_grad_raises(self):
        from pathae.errors import NumericError

        p = [np.array([[1.0]])]
        state = AdamState.for_params(p)
        with pytest.raises(NumericError):
            adam_step(p, [np.array([[np.nan]])], state, lr=0.01)
        # a NaN or infinite gradient in the last of several tensors raises
        # before any parameter is written
        for bad in (np.nan, np.inf, -np.inf):
            p = [np.array([[1.0, 2.0]]), np.array([3.0]), np.array([[4.0], [5.0], [6.0]])]
            state = AdamState.for_params(p)
            grads = [np.array([[0.5, -0.5]]), np.array([0.25]), np.array([[1.0], [bad], [-1.0]])]
            with pytest.raises(NumericError, match="second moment"):
                adam_step(p, grads, state, lr=0.01)
            np.testing.assert_array_equal(p[0], [[1.0, 2.0]])
            np.testing.assert_array_equal(p[1], [3.0])
            np.testing.assert_array_equal(p[2], [[4.0], [5.0], [6.0]])

    def test_overflowing_second_moment_raises_before_any_write(self):
        from pathae.errors import NumericError

        # 1e200 is finite, but its square overflows the second moment
        p = [np.array([[1.0, 2.0]]), np.array([[3.0]])]
        state = AdamState.for_params(p)
        with pytest.raises(NumericError, match="second moment"):
            adam_step(p, [np.array([[0.5, -0.5]]), np.array([[1e200]])], state, lr=0.01)
        np.testing.assert_array_equal(p[0], [[1.0, 2.0]])
        np.testing.assert_array_equal(p[1], [[3.0]])


class TestFiniteDiff:
    def test_quadratic(self):
        g = finite_diff_grad(lambda v: float(np.sum(v**2)), np.array([1.0, 2.0]))
        assert max_rel_err(g, [2.0, 4.0]) < 1e-8

    def test_constant(self):
        g = finite_diff_grad(lambda v: 7.0, np.array([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(g, np.zeros(3))

    def test_linear_exact(self):
        c = np.array([3.0, -1.5, 0.25])
        g = finite_diff_grad(lambda v: float(v @ c), np.zeros(3))
        assert max_rel_err(g, c) < 1e-9


class TestLayerGradientSuite:
    """Analytic backward vs central differences for every layer type."""

    def test_fifty_random_instances(self):
        rng = RngStream(2024)
        for trial in range(50):
            n = int(rng.integers(1, 5))
            d = int(rng.integers(1, 6))
            k = int(rng.integers(1, 6))
            x = rng.normal(size=(n, d))
            W = rng.normal(size=(d, k))
            b = rng.normal(size=(1, k))
            R = rng.normal(size=(n, k))

            gx, gW, gb = affine_backward(x, W, R)
            assert max_rel_err(
                gx, finite_diff_grad(lambda v: np.sum(affine_forward(v, W, b) * R), x)
            ) < 1e-3
            assert max_rel_err(
                gW, finite_diff_grad(lambda v: np.sum(affine_forward(x, v, b) * R), W)
            ) < 1e-3
            assert max_rel_err(
                gb, finite_diff_grad(lambda v: np.sum(affine_forward(x, W, v) * R), b)
            ) < 1e-3

            up = rng.normal(size=x.shape)
            g = relu_backward(up, x)
            fd = finite_diff_grad(lambda v: np.sum(relu_forward(v) * up), x)
            assert max_rel_err(g, fd) < 1e-3

            _, mask = dropout_forward(x, 0.4, training=True, rng=RngStream(trial))
            g = dropout_backward(up, mask)
            fd = finite_diff_grad(lambda v: np.sum(v * mask * up), x)
            assert max_rel_err(g, fd) < 1e-3


class TestDeterminism:
    def test_fixed_seed_bit_identical(self):
        def run(seed):
            rng = RngStream(seed)
            x = rng.normal(size=(8, 6))
            W = init_weights(6, 4, rng)
            h = relu_forward(affine_forward(x, W, np.zeros((1, 4))))
            out, _ = dropout_forward(h, 0.5, training=True, rng=rng)
            return out

        a, b = run(77), run(77)
        np.testing.assert_array_equal(a, b)

    def test_spawned_streams_disjoint_and_reproducible(self):
        parent1 = RngStream(5)
        kids1 = parent1.spawn(3)
        parent2 = RngStream(5)
        kids2 = parent2.spawn(3)
        draws1 = [k.normal(size=4) for k in kids1]
        draws2 = [k.normal(size=4) for k in kids2]
        for d1, d2 in zip(draws1, draws2):
            np.testing.assert_array_equal(d1, d2)
        assert not np.allclose(draws1[0], draws1[1])

    def test_stream_derivation_pinned(self):
        """Streams are PCG64 on SeedSequence(seed), and children follow
        SeedSequence.spawn; every golden file depends on this draw order."""
        def on(seq):
            return np.random.Generator(np.random.PCG64(seq)).normal(size=4)

        seed = 23
        np.testing.assert_array_equal(
            RngStream(seed).normal(size=4), on(np.random.SeedSequence(seed)))
        kids = RngStream(seed).spawn(3)
        seqs = np.random.SeedSequence(seed).spawn(3)
        for kid, seq in zip(kids, seqs):
            grandkids, grandseqs = kid.spawn(2), seq.spawn(2)
            for g, s in zip(grandkids, grandseqs):
                np.testing.assert_array_equal(g.normal(size=4), on(s))
            np.testing.assert_array_equal(kid.normal(size=4), on(seq))
        g = RngStream(seed)
        assert as_stream(g) is g
        np.testing.assert_array_equal(as_stream(None).normal(size=4), RngStream(0).normal(size=4))
