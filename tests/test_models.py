import json

import numpy as np
import pytest

from pathae.errors import ConfigError, DataError, ShapeError, TrainingDiverged
from pathae.models import (
    ArchitectureConfig,
    ModelParams,
    PathwayMask,
    TrainConfig,
    beta_schedule,
    build_model,
    count_params,
    decode,
    encode,
    fit,
    flat_params,
    forward,
    kl_gaussian,
    load_checkpoint,
    loss,
    loss_and_grads,
    mse_loss,
    pathway_activity_forward,
    reparameterize,
    save_checkpoint,
)
from pathae.ndcore import (
    RngStream,
    affine_backward,
    affine_forward,
    dropout_backward,
    dropout_forward,
    finite_diff_grad,
    relu_backward,
    relu_forward,
)

from conftest import max_rel_err


def make_masks(sizes, gene_count, rng=None):
    """Disjoint consecutive masks of the given sizes."""
    start = 0
    masks = []
    for i, s in enumerate(sizes):
        masks.append(PathwayMask(f"P{i}", np.arange(start, start + s)))
        start += s
    assert start <= gene_count
    return masks


def randomize_params(model, rng, scale=0.4):
    """Move every parameter (biases included) to a generic point so the
    loss is differentiable there; zero biases park ReLUs on their kinks."""
    for p in flat_params(model):
        p[...] = rng.normal(size=p.shape) * scale


class TestBuildModel:
    def test_paae_hand_counted_params(self):
        # pathways of sizes 3 and 2 with hidden [2], encoder [4], 5 genes
        arch = ArchitectureConfig(
            kind="paae", encoder_layer_sizes=[4], pathway_hidden_sizes=[2], dropout_rate=0.0
        )
        model = build_model(arch, 5, make_masks([3, 2], 5), RngStream(0))
        assert count_params(model) == 57

    def test_ae_hand_counted_params(self):
        arch = ArchitectureConfig(kind="ae", encoder_layer_sizes=[4, 2], dropout_rate=0.0)
        model = build_model(arch, 5, rng=RngStream(0))
        assert count_params(model) == 71

    def test_variational_head_width(self):
        arch = ArchitectureConfig(kind="pavae", encoder_layer_sizes=[64], dropout_rate=0.0)
        model = build_model(arch, 10, make_masks([4, 3], 10), RngStream(0))
        W, b = model.params.encoder[-1]
        assert W.shape[1] == 128 and b.shape[1] == 128

    def test_pathway_kind_requires_masks(self):
        arch = ArchitectureConfig(kind="paae", encoder_layer_sizes=[4])
        with pytest.raises(ConfigError):
            build_model(arch, 5, [], RngStream(0))

    def test_mask_out_of_bounds(self):
        arch = ArchitectureConfig(kind="paae", encoder_layer_sizes=[4])
        with pytest.raises(ShapeError):
            build_model(arch, 3, [PathwayMask("P", np.array([0, 5]))], RngStream(0))

    @pytest.mark.parametrize(
        "sizes",
        [{"pathway_hidden_sizes": [3, 0]}, {"decoder_layer_sizes": []},
         {"decoder_layer_sizes": [-1, 5]}],
    )
    def test_nonpositive_layer_sizes_rejected(self, sizes):
        with pytest.raises(ConfigError):
            ArchitectureConfig(kind="paae", encoder_layer_sizes=[4], **sizes)

    def test_empty_model_counts_zero(self):
        assert count_params(ModelParams([], [], [])) == 0

    def test_paae_smaller_than_ae_at_matched_latent(self):
        genes = 50
        masks = make_masks([6] * 5, genes)
        paae = build_model(
            ArchitectureConfig(kind="paae", encoder_layer_sizes=[8]), genes, masks, RngStream(0)
        )
        ae = build_model(
            ArchitectureConfig(kind="ae", encoder_layer_sizes=[8]), genes, rng=RngStream(0)
        )
        assert count_params(paae) < count_params(ae)


class TestPathwayActivity:
    def test_single_linear_pathway(self):
        arch = ArchitectureConfig(kind="paae", encoder_layer_sizes=[2], dropout_rate=0.0)
        model = build_model(arch, 4, [PathwayMask("P0", np.array([1, 3]))], RngStream(0))
        w, b = model.params.pathway_encoders[0][0]
        x = RngStream(1).normal(size=(5, 4))
        a = pathway_activity_forward(model, x)
        expected = x[:, [1, 3]] @ w + b
        np.testing.assert_allclose(a, expected, rtol=1e-12)

    def test_out_of_mask_gene_ignored(self):
        arch = ArchitectureConfig(
            kind="paae", encoder_layer_sizes=[2], pathway_hidden_sizes=[3], dropout_rate=0.0
        )
        model = build_model(arch, 6, make_masks([2, 2], 6), RngStream(3))
        x = RngStream(4).normal(size=(7, 6))
        a0 = pathway_activity_forward(model, x)
        x2 = x.copy()
        x2[:, 5] += 100.0  # gene 5 is outside both masks
        a1 = pathway_activity_forward(model, x2)
        np.testing.assert_array_equal(a0, a1)

    def test_column_count_matches_pathways(self):
        n_pathways = 186
        masks = [PathwayMask(f"P{i}", np.array([i % 10])) for i in range(n_pathways)]
        arch = ArchitectureConfig(kind="paae", encoder_layer_sizes=[4], dropout_rate=0.0)
        model = build_model(arch, 10, masks, RngStream(0))
        a = pathway_activity_forward(model, np.zeros((2, 10)))
        assert a.shape == (2, n_pathways)

    def test_dense_kind_has_no_activity(self):
        arch = ArchitectureConfig(kind="ae", encoder_layer_sizes=[2])
        model = build_model(arch, 4, rng=RngStream(0))
        with pytest.raises(ConfigError):
            pathway_activity_forward(model, np.zeros((1, 4)))


class TestEncodeDecode:
    def test_identity_single_layer(self):
        arch = ArchitectureConfig(kind="ae", encoder_layer_sizes=[3], dropout_rate=0.0)
        model = build_model(arch, 3, rng=RngStream(0))
        model.params.encoder[0] = (np.eye(3), np.zeros((1, 3)))
        x = RngStream(1).normal(size=(4, 3))
        np.testing.assert_array_equal(encode(model, x), x)

    def test_variational_zero_weights(self):
        arch = ArchitectureConfig(kind="vae", encoder_layer_sizes=[2], dropout_rate=0.0)
        model = build_model(arch, 3, rng=RngStream(0))
        model.params.encoder[0] = (np.zeros((3, 4)), np.zeros((1, 4)))
        mu, logvar = encode(model, np.ones((5, 3)))
        assert not mu.any() and not logvar.any()

    def test_inference_deterministic(self):
        arch = ArchitectureConfig(kind="ae", encoder_layer_sizes=[4, 2], dropout_rate=0.5)
        model = build_model(arch, 6, rng=RngStream(0))
        x = RngStream(2).normal(size=(3, 6))
        np.testing.assert_array_equal(encode(model, x), encode(model, x))

    def test_decode_zero_weights_gives_bias(self):
        arch = ArchitectureConfig(kind="ae", encoder_layer_sizes=[2], dropout_rate=0.0)
        model = build_model(arch, 3, rng=RngStream(0))
        bias = np.array([[1.0, 2.0, 3.0]])
        model.params.decoder[0] = (np.zeros((2, 3)), bias)
        out = decode(model, np.ones((4, 2)))
        np.testing.assert_array_equal(out, np.repeat(bias, 4, axis=0))

    def test_paae_decodes_all_genes(self):
        arch = ArchitectureConfig(kind="paae", encoder_layer_sizes=[2], dropout_rate=0.0)
        model = build_model(arch, 9, make_masks([2, 3], 9), RngStream(0))
        outs = forward(model, np.zeros((4, 9)))
        assert outs.x_hat.shape == (4, 9)

    def test_orthonormal_linear_roundtrip(self):
        theta = 0.3
        Q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        arch = ArchitectureConfig(kind="ae", encoder_layer_sizes=[2], dropout_rate=0.0)
        model = build_model(arch, 2, rng=RngStream(0))
        model.params.encoder[0] = (Q, np.zeros((1, 2)))
        model.params.decoder[0] = (Q.T, np.zeros((1, 2)))
        x = RngStream(5).normal(size=(6, 2))
        np.testing.assert_allclose(forward(model, x).x_hat, x, atol=1e-12)


def reference_dense_step(model, x, rng, beta_eff):
    """forward + loss_and_grads of a dense kind composed from ndcore's checked
    layer ops, drawing dropout masks and eps from rng in forward's order.
    Returns (x_hat, loss, grads in flat_params order)."""
    rate = model.arch.dropout_rate

    def stack_forward(h, layers):
        cache = []
        for i, (W, b) in enumerate(layers):
            lin_in, h = h, affine_forward(h, W, b)
            pre, mask = h, None
            if i < len(layers) - 1:
                h, mask = dropout_forward(relu_forward(h), rate, True, rng)
            cache.append((lin_in, pre, mask))
        return h, cache

    def stack_backward(g, layers, cache):
        grads = []
        for i in reversed(range(len(layers))):
            lin_in, pre, mask = cache[i]
            if i < len(layers) - 1:
                g = relu_backward(dropout_backward(g, mask), pre)
            g, gW, gb = affine_backward(lin_in, layers[i][0], g)
            grads = [gW, gb] + grads
        return g, grads

    h, enc_cache = stack_forward(x, model.params.encoder)
    if model.arch.kind == "vae":
        d = model.arch.latent_dim
        mu, logvar = h[:, :d], h[:, d:]
        z, eps = reparameterize(mu, logvar, rng)
    else:
        z = h
    x_hat, dec_cache = stack_forward(z, model.params.decoder)
    total, g = mse_loss(x, x_hat)
    grad_z, dec_grads = stack_backward(g, model.params.decoder, dec_cache)
    if model.arch.kind == "vae":
        kl, kl_mu, kl_logvar = kl_gaussian(mu, logvar)
        total += beta_eff * kl
        upstream = np.concatenate(
            [grad_z + beta_eff * kl_mu,
             0.5 * grad_z * eps * np.exp(0.5 * logvar) + beta_eff * kl_logvar],
            axis=1,
        )
    else:
        upstream = grad_z
    _, enc_grads = stack_backward(upstream, model.params.encoder, enc_cache)
    return x_hat, total, enc_grads + dec_grads


class TestLayerLoop:
    @pytest.mark.parametrize("kind", ["ae", "vae"])
    def test_dense_step_equals_ndcore_reference(self, kind):
        arch = ArchitectureConfig(kind=kind, encoder_layer_sizes=[7, 5, 3], dropout_rate=0.4)
        model = build_model(arch, 11, rng=RngStream(30))
        randomize_params(model, RngStream(31))
        x = RngStream(32).normal(size=(9, 11))
        outs = forward(model, x, training=True, rng=RngStream(33))
        value, grads = loss_and_grads(model, x, outs, 0.6)
        x_hat, ref_value, ref_grads = reference_dense_step(model, x, RngStream(33), 0.6)
        np.testing.assert_array_equal(outs.x_hat, x_hat)
        assert value == ref_value
        assert len(grads) == len(ref_grads) == len(flat_params(model))
        for g, ref in zip(grads, ref_grads):
            np.testing.assert_array_equal(g, ref)


class TestInputChecks:
    GENES = 6

    def _model(self, kind):
        masks = make_masks([3, 2], self.GENES) if kind in ("paae", "pavae") else None
        arch = ArchitectureConfig(
            kind=kind, encoder_layer_sizes=[4, 2], pathway_hidden_sizes=[3], dropout_rate=0.2
        )
        return build_model(arch, self.GENES, masks, RngStream(0))

    @pytest.mark.parametrize("kind", ["ae", "vae", "paae", "pavae"])
    @pytest.mark.parametrize(
        "shape", [(3, 5), (3, 7), (6,), (2, 3, 6)], ids=["narrow", "wide", "1-D", "3-D"]
    )
    def test_wrong_gene_axis_is_shape_error(self, kind, shape):
        model = self._model(kind)
        bad = np.ones(shape)
        with pytest.raises(ShapeError):
            forward(model, bad)
        with pytest.raises(ShapeError):
            fit(model, bad, TrainConfig(epochs=1))
        if kind in ("paae", "pavae"):
            with pytest.raises(ShapeError):
                pathway_activity_forward(model, bad)

    @pytest.mark.parametrize("kind", ["ae", "vae", "paae", "pavae"])
    def test_encode_and_decode_check_their_widths(self, kind):
        model = self._model(kind)
        enc_width = 2 if kind in ("paae", "pavae") else self.GENES
        encode(model, np.ones((3, enc_width)))
        decode(model, np.ones((3, 2)))
        for bad in (np.ones((3, enc_width + 1)), np.ones(enc_width), np.ones((1, 3, enc_width))):
            with pytest.raises(ShapeError):
                encode(model, bad)
        for bad in (np.ones((3, 3)), np.ones((3, 1)), np.ones(2), np.ones((1, 3, 2))):
            with pytest.raises(ShapeError):
                decode(model, bad, training=True, rng=RngStream(2))


class TestReparameterize:
    def test_tiny_variance_collapses_to_mu(self):
        mu = np.array([[1.0, -2.0]])
        z, _ = reparameterize(mu, np.full((1, 2), -80.0), RngStream(0))
        assert np.max(np.abs(z - mu)) < 1e-10

    def test_fixed_seed_reproducible(self):
        mu, lv = np.zeros((3, 2)), np.zeros((3, 2))
        z1, _ = reparameterize(mu, lv, RngStream(9))
        z2, _ = reparameterize(mu, lv, RngStream(9))
        np.testing.assert_array_equal(z1, z2)

    def test_sample_mean_near_mu(self):
        n = 100_000
        mu = np.full((n, 1), 0.7)
        lv = np.zeros((n, 1))  # sigma = 1
        z, _ = reparameterize(mu, lv, RngStream(3))
        se = 1.0 / np.sqrt(n)
        assert abs(z.mean() - 0.7) < 3 * se


class TestLosses:
    def test_mse_zero_on_equal(self):
        x = np.ones((2, 3))
        value, grad = mse_loss(x, x)
        assert value == 0.0 and not grad.any()

    def test_mse_hand_value(self):
        value, _ = mse_loss(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]))
        assert value == 1.0

    def test_mse_grad_matches_fd(self):
        rng = RngStream(1)
        x = rng.normal(size=(3, 4))
        x_hat = rng.normal(size=(3, 4))
        _, grad = mse_loss(x, x_hat)
        fd = finite_diff_grad(lambda v: mse_loss(x, v)[0], x_hat)
        assert max_rel_err(grad, fd) < 1e-3

    def test_kl_zero_at_standard_normal(self):
        value, gmu, glv = kl_gaussian(np.zeros((2, 3)), np.zeros((2, 3)))
        assert value == 0.0

    def test_kl_closed_forms(self):
        value, _, _ = kl_gaussian(np.array([[1.0]]), np.array([[0.0]]))
        assert abs(value - 0.5) < 1e-12
        value, _, _ = kl_gaussian(np.array([[0.0]]), np.array([[1.0]]))
        assert abs(value - (np.e - 2.0) / 2.0) < 1e-12

    def test_kl_nonnegative(self):
        rng = RngStream(8)
        for _ in range(50):
            mu = rng.normal(size=(4, 3))
            lv = rng.normal(size=(4, 3))
            value, _, _ = kl_gaussian(mu, lv)
            assert value >= 0.0

    def test_kl_grads_match_fd(self):
        rng = RngStream(2)
        mu = rng.normal(size=(2, 3))
        lv = rng.normal(size=(2, 3))
        _, gmu, glv = kl_gaussian(mu, lv)
        fmu = finite_diff_grad(lambda v: kl_gaussian(v, lv)[0], mu)
        flv = finite_diff_grad(lambda v: kl_gaussian(mu, v)[0], lv)
        assert max_rel_err(gmu, fmu) < 1e-3
        assert max_rel_err(glv, flv) < 1e-3


class TestBetaSchedule:
    def test_step_threshold(self):
        assert beta_schedule(31, "step", 5.0, 32) == 0.0
        assert beta_schedule(32, "step", 5.0, 32) == 5.0
        assert beta_schedule(1000, "step", 5.0, 32) == 5.0

    def test_smooth_midpoint(self):
        assert abs(beta_schedule(96, "smooth", 2.0, 32, 160) - 1.0) < 1e-12

    def test_smooth_at_start(self):
        expected = 5.0 / (1.0 + np.exp(5.0))
        assert abs(beta_schedule(32, "smooth", 5.0, 32, 160) - expected) < 1e-12

    def test_smooth_endpoints_near_limits(self):
        beta = 3.0
        assert beta_schedule(32, "smooth", beta, 32, 160) < 0.01 * beta
        assert beta_schedule(160, "smooth", beta, 32, 160) > 0.99 * beta

    def test_monotone_and_bounded(self):
        for kind in ("step", "smooth"):
            vals = [beta_schedule(t, kind, 7.0, 32, 160) for t in range(1024)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
            assert all(0.0 <= v <= 7.0 for v in vals)

    def test_none_constant(self):
        assert beta_schedule(0, "none", 4.0, 32) == 4.0

    def test_smooth_bad_interval(self):
        with pytest.raises(ConfigError):
            beta_schedule(0, "smooth", 1.0, 100, 100)


def loop_pathway_activity(model, x, rng=None):
    """Reference pathway stage: each pathway's stack on its own, drawing
    dropout (when rng is given) pathway by pathway, layer by layer."""
    rate = model.arch.dropout_rate
    cols = []
    for mask, stack in zip(model.masks, model.params.pathway_encoders):
        h = x[:, mask.indices]
        for i, (W, b) in enumerate(stack):
            h = h @ W + b
            if i < len(stack) - 1:
                h = np.maximum(0.0, h)
                if rng is not None:
                    h = h * ((rng.uniform(size=h.shape) >= rate) / (1.0 - rate))
        cols.append(h)
    return np.concatenate(cols, axis=1)


class TestPackedPathwayStage:
    # sizes 1..17 fall in five power-of-two buckets, most of them padded;
    # masks overlap and are unsorted, and gene 24 is in no pathway
    SIZES = [1, 2, 3, 5, 9, 17, 4, 12, 3]
    GENES = 25

    def _model(self, hidden, dropout=0.3, kind="paae"):
        rng = RngStream(21)
        masks = [
            PathwayMask(f"P{j}", rng.choice(self.GENES - 1, size=s, replace=False))
            for j, s in enumerate(self.SIZES)
        ]
        arch = ArchitectureConfig(
            kind=kind, encoder_layer_sizes=[3], pathway_hidden_sizes=hidden, dropout_rate=dropout
        )
        model = build_model(arch, self.GENES, masks, RngStream(22))
        randomize_params(model, RngStream(23))
        return model

    @pytest.mark.parametrize("hidden", [[], [4], [3, 2]])
    def test_matches_per_pathway_loop(self, hidden):
        model = self._model(hidden)
        x = RngStream(24).normal(size=(6, self.GENES))
        x[:, -1] = np.nan  # out-of-mask values never reach an activity
        np.testing.assert_allclose(
            pathway_activity_forward(model, x), loop_pathway_activity(model, x),
            rtol=1e-12, atol=1e-12,
        )
        a = forward(model, x, training=True, rng=RngStream(25)).a
        np.testing.assert_allclose(
            a, loop_pathway_activity(model, x, RngStream(25)), rtol=1e-12, atol=1e-12
        )

    def test_pathway_gradients_match_finite_differences(self):
        model = self._model([3, 2], kind="pavae")
        x = RngStream(26).normal(size=(4, self.GENES))
        outs = forward(model, x, training=True, rng=RngStream(27))
        _, grads = loss_and_grads(model, x, outs, 0.5)
        n_pathway = 2 * len(model.params.pathway)
        for p, g in list(zip(flat_params(model), grads))[:n_pathway]:
            def f(v, p=p):
                old = p.copy()
                p[...] = v
                value = loss(model, x, forward(model, x, training=True, rng=RngStream(27)), 0.5)
                p[...] = old
                return value

            assert max_rel_err(g, finite_diff_grad(f, p.copy())) < 1e-3

    def test_tensor_count_independent_of_pathway_count(self):
        arch = ArchitectureConfig(kind="pavae", encoder_layer_sizes=[4], pathway_hidden_sizes=[3, 2])
        few = build_model(arch, 60, make_masks([3, 5], 60), RngStream(0))
        many = build_model(arch, 60, make_masks([2, 3, 4, 5] * 4, 60), RngStream(0))
        assert len(flat_params(few)) == len(flat_params(many)) == 10

    def test_pathway_encoders_are_views(self):
        model = self._model([3])
        W, b = model.params.pathway_encoders[4][0]
        assert W.shape == (self.SIZES[4], 3) and b.shape == (1, 3)
        W[...] = 7.0
        W0 = model.params.pathway[0][0]
        start = sum(self.SIZES[:4])
        assert np.all(W0[start : start + self.SIZES[4]] == 7.0)
        assert np.count_nonzero(W0 == 7.0) == W.size


class TestCompositeLoss:
    def test_vae_beta_zero_equals_mse(self):
        arch = ArchitectureConfig(kind="vae", encoder_layer_sizes=[3, 2], dropout_rate=0.0)
        model = build_model(arch, 5, rng=RngStream(0))
        x = RngStream(1).normal(size=(4, 5))
        outs = forward(model, x, training=True, rng=RngStream(2))
        mse, _ = mse_loss(x, outs.x_hat)
        assert loss(model, x, outs, beta_eff=0.0) == mse

    def test_pavae_perfect_reconstruction_zero_loss(self):
        arch = ArchitectureConfig(kind="pavae", encoder_layer_sizes=[2], dropout_rate=0.0)
        model = build_model(arch, 4, make_masks([2, 2], 4), RngStream(0))
        for stack in model.params.pathway_encoders:
            for W, b in stack:
                W[...] = 0.0
                b[...] = 0.0
        model.params.encoder[0] = tuple(np.zeros_like(t) for t in model.params.encoder[0])
        model.params.decoder[0] = tuple(np.zeros_like(t) for t in model.params.decoder[0])
        x = np.zeros((3, 4))
        outs = forward(model, x, training=True, rng=RngStream(1))
        assert loss(model, x, outs, beta_eff=10.0) == 0.0

    @pytest.mark.parametrize("kind", ["ae", "vae", "paae", "pavae"])
    def test_full_gradient_matches_finite_differences(self, kind):
        gene_count = 6
        masks = make_masks([3, 2], gene_count) if kind in ("paae", "pavae") else None
        arch = ArchitectureConfig(
            kind=kind,
            encoder_layer_sizes=[4, 2],
            pathway_hidden_sizes=[2],
            dropout_rate=0.3,
        )
        model = build_model(arch, gene_count, masks, RngStream(10))
        randomize_params(model, RngStream(12))
        x = RngStream(11).normal(size=(3, gene_count))
        beta_eff = 0.7
        replay_seed = 99  # dropout masks and eps replay identically per call

        params = flat_params(model)
        outs = forward(model, x, training=True, rng=RngStream(replay_seed))
        _, grads = loss_and_grads(model, x, outs, beta_eff)

        for p, g in zip(params, grads):
            def f(v, p=p):
                old = p.copy()
                p[...] = v
                out = forward(model, x, training=True, rng=RngStream(replay_seed))
                value = loss(model, x, out, beta_eff)
                p[...] = old
                return value

            fd = finite_diff_grad(f, p.copy())
            assert max_rel_err(g, fd) < 1e-3


class TestFit:
    def test_zero_epochs_no_change(self):
        arch = ArchitectureConfig(kind="ae", encoder_layer_sizes=[2], dropout_rate=0.0)
        model = build_model(arch, 4, rng=RngStream(0))
        before = [p.copy() for p in flat_params(model)]
        history = fit(model, np.ones((5, 4)), TrainConfig(epochs=0), RngStream(1))
        assert history == []
        for b, p in zip(before, flat_params(model)):
            np.testing.assert_array_equal(b, p)

    def test_rank_one_data_is_learned(self):
        rng = RngStream(6)
        t = rng.normal(size=(64, 1))
        v = np.array([[1.0, -0.5, 2.0, 0.3, -1.2, 0.8]])
        X = 3.0 + t @ v
        arch = ArchitectureConfig(kind="ae", encoder_layer_sizes=[1], dropout_rate=0.0)
        model = build_model(arch, 6, rng=RngStream(7))
        fit(model, X, TrainConfig(epochs=500, learning_rate=0.01, batch_size=16), RngStream(8))
        mse, _ = mse_loss(X, forward(model, X).x_hat)
        data_var = float(np.mean((X - X.mean(axis=0)) ** 2))
        assert mse < 0.1 * data_var

    def test_same_seed_identical_trajectory(self):
        arch = ArchitectureConfig(
            kind="pavae", encoder_layer_sizes=[3], pathway_hidden_sizes=[2],
            dropout_rate=0.5, beta=1.0, schedule="smooth", t_start=2, t_end=10,
        )
        X = RngStream(1).normal(size=(20, 6))

        def train():
            model = build_model(arch, 6, make_masks([3, 2], 6), RngStream(42))
            fit(model, X, TrainConfig(epochs=12, batch_size=8), RngStream(42))
            return flat_params(model)

        for a, b in zip(train(), train()):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_names_epoch(self):
        arch = ArchitectureConfig(kind="ae", encoder_layer_sizes=[2], dropout_rate=0.0)
        model = build_model(arch, 3, rng=RngStream(0))
        X = np.full((4, 3), 1e200)  # overflow to inf in the loss immediately
        with pytest.raises(TrainingDiverged) as err:
            fit(model, X, TrainConfig(epochs=3, learning_rate=1.0), RngStream(0))
        assert "epoch 0" in str(err.value)

    def test_history_length(self):
        arch = ArchitectureConfig(kind="ae", encoder_layer_sizes=[2], dropout_rate=0.0)
        model = build_model(arch, 3, rng=RngStream(0))
        history = fit(model, np.ones((6, 3)), TrainConfig(epochs=7), RngStream(0))
        assert len(history) == 7


class TestCheckpoint:
    def _model(self):
        arch = ArchitectureConfig(
            kind="pavae", encoder_layer_sizes=[4, 2], pathway_hidden_sizes=[3],
            dropout_rate=0.25, beta=2.5, schedule="smooth", t_start=4, t_end=20,
        )
        return build_model(
            arch, 7, make_masks([3, 2], 7), RngStream(13),
            gene_names=[f"G{i}" for i in range(7)],
        )

    def test_roundtrip_bit_exact(self, tmp_path):
        model = self._model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.arch == model.arch
        assert loaded.gene_names == model.gene_names
        assert [m.name for m in loaded.masks] == [m.name for m in model.masks]
        for a, b in zip(flat_params(model), flat_params(loaded)):
            np.testing.assert_array_equal(a, b)
        outs_a = forward(model, np.ones((2, 7)))
        outs_b = forward(loaded, np.ones((2, 7)))
        np.testing.assert_array_equal(outs_a.x_hat, outs_b.x_hat)

    def test_write_is_byte_stable(self, tmp_path):
        model = self._model()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, p1)
        save_checkpoint(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_write_leaves_no_partial_file(self, tmp_path, break_writes):
        model = self._model()
        kept, fresh = tmp_path / "kept.ckpt", tmp_path / "fresh.ckpt"
        save_checkpoint(model, kept)
        before = kept.read_bytes()
        break_writes()
        for path in (kept, fresh):
            with pytest.raises(OSError):
                save_checkpoint(model, path)
        assert kept.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.ckpt"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ConfigError):
            load_checkpoint(path)

    def test_truncation_at_every_offset_is_config_or_data_error(self, tmp_path):
        path, cut = tmp_path / "m.ckpt", tmp_path / "cut.ckpt"
        save_checkpoint(self._model(), path)
        data = path.read_bytes()
        for n in range(len(data)):
            cut.write_bytes(data[:n])
            with pytest.raises((ConfigError, DataError)) as err:
                load_checkpoint(cut)
            if n >= len(MAGIC):
                assert isinstance(err.value, DataError) and str(cut) in str(err.value)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda h, body: ({**h, "format": 2}, body),
            lambda h, body: ([h], body),
            lambda h, body: (h, body + bytes(8)),
            lambda h, body: ({**h, "gene_count": 3}, body),
            lambda h, body: ({**h, "gene_names": ["G0"]}, body),
            lambda h, body: ({**h, "arch": {**h["arch"], "dropout_rate": 2.0}}, body),
            lambda h, body: ({**h, "arch": {**h["arch"], "encoder_layer_sizes": [5, 2]}}, body),
            lambda h, body: ({**h, "masks": [{"name": "P0", "indices": [0, 9]}] + h["masks"][1:]},
                             body),
            lambda h, body: ({**h, "masks": [{"name": "P0", "indices": [0, 1.0, 2]}]
                              + h["masks"][1:]}, body),
            lambda h, body: ({**h, "tensors": h["tensors"][:-1]}, body),
            lambda h, body: ({**h, "tensors": [{**h["tensors"][0], "shape": [2, 3]}]
                              + h["tensors"][1:]}, body),
            lambda h, body: ({**h, "tensors": [{**h["tensors"][0], "offset": len(body)}]
                              + h["tensors"][1:]}, body),
            lambda h, body: ({**h, "arch": {**h["arch"], "encoder_layer_sizes": [10**11, 2]}},
                             body),
            lambda h, body: ({**h, "arch": {**h["arch"], "pathway_hidden_sizes": [10**11]}},
                             body),
            lambda h, body: ({**h, "gene_count": 10**12, "gene_names": None}, body),
        ],
        ids=["format", "not-a-dict", "trailing-bytes", "gene-count", "gene-names", "arch-value",
             "arch-shapes", "mask-bounds", "float-index", "missing-tensor", "tensor-shape",
             "offset", "huge-encoder-layer", "huge-pathway-layer", "huge-gene-count"],
    )
    def test_damaged_header_is_data_error_naming_path(self, tmp_path, damage):
        path = tmp_path / "m.ckpt"
        save_checkpoint(self._model(), path)
        header, body = split_checkpoint(path.read_bytes())
        header, body = damage(header, body)
        head = json.dumps(header).encode()
        path.write_bytes(MAGIC + f"{len(head)}\n".encode() + head + body)
        with pytest.raises(DataError, match="m.ckpt"):
            load_checkpoint(path)

    def test_any_header_byte_damage_is_config_or_data_error(self, tmp_path):
        path, bad = tmp_path / "m.ckpt", tmp_path / "bad.ckpt"
        save_checkpoint(self._model(), path)
        data = path.read_bytes()
        _, body = split_checkpoint(data)
        for pos in range(len(data) - len(body)):
            for value in b'\x00 09"]}\xff':
                raw = bytearray(data)
                raw[pos] = value
                bad.write_bytes(bytes(raw))
                try:
                    load_checkpoint(bad)
                except (ConfigError, DataError):
                    pass


MAGIC = b"PATHAE-CKPT-v1\n"


def split_checkpoint(data):
    """(header dict, body bytes) of a checkpoint file's contents."""
    line, _, rest = data[len(MAGIC):].partition(b"\n")
    n = int(line)
    return json.loads(rest[:n]), rest[n:]
