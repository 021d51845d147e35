import copy
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pathae import models
from pathae.errors import ConfigError, DataError, ShapeError, TrainingDiverged
from pathae.models import (
    ArchitectureConfig,
    ForwardOutputs,
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
    loss_and_grads,
    mse_loss,
    pathway_activity_forward,
    reparameterize,
    save_checkpoint,
)
from pathae.ndcore import AdamState, RngStream, adam_step, finite_diff_grad

import reference
from conftest import max_rel_err
from reference import (
    affine_backward,
    affine_forward,
    dropout_backward,
    dropout_forward,
    loss,
    relu_backward,
    relu_forward,
)


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

    @pytest.mark.parametrize("beta", [-1.0, float("nan"), float("inf")])
    def test_beta_must_be_finite_and_nonnegative(self, beta):
        with pytest.raises(ConfigError, match="beta must be finite and >= 0"):
            ArchitectureConfig(kind="pavae", encoder_layer_sizes=[4], beta=beta)

    @pytest.mark.parametrize("rate", [0.0, -1e-4, float("nan"), float("inf")])
    def test_learning_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(ConfigError, match="learning_rate must be finite and > 0"):
            TrainConfig(learning_rate=rate)

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

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.one_of(
            st.tuples(st.integers(1, 6), st.integers(1, 5)),  # dense (B, w)
            st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 5)),  # pathway (P, B, w)
        ),
        rate=st.floats(0.05, 0.95),
        keep=st.booleans(),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_hidden_dropout_equals_float_keep_mask(self, shape, rate, keep, seed, data):
        """A hidden layer's output and cached mask have the bytes that the
        float keep mask (u >= rate) / (1 - rate), applied to the ReLU output
        and then multiplied by the ReLU mask, gives, at signed zeros,
        infinities, NaN and subnormals."""
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, -1e-310]
        values = st.one_of(st.sampled_from(special), st.floats(allow_nan=True, allow_infinity=True))
        size = int(np.prod(shape))
        pre = np.array(data.draw(st.lists(values, min_size=size, max_size=size)),
                       dtype=np.float64).reshape(shape)
        arch = ArchitectureConfig(kind="ae", encoder_layer_sizes=[1], dropout_rate=rate)
        model = build_model(arch, 1, rng=RngStream(0))
        drop_of = models._dense_dropout(model, True, RngStream(seed), models._Fresh, "encoder")
        w = shape[-1]
        lead = shape[:-2]  # one weight stack per pathway
        layers = [(np.zeros(lead + (w, w)), np.zeros(lead + (1, w))),
                  (np.zeros(lead + (w, 1)), np.zeros(lead + (1, 1)))]
        hidden = pre.copy()  # layer 0's output, relu'd and dropped out in place

        def layer0(x, W, b, caching):
            return hidden, x

        with np.errstate(invalid="ignore", over="ignore"):  # inf * 0, a huge value * scale
            _, caches = models._layers_forward(np.zeros(shape), layers, models._Fresh, "encoder",
                                               drop_of, keep, layer0)
            ref_h, ref_mask = reference.relu_dropout(pre, RngStream(seed).random(shape), rate)
        # the bytes, so that a -0.0 or a NaN's sign and payload count too
        assert hidden.tobytes() == ref_h.tobytes()
        if keep:
            mask = caches[0][1]
            assert mask.dtype == np.float64 and mask.tobytes() == ref_mask.tobytes()
        else:
            assert caches is None

    @settings(max_examples=25, deadline=None)
    @given(
        width=st.integers(2, 16),
        # 88 and 76: the last, shorter batch of 600 and 1,100 rows at B = 128
        rows=st.one_of(st.integers(1, 1100), st.sampled_from([88, 76, 128])),
        pathways=st.integers(1, 64),
        seed=st.integers(0, 2**16),
    )
    def test_bias_gradient_einsum_equals_sum_above_width_one(self, width, rows, pathways, seed):
        """np.einsum("pbh->ph", g) has the bytes of g.sum(axis=1) for a
        (P, B, h) layer-0 gradient of width 2 or more: both add the rows in
        order.  (At width 1 the sum is pairwise, and the bytes differ.)"""
        rng = RngStream(seed)
        shape = (pathways, rows, width)
        g = rng.normal(size=shape) * 10.0 ** rng.integers(-100, 100, size=shape)
        g[rng.uniform(size=shape) < 0.1] = -0.0
        assert np.einsum("pbh->ph", g).tobytes() == g.sum(axis=1).tobytes()


# The training step as it was before its in-place rewrite, kept as the
# reference: a fresh array per bias add, per dropout and ReLU factor and per
# gradient scale, g @ W^T at every contraction length, dropout uniforms from
# Generator.uniform, and pathway layer 0 scattered into an empty array.


def _reference_affine(x, W, b):
    return x @ W + b, x


def _reference_uniform(rng):
    return lambda shape: rng.uniform(size=shape)


def _reference_mse_loss(x, x_hat):
    diff = x_hat - x
    return float(np.mean(diff * diff)), 2.0 * diff / diff.size


def _reference_layers_forward(h, layers, rate, uniform, layer0=_reference_affine):
    caches = []
    for i, (W, b) in enumerate(layers):
        h, lin_in = (layer0 if i == 0 else _reference_affine)(h, W, b)
        if i < len(layers) - 1:
            pre = h
            h = np.maximum(0.0, h)
            mask = None
            if uniform is not None:
                mask = (uniform(h.shape) >= rate) / (1.0 - rate)
                h = h * mask
            caches.append((lin_in, pre, mask))
        else:
            caches.append((lin_in, None, None))
    return h, caches


def _reference_layers_backward(g, layers, caches, layer0_grads=None):
    grads = [None] * len(layers)
    for i in range(len(layers) - 1, -1, -1):
        W = layers[i][0]
        lin_in, pre, mask = caches[i]
        if i < len(layers) - 1:
            if mask is not None:
                g = g * mask
            g = g * (pre > 0.0)
        if i == 0 and layer0_grads is not None:
            grads[0] = layer0_grads(lin_in, g)
            return None, grads
        grads[i] = models._affine_grads(lin_in, g)
        g = g @ np.swapaxes(W, -1, -2)
    return g, grads


def _reference_pathway_forward(model, x, uniform_of):
    n, n_pw = x.shape[0], len(model.masks)
    widths = model.arch.pathway_hidden_sizes
    uniform = None
    if uniform_of is not None and widths:
        draws = uniform_of((n_pw, n * sum(widths)))
        per_layer = iter(np.split(draws, np.cumsum([n * w for w in widths[:-1]]), axis=1))
        uniform = lambda shape: next(per_layer).reshape(shape)

    def layer0(x, W, b):
        x_pad = np.concatenate([x, np.zeros((n, 1))], axis=1)
        W_pad = np.concatenate([W, np.zeros((1, W.shape[1]))])
        blocks = [x_pad[:, bk.genes].transpose(1, 0, 2) for bk in model._buckets]
        h = np.empty((n_pw, n, W.shape[1]))
        for bk, xb in zip(model._buckets, blocks):
            h[bk.pathways] = xb @ W_pad[bk.rows]
        h += b[:, None, :]
        return h, blocks

    h, caches = _reference_layers_forward(
        x, model.params.pathway, model.arch.dropout_rate, uniform, layer0
    )
    return np.ascontiguousarray(h[:, :, 0].T), caches


def _reference_pathway_backward(model, grad_a, caches):
    W0 = model.params.pathway[0][0]

    def layer0_grads(blocks, g):
        gW = np.empty((W0.shape[0] + 1, W0.shape[1]))
        for bk, xb in zip(model._buckets, blocks):
            gW[bk.rows] = xb.transpose(0, 2, 1) @ g[bk.pathways]
        return gW[:-1], g.sum(axis=1)

    g = np.ascontiguousarray(grad_a.T)[:, :, None]
    return _reference_layers_backward(g, model.params.pathway, caches, layer0_grads)[1]


def _reference_forward(model, x, rng):
    """forward(model, x, training=True, rng=rng) in the reference expressions."""
    rate = model.arch.dropout_rate
    uniform = _reference_uniform(rng) if rate > 0.0 else None
    caches, a, enc_in = {}, None, x
    if models.is_pathway_kind(model.arch.kind):
        a, caches["pathway"] = _reference_pathway_forward(model, x, uniform)
        enc_in = a
    h, caches["encoder"] = _reference_layers_forward(enc_in, model.params.encoder, rate, uniform)
    mu = logvar = None
    z = h
    if models.is_variational(model.arch.kind):
        d = model.arch.latent_dim
        mu, logvar = h[:, :d], h[:, d:]
        z, caches["eps"] = reparameterize(mu, logvar, rng)
    x_hat, caches["decoder"] = _reference_layers_forward(z, model.params.decoder, rate, uniform)
    return ForwardOutputs(x_hat=x_hat, z=z, a=a, mu=mu, logvar=logvar, caches=caches)


def _reference_loss_and_grads(model, x, outputs, beta_eff):
    caches = outputs.caches
    total, grad_xhat = _reference_mse_loss(x, outputs.x_hat)
    grad_z, dec_grads = _reference_layers_backward(
        grad_xhat, model.params.decoder, caches["decoder"]
    )
    upstream = grad_z
    if models.is_variational(model.arch.kind):
        kl, kl_gmu, kl_glogvar = kl_gaussian(outputs.mu, outputs.logvar)
        total += beta_eff * kl
        sigma = np.exp(0.5 * outputs.logvar)
        upstream = np.concatenate(
            [grad_z + beta_eff * kl_gmu,
             0.5 * grad_z * caches["eps"] * sigma + beta_eff * kl_glogvar],
            axis=1,
        )
    pathway = models.is_pathway_kind(model.arch.kind)
    grad_enc_in, enc_grads = _reference_layers_backward(
        upstream, model.params.encoder, caches["encoder"],
        None if pathway else models._affine_grads,
    )
    pw_grads = _reference_pathway_backward(model, grad_enc_in, caches["pathway"]) if pathway else []
    grads = ModelParams(pw_grads, enc_grads, dec_grads)
    return total, [g for _, g in models._walk(grads)]


@st.composite
def step_cases(draw):
    """A small model of any kind, batch size, pathway count and layer widths
    (1 included), with unequal pathway sizes, and a seed."""
    kind = draw(st.sampled_from(["ae", "vae", "paae", "pavae"]))
    genes = draw(st.integers(1, 8))
    sizes = draw(st.lists(st.integers(1, genes), min_size=1, max_size=4))
    return {
        "kind": kind,
        "genes": genes,
        "sizes": sizes,
        "batch": draw(st.integers(1, 5)),
        "hidden": draw(st.lists(st.integers(1, 3), max_size=2)),
        "encoder": draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)),
        "dropout": draw(st.sampled_from([0.0, 0.3])),
        "seed": draw(st.integers(0, 2**16)),
    }


def _signed_zeros(model, rng):
    """Set about a quarter of every parameter to +0.0 or -0.0, so that zero
    products of both signs reach every matmul and sum of the step."""
    for p in flat_params(model):
        hit = rng.uniform(size=p.shape) < 0.25
        p[hit] = np.where(rng.uniform(size=p.shape) < 0.5, 0.0, -0.0)[hit]


def _bytes(arrays):
    return [None if a is None else (a.shape, np.asarray(a).tobytes()) for a in arrays]


class TestStepMatchesReference:
    """forward and loss_and_grads give the reference's bytes, -0.0 included
    (np.array_equal would take -0.0 for 0.0), and leave the stream where the
    reference leaves it."""

    @given(step_cases())
    def test_bytes_equal_reference(self, case):
        rng = RngStream(case["seed"])
        masks = [
            PathwayMask(f"P{j}", rng.choice(case["genes"], size=s, replace=False))
            for j, s in enumerate(case["sizes"])
        ]
        arch = ArchitectureConfig(
            kind=case["kind"], encoder_layer_sizes=case["encoder"],
            pathway_hidden_sizes=case["hidden"], dropout_rate=case["dropout"],
        )
        model = build_model(arch, case["genes"], masks, rng)
        randomize_params(model, rng)
        _signed_zeros(model, rng)
        x = rng.normal(size=(case["batch"], case["genes"]))
        x[rng.uniform(size=x.shape) < 0.2] = -0.0

        seed = case["seed"] + 1
        got_rng, ref_rng = RngStream(seed), RngStream(seed)
        outs = forward(model, x, training=True, rng=got_rng)
        ref = _reference_forward(model, x, ref_rng)
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state
        fields = ("x_hat", "z", "a", "mu", "logvar")
        assert _bytes(getattr(outs, f) for f in fields) == _bytes(getattr(ref, f) for f in fields)

        value, grads = loss_and_grads(model, x, outs, 0.7)
        ref_value, ref_grads = _reference_loss_and_grads(model, x, ref, 0.7)
        assert value.hex() == ref_value.hex()
        assert _bytes(grads) == _bytes(ref_grads)


class TestInferenceKeepsNoCaches:
    @pytest.mark.parametrize("kind", ["ae", "vae", "paae", "pavae"])
    def test_caches_none_and_loss_and_grads_rejects(self, kind):
        masks = make_masks([3, 1, 2], 6) if kind in ("paae", "pavae") else None
        arch = ArchitectureConfig(kind=kind, encoder_layer_sizes=[4, 2],
                                  pathway_hidden_sizes=[3, 2], dropout_rate=0.3)
        model = build_model(arch, 6, masks, RngStream(0))
        x = RngStream(1).normal(size=(5, 6))
        outs = forward(model, x, training=False)
        assert outs.caches is None
        with pytest.raises(ValueError, match="caches"):
            loss_and_grads(model, x, outs)
        assert forward(model, x, training=True, rng=RngStream(2)).caches is not None


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

    def test_mse_leaves_inputs_unchanged(self):
        rng = RngStream(3)
        x, x_hat = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        x_before, x_hat_before = x.copy(), x_hat.copy()
        _, grad = mse_loss(x, x_hat)
        assert x.tobytes() == x_before.tobytes()
        assert x_hat.tobytes() == x_hat_before.tobytes()
        assert not np.shares_memory(grad, x) and not np.shares_memory(grad, x_hat)

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
    def test_loss_and_grads_leaves_inputs_unchanged(self, kind):
        masks = make_masks([3, 2], 6) if kind in ("paae", "pavae") else None
        arch = ArchitectureConfig(
            kind=kind, encoder_layer_sizes=[4, 2], pathway_hidden_sizes=[2, 1], dropout_rate=0.3
        )
        model = build_model(arch, 6, masks, RngStream(10))
        x = RngStream(11).normal(size=(5, 6))
        outs = forward(model, x, training=True, rng=RngStream(12))
        x_before, outs_before = x.copy(), copy.deepcopy(outs)
        loss_and_grads(model, x, outs, 0.5)
        assert x.tobytes() == x_before.tobytes()

        def flat(obj):  # every array reachable from the outputs, caches included
            if isinstance(obj, np.ndarray):
                return [(obj.shape, obj.tobytes())]
            if isinstance(obj, ForwardOutputs):
                obj = vars(obj)
            if isinstance(obj, dict):
                return [(k, flat(v)) for k, v in sorted(obj.items())]
            if isinstance(obj, (list, tuple)):
                return [flat(v) for v in obj]
            return [obj]

        assert flat(outs) == flat(outs_before)

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
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_training_data_is_data_error(self, bad):
        arch = ArchitectureConfig(kind="paae", encoder_layer_sizes=[2], pathway_hidden_sizes=[3])
        model = build_model(arch, 6, make_masks([3, 2], 6), RngStream(0))
        before = [p.copy() for p in flat_params(model)]
        X = RngStream(1).normal(size=(10, 6))
        X[7, 4] = bad
        X[8, 1] = bad
        rng = RngStream(2)
        state = copy.deepcopy(rng.bit_generator.state)
        with pytest.raises(DataError) as err:
            fit(model, X, TrainConfig(epochs=3), rng)
        assert str(err.value) == f"fit: training matrix: non-finite value {bad} at row 7, column 4"
        assert rng.bit_generator.state == state  # rejected before any draw
        for b, p in zip(before, flat_params(model)):
            np.testing.assert_array_equal(b, p)

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

    def test_peak_memory_is_one_steps_buffers(self):
        """fit runs every step in one workspace, whose buffers are shared by
        arrays that are not alive at once.  With B = 64, G = 800 and 80
        pathways of 10 genes the traced peak is about 8.0 (B, G) arrays'
        bytes, Adam's moments included; it was 9.1 when each step allocated
        its own arrays, and 11.6 when a step's forward ran while the previous
        step's caches and gradients were still held."""
        B, G, P = 64, 800, 80
        arch = ArchitectureConfig(kind="paae", encoder_layer_sizes=[16], pathway_hidden_sizes=[8],
                                  dropout_rate=0.25)
        model = build_model(arch, G, make_masks([G // P] * P, G), RngStream(0))
        X = RngStream(1).normal(size=(2 * B, G))
        tracemalloc.start()
        try:
            fit(model, X, TrainConfig(epochs=2, batch_size=B), RngStream(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8.8 * B * G * 8

    @pytest.mark.parametrize("kind", ["ae", "vae", "paae", "pavae"])
    @pytest.mark.parametrize("hidden", [[], [3], [3, 1]])
    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_steps_equal_the_public_step(self, kind, hidden, dropout, monkeypatch):
        """fit's steps, run in its workspace, give the bytes of forward,
        loss_and_grads and adam_step called on their own, over unequal
        pathway sizes (several layer-0 buckets) and a shorter last batch;
        and the workspace sized before the first step holds every buffer the
        steps ask for."""
        masks = make_masks([1, 4, 2, 3, 9, 2], 21) if kind in ("paae", "pavae") else None
        arch = ArchitectureConfig(kind=kind, encoder_layer_sizes=[5, 2], pathway_hidden_sizes=hidden,
                                  dropout_rate=dropout, beta=0.5)
        X = RngStream(3).normal(size=(11, 21))
        config = TrainConfig(epochs=3, batch_size=4, learning_rate=1e-2)
        workspaces = []
        sized = models._Workspace.for_fit.__func__

        def for_fit(cls, *args):
            workspaces.append(sized(cls, *args))
            return workspaces[-1]

        monkeypatch.setattr(models._Workspace, "for_fit", classmethod(for_fit))
        model = build_model(arch, 21, masks, RngStream(4))
        history = fit(model, X, config, RngStream(5))
        assert [ws.misses for ws in workspaces] == [0]

        ref = build_model(arch, 21, masks, RngStream(4))
        rng = RngStream(5)
        params = flat_params(ref)
        state = AdamState.for_params(params)
        ref_history = []
        for epoch in range(config.epochs):
            beta = beta_schedule(epoch, arch.schedule, arch.beta, arch.t_start, arch.t_end)
            beta = beta if models.is_variational(kind) else 0.0
            total = 0.0
            order = rng.permutation(len(X))
            for start in range(0, len(X), config.batch_size):
                xb = X[order[start : start + config.batch_size]]
                value, grads = loss_and_grads(ref, xb, forward(ref, xb, True, rng), beta)
                adam_step(params, grads, state, config.learning_rate)
                total += value * len(xb)
            ref_history.append(total / len(X))
        assert [h.hex() for h in history] == [h.hex() for h in ref_history]
        assert _bytes(flat_params(model)) == _bytes(params)

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

    def test_load_peak_under_four_file_sizes(self, tmp_path):
        """A load reads the header and the body through slices of the file's
        bytes: with 320 pathways of 10 named genes and encoder [64, 16] the
        traced peak of one load is about 3.4 file sizes (the file, the
        tensors, the header's masks and names); it was 4.5 when the body was
        copied twice before it was read."""
        G, P = 3200, 320
        arch = ArchitectureConfig(kind="paae", encoder_layer_sizes=[64, 16])
        model = build_model(arch, G, make_masks([G // P] * P, G), RngStream(0),
                            gene_names=[f"G{i}" for i in range(G)])
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        tracemalloc.start()
        try:
            load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * path.stat().st_size

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
            # the two biases have the same shape, so each offset stays in range
            lambda h, body: ({**h, "tensors": swap_offsets(h["tensors"], "pathway/0/0/b",
                                                           "pathway/1/0/b")}, body),
            lambda h, body: (with_mask(h, 0, [0, 2**70, 2]), body),
            lambda h, body: (with_mask(h, 0, [0, True, 2]), body),
            lambda h, body: (with_mask(h, 0, "ab"), body),
            lambda h, body: (with_mask(h, 1, [3, 3]), body),
            lambda h, body: (with_mask(h, 1, []), body),
            lambda h, body: (with_mask(h, 1, [-1, 4]), body),
            lambda h, body: (with_mask(with_mask(h, 1, [2**70, 4]), 0, [0, 0, 2]), body),
            lambda h, body: ({**h, "masks": h["masks"][:1] + [{"indices": [3, 4]}]}, body),
            lambda h, body: ({**h, "masks": [5]}, body),
        ],
        ids=["format", "not-a-dict", "trailing-bytes", "gene-count", "gene-names", "arch-value",
             "arch-shapes", "mask-bounds", "float-index", "missing-tensor", "tensor-shape",
             "offset", "huge-encoder-layer", "huge-pathway-layer", "huge-gene-count",
             "swapped-offsets", "huge-index", "bool-index", "string-indices", "repeated-index",
             "empty-mask", "negative-second-mask", "first-of-two-bad-masks", "unnamed-mask",
             "mask-not-a-dict"],
    )
    def test_damaged_header_is_data_error_naming_path(self, tmp_path, damage):
        """The error names the file, and its text is that of the per-pathway
        reference loader: a damaged mask names the first failing mask in
        file order."""
        path = tmp_path / "m.ckpt"
        save_checkpoint(self._model(), path)
        header, body = split_checkpoint(path.read_bytes())
        header, body = damage(header, body)
        head = json.dumps(header).encode()
        path.write_bytes(MAGIC + f"{len(head)}\n".encode() + head + body)
        with pytest.raises(DataError, match="m.ckpt") as err:
            load_checkpoint(path)
        with pytest.raises(DataError) as reference_err:
            reference.load_checkpoint(path)
        assert str(err.value) == str(reference_err.value)

    def test_index_beyond_intp_is_data_error(self, tmp_path):
        # in range for a huge gene count, but too large for an index array
        path = tmp_path / "m.ckpt"
        save_checkpoint(self._model(), path)
        header, body = split_checkpoint(path.read_bytes())
        header = with_mask({**header, "gene_count": 2**70, "gene_names": None}, 0, [0, 2**65, 2])
        head = json.dumps(header).encode()
        path.write_bytes(MAGIC + f"{len(head)}\n".encode() + head + body)
        with pytest.raises(DataError, match="m.ckpt: damaged checkpoint: OverflowError"):
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

    @pytest.mark.parametrize(
        "kind, name, value",
        [("pavae", "pathway/1/0/W", np.nan), ("pavae", "pathway/0/1/b", np.inf),
         ("pavae", "encoder/1/b", -np.inf), ("pavae", "decoder/0/W", np.nan),
         ("ae", "encoder/0/W", np.nan)],
    )
    def test_non_finite_weight_is_data_error_naming_tensor(self, tmp_path, kind, name, value):
        """A checkpoint holding a non-finite value is damaged (train saves
        only a fit that did not diverge); the error names the file and the
        tensor holding the first such value."""
        path = tmp_path / "m.ckpt"
        if kind == "ae":
            arch = ArchitectureConfig(kind="ae", encoder_layer_sizes=[4, 2])
            save_checkpoint(build_model(arch, 7, rng=RngStream(13)), path)
        else:
            save_checkpoint(self._model(), path)
        data = path.read_bytes()
        header, body = split_checkpoint(data)
        entry = next(e for e in header["tensors"] if e["name"] == name)
        values = np.frombuffer(body, dtype="<f8").copy()
        values[entry["offset"] // 8 + int(np.prod(entry["shape"])) - 1] = value
        values[-1] = np.nan  # in the last tensor, so not the first non-finite value
        path.write_bytes(data[: len(data) - len(body)] + values.tobytes())
        with pytest.raises(DataError) as err:
            load_checkpoint(path)
        assert str(err.value) == (f"{path}: damaged checkpoint: DataError: tensor {name} "
                                  "holds a non-finite value")

    def test_finite_weights_whose_sum_overflows_load(self, tmp_path):
        model = self._model()
        W, _ = model.params.decoder[0]
        W[0, :2] = np.finfo(np.float64).max
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        assert _bytes(flat_params(load_checkpoint(path))) == _bytes(flat_params(model))

    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(kind=st.sampled_from(models.KINDS), data=st.data())
    def test_any_damage_loads_or_is_config_or_data_error_naming_path(self, tmp_path, kind, data):
        """A byte edit, deletion, insertion or truncation anywhere in a
        checkpoint of any kind gives a model, or ConfigError or DataError
        naming the file; no other exception escapes."""
        arch = ArchitectureConfig(kind=kind, encoder_layer_sizes=[4, 2],
                                  pathway_hidden_sizes=[3, 2])
        masks = make_masks([3, 2], 7) if models.is_pathway_kind(kind) else None
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_model(arch, 7, masks, RngStream(5)), path)
        raw = bytearray(path.read_bytes())
        pos = data.draw(st.integers(0, len(raw) - 1), label="pos")
        edit = data.draw(st.sampled_from(["replace", "delete", "insert", "truncate"]), label="edit")
        if edit == "truncate":
            del raw[pos:]
        elif edit == "delete":
            del raw[pos : pos + data.draw(st.integers(1, 8), label="width")]
        else:
            byte = data.draw(st.sampled_from(b'\x00 09-.e"[]{}:,\xff'), label="byte")
            raw[pos : pos + (edit == "replace")] = bytes([byte])
        path.write_bytes(bytes(raw))
        try:
            load_checkpoint(path)
        except (ConfigError, DataError) as exc:
            assert str(path) in str(exc)

    @pytest.mark.parametrize(
        "tensors",
        [
            lambda t: [{**t[0], "extra": 1}] + t[1:],
            lambda t: [{"name": t[0]["name"], "shape": t[0]["shape"]}] + t[1:],
            lambda t: [list(t[0].values())] + t[1:],
            lambda t: [5] + t[1:],
            lambda t: {str(i): e for i, e in enumerate(t)},
            lambda t: "x" * len(t),
            lambda t: None,
            lambda t: [{**t[0], "name": "pathway/0/0/b"}] + t[1:],
            # equal under ==, so accepted by both
            lambda t: [{**e, "shape": [float(d) for d in e["shape"]]} for e in t],
            lambda t: [{**t[0], "offset": False}] + t[1:],
            lambda t: [{k: e[k] for k in reversed(list(e))} for e in t],
        ],
        ids=["extra-key", "missing-key", "entry-a-list", "entry-an-int", "table-a-dict",
             "table-a-string", "table-null", "wrong-name", "float-shapes", "false-offset",
             "keys-reordered"],
    )
    def test_tensor_table_checked_as_the_reference_loader_does(self, tmp_path, tensors):
        """The tensor table is compared without building the writer's
        dicts, by the same equality: a file loads, or fails with the same
        text, as with the reference loader's dict comparison."""
        path = tmp_path / "m.ckpt"
        save_checkpoint(self._model(), path)
        header, body = split_checkpoint(path.read_bytes())
        head = json.dumps({**header, "tensors": tensors(header["tensors"])}).encode()
        path.write_bytes(MAGIC + f"{len(head)}\n".encode() + head + body)
        try:
            want = reference.load_checkpoint(path)
        except DataError as exc:
            with pytest.raises(DataError) as err:
                load_checkpoint(path)
            assert str(err.value) == str(exc)
        else:
            assert _bytes(flat_params(load_checkpoint(path))) == _bytes(flat_params(want))


@st.composite
def _pathway_models(draw):
    """(arch, gene_count, masks, gene_names): unequal, overlapping masks in
    several size groups, and gene names drawn from a few letters, so that
    names repeat."""
    gene_count = draw(st.integers(4, 24))
    sizes = draw(st.lists(st.integers(1, min(gene_count, 9)), min_size=1, max_size=8))
    rng = RngStream(draw(st.integers(0, 2**16)))
    masks = [PathwayMask(f"P{j % 3}", rng.choice(gene_count, size=m, replace=False))
             for j, m in enumerate(sizes)]
    hidden = draw(st.sampled_from([[1], [3], [2, 1], [3, 2]]))
    arch = ArchitectureConfig(kind=draw(st.sampled_from(["paae", "pavae"])),
                              encoder_layer_sizes=[3, 2], pathway_hidden_sizes=hidden)
    names = draw(st.lists(st.sampled_from(["a", "B", "b", "é"]), min_size=gene_count,
                          max_size=gene_count))
    return arch, gene_count, masks, names


class TestPackedMatchesPerPathway:
    """build_model, save_checkpoint and load_checkpoint map the packed
    tensors to the checkpoint's pathway-by-pathway order through one index
    map, and the read commands rank every pathway's genes at once; each
    gives the bits of the per-pathway references."""

    @settings(max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_pathway_models(), seed=st.integers(0, 2**16))
    def test_bits_equal_the_per_pathway_references(self, tmp_path, case, seed):
        from pathae.cli import _anpw_rows
        from pathae.interpret import neural_path_weights, pathway_npw

        arch, gene_count, masks, names = case
        model = build_model(arch, gene_count, masks, RngStream(seed), gene_names=names)
        ref = reference.build_model(arch, gene_count, masks, RngStream(seed), gene_names=names)
        assert _bytes(flat_params(model)) == _bytes(flat_params(ref))

        path = tmp_path / "m.ckpt"
        # He-normal weights, then weights from a few values, so that |NPW|
        # ties are common
        for values in (None, [-1.0, -0.5, 0.0, 0.5, 1.0]):
            if values is not None:
                for p in flat_params(model):
                    p[...] = RngStream(seed).choice(values, size=p.shape)
            save_checkpoint(model, path)
            assert path.read_bytes() == reference.checkpoint_bytes(model)

            loaded, ref_loaded = load_checkpoint(path), reference.load_checkpoint(path)
            assert _bytes(flat_params(loaded)) == _bytes(flat_params(ref_loaded))
            assert [(m.name, m.indices.tolist()) for m in loaded.masks] == [
                (m.name, m.indices.tolist()) for m in ref_loaded.masks]
            npw = [neural_path_weights(stack) for stack in loaded.params.pathway_encoders]
            assert pathway_npw(loaded.params).tobytes() == np.concatenate(npw).tobytes()
            for k in (1, 3, 10):
                assert _anpw_rows(loaded, names, k) == reference.anpw_rows(loaded, names, k)



class TestLayer0Buckets:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 40).flatmap(lambda g: st.tuples(
        st.just(g), st.lists(st.integers(1, g), min_size=1, max_size=12), st.integers(0, 2**16))))
    def test_equal_the_per_pathway_fill(self, case):
        gene_count, sizes, seed = case
        rng = RngStream(seed)
        masks = [PathwayMask(f"P{j}", rng.choice(gene_count, size=m, replace=False))
                 for j, m in enumerate(sizes)]
        got = models._layer0_buckets(masks, gene_count)
        want = reference.layer0_buckets(masks, gene_count)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.span == b.span
            for name in ("pathways", "genes", "columns", "rows", "pad"):
                x, y = getattr(a, name), getattr(b, name)
                assert x.dtype == y.dtype and x.shape == y.shape and (x == y).all(), name

class TestTopGenesOfSomePathways:
    @settings(max_examples=20, deadline=None)
    @given(case=_pathway_models(), seed=st.integers(0, 2**16), data=st.data())
    def test_equal_the_same_pathways_ranked_with_all(self, case, seed, data):
        from pathae.interpret import pathway_top_genes

        arch, gene_count, masks, names = case
        model = build_model(arch, gene_count, masks, RngStream(seed), gene_names=names)
        for p in flat_params(model):  # weights from a few values, so |NPW| ties are common
            p[...] = RngStream(seed).choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=p.shape)
        chosen = data.draw(st.lists(st.integers(0, len(masks) - 1), max_size=len(masks) + 1))
        for k in (1, 3, 10):
            every = pathway_top_genes(model, names, k)
            some = pathway_top_genes(model, names, k, chosen)
            assert some.starts.size == len(chosen) + 1
            for i, j in enumerate(chosen):
                got, want = slice(*some.starts[i : i + 2]), slice(*every.starts[j : j + 2])
                assert some.genes[got].tolist() == every.genes[want].tolist()
                assert some.npw[got].tobytes() == every.npw[want].tobytes()

MAGIC = b"PATHAE-CKPT-v1\n"


def with_mask(header, j, indices):
    """A copy of a checkpoint header with mask j's indices replaced."""
    masks = list(header["masks"])
    masks[j] = {**masks[j], "indices": indices}
    return {**header, "masks": masks}


def swap_offsets(tensors, first, second):
    """A copy of a tensor table with the offsets of two named tensors swapped."""
    offsets = {t["name"]: t["offset"] for t in tensors}
    swap = {first: offsets[second], second: offsets[first]}
    return [{**t, "offset": swap.get(t["name"], t["offset"])} for t in tensors]


def split_checkpoint(data):
    """(header dict, body bytes) of a checkpoint file's contents."""
    line, _, rest = data[len(MAGIC):].partition(b"\n")
    n = int(line)
    return json.loads(rest[:n]), rest[n:]
