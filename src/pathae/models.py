"""The four autoencoder families: dense AE/VAE and their pathway-constrained
variants PAAE/PAVAE.

A pathway model routes each pathway's gene columns through a small encoder
stack ending in a single activity score; the concatenated activity vector is
compressed by a latent encoder and decoded back to the full gene vector.
All pathways share ``pathway_hidden_sizes``, so the pathway stage is stored
and run as a few stacked tensors (see ModelParams), never one small network
per pathway.
Dense models skip the pathway stage.  Variational kinds emit (mu, logvar)
and sample z with the reparameterization trick during training; at inference
they use mu and dropout is disabled everywhere.

Training is plain mini-batch Adam over hand-derived backprop; there is no
autodiff anywhere in the package.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .atomic import atomic_open
from .errors import ConfigError, DataError, NumericError, PathaeError, ShapeError, TrainingDiverged
from .ndcore import AdamState, RngStream, adam_step, as_stream, init_weights

KINDS = ("ae", "vae", "paae", "pavae")
SCHEDULES = ("none", "step", "smooth")


def is_variational(kind: str) -> bool:
    return kind in ("vae", "pavae")


def is_pathway_kind(kind: str) -> bool:
    return kind in ("paae", "pavae")


@dataclass
class PathwayMask:
    """A pathway resolved to column indices of a specific gene axis."""

    name: str
    indices: np.ndarray

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.intp)
        if self.indices.size == 0:
            raise ConfigError(f"pathway {self.name!r} resolved to an empty mask")
        if len(np.unique(self.indices)) != len(self.indices):
            raise ConfigError(f"pathway {self.name!r} has duplicate gene indices")
        if self.indices.min() < 0:
            raise ShapeError(f"pathway {self.name!r} has negative indices")

    def check_bounds(self, gene_count: int):
        if self.indices.max() >= gene_count:
            raise ShapeError(
                f"pathway {self.name!r} index {int(self.indices.max())} out of "
                f"bounds for {gene_count} genes"
            )

    @property
    def size(self) -> int:
        return int(self.indices.size)


@dataclass
class ArchitectureConfig:
    """Shape and regularization choices for one model.

    encoder_layer_sizes lists the latent-encoder widths; the last entry is
    the latent dimension d_z.  Variational kinds double the final layer to
    hold mu and logvar.  decoder_layer_sizes defaults to the mirrored
    encoder hidden sizes followed by the gene count.
    """

    kind: str
    encoder_layer_sizes: list[int]
    pathway_hidden_sizes: list[int] = field(default_factory=list)
    decoder_layer_sizes: list[int] | None = None
    dropout_rate: float = 0.5
    beta: float = 1.0
    schedule: str = "none"
    t_start: int = 32
    t_end: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}; expected one of {KINDS}")
        if self.schedule not in SCHEDULES:
            raise ConfigError(f"unknown schedule {self.schedule!r}; expected one of {SCHEDULES}")
        if not self.encoder_layer_sizes or any(s < 1 for s in self.encoder_layer_sizes):
            raise ConfigError("encoder_layer_sizes must be a non-empty list of positive sizes")
        if any(s < 1 for s in self.pathway_hidden_sizes):
            raise ConfigError("pathway_hidden_sizes must hold positive sizes")
        if self.decoder_layer_sizes is not None and (
            not self.decoder_layer_sizes or any(s < 1 for s in self.decoder_layer_sizes)
        ):
            raise ConfigError("decoder_layer_sizes must be a non-empty list of positive sizes")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.beta < 0:
            raise ConfigError(f"beta must be nonnegative, got {self.beta}")
        if self.t_end is None:
            self.t_end = self.t_start + 128
        if self.schedule == "smooth" and self.t_end <= self.t_start:
            raise ConfigError(
                f"smooth schedule needs t_end > t_start, got ({self.t_start}, {self.t_end})"
            )

    @property
    def latent_dim(self) -> int:
        return self.encoder_layer_sizes[-1]


@dataclass
class ModelParams:
    """Parameter storage: one (W, b) pair per layer.

    ``pathway`` packs the pathway stage of all P pathways and is empty for
    dense kinds.  Layer 0 is one unpadded (N, h1) weight with a row per
    (pathway, member gene) in pathway order, N the summed pathway sizes, and
    a (P, h1) bias; pathway j owns rows ``pathway_offsets[j]`` to
    ``pathway_offsets[j + 1]``.  Every later layer is a (P, h_in, h_out)
    weight stack and a (P, 1, h_out) bias stack.  ``encoder`` and
    ``decoder`` are dense stacks of (in, out) weights and (1, out) biases.
    """

    pathway: list[tuple[np.ndarray, np.ndarray]]
    encoder: list[tuple[np.ndarray, np.ndarray]]
    decoder: list[tuple[np.ndarray, np.ndarray]]
    pathway_offsets: tuple[int, ...] = (0,)

    @property
    def pathway_encoders(self) -> list[list[tuple[np.ndarray, np.ndarray]]]:
        """Per-pathway [(W, b), ...] stacks of views into ``pathway``.

        Writing into a view writes the parameter.  The lists are rebuilt on
        every access, so replacing an entry in them changes nothing."""
        if not self.pathway:
            return []
        (W0, b0), later = self.pathway[0], self.pathway[1:]
        off = self.pathway_offsets
        return [
            [(W0[off[j] : off[j + 1]], b0[j : j + 1])] + [(W[j], b[j]) for W, b in later]
            for j in range(b0.shape[0])
        ]


class _Bucket(NamedTuple):
    """Pathways whose sizes fall in one power-of-two range, padded to the
    largest of them so that layer 0 runs as one batched matmul."""

    pathways: np.ndarray  # (P_b,) pathway indices
    genes: np.ndarray  # (P_b, m_b) gene columns; pad slots name the zero column gene_count
    rows: np.ndarray  # (P_b, m_b) layer-0 weight rows; pad slots name the zero row N


def _layer0_buckets(masks: list[PathwayMask], gene_count: int) -> list[_Bucket]:
    sizes = [m.size for m in masks]
    offsets = np.cumsum([0] + sizes)
    keys = [(s - 1).bit_length() for s in sizes]
    buckets = []
    for key in sorted(set(keys)):
        members = [j for j, k in enumerate(keys) if k == key]
        width = max(sizes[j] for j in members)
        genes = np.full((len(members), width), gene_count, dtype=np.intp)
        rows = np.full((len(members), width), offsets[-1], dtype=np.intp)
        for r, j in enumerate(members):
            genes[r, : sizes[j]] = masks[j].indices
            rows[r, : sizes[j]] = np.arange(offsets[j], offsets[j + 1])
        buckets.append(_Bucket(np.asarray(members, dtype=np.intp), genes, rows))
    return buckets


@dataclass
class Model:
    arch: ArchitectureConfig
    gene_count: int
    masks: list[PathwayMask]
    params: ModelParams
    gene_names: list[str] | None = None
    pathway_names: list[str] | None = None

    def __post_init__(self):
        if self.pathway_names is None:
            self.pathway_names = [m.name for m in self.masks]

    @cached_property
    def _buckets(self) -> list[_Bucket]:
        return _layer0_buckets(self.masks, self.gene_count)


@dataclass
class ForwardOutputs:
    x_hat: np.ndarray
    z: np.ndarray
    a: np.ndarray | None = None
    mu: np.ndarray | None = None
    logvar: np.ndarray | None = None
    caches: dict | None = None


def _layer_shapes(arch: ArchitectureConfig, gene_count: int, masks: list[PathwayMask]):
    """(pathway, encoder, decoder, pathway_offsets): the (W, b) shapes of
    each section's layers, as the architecture and masks fix them."""
    pathway = []
    offsets = (0,)
    if is_pathway_kind(arch.kind):
        offsets = tuple(int(o) for o in np.cumsum([0] + [m.size for m in masks]))
        widths = list(arch.pathway_hidden_sizes) + [1]
        n_pw = len(masks)
        pathway.append(((offsets[-1], widths[0]), (n_pw, widths[0])))
        for h_in, h_out in zip(widths[:-1], widths[1:]):
            pathway.append(((n_pw, h_in, h_out), (n_pw, 1, h_out)))

    enc_in = len(masks) if is_pathway_kind(arch.kind) else gene_count
    enc_sizes = [enc_in] + list(arch.encoder_layer_sizes)
    if is_variational(arch.kind):
        enc_sizes[-1] = 2 * arch.latent_dim

    if arch.decoder_layer_sizes is not None:
        dec_sizes = [arch.latent_dim] + list(arch.decoder_layer_sizes)
        if dec_sizes[-1] != gene_count:
            raise ConfigError(
                f"decoder must end at the gene count ({gene_count}), "
                f"got {dec_sizes[-1]}"
            )
    else:
        dec_sizes = [arch.latent_dim] + list(reversed(arch.encoder_layer_sizes[:-1])) + [gene_count]

    def dense(sizes):
        return [((i, o), (1, o)) for i, o in zip(sizes[:-1], sizes[1:])]

    return pathway, dense(enc_sizes), dense(dec_sizes), offsets


def _allocate(arch: ArchitectureConfig, gene_count: int, masks: list[PathwayMask]) -> ModelParams:
    """Zero-filled parameters of the shapes the architecture and masks fix."""
    *sections, offsets = _layer_shapes(arch, gene_count, masks)
    pathway, encoder, decoder = (
        [(np.zeros(w), np.zeros(b)) for w, b in layers] for layers in sections
    )
    return ModelParams(pathway, encoder, decoder, offsets)


def _walk(params: ModelParams, per_pathway: bool):
    """The one walk over a model's parameters: (name, tensor) pairs, pathway
    stage then encoder then decoder, per layer W then b.

    With ``per_pathway`` the pathway stage is walked as each pathway's views
    under the checkpoint's ``pathway/{j}/{i}`` names, pathway by pathway:
    the order build_model draws initial weights in.  Without it the packed
    tensors are walked; those are what training updates."""
    if per_pathway:
        pathway = (
            (f"pathway/{j}/{i}", W, b)
            for j, stack in enumerate(params.pathway_encoders)
            for i, (W, b) in enumerate(stack)
        )
    else:
        pathway = ((f"pathway/{i}", W, b) for i, (W, b) in enumerate(params.pathway))
    dense = (
        (f"{section}/{i}", W, b)
        for section in ("encoder", "decoder")
        for i, (W, b) in enumerate(getattr(params, section))
    )
    for prefix, W, b in itertools.chain(pathway, dense):
        yield f"{prefix}/W", W
        yield f"{prefix}/b", b


def build_model(
    arch: ArchitectureConfig,
    gene_count: int,
    masks: list[PathwayMask] | None = None,
    rng=None,
    gene_names: list[str] | None = None,
) -> Model:
    """Initialize a model. Pathway kinds require a non-empty mask list;
    dense kinds ignore masks entirely."""
    rng = as_stream(rng)
    masks = list(masks) if masks else []
    if is_pathway_kind(arch.kind):
        if not masks:
            raise ConfigError(f"{arch.kind} requires at least one pathway mask")
        for m in masks:
            m.check_bounds(gene_count)
    else:
        masks = []
    params = _allocate(arch, gene_count, masks)
    for name, t in _walk(params, per_pathway=True):
        if name.endswith("/W"):
            t[...] = init_weights(*t.shape, rng)
    return Model(arch=arch, gene_count=gene_count, masks=masks, params=params, gene_names=gene_names)


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------


def _affine(x, W, b):
    return x @ W + b, x


def _affine_grads(lin_in, g):
    return np.swapaxes(lin_in, -1, -2) @ g, g.sum(axis=-2, keepdims=True)


def _layers_forward(h, layers, rate, uniform, layer0=_affine):
    """Hidden layers: affine -> ReLU -> dropout. Final layer: affine only.

    Runs dense (B, in) and pathway (P, B, in) stacks alike.  ``uniform(shape)``
    draws the dropout uniforms, None when dropout is off; ``layer0(x, W, b)``
    is layer 0's affine map, returning (output, input for the gradient)."""
    caches = []
    last = len(layers) - 1
    for i, (W, b) in enumerate(layers):
        h, lin_in = (layer0 if i == 0 else _affine)(h, W, b)
        if i < last:
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


def _layers_backward(g, layers, caches, layer0_grads=None):
    """(input gradient, [(gW, gb), ...]) of a _layers_forward stack.  A given
    ``layer0_grads(lin_in, g)`` computes layer 0's pair instead, and no input
    gradient is formed (None is returned for it)."""
    grads = [None] * len(layers)
    last = len(layers) - 1
    for i in range(last, -1, -1):
        W, _b = layers[i]
        lin_in, pre, mask = caches[i]
        if i < last:
            if mask is not None:
                g = g * mask
            g = g * (pre > 0.0)
        if i == 0 and layer0_grads is not None:
            grads[0] = layer0_grads(lin_in, g)
            return None, grads
        grads[i] = _affine_grads(lin_in, g)
        g = g @ np.swapaxes(W, -1, -2)
    return g, grads


def _dense_uniform(model: Model, training, rng):
    """Dropout source of the dense stacks: a fresh draw per layer."""
    if training and model.arch.dropout_rate > 0.0:
        return lambda shape: rng.uniform(size=shape)
    return None


def _as_input(x, width: int, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != width:
        raise ShapeError(f"{what} has shape {x.shape}, model expects (n, {width})")
    return x


def pathway_activity_forward(model: Model, x, training=False, rng=None):
    """Concatenated pathway activity scores, one column per pathway."""
    if not is_pathway_kind(model.arch.kind):
        raise ConfigError(f"{model.arch.kind} has no pathway activity space")
    x = _as_input(x, model.gene_count, "input")
    a, _ = _pathway_forward_cached(model, x, training, as_stream(rng))
    return a


def _pathway_forward_cached(model, x, training, rng):
    """Pathway stage on the packed tensors: one batched matmul per layer, and
    per size bucket for layer 0.  Dropout for the whole stage is one uniform
    draw, sliced so that each pathway and layer gets the values the
    pathway-by-pathway, layer-by-layer order would give it."""
    n, n_pw = x.shape[0], len(model.masks)
    widths = model.arch.pathway_hidden_sizes
    uniform = None
    if training and model.arch.dropout_rate > 0.0 and widths:
        draws = rng.uniform(size=(n_pw, n * sum(widths)))
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

    h, caches = _layers_forward(x, model.params.pathway, model.arch.dropout_rate, uniform, layer0)
    return np.ascontiguousarray(h[:, :, 0].T), caches


def _pathway_backward(model, grad_a, caches):
    """Gradients of the packed pathway tensors given dL/da of shape (B, P)."""
    W0 = model.params.pathway[0][0]

    def layer0_grads(blocks, g):
        gW = np.empty((W0.shape[0] + 1, W0.shape[1]))  # the last row takes the pad slots
        for bk, xb in zip(model._buckets, blocks):
            gW[bk.rows] = xb.transpose(0, 2, 1) @ g[bk.pathways]
        return gW[:-1], g.sum(axis=1)

    g = np.ascontiguousarray(grad_a.T)[:, :, None]
    return _layers_backward(g, model.params.pathway, caches, layer0_grads)[1]


def encode(model: Model, inp, training=False, rng=None):
    """Latent encoder. Returns z for deterministic kinds, (mu, logvar) for
    variational kinds (the final layer is split into halves)."""
    inp = _as_input(inp, model.params.encoder[0][0].shape[0], "encoder input")
    out, _ = _encode_cached(model, inp, _dense_uniform(model, training, as_stream(rng)))
    return out


def _encode_cached(model, inp, uniform):
    h, cache = _layers_forward(inp, model.params.encoder, model.arch.dropout_rate, uniform)
    if is_variational(model.arch.kind):
        d = model.arch.latent_dim
        return (h[:, :d], h[:, d:]), cache
    return h, cache


def reparameterize(mu, logvar, rng=None, eps=None):
    """z = mu + exp(logvar/2) * eps with eps ~ N(0, 1).

    ``eps`` can be injected to make the draw explicit (gradient checks)."""
    mu = np.asarray(mu, dtype=np.float64)
    logvar = np.asarray(logvar, dtype=np.float64)
    if mu.shape != logvar.shape:
        raise ShapeError(f"reparameterize: mu {mu.shape} vs logvar {logvar.shape}")
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(logvar))):
        raise NumericError("reparameterize: non-finite inputs")
    if eps is None:
        eps = as_stream(rng).normal(size=mu.shape)
    return mu + np.exp(0.5 * logvar) * eps, eps


def decode(model: Model, z, training=False, rng=None):
    z = _as_input(z, model.arch.latent_dim, "latent input")
    uniform = _dense_uniform(model, training, as_stream(rng))
    return _layers_forward(z, model.params.decoder, model.arch.dropout_rate, uniform)[0]


def forward(model: Model, x, training=False, rng=None) -> ForwardOutputs:
    """Full forward pass; caches are kept for the matching backward pass.

    Inference (training=False) disables dropout and uses mu as z for
    variational kinds, so repeated calls are deterministic.
    """
    rng = as_stream(rng)
    x = _as_input(x, model.gene_count, "input")
    uniform = _dense_uniform(model, training, rng)
    caches = {}
    a = None
    enc_in = x
    if is_pathway_kind(model.arch.kind):
        a, caches["pathway"] = _pathway_forward_cached(model, x, training, rng)
        enc_in = a
    enc_out, caches["encoder"] = _encode_cached(model, enc_in, uniform)
    if is_variational(model.arch.kind):
        mu, logvar = enc_out
        if training:
            z, eps = reparameterize(mu, logvar, rng)
            caches["eps"] = eps
        else:
            z = mu
    else:
        mu = logvar = None
        z = enc_out
    x_hat, caches["decoder"] = _layers_forward(
        z, model.params.decoder, model.arch.dropout_rate, uniform
    )
    return ForwardOutputs(x_hat=x_hat, z=z, a=a, mu=mu, logvar=logvar, caches=caches)


# ---------------------------------------------------------------------------
# losses and schedule
# ---------------------------------------------------------------------------


def mse_loss(x, x_hat):
    """Mean over samples and features of the squared error.

    Returns (value, grad w.r.t. x_hat)."""
    x = np.asarray(x, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if x.shape != x_hat.shape:
        raise ShapeError(f"mse_loss: shapes {x.shape} vs {x_hat.shape}")
    diff = x_hat - x
    value = float(np.mean(diff * diff))
    grad = 2.0 * diff / diff.size
    return value, grad


def kl_gaussian(mu, logvar):
    """KL(N(mu, sigma^2) || N(0, I)), summed over dims, averaged over samples.

    Returns (value, grad_mu, grad_logvar)."""
    mu = np.asarray(mu, dtype=np.float64)
    logvar = np.asarray(logvar, dtype=np.float64)
    if mu.shape != logvar.shape:
        raise ShapeError(f"kl_gaussian: shapes {mu.shape} vs {logvar.shape}")
    n = mu.shape[0]
    var = np.exp(logvar)
    value = float(0.5 * np.sum(mu * mu + var - 1.0 - logvar) / n)
    grad_mu = mu / n
    grad_logvar = 0.5 * (var - 1.0) / n
    return value, grad_mu, grad_logvar


def beta_schedule(t, kind: str, beta: float, t_start: int, t_end: int | None = None) -> float:
    """Effective KL weight at epoch t.

    step: 0 before t_start, beta from t_start on.
    smooth: logistic ramp centered at (t_start+t_end)/2 with slope
    10/(t_end-t_start), so the value is ~0.7% of beta at t_start and ~99.3%
    at t_end, and exactly beta/2 at the midpoint.
    """
    if kind == "none":
        return float(beta)
    if kind == "step":
        return float(beta) if t >= t_start else 0.0
    if kind == "smooth":
        if t_end is None:
            t_end = t_start + 128
        if t_end <= t_start:
            raise ConfigError(f"smooth schedule needs t_end > t_start, got ({t_start}, {t_end})")
        mid = 0.5 * (t_start + t_end)
        u = 10.0 * (t - mid) / (t_end - t_start)
        return float(beta) / (1.0 + np.exp(-u))
    raise ConfigError(f"unknown schedule kind {kind!r}")


def loss(model: Model, x, outputs: ForwardOutputs, beta_eff: float = 0.0):
    """Composite loss value for the model kind: MSE, plus beta_eff * KL for
    variational kinds."""
    mse, _ = mse_loss(x, outputs.x_hat)
    if is_variational(model.arch.kind):
        kl, _, _ = kl_gaussian(outputs.mu, outputs.logvar)
        return mse + beta_eff * kl
    return mse


# ---------------------------------------------------------------------------
# parameter bookkeeping
# ---------------------------------------------------------------------------


def flat_params(model: Model) -> list[np.ndarray]:
    """The parameter tensors training updates, in place: the packed pathway
    stage, then encoder, then decoder, per layer W then b."""
    return [t for _, t in _walk(model.params, per_pathway=False)]


def count_params(model_or_params) -> int:
    """Number of trainable scalars; the packed storage holds no padding."""
    params = model_or_params.params if isinstance(model_or_params, Model) else model_or_params
    return int(sum(t.size for _, t in _walk(params, per_pathway=False)))


def loss_and_grads(model: Model, x, outputs: ForwardOutputs, beta_eff: float = 0.0):
    """Composite loss plus gradients for every parameter, aligned with
    flat_params ordering. Requires outputs produced by forward()."""
    caches = outputs.caches
    if caches is None:
        raise ValueError("loss_and_grads needs outputs with caches from forward()")
    x = np.asarray(x, dtype=np.float64)

    total, grad_xhat = mse_loss(x, outputs.x_hat)
    grad_z, dec_grads = _layers_backward(grad_xhat, model.params.decoder, caches["decoder"])

    if is_variational(model.arch.kind):
        kl, kl_gmu, kl_glogvar = kl_gaussian(outputs.mu, outputs.logvar)
        total += beta_eff * kl
        eps = caches["eps"]
        sigma = np.exp(0.5 * outputs.logvar)
        grad_mu = grad_z + beta_eff * kl_gmu
        grad_logvar = 0.5 * grad_z * eps * sigma + beta_eff * kl_glogvar
        enc_upstream = np.concatenate([grad_mu, grad_logvar], axis=1)
    else:
        enc_upstream = grad_z

    pathway = is_pathway_kind(model.arch.kind)
    # only the pathway stage needs the gradient of the encoder's input
    grad_enc_in, enc_grads = _layers_backward(
        enc_upstream, model.params.encoder, caches["encoder"], None if pathway else _affine_grads
    )
    pw_grads = _pathway_backward(model, grad_enc_in, caches["pathway"]) if pathway else []
    grads = ModelParams(pw_grads, enc_grads, dec_grads)
    flat = [g for _, g in _walk(grads, per_pathway=False)]
    return total, flat


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    epochs: int = 1024
    learning_rate: float = 1e-4
    batch_size: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


def fit(model: Model, X, config: TrainConfig, rng=None) -> list[float]:
    """Mini-batch Adam training; beta scheduling by epoch for variational
    kinds. Returns the per-epoch mean training loss (length == epochs).

    Raises TrainingDiverged as soon as a batch loss is non-finite, naming
    the epoch.
    """
    rng = as_stream(rng if rng is not None else config.seed)
    X = _as_input(X, model.gene_count, "training matrix")
    n = X.shape[0]
    if n == 0:
        raise ShapeError("fit: empty training matrix")
    params = flat_params(model)
    state = AdamState.for_params(params)
    arch = model.arch
    history: list[float] = []
    for epoch in range(config.epochs):
        beta_eff = (
            beta_schedule(epoch, arch.schedule, arch.beta, arch.t_start, arch.t_end)
            if is_variational(arch.kind)
            else 0.0
        )
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            xb = X[idx]
            try:
                outs = forward(model, xb, training=True, rng=rng)
                value, grads = loss_and_grads(model, xb, outs, beta_eff)
                if not np.isfinite(value):
                    raise TrainingDiverged(epoch, value)
                adam_step(params, grads, state, config.learning_rate)
            except TrainingDiverged:
                raise
            except NumericError as exc:
                # non-finite values can surface mid-forward before the loss
                raise TrainingDiverged(epoch, float("nan")) from exc
            epoch_loss += value * len(idx)
        history.append(epoch_loss / n)
    return history


def reconstruct(model: Model, X) -> np.ndarray:
    """Deterministic inference reconstruction (dropout off, mu for z)."""
    return forward(model, X, training=False).x_hat


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"PATHAE-CKPT-v1\n"


def save_checkpoint(model: Model, path):
    """Self-describing container: JSON header plus raw little-endian float64
    tensor bytes. Writing the same model twice yields identical bytes, and
    the file is replaced atomically, never left half-written.

    The pathway stage is written pathway by pathway under ``pathway/{j}/{i}``
    names, so the format does not depend on how the parameters are packed."""
    tensors = []
    offset = 0
    blobs = []
    for name, arr in _walk(model.params, per_pathway=True):
        raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        tensors.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(raw)
        offset += len(raw)
    arch = model.arch
    header = {
        "format": 1,
        "kind": arch.kind,
        "arch": {
            "kind": arch.kind,
            "encoder_layer_sizes": list(arch.encoder_layer_sizes),
            "pathway_hidden_sizes": list(arch.pathway_hidden_sizes),
            "decoder_layer_sizes": (
                list(arch.decoder_layer_sizes) if arch.decoder_layer_sizes is not None else None
            ),
            "dropout_rate": arch.dropout_rate,
            "beta": arch.beta,
            "schedule": arch.schedule,
            "t_start": arch.t_start,
            "t_end": arch.t_end,
        },
        "gene_count": model.gene_count,
        "gene_names": model.gene_names,
        "masks": [
            {"name": m.name, "indices": [int(i) for i in m.indices]} for m in model.masks
        ],
        "tensors": tensors,
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(f"{len(head)}\n".encode("ascii"))
        fh.write(head)
        for raw in blobs:
            fh.write(raw)


def load_checkpoint(path) -> Model:
    """Read a checkpoint written by save_checkpoint.

    Raises ConfigError when the file is not a checkpoint at all, and
    DataError naming the path when it is damaged: a truncated or malformed
    header, an unknown format, an architecture or masks that do not validate,
    a tensor table that does not match them, or a body of the wrong length."""
    with open(path, "rb") as fh:
        if fh.read(len(_CKPT_MAGIC)) != _CKPT_MAGIC:
            raise ConfigError(f"{path}: not a checkpoint file (bad magic)")
        data = fh.read()
    try:
        return _decode_checkpoint(data)
    except (KeyError, IndexError, TypeError, ValueError, PathaeError) as exc:
        # ValueError covers JSON and UTF-8 decoding; the rest, a header of
        # the wrong structure
        raise DataError(f"{path}: damaged checkpoint: {type(exc).__name__}: {exc}") from exc


def _decode_checkpoint(data: bytes) -> Model:
    head_line, newline, rest = data.partition(b"\n")
    if not newline or not head_line.isdigit():
        raise DataError("truncated header length")
    head_len = int(head_line)
    if len(rest) < head_len:
        raise DataError(f"header truncated at {len(rest)} of {head_len} bytes")
    header = json.loads(rest[:head_len].decode("utf-8"))
    body = rest[head_len:]
    if header["format"] != 1:
        raise DataError(f"unsupported format {header['format']!r}")

    arch = ArchitectureConfig(**header["arch"])
    gene_count = header["gene_count"]
    if not _is_int(gene_count) or gene_count < 1:
        raise DataError(f"gene_count {gene_count!r} is not a positive integer")
    gene_names = header["gene_names"]
    if gene_names is not None and len(gene_names) != gene_count:
        raise DataError(f"{len(gene_names)} gene names for {gene_count} genes")
    masks = []
    for m in header["masks"]:
        if not all(_is_int(i) and 0 <= i < gene_count for i in m["indices"]):
            raise DataError(f"pathway {m['name']!r} has indices outside 0..{gene_count - 1}")
        masks.append(PathwayMask(m["name"], np.asarray(m["indices"], dtype=np.intp)))
    if bool(masks) != is_pathway_kind(arch.kind):
        raise DataError(f"{len(masks)} pathway masks for a {arch.kind} model")
    # sized from the header alone, before anything is allocated, so a damaged
    # layer size cannot ask for more memory than the file holds
    *sections, _ = _layer_shapes(arch, gene_count, masks)
    expected = 8 * sum(math.prod(s) for layers in sections for pair in layers for s in pair)
    if len(body) != expected:
        raise DataError(f"body has {len(body)} bytes, the tensors need {expected}")
    params = _allocate(arch, gene_count, masks)

    table = {t["name"]: t for t in header["tensors"]}
    views = list(_walk(params, per_pathway=True))
    if len(table) != len(header["tensors"]) or sorted(table) != sorted(n for n, _ in views):
        raise DataError("tensor table does not match the architecture")
    for name, view in views:
        shape, offset = table[name]["shape"], table[name]["offset"]
        if shape != list(view.shape):
            raise DataError(f"tensor {name} has shape {shape}, expected {list(view.shape)}")
        if not _is_int(offset) or offset < 0 or offset + view.nbytes > len(body):
            raise DataError(f"tensor {name} offset {offset!r} outside the body")
        view[...] = np.frombuffer(body, dtype="<f8", count=view.size, offset=offset).reshape(
            view.shape
        )
    return Model(
        arch=arch, gene_count=gene_count, masks=masks, params=params, gene_names=gene_names
    )


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)
