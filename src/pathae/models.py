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
autodiff anywhere in the package.  ``fit`` runs its steps in one workspace
of buffers made before the first step (see _Workspace); inference keeps no
caches for a backward pass.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .atomic import atomic_open
from .errors import ConfigError, DataError, NumericError, PathaeError, ShapeError, TrainingDiverged
from .ndcore import AdamState, adam_step, as_stream, init_weights, require_finite

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

    @classmethod
    def _checked(cls, name, indices: np.ndarray) -> "PathwayMask":
        """A mask whose intp indices were checked with those of other masks,
        made without checking them again."""
        mask = object.__new__(cls)
        mask.name, mask.indices = name, indices
        return mask


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
        if not 0 <= self.beta < math.inf:
            raise ConfigError(f"beta must be finite and >= 0, got {self.beta}")
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
    largest of them so that layer 0 runs as one batched matmul.  Layer 0
    gathers the input and weight blocks from ``x`` and ``W`` themselves, at
    in-range indices, and then zeroes the pad slots in the gathered blocks.
    The pathway stage runs with its pathways in bucket order, so that a
    bucket's rows of every activation are the contiguous ``span``."""

    pathways: np.ndarray  # (P_b,) pathway indices
    genes: np.ndarray  # (P_b, m_b) gene columns; pad slots name gene_count
    columns: np.ndarray  # genes with the pad slots at gene_count - 1, for the gather
    rows: np.ndarray  # (P_b, m_b) layer-0 weight rows; pad slots name N, a spare gradient row
    pad: np.ndarray  # (P_b, m_b) bool, True at the pad slots
    span: slice  # the bucket's rows in bucket order


def _layer0_buckets(masks: list[PathwayMask], gene_count: int) -> list[_Bucket]:
    sizes = np.array([m.size for m in masks], dtype=np.intp)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    genes_flat = np.concatenate([m.indices for m in masks])
    keys = np.frexp(sizes - 1)[1]  # (size - 1).bit_length()
    buckets = []
    start = 0
    for key in np.unique(keys).tolist():
        members = np.flatnonzero(keys == key)
        member_sizes = sizes[members]
        width = int(member_sizes.max())
        # each member's slots at the front of its row, the rest pad
        slots = _ranges(np.arange(members.size) * width, member_sizes)
        weight_rows = _ranges(offsets[members], member_sizes)
        genes = np.full(members.size * width, gene_count, dtype=np.intp)
        rows = np.full(members.size * width, offsets[-1], dtype=np.intp)
        genes[slots] = genes_flat[weight_rows]
        rows[slots] = weight_rows
        genes, rows = genes.reshape(-1, width), rows.reshape(-1, width)
        buckets.append(
            _Bucket(members, genes, np.minimum(genes, gene_count - 1),
                    rows, genes == gene_count, slice(start, start + members.size))
        )
        start += members.size
    return buckets


@dataclass
class Model:
    arch: ArchitectureConfig
    gene_count: int
    masks: list[PathwayMask]
    params: ModelParams
    gene_names: list[str] | None = None

    @property
    def pathway_names(self) -> list[str]:
        return [m.name for m in self.masks]

    @cached_property
    def _buckets(self) -> list[_Bucket]:
        return _layer0_buckets(self.masks, self.gene_count)

    @cached_property
    def _bucket_order(self) -> np.ndarray:
        """The pathway indices in bucket order."""
        return np.concatenate([bk.pathways for bk in self._buckets])


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


def _walk(params: ModelParams, sections=("pathway", "encoder", "decoder")):
    """The one walk over a model's parameters: (name, tensor) pairs, the
    packed pathway stage then encoder then decoder (or the given
    ``sections``), per layer W then b.  These are the tensors training
    updates."""
    for section in sections:
        for i, (W, b) in enumerate(getattr(params, section)):
            yield f"{section}/{i}/W", W
            yield f"{section}/{i}/b", b


_DENSE = ("encoder", "decoder")


class _PathwayOrder(NamedTuple):
    """The index map between the packed pathway tensors and the checkpoint's
    pathway order: pathway by pathway, each pathway's layers in turn, W then
    b (``pathway/{j}/{i}/W``, ``pathway/{j}/{i}/b``), each flattened.

    It is a table of blocks.  Block (j, t) is pathway j's part of packed
    tensor t, for t the packed tensors W0, b0, W1, b1, ... in _walk order:
    its rows of layer 0's W, or its slice of any other tensor.  Each block
    is contiguous on both sides of the map."""

    lengths: np.ndarray  # (P, T) elements per block
    packed: np.ndarray  # (P, T) first element among the packed tensors, flattened back to back
    body: np.ndarray  # (P, T) first position in pathway order
    fan_in: np.ndarray  # (P, T) a W block's rows; 0 for a b block

    def to_body(self) -> np.ndarray:
        """The packed element at each position in pathway order."""
        return _ranges(self.packed, self.lengths)

    def positions(self, t: int) -> np.ndarray:
        """The position in pathway order of each element of packed tensor t."""
        return _ranges(self.body[:, t], self.lengths[:, t])


def _ranges(starts, lengths) -> np.ndarray:
    """The ranges ``starts[k]`` to ``starts[k] + lengths[k]`` back to back,
    k in the arrays' C order."""
    starts, lengths = np.ravel(starts), np.ravel(lengths)
    firsts = np.cumsum(lengths) - lengths
    return np.repeat(starts - firsts, lengths) + np.arange(lengths.sum())


def _pathway_order(params: ModelParams) -> _PathwayOrder:
    offsets = np.asarray(params.pathway_offsets)
    sizes = np.diff(offsets)
    n_pw = sizes.size
    lengths, packed, fans = [], [], []  # per packed tensor, per pathway
    base = 0
    for i, (W, b) in enumerate(params.pathway):
        if i == 0:  # (N, h1): pathway j owns rows offsets[j] to offsets[j + 1]
            lengths.append(sizes * W.shape[1])
            packed.append(base + offsets[:-1] * W.shape[1])
            fans.append(sizes)
        else:  # (P, h_in, h_out)
            block = W.shape[1] * W.shape[2]
            lengths.append(np.full(n_pw, block))
            packed.append(base + np.arange(n_pw) * block)
            fans.append(np.full(n_pw, W.shape[1]))
        base += W.size
        lengths.append(np.full(n_pw, b.shape[-1]))
        packed.append(base + np.arange(n_pw) * b.shape[-1])
        fans.append(np.zeros(n_pw, np.intp))
        base += b.size
    # (0, 0) blocks for a dense kind, which has no pathway stage
    lengths, packed, fans = (np.stack(c, axis=1) if c else np.zeros((0, 0), np.intp)
                             for c in (lengths, packed, fans))
    body = (np.cumsum(lengths) - lengths.ravel()).reshape(lengths.shape)
    return _PathwayOrder(lengths, packed, body, fans)


def _fill_pathway(params: ModelParams, order: _PathwayOrder, values: np.ndarray):
    """Fill the packed pathway tensors from ``values`` in pathway order: one
    gather per tensor."""
    for t, (_, tensor) in enumerate(_walk(params, ("pathway",))):
        np.take(values, order.positions(t), out=tensor.reshape(-1), mode="clip")


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
    # He-normal weights drawn in the checkpoint's order: the pathway stage
    # pathway by pathway in one draw, then the dense layers
    if params.pathway:
        order = _pathway_order(params)
        lengths, fans = order.lengths[:, ::2], order.fan_in[:, ::2]  # the W blocks
        draws = rng.normal(size=lengths.sum())
        starts = (np.cumsum(lengths) - lengths.ravel()).reshape(lengths.shape)
        for i, (W, _b) in enumerate(params.pathway):
            scale = np.repeat(np.sqrt(2.0 / fans[:, i]), lengths[:, i])
            np.multiply(draws[_ranges(starts[:, i], lengths[:, i])], scale, out=W.reshape(-1))
    for W, _b in params.encoder + params.decoder:
        W[...] = init_weights(*W.shape, rng)
    return Model(arch=arch, gene_count=gene_count, masks=masks, params=params, gene_names=gene_names)


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------


class _Workspace:
    """The buffers of one fit, in one allocation that every step reuses.

    ``get(slot, shape)`` returns a slot's leading elements as a C-order array
    of that shape, so the last, shorter batch runs in leading slices of
    buffers sized by the full batch.  Arrays whose lifetimes do not overlap
    share a slot:

    - ``"x"``: the batch.
    - ``"scratch"``: the batch transposed for the layer-0 gather, then the
      pathway stage's dropout uniforms, then the squared error of the loss.
    - ``"keep"``: a bool dropout keep mask ``u >= rate``: a dense hidden
      layer's, or the whole pathway stage's in pathway order.
    - ``("pathway", "keep")``: the pathway stage's keep masks in bucket order.
    - ``(stack, i)``: layer i's output; in the backward pass, the gradient
      with respect to it.  The decoder's last is x_hat, then the MSE gradient.
    - ``(stack, "mask", i)``: hidden layer i's bool ReLU mask ``pre > 0``,
      then, with dropout, ``keep & (pre > 0)``.
    - ``(stack, "drop", i)``: a dense hidden layer i's dropout uniforms; then
      any hidden layer's float mask ``(keep & (pre > 0)) * scale``.
    - ``("block", k)``: bucket k's layer-0 input block.
    - ``"wblock"``: a bucket's layer-0 weight block, then its weight gradient.
    - ``"a"``: the pathway activities.

    The slots are sized from the model's layer shapes before the first step
    (``for_fit``), so that the fit makes one allocation and releases it in
    one piece.  A request the sizes do not cover gets an array of its own,
    kept in the slot, and is counted in ``misses``.
    """

    def __init__(self, sizes: dict):
        """``sizes`` maps (slot, dtype) to the slot's length in elements."""
        nbytes = [n * np.dtype(dtype).itemsize for (_, dtype), n in sizes.items()]
        starts = np.cumsum([0] + [-(-b // 64) * 64 for b in nbytes])  # 64-byte aligned
        arena = np.empty(int(starts[-1]), np.uint8)
        self._flat = {
            key: arena[start : start + b].view(key[1])
            for key, start, b in zip(sizes, starts, nbytes)
        }
        self.misses = 0

    @classmethod
    def for_fit(cls, model: Model, rows: int) -> "_Workspace":
        """A workspace for training steps of up to ``rows`` rows."""
        arch = model.arch
        sizes = {}

        def need(slot, n, dtype=np.float64):
            sizes[slot, dtype] = max(sizes.get((slot, dtype), 0), n)

        def stack(name, layers, rows, dropout):
            widths = [w[-1] for w, _ in layers]
            for i, w in enumerate(widths):
                need((name, i), rows * w)
                if i < len(widths) - 1:
                    need((name, "mask", i), rows * w, bool)
                    if dropout:
                        need((name, "drop", i), rows * w)
                        need("keep", rows * w, bool)

        pathway, encoder, decoder, _ = _layer_shapes(arch, model.gene_count, model.masks)
        dropout = arch.dropout_rate > 0.0
        need("x", rows * model.gene_count)
        need("scratch", rows * model.gene_count)
        if pathway:
            n_pw = len(model.masks)
            hidden = sum(arch.pathway_hidden_sizes)
            for k, bk in enumerate(model._buckets):
                need(("block", k), bk.columns.size * rows)
                need("wblock", bk.rows.size * pathway[0][0][1])
            if dropout and hidden:
                need("scratch", n_pw * rows * hidden)
                need("keep", n_pw * rows * hidden, bool)
                need(("pathway", "keep"), n_pw * rows * hidden, bool)
            stack("pathway", pathway, n_pw * rows, dropout)
            need("a", rows * n_pw)
        stack("encoder", encoder, rows, dropout)
        stack("decoder", decoder, rows, dropout)
        return cls(sizes)

    def get(self, slot, shape, dtype=np.float64):
        size = math.prod(shape)
        flat = self._flat.get((slot, dtype))
        if flat is None or flat.size < size:
            self.misses += 1
            flat = self._flat[slot, dtype] = np.empty(size, dtype)
        return flat[:size].reshape(shape)

    def column_blocks(self, x, buckets):
        """Each bucket's (P_b, m_b, B) block of x's columns, in its slot.

        np.take buffers its output unless mode is "clip" or "wrap", and it
        first copies a source that is not C-contiguous, such as x.T (7.7 MB
        on a 300 x 3200 table).  So the blocks are taken from a C-order copy
        of x.T, made once in the scratch slot."""
        xT = self.get("scratch", x.shape[::-1])
        np.copyto(xT, x.T)
        for k, bk in enumerate(buckets):
            out = self.get(("block", k), bk.columns.shape + (x.shape[0],))
            yield np.take(xT, bk.columns, axis=0, mode="clip", out=out)


class _Fresh:
    """The workspace of a lone forward, loss_and_grads or inference call: a
    new array per request, freed with its last reference."""

    @staticmethod
    def get(slot, shape, dtype=np.float64):
        return np.empty(shape, dtype)

    @staticmethod
    def column_blocks(x, buckets):
        """Each bucket's (P_b, m_b, B) block of x's columns, a new C-order
        array; indexing x.T reads x where it is, with no copy of it."""
        for bk in buckets:
            yield x.T[bk.columns]


def _affine_grads(lin_in, g):
    return np.swapaxes(lin_in, -1, -2) @ g, g.sum(axis=-2, keepdims=True)


def _layers_forward(h, layers, ws, stack, drop_of=None, keep=False, layer0=None):
    """Hidden layers: affine -> ReLU -> dropout. Final layer: affine only.

    Runs dense (B, in) and pathway (P, B, in) stacks alike, layer i's output
    in the workspace slot ``(stack, i)``.  ``drop_of(i, shape)`` gives hidden
    layer i's dropout as (``kept``, the bool mask of the entries it keeps,
    ``scale = 1 / (1 - rate)``), and is None when dropout is off;
    ``layer0(x, W, b, keep)`` replaces layer 0's affine map, returning
    (output, input for the gradient).

    With dropout a hidden layer forms one float mask, ``(kept & (pre > 0)) *
    scale`` (``kept * scale`` when no caches are kept), and multiplies the
    ReLU output by it.  Its values are those of the keep mask ``kept / (1 -
    rate)`` times the ReLU mask: a kept entry is the one correctly rounded
    ``1 / (1 - rate)``, and where ``pre <= 0`` or is NaN the ReLU output is
    +0.0 or NaN, which 0 and the scale leave as they are.

    With ``keep`` each layer caches (input for the gradient, mask): for a
    hidden layer the mask is the bool ``pre > 0`` without dropout and the
    float mask with it; the final layer's mask is None.  Without ``keep`` no
    ReLU mask is formed and the caches are None, as inference runs no
    backward pass."""
    caches = [] if keep else None
    last = len(layers) - 1
    for i, (W, b) in enumerate(layers):
        if i == 0 and layer0 is not None:
            out, lin_in = layer0(h, W, b, keep)
        else:
            out = np.matmul(h, W, out=ws.get((stack, i), h.shape[:-1] + W.shape[-1:]))
            out += b
            lin_in = h
        h = out
        mask = None
        if i < last:
            if keep:
                mask = np.greater(h, 0.0, out=ws.get((stack, "mask", i), h.shape, bool))
            np.maximum(0.0, h, out=h)
            if drop_of is not None:
                kept, scale = drop_of(i, h.shape)
                if keep:
                    kept = np.logical_and(kept, mask, out=mask)
                mask = np.multiply(kept, scale, out=ws.get((stack, "drop", i), h.shape))
                h *= mask
        if keep:
            caches.append((lin_in, mask))
    return h, caches


def _layers_backward(g, layers, caches, ws, stack, layer0_grads=None):
    """(input gradient, [(gW, gb), ...]) of a _layers_forward stack.  A given
    ``layer0_grads(lin_in, g)`` computes layer 0's pair instead, and no input
    gradient is formed (None is returned for it).  Below the last layer the
    gradient is multiplied by the cached mask, ``g *= mask``.  The gradient
    with respect to layer i's output goes into its slot ``(stack, i)``: that
    output, layer i + 1's input, has just been read for the last time.  The
    upstream ``g`` is never written."""
    grads = [None] * len(layers)
    last = len(layers) - 1
    for i in range(last, -1, -1):
        W, _b = layers[i]
        lin_in, mask = caches[i]
        if i < last:
            g *= mask
        if i == 0 and layer0_grads is not None:
            grads[0] = layer0_grads(lin_in, g)
            return None, grads
        grads[i] = _affine_grads(lin_in, g)
        out = ws.get((stack, i - 1), lin_in.shape) if i > 0 else None
        if W.shape[-1] == 1:
            # one product per element; einsum, like matmul, adds it to a zero,
            # so a -0.0 product comes out +0.0 as matmul's does
            g = np.einsum("...bk,...ik->...bi", g, W, out=out)
        else:
            g = np.matmul(g, np.swapaxes(W, -1, -2), out=out)
    return g, grads


def _dense_dropout(model: Model, training, rng, ws, stack):
    """Dropout of a dense stack: a fresh draw per hidden layer."""
    rate = model.arch.dropout_rate
    if not (training and rate > 0.0):
        return None
    scale = 1.0 / (1.0 - rate)

    def drop_of(i, shape):
        u = rng.random(out=ws.get((stack, "drop", i), shape))
        return np.greater_equal(u, rate, out=ws.get("keep", shape, bool)), scale

    return drop_of


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
    return _pathway_forward(model, x, training, as_stream(rng), _Fresh, keep=False)[0]


def _pathway_forward(model, x, training, rng, ws, keep):
    """Pathway stage on the packed tensors, its pathways in bucket order: one
    batched matmul per layer, and per size bucket for layer 0.  Returns the
    (B, P) activities in pathway order and, with ``keep``, the cache of the
    backward pass: (the stage's layers in bucket order, their caches).
    Dropout for the whole stage is one uniform draw in pathway order, sliced
    so that each pathway and layer gets the values the pathway-by-pathway,
    layer-by-layer order would give it; its bool keep mask, not the draw, is
    put in bucket order."""
    n, n_pw = x.shape[0], len(model.masks)
    widths = model.arch.pathway_hidden_sizes
    rate = model.arch.dropout_rate
    order = model._bucket_order
    (W0, b0), *later = model.params.pathway
    layers = [(W0, b0[order])] + [(W[order], b[order]) for W, b in later]

    drop_of = None
    if training and rate > 0.0 and widths:
        kept = []
        scale = 1.0 / (1.0 - rate)

        def drop_of(i, shape):
            if not kept:  # drawn after layer 0's gather, done with the scratch slot
                draws = rng.random(out=ws.get("scratch", (n_pw, n * sum(widths))))
                mask = np.greater_equal(draws, rate, out=ws.get("keep", draws.shape, bool))
                mask = np.take(mask, order, axis=0, mode="clip",
                               out=ws.get(("pathway", "keep"), draws.shape, bool))
                kept.extend(np.split(mask, np.cumsum([n * w for w in widths[:-1]]), axis=1))
            return kept[i].reshape(shape), scale

    def layer0(x, W, b, keep):
        h = ws.get(("pathway", 0), (n_pw, n, W.shape[1]))
        blocks = []
        for bk, xb in zip(model._buckets, ws.column_blocks(x, model._buckets)):
            xb[bk.pad] = 0.0
            Wb = np.take(W, bk.rows, axis=0, mode="clip",
                         out=ws.get("wblock", bk.rows.shape + W.shape[1:]))
            Wb[bk.pad] = 0.0
            # the block is (P_b, m_b, B) in memory whatever x's order, so
            # that the matmul's bytes do not depend on it
            np.matmul(xb.transpose(0, 2, 1), Wb, out=h[bk.span])
            if keep:
                blocks.append(xb)
            del xb, Wb  # without keep, each block goes after its matmul
        h += b[:, None, :]
        return h, blocks

    h, caches = _layers_forward(x, layers, ws, "pathway", drop_of, keep, layer0)
    a = ws.get("a", (n, n_pw))
    a[:, order] = h[:, :, 0].T
    return a, ((layers, caches) if keep else None)


def _pathway_backward(model, grad_a, cache, ws):
    """Gradients of the packed pathway tensors, in pathway order, given dL/da
    of shape (B, P) and the cache of _pathway_forward."""
    layers, caches = cache
    order = model._bucket_order
    W0 = layers[0][0]

    def layer0_grads(blocks, g):
        gW = np.empty((W0.shape[0] + 1, W0.shape[1]))  # the last row takes the pad slots
        for bk, xb in zip(model._buckets, blocks):
            gW[bk.rows] = np.matmul(xb, g[bk.span],
                                    out=ws.get("wblock", bk.rows.shape + W0.shape[1:]))
        # einsum adds each (pathway, unit)'s rows in order, as sum does at
        # width > 1, with the same bytes in less time; at width 1 sum adds
        # them pairwise, and only sum gives its bytes
        gb = np.einsum("pbh->ph", g) if g.shape[-1] > 1 else g.sum(axis=1)
        return gW[:-1], gb

    g = np.ascontiguousarray(grad_a.T[order])[:, :, None]
    grads = _layers_backward(g, layers, caches, ws, "pathway", layer0_grads)[1]
    # layer 0's weight rows are in pathway order already; the rest are not
    return [
        (gW if i == 0 else _in_pathway_order(gW, order), _in_pathway_order(gb, order))
        for i, (gW, gb) in enumerate(grads)
    ]


def _in_pathway_order(t, order):
    out = np.empty_like(t)
    out[order] = t
    return out


def encode(model: Model, inp, training=False, rng=None):
    """Latent encoder. Returns z for deterministic kinds, (mu, logvar) for
    variational kinds (the final layer is split into halves)."""
    inp = _as_input(inp, model.params.encoder[0][0].shape[0], "encoder input")
    drop_of = _dense_dropout(model, training, as_stream(rng), _Fresh, "encoder")
    return _encode(model, inp, drop_of, _Fresh, keep=False)[0]


def _encode(model, inp, drop_of, ws, keep):
    h, cache = _layers_forward(inp, model.params.encoder, ws, "encoder", drop_of, keep)
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
    drop_of = _dense_dropout(model, training, as_stream(rng), _Fresh, "decoder")
    return _layers_forward(z, model.params.decoder, _Fresh, "decoder", drop_of)[0]


def forward(model: Model, x, training=False, rng=None) -> ForwardOutputs:
    """Full forward pass.  Training keeps the caches of the matching backward
    pass; inference (training=False) keeps none, so ``caches`` is None, and
    each layer-0 block is freed after its matmul.

    Inference disables dropout and uses mu as z for variational kinds, so
    repeated calls are deterministic.
    """
    x = _as_input(x, model.gene_count, "input")
    return _forward(model, x, training, as_stream(rng), _Fresh)


def _forward(model, x, training, rng, ws) -> ForwardOutputs:
    """forward on a checked input, its arrays taken from the workspace ``ws``."""
    caches = {}
    a = None
    enc_in = x
    if is_pathway_kind(model.arch.kind):
        a, caches["pathway"] = _pathway_forward(model, x, training, rng, ws, training)
        enc_in = a
    drop_of = _dense_dropout(model, training, rng, ws, "encoder")
    enc_out, caches["encoder"] = _encode(model, enc_in, drop_of, ws, training)
    if is_variational(model.arch.kind):
        mu, logvar = enc_out
        if training:
            z, caches["eps"] = reparameterize(mu, logvar, rng)
        else:
            z = mu
    else:
        mu = logvar = None
        z = enc_out
    drop_of = _dense_dropout(model, training, rng, ws, "decoder")
    x_hat, caches["decoder"] = _layers_forward(
        z, model.params.decoder, ws, "decoder", drop_of, training
    )
    return ForwardOutputs(x_hat=x_hat, z=z, a=a, mu=mu, logvar=logvar,
                          caches=caches if training else None)


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
    return _mse_loss(x, x_hat)


def _mse_loss(x, x_hat, diff=None, square=None):
    """mse_loss with the difference formed in ``diff`` and its square in
    ``square``, given arrays or new ones."""
    diff = np.subtract(x_hat, x, out=diff)
    value = float(np.mean(np.multiply(diff, diff, out=square)))
    # the gradient 2.0 * diff / diff.size in one pass over diff's own memory:
    # diff.size / 2 and 2.0 * diff are exact, so each quotient is the same
    # correctly rounded value (unless 2.0 * diff overflows, and the loss with it)
    diff /= diff.size / 2
    return value, diff


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


# ---------------------------------------------------------------------------
# parameter bookkeeping
# ---------------------------------------------------------------------------


def flat_params(model: Model) -> list[np.ndarray]:
    """The parameter tensors training updates, in place: the packed pathway
    stage, then encoder, then decoder, per layer W then b."""
    return [t for _, t in _walk(model.params)]


def count_params(model_or_params) -> int:
    """Number of trainable scalars; the packed storage holds no padding."""
    params = model_or_params.params if isinstance(model_or_params, Model) else model_or_params
    return int(sum(t.size for _, t in _walk(params)))


def loss_and_grads(model: Model, x, outputs: ForwardOutputs, beta_eff: float = 0.0):
    """Composite loss plus gradients for every parameter, aligned with
    flat_params ordering. Requires outputs of forward(..., training=True);
    inference outputs keep no caches and raise ValueError."""
    if outputs.caches is None:
        raise ValueError("loss_and_grads needs outputs with caches from forward()")
    return _loss_and_grads(model, np.asarray(x, dtype=np.float64), outputs, beta_eff, _Fresh)


def _loss_and_grads(model, x, outputs, beta_eff, ws):
    """loss_and_grads, its arrays taken from the workspace ``ws``."""
    caches = outputs.caches
    # the MSE gradient takes x_hat's own slot: x_hat is not read again
    diff = ws.get(("decoder", len(model.params.decoder) - 1), x.shape)
    total, grad_xhat = _mse_loss(x, outputs.x_hat, diff, ws.get("scratch", x.shape))
    grad_z, dec_grads = _layers_backward(
        grad_xhat, model.params.decoder, caches["decoder"], ws, "decoder"
    )

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
        enc_upstream, model.params.encoder, caches["encoder"], ws, "encoder",
        None if pathway else _affine_grads,
    )
    pw_grads = _pathway_backward(model, grad_enc_in, caches["pathway"], ws) if pathway else []
    grads = ModelParams(pw_grads, enc_grads, dec_grads)
    flat = [g for _, g in _walk(grads)]
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
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def fit(model: Model, X, config: TrainConfig, rng=None) -> list[float]:
    """Mini-batch Adam training; beta scheduling by epoch for variational
    kinds. Returns the per-epoch mean training loss (length == epochs).

    Every step runs in one workspace (see _Workspace), allocated here in
    one piece before the first step, sized for a full batch from the
    model's layer shapes: the batch, the layer-0 blocks, the dropout draws,
    each layer's activations and masks, x_hat, the MSE difference and
    square and the backward pass's activation gradients are written into
    its buffers, and the last, shorter batch uses their leading elements.
    So a step allocates only arrays of parameter size, of (B, P) or
    smaller, and no step hands its buffers back to the allocator for the
    next to fault in again.  The workspace is freed when fit returns.

    Raises DataError naming the first non-finite cell of X, before any
    draw, and TrainingDiverged as soon as a batch loss is non-finite,
    naming the epoch.
    """
    rng = as_stream(rng if rng is not None else config.seed)
    # C order, so that np.take gathers the batch without copying X first
    X = np.ascontiguousarray(_as_input(X, model.gene_count, "training matrix"))
    n = X.shape[0]
    if n == 0:
        raise ShapeError("fit: empty training matrix")
    require_finite(X, "fit: training matrix")
    params = flat_params(model)
    state = AdamState.for_params(params)
    arch = model.arch
    ws = _Workspace.for_fit(model, min(n, config.batch_size))
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
            xb = np.take(X, idx, axis=0, mode="clip", out=ws.get("x", (len(idx), X.shape[1])))
            try:
                outs = _forward(model, xb, True, rng, ws)
                value, grads = _loss_and_grads(model, xb, outs, beta_eff, ws)
                if not np.isfinite(value):
                    raise TrainingDiverged(epoch, value)
                adam_step(params, grads, state, config.learning_rate)
                # so that this step's gradients are freed before the next
                # step's forward allocates its own
                del outs, grads
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
    names, so the format does not depend on how the parameters are packed;
    its bytes are gathered from the packed tensors through one index map
    (see _PathwayOrder)."""
    params = model.params
    order = _pathway_order(params)
    header = {
        "format": 1,
        "kind": model.arch.kind,
        "arch": asdict(model.arch),
        "gene_count": model.gene_count,
        "gene_names": model.gene_names,
        "masks": [{"name": m.name, "indices": m.indices.tolist()} for m in model.masks],
        "tensors": _tensor_table(params, order),
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = []
    if params.pathway:
        packed = np.concatenate([t.reshape(-1) for _, t in _walk(params, ("pathway",))])
        body.append(packed[order.to_body()])
    body += [t for _, t in _walk(params, _DENSE)]
    with atomic_open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(f"{len(head)}\n".encode("ascii"))
        fh.write(head)
        for arr in body:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _tensor_table(params: ModelParams, order: _PathwayOrder) -> list[dict]:
    """The header's tensor table: one {name, shape, offset} per tensor, in
    the checkpoint's order, the tensors back to back.  The pathway stage's
    entries are the order map's blocks, pathway j's block of packed tensor t
    named ``pathway/{j}/{t // 2}/W`` or ``.../b``: a W block has ``fan_in``
    rows, a b block one.  The dense entries follow in _walk order."""
    n_pw, n_t = order.lengths.shape
    rows = np.maximum(order.fan_in, 1)
    shapes = np.stack([rows, order.lengths // rows], axis=-1).reshape(-1, 2).tolist()
    suffixes = [f"{t // 2}/{'Wb'[t % 2]}" for t in range(n_t)]
    names = [f"pathway/{j}/{suffix}" for j in range(n_pw) for suffix in suffixes]
    table = [{"name": name, "shape": shape, "offset": offset}
             for name, shape, offset in zip(names, shapes, (8 * order.body).ravel().tolist())]
    offset = 8 * int(order.lengths.sum())
    for name, t in _walk(params, _DENSE):
        table.append({"name": name, "shape": list(t.shape), "offset": offset})
        offset += 8 * t.size
    return table


def load_checkpoint(path) -> Model:
    """Read a checkpoint written by save_checkpoint.

    Raises ConfigError when the file is not a checkpoint at all, and
    DataError naming the path when it is damaged: a truncated or malformed
    header, an unknown format, an architecture or masks that do not validate,
    a tensor table other than the one save_checkpoint writes for them, a
    body of the wrong length, or a non-finite value in any tensor (the
    error names the tensor)."""
    with open(path, "rb") as fh:
        if fh.read(len(_CKPT_MAGIC)) != _CKPT_MAGIC:
            raise ConfigError(f"{path}: not a checkpoint file (bad magic)")
        data = fh.read()
    try:
        return _decode_checkpoint(data)
    except (KeyError, IndexError, TypeError, ValueError, OverflowError, PathaeError) as exc:
        # ValueError covers JSON and UTF-8 decoding; the rest, a header of
        # the wrong structure
        raise DataError(f"{path}: damaged checkpoint: {type(exc).__name__}: {exc}") from exc


def _decode_checkpoint(data: bytes) -> Model:
    # header and body are read through slices of one view, not copied out
    newline = data.find(b"\n")
    if newline < 0 or not data[:newline].isdigit():
        raise DataError("truncated header length")
    head_len = int(data[:newline])
    rest = memoryview(data)[newline + 1 :]
    if len(rest) < head_len:
        raise DataError(f"header truncated at {len(rest)} of {head_len} bytes")
    header = json.loads(str(rest[:head_len], "utf-8"))
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
    masks = _header_masks(header["masks"], gene_count)
    if bool(masks) != is_pathway_kind(arch.kind):
        raise DataError(f"{len(masks)} pathway masks for a {arch.kind} model")
    # sized from the header alone, before anything is allocated, so a damaged
    # layer size cannot ask for more memory than the file holds
    *sections, _ = _layer_shapes(arch, gene_count, masks)
    expected = 8 * sum(math.prod(s) for layers in sections for pair in layers for s in pair)
    if len(body) != expected:
        raise DataError(f"body has {len(body)} bytes, the tensors need {expected}")
    params = _allocate(arch, gene_count, masks)
    order = _pathway_order(params)

    # the writer's table exactly, so every offset is the running byte count
    table = _tensor_table(params, order)
    if header["tensors"] != table:
        raise DataError("tensor table does not match the architecture")
    values = np.frombuffer(body, dtype="<f8")
    # any non-finite value makes the sum non-finite, so a finite sum clears
    # the body with no isfinite mask of it; a sum that is not finite (finite
    # values can overflow) sends the body to the value-by-value check
    with np.errstate(over="ignore", invalid="ignore"):
        total = values.sum()
    if not math.isfinite(total):
        finite = np.isfinite(values)
        if not finite.all():  # name the tensor holding the first non-finite value
            first = 8 * int(np.argmin(finite))
            k = int(np.searchsorted([e["offset"] for e in table], first, side="right")) - 1
            raise DataError(f"tensor {table[k]['name']} holds a non-finite value")
    _fill_pathway(params, order, values)
    start = int(order.lengths.sum())
    for _, t in _walk(params, _DENSE):
        t[...] = values[start : start + t.size].reshape(t.shape)
        start += t.size
    return Model(
        arch=arch, gene_count=gene_count, masks=masks, params=params, gene_names=gene_names
    )


def _header_masks(entries, gene_count: int) -> list[PathwayMask]:
    """The masks of a checkpoint header, checked as one concatenated index
    array (see _concatenated_masks).  Masks that fail are checked again one
    by one, in file order, and the first failing mask raises: DataError for
    a bad index, else the error reading the entry or PathwayMask raises."""
    masks = _concatenated_masks(entries, gene_count)
    if masks is not None:
        return masks
    masks = []
    for m in entries:
        if not all(_is_int(i) and 0 <= i < gene_count for i in m["indices"]):
            raise DataError(f"pathway {m['name']!r} has indices outside 0..{gene_count - 1}")
        masks.append(PathwayMask(m["name"], np.asarray(m["indices"], dtype=np.intp)))
    return masks


def _concatenated_masks(entries, gene_count: int) -> list[PathwayMask] | None:
    """The header's masks, or None unless every mask is a non-empty list of
    ints (not bools) in 0..gene_count - 1 without repeats.  The indices are
    checked as one list, their range before they are converted, so a huge
    one cannot overflow; the masks share one index array."""
    try:
        raw = [m["indices"] for m in entries]
        names = [m["name"] for m in entries]
        sizes = [len(r) for r in raw]
    except (KeyError, TypeError):
        return None
    flat = list(itertools.chain.from_iterable(raw))
    if not all(sizes) or not set(map(type, flat)) <= {int}:
        return None
    stride = max(flat, default=0) + 1
    # each index keyed by its mask, so that a repeat within a mask sorts to
    # equal neighbours; keys beyond int64 are left to the mask-by-mask check
    if min(flat, default=0) < 0 or stride > gene_count or len(sizes) * stride >= 2**63:
        return None
    indices = np.array(flat, dtype=np.intp)
    keys = np.repeat(np.arange(len(sizes), dtype=np.int64) * stride, sizes) + indices
    if (np.diff(np.sort(keys)) == 0).any():
        return None
    ends = np.cumsum(sizes).tolist()
    return [PathwayMask._checked(name, indices[end - size : end])
            for name, size, end in zip(names, sizes, ends)]


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)
