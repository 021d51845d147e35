"""Independent references the tests compare pathae's real code against.

The package never calls these.  ``pathae.models`` runs its own layer loop,
``pathae.classifiers`` searches splits in batches and fits logistic
regression through one penalized objective, and training takes its loss
from ``models.loss_and_grads``.  The shape-checked layer ops, the one-node
split search, the unpenalized logistic data loss and the composite model
loss below are kept only as slow, plain references for that code.
``relu_dropout`` forms a hidden layer's dropout as a float keep mask,
divided by ``1 - rate`` and then multiplied by the ReLU mask; ``pathae.models``
folds the bool keep and ReLU masks into one float mask.
``hierarchical_cluster`` is the clustering that deletes each merged row and
column from a shrinking matrix; ``pathae.interpret`` keeps the matrix at
full size instead.  ``zscore_values`` is the zscore normalizer as one
``np.where`` over two full-size temporaries; ``pathae.dataio`` forms the
same values in one owned array.

The checkpoint references walk the pathway stage as each pathway's own
views (``ModelParams.pathway_encoders``) under the checkpoint's
``pathway/{j}/{i}`` names: ``build_model`` draws each view's weights on its
own, ``checkpoint_bytes`` writes the body view by view, and
``load_checkpoint`` checks the masks one at a time and fills the views one
by one.  ``anpw_rows`` ranks each pathway's genes on its own, through
``interpret.top_genes_by_anpw``.  ``pathae.models`` maps the packed tensors
to that order with one index map instead, and ``pathae.interpret`` ranks
every pathway at once.  ``layer0_buckets`` fills each layer-0 bucket's
gene and weight-row arrays pathway by pathway; ``pathae.models`` fills them
with one scatter per bucket.

``rf_fit`` grows the forest with a lockstep grower that keeps its nodes
and stacks in Python lists, and every node holds its bootstrap samples with
their repeats, as a row list; the search sorts, gathers and sums every copy.
Its randomness is NumPy's own: ``Generator.spawn`` makes the tree streams,
``integers`` draws each bootstrap, and ``_draw_features`` draws each block
of candidate features with one ``integers`` call per stream.
``pathae.classifiers`` holds each node as a segment of its tree's distinct
rows, with one bootstrap count per row, in node arrays allocated once.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict

import numpy as np

from pathae import models
from pathae import classifiers
from pathae.classifiers import ForestModel, LogisticModel, _label_codes, lr_predict_proba
from pathae.errors import ConfigError, DataError, PathaeError, ShapeError
from pathae.interpret import ClusterTree, _pairwise_distance, top_genes_by_anpw
from pathae.models import (
    ArchitectureConfig,
    ForwardOutputs,
    Model,
    PathwayMask,
    is_pathway_kind,
    is_variational,
    kl_gaussian,
    mse_loss,
)
from pathae.ndcore import as_stream, init_weights


def _as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


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


def relu_dropout(pre, u, rate: float):
    """A hidden layer's ReLU and dropout in the float keep-mask form, from
    the pre-activations and the layer's uniforms u.  Returns (output, mask):
    the keep mask ``(u >= rate) / (1 - rate)`` scales the ReLU output, and
    then takes the ReLU mask, ``drop *= (pre > 0)``, for the backward pass."""
    drop = (u >= rate) / (1.0 - rate)
    h = np.maximum(0.0, pre)
    h *= drop
    drop *= pre > 0.0
    return h, drop


def _best_split(X, onehot, idx, features):
    """``classifiers._split_search`` for one node: the samples ``idx``, with
    repeats, as distinct rows and counts, unpadded.

    Returns (impurity, feature, threshold), or None when every candidate
    column is constant on the node."""
    rows, counts = np.unique(np.asarray(idx), return_counts=True)
    if len(rows) < 2:  # the search takes at least two distinct rows
        return None
    impurity, feature, threshold, *_ = classifiers._split_search(
        X, onehot, rows[None, :], counts[None, :].astype(np.float64),
        np.asarray(features)[None, :])
    if impurity[0] == np.inf:
        return None
    return impurity[0], feature[0], threshold[0]


def lr_data_loss(model: LogisticModel, X, y) -> float:
    """Sum of cross-entropies under the fitted model (no penalty term)."""
    codes = _label_codes(y, model.classes, "lr_data_loss")
    proba = lr_predict_proba(model, X)
    return float(-np.sum(np.log(proba[np.arange(len(codes)), codes] + 1e-300)))


def loss(model: Model, x, outputs: ForwardOutputs, beta_eff: float = 0.0):
    """Composite loss value for the model kind: MSE, plus beta_eff * KL for
    variational kinds."""
    mse, _ = mse_loss(x, outputs.x_hat)
    if is_variational(model.arch.kind):
        kl, _, _ = kl_gaussian(outputs.mu, outputs.logvar)
        return mse + beta_eff * kl
    return mse


def hierarchical_cluster(rows, metric: str = "cosine") -> ClusterTree:
    """Average-linkage agglomeration with deterministic tie-breaking: among
    equidistant pairs, the lexicographically smallest (i, j) merges first."""
    rows = np.asarray(rows, dtype=np.float64)
    n = rows.shape[0]
    if n < 2:
        raise DataError("hierarchical_cluster: need at least 2 rows")
    dist = _pairwise_distance(rows, metric)
    np.fill_diagonal(dist, np.inf)

    ids = list(range(n))  # active cluster ids, position-aligned with dist
    sizes = [1] * n
    children: dict[int, tuple[int, int]] = {}
    merges = []
    next_id = n
    for _ in range(n - 1):
        # row-major argmin == smallest (i, j) among ties
        flat = int(np.argmin(dist))
        i, j = divmod(flat, dist.shape[1])
        if i > j:
            i, j = j, i
        h = float(dist[i, j])
        id_i, id_j = ids[i], ids[j]
        a, b = (id_i, id_j) if id_i < id_j else (id_j, id_i)
        merges.append((a, b, h, sizes[i] + sizes[j]))
        children[next_id] = (a, b)
        # average-linkage update into row i, then drop row j
        wi, wj = sizes[i], sizes[j]
        new_row = (wi * dist[i, :] + wj * dist[j, :]) / (wi + wj)
        dist[i, :] = new_row
        dist[:, i] = new_row
        dist[i, i] = np.inf
        dist = np.delete(np.delete(dist, j, axis=0), j, axis=1)
        sizes[i] = wi + wj
        ids[i] = next_id
        del sizes[j], ids[j]
        next_id += 1

    def order(node):
        if node < n:
            return [node]
        a, b = children[node]
        return order(a) + order(b)

    return ClusterTree(merges=merges, leaf_order=order(next_id - 1), n_leaves=n)


def zscore_values(values, mean, sd) -> np.ndarray:
    """(values - mean) / sd per column, and 0.0 in the columns whose sd is
    not > 0."""
    return np.where(sd > 0, (values - mean) / np.where(sd > 0, sd, 1.0), 0.0)


def pathway_views(params):
    """(name, tensor) pairs in the checkpoint's order: each pathway's views,
    pathway by pathway, under ``pathway/{j}/{i}`` names, then the dense
    layers."""
    for j, stack in enumerate(params.pathway_encoders):
        for i, (W, b) in enumerate(stack):
            yield f"pathway/{j}/{i}/W", W
            yield f"pathway/{j}/{i}/b", b
    yield from models._walk(params, ("encoder", "decoder"))


def build_model(arch, gene_count, masks=None, rng=None, gene_names=None) -> Model:
    """models.build_model with one He-normal draw per weight view, in
    pathway_views order, and zero biases."""
    rng = as_stream(rng)
    model = models.build_model(arch, gene_count, masks, 0, gene_names)
    for name, t in pathway_views(model.params):
        t[...] = init_weights(*t.shape, rng) if name.endswith("/W") else 0.0
    return model


def _tensor_table(views) -> list[dict]:
    table = []
    offset = 0
    for name, arr in views:
        table.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += 8 * arr.size
    return table


def checkpoint_bytes(model: Model) -> bytes:
    """The bytes of models.save_checkpoint, the body written view by view."""
    views = list(pathway_views(model.params))
    header = {
        "format": 1,
        "kind": model.arch.kind,
        "arch": asdict(model.arch),
        "gene_count": model.gene_count,
        "gene_names": model.gene_names,
        "masks": [{"name": m.name, "indices": [int(i) for i in m.indices]} for m in model.masks],
        "tensors": _tensor_table(views),
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = b"".join(np.ascontiguousarray(arr, dtype="<f8").tobytes() for _, arr in views)
    return models._CKPT_MAGIC + f"{len(head)}\n".encode("ascii") + head + body


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def load_checkpoint(path) -> Model:
    """models.load_checkpoint with the masks checked one at a time, in file
    order, and the tensors filled view by view."""
    with open(path, "rb") as fh:
        if fh.read(len(models._CKPT_MAGIC)) != models._CKPT_MAGIC:
            raise ConfigError(f"{path}: not a checkpoint file (bad magic)")
        data = fh.read()
    try:
        return _decode_checkpoint(data)
    except (KeyError, IndexError, TypeError, ValueError, PathaeError) as exc:
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
    *sections, _ = models._layer_shapes(arch, gene_count, masks)
    expected = 8 * sum(math.prod(s) for layers in sections for pair in layers for s in pair)
    if len(body) != expected:
        raise DataError(f"body has {len(body)} bytes, the tensors need {expected}")
    params = models._allocate(arch, gene_count, masks)
    views = list(pathway_views(params))
    if header["tensors"] != _tensor_table(views):
        raise DataError("tensor table does not match the architecture")
    values = np.frombuffer(body, dtype="<f8")
    start = 0
    for _, view in views:
        view[...] = values[start : start + view.size].reshape(view.shape)
        start += view.size
    return Model(arch=arch, gene_count=gene_count, masks=masks, params=params,
                 gene_names=gene_names)


def anpw_rows(model: Model, gene_names, k: int) -> list[list]:
    """The rows of interpret's anpw CSV: each pathway's top genes by |NPW|,
    ranked pathway by pathway through top_genes_by_anpw."""
    rows = []
    for mask, layers in zip(model.masks, model.params.pathway_encoders):
        top = top_genes_by_anpw(layers, [gene_names[i] for i in mask.indices],
                                k=min(k, mask.size))
        for rank, (gene, weight) in enumerate(top, start=1):
            rows.append([mask.name, rank, gene, f"{weight:+.6f}"])
    return rows


def layer0_buckets(masks, gene_count: int) -> list:
    """models._layer0_buckets, each bucket's arrays filled pathway by pathway."""
    sizes = [m.size for m in masks]
    offsets = np.cumsum([0] + sizes)
    keys = [(s - 1).bit_length() for s in sizes]
    buckets = []
    start = 0
    for key in sorted(set(keys)):
        members = [j for j, k in enumerate(keys) if k == key]
        width = max(sizes[j] for j in members)
        genes = np.full((len(members), width), gene_count, dtype=np.intp)
        rows = np.full((len(members), width), offsets[-1], dtype=np.intp)
        for r, j in enumerate(members):
            genes[r, : sizes[j]] = masks[j].indices
            rows[r, : sizes[j]] = np.arange(offsets[j], offsets[j + 1])
        buckets.append(
            models._Bucket(np.asarray(members, dtype=np.intp), genes,
                           np.minimum(genes, gene_count - 1), rows, genes == gene_count,
                           slice(start, start + len(members)))
        )
        start += len(members)
    return buckets


# The repeat-row forest grower: every node holds its bootstrap samples with
# their repeats, and the search sorts, gathers and sums every copy.
# ``pathae.classifiers`` grows the same forest on each node's distinct rows
# and their bootstrap counts.
_SEARCH_BLOCK = 1 << 18
_SEARCH_OVERHEAD = 3000


def _draw_features(streams, d, m):
    """The next ``_DRAW_BLOCK`` candidate-feature sets of each stream, sorted:
    an int64 array of shape (len(streams), _DRAW_BLOCK, m).

    Row j of a stream's block is ``np.sort(stream.choice(d, m,
    replace=False))`` for the stream's j-th such call, and the stream ends
    where those calls leave it.  With m = ceil(sqrt(d)) ``choice`` always
    runs Floyd's sample (its other method needs d > 10000 and m > d // 50),
    then shuffles it: 2m - 1 bounded draws, in [0, h) for h = d - m
    + 1 .. d, then h = m .. 2, each one Lemire draw.  ``integers`` with the
    same bounds as an array makes the same draws, so one call per stream
    makes a whole block.  Floyd's rule then runs on all rows at once: draw k
    becomes d - m + k when it is already chosen.  The shuffle draws are
    dropped, since the rows are sorted."""
    highs = np.concatenate([np.arange(d - m + 1, d + 1), np.arange(m, 1, -1)])
    tiled = np.tile(highs, classifiers._DRAW_BLOCK)
    draws = np.concatenate([s.integers(0, tiled).reshape(classifiers._DRAW_BLOCK, -1)[:, :m]
                            for s in streams])
    chosen = np.empty_like(draws)
    for k in range(m):
        taken = (chosen[:, :k] == draws[:, k, None]).any(axis=1)
        chosen[:, k] = np.where(taken, d - m + k, draws[:, k])
    chosen.sort(axis=1)
    return chosen.reshape(len(streams), classifiers._DRAW_BLOCK, m)


def _split_search(X, onehot, rows, sizes, features):
    """Best split of every node of a batch, node b holding the samples
    ``rows[b, :sizes[b]]`` with repeats and padded with the sentinel row.
    Returns the impurity, feature, threshold, the left child's size, the
    node's rows sorted along the winning feature and the children's class
    counts."""
    B, N = rows.shape
    k = onehot.shape[1]
    batch = np.arange(B)
    cols = X[rows[:, None, :], features[:, :, None]]  # (B, m, N)
    order = cols.argsort(axis=-1)
    vals = np.take_along_axis(cols, order, axis=-1)
    sorted_rows = rows[batch[:, None, None], order]
    nl = np.arange(1.0, N + 1)
    n = sizes.astype(np.float64)[:, None, None]
    nr = n - nl
    with np.errstate(divide="ignore", invalid="ignore"):
        if k < classifiers._CLASS_MAJOR_BELOW:
            left = onehot.T.take(sorted_rows, axis=1).cumsum(axis=-1)  # (k, B, m, N)
            total = left[:, batch, 0, sizes - 1]
            gl, gr = classifiers._gini_by_class(left, total[:, :, None, None], nl, nr)
            left, total = np.moveaxis(left, 0, -1), total.T
        else:
            left = onehot.take(sorted_rows, axis=0).cumsum(axis=2)  # (B, m, N, k)
            total = left[batch, 0, sizes - 1]
            p = left / nl[:, None]
            p *= p
            gl = 1.0 - p.sum(axis=-1)
            np.subtract(total[:, None, None, :], left, out=p)
            p /= nr[..., None]
            p *= p
            gr = 1.0 - p.sum(axis=-1)
        impurity = (nl * gl + nr * gr) / n
    impurity[..., :-1][vals[..., :-1] == vals[..., 1:]] = np.inf
    impurity[np.broadcast_to(nl >= n, impurity.shape)] = np.inf
    flat = impurity.reshape(B, -1)
    best = flat.argmin(axis=1)
    fi, ti = np.divmod(best, N)
    a, b = vals[batch, fi, ti], vals[batch, fi, ti + 1]
    with np.errstate(over="ignore"):
        thr = 0.5 * (a + b)
    thr = np.where((a <= thr) & (thr < b), thr, a)
    left_counts = left[batch, fi, ti]
    return (flat[batch, best], features[batch, fi], thr, ti + 1, sorted_rows[batch, fi],
            left_counts, total - left_counts)


def _grow_forest(X, onehot, boots, m_features, rngs):
    """All trees in lockstep, one depth-first stack each; returns the node
    arrays (feature, threshold, left, right, counts) as lists."""
    d, k = X.shape[1], onehot.shape[1]
    X = np.vstack([X, np.full(d, np.inf)])  # the sentinel row, last
    onehot = np.vstack([onehot, np.zeros(k)])
    n_trees = len(boots)
    counts = [onehot[boot].sum(axis=0) for boot in boots]
    nodes = ([0] * n_trees, [0.0] * n_trees, list(range(n_trees)), list(range(n_trees)), counts)
    stacks = [[(t, boot)] if np.count_nonzero(counts[t]) >= 2 else []
              for t, boot in enumerate(boots)]
    blocks = np.empty((n_trees, classifiers._DRAW_BLOCK, m_features), dtype=np.int64)
    cursor = np.full(n_trees, classifiers._DRAW_BLOCK)
    while True:
        popped = [(t, *stack.pop()) for t, stack in enumerate(stacks) if stack]
        if not popped:
            return nodes
        trees = np.array([p[0] for p in popped])
        refill = trees[cursor[trees] == classifiers._DRAW_BLOCK]
        if len(refill):
            blocks[refill] = _draw_features([rngs[t] for t in refill.tolist()], d, m_features)
            cursor[refill] = 0
        features = blocks[trees, cursor[trees]]
        cursor[trees] += 1
        popped = [(*p, f) for p, f in zip(popped, features)]  # (tree, node, rows, features)
        for chunk in _pack_by_size(popped, m_features * k):
            _split_nodes(X, onehot, chunk, stacks, nodes)


def _pack_by_size(popped, per_row):
    """The nodes sorted by size, cut into chunks to search at once."""
    popped = sorted(popped, key=lambda p: len(p[2]))
    chunks, chunk, width = [], [], 0
    for p in popped:
        size = len(p[2])
        if chunk and (len(chunk) * (size - width) * per_row > _SEARCH_OVERHEAD
                      or (len(chunk) + 1) * size * per_row > _SEARCH_BLOCK):
            chunks.append(chunk)
            chunk = []
        chunk.append(p)
        width = size
    chunks.append(chunk)
    return chunks


def _split_nodes(X, onehot, chunk, stacks, nodes):
    """Search a chunk, append each split node's children to ``nodes`` and
    push the impure ones onto their tree's stack, left on top."""
    sizes = [len(c[2]) for c in chunk]
    rows = np.full((len(chunk), max(sizes)), len(X) - 1)
    for b, (_, _, node_rows, _) in enumerate(chunk):
        rows[b, : sizes[b]] = node_rows
    features = np.array([c[3] for c in chunk])
    impurity, feature, threshold, cut, sorted_rows, left_counts, right_counts = _split_search(
        X, onehot, rows, np.array(sizes), features)
    found = (impurity < np.inf).tolist()
    grow_left = (np.count_nonzero(left_counts, axis=1) >= 2).tolist()
    grow_right = (np.count_nonzero(right_counts, axis=1) >= 2).tolist()
    feature, threshold, cut = feature.tolist(), threshold.tolist(), cut.tolist()
    features_of, thresholds_of, left_of, right_of, counts_of = nodes
    for b, (t, node, _, _) in enumerate(chunk):
        if not found[b]:
            continue
        left_id, right_id = len(counts_of), len(counts_of) + 1
        features_of[node], thresholds_of[node] = feature[b], threshold[b]
        left_of[node], right_of[node] = left_id, right_id
        features_of += [0, 0]
        thresholds_of += [0.0, 0.0]
        left_of += [left_id, right_id]
        right_of += [left_id, right_id]
        counts_of += [left_counts[b], right_counts[b]]
        if grow_right[b]:
            stacks[t].append((right_id, sorted_rows[b, cut[b] : sizes[b]]))
        if grow_left[b]:
            stacks[t].append((left_id, sorted_rows[b, : cut[b]]))


def rf_fit(X, y, n_trees: int = 100, rng=None) -> ForestModel:
    """``classifiers.rf_fit`` through the repeat-row grower: the same
    bootstrap draws, each node's samples kept with their repeats."""
    X, classes, codes = classifiers._fit_inputs(X, y, "rf_fit")
    n, d = X.shape
    onehot = np.eye(len(classes))[codes]
    rngs = as_stream(rng).spawn(n_trees)
    boots = [np.asarray(tree_rng.integers(0, n, size=n)) for tree_rng in rngs]
    feature, threshold, left, right, counts = _grow_forest(
        X, onehot, boots, int(math.ceil(math.sqrt(d))), rngs)
    return ForestModel(
        roots=np.arange(n_trees), feature=np.array(feature, dtype=np.intp),
        threshold=np.array(threshold), left=np.array(left, dtype=np.intp),
        right=np.array(right, dtype=np.intp), counts=np.array(counts),
        classes=classes, n_features=d,
    )
