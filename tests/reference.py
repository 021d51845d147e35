"""Independent references the tests compare pathae's real code against.

The package never calls these.  ``pathae.models`` runs its own layer loop,
``pathae.classifiers`` searches splits in batches and fits logistic
regression through one penalized objective, and training takes its loss
from ``models.loss_and_grads``.  The shape-checked layer ops, the one-node
split search, the unpenalized logistic data loss and the composite model
loss below are kept only as slow, plain references for that code.
``hierarchical_cluster`` is the clustering that deletes each merged row and
column from a shrinking matrix; ``pathae.interpret`` keeps the matrix at
full size instead.  ``zscore_values`` is the zscore normalizer as one
``np.where`` over two full-size temporaries; ``pathae.dataio`` forms the
same values in one owned array.
"""

from __future__ import annotations

import numpy as np

from pathae.classifiers import LogisticModel, _label_codes, _split_search, lr_predict_proba
from pathae.errors import DataError, ShapeError
from pathae.interpret import ClusterTree, _pairwise_distance
from pathae.models import ForwardOutputs, Model, is_variational, kl_gaussian, mse_loss
from pathae.ndcore import as_stream


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


def _best_split(X, onehot, idx, features):
    """``_split_search`` for one node: the rows ``idx``, unpadded.

    Returns (impurity, feature, threshold), or None when every candidate
    column is constant on the node."""
    impurity, feature, threshold, *_ = _split_search(
        X, onehot, np.asarray(idx)[None, :], np.array([len(idx)]), np.asarray(features)[None, :])
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
