"""Downstream classifiers for latent / pathway representations: multinomial
logistic regression and a random forest.

The logistic regression minimizes 0.5*||W||^2 + C * sum-of-cross-entropies
(bias unregularized) with L-BFGS; the forest is hand-built CART with Gini
impurity, sqrt(d) candidate features per node and bootstrapped samples, with
fully deterministic tie-breaking so a fixed seed reproduces the forest.  The
split search scores every (feature, threshold) pair of a node in one array
expression, and prediction sends all rows down each tree at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import ConfigError, DataError, ShapeError
from .ndcore import RngStream, as_stream

CLASSIFIERS = ("lr", "rf")


def _encode_labels(y):
    y = np.asarray(y)
    classes = np.unique(y)
    lookup = {c: i for i, c in enumerate(classes)}
    codes = np.array([lookup[v] for v in y], dtype=np.intp)
    return classes, codes


def _as_rows(X, n_features: int, who: str) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError(f"{who}: need a 2-D matrix, got shape {X.shape}")
    if X.shape[1] != n_features:
        raise ShapeError(f"{who}: {X.shape[1]} features, model expects {n_features}")
    return X


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# logistic regression
# ---------------------------------------------------------------------------


@dataclass
class LogisticModel:
    weights: np.ndarray  # d x C
    bias: np.ndarray  # 1 x C
    classes: np.ndarray


def lr_fit(X, y, C: float = 1.0, max_iter: int = 100, tol: float = 1e-6, rng=None) -> LogisticModel:
    """Softmax regression via L-BFGS on 0.5*||W||^2 + C*sum_i CE_i.

    The quadratic penalty covers weights only; starting point is zero, so
    the fit is deterministic and ``rng`` is accepted only for interface
    symmetry with rf_fit.
    """
    X = np.asarray(X, dtype=np.float64)
    classes, codes = _encode_labels(y)
    n, d = X.shape
    k = len(classes)
    if k < 2:
        raise DataError(f"lr_fit needs at least 2 classes, got {k}")
    if C <= 0:
        raise ValueError(f"C must be positive, got {C}")
    onehot = np.zeros((n, k))
    onehot[np.arange(n), codes] = 1.0

    def objective(theta):
        W = theta[: d * k].reshape(d, k)
        b = theta[d * k :].reshape(1, k)
        logits = X @ W + b
        shifted = logits - logits.max(axis=1, keepdims=True)
        logZ = np.log(np.exp(shifted).sum(axis=1))
        ce = float(np.sum(logZ - shifted[np.arange(n), codes]))
        P = softmax_rows(logits)
        value = 0.5 * float(np.sum(W * W)) + C * ce
        gW = W + C * (X.T @ (P - onehot))
        gb = C * (P - onehot).sum(axis=0, keepdims=True)
        return value, np.concatenate([gW.ravel(), gb.ravel()])

    theta0 = np.zeros(d * k + k)
    res = minimize(
        objective,
        theta0,
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iter, "gtol": tol},
    )
    theta = res.x
    return LogisticModel(
        weights=theta[: d * k].reshape(d, k),
        bias=theta[d * k :].reshape(1, k),
        classes=classes,
    )


def lr_predict_proba(model: LogisticModel, X) -> np.ndarray:
    X = _as_rows(X, model.weights.shape[0], "lr_predict_proba")
    return softmax_rows(X @ model.weights + model.bias)


def lr_data_loss(model: LogisticModel, X, y) -> float:
    """Sum of cross-entropies under the fitted model (no penalty term)."""
    _, codes = _encode_labels(y)
    proba = lr_predict_proba(model, X)
    return float(-np.sum(np.log(proba[np.arange(len(codes)), codes] + 1e-300)))


# ---------------------------------------------------------------------------
# random forest
# ---------------------------------------------------------------------------


@dataclass
class TreeNode:
    counts: np.ndarray
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass
class ForestModel:
    trees: list[TreeNode]
    classes: np.ndarray
    n_features: int


def _best_split(X, onehot, idx, features):
    """Lowest weighted child Gini impurity over candidate features; ties
    resolve to the lowest feature index, then the lowest threshold.

    ``onehot`` holds every sample's class as a one-hot row.  Presort
    splitter: each candidate column of the node is sorted once, the left
    child's class counts at every threshold are a cumulative sum of one-hot
    rows in that order, and the impurity of every (feature, threshold) pair
    is one array expression.  The float operations are those of a
    one-threshold-at-a-time scan (p = counts / size, 1 - sum(p * p),
    (nl * gl + nr * gr) / n), so the result is bit-identical to it.

    Returns (impurity, feature, threshold), or None when every candidate
    column is constant on the node."""
    n, m = len(idx), len(features)  # n >= 2
    cols = X[idx[:, None], features].T  # (m, n), one row per candidate feature
    order = cols.argsort(axis=1, kind="stable")
    vals = cols[np.arange(m)[:, None], order]
    node_onehot = onehot[idx]
    left = node_onehot[order[:, :-1]].cumsum(axis=1)  # (m, n-1, k)
    right = node_onehot.sum(axis=0) - left
    nl = np.arange(1.0, n)  # left size at each threshold
    nr = n - nl
    p = left / nl[:, None]
    gl = 1.0 - (p * p).sum(axis=-1)
    p = right / nr[:, None]
    gr = 1.0 - (p * p).sum(axis=-1)
    impurity = (nl * gl + nr * gr) / n  # (m, n-1)
    impurity[vals[:, :-1] == vals[:, 1:]] = np.inf  # no threshold between equal values
    # row-major over (feature, threshold): the first minimum has the lowest
    # feature, then the lowest threshold
    fi, ti = divmod(int(impurity.argmin()), n - 1)
    if impurity[fi, ti] == np.inf:
        return None
    return impurity[fi, ti], features[fi], 0.5 * (vals[fi, ti] + vals[fi, ti + 1])


def _grow(X, onehot, idx, m_features, rng: RngStream):
    counts = onehot[idx].sum(axis=0)
    node = TreeNode(counts=counts)
    if len(idx) < 2 or np.count_nonzero(counts) < 2:  # too small or pure
        return node
    d = X.shape[1]
    features = np.sort(rng.choice(d, size=min(m_features, d), replace=False))
    best = _best_split(X, onehot, idx, features)
    if best is None:
        return node
    _, f, thr = best
    mask = X[idx, f] <= thr
    node.feature = int(f)
    node.threshold = float(thr)
    node.left = _grow(X, onehot, idx[mask], m_features, rng)
    node.right = _grow(X, onehot, idx[~mask], m_features, rng)
    return node


def rf_fit(X, y, n_trees: int = 100, rng=None) -> ForestModel:
    """Bootstrap-aggregated CART trees, grown until pure or fewer than two
    samples, with ceil(sqrt(d)) candidate features per node."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise DataError(f"rf_fit: need a non-empty 2-D matrix, got shape {X.shape}")
    classes, codes = _encode_labels(y)
    if len(codes) != X.shape[0]:
        raise ShapeError(f"rf_fit: {len(codes)} labels for {X.shape[0]} rows")
    n, d = X.shape
    onehot = np.eye(len(classes))[codes]
    m_features = int(math.ceil(math.sqrt(d)))
    rng = as_stream(rng)
    trees = []
    for tree_rng in rng.spawn(n_trees):
        boot = tree_rng.integers(0, n, size=n)
        trees.append(_grow(X, onehot, np.asarray(boot), m_features, tree_rng))
    return ForestModel(trees=trees, classes=classes, n_features=d)


def _add_leaf_proba(node: TreeNode, X, rows, acc):
    """Send ``rows`` down the tree, splitting them at each node, and add each
    leaf's class frequencies to its rows of ``acc``."""
    if not rows.size:
        return
    if node.is_leaf:
        acc[rows] += node.counts / node.counts.sum()
        return
    goes_left = X[rows, node.feature] <= node.threshold
    _add_leaf_proba(node.left, X, rows[goes_left], acc)
    _add_leaf_proba(node.right, X, rows[~goes_left], acc)


def rf_predict_proba(model: ForestModel, X) -> np.ndarray:
    X = _as_rows(X, model.n_features, "rf_predict_proba")
    acc = np.zeros((X.shape[0], len(model.classes)))
    rows = np.arange(X.shape[0])
    for tree in model.trees:
        _add_leaf_proba(tree, X, rows, acc)
    return acc / len(model.trees)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def predict_labels(model, X) -> np.ndarray:
    """Argmax class prediction for either classifier."""
    return model.classes[np.argmax(predict_proba(model, X), axis=1)]


def fit_classifier(name: str, X, y, rng=None):
    """Dispatch by short name, one of CLASSIFIERS."""
    if name == "lr":
        return lr_fit(X, y, rng=rng)
    if name == "rf":
        return rf_fit(X, y, rng=rng)
    raise ConfigError(f"unknown classifier {name!r}; expected one of {CLASSIFIERS}")


def predict_proba(model, X) -> np.ndarray:
    if isinstance(model, LogisticModel):
        return lr_predict_proba(model, X)
    return rf_predict_proba(model, X)
