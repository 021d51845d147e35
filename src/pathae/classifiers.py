"""Downstream classifiers for latent / pathway representations: multinomial
logistic regression and a random forest.

The logistic regression minimizes 0.5*||W||^2 + C * sum-of-cross-entropies
(bias unregularized) with L-BFGS; the forest is hand-built CART with Gini
impurity, sqrt(d) candidate features per node and bootstrapped samples, with
fully deterministic tie-breaking so a fixed seed reproduces the forest.
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
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != model.weights.shape[0]:
        raise ShapeError(
            f"lr_predict_proba: {X.shape[1]} features, model expects {model.weights.shape[0]}"
        )
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


def _gini(counts: np.ndarray) -> float:
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return 1.0 - float(np.sum(p * p))


def _best_split(X, codes, idx, features, k):
    """Lowest weighted child impurity over candidate features; ties resolve
    to the lowest feature index, then the lowest threshold."""
    best = None  # (impurity, feature, threshold)
    n = len(idx)
    for f in features:
        col = X[idx, f]
        order = np.argsort(col, kind="stable")
        sorted_vals = col[order]
        sorted_codes = codes[idx][order]
        left_counts = np.zeros(k)
        right_counts = np.bincount(sorted_codes, minlength=k).astype(float)
        for i in range(n - 1):
            c = sorted_codes[i]
            left_counts[c] += 1
            right_counts[c] -= 1
            if sorted_vals[i] == sorted_vals[i + 1]:
                continue
            thr = 0.5 * (sorted_vals[i] + sorted_vals[i + 1])
            nl, nr = i + 1, n - i - 1
            impurity = (nl * _gini(left_counts) + nr * _gini(right_counts)) / n
            if best is None or impurity < best[0]:
                best = (impurity, f, thr)
    return best


def _grow(X, codes, idx, k, m_features, rng: RngStream):
    counts = np.bincount(codes[idx], minlength=k).astype(float)
    node = TreeNode(counts=counts)
    if len(idx) < 2 or _gini(counts) == 0.0:
        return node
    d = X.shape[1]
    features = np.sort(rng.choice(d, size=min(m_features, d), replace=False))
    best = _best_split(X, codes, idx, features, k)
    if best is None:
        return node
    _, f, thr = best
    mask = X[idx, f] <= thr
    node.feature = int(f)
    node.threshold = float(thr)
    node.left = _grow(X, codes, idx[mask], k, m_features, rng)
    node.right = _grow(X, codes, idx[~mask], k, m_features, rng)
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
    k = len(classes)
    m_features = int(math.ceil(math.sqrt(d)))
    rng = as_stream(rng)
    trees = []
    for tree_rng in rng.spawn(n_trees):
        boot = tree_rng.integers(0, n, size=n)
        trees.append(_grow(X, codes, np.asarray(boot), k, m_features, tree_rng))
    return ForestModel(trees=trees, classes=classes, n_features=d)


def _leaf_for(node: TreeNode, row) -> TreeNode:
    while not node.is_leaf:
        node = node.left if row[node.feature] <= node.threshold else node.right
    return node


def rf_predict_proba(model: ForestModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != model.n_features:
        raise ShapeError(
            f"rf_predict_proba: {X.shape[1]} features, model expects {model.n_features}"
        )
    out = np.zeros((X.shape[0], len(model.classes)))
    for i in range(X.shape[0]):
        acc = np.zeros(len(model.classes))
        for tree in model.trees:
            leaf = _leaf_for(tree, X[i])
            acc += leaf.counts / leaf.counts.sum()
        out[i] = acc / len(model.trees)
    return out


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def predict_labels(model, X) -> np.ndarray:
    """Argmax class prediction for either classifier."""
    if isinstance(model, LogisticModel):
        proba = lr_predict_proba(model, X)
    else:
        proba = rf_predict_proba(model, X)
    return model.classes[np.argmax(proba, axis=1)]


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
