"""Downstream classifiers for latent / pathway representations: multinomial
logistic regression and a random forest.

The logistic regression minimizes 0.5*||W||^2 + C * sum-of-cross-entropies
(bias unregularized) with L-BFGS; the forest is hand-built CART with Gini
impurity, sqrt(d) candidate features per node and bootstrapped samples, with
fully deterministic tie-breaking so a fixed seed reproduces the forest.  The
trees of one fit grow in lockstep: each keeps its own depth-first stack and
its own stream, and on every step batched split searches score every
(feature, threshold) pair of the nodes that all trees are working on.  A
tree draws its nodes' candidate features in blocks, one ``integers`` call
per block, and gets exactly the sets that one ``choice`` call per node
would give, so the forests are the same bit for bit.  A node holds its
distinct training rows and one count per row, the row's multiplicity in
the tree's bootstrap, so a search sorts and sums each bootstrap copy of a
row once; the sizes and class counts at every threshold are the same
integers as with the copies, so the node arrays, trees and probabilities
are unchanged.  The step's nodes are sorted by sample count and packed into
chunks padded to their widest node: a chunk is cut when the padding the
next node adds would cost more than one more search call.
Below 8 classes the search counts classes class-major, so its array work
runs along the long threshold axis.  Node ids follow the order in which nodes
are searched, so they may differ from earlier versions; the trees and the
probabilities do not.

A forest is stored only as flat node arrays, one set for all its trees, and
prediction runs all trees in lockstep: every row descends every tree at
once, one level per step.  ``ForestModel.trees`` is a read-only view that
builds linked ``TreeNode`` objects from the arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .ndcore import as_stream, require_finite

CLASSIFIERS = ("lr", "rf")


def _label_codes(y, classes, who: str) -> np.ndarray:
    """Each label's index in ``classes``; a label not among them is a
    DataError."""
    lookup = {c: i for i, c in enumerate(classes.tolist())}
    try:
        return np.array([lookup[v] for v in np.asarray(y).tolist()], dtype=np.intp)
    except KeyError as e:
        raise DataError(f"{who}: label {e.args[0]!r} is not one of the model's classes") from None


def _fit_inputs(X, y, who: str):
    """Check a training set at the fit boundary: a non-empty 2-D matrix of
    finite values with one label per row.  Returns (X, classes, codes)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise DataError(f"{who}: need a non-empty 2-D matrix, got shape {X.shape}")
    classes = np.unique(y)
    codes = _label_codes(y, classes, who)
    if len(codes) != X.shape[0]:
        raise ShapeError(f"{who}: {len(codes)} labels for {X.shape[0]} rows")
    require_finite(X, who)
    return X, classes, codes


def _as_rows(X, n_features: int, who: str) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError(f"{who}: need a 2-D matrix, got shape {X.shape}")
    if X.shape[1] != n_features:
        raise ShapeError(f"{who}: {X.shape[1]} features, model expects {n_features}")
    require_finite(X, who)
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


def lr_fit(X, y, C: float = 1.0, max_iter: int = 100, tol: float = 1e-6) -> LogisticModel:
    """Softmax regression via L-BFGS on 0.5*||W||^2 + C*sum_i CE_i.

    The quadratic penalty covers weights only; starting point is zero, so
    the fit is deterministic and draws nothing.
    """
    X, classes, codes = _fit_inputs(X, y, "lr_fit")
    n, d = X.shape
    k = len(classes)
    if k < 2:
        raise DataError(f"lr_fit needs at least 2 classes, got {k}")
    if not 0 < C < math.inf:
        raise ValueError(f"C must be positive and finite, got {C}")
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

    # imported here, not with the module: SciPy is the slowest import of
    # every pathae command, and only lr fits use it
    from scipy.optimize import minimize

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


# ---------------------------------------------------------------------------
# random forest
# ---------------------------------------------------------------------------


@dataclass
class TreeNode:
    """One node of a tree as read through ``ForestModel.trees``."""

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
    """All trees of a forest as one set of node arrays.

    Node ``i`` sends a row to ``left[i]`` when its ``feature[i]`` column is
    at most ``threshold[i]``, else to ``right[i]``; a leaf points to itself
    both ways (its feature and threshold are 0).  ``counts[i]`` holds the
    class counts of the bootstrap samples that reach node ``i``, and tree
    ``t`` starts at node ``roots[t]``."""

    roots: np.ndarray  # (n_trees,)
    feature: np.ndarray  # (n_nodes,)
    threshold: np.ndarray  # (n_nodes,)
    left: np.ndarray  # (n_nodes,)
    right: np.ndarray  # (n_nodes,)
    counts: np.ndarray  # (n_nodes, n_classes)
    classes: np.ndarray
    n_features: int

    @property
    def trees(self) -> list[TreeNode]:
        """Each tree's root as linked ``TreeNode`` objects.

        The nodes are rebuilt on every access, so changing them changes
        nothing in the model; their counts are views into ``counts``."""
        nodes = [TreeNode(counts=c) for c in self.counts]
        feature, threshold = self.feature.tolist(), self.threshold.tolist()
        left, right = self.left.tolist(), self.right.tolist()
        for i, node in enumerate(nodes):
            if left[i] != i:
                node.feature, node.threshold = feature[i], threshold[i]
                node.left, node.right = nodes[left[i]], nodes[right[i]]
        return [nodes[r] for r in self.roots.tolist()]


# Cap on the elements of one (nodes, features, rows, classes) block of the
# batched split search, rows counted at the nodes' distinct-row width: a
# larger group of nodes is searched in chunks, and only a single node larger
# than the cap is searched as one block.  Swept 2^13-2^18 on a 2-core Xeon;
# at 2^15 a float64 block array is 256 KB.
_SEARCH_BLOCK = 1 << 15
# What one more _split_search call costs, in padded block elements: a chunk
# of nodes takes the next node unless the padding it adds, to the chunk or
# to itself, would be more elements than this.
_SEARCH_OVERHEAD = 3000
# Candidate-feature sets drawn per refill of a tree's block: one
# Generator.integers call per tree and refill (_draw_features)
_DRAW_BLOCK = 16
# Below this many classes the search counts classes class-major
# (_gini_by_class); from 8 terms on numpy sums pairwise, so there the classes
# stay last and numpy sums them.
_CLASS_MAJOR_BELOW = 8


def _split_search(X, onehot, rows, counts, features):
    """Best split of every node of a batch; ties resolve to the lowest feature
    index, then the lowest threshold.

    Node b holds the distinct rows in ``rows[b]``, row ``rows[b, j]`` taken
    ``counts[b, j]`` times by the tree's bootstrap.  Past its rows, ``rows[b]``
    is padded with the index of a sentinel row whose features are +inf and
    whose one-hot row is zero, at count 0: the fits take finite data only, so
    the sentinel sorts after every row, and it adds to no count.  The grower
    searches impure nodes only, so the batch is at least two rows wide.
    ``features[b]`` are the node's candidate columns.

    Presort splitter: each candidate column of a node is sorted once, and
    the left child's size and class counts at every threshold are cumulative
    sums of the counts and of count-weighted one-hot rows in that order.  A
    bootstrap's copies of a row share its value, so no threshold falls
    between them, and these are the exact integers the samples with their
    repeats would give.  The impurity of every (node, feature, threshold)
    triple is one array expression.  The float operations are those of a
    one-threshold-at-a-time scan (p = counts / size, 1 - sum(p * p),
    (nl * gl + nr * gr) / n, n the node's sample count), so the result is
    bit-identical to it.  With few classes the class counts are laid out
    class-major, (k, B, m, N), so that every operation runs along the long
    threshold axis.

    Returns, per node: the lowest impurity (inf when every candidate column
    is constant on the node), its feature, its threshold, the split position
    ``cut`` (the left child's distinct rows), the node's rows and counts
    sorted along the winning feature, and the left and right children's
    class counts."""
    B, N = rows.shape
    k = onehot.shape[1]
    batch = np.arange(B)
    cols = X[rows[:, None, :], features[:, :, None]]  # (B, m, N)
    # the order among equal values is free: no threshold falls between them
    order = cols.argsort(axis=-1)
    vals = np.take_along_axis(cols, order, axis=-1)
    sorted_rows = rows[batch[:, None, None], order]
    sorted_counts = counts[batch[:, None, None], order]
    nl = sorted_counts.cumsum(axis=-1)  # left size at each threshold
    n = nl[:, :1, -1:]  # the node's sample count, (B, 1, 1)
    nr = n - nl
    with np.errstate(divide="ignore", invalid="ignore"):  # padding thresholds
        if k < _CLASS_MAJOR_BELOW:
            left = onehot.T.take(sorted_rows, axis=1)  # (k, B, m, N)
            left *= sorted_counts
            left.cumsum(axis=-1, out=left)
            total = left[:, :, 0, -1]  # (k, B): the node's class counts
            gl, gr = _gini_by_class(left, total[:, :, None, None], nl, nr)
            left, total = np.moveaxis(left, 0, -1), total.T  # views, (B, m, N, k) and (B, k)
        else:
            left = onehot.take(sorted_rows, axis=0)  # (B, m, N, k)
            left *= sorted_counts[..., None]
            left.cumsum(axis=2, out=left)
            total = left[:, 0, -1]  # (B, k)
            p = left / nl[..., None]
            p *= p
            gl = 1.0 - p.sum(axis=-1)
            np.subtract(total[:, None, None, :], left, out=p)  # right counts
            p /= nr[..., None]
            p *= p
            gr = 1.0 - p.sum(axis=-1)
        impurity = (nl * gl + nr * gr) / n  # (B, m, N)
    impurity[..., :-1][vals[..., :-1] == vals[..., 1:]] = np.inf  # no threshold between equal values
    impurity[nl >= n] = np.inf  # nor at or past a node's last row
    # row-major over (feature, threshold): the first minimum has the lowest
    # feature, then the lowest threshold
    flat = impurity.reshape(B, -1)
    best = flat.argmin(axis=1)
    fi, ti = np.divmod(best, N)
    a, b = vals[batch, fi, ti], vals[batch, fi, ti + 1]
    with np.errstate(over="ignore"):
        thr = 0.5 * (a + b)
    # the midpoint of two adjacent floats can round up to the upper one, and
    # that of two huge ones overflows; the lower value splits the same rows
    thr = np.where((a <= thr) & (thr < b), thr, a)
    left_counts = left[batch, fi, ti]
    return (flat[batch, best], features[batch, fi], thr, ti + 1, sorted_rows[batch, fi],
            sorted_counts[batch, fi], left_counts, total - left_counts)


def _gini_by_class(left, total, nl, nr):
    """The left and right children's 1 - sum of p * p, p = counts / size, at
    every threshold, from class-major left counts and the node's ``total``.
    The classes are added in order, as numpy sums fewer than 8 terms."""
    for c in range(len(left)):
        p = left[c] / nl
        p *= p
        q = total[c] - left[c]  # right counts
        q /= nr
        q *= q
        if c == 0:
            sum_left, sum_right = p, q
        else:
            sum_left += p
            sum_right += q
    return 1.0 - sum_left, 1.0 - sum_right


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
    tiled = np.tile(highs, _DRAW_BLOCK)
    draws = np.concatenate([s.integers(0, tiled).reshape(_DRAW_BLOCK, -1)[:, :m]
                            for s in streams])
    chosen = np.empty_like(draws)
    for k in range(m):
        taken = (chosen[:, :k] == draws[:, k, None]).any(axis=1)
        chosen[:, k] = np.where(taken, d - m + k, draws[:, k])
    chosen.sort(axis=1)
    return chosen.reshape(len(streams), _DRAW_BLOCK, m)


def _grow_forest(X, onehot, weights, m_features, rngs):
    """Grow one tree per row of bootstrap counts, all trees in lockstep, and
    return the node arrays (feature, threshold, left, right, counts); tree
    t's root is node t.

    ``weights[t, i]`` is how often tree t's bootstrap drew row i.  A node
    holds its distinct rows and each row's count.  A node is a leaf when it
    is pure (this covers fewer than two samples) or when its candidate
    columns are all constant on it.  Each tree keeps a depth-first stack of
    the nodes it has still to search, left child on top.  On every step,
    each unfinished tree pops one node and takes the next row of its block
    of candidate-feature draws (``_draw_features``), so every tree draws in
    pre-order, as a recursive grower would.  A tree's block is refilled from
    its own stream only when it is used up, and all trees that need a
    refill on a step are refilled at once.  Batched searches, over chunks of
    those nodes packed by size (``_pack_by_size``), then split them all.

    Each stream in ``rngs`` is private to one fit and has already drawn its
    bootstrap sample, so the draws left in a block when its tree is done
    change nothing."""
    d, k = X.shape[1], onehot.shape[1]
    n_trees, n = weights.shape
    X = np.vstack([X, np.full(d, np.inf)])  # the sentinel row, last
    onehot = np.vstack([onehot, np.zeros(k)])
    counts = list(weights @ onehot[:n])  # small integers: exact
    # every node is added as a leaf; _split_nodes turns it into a split
    nodes = ([0] * n_trees, [0.0] * n_trees, list(range(n_trees)), list(range(n_trees)), counts)
    stacks = [[] for _ in range(n_trees)]
    for t in range(n_trees):
        if np.count_nonzero(counts[t]) >= 2:
            rows = np.flatnonzero(weights[t])
            stacks[t].append((t, rows, weights[t, rows], n))
    blocks = np.empty((n_trees, _DRAW_BLOCK, m_features), dtype=np.int64)
    cursor = np.full(n_trees, _DRAW_BLOCK)  # every block starts used up
    while True:
        popped = [(t, *stack.pop()) for t, stack in enumerate(stacks) if stack]
        if not popped:
            return nodes
        trees = np.array([p[0] for p in popped])
        refill = trees[cursor[trees] == _DRAW_BLOCK]
        if len(refill):
            blocks[refill] = _draw_features([rngs[t] for t in refill.tolist()], d, m_features)
            cursor[refill] = 0
        features = blocks[trees, cursor[trees]]
        cursor[trees] += 1
        # (tree, node, rows, row counts, sample count, features)
        popped = [(*p, f) for p, f in zip(popped, features)]
        for chunk in _pack_by_size(popped, m_features * k):
            _split_nodes(X, onehot, chunk, stacks, nodes)


def _pack_by_size(popped, per_row):
    """Cut the nodes ``popped``, sorted by sample count, into chunks to
    search at once.  A chunk is padded to its widest node's distinct rows,
    and a row of it costs ``per_row`` block elements.  The next node starts
    a new chunk when the padding it adds would cost more than a search call
    (``_SEARCH_OVERHEAD``), or when the block would pass ``_SEARCH_BLOCK``.
    Only the order of the nodes sets their ids, not where chunks are cut."""
    popped = sorted(popped, key=lambda p: p[4])
    chunks, chunk, width = [], [], 0
    for p in popped:
        size = len(p[2])
        wide = max(width, size)
        if chunk and ((len(chunk) * (wide - width) + wide - size) * per_row > _SEARCH_OVERHEAD
                      or (len(chunk) + 1) * wide * per_row > _SEARCH_BLOCK):
            chunks.append(chunk)
            chunk, wide = [], size
        chunk.append(p)
        width = wide
    chunks.append(chunk)
    return chunks


def _split_nodes(X, onehot, chunk, stacks, nodes):
    """Search a chunk of nodes padded to the widest one's distinct rows,
    append the children of every node that splits to ``nodes``, and push
    those that are not pure onto their tree's stack, left on top.  Each
    node's features arrive sorted, so ties resolve to the lowest feature
    index."""
    widths = np.array([len(c[2]) for c in chunk])
    held = np.arange(widths.max()) < widths[:, None]
    rows = np.full(held.shape, len(X) - 1)
    rows[held] = np.concatenate([c[2] for c in chunk])
    counts = np.zeros(held.shape)
    counts[held] = np.concatenate([c[3] for c in chunk])
    features = np.array([c[5] for c in chunk])
    (impurity, feature, threshold, cut, sorted_rows, sorted_counts,
     left_counts, right_counts) = _split_search(X, onehot, rows, counts, features)
    found = (impurity < np.inf).tolist()
    grow_left = (np.count_nonzero(left_counts, axis=1) >= 2).tolist()
    grow_right = (np.count_nonzero(right_counts, axis=1) >= 2).tolist()
    left_size, right_size = left_counts.sum(axis=1).tolist(), right_counts.sum(axis=1).tolist()
    feature, threshold, cut = feature.tolist(), threshold.tolist(), cut.tolist()
    widths = widths.tolist()
    features_of, thresholds_of, left_of, right_of, counts_of = nodes
    for b, (t, node, *_) in enumerate(chunk):
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
        # row order inside a node cannot change its split: thresholds
        # between equal values are masked, and the counts at every other
        # threshold depend only on which rows the node holds
        if grow_right[b]:
            right = slice(cut[b], widths[b])
            stacks[t].append((right_id, sorted_rows[b, right], sorted_counts[b, right],
                              right_size[b]))
        if grow_left[b]:
            stacks[t].append((left_id, sorted_rows[b, : cut[b]], sorted_counts[b, : cut[b]],
                              left_size[b]))


def rf_fit(X, y, n_trees: int = 100, rng=None) -> ForestModel:
    """Bootstrap-aggregated CART trees, grown until pure or fewer than two
    samples, with ceil(sqrt(d)) candidate features per node."""
    X, classes, codes = _fit_inputs(X, y, "rf_fit")
    if isinstance(n_trees, bool) or not isinstance(n_trees, (int, np.integer)) or n_trees < 1:
        raise ValueError(f"n_trees must be an integer of at least 1, got {n_trees!r}")
    n, d = X.shape
    onehot = np.eye(len(classes))[codes]
    rngs = as_stream(rng).spawn(n_trees)
    boots = np.concatenate([tree_rng.integers(0, n, size=n) for tree_rng in rngs])
    boots += np.repeat(np.arange(0, n_trees * n, n), n)  # tree * n + row
    weights = np.bincount(boots, minlength=n_trees * n).reshape(n_trees, n).astype(np.float64)
    feature, threshold, left, right, counts = _grow_forest(
        X, onehot, weights, int(math.ceil(math.sqrt(d))), rngs)
    return ForestModel(
        roots=np.arange(n_trees), feature=np.array(feature, dtype=np.intp),
        threshold=np.array(threshold), left=np.array(left, dtype=np.intp),
        right=np.array(right, dtype=np.intp), counts=np.array(counts),
        classes=classes, n_features=d,
    )


def rf_predict_proba(model: ForestModel, X) -> np.ndarray:
    """Mean over the trees of the class frequencies of the leaf each row
    reaches.  All rows descend all trees at once, one level per step."""
    X = _as_rows(X, model.n_features, "rf_predict_proba")
    rows = np.arange(X.shape[0])
    at = np.repeat(model.roots[:, None], X.shape[0], axis=1)  # (n_trees, n_rows) node ids
    while True:
        goes_left = X[rows, model.feature[at]] <= model.threshold[at]
        step = np.where(goes_left, model.left[at], model.right[at])
        if np.array_equal(step, at):  # every row is at a leaf
            break
        at = step
    freq = model.counts / model.counts.sum(axis=1, keepdims=True)
    # summed over the tree axis, the outer one, tree by tree in tree order
    return freq[at].sum(axis=0) / len(model.roots)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def predict_labels(model, X) -> np.ndarray:
    """Argmax class prediction for either classifier."""
    return model.classes[np.argmax(predict_proba(model, X), axis=1)]


def fit_classifier(name: str, X, y, rng=None):
    """Dispatch by short name, one of CLASSIFIERS."""
    if name == "lr":
        return lr_fit(X, y)
    if name == "rf":
        return rf_fit(X, y, rng=rng)
    raise ConfigError(f"unknown classifier {name!r}; expected one of {CLASSIFIERS}")


def predict_proba(model, X) -> np.ndarray:
    if isinstance(model, LogisticModel):
        return lr_predict_proba(model, X)
    return rf_predict_proba(model, X)
