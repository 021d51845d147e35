"""Downstream classifiers for latent / pathway representations: multinomial
logistic regression and a random forest.

The logistic regression minimizes 0.5*||W||^2 + C * sum-of-cross-entropies
(bias unregularized) with L-BFGS; the forest is hand-built CART with Gini
impurity, sqrt(d) candidate features per node and bootstrapped samples, with
fully deterministic tie-breaking so a fixed seed reproduces the forest.  The
trees of one fit grow in lockstep: each keeps its own depth-first stack and
its own stream, and on every step batched split searches score every
(feature, threshold) pair of the nodes that all trees are working on.  A
tree draws its nodes' candidate features in blocks and gets exactly the sets
that one ``choice`` call per node would give, so the forests are the same
bit for bit.  The trees' streams are the PCG64 streams of the parent's
spawned seed sequences, read as raw words: the draws ``Generator.integers``
would make (Lemire's bounded draws over 32-bit halves) are one array
expression for all trees, so a fit's randomness costs one ``random_raw``
call per tree and refill, and the forest's bytes rest on SeedSequence and
raw PCG64 output, which NEP 19 keeps stable.  A node holds its distinct
training rows and one count per row, the row's multiplicity in the tree's
bootstrap, so a search sorts and sums each bootstrap copy of a row once; the
sizes and class counts at every threshold are the same integers as with the
copies, so the node arrays, trees and probabilities are unchanged.  Every
tree's distinct rows lie in one array, tree after tree, and a node is a
segment of it that its search sorts in place, so its children are the two
parts of the segment.  All node state lives in arrays allocated once at
their bound (a tree over d distinct rows has at most 2d - 1 nodes), and each
tree's stack is a row of one node-id array, so a step's and a chunk's
bookkeeping each take a fixed number of numpy calls, however many nodes they
hold.  The step's nodes are sorted by sample count and packed into chunks
padded to their widest node: a chunk is cut when the padding the next node
adds would cost more than one more search call.  Below 8 classes the search
counts classes class-major, so its array work runs along the long threshold
axis.  Node ids follow the order in which nodes are searched, so they may
differ from earlier versions; the trees and the probabilities do not.

A forest is stored only as flat node arrays, one set for all its trees, and
prediction runs all trees in lockstep: every row descends every tree at
once, one level per step.  ``ForestModel.trees`` is a read-only view that
builds linked ``TreeNode`` objects from the arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence, ISpawnableSeedSequence

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
# Candidate-feature sets drawn per refill of a tree's block: one random_raw
# call per tree and refill (_TreeStreams.bounded), and one bounded-draw
# expression for all trees that refill on a step
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
    sorted_rows = rows[batch[:, None, None], order]
    sorted_counts = counts[batch[:, None, None], order]
    vals = X[sorted_rows, features[:, :, None]]
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
    if k < _CLASS_MAJOR_BELOW:
        left_counts, total = left[:, batch, fi, ti].T, total.T  # (B, k)
    else:
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


# SeedSequence.generate_state's hash constants (NEP 19 keeps its output
# stable): word i of a seed is mixed with _SEED_HASH[i] and _SEED_HASH[i + 1]
_SEED_HASH = np.array([0x8B51F9DD * 0x58F38DED**i % 2**32 for i in range(9)], dtype=np.uint32)


def _seed_words(kids):
    """Each kid's PCG64 seed, ``kid.generate_state(4, np.uint64)``, as one
    (len(kids), 4) uint64 array.

    For SeedSequence kids the words come from their entropy pools at once:
    the hash takes the pool words in a cycle, eight uint32 words, and reads
    them as four little-endian uint64."""
    if type(kids[0]) is not np.random.SeedSequence:
        return np.array([kid.generate_state(4, np.uint64) for kid in kids])
    pools = np.array([kid.pool for kid in kids])
    words = pools[:, np.arange(8) % pools.shape[1]] ^ _SEED_HASH[:8]
    words *= _SEED_HASH[1:]
    words ^= words >> 16
    return words.astype("<u4", order="C", copy=False).view("<u8").astype(np.uint64, copy=False)


class _SeedWords(ISeedSequence):
    """A seed sequence that hands its bit generator fixed words: a PCG64
    asks for ``generate_state(4, np.uint64)`` once, when it is made."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _lemire(halves, highs, limits):
    """Lemire's bounded draws in [0, h): each 32-bit half times its bound
    ``highs``, as uint64.  Returns the products' high 32 bits and where a
    product's low 32 bits fall below ``limits``, (2^32 - h) mod h, so the
    draw is rejected."""
    products = halves.astype(np.uint64) * highs
    return products >> 32, (products & 0xFFFFFFFF) < limits


class _TreeStreams:
    """The private random streams of one fit's trees, read as NumPy's
    ``Generator.integers`` reads a PCG64 stream.

    Tree t's stream is a PCG64 seeded from the t-th child of the parent's
    seed sequence, whatever the parent's bit generator: for a PCG64 parent
    it is the stream ``Generator.spawn`` gives, and a parent whose seed
    sequence cannot spawn is a TypeError, as there.  All children's seeds
    are hashed at once (``_seed_words``).  ``integers(0, highs)`` takes the stream's
    32-bit halves in order, the low half of each word first, and makes
    Lemire's draw from each: ``bounded`` does so for many trees in one array
    expression over raw words (``random_raw``).  The forest's bytes thus
    rest on SeedSequence and raw PCG64 output, which NEP 19 keeps stable."""

    def __init__(self, rng, n_trees):
        seed_seq = as_stream(rng).bit_generator.seed_seq
        if not isinstance(seed_seq, ISpawnableSeedSequence):
            raise TypeError("rf_fit: the rng's seed sequence cannot spawn the trees' streams")
        words = _seed_words(seed_seq.spawn(n_trees))
        self.bits = [np.random.PCG64(_SeedWords(w)) for w in words]
        self.spare = np.zeros(n_trees, dtype=np.uint32)  # a word's unused high half
        self.has_spare = np.zeros(n_trees, dtype=bool)

    def _halves(self, trees, count):
        """The next ``count`` 32-bit halves of each of ``trees``' streams, a
        (len(trees), count) uint32 array: the tree's spare half, if it has
        one, then the halves of new words.  A half left over is its new
        spare."""
        out = np.empty((len(trees), count + 1), dtype=np.uint32)
        has_spare = self.has_spare[trees]
        for spare in (False, True):
            group = np.flatnonzero(has_spare == spare)
            if not len(group):
                continue
            at = trees[group]
            n_words = (count - spare + 1) // 2
            words = np.array([self.bits[t].random_raw(n_words) for t in at.tolist()])
            halves = words.astype("<u8", copy=False).view("<u4")
            if spare:
                halves = np.concatenate([self.spare[at, None], halves], axis=1)
            out[group, :halves.shape[1]] = halves
            self.has_spare[at] = halves.shape[1] > count
            if halves.shape[1] > count:
                self.spare[at] = halves[:, -1]
        return out[:, :count]

    def bounded(self, trees, highs):
        """Each of ``trees``' next draws in [0, h) for the bounds ``highs``,
        a (len(trees), len(highs)) int64 array: row i equals
        ``Generator.integers(0, highs)`` on tree ``trees[i]``'s stream, and
        leaves it where that call would.  A bound of 1 takes nothing.  Every
        tree's draws are one array expression; a tree with a rejected
        product is redone alone (``_redo``)."""
        drawn = highs > 1
        highs = highs[drawn].astype(np.uint64)
        limits = ((1 << 32) - highs) % highs
        halves = self._halves(trees, len(highs))
        draws, rejected = _lemire(halves, highs, limits)
        for i in np.flatnonzero(rejected.any(axis=1)).tolist():
            draws[i] = self._redo(trees[i], halves[i], highs, limits)
        out = np.zeros((len(trees), len(drawn)), dtype=np.int64)
        out[:, drawn] = draws
        return out

    def _redo(self, t, halves, highs, limits):
        """Tree t's draws for ``highs`` from its ``halves``, taking its later
        halves for every rejected product."""
        draws = np.empty(len(highs), dtype=np.uint64)
        done = 0
        while done < len(highs):
            short = len(highs) - done - len(halves)
            if short > 0:
                halves = np.concatenate([halves, self._halves(np.array([t]), short)[0]])
            got, rejected = _lemire(halves, highs[done:], limits[done:])
            kept = rejected.argmax() if rejected.any() else len(got)
            draws[done:done + kept] = got[:kept]
            done += kept
            halves = halves[kept + 1:]  # past the rejected half
        return draws


def _feature_highs(d, m):
    """The bounds of one block's draws (``_draw_features``), set after set."""
    highs = np.concatenate([np.arange(d - m + 1, d + 1), np.arange(m, 1, -1)])
    return np.tile(highs, _DRAW_BLOCK)


def _draw_features(draws, d, m):
    """A block of ``_DRAW_BLOCK`` sorted candidate-feature sets per row of
    ``draws``, the row's draws for ``_feature_highs(d, m)``: an int64 array
    of shape (len(draws), _DRAW_BLOCK, m).

    Set j of a stream's block is ``np.sort(stream.choice(d, m,
    replace=False))`` for the stream's j-th such call.  With m =
    ceil(sqrt(d)) ``choice`` always runs Floyd's sample (its other method
    needs d > 10000 and m > d // 50), then shuffles it: 2m - 1 bounded
    draws, in [0, h) for h = d - m + 1 .. d, then h = m .. 2, each one
    Lemire draw, as ``integers`` with the same bounds makes them.  Floyd's
    rule runs on all sets at once: draw k becomes d - m + k when it is
    already chosen.  The shuffle draws are dropped, since the sets are
    sorted."""
    draws = draws.reshape(-1, 2 * m - 1)[:, :m]
    chosen = np.empty_like(draws)
    for k in range(m):
        taken = (chosen[:, :k] == draws[:, k, None]).any(axis=1)
        chosen[:, k] = np.where(taken, d - m + k, draws[:, k])
    chosen.sort(axis=1)
    return chosen.reshape(-1, _DRAW_BLOCK, m)


def _grow_forest(X, onehot, weights, blocks, streams):
    """Grow one tree per row of bootstrap counts, all trees in lockstep, and
    return the node arrays (feature, threshold, left, right, counts); tree
    t's root is node t.

    ``weights[t, i]`` is how often tree t's bootstrap drew row i.  Every
    tree's distinct rows are laid out tree after tree in one array, with
    their counts in another, and a node is a ``(start, width)`` segment of
    them.  A search sorts each node's segment along its winning feature and
    writes it back in place, so the left child is the segment's first
    ``cut`` rows and the right child the rest.  The node arrays are
    allocated once at their bound: a tree over d distinct rows has at most
    2d - 1 nodes.  A node is a leaf when it is pure (this covers fewer than
    two samples) or when its candidate columns are all constant on it, and
    every node is added as a leaf, pointing to itself, until it splits.

    Each tree keeps a depth-first stack of the nodes it has still to
    search, left child on top, as a row of one node-id array with a pointer
    per tree.  On every step, each unfinished tree pops one node and takes
    the next set of its block of candidate features (``_draw_features``),
    so every tree draws in pre-order, as a recursive grower would.
    ``blocks`` holds each tree's first block.  A tree's block is refilled
    from its own stream in ``streams`` only when it is used up, and all
    trees that need a refill on a step are refilled at once.  The step's
    nodes are sorted by sample count and searched in chunks
    (``_pack_by_size``, ``_split_nodes``).

    The streams are private to one fit, so the draws left in a block when
    its tree is done change nothing."""
    d, k = X.shape[1], onehot.shape[1]
    n_trees, n = weights.shape
    m_features = blocks.shape[2]
    highs = _feature_highs(d, m_features)
    X = np.vstack([X, np.full(d, np.inf)])  # the sentinel row, last
    onehot = np.vstack([onehot, np.zeros(k)])
    tree_of, seg_rows = np.nonzero(weights)
    capacity = 2 * len(seg_rows) - n_trees
    # one slot past the segments holds the sentinel row at count 0: a
    # chunk's padding reads it and writes it back unchanged
    segments = (np.append(seg_rows, n), np.append(weights[tree_of, seg_rows], 0.0))
    feature = np.zeros(capacity, dtype=np.intp)
    threshold = np.zeros(capacity)
    left = np.arange(capacity)  # a split node's right child is left + 1
    start = np.empty(capacity, dtype=np.intp)
    width = np.empty(capacity, dtype=np.intp)  # distinct rows
    size = np.empty(capacity)  # sample counts
    width[:n_trees] = np.bincount(tree_of, minlength=n_trees)
    start[:n_trees] = np.cumsum(width[:n_trees]) - width[:n_trees]
    size[:n_trees] = n
    nodes = (feature, threshold, left, start, width, size)
    counts = [weights @ onehot[:n]]  # small integers: exact
    # the nodes on a stack hold disjoint sets of two or more distinct rows,
    # so n + 1 slots leave room for the spare slot a push may write
    stack = np.empty((n_trees, n + 1), dtype=np.intp)
    stack[:, 0] = np.arange(n_trees)
    top = (np.count_nonzero(counts[0], axis=1) >= 2).astype(np.intp)  # stack heights
    stacks = (stack, top)
    n_nodes = n_trees
    cursor = np.zeros(n_trees, dtype=np.intp)
    while True:
        trees = top.nonzero()[0]
        if not len(trees):
            break
        height = top[trees] - 1
        top[trees] = height
        popped = stack[trees, height]
        at = cursor[trees]
        refill = at == _DRAW_BLOCK
        if refill.any():
            blocks[trees[refill]] = _draw_features(streams.bounded(trees[refill], highs),
                                                   d, m_features)
            at[refill] = 0
        features = blocks[trees, at]
        cursor[trees] = at + 1
        order = size[popped].argsort(kind="stable")
        trees, popped, features = trees[order], popped[order], features[order]
        widths = width[popped]
        cuts = [0, *_pack_by_size(widths.tolist(), m_features * k), len(popped)]
        for a, b in zip(cuts[:-1], cuts[1:]):
            counts.append(_split_nodes(X, onehot, segments, nodes, n_nodes, stacks, trees[a:b],
                                       popped[a:b], widths[a:b], features[a:b]))
            n_nodes += len(counts[-1])
    left = left[:n_nodes].copy()
    right = left + (left != np.arange(n_nodes))
    counts = np.concatenate(counts)
    return feature[:n_nodes].copy(), threshold[:n_nodes].copy(), left, right, counts


def _pack_by_size(widths, per_row):
    """Where to cut a step's nodes, sorted by sample count and with the
    distinct-row ``widths``, into chunks to search at once: the positions
    at which a new chunk starts.  A chunk is padded to its widest node, and
    a row of it costs ``per_row`` block elements.  The next node starts a
    new chunk when the padding it adds would cost more than a search call
    (``_SEARCH_OVERHEAD``), or when the block would pass ``_SEARCH_BLOCK``.
    Only the order of the nodes sets their ids, not where chunks are cut."""
    cuts, held, width = [], 0, 0
    for i, size in enumerate(widths):
        wide = size if size > width else width
        if held and ((held * (wide - width) + wide - size) * per_row > _SEARCH_OVERHEAD
                     or (held + 1) * wide * per_row > _SEARCH_BLOCK):
            cuts.append(i)
            held, wide = 0, size
        held += 1
        width = wide
    return cuts


def _split_nodes(X, onehot, segments, nodes, n_nodes, stacks, trees, chunk, widths, features):
    """Search the nodes ``chunk``, one of each tree in ``trees``, with the
    distinct-row ``widths``, padded to the widest one, and return their
    children's class counts, left then right of each node that splits, in
    chunk order.

    Each node's segment of the rows and row counts in ``segments`` is
    written back sorted along its winning feature; the padding sorts last,
    since the sentinel row's features are +inf.  The children of the i-th
    node that splits are nodes ``n_nodes + 2i`` (left) and ``n_nodes + 2i
    + 1`` (right), each its part of the segment, and those that are not
    pure are pushed onto their tree's stack, left on top.  Each node's
    features arrive sorted, so ties resolve to the lowest feature index."""
    rows, row_counts = segments
    feature, threshold, left, start, width, size = nodes
    stack, top = stacks
    starts = start[chunk]
    reach = np.arange(widths.max())
    at = np.where(reach < widths[:, None], starts[:, None] + reach, len(rows) - 1)
    (impurity, best, thr, cut, sorted_rows, sorted_counts,
     left_counts, right_counts) = _split_search(X, onehot, rows[at], row_counts[at], features)
    # row order inside a node cannot change its split: thresholds between
    # equal values are masked, and the counts at every other threshold
    # depend only on which rows the node holds
    rows[at], row_counts[at] = sorted_rows, sorted_counts
    found = impurity < np.inf
    if not found.all():
        chunk, widths, trees, starts = chunk[found], widths[found], trees[found], starts[found]
        best, thr, cut = best[found], thr[found], cut[found]
        left_counts, right_counts = left_counts[found], right_counts[found]
    end = n_nodes + 2 * len(chunk)
    ids = np.arange(n_nodes, end, 2)  # the left children; each right one is next
    feature[chunk], threshold[chunk], left[chunk] = best, thr, ids
    start[n_nodes:end:2], start[n_nodes + 1:end:2] = starts, starts + cut
    width[n_nodes:end:2], width[n_nodes + 1:end:2] = cut, widths - cut
    # (F, 2k) rows read as (2F, k): left, right, left, right, ...
    children = np.concatenate([left_counts, right_counts], axis=1).reshape(-1, onehot.shape[1])
    size[n_nodes:end] = children.sum(axis=1)
    grows = (np.count_nonzero(children, axis=1) >= 2).reshape(-1, 2)
    # push the right child, then the left one on top of it, or in its slot
    # when the right one is pure; a slot at or past a stack's height is free
    height = top[trees]
    stack[trees, height] = ids + 1
    height += grows[:, 1]
    stack[trees, height] = ids
    top[trees] = height + grows[:, 0]
    return children


def rf_fit(X, y, n_trees: int = 100, rng=None) -> ForestModel:
    """Bootstrap-aggregated CART trees, grown until pure or fewer than two
    samples, with ceil(sqrt(d)) candidate features per node.

    Tree t draws from the t-th child stream of ``rng`` (``_TreeStreams``):
    first its bootstrap, n draws in [0, n), then its first block of
    candidate features, all trees in one expression."""
    X, classes, codes = _fit_inputs(X, y, "rf_fit")
    if isinstance(n_trees, bool) or not isinstance(n_trees, (int, np.integer)) or n_trees < 1:
        raise ValueError(f"n_trees must be an integer of at least 1, got {n_trees!r}")
    n, d = X.shape
    m_features = int(math.ceil(math.sqrt(d)))
    onehot = np.eye(len(classes))[codes]
    streams = _TreeStreams(rng, n_trees)
    draws = streams.bounded(np.arange(n_trees),
                            np.concatenate([np.full(n, n), _feature_highs(d, m_features)]))
    boots = draws[:, :n] + np.arange(0, n_trees * n, n)[:, None]  # tree * n + row
    weights = np.bincount(boots.ravel(), minlength=n_trees * n).reshape(n_trees, n)
    blocks = _draw_features(draws[:, n:], d, m_features)
    feature, threshold, left, right, counts = _grow_forest(
        X, onehot, weights.astype(np.float64), blocks, streams)
    return ForestModel(roots=np.arange(n_trees), feature=feature, threshold=threshold,
                       left=left, right=right, counts=counts, classes=classes, n_features=d)


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
