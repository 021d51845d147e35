import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathae import classifiers
from pathae.classifiers import (
    ForestModel,
    TreeNode,
    LogisticModel,
    fit_classifier,
    lr_fit,
    lr_predict_proba,
    predict_labels,
    rf_fit,
    rf_predict_proba,
    softmax_rows,
)
from pathae.errors import ConfigError, DataError, ShapeError
from pathae.ndcore import RngStream

import reference
from reference import _best_split, lr_data_loss


class TestLogisticRegression:
    def test_separable_perfect_accuracy(self):
        X = np.array([[-2.0], [-1.5], [-1.0], [1.0], [1.5], [2.0]])
        y = np.array(["a", "a", "a", "b", "b", "b"])
        model = lr_fit(X, y)
        assert np.mean(predict_labels(model, X) == y) == 1.0

    def test_constant_features_give_uniform(self):
        X = np.ones((20, 2))
        y = np.array(["a", "b"] * 10)
        model = lr_fit(X, y)
        proba = lr_predict_proba(model, X)
        np.testing.assert_allclose(proba, 0.5, atol=1e-2)

    def test_larger_c_never_increases_data_loss(self):
        rng = RngStream(1)
        X = rng.normal(size=(40, 3))
        y = np.where(X[:, 0] + 0.3 * rng.normal(size=40) > 0, "pos", "neg")
        loss_c1 = lr_data_loss(lr_fit(X, y, C=1.0), X, y)
        loss_c2 = lr_data_loss(lr_fit(X, y, C=2.0), X, y)
        assert loss_c2 <= loss_c1 + 1e-6

    def test_data_loss_reads_the_model_class_columns(self):
        X = np.array([[-2.0], [-1.5], [0.0], [0.2], [1.5], [2.0]])
        y = np.array(["a", "a", "b", "b", "c", "c"])
        model = lr_fit(X, y)
        keep = y != "b"  # a label set without one of the model's classes
        proba = lr_predict_proba(model, X[keep])
        want = -np.sum(np.log(proba[np.arange(4), [0, 0, 2, 2]]))
        assert lr_data_loss(model, X[keep], y[keep]) == pytest.approx(want)
        with pytest.raises(DataError, match="label 'd' is not one of the model's classes"):
            lr_data_loss(model, X[:2], np.array(["a", "d"]))

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            lr_fit(np.ones((3, 1)), np.array(["a", "a", "a"]))

    @pytest.mark.parametrize("C", [math.nan, math.inf, 0.0, -1.0])
    def test_non_positive_or_non_finite_c_rejected(self, C):
        X = np.array([[-1.0], [1.0], [-2.0], [2.0]])
        with pytest.raises(ValueError, match="C must be positive and finite"):
            lr_fit(X, np.array(["a", "b", "a", "b"]), C=C)

    def test_zero_weight_model_uniform_rows(self):
        model = LogisticModel(np.zeros((2, 3)), np.zeros((1, 3)), np.array(["a", "b", "c"]))
        proba = lr_predict_proba(model, np.ones((4, 2)))
        np.testing.assert_allclose(proba, 1.0 / 3.0)

    def test_rows_sum_to_one(self):
        rng = RngStream(2)
        X = rng.normal(size=(30, 4))
        y = np.array(["a", "b", "c"] * 10)
        proba = lr_predict_proba(lr_fit(X, y), X)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_softmax_shift_invariance(self):
        logits = RngStream(3).normal(size=(5, 4))
        shifted = logits + 7.3
        np.testing.assert_allclose(softmax_rows(logits), softmax_rows(shifted), atol=1e-12)

    def test_feature_width_mismatch(self):
        model = lr_fit(np.array([[0.0], [1.0]]), np.array(["a", "b"]))
        with pytest.raises(ShapeError):
            lr_predict_proba(model, np.ones((2, 3)))

    @pytest.mark.parametrize("shape", [(2,), (1,), (2, 1, 1), ()])
    def test_non_matrix_input_rejected(self, shape):
        model = lr_fit(np.array([[0.0], [1.0]]), np.array(["a", "b"]))
        with pytest.raises(ShapeError):
            lr_predict_proba(model, np.ones(shape))


def xor_data(n=200, seed=0):
    rng = RngStream(seed)
    X = rng.uniform(size=(n, 2))
    y = np.where((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5), "odd", "even")
    return X, y


class TestRandomForest:
    def test_single_class_pure_leaves(self):
        X = RngStream(0).normal(size=(10, 3))
        y = np.array(["only"] * 10)
        model = rf_fit(X, y, n_trees=5, rng=RngStream(1))
        for tree in model.trees:
            assert tree.is_leaf
        proba = rf_predict_proba(model, X)
        np.testing.assert_array_equal(proba, np.ones((10, 1)))

    def test_xor_learnable(self):
        X, y = xor_data()
        model = rf_fit(X, y, n_trees=30, rng=RngStream(5))
        acc = np.mean(predict_labels(model, X) == y)
        assert acc >= 0.95

    def test_same_seed_identical_forest(self):
        X, y = xor_data(n=60, seed=2)
        p1 = rf_predict_proba(rf_fit(X, y, n_trees=10, rng=RngStream(7)), X)
        p2 = rf_predict_proba(rf_fit(X, y, n_trees=10, rng=RngStream(7)), X)
        np.testing.assert_array_equal(p1, p2)

    def test_monotone_transform_invariance(self):
        X, y = xor_data(n=80, seed=3)
        Xt = 2.0 * X + 1.0
        p_orig = rf_predict_proba(rf_fit(X, y, n_trees=15, rng=RngStream(9)), X)
        p_trans = rf_predict_proba(rf_fit(Xt, y, n_trees=15, rng=RngStream(9)), Xt)
        np.testing.assert_array_equal(p_orig, p_trans)

    def test_rows_sum_to_one(self):
        X, y = xor_data(n=50, seed=4)
        proba = rf_predict_proba(rf_fit(X, y, n_trees=8, rng=RngStream(11)), X)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_separable_probabilities_concentrate(self):
        rng = RngStream(6)
        X = np.vstack([rng.normal(size=(30, 2)) - 4.0, rng.normal(size=(30, 2)) + 4.0])
        y = np.array(["lo"] * 30 + ["hi"] * 30)
        model = rf_fit(X, y, n_trees=50, rng=RngStream(8))
        proba = rf_predict_proba(model, X)
        true_col = [list(model.classes).index(c) for c in y]
        assert np.all(proba[np.arange(60), true_col] >= 0.9)

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            rf_fit(np.empty((0, 2)), np.array([]))

    @pytest.mark.parametrize("n_trees", [0, -1, 2.0, True, "3", None])
    def test_no_trees_rejected(self, n_trees):
        X, y = xor_data(n=20, seed=1)
        with pytest.raises(ValueError, match="n_trees must be an integer of at least 1"):
            rf_fit(X, y, n_trees=n_trees, rng=RngStream(0))

    def test_numpy_integer_tree_count_accepted(self):
        X, y = xor_data(n=20, seed=1)
        model = rf_fit(X, y, n_trees=np.int64(2), rng=RngStream(0))
        assert model.roots.dtype == np.intp
        assert rf_predict_proba(model, X).shape == (20, 2)

    @pytest.mark.parametrize("a, b", [
        (1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51),  # the midpoint rounds up to b
        (1e308, 1.7e308),  # a + b overflows to +inf
        (-1.7e308, -1e308),  # a + b overflows to -inf
    ])
    def test_threshold_separates_the_two_values(self, a, b):
        X = np.array([[a], [b], [a], [b]])
        y = np.array(["lo", "hi", "lo", "hi"])
        model = rf_fit(X, y, n_trees=3, rng=RngStream(0))
        for tree in model.trees:
            if not tree.is_leaf:
                assert a <= tree.threshold < b
                assert tree.left.is_leaf and tree.right.is_leaf
        assert list(predict_labels(model, X)) == list(y)

    def test_width_mismatch(self):
        X, y = xor_data(n=20, seed=1)
        model = rf_fit(X, y, n_trees=3, rng=RngStream(0))
        with pytest.raises(ShapeError):
            rf_predict_proba(model, np.ones((2, 5)))

    @pytest.mark.parametrize("shape", [(2,), (5,), (2, 2, 1), ()])
    def test_non_matrix_input_rejected(self, shape):
        X, y = xor_data(n=20, seed=1)
        model = rf_fit(X, y, n_trees=3, rng=RngStream(0))
        with pytest.raises(ShapeError):
            rf_predict_proba(model, np.ones(shape))

    def test_empty_rows_give_empty_proba(self):
        X, y = xor_data(n=20, seed=1)
        model = rf_fit(X, y, n_trees=3, rng=RngStream(0))
        assert rf_predict_proba(model, np.ones((0, 2))).shape == (0, 2)


def _gini(counts):
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return 1.0 - float(np.sum(p * p))


def _reference_best_split(X, codes, idx, features, k):
    """The per-threshold scan the vectorized split search replaced: one
    threshold at a time, strict improvement only, features in the given
    order, so ties keep the lowest feature, then the lowest threshold."""
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


class TestSplitSearch:
    def test_equals_per_threshold_reference(self):
        rng = RngStream(17)
        checked = 0
        for trial in range(400):
            n_rows, d = int(rng.integers(2, 14)), int(rng.integers(1, 7))
            k = int(rng.integers(1, 11))  # past 8 classes numpy sums pairwise
            X = rng.integers(0, 4, size=(n_rows, d)).astype(float)  # many ties
            if d > 2:
                X[:, 1] = X[:, 0]  # identical columns
                X[:, 2] = 1.5  # constant column
            if trial % 3 == 0:
                X += 0.1 * np.round(rng.normal(size=(n_rows, d)), 1)
            codes = rng.integers(0, k, size=n_rows)
            idx = rng.integers(0, n_rows, size=int(rng.integers(2, 2 * n_rows + 1)))
            features = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
            got = _best_split(X, np.eye(k)[codes], idx, features)
            want = _reference_best_split(X, codes, idx, features, k)
            if want is None:
                assert got is None
                continue
            assert got is not None
            assert (got[0], int(got[1]), got[2]) == (want[0], int(want[1]), want[2])
            checked += 1
        assert checked > 300


@pytest.mark.parametrize("fit", [lr_fit, rf_fit])
class TestFitInputs:
    """Both fits check their training set at the boundary, in one helper."""

    @pytest.mark.parametrize("shape", [(4,), (0, 2), (4, 0), (4, 2, 1)])
    def test_empty_or_non_matrix_rejected(self, fit, shape):
        with pytest.raises(DataError, match="non-empty 2-D matrix"):
            fit(np.ones(shape), np.array(["a", "b"] * 2))

    def test_label_count_mismatch_rejected(self, fit):
        with pytest.raises(ShapeError, match="3 labels for 4 rows"):
            fit(np.ones((4, 2)), np.array(["a", "b", "a"]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_named(self, fit, bad):
        X = np.arange(8.0).reshape(4, 2)
        X[2, 1] = bad
        X[3, 0] = np.nan  # only the first non-finite cell is named
        with pytest.raises(DataError, match=f"non-finite value {bad} at row 2, column 1"):
            fit(X, np.array(["a", "b"] * 2))


@pytest.mark.parametrize("fit,predict", [(lr_fit, lr_predict_proba), (rf_fit, rf_predict_proba)])
class TestPredictInputs:
    """Prediction rejects the non-finite rows that the fits reject, rather
    than returning NaN or a confident answer for them."""

    def _model(self, fit):
        X = RngStream(9).normal(size=(30, 2))
        return fit(X, np.where(X[:, 0] > 0, "pos", "neg"))

    def test_nan_row_rejected(self, fit, predict):
        rows = np.zeros((3, 2))
        rows[1] = np.nan
        with pytest.raises(DataError, match="non-finite value nan at row 1, column 0"):
            predict(self._model(fit), rows)

    def test_inf_row_rejected(self, fit, predict):
        rows = np.zeros((3, 2))
        rows[2, 1] = np.inf
        with pytest.raises(DataError, match="non-finite value inf at row 2, column 1"):
            predict(self._model(fit), rows)


def _reference_presort_split(X, onehot, idx, features):
    """The single-node presort split search the batched search replaced."""
    n, m = len(idx), len(features)
    cols = X[idx[:, None], features].T
    order = cols.argsort(axis=1, kind="stable")
    vals = cols[np.arange(m)[:, None], order]
    node_onehot = onehot[idx]
    left = node_onehot[order[:, :-1]].cumsum(axis=1)
    right = node_onehot.sum(axis=0) - left
    nl = np.arange(1.0, n)
    nr = n - nl
    p = left / nl[:, None]
    gl = 1.0 - (p * p).sum(axis=-1)
    p = right / nr[:, None]
    gr = 1.0 - (p * p).sum(axis=-1)
    impurity = (nl * gl + nr * gr) / n
    impurity[vals[:, :-1] == vals[:, 1:]] = np.inf
    fi, ti = divmod(int(impurity.argmin()), n - 1)
    if impurity[fi, ti] == np.inf:
        return None
    return impurity[fi, ti], features[fi], 0.5 * (vals[fi, ti] + vals[fi, ti + 1])


def _reference_grow(X, onehot, idx, m_features, rng):
    """The recursive grower the lockstep grower replaced: one node at a
    time, in pre-order, children selected by a mask in bootstrap order."""
    counts = onehot[idx].sum(axis=0)
    node = TreeNode(counts=counts)
    if len(idx) < 2 or np.count_nonzero(counts) < 2:
        return node
    d = X.shape[1]
    features = np.sort(rng.choice(d, size=min(m_features, d), replace=False))
    best = _reference_presort_split(X, onehot, idx, features)
    if best is None:
        return node
    _, f, thr = best
    mask = X[idx, f] <= thr
    node.feature = int(f)
    node.threshold = float(thr)
    node.left = _reference_grow(X, onehot, idx[mask], m_features, rng)
    node.right = _reference_grow(X, onehot, idx[~mask], m_features, rng)
    return node


def _reference_rf_fit(X, y, n_trees, rng):
    """(classes, trees) of the forest the recursive grower makes."""
    classes, codes = np.unique(y, return_inverse=True)
    n, d = X.shape
    onehot = np.eye(len(classes))[codes]
    m_features = int(math.ceil(math.sqrt(d)))
    trees = []
    for tree_rng in rng.spawn(n_trees):
        boot = tree_rng.integers(0, n, size=n)
        trees.append(_reference_grow(X, onehot, np.asarray(boot), m_features, tree_rng))
    return classes, trees


def _reference_add_leaf_proba(node, X, rows, acc):
    """Send ``rows`` down the tree, splitting them at each node, and add each
    leaf's class frequencies to its rows of ``acc``."""
    if not rows.size:
        return
    if node.is_leaf:
        acc[rows] += node.counts / node.counts.sum()
        return
    goes_left = X[rows, node.feature] <= node.threshold
    _reference_add_leaf_proba(node.left, X, rows[goes_left], acc)
    _reference_add_leaf_proba(node.right, X, rows[~goes_left], acc)


def _reference_predict_proba(trees, n_classes, X):
    """The recursive per-tree predictor the lockstep descent replaced."""
    acc = np.zeros((X.shape[0], n_classes))
    rows = np.arange(X.shape[0])
    for tree in trees:
        _reference_add_leaf_proba(tree, X, rows, acc)
    return acc / len(trees)


def _preorder(node):
    if node.is_leaf:
        return [(None, None, node.counts.tolist())]
    return ([(node.feature, node.threshold.hex(), node.counts.tolist())]
            + _preorder(node.left) + _preorder(node.right))


def _workload_forest_data(n=50, d=16, k=5, seed=0):
    """Shaped like a latent representation fed to the forest by `validate`."""
    rng = RngStream(seed)
    codes = np.arange(n) % k
    X = rng.normal(size=(n, d)) + 0.8 * codes[:, None] * (np.arange(d) % 3 == 0)
    return X, np.array([f"c{c}" for c in codes])


def _grower_case(name):
    rng = RngStream(29)
    if name == "workload":
        return (*_workload_forest_data(), 100)
    if name == "ties_12_classes":  # past numpy's 8-term pairwise sum
        X = rng.integers(0, 5, size=(120, 6)).astype(float)
        return X, rng.integers(0, 12, size=120), 20
    if name == "one_feature":
        X = np.round(rng.normal(size=(40, 1)), 1)
        return X, rng.integers(0, 3, size=40), 20
    if name == "constant_and_duplicated":
        X = np.round(rng.normal(size=(40, 6)), 1)
        X[:, 1] = X[:, 0]
        X[:, 3] = X[:, 2]
        X[:, 4] = 2.5
        return X, rng.integers(0, 4, size=40), 20
    if name == "wide":
        return (*_workload_forest_data(n=450, d=64, seed=1), 5)
    if name == "one_row":
        return rng.normal(size=(1, 3)), np.array(["a"]), 5
    if name == "two_rows":
        return rng.normal(size=(2, 3)), np.array(["a", "b"]), 5
    if name == "deep_random_labels":  # deep trees, predicted on few rows
        return rng.normal(size=(450, 64)), rng.integers(0, 5, size=450), 100
    if name == "full_trees":  # every distinct row its own leaf: the node arrays' bound
        return rng.normal(size=(33, 1)), np.arange(33), 20
    if name.startswith("classes_"):  # class-major counts below 8 classes, class-last from 8
        k = int(name.removeprefix("classes_"))
        X = np.round(rng.normal(size=(8 * k, 9)), 1)
        return X, rng.integers(0, k, size=8 * k), 20
    raise KeyError(name)


def _held_out_rows(X, trees, rng):
    """Rows the forest was not grown on: columns drawn from different
    training rows, training rows with noise, and, for up to 20 trees, a
    training row whose cell in the root's split column equals the root's
    threshold."""
    n, d = X.shape
    shuffled = X[rng.integers(0, n, size=(20, d)), np.arange(d)]
    noisy = X[rng.integers(0, n, size=20)] + 0.1 * rng.normal(size=(20, d))
    splits = [(tree.feature, tree.threshold) for tree in trees if not tree.is_leaf][:20]
    on_threshold = X[rng.integers(0, n, size=len(splits))]
    for row, (f, threshold) in zip(on_threshold, splits):
        row[f] = threshold
    return np.vstack([shuffled, noisy, on_threshold])


class TestGrowerMatchesReference:
    @pytest.mark.parametrize("case", ["workload", "ties_12_classes", "one_feature",
                                      "constant_and_duplicated", "wide", "one_row", "two_rows",
                                      "deep_random_labels", "classes_7", "classes_8",
                                      "classes_33", "full_trees"])
    def test_same_trees_and_probabilities(self, case):
        X, y, n_trees = _grower_case(case)
        got = rf_fit(X, y, n_trees=n_trees, rng=RngStream(13))
        classes, trees = _reference_rf_fit(X, y, n_trees, RngStream(13))
        assert got.classes.tolist() == classes.tolist()
        assert len(got.trees) == len(trees) == n_trees
        for t, (tree, ref) in enumerate(zip(got.trees, trees)):
            assert _preorder(tree) == _preorder(ref), f"tree {t}"
        held_out = _held_out_rows(X, trees, RngStream(31))
        # one row: only the tree axis of the summed leaf frequencies is long
        for rows in (X, held_out, held_out[:1]):
            want = _reference_predict_proba(trees, len(classes), rows)
            assert rf_predict_proba(got, rows).tobytes() == want.tobytes()


def test_deep_case_refills_a_block():
    """The reference comparison covers a refill: some tree of the
    ``deep_random_labels`` case searches more nodes than one block holds."""
    X, y, n_trees = _grower_case("deep_random_labels")
    model = rf_fit(X, y, n_trees=n_trees, rng=RngStream(13))
    # every node with two or more classes is searched; the others are pure
    searched = [sum(np.count_nonzero(counts) >= 2 for _, _, counts in _preorder(tree))
                for tree in model.trees]
    assert max(searched) > classifiers._DRAW_BLOCK


def test_full_trees_reach_the_node_bound():
    """In the ``full_trees`` case every node with two distinct rows splits
    and every distinct row ends in its own leaf, so a tree over d distinct
    rows has 2d - 1 nodes, the most any tree can have."""
    X, y, n_trees = _grower_case("full_trees")
    model = rf_fit(X, y, n_trees=n_trees, rng=RngStream(13))
    n = len(X)
    distinct = sum(len(np.unique(tree_rng.integers(0, n, size=n)))
                   for tree_rng in RngStream(13).spawn(n_trees))
    assert len(model.feature) == 2 * distinct - n_trees


def test_forest_arrays_own_their_data():
    """Each array of a fitted forest is C-contiguous, owns its memory and
    keeps its dtype, so a model pins no larger buffer of the fit."""
    X, y = _workload_forest_data()
    model = rf_fit(X, y, n_trees=10, rng=RngStream(13))
    dtypes = {"roots": np.intp, "feature": np.intp, "threshold": np.float64,
              "left": np.intp, "right": np.intp, "counts": np.float64, "classes": y.dtype}
    for name, dtype in dtypes.items():
        a = getattr(model, name)
        assert (a.dtype, a.flags.c_contiguous, a.base) == (dtype, True, None), name


@settings(max_examples=20)
@given(d=st.sampled_from([1, 2, 3, 16, 320, 12000]), seed=st.integers(0, 2**32 - 1),
       n_streams=st.integers(1, 3), blocks=st.integers(2, 3), skip=st.integers(0, 3))
def test_feature_blocks_match_successive_choice_calls(d, seed, n_streams, blocks, skip):
    """Each block set is a sorted ``choice(d, ceil(sqrt(d)), replace=False)``
    of its tree's stream, and the helper's next draws are the native
    stream's next draws.  d = 12000 is past ``choice``'s switch at 10,000,
    where it still runs Floyd's sample because m <= d // 50."""
    m = math.ceil(math.sqrt(d))
    streams = classifiers._TreeStreams(RngStream(seed), n_streams)
    want_rngs = RngStream(seed).spawn(n_streams)
    trees = np.arange(n_streams)
    streams.bounded(trees, np.full(skip, 7))  # an odd count leaves half a 64-bit draw
    for rng in want_rngs:
        rng.integers(0, 7, size=skip)
    highs = classifiers._feature_highs(d, m)
    got = np.concatenate([classifiers._draw_features(streams.bounded(trees, highs), d, m)
                          for _ in range(blocks)], axis=1)
    assert got.dtype == np.int64
    for want_rng, rows in zip(want_rngs, got):
        want = [np.sort(want_rng.choice(d, size=m, replace=False))
                for _ in range(blocks * classifiers._DRAW_BLOCK)]
        assert rows.tolist() == np.array(want).tolist()
    big = 3 << 30  # a quarter of the products rejected
    assert (streams.bounded(trees, np.full(5, big)).tolist()
            == [rng.integers(0, big, size=5).tolist() for rng in want_rngs])


_BOUNDS = st.one_of(st.just(1), st.integers(2, 60), st.integers(2**31 + 1, 2**32 - 1))


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1),
       calls=st.lists(st.tuples(st.lists(_BOUNDS, max_size=9),
                                st.sets(st.integers(0, 2), min_size=1)), max_size=8))
def test_bounded_draws_equal_successive_integers_calls(seed, calls):
    """``_TreeStreams.bounded`` draws what successive ``integers(0, highs)``
    calls draw on each tree's own stream: over odd and even counts, so a
    spare half carries from call to call; over a bound of 1, which takes
    nothing; and over bounds in (2^31, 2^32), where about half of the
    products are rejected, so trees with and without a spare half meet in
    one call.  Each call draws for a subset of the trees."""
    streams = classifiers._TreeStreams(RngStream(seed), 3)
    want_rngs = RngStream(seed).spawn(3)
    for highs, trees in calls:
        highs, trees = np.array(highs, dtype=np.int64), np.array(sorted(trees))
        got = streams.bounded(trees, highs)
        assert got.dtype == np.int64 and got.shape == (len(trees), len(highs))
        assert got.tolist() == [want_rngs[t].integers(0, highs).tolist() for t in trees]


@settings(max_examples=25)
@given(entropy=st.integers(0, 2**128 - 1), key=st.lists(st.integers(0, 2**40), max_size=3),
       pool_size=st.sampled_from([4, 8]), n=st.integers(1, 5))
def test_seed_words_equal_generate_state(entropy, key, pool_size, n):
    """The seed words hashed from the kids' pools at once are each kid's
    ``generate_state(4, np.uint64)``, for entropy of several pool words and
    nested spawn keys."""
    kids = np.random.SeedSequence(entropy, spawn_key=key, pool_size=pool_size).spawn(n)
    want = np.array([kid.generate_state(4, np.uint64) for kid in kids])
    got = classifiers._seed_words(kids)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_seed_words_of_another_seed_sequence_class():
    """Kids of a SeedSequence subclass are seeded by their own
    ``generate_state``, as ``Generator.spawn`` seeds them."""

    class Reversed(np.random.SeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return super().generate_state(n_words, dtype)[::-1].copy()

    kids = Reversed(7).spawn(3)
    want = np.array([kid.generate_state(4, np.uint64) for kid in kids])
    assert classifiers._seed_words(kids).tobytes() == want.tobytes()


def test_tree_streams_are_the_spawned_streams():
    """Tree t's stream is the raw PCG64 output of ``Generator.spawn``'s t-th
    child, and the parent's seed sequence has spawned as many children."""
    parent, native = RngStream(3), RngStream(3)
    parent.spawn(2)
    native.spawn(2)
    streams = classifiers._TreeStreams(parent, 4)
    kids = native.spawn(4)
    assert [bits.random_raw(6).tolist() for bits in streams.bits] == [
        kid.bit_generator.random_raw(6).tolist() for kid in kids]
    assert parent.bit_generator.seed_seq.n_children_spawned == 6


def test_non_pcg64_parent_grows_the_pcg64_parent_forest():
    """The tree streams are PCG64 whatever the parent's bit generator, so an
    MT19937 parent over a seed sequence grows the forest a PCG64 parent over
    the same seed sequence grows, and grows it again on a repeat fit."""
    X, y = _workload_forest_data()

    def fit(bit_generator):
        rng = np.random.Generator(bit_generator(np.random.SeedSequence(5)))
        return rf_fit(X, y, n_trees=20, rng=rng)

    want = fit(np.random.PCG64)
    for got in (fit(np.random.MT19937), fit(np.random.MT19937)):
        for name in ("feature", "threshold", "left", "right", "counts"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_unspawnable_parent_rejected():
    """A parent whose seed sequence cannot spawn is a TypeError, as for
    ``Generator.spawn``."""

    class Fixed(np.random.bit_generator.ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return np.arange(n_words, dtype=dtype)

    X, y = _workload_forest_data()
    rng = np.random.Generator(np.random.PCG64(Fixed()))
    with pytest.raises(TypeError):
        rng.spawn(2)
    with pytest.raises(TypeError):
        rf_fit(X, y, n_trees=2, rng=rng)


def test_rejected_draw_forest_equals_repeat_row_grower(monkeypatch):
    """At d = 12,000 (m = 110) a few tree blocks in a thousand hold a
    rejected product; with this seed one tree's does, and the forest is
    still the bytes of the reference grower's native draws."""
    redo = classifiers._TreeStreams._redo
    redone = []

    def spy(self, t, *args):
        redone.append(t)
        return redo(self, t, *args)

    monkeypatch.setattr(classifiers._TreeStreams, "_redo", spy)
    rng = RngStream(32)
    X = np.round(rng.normal(size=(24, 12000)), 1)
    y = rng.integers(0, 3, size=24)
    got = rf_fit(X, y, n_trees=10, rng=RngStream(33))
    assert redone
    want = reference.rf_fit(X, y, n_trees=10, rng=RngStream(33))
    for name in ("roots", "feature", "threshold", "left", "right", "counts", "classes"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


@settings(max_examples=25)
@given(n=st.integers(1, 120), d=st.sampled_from([1, 3, 16, 40]), k=st.sampled_from([2, 5, 8, 33]),
       n_trees=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_forest_equals_repeat_row_grower(n, d, k, n_trees, seed):
    """Every node array and the probabilities are the bytes of the grower
    whose nodes hold their bootstrap samples with repeats.  Values rounded
    to one decimal tie often; column 1 repeats column 0 and column 2 is
    constant."""
    rng = RngStream(seed)
    X = np.round(rng.normal(size=(n, d)), 1)
    if d >= 3:
        X[:, 1] = X[:, 0]
        X[:, 2] = 0.5
    y = rng.integers(0, k, size=n)
    got = rf_fit(X, y, n_trees=n_trees, rng=RngStream(seed + 1))
    want = reference.rf_fit(X, y, n_trees=n_trees, rng=RngStream(seed + 1))
    for name in ("roots", "feature", "threshold", "left", "right", "counts", "classes"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    rows = np.vstack([X, np.round(rng.normal(size=(20, d)), 1)])
    assert rf_predict_proba(got, rows).tobytes() == rf_predict_proba(want, rows).tobytes()


@pytest.mark.parametrize("budget", [None, 1 << 13])
def test_forest_search_is_batched_within_the_block_budget(monkeypatch, budget):
    X, y = _workload_forest_data()
    unchunked = [_preorder(tree) for tree in rf_fit(X, y, n_trees=100, rng=RngStream(13)).trees]
    if budget is not None:
        monkeypatch.setattr(classifiers, "_SEARCH_BLOCK", budget)
    search = classifiers._split_search
    blocks = []

    def spy(X, onehot, rows, counts, features):  # rows: each node's distinct rows, padded
        blocks.append(rows.shape[0] * features.shape[1] * rows.shape[1] * onehot.shape[1])
        return search(X, onehot, rows, counts, features)

    monkeypatch.setattr(classifiers, "_split_search", spy)
    trees = [_preorder(tree) for tree in rf_fit(X, y, n_trees=100, rng=RngStream(13)).trees]
    assert trees == unchunked
    assert max(blocks) <= classifiers._SEARCH_BLOCK
    if budget is None:
        split_nodes = sum(f is not None for tree in trees for f, _, _ in tree)
        assert len(blocks) < split_nodes / 10
        # nodes packed by size: power-of-two size classes took 75 searches
        assert len(blocks) <= 37


class TestDispatch:
    def test_fit_classifier_names(self):
        X = np.array([[-1.0], [1.0], [-2.0], [2.0]])
        y = np.array(["a", "b", "a", "b"])
        assert isinstance(fit_classifier("lr", X, y), LogisticModel)
        assert isinstance(fit_classifier("rf", X, y, rng=RngStream(0)), ForestModel)
        with pytest.raises(ConfigError):
            fit_classifier("svm", X, y)
