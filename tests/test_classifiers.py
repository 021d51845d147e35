import numpy as np
import pytest

from pathae.classifiers import (
    ForestModel,
    _best_split,
    LogisticModel,
    fit_classifier,
    lr_data_loss,
    lr_fit,
    lr_predict_proba,
    predict_labels,
    rf_fit,
    rf_predict_proba,
    softmax_rows,
)
from pathae.errors import ConfigError, DataError, ShapeError
from pathae.ndcore import RngStream


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

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            lr_fit(np.ones((3, 1)), np.array(["a", "a", "a"]))

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


class TestDispatch:
    def test_fit_classifier_names(self):
        X = np.array([[-1.0], [1.0], [-2.0], [2.0]])
        y = np.array(["a", "b", "a", "b"])
        assert isinstance(fit_classifier("lr", X, y), LogisticModel)
        assert isinstance(fit_classifier("rf", X, y, rng=RngStream(0)), ForestModel)
        with pytest.raises(ConfigError):
            fit_classifier("svm", X, y)
