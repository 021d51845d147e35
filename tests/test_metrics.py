import math
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pathae.errors import DataError
from pathae.metrics import (
    _auc_binary,
    _midranks,
    confusion_metrics,
    median_iqr,
    mutual_information,
    mutual_information_columns,
    roc_auc_macro,
    wilcoxon_rank_sum,
)
from pathae.ndcore import RngStream


def auc_pair_counting(y, scores_pos_col, positive):
    """Independent oracle: count positive-over-negative score pairs, ties
    worth one half."""
    pos = scores_pos_col[y == positive]
    neg = scores_pos_col[y != positive]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestConfusionMetrics:
    def test_perfect(self):
        out = confusion_metrics(["a", "b", "b"], ["a", "b", "b"])
        assert out == {"accuracy": 1.0, "precision": 1.0, "recall": 1.0, "f1": 1.0}

    def test_hand_confusion(self):
        out = confusion_metrics(["A", "A", "B", "B"], ["A", "B", "A", "B"])
        assert out["accuracy"] == 0.5
        assert out["f1"] == 0.5

    def test_never_predicted_class_counts_zero(self):
        out = confusion_metrics(["A", "B", "C"], ["A", "B", "B"], vocabulary=["A", "B", "C"])
        # class C: precision and recall both 0 by convention
        assert out["recall"] == pytest.approx((1.0 + 1.0 + 0.0) / 3.0)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            confusion_metrics([], [])


class TestRocAuc:
    def test_binary_hand_value(self):
        scores = np.array([0.1, 0.4, 0.35, 0.8])
        assert roc_auc_macro([0, 0, 1, 1], scores) == 0.75

    def test_perfect_ordering(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        assert roc_auc_macro([0, 0, 1, 1], scores) == 1.0

    def test_all_ties_half(self):
        scores = np.full(6, 0.5)
        assert roc_auc_macro([0, 1, 0, 1, 0, 1], scores) == 0.5

    def test_matches_pair_counting_oracle(self):
        rng = RngStream(101)
        for _ in range(200):
            n = int(rng.integers(4, 101))
            k = int(rng.integers(2, 5))
            y = rng.integers(0, k, size=n)
            while len(set(y.tolist())) < 2:
                y = rng.integers(0, k, size=n)
            # quantized scores so ties actually occur
            scores = np.round(rng.uniform(size=(n, k)), 2)
            vocab = sorted(set(y.tolist()))
            expected = np.mean(
                [auc_pair_counting(y, scores[:, vocab.index(c)], c)
                 for c in vocab
                 if 0 < np.sum(y == c) < n]
            )
            got = roc_auc_macro(y, scores[:, [vocab.index(c) for c in vocab]], vocabulary=vocab)
            assert got == expected

    def test_monotone_transform_invariance(self):
        rng = RngStream(7)
        y = rng.integers(0, 2, size=30)
        y[0], y[1] = 0, 1
        s = rng.uniform(size=30)
        a1 = roc_auc_macro(y, s)
        a2 = roc_auc_macro(y, np.exp(3.0 * s))
        assert a1 == a2

    def test_binary_complement_sums_to_one(self):
        rng = RngStream(8)
        y = np.array([0] * 10 + [1] * 10)
        s = rng.uniform(size=20)
        auc_pos = auc_pair_counting(y, s, 1)
        auc_swapped = auc_pair_counting(1 - y, s, 1)
        assert auc_pos + auc_swapped == pytest.approx(1.0)

    def test_unscorable_class_skipped(self):
        scores = np.array([[0.2, 0.5, 0.3], [0.6, 0.2, 0.2], [0.1, 0.1, 0.8]])
        with pytest.warns(UserWarning, match="unscorable"):
            value = roc_auc_macro(["a", "b", "a"], scores, vocabulary=["a", "b", "c"])
        assert 0.0 <= value <= 1.0

    def test_all_unscorable_is_error(self):
        with pytest.raises(DataError):
            with pytest.warns(UserWarning):
                roc_auc_macro(["a", "a"], np.array([[1.0], [0.5]]), vocabulary=["a"])


class TestWilcoxon:
    def test_disjoint_small_groups_exact(self):
        _u, p = wilcoxon_rank_sum([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert p == pytest.approx(0.1)

    def test_identical_multisets_p_one(self):
        _u, p = wilcoxon_rank_sum([1.0, 2.0, 5.0], [1.0, 2.0, 5.0])
        assert p == 1.0

    def test_symmetric_under_swap(self):
        a = [1.0, 3.0, 7.0, 2.0]
        b = [4.0, 6.0, 5.0]
        _, p_ab = wilcoxon_rank_sum(a, b)
        _, p_ba = wilcoxon_rank_sum(b, a)
        assert p_ab == p_ba

    def test_exact_matches_enumeration_oracle(self):
        rng = RngStream(21)
        for _ in range(20):
            na = int(rng.integers(2, 6))
            nb = int(rng.integers(2, 6))
            a = rng.normal(size=na)
            b = rng.normal(size=nb)
            _u, p = wilcoxon_rank_sum(a, b)
            # oracle: enumerate every split of the pooled sample
            pooled = np.concatenate([a, b])
            order = np.argsort(pooled)
            ranks = np.empty(len(pooled))
            ranks[order] = np.arange(1, len(pooled) + 1)
            w_obs = ranks[:na].sum()
            sums = [sum(ranks[list(c)]) for c in combinations(range(len(pooled)), na)]
            p_le = np.mean([s <= w_obs for s in sums])
            p_ge = np.mean([s >= w_obs for s in sums])
            expected = min(1.0, 2.0 * min(p_le, p_ge))
            assert p == pytest.approx(expected)

    def test_exact_and_normal_agree_on_tie_free(self):
        rng = RngStream(31)
        for _ in range(30):
            na = int(rng.integers(5, 7))
            nb = int(rng.integers(5, 7))
            if not 10 <= na + nb <= 12:
                continue
            a = rng.normal(size=na)
            b = rng.normal(size=nb) + rng.normal() * 0.5
            _, p_exact = wilcoxon_rank_sum(a, b)
            _, p_normal = wilcoxon_rank_sum(a, b, exact_threshold=0)
            assert abs(p_exact - p_normal) <= 0.03

    def test_empty_group_rejected(self):
        with pytest.raises(DataError):
            wilcoxon_rank_sum([], [1.0])


class TestMutualInformation:
    def test_constant_feature_zero(self):
        assert mutual_information([3.0] * 10, ["a", "b"] * 5) == 0.0

    def test_binary_feature_equals_label(self):
        feature = np.array([0.0, 1.0] * 50)
        labels = np.array(["lo", "hi"] * 50)
        assert mutual_information(feature, labels) == pytest.approx(math.log(2.0))

    def test_monotone_invariance(self):
        rng = RngStream(41)
        f = rng.normal(size=60)
        y = rng.integers(0, 3, size=60)
        m1 = mutual_information(f, y)
        m2 = mutual_information(np.exp(f) + 5.0, y)
        assert m1 == m2

    def test_bounds(self):
        rng = RngStream(42)
        for _ in range(30):
            n = int(rng.integers(4, 80))
            f = rng.normal(size=n)
            y = rng.integers(0, 3, size=n)
            if len(set(y.tolist())) < 2:
                continue
            mi = mutual_information(f, y)
            _, counts = np.unique(y, return_counts=True)
            h_label = -np.sum(counts / n * np.log(counts / n))
            assert 0.0 <= mi <= h_label + 1e-12

    def test_constant_labels_warn_zero(self):
        with pytest.warns(UserWarning):
            assert mutual_information([1.0, 2.0, 3.0], ["x", "x", "x"]) == 0.0


class TestMedianIqr:
    def test_even_length_median(self):
        med, _ = median_iqr([1.0, 2.0, 3.0, 4.0])
        assert med == 2.5

    def test_constant_iqr_zero(self):
        _, iqr = median_iqr([5.0] * 7)
        assert iqr == 0.0

    def test_interpolated_quartiles(self):
        _, iqr = median_iqr([1, 2, 3, 4, 5, 6, 7, 8])
        assert iqr == pytest.approx(3.5)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            median_iqr([])


def _reference_midranks(values):
    """The argsort scan the tie-group routine replaced: walk the sorted
    values and give each run of equal values the mean of its ranks."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _reference_mi(feature, labels, bins=8):
    """The per-sample joint-table loop the bincount replaced, on the
    reference midranks."""
    n = len(feature)
    bins_eff = max(1, min(bins, n))
    rank0 = _reference_midranks(feature) - 1.0
    binned = np.minimum((rank0 * bins_eff / n).astype(int), bins_eff - 1)
    _, label_codes = np.unique(labels, return_inverse=True)
    joint = np.zeros((bins_eff, label_codes.max() + 1))
    for bi, li in zip(binned, label_codes):
        joint[bi, li] += 1.0
    joint /= n
    pf = joint.sum(axis=1, keepdims=True)
    pl = joint.sum(axis=0, keepdims=True)
    nz = joint > 0
    return max(float(np.sum(joint[nz] * np.log(joint[nz] / (pf @ pl)[nz]))), 0.0)


def _reference_rank_sum_normal(a, b):
    """The normal-approximation rank-sum test with tie counts taken from
    the reference ranks' runs."""
    na, nb = len(a), len(b)
    n = na + nb
    pooled = np.concatenate([a, b])
    u_a = float(_reference_midranks(pooled)[:na].sum()) - na * (na + 1) / 2.0
    counts = np.array([np.sum(pooled == v) for v in sorted(set(pooled.tolist()))])
    tie_term = float(np.sum(counts**3 - counts)) / (n * (n - 1))
    var_u = na * nb / 12.0 * ((n + 1) - tie_term)
    if var_u <= 0:
        return u_a, 1.0
    z = (abs(u_a - na * nb / 2.0) - 0.5) / math.sqrt(var_u)
    return u_a, min(1.0, math.erfc(max(z, 0.0) / math.sqrt(2.0)))


# few distinct values, so most draws are tie-heavy; infinities rank too
TIE_VALUES = st.sampled_from([-math.inf, -2.5, -1.0, 0.0, 0.5, 1.0, 3.0, 1e300, math.inf])
tie_heavy = st.lists(TIE_VALUES, min_size=2, max_size=40).map(np.array)
LABELS = st.integers(0, 3)


class TestTieRanking:
    """Every rank-based statistic equals the scan and loop it replaced, bit
    for bit, on tie-heavy inputs."""

    @given(tie_heavy)
    def test_midranks_equal_scan(self, values):
        np.testing.assert_array_equal(_midranks(values), _reference_midranks(values))

    @given(tie_heavy, st.lists(LABELS, min_size=40, max_size=40), st.integers(1, 12))
    def test_mutual_information_equals_loop(self, feature, labels, bins):
        labels = np.array(labels[: len(feature)])
        if len(set(labels.tolist())) < 2:
            return
        assert mutual_information(feature, labels, bins) == _reference_mi(feature, labels, bins)

    @given(tie_heavy, st.integers(1, 39))
    def test_rank_sum_and_auc_equal_reference(self, pooled, split):
        a, b = pooled[:split], pooled[split:]
        if b.size == 0:
            return
        assert wilcoxon_rank_sum(a, b, exact_threshold=0) == _reference_rank_sum_normal(a, b)
        ranks = _reference_midranks(pooled)
        auc = (ranks[: len(a)].sum() - len(a) * (len(a) + 1) / 2.0) / (len(a) * len(b))
        assert _auc_binary(a, b) == float(auc)

    @pytest.mark.parametrize("call", [
        lambda v: _midranks(v),
        lambda v: mutual_information(v, [0, 1, 0, 1]),
        lambda v: wilcoxon_rank_sum(v[:2], v[2:]),
        lambda v: roc_auc_macro([0, 1, 0, 1], v),
    ])
    def test_nan_is_data_error(self, call):
        with pytest.raises(DataError, match="NaN"):
            call(np.array([0.5, math.nan, 1.0, 2.0]))


def _per_column_mutual_information(feature, labels, bins=8):
    """The one-column estimator the batched routine replaced, kept as its
    reference."""
    feature = np.asarray(feature, dtype=np.float64)
    labels = np.asarray(labels)
    n = len(feature)
    if n < 2:
        raise DataError("mutual_information: need at least 2 samples")
    if len(labels) != n:
        raise DataError(f"mutual_information: {n} feature values vs {len(labels)} labels")
    _, label_codes = np.unique(labels, return_inverse=True)
    k = label_codes.max() + 1
    if k < 2:
        warnings.warn("mutual_information: constant labels", stacklevel=2)
        return 0.0
    bins_eff = max(1, min(bins, n))
    rank0 = _midranks(feature) - 1.0
    binned = np.minimum((rank0 * bins_eff / n).astype(int), bins_eff - 1)
    joint = np.bincount(binned * k + label_codes, minlength=bins_eff * k).reshape(bins_eff, k) / n
    pf = joint.sum(axis=1, keepdims=True)
    pl = joint.sum(axis=0, keepdims=True)
    nz = joint > 0
    mi = float(np.sum(joint[nz] * np.log(joint[nz] / (pf @ pl)[nz])))
    return max(mi, 0.0)


# tie-heavy values, signed zeros and a continuous range; a column may also
# be made constant
COLUMN_VALUES = st.one_of(
    st.sampled_from([-0.0, 0.0, -1.0, 1.0, 2.5, 1e300, -math.inf, math.inf]),
    st.floats(-1e6, 1e6),
)


@st.composite
def mi_inputs(draw):
    n = draw(st.integers(2, 30))
    p = draw(st.integers(1, 8))
    columns = []
    for _ in range(p):
        if draw(st.booleans()):
            columns.append([draw(COLUMN_VALUES)] * n)
        else:
            columns.append(draw(st.lists(COLUMN_VALUES, min_size=n, max_size=n)))
    n_classes = draw(st.integers(2, 6))
    labels = draw(st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n))
    return np.array(columns).T, np.array(labels), draw(st.integers(1, 12))


class TestMutualInformationColumns:
    """The batched estimator equals the per-column one bit for bit."""

    @given(mi_inputs())
    def test_equals_per_column_reference(self, inputs):
        features, labels, bins = inputs
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # constant labels warn in both
            got = mutual_information_columns(features, labels, bins)
            want = [_per_column_mutual_information(col, labels, bins) for col in features.T]
            one = mutual_information(features[:, 0], labels, bins)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]
        assert one.hex() == want[0].hex()

    @given(mi_inputs(), st.data())
    def test_nan_in_any_column_is_data_error(self, inputs, data):
        features, labels, bins = inputs
        labels[:2] = [0, 1]
        i = data.draw(st.integers(0, features.shape[0] - 1))
        j = data.draw(st.integers(0, features.shape[1] - 1))
        features[i, j] = math.nan
        with pytest.raises(DataError, match="NaN"):
            mutual_information_columns(features, labels, bins)

    def test_constant_labels_warn_once_all_zero(self):
        features = RngStream(5).normal(size=(10, 4))
        with pytest.warns(UserWarning, match="constant labels") as record:
            mi = mutual_information_columns(features, ["x"] * 10)
        assert len(record) == 1
        np.testing.assert_array_equal(mi, np.zeros(4))
