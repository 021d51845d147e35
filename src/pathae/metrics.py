"""Evaluation metrics and statistics: confusion metrics, macro one-vs-rest
ROC AUC, Wilcoxon rank-sum, binned mutual information, median/IQR.

Mutual information is computed for every column of a matrix at once: one
column-wise sort gives all midranks, one ``bincount`` all joint tables and
one expression all log terms; only each column's final sum is its own.

All functions are pure; the rank-sum test switches to exact enumeration for
small pooled sizes so tests can pin closed-form p-values.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from itertools import combinations

import numpy as np

from .errors import DataError


@dataclass
class MetricsReport:
    """One evaluation run's worth of numbers (a single table row)."""

    accuracy: float = float("nan")
    precision: float = float("nan")
    recall: float = float("nan")
    f1: float = float("nan")
    roc_auc: float = float("nan")
    test_mse: float = float("nan")
    param_count: int = 0
    seed: int = 0
    diverged: bool = False

    METRIC_NAMES = ("accuracy", "precision", "recall", "f1", "roc_auc", "test_mse")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsReport":
        return cls(**d)


def tie_groups(values):
    """Distinct values in ascending order, each value's group index, the
    group sizes and each group's 1-based midrank. NaN is a DataError."""
    values = np.asarray(values, dtype=np.float64)
    if np.isnan(values).any():
        raise DataError("cannot rank NaN values")
    uniq, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return uniq, inverse, counts, np.cumsum(counts) - (counts - 1) / 2.0


def _midranks(values) -> np.ndarray:
    """1-based ranks with ties averaged."""
    _, inverse, _, midrank = tie_groups(values)
    return midrank[inverse]


def confusion_metrics(y_true, y_pred, vocabulary=None) -> dict:
    """Accuracy plus unweighted macro precision/recall/F1; per-class values
    with an empty denominator count as 0."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if len(y_true) != len(y_pred):
        raise DataError(f"confusion_metrics: {len(y_true)} vs {len(y_pred)} labels")
    if len(y_true) == 0:
        raise DataError("confusion_metrics: empty input")
    if vocabulary is None:
        vocabulary = sorted(set(y_true.tolist()) | set(y_pred.tolist()))
    precisions, recalls, f1s = [], [], []
    for c in vocabulary:
        tp = float(np.sum((y_true == c) & (y_pred == c)))
        fp = float(np.sum((y_true != c) & (y_pred == c)))
        fn = float(np.sum((y_true == c) & (y_pred != c)))
        p = tp / (tp + fp) if tp + fp > 0 else 0.0
        r = tp / (tp + fn) if tp + fn > 0 else 0.0
        f = 2 * p * r / (p + r) if p + r > 0 else 0.0
        precisions.append(p)
        recalls.append(r)
        f1s.append(f)
    return {
        "accuracy": float(np.mean(y_true == y_pred)),
        "precision": float(np.mean(precisions)),
        "recall": float(np.mean(recalls)),
        "f1": float(np.mean(f1s)),
    }


def _auc_binary(pos_scores, neg_scores) -> float:
    """Midrank AUC: ties between a positive and a negative count one half."""
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    ranks = _midranks(np.concatenate([pos, neg]))
    r_pos = ranks[: len(pos)].sum()
    return float((r_pos - len(pos) * (len(pos) + 1) / 2.0) / (len(pos) * len(neg)))


def roc_auc_macro(y_true, scores, vocabulary=None) -> float:
    """Unweighted mean of per-class one-vs-rest AUCs.

    Classes with no positives or no negatives are skipped with a warning;
    if every class is skipped this raises DataError.
    """
    y_true = np.asarray(y_true)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim == 1:
        scores = np.column_stack([1.0 - scores, scores])
    if vocabulary is None:
        vocabulary = sorted(set(y_true.tolist()))
    if scores.shape[1] != len(vocabulary):
        raise DataError(
            f"roc_auc_macro: {scores.shape[1]} score columns for {len(vocabulary)} classes"
        )
    aucs = []
    for j, c in enumerate(vocabulary):
        is_pos = y_true == c
        n_pos = int(is_pos.sum())
        n_neg = len(y_true) - n_pos
        if n_pos == 0 or n_neg == 0:
            warnings.warn(f"roc_auc_macro: class {c!r} unscorable (skipped)", stacklevel=2)
            continue
        aucs.append(_auc_binary(scores[is_pos, j], scores[~is_pos, j]))
    if not aucs:
        raise DataError("roc_auc_macro: no scorable class")
    return float(np.mean(aucs))


def _norm_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def wilcoxon_rank_sum(a, b, exact_threshold: int = 12):
    """Two-sided rank-sum test. Returns (U statistic of group a, p-value).

    Exact enumeration over all rank splits when len(a)+len(b) is at most
    ``exact_threshold``; otherwise a normal approximation with tie and
    continuity corrections.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise DataError("wilcoxon_rank_sum: empty group")
    na, nb = len(a), len(b)
    _, inverse, tie_counts, midrank = tie_groups(np.concatenate([a, b]))
    ranks = midrank[inverse]
    w_a = float(ranks[:na].sum())
    u_a = w_a - na * (na + 1) / 2.0

    n = na + nb
    if n <= exact_threshold:
        sums = np.array([sum(ranks[list(c)]) for c in combinations(range(n), na)])
        p_le = float(np.mean(sums <= w_a + 1e-12))
        p_ge = float(np.mean(sums >= w_a - 1e-12))
        p = min(1.0, 2.0 * min(p_le, p_ge))
        return u_a, p

    mean_u = na * nb / 2.0
    tie_term = float(np.sum(tie_counts**3 - tie_counts)) / (n * (n - 1))
    var_u = na * nb / 12.0 * ((n + 1) - tie_term)
    if var_u <= 0:
        return u_a, 1.0
    z = (abs(u_a - mean_u) - 0.5) / math.sqrt(var_u)
    p = min(1.0, 2.0 * _norm_sf(max(z, 0.0)))
    return u_a, p


def _row_midranks0(rows: np.ndarray):
    """0-based midranks within every row, in each row's sorted order, and
    that order. Midranks are exact halves of small integers, so they carry
    the same bits as ``_midranks(row) - 1``.  Temporaries are reused in
    place, so the peak stays near three row-sized arrays."""
    n = rows.shape[1]
    order = np.argsort(rows, axis=1)
    ranked = np.take_along_axis(rows, order, axis=1)
    edge = np.ones(rows.shape, dtype=bool)  # first of its tie group
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=edge[:, 1:])
    del ranked
    pos = np.arange(n)
    first = np.maximum.accumulate(np.where(edge, pos, 0), axis=1)
    edge[:, :-1] = edge[:, 1:].copy()  # now: last of its tie group
    edge[:, -1] = True
    last = np.where(edge, pos, n)[:, ::-1]
    np.minimum.accumulate(last, axis=1, out=last)
    first += last[:, ::-1]  # first plus last position of each tie group
    del last
    return first / 2.0, order


def mutual_information_columns(features, labels, bins: int = 8) -> np.ndarray:
    """Plug-in MI (nats) between each column of ``features`` (samples x
    columns), binned by equal frequency, and discrete labels. Binning uses
    midranks only, so any strictly monotone transform of a column leaves
    its value unchanged.

    All columns share one sort, one joint-count ``bincount`` and one log;
    each column's terms are then summed on their own, so every value equals
    the one-column estimate bit for bit.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    n, p = features.shape
    if n < 2:
        raise DataError("mutual_information: need at least 2 samples")
    if len(labels) != n:
        raise DataError(f"mutual_information: {n} feature values vs {len(labels)} labels")
    _, label_codes = np.unique(labels, return_inverse=True)
    k = label_codes.max() + 1
    if k < 2:
        warnings.warn("mutual_information: constant labels", stacklevel=2)
        return np.zeros(p)
    if np.isnan(features).any():
        raise DataError("cannot rank NaN values")
    bins_eff = max(1, min(bins, n))
    rank0, order = _row_midranks0(np.ascontiguousarray(features.T))
    rank0 *= bins_eff
    rank0 /= n
    cells = rank0.astype(int)
    del rank0
    np.minimum(cells, bins_eff - 1, out=cells)
    cells += np.arange(p)[:, None] * bins_eff
    cells *= k
    cells += label_codes[order]
    del order
    joint = np.bincount(cells.ravel(), minlength=p * bins_eff * k).reshape(p, bins_eff, k) / n
    pf = joint.sum(axis=2, keepdims=True)
    pl = joint.sum(axis=1, keepdims=True)
    nz = joint > 0
    terms = joint[nz] * np.log(joint[nz] / (pf * pl)[nz])
    # a sum per column keeps the one-column estimate's pairwise order
    counts = nz.sum(axis=(1, 2))
    starts = np.cumsum(counts) - counts
    return np.array([max(float(terms[s:s + c].sum()), 0.0)
                     for s, c in zip(starts.tolist(), counts.tolist())])


def mutual_information(feature, labels, bins: int = 8) -> float:
    """``mutual_information_columns`` for one feature vector."""
    feature = np.asarray(feature, dtype=np.float64)
    return float(mutual_information_columns(feature[:, None], labels, bins)[0])


def median_iqr(values):
    """(median, Q3 - Q1) with linear-interpolation quantiles."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise DataError("median_iqr: empty input")
    q1, q3 = np.percentile(values, [25.0, 75.0])
    return float(np.median(values)), float(q3 - q1)
