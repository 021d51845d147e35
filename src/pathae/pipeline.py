"""Experiment orchestration: stratified k-fold grid search, repeated
external validation, representation extraction and report aggregation.

Grid search and external validation take the same ``ArchitectureConfig``;
a grid cell is that architecture with only the grid's axes replaced.

A grid fold and a validation repeat are both runs of one evaluation unit,
``_evaluate``: train a model, embed the data, fit a classifier and score
it.  Each unit draws from its own RNG stream, derived from the master seed,
and the units run serially, one after another.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from . import models
from .classifiers import CLASSIFIERS, fit_classifier, predict_proba
from .dataio import ExpressionTable, fit_normalizer, apply_normalizer
from .errors import ConfigError, DataError, TrainingDiverged
from .metrics import MetricsReport, confusion_metrics, median_iqr, roc_auc_macro, wilcoxon_rank_sum
from .models import ArchitectureConfig, Model, TrainConfig, build_model, count_params, fit
from .ndcore import RngStream, as_stream

log = logging.getLogger(__name__)

SPACES = ("z", "mu", "a")

REPORT_CSV_COLUMNS = [
    "Model", "schedule", "space", "classifier", "#Param",
    "Test MSE", "Accuracy", "Precision", "Recall", "F1", "ROC AUC",
]


def hidden_space(kind: str) -> str:
    """The representation used for internal validation: mu for variational
    kinds, z otherwise."""
    return "mu" if models.is_variational(kind) else "z"


def check_space(kind: str, space: str):
    """Raise ConfigError unless ``kind`` has the representation ``space``:
    a for pathway kinds, mu for variational kinds, z for deterministic kinds."""
    if space not in SPACES:
        raise ConfigError(f"unknown space {space!r}; expected one of {SPACES}")
    if space == "a" and not models.is_pathway_kind(kind):
        raise ConfigError(f"space 'a' unavailable for {kind}")
    if space == "mu" and not models.is_variational(kind):
        raise ConfigError(f"space 'mu' unavailable for {kind}")
    if space == "z" and models.is_variational(kind):
        raise ConfigError(f"space 'z' is stochastic for {kind}; use 'mu'")


def extract_representation(model: Model, X, space: str) -> np.ndarray:
    """Deterministic inference representation: z, mu, or the pathway
    activity vector a. The model runs only as far as that stage."""
    check_space(model.arch.kind, space)
    if models.is_pathway_kind(model.arch.kind):
        X = models.pathway_activity_forward(model, X)
        if space == "a":
            return X
    out = models.encode(model, X)
    return out[0] if space == "mu" else out


def _evaluate(arch, masks, X_fit, y_fit, X_eval, y_eval, train_config, classifier, space,
              stream, where, seed=0):
    """One evaluation unit: train ``arch`` on X_fit, fit ``classifier`` on
    the ``space`` representation of X_fit and score it on X_eval.  Every draw
    comes from ``stream``.  A diverged fit gives a report marked diverged and
    logs one warning naming ``where``."""
    model = build_model(arch, X_fit.shape[1], masks, stream)
    n_params = count_params(model)
    try:
        fit(model, X_fit, train_config, stream)
    except TrainingDiverged as exc:
        log.warning("%s diverged: %s", where, exc)
        return MetricsReport(param_count=n_params, seed=seed, diverged=True)
    rep_fit = extract_representation(model, X_fit, space)
    eval_outs = models.forward(model, X_eval, training=False)
    clf = fit_classifier(classifier, rep_fit, y_fit, stream)
    scores = predict_proba(clf, getattr(eval_outs, space))
    y_pred = clf.classes[np.argmax(scores, axis=1)]  # as predict_labels
    cm = confusion_metrics(y_eval, y_pred, vocabulary=list(clf.classes))
    mse, _ = models.mse_loss(X_eval, eval_outs.x_hat)
    return MetricsReport(
        accuracy=cm["accuracy"],
        precision=cm["precision"],
        recall=cm["recall"],
        f1=cm["f1"],
        roc_auc=roc_auc_macro(y_eval, scores, vocabulary=list(clf.classes)),
        test_mse=mse,
        param_count=n_params,
        seed=seed,
        diverged=False,
    )


# ---------------------------------------------------------------------------
# grid search with stratified k-fold CV
# ---------------------------------------------------------------------------


@dataclass
class GridSpec:
    """Axes of the hyperparameter grid; inapplicable axes collapse for
    deterministic kinds (no beta/schedule) and dense kinds (no pathway
    hidden sizes)."""

    encoder_layer_sizes: list[list[int]]
    pathway_hidden_sizes: list[list[int]] = field(default_factory=lambda: [[]])
    betas: list[float] = field(default_factory=lambda: [1.0])
    schedules: list[str] = field(default_factory=lambda: ["step"])
    classifiers: list[str] = field(default_factory=lambda: ["lr"])

    def __post_init__(self):
        for axis, known in (("schedules", models.SCHEDULES), ("classifiers", CLASSIFIERS)):
            unknown = [v for v in getattr(self, axis) if v not in known]
            if unknown:
                raise ConfigError(f"[grid] {axis}: unknown {unknown}; expected some of {known}")

    def cells(self, arch: ArchitectureConfig):
        """[(cell, cell_arch)] for every grid cell, in grid order with the
        classifier innermost.  ``cell_arch`` is ``arch`` with the grid's axes
        (encoder and pathway hidden sizes, beta, schedule) replaced and every
        other field, such as dropout_rate, t_start, t_end and
        decoder_layer_sizes, kept.  An axes combination the architecture
        rejects is a ConfigError naming [grid] and the cell."""
        pw = self.pathway_hidden_sizes if models.is_pathway_kind(arch.kind) else [[]]
        variational = models.is_variational(arch.kind)
        betas = self.betas if variational else [0.0]
        scheds = self.schedules if variational else ["none"]
        out = []
        for e, p, b, s in product(self.encoder_layer_sizes, pw, betas, scheds):
            axes = {"encoder_layer_sizes": list(e), "pathway_hidden_sizes": list(p),
                    "beta": b, "schedule": s}
            try:
                cell_arch = replace(arch, **axes)
            except ConfigError as exc:
                shown = ", ".join(f"{k}={v}" for k, v in axes.items())
                raise ConfigError(f"[grid] cell ({shown}): {exc}") from None
            out += [({**axes, "classifier": c}, cell_arch) for c in self.classifiers]
        if not out:
            raise ConfigError("empty hyperparameter grid")
        return out


def stratified_folds(y, k: int, rng) -> list[tuple[np.ndarray, np.ndarray]]:
    """Partition into k folds preserving class balance. Every class needs
    at least k members."""
    y = np.asarray(y)
    rng = as_stream(rng)
    n = len(y)
    assignment = np.empty(n, dtype=int)
    offset = 0
    for c in sorted(set(y.tolist())):
        members = np.nonzero(y == c)[0]
        if len(members) < k:
            raise DataError(f"class {c!r} has {len(members)} members, needs >= {k} for {k} folds")
        shuffled = members[rng.permutation(len(members))]
        for pos, idx in enumerate(shuffled):
            assignment[idx] = (pos + offset) % k
        offset += len(members)
    folds = []
    for f in range(k):
        val = np.nonzero(assignment == f)[0]
        train = np.nonzero(assignment != f)[0]
        folds.append((train, val))
    return folds


def cross_validate(
    X,
    y,
    arch: ArchitectureConfig,
    grid: GridSpec,
    train_config: TrainConfig,
    masks=None,
    folds: int = 4,
    rng=None,
):
    """Grid search scored by mean fold ROC AUC on the hidden representation.

    Each cell evaluates its ``GridSpec.cells`` architecture on every fold.
    Returns (best_cell, rows) where rows carry one dict per cell with its
    mean AUC and parameter count, in grid order. Ties prefer fewer
    parameters, then earlier grid order.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    rng = as_stream(rng)
    cells = grid.cells(arch)
    fold_splits = stratified_folds(y, folds, rng)
    space = hidden_space(arch.kind)
    rows = []
    for ci, ((cell, cell_arch), cell_stream) in enumerate(zip(cells, rng.spawn(len(cells)))):
        reports = [
            _evaluate(cell_arch, masks, X[fit_idx], y[fit_idx], X[val_idx], y[val_idx],
                      train_config, cell["classifier"], space, fstream, f"grid cell {ci}")
            for (fit_idx, val_idx), fstream in zip(fold_splits, cell_stream.spawn(len(fold_splits)))
        ]
        mean_auc = float(np.mean([r.roc_auc for r in reports]))  # NaN if any fold diverged
        rows.append({**cell, "mean_roc_auc": mean_auc, "param_count": reports[0].param_count,
                     "cell_index": ci})

    scored = [r for r in rows if np.isfinite(r["mean_roc_auc"])]
    if not scored:
        raise DataError("cross_validate: every grid cell diverged")
    best = max(scored, key=lambda r: (r["mean_roc_auc"], -r["param_count"], -r["cell_index"]))
    return best, rows


# ---------------------------------------------------------------------------
# external validation
# ---------------------------------------------------------------------------


@dataclass
class RunReport:
    """Per-repeat metrics plus median/IQR aggregates for one configuration."""

    model_kind: str
    schedule: str
    space: str
    classifier: str
    repeats: list[MetricsReport]
    seeds: list[int]
    config: dict = field(default_factory=dict)

    @property
    def n_diverged(self) -> int:
        return sum(1 for r in self.repeats if r.diverged)

    def metric_values(self, metric: str) -> list[float]:
        if metric not in MetricsReport.METRIC_NAMES:
            raise ConfigError(f"unknown metric {metric!r}; expected {MetricsReport.METRIC_NAMES}")
        return [getattr(r, metric) for r in self.repeats if not r.diverged]

    def aggregates(self) -> dict:
        out = {}
        for m in MetricsReport.METRIC_NAMES:
            vals = self.metric_values(m)
            if vals:
                med, iqr = median_iqr(vals)
            else:
                med, iqr = float("nan"), float("nan")
            out[m] = {"median": med, "iqr": iqr}
        return out

    def param_count(self) -> int:
        counts = [r.param_count for r in self.repeats if not r.diverged]
        return int(counts[0]) if counts else 0

    def to_json(self) -> str:
        doc = {
            "model": self.model_kind,
            "schedule": self.schedule,
            "space": self.space,
            "classifier": self.classifier,
            "config": self.config,
            "seeds": self.seeds,
            "n_diverged": self.n_diverged,
            "repeats": [r.to_dict() for r in self.repeats],
            "aggregates": self.aggregates(),
        }
        return json.dumps(doc, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        doc = json.loads(text)
        return cls(
            model_kind=doc["model"],
            schedule=doc["schedule"],
            space=doc["space"],
            classifier=doc["classifier"],
            repeats=[MetricsReport.from_dict(r) for r in doc["repeats"]],
            seeds=doc["seeds"],
            config=doc.get("config", {}),
        )

    def csv_row(self) -> list[str]:
        agg = self.aggregates()

        def cell(m):
            a = agg[m]
            return f"{a['median']:.3f} ({a['iqr']:.3f})"

        return [
            self.model_kind,
            self.schedule,
            self.space,
            self.classifier,
            str(self.param_count()),
            cell("test_mse"),
            cell("accuracy"),
            cell("precision"),
            cell("recall"),
            cell("f1"),
            cell("roc_auc"),
        ]


def external_validate(
    train_table: ExpressionTable,
    train_labels,
    test_table: ExpressionTable,
    test_labels,
    arch: ArchitectureConfig,
    train_config: TrainConfig,
    classifier: str,
    space: str,
    masks=None,
    norm_kind: str = "zscore",
    log_offset: float = 1e-3,
    renormalize_test: bool = True,
    repeats: int = 16,
    base_seed: int = 0,
    threads: int = 1,
) -> RunReport:
    """Repeat r trains on the full training table with seed base_seed+r,
    fits the classifier on the chosen representation, and evaluates on the
    (re)normalized test table. Diverged repeats are recorded, not dropped.
    ``log_offset`` is the offset of the ``log_offset`` normalizer, for the
    training and the test table alike.  ``threads`` is ignored; it is kept
    only because perfbench's validate-rf-small workload still passes it.
    """
    if list(train_table.gene_names) != list(test_table.gene_names):
        raise DataError("external_validate: gene axes differ; intersect first")
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    norm = fit_normalizer(train_table, norm_kind, offset=log_offset)
    X_train = apply_normalizer(norm, train_table).values
    test_norm = (
        fit_normalizer(test_table, norm_kind, offset=log_offset) if renormalize_test else norm
    )
    X_test = apply_normalizer(test_norm, test_table).values
    y_train = np.asarray(train_labels)
    y_test = np.asarray(test_labels)

    seeds = [base_seed + r for r in range(repeats)]
    reps = [
        _evaluate(arch, masks, X_train, y_train, X_test, y_test, train_config, classifier, space,
                  RngStream(seed), f"repeat {r} (seed {seed})", seed)
        for r, seed in enumerate(seeds)
    ]
    return RunReport(
        model_kind=arch.kind,
        schedule=arch.schedule if models.is_variational(arch.kind) else "none",
        space=space,
        classifier=classifier,
        repeats=reps,
        seeds=seeds,
        config={
            "norm_kind": norm_kind,
            "renormalize_test": renormalize_test,
            "epochs": train_config.epochs,
            "learning_rate": train_config.learning_rate,
            "batch_size": train_config.batch_size,
            "encoder_layer_sizes": list(arch.encoder_layer_sizes),
            "pathway_hidden_sizes": list(arch.pathway_hidden_sizes),
            "beta": arch.beta,
            "t_start": arch.t_start,
            "t_end": arch.t_end,
            "dropout_rate": arch.dropout_rate,
        },
    )


def compare_runs(report_a: RunReport, report_b: RunReport, metric: str):
    """Two-sided Wilcoxon rank-sum over per-repeat metric values.

    Returns (p_value, direction) with direction 'a', 'b' or 'tie' by median.
    """
    va = report_a.metric_values(metric)
    vb = report_b.metric_values(metric)
    if len(va) < 2 or len(vb) < 2:
        raise DataError("compare_runs: both reports need >= 2 non-diverged repeats")
    _u, p = wilcoxon_rank_sum(va, vb)
    med_a, med_b = float(np.median(va)), float(np.median(vb))
    if med_a > med_b:
        direction = "a"
    elif med_b > med_a:
        direction = "b"
    else:
        direction = "tie"
    return p, direction
