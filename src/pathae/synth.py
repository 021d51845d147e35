"""Synthetic pathway-structured expression fixtures.

Latent class-dependent factors load onto contiguous pathway gene blocks
(plus weaker loadings on background genes outside every pathway), then
Gaussian noise is added.  The result is desk-scale data where pathway
models have real signal to find, so the whole pipeline can run end-to-end
without any external downloads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_open
from .dataio import ExpressionTable, LabelTable, PathwaySet, Scale, SurvivalTable
from .ndcore import RngStream, as_stream


@dataclass
class SyntheticData:
    train: ExpressionTable
    test: ExpressionTable
    train_labels: np.ndarray
    test_labels: np.ndarray
    labels: LabelTable
    survival: SurvivalTable
    pathways: PathwaySet
    factors_train: np.ndarray
    factors_test: np.ndarray


def _balanced_labels(n, classes, rng: RngStream) -> np.ndarray:
    reps = int(np.ceil(n / len(classes)))
    y = np.tile(np.arange(len(classes)), reps)[:n]
    y = y[rng.permutation(n)]
    return np.asarray([classes[i] for i in y])


def make_synthetic(
    n_classes: int = 5,
    n_factors: int = 8,
    n_pathways: int = 20,
    n_genes: int = 400,
    n_background: int = 150,
    n_train: int = 600,
    n_test: int = 400,
    noise_sd: float = 0.3,
    baseline: float = 8.0,
    seed: int = 0,
) -> SyntheticData:
    """Generate train/test expression tables, labels, survival records and a
    pathway set with block-structured factor loadings."""
    if n_background >= n_genes:
        raise ValueError("n_background must be smaller than n_genes")
    rng = as_stream(seed)
    classes = [f"class{c}" for c in range(n_classes)]
    gene_names = [f"G{g:04d}" for g in range(n_genes)]

    n_pw_genes = n_genes - n_background
    block_sizes = np.full(n_pathways, n_pw_genes // n_pathways)
    block_sizes[: n_pw_genes % n_pathways] += 1
    starts = np.concatenate([[0], np.cumsum(block_sizes)[:-1]])

    pathways = []
    loadings = np.zeros((n_factors, n_genes))
    for j in range(n_pathways):
        members = list(range(starts[j], starts[j] + block_sizes[j]))
        pathways.append((f"PATHWAY_{j:02d}", [gene_names[g] for g in members]))
        signature = rng.normal(size=n_factors)
        signature *= 1.5 / np.linalg.norm(signature)
        for g in members:
            gain = 0.7 + 0.6 * rng.uniform()
            loadings[:, g] = signature * gain + rng.normal(size=n_factors) * 0.15
    for g in range(n_pw_genes, n_genes):
        loadings[:, g] = rng.normal(size=n_factors) * 0.5

    class_means = rng.normal(size=(n_classes, n_factors)) * 1.6

    def sample_cohort(n, prefix):
        y = _balanced_labels(n, classes, rng)
        codes = np.asarray([classes.index(v) for v in y])
        factors = class_means[codes] + rng.normal(size=(n, n_factors)) * 0.6
        x = baseline + factors @ loadings + rng.normal(size=(n, n_genes)) * noise_sd
        x = np.maximum(x, 0.0)
        ids = [f"{prefix}{i:04d}" for i in range(n)]
        table = ExpressionTable(ids, list(gene_names), x, Scale("log2", 1.0))
        return table, y, factors

    train, y_train, f_train = sample_cohort(n_train, "TR")
    test, y_test, f_test = sample_cohort(n_test, "TE")

    label_map = dict(zip(train.sample_ids, y_train.tolist()))
    label_map.update(zip(test.sample_ids, y_test.tolist()))
    labels = LabelTable(label_map, vocabulary=sorted(classes))

    # class-dependent hazards give the survival tooling something to find
    records = {}
    for sid, cls in label_map.items():
        code = classes.index(cls)
        scale = 500.0 + 350.0 * code
        t_event = rng.exponential(scale)
        t_censor = rng.uniform(low=200.0, high=2400.0)
        if t_event <= t_censor:
            records[sid] = (float(t_event), True)
        else:
            records[sid] = (float(t_censor), False)
    survival = SurvivalTable(records)

    return SyntheticData(
        train=train,
        test=test,
        train_labels=y_train,
        test_labels=y_test,
        labels=labels,
        survival=survival,
        pathways=PathwaySet(pathways),
        factors_train=f_train,
        factors_test=f_test,
    )


def _write_expression(table: ExpressionTable, path):
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write("sample_id\t" + "\t".join(table.gene_names) + "\n")
        for i, sid in enumerate(table.sample_ids):
            row = "\t".join(repr(float(v)) for v in table.values[i])
            fh.write(f"{sid}\t{row}\n")


def write_fixture(out_dir, data: SyntheticData) -> dict:
    """Write the fixture as files the loaders understand; returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "train_expression": os.path.join(out_dir, "train_expression.tsv"),
        "test_expression": os.path.join(out_dir, "test_expression.tsv"),
        "labels": os.path.join(out_dir, "labels.tsv"),
        "survival": os.path.join(out_dir, "survival.tsv"),
        "pathways": os.path.join(out_dir, "pathways.gmt"),
    }
    _write_expression(data.train, paths["train_expression"])
    _write_expression(data.test, paths["test_expression"])
    with atomic_open(paths["labels"], "w", encoding="utf-8") as fh:
        fh.write("sample_id\tsubtype\n")
        for sid, lab in data.labels.labels.items():
            fh.write(f"{sid}\t{lab}\n")
    with atomic_open(paths["survival"], "w", encoding="utf-8") as fh:
        fh.write("sample_id\ttime\tevent\n")
        for sid, (t, e) in data.survival.records.items():
            fh.write(f"{sid}\t{t}\t{1 if e else 0}\n")
    with atomic_open(paths["pathways"], "w", encoding="utf-8") as fh:
        for name, genes in data.pathways.pathways:
            fh.write(name + "\tsynthetic\t" + "\t".join(genes) + "\n")
    return paths
