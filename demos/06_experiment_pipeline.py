#!/usr/bin/env python3
"""The experiment protocol end to end as a library user: stratified k-fold
grid search on the training cohort, then repeated external validation on a
differently-scaled test cohort, with a significance comparison between two
configurations.

The same flow is available from the command line:
    pathae synth --out fixture/
    pathae gridsearch -c fixture/config.ini
    pathae validate -c fixture/config.ini
"""

from dataclasses import replace

from pathae.dataio import ExpressionTable, resolve_pathways
from pathae.models import ArchitectureConfig, TrainConfig
from pathae.ndcore import RngStream
from pathae.pipeline import (
    GridSpec,
    compare_runs,
    cross_validate,
    external_validate,
)
from pathae.synth import make_synthetic

data = make_synthetic(n_classes=3, n_factors=4, n_pathways=8, n_genes=100,
                      n_background=30, n_train=160, n_test=120, seed=23)
masks, _ = resolve_pathways(data.pathways, data.train.gene_names)

# simulate a test cohort measured on a different scale (external validation
# re-normalizes it on its own statistics by default)
shifted = ExpressionTable(
    data.test.sample_ids, data.test.gene_names,
    data.test.values * 2.5 + 4.0, data.test.scale,
)

# --- internal validation: pick hyperparameters by fold AUC --------------------
from pathae.dataio import apply_normalizer, fit_normalizer

X = apply_normalizer(fit_normalizer(data.train, "zscore"), data.train).values
grid = GridSpec(
    encoder_layer_sizes=[[6], [12, 6]],
    pathway_hidden_sizes=[[], [4]],
    classifiers=["lr"],
)
config = TrainConfig(epochs=120, learning_rate=5e-4, batch_size=32)
# each cell is this architecture with only the grid's axes replaced
base = ArchitectureConfig(kind="paae", encoder_layer_sizes=[6], dropout_rate=0.25)
best, rows = cross_validate(
    X, data.train_labels, base, grid, config, masks=masks, folds=4, rng=RngStream(41),
)
print("grid cells (mean fold AUC):")
for r in rows:
    marker = " <= winner" if r["cell_index"] == best["cell_index"] else ""
    print(f"  enc={r['encoder_layer_sizes']} pw={r['pathway_hidden_sizes']} "
          f"clf={r['classifier']}: {r['mean_roc_auc']:.3f} "
          f"({r['param_count']} params){marker}")

# --- external validation with the chosen cell --------------------------------
arch = replace(base, encoder_layer_sizes=best["encoder_layer_sizes"],
               pathway_hidden_sizes=best["pathway_hidden_sizes"])
report_a = external_validate(
    data.train, data.train_labels, shifted, data.test_labels,
    arch, config, classifier=best["classifier"], space="a", masks=masks,
    repeats=8, base_seed=100,
)
report_z = external_validate(
    data.train, data.train_labels, shifted, data.test_labels,
    arch, config, classifier=best["classifier"], space="z", masks=masks,
    repeats=8, base_seed=100,
)
for name, rep in (("a", report_a), ("z", report_z)):
    agg = rep.aggregates()
    print(f"\nspace '{name}': ROC AUC median {agg['roc_auc']['median']:.3f} "
          f"(IQR {agg['roc_auc']['iqr']:.3f}), "
          f"test MSE median {agg['test_mse']['median']:.3f}, "
          f"{rep.n_diverged} diverged repeats")

p, direction = compare_runs(report_a, report_z, "roc_auc")
print(f"\nrank-sum comparison of the two spaces: p = {p:.3f}, "
      f"higher median: space '{ {'a': 'a', 'b': 'z', 'tie': 'tie'}[direction] }'")
