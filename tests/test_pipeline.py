import csv
import io

import numpy as np
import pytest

from pathae.dataio import ExpressionTable
from pathae.errors import ConfigError, DataError
from pathae.metrics import MetricsReport
from pathae.models import ArchitectureConfig, PathwayMask, TrainConfig, build_model
from pathae.ndcore import RngStream
from pathae.pipeline import (
    GridSpec,
    REPORT_CSV_COLUMNS,
    RunReport,
    compare_runs,
    cross_validate,
    external_validate,
    extract_representation,
    hidden_space,
    stratified_folds,
)


def signal_data(n_per=24, genes=12, noise=1.0, seed=50):
    """Two classes separated along gene 0 with isotropic nuisance."""
    rng = RngStream(seed)
    Xa = rng.normal(size=(n_per, genes)) * noise
    Xa[:, 0] = -4.0 + rng.normal(size=n_per) * 0.5
    Xb = rng.normal(size=(n_per, genes)) * noise
    Xb[:, 0] = 4.0 + rng.normal(size=n_per) * 0.5
    X = np.vstack([Xa, Xb])
    y = np.array(["a"] * n_per + ["b"] * n_per)
    return X, y


def tables_from(X_train, X_test, genes):
    gene_names = [f"G{j}" for j in range(genes)]
    train = ExpressionTable([f"TR{i}" for i in range(len(X_train))], gene_names, X_train)
    test = ExpressionTable([f"TE{i}" for i in range(len(X_test))], gene_names, X_test)
    return train, test


class TestExtractRepresentation:
    def _models(self):
        masks = [PathwayMask("P0", np.array([0, 1])), PathwayMask("P1", np.array([2, 3]))]
        paae = build_model(
            ArchitectureConfig(kind="paae", encoder_layer_sizes=[3], dropout_rate=0.0),
            5, masks, RngStream(0),
        )
        vae = build_model(
            ArchitectureConfig(kind="vae", encoder_layer_sizes=[3], dropout_rate=0.0),
            5, rng=RngStream(0),
        )
        ae = build_model(
            ArchitectureConfig(kind="ae", encoder_layer_sizes=[3], dropout_rate=0.0),
            5, rng=RngStream(0),
        )
        return paae, vae, ae

    def test_shapes_and_pairings(self):
        paae, vae, ae = self._models()
        X = RngStream(1).normal(size=(7, 5))
        assert extract_representation(paae, X, "a").shape == (7, 2)
        assert extract_representation(paae, X, "z").shape == (7, 3)
        assert extract_representation(vae, X, "mu").shape == (7, 3)
        assert extract_representation(ae, X, "z").shape == (7, 3)

    def test_repeated_calls_identical(self):
        _, vae, _ = self._models()
        X = RngStream(2).normal(size=(4, 5))
        np.testing.assert_array_equal(
            extract_representation(vae, X, "mu"), extract_representation(vae, X, "mu")
        )

    def test_invalid_pairings(self):
        paae, vae, ae = self._models()
        X = np.zeros((2, 5))
        with pytest.raises(ConfigError):
            extract_representation(ae, X, "a")
        with pytest.raises(ConfigError):
            extract_representation(ae, X, "mu")
        with pytest.raises(ConfigError):
            extract_representation(vae, X, "z")
        with pytest.raises(ConfigError):
            extract_representation(paae, X, "mu")

    def test_hidden_space_rule(self):
        assert hidden_space("ae") == "z"
        assert hidden_space("paae") == "z"
        assert hidden_space("vae") == "mu"
        assert hidden_space("pavae") == "mu"


class TestStratifiedFolds:
    def test_partition_property(self):
        y = np.array(["a"] * 10 + ["b"] * 14 + ["c"] * 8)
        folds = stratified_folds(y, 4, RngStream(3))
        seen = np.concatenate([val for _, val in folds])
        assert sorted(seen.tolist()) == list(range(len(y)))
        for train, val in folds:
            assert not set(train.tolist()) & set(val.tolist())
            assert len(train) + len(val) == len(y)

    def test_classes_spread_over_folds(self):
        y = np.array(["a"] * 8 + ["b"] * 8)
        folds = stratified_folds(y, 4, RngStream(4))
        for _, val in folds:
            labels = y[val]
            assert np.sum(labels == "a") == 2 and np.sum(labels == "b") == 2

    def test_small_class_rejected(self):
        y = np.array(["a"] * 10 + ["b"] * 3)
        with pytest.raises(DataError):
            stratified_folds(y, 4, RngStream(5))


class TestGridSpec:
    def test_paper_style_paae_grid_size(self):
        grid = GridSpec(
            encoder_layer_sizes=[[64], [128, 64]],
            pathway_hidden_sizes=[[], [32], [32, 16]],
            betas=[1, 5, 10, 50, 100],
            schedules=["step", "smooth"],
            classifiers=["lr", "rf"],
        )
        # beta/schedule axes collapse for a deterministic kind
        assert len(grid.cells("paae")) == 2 * 3 * 2
        # full product for the variational variant
        assert len(grid.cells("pavae")) == 2 * 3 * 5 * 2 * 2

    def test_dense_kind_drops_pathway_axis(self):
        grid = GridSpec(encoder_layer_sizes=[[8]], pathway_hidden_sizes=[[], [4]])
        assert len(grid.cells("ae")) == 1


    @pytest.mark.parametrize("axis", [{"classifiers": ["lr", "svm"]}, {"schedules": ["ramp"]}])
    def test_unknown_entries_rejected(self, axis):
        with pytest.raises(ConfigError):
            GridSpec(encoder_layer_sizes=[[4]], **axis)


class TestCrossValidate:
    def test_single_cell_selected(self):
        X, y = signal_data()
        grid = GridSpec(encoder_layer_sizes=[[1]], classifiers=["lr"])
        best, rows = cross_validate(
            X, y, "ae", grid, TrainConfig(epochs=60, learning_rate=0.01, batch_size=16),
            folds=4, rng=RngStream(9), dropout_rate=0.0,
        )
        assert len(rows) == 1 and best["cell_index"] == 0

    def test_broken_cell_loses_to_working_cell(self):
        # a beta-collapsed variational cell is a dead representation; the
        # grid search must prefer the trainable cell on fold AUC
        X, y = signal_data()
        grid = GridSpec(
            encoder_layer_sizes=[[1]], betas=[1e7, 1e-9], schedules=["none"],
            classifiers=["lr"],
        )
        best, rows = cross_validate(
            X, y, "vae", grid, TrainConfig(epochs=300, learning_rate=0.01, batch_size=16),
            folds=4, rng=RngStream(99), dropout_rate=0.0,
        )
        assert best["beta"] == 1e-9
        aucs = {r["beta"]: r["mean_roc_auc"] for r in rows}
        assert aucs[1e-9] > aucs[1e7] + 0.3

    def test_threads_do_not_change_result(self):
        X, y = signal_data(n_per=12, genes=6)
        grid = GridSpec(encoder_layer_sizes=[[1], [2]], classifiers=["lr"])
        config = TrainConfig(epochs=30, learning_rate=0.01, batch_size=8)
        best1, rows1 = cross_validate(X, y, "ae", grid, config, folds=4,
                                      rng=RngStream(7), dropout_rate=0.0, threads=1)
        best2, rows2 = cross_validate(X, y, "ae", grid, config, folds=4,
                                      rng=RngStream(7), dropout_rate=0.0, threads=2)
        assert best1 == best2 and rows1 == rows2


class TestExternalValidate:
    def _run(self, repeats=2, threads=1, epochs=60):
        X_train, y_train = signal_data(n_per=20, genes=8, seed=60)
        X_test, y_test = signal_data(n_per=12, genes=8, seed=61)
        train, test = tables_from(X_train, X_test, 8)
        arch = ArchitectureConfig(kind="ae", encoder_layer_sizes=[2], dropout_rate=0.0)
        return external_validate(
            train, y_train, test, y_test, arch,
            TrainConfig(epochs=epochs, learning_rate=0.01, batch_size=16),
            classifier="lr", space="z", repeats=repeats, base_seed=5, threads=threads,
        )

    def test_single_repeat_iqr_zero(self):
        report = self._run(repeats=1)
        agg = report.aggregates()
        for m in MetricsReport.METRIC_NAMES:
            assert agg[m]["iqr"] == 0.0

    def test_csv_schema_matches_report_columns(self):
        report = self._run(repeats=2)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(REPORT_CSV_COLUMNS)
        writer.writerow(report.csv_row())
        parsed = list(csv.reader(io.StringIO(buf.getvalue())))
        assert parsed[0] == [
            "Model", "schedule", "space", "classifier", "#Param",
            "Test MSE", "Accuracy", "Precision", "Recall", "F1", "ROC AUC",
        ]
        assert len(parsed[1]) == len(parsed[0])

    def test_json_roundtrip(self):
        report = self._run(repeats=2)
        loaded = RunReport.from_json(report.to_json())
        assert loaded.to_json() == report.to_json()

    def test_seeds_follow_base(self):
        report = self._run(repeats=3)
        assert report.seeds == [5, 6, 7]
        assert [r.seed for r in report.repeats] == [5, 6, 7]

    def test_deterministic_and_thread_invariant(self):
        a = self._run(repeats=3, threads=1)
        b = self._run(repeats=3, threads=1)
        c = self._run(repeats=3, threads=2)
        assert a.to_json() == b.to_json() == c.to_json()

    def test_renormalize_test_flag_changes_test_scaling(self):
        X_train, y_train = signal_data(n_per=16, genes=8, seed=62)
        X_test, y_test = signal_data(n_per=10, genes=8, seed=63)
        train, test = tables_from(X_train, 3.0 * X_test + 1.0, 8)
        arch = ArchitectureConfig(kind="ae", encoder_layer_sizes=[2], dropout_rate=0.0)
        config = TrainConfig(epochs=20, learning_rate=0.01, batch_size=16)
        refit = external_validate(
            train, y_train, test, y_test, arch, config,
            classifier="lr", space="z", repeats=1, base_seed=2, renormalize_test=True,
        )
        reuse = external_validate(
            train, y_train, test, y_test, arch, config,
            classifier="lr", space="z", repeats=1, base_seed=2, renormalize_test=False,
        )
        # the rescaled cohort reconstructs far worse under reused statistics
        assert refit.repeats[0].test_mse < reuse.repeats[0].test_mse

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_diverged_repeats_recorded_not_dropped(self):
        X_train, y_train = signal_data(n_per=10, genes=6, seed=70)
        train, test = tables_from(X_train, X_train, 6)
        arch = ArchitectureConfig(kind="ae", encoder_layer_sizes=[2], dropout_rate=0.0)
        report = external_validate(
            train, y_train, train, y_train, arch,
            TrainConfig(epochs=3, learning_rate=1e100, batch_size=8),
            classifier="lr", space="z", repeats=2, base_seed=0,
        )
        assert report.n_diverged == 2
        assert len(report.repeats) == 2
        assert all(np.isnan(r.roc_auc) for r in report.repeats)
        doc = report.to_json()
        assert '"diverged": true' in doc

    def test_mismatched_gene_axes_rejected(self):
        X_train, y_train = signal_data(n_per=10, genes=6, seed=71)
        train, _ = tables_from(X_train, X_train, 6)
        other = ExpressionTable(
            [f"TE{i}" for i in range(len(X_train))],
            [f"H{j}" for j in range(6)], X_train,
        )
        arch = ArchitectureConfig(kind="ae", encoder_layer_sizes=[2], dropout_rate=0.0)
        with pytest.raises(DataError):
            external_validate(
                train, y_train, other, y_train, arch, TrainConfig(epochs=1),
                classifier="lr", space="z", repeats=1,
            )


class TestCompareRuns:
    def _report(self, values):
        reps = [MetricsReport(roc_auc=v, accuracy=v, precision=v, recall=v, f1=v,
                              test_mse=1.0, param_count=10, seed=i)
                for i, v in enumerate(values)]
        return RunReport("ae", "none", "z", "lr", reps, list(range(len(values))))

    def test_identical_reports_p_one(self):
        a = self._report([0.8, 0.81, 0.82, 0.83])
        p, direction = compare_runs(a, a, "roc_auc")
        assert p == 1.0 and direction == "tie"

    def test_disjoint_sixteen_vs_sixteen(self):
        a = self._report([0.9 + 0.001 * i for i in range(16)])
        b = self._report([0.5 + 0.001 * i for i in range(16)])
        p, direction = compare_runs(a, b, "roc_auc")
        assert p < 1e-3 and direction == "a"

    def test_direction_flips_p_stable(self):
        a = self._report([0.9, 0.91, 0.92])
        b = self._report([0.5, 0.51, 0.52])
        p_ab, d_ab = compare_runs(a, b, "roc_auc")
        p_ba, d_ba = compare_runs(b, a, "roc_auc")
        assert p_ab == p_ba and d_ab == "a" and d_ba == "b"

    def test_unknown_metric(self):
        a = self._report([0.5, 0.6])
        with pytest.raises(ConfigError):
            compare_runs(a, a, "not_a_metric")
