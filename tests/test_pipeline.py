import ast
import csv
import io
import logging
from pathlib import Path

import numpy as np
import pytest

import pathae.pipeline
from pathae.dataio import ExpressionTable, apply_normalizer, fit_normalizer
from pathae.errors import ConfigError, DataError
from pathae.metrics import MetricsReport
from pathae.models import ArchitectureConfig, PathwayMask, TrainConfig, build_model, forward
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
from pathae.synth import make_synthetic


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

    @pytest.mark.parametrize("kind,spaces", [
        ("ae", ["z"]), ("vae", ["mu"]), ("paae", ["a", "z"]), ("pavae", ["a", "mu"]),
    ])
    def test_equals_forward_without_decoding(self, kind, spaces):
        masks = [PathwayMask("P0", np.array([0, 1, 4])), PathwayMask("P1", np.array([2, 3]))]
        arch = ArchitectureConfig(kind=kind, encoder_layer_sizes=[4, 3],
                                  pathway_hidden_sizes=[3, 2], dropout_rate=0.5)
        model = build_model(arch, 5, masks, RngStream(3))
        X = RngStream(4).normal(size=(9, 5))
        outs = forward(model, X, training=False)
        model.params.decoder = None  # the representation must not need the decoder
        for space in spaces:
            np.testing.assert_array_equal(extract_representation(model, X, space),
                                          getattr(outs, space))

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
        assert len(grid.cells(ArchitectureConfig("paae", [64]))) == 2 * 3 * 2
        # full product for the variational variant
        assert len(grid.cells(ArchitectureConfig("pavae", [64]))) == 2 * 3 * 5 * 2 * 2

    def test_dense_kind_drops_pathway_axis(self):
        grid = GridSpec(encoder_layer_sizes=[[8]], pathway_hidden_sizes=[[], [4]])
        assert len(grid.cells(ArchitectureConfig("ae", [8]))) == 1


    def test_cells_pair_each_cell_with_its_architecture(self):
        grid = GridSpec(encoder_layer_sizes=[[4], [8, 2]], classifiers=["lr", "rf"])
        arch = ArchitectureConfig("paae", [3], dropout_rate=0.25, decoder_layer_sizes=[5, 7])
        cells = grid.cells(arch)
        # the classifier is the innermost axis
        assert [(c["encoder_layer_sizes"], c["classifier"]) for c, _ in cells] == [
            ([4], "lr"), ([4], "rf"), ([8, 2], "lr"), ([8, 2], "rf"),
        ]
        for cell, cell_arch in cells:
            assert cell_arch.encoder_layer_sizes == cell["encoder_layer_sizes"]
            assert (cell_arch.kind, cell_arch.dropout_rate, cell_arch.decoder_layer_sizes) == (
                "paae", 0.25, [5, 7])

    def test_rejected_cell_named(self):
        grid = GridSpec(encoder_layer_sizes=[[4]], betas=[1.0, float("nan")])
        with pytest.raises(ConfigError, match=r"^\[grid\] cell \(.*beta=nan.*\): beta must"):
            grid.cells(ArchitectureConfig("vae", [4]))

    @pytest.mark.parametrize("axis", [{"classifiers": ["lr", "svm"]}, {"schedules": ["ramp"]}])
    def test_unknown_entries_rejected(self, axis):
        with pytest.raises(ConfigError):
            GridSpec(encoder_layer_sizes=[[4]], **axis)


class TestCrossValidate:
    def test_single_cell_selected(self):
        X, y = signal_data()
        grid = GridSpec(encoder_layer_sizes=[[1]], classifiers=["lr"])
        best, rows = cross_validate(
            X, y, ArchitectureConfig("ae", [1], dropout_rate=0.0), grid,
            TrainConfig(epochs=60, learning_rate=0.01, batch_size=16), folds=4, rng=RngStream(9),
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
            X, y, ArchitectureConfig("vae", [1], dropout_rate=0.0), grid,
            TrainConfig(epochs=300, learning_rate=0.01, batch_size=16), folds=4, rng=RngStream(99),
        )
        assert best["beta"] == 1e-9
        aucs = {r["beta"]: r["mean_roc_auc"] for r in rows}
        assert aucs[1e-9] > aucs[1e7] + 0.3

    def test_same_seed_same_result(self):
        X, y = signal_data(n_per=12, genes=6)
        grid = GridSpec(encoder_layer_sizes=[[1], [2]], classifiers=["lr"])
        config = TrainConfig(epochs=30, learning_rate=0.01, batch_size=8)
        arch = ArchitectureConfig("ae", [1], dropout_rate=0.0)
        best1, rows1 = cross_validate(X, y, arch, grid, config, folds=4, rng=RngStream(7))
        best2, rows2 = cross_validate(X, y, arch, grid, config, folds=4, rng=RngStream(7))
        assert best1 == best2 and rows1 == rows2

    def _two_cells(self, spy_fit, diverges):
        X, y = signal_data(n_per=12, genes=6)
        grid = GridSpec(encoder_layer_sizes=[[2], [1]], classifiers=["lr"])
        spy_fit(diverges)
        return cross_validate(
            X, y, ArchitectureConfig("ae", [1], dropout_rate=0.0), grid,
            TrainConfig(epochs=30, learning_rate=0.01, batch_size=8), folds=3, rng=RngStream(4),
        )

    def test_diverged_cell_scores_nan_and_loses(self, spy_fit, caplog):
        with caplog.at_level(logging.WARNING, logger="pathae.pipeline"):
            best, rows = self._two_cells(
                spy_fit, lambda arch: arch.encoder_layer_sizes == [2])
        assert np.isnan(rows[0]["mean_roc_auc"]) and np.isfinite(rows[1]["mean_roc_auc"])
        assert best["cell_index"] == 1 and best["encoder_layer_sizes"] == [1]
        # one warning per diverged fold, naming the cell and the divergence
        assert [r.getMessage() for r in caplog.records] == [
            "grid cell 0 diverged: training diverged at epoch 0 (loss=nan)"] * 3

    def test_overflowing_beta_cell_diverges_and_loses(self):
        # beta = 1e300 keeps the loss finite but overflows Adam's second moment
        data = make_synthetic(n_classes=2, n_pathways=4, n_genes=40, n_background=10,
                              n_train=40, n_test=10, seed=1)
        X = apply_normalizer(fit_normalizer(data.train, "zscore"), data.train).values
        best, rows = cross_validate(
            X, np.asarray(data.train_labels), ArchitectureConfig("vae", [8], t_start=0),
            GridSpec([[8]], betas=[1.0, 1e300]),
            TrainConfig(epochs=20, learning_rate=1e-3, batch_size=16), folds=2, rng=RngStream(0),
        )
        assert [r["beta"] for r in rows] == [1.0, 1e300]
        assert np.isfinite(rows[0]["mean_roc_auc"]) and np.isnan(rows[1]["mean_roc_auc"])
        assert best["beta"] == 1.0

    def test_every_cell_diverged_is_data_error(self, spy_fit):
        with pytest.raises(DataError, match="every grid cell diverged"):
            self._two_cells(spy_fit, lambda arch: True)

    def test_fit_runs_once_per_cell_and_fold(self, spy_fit):
        X, y = signal_data(n_per=12, genes=6)
        grid = GridSpec(encoder_layer_sizes=[[2], [1]], classifiers=["lr", "rf"])
        archs = spy_fit()
        cross_validate(
            X, y, ArchitectureConfig("ae", [1], dropout_rate=0.0), grid,
            TrainConfig(epochs=2, learning_rate=0.01, batch_size=8), folds=3, rng=RngStream(4),
        )
        # every (cell, fold) trains its own model, classifier cells included
        assert [a.encoder_layer_sizes for a in archs] == [[2]] * 6 + [[1]] * 6


class TestExternalValidate:
    def _run(self, repeats=2, epochs=60, **options):
        X_train, y_train = signal_data(n_per=20, genes=8, seed=60)
        X_test, y_test = signal_data(n_per=12, genes=8, seed=61)
        train, test = tables_from(X_train, X_test, 8)
        arch = ArchitectureConfig(kind="ae", encoder_layer_sizes=[2], dropout_rate=0.0)
        return external_validate(
            train, y_train, test, y_test, arch,
            TrainConfig(epochs=epochs, learning_rate=0.01, batch_size=16),
            classifier="lr", space="z", repeats=repeats, base_seed=5, **options,
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
        a = self._run(repeats=3)
        b = self._run(repeats=3)
        # the ignored keyword perfbench's validate-rf-small still passes
        c = self._run(repeats=3, threads=2)
        assert a.to_json() == b.to_json() == c.to_json()

    def test_fit_runs_once_per_repeat(self, spy_fit):
        archs = spy_fit()
        self._run(repeats=3, epochs=1)
        assert len(archs) == 3

    def test_log_offset_reaches_both_normalizers(self, monkeypatch):
        offsets = []

        def spy(table, kind, offset=None):
            offsets.append((len(table.sample_ids), kind, offset))
            return fit_normalizer(table, "zscore")

        monkeypatch.setattr(pathae.pipeline, "fit_normalizer", spy)
        self._run(repeats=1, epochs=1, norm_kind="log_offset", log_offset=5.0)
        assert offsets == [(40, "log_offset", 5.0), (24, "log_offset", 5.0)]

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
    def test_diverged_repeats_recorded_not_dropped(self, caplog):
        X_train, y_train = signal_data(n_per=10, genes=6, seed=70)
        train, test = tables_from(X_train, X_train, 6)
        arch = ArchitectureConfig(kind="ae", encoder_layer_sizes=[2], dropout_rate=0.0)
        with caplog.at_level(logging.WARNING, logger="pathae.pipeline"):
            report = external_validate(
                train, y_train, train, y_train, arch,
                TrainConfig(epochs=3, learning_rate=1e100, batch_size=8),
                classifier="lr", space="z", repeats=2, base_seed=0,
            )
        # one warning per diverged repeat, naming its seed
        assert [r.getMessage().split(": ")[0] for r in caplog.records] == [
            "repeat 0 (seed 0) diverged", "repeat 1 (seed 1) diverged"]
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


class TestOneTrainingPath:
    def test_one_function_trains_and_classifies(self):
        # grid folds and validation repeats share one train -> classify unit;
        # a second copy of that path must not creep back into pipeline.py
        tree = ast.parse(Path(pathae.pipeline.__file__).read_text(encoding="utf-8"))
        functions = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
        functions += [m for c in tree.body if isinstance(c, ast.ClassDef)
                      for m in c.body if isinstance(m, ast.FunctionDef)]
        callers = {name: [] for name in ("build_model", "fit", "fit_classifier")}
        for fn in functions:
            called = {getattr(n.func, "id", getattr(n.func, "attr", None))
                      for n in ast.walk(fn) if isinstance(n, ast.Call)}
            for name, where in callers.items():
                if name in called:
                    where.append(fn.name)
        assert all(len(where) == 1 for where in callers.values()), callers
        assert len({where[0] for where in callers.values()}) == 1, callers
