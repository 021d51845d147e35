"""The benchmark's four workloads.

Each workload drives pathae from outside, through its public functions or
``cli.main``, as a closed loop: one client, one operation at a time.  A
workload has

- ``setup``: builds every input from the seed (timed as ``setup_s``);
- ``op``: the operation a user waits for (timed as ``op_s``, and as
  ``op_rel`` against the host probe's kernel named by ``probe``);
- ``check``: the output check of one operation (a failure counts in
  ``failed``);
- ``traced``: one traced operation, with spans around each call into a
  layer, plus the check that the traced replica agrees with the real call.

The untraced run passes a ``NullTracer``; only ``traced`` records spans.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import inspect
import io
import json
import os
import shutil
import statistics
import time
from dataclasses import dataclass

import numpy as np
import scipy.stats

from pathae import classifiers, cli, dataio, interpret, metrics, models, pipeline, synth
from pathae.metrics import MetricsReport
from pathae.models import ArchitectureConfig, TrainConfig
from pathae.ndcore import AdamState, RngStream, adam_step

from spans import interposed

# Fixture and model sizes.  "full" is what the benchmark measures; "tiny" is
# for the benchmark's own smoke tests.
SIZES = {
    "full": {
        # ~KEGG/Reactome scale: 320 pathways of 9 genes, 320 background genes
        "paper": {"n_pathways": 320, "n_genes": 3200, "n_background": 320,
                  "n_train": 600, "n_test": 40},
        # paper-scale gene axis; 300 samples keep one interpret+survival
        # pair near 2 s
        "interpret": {"n_pathways": 320, "n_genes": 3200, "n_background": 320,
                      "n_train": 300, "n_test": 30},
        # default small fixture (20 pathways, 400 genes) with cohorts sized
        # so that one rf validation takes under 2 s
        "small": {"n_train": 50, "n_test": 40},
        "paae_epochs": 6,
        "vae_epochs": 16,
        "validate_epochs": 5,
        "checkpoint_epochs": 2,
        "repeats": 2,
    },
    "tiny": {
        "paper": {"n_pathways": 12, "n_genes": 160, "n_background": 16,
                  "n_train": 64, "n_test": 10},
        "interpret": {"n_pathways": 12, "n_genes": 160, "n_background": 16,
                      "n_train": 60, "n_test": 10},
        "small": {"n_train": 30, "n_test": 30},
        "paae_epochs": 8,
        "vae_epochs": 20,
        "validate_epochs": 3,
        "checkpoint_epochs": 1,
        "repeats": 2,
    },
}

LEARNING_RATE = 1e-3
BATCH_SIZE = 128
AUC_FLOOR = 0.6
TOP_PATHWAYS = 5  # cmd_survival's default [interpret] top_pathways
VAE_T_START = 4  # the KL term switches on at this epoch
# A workload cycles through this many inputs (the train workloads through
# twice as many), each built from its own seed (Workload.input_seed).  The final loss, the rf time and the MI ranking
# all depend on the draw of fixture and model, so with one input per run
# quality and op_s would describe the seed more than the program.
INPUTS = 4
# external_validate fits rf_fit with its default forest size
N_TREES = inspect.signature(classifiers.rf_fit).parameters["n_trees"].default

# (name, unit, better) of every per-layer metric the traced run reports.  A
# metric of a layer the workload does not exercise reads 0.
PER_LAYER = [
    ("models.step_ms_p50", "ms", "lower"),
    ("models.step_ms_p90", "ms", "lower"),
    ("models.forward_train_ms", "ms", "lower"),
    ("models.loss_and_grads_ms", "ms", "lower"),
    ("ndcore.adam_step_ms", "ms", "lower"),
    ("models.pathway_stage_ms", "ms", "lower"),
    ("models.encode_ms", "ms", "lower"),
    ("models.decode_ms", "ms", "lower"),
    ("models.param_tensors", "count", "lower"),
    ("models.step_mflop", "Mflop-computed", "lower"),
    ("models.achieved_gflop_s", "Gflop/s", "higher"),
    ("models.checkpoint_save_ms", "ms", "lower"),
    ("models.checkpoint_load_ms", "ms", "lower"),
    ("models.checkpoint_bytes", "bytes", "lower"),
    ("classifiers.rf_fit_s", "s", "lower"),
    ("classifiers.rf_predict_ms", "ms", "lower"),
    ("classifiers.rf_nodes", "count", "lower"),
    ("classifiers.lr_fit_ms", "ms", "lower"),
    ("pipeline.repeat_s", "s", "lower"),
    ("pipeline.extract_representation_ms", "ms", "lower"),
    ("pipeline.diverged_share", "share", "lower"),
    ("pipeline.parallel_speedup", "x", "higher"),
    ("pipeline.serial_traced_s", "s", "lower"),
    ("pipeline.validate_s", "s", "lower"),
    ("pipeline.validate_threads1_s", "s", "lower"),
    ("metrics.roc_auc_ms", "ms", "lower"),
    ("metrics.mutual_information_ms", "ms", "lower"),
    ("dataio.load_expression_ms", "ms", "lower"),
    ("dataio.parse_mb_per_s", "MB/s", "higher"),
    ("dataio.normalize_ms", "ms", "lower"),
    ("dataio.load_labels_ms", "ms", "lower"),
    ("dataio.load_survival_ms", "ms", "lower"),
    ("dataio.resolve_pathways_ms", "ms", "lower"),
    ("interpret.rank_mi_ms", "ms", "lower"),
    ("interpret.cluster_rows_ms", "ms", "lower"),
    ("interpret.cluster_cols_ms", "ms", "lower"),
    ("interpret.pca_ms", "ms", "lower"),
    ("interpret.top_genes_ms", "ms", "lower"),
    ("interpret.logrank_ms", "ms", "lower"),
    ("interpret.logrank_tests", "count", "lower"),
    ("interpret.km_ms", "ms", "lower"),
    ("interpret.svg_ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("synth.make_synthetic_ms", "ms", "lower"),
    ("synth.write_fixture_ms", "ms", "lower"),
    ("bench.trace_overhead_share", "share", "lower"),
]

# Per-layer metrics that are the median duration of the named spans (summed
# over the names), with the factor that turns milliseconds into the unit.
SPAN_MEDIANS = {
    "models.forward_train_ms": (("models.forward",), 1.0),
    "models.loss_and_grads_ms": (("models.loss_and_grads",), 1.0),
    "ndcore.adam_step_ms": (("ndcore.adam_step",), 1.0),
    "models.pathway_stage_ms": (("models.pathway_activity_forward",), 1.0),
    "models.encode_ms": (("models.encode",), 1.0),
    "models.decode_ms": (("models.decode",), 1.0),
    "models.checkpoint_save_ms": (("models.save_checkpoint",), 1.0),
    "models.checkpoint_load_ms": (("models.load_checkpoint",), 1.0),
    "classifiers.rf_fit_s": (("classifiers.rf_fit",), 1e-3),
    "classifiers.rf_predict_ms": (("classifiers.rf_predict",), 1.0),
    "classifiers.lr_fit_ms": (("classifiers.lr_fit",), 1.0),
    "pipeline.repeat_s": (("pipeline.repeat",), 1e-3),
    "pipeline.extract_representation_ms": (("pipeline.extract_representation",), 1.0),
    "metrics.roc_auc_ms": (("metrics.roc_auc_macro",), 1.0),
    "metrics.mutual_information_ms": (("metrics.mutual_information",), 1.0),
    "dataio.load_expression_ms": (("dataio.load_expression_tsv",), 1.0),
    "dataio.normalize_ms": (("dataio.fit_normalizer", "dataio.apply_normalizer"), 1.0),
    "dataio.load_labels_ms": (("dataio.load_labels",), 1.0),
    "dataio.load_survival_ms": (("dataio.load_survival",), 1.0),
    "dataio.resolve_pathways_ms": (("dataio.resolve_pathways",), 1.0),
    "interpret.rank_mi_ms": (("interpret.rank_pathways_by_mi",), 1.0),
    "interpret.cluster_rows_ms": (("interpret.cluster_rows",), 1.0),
    "interpret.cluster_cols_ms": (("interpret.cluster_cols",), 1.0),
    "interpret.pca_ms": (("interpret.pca_2d",), 1.0),
    "interpret.top_genes_ms": (("interpret.top_genes_by_anpw",), 1.0),
    "interpret.logrank_ms": (("interpret.logrank_test",), 1.0),
    "interpret.km_ms": (("interpret.km_estimate",), 1.0),
    "synth.make_synthetic_ms": (("synth.make_synthetic",), 1.0),
    "synth.write_fixture_ms": (("synth.write_fixture",), 1.0),
}

# Counts that must repeat exactly across runs of one seed.
EXACT_COUNTS = (
    "models.param_tensors",
    "models.step_mflop",
    "classifiers.rf_nodes",
    "interpret.logrank_tests",
    "models.checkpoint_bytes",
)


class ReplicaMismatch(RuntimeError):
    """A traced replica disagreed with the real call it stands for."""


def _normalized(tracer, table):
    norm = tracer.call("dataio.fit_normalizer", dataio.fit_normalizer, table, "zscore")
    return tracer.call("dataio.apply_normalizer", dataio.apply_normalizer, norm, table).values


def _make_data(tracer, seed, sizes):
    data = tracer.call("synth.make_synthetic", synth.make_synthetic, seed=seed, **sizes)
    masks, _report = tracer.call(
        "dataio.resolve_pathways", dataio.resolve_pathways, data.pathways, data.train.gene_names
    )
    return data, masks


def paae_arch() -> ArchitectureConfig:
    return ArchitectureConfig(kind="paae", encoder_layer_sizes=[16],
                              pathway_hidden_sizes=[8], dropout_rate=0.25)


def step_mflop(model, batch: int) -> float:
    """Matmul flops of one training step (forward plus backward) at the
    nominal batch size, computed from the model's weight shapes: each affine
    layer costs 2*B*in*out forward and twice that backward."""
    macs = sum(p.size for p in models.flat_params(model) if p.ndim == 2)
    return 6.0 * batch * macs / 1e6


@dataclass
class Cohort:
    seed: int
    train: dataio.ExpressionTable
    y_train: list
    test: dataio.ExpressionTable
    y_test: list
    masks: list


@dataclass
class OpResult:
    """What one operation produced: the input ``k`` it used, its output, the
    wall time of each phase, and whether its output check passed."""

    k: int
    value: object
    seconds: dict
    ok: bool = False


class Workload:
    name = ""
    why = ""
    per_pass = INPUTS  # inputs the operations cycle through; a pass uses each once
    probe = "gil"  # the probe.py kernel that does this workload's kind of work

    def __init__(self, seed: int, size: str, workdir: str):
        self.seed = seed
        self.sizes = SIZES[size]
        self.workdir = workdir
        self.first = {}  # first output per input, for determinism checks
        self.ops = 0

    def next_input(self) -> int:
        k = self.ops % self.per_pass
        self.ops += 1
        return k

    def input_seed(self, k: int) -> int:
        """Seed of input k: of its fixture and model for training, of its
        cohort and repeats for validation, of its checkpoint for interpret."""
        return 100 * self.seed + k

    def quality(self, results):
        """Mean ``score`` of the operations whose check passed; 0 if none did."""
        scores = [self.score(r) for r in results if r.ok]
        return statistics.mean(scores) if scores else 0.0

    # subclasses implement setup, op, check, score, named, inputs, traced
    # and layer_metrics


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


class TrainWorkload(Workload):
    """build_model -> fit -> save_checkpoint on the paper-like fixture."""

    # the final loss varies more between draws than the other workloads'
    # scores, and a fixture is cheap to build
    per_pass = 2 * INPUTS

    def arch(self) -> ArchitectureConfig:
        raise NotImplementedError

    def epochs(self) -> int:
        raise NotImplementedError

    def setup(self, tracer):
        self.masks, self.X = [], []
        for k in range(self.per_pass):
            data, masks = _make_data(tracer, self.input_seed(k), self.sizes["paper"])
            self.masks.append(masks)
            self.X.append(_normalized(tracer, data.train))
        self.gene_names = list(data.train.gene_names)
        self.train_config = TrainConfig(epochs=self.epochs(), learning_rate=LEARNING_RATE,
                                        batch_size=BATCH_SIZE)
        self.ckpt = os.path.join(self.workdir, "model.ckpt")

    def op(self):
        k = self.next_input()
        t0 = time.perf_counter()
        rng = RngStream(self.input_seed(k))
        model = models.build_model(self.arch(), self.X[k].shape[1], self.masks[k], rng,
                                   gene_names=self.gene_names)
        history = models.fit(model, self.X[k], self.train_config, rng)
        models.save_checkpoint(model, self.ckpt)
        return OpResult(k, history, {"op": time.perf_counter() - t0})

    def check(self, result):
        history = result.value
        problems = []
        if len(history) != self.train_config.epochs or not np.all(np.isfinite(history)):
            problems.append(f"loss history not finite or wrong length: {history}")
        elif not history[-1] < history[0]:
            problems.append(f"last loss {history[-1]} not below first {history[0]}")
        with open(self.ckpt, "rb") as fh:
            saved = fh.read()
        again = self.ckpt + ".again"
        models.save_checkpoint(models.load_checkpoint(self.ckpt), again)
        with open(again, "rb") as fh:
            if fh.read() != saved:
                problems.append("checkpoint save -> load -> save changed the bytes")
        if self.first.setdefault(result.k, history) != history:
            problems.append(f"input {result.k}: loss history differs from its first")
        return problems

    def score(self, result):
        return 1.0 / result.value[-1]

    def named(self, results):
        op_s = statistics.median(r.seconds["op"] for r in results)
        n = self.X[0].shape[0]
        losses = [r.value[-1] for r in results if r.ok]
        return {
            "train_sample_epochs_per_s": (n * self.train_config.epochs / op_s, "1/s"),
            "train_final_loss": (statistics.mean(losses) if losses else 0.0, "mse"),
        }

    def inputs(self):
        return {
            "fixtures": self.per_pass,
            "pathways": len(self.masks[0]),
            "genes": self.X[0].shape[1],
            "samples": self.X[0].shape[0],
            "epochs": self.train_config.epochs,
            "trees": 0,
            "tsv_bytes": 0,
            "checkpoint_bytes": os.path.getsize(self.ckpt) if os.path.exists(self.ckpt) else 0,
        }

    def _replica_fit(self, tracer, model, rng, X):
        """fit()'s batch loop, calling forward, loss_and_grads and adam_step
        itself so each gets its own span."""
        arch, cfg = model.arch, self.train_config
        params = models.flat_params(model)
        state = AdamState.for_params(params)
        n = X.shape[0]
        history = []
        for epoch in range(cfg.epochs):
            beta_eff = (
                models.beta_schedule(epoch, arch.schedule, arch.beta, arch.t_start, arch.t_end)
                if models.is_variational(arch.kind) else 0.0
            )
            order = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                xb = X[idx]
                with tracer.span("bench.step"):
                    outs = tracer.call("models.forward", models.forward, model, xb,
                                       training=True, rng=rng)
                    value, grads = tracer.call("models.loss_and_grads", models.loss_and_grads,
                                               model, xb, outs, beta_eff)
                    if not np.isfinite(value):
                        raise ReplicaMismatch(f"replica loss not finite at epoch {epoch}")
                    tracer.call("ndcore.adam_step", adam_step, params, grads, state,
                                cfg.learning_rate)
                epoch_loss += value * len(idx)
            history.append(epoch_loss / n)
        return history, len(params)

    def traced(self, tracer, real):
        k, X = real.k, self.X[real.k]
        with tracer.span("bench.op") as op_span:
            rng = RngStream(self.input_seed(k))
            model = tracer.call("models.build_model", models.build_model, self.arch(),
                                X.shape[1], self.masks[k], rng, gene_names=self.gene_names)
            history, n_tensors = self._replica_fit(tracer, model, rng, X)
            tracer.call("models.save_checkpoint", models.save_checkpoint, model, self.ckpt)
        if history != real.value:
            raise ReplicaMismatch(
                f"replica loss history {history} differs from fit's {real.value}"
            )
        loaded = tracer.call("models.load_checkpoint", models.load_checkpoint, self.ckpt)
        xb = X[:BATCH_SIZE]
        for _ in range(3):  # inference on one batch, three times for the median
            if models.is_pathway_kind(loaded.arch.kind):
                enc_in = tracer.call("models.pathway_activity_forward",
                                     models.pathway_activity_forward, loaded, xb)
            else:
                enc_in = xb
            z = tracer.call("models.encode", models.encode, loaded, enc_in)
            if models.is_variational(loaded.arch.kind):
                z = z[0]
            tracer.call("models.decode", models.decode, loaded, z)
        return {
            "op_traced": op_span["end"] - op_span["start"],
            "op_untraced": real.seconds["op"],
            "param_tensors": n_tensors,
            "step_mflop": step_mflop(model, BATCH_SIZE),
        }

    def layer_metrics(self, tracer, extras):
        steps = tracer.durations("bench.step")
        mflop = extras[0]["step_mflop"]
        p50, p90 = np.percentile(steps, [50, 90]) * 1e3
        return {
            "models.step_ms_p50": p50,
            "models.step_ms_p90": p90,
            "models.param_tensors": extras[0]["param_tensors"],
            "models.step_mflop": mflop,
            "models.achieved_gflop_s": mflop / p50,
            "models.checkpoint_bytes": os.path.getsize(self.ckpt),
        }


class TrainPaae(TrainWorkload):
    name = "train-paae-paper"
    why = ("PAAE training at 320 pathways / 3200 genes: per-pathway Python loops and "
           "per-tensor Adam (1284 tensors) dominate")

    def arch(self):
        return paae_arch()

    def epochs(self):
        return self.sizes["paae_epochs"]


class TrainVae(TrainWorkload):
    name = "train-vae-paper"
    why = ("dense VAE with a step schedule on the same fixture: 4 tensors, BLAS-bound; "
           "the control where pathway-path changes should show no gain")

    probe = "blas"

    def arch(self):
        return ArchitectureConfig(kind="vae", encoder_layer_sizes=[16], dropout_rate=0.25,
                                  schedule="step", t_start=VAE_T_START)

    def epochs(self):
        return self.sizes["vae_epochs"]


# ---------------------------------------------------------------------------
# external validation with the random forest
# ---------------------------------------------------------------------------


class ValidateRf(Workload):
    """external_validate with PAAE and classifier="rf" on the small fixture."""

    name = "validate-rf-small"
    why = ("repeated external validation with rf on the small fixture, threads = nproc: "
           "rf_fit and the worker pool dominate; the only pipeline-pool workload")

    def setup(self, tracer):
        # like `pathae validate`, the op starts from tables read back from
        # the fixture files
        self.cohorts = [self._load_cohort(tracer, self.input_seed(k))
                        for k in range(self.per_pass)]
        self.arch = paae_arch()
        self.train_config = TrainConfig(epochs=self.sizes["validate_epochs"],
                                        learning_rate=LEARNING_RATE, batch_size=BATCH_SIZE)
        self.repeats = self.sizes["repeats"]
        self.threads = len(os.sched_getaffinity(0))

    def _load_cohort(self, tracer, seed):
        data = tracer.call("synth.make_synthetic", synth.make_synthetic, seed=seed,
                           **self.sizes["small"])
        out = os.path.join(self.workdir, f"cohort{seed}")
        paths = tracer.call("synth.write_fixture", synth.write_fixture, out, data)
        train, test = (
            tracer.call("dataio.load_expression_tsv", dataio.load_expression_tsv, paths[key])
            for key in ("train_expression", "test_expression")
        )
        labels = tracer.call("dataio.load_labels", dataio.load_labels, paths["labels"],
                             "subtype").labels
        pathways = tracer.call("dataio.parse_gmt", dataio.parse_gmt, paths["pathways"])
        masks, _report = tracer.call("dataio.resolve_pathways", dataio.resolve_pathways,
                                     pathways, train.gene_names)
        return Cohort(seed, train, [labels[s] for s in train.sample_ids],
                      test, [labels[s] for s in test.sample_ids], masks)

    def _validate(self, k, threads):
        c = self.cohorts[k]
        return pipeline.external_validate(
            c.train, c.y_train, c.test, c.y_test, self.arch, self.train_config,
            classifier="rf", space="z", masks=c.masks, repeats=self.repeats,
            base_seed=c.seed, threads=threads,
        )

    def op(self):
        k = self.next_input()
        t0 = time.perf_counter()
        report = self._validate(k, self.threads)
        return OpResult(k, report, {"op": time.perf_counter() - t0})

    @staticmethod
    def auc(report):
        return float(np.median([r.roc_auc for r in report.repeats]))

    def check(self, result):
        k, report = result.k, result.value
        problems = []
        if len(report.repeats) != self.repeats:
            problems.append(f"{len(report.repeats)} repeats, expected {self.repeats}")
        if report.n_diverged:
            problems.append(f"{report.n_diverged} diverged repeats")
        elif not self.auc(report) > AUC_FLOOR:
            problems.append(f"val_roc_auc {self.auc(report)} not above {AUC_FLOOR}")
        if self.first.setdefault(k, report.repeats) != report.repeats:
            problems.append(f"cohort {k}: report differs from its first operation's")
        return problems

    def score(self, result):
        return self.auc(result.value)

    def named(self, results):
        return {
            "validate_s": (statistics.median(r.seconds["op"] for r in results), "s"),
            "val_roc_auc": (self.quality(results), "auc"),
        }

    def inputs(self):
        c = self.cohorts[0]
        return {
            "cohorts": self.per_pass,
            "pathways": len(c.masks),
            "genes": c.train.n_genes,
            "samples": c.train.n_samples,
            "test_samples": c.test.n_samples,
            "epochs": self.train_config.epochs,
            "repeats": self.repeats,
            "threads": self.threads,
            "trees": N_TREES,
            "tsv_bytes": 0,
            "checkpoint_bytes": 0,
        }

    def _replica_repeat(self, tracer, k, r, X_train, y_train, X_test, y_test):
        """pipeline._one_repeat for repeat r of cohort k, one call per span."""
        seed = self.cohorts[k].seed + r
        stream = RngStream(seed)
        model = tracer.call("models.build_model", models.build_model, self.arch,
                            X_train.shape[1], self.cohorts[k].masks, stream)
        n_params = models.count_params(model)
        tracer.call("models.fit", models.fit, model, X_train, self.train_config, stream)
        rep_train = tracer.call("pipeline.extract_representation",
                                pipeline.extract_representation, model, X_train, "z")
        rep_test = tracer.call("pipeline.extract_representation",
                               pipeline.extract_representation, model, X_test, "z")
        clf = tracer.call("classifiers.rf_fit", classifiers.rf_fit, rep_train, y_train,
                          rng=stream)
        y_pred = tracer.call("classifiers.rf_predict", classifiers.predict_labels, clf, rep_test)
        scores = tracer.call("classifiers.rf_predict", classifiers.predict_proba, clf, rep_test)
        vocab = list(clf.classes)
        cm = metrics.confusion_metrics(y_test, y_pred, vocabulary=vocab)
        auc = tracer.call("metrics.roc_auc_macro", metrics.roc_auc_macro, y_test, scores,
                          vocabulary=vocab)
        mse, _ = models.mse_loss(X_test, models.reconstruct(model, X_test))
        report = MetricsReport(
            accuracy=cm["accuracy"], precision=cm["precision"], recall=cm["recall"],
            f1=cm["f1"], roc_auc=auc, test_mse=mse, param_count=n_params, seed=seed,
            diverged=False,
        )
        return report, clf, rep_train

    def traced(self, tracer, real):
        k, report = real.k, real.value
        t0 = time.perf_counter()
        serial = self._validate(k, 1)
        serial_s = time.perf_counter() - t0
        c = self.cohorts[k]
        y_train, y_test = np.asarray(c.y_train), np.asarray(c.y_test)
        nodes = 0
        with tracer.span("bench.op") as op_span:
            X_train = _normalized(tracer, c.train)
            X_test = _normalized(tracer, c.test)
            reports = []
            for r in range(self.repeats):
                with tracer.span("pipeline.repeat"):
                    rep, clf, rep_train = self._replica_repeat(
                        tracer, k, r, X_train, y_train, X_test, y_test)
                reports.append(rep)
                nodes += sum(_tree_nodes(t) for t in clf.trees)
        tracer.call("classifiers.lr_fit", classifiers.lr_fit, rep_train, y_train)
        for reference, label in ((report, "threads=nproc"), (serial, "threads=1")):
            if reports != reference.repeats:
                raise ReplicaMismatch(
                    f"replicated repeats {reports} differ from external_validate "
                    f"({label}): {reference.repeats}"
                )
        return {
            "op_traced": op_span["end"] - op_span["start"],
            "op_untraced": serial_s,
            "validate_s": real.seconds["op"],
            "rf_nodes": nodes,
            "diverged_share": report.n_diverged / len(report.repeats),
        }

    def layer_metrics(self, tracer, extras):
        serial_traced = statistics.median(e["op_traced"] for e in extras)
        validate_s = statistics.median(e["validate_s"] for e in extras)
        loaded = sum(os.path.getsize(os.path.join(self.workdir, f"cohort{c.seed}", name))
                     for c in self.cohorts
                     for name in ("train_expression.tsv", "test_expression.tsv"))
        return {
            "classifiers.rf_nodes": extras[0]["rf_nodes"],
            "pipeline.diverged_share": extras[0]["diverged_share"],
            "dataio.parse_mb_per_s":
                loaded / 1e6 / sum(tracer.durations("dataio.load_expression_tsv")),
            "pipeline.parallel_speedup": serial_traced / validate_s,
            "pipeline.serial_traced_s": serial_traced,
            "pipeline.validate_s": validate_s,
            "pipeline.validate_threads1_s":
                statistics.median(e["op_untraced"] for e in extras),
        }


def _tree_nodes(tree) -> int:
    stack, count = [tree], 0
    while stack:
        node = stack.pop()
        count += 1
        if not node.is_leaf:
            stack += [node.left, node.right]
    return count


# ---------------------------------------------------------------------------
# interpret + survival through the CLI
# ---------------------------------------------------------------------------


def _binned_mi(x, labels, bins=8) -> float:
    """Plug-in MI (nats) between x in equal-frequency bins of its midranks
    and the labels, in numpy, independent of pathae's estimator."""
    n = len(x)
    binned = np.minimum(((scipy.stats.rankdata(x) - 1) * bins / n).astype(int), bins - 1)
    _, codes = np.unique(labels, return_inverse=True)
    joint = np.zeros((bins, codes.max() + 1))
    np.add.at(joint, (binned, codes), 1.0 / n)
    outer = joint.sum(axis=1, keepdims=True) @ joint.sum(axis=0, keepdims=True)
    nz = joint > 0
    return float(np.sum(joint[nz] * np.log(joint[nz] / outer[nz])))


class InterpretSurvival(Workload):
    """cli.main interpret then survival on a paper-scale TSV fixture."""

    name = "interpret-survival-paper"
    why = ("the read path through cli: TSV parse, checkpoint load, MI ranking, clustering, "
           "logrank/KM and SVG/CSV writes; no training or classifiers")

    def setup(self, tracer):
        fixture = os.path.join(self.workdir, "fixture")
        data, masks = _make_data(tracer, self.seed, self.sizes["interpret"])
        self.paths = tracer.call("synth.write_fixture", synth.write_fixture, fixture, data)
        self.n_samples = data.train.n_samples
        X = _normalized(tracer, data.train)
        self.pathway_means = np.stack([X[:, m.indices].mean(axis=1) for m in masks], axis=1)
        self.labels = data.train_labels
        config = TrainConfig(epochs=self.sizes["checkpoint_epochs"],
                             learning_rate=LEARNING_RATE, batch_size=BATCH_SIZE)
        # the MI ranking depends mostly on the model's initial weights, so
        # each input is a checkpoint trained from its own seed
        self.ckpts = []
        for k in range(self.per_pass):
            rng = RngStream(self.input_seed(k))
            model = tracer.call("models.build_model", models.build_model, paae_arch(),
                                X.shape[1], masks, rng, gene_names=list(data.train.gene_names))
            tracer.call("models.fit", models.fit, model, X, config, rng)
            self.ckpts.append(os.path.join(fixture, f"model{k}.ckpt"))
            tracer.call("models.save_checkpoint", models.save_checkpoint, model, self.ckpts[k])
        self.n_pathways = len(masks)
        self.config = os.path.join(fixture, "config.ini")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(
                "[data]\n"
                f"train_expression = {self.paths['train_expression']}\n"
                f"labels = {self.paths['labels']}\n"
                "label_column = subtype\n"
                f"survival = {self.paths['survival']}\n"
                f"pathways = {self.paths['pathways']}\n"
                "dataset_name = bench\n"
                "\n[model]\n"
                "kind = paae\n"
            )

    def _command(self, command, k, out_dir):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([command, "-c", self.config, "--checkpoint", self.ckpts[k],
                             "--output", out_dir])

    def _out(self, command):
        return os.path.join(self.workdir, "out-" + command)

    def op(self):
        k = self.next_input()
        seconds = {}
        codes = {}
        for command in ("interpret", "survival"):
            out = self._out(command)
            shutil.rmtree(out, ignore_errors=True)
            t0 = time.perf_counter()
            codes[command] = self._command(command, k, out)
            seconds[command] = time.perf_counter() - t0
        seconds["op"] = seconds["interpret"] + seconds["survival"]
        return OpResult(k, {"codes": codes}, seconds)

    def _mi_rows(self):
        path = os.path.join(self._out("interpret"), "mi-bench-paae-a.csv")
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        return [(name, float(mi)) for name, mi in rows[1:]]

    def check(self, result):
        problems = []
        for command, code in result.value["codes"].items():
            if code != 0:
                problems.append(f"{command} exited with {code}")
                continue
            out = self._out(command)
            with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
                manifest = json.load(fh)
            missing = [f for f in manifest["files"] if not os.path.exists(os.path.join(out, f))]
            if missing:
                problems.append(f"{command}: manifest lists missing files {missing}")
        if not problems:
            rows = result.value["mi"] = self._mi_rows()
            if len(rows) != self.n_pathways:
                problems.append(f"MI table has {len(rows)} rows, expected {self.n_pathways}")
            if self.first.setdefault(result.k, rows) != rows:
                problems.append(f"checkpoint {result.k}: MI table differs from its first")
        return problems

    @staticmethod
    def top_mi(result):
        """Mean MI with the labels of the top pathways, the ones survival
        analyses (pathae's default top_pathways is 5)."""
        return statistics.mean(mi for _name, mi in result.value["mi"][:TOP_PATHWAYS])

    @functools.cached_property
    def reference_mi(self):
        """The same figure for the pathways' mean expression, by the
        benchmark's own estimator: how much label information the fixture
        offers.  It varies with the seed about as much as ``top_mi`` does."""
        mis = sorted((_binned_mi(col, self.labels) for col in self.pathway_means.T),
                     reverse=True)
        return statistics.mean(mis[:TOP_PATHWAYS])

    def score(self, result):
        return self.top_mi(result) / self.reference_mi

    def named(self, results):
        mis = [self.top_mi(r) for r in results if r.ok]
        return {
            "interpret_s": (statistics.median(r.seconds["interpret"] for r in results), "s"),
            "survival_s": (statistics.median(r.seconds["survival"] for r in results), "s"),
            "top_pathways_mi": (statistics.mean(mis) if mis else 0.0, "nats"),
            "reference_mi": (self.reference_mi, "nats"),
        }

    def inputs(self):
        return {
            "pathways": self.n_pathways,
            "genes": self.sizes["interpret"]["n_genes"],
            "samples": self.n_samples,
            "epochs": self.sizes["checkpoint_epochs"],
            "checkpoints": self.per_pass,
            "trees": 0,
            "tsv_bytes": os.path.getsize(self.paths["train_expression"]),
            "checkpoint_bytes": os.path.getsize(self.ckpts[0]),
        }

    def _interposed(self, tracer):
        n = self.n_samples
        stack = contextlib.ExitStack()
        stack.enter_context(interposed(tracer, dataio, {
            name: f"dataio.{name}" for name in (
                "load_expression_tsv", "fit_normalizer", "apply_normalizer",
                "load_labels", "load_survival")}))
        stack.enter_context(interposed(tracer, models, {"load_checkpoint":
                                                        "models.load_checkpoint"}))
        stack.enter_context(interposed(tracer, pipeline, {
            "extract_representation": "pipeline.extract_representation"}))
        labels = {name: f"interpret.{name}" for name in (
            "rank_pathways_by_mi", "pca_2d", "top_genes_by_anpw", "logrank_test",
            "km_estimate", "emit_clustermap", "emit_featuremap", "emit_km_plot")}
        labels["hierarchical_cluster"] = (
            lambda args: "interpret.cluster_rows" if len(args[0]) == n
            else "interpret.cluster_cols")
        labels["mutual_information"] = "metrics.mutual_information"
        stack.enter_context(interposed(tracer, interpret, labels))
        return stack

    def _check_mi_replica(self, tracer, k):
        """interpret's MI ranking, recomputed from the layer calls
        cmd_interpret makes, must equal the CSV it wrote."""
        with tracer.span("bench.mi_replica"):
            model = models.load_checkpoint(self.ckpts[k])
            table = dataio.load_expression_tsv(self.paths["train_expression"])
            index = {g: i for i, g in enumerate(table.gene_names)}
            values = table.values[:, [index[g] for g in model.gene_names]]
            labels = dataio.load_labels(self.paths["labels"], "subtype")
            keep = [i for i, s in enumerate(table.sample_ids) if s in labels.labels]
            y = np.asarray([labels.labels[table.sample_ids[i]] for i in keep])
            labeled = dataio.ExpressionTable([table.sample_ids[i] for i in keep],
                                             list(model.gene_names), values[keep], table.scale)
            X = dataio.apply_normalizer(dataio.fit_normalizer(labeled, "zscore"), labeled).values
            a = pipeline.extract_representation(model, X, "a")
            ranked = interpret.rank_pathways_by_mi(a, y, model.pathway_names)
        if ranked != self._mi_rows():
            raise ReplicaMismatch("traced MI ranking differs from interpret's CSV")

    def traced(self, tracer, real):
        with self._interposed(tracer):
            with tracer.span("bench.op") as op_span:
                for command in ("interpret", "survival"):
                    out = self._out(command)
                    shutil.rmtree(out, ignore_errors=True)
                    with tracer.span("cli.main") as span:
                        span["command"] = command
                        code = self._command(command, real.k, out)
                    if code != 0:
                        raise ReplicaMismatch(f"traced {command} exited with {code}")
            if tracer.op < self.per_pass:  # once per checkpoint
                self._check_mi_replica(tracer, real.k)
        return {"op_traced": op_span["end"] - op_span["start"], "op_untraced": real.seconds["op"]}

    def layer_metrics(self, tracer, extras):
        cli_spans = [s for s in tracer.spans if s["name"] == "cli.main"]
        survival_ops = sum(1 for s in cli_spans if s["command"] == "survival")
        svg = {}
        for s in tracer.spans:
            if s["name"].startswith("interpret.emit_"):
                svg[s["op"]] = svg.get(s["op"], 0.0) + s["end"] - s["start"]
        load = tracer.durations("dataio.load_expression_tsv")
        tsv_mb = os.path.getsize(self.paths["train_expression"]) / 1e6
        return {
            "models.checkpoint_bytes": os.path.getsize(self.ckpts[0]),
            "dataio.parse_mb_per_s": tsv_mb / statistics.median(load),
            "interpret.logrank_tests":
                len(tracer.durations("interpret.logrank_test")) // survival_ops,
            "interpret.svg_ms": statistics.median(svg.values()) * 1e3,
            "cli.self_ms": statistics.median(tracer.self_time(s) for s in cli_spans) * 1e3,
        }


WORKLOADS = {w.name: w for w in (TrainPaae, TrainVae, ValidateRf, InterpretSurvival)}
