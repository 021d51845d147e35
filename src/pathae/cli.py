"""Command-line entry point.

Subcommands: synth, train, gridsearch, validate, interpret, survival.
Configuration comes from an INI file (sections: data, model, train,
evaluate, grid, interpret, output); command-line flags override file
values. Every subcommand validates its full configuration before touching
the output directory, and finishes by writing a manifest.json listing the
emitted files and a hash of the resolved configuration.

Exit codes: 0 success, 1 usage/configuration, 2 data, 3 numeric/divergence.
Any other exception is a bug: it exits 1 with a one-line "internal error"
message, and prints its traceback only under --verbose.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import logging
import os
import sys
import traceback
from dataclasses import dataclass, field, asdict

import numpy as np

from . import __version__
from . import dataio, interpret, models, pipeline
from .atomic import atomic_open
from .classifiers import CLASSIFIERS
from .errors import ConfigError, DataError, NumericError, PathaeError
from .models import ArchitectureConfig, TrainConfig
from .ndcore import RngStream
from .pipeline import GridSpec, REPORT_CSV_COLUMNS
from .synth import make_synthetic, write_fixture

log = logging.getLogger("pathae")

OUTDIR_ENV = "PATHAE_OUTDIR"


def _parse_int_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [int(t) for t in text.split(",") if t.strip()]


def _parse_grid_axis(text: str) -> list[list[int]]:
    """'64 | 128,64 |' -> [[64], [128, 64], []]."""
    return [_parse_int_list(seg) for seg in text.split("|")]


def _parse_str_list(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def _parse_float_list(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t.strip()]


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOLEANS[text.lower()]
    except KeyError:
        raise ValueError(f"expected one of {', '.join(_BOOLEANS)}") from None


@dataclass
class ExperimentConfig:
    """Resolved configuration for one run."""

    # data
    train_expression: str = ""
    test_expression: str = ""
    orientation: str = "samples_as_rows"
    scale: str = "log2+1"
    labels: str = ""
    label_column: str = "subtype"
    drop_label_values: list[str] = field(default_factory=list)
    test_labels: str = ""
    survival: str = ""
    survival_time_column: str = "time"
    survival_event_column: str = "event"
    gene_mapping: str = ""
    pathways: str = ""
    pathway_format: str = "auto"
    normalization: str = "zscore"
    log_offset: float = 1e-3
    renormalize_test: bool = True
    dataset_name: str = "data"
    # model
    kind: str = "paae"
    encoder_layer_sizes: list[int] = field(default_factory=lambda: [64])
    pathway_hidden_sizes: list[int] = field(default_factory=list)
    decoder_layer_sizes: list[int] | None = None
    dropout: float = 0.5
    beta: float = 1.0
    schedule: str = "none"
    t_start: int = 32
    t_end: int | None = None
    # train
    epochs: int = 1024
    learning_rate: float = 1e-4
    batch_size: int = 128
    seed: int = 0
    # evaluate
    repeats: int = 16
    space: str = "z"
    classifier: str = "lr"
    folds: int = 4
    # grid
    grid_encoder_layer_sizes: list[list[int]] = field(default_factory=lambda: [[64], [128, 64]])
    grid_pathway_hidden_sizes: list[list[int]] = field(default_factory=lambda: [[], [32], [32, 16]])
    grid_betas: list[float] = field(default_factory=lambda: [1.0, 5.0, 10.0, 50.0, 100.0])
    grid_schedules: list[str] = field(default_factory=lambda: ["step", "smooth"])
    grid_classifiers: list[str] = field(default_factory=lambda: ["lr", "rf"])
    # interpret
    top_pathways: int = 5
    top_genes: int = 10
    clustermap_pathways: int = 32
    cluster_metric: str = "cosine"
    cluster_axes: str = "both"
    survival_renorm: str = "none"
    survival_window_days: float = 1825.0
    # output / execution
    output_dir: str = ""
    threads: int = 1

    def config_hash(self) -> str:
        doc = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(doc.encode("utf-8")).hexdigest()[:16]


_SECTION_FIELDS = {
    "data": [
        "train_expression", "test_expression", "orientation", "scale", "labels",
        "label_column", "test_labels", "survival", "survival_time_column",
        "survival_event_column", "gene_mapping", "pathways", "pathway_format",
        "normalization", "dataset_name",
    ],
    "model": ["kind", "schedule"],
    "evaluate": ["space", "classifier"],
    "interpret": ["cluster_metric", "cluster_axes", "survival_renorm"],
    "output": [],
}


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Read the INI file and apply overrides (flags win).

    A value that does not parse is a ConfigError naming its section and key."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    cfg = ExperimentConfig()

    def read(section, options, cast=str, prefix="", keep_empty=False):
        """Set cfg.<prefix><option> from each option present, and non-empty
        unless keep_empty."""
        for option in options:
            if not parser.has_option(section, option):
                continue
            value = parser.get(section, option).strip()
            if value == "" and not keep_empty:
                continue
            try:
                setattr(cfg, prefix + option, cast(value))
            except ValueError as exc:
                raise ConfigError(f"{path}: [{section}] {option} = {value!r}: {exc}") from None

    for section, names in _SECTION_FIELDS.items():
        read(section, names)
    read("data", ["drop_label_values"], _parse_str_list)
    read("data", ["log_offset"], float)
    read("data", ["renormalize_test"], _parse_bool)
    read("model", ["encoder_layer_sizes", "pathway_hidden_sizes", "decoder_layer_sizes"],
         _parse_int_list)
    read("model", ["dropout", "beta"], float)
    read("model", ["t_start", "t_end"], int)
    read("train", ["epochs", "batch_size", "seed"], int)
    read("train", ["learning_rate"], float)
    read("evaluate", ["repeats", "folds"], int)
    read("grid", ["encoder_layer_sizes"], _parse_grid_axis, "grid_")
    read("grid", ["pathway_hidden_sizes"], _parse_grid_axis, "grid_", keep_empty=True)
    read("grid", ["betas"], _parse_float_list, "grid_")
    read("grid", ["schedules", "classifiers"], _parse_str_list, "grid_")
    read("interpret", ["top_pathways", "top_genes", "clustermap_pathways"], int)
    read("interpret", ["survival_window_days"], float)
    read("output", ["dir"], prefix="output_")

    for key, val in (overrides or {}).items():
        if val is not None:
            setattr(cfg, key, val)
    if not cfg.output_dir:
        cfg.output_dir = os.environ.get(OUTDIR_ENV, "pathae-out")
    return cfg


def _require_file(path, what):
    if not path:
        raise ConfigError(f"{what} is required but not configured")
    if not os.path.exists(path):
        raise ConfigError(f"{what} not found: {path}")


def validate_config(cfg: ExperimentConfig, command: str):
    """Check everything the command needs before any side effects."""
    if cfg.kind not in models.KINDS:
        raise ConfigError(f"unknown model kind {cfg.kind!r}")
    if cfg.normalization not in dataio.NORMALIZER_KINDS:
        raise ConfigError(f"unknown normalization {cfg.normalization!r}")
    if cfg.space not in pipeline.SPACES:
        raise ConfigError(f"unknown space {cfg.space!r}")
    if cfg.classifier not in CLASSIFIERS:
        raise ConfigError(f"unknown classifier {cfg.classifier!r}")
    if cfg.threads < 1:
        raise ConfigError("threads must be >= 1")
    needs_pathways = models.is_pathway_kind(cfg.kind)
    if command in ("train", "gridsearch", "validate"):
        _require_file(cfg.train_expression, "train expression table")
        if needs_pathways:
            _require_file(cfg.pathways, f"pathway set (required by {cfg.kind})")
        if cfg.gene_mapping:
            _require_file(cfg.gene_mapping, "gene mapping")
    if command in ("gridsearch", "validate"):
        _require_file(cfg.labels, "label table")
    if command == "validate":
        _require_file(cfg.test_expression, "test expression table")
        if cfg.test_labels:
            _require_file(cfg.test_labels, "test label table")
    if command in ("interpret", "survival"):
        _require_file(cfg.train_expression, "expression table")
        _require_file(cfg.labels, "label table")
    if command == "survival":
        _require_file(cfg.survival, "survival table")
        if cfg.survival_renorm not in ("none", "tpm", "ipm"):
            raise ConfigError(f"unknown survival_renorm {cfg.survival_renorm!r}")
    # construct these early so bad values fail before side effects
    _arch_from(cfg)
    _train_config_from(cfg)
    if command == "gridsearch":
        _grid_from(cfg)


def _arch_from(cfg: ExperimentConfig) -> ArchitectureConfig:
    return ArchitectureConfig(
        kind=cfg.kind,
        encoder_layer_sizes=list(cfg.encoder_layer_sizes),
        pathway_hidden_sizes=list(cfg.pathway_hidden_sizes),
        decoder_layer_sizes=(
            list(cfg.decoder_layer_sizes) if cfg.decoder_layer_sizes else None
        ),
        dropout_rate=cfg.dropout,
        beta=cfg.beta,
        schedule=cfg.schedule,
        t_start=cfg.t_start,
        t_end=cfg.t_end,
    )


def _train_config_from(cfg: ExperimentConfig) -> TrainConfig:
    return TrainConfig(
        epochs=cfg.epochs,
        learning_rate=cfg.learning_rate,
        batch_size=cfg.batch_size,
        seed=cfg.seed,
    )


def _grid_from(cfg: ExperimentConfig) -> GridSpec:
    return GridSpec(
        encoder_layer_sizes=cfg.grid_encoder_layer_sizes,
        pathway_hidden_sizes=cfg.grid_pathway_hidden_sizes,
        betas=cfg.grid_betas,
        schedules=cfg.grid_schedules,
        classifiers=cfg.grid_classifiers,
    )


def _load_expression(cfg: ExperimentConfig, path) -> dataio.ExpressionTable:
    table = dataio.load_expression_tsv(path, orientation=cfg.orientation, scale=cfg.scale)
    if cfg.gene_mapping:
        mapping = dataio.load_gene_mapping(cfg.gene_mapping)
        table = dataio.map_gene_ids(table, mapping)
    if table.scale.is_log:
        table = dataio.merge_duplicate_genes(table)
    return table


def _load_pathway_set(cfg: ExperimentConfig) -> dataio.PathwaySet:
    fmt = cfg.pathway_format
    if fmt == "auto":
        fmt = "msigdb_json" if cfg.pathways.endswith(".json") else "gmt"
    if fmt == "gmt":
        return dataio.parse_gmt(cfg.pathways)
    if fmt == "msigdb_json":
        return dataio.parse_msigdb_json(cfg.pathways)
    raise ConfigError(f"unknown pathway format {fmt!r}")


def _align_labeled(table: dataio.ExpressionTable, label_table: dataio.LabelTable):
    idx = [i for i, sid in enumerate(table.sample_ids) if sid in label_table.labels]
    if not idx:
        raise DataError("no overlap between expression samples and labeled samples")
    y = np.asarray([label_table.labels[table.sample_ids[i]] for i in idx])
    return table.select_samples(idx), y


def _reindex_genes(table: dataio.ExpressionTable, gene_names: list[str]):
    index = {}
    for i, g in enumerate(table.gene_names):
        index.setdefault(g, i)
    missing = [g for g in gene_names if g not in index]
    if missing:
        raise DataError(
            f"expression table lacks {len(missing)} genes required by the checkpoint "
            f"(e.g. {missing[:3]})"
        )
    cols = [index[g] for g in gene_names]
    return dataio.ExpressionTable(
        list(table.sample_ids), list(gene_names), table.values[:, cols], table.scale
    )


class _RunDir:
    """Output directory plus the manifest of files written into it."""

    def __init__(self, cfg: ExperimentConfig, command: str):
        self.dir = cfg.output_dir
        self.command = command
        self.cfg = cfg
        self.files: list[str] = []
        os.makedirs(self.dir, exist_ok=True)

    def path(self, name: str) -> str:
        self.files.append(name)
        return os.path.join(self.dir, name)

    def note(self, path: str):
        self.files.append(os.path.basename(path))

    def finish(self):
        manifest = {
            "command": self.command,
            "config_hash": self.cfg.config_hash(),
            "files": sorted(set(self.files)),
            "version": __version__,
        }
        with atomic_open(os.path.join(self.dir, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
        return manifest


def _resolve_masks(cfg: ExperimentConfig, gene_names):
    if not models.is_pathway_kind(cfg.kind):
        return None
    pset = _load_pathway_set(cfg)
    masks, report = dataio.resolve_pathways(pset, gene_names)
    if report["dropped"]:
        log.info("dropped %d pathways with no genes present", len(report["dropped"]))
    return masks


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_train(cfg: ExperimentConfig) -> int:
    table = _load_expression(cfg, cfg.train_expression)
    masks = _resolve_masks(cfg, table.gene_names)
    norm = dataio.fit_normalizer(table, cfg.normalization, offset=cfg.log_offset)
    X = dataio.apply_normalizer(norm, table).values
    arch = _arch_from(cfg)
    train_config = _train_config_from(cfg)
    rng = RngStream(cfg.seed)
    model = models.build_model(arch, table.n_genes, masks, rng, gene_names=table.gene_names)
    history = models.fit(model, X, train_config, rng)
    run = _RunDir(cfg, "train")
    ckpt = run.path(f"checkpoint-{cfg.dataset_name}-{cfg.kind}.ckpt")
    models.save_checkpoint(model, ckpt)
    losses = run.path(f"losses-{cfg.dataset_name}-{cfg.kind}.csv")
    with atomic_open(losses, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss"])
        for e, value in enumerate(history):
            writer.writerow([e, repr(value)])
    run.finish()
    print(f"wrote {ckpt}")
    return 0


def cmd_gridsearch(cfg: ExperimentConfig) -> int:
    table = _load_expression(cfg, cfg.train_expression)
    masks = _resolve_masks(cfg, table.gene_names)
    label_table = dataio.load_labels(cfg.labels, cfg.label_column, cfg.drop_label_values)
    table, y = _align_labeled(table, label_table)
    norm = dataio.fit_normalizer(table, cfg.normalization, offset=cfg.log_offset)
    X = dataio.apply_normalizer(norm, table).values
    best, rows = pipeline.cross_validate(
        X, y, cfg.kind, _grid_from(cfg), _train_config_from(cfg),
        masks=masks, folds=cfg.folds, rng=RngStream(cfg.seed),
        dropout_rate=cfg.dropout, t_start=cfg.t_start, t_end=cfg.t_end,
    )
    run = _RunDir(cfg, "gridsearch")
    out = run.path(f"gridsearch-{cfg.dataset_name}-{cfg.kind}.csv")
    ordered = sorted(
        rows,
        key=lambda r: (-(r["mean_roc_auc"]) if np.isfinite(r["mean_roc_auc"]) else np.inf,
                       r["cell_index"]),
    )
    with atomic_open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["encoder_layer_sizes", "pathway_hidden_sizes", "beta",
                         "schedule", "classifier", "param_count", "mean_roc_auc", "winner"])
        for r in ordered:
            writer.writerow([
                ",".join(map(str, r["encoder_layer_sizes"])),
                ",".join(map(str, r["pathway_hidden_sizes"])),
                r["beta"], r["schedule"], r["classifier"], r["param_count"],
                repr(r["mean_roc_auc"]),
                "yes" if r["cell_index"] == best["cell_index"] else "no",
            ])
    run.finish()
    print(f"best cell: {best}")
    return 0


def cmd_validate(cfg: ExperimentConfig) -> int:
    train_table = _load_expression(cfg, cfg.train_expression)
    test_table = _load_expression(cfg, cfg.test_expression)
    train_table, test_table = dataio.intersect_genes(train_table, test_table)
    # masks are resolved against the intersected axis
    masks = _resolve_masks(cfg, train_table.gene_names)
    label_table = dataio.load_labels(cfg.labels, cfg.label_column, cfg.drop_label_values)
    test_label_table = (
        dataio.load_labels(cfg.test_labels, cfg.label_column, cfg.drop_label_values)
        if cfg.test_labels else label_table
    )
    train_table, y_train = _align_labeled(train_table, label_table)
    test_table, y_test = _align_labeled(test_table, test_label_table)
    report = pipeline.external_validate(
        train_table, y_train, test_table, y_test,
        _arch_from(cfg), _train_config_from(cfg),
        classifier=cfg.classifier, space=cfg.space, masks=masks,
        norm_kind=cfg.normalization, renormalize_test=cfg.renormalize_test,
        repeats=cfg.repeats, base_seed=cfg.seed,
    )
    run = _RunDir(cfg, "validate")
    stem = f"report-{cfg.dataset_name}-{cfg.kind}-{cfg.space}"
    jpath = run.path(stem + ".json")
    with atomic_open(jpath, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    cpath = run.path(stem + ".csv")
    with atomic_open(cpath, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_CSV_COLUMNS)
        writer.writerow(report.csv_row())
    run.finish()
    agg = report.aggregates()
    print(f"ROC AUC median {agg['roc_auc']['median']:.3f} "
          f"(IQR {agg['roc_auc']['iqr']:.3f}), {report.n_diverged} diverged repeats")
    return 0


def _interpret_inputs(cfg: ExperimentConfig, checkpoint):
    model = models.load_checkpoint(checkpoint)
    if not models.is_pathway_kind(model.arch.kind):
        raise ConfigError(
            f"pathway space unavailable for {model.arch.kind} checkpoints"
        )
    table = _load_expression(cfg, cfg.train_expression)
    if model.gene_names:
        table = _reindex_genes(table, model.gene_names)
    elif table.n_genes != model.gene_count:
        raise DataError(
            f"table has {table.n_genes} genes but checkpoint expects {model.gene_count}"
        )
    label_table = dataio.load_labels(cfg.labels, cfg.label_column, cfg.drop_label_values)
    labeled, y = _align_labeled(table, label_table)
    norm = dataio.fit_normalizer(labeled, cfg.normalization, offset=cfg.log_offset)
    X = dataio.apply_normalizer(norm, labeled).values
    a = pipeline.extract_representation(model, X, "a")
    return model, table, labeled, y, a


def cmd_interpret(cfg: ExperimentConfig, checkpoint) -> int:
    model, _table, _labeled, y, a = _interpret_inputs(cfg, checkpoint)
    names = model.pathway_names
    run = _RunDir(cfg, "interpret")
    base = f"{cfg.dataset_name}-{model.arch.kind}"

    ranked = interpret.rank_pathways_by_mi(a, y, names)
    mi_path = run.path(f"mi-{base}-a.csv")
    with atomic_open(mi_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pathway", "mutual_information"])
        for name, mi in ranked:
            writer.writerow([name, repr(mi)])

    npw_path = run.path(f"anpw-{base}.csv")
    with atomic_open(npw_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pathway", "rank", "gene", "npw"])
        for mask, layers in zip(model.masks, model.params.pathway_encoders):
            gene_names = [model.gene_names[i] for i in mask.indices]
            for rank, (gene, weight) in enumerate(
                interpret.top_genes_by_anpw(layers, gene_names, k=min(cfg.top_genes, mask.size)),
                start=1,
            ):
                writer.writerow([mask.name, rank, gene, f"{weight:+.6f}"])

    top_cols = [names.index(n) for n, _ in ranked[: cfg.clustermap_pathways]]
    sub = a[:, top_cols]
    sub_names = [names[j] for j in top_cols]
    col_tree = interpret.hierarchical_cluster(sub.T, metric=cfg.cluster_metric)
    row_tree = (
        interpret.hierarchical_cluster(sub, metric=cfg.cluster_metric)
        if cfg.cluster_axes == "both" else None
    )
    svg_path, csv_path = interpret.emit_clustermap(
        sub, list(y), sub_names, run.path(f"clustermap-{base}-a.svg"),
        row_tree=row_tree, col_tree=col_tree,
        title=f"pathway activities ({cfg.cluster_metric} distance, average linkage)",
    )
    run.note(csv_path)

    coords, _fractions = interpret.pca_2d(a)
    featmap_files = interpret.emit_featuremap(
        coords, list(y), a[:, [names.index(n) for n, _ in ranked[: cfg.top_pathways]]],
        [n for n, _ in ranked[: cfg.top_pathways]],
        run.dir, f"featuremap-{base}-a",
    )
    for f in featmap_files:
        run.note(f)
    run.finish()
    print(f"interpretability artifacts in {run.dir}")
    return 0


def cmd_survival(cfg: ExperimentConfig, checkpoint) -> int:
    model, table, labeled, y, a = _interpret_inputs(cfg, checkpoint)
    surv = dataio.load_survival(
        cfg.survival, cfg.survival_time_column, cfg.survival_event_column
    )
    surv = interpret.apply_survival_window(surv, cfg.survival_window_days)

    if cfg.survival_renorm == "tpm":
        expr = dataio.fpkm_to_tpm_log(table)
    elif cfg.survival_renorm == "ipm":
        expr = dataio.intensity_to_ipm_log(table)
    else:
        expr = table
    keep = [i for i, sid in enumerate(expr.sample_ids) if sid in surv.records]
    if len(keep) < 3:
        raise DataError(f"only {len(keep)} samples have survival data; need >= 3")
    expr = expr.select_samples(keep)
    times = np.asarray([surv.records[s][0] for s in expr.sample_ids])
    events = np.asarray([surv.records[s][1] for s in expr.sample_ids])

    names = model.pathway_names
    ranked = interpret.rank_pathways_by_mi(a, y, names, k=cfg.top_pathways)
    gene_index = {g: i for i, g in enumerate(expr.gene_names)}

    run = _RunDir(cfg, "survival")
    base = f"{cfg.dataset_name}-{model.arch.kind}"
    results = []
    for pname, _mi in ranked:
        j = names.index(pname)
        mask = model.masks[j]
        layers = model.params.pathway_encoders[j]
        gene_names = [model.gene_names[i] for i in mask.indices]
        for gene, _w in interpret.top_genes_by_anpw(
            layers, gene_names, k=min(cfg.top_genes, mask.size)
        ):
            if gene not in gene_index:
                continue
            values = expr.values[:, gene_index[gene]]
            low, high = interpret.tercile_split(values)
            if set(low.tolist()) & set(high.tolist()):
                results.append((pname, gene, len(low), len(high), float("nan"), float("nan"), False,
                                "degenerate terciles"))
                continue
            stat, p = interpret.logrank_test(times[low], events[low], times[high], events[high])
            significant = p <= 0.05
            results.append((pname, gene, len(low), len(high), stat, p, significant, ""))
            if significant:
                km_low = interpret.km_estimate(times[low], events[low])
                km_high = interpret.km_estimate(times[high], events[high])
                interpret.emit_km_plot(
                    [("low tercile", km_low, "#2166ac"), ("high tercile", km_high, "#b2182c")],
                    f"{gene} ({pname})",
                    run.path(f"km-{base}-{interpret.safe_filename(gene)}.svg"),
                    subtitle=f"logrank p = {p:.4g}, {cfg.survival_window_days:.0f}-day window",
                )

    all_path = run.path(f"survival-tests-{base}.csv")
    with atomic_open(all_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pathway", "gene", "n_low", "n_high", "logrank_chi2", "p", "significant",
                         "note"])
        for row in results:
            writer.writerow([row[0], row[1], row[2], row[3], repr(row[4]), repr(row[5]),
                             "yes" if row[6] else "no", row[7]])
    summary_path = run.path(f"survival-summary-{base}.csv")
    with atomic_open(summary_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pathway", "gene", "logrank_chi2", "p"])
        for row in results:
            if row[6]:
                writer.writerow([row[0], row[1], repr(row[4]), repr(row[5])])
    run.finish()
    n_sig = sum(1 for r in results if r[6])
    print(f"{n_sig} genes significant at p <= 0.05; artifacts in {run.dir}")
    return 0


def cmd_synth(args) -> int:
    data = make_synthetic(
        n_classes=args.classes,
        n_factors=args.factors,
        n_pathways=args.pathways,
        n_genes=args.genes,
        n_background=args.background,
        n_train=args.n_train,
        n_test=args.n_test,
        seed=args.seed,
    )
    paths = write_fixture(args.out, data)
    config_path = os.path.join(args.out, "config.ini")
    with atomic_open(config_path, "w", encoding="utf-8") as fh:
        fh.write(
            "[data]\n"
            f"train_expression = {paths['train_expression']}\n"
            f"test_expression = {paths['test_expression']}\n"
            f"labels = {paths['labels']}\n"
            "label_column = subtype\n"
            f"survival = {paths['survival']}\n"
            f"pathways = {paths['pathways']}\n"
            "normalization = zscore\n"
            "dataset_name = synth\n"
            "\n[model]\n"
            "kind = paae\n"
            "encoder_layer_sizes = 16\n"
            "pathway_hidden_sizes = 8\n"
            "\n[train]\n"
            "epochs = 200\n"
            "seed = 0\n"
            "\n[evaluate]\n"
            "repeats = 4\n"
            "space = z\n"
            "classifier = lr\n"
            "\n[output]\n"
            f"dir = {os.path.join(args.out, 'runs')}\n"
        )
    print(f"fixture written under {args.out} (config: {config_path})")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(sub):
    sub.add_argument("-c", "--config", required=True, help="INI configuration file")
    sub.add_argument("--output", help="output directory (overrides [output] dir)")
    sub.add_argument("--seed", type=int, help="master seed override")
    sub.add_argument("--epochs", type=int, help="training epochs override")
    sub.add_argument("--threads", type=int, default=None,
                     help="accepted for compatibility; has no effect, work runs serially")
    sub.add_argument("--verbose", action="store_true",
                     help="debug logging, and a traceback on an internal error")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pathae", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = subs.add_parser("synth", help="write a synthetic fixture directory")
    sp.add_argument("--out", required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--classes", type=int, default=5)
    sp.add_argument("--factors", type=int, default=8)
    sp.add_argument("--pathways", type=int, default=20)
    sp.add_argument("--genes", type=int, default=400)
    sp.add_argument("--background", type=int, default=150)
    sp.add_argument("--n-train", type=int, default=600)
    sp.add_argument("--n-test", type=int, default=400)

    for name, help_text in (
        ("train", "train one model and write a checkpoint"),
        ("gridsearch", "k-fold cross-validated hyperparameter grid search"),
        ("validate", "repeated external validation with report emission"),
    ):
        sub = subs.add_parser(name, help=help_text)
        _add_common(sub)
        if name == "validate":
            sub.add_argument("--repeats", type=int)
            sub.add_argument("--space", choices=pipeline.SPACES)
            sub.add_argument("--classifier", choices=CLASSIFIERS)

    for name, help_text in (
        ("interpret", "clustermaps, featuremaps, MI ranking and NPW tables"),
        ("survival", "tercile Kaplan-Meier curves and logrank tests"),
    ):
        sub = subs.add_parser(name, help=help_text)
        _add_common(sub)
        sub.add_argument("--checkpoint", required=True)
    return parser


def _overrides_from(args) -> dict:
    mapping = {
        "output": "output_dir",
        "seed": "seed",
        "epochs": "epochs",
        "threads": "threads",
        "repeats": "repeats",
        "space": "space",
        "classifier": "classifier",
    }
    out = {}
    for arg_name, cfg_name in mapping.items():
        if hasattr(args, arg_name) and getattr(args, arg_name) is not None:
            out[cfg_name] = getattr(args, arg_name)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if getattr(args, "verbose", False) else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        if args.command == "synth":
            return cmd_synth(args)
        cfg = load_config(args.config, _overrides_from(args))
        validate_config(cfg, args.command)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "gridsearch":
            return cmd_gridsearch(cfg)
        if args.command == "validate":
            return cmd_validate(cfg)
        if args.command == "interpret":
            return cmd_interpret(cfg, args.checkpoint)
        if args.command == "survival":
            return cmd_survival(cfg, args.checkpoint)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"pathae: config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"pathae: data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"pathae: numeric error: {exc}", file=sys.stderr)
        return 3
    except PathaeError as exc:
        print(f"pathae: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # last resort: a bug, reported without a raw traceback
        if getattr(args, "verbose", False):
            traceback.print_exc(file=sys.stderr)
        print(f"pathae: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
