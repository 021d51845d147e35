"""Command-line entry point.

Subcommands: synth, train, gridsearch, validate, interpret, survival.
Configuration comes from an INI file (sections: data, model, train,
evaluate, grid, interpret, output; any other section or key is an error);
each command-line override flag sets one configuration field and wins over
the file.  Every subcommand validates its full configuration, enumerated
values and numeric ranges included, before it reads a table or touches the
output directory.  Its work then runs serially in this process, and it
finishes by writing a manifest.json listing the emitted files and a hash of
the resolved configuration.

Exit codes: 0 success, 1 usage/configuration or I/O, 2 data, 3
numeric/divergence. A failed read or write (OSError) exits 1 with a one-line
"I/O error" message; any other exception is a bug and exits 1 with a one-line
"internal error" message. Tracebacks are printed only under --verbose.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import logging
import math
import os
import sys
import traceback
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from . import __version__
from . import dataio, interpret, models, pipeline
from .atomic import atomic_open, write_csv
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
    # output
    output_dir: str = ""

    def config_hash(self) -> str:
        doc = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(doc.encode("utf-8")).hexdigest()[:16]


# Every INI key, by section: each sets the ExperimentConfig field of its own
# name, except that a [grid] key sets grid_<key> and [output] dir sets
# output_dir. The field's annotation picks the parser.
INI_KEYS = {
    "data": (
        "train_expression", "test_expression", "orientation", "scale", "labels",
        "label_column", "drop_label_values", "test_labels", "survival",
        "survival_time_column", "survival_event_column", "gene_mapping", "pathways",
        "pathway_format", "normalization", "log_offset", "renormalize_test", "dataset_name",
    ),
    "model": (
        "kind", "encoder_layer_sizes", "pathway_hidden_sizes", "decoder_layer_sizes",
        "dropout", "beta", "schedule", "t_start", "t_end",
    ),
    "train": ("epochs", "learning_rate", "batch_size", "seed"),
    "evaluate": ("repeats", "space", "classifier", "folds"),
    "grid": ("encoder_layer_sizes", "pathway_hidden_sizes", "betas", "schedules", "classifiers"),
    "interpret": (
        "top_pathways", "top_genes", "clustermap_pathways", "cluster_metric", "cluster_axes",
        "survival_renorm", "survival_window_days",
    ),
    "output": ("dir",),
}
_FIELD_PREFIX = {"grid": "grid_", "output": "output_"}
# An empty value keeps the field's default, except here, where it is the
# single cell without pathway hidden layers.
_EMPTY_IS_A_VALUE = {("grid", "pathway_hidden_sizes")}
PARSERS = {"str": str, "int": int, "int | None": int, "float": float, "bool": _parse_bool,
           "list[str]": _parse_str_list, "list[int]": _parse_int_list,
           "list[int] | None": _parse_int_list, "list[float]": _parse_float_list,
           "list[list[int]]": _parse_grid_axis}
_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def ini_field(section: str, key: str) -> str:
    """The ExperimentConfig field that ``[section] key`` sets."""
    return _FIELD_PREFIX.get(section, "") + key


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Read the INI file and apply overrides (flags win; None means unset).

    An unknown section, an unknown key, a [DEFAULT] key or a value that does
    not parse is a ConfigError naming its section and key."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not valid UTF-8 ({exc.reason})") from None
    cfg = ExperimentConfig()
    # [DEFAULT] comes first: once it is known to be empty, no other section
    # inherits keys from it
    for section in (parser.default_section, *parser.sections()):
        keys = list(parser[section])
        known = INI_KEYS.get(section)
        if known is None and (keys or section != parser.default_section):
            where = " ".join([f"[{section}]", *keys[:1]])
            raise ConfigError(
                f"{path}: {where}: unknown section; expected one of {' | '.join(INI_KEYS)}"
            )
        for key in keys:
            if key not in known:
                raise ConfigError(
                    f"{path}: [{section}] {key}: unknown key; expected one of {' | '.join(known)}"
                )
            try:
                value = parser.get(section, key).strip()
            except configparser.InterpolationError as exc:
                raise ConfigError(f"{path}: [{section}] {key}: {exc.message}") from None
            if value == "" and (section, key) not in _EMPTY_IS_A_VALUE:
                continue
            name = ini_field(section, key)
            try:
                setattr(cfg, name, PARSERS[_FIELD_TYPES[name]](value))
            except ValueError as exc:
                raise ConfigError(f"{path}: [{section}] {key} = {value!r}: {exc}") from None

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


PATHWAY_FORMATS = ("auto", "gmt", "msigdb_json")
CLUSTER_AXES = ("both", "cols")
SURVIVAL_RENORMS = ("none", "tpm", "ipm")
# Ranges the parsers cannot express: (section, key, requirement, test).
RANGES = (
    ("evaluate", "repeats", ">= 1", lambda v: v >= 1),
    ("evaluate", "folds", ">= 2", lambda v: v >= 2),
    ("interpret", "top_pathways", ">= 1", lambda v: v >= 1),
    ("interpret", "top_genes", ">= 1", lambda v: v >= 1),
    ("interpret", "clustermap_pathways", ">= 2", lambda v: v >= 2),
    ("interpret", "survival_window_days", "finite and > 0", lambda v: math.isfinite(v) and v > 0),
)


def validate_config(cfg: ExperimentConfig, command: str):
    """Check everything the command needs before any side effects."""
    for key, allowed in (
        ("kind", models.KINDS),
        ("normalization", dataio.NORMALIZER_KINDS),
        ("space", pipeline.SPACES),
        ("classifier", CLASSIFIERS),
        ("pathway_format", PATHWAY_FORMATS),
        ("cluster_metric", interpret.CLUSTER_METRICS),
        ("cluster_axes", CLUSTER_AXES),
        ("survival_renorm", SURVIVAL_RENORMS),
    ):
        value = getattr(cfg, key)
        if value not in allowed:
            raise ConfigError(f"unknown {key} {value!r}; expected one of {' | '.join(allowed)}")
    for section, key, requirement, test in RANGES:
        value = getattr(cfg, ini_field(section, key))
        if not test(value):
            raise ConfigError(f"[{section}] {key} = {value!r}: must be {requirement}")
    if command == "validate":
        pipeline.check_space(cfg.kind, cfg.space)
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
    # construct these early so bad values fail before side effects
    try:
        arch = _arch_from(cfg)
    except ConfigError as exc:
        raise ConfigError(f"[model] {exc}") from None
    try:
        _train_config_from(cfg)
    except ConfigError as exc:
        raise ConfigError(f"[train] {exc}") from None
    if command == "gridsearch":
        _grid_from(cfg).cells(arch)


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
    return dataio.parse_msigdb_json(cfg.pathways)


def _align_labeled(table: dataio.ExpressionTable, label_table: dataio.LabelTable):
    idx = [i for i, sid in enumerate(table.sample_ids) if sid in label_table.labels]
    if not idx:
        raise DataError("no overlap between expression samples and labeled samples")
    y = np.asarray([label_table.labels[table.sample_ids[i]] for i in idx])
    return table.select_samples(idx), y


def _reindex_genes(table: dataio.ExpressionTable, gene_names: list[str]):
    if table.gene_names == list(gene_names):
        return table
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
    write_csv(run.path(f"losses-{cfg.dataset_name}-{cfg.kind}.csv"), ["epoch", "loss"],
              enumerate(history))
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
        X, y, _arch_from(cfg), _grid_from(cfg), _train_config_from(cfg),
        masks=masks, folds=cfg.folds, rng=RngStream(cfg.seed),
    )
    run = _RunDir(cfg, "gridsearch")
    out = run.path(f"gridsearch-{cfg.dataset_name}-{cfg.kind}.csv")
    ordered = sorted(
        rows,
        key=lambda r: (-(r["mean_roc_auc"]) if np.isfinite(r["mean_roc_auc"]) else np.inf,
                       r["cell_index"]),
    )
    write_csv(out, ["encoder_layer_sizes", "pathway_hidden_sizes", "beta", "schedule",
                    "classifier", "param_count", "mean_roc_auc", "winner"], (
        [",".join(map(str, r["encoder_layer_sizes"])),
         ",".join(map(str, r["pathway_hidden_sizes"])),
         r["beta"], r["schedule"], r["classifier"], r["param_count"], r["mean_roc_auc"],
         "yes" if r["cell_index"] == best["cell_index"] else "no"]
        for r in ordered
    ))
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
        norm_kind=cfg.normalization, log_offset=cfg.log_offset,
        renormalize_test=cfg.renormalize_test,
        repeats=cfg.repeats, base_seed=cfg.seed,
    )
    run = _RunDir(cfg, "validate")
    stem = f"report-{cfg.dataset_name}-{cfg.kind}-{cfg.space}"
    jpath = run.path(stem + ".json")
    with atomic_open(jpath, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    write_csv(run.path(stem + ".csv"), REPORT_CSV_COLUMNS, [report.csv_row()])
    run.finish()
    agg = report.aggregates()
    print(f"ROC AUC median {agg['roc_auc']['median']:.3f} "
          f"(IQR {agg['roc_auc']['iqr']:.3f}), {report.n_diverged} diverged repeats")
    return 0


def _interpret_inputs(cfg: ExperimentConfig, checkpoint):
    model = models.load_checkpoint(checkpoint)
    pipeline.check_space(model.arch.kind, "a")
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
    write_csv(run.path(f"mi-{base}-a.csv"), ["pathway", "mutual_information"], ranked)

    npw_rows = []
    for mask, layers in zip(model.masks, model.params.pathway_encoders):
        gene_names = [model.gene_names[i] for i in mask.indices]
        for rank, (gene, weight) in enumerate(
            interpret.top_genes_by_anpw(layers, gene_names, k=min(cfg.top_genes, mask.size)),
            start=1,
        ):
            npw_rows.append([mask.name, rank, gene, f"{weight:+.6f}"])
    write_csv(run.path(f"anpw-{base}.csv"), ["pathway", "rank", "gene", "npw"], npw_rows)

    column = {}
    for j, name in enumerate(names):
        column.setdefault(name, j)
    top_cols = [column[n] for n, _ in ranked[: cfg.clustermap_pathways]]
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
        coords, list(y), a[:, [column[n] for n, _ in ranked[: cfg.top_pathways]]],
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
    names = model.pathway_names
    # ranked before the survival cohort's copy of the table exists, so the
    # ranking's temporaries do not add to the command's peak memory
    ranked = interpret.rank_pathways_by_mi(a, y, names, k=cfg.top_pathways)
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

    gene_index = {g: i for i, g in enumerate(expr.gene_names)}
    encoders = model.params.pathway_encoders

    run = _RunDir(cfg, "survival")
    base = f"{cfg.dataset_name}-{model.arch.kind}"
    results = []
    for pname, _mi in ranked:
        j = names.index(pname)
        mask = model.masks[j]
        layers = encoders[j]
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

    write_csv(run.path(f"survival-tests-{base}.csv"),
              ["pathway", "gene", "n_low", "n_high", "logrank_chi2", "p", "significant", "note"],
              ([*row[:6], "yes" if row[6] else "no", row[7]] for row in results))
    write_csv(run.path(f"survival-summary-{base}.csv"), ["pathway", "gene", "logrank_chi2", "p"],
              ([*row[:2], *row[4:6]] for row in results if row[6]))
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
    sub.add_argument("--output", dest="output_dir",
                     help="output directory (overrides [output] dir)")
    sub.add_argument("--seed", type=int, help="master seed override")
    sub.add_argument("--epochs", type=int, help="training epochs override")
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
        # each override flag's dest is the name of the field it sets
        cfg = load_config(args.config,
                          {f.name: getattr(args, f.name, None) for f in fields(ExperimentConfig)})
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
    except Exception as exc:  # a failed read or write, or a bug: one line, no raw traceback
        if getattr(args, "verbose", False):
            traceback.print_exc(file=sys.stderr)
        what = "I/O error" if isinstance(exc, OSError) else f"internal error: {type(exc).__name__}"
        print(f"pathae: {what}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
