import argparse
import ast
import configparser
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import pathae.cli
import pathae.pipeline
from pathae.cli import (
    INI_KEYS, PARSERS, ExperimentConfig, _RunDir, build_parser, ini_field, load_config, main,
)
from pathae.dataio import load_expression_tsv, parse_gmt, resolve_pathways
from pathae.models import (
    ArchitectureConfig, build_model, count_params, load_checkpoint, save_checkpoint,
)
from pathae.ndcore import RngStream
from pathae.pipeline import REPORT_CSV_COLUMNS
from pathae.synth import make_synthetic, write_fixture


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    """Small synthetic dataset shared by the CLI tests."""
    root = tmp_path_factory.mktemp("clifix")
    out = root / "data"
    rc = main([
        "synth", "--out", str(out), "--seed", "3",
        "--classes", "3", "--factors", "4", "--pathways", "6",
        "--genes", "60", "--background", "20",
        "--n-train", "48", "--n-test", "36",
    ])
    assert rc == 0
    return out


def write_config(path, fixture_dir, out_dir, kind="paae", extra=""):
    path.write_text(
        f"""[data]
train_expression = {fixture_dir}/train_expression.tsv
test_expression = {fixture_dir}/test_expression.tsv
labels = {fixture_dir}/labels.tsv
label_column = subtype
survival = {fixture_dir}/survival.tsv
pathways = {fixture_dir}/pathways.gmt
normalization = zscore
dataset_name = synth

[model]
kind = {kind}
encoder_layer_sizes = 8
pathway_hidden_sizes = 4
dropout = 0.5

[train]
epochs = 30
learning_rate = 0.001
batch_size = 16
seed = 11

[evaluate]
repeats = 2
space = z
classifier = lr
folds = 4

[grid]
encoder_layer_sizes = 4 | 8
pathway_hidden_sizes = 4
betas = 1
schedules = step
classifiers = lr

[output]
dir = {out_dir}
{extra}""",
        encoding="utf-8",
    )
    return str(path)


def _with_renormalize_test(cfg, word):
    text = Path(cfg).read_text()
    Path(cfg).write_text(text.replace("[data]\n", f"[data]\nrenormalize_test = {word}\n"))
    return cfg


class TestStartup:
    def test_import_leaves_scipy_out(self):
        # SciPy is imported by the lr fit alone, not by every command, and
        # urllib.request (once pulled in by xml.sax.saxutils) by none
        src = str(Path(pathae.cli.__file__).parents[1])
        code = ("import sys, pathae.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy' or m == 'urllib.request'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
        assert out.stdout.strip() == "[]"

class TestSynth:
    def test_files_written(self, fixture_dir):
        for name in ("train_expression.tsv", "test_expression.tsv", "labels.tsv",
                     "survival.tsv", "pathways.gmt", "config.ini"):
            assert (fixture_dir / name).exists()

    def test_pathway_count(self, fixture_dir):
        lines = (fixture_dir / "pathways.gmt").read_text().strip().splitlines()
        assert len(lines) == 6


@pytest.mark.parametrize("command,flags", [
    ("train", ["--seed", "-1"]),
    ("validate", ["--seed", "-1"]),
    ("synth", ["--seed", "-1"]),
    ("synth", ["--pathways", "0"]),
    ("synth", ["--n-train", "0"]),
    ("synth", ["--genes", "10"]),  # fewer genes than the 150 background genes
])
def test_bad_seed_or_synth_size_exits_1_before_work(fixture_dir, tmp_path, capsys, command,
                                                    flags):
    # each once escaped as an internal error
    out = tmp_path / "never"
    if command == "synth":
        argv = ["synth", "--out", str(out)]
    else:
        argv = [command, "-c", write_config(tmp_path / "c.ini", fixture_dir, out)]
    assert main(argv + flags) == 1
    assert capsys.readouterr().err.startswith("pathae: config error:")
    assert not out.exists()


class TestTrain:
    def test_writes_checkpoint_and_losses(self, fixture_dir, tmp_path):
        cfg = write_config(tmp_path / "c.ini", fixture_dir, tmp_path / "run")
        assert main(["train", "-c", cfg]) == 0
        ckpt = tmp_path / "run" / "checkpoint-synth-paae.ckpt"
        losses = tmp_path / "run" / "losses-synth-paae.csv"
        assert ckpt.exists() and losses.exists()
        rows = list(csv.reader(open(losses)))
        assert rows[0] == ["epoch", "loss"]
        assert len(rows) == 31  # header + 30 epochs
        manifest = json.load(open(tmp_path / "run" / "manifest.json"))
        assert "checkpoint-synth-paae.ckpt" in manifest["files"]

    def test_rerun_byte_identical(self, fixture_dir, tmp_path):
        cfg1 = write_config(tmp_path / "c1.ini", fixture_dir, tmp_path / "r1")
        cfg2 = write_config(tmp_path / "c2.ini", fixture_dir, tmp_path / "r2")
        assert main(["train", "-c", cfg1]) == 0
        assert main(["train", "-c", cfg2]) == 0
        b1 = (tmp_path / "r1" / "checkpoint-synth-paae.ckpt").read_bytes()
        b2 = (tmp_path / "r2" / "checkpoint-synth-paae.ckpt").read_bytes()
        assert b1 == b2

    def test_missing_pathway_file_fails_before_outputs(self, fixture_dir, tmp_path):
        out = tmp_path / "never"
        cfg = write_config(tmp_path / "c.ini", fixture_dir, out)
        text = Path(cfg).read_text().replace(
            f"pathways = {fixture_dir}/pathways.gmt", "pathways = /nonexistent.gmt"
        )
        Path(cfg).write_text(text)
        assert main(["train", "-c", cfg]) == 1
        assert not out.exists()

    def test_config_file_missing(self):
        assert main(["train", "-c", "/no/such/config.ini"]) == 1

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["train"])  # missing -c
        assert err.value.code == 1

    def test_parser_built_once_still_exits_1_on_usage_errors(self, capsys):
        assert build_parser() is build_parser()
        for argv in (["train"], ["--version"], ["survival", "-c", "x.ini"]):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == (0 if argv == ["--version"] else 1)

    def test_threads_flag_is_a_usage_error(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "never"
        cfg = write_config(tmp_path / "c.ini", fixture_dir, out)
        with pytest.raises(SystemExit) as err:
            main(["train", "-c", cfg, "--threads", "2"])
        assert err.value.code == 1
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergent_config_exits_3_naming_epoch(self, fixture_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.ini", fixture_dir, tmp_path / "run", kind="pavae")
        text = Path(cfg).read_text().replace("learning_rate = 0.001", "learning_rate = 1e200")
        text = text.replace("beta = 1", "beta = 100")
        Path(cfg).write_text(text)
        rc = main(["train", "-c", cfg])
        captured = capsys.readouterr()
        assert rc in (0, 3)
        if rc == 3:
            assert "epoch" in captured.err


class TestConfigValues:
    @pytest.mark.parametrize("line,bad,where", [
        ("epochs = 30", "epochs = abc", "[train] epochs"),
        ("dropout = 0.5", "dropout = x", "[model] dropout"),
        ("encoder_layer_sizes = 8", "encoder_layer_sizes = 8,y", "[model] encoder_layer_sizes"),
        ("betas = 1", "betas = 1,high", "[grid] betas"),
        ("dataset_name = synth", "dataset_name = a%b", "[data] dataset_name"),  # bare %
    ])
    def test_unparsable_value_exits_1_naming_key(self, fixture_dir, tmp_path, capsys,
                                                 line, bad, where):
        out = tmp_path / "never"
        cfg = write_config(tmp_path / "c.ini", fixture_dir, out)
        Path(cfg).write_text(Path(cfg).read_text().replace(line, bad))
        assert main(["train", "-c", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pathae: config error:") and where in err
        assert not out.exists()


    @pytest.mark.parametrize("word,value", [
        ("on", True), ("YES", True), ("1", True), ("True", True),
        ("off", False), ("No", False), ("0", False), ("false", False),
    ])
    def test_renormalize_test_words(self, fixture_dir, tmp_path, word, value):
        cfg = _with_renormalize_test(write_config(tmp_path / "c.ini", fixture_dir, tmp_path), word)
        assert load_config(cfg).renormalize_test is value

    @pytest.mark.parametrize("word", ["maybe", "enabled", "2", "tru"])
    def test_unknown_renormalize_test_exits_1(self, fixture_dir, tmp_path, capsys, word):
        out = tmp_path / "never"
        cfg = _with_renormalize_test(write_config(tmp_path / "c.ini", fixture_dir, out), word)
        assert main(["validate", "-c", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pathae: config error:") and "[data] renormalize_test" in err
        assert not out.exists()

    @pytest.mark.parametrize("command,section,key,value", [
        ("interpret", "[interpret]", "cluster_metric", "manhattan"),
        ("interpret", "[interpret]", "cluster_axes", "rows"),
        ("train", "[data]", "pathway_format", "bed"),
    ])
    def test_unknown_choice_exits_1_before_work(self, fixture_dir, trained_checkpoint, tmp_path,
                                                capsys, monkeypatch, command, section, key,
                                                value):
        def no_work(*args, **kwargs):
            raise AssertionError("expression table read before the config was checked")

        monkeypatch.setattr(pathae.cli.dataio, "load_expression_tsv", no_work)
        out = tmp_path / "never"
        cfg = write_config(tmp_path / "c.ini", fixture_dir, out, extra="[interpret]\n")
        _replace_in_config(cfg, f"{section}\n", f"{section}\n{key} = {value}\n")
        assert main([command, "-c", cfg, "--checkpoint", trained_checkpoint[1]]
                    if command == "interpret" else [command, "-c", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pathae: config error:") and f"{key} {value!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("old,new,where", [
        ("[train]\n", "[train]\nepoch = 3\n", "[train] epoch"),
        ("[output]\n", "[trian]\nepochs = 3\n\n[output]\n", "[trian] epochs"),
        ("[output]\n", "[trian]\n\n[output]\n", "[trian]"),
        ("[data]\n", "[DEFAULT]\nseed = 5\n\n[data]\n", "[DEFAULT] seed"),
    ])
    def test_unknown_section_or_key_exits_1_before_work(self, fixture_dir, tmp_path, capsys,
                                                         monkeypatch, old, new, where):
        def no_work(*args, **kwargs):
            raise AssertionError("expression table read before the config was checked")

        monkeypatch.setattr(pathae.cli.dataio, "load_expression_tsv", no_work)
        out = tmp_path / "never"
        cfg = write_config(tmp_path / "c.ini", fixture_dir, out)
        _replace_in_config(cfg, old, new)
        assert main(["train", "-c", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pathae: config error:") and f"{where}:" in err
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("scale", "log2+abc"),  # once an internal error
        ("scale", "log2+nan"),  # once trained silently
        ("scale", "log2+inf"),
        ("scale", "log2+-1"),
        ("scale", "log3"),
        ("orientation", "genes_as_columns"),
    ])
    def test_bad_scale_or_orientation_exits_1_before_work(self, fixture_dir, tmp_path, capsys,
                                                          monkeypatch, key, value):
        def no_work(*args, **kwargs):
            raise AssertionError("expression table read before the config was checked")

        monkeypatch.setattr(pathae.cli.dataio, "load_expression_tsv", no_work)
        out = tmp_path / "never"
        cfg = write_config(tmp_path / "c.ini", fixture_dir, out)
        _replace_in_config(cfg, "[data]\n", f"[data]\n{key} = {value}\n")
        assert main(["train", "-c", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"pathae: config error: [data] {key}") and repr(value) in err
        assert not out.exists()

    def test_doubled_percent_is_a_literal_percent(self, fixture_dir, tmp_path):
        cfg = write_config(tmp_path / "c.ini", fixture_dir, tmp_path)
        _replace_in_config(cfg, "dataset_name = synth", "dataset_name = a%%b")
        assert load_config(cfg).dataset_name == "a%b"

    @settings(max_examples=20)
    @given(case=st.one_of(
        st.tuples(st.just(("validate", "evaluate", "repeats")), st.integers(max_value=0)),
        st.tuples(st.just(("gridsearch", "evaluate", "folds")), st.integers(max_value=1)),
        st.tuples(st.sampled_from([("interpret", "interpret", "top_pathways"),
                                   ("survival", "interpret", "top_pathways"),
                                   ("interpret", "interpret", "top_genes"),
                                   ("survival", "interpret", "top_genes")]),
                  st.integers(max_value=0)),
        st.tuples(st.just(("interpret", "interpret", "clustermap_pathways")),
                  st.integers(max_value=1)),
        st.tuples(st.just(("survival", "interpret", "survival_window_days")),
                  st.floats(max_value=0.0) | st.sampled_from([float("nan"), float("inf")])),
        st.tuples(st.just(("train", "data", "log_offset")),
                  st.floats(max_value=-5e-324)
                  | st.sampled_from([float("nan"), float("inf")])),
        # checked by ArchitectureConfig and TrainConfig, under their section
        st.tuples(st.just(("train", "model", "dropout")),
                  st.floats().filter(lambda v: not 0.0 <= v < 1.0)),
        st.tuples(st.just(("train", "model", "beta")),
                  st.floats(max_value=-5e-324)
                  | st.sampled_from([float("nan"), float("inf")])),
        st.tuples(st.just(("train", "train", "learning_rate")),
                  st.floats(max_value=0.0) | st.sampled_from([float("nan"), float("inf")])),
        st.tuples(st.just(("train", "train", "batch_size")), st.integers(max_value=0)),
    ))
    # each once failed late: an internal error, a data error after tables were
    # read or artifacts written, or exit 0 with a truncated ranking
    @example(case=(("validate", "evaluate", "repeats"), 0))
    @example(case=(("gridsearch", "evaluate", "folds"), 0))
    @example(case=(("gridsearch", "evaluate", "folds"), 1))
    @example(case=(("survival", "interpret", "survival_window_days"), 0.0))
    @example(case=(("interpret", "interpret", "top_genes"), -1))
    @example(case=(("survival", "interpret", "top_pathways"), -1))
    @example(case=(("interpret", "interpret", "clustermap_pathways"), 1))
    @example(case=(("train", "data", "log_offset"), float("nan")))
    # NaN and inf once passed and trained, then exited 3 on a diverged loss
    @example(case=(("train", "train", "learning_rate"), float("nan")))
    @example(case=(("train", "train", "learning_rate"), float("inf")))
    @example(case=(("train", "model", "beta"), float("nan")))
    # these once exited 1 with a message naming no section
    @example(case=(("train", "model", "dropout"), float("nan")))
    @example(case=(("train", "model", "beta"), -1.0))
    @example(case=(("train", "train", "batch_size"), 0))
    def test_out_of_range_value_exits_1_before_work(self, fixture_dir, trained_checkpoint,
                                                    tmp_path_factory, case):
        (command, section, key), value = case

        def no_work(*args, **kwargs):
            raise AssertionError("expression table read before the config was checked")

        out = tmp_path_factory.mktemp("range") / "never"
        cfg = write_config(out.parent / "c.ini", fixture_dir, out, extra="[interpret]\n")
        _replace_in_config(cfg, f"\n{key} = ", f"\n; {key} = ")  # comment out its own line
        _replace_in_config(cfg, f"[{section}]\n", f"[{section}]\n{key} = {value!r}\n")
        argv = [command, "-c", cfg]
        if command in ("interpret", "survival"):
            argv += ["--checkpoint", trained_checkpoint[1]]
        err = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
            mp.setattr(pathae.cli.dataio, "load_expression_tsv", no_work)
            assert main(argv) == 1
        # [model] dropout is ArchitectureConfig's dropout_rate
        assert err.getvalue().startswith(f"pathae: config error: [{section}] {key}")
        assert not out.exists()


class TestConfigSchema:
    """The README's ini block, the loader's table and ExperimentConfig
    declare the same settings."""

    def test_readme_ini_block_matches_loader_table(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        parser.read_string(block)
        documented = {s: set(parser[s]) for s in parser.sections()}
        assert documented == {s: set(keys) for s, keys in INI_KEYS.items()}

    def test_every_field_has_one_key_and_a_parser(self):
        reached = sorted(ini_field(s, k) for s, keys in INI_KEYS.items() for k in keys)
        settable = sorted(f.name for f in fields(ExperimentConfig))
        assert reached == settable
        assert all(f.type in PARSERS for f in fields(ExperimentConfig))

    def test_every_override_flag_sets_a_config_field(self):
        # main passes on only the options named after a field; any other
        # option would be parsed and then silently dropped
        settable = {f.name for f in fields(ExperimentConfig)}
        not_overrides = {"help", "config", "verbose", "checkpoint"}
        synth_flags = {"out", "seed", "n_classes", "n_factors", "n_pathways", "n_genes",
                       "n_background", "n_train", "n_test"}
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        for name, sub in subparsers.choices.items():
            dests = {a.dest for a in sub._actions}
            allowed = settable | not_overrides | (synth_flags if name == "synth" else set())
            assert dests <= allowed, (name, sorted(dests - allowed))


    # (section, key, INI value, the built object's field and value); none
    # of these values is a default
    BUILT_FIELDS = [
        ("model", "kind", "pavae", "kind", "pavae"),
        ("model", "encoder_layer_sizes", "32,8", "encoder_layer_sizes", [32, 8]),
        ("model", "pathway_hidden_sizes", "4,2", "pathway_hidden_sizes", [4, 2]),
        ("model", "decoder_layer_sizes", "16", "decoder_layer_sizes", [16]),
        ("model", "dropout", "0.25", "dropout_rate", 0.25),
        ("model", "beta", "2.5", "beta", 2.5),
        ("model", "schedule", "smooth", "schedule", "smooth"),
        ("model", "t_start", "8", "t_start", 8),
        ("model", "t_end", "300", "t_end", 300),
        ("train", "epochs", "7", "epochs", 7),
        ("train", "learning_rate", "0.01", "learning_rate", 0.01),
        ("train", "batch_size", "32", "batch_size", 32),
        ("train", "seed", "9", "seed", 9),
        ("grid", "encoder_layer_sizes", "16 | 32,8", "encoder_layer_sizes", [[16], [32, 8]]),
        ("grid", "pathway_hidden_sizes", "2", "pathway_hidden_sizes", [[2]]),
        ("grid", "betas", "3", "betas", [3.0]),
        ("grid", "schedules", "smooth", "schedules", ["smooth"]),
        ("grid", "classifiers", "rf", "classifiers", ["rf"]),
    ]

    def test_built_fields_cover_every_model_train_and_grid_key(self):
        cases = {(section, key) for section, key, *_ in self.BUILT_FIELDS}
        assert cases == {(s, k) for s in ("model", "train", "grid") for k in INI_KEYS[s]}

    @pytest.mark.parametrize("section,key,text,name,value", BUILT_FIELDS)
    def test_ini_value_reaches_the_built_field(self, tmp_path, section, key, text, name, value):
        path = tmp_path / "c.ini"
        path.write_text(f"[{section}]\n{key} = {text}\n", encoding="utf-8")
        cfg = load_config(str(path))
        default = pathae.cli._build(ExperimentConfig(), section)
        built = pathae.cli._build(cfg, section)
        assert getattr(built, name) == value != getattr(default, name)
        if isinstance(value, list):  # a copy, not the config's own list
            assert getattr(built, name) is not getattr(cfg, ini_field(section, key))

    def test_keys_left_out_build_the_library_defaults(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[model]\n[train]\n", encoding="utf-8")
        cfg = load_config(str(path))
        assert pathae.cli._build(cfg, "train") == pathae.models.TrainConfig()
        assert pathae.cli._build(cfg, "model") == ArchitectureConfig(
            kind="paae", encoder_layer_sizes=[64])

    def test_decoder_sizes_with_no_size_are_the_mirrored_default(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[model]\ndecoder_layer_sizes = ,\n", encoding="utf-8")
        cfg = load_config(str(path))
        assert cfg.decoder_layer_sizes is None
        assert pathae.cli._build(cfg, "model").decoder_layer_sizes is None

    def test_synth_without_flags_writes_make_synthetic_defaults(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "cli")]) == 0
        paths = write_fixture(tmp_path / "lib", make_synthetic())
        for path in paths.values():
            name = os.path.basename(path)
            assert (tmp_path / "cli" / name).read_bytes() == Path(path).read_bytes(), name


class TestGridsearch:
    def test_two_cell_report_single_winner(self, fixture_dir, tmp_path):
        cfg = write_config(tmp_path / "c.ini", fixture_dir, tmp_path / "run")
        assert main(["gridsearch", "-c", cfg]) == 0
        rows = list(csv.reader(open(tmp_path / "run" / "gridsearch-synth-paae.csv")))
        assert rows[0][-1] == "winner"
        assert len(rows) == 3  # header + 2 cells
        winners = [r[-1] for r in rows[1:]]
        assert winners.count("yes") == 1
        aucs = [float(r[-2]) for r in rows[1:]]
        assert aucs == sorted(aucs, reverse=True)

    def test_cell_keeps_decoder_layer_sizes(self, fixture_dir, tmp_path):
        # a one-cell grid equal to [model] must build the model train builds
        header = (fixture_dir / "train_expression.tsv").read_text().split("\n", 1)[0]
        genes = len(header.split("\t")) - 1
        cfg = write_config(tmp_path / "c.ini", fixture_dir, tmp_path / "run")
        _replace_in_config(cfg, "dropout = 0.5\n",
                           f"dropout = 0.5\ndecoder_layer_sizes = 9,{genes}\n")
        _replace_in_config(cfg, "encoder_layer_sizes = 4 | 8\n", "encoder_layer_sizes = 8\n")
        assert main(["train", "-c", cfg]) == 0
        assert main(["gridsearch", "-c", cfg]) == 0
        model = load_checkpoint(str(tmp_path / "run" / "checkpoint-synth-paae.ckpt"))
        rows = list(csv.DictReader(open(tmp_path / "run" / "gridsearch-synth-paae.csv")))
        assert [int(r["param_count"]) for r in rows] == [count_params(model)]


    @pytest.mark.parametrize("line,bad", [
        ("classifiers = lr", "classifiers = lr,svm"),
        ("schedules = step", "schedules = step,ramp"),
    ])
    def test_unknown_grid_entry_exits_1_before_work(self, fixture_dir, tmp_path, capsys,
                                                    line, bad):
        out = tmp_path / "never"
        cfg = write_config(tmp_path / "c.ini", fixture_dir, out)
        Path(cfg).write_text(Path(cfg).read_text().replace(line, bad))
        assert main(["gridsearch", "-c", cfg]) == 1
        assert bad.split(",")[-1] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind,edits", [
        ("paae", [("encoder_layer_sizes = 4 | 8", "encoder_layer_sizes = 0 | 8")]),
        # the [model] step schedule ignores t_end; the grid's smooth one needs t_end > t_start
        ("pavae", [("schedules = step", "schedules = step,smooth"),
                   ("dropout = 0.5", "dropout = 0.5\nschedule = step\nt_start = 5\nt_end = 5")]),
        ("pavae", [("betas = 1", "betas = 1,nan")]),
    ])
    def test_bad_grid_cell_exits_1_naming_grid_before_work(self, fixture_dir, tmp_path, capsys,
                                                            monkeypatch, kind, edits):
        def no_work(*args, **kwargs):
            raise AssertionError("expression table read before the config was checked")

        monkeypatch.setattr(pathae.cli.dataio, "load_expression_tsv", no_work)
        out = tmp_path / "never"
        cfg = write_config(tmp_path / "c.ini", fixture_dir, out, kind=kind)
        for old, new in edits:
            _replace_in_config(cfg, old, new)
        assert main(["gridsearch", "-c", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pathae: config error: [grid] cell (")
        assert not out.exists()

    def test_diverged_cell_is_last_and_not_the_winner(self, fixture_dir, tmp_path, spy_fit):
        spy_fit(lambda arch: arch.encoder_layer_sizes == [4])
        cfg = write_config(tmp_path / "c.ini", fixture_dir, tmp_path / "run")
        assert main(["gridsearch", "-c", cfg]) == 0
        rows = list(csv.DictReader(open(tmp_path / "run" / "gridsearch-synth-paae.csv")))
        assert (rows[-1]["encoder_layer_sizes"], rows[-1]["mean_roc_auc"], rows[-1]["winner"]) == (
            "4", "nan", "no")
        assert rows[0]["encoder_layer_sizes"] == "8" and rows[0]["winner"] == "yes"

    def test_every_cell_diverged_exits_2_without_output(self, fixture_dir, tmp_path, spy_fit,
                                                        capsys):
        spy_fit(lambda arch: True)
        out = tmp_path / "never"
        cfg = write_config(tmp_path / "c.ini", fixture_dir, out)
        assert main(["gridsearch", "-c", cfg]) == 2
        assert "every grid cell diverged" in capsys.readouterr().err
        assert not out.exists()


class TestValidate:
    def test_smoke_and_schema(self, fixture_dir, tmp_path):
        cfg = write_config(tmp_path / "c.ini", fixture_dir, tmp_path / "run")
        assert main(["validate", "-c", cfg]) == 0
        doc = json.load(open(tmp_path / "run" / "report-synth-paae-z.json"))
        assert len(doc["repeats"]) == 2
        assert all("diverged" in r for r in doc["repeats"])
        rows = list(csv.reader(open(tmp_path / "run" / "report-synth-paae-z.csv")))
        assert rows[0] == REPORT_CSV_COLUMNS
        assert len(rows) == 2

    def test_log_offset_reaches_the_report(self, fixture_dir, tmp_path):
        reports = []
        for offset in ("0.001", "5.0"):
            out = tmp_path / offset
            cfg = write_config(tmp_path / f"{offset}.ini", fixture_dir, out)
            _replace_in_config(cfg, "normalization = zscore",
                               f"normalization = log_offset\nlog_offset = {offset}")
            assert main(["validate", "-c", cfg, "--repeats", "1"]) == 0
            reports.append((out / "report-synth-paae-z.json").read_text())
        assert reports[0] != reports[1]

    def test_repeatable_reports(self, fixture_dir, tmp_path):
        cfg1 = write_config(tmp_path / "c1.ini", fixture_dir, tmp_path / "r1")
        cfg2 = write_config(tmp_path / "c2.ini", fixture_dir, tmp_path / "r2")
        assert main(["validate", "-c", cfg1]) == 0
        assert main(["validate", "-c", cfg2]) == 0
        j1 = (tmp_path / "r1" / "report-synth-paae-z.json").read_text()
        j2 = (tmp_path / "r2" / "report-synth-paae-z.json").read_text()
        assert j1 == j2

    def test_unavailable_space_exits_1_before_training(self, fixture_dir, tmp_path,
                                                       monkeypatch, capsys):
        fits = []
        monkeypatch.setattr(pathae.pipeline, "fit", lambda *args: fits.append(args))
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.ini", fixture_dir, out, kind="ae")
        Path(cfg).write_text(Path(cfg).read_text().replace("space = z", "space = a"))
        assert main(["validate", "-c", cfg]) == 1
        assert "space 'a' unavailable for ae" in capsys.readouterr().err
        assert fits == []
        assert not out.exists()

    def test_bad_label_column_is_data_error(self, fixture_dir, tmp_path):
        cfg = write_config(tmp_path / "c.ini", fixture_dir, tmp_path / "run")
        text = Path(cfg).read_text().replace("label_column = subtype", "label_column = missing")
        Path(cfg).write_text(text)
        assert main(["validate", "-c", cfg]) == 2


@pytest.fixture(scope="module")
def trained_checkpoint(fixture_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    cfg = write_config(out / "c.ini", fixture_dir, out / "run")
    assert main(["train", "-c", cfg]) == 0
    return cfg, str(out / "run" / "checkpoint-synth-paae.ckpt")


class TestInterpret:
    def test_artifacts_emitted(self, fixture_dir, trained_checkpoint, tmp_path):
        _, ckpt = trained_checkpoint
        cfg = write_config(tmp_path / "c.ini", fixture_dir, tmp_path / "run")
        assert main(["interpret", "-c", cfg, "--checkpoint", ckpt]) == 0
        run = tmp_path / "run"
        mi_rows = list(csv.reader(open(run / "mi-synth-paae-a.csv")))
        assert mi_rows[0] == ["pathway", "mutual_information"]
        assert len(mi_rows) == 7  # header + 6 pathways
        anpw_rows = list(csv.reader(open(run / "anpw-synth-paae.csv")))
        per_pathway = {}
        for r in anpw_rows[1:]:
            per_pathway.setdefault(r[0], []).append(r)
        assert all(len(v) <= 10 for v in per_pathway.values())
        ET.parse(run / "clustermap-synth-paae-a.svg")
        assert (run / "clustermap-synth-paae-a.csv").exists()
        class_panel = run / "featuremap-synth-paae-a-class.svg"
        assert class_panel.exists()
        svgs = sorted(p.name for p in run.glob("featuremap-*.svg"))
        assert len(svgs) == 1 + 5

    def test_rerun_deterministic_csvs(self, fixture_dir, trained_checkpoint, tmp_path):
        _, ckpt = trained_checkpoint
        cfg1 = write_config(tmp_path / "c1.ini", fixture_dir, tmp_path / "r1")
        cfg2 = write_config(tmp_path / "c2.ini", fixture_dir, tmp_path / "r2")
        assert main(["interpret", "-c", cfg1, "--checkpoint", ckpt]) == 0
        assert main(["interpret", "-c", cfg2, "--checkpoint", ckpt]) == 0
        for name in ("mi-synth-paae-a.csv", "anpw-synth-paae.csv", "clustermap-synth-paae-a.csv"):
            assert (tmp_path / "r1" / name).read_text() == (tmp_path / "r2" / name).read_text()

    def test_dense_checkpoint_rejected(self, fixture_dir, tmp_path):
        out = tmp_path / "runae"
        cfg = write_config(tmp_path / "cae.ini", fixture_dir, out, kind="ae")
        assert main(["train", "-c", cfg]) == 0
        ckpt = str(out / "checkpoint-synth-ae.ckpt")
        cfg2 = write_config(tmp_path / "c2.ini", fixture_dir, tmp_path / "run2")
        assert main(["interpret", "-c", cfg2, "--checkpoint", ckpt]) == 1

    def test_checkpoint_without_gene_names_reads_the_table_genes(self, fixture_dir,
                                                                trained_checkpoint, tmp_path):
        # saved as README's quickstart saves one: build_model without gene_names
        trained = load_checkpoint(trained_checkpoint[1])
        model = build_model(trained.arch, trained.gene_count, trained.masks, RngStream(0))
        ckpt = tmp_path / "unnamed.ckpt"
        save_checkpoint(model, ckpt)
        header = (fixture_dir / "train_expression.tsv").read_text().split("\n", 1)[0]
        genes = header.split("\t")[1:]
        members = {(m.name, genes[i]) for m in model.masks for i in m.indices}
        cfg = write_config(tmp_path / "c.ini", fixture_dir, tmp_path / "run")
        for command in ("interpret", "survival"):
            assert main([command, "-c", cfg, "--checkpoint", str(ckpt)]) == 0
        anpw = list(csv.reader(open(tmp_path / "run" / "anpw-synth-paae.csv")))
        tested = list(csv.reader(open(tmp_path / "run" / "survival-tests-synth-paae.csv")))
        # no pathway has more genes than top_genes = 10, so anpw lists them all
        assert {(r[0], r[2]) for r in anpw[1:]} == members
        assert tested[1:] and {(r[0], r[1]) for r in tested[1:]} <= members

    @pytest.mark.parametrize("command", ["interpret", "survival"])
    def test_truncated_checkpoint_is_data_error(self, fixture_dir, trained_checkpoint, tmp_path,
                                                command):
        _, ckpt = trained_checkpoint
        data = Path(ckpt).read_bytes()
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(data[: len(data) // 2])
        cfg = write_config(tmp_path / "c.ini", fixture_dir, tmp_path / "run")
        assert main([command, "-c", cfg, "--checkpoint", str(cut)]) == 2


@pytest.fixture(scope="class")
def interpret_peak(tmp_path_factory):
    """interpret's tracemalloc peak on a 120 x 800 synth fixture, in units of
    the table's bytes."""
    tmp_path = tmp_path_factory.mktemp("peak")
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--seed", "3", "--pathways", "16",
                 "--genes", "800", "--background", "80", "--n-train", "120",
                 "--n-test", "10"]) == 0
    table = load_expression_tsv(str(data / "train_expression.tsv"))
    masks, _ = resolve_pathways(parse_gmt(str(data / "pathways.gmt")), table.gene_names)
    arch = ArchitectureConfig(kind="paae", encoder_layer_sizes=[16], pathway_hidden_sizes=[8])
    model = build_model(arch, table.n_genes, masks, RngStream(0),
                        gene_names=list(table.gene_names))
    save_checkpoint(model, tmp_path / "m.ckpt")
    table_bytes = table.values.nbytes
    del table, model
    tracemalloc.start()
    try:
        rc = main(["interpret", "-c", str(data / "config.ini"), "--checkpoint",
                   str(tmp_path / "m.ckpt"), "--output", str(tmp_path / "run")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    return peak / table_bytes


class TestReadPathMemory:
    def test_interpret_peak_is_under_four_and_a_half_tables(self, interpret_peak):
        """interpret holds the table, its normalized copy and the layer-0
        blocks (0.9 of a table here) at its peak, not the row-selected and
        zero-padded copies it once made: about 3.8 tables' bytes, against
        5.8 before."""
        assert interpret_peak < 4.5

    def test_interpret_frees_the_table_before_the_forward_pass(self, interpret_peak):
        """interpret keeps only the table's gene names once it has the
        normalized copy, so its peak is that copy and the layer-0 blocks:
        about 2.6 tables' bytes, against 3.6 when it kept the table."""
        assert interpret_peak < 3.0


class TestTableCache:
    @pytest.mark.parametrize("command", ["interpret", "survival"])
    def test_cached_table_gives_the_same_artifacts(self, fixture_dir, trained_checkpoint,
                                                   tmp_path, monkeypatch, command):
        """A run that parses the expression TSV and one that reads its table
        cache write the same bytes, manifest.json included; the second opens
        no expression text."""
        _, ckpt = trained_checkpoint
        data = tmp_path / "data"
        data.mkdir()
        for name in ("train_expression.tsv", "labels.tsv", "survival.tsv", "pathways.gmt"):
            (data / name).write_bytes((fixture_dir / name).read_bytes())
        expression = str(data / "train_expression.tsv")
        cache = Path(pathae.dataio._table_cache_path(expression))
        cfg = write_config(tmp_path / "c.ini", data, tmp_path / "unused")
        real = pathae.dataio._read_table
        for run in ("cold", "warm"):
            assert cache.exists() == (run == "warm")
            seen = []

            def spy(path, *args, **kwargs):
                seen.append(str(path))
                return real(path, *args, **kwargs)

            monkeypatch.setattr(pathae.dataio, "_read_table", spy)
            assert main([command, "-c", cfg, "--checkpoint", ckpt,
                         "--output", str(tmp_path / run)]) == 0
            assert (expression in seen) == (run == "cold")
        cold = sorted(p.name for p in (tmp_path / "cold").iterdir())
        assert cold == sorted(p.name for p in (tmp_path / "warm").iterdir())
        assert "manifest.json" in cold
        for name in cold:
            assert (tmp_path / "cold" / name).read_bytes() == \
                (tmp_path / "warm" / name).read_bytes()


class TestSurvival:
    def test_summary_matches_emitted_plots(self, fixture_dir, trained_checkpoint, tmp_path):
        _, ckpt = trained_checkpoint
        cfg = write_config(tmp_path / "c.ini", fixture_dir, tmp_path / "run")
        assert main(["survival", "-c", cfg, "--checkpoint", ckpt]) == 0
        run = tmp_path / "run"
        summary = list(csv.reader(open(run / "survival-summary-synth-paae.csv")))
        km_files = list(run.glob("km-*.svg"))
        assert len(summary) - 1 == len(km_files)
        tests_rows = list(csv.reader(open(run / "survival-tests-synth-paae.csv")))
        assert tests_rows[0][:2] == ["pathway", "gene"]
        assert len(tests_rows) > 1
        for f in km_files:
            ET.parse(f)

    def test_repeated_gene_name_tests_the_pathway_column(self, fixture_dir, trained_checkpoint,
                                                         tmp_path):
        """On a linear-scale table repeated gene names are kept, and a
        pathway holds a name's first column; the logrank test of that gene
        reads the same column, not a later one of the same name."""
        _, ckpt = trained_checkpoint
        model = load_checkpoint(ckpt)
        members = {i for m in model.masks for i in m.indices.tolist()}
        runs = {}
        for name, rename in (("unique", False), ("repeated", True)):
            data = tmp_path / name
            data.mkdir()
            for f in ("labels.tsv", "survival.tsv", "pathways.gmt"):
                (data / f).write_bytes((fixture_dir / f).read_bytes())
            header, rest = (fixture_dir / "train_expression.tsv").read_text().split("\n", 1)
            cells = header.split("\t")
            if rename:  # the last column, outside every pathway, takes a tested gene's name
                assert model.gene_count - 1 not in members
                cells[-1] = runs["unique"][1][1]
            (data / "train_expression.tsv").write_text("\t".join(cells) + "\n" + rest)
            model.gene_names = cells[1:]
            save_checkpoint(model, data / "m.ckpt")
            cfg = write_config(tmp_path / f"{name}.ini", data, tmp_path / f"run-{name}")
            text = Path(cfg).read_text().replace("[data]\n", "[data]\nscale = linear\n")
            Path(cfg).write_text(text)
            assert main(["survival", "-c", cfg, "--checkpoint", str(data / "m.ckpt")]) == 0
            runs[name] = list(csv.reader(
                open(tmp_path / f"run-{name}" / "survival-tests-synth-paae.csv")))
        assert runs["repeated"] == runs["unique"]

    def test_missing_survival_file(self, fixture_dir, trained_checkpoint, tmp_path):
        _, ckpt = trained_checkpoint
        cfg = write_config(tmp_path / "c.ini", fixture_dir, tmp_path / "run")
        text = Path(cfg).read_text().replace(
            f"survival = {fixture_dir}/survival.tsv", "survival = /missing.tsv"
        )
        Path(cfg).write_text(text)
        assert main(["survival", "-c", cfg, "--checkpoint", ckpt]) == 1


class TestOneEncoderRead:
    def test_read_commands_read_no_pathway_encoders(self):
        # ModelParams.pathway_encoders rebuilds the view lists of all P
        # pathways on each access; the read commands take the neural path
        # weights from the packed tensors (interpret.pathway_top_genes)
        tree = ast.parse(Path(pathae.cli.__file__).read_text(encoding="utf-8"))
        readers = {}
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Attribute) and node.attr == "pathway_encoders":
                    readers[fn.name] = readers.get(fn.name, 0) + 1
        assert readers == {}


def _replace_in_config(cfg, old, new):
    Path(cfg).write_text(Path(cfg).read_text().replace(old, new))


class TestInputErrors:
    """A malformed input file exits 2, or 1 for the INI file, with a message
    naming the file; never as an internal error."""

    def test_invalid_utf8_labels_exit_2(self, fixture_dir, tmp_path, capsys):
        labels = tmp_path / "labels.tsv"
        lines = (fixture_dir / "labels.tsv").read_bytes().split(b"\n")
        lines[2] += b"\xff"
        labels.write_bytes(b"\n".join(lines))
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.ini", fixture_dir, out)
        _replace_in_config(cfg, f"labels = {fixture_dir}/labels.tsv", f"labels = {labels}")
        assert main(["validate", "-c", cfg]) == 2
        assert capsys.readouterr().err.endswith(
            f"pathae: data error: {labels}:3: not valid UTF-8 (byte 0xff)\n")
        assert not out.exists()

    def test_invalid_utf8_config_exit_1(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.ini", fixture_dir, out)
        Path(cfg).write_bytes(Path(cfg).read_bytes().replace(b"= synth", b"= synth\xff"))
        assert main(["train", "-c", cfg]) == 1
        assert capsys.readouterr().err.startswith(
            f"pathae: config error: {cfg}: not valid UTF-8")
        assert not out.exists()

    @pytest.mark.parametrize("raw", ["nan", "inf", "-5"])
    def test_bad_survival_time_exit_2(self, fixture_dir, trained_checkpoint, tmp_path, capsys,
                                      raw):
        surv = tmp_path / "survival.tsv"
        lines = (fixture_dir / "survival.tsv").read_text().split("\n")
        sid, _time, event = lines[3].split("\t")
        lines[3] = f"{sid}\t{raw}\t{event}"
        surv.write_text("\n".join(lines))
        cfg = write_config(tmp_path / "c.ini", fixture_dir, tmp_path / "run")
        _replace_in_config(cfg, f"survival = {fixture_dir}/survival.tsv", f"survival = {surv}")
        assert main(["survival", "-c", cfg, "--checkpoint", trained_checkpoint[1]]) == 2
        assert capsys.readouterr().err.endswith(
            f"pathae: data error: {surv}:4: survival time {raw!r} is not a finite "
            "non-negative number\n")

    def test_non_finite_expression_exit_2(self, fixture_dir, trained_checkpoint, tmp_path,
                                          capsys):
        expr = tmp_path / "train_expression.tsv"
        lines = (fixture_dir / "train_expression.tsv").read_text().split("\n")
        fields = lines[2].split("\t")
        fields[3] = "nan"
        lines[2] = "\t".join(fields)
        expr.write_text("\n".join(lines))
        cfg = write_config(tmp_path / "c.ini", fixture_dir, tmp_path / "run")
        _replace_in_config(cfg, f"train_expression = {fixture_dir}/train_expression.tsv",
                           f"train_expression = {expr}")
        assert main(["interpret", "-c", cfg, "--checkpoint", trained_checkpoint[1]]) == 2
        assert capsys.readouterr().err.endswith(
            f"pathae: data error: {expr}:3: non-finite value 'nan' in column 4\n")


class TestManifest:
    def test_lists_files_and_hash(self, fixture_dir, tmp_path):
        cfg = write_config(tmp_path / "c.ini", fixture_dir, tmp_path / "run")
        assert main(["train", "-c", cfg]) == 0
        manifest = json.load(open(tmp_path / "run" / "manifest.json"))
        assert manifest["command"] == "train"
        assert len(manifest["config_hash"]) == 16
        for name in manifest["files"]:
            assert (tmp_path / "run" / name).exists()

    def test_hash_ignores_output_dir(self, fixture_dir, tmp_path):
        cfg = write_config(tmp_path / "c.ini", fixture_dir, tmp_path / "run")
        hashes = set()
        for out in ("outA", "outB"):
            assert main(["train", "-c", cfg, "--output", str(tmp_path / out)]) == 0
            hashes.add(json.load(open(tmp_path / out / "manifest.json"))["config_hash"])
        assert len(hashes) == 1
        moved = write_config(tmp_path / "m.ini", fixture_dir, tmp_path / "run")
        _replace_in_config(moved, "labels.tsv", "labels2.tsv")  # an input path is hashed
        assert load_config(moved).config_hash() not in hashes

    def test_env_var_default_outdir(self, fixture_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("PATHAE_OUTDIR", str(tmp_path / "envout"))
        cfg = write_config(tmp_path / "c.ini", fixture_dir, "")
        text = Path(cfg).read_text().replace("dir = \n", "")
        Path(cfg).write_text(text)
        assert main(["train", "-c", cfg]) == 0
        assert (tmp_path / "envout" / "checkpoint-synth-paae.ckpt").exists()

    def test_failed_write_leaves_no_partial_manifest(self, tmp_path, break_writes):
        run = _RunDir(ExperimentConfig(output_dir=str(tmp_path / "run")), "train")
        run.finish()
        manifest = tmp_path / "run" / "manifest.json"
        before = manifest.read_bytes()
        run.files.append("more.csv")
        break_writes()
        with pytest.raises(OSError):
            run.finish()
        assert manifest.read_bytes() == before
        assert [p.name for p in (tmp_path / "run").iterdir()] == ["manifest.json"]


class TestAtomicArtifacts:
    """A write that fails partway through any one artifact, as on a full
    disk, leaves every artifact of an earlier run byte for byte and no
    temporary file."""

    @pytest.mark.parametrize("command", [
        "synth", "train", "gridsearch", "validate", "interpret", "survival",
    ])
    def test_failed_write_leaves_no_partial_file(self, fixture_dir, trained_checkpoint,
                                                 tmp_path, break_writes, capsys, command):
        out = tmp_path / "run"
        if command == "synth":
            argv = ["synth", "--out", str(out), "--seed", "3", "--classes", "3",
                    "--pathways", "4", "--genes", "30", "--background", "5",
                    "--n-train", "12", "--n-test", "9"]
        else:
            argv = [command, "-c", write_config(tmp_path / "c.ini", fixture_dir, out)]
        if command in ("interpret", "survival"):
            argv += ["--checkpoint", trained_checkpoint[1]]
        assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        for name in before:
            for writes_ok in (0, 1):  # an artifact written in one piece fails only at 0
                break_writes(writes_ok, name)
                rc = main(argv)
                assert rc == 1 or writes_ok, name
                if rc == 1:
                    assert capsys.readouterr().err.endswith(
                        "pathae: I/O error: [Errno 28] No space left on device\n"), name
                assert {p.name: p.read_bytes() for p in out.iterdir()} == before, name


class TestInternalError:
    @pytest.mark.parametrize("verbose", [False, True])
    def test_unexpected_exception_exits_1(self, fixture_dir, tmp_path, monkeypatch, capsys,
                                          verbose):
        def broken(cfg):
            raise RuntimeError("boom")

        monkeypatch.setattr(pathae.cli, "cmd_train", broken)
        cfg = write_config(tmp_path / "c.ini", fixture_dir, tmp_path / "run")
        assert main(["train", "-c", cfg] + (["--verbose"] if verbose else [])) == 1
        err = capsys.readouterr().err
        line = "pathae: internal error: RuntimeError: boom\n"
        if verbose:
            assert err.startswith("Traceback") and err.endswith(line)
        else:
            assert err == line

    @pytest.mark.parametrize("verbose", [False, True])
    def test_os_error_is_io_error(self, fixture_dir, tmp_path, monkeypatch, capsys, verbose):
        def unreadable(cfg):
            raise PermissionError(13, "Permission denied", "in.tsv")

        monkeypatch.setattr(pathae.cli, "cmd_train", unreadable)
        cfg = write_config(tmp_path / "c.ini", fixture_dir, tmp_path / "run")
        assert main(["train", "-c", cfg] + (["--verbose"] if verbose else [])) == 1
        err = capsys.readouterr().err
        line = "pathae: I/O error: [Errno 13] Permission denied: 'in.tsv'\n"
        if verbose:
            assert err.startswith("Traceback") and err.endswith(line)
        else:
            assert err == line
