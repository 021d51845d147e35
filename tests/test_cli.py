import csv
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import pathae.cli
from pathae.cli import ExperimentConfig, _RunDir, load_config, main
from pathae.pipeline import REPORT_CSV_COLUMNS


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


class TestSynth:
    def test_files_written(self, fixture_dir):
        for name in ("train_expression.tsv", "test_expression.tsv", "labels.tsv",
                     "survival.tsv", "pathways.gmt", "config.ini"):
            assert (fixture_dir / name).exists()

    def test_pathway_count(self, fixture_dir):
        lines = (fixture_dir / "pathways.gmt").read_text().strip().splitlines()
        assert len(lines) == 6


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

    def test_repeatable_reports(self, fixture_dir, tmp_path):
        cfg1 = write_config(tmp_path / "c1.ini", fixture_dir, tmp_path / "r1")
        cfg2 = write_config(tmp_path / "c2.ini", fixture_dir, tmp_path / "r2")
        assert main(["validate", "-c", cfg1]) == 0
        assert main(["validate", "-c", cfg2]) == 0
        j1 = (tmp_path / "r1" / "report-synth-paae-z.json").read_text()
        j2 = (tmp_path / "r2" / "report-synth-paae-z.json").read_text()
        assert j1 == j2

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

    @pytest.mark.parametrize("command", ["interpret", "survival"])
    def test_truncated_checkpoint_is_data_error(self, fixture_dir, trained_checkpoint, tmp_path,
                                                command):
        _, ckpt = trained_checkpoint
        data = Path(ckpt).read_bytes()
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(data[: len(data) // 2])
        cfg = write_config(tmp_path / "c.ini", fixture_dir, tmp_path / "run")
        assert main([command, "-c", cfg, "--checkpoint", str(cut)]) == 2


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

    def test_missing_survival_file(self, fixture_dir, trained_checkpoint, tmp_path):
        _, ckpt = trained_checkpoint
        cfg = write_config(tmp_path / "c.ini", fixture_dir, tmp_path / "run")
        text = Path(cfg).read_text().replace(
            f"survival = {fixture_dir}/survival.tsv", "survival = /missing.tsv"
        )
        Path(cfg).write_text(text)
        assert main(["survival", "-c", cfg, "--checkpoint", ckpt]) == 1


class TestManifest:
    def test_lists_files_and_hash(self, fixture_dir, tmp_path):
        cfg = write_config(tmp_path / "c.ini", fixture_dir, tmp_path / "run")
        assert main(["train", "-c", cfg]) == 0
        manifest = json.load(open(tmp_path / "run" / "manifest.json"))
        assert manifest["command"] == "train"
        assert len(manifest["config_hash"]) == 16
        for name in manifest["files"]:
            assert (tmp_path / "run" / name).exists()

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
                                                 tmp_path, break_writes, command):
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
