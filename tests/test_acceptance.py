"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities (run with `pytest tests/test_acceptance.py -v -s`).

Everything here runs on bundled synthetic data; nothing is downloaded.
"""

import csv
import json
import math
import time
from itertools import combinations

import numpy as np
import pytest

from pathae.classifiers import lr_fit, lr_predict_proba
from pathae.cli import main
from pathae.dataio import (
    ExpressionTable,
    Scale,
    apply_normalizer,
    fit_normalizer,
    merge_duplicate_genes,
    per_million,
    resolve_pathways,
)
from pathae.interpret import km_estimate, logrank_test, neural_path_weights
from pathae.metrics import roc_auc_macro, wilcoxon_rank_sum
from pathae.models import (
    ArchitectureConfig,
    PathwayMask,
    TrainConfig,
    beta_schedule,
    build_model,
    count_params,
    fit,
    flat_params,
    forward,
    loss_and_grads,
    mse_loss,
    pathway_activity_forward,
    reconstruct,
)
from pathae.ndcore import RngStream, finite_diff_grad
from pathae.pipeline import extract_representation
from pathae.synth import make_synthetic

from conftest import max_rel_err
from reference import loss


def report(line):
    print(f"\nACCEPTANCE {line}", flush=True)


def randomize(model, rng, scale=0.4):
    for p in flat_params(model):
        p[...] = rng.normal(size=p.shape) * scale


def random_toy_model(kind, rng):
    """A toy instance with <= 10 genes and <= 3 pathways."""
    genes = int(rng.integers(4, 11))
    arch = ArchitectureConfig(
        kind=kind,
        encoder_layer_sizes=[int(rng.integers(2, 5)), int(rng.integers(1, 4))],
        pathway_hidden_sizes=[int(rng.integers(1, 4))] if rng.uniform() < 0.6 else [],
        dropout_rate=0.3,
    )
    masks = None
    if kind in ("paae", "pavae"):
        n_pw = int(rng.integers(1, 4))
        masks = []
        for j in range(n_pw):
            size = int(rng.integers(1, max(2, genes // n_pw)))
            idx = np.sort(rng.choice(genes, size=size, replace=False))
            masks.append(PathwayMask(f"P{j}", idx))
    model = build_model(arch, genes, masks, rng)
    randomize(model, rng)
    return model, genes


def test_criterion_1_gradient_suite():
    """Every layer and every composite loss matches central finite
    differences within 1e-3 relative on >= 50 random toy instances."""
    start = time.time()
    rng = RngStream(1001)
    worst = 0.0
    n_instances = 0
    for kind in ("ae", "paae", "vae", "pavae"):
        for _trial in range(13):
            model, genes = random_toy_model(kind, rng)
            x = rng.normal(size=(int(rng.integers(2, 5)), genes))
            beta_eff = float(rng.uniform(low=0.1, high=2.0)) if kind in ("vae", "pavae") else 0.0
            replay = int(rng.integers(0, 2**31))
            outs = forward(model, x, training=True, rng=RngStream(replay))
            _, grads = loss_and_grads(model, x, outs, beta_eff)
            for p, g in zip(flat_params(model), grads):
                def f(v, p=p):
                    old = p.copy()
                    p[...] = v
                    value = loss(model, x, forward(model, x, training=True,
                                                   rng=RngStream(replay)), beta_eff)
                    p[...] = old
                    return value

                fd = finite_diff_grad(f, p.copy())
                worst = max(worst, max_rel_err(g, fd))
            n_instances += 1
    elapsed = time.time() - start
    assert n_instances >= 50
    assert worst < 1e-3
    assert elapsed < 30.0
    report(f"1 PASS: gradient suite, {n_instances} instances, "
           f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_schedule_contract():
    beta, ts, te = 5.0, 32, 160
    step_vals = [beta_schedule(t, "step", beta, ts, te) for t in range(1024)]
    assert all(v == 0.0 for v in step_vals[:ts])
    assert all(v == beta for v in step_vals[ts:])
    smooth_vals = [beta_schedule(t, "smooth", beta, ts, te) for t in range(1024)]
    assert abs(smooth_vals[ts] - 0.0) <= 0.01 * beta
    assert abs(smooth_vals[te] - beta) <= 0.01 * beta
    mid = (ts + te) // 2
    assert beta_schedule(mid, "smooth", beta, ts, te) == pytest.approx(beta / 2.0)
    for vals in (step_vals, smooth_vals):
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= beta for v in vals)
    report("2 PASS: step/smooth schedule endpoints, midpoint and monotonicity")


def test_criterion_3_masking_invariant():
    rng = RngStream(33)
    genes = 30
    masks = [
        PathwayMask("P0", np.arange(0, 6)),
        PathwayMask("P1", np.arange(8, 15)),
        PathwayMask("P2", np.arange(17, 20)),
    ]
    covered = set()
    for m in masks:
        covered.update(m.indices.tolist())
    outside = sorted(set(range(genes)) - covered)
    arch = ArchitectureConfig(
        kind="paae", encoder_layer_sizes=[4], pathway_hidden_sizes=[3], dropout_rate=0.0
    )
    model = build_model(arch, genes, masks, rng)
    x = rng.normal(size=(12, genes))
    a_ref = pathway_activity_forward(model, x)
    for _ in range(100):
        x2 = x.copy()
        g = outside[int(rng.integers(0, len(outside)))]
        x2[:, g] += rng.normal(size=12) * 10.0
        a_pert = pathway_activity_forward(model, x2)
        assert np.array_equal(a_ref, a_pert)
    report("3 PASS: 100 out-of-mask perturbations changed the activity vector by exactly 0")


@pytest.fixture(scope="module")
def synthetic_run():
    """Full-scale synthetic end-to-end training shared by criterion 4."""
    start = time.time()
    data = make_synthetic(
        n_classes=5, n_factors=8, n_pathways=20, n_genes=400, n_background=150,
        n_train=600, n_test=400, seed=7,
    )
    masks, _ = resolve_pathways(data.pathways, data.train.gene_names)
    X_train = apply_normalizer(fit_normalizer(data.train, "zscore"), data.train).values
    X_test = apply_normalizer(fit_normalizer(data.test, "zscore"), data.test).values
    arch = ArchitectureConfig(
        kind="paae", encoder_layer_sizes=[16], pathway_hidden_sizes=[8], dropout_rate=0.25
    )
    rng = RngStream(123)
    model = build_model(arch, 400, masks, rng)
    fit(model, X_train, TrainConfig(epochs=1024, learning_rate=2e-4, batch_size=128), rng)
    return {
        "data": data, "model": model, "masks": masks,
        "X_train": X_train, "X_test": X_test, "elapsed": time.time() - start,
    }


def test_criterion_4_synthetic_end_to_end(synthetic_run):
    run = synthetic_run
    data, model = run["data"], run["model"]
    X_train, X_test = run["X_train"], run["X_test"]

    # (a) held-out reconstruction beats predict-the-mean by at least 2x
    mse, _ = mse_loss(X_test, reconstruct(model, X_test))
    baseline = float(np.mean((X_test - X_train.mean(axis=0)) ** 2))
    assert mse <= 0.5 * baseline

    # (b) both representation spaces separate classes; shuffled controls do not
    aucs = {}
    for space in ("a", "z"):
        rep_train = extract_representation(model, X_train, space)
        rep_test = extract_representation(model, X_test, space)
        clf = lr_fit(rep_train, data.train_labels)
        auc = roc_auc_macro(
            data.test_labels, lr_predict_proba(clf, rep_test), vocabulary=list(clf.classes)
        )
        shuffle = RngStream(55).permutation(len(data.train_labels))
        clf_sh = lr_fit(rep_train, data.train_labels[shuffle])
        auc_sh = roc_auc_macro(
            data.test_labels, lr_predict_proba(clf_sh, rep_test),
            vocabulary=list(clf_sh.classes),
        )
        assert auc >= 0.90
        assert auc_sh <= 0.55
        aucs[space] = (auc, auc_sh)

    # (c) pathway constraint saves parameters at matched latent width
    ae = build_model(
        ArchitectureConfig(kind="ae", encoder_layer_sizes=[16], dropout_rate=0.25),
        400, rng=RngStream(1),
    )
    assert count_params(model) < count_params(ae)

    assert run["elapsed"] < 300.0
    report(
        "4 PASS: end-to-end synthetic; "
        f"MSE ratio {mse / baseline:.3f} (<=0.5), "
        f"AUC a={aucs['a'][0]:.3f}/shuffled {aucs['a'][1]:.3f}, "
        f"z={aucs['z'][0]:.3f}/shuffled {aucs['z'][1]:.3f}, "
        f"params {count_params(model)} < {count_params(ae)}, "
        f"train {run['elapsed']:.0f}s"
    )


def test_criterion_5_metric_oracles():
    # macro OvR AUC equals pairwise counting on 200 random fixtures
    rng = RngStream(101)
    for _ in range(200):
        n = int(rng.integers(4, 101))
        k = int(rng.integers(2, 5))
        y = rng.integers(0, k, size=n)
        while len(set(y.tolist())) < 2:
            y = rng.integers(0, k, size=n)
        scores = np.round(rng.uniform(size=(n, k)), 2)
        vocab = sorted(set(y.tolist()))
        per_class = []
        for c in vocab:
            col = scores[:, vocab.index(c)]
            pos, neg = col[y == c], col[y != c]
            if len(pos) == 0 or len(neg) == 0:
                continue
            wins = sum(
                1.0 if p > q else (0.5 if p == q else 0.0) for p in pos for q in neg
            )
            per_class.append(wins / (len(pos) * len(neg)))
        expected = float(np.mean(per_class))
        got = roc_auc_macro(y, scores[:, [vocab.index(c) for c in vocab]], vocabulary=vocab)
        assert got == expected

    # Wilcoxon exact path equals full enumeration
    _u, p = wilcoxon_rank_sum([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert p == pytest.approx(0.1)
    rng = RngStream(202)
    for _ in range(10):
        na, nb = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        a, b = rng.normal(size=na), rng.normal(size=nb)
        _u, p_got = wilcoxon_rank_sum(a, b)
        pooled = np.concatenate([a, b])
        order = np.argsort(pooled)
        ranks = np.empty(len(pooled))
        ranks[order] = np.arange(1, len(pooled) + 1)
        w = ranks[:na].sum()
        sums = [sum(ranks[list(c)]) for c in combinations(range(na + nb), na)]
        expected = min(1.0, 2.0 * min(np.mean([s <= w for s in sums]),
                                      np.mean([s >= w for s in sums])))
        assert p_got == pytest.approx(expected)

    # KM and logrank match the hand-computed fixtures exactly
    curve = km_estimate([1.0, 2.0], [True, True])
    assert curve.survival.tolist() == [1.0, 0.5, 0.0]
    curve = km_estimate([1.0, 2.0], [False, True])
    assert curve.at(2.0) == 0.0
    stat, p = logrank_test([1.0, 3.0, 5.0], [True] * 3, [2.0, 4.0, 6.0], [True] * 3)
    assert stat == 529.0 / 1091.0
    assert p == math.erfc(math.sqrt(529.0 / 1091.0 / 2.0))
    report("5 PASS: AUC == pair counting on 200 fixtures; exact Wilcoxon == "
           "enumeration; KM/logrank match hand fixtures bit-for-bit")


def test_criterion_6_npw_jacobian_equivalence():
    rng = RngStream(66)
    worst = 0.0
    for trial in range(20):
        genes = int(rng.integers(3, 11))
        size = int(rng.integers(2, genes + 1))
        idx = np.sort(rng.choice(genes, size=size, replace=False))
        # zero hidden layers keep the pathway encoder all-linear
        arch = ArchitectureConfig(
            kind="paae", encoder_layer_sizes=[2], pathway_hidden_sizes=[], dropout_rate=0.0
        )
        model = build_model(arch, genes, [PathwayMask("P", idx)], rng)
        randomize(model, rng)
        npw = neural_path_weights(model.params.pathway_encoders[0])
        x0 = rng.normal(size=(1, genes))

        def activity(v):
            x = x0.copy()
            x[0, idx] = v
            return float(forward(model, x).a[0, 0])

        jac = finite_diff_grad(activity, x0[0, idx].copy())
        worst = max(worst, max_rel_err(npw, jac))
    assert worst < 1e-6
    report(f"6 PASS: NPW == finite-difference Jacobian on 20 linear encoders "
           f"(max rel err {worst:.2e})")


def _write_cli_fixture(tmp_path, seed=3):
    out = tmp_path / "data"
    rc = main([
        "synth", "--out", str(out), "--seed", str(seed),
        "--classes", "3", "--factors", "4", "--pathways", "6",
        "--genes", "60", "--background", "20", "--n-train", "48", "--n-test", "36",
    ])
    assert rc == 0
    return out


def _cli_config(path, fixture, out_dir, kind="paae", lr="0.001", beta="1.0",
                schedule="none", epochs=25, repeats=4):
    path.write_text(f"""[data]
train_expression = {fixture}/train_expression.tsv
test_expression = {fixture}/test_expression.tsv
labels = {fixture}/labels.tsv
label_column = subtype
survival = {fixture}/survival.tsv
pathways = {fixture}/pathways.gmt
normalization = zscore
dataset_name = synth

[model]
kind = {kind}
encoder_layer_sizes = 8
pathway_hidden_sizes = 4
dropout = 0.5
beta = {beta}
schedule = {schedule}

[train]
epochs = {epochs}
learning_rate = {lr}
batch_size = 16
seed = 11

[evaluate]
repeats = {repeats}
space = {'mu' if kind in ('vae', 'pavae') else 'z'}
classifier = lr
folds = 4

[output]
dir = {out_dir}
""", encoding="utf-8")
    return str(path)


def test_criterion_7_determinism(tmp_path):
    fixture = _write_cli_fixture(tmp_path)
    cfg1 = _cli_config(tmp_path / "c1.ini", fixture, tmp_path / "r1")
    cfg2 = _cli_config(tmp_path / "c2.ini", fixture, tmp_path / "r2")
    assert main(["train", "-c", cfg1]) == 0
    assert main(["train", "-c", cfg2]) == 0
    b1 = (tmp_path / "r1" / "checkpoint-synth-paae.ckpt").read_bytes()
    b2 = (tmp_path / "r2" / "checkpoint-synth-paae.ckpt").read_bytes()
    assert b1 == b2

    cfg3 = _cli_config(tmp_path / "c3.ini", fixture, tmp_path / "r3")
    cfg4 = _cli_config(tmp_path / "c4.ini", fixture, tmp_path / "r4")
    assert main(["validate", "-c", cfg3]) == 0
    assert main(["validate", "-c", cfg4]) == 0
    j1 = (tmp_path / "r3" / "report-synth-paae-z.json").read_text()
    j2 = (tmp_path / "r4" / "report-synth-paae-z.json").read_text()
    assert j1 == j2
    assert len(json.loads(j1)["repeats"]) == 4
    report("7 PASS: repeated cmd_train byte-identical; cmd_validate x4 repeats identical")


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_criterion_8_divergence_handling(tmp_path, capsys):
    # heavy-tailed expression, z-scored, beta=100, no schedule
    rng = RngStream(88)
    n, genes = 40, 30
    heavy = rng.normal(size=(n, genes)) / np.abs(rng.normal(size=(n, genes))) ** 1.5
    fixture = tmp_path / "heavy"
    fixture.mkdir()
    with open(fixture / "train_expression.tsv", "w") as fh:
        fh.write("sample_id\t" + "\t".join(f"G{j}" for j in range(genes)) + "\n")
        for i in range(n):
            fh.write(f"S{i}\t" + "\t".join(repr(float(v)) for v in heavy[i]) + "\n")
    with open(fixture / "pathways.gmt", "w") as fh:
        fh.write("P0\td\t" + "\t".join(f"G{j}" for j in range(10)) + "\n")
        fh.write("P1\td\t" + "\t".join(f"G{j}" for j in range(10, 20)) + "\n")
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"""[data]
train_expression = {fixture}/train_expression.tsv
pathways = {fixture}/pathways.gmt
normalization = zscore
dataset_name = heavy

[model]
kind = pavae
encoder_layer_sizes = 8
pathway_hidden_sizes = 4
beta = 100
schedule = none

[train]
epochs = 60
learning_rate = 0.05
batch_size = 8
seed = 2

[output]
dir = {tmp_path / "run"}
""", encoding="utf-8")
    rc = main(["train", "-c", str(cfg)])
    captured = capsys.readouterr()
    assert rc in (0, 3)
    if rc == 3:
        assert "epoch" in captured.err
        outcome = "terminated with exit 3 naming the epoch"
    else:
        losses = list(csv.reader(open(tmp_path / "run" / "losses-heavy-pavae.csv")))
        values = [float(r[1]) for r in losses[1:]]
        assert all(np.isfinite(v) for v in values)
        outcome = "converged with finite losses"
    report(f"8 PASS: unstable PAVAE config {outcome}; no silent NaNs")


def test_criterion_9_data_path_fidelity():
    table = ExpressionTable(["S1"], ["X", "X"], [[1.0, 2.0]], Scale("log2", 1.0))
    merged = merge_duplicate_genes(table)
    assert abs(merged.values[0, 0] - math.log2(3.0)) < 1e-12

    ipm = per_million(np.array([[1.0, 3.0]]))
    assert ipm.tolist() == [[250000.0, 750000.0]]

    rng = RngStream(99)
    for _ in range(100):
        n = int(rng.integers(2, 40))
        g = int(rng.integers(1, 8))
        t = ExpressionTable(
            [f"s{i}" for i in range(n)],
            [f"g{j}" for j in range(g)],
            rng.normal(size=(n, g)) * 10,
        )
        out = apply_normalizer(fit_normalizer(t, "percentile"), t)
        assert out.values.min() >= 0.0 and out.values.max() <= 1.0
    report("9 PASS: duplicate merge log2(3) at 1e-12; IPM exact; "
           "percentile outputs within [0,1] on 100 random tables")
