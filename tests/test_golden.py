"""Golden snapshots of small models of every kind and of a small random
forest at a fixed seed.

The initial parameters and a 3-epoch loss history of an AE, a VAE, a PAAE
and a PAVAE are frozen in ``golden_pathway_models.json``.  The masks are
unequal and overlapping, the pathway stage and the dense stacks have hidden
layers and dropout is on, so the snapshot pins the order in which
``build_model`` draws the initial weights and ``fit`` draws the dropout
masks, whatever the parameter storage or layer loop.

Parameters are keyed by their checkpoint tensor names and read through the
per-pathway ``pathway_encoders`` stacks.

``golden_forest.json`` freezes every tree of a small forest in pre-order,
as (feature, threshold.hex(), class counts) per node, and its predicted
probabilities as float.hex strings.  Its input has repeated values within
a column, two identical columns, a constant column and three unequal
classes, so the snapshot pins the split search's tie-break (lowest feature,
then lowest threshold) as well as its arithmetic.

Regenerate both files with ``PYTHONPATH=src python tests/test_golden.py``
only when a change is meant to alter the random draws or the trees.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from pathae.classifiers import rf_fit, rf_predict_proba
from pathae.models import (
    ArchitectureConfig,
    PathwayMask,
    TrainConfig,
    build_model,
    fit,
    flat_params,
)
from pathae.ndcore import RngStream

GOLDEN = Path(__file__).with_name("golden_pathway_models.json")
GOLDEN_FOREST = Path(__file__).with_name("golden_forest.json")
GENES = 9
KINDS = ("ae", "vae", "paae", "pavae")


def _model(kind):
    masks = [
        PathwayMask("P0", [0, 1, 2, 3]),
        PathwayMask("P1", [2, 5]),
        PathwayMask("P2", [1, 4, 6, 7, 8]),
        PathwayMask("P3", [8, 0, 3]),
    ]
    arch = ArchitectureConfig(
        kind=kind, encoder_layer_sizes=[4, 2], pathway_hidden_sizes=[3, 2],
        dropout_rate=0.3, beta=0.5, schedule="step", t_start=1,
    )
    return build_model(arch, GENES, masks, RngStream(7))


def _named_params(model):
    named = {}
    for j, stack in enumerate(model.params.pathway_encoders):
        for i, (W, b) in enumerate(stack):
            named[f"pathway/{j}/{i}/W"] = W
            named[f"pathway/{j}/{i}/b"] = b
    for section in ("encoder", "decoder"):
        for i, (W, b) in enumerate(getattr(model.params, section)):
            named[f"{section}/{i}/W"] = W
            named[f"{section}/{i}/b"] = b
    return named


def _history(model):
    X = RngStream(5).normal(size=(20, GENES))  # batches of 8, 8 and 4
    return fit(model, X, TrainConfig(epochs=3, learning_rate=1e-2, batch_size=8), RngStream(11))


def _snapshot(kind):
    model = _model(kind)
    params = {name: t.tolist() for name, t in _named_params(model).items()}
    return {"params": params, "history": _history(model)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("kind", KINDS)
def test_initial_params_match_golden(golden, kind):
    expected = golden[kind]["params"]
    model = _model(kind)
    named = _named_params(model)
    assert sorted(named) == sorted(expected)
    for name, t in named.items():
        np.testing.assert_array_equal(t, np.array(expected[name]), err_msg=name)
    # flat_params holds exactly these values, whatever its grouping
    flat = np.sort(np.concatenate([p.ravel() for p in flat_params(model)]))
    frozen = np.sort(np.concatenate([np.ravel(v) for v in expected.values()]))
    np.testing.assert_array_equal(flat, frozen)


@pytest.mark.parametrize("kind", KINDS)
def test_loss_history_matches_golden(golden, kind):
    history = _history(_model(kind))
    np.testing.assert_allclose(history, golden[kind]["history"], rtol=1e-9, atol=0)


def _forest_data():
    rng = RngStream(3)
    n = 36
    codes = np.repeat([0, 1, 2], [18, 12, 6])  # three unequal classes
    X = np.empty((n, 6))
    X[:, 0] = rng.integers(0, 4, size=n)  # few distinct values
    X[:, 1] = np.round(rng.normal(size=n) + 0.5 * codes, 1)  # ties
    X[:, 2] = X[:, 1]  # identical to column 1
    X[:, 3] = 2.5  # constant
    X[:, 4] = np.round(rng.uniform(size=n), 1)
    X[:, 5] = rng.normal(size=n) - 0.7 * codes
    y = np.array(["low", "mid", "high"])[codes]
    return X, y


def _preorder(node):
    if node.is_leaf:
        return [[None, None, node.counts.tolist()]]
    return ([[node.feature, node.threshold.hex(), node.counts.tolist()]]
            + _preorder(node.left) + _preorder(node.right))


def _forest_snapshot():
    X, y = _forest_data()
    model = rf_fit(X, y, n_trees=8, rng=RngStream(21))
    proba = rf_predict_proba(model, X)
    return {
        "classes": model.classes.tolist(),
        "trees": [_preorder(tree) for tree in model.trees],
        "proba": [[float(v).hex() for v in row] for row in proba],
    }


def test_forest_matches_golden():
    expected = json.loads(GOLDEN_FOREST.read_text())
    got = _forest_snapshot()
    assert got["classes"] == expected["classes"]
    assert len(got["trees"]) == len(expected["trees"])
    for t, (tree, frozen) in enumerate(zip(got["trees"], expected["trees"])):
        assert tree == frozen, f"tree {t}"
    assert got["proba"] == expected["proba"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({kind: _snapshot(kind) for kind in KINDS}, indent=1) + "\n")
    GOLDEN_FOREST.write_text(json.dumps(_forest_snapshot(), indent=1) + "\n")
