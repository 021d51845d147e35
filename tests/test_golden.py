"""Golden snapshots of small models of every kind and of a small random
forest at a fixed seed.

The initial parameters, a 3-epoch loss history and the trained parameters
of an AE, a VAE, a PAAE and a PAVAE are frozen in
``golden_pathway_models.json``.  The masks are unequal and overlapping, the
pathway stage and the dense stacks have hidden layers and dropout is on, so
the snapshot pins the order in which ``build_model`` draws the initial
weights and ``fit`` draws the dropout masks, whatever the parameter storage
or layer loop.  Two more PAAE cases cover the pathway stage's other shapes:
equal-size pathways (one layer-0 bucket, no padding) and no pathway hidden
layers (layer 0 is one unit wide).  The trained history and tensors are kept
as float.hex strings and compared exactly, so they pin every float operation
of the training step, not just the draw order.

Those exact bits also depend on the BLAS: OpenBLAS picks its matmul kernels,
FMA use and summation order by CPU core type.  The snapshot records the numpy
version, the BLAS build and the core OpenBLAS selected when it was made
(under "blas"), and a bit mismatch reports both configurations.  If they
differ, regenerate the snapshot on that machine before suspecting the code;
``TestStepMatchesReference`` in ``test_models.py`` checks the step's bits
against the reference expressions on any machine.

Parameters are keyed by their checkpoint tensor names and read through the
per-pathway ``pathway_encoders`` stacks.

``golden_forest.json`` freezes every tree of a small forest in pre-order,
as (feature, threshold.hex(), class counts) per node, and its predicted
probabilities as float.hex strings.  Its input has repeated values within
a column, two identical columns, a constant column and three unequal
classes, so the snapshot pins the split search's tie-break (lowest feature,
then lowest threshold) as well as its arithmetic.

Regenerate both files with ``PYTHONPATH=src python tests/test_golden.py``
only when a change is meant to alter the random draws, the arithmetic of
the training step or the trees.
"""

import ctypes
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
UNEQUAL = [[0, 1, 2, 3], [2, 5], [1, 4, 6, 7, 8], [8, 0, 3]]
EQUAL = [[0, 1, 2], [3, 4, 5], [6, 7, 8], [8, 0, 4]]
# case: (kind, pathway gene sets, pathway_hidden_sizes)
CASES = {
    "ae": ("ae", UNEQUAL, [3, 2]),
    "vae": ("vae", UNEQUAL, [3, 2]),
    "paae": ("paae", UNEQUAL, [3, 2]),
    "pavae": ("pavae", UNEQUAL, [3, 2]),
    "paae-equal": ("paae", EQUAL, [3]),
    "paae-width1": ("paae", UNEQUAL, []),
}


def _model(case):
    kind, genes, hidden = CASES[case]
    masks = [PathwayMask(f"P{j}", g) for j, g in enumerate(genes)]
    arch = ArchitectureConfig(
        kind=kind, encoder_layer_sizes=[4, 2], pathway_hidden_sizes=hidden,
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


def _blas_config():
    """numpy version, BLAS build and, for OpenBLAS, the core type it picked."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}
    for lib in sorted(Path(np.__file__).parent.parent.joinpath("numpy.libs").glob("*openblas*")):
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            corename = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                config["core"] = corename().decode()
                return config
    config["core"] = "unknown"
    return config


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def _snapshot(case):
    model = _model(case)
    params = {name: t.tolist() for name, t in _named_params(model).items()}
    history = _history(model)
    trained = {name: _hex(t) for name, t in _named_params(model).items()}
    return {
        "params": params,
        "history": history,
        "trained": {"history": _hex(history), "tensors": trained},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES)
def test_initial_params_match_golden(golden, case):
    expected = golden[case]["params"]
    model = _model(case)
    named = _named_params(model)
    assert sorted(named) == sorted(expected)
    for name, t in named.items():
        np.testing.assert_array_equal(t, np.array(expected[name]), err_msg=name)
    # flat_params holds exactly these values, whatever its grouping
    flat = np.sort(np.concatenate([p.ravel() for p in flat_params(model)]))
    frozen = np.sort(np.concatenate([np.ravel(v) for v in expected.values()]))
    np.testing.assert_array_equal(flat, frozen)


@pytest.mark.parametrize("case", CASES)
def test_loss_history_matches_golden(golden, case):
    history = _history(_model(case))
    np.testing.assert_allclose(history, golden[case]["history"], rtol=1e-9, atol=0)


@pytest.mark.parametrize("case", CASES)
def test_trained_params_match_golden_bit_for_bit(golden, case):
    expected = golden[case]["trained"]
    hint = (
        f"snapshot made with {golden['blas']}, this run has {_blas_config()}; "
        "on another BLAS build or core type, regenerate the snapshot there"
    )
    model = _model(case)
    assert _hex(_history(model)) == expected["history"], f"history: {hint}"
    named = _named_params(model)
    assert sorted(named) == sorted(expected["tensors"])
    for name, t in named.items():
        assert _hex(t) == expected["tensors"][name], f"{name}: {hint}"


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
    snapshot = {"blas": _blas_config(), **{case: _snapshot(case) for case in CASES}}
    GOLDEN.write_text(json.dumps(snapshot, indent=1) + "\n")
    GOLDEN_FOREST.write_text(json.dumps(_forest_snapshot(), indent=1) + "\n")
