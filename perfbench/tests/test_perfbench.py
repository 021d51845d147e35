"""Tests of the benchmark itself, at tiny fixture sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(workload, trace, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result(workload, trace, seed=3):
    proc = bench(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def traced():
    """Two traced tiny runs of every workload, for the exact-count check."""
    return {w: (result(w, 1), result(w, 1)) for w in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_untraced_smoke(workload, spec):
    doc = result(workload, 0)
    assert sorted(doc) == ["attempted", "correct", "failed", "metrics"]
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    assert [m["name"] for m in spec["end_to_end"]] == list(doc["metrics"])
    for m in spec["end_to_end"]:
        assert doc["metrics"][m["name"]]["unit"] == m["unit"]
        assert doc["metrics"][m["name"]]["value"] > 0


def test_traced_smoke(traced, spec):
    names = [m["name"] for m in spec["per_layer"]]
    for workload, (doc, _again) in traced.items():
        assert doc["correct"], workload
        assert list(doc["metrics"]) == names
        # every workload exercises at least the synth and dataio layers
        assert doc["metrics"]["synth.make_synthetic_ms"]["value"] > 0
        assert doc["metrics"]["dataio.resolve_pathways_ms"]["value"] > 0


def test_spec_matches_code(spec):
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        cls.why for cls in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        workloads.PER_LAYER
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_metric_names(spec):
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_exact_counts_repeat(traced):
    seen = set()
    for workload, (first, second) in traced.items():
        for name in workloads.EXACT_COUNTS:
            value = first["metrics"][name]["value"]
            assert second["metrics"][name]["value"] == value, (workload, name)
            if value:
                seen.add(name)
    assert seen == set(workloads.EXACT_COUNTS)


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("train-paae-paper", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_quality_counts_only_passed_operations():
    workload = workloads.TrainPaae(3, "tiny", "unused")
    passed = workloads.OpResult(0, [2.0, 0.5], {"op": 1.0}, ok=True)
    failed = workloads.OpResult(1, [2.0, float("nan")], {"op": 1.0})
    assert workload.quality([passed, failed]) == 2.0
    assert workload.quality([failed]) == 0.0


def test_host_probe_helper_ends_on_close():
    host = run.probe.HostProbe()
    times = host()
    host.close()
    assert sorted(times) == ["blas", "gil"] and min(times.values()) > 0
    assert host.proc.returncode == 0
