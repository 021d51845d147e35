"""SHA-256 digests of every artifact of a fixed-seed run of each command.

Not a test (pytest does not collect it).  Run from a source checkout:

    PYTHONPATH=src python3 tests/artifact_digests.py > after.txt

It writes a ``pathae synth`` fixture (seed 5, 120 training and 80 test
samples) into a work directory and runs ``train``, ``gridsearch``,
``validate`` (with the fixture's ``classifier = lr``, and again with
``--classifier rf``), ``interpret`` and ``survival`` on it.  It also writes
a paper-scale fixture (320 pathways, 3,200 genes, 300 training samples) and
runs ``train``, ``interpret`` and ``survival`` on that, so the check covers
a 300-row, 32-pathway clustermap and Kaplan-Meier plots of 100-sample
terciles.  All of this runs in one process, twice: first with the table
caches cold (every ``*.pathae-table`` beside a fixture is deleted before
each command), then warm (with the caches the cold pass left).  Each run
writes into its own directory, ``<pass>/<run>`` for the first fixture and
``<pass>/paper-<run>`` for the second; a run is named after its command,
and the forest validation is ``validate-rf``.  The script prints one
``sha256  path`` line per file under the work directory, the path relative
to it, sorted; the commands' own output goes to stderr.

The work directory (``--work``, by default ``pathae-artifact-digests`` in
the system's temporary directory) is emptied first.  The config file and
the manifests' config hashes name it, so two checkouts are compared with
the same ``--work``; the pathae imported is the one on ``PYTHONPATH``:

    PYTHONPATH=../other/src python3 tests/artifact_digests.py > before.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import os
import shutil
import sys
import tempfile

# (directory, output prefix, synth flags, {run: [command, *extra flags]});
# fast enough for a check, and every command still trains, ranks and tests
FIXTURES = [
    ("fixture", "", ["--seed", "5", "--n-train", "120", "--n-test", "80"], {
        "train": ["train", "--epochs", "5"],
        "gridsearch": ["gridsearch", "--epochs", "3"],
        "validate": ["validate", "--epochs", "3", "--repeats", "2"],
        "validate-rf": ["validate", "--classifier", "rf", "--epochs", "3", "--repeats", "2"],
        "interpret": ["interpret"],
        "survival": ["survival"],
    }),
    ("paper", "paper-", ["--seed", "5", "--pathways", "320", "--genes", "3200",
                         "--background", "320", "--n-train", "300", "--n-test", "40"], {
        "train": ["train", "--epochs", "2"],
        "interpret": ["interpret"],
        "survival": ["survival"],
    }),
]


def _run(argv):
    from pathae.cli import main

    with contextlib.redirect_stdout(sys.stderr):
        status = main(argv)
    if status != 0:
        raise SystemExit(f"pathae {' '.join(argv)} exited with {status}")


def _digest(path) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):
            sha.update(chunk)
    return sha.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--work", default=os.path.join(tempfile.gettempdir(),
                                                   "pathae-artifact-digests"),
                    help="work directory, emptied first")
    args = ap.parse_args(argv)
    work = os.path.abspath(args.work)
    shutil.rmtree(work, ignore_errors=True)
    for name, _prefix, synth, _commands in FIXTURES:
        _run(["synth", "--out", os.path.join(work, name), *synth])
    for phase in ("cold", "warm"):
        for name, prefix, _synth, commands in FIXTURES:
            fixture = os.path.join(work, name)
            config = os.path.join(fixture, "config.ini")
            for run, (command, *extra) in commands.items():
                if phase == "cold":
                    for cache in glob.glob(os.path.join(fixture, "*.pathae-table")):
                        os.unlink(cache)
                out = os.path.join(work, phase, prefix + run)
                argv = [command, "-c", config, "--output", out, *extra]
                if command in ("interpret", "survival"):
                    argv += ["--checkpoint", os.path.join(work, phase, prefix + "train",
                                                          "checkpoint-synth-paae.ckpt")]
                _run(argv)
    for root, _dirs, files in sorted(os.walk(work)):
        for name in sorted(files):
            path = os.path.join(root, name)
            print(f"{_digest(path)}  {os.path.relpath(path, work)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
