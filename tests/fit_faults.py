"""Minor page faults and wall time of PAAE training, per fit and per step.

Not a test (pytest does not collect it).  Run from a source checkout:

    PYTHONPATH=src python3 tests/fit_faults.py            # every case
    PYTHONPATH=src python3 tests/fit_faults.py --case 300 # one case

Cases 150, 300, 600 and 1000 train a PAAE (pathway hidden [8], latent 16,
dropout 0.25, batch 128, learning rate 1e-3) on a zscored ``make_synthetic``
table of n samples x 3200 genes in 320 pathways, the benchmark's paper shape.
Case ``20k`` trains the same architecture on 1000 samples x 20,000 genes in
2,000 pathways.  Each case runs in its own child process, so that one case's
heap does not shape another's.

A case alternates 2-epoch and 4-epoch fits from the same start, ``--fits``
of each.  The first 2-epoch fit is printed apart: a long-running process
such as a grid search fits many times, and the first fit pays for pages the
later ones reuse.  ``fit_*`` is the median over the other 2-epoch fits, and
``step_*`` the steady-state cost of one step: the median 4-epoch figure
minus the median 2-epoch one, over the steps of 2 epochs.  Faults are
``ru_minflt`` of the process over the fit.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

CASES = {
    "150": dict(n=150, genes=3200, pathways=320, background=320),
    "300": dict(n=300, genes=3200, pathways=320, background=320),
    "600": dict(n=600, genes=3200, pathways=320, background=320),
    "1000": dict(n=1000, genes=3200, pathways=320, background=320),
    "20k": dict(n=1000, genes=20000, pathways=2000, background=2000),
}
BATCH = 128


def _measure(case: str, fits: int) -> dict:
    from pathae import dataio, models, synth
    from pathae.ndcore import RngStream

    c = CASES[case]
    data = synth.make_synthetic(n_pathways=c["pathways"], n_genes=c["genes"],
                                n_background=c["background"], n_train=c["n"], n_test=1, seed=3)
    masks, _ = dataio.resolve_pathways(data.pathways, data.train.gene_names)
    X = dataio.apply_normalizer(dataio.fit_normalizer(data.train, "zscore"), data.train).values
    del data
    arch = models.ArchitectureConfig(kind="paae", encoder_layer_sizes=[16],
                                     pathway_hidden_sizes=[8], dropout_rate=0.25)
    faults = {2: [], 4: []}
    seconds = {2: [], 4: []}
    for _ in range(fits):
        for epochs in (2, 4):
            rng = RngStream(7)
            model = models.build_model(arch, X.shape[1], masks, rng)
            config = models.TrainConfig(epochs=epochs, learning_rate=1e-3, batch_size=BATCH)
            f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            models.fit(model, X, config, rng)
            seconds[epochs].append(time.perf_counter() - t0)
            faults[epochs].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
            del model
    steps = -(-c["n"] // BATCH)  # per epoch
    med = {e: (statistics.median(faults[e][1:]), statistics.median(seconds[e][1:])) for e in (2, 4)}
    return {"case": case, "n": c["n"], "genes": c["genes"], "pathways": c["pathways"],
            "first_fit_faults": faults[2][0], "first_fit_s": round(seconds[2][0], 4),
            "fit_faults": med[2][0], "fit_s": round(med[2][1], 4),
            "step_faults": round((med[4][0] - med[2][0]) / (2 * steps), 1),
            "step_ms": round(1e3 * (med[4][1] - med[2][1]) / (2 * steps), 2)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--case", choices=sorted(CASES), help="run one case in this process")
    ap.add_argument("--fits", type=int, default=4,
                    help="2-epoch and 4-epoch fits per case, each (default 4)")
    args = ap.parse_args(argv)
    if args.fits < 2:
        ap.error("--fits must be at least 2")
    if args.case:
        print(json.dumps(_measure(args.case, args.fits)), flush=True)
        return 0
    for case in CASES:
        out = subprocess.run([sys.executable, __file__, "--case", case, "--fits", str(args.fits)],
                             check=True, capture_output=True, text=True).stdout
        print(out.strip().splitlines()[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
