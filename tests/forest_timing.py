"""Wall time of ``classifiers.rf_fit`` at fixed shapes, one median per shape.

Not a test (pytest does not collect it).  Run from a source checkout:

    PYTHONPATH=src python3 tests/forest_timing.py                # every shape
    PYTHONPATH=src python3 tests/forest_timing.py --shape 50x16/5 --fits 9

A shape ``n x d / k`` fits a forest on n rows of d standard normal columns
(seed 0) with k classes, row i in class i mod k, and every third column
shifted by 0.8 times the class: the rows the benchmark's ``validate-rf-small``
workload feeds the forest look like ``50x16/5``.  Every shape grows 100
trees, and ``1000x16/10@10`` grows 10, so a step holds at most 10 nodes.
Each shape runs one warm-up fit and then ``--fits`` timed ones; the script
prints one line per shape, the median fit time in milliseconds, for the
pathae on ``PYTHONPATH``.  To compare two checkouts, alternate runs of the
script with each checkout's ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from pathae.classifiers import rf_fit
from pathae.ndcore import RngStream

# name: (rows, columns, classes, trees)
SHAPES = {
    "50x16/5": (50, 16, 5, 100),
    "450x16/5": (450, 16, 5, 100),
    "1000x16/10": (1000, 16, 10, 100),
    "300x320/5": (300, 320, 5, 100),
    "300x40/33": (300, 40, 33, 100),
    "1000x16/10@10": (1000, 16, 10, 10),
}


def shape_data(n: int, d: int, k: int):
    codes = np.arange(n) % k
    X = RngStream(0).normal(size=(n, d)) + 0.8 * codes[:, None] * (np.arange(d) % 3 == 0)
    return X, codes


def time_shape(name: str, fits: int) -> float:
    """Median wall time of ``fits`` fits of the shape, in milliseconds."""
    n, d, k, n_trees = SHAPES[name]
    X, y = shape_data(n, d, k)
    rf_fit(X, y, n_trees=n_trees, rng=RngStream(1))  # warm-up
    times = []
    for seed in range(fits):
        t0 = time.perf_counter()
        rf_fit(X, y, n_trees=n_trees, rng=RngStream(seed + 2))
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", choices=list(SHAPES), action="append",
                        help="time only this shape (repeatable); default every shape")
    parser.add_argument("--fits", type=int, default=5, help="timed fits per shape")
    args = parser.parse_args(argv)
    for name in args.shape or SHAPES:
        print(f"{name}\t{time_shape(name, args.fits):.1f} ms", flush=True)


if __name__ == "__main__":
    main()
