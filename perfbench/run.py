"""Run one workload of the pathae benchmark and print its metrics.

    python3 perfbench/run.py --workload train-paae-paper --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: pathae is imported from ``src/``.
The workload's inputs are generated from ``--seed``.  The run repeats the
workload's operation (one at a time, checking each output) until
``--seconds`` have passed; it sets the inputs up five times (before, after
each of the first three quarters of the time, and at the end) and reports
the median set-up time.  The untraced run probes the host's speed before
each operation, in a helper process (``probe.py``), and reports operation
time relative to it.

With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a separate traced run.  Lines before it give the machine block, the input
sizes and the workload's named figures.  The full result and the spans of a
traced run are also written under ``.perfbench-work/`` in the checkout.

Exit status: 0 with a result; 2 when pathae cannot be imported; 3 when a
traced replica disagrees with the real call it stands for.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import probe
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench-work")

# (name, unit) of the end-to-end metrics, in BENCHMARK.json order.
END_TO_END = [
    ("setup_s", "s"),
    ("op_rel", "x"),
    ("quality", "score"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_share", "share"),
]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads(np):
    """OpenBLAS's thread count, read through its C API, or None."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_block() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its waited-for children."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="fixture sizes; tiny is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def run_ops(workload, seconds, on_op, per_pass, between=None, host=None):
    """Closed loop: one operation at a time until ``seconds`` have passed,
    then on to the end of the current pass of ``per_pass`` operations, so
    that every input is measured equally often.  ``between``, if given, runs
    between two operations after each of the first three quarters of the
    time.  ``host``, if given, is probed before each operation, and the
    probe's kernel times are kept with the operation's times.  Returns
    (results, attempted, failed)."""
    results, attempted, failed = [], 0, 0
    start = time.perf_counter()
    deadline = start + seconds
    quarters = 1
    while True:
        if between is not None and quarters < 4 and (
                time.perf_counter() >= start + seconds * quarters / 4):
            between()
            quarters += 1
        attempted += 1
        probed = host() if host is not None else {}
        try:
            result = workload.op()
            problems = workload.check(result)
        except Exception:  # a failing operation is counted, and the loop goes on
            traceback.print_exc(file=sys.stderr)
            result, problems = None, ["raised"]
        if problems:
            failed += 1
            print(f"operation {attempted} failed: {problems}", file=sys.stderr)
        if result is not None:
            result.ok = not problems
            result.seconds.update(probed)
            results.append(result)
            on_op(len(results) - 1, result)
        if time.perf_counter() >= deadline and attempted % per_pass == 0:
            return results, attempted, failed


def untraced_run(workload, seconds, host):
    # Set-up time drifts with the load on the machine, so the five set-ups
    # are spread over the run: before the first operation, after each
    # quarter of the time and after the last.  Each builds the same inputs
    # from the seed.
    setups = []

    def setup():
        t0 = time.perf_counter()
        workload.setup(spans.NullTracer())
        setups.append(time.perf_counter() - t0)

    setup()
    results, attempted, failed = run_ops(workload, seconds, lambda i, r: None,
                                         workload.per_pass, between=setup, host=host)
    setup()
    # the probe's helper process has not been waited for yet, so its memory
    # is not counted in peak_rss_mb
    metrics = {
        "setup_s": statistics.median(setups),
        "op_rel": statistics.median(r.seconds["op"] / r.seconds[workload.probe]
                                    for r in results) if results else 0.0,
        "quality": workload.quality(results),
        "peak_rss_mb": peak_rss_mb(),
        "ops_ok_share": (attempted - failed) / attempted,
    }
    return metrics, results, attempted, failed, setups


def traced_run(workload, seconds, workloads, trace_path):
    tracer = spans.Tracer()
    with tracer.span("bench.setup"):
        workload.setup(tracer)
    extras = []

    def on_op(i, real):
        tracer.op = i
        extras.append(workload.traced(tracer, real))

    # per-layer metrics are not compared across runs, so the traced loop
    # need not finish a pass
    results, attempted, failed = run_ops(workload, seconds, on_op, 1)
    metrics = {name: 0.0 for name, _unit, _better in workloads.PER_LAYER}
    for name, (span_names, scale) in workloads.SPAN_MEDIANS.items():
        metrics[name] = tracer.median_ms(*span_names) * scale
    if extras:
        metrics.update(workload.layer_metrics(tracer, extras))
        metrics["bench.trace_overhead_share"] = (
            statistics.median(e["op_traced"] for e in extras)
            / statistics.median(e["op_untraced"] for e in extras) - 1.0
        )
    tracer.write(trace_path)
    return metrics, results, attempted, failed, []


def main(argv=None) -> int:
    args = parse_args(argv)
    package = os.path.join(ROOT, "src", "pathae", "__init__.py")
    if not os.path.isfile(package):
        print(f"perfbench: no pathae package at {package}", file=sys.stderr)
        return 2
    # started before pathae is imported: see probe.py
    host = probe.HostProbe() if not args.trace else None
    try:
        return run(args, host)
    finally:
        if host is not None:
            host.close()


def run(args, host) -> int:
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import pathae
    except ImportError as exc:
        print(f"perfbench: cannot import pathae from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(pathae.__file__).startswith(src + os.sep):
        print(f"perfbench: pathae was imported from {pathae.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    machine = machine_block()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(WORK, f"{tag}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)
    try:
        if args.trace:
            os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
            trace_path = os.path.join(WORK, "traces", tag + ".jsonl")
            units = {name: unit for name, unit, _better in workloads.PER_LAYER}
            metrics, results, attempted, failed, setups = traced_run(
                workload, args.seconds, workloads, trace_path)
        else:
            units = dict(END_TO_END)
            metrics, results, attempted, failed, setups = untraced_run(
                workload, args.seconds, host)
        inputs = workload.inputs()
        named = {}
        if results:
            named["op_s"] = (statistics.median(r.seconds["op"] for r in results), "s")
            named.update(workload.named(results))
    except workloads.ReplicaMismatch as exc:
        print(f"perfbench: TRACED REPLICA MISMATCH on {args.workload}: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    doc = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "machine": machine, "inputs": inputs,
              "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
              "ops_failed_share": failed / attempted,
              "setup_seconds": setups, "op_seconds": [r.seconds for r in results], **doc}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("machine: " + json.dumps(machine, sort_keys=True))
    print("inputs: " + json.dumps(inputs, sort_keys=True))
    rows = [(k, v, u) for k, (v, u) in named.items()]
    rows.append(("ops_failed_share", failed / attempted, "share"))
    rows += [(name, m["value"], m["unit"]) for name, m in doc["metrics"].items()]
    for name, value, unit in rows:
        text = str(value) if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:<36} {text:>14} {unit}")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
