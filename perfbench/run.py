"""fractamine benchmark: analyze-long, train-small and infer-wide.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/``. Each workload is a closed loop with one client. Inputs come
from the in-tree oracle generators seeded by ``--seed``. Every output
is checked. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with
nothing wrapped and scaled to reference speed (``speed.py``). With ``--trace 1`` some untraced rounds run first, then
exactly one round with every layer wrapped; the metrics are the
per-layer ones of that round plus the tracing overhead against the
untraced rounds. Spans are written to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from time import perf_counter

import layers
import speed
import workloads
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 7
MIN_ROUNDS = 2  # the repeat-identity checks need a second round

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


def import_program():
    """Import fractamine from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "fractamine", "__init__.py")):
        raise SystemExit(f"error: no fractamine sources under {SRC}")
    sys.path.insert(0, SRC)
    import fractamine
    import fractamine.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(fractamine.__file__))) != SRC:
        raise SystemExit(f"error: imported fractamine from {fractamine.__file__}, not {SRC}")
    return fractamine


def openblas_threads() -> str:
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return str(fn())
    return "unknown"


def conditions() -> dict:
    import numpy

    return {
        "shape": "closed loop, one client",
        "nproc": os.cpu_count(),
        "openblas_threads": openblas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(workload, seconds: float, min_rounds: int) -> None:
    """Run whole rounds; start another only if it should end within `seconds`.

    A round's recorded time leaves out the reference-kernel bursts in it.
    """
    start = perf_counter()
    while True:
        t0, spent = perf_counter(), workload.speed.spent_s
        workload.round()
        workload.round_s.append(perf_counter() - t0 - (workload.speed.spent_s - spent))
        elapsed = perf_counter() - start
        if len(workload.round_s) >= min_rounds and elapsed + workload.round_s[-1] > seconds:
            return


def run_workload(fm, name: str, seed: int, seconds: float, trace: bool, size=None) -> dict:
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[name](fm, seed, workdir, size or workloads.FULL)
        setup_wall, setup_at_ref = [], []
        for _ in range(SETUP_REPEATS):
            gc.collect()  # so no set-up pays for collecting the previous one's garbage
            workload.speed.burst()
            t0 = perf_counter()
            workload.setup()
            setup_wall.append(perf_counter() - t0)
            workload.speed.burst()
            setup_at_ref.append(workload.speed.at_reference_speed(setup_wall[-1], t0))

        wall = {}
        if not trace:
            run_rounds(workload, seconds, MIN_ROUNDS)
            wall = {"setup_s": statistics.median(setup_wall),
                    "ops_per_s": workloads.rate_at_p10(workload.wall_times())}
            metrics = {
                "setup_s": statistics.median(setup_at_ref),
                "ops_per_s": workloads.rate_at_p10(workload.times_at_reference_speed()),
                "peak_rss_mb": peak_rss_mb(),
            }
            units = dict(END_TO_END)
        else:
            run_rounds(workload, seconds / 2, 1)
            ops_before = workload.ops
            tracer = Tracer()
            layers.install(tracer, fm)
            workload.tracer = tracer
            try:
                t0 = perf_counter()
                workload.round()
                traced_s = perf_counter() - t0
            finally:
                tracer.restore()
                workload.tracer = None
            overhead = 100.0 * (traced_s / statistics.median(workload.round_s) - 1.0)
            metrics = layers.metrics(tracer, workload.ops - ops_before, overhead)
            units = {m: unit for m, unit, _ in layers.PER_LAYER}
            tracer.dump(
                os.path.join(OUT, f"trace-{name}-seed{seed}.json"),
                {"workload": name, "seed": seed, "conditions": conditions()},
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = workload.failed_ops + workload.checks.failed
    return {
        "workload": workload,
        "wall": wall,
        "attempted": workload.ops,
        "failed": failed,
        "metrics": {m: {"value": float(v), "unit": units[m]} for m, v in metrics.items()},
    }


def print_report(name: str, seed: int, res: dict) -> None:
    workload = res["workload"]
    rounds = " ".join(f"{d:.3f}" for d in workload.round_s)
    print(f"workload {name} seed={seed} ops={workload.ops} untraced round_s=[{rounds}]")
    ref_ms = 1000.0 * float(statistics.median(workload.speed.samples))
    for metric, value in res["wall"].items():
        print(f"  wall-clock {metric} = {value:.6g} (not scaled to reference speed)")
    print(f"  reference kernel: median {ref_ms:.4f} ms over {len(workload.speed.samples)} runs,"
          f" {1000.0 * speed.REF_S:.4f} ms at reference speed")
    for check, (passed, total) in workload.checks.tally.items():
        verdict = "pass" if passed == total else "FAIL"
        print(f"  check {check}: {passed}/{total} {verdict}")
    if workload.op_times:
        for metric, (value, unit) in workload.report().items():
            print(f"  {metric} = {value:.6g} {unit}")
    print(f"  error_rate = {res['failed'] / max(res['attempted'], 1):.6g}"
          f" ({res['failed']} failed of {res['attempted']} attempted)")
    for metric, entry in res["metrics"].items():
        print(f"  metric {metric} = {entry['value']:.6g} {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    fm = import_program()
    print("conditions " + json.dumps(conditions()))

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(fm, name, args.seed, args.seconds, bool(args.trace))
        print_report(name, args.seed, results[name])

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{m}": v for n, res in results.items() for m, v in res["metrics"].items()}
    failed = sum(r["failed"] for r in results.values())
    summary = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
