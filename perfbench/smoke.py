"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Checks that every workload emits every named metric in both modes with
its checks passing, that the checks fire on corrupted outputs, and that
the self-time arithmetic holds on a hand-built span tree. Exits 0 when
all hold.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import sys

import layers
import run
import workloads
from tracer import Span, covered, self_times, summarize

SEED = 5


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def test_names_match_benchmark_json() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expect([(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END,
           "end-to-end metrics differ from BENCHMARK.json")
    expect([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == layers.PER_LAYER,
           "per-layer metrics differ from BENCHMARK.json")
    expect([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
           "workloads differ from BENCHMARK.json")


def test_metrics_emitted(fm) -> None:
    e2e = [m for m, _ in run.END_TO_END]
    per_layer = [m for m, _, _ in layers.PER_LAYER]
    for name in workloads.WORKLOADS:
        for trace, names in ((False, e2e), (True, per_layer)):
            res = run.run_workload(fm, name, SEED, 0.0, trace, workloads.TINY)
            run.print_report(name, SEED, res)
            expect(list(res["metrics"]) == names, f"{name} trace={trace}: metric names differ")
            for metric, entry in res["metrics"].items():
                expect(math.isfinite(entry["value"]), f"{name}: {metric} is not finite")
            expect(res["failed"] == 0, f"{name} trace={trace}: {res['failed']} failures at tiny size")
            expect(res["attempted"] >= 1, f"{name}: nothing attempted")
            if not trace:
                for metric in e2e:
                    expect(res["metrics"][metric]["value"] > 0, f"{name}: {metric} is 0")


def _fails_when(fm, name: str, owner, attr: str, corrupt) -> None:
    """Run one tiny round with owner.attr corrupted; some check must fail."""
    workdir = os.path.join(run.OUT, f"smoke-{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    original = getattr(owner, attr)
    setattr(owner, attr, corrupt(original))
    try:
        workload = workloads.WORKLOADS[name](fm, SEED, workdir, workloads.TINY)
        workload.setup()
        workload.round()
    finally:
        setattr(owner, attr, original)
        shutil.rmtree(workdir, ignore_errors=True)
    expect(workload.checks.failed > 0, f"{name}: no check fired on corrupted {attr}")


def test_checks_fire(fm) -> None:
    def broken_json(original):
        def cmd_analyze(args):
            code = original(args)
            with open(os.path.join(args.out, "hurst.json"), "w") as fh:
                fh.write("{")
            return code
        return cmd_analyze

    def low_accuracy(original):
        def evaluate(*args, **kwargs):
            return {**original(*args, **kwargs), "accuracy": 0.5}
        return evaluate

    def off_by_1e9(original):
        def predict_proba(*args, **kwargs):
            return original(*args, **kwargs) + 1e-9
        return predict_proba

    _fails_when(fm, "analyze-long", fm.cli, "cmd_analyze", broken_json)
    _fails_when(fm, "train-small", fm.training, "evaluate", low_accuracy)
    _fails_when(fm, "infer-wide", fm.neuralnet, "predict_proba", off_by_1e9)

    payload = {
        "q": [-1.0, 0.0, 2.0],
        "H": [0.8, 0.75, 0.7],
        "scales": [16, 32],
        "logF": [[1.0, 2.0], [1.1, 2.1], [1.2, 2.2]],
        "degenerate_scales": [],
    }
    expect(workloads.fq_nondecreasing(payload), "monotone table rejected")
    expect(workloads.h_close(payload, {2.0: 0.7}), "exact h(q) rejected")
    falling = {**payload, "logF": [[1.0, 2.0], [0.9, 2.1], [1.2, 2.2]]}
    expect(not workloads.fq_nondecreasing(falling), "F_q falling in q not caught")
    expect(workloads.fq_nondecreasing({**falling, "degenerate_scales": [16]}), "dropped scale checked")
    expect(not workloads.h_close(payload, {2.0: 0.5}), "h(q) off by 0.2 not caught")
    expect(workloads.parse_hurst_json('{"q": []}') is None, "hurst.json missing fields not caught")
    history = [{"epoch": 1, "loss": 0.1, "accuracy": 0.94}]
    expect(not workloads.train_floors(history, {"accuracy": 1.0}, {"accuracy": 1.0}), "train floor")
    expect(not workloads.proba_ok([0.5, float("nan"), 0.5]), "NaN probability not caught")
    expect(workloads.proba_ok([0.25, 0.25, 0.5]), "valid probabilities rejected")


def test_self_time_arithmetic() -> None:
    # root [0, 10] with children a [1, 4] and b [3, 6]; inside a, span c
    # [2, 3] and a second span named a [2.5, 3.5] that overlaps c.
    spans = [
        Span(0, "root", 0.0, 10.0, None, "op:1"),
        Span(1, "a", 1.0, 4.0, 0, "op:1"),
        Span(2, "b", 3.0, 6.0, 0, "op:1"),
        Span(3, "c", 2.0, 3.0, 1, "op:1"),
        Span(4, "a", 2.5, 3.5, 1, "op:1"),
    ]
    selfs = self_times(spans)
    expected = {0: 10.0 - 5.0, 1: 3.0 - 1.5, 2: 3.0, 3: 1.0, 4: 1.0}
    for sid, value in expected.items():
        expect(abs(selfs[sid] - value) < 1e-12, f"self time of span {sid}: {selfs[sid]} != {value}")
    table = summarize(spans)
    expect(table["a"]["calls"] == 2, "call count")
    expect(abs(table["a"]["s"] - 3.0) < 1e-12, "nested spans of one name counted twice")
    expect(abs(table["a"]["self_s"] - 2.5) < 1e-12, "self time summed wrongly")
    expect(covered([(0.0, 1.0), (2.0, 3.0), (0.5, 1.5)]) == 2.5, "interval union")
    expect(workloads.tail_percentile(list(range(100))) == (89, 90.0, 100), "tail percentile")
    expect(workloads.tail_percentile(list(range(10))) is None, "tail needs 11 samples")


def main() -> int:
    fm = run.import_program()
    test_names_match_benchmark_json()
    test_self_time_arithmetic()
    test_checks_fire(fm)
    test_metrics_emitted(fm)
    print("smoke: all checks hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
