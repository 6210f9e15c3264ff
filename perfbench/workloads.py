"""The three workloads and the checks on their outputs.

Each workload is a closed loop with one client: every call waits for
the previous one. A round is a fixed amount of work (the same on every
seed and every commit), so the traced run can trace exactly one round
and its counts repeat exactly. Checks compare every output against an
oracle, a floor, or the output of the first round; each failed check
counts once in ``failed``.
"""
from __future__ import annotations

import hashlib
import json
import os
import traceback
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from speed import Speedometer


@dataclass(frozen=True)
class Size:
    cascade_levels: int = 16  # analyze-long: N = 2**levels for both series
    train_docs: int = 300
    train_epochs: int = 8
    infer_docs_per_width: int = 16  # infer-wide pool: this many docs per token count
    infer_dim: int = 768


FULL = Size()
TINY = Size(cascade_levels=12, train_docs=150, train_epochs=4, infer_docs_per_width=1)

FGN_HURST = 0.7
CASCADE_P = 0.75
ANALYZE_METHODS = ("fs-mfa", "mf-dhv", "mf-dfa")
INFER_TOKENS = (12, 24, 48)
INFER_PARAMS_SEED = 0


class Checks:
    """Pass and total counts per named check."""

    def __init__(self):
        self.tally: dict[str, list[int]] = {}

    def record(self, name: str, ok: bool) -> bool:
        entry = self.tally.setdefault(name, [0, 0])
        entry[0] += bool(ok)
        entry[1] += 1
        return ok

    @property
    def failed(self) -> int:
        return sum(total - passed for passed, total in self.tally.values())


# ---- checks on outputs; pure functions so a corrupted output can be fed in


def parse_hurst_json(text: str):
    """The hurst.json payload, or None when it does not parse or lacks a field."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return None
    keys = ("q", "H", "scales", "logF", "degenerate_scales")
    if not isinstance(payload, dict) or any(k not in payload for k in keys):
        return None
    return payload


def fq_nondecreasing(payload, tol: float = 1e-10) -> bool:
    """F_q(s) never falls as q rises, on every scale that was not dropped."""
    dropped = set(payload["degenerate_scales"])
    log_f = np.array(
        [[np.nan if v is None else v for v in row] for row in payload["logF"]], dtype=float
    )
    q = np.asarray(payload["q"], dtype=float)
    if log_f.shape != (q.size, len(payload["scales"])) or np.any(np.diff(q) <= 0):
        return False
    for j, scale in enumerate(payload["scales"]):
        if scale in dropped:
            continue
        column = log_f[:, j]
        if not np.all(np.isfinite(column)):
            return False
        if np.any(np.diff(column) < -tol):
            return False
    return True


def h_close(payload, targets: dict[float, float], tol: float = 0.1) -> bool:
    """h(q) within tol of the target at every listed q."""
    q = list(payload["q"])
    for q_value, expected in targets.items():
        if q_value not in q:
            return False
        h = payload["H"][q.index(q_value)]
        if h is None or abs(h - expected) >= tol:
            return False
    return True


def train_floors(history, val: dict, test: dict) -> bool:
    """Criterion-09 floors: last-epoch train accuracy 0.95, val and test 0.90."""
    return history[-1]["accuracy"] >= 0.95 and val["accuracy"] >= 0.90 and test["accuracy"] >= 0.90


def proba_ok(proba: np.ndarray) -> bool:
    """Finite probabilities, each row summing to 1 within 1e-12."""
    p = np.atleast_2d(np.asarray(proba, dtype=float))
    return bool(np.all(np.isfinite(p)) and np.all(p >= 0) and np.all(np.abs(p.sum(axis=1) - 1.0) <= 1e-12))


def digest_dir(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


# ---- workloads


def criterion09_model(fm, **overrides):
    """The architecture of acceptance criterion 09."""
    return fm.neuralnet.ModelConfig(
        n_classes=3, hidden=16, filters=8, blocks=1, conv_width=2, dense_width=16, attn_dim=4,
        **overrides,
    )


def rate_at_p10(op_times: dict[str, list[float]]) -> float:
    """Operations per second with every operation taking its kind's 10th-percentile
    wall time; kinds weighted by their share of the operations."""
    count = sum(len(times) for times in op_times.values())
    busy = sum(len(times) * float(np.percentile(times, 10)) for times in op_times.values())
    return count / busy


class Workload:
    """One round of fixed work, repeated; each operation's wall time is a sample of its kind."""

    name = ""
    op_kind = ""

    def __init__(self, fm, seed: int, workdir: str, size: Size = FULL):
        self.fm = fm
        self.seed = seed
        self.workdir = workdir
        self.size = size
        self.checks = Checks()
        self.tracer = None  # set only for the traced round
        self.ops = 0
        self.failed_ops = 0
        # untraced operations by kind: (wall seconds, start on the perf_counter clock)
        self.op_times: dict[str, list[tuple[float, float]]] = {}
        self.rounds = 0
        self.round_s: list[float] = []  # wall time of each untraced round
        self.speed = Speedometer()  # a burst after each untraced operation and around set-ups

    def _call(self, kind: str | None, ops: int, fn, *args):
        """Run one call that performs `ops` operations; if it raises, all of them failed.

        With a kind, the call's wall time is one sample of that kind.
        """
        if self.tracer is not None:
            self.tracer.begin_op(self.op_kind)
        self.ops += ops
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception:
            traceback.print_exc()
            self.failed_ops += ops
            result = None
        if self.tracer is None:
            if kind is not None:
                self.op_times.setdefault(kind, []).append((perf_counter() - start, start))
            self.speed.burst()
        return result

    def wall_times(self) -> dict[str, list[float]]:
        return {kind: [w for w, _ in times] for kind, times in self.op_times.items()}

    def times_at_reference_speed(self) -> dict[str, list[float]]:
        speed = self.speed
        return {kind: [speed.at_reference_speed(w, start) for w, start in times]
                for kind, times in self.op_times.items()}

    def setup(self):
        raise NotImplementedError

    def round(self):
        raise NotImplementedError

    def report(self) -> dict[str, tuple[float, str]]:
        """The workload's own end-to-end figures, printed but not gated."""
        raise NotImplementedError


class AnalyzeLong(Workload):
    """`fractamine analyze` through cli.main on fGn and a binomial cascade."""

    name = "analyze-long"
    op_kind = "analyze"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.first_digest: dict[tuple[str, str], str] = {}

    def setup(self):
        series = self.fm.series
        n = 1 << self.size.cascade_levels
        fgn = series.synth_fgn(n, FGN_HURST, self.seed)
        cascade = series.synth_binomial_cascade(self.size.cascade_levels, CASCADE_P)
        self.inputs = []
        for label, s in (("fgn", fgn), ("cascade", cascade)):
            path = os.path.join(self.workdir, f"{label}.csv")
            np.savetxt(path, s.values, fmt="%.17g")
            self.inputs.append((label, path))

    def round(self):
        cli = self.fm.cli
        for label, path in self.inputs:
            for method in ANALYZE_METHODS:
                out = os.path.join(self.workdir, f"{label}-{method}")
                argv = ["analyze", "--input", path, "--method", method, "--out", out]
                code = self._call(f"{label} {method}", 1, cli.main, argv)
                if code == 0:
                    self._check(label, method, out)
                elif code is not None:
                    self.failed_ops += 1
        self.rounds += 1

    def _check(self, label, method, out):
        c = self.checks
        with open(os.path.join(out, "hurst.json")) as fh:
            payload = parse_hurst_json(fh.read())
        if not c.record("hurst_json_parses", payload is not None):
            return
        c.record("fq_nondecreasing_in_q", fq_nondecreasing(payload))
        if method == "mf-dfa" and label == "fgn":
            c.record("fgn_h2_within_0.1", h_close(payload, {2.0: FGN_HURST}))
        if method == "mf-dfa" and label == "cascade":
            qs = (-5.0, -2.0, 2.0, 5.0)
            oracle = self.fm.series.cascade_hurst_oracle
            c.record("cascade_hq_within_0.1", h_close(payload, {q: oracle(q, CASCADE_P) for q in qs}))
        digest = digest_dir(out)
        first = self.first_digest.setdefault((label, method), digest)
        if self.rounds > 0:
            c.record("output_identical_across_repeats", digest == first)

    def report(self):
        by_method: dict[str, list[float]] = {}
        for kind, times in self.wall_times().items():
            by_method.setdefault(kind.split()[1], []).extend(times)
        return {f"analyze_{m}_s": (float(np.median(t)), "s") for m, t in by_method.items()}


class TrainSmall(Workload):
    """Criterion-09 corpus and model: split, train, evaluate on val and test."""

    name = "train-small"
    op_kind = "train_eval"  # train steps and evaluated docs get their own ids in the trace

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.first_history = None
        self.phase_s: dict[str, list[float]] = {"train": [], "evaluate": []}

        class StepClock(self.fm.neuralnet.ModelParams):
            """Parameters that note when each train step begins and the one before ends.

            train() zeroes the gradients first thing in every step.
            """

            def zero_grads(self):
                self.step_ends.append(perf_counter())
                if self.speed is not None:
                    self.speed.burst()
                self.step_starts.append(perf_counter())
                super().zero_grads()

        self.step_clock = StepClock

    def setup(self):
        fm = self.fm
        self.corpus = fm.series.synth_embedded_corpus(
            self.size.train_docs, 3, 12, 64, 4.0, seed=self.seed
        )
        self.model_cfg = criterion09_model(
            fm, mfa=fm.multifractal.MfaConfig(method="mf-dfa", q_grid=np.linspace(-4, 4, 5))
        )
        self.train_cfg = fm.training.TrainConfig(epochs=self.size.train_epochs, seed=self.seed)
        n_train = len(fm.training.split_dataset(self.corpus, seed=self.seed)[0])
        self.steps = n_train * self.train_cfg.epochs
        self.eval_docs = len(self.corpus) - n_train

    def _train_and_evaluate(self):
        tr, nn = self.fm.training, self.fm.neuralnet
        start, spent = perf_counter(), self.speed.spent_s
        train_set, val_set, test_set = tr.split_dataset(self.corpus, seed=self.seed)
        # the initial parameters train() would draw itself
        init = nn.init_params(self.model_cfg, train_set.items[0][0].dim, seed=self.train_cfg.seed)
        params = self.step_clock(config=init.config, embed_dim=init.embed_dim, tensors=init.tensors)
        params.step_starts, params.step_ends = [], []
        params.speed = self.speed if self.tracer is None else None
        params, history = tr.train(train_set, self.train_cfg, self.model_cfg, params=params)
        trained = perf_counter()
        bursts_s = self.speed.spent_s - spent
        val = tr.evaluate(val_set, self.model_cfg, params)
        test = tr.evaluate(test_set, self.model_cfg, params)
        if self.tracer is None:
            walls = np.array(params.step_ends[1:] + [trained]) - np.array(params.step_starts)
            self.op_times.setdefault("step", []).extend(zip(walls.tolist(), params.step_starts))
            self.phase_s["train"].append(trained - start - bursts_s)
            self.phase_s["evaluate"].append(perf_counter() - trained)
        return history, val, test

    def round(self):
        result = self._call(None, self.steps, self._train_and_evaluate)
        if result is not None:
            history, val, test = result
            c = self.checks
            c.record("criterion09_floors", train_floors(history, val, test))
            if self.first_history is None:
                self.first_history = history
            else:
                c.record("history_identical_across_repeats", history == self.first_history)
        self.rounds += 1

    def report(self):
        if not self.phase_s["train"]:
            return {}
        return {
            "train_steps_per_s": (self.steps / float(np.median(self.phase_s["train"])), "1/s"),
            "eval_docs_per_s": (self.eval_docs / float(np.median(self.phase_s["evaluate"])), "1/s"),
            "train_step_ms_p50": (1000.0 * float(np.median(self.wall_times()["step"])), "ms"),
        }


class InferWide(Workload):
    """predict_proba on 768-wide documents of mixed length, features per call."""

    name = "infer-wide"
    op_kind = "infer_doc"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.first_proba: dict[int, bytes] = {}

    def setup(self):
        fm = self.fm
        self.model_cfg = criterion09_model(fm)  # default MfaConfig: fs-mfa, 41 q
        self.params = fm.neuralnet.init_params(
            self.model_cfg, self.size.infer_dim, seed=INFER_PARAMS_SEED
        )
        rng = np.random.default_rng(self.seed)
        docs = []
        for n_tokens in INFER_TOKENS:
            corpus = fm.series.synth_embedded_corpus(
                self.size.infer_docs_per_width, 3, n_tokens, self.size.infer_dim, 4.0,
                seed=int(rng.integers(2**31)),
            )
            docs += [doc for doc, _ in corpus.items]
        self.docs = [docs[i] for i in rng.permutation(len(docs))]

    def round(self):
        predict_proba = self.fm.neuralnet.predict_proba
        c = self.checks
        for idx, doc in enumerate(self.docs):
            kind = f"{doc.n_tokens} tokens"
            proba = self._call(kind, 1, predict_proba, doc, self.model_cfg, self.params)
            if proba is None:
                continue
            c.record("proba_finite_rows_sum_to_1", proba_ok(proba))
            raw = np.asarray(proba).tobytes()
            first = self.first_proba.setdefault(idx, raw)
            if self.rounds > 0:
                c.record("prediction_identical_across_repeats", raw == first)
        self.rounds += 1

    def report(self):
        times_ms = sorted(1000.0 * t for times in self.wall_times().values() for t in times)
        if not times_ms:
            return {}
        out = {
            "infer_docs_per_s": (len(times_ms) / (sum(times_ms) / 1000.0), "1/s"),
            "infer_doc_ms_p50": (float(np.median(times_ms)), "ms"),
        }
        tail = tail_percentile(times_ms)
        if tail is not None:
            value, pct, n = tail
            out[f"infer_doc_ms_tail(p{pct:.1f},n={n})"] = (value, "ms")
        return out


def tail_percentile(sorted_values: list[float], beyond: int = 10):
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, sample count), or None with too few samples.
    """
    n = len(sorted_values)
    k = n - beyond - 1
    if k < 0:
        return None
    return sorted_values[k], 100.0 * (k + 1) / n, n


WORKLOADS = {w.name: w for w in (AnalyzeLong, TrainSmall, InferWide)}
