"""Which program functions the traced run wraps, and the per-layer metrics.

Every wrapper sits on the name its caller looks up at call time:
``denoise`` is bound by ``from ... import`` in both ``cli`` and
``multifractal``, ``hurst_profile`` in ``cli`` and ``neuralnet``,
``deffsi_forward`` and ``hurst_features`` in ``neuralnet`` and
``training``; the network layers are looked up as ``ad.<name>`` on the
``autodiff`` module; ``DiffArray.backward``, ``_Adam.step`` and
``ModelParams.zero_grads`` are class attributes.

There is no queue or second thread in any workload, so no layer has a
waiting time to report.
"""
from __future__ import annotations

import numpy as np

from tracer import Tracer, summarize

# (name, unit, better); every workload reports all of them, zero where a
# layer does not run in it.
PER_LAYER = [
    ("series.load_series.s", "s", "lower"),
    ("series.load_series.calls", "count", "lower"),
    ("cli.cmd_analyze.self_s", "s", "lower"),
    ("fourier_denoise.denoise.calls", "count", "lower"),
    ("fourier_denoise.denoise.self_s", "s", "lower"),
    ("fourier_denoise.fit_fourier.s", "s", "lower"),
    ("fourier_denoise.select_order.s", "s", "lower"),
    ("fourier_denoise.reconstruct.s", "s", "lower"),
    ("fourier_denoise.omega_fallback.count", "count", "lower"),
    ("multifractal.weighted_trend.s", "s", "lower"),
    ("multifractal.weighted_trend.calls", "count", "lower"),
    ("multifractal.fluctuation.s", "s", "lower"),
    ("multifractal.fluctuation.calls", "count", "lower"),
    ("multifractal.polynomial_detrend_variances.s", "s", "lower"),
    ("multifractal.historical_volatility.s", "s", "lower"),
    ("multifractal.window_variances.s", "s", "lower"),
    ("multifractal.hurst_profile.calls", "count", "lower"),
    ("multifractal.hurst_profile.self_s", "s", "lower"),
    ("multifractal.finite_h_ratio", "ratio", "higher"),
    ("multifractal.degenerate_scales.count", "count", "lower"),
    ("activations.site.s", "s", "lower"),
    ("autodiff.lstm_layer.s", "s", "lower"),
    ("autodiff.conv1d.s", "s", "lower"),
    ("autodiff.cross_entropy.s", "s", "lower"),
    ("autodiff.backward.s", "s", "lower"),
    ("neuralnet.hurst_features.s", "s", "lower"),
    ("neuralnet.hurst_features.calls", "count", "lower"),
    ("neuralnet.hurst_fallback_ratio", "ratio", "lower"),
    ("neuralnet.deffsi_forward.self_s", "s", "lower"),
    ("neuralnet.birnn_forward.s", "s", "lower"),
    ("neuralnet.scnn_forward.s", "s", "lower"),
    ("neuralnet.attention_fv.s", "s", "lower"),
    ("training.adam_step.s", "s", "lower"),
    ("training.adam_step.calls", "count", "lower"),
    ("training.train.self_s", "s", "lower"),
    ("training.evaluate.self_s", "s", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def _count_omega_fallback(tracer, args, result):
    # denoise falls back to omega = 2*pi/N when the series crosses zero
    # fewer than three times; it computes that value by this expression.
    series, (_, model, _) = args[0], result
    if model.omega == 2.0 * np.pi / len(series):
        tracer.counts["omega_fallback"] += 1


def _count_fits(tracer, args, result):
    finite = int(np.sum(np.isfinite(result.hurst)))
    tracer.counts["fits_attempted"] += int(result.q_grid.size)
    tracer.counts["fits_finite"] += finite
    tracer.counts["degenerate_scales"] += int(result.degenerate_scales.size)
    tracer.last_finite_fits = finite


def _forget_fits(tracer, args):
    tracer.last_finite_fits = 0


def _count_hurst_fallback(tracer, args, result):
    # hurst_features substitutes 0.5 for every q whose fit is not
    # finite, and for every q when hurst_profile raised.
    q_count = int(np.asarray(result).size)
    tracer.counts["hurst_entries"] += q_count
    tracer.counts["hurst_fallback"] += q_count - tracer.last_finite_fits


def _begin_train_step(tracer, args):
    tracer.begin_op("train_step")


def _begin_evaluate(tracer, args):
    tracer.begin_op("evaluate")


def _begin_eval_doc(tracer, args):
    if tracer.innermost() == "training.evaluate":
        tracer.begin_op("eval_doc")


def install(tracer: Tracer, fm) -> None:
    """Wrap the program's functions; fm is the imported fractamine package."""
    cli, fd, mf = fm.cli, fm.fourier_denoise, fm.multifractal
    ad, nn, tr = fm.autodiff, fm.neuralnet, fm.training
    tracer.last_finite_fits = 0
    w = tracer.wrap

    w(cli, "main", "cli.main")
    w(cli, "cmd_analyze", "cli.cmd_analyze")
    w(cli, "load_series", "series.load_series")
    for owner in (cli, mf):
        w(owner, "denoise", "fourier_denoise.denoise", after=_count_omega_fallback)
    for attr in ("fit_fourier", "select_order", "reconstruct"):
        w(fd, attr, f"fourier_denoise.{attr}")
    for attr in ("weighted_trend", "fluctuation", "polynomial_detrend_variances",
                 "historical_volatility", "window_variances"):
        w(mf, attr, f"multifractal.{attr}")
    for owner in (cli, nn):
        w(owner, "hurst_profile", "multifractal.hurst_profile", after=_count_fits)

    w(ad, "sital_op", "activations.site")
    w(ad, "activation", "activations.site")
    for attr in ("lstm_layer", "conv1d", "cross_entropy"):
        w(ad, attr, f"autodiff.{attr}")
    w(ad.DiffArray, "backward", "autodiff.backward")

    for owner in (nn, tr):
        w(owner, "hurst_features", "neuralnet.hurst_features",
          before=_forget_fits, after=_count_hurst_fallback)
    w(nn, "deffsi_forward", "neuralnet.deffsi_forward")
    w(tr, "deffsi_forward", "neuralnet.deffsi_forward", before=_begin_eval_doc)
    for attr in ("birnn_forward", "scnn_forward", "attention_fv", "predict_proba"):
        w(nn, attr, f"neuralnet.{attr}")
    w(nn.ModelParams, "zero_grads", "neuralnet.zero_grads", before=_begin_train_step)

    w(tr._Adam, "step", "training.adam_step")
    w(tr, "train", "training.train")
    w(tr, "evaluate", "training.evaluate", before=_begin_evaluate)


def metrics(tracer: Tracer, ops: int, overhead_pct: float) -> dict[str, float]:
    """Per-layer values over one traced round, in the order of PER_LAYER."""
    table = summarize(tracer.spans)
    counts = tracer.counts

    def field(span_name, key):
        return float(table.get(span_name, {}).get(key, 0))

    def ratio(part, whole):
        return counts[part] / counts[whole] if counts[whole] else 0.0

    special = {
        "fourier_denoise.omega_fallback.count": float(counts["omega_fallback"]),
        "multifractal.finite_h_ratio": ratio("fits_finite", "fits_attempted"),
        "multifractal.degenerate_scales.count": float(counts["degenerate_scales"]),
        "neuralnet.hurst_fallback_ratio": ratio("hurst_fallback", "hurst_entries"),
        "trace.ops": float(ops),
        "trace.spans": float(len(tracer.spans)),
        "trace.overhead_pct": overhead_pct,
    }
    values = {}
    for name, _, _ in PER_LAYER:
        if name in special:
            values[name] = special[name]
        else:
            span_name, key = name.rsplit(".", 1)
            values[name] = field(span_name, key)
    return values
