"""Acceptance suite: ten gate tests, one per shipping criterion.

Each test pins its tolerances and wall-clock budget inline. Run with
`pytest -v tests/test_acceptance.py` for a one-line verdict per
criterion.
"""
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest
from numpy.testing import assert_allclose

import fractamine.autodiff as ad
from fractamine.activations import (
    KINDS,
    ActivationSpec,
    apply,
    apply_derivative,
    breakpoints,
    sital,
    sital_derivative,
)
from fractamine.autodiff import DiffArray, grad_check
from fractamine.cli import main as cli_main
from fractamine.fourier_denoise import denoise, fit_fourier, reconstruct
from fractamine.multifractal import MfaConfig, default_q_grid, fluctuation, hurst_profile
from fractamine.neuralnet import ModelConfig, deffsi_forward, init_params
from fractamine.series import (
    EmbeddingMatrix,
    Series,
    cascade_hurst_oracle,
    synth_binomial_cascade,
    synth_embedded_corpus,
    synth_fgn,
    synth_gaussian_noise,
)
from fractamine.training import TrainConfig, evaluate, split_dataset, train


@contextmanager
def budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"runtime {elapsed:.2f}s exceeded the {seconds}s budget"


def relative_error(a, b, floor=1e-12):
    return np.abs(a - b) / np.maximum.reduce([np.abs(a), np.abs(b), np.full_like(a, floor)])


def test_criterion_01_sital_derivative_and_lower_bound():
    with budget(1.0):
        assert sital(np.array(0.0), 1.0, 1.0) == 0.0
        x = np.linspace(-10, 10, 201)
        pairs = [(1.0, 1.0), (0.5, 1.0), (2.0, 4.0)]
        h = 1e-5
        for gamma, eta in pairs:
            analytic = sital_derivative(x, gamma, eta)
            fd = (sital(x + h, gamma, eta) - sital(x - h, gamma, eta)) / (2 * h)
            assert np.max(relative_error(analytic, fd)) < 1e-6
        rng = np.random.default_rng(0)
        points = rng.uniform(-100, 100, 10_000)
        for gamma, eta in pairs:
            d = sital_derivative(points, gamma, eta)
            assert np.all(d >= gamma - eta / 4 - 1e-12), (gamma, eta)


def test_criterion_02_activation_zoo_derivatives_and_identities():
    with budget(1.0):
        x = np.linspace(-6, 6, 201)
        h = 1e-6
        for kind in KINDS:
            spec = ActivationSpec(kind)
            keep = np.ones_like(x, dtype=bool)
            for b in breakpoints(spec):
                keep &= np.abs(x - b) > 10 * h
            grid = x[keep]
            analytic = apply_derivative(spec, grid)
            fd = (apply(spec, grid + h) - apply(spec, grid - h)) / (2 * h)
            err = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-4)
            assert np.max(err) < 1e-5, kind
        # zero-input identities hold exactly, not approximately
        assert float(apply(ActivationSpec("sigmoid"), np.array(0.0))) == 0.5
        for kind in ("gelu", "selu", "tanh", "relu"):
            assert float(apply(ActivationSpec(kind), np.array(0.0))) == 0.0, kind


def test_criterion_03_fourier_round_trip_and_denoise_gain():
    with budget(5.0):
        # exactly representable: 20 cycles of period 40 over 800 samples
        # puts the sign-change count at the period itself
        k = np.arange(1, 801, dtype=np.float64)
        w = 2 * np.pi / 40
        sig = np.cos(w * k) + 0.15 * np.cos(3 * w * k) + 0.1 * np.sin(5 * w * k)
        model = fit_fourier(Series(sig), max_terms=8)
        rec = reconstruct(model, model.max_terms)
        rmse = float(np.sqrt(np.mean((rec.values - sig) ** 2)))
        assert rmse < 1e-8

        n = 1024
        kk = np.arange(n, dtype=np.float64)
        clean = np.sqrt(2.0) * np.sin(2 * np.pi * 7 * kk / n)  # unit power, SNR 1
        wins = 0
        for seed in range(17, 22):
            rng = np.random.default_rng(seed)
            noisy = clean + rng.standard_normal(n)
            den, _, _ = denoise(Series(noisy))
            corr_noisy = np.corrcoef(noisy, clean)[0, 1]
            corr_den = np.corrcoef(den.values, clean)[0, 1]
            wins += int(corr_den > corr_noisy)
        assert wins >= 4, f"denoising beat the noisy signal in only {wins}/5 seeds"


def test_criterion_04_white_noise_hurst():
    with budget(10.0):
        cfg = MfaConfig(method="mf-dfa", q_grid=np.array([2.0]))
        estimates = [
            float(hurst_profile(synth_gaussian_noise(8192, seed), cfg).hurst[0])
            for seed in range(5)
        ]
        mean_h = float(np.mean(estimates))
        assert 0.4 < mean_h < 0.6, estimates


def test_criterion_05_fgn_hurst_recovery():
    with budget(20.0):
        cfg = MfaConfig(method="mf-dfa", q_grid=np.array([2.0]))
        for target in (0.3, 0.7):
            estimates = [
                float(hurst_profile(synth_fgn(8192, target, seed), cfg).hurst[0])
                for seed in range(5)
            ]
            mean_h = float(np.mean(estimates))
            assert abs(mean_h - target) < 0.1, (target, estimates)


def test_criterion_06_binomial_cascade_oracle():
    with budget(30.0):
        s = synth_binomial_cascade(13, 0.75)
        cfg = MfaConfig(method="mf-dfa", q_grid=default_q_grid())
        prof = hurst_profile(s, cfg)
        for q in (-5.0, -2.0, 2.0, 5.0):
            idx = int(np.flatnonzero(cfg.q_grid == q)[0])
            expected = cascade_hurst_oracle(q, 0.75)
            assert abs(prof.hurst[idx] - expected) < 0.1, (q, prof.hurst[idx], expected)
        diffs = np.diff(prof.hurst)
        assert np.all(diffs <= 1e-10), "h(q) must be nonincreasing in q"
        # persistent signal reads above the memoryless level at q = 2
        idx2 = int(np.flatnonzero(cfg.q_grid == 2.0)[0])
        assert prof.hurst[idx2] > 0.5


def test_criterion_07_fluctuation_structure(tmp_path):
    with budget(5.0):
        s = synth_fgn(4096, 0.7, seed=1)
        cfg = MfaConfig(method="mf-dfa", q_grid=default_q_grid())
        prof = hurst_profile(s, cfg)
        table = prof.table.values
        for col in range(table.shape[1]):
            column = table[:, col]
            assert np.all(np.isfinite(column))
            assert np.all(np.diff(column) >= -1e-10), "F_q(s) must be nondecreasing in q"

        # q -> 0 continuity of the geometric-mean limit
        from fractamine.multifractal import polynomial_detrend_variances, profile_series

        y = profile_series(s)
        for scale in (16, 64, 256):
            v = polynomial_detrend_variances(y, scale, 1)
            f0 = fluctuation(v, 0.0)
            for dq in (0.1, -0.1):
                assert abs(fluctuation(v, dq) - f0) / f0 < 0.05

        # the log-log table is emitted with exactly the requested orders
        series_path = tmp_path / "series.csv"
        np.savetxt(series_path, s.values)
        out = tmp_path / "an"
        code = cli_main(
            [
                "analyze", "--input", str(series_path), "--method", "mf-dfa",
                "--q=-10,-5,0,5,10", "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "hurst.json").read_text())
        assert payload["q"] == [-10.0, -5.0, 0.0, 5.0, 10.0]
        assert len(payload["logF"]) == 5
        for row in payload["logF"]:
            assert len(row) == len(payload["scales"])
            assert all(v is not None for v in row)


def micro_setup():
    cfg = ModelConfig(
        n_classes=3,
        hidden=5,
        filters=4,
        blocks=1,
        conv_width=1,
        dense_width=6,
        attn_dim=3,
        mfa=MfaConfig(method="mf-dfa", q_grid=np.linspace(-2, 2, 5)),
    )
    rng = np.random.default_rng(7)
    doc = EmbeddingMatrix(rng.standard_normal((4, 6)))
    params = init_params(cfg, embed_dim=6, seed=1)
    # move off the near-symmetric init so no gradient sits at the
    # finite-difference noise floor
    perturb = np.random.default_rng(99)
    for name, t in params.tensors.items():
        params.tensors[name] = DiffArray(t.data + perturb.standard_normal(t.data.shape) * 0.35)
    fv = rng.standard_normal(cfg.mfa.q_grid.size) * 0.3
    return cfg, doc, params, fv


def test_criterion_08_gradient_integrity():
    with budget(60.0):
        cfg, doc, params, fv = micro_setup()
        names = sorted(params.tensors)

        def end_to_end(*tensors):
            for name, t in zip(names, tensors):
                params.tensors[name] = t
            logits = deffsi_forward(doc, cfg, params, fv=fv)
            return ad.cross_entropy(logits, np.array(1))

        e2e_err = grad_check(end_to_end, [params.tensors[n] for n in names], h=1e-5)
        assert e2e_err < 1e-3, f"end-to-end gradient error {e2e_err:.2e}"

        rng = np.random.default_rng(3)

        def leaf(a):
            return DiffArray(np.asarray(a, dtype=np.float64))

        per_layer = {}
        per_layer["lstm"] = grad_check(
            lambda x, wx, wh, b: ad.mean_all(ad.lstm_layer(x, wx, wh, b, reverse=False)),
            [
                leaf(rng.standard_normal((5, 4))),
                leaf(rng.standard_normal((4, 12)) * 0.3),
                leaf(rng.standard_normal((3, 12)) * 0.3),
                leaf(rng.standard_normal(12) * 0.1),
            ],
        )
        per_layer["conv"] = grad_check(
            lambda x, k, b: ad.mean_all(ad.conv1d(x, k, b)),
            [
                leaf(rng.standard_normal((8, 3))),
                leaf(rng.standard_normal((3, 3, 4)) * 0.4),
                leaf(rng.standard_normal(4) * 0.1),
            ],
        )
        per_layer["maxpool"] = grad_check(
            lambda x: ad.mean_all(ad.maxpool(x, 2, 2)),
            [leaf(rng.standard_normal((8, 3)))],
        )
        per_layer["sital"] = grad_check(
            lambda x, g, e: ad.mean_all(ad.sital_op(x, g, e)),
            [leaf(rng.standard_normal((4, 3))), leaf(1.2), leaf(0.8)],
        )
        per_layer["matmul"] = grad_check(
            lambda a, b: ad.mean_all(ad.matmul(a, b)),
            [leaf(rng.standard_normal((3, 4))), leaf(rng.standard_normal((4, 2)))],
        )
        per_layer["softmax_xent"] = grad_check(
            lambda logits: ad.cross_entropy(logits, np.array([1, 0, 2])),
            [leaf(rng.standard_normal((3, 3)))],
        )
        for layer, err in per_layer.items():
            assert err < 1e-4, f"{layer} gradient error {err:.2e}"


def test_criterion_09_end_to_end_learning():
    with budget(120.0):
        corpus = synth_embedded_corpus(300, 3, 12, 64, 4.0, seed=5)
        model_cfg = ModelConfig(
            n_classes=3,
            hidden=16,
            filters=8,
            blocks=1,
            conv_width=2,
            dense_width=16,
            attn_dim=4,
            mfa=MfaConfig(method="mf-dfa", q_grid=np.linspace(-4, 4, 5)),
        )
        train_set, val_set, test_set = split_dataset(corpus, seed=5)
        train_cfg = TrainConfig(epochs=8, seed=5)  # well inside the 50-epoch cap
        params, history = train(train_set, train_cfg, model_cfg)
        assert history[-1]["accuracy"] >= 0.95, history[-1]
        held_out_val = evaluate(val_set, model_cfg, params)
        held_out_test = evaluate(test_set, model_cfg, params)
        assert held_out_val["accuracy"] >= 0.90, held_out_val
        assert held_out_test["accuracy"] >= 0.90, held_out_test

        # deterministic per seed: an identical short rerun matches exactly
        _, again = train(train_set, TrainConfig(epochs=2, seed=5), model_cfg)
        assert again == history[:2]


def test_criterion_10_compare_harness_shape(tmp_path):
    base = [
        "--docs", "15", "--classes", "3", "--tokens", "8", "--dim", "64",
        "--hidden", "4", "--filters", "3", "--blocks", "1", "--conv-width", "2",
        "--epochs", "1", "--seed", "3",
    ]
    out_act = tmp_path / "act"
    assert cli_main(["compare", "--mode", "activations", *base, "--out", str(out_act)]) == 0
    table = json.loads((out_act / "compare.json").read_text())
    assert len(table["rows"]) == 12
    assert sorted(r["activation"] for r in table["rows"]) == sorted(KINDS)
    hashes = {r["config_hash"] for r in table["rows"]}
    seeds = {r["seed"] for r in table["rows"]}
    assert len(hashes) == 1 and seeds == {3}, "rows must share one verified config"
    for row in table["rows"]:
        for key in ("val_accuracy", "val_macro_f1", "test_accuracy", "test_macro_f1"):
            assert 0.0 <= row[key] <= 1.0

    out_mfa = tmp_path / "mfa"
    assert cli_main(["compare", "--mode", "mfa", *base, "--out", str(out_mfa)]) == 0
    table = json.loads((out_mfa / "compare.json").read_text())
    assert [r["method"] for r in table["rows"]] == ["fs-mfa", "mf-dhv", "mf-dfa"]
    assert len({r["config_hash"] for r in table["rows"]}) == 1
