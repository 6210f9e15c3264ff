import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fractamine.fourier_denoise import (
    FourierModel,
    denoise,
    diagnostics,
    fit_fourier,
    reconstruct,
    select_order,
)
from fractamine.series import Series, synth_binomial_cascade, synth_fgn


def periodic_signal(n=800, period=40.0):
    """Zero-mean composite of period 40 over 800 samples, so its
    periodogram peaks at bin k* = 20. Built on 1-based positions to line
    up with the fit's sample index."""
    k = np.arange(1, n + 1, dtype=np.float64)
    w = 2 * np.pi / period
    return Series(np.cos(w * k) + 0.15 * np.cos(3 * w * k) + 0.1 * np.sin(5 * w * k)), w


class TestFitFourier:
    def test_round_trip_exact_signal(self):
        s, _ = periodic_signal()
        model = fit_fourier(s, max_terms=8)
        rec = reconstruct(model, model.max_terms)
        rmse = np.sqrt(np.mean((rec.values - s.values) ** 2))
        assert rmse < 1e-10

    def test_recovers_coefficients(self):
        s, w = periodic_signal()
        model = fit_fourier(s, max_terms=6)
        assert model.omega == w
        assert_allclose(model.eta0, 0.0, atol=1e-12)
        assert_allclose(model.alpha[0], 1.0, atol=1e-10)
        assert_allclose(model.alpha[2], 0.15, atol=1e-10)
        assert_allclose(model.beta[4], 0.1, atol=1e-10)

    @pytest.mark.parametrize("period", [4096, 2048, 512, 128, 16])
    def test_round_trip_at_any_period(self, period):
        # every period that divides N, whether P^2 = 2N (P = 128) or not;
        # the offset sits in bin 0 and does not move the fundamental
        n = 8192
        k = np.arange(1, n + 1, dtype=np.float64)
        w = 2 * np.pi / period
        sig = 0.5 + np.cos(w * k) + 0.15 * np.cos(3 * w * k) + 0.1 * np.sin(5 * w * k)
        model = fit_fourier(Series(sig))
        assert model.omega == w
        assert model.max_terms == min(64, period // 2 - 1)
        assert_allclose(model.eta0, 0.5, atol=1e-12)
        rec = reconstruct(model, model.max_terms)
        assert np.sqrt(np.mean((rec.values - sig) ** 2)) < 1e-10

    def test_constant_series_zero_coeffs(self):
        s = Series(np.full(64, 2.5))
        model = fit_fourier(s, max_terms=4)
        assert model.omega == 2 * np.pi / 64
        assert_allclose(model.eta0, 2.5, atol=1e-12)
        assert_allclose(model.alpha, 0.0, atol=1e-10)
        assert_allclose(model.beta, 0.0, atol=1e-10)

    def test_flat_spectrum_takes_the_lowest_bin(self):
        # a unit impulse at the first sample has F[k] = 1 in every bin: the
        # tie goes to k* = 1
        y = np.zeros(100)
        y[0] = 1.0
        assert fit_fourier(Series(y)).omega == 2 * np.pi / 100

    def test_dc_and_nyquist_do_not_compete(self):
        # the offset (DC) and the alternation (Nyquist) both outweigh bin 3
        n = 256
        k = np.arange(1, n + 1, dtype=np.float64)
        y = 10.0 + 5.0 * (-1.0) ** k + 0.1 * np.cos(2 * np.pi * 3 * k / n)
        model = fit_fourier(Series(y))
        assert model.omega == 2 * np.pi * 3 / n
        assert_allclose(model.alpha[0], 0.1, atol=1e-12)

    def test_max_terms_reaching_half_n_refused(self):
        # k* = 20 at N = 800: harmonic 20 would sit on the Nyquist bin 400
        s, _ = periodic_signal()
        assert fit_fourier(s, max_terms=19).max_terms == 19
        with pytest.raises(ValueError, match="max_terms"):
            fit_fourier(s, max_terms=20)

    @pytest.mark.parametrize("max_terms", [0, -3, 20, 21, 400])
    def test_max_terms_outside_range_refused(self, max_terms):
        # k* = 20 at N = 800 admits max_terms 1..19
        s, _ = periodic_signal()
        with pytest.raises(ValueError, match="max_terms"):
            fit_fourier(s, max_terms=max_terms)

    @pytest.mark.parametrize("runs", [(40, 40), (30, 30, 30)], ids=["T1", "T2"])
    def test_default_omega_fits_one_or_two_crossings(self, runs):
        # a step series puts its peak at the lowest bin; four harmonics of
        # that fundamental span it
        s = Series(np.concatenate([np.full(n, (-1.0) ** i) for i, n in enumerate(runs)]))
        model = fit_fourier(s, max_terms=4)
        assert model.omega == 2.0 * np.pi / len(s)
        rec = reconstruct(model, model.max_terms)
        assert np.corrcoef(rec.values, s.values)[0, 1] > 0.9

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            fit_fourier(Series(np.arange(10.0)), max_terms=8)

    @pytest.mark.parametrize("n", [1, 2])
    def test_needs_three_samples(self, n):
        with pytest.raises(ValueError, match="3 samples"):
            fit_fourier(Series(np.arange(1.0, n + 1)))


def periodogram_peak(y):
    """The lowest bin of greatest power over 1..ceil(N/2)-1, from the full FFT."""
    n = len(y)
    power = np.abs(np.fft.fft(y)[1 : (n + 1) // 2]) ** 2
    return 1 + int(np.flatnonzero(power == power.max())[0])


def crossing_series(t, n=120):
    """n samples in t+1 runs of alternating sign, so exactly t sign changes."""
    rng = np.random.default_rng(t)
    runs = np.array_split(1.0 + rng.uniform(size=n), t + 1)
    return Series(np.concatenate([(-1.0) ** i * run for i, run in enumerate(runs)]))


class TestFundamental:
    @pytest.mark.parametrize("t", range(7))
    def test_matches_denoise_basis(self, t):
        # t = 0 is a positive series that never crosses zero; the
        # fundamental is the periodogram peak whatever the crossings are
        s = crossing_series(t)
        n = len(s)
        k = periodogram_peak(s.values)
        model = fit_fourier(s)
        assert model.omega == denoise(s)[1].omega == 2.0 * np.pi * k / n
        assert model.max_terms == min(n // 4, 64, -(-n // (2 * k)) - 1) >= 1

    def test_matches_denoise_basis_on_cascade(self):
        # the cascade's power peaks at N/4, where one harmonic fits
        s = synth_binomial_cascade(10, 0.75)
        model = denoise(s)[1]
        assert periodogram_peak(s.values) == len(s) // 4
        assert model.omega == 2.0 * np.pi / 4
        assert model.max_terms == 1


@pytest.mark.parametrize(
    "n,bin_",
    [
        (800, 20),  # N a multiple of 2k*: the last harmonic stops one short of Nyquist
        (1000, 450),  # k* > N/3: one harmonic
        (4097, 129),  # N odd, no Nyquist bin
        (777, 1),  # the lowest bin, 64 harmonics
        (17, 5),  # short series
    ],
    ids=["even", "above-third", "odd", "lowest-bin", "short"],
)
def test_design_is_orthogonal_at_the_fundamental(n, bin_):
    # with every harmonic bin strictly inside (0, N/2) the columns are
    # orthogonal, with squared norms N and N/2, so the bin read is the fit
    m = min(n // 4, 64, -(-n // (2 * bin_)) - 1)
    X = oracle_design(n, bin_, m)
    want = np.diag(np.r_[n, np.full(2 * m, n / 2)])
    assert_allclose(X.T @ X, want, rtol=0, atol=1e-9 * n)


def oracle_design(n, bin_, max_terms):
    """The N-row design at omega = 2*pi*bin_/N, each phase reduced mod N."""
    arg = 2 * np.pi * (np.outer(np.arange(1, n + 1), bin_ * np.arange(1, max_terms + 1)) % n) / n
    return np.hstack([np.ones((n, 1)), np.cos(arg), np.sin(arg)])


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(16, 4096),
    seed=st.integers(0, 2**32 - 1),
    tone=st.floats(0.0, 1.0, exclude_max=True),
    amplitude=st.sampled_from([0.0, 0.3, 5.0]),
    data=st.data(),
)
def test_fit_matches_lstsq_oracle(n, seed, tone, amplitude, data):
    # noise plus a tone at any bin below Nyquist, so k* spans the whole
    # range; the order is drawn up to the largest the fundamental admits
    k = np.arange(1, n + 1)
    tone_bin = 1 + int(tone * ((n + 1) // 2 - 1))
    y = np.random.default_rng(seed).standard_normal(n) + amplitude * np.cos(2 * np.pi * tone_bin * k / n + 1.0)
    fundamental = round(fit_fourier(Series(y)).omega * n / (2 * np.pi))
    power = np.abs(np.fft.fft(y)[1 : (n + 1) // 2]) ** 2
    assert power[fundamental - 1] >= power.max() * (1 - 1e-12)
    m = data.draw(st.integers(1, min(64, -(-n // (2 * fundamental)) - 1)))
    model = fit_fourier(Series(y), max_terms=m)
    assert model.omega == 2 * np.pi * fundamental / n
    coef = np.linalg.lstsq(oracle_design(n, fundamental, m), y, rcond=None)[0]
    assert abs(model.eta0 - coef[0]) <= 1e-12
    assert_allclose(model.alpha, coef[1 : m + 1], rtol=0, atol=1e-12)
    assert_allclose(model.beta, coef[m + 1 :], rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [768, 800, 4097, 8192, 9000, 12289])
def test_long_fit_matches_lstsq_oracle(n):
    # fGn at the default order, up to 64 harmonics
    y = synth_fgn(n, 0.7, seed=n).values
    model = fit_fourier(Series(y))
    m = model.max_terms
    fundamental = periodogram_peak(y)
    assert model.omega == 2 * np.pi * fundamental / n
    coef = np.linalg.lstsq(oracle_design(n, fundamental, m), y, rcond=None)[0]
    assert abs(model.eta0 - coef[0]) <= 1e-12
    assert_allclose(model.alpha, coef[1 : m + 1], rtol=0, atol=1e-12)
    assert_allclose(model.beta, coef[m + 1 :], rtol=0, atol=1e-12)


def test_fit_memory_independent_of_n():
    # the full 129 x 65536 design alone would take 68 MB
    s = synth_fgn(65536, 0.7, seed=0)
    tracemalloc.start()
    try:
        fit_fourier(s, max_terms=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def model_with_energy(energy):
    energy = np.asarray(energy, dtype=np.float64)
    m = len(energy)
    return FourierModel(
        eta0=0.0,
        alpha=np.zeros(m),
        beta=np.zeros(m),
        omega=0.1,
        max_terms=m,
        energy=energy,
        n_samples=4 * m + 2,
    )


class TestSelectOrder:
    def test_two_equal_terms(self):
        assert select_order(model_with_energy([0.5, 0.5, 0.0, 0.0])) == 2

    def test_uniform_keeps_everything(self):
        assert select_order(model_with_energy(np.full(8, 1 / 8))) == 8

    def test_dominant_then_tail(self):
        assert select_order(model_with_energy([0.7, 0.2, 0.05, 0.05])) == 2

    def test_single_term(self):
        assert select_order(model_with_energy([1.0])) == 1


def reconstruct_loop(m, r):
    """Per-term evaluation, the reference for reconstruct."""
    ranking = np.argsort(-m.energy, kind="stable")
    k = np.arange(1, m.n_samples + 1, dtype=np.float64)
    out = np.full(m.n_samples, m.eta0)
    for idx in ranking[:r]:
        u = idx + 1
        out = out + m.alpha[idx] * np.cos(u * m.omega * k) + m.beta[idx] * np.sin(u * m.omega * k)
    return out


class TestReconstruct:
    @pytest.mark.parametrize("which", ["periodic", "fgn"])
    @pytest.mark.parametrize("order", ["zero", "one", "max"])
    def test_matches_per_term_loop(self, which, order):
        if which == "periodic":
            model = fit_fourier(periodic_signal()[0], max_terms=12)
        else:
            _, model, _ = denoise(synth_fgn(768, 0.7, 4))
        r = {"zero": 0, "one": 1, "max": model.max_terms}[order]
        assert_allclose(reconstruct(model, r).values, reconstruct_loop(model, r), rtol=0, atol=1e-12)

    def test_partial_order_keeps_top_energy_terms(self):
        s, w = periodic_signal()
        model = fit_fourier(s, max_terms=6)
        k = np.arange(1, len(s) + 1, dtype=np.float64)
        rec1 = reconstruct(model, 1)
        # the strongest term is the fundamental
        assert_allclose(rec1.values, np.cos(w * k), atol=1e-9)

    def test_order_zero_is_mean_term(self):
        s, _ = periodic_signal()
        model = fit_fourier(s, max_terms=4)
        rec = reconstruct(model, 0)
        assert_allclose(rec.values, model.eta0, atol=1e-12)

    def test_rmse_nonincreasing_in_order(self):
        # truncation by energy rank should not get worse as terms are added
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = 512
            k = np.arange(n, dtype=np.float64)
            sig = np.sin(2 * np.pi * 5 * k / n) + 0.5 * rng.standard_normal(n)
            s = Series(sig)
            model = fit_fourier(s, max_terms=6)
            rmses = [
                np.sqrt(np.mean((reconstruct(model, r).values - sig) ** 2))
                for r in range(model.max_terms + 1)
            ]
            assert all(b <= a + 1e-9 for a, b in zip(rmses, rmses[1:]))


class TestDenoise:
    def test_clean_low_order_signal(self):
        s, _ = periodic_signal()
        den, model, r = denoise(s)
        corr = np.corrcoef(den.values, s.values)[0, 1]
        assert corr > 0.99

    def test_improves_noisy_sine(self):
        rng = np.random.default_rng(12)
        n = 1024
        k = np.arange(n, dtype=np.float64)
        clean = np.sqrt(2.0) * np.sin(2 * np.pi * 7 * k / n)
        noisy = clean + rng.standard_normal(n)
        den, _, _ = denoise(Series(noisy))
        assert np.corrcoef(den.values, clean)[0, 1] > np.corrcoef(noisy, clean)[0, 1]

    def test_constant_input_survives(self):
        den, model, r = denoise(Series(np.full(64, 1.5)))
        assert_allclose(den.values, 1.5, atol=1e-10)

    def test_white_noise_does_not_crash(self):
        rng = np.random.default_rng(0)
        den, model, r = denoise(Series(rng.standard_normal(256)))
        assert 0 <= r <= model.max_terms
        assert np.all(np.isfinite(den.values))

    def test_minimum_length(self):
        with pytest.raises(ValueError):
            denoise(Series(np.arange(8.0)))

    def test_fundamental_above_third_of_n_keeps_a_harmonic(self):
        # k* = 450 at N = 1000: harmonic 2 would pass Nyquist, harmonic 1 fits
        n = 1000
        k = np.arange(1, n + 1, dtype=np.float64)
        sig = np.sin(2 * np.pi * 450 * k / n + 0.3)
        den, model, r = denoise(Series(sig + 0.1 * np.random.default_rng(3).standard_normal(n)))
        assert model.omega == 2 * np.pi * 450 / n
        assert model.max_terms == r == 1
        assert np.corrcoef(den.values, sig)[0, 1] > 0.99


class TestDiagnostics:
    def test_json_schema(self):
        s, _ = periodic_signal()
        den, model, r = denoise(s)
        payload = json.loads(json.dumps(diagnostics(model, r)))
        assert payload["r_selected"] == r
        assert_allclose(payload["omega"], model.omega)
        assert len(payload["energy"]) == model.max_terms
        assert len(payload["entropy_table"]) == model.max_terms
        assert_allclose(sum(payload["energy"]), 1.0, rtol=1e-9)


class TestFourierModelValidation:
    def test_coefficient_length_mismatch(self):
        with pytest.raises(ValueError):
            FourierModel(
                eta0=0.0,
                alpha=np.zeros(3),
                beta=np.zeros(2),
                omega=0.1,
                max_terms=3,
                energy=np.full(3, 1 / 3),
                n_samples=32,
            )

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            model_with_energy([0.9, 0.2, -0.1])
