import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fractamine.fourier_denoise import (
    DegenerateBasisError,
    FourierModel,
    angular_frequency,
    count_sign_changes,
    denoise,
    diagnostics_json,
    fit_fourier,
    reconstruct,
    select_order,
)
from fractamine.series import Series, synth_fgn


def periodic_signal(n=800, period=40.0):
    """Zero-mean composite whose sign-change count recovers its own
    fundamental: n/period cycles produce 2n/period crossings, which
    equals `period` when period = sqrt(2n). Built on 1-based positions
    to line up with the fit's sample index."""
    k = np.arange(1, n + 1, dtype=np.float64)
    w = 2 * np.pi / period
    return Series(np.cos(w * k) + 0.15 * np.cos(3 * w * k) + 0.1 * np.sin(5 * w * k)), w


class TestSignChanges:
    def test_alternating(self):
        s = Series(np.array([1.0, -1.0, 1.0, -1.0]))
        assert count_sign_changes(s) == 3

    def test_constant_positive(self):
        assert count_sign_changes(Series(np.ones(10))) == 0

    def test_zeros_count_as_positive(self):
        # sign(0) treated as +, so 0 -> -1 changes and -1 -> 0 changes back
        s = Series(np.array([0.0, -1.0, 0.0, 1.0]))
        assert count_sign_changes(s) == 2

    def test_sine_crossings(self):
        # 7 cycles over the window: 14 half-periods, 13 interior boundaries
        k = np.arange(1024, dtype=np.float64)
        s = Series(np.sin(2 * np.pi * 7 * k / 1024))
        assert count_sign_changes(s) == 13


class TestAngularFrequency:
    def test_matches_construction(self):
        s, w = periodic_signal()
        assert_allclose(angular_frequency(s), w, rtol=1e-12)

    def test_zero_crossing_fallback(self):
        s = Series(np.full(50, 3.0))
        assert_allclose(angular_frequency(s), 2 * np.pi / 50)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            angular_frequency(Series(np.array([1.0])))


class TestFitFourier:
    def test_round_trip_exact_signal(self):
        s, _ = periodic_signal()
        model = fit_fourier(s, max_terms=8)
        rec = reconstruct(model, model.max_terms)
        rmse = np.sqrt(np.mean((rec.values - s.values) ** 2))
        assert rmse < 1e-10

    def test_recovers_coefficients(self):
        s, _ = periodic_signal()
        model = fit_fourier(s, max_terms=6)
        assert_allclose(model.eta0, 0.0, atol=1e-12)
        assert_allclose(model.alpha[0], 1.0, atol=1e-10)
        assert_allclose(model.alpha[2], 0.15, atol=1e-10)
        assert_allclose(model.beta[4], 0.1, atol=1e-10)

    def test_constant_series_zero_coeffs(self):
        s = Series(np.full(64, 2.5))
        model = fit_fourier(s, max_terms=4)
        assert_allclose(model.eta0, 2.5, atol=1e-12)
        assert_allclose(model.alpha, 0.0, atol=1e-10)
        assert_allclose(model.beta, 0.0, atol=1e-10)

    def test_degenerate_harmonic_raises(self):
        # at omega = 2*pi/T the sin column of harmonic T/2 vanishes
        s, w = periodic_signal()  # T = 40
        with pytest.raises(DegenerateBasisError) as err:
            fit_fourier(s, max_terms=20)
        assert 20 in err.value.terms

    def test_near_collinear_pair_raises(self):
        # harmonics 3 and 4 alias at omega = 2*pi/7; a 1e-10 detuning leaves
        # cond(X) near 2e8, which an SVD solve would still accept
        n, m = 64, 4
        omega = 2 * np.pi / 7 * (1 + 1e-10)
        X = oracle_design(omega, n, m)
        assert 1e6 < np.linalg.cond(X) < 1e11
        assert np.linalg.matrix_rank(X) == X.shape[1]
        y = Series(np.random.default_rng(3).standard_normal(n))
        with pytest.raises(DegenerateBasisError) as err:
            fit_fourier(y, max_terms=m, omega=omega)
        assert err.value.terms == [3, 4]

    def test_explicit_omega_override(self):
        k = np.arange(256, dtype=np.float64)
        w = 2 * np.pi / 32
        sig = 1.0 + 2 * np.cos(w * k) + 0.5 * np.sin(2 * w * k)
        model = fit_fourier(Series(sig), max_terms=8, omega=w)
        rec = reconstruct(model, model.max_terms)
        assert np.sqrt(np.mean((rec.values - sig) ** 2)) < 1e-10

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            fit_fourier(Series(np.arange(10.0)), max_terms=8)


def oracle_design(omega, n, max_terms):
    k = np.arange(1, n + 1, dtype=np.float64)
    arg = np.outer(k, np.arange(1, max_terms + 1, dtype=np.float64)) * omega
    return np.hstack([np.ones((n, 1)), np.cos(arg), np.sin(arg)])


@st.composite
def denoise_designs(draw):
    """(N, T, m) as denoise draws them: omega = 2*pi/T, T = N for the fallback."""
    n = draw(st.integers(16, 4096))
    t = draw(st.integers(3, n))
    m = draw(st.integers(1, min(n // 4, 64, (t - 1) // 2)))
    return n, t, m


@settings(max_examples=40, deadline=None)
@given(design=denoise_designs(), seed=st.integers(0, 2**32 - 1))
def test_fit_matches_lstsq_oracle(design, seed):
    n, t, m = design
    omega = 2 * np.pi / t
    y = np.random.default_rng(seed).standard_normal(n)
    model = fit_fourier(Series(y), max_terms=m, omega=omega)
    coef = np.linalg.lstsq(oracle_design(omega, n, m), y, rcond=None)[0]
    assert abs(model.eta0 - coef[0]) <= 1e-12
    assert_allclose(model.alpha, coef[1 : m + 1], rtol=0, atol=1e-12)
    assert_allclose(model.beta, coef[m + 1 :], rtol=0, atol=1e-12)


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


class TestDiagnostics:
    def test_json_schema(self):
        s, _ = periodic_signal()
        den, model, r = denoise(s)
        payload = json.loads(diagnostics_json(model, r))
        assert payload["format_version"] == 1
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
