import json
import tracemalloc

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
    diagnostics,
    fit_fourier,
    reconstruct,
    select_order,
    _aliased_terms,
    _normal_equations,
)
from fractamine.series import Series, synth_binomial_cascade, synth_fgn


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

    @pytest.mark.parametrize("t", range(7))
    def test_matches_denoise_basis(self, t):
        s = crossing_series(t)
        assert count_sign_changes(s) == t
        assert angular_frequency(s) == denoise(s)[1].omega

    def test_matches_denoise_basis_on_cascade(self):
        s = synth_binomial_cascade(10, 0.75)
        assert angular_frequency(s) == denoise(s)[1].omega == 2.0 * np.pi / len(s)


def crossing_series(t, n=120):
    """n samples in t+1 runs of alternating sign, so exactly t sign changes."""
    rng = np.random.default_rng(t)
    runs = np.array_split(1.0 + rng.uniform(size=n), t + 1)
    return Series(np.concatenate([(-1.0) ** i * run for i, run in enumerate(runs)]))


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

    def test_vanishing_column_named_alone(self):
        # at period 4 the sin column of harmonic 2 is zero; harmonic 1 is
        # sound and is not named
        y = Series(np.random.default_rng(1462).standard_normal(1462))
        with pytest.raises(DegenerateBasisError) as err:
            fit_fourier(y, max_terms=2, period=4)
        assert err.value.terms == [2]

    @pytest.mark.parametrize("runs", [(40, 40), (30, 30, 30)], ids=["T1", "T2"])
    def test_default_omega_fits_one_or_two_crossings(self, runs):
        # at 2*pi/T every harmonic would alias; the default basis spans the series
        s = Series(np.concatenate([np.full(n, (-1.0) ** i) for i, n in enumerate(runs)]))
        model = fit_fourier(s, max_terms=4)
        assert model.omega == 2.0 * np.pi / len(s)
        rec = reconstruct(model, model.max_terms)
        assert np.corrcoef(rec.values, s.values)[0, 1] > 0.9

    def test_explicit_period_override(self):
        k = np.arange(256, dtype=np.float64)
        w = 2 * np.pi / 32
        sig = 1.0 + 2 * np.cos(w * k) + 0.5 * np.sin(2 * w * k)
        model = fit_fourier(Series(sig), max_terms=8, period=32)
        assert model.omega == w
        rec = reconstruct(model, model.max_terms)
        assert np.sqrt(np.mean((rec.values - sig) ** 2)) < 1e-10

    @pytest.mark.parametrize("period", [40.5, 40.0, "40", 0, -3, 801])
    def test_period_outside_integers_in_range_refused(self, period):
        s, _ = periodic_signal()  # N = 800
        with pytest.raises(ValueError, match="period"):
            fit_fourier(s, max_terms=4, period=period)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            fit_fourier(Series(np.arange(10.0)), max_terms=8)


def oracle_design(period, n, max_terms):
    """The N-row design at omega = 2*pi/period, each phase reduced mod period."""
    arg = 2 * np.pi * (np.outer(np.arange(1, n + 1), np.arange(1, max_terms + 1)) % period) / period
    return np.hstack([np.ones((n, 1)), np.cos(arg), np.sin(arg)])


def test_aliased_terms_are_the_repeated_or_vanishing_columns():
    # the harmonics with a column that is zero, or equal or opposite to
    # another column (the constant included), found by comparing columns
    for period in range(1, 41):
        for m in range(1, 26):
            X = oracle_design(period, max(period, 2 * m + 1), m)
            a, b = X[:, :, None], X[:, None, :]
            repeats = np.all(np.isclose(a, b, rtol=0, atol=1e-9), axis=0)
            repeats |= np.all(np.isclose(a, -b, rtol=0, atol=1e-9), axis=0)
            np.fill_diagonal(repeats, False)
            bad = repeats.any(axis=1) | np.all(np.abs(X) < 1e-9, axis=0)
            want = sorted({(col - 1) % m + 1 for col in np.flatnonzero(bad) if col > 0})
            assert _aliased_terms(period, m) == want, (period, m)


@st.composite
def denoise_designs(draw):
    """(N, P, m) as denoise draws them: omega = 2*pi/P, P = N for the fallback."""
    n = draw(st.integers(16, 4096))
    t = draw(st.integers(3, n))
    m = draw(st.integers(1, min(n // 4, 64, (t - 1) // 2)))
    return n, t, m


@settings(max_examples=40, deadline=None)
@given(design=denoise_designs(), seed=st.integers(0, 2**32 - 1))
def test_fit_matches_lstsq_oracle(design, seed):
    n, period, m = design
    y = np.random.default_rng(seed).standard_normal(n)
    model = fit_fourier(Series(y), max_terms=m, period=period)
    coef = np.linalg.lstsq(oracle_design(period, n, m), y, rcond=None)[0]
    assert abs(model.eta0 - coef[0]) <= 1e-12
    assert_allclose(model.alpha, coef[1 : m + 1], rtol=0, atol=1e-12)
    assert_allclose(model.beta, coef[m + 1 :], rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(design=denoise_designs())
def test_gram_condition_at_most_four(design):
    # fit_fourier's bound: q*G_P <= G <= (q+1)*G_P for N = qP + r
    n, period, m = design
    gram, _ = _normal_equations(np.zeros(n), period, m)
    assert np.linalg.cond(gram) <= 4.0 * (1 + 1e-9)


@pytest.mark.parametrize(
    "n,period,m",
    [
        (1000, 37, 16),  # N not a multiple of P: the fold is uneven
        (17, 5, 8),  # N = 2m+1, and u+v wraps past P
        (500, 21, 10),  # P = 2m+1: u+v reaches P-1
        (777, 777, 64),  # the fallback P = N
    ],
    ids=["padded", "n-is-2m+1", "t-is-2m+1", "fallback-omega"],
)
def test_normal_equations_match_direct_sums(n, period, m):
    y = np.random.default_rng(n).standard_normal(n)
    X = oracle_design(period, n, m)
    gram, b = _normal_equations(y, period, m)
    # an index or sign slip moves an entry by O(N) or O(|y|_1)
    assert_allclose(gram, X.T @ X, rtol=0, atol=1e-12 * n)
    assert_allclose(b, X.T @ y, rtol=0, atol=1e-12 * np.abs(y).sum())
    assert np.array_equal(gram, gram.T)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="long double is not wider than float64")
def test_normal_equations_within_rounding_of_extended_precision():
    # the basis of omega = 2*pi/P itself, with 2*pi and each phase in long
    # double; evaluating j*omega*k in float64 instead would be off by
    # about 5e-15 N in G and 2e-14 |y|_1 in b
    n, m, period = 4097, 64, 129
    y = np.random.default_rng(1).standard_normal(n)
    two_pi = 8 * np.arctan(np.longdouble(1))
    arg = two_pi * (np.outer(np.arange(1, m + 1), np.arange(1, n + 1)) % period) / period
    X = np.vstack([np.ones((1, n), dtype=np.longdouble), np.cos(arg), np.sin(arg)])
    gram, b = _normal_equations(y, period, m)
    assert np.abs(gram - X @ X.T).max() <= 1e-15 * n
    assert np.abs(b - X @ y).max() <= 1e-15 * np.abs(y).sum()


@pytest.mark.parametrize("n,t,m", [(4097, 129, 64), (12289, 3001, 64), (9000, 9000, 3)])
def test_blocked_fit_matches_lstsq_oracle(n, t, m):
    # long series with N not a multiple of P, and P = N; m up to 64
    y = synth_fgn(n, 0.7, seed=n).values
    model = fit_fourier(Series(y), max_terms=m, period=t)
    coef = np.linalg.lstsq(oracle_design(t, n, m), y, rcond=None)[0]
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
