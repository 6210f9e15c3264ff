import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from fractamine.fourier_denoise import denoise
from fractamine.multifractal import (
    DEGENERATE_WINDOW_FRACTION,
    METHODS,
    MIN_FIT_SCALES,
    MfaConfig,
    default_q_grid,
    default_scales,
    fluctuation,
    historical_volatility,
    hurst_profile,
    polynomial_detrend_variances,
    profile_series,
    weighted_trend,
    window_variances,
)
from fractamine.series import Series, synth_binomial_cascade, synth_fgn, synth_gaussian_noise


def weighted_trend_loop(y: Series, theta: Series, s: int) -> np.ndarray:
    """The per-position recursion of weighted_trend, kept as its oracle."""
    yv, th = y.values, theta.values
    n = yv.size
    trend = np.empty(n)
    seed = yv[s - 1 : 2 * s - 1].mean()
    trend[: 2 * s - 1] = seed
    cumsum = np.concatenate([[0.0], np.cumsum(th)])
    prev = seed
    for i in range(2 * s - 1, n):
        w_prev = cumsum[i] - cumsum[i - s]
        w_cur = th[i]
        total = w_prev + w_cur
        if total > 0:
            prev = (w_prev * prev + w_cur * yv[i]) / total
        trend[i] = prev
    return trend


def detrend(y: Series, trend: Series, s: int) -> Series:
    """Residual trend - Y on the valid range [2s, N], length N-2s+1."""
    n = len(y)
    if len(trend) != n:
        raise ValueError("y and trend lengths differ")
    if n < 2 * s:
        raise ValueError(f"need N >= 2s = {2 * s}, got {n}")
    return Series(trend.values[2 * s - 1 :] - y.values[2 * s - 1 :])


def oracle_profile(s: Series, cfg: MfaConfig):
    """hurst_profile from the scalar parts: per-scale trends, a scalar
    fluctuation call per table cell and one np.polyfit per q."""
    scales = cfg.scales if cfg.scales is not None else default_scales(len(s))
    work = denoise(s)[0] if cfg.method == "fs-mfa" else s
    y = profile_series(work)
    per_scale = []
    for sc in (int(v) for v in scales):
        if cfg.method == "mf-dfa":
            per_scale.append(polynomial_detrend_variances(y, sc, cfg.dfa_poly_order))
        else:
            theta = historical_volatility(y, cfg.vol_window)
            trend = Series(weighted_trend_loop(y, theta, sc))
            per_scale.append(window_variances(detrend(y, trend, sc), sc))
    dropped = np.array([np.mean(v == 0) > DEGENERATE_WINDOW_FRACTION for v in per_scale])
    table = np.full((cfg.q_grid.size, scales.size), np.nan)
    for j, v in enumerate(per_scale):
        if dropped[j]:
            continue
        for i, q in enumerate(cfg.q_grid):
            table[i, j] = fluctuation(v if q > 0 else v[v > 0], float(q))
    fits = np.full((3, cfg.q_grid.size), np.nan)
    log_s = np.log(scales.astype(np.float64))
    for i, row in enumerate(table):
        ok = np.isfinite(row) & (row > 0)
        if ok.sum() < MIN_FIT_SCALES:
            continue
        x, logf = log_s[ok], np.log(row[ok])
        slope, intercept = np.polyfit(x, logf, 1)
        ss_res = np.sum((logf - (slope * x + intercept)) ** 2)
        ss_tot = np.sum((logf - logf.mean()) ** 2)
        fits[:, i] = slope, intercept, 1.0 if ss_tot == 0 else max(0.0, 1.0 - ss_res / ss_tot)
    return per_scale, dropped, table, fits


def zero_window_series(n: int = 4096, flat: int = 2400, seed: int = 0) -> Series:
    """Flat for `flat` samples, then a balanced +-1 walk.

    The steps are integers summing to 0, so the mean is exactly 0 and
    the profile is exactly 0 over the flat part: windows there have
    variance exactly 0 under both detrending schemes. Small scales
    lose more than half their windows to it and are dropped; scale 512
    keeps its zero windows.
    """
    steps = np.resize([1.0, -1.0], n - flat)
    np.random.default_rng(seed).shuffle(steps)
    return Series(np.concatenate([np.zeros(flat), steps]))


class TestConfig:
    def test_defaults(self):
        cfg = MfaConfig(method="mf-dfa")
        assert cfg.vol_window == 16
        assert cfg.dfa_poly_order == 1
        assert cfg.scales is None
        assert cfg.q_grid.size == 41

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            MfaConfig(method="mf-dxa")

    def test_q_grid_shape(self):
        q = default_q_grid()
        assert q[0] == -10 and q[-1] == 10
        assert np.any(q == 0)

    def test_default_scales_range(self):
        s = default_scales(8192)
        assert s[0] == 16
        assert s[-1] == 8192 // 4
        assert np.all(np.diff(s) > 0)

    def test_default_scales_short_series(self):
        with pytest.raises(ValueError):
            default_scales(32)  # hi = 8 < lo

    def test_empty_scales_refused(self):
        # accepted, it would give every hurst_features entry the 0.5 fallback
        with pytest.raises(ValueError, match="scales must be a nonempty"):
            MfaConfig(scales=[])

    @pytest.mark.parametrize("scales", [[16.7, 32.2], [16, 32.5], [16, np.nan]])
    def test_non_integer_scales_refused(self, scales):
        # truncating [16.7, 32.2] to [16, 32] would run other windows than asked
        with pytest.raises(ValueError, match="scales must be integers"):
            MfaConfig(scales=scales)

    @pytest.mark.parametrize(
        "q,message",
        [
            ([np.nan, 1.0, 2.0], "q_grid must be finite"),
            ([np.inf, 1.0, 2.0], "q_grid must be finite"),
            ([[1.0, 2.0], [3.0, 4.0]], "q_grid must be nonempty and 1-D"),
            (2.0, "q_grid must be nonempty and 1-D"),
        ],
        ids=["nan", "inf", "2-d", "scalar"],
    )
    def test_bad_q_grid_refused(self, q, message):
        # a NaN order left its row of the fluctuation table unwritten, and
        # an infinite one gave a silent None slope
        with pytest.raises(ValueError, match=message):
            MfaConfig(q_grid=q)

    @pytest.mark.parametrize("name", ["vol_window", "dfa_poly_order"])
    @pytest.mark.parametrize("value", [8.0, 1.5, True])
    def test_counts_must_be_integers(self, name, value):
        # dfa_poly_order=1.5 used to fail inside np.vander, vol_window=8.0 to run
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            MfaConfig(**{name: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = MfaConfig(vol_window=np.int64(8), dfa_poly_order=np.int64(2))
        assert (cfg.vol_window, cfg.dfa_poly_order) == (8, 2)

    def test_integral_float_scales_accepted(self):
        cfg = MfaConfig(scales=[16.0, 32.0])
        assert cfg.scales.dtype == np.int64
        assert cfg.scales.tolist() == [16, 32]


class TestProfile:
    def test_cumsum_of_deviations(self):
        s = Series(np.array([1.0, 2.0, 3.0, 6.0]))
        prof = profile_series(s)
        assert_allclose(prof.values, np.cumsum(s.values - 3.0))

    def test_last_value_is_zero(self):
        rng = np.random.default_rng(4)
        prof = profile_series(Series(rng.standard_normal(100)))
        assert_allclose(prof.values[-1], 0.0, atol=1e-10)


class TestHistoricalVolatility:
    def test_constant_series_zero_vol(self):
        theta = historical_volatility(Series(np.full(40, 2.0)), window=8)
        assert_allclose(theta.values, 0.0, atol=1e-14)

    def test_known_window(self):
        # alternating +-1 differences have population std 1 in any window
        y = np.cumsum(np.resize([1.0, -1.0], 30))
        theta = historical_volatility(Series(np.concatenate([[0.0], y[:-1]])), window=4)
        assert_allclose(theta.values[5:], 1.0, atol=1e-12)

    def test_early_positions_backfilled(self):
        rng = np.random.default_rng(1)
        theta = historical_volatility(Series(rng.standard_normal(64)), window=16)
        assert len(theta) == 64
        assert_allclose(theta.values[:16], theta.values[16], atol=1e-14)

    def test_length_guard(self):
        with pytest.raises(ValueError):
            historical_volatility(Series(np.arange(10.0)), window=16)


class TestWeightedTrend:
    def test_uniform_weights_track_running_blend(self):
        # with equal volatilities the recursion blends s-to-1 against the
        # newest sample
        y = Series(np.arange(1.0, 25.0))
        theta = Series(np.ones(24))
        s = 3
        trend = weighted_trend(y, theta, s)
        seed = np.mean([3.0, 4.0, 5.0])  # positions s..2s-1
        assert_allclose(trend.values[: 2 * s - 1], seed)
        expected = seed
        for i in range(2 * s - 1, 24):
            expected = (s * expected + y.values[i]) / (s + 1)
            assert_allclose(trend.values[i], expected, rtol=1e-12)

    def test_zero_volatility_carries(self):
        y = Series(np.arange(1.0, 25.0))
        theta = Series(np.zeros(24))
        trend = weighted_trend(y, theta, 3)
        assert_allclose(trend.values, trend.values[0])

    def test_constant_signal_constant_trend(self):
        y = Series(np.full(40, 7.0))
        theta = Series(np.ones(40))
        trend = weighted_trend(y, theta, 4)
        assert_allclose(trend.values, 7.0, atol=1e-12)

    def test_trend_in_signal_hull(self):
        rng = np.random.default_rng(2)
        y = Series(rng.standard_normal(80))
        theta = Series(np.abs(rng.standard_normal(80)))
        trend = weighted_trend(y, theta, 5)
        assert trend.values.max() <= y.values.max() + 1e-12
        assert trend.values.min() >= y.values.min() - 1e-12

    def test_length_guard(self):
        with pytest.raises(ValueError):
            weighted_trend(Series(np.arange(10.0)), Series(np.ones(10)), 3)

    def test_negative_volatility_rejected(self):
        with pytest.raises(ValueError):
            weighted_trend(Series(np.arange(20.0)), Series(np.full(20, -1.0)), 3)


def trend_bound(y: Series) -> float:
    """Largest allowed |weighted_trend - weighted_trend_loop|.

    The scan composes about 2 sqrt(N) affine maps on the way to any
    position (within its block, then across blocks), and each step adds
    a few ulps relative to max|Y|, which bounds every trend value.
    """
    return 4 * np.sqrt(len(y)) * np.finfo(np.float64).eps * np.abs(y.values).max()


def carried_positions(theta: Series, s: int) -> np.ndarray:
    """Positions from the seed on where the loop's total volatility is 0."""
    th = theta.values
    cumsum = np.concatenate([[0.0], np.cumsum(th)])
    i = np.arange(2 * s - 1, th.size)
    return i[~(cumsum[i] - cumsum[i - s] + th[i] > 0)]


def assert_trend_matches_loop(trend: np.ndarray, y: Series, theta: Series, s: int):
    expected = weighted_trend_loop(y, theta, s)
    assert np.max(np.abs(trend - expected)) <= trend_bound(y), s
    # exact wherever the value is copied rather than computed
    bits = trend.view(np.uint64)
    assert np.all(bits[: 2 * s - 1] == expected[:1].view(np.uint64)), s
    carried = carried_positions(theta, s)
    assert np.array_equal(bits[carried], bits[carried - 1]), s
    return carried


class TestAllScaleSweep:
    @pytest.mark.parametrize("n", [768, 4096])
    @pytest.mark.parametrize("zero_stretch", [False, True])
    def test_within_tolerance_of_loop(self, n, zero_stretch):
        rng = np.random.default_rng(n)
        y = Series(np.cumsum(rng.standard_normal(n)))
        th = np.abs(rng.standard_normal(n))
        if zero_stretch:
            # longer than the largest scale n//4, so every scale meets
            # total == 0 and carries its previous value
            th[n // 4 : n // 2 + 8] = 0.0
        theta = Series(th)
        scales = default_scales(n)
        trends = weighted_trend(y, theta, scales)
        assert trends.shape == (n, scales.size)
        for j, s in enumerate(scales):
            carried = assert_trend_matches_loop(trends[:, j], y, theta, int(s))
            assert carried.size > 0 if zero_stretch else carried.size == 0
        for s in (int(scales[0]), int(scales[-1])):
            assert_trend_matches_loop(weighted_trend(y, theta, s).values, y, theta, s)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(64, 4096),
        seed=st.integers(0, 2**32 - 1),
        stretches=st.lists(st.tuples(st.floats(0, 1), st.floats(0, 0.5)), max_size=3),
        scale_picks=st.lists(st.floats(0, 1), min_size=1, max_size=5),
    )
    # N - 1 = 69 rows: 8 blocks of 8 and a tail of 5 on the plain recurrence
    @example(n=70, seed=0, stretches=[(0.4, 0.3)], scale_picks=[0.0, 1.0])
    # N - 1 = 729 rows: 27 blocks of 27 and no tail
    @example(n=730, seed=1, stretches=[(0.2, 0.1)], scale_picks=[0.0, 0.5, 1.0])
    def test_property_against_loop(self, n, seed, stretches, scale_picks):
        rng = np.random.default_rng(seed)
        y = Series(np.cumsum(rng.standard_normal(n)))
        th = np.abs(rng.standard_normal(n))
        for start, length in stretches:
            th[int(start * n) : int((start + length) * n) + 1] = 0.0
        theta = Series(th)
        scales = np.unique([2 + round(p * (n // 4 - 2)) for p in scale_picks])
        trends = weighted_trend(y, theta, scales)
        for j, s in enumerate(scales):
            assert_trend_matches_loop(trends[:, j], y, theta, int(s))

    def test_guard_uses_largest_scale(self):
        y, theta = Series(np.arange(64.0)), Series(np.ones(64))
        with pytest.raises(ValueError, match="4s = 68"):
            weighted_trend(y, theta, np.array([4, 17]))


def stretchy_series(n: int, flat: int, gaps: list, seed: int) -> Series:
    """Zero for the first `flat` samples and over each gap, balanced +-1
    steps elsewhere.

    Each run of steps sums to 0 (an odd run ends on a 0), so the mean is
    exactly 0 and the profile is exactly 0 over the flat prefix and every
    gap. Windows inside the prefix have variance exactly 0 under both
    detrending schemes, and mf-dfa windows inside a gap do too.
    """
    steps = np.zeros(n, dtype=bool)
    steps[flat:] = True
    for start, length in gaps:
        steps[int(start * n) : int((start + length) * n)] = False
    edges = np.flatnonzero(np.diff(np.concatenate([[0], steps.astype(np.int8), [0]])))
    x = np.zeros(n)
    rng = np.random.default_rng(seed)
    for a, b in zip(edges[::2], edges[1::2]):
        run = np.resize([1.0, -1.0], (b - a) // 2 * 2)
        rng.shuffle(run)
        x[a : a + run.size] = run
    return Series(x)


@st.composite
def table_cases(draw):
    """(N, method, scales, flat, gaps, seed) with N >= 4*max(scales).

    Half the draws add a scale whose last window ends exactly at N: for
    mf-dhv one dividing N + 1, so it divides the N - 2s + 1 rows detrend
    keeps; for mf-dfa one dividing N.
    """
    n = draw(st.integers(64, 4096))
    method = draw(st.sampled_from(("mf-dhv", "mf-dfa")))
    hi = n // 4
    picks = draw(st.lists(st.integers(4, hi), min_size=1, max_size=6))
    end = n + 1 if method == "mf-dhv" else n
    aligned = [d for d in range(4, hi + 1) if end % d == 0]
    if aligned and draw(st.booleans()):
        picks.append(draw(st.sampled_from(aligned)))
    flat = draw(st.integers(0, n))
    gaps = draw(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 0.3)), max_size=3))
    return n, method, np.unique(picks), flat, gaps, draw(st.integers(0, 2**32 - 1))


class TestTableAndFitsAgainstOracle:
    CASES = [
        ("fgn", synth_fgn(4096, 0.7, seed=1), METHODS),
        ("cascade", synth_binomial_cascade(12, 0.75), METHODS),
        ("zero-windows", zero_window_series(), ("mf-dhv", "mf-dfa")),
    ]

    @staticmethod
    def assert_matches_oracle(series, cfg):
        prof = hurst_profile(series, cfg)
        _, dropped, table, fits = oracle_profile(series, cfg)
        assert np.array_equal(prof.degenerate_scales, prof.table.scales[dropped])
        assert np.array_equal(np.isnan(prof.table.values), np.isnan(table))
        assert_allclose(prof.table.values, table, rtol=1e-12, atol=0)
        # H, intercept and R^2 are of unit scale; near zero a value has
        # no relative precision to keep, hence the matching atol
        for got, want in zip((prof.hurst, prof.intercept, prof.r_squared), fits):
            assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize(
        "series,method",
        [pytest.param(s, m, id=f"{name}-{m}") for name, s, methods in CASES for m in methods],
    )
    def test_matches_scalar_oracle(self, series, method):
        self.assert_matches_oracle(series, MfaConfig(method=method))

    @settings(max_examples=60, deadline=None)
    @given(case=table_cases())
    # N - 2s + 1 = 1024 - 2s is a multiple of every power of two s, so each
    # scale's last window ends at N, the last scale's at the end of the
    # one-pass buffer; the flat prefix drops scales 4 and 8 and leaves
    # zero windows at 64 and 128
    @example(case=(1023, "mf-dhv", np.array([4, 8, 64, 128]), 600, [], 0))
    # 31 and 33 divide N = 1023, so their last mf-dfa window ends at N;
    # the prefix and the gap zero 101 of scale 4's 255 windows
    @example(case=(1023, "mf-dfa", np.array([4, 31, 33, 255]), 200, [(0.5, 0.2)], 0))
    def test_property_against_scalar_oracle(self, case):
        n, method, scales, flat, gaps, seed = case
        series = stretchy_series(n, flat, gaps, seed)
        self.assert_matches_oracle(series, MfaConfig(method=method, scales=scales))

    @pytest.mark.parametrize("method", ["mf-dhv", "mf-dfa"])
    def test_zero_window_series_exercises_both_rules(self, method):
        per_scale, dropped, table, _ = oracle_profile(zero_window_series(), MfaConfig(method=method))
        assert dropped.any() and not dropped.all()
        assert any(np.any(v == 0) for v, d in zip(per_scale, dropped) if not d)
        assert np.all(np.isfinite(table[:, ~dropped]))


SCALE_INVARIANCE_BASE = synth_fgn(1024, 0.7, seed=11)


# c is log-uniform over [1e-100, 1e100]: the table is built in the log
# domain, so (sigma^2)^(q/2) at |q| = 10 neither overflows nor underflows
@settings(max_examples=30, deadline=None)
@given(exponent=st.floats(min_value=-100, max_value=100), method=st.sampled_from(METHODS))
@example(exponent=-100.0, method="mf-dhv")
@example(exponent=100.0, method="mf-dfa")
def test_hurst_invariant_under_scaling(exponent, method):
    cfg = MfaConfig(method=method)
    base = hurst_profile(SCALE_INVARIANCE_BASE, cfg)
    scaled = hurst_profile(Series(10.0**exponent * SCALE_INVARIANCE_BASE.values), cfg)
    assert np.all(np.isfinite(base.hurst))
    assert np.array_equal(np.isnan(scaled.hurst), np.isnan(base.hurst))
    assert_allclose(scaled.hurst, base.hurst, rtol=0, atol=1e-9)


# fs-mfa is left out: its denoiser counts sign changes of the raw series,
# so a shift moves its H (by 0.24 for x + 0.5 on fGn(4096, H=0.7)), and
# whether that is kept is still open
@settings(max_examples=30, deadline=None)
@given(c=st.floats(min_value=-1e3, max_value=1e3), method=st.sampled_from(("mf-dhv", "mf-dfa")))
def test_hurst_invariant_under_shift(c, method):
    cfg = MfaConfig(method=method)
    base = hurst_profile(SCALE_INVARIANCE_BASE, cfg)
    shifted = hurst_profile(Series(SCALE_INVARIANCE_BASE.values + c), cfg)
    assert np.all(np.isfinite(base.hurst))
    assert_allclose(shifted.hurst, base.hurst, rtol=0, atol=1e-9)


class TestDetrend:
    def test_valid_range_and_sign(self):
        y = Series(np.arange(1.0, 21.0))
        trend = Series(np.arange(1.0, 21.0) + 2.0)
        d = detrend(y, trend, s=4)
        assert len(d) == 20 - 2 * 4 + 1
        assert_allclose(d.values, 2.0)


class TestWindowVariances:
    def test_partitions_and_mean_square(self):
        d = Series(np.array([1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 9.0]))
        v = window_variances(d, 2)
        assert_allclose(v, [1.0, 4.0, 9.0])  # trailing 9.0 dropped

    def test_exact_multiple(self):
        v = window_variances(Series(np.ones(12)), 3)
        assert v.shape == (4,)
        assert_allclose(v, 1.0)


class TestFluctuation:
    def test_q2_is_rms(self):
        v = np.array([1.0, 4.0, 9.0])
        assert_allclose(fluctuation(v, 2.0), np.sqrt(v.mean()))

    def test_q0_geometric_limit(self):
        v = np.array([1.0, 4.0, 16.0])
        assert_allclose(fluctuation(v, 0.0), np.exp(np.mean(np.log(v)) / 2))

    def test_continuity_at_zero(self):
        rng = np.random.default_rng(3)
        v = rng.uniform(0.5, 2.0, size=64)
        f0 = fluctuation(v, 0.0)
        assert abs(fluctuation(v, 1e-6) - f0) / f0 < 1e-5
        assert abs(fluctuation(v, -1e-6) - f0) / f0 < 1e-5

    def test_nondecreasing_in_q(self):
        rng = np.random.default_rng(5)
        v = rng.uniform(0.1, 5.0, size=32)
        qs = np.linspace(-10, 10, 41)
        fs = [fluctuation(v, q) for q in qs]
        assert all(b >= a - 1e-12 for a, b in zip(fs, fs[1:]))

    def test_zero_variance_degenerate_for_nonpositive_q(self):
        v = np.array([0.0, 1.0, 2.0])
        assert np.isnan(fluctuation(v, 0.0))
        assert np.isnan(fluctuation(v, -2.0))
        assert np.isfinite(fluctuation(v, 2.0))

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            fluctuation(np.array([-1.0, 1.0]), 2.0)


class TestPolynomialDetrend:
    def test_linear_trend_removed_exactly(self):
        y = Series(3.0 * np.arange(64.0) + 5.0)
        v = polynomial_detrend_variances(y, 8, order=1)
        assert_allclose(v, 0.0, atol=1e-18)

    def test_quadratic_needs_order_two(self):
        y = Series(np.arange(64.0) ** 2)
        v1 = polynomial_detrend_variances(y, 16, order=1)
        v2 = polynomial_detrend_variances(y, 16, order=2)
        assert np.all(v1 > 1.0)
        assert_allclose(v2, 0.0, atol=1e-10)

    def test_scale_must_exceed_order(self):
        with pytest.raises(ValueError):
            polynomial_detrend_variances(Series(np.arange(64.0)), 2, order=1)


class TestHurstProfile:
    def test_white_noise_h2_near_half(self):
        cfg = MfaConfig(method="mf-dfa", q_grid=np.array([2.0]))
        prof = hurst_profile(synth_gaussian_noise(8192, 0), cfg)
        assert 0.4 < prof.hurst[0] < 0.6
        assert prof.r_squared[0] > 0.98

    def test_all_methods_produce_finite_h2(self):
        s = synth_fgn(4096, 0.6, seed=2)
        for method in METHODS:
            cfg = MfaConfig(method=method, q_grid=np.array([2.0]))
            prof = hurst_profile(s, cfg)
            assert np.isfinite(prof.hurst[0]), method

    def test_affine_scale_invariance(self):
        # H is a scaling exponent: rescaling the signal must not move it
        s = synth_fgn(2048, 0.7, seed=3)
        cfg = MfaConfig(method="mf-dfa", q_grid=np.array([-2.0, 2.0]))
        a = hurst_profile(s, cfg)
        b = hurst_profile(Series(5.0 * s.values), cfg)
        assert_allclose(a.hurst, b.hurst, atol=1e-10)

    def test_nondecreasing_fluctuation_rows(self):
        s = synth_fgn(4096, 0.7, seed=1)
        cfg = MfaConfig(method="mf-dfa", q_grid=np.linspace(-5, 5, 11))
        prof = hurst_profile(s, cfg)
        table = prof.table.values  # rows q, columns scales
        for col in range(table.shape[1]):
            column = table[:, col]
            finite = column[np.isfinite(column)]
            assert np.all(np.diff(finite) >= -1e-10)

    def test_too_few_scales_gives_nan(self):
        s = synth_gaussian_noise(256, 0)
        cfg = MfaConfig(
            method="mf-dfa", q_grid=np.array([2.0]), scales=np.array([16, 32, 64])
        )
        prof = hurst_profile(s, cfg)
        assert np.isnan(prof.hurst[0])

    def test_json_round_trip_schema(self):
        s = synth_gaussian_noise(1024, 1)
        cfg = MfaConfig(method="mf-dfa", q_grid=np.array([-2.0, 0.0, 2.0]))
        payload = json.loads(json.dumps(hurst_profile(s, cfg).to_json_dict()))
        assert payload["method"] == "mf-dfa"
        assert payload["q"] == [-2.0, 0.0, 2.0]
        assert len(payload["H"]) == 3
        assert len(payload["logF"]) == 3
        assert len(payload["logF"][0]) == len(payload["scales"])
        assert payload["failed_fits"] == 0

    def test_json_counts_failed_fits(self):
        # three scales are fewer than MIN_FIT_SCALES, so every q fails
        cfg = MfaConfig(method="mf-dfa", q_grid=np.array([-2.0, 2.0]), scales=np.array([16, 32, 64]))
        payload = json.loads(json.dumps(hurst_profile(synth_gaussian_noise(256, 0), cfg).to_json_dict()))
        assert payload["H"] == [None, None]
        assert payload["failed_fits"] == 2

    @pytest.mark.parametrize(
        "name, series, method, want",
        [
            # a positive cascade never crosses zero, so denoise falls back to P = N
            ("cascade", synth_binomial_cascade(12, 0.75), "fs-mfa", True),
            ("fgn", synth_fgn(4096, 0.7, seed=1), "fs-mfa", False),
            ("fgn", synth_fgn(4096, 0.7, seed=1), "mf-dhv", None),
            ("cascade", synth_binomial_cascade(12, 0.75), "mf-dfa", None),
        ],
    )
    def test_json_records_omega_fallback(self, name, series, method, want):
        cfg = MfaConfig(method=method, q_grid=np.array([2.0]))
        payload = json.loads(json.dumps(hurst_profile(series, cfg).to_json_dict()))
        assert payload["omega_fallback"] is want

    def test_fs_mfa_equals_dhv_after_denoise(self):
        # the composed method is exactly: denoise, then the volatility
        # pipeline on the cleaned signal
        from fractamine.fourier_denoise import denoise

        s = synth_fgn(2048, 0.6, seed=7)
        q = np.array([2.0])
        fs = hurst_profile(s, MfaConfig(method="fs-mfa", q_grid=q))
        den, _, _ = denoise(s)
        dhv = hurst_profile(den, MfaConfig(method="mf-dhv", q_grid=q))
        assert_allclose(fs.hurst, dhv.hurst, atol=1e-12)

    def test_degenerate_scales_reported(self):
        # a constant input zeroes the whole volatility pipeline: every
        # window variance is exactly 0, every scale is dropped, H is NaN
        scales = np.array([16, 32, 64, 128, 256])
        prof = hurst_profile(
            Series(np.full(1024, 3.0)),
            MfaConfig(method="mf-dhv", q_grid=np.array([-2.0, 2.0]), scales=scales),
        )
        assert np.array_equal(prof.degenerate_scales, scales)
        assert np.all(np.isnan(prof.hurst))
