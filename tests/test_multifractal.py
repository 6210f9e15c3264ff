import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from numpy.testing import assert_allclose

from fractamine.fourier_denoise import denoise
from fractamine.multifractal import (
    DEFAULT_MIN_SCALE,
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
    """Each width-s window's theta-weighted mean straight from its values,
    a dot product per window and no prefix sums; a window whose
    volatilities sum to 0 reads Y at its centre."""
    weights = sliding_window_view(theta.values, s)
    weight = weights.sum(axis=1)
    weighted = np.einsum("ij,ij->i", weights, sliding_window_view(y.values, s))
    centre = y.values[(s - 1) // 2 :][: weight.size]
    return np.divide(weighted, weight, out=centre.copy(), where=weight > 0)


def oracle_profile(s: Series, cfg: MfaConfig):
    """hurst_profile from the scalar parts: per-scale trends (for mf-dhv
    and fs-mfa weighted_trend_loop), a scalar fluctuation call per table
    cell and one np.polyfit per q."""
    scales = cfg.scales if cfg.scales is not None else default_scales(len(s))
    work = denoise(s)[0] if cfg.method == "fs-mfa" else s
    y = profile_series(work)
    per_scale = []
    for sc in (int(v) for v in scales):
        if cfg.method == "mf-dfa":
            per_scale.append(polynomial_detrend_variances(y, sc, cfg.dfa_poly_order))
        else:
            trend = weighted_trend_loop(y, historical_volatility(y, cfg.vol_window), sc)
            centre = y.values[(sc - 1) // 2 :][: trend.size]
            per_scale.append(window_variances(Series(trend - centre), sc))
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

    @pytest.mark.parametrize(
        "kwargs, smallest",
        [(dict(scales=[4, 8, 16, 32], dfa_poly_order=3), 4), (dict(dfa_poly_order=20), 16)],
        ids=["explicit-scales", "default-scales"],
    )
    def test_dfa_order_must_leave_a_residual(self, kwargs, smallest):
        # accepted, the smallest scale's fit failed and hurst_features gave
        # every document the all-0.5 vector
        order = kwargs["dfa_poly_order"]
        with pytest.raises(ValueError, match=rf"dfa_poly_order = {order} .* smallest scale {smallest}"):
            MfaConfig(method="mf-dfa", **kwargs)

    def test_dfa_order_at_the_limit_accepted(self):
        assert MfaConfig(method="mf-dfa", scales=[5, 8, 16, 32], dfa_poly_order=3).dfa_poly_order == 3
        # the volatility methods do not read the order
        assert MfaConfig(method="mf-dhv", scales=[4, 8], dfa_poly_order=20).dfa_poly_order == 20
        cfg = MfaConfig(method="mf-dfa", q_grid=[2.0], dfa_poly_order=DEFAULT_MIN_SCALE - 2)
        assert np.all(np.isfinite(hurst_profile(synth_fgn(1024, 0.7, seed=0), cfg).hurst))


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

    def test_fractional_window_refused_and_integral_float_accepted(self):
        # a float window failed in numpy with a TypeError naming no argument
        y = Series(np.random.default_rng(2).standard_normal(40))
        with pytest.raises(ValueError, match="window must be a whole number of at least 2, got 2.5"):
            historical_volatility(y, 2.5)
        assert np.array_equal(historical_volatility(y, 8.0).values, historical_volatility(y, 8).values)


class TestWeightedTrend:
    def test_uniform_weights_give_centred_moving_average(self):
        # equal volatilities leave the plain mean of each width-s window
        y = Series(np.arange(1.0, 25.0) ** 2)
        theta = Series(np.ones(24))
        trends = list(weighted_trend(y, theta, np.array([3, 4])))
        for s, trend in zip((3, 4), trends):
            assert trend.shape == (24 - s + 1,)
            assert_allclose(trend, sliding_window_view(y.values, s).mean(axis=1), rtol=1e-14)

    def test_weighted_mean_per_window(self):
        rng = np.random.default_rng(4)
        y = Series(rng.standard_normal(80))
        th = np.abs(rng.standard_normal(80))
        (trend,) = weighted_trend(y, Series(th), 5)
        for j in (0, 37, 75):
            k = slice(j, j + 5)
            assert_allclose(trend[j], np.dot(th[k], y.values[k]) / th[k].sum(), rtol=1e-13)

    def test_zero_volatility_window_reads_its_centre(self):
        # windows 8..11 of scale 4 hold only theta = 0: no weighted mean, so
        # the trend is Y at the centre j + 1 and the residual is exactly 0;
        # the windows that reach a positive theta average it alone
        y = Series(np.arange(1.0, 25.0) ** 2)
        th = np.ones(24)
        th[8:15] = 0.0
        with np.errstate(all="raise"):
            (trend,) = weighted_trend(y, Series(th), 4)
        assert np.array_equal(trend[8:12], y.values[9:13])
        assert trend[7] == y.values[7] and trend[12] == y.values[15]

    def test_yields_one_scale_at_a_time(self):
        y, theta = Series(np.arange(64.0)), Series(np.ones(64))
        trends = weighted_trend(y, theta, [4, 16, 8])
        assert [next(trends).size for _ in range(3)] == [61, 49, 57]
        assert next(trends, None) is None

    def test_constant_signal_constant_trend(self):
        y = Series(np.full(40, 7.0))
        theta = Series(np.ones(40))
        (trend,) = weighted_trend(y, theta, 4)
        assert_allclose(trend, 7.0, atol=1e-12)

    def test_trend_in_signal_hull(self):
        rng = np.random.default_rng(2)
        y = Series(rng.standard_normal(80))
        theta = Series(np.abs(rng.standard_normal(80)))
        (trend,) = weighted_trend(y, theta, 5)
        assert trend.max() <= y.values.max() + 1e-12
        assert trend.min() >= y.values.min() - 1e-12

    def test_length_guard(self):
        with pytest.raises(ValueError):
            weighted_trend(Series(np.arange(10.0)), Series(np.ones(10)), 3)

    def test_negative_volatility_rejected(self):
        with pytest.raises(ValueError):
            weighted_trend(Series(np.arange(20.0)), Series(np.full(20, -1.0)), 3)

    @pytest.mark.parametrize(
        "scales, named",
        [
            (np.array([0, 4]), "got 0"),  # the seed would be a 0/0 mean
            (-3, "got -3"),  # numpy's broadcast error, naming no scale
            (2.5, "got 2.5"),  # silently truncated to 2
            ([], "scales is empty"),  # max() of an empty sequence
        ],
    )
    def test_scale_below_one_or_fractional_refused(self, scales, named):
        y, theta = Series(np.arange(64.0)), Series(np.ones(64))
        with pytest.raises(ValueError, match=named):
            weighted_trend(y, theta, scales)

    def test_guard_uses_largest_scale(self):
        y, theta = Series(np.arange(64.0)), Series(np.ones(64))
        with pytest.raises(ValueError, match="4s = 68"):
            weighted_trend(y, theta, np.array([4, 17]))

    def test_volatility_sum_must_be_finite(self):
        y, theta = Series(np.arange(64.0)), Series(np.full(64, 1e307))
        with pytest.raises(ValueError, match="finite sum"):
            weighted_trend(y, theta, 4)


def trend_bound(y: Series) -> float:
    """Largest allowed |weighted_trend - weighted_trend_loop|.

    Every trend value is a weighted mean, so max|Y| bounds it. The loop's
    dot products add about sqrt(s) ulps of it and sqrt(N) >= 2 sqrt(s);
    the compensated window sums add a few. The sweeps below measure
    under 0.1 of this bound.
    """
    return 4 * np.sqrt(len(y)) * np.finfo(np.float64).eps * np.abs(y.values).max()


def walk_and_volatilities(n: int, seed: int, stretches: list) -> tuple[Series, Series]:
    """A random walk Y and |N(0, 1)| volatilities set to 0 over each
    stretch, given as (start, length) fractions of N."""
    rng = np.random.default_rng(seed)
    y = Series(np.cumsum(rng.standard_normal(n)))
    th = np.abs(rng.standard_normal(n))
    for start, length in stretches:
        th[int(start * n) : int((start + length) * n) + 1] = 0.0
    return y, Series(th)


def assert_trend_matches_loop(trend: np.ndarray, y: Series, theta: Series, s: int) -> int:
    """Within trend_bound of the loop, and bit-exact at Y's centre value
    wherever a window's volatilities sum to 0; returns how many do."""
    expected = weighted_trend_loop(y, theta, s)
    assert trend.shape == expected.shape, s
    assert np.max(np.abs(trend - expected)) <= trend_bound(y), s
    idle = sliding_window_view(theta.values, s).sum(axis=1) == 0
    centre = y.values[(s - 1) // 2 :][: idle.size]
    assert np.array_equal(trend[idle].view(np.uint64), centre[idle].view(np.uint64)), s
    return int(idle.sum())


class TestAllScaleSweep:
    @pytest.mark.parametrize("n", [768, 4096])
    @pytest.mark.parametrize("zero_stretch", [False, True])
    def test_within_tolerance_of_loop(self, n, zero_stretch):
        # a stretch of zeros longer than the largest scale n//4 gives
        # every scale windows whose volatilities sum to 0
        y, theta = walk_and_volatilities(n, n, [(0.25, 0.25 + 8 / n)] if zero_stretch else [])
        scales = default_scales(n)
        trends = list(weighted_trend(y, theta, scales))
        assert len(trends) == scales.size
        for trend, s in zip(trends, scales.tolist()):
            idle = assert_trend_matches_loop(trend, y, theta, s)
            assert idle > 0 if zero_stretch else idle == 0

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(64, 4096),
        seed=st.integers(0, 2**32 - 1),
        stretches=st.lists(st.tuples(st.floats(0, 1), st.floats(0, 0.5)), max_size=3),
        scale_picks=st.lists(st.floats(0, 1), min_size=1, max_size=5),
    )
    # scale 1, whose trend is Y itself wherever theta > 0, and the largest
    # scale N//4, across a stretch of zeros
    @example(n=70, seed=0, stretches=[(0.4, 0.3)], scale_picks=[0.0, 1.0])
    def test_property_against_loop(self, n, seed, stretches, scale_picks):
        y, theta = walk_and_volatilities(n, seed, stretches)
        scales = np.unique([1 + round(p * (n // 4 - 1)) for p in scale_picks])
        for trend, s in zip(weighted_trend(y, theta, scales), scales.tolist()):
            assert_trend_matches_loop(trend, y, theta, s)


class TestScaleIndependence:
    @pytest.mark.parametrize("n", [64, 257, 768, 1000, 1001, 8192, 65536])
    @pytest.mark.parametrize("zero_stretch", [False, True])
    def test_bit_identical_to_single_scale_calls(self, n, zero_stretch):
        # a scale's trend comes from the shared prefix sums alone, so the
        # other scales asked for, and their order, change none of its bits
        y, theta = walk_and_volatilities(n, n + zero_stretch, [(0.25, 0.25 + 8 / n)] if zero_stretch else [])
        scales = default_scales(n)
        swept = list(weighted_trend(y, theta, scales[::-1]))[::-1]
        for trend, s in zip(swept, scales.tolist()):
            (single,) = weighted_trend(y, theta, s)
            assert np.array_equal(single.view(np.uint64), trend.view(np.uint64)), s

    def test_absorbed_volatility_still_averages(self):
        # after a spike of 1e20 the plain cumsum of theta stops moving, so
        # its differences read 0 over windows of positive volatility; the
        # compensation row carries what it absorbed, and every such window
        # keeps its weighted mean (1.8e-13 of max|Y| from the loop, measured)
        n, at = 1001, 700
        y, theta = walk_and_volatilities(n, 5, [])
        th = theta.values
        th[at] = 1e20
        th[at + 1 :: 2] = 0.0
        plain = np.concatenate([[0.0], np.cumsum(th)])
        for s in (4, 100, 250):
            windows = np.arange(at + 1, n - s + 1)
            assert np.any(plain[windows + s] - plain[windows] == 0), s
            (trend,) = weighted_trend(y, theta, s)
            expected = weighted_trend_loop(y, theta, s)
            assert np.max(np.abs(trend - expected)) <= 1e-11 * np.abs(y.values).max(), s


class TestScaleSubsets:
    @pytest.mark.parametrize("n", [4096, 65536])
    @pytest.mark.parametrize("kind", ["fgn", "cascade"])
    @pytest.mark.parametrize("method", ["mf-dhv", "fs-mfa"])
    def test_subsets_move_no_scale(self, method, kind, n):
        # each column of the fluctuation table depends on its own scale
        # only: the even-, odd- and five-largest-scale runs match the
        # full run's columns bit for bit
        s = synth_fgn(n, 0.7, seed=3) if kind == "fgn" else synth_binomial_cascade(n.bit_length() - 1, 0.75)
        scales = default_scales(n)
        base = hurst_profile(s, MfaConfig(method=method)).table.values
        for part in (scales[::2], scales[1::2], scales[-5:]):
            got = hurst_profile(s, MfaConfig(method=method, scales=part)).table.values
            assert got.tobytes() == base[:, np.searchsorted(scales, part)].tobytes()


class TestMemory:
    def test_peak_memory(self):
        # the prefix sums and the per-scale scratch are a fixed number of
        # N-vectors (12 N floats measured, one trend held at a time), whatever
        # the scale count; one (N, S) buffer of these 40 scales would be 40 N
        n = 65536
        rng = np.random.default_rng(0)
        y = Series(np.cumsum(rng.standard_normal(n)))
        theta = Series(np.abs(rng.standard_normal(n)))
        scales = np.geomspace(DEFAULT_MIN_SCALE, n // 4, 40).astype(int)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            for _ in weighted_trend(y, theta, scales):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= 16 * n * 8

    @pytest.mark.parametrize("method", ["mf-dhv", "fs-mfa"])
    def test_hurst_profile_peak_memory(self, method):
        # weighted_trend yields one scale's trend at a time, so no (N, S)
        # buffer is alive; two of them would read about 2.0 N S 8 bytes
        n = 65536
        s = synth_fgn(n, 0.7, seed=3)
        scales = default_scales(n)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            hurst_profile(s, MfaConfig(method=method))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= 2.5 * n * scales.size * 8

    @pytest.mark.parametrize("count", [20, 40])
    @pytest.mark.parametrize("method", ["mf-dhv", "fs-mfa"])
    def test_peak_memory_does_not_grow_with_scales(self, method, count):
        # the trends come one scale at a time; only the window variances
        # and the fluctuation table's scratch grow with the scale count
        # (28.6 N values measured at 40 scales). Two (N, S) buffers alone
        # are 40 N at 20 scales, 80 at 40
        n = 65536
        s = synth_fgn(n, 0.7, seed=3)
        scales = np.geomspace(DEFAULT_MIN_SCALE, n // 4, count).astype(int)
        assert np.unique(scales).size == count
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            hurst_profile(s, MfaConfig(method=method, scales=scales.tolist()))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= 40 * n * 8


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

    Half the draws add a scale whose last window ends exactly at the last
    value: for mf-dhv one dividing N + 1, so it divides the N - s + 1
    residuals of the centred windows; for mf-dfa one dividing N.
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
    # N - s + 1 = 1024 - s is a multiple of every power of two s, so each
    # scale's last window ends at its last residual; the flat prefix drops
    # scales 4 and 8 and leaves zero windows at 64 and 128
    @example(case=(1023, "mf-dhv", np.array([4, 8, 64, 128]), 540, [], 0))
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


def test_compensated_sums_on_the_quietest_profile():
    # fs-mfa's denoised fGn profile is smooth, so at the smallest scales the
    # residual is tiny against Y and every window sum cancels most of its
    # digits. The oracle sums every window exactly (math.fsum). Compensated
    # prefix sums read 1.4e-11 in ln F here; plain cumsum differences read
    # 1.7e-5
    n = 65536
    s = synth_fgn(n, 0.7, seed=81)
    cfg = MfaConfig(method="fs-mfa")
    prof = hurst_profile(s, cfg)
    y = profile_series(denoise(s)[0]).values
    theta = historical_volatility(Series(y), cfg.vol_window).values
    weights, weighted = theta.tolist(), (theta * y).tolist()
    smallest = prof.table.scales[:3].tolist()
    variances = []
    for sc in smallest:
        c = (sc - 1) // 2
        residual = [
            math.fsum(weighted[j : j + sc]) / math.fsum(weights[j : j + sc]) - y[j + c]
            for j in range(n - sc + 1)
        ]
        variances.append(window_variances(np.array(residual), sc))
    exact = np.array([[fluctuation(v, float(q)) for v in variances] for q in cfg.q_grid])
    assert np.max(np.abs(np.log(prof.table.values[:, : len(smallest)]) - np.log(exact))) <= 1e-8


class TestWhatMfDhvEstimates:
    """mf-dhv is centred MF-DMA with theta weights. Every number quoted
    for the recursive trend it replaced comes from the same seeds."""

    @staticmethod
    def h2(series: Series) -> float:
        return float(hurst_profile(series, MfaConfig(method="mf-dhv", q_grid=np.array([2.0]))).hurst[0])

    @pytest.mark.parametrize("hurst", [0.3, 0.5, 0.8])
    def test_h2_on_fgn(self, hurst):
        # seeds 0-19 at N = 8192: means 0.303, 0.486 and 0.772, seed sd
        # 0.018, 0.023 and 0.029. The bound is the largest bias (0.028 at
        # H = 0.8) plus two standard errors of a 20-seed mean there
        # (2 x 0.029 / sqrt(20) = 0.013). The recursion read 0.292, 0.458
        # and 0.665: it compressed H to about 0.74 H + 0.07
        h = [self.h2(synth_fgn(8192, hurst, seed=k)) for k in range(20)]
        assert abs(np.mean(h) - hurst) <= 0.04

    def test_shuffled_fgn_reads_half(self):
        # shuffling removes the memory of fGn(0.8): seeds 0-19 read a mean of
        # 0.495, seed sd 0.032. The bound is that bias plus two standard
        # errors (2 x 0.032 / sqrt(20) = 0.014). The recursion read 0.457
        h = []
        for k in range(20):
            x = synth_fgn(8192, 0.8, seed=k).values.copy()
            np.random.default_rng(k).shuffle(x)
            h.append(self.h2(Series(x)))
        assert abs(np.mean(h) - 0.5) <= 0.02

    def test_cascade_response(self):
        # the closed form at q = -5, -2, 2, 5 is 1.54, 1.36, 0.89, 0.71. No
        # moving average reaches the negative-q exponents, and the theta
        # weights lower the q > 0 ones: unweighted centred windows read 0.81
        # and 0.64 there. The recursion read 0.984, 0.906, 0.735 and 0.600
        q = np.array([-5.0, -2.0, 2.0, 5.0])
        prof = hurst_profile(synth_binomial_cascade(16, 0.7), MfaConfig(method="mf-dhv", q_grid=q))
        assert_allclose(prof.hurst, [0.993, 0.989, 0.709, 0.516], rtol=0, atol=0.005)


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


@settings(max_examples=30, deadline=None)
@given(c=st.floats(min_value=-1e3, max_value=1e3), method=st.sampled_from(METHODS))
@example(c=1e3, method="fs-mfa")
@example(c=-1e3, method="fs-mfa")
def test_hurst_invariant_under_shift(c, method):
    cfg = MfaConfig(method=method)
    base = hurst_profile(SCALE_INVARIANCE_BASE, cfg)
    shifted = hurst_profile(Series(SCALE_INVARIANCE_BASE.values + c), cfg)
    assert np.all(np.isfinite(base.hurst))
    assert_allclose(shifted.hurst, base.hurst, rtol=0, atol=1e-9)


class TestWindowVariances:
    def test_partitions_and_mean_square(self):
        d = Series(np.array([1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 9.0]))
        v = window_variances(d, 2)
        assert_allclose(v, [1.0, 4.0, 9.0])  # trailing 9.0 dropped

    def test_exact_multiple(self):
        v = window_variances(Series(np.ones(12)), 3)
        assert v.shape == (4,)
        assert_allclose(v, 1.0)

    @pytest.mark.parametrize("s", [0, -1, 13])
    def test_window_outside_one_to_n_refused(self, s):
        # unchecked, 0 divides by zero and -1 fails in reshape, naming no window
        with pytest.raises(ValueError, match=f"got s = {s}"):
            window_variances(np.ones(12), s)

    def test_fractional_window_refused_and_integral_float_accepted(self):
        # a fractional window failed in numpy's slicing with a TypeError naming no argument
        with pytest.raises(ValueError, match="got s = 2.5"):
            window_variances(np.ones(12), 2.5)
        assert np.array_equal(window_variances(np.arange(12.0), 4.0), window_variances(np.arange(12.0), 4))


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

    def test_negative_order_refused(self):
        # unchecked, it indexes past the polynomial rows
        with pytest.raises(ValueError, match="got order = -1"):
            polynomial_detrend_variances(Series(np.arange(64.0)), 8, order=-1)

    @pytest.mark.parametrize("s, order, named", [(8.5, 1, "s = 8.5"), (8, 1.5, "order = 1.5")], ids=["s", "order"])
    def test_fractional_window_or_order_refused(self, s, order, named):
        # these failed in numpy with a TypeError naming no argument
        with pytest.raises(ValueError, match=named):
            polynomial_detrend_variances(Series(np.arange(64.0)), s, order)

    def test_integral_float_window_and_order_accepted(self):
        y = Series(np.random.default_rng(0).standard_normal(64).cumsum())
        assert np.array_equal(polynomial_detrend_variances(y, 8.0, 2.0), polynomial_detrend_variances(y, 8, 2))

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    @pytest.mark.parametrize("name", ["fgn", "cascade"])
    def test_matches_exact_rational_fit(self, long_profiles, name, order):
        # lstsq on the uncentred Vandermonde dropped a singular value at
        # order 3 and s = 16384: these windows' residual variances came
        # out 15% (fGn) and 280 times (cascade) too large
        y = long_profiles[name]
        scales = default_scales(len(y))
        for s in (int(scales[0]), int(scales[scales.size // 2]), int(scales[-1])):
            k = len(y) // s // 2
            got = polynomial_detrend_variances(y, s, order)[k]
            exact = exact_residual_variance(y.values[k * s : (k + 1) * s], order)
            assert abs(Fraction(got) - exact) <= 1e-10 * exact, (s, float(got), float(exact))


@pytest.fixture(scope="module")
def long_profiles():
    """Profiles of the N = 65536 series analyze-long reads."""
    return {
        "fgn": profile_series(synth_fgn(65536, 0.7, seed=3)),
        "cascade": profile_series(synth_binomial_cascade(16, 0.75)),
    }


def exact_residual_variance(window: np.ndarray, order: int) -> Fraction:
    """Mean squared residual of the least-squares polynomial of the given
    order on abscissa 0..s-1, by normal equations in exact rational
    arithmetic.

    Every float is an integer over a power of two, so the window scaled
    by its largest denominator is an integer vector Y. With
    G[i][j] = sum k^(i+j) and m[i] = sum k^i Y_k, the residual sum of
    squares is sum Y^2 - m.G^-1.m, exact, divided by the scale squared.
    """
    ratios = [v.as_integer_ratio() for v in window.tolist()]
    den = max(d for _, d in ratios)
    ys = [num * (den // d) for num, d in ratios]
    p = order + 1
    power_sums = [sum(k**e for k in range(len(ys))) for e in range(2 * p - 1)]
    moments = [Fraction(sum(k**i * yk for k, yk in enumerate(ys))) for i in range(p)]
    rows = [[Fraction(power_sums[i + j]) for j in range(p)] + [moments[i]] for i in range(p)]
    for col in range(p):  # G is positive definite: no pivoting needed
        for r in range(col + 1, p):
            f = rows[r][col] / rows[col][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    coef = [Fraction(0)] * p
    for r in reversed(range(p)):
        coef[r] = (rows[r][p] - sum(rows[r][j] * coef[j] for j in range(r + 1, p))) / rows[r][r]
    rss = sum(yk * yk for yk in ys) - sum(c * m for c, m in zip(coef, moments))
    return rss / (len(ys) * den * den)


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
            # a positive cascade has power above DC, though it never crosses zero
            ("cascade", synth_binomial_cascade(12, 0.75), "fs-mfa", False),
            # a constant has none, so denoise defaults its fundamental bin to 1
            ("flat", Series(np.full(4096, 2.5)), "fs-mfa", True),
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
