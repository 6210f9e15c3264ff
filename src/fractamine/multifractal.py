"""Generalized Hurst exponent estimation on three method variants.

mf-dhv: profile, historical-volatility weighted trend, windowed
variances of the detrended residual, q-order fluctuation function,
log-log slope per q. fs-mfa: the same pipeline after Fourier
denoising. mf-dfa: classic per-window polynomial detrending of the
profile as the baseline.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fourier_denoise import FourierModel, denoise
from .series import Series, check_count

__all__ = [
    "MfaConfig",
    "FluctuationTable",
    "HurstProfile",
    "profile_series",
    "historical_volatility",
    "weighted_trend",
    "window_variances",
    "fluctuation",
    "polynomial_detrend_variances",
    "hurst_profile",
    "default_q_grid",
    "default_scales",
    "log_spaced_scales",
]

METHODS = ("fs-mfa", "mf-dhv", "mf-dfa")

# a scale whose zero-variance windows exceed this fraction is dropped
DEGENERATE_WINDOW_FRACTION = 0.5

MIN_FIT_SCALES = 4

# default_scales: this many log-spaced window sizes from this smallest one
DEFAULT_MIN_SCALE = 16
DEFAULT_SCALE_COUNT = 20


def default_q_grid() -> np.ndarray:
    """41 moment orders from -10 to 10 in steps of 0.5."""
    return np.linspace(-10.0, 10.0, 41)


def log_spaced_scales(lo: int, hi: int, count: int) -> np.ndarray:
    """count log-spaced points in [lo, hi], rounded to integers and deduplicated."""
    raw = np.exp(np.linspace(np.log(lo), np.log(hi), count))
    return np.unique(np.round(raw).astype(np.int64))


def default_scales(n: int) -> np.ndarray:
    """DEFAULT_SCALE_COUNT log-spaced integer window sizes in
    [DEFAULT_MIN_SCALE, n//4], deduplicated."""
    lo, hi = DEFAULT_MIN_SCALE, n // 4
    if hi < lo:
        raise ValueError(f"series too short for scale range [{lo}, N/4]: N = {n}")
    return log_spaced_scales(lo, hi, DEFAULT_SCALE_COUNT)


@dataclass(frozen=True)
class MfaConfig:
    method: str = "mf-dfa"
    q_grid: np.ndarray = field(default_factory=default_q_grid)
    scales: np.ndarray | None = None  # None defers to default_scales(N)
    vol_window: int = 16
    dfa_poly_order: int = 1

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        q = np.asarray(self.q_grid, dtype=np.float64)
        if q.ndim != 1 or q.size == 0:
            raise ValueError(f"q_grid must be nonempty and 1-D, got shape {q.shape}")
        if not np.all(np.isfinite(q)):
            raise ValueError(f"q_grid must be finite, got {q.tolist()}")
        object.__setattr__(self, "q_grid", q)
        if self.scales is not None:
            raw = np.asarray(self.scales)
            if raw.ndim != 1 or raw.size == 0:
                raise ValueError("scales must be a nonempty list of window sizes")
            if not np.all(np.isfinite(raw) & (raw == np.round(raw))):
                raise ValueError(f"scales must be integers, got {raw.tolist()}")
            s = raw.astype(np.int64)
            if np.any(np.diff(s) <= 0):
                raise ValueError("scales must be strictly increasing")
            if np.any(s < 4):
                raise ValueError("every scale must be at least 4")
            object.__setattr__(self, "scales", s)
        check_count("vol_window", self.vol_window, 2)
        check_count("dfa_poly_order", self.dfa_poly_order, 0)


@dataclass(frozen=True)
class FluctuationTable:
    """F_q(s) on the (q, scale) grid; NaN marks a degenerate cell."""

    q_grid: np.ndarray
    scales: np.ndarray
    values: np.ndarray  # shape (len(q_grid), len(scales))

    def __post_init__(self):
        if self.values.shape != (len(self.q_grid), len(self.scales)):
            raise ValueError("fluctuation table shape does not match its axes")


@dataclass(frozen=True)
class HurstProfile:
    """Per-q slope fits of ln F_q(s) on ln s, with the source table.

    to_json_dict() gives the hurst.json payload, non-finite values as
    None; the CLI's writer adds format_version.
    """

    method: str
    q_grid: np.ndarray
    hurst: np.ndarray
    intercept: np.ndarray
    r_squared: np.ndarray
    table: FluctuationTable
    degenerate_scales: np.ndarray
    config: MfaConfig
    # fs-mfa only: the (series, model, r) that denoise returned
    denoised: tuple[Series, FourierModel, int] | None = None

    def to_json_dict(self) -> dict:
        with np.errstate(divide="ignore", invalid="ignore"):
            logf = np.where(self.table.values > 0, np.log(self.table.values), np.nan)

        def listify(arr):
            return [None if not np.isfinite(v) else float(v) for v in arr]

        return {
            "method": self.method,
            "q": [float(q) for q in self.q_grid],
            "H": listify(self.hurst),
            "r2": listify(self.r_squared),
            "scales": [int(s) for s in self.table.scales],
            "logF": [listify(row) for row in logf],
            "degenerate_scales": [int(s) for s in self.degenerate_scales],
            "failed_fits": int(np.sum(~np.isfinite(self.hurst))),
            "omega_fallback": self.omega_fallback(),
        }

    def omega_fallback(self) -> bool | None:
        """fs-mfa: whether denoise fell back to the basis period P = N
        (fewer than three sign changes), which it marks by setting omega
        to exactly 2*pi/N; None for the other methods."""
        if self.denoised is None:
            return None
        model = self.denoised[1]
        return bool(model.omega == 2.0 * np.pi / model.n_samples)


def profile_series(s: Series) -> Series:
    """Cumulative sum of deviations from the mean."""
    if len(s) < 2:
        raise ValueError("need at least 2 samples to build a profile")
    return Series(np.cumsum(s.values - s.values.mean()))


def historical_volatility(y: Series, window: int) -> Series:
    """Trailing population std of first differences.

    theta_i covers the `window` differences ending at position i, so it
    is defined from position window+1 onward (1-based); earlier
    positions carry the first defined value so downstream weights are
    total.
    """
    n = len(y)
    if window < 2:
        raise ValueError("window must be at least 2")
    if n <= window:
        raise ValueError(f"need more than window = {window} samples, got {n}")
    diffs = np.diff(y.values)
    windows = sliding_window_view(diffs, window)
    vol = windows.std(axis=1)
    theta = np.empty(n)
    theta[window:] = vol
    theta[:window] = vol[0]
    return Series(theta)


def weighted_trend(y: Series, theta: Series, s: int | np.ndarray) -> Series | np.ndarray:
    """Volatility-weighted recursive trend.

    Seeded at position 2s-1 with the mean of Y over [s, 2s-1]; from
    position 2s on, the trend is the convex combination
    (sum of the previous s volatilities) * previous + theta_i * Y_i,
    normalized by their total. Zero total volatility carries the
    previous value. Positions before the seed hold the seed value so
    the output aligns with Y.

    An int s gives that scale's trend as a Series. An array of scales
    gives every scale's trend as the columns of an (N, len(s)) array.
    Both run one scan over positions, vectorized over scales, of the
    affine maps prev -> a_i * prev + c_i with a_i = w_prev / total and
    c_i = theta_i * Y_i / total (a_i = 1 and c_i = 0 where the value is
    carried). Affine maps compose associatively, so the N-1 rows after
    the seed row are cut into about sqrt(N) blocks of L = isqrt(N-1)
    rows: one pass composes the maps inside every block at once (L-1
    steps for the offsets, one multiply.accumulate for the prefix
    products), a second carries the start value from block to block
    through the block-end maps only, as S-vectors, and then two
    broadcast operations apply every block's start value to all its
    rows; the fewer than L rows left over run the plain recurrence. That
    is about 2 sqrt(N) vectorized steps in place of N scalar ones, all
    in place in the a and c buffers. The broadcast carry does the same
    two roundings per value as applying the start value block by block,
    so it is bit-identical to that loop.

    Composing reorders the rounding, so the result is not bit-identical
    to the per-position recursion: each of the about 2 sqrt(N) steps on
    a path adds a few ulps of max|Y|, and the tests bound the difference
    by 4 sqrt(N) eps max|Y|. Positions before the seed equal the seed,
    and a carried position equals its predecessor, exactly.
    """
    n = len(y)
    if len(theta) != n:
        raise ValueError("y and theta lengths differ")
    scales = np.atleast_1d(np.asarray(s, dtype=np.int64))
    max_scale = int(scales.max())
    if n < 4 * max_scale:
        raise ValueError(f"need N >= 4s = {4 * max_scale}, got {n}")
    yv = y.values
    th = theta.values
    if np.any(th < 0):
        raise ValueError("volatilities must be nonnegative")
    pos = np.arange(n)[:, None]
    cumsum = np.concatenate([[0.0], np.cumsum(th)])
    w_prev = np.empty((n, scales.size))  # cumsum[i] - cumsum[max(i - s, 0)]
    for col, sc in zip(w_prev.T, scales):
        col[:sc] = cumsum[:sc]
        np.subtract(cumsum[sc:n], cumsum[: n - sc], out=col[sc:])
    total = w_prev + th[:, None]
    carry = (pos < 2 * scales - 1) | ~(total > 0)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 where carried
        a = np.divide(w_prev, total, out=w_prev)
        c = np.divide((th * yv)[:, None], total, out=total)
    np.copyto(a, 1.0, where=carry)
    np.copyto(c, 0.0, where=carry)
    c[0] = [yv[sc - 1 : 2 * sc - 1].sum() / sc for sc in scales]  # positions s..2s-1, 1-based

    length = math.isqrt(n - 1)
    end = 1 + (n - 1) // length * length
    ab = a[1:end].reshape(-1, length, scales.size)
    cb = c[1:end].reshape(-1, length, scales.size)
    for k in range(1, length):
        cb[:, k] += ab[:, k] * cb[:, k - 1]
    np.multiply.accumulate(ab, axis=1, out=ab)
    starts = np.empty((len(ab), scales.size))
    starts[0] = c[0]
    for start, prev, a_end, c_end in zip(starts[1:], starts[:-1], ab[:-1, -1], cb[:-1, -1]):
        np.multiply(a_end, prev, out=start)
        start += c_end
    ab *= starts[:, None, :]
    cb += ab
    for i in range(end, n):
        c[i] += a[i] * c[i - 1]
    return Series(c[:, 0]) if np.ndim(s) == 0 else c


def window_variances(d: Series, s: int) -> np.ndarray:
    """Mean of squares per non-overlapping width-s window, tail dropped."""
    n = len(d)
    if n < s:
        raise ValueError(f"need at least s = {s} samples, got {n}")
    w = n // s
    segments = d.values[: w * s].reshape(w, s)
    return np.mean(segments**2, axis=1)


def fluctuation(variances: np.ndarray, q: float) -> float:
    """q-order fluctuation function over window variances.

    q != 0: [mean((sigma^2)^(q/2))]^(1/q). q = 0: the geometric-mean
    limit exp(mean(ln sigma^2)/2). Returns NaN as a degenerate flag
    when q <= 0 meets a zero variance, where the moment is undefined.
    """
    v = np.asarray(variances, dtype=np.float64)
    if v.size < 1:
        raise ValueError("need at least one window variance")
    if np.any(v < 0):
        raise ValueError("variances must be nonnegative")
    if q == 0:
        if np.any(v == 0):
            return float("nan")
        return float(np.exp(0.5 * np.mean(np.log(v))))
    if q < 0 and np.any(v == 0):
        return float("nan")
    with np.errstate(divide="ignore"):
        moment = np.mean(v ** (q / 2.0))
    return float(moment ** (1.0 / q))


def polynomial_detrend_variances(y: Series, s: int, order: int) -> np.ndarray:
    """Mean squared residual of a per-window least-squares polynomial."""
    if s <= order + 1:
        raise ValueError(f"need s > order+1 = {order + 1}, got s = {s}")
    n = len(y)
    if n < s:
        raise ValueError(f"need at least s = {s} samples, got {n}")
    w = n // s
    segments = y.values[: w * s].reshape(w, s)
    X = np.vander(np.arange(s, dtype=np.float64), order + 1, increasing=True)
    coef, *_ = np.linalg.lstsq(X, segments.T, rcond=None)
    residuals = segments.T - X @ coef
    return np.mean(residuals**2, axis=0)


def _residual_variances(
    y: Series, trends: np.ndarray, scales: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """window_variances of every scale's residual trend - Y, concatenated.

    The residual of scale s is valid from position 2s (1-based) on. The
    squared residual trend - Y of scale j fills row j of one (S, N)
    buffer, followed by one spare 0. Window k of scale s covers positions
    2s-1+k*s .. 2s-2+(k+1)*s of its row (0-based), the rows
    window_variances takes, and counts[j] windows fit. One np.add.reduceat
    sums every window of every scale: its cuts are the window starts and,
    per scale, the end of the last window, whose segment (the dropped
    tail and the next row's head) is discarded. The spare 0 keeps that
    cut in range when the last window of the last scale ends at N.
    """
    n = len(y)
    buf = np.empty(scales.size * n + 1)
    buf[-1] = 0.0
    np.subtract(trends.T, y.values, out=buf[:-1].reshape(scales.size, n))
    np.square(buf, out=buf)
    cuts = counts + 1
    row = np.repeat(np.arange(scales.size), cuts)
    k = np.arange(row.size) - np.repeat(np.cumsum(cuts) - cuts, cuts)
    width = scales[row]
    sums = np.add.reduceat(buf, row * n + 2 * width - 1 + k * width)
    window = k < counts[row]
    return sums[window] / width[window]


def _log_fluctuation_table(
    v: np.ndarray, counts: np.ndarray, q_grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """ln F_q(s) at every (q, scale), and the dropped-scale mask.

    v holds every scale's window variances back to back, counts[j] of
    them for scale j. For q != 0, with M the largest (q/2) ln v over the
    cell's windows,
        ln F_q = (M + ln sum exp((q/2) ln v - M) - ln w) / q,
    so no power of a variance is formed and |q| = 10 neither overflows
    nor underflows. M/q is half the scale's largest ln v for q > 0 and
    half its smallest for q < 0: one maximum or minimum.reduceat per
    q-sign group. q > 0 takes every window (ln 0 = -inf adds 0) and w
    counts them; q < 0 takes the nonzero windows (a zero gets ln v =
    +inf, whose term is again 0) and w counts those. q = 0 is half the
    mean of ln v over the nonzero windows.
    """
    starts = np.cumsum(counts) - counts
    positive = v > 0
    nonzero = np.add.reduceat(positive, starts)
    dropped = (counts - nonzero) / counts > DEGENERATE_WINDOW_FRACTION
    logf = np.empty((q_grid.size, counts.size))
    # a dropped scale may have no nonzero window: its NaN and infinite
    # cells are overwritten below
    with np.errstate(divide="ignore", invalid="ignore"):
        log_v = np.log(v)
        groups = (
            (q_grid > 0, log_v, np.maximum, counts),
            (q_grid < 0, np.where(positive, log_v, np.inf), np.minimum, nonzero),
        )
        for rows, lv, extreme, w in groups:
            q = q_grid[rows, None]
            peak = extreme.reduceat(lv, starts)
            terms = np.exp(q / 2.0 * (lv - np.repeat(peak, counts)))
            total = np.add.reduceat(terms, starts, axis=1)
            logf[rows] = peak / 2.0 + (np.log(total) - np.log(w)) / q
        logf[q_grid == 0] = 0.5 * (np.add.reduceat(np.where(positive, log_v, 0.0), starts) / nonzero)
    logf[:, dropped] = np.nan
    return logf, dropped


def _fit_loglog(
    log_scales: np.ndarray, logf: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row OLS slope, intercept and R^2 of ln F_q(s) against ln s.

    A row uses the scales where its ln F entry is finite and is NaN with
    fewer than MIN_FIT_SCALES of them. Every row is fitted at once in
    closed form: the other scales get weight 0 in the sums.
    """
    ok = np.isfinite(logf)
    w = ok.astype(np.float64)
    logf = np.where(ok, logf, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        n = w.sum(axis=1)
        x_mean = (w @ log_scales) / n
        y_mean = (w * logf).sum(axis=1) / n
        xc = w * (log_scales - x_mean[:, None])
        yc = w * (logf - y_mean[:, None])
        slope = (xc * yc).sum(axis=1) / (xc * xc).sum(axis=1)
        intercept = y_mean - slope * x_mean
        residual = w * (logf - slope[:, None] * log_scales - intercept[:, None])
        ss_res = (residual**2).sum(axis=1)
        ss_tot = (yc**2).sum(axis=1)
        r_squared = np.where(ss_tot == 0, 1.0, np.maximum(0.0, 1.0 - ss_res / ss_tot))
    few = n < MIN_FIT_SCALES
    slope[few] = intercept[few] = r_squared[few] = np.nan
    return slope, intercept, r_squared


def hurst_profile(s: Series, cfg: MfaConfig | None = None) -> HurstProfile:
    """Full estimator: variances per scale, F_q(s) table, per-q slopes.

    Zero-variance windows are excluded from the moment for q <= 0; a
    scale where more than half the windows are degenerate is dropped
    for every q. Each q needs at least 4 surviving scales, otherwise
    its H is NaN.

    One pass serves every scale: apart from mf-dfa's per-scale
    polynomial fits and weighted_trend's per-scale seed means, the
    number of numpy calls does not grow with the number of scales.
    The volatility methods compute every scale's
    trend in one weighted_trend scan, within 4 sqrt(N) eps max|Y| of
    the per-scale recursion (its rounding order differs; see
    weighted_trend). Where the detrended residual is small against
    max|Y|, as at the smallest scales of fs-mfa's smooth denoised
    profile, that moves log F by up to about 1e-11, the size of the
    recursion's own rounding error there; H moves by less than 1e-12.
    One np.add.reduceat then sums every window of every scale
    (_residual_variances); mf-dfa concatenates the per-scale
    polynomial_detrend_variances.

    The table is built in the log domain from the concatenated
    variances (_log_fluctuation_table), so F_q(s) at |q| = 10 neither
    overflows nor underflows wherever the variances themselves are
    finite (H of a series scaled by 1e-100 or 1e100 matches the
    unscaled one to 1e-9), and it agrees with the scalar fluctuation
    to 1e-12 relative. The slopes are closed-form OLS of ln F over all
    q rows at once and agree with np.polyfit to 1e-12. fs-mfa keeps its
    denoise result in HurstProfile.denoised.
    """
    cfg = cfg or MfaConfig()
    n = len(s)
    scales = cfg.scales if cfg.scales is not None else default_scales(n)
    max_scale = int(scales[-1])
    if n < 4 * max_scale:
        raise ValueError(f"need N >= 4*max(scales) = {4 * max_scale}, got N = {n}")

    denoised = denoise(s) if cfg.method == "fs-mfa" else None
    y = profile_series(denoised[0] if denoised else s)
    if cfg.method == "mf-dfa":
        counts = n // scales
        v = np.concatenate(
            [polynomial_detrend_variances(y, int(sc), cfg.dfa_poly_order) for sc in scales]
        )
    else:
        counts = (n - 2 * scales + 1) // scales
        theta = historical_volatility(y, cfg.vol_window)
        v = _residual_variances(y, weighted_trend(y, theta, scales), scales, counts)
    logf, dropped = _log_fluctuation_table(v, counts, cfg.q_grid)

    hurst, intercept, r_squared = _fit_loglog(np.log(scales.astype(np.float64)), logf)
    return HurstProfile(
        method=cfg.method,
        q_grid=cfg.q_grid,
        hurst=hurst,
        intercept=intercept,
        r_squared=r_squared,
        table=FluctuationTable(q_grid=cfg.q_grid, scales=scales, values=np.exp(logf)),
        degenerate_scales=scales[dropped],
        config=cfg,
        denoised=denoised,
    )
