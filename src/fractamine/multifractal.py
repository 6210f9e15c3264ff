"""Generalized Hurst exponent estimation on three method variants.

mf-dhv: profile, historical-volatility weighted trend, windowed
variances of the detrended residual, q-order fluctuation function,
log-log slope per q. fs-mfa: the same pipeline after Fourier
denoising. mf-dfa: classic per-window polynomial detrending of the
profile as the baseline.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fourier_denoise import FourierModel, denoise
from .series import Series

__all__ = [
    "MfaConfig",
    "FluctuationTable",
    "HurstProfile",
    "profile_series",
    "historical_volatility",
    "weighted_trend",
    "detrend",
    "window_variances",
    "fluctuation",
    "polynomial_detrend_variances",
    "hurst_profile",
    "default_q_grid",
    "default_scales",
]

METHODS = ("fs-mfa", "mf-dhv", "mf-dfa")

# a scale whose zero-variance windows exceed this fraction is dropped
DEGENERATE_WINDOW_FRACTION = 0.5

MIN_FIT_SCALES = 4


def default_q_grid() -> np.ndarray:
    """41 moment orders from -10 to 10 in steps of 0.5."""
    return np.linspace(-10.0, 10.0, 41)


def default_scales(n: int, lo: int = 16, count: int = 20) -> np.ndarray:
    """Log-spaced integer window sizes in [lo, n//4], deduplicated."""
    hi = n // 4
    if hi < lo:
        raise ValueError(f"series too short for scale range [{lo}, N/4]: N = {n}")
    raw = np.exp(np.linspace(np.log(lo), np.log(hi), count))
    scales = np.unique(np.round(raw).astype(np.int64))
    return scales[scales >= 4]


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
        if q.size == 0:
            raise ValueError("q_grid must be nonempty")
        object.__setattr__(self, "q_grid", q)
        if self.scales is not None:
            s = np.asarray(self.scales, dtype=np.int64)
            if np.any(np.diff(s) <= 0):
                raise ValueError("scales must be strictly increasing")
            if np.any(s < 4):
                raise ValueError("every scale must be at least 4")
            object.__setattr__(self, "scales", s)
        if self.vol_window < 2:
            raise ValueError("vol_window must be at least 2")
        if self.dfa_poly_order < 0:
            raise ValueError("dfa_poly_order must be nonnegative")


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
    """Per-q slope fits of ln F_q(s) on ln s, with the source table."""

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

    def to_json(self) -> str:
        with np.errstate(divide="ignore", invalid="ignore"):
            logf = np.where(self.table.values > 0, np.log(self.table.values), np.nan)

        def listify(arr):
            return [None if not np.isfinite(v) else float(v) for v in arr]

        payload = {
            "format_version": 1,
            "method": self.method,
            "q": [float(q) for q in self.q_grid],
            "H": listify(self.hurst),
            "r2": listify(self.r_squared),
            "scales": [int(s) for s in self.table.scales],
            "logF": [listify(row) for row in logf],
            "degenerate_scales": [int(s) for s in self.degenerate_scales],
        }
        return json.dumps(payload, indent=2)


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
    gives every scale's trend as the columns of an (N, len(s)) array,
    from one sweep over positions that updates all scales at once. Each
    column performs the scalar recursion's IEEE operations in its order,
    (w_prev * prev + theta_i * Y_i) / total, so it is bit-identical to
    a per-position loop at that scale. A column that carries its value
    (before its seed, or at zero total volatility) takes w_prev = 1,
    theta_i * Y_i = -0.0 and total = 1, which is exact for every prev.
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
    w_prev = cumsum[:-1, None] - cumsum[np.maximum(pos - scales, 0)]
    total = w_prev + th[:, None]
    carry = (pos < 2 * scales - 1) | ~(total > 0)
    w_prev[carry] = 1.0
    total[carry] = 1.0
    weighted_y = np.where(carry, -0.0, (th * yv)[:, None])

    trends = np.empty((n, scales.size))
    trends[0] = [yv[sc - 1 : 2 * sc - 1].mean() for sc in scales]  # positions s..2s-1, 1-based
    prev = trends[0]
    for row, wp, wy, tot in zip(trends[1:], w_prev[1:], weighted_y[1:], total[1:]):
        np.multiply(wp, prev, out=row)
        row += wy
        row /= tot
        prev = row
    return Series(trends[:, 0]) if np.ndim(s) == 0 else trends


def detrend(y: Series, trend: Series, s: int) -> Series:
    """Residual trend - Y on the valid range [2s, N], length N-2s+1."""
    n = len(y)
    if len(trend) != n:
        raise ValueError("y and trend lengths differ")
    if n < 2 * s:
        raise ValueError(f"need N >= 2s = {2 * s}, got {n}")
    return Series(trend.values[2 * s - 1 :] - y.values[2 * s - 1 :])


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


def _fluctuation_column(variances: np.ndarray, q_grid: np.ndarray) -> np.ndarray:
    """fluctuation at every q of q_grid for one scale's variances.

    q > 0 takes every window; q <= 0 takes only the windows of nonzero
    variance. The arithmetic is fluctuation's, broadcast over q, so
    each entry agrees with the scalar call on the same windows.
    """
    v = np.asarray(variances, dtype=np.float64)
    positive = v[v > 0]
    out = np.empty(q_grid.size)
    for rows, base in ((q_grid > 0, v), (q_grid < 0, positive)):
        q = q_grid[rows]
        out[rows] = np.mean(base[None, :] ** (q[:, None] / 2.0), axis=1) ** (1.0 / q)
    zero = q_grid == 0
    if zero.any():
        out[zero] = np.exp(0.5 * np.mean(np.log(positive)))
    return out


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


def _fit_loglog(
    log_scales: np.ndarray, table: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row OLS slope, intercept and R^2 of ln F_q(s) against ln s.

    A row uses the scales where its entry is finite and positive and is
    NaN with fewer than MIN_FIT_SCALES of them. Every row is fitted at
    once in closed form: the other scales get weight 0 in the sums.
    """
    ok = np.isfinite(table) & (table > 0)
    w = ok.astype(np.float64)
    logf = np.log(np.where(ok, table, 1.0))
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

    The volatility methods compute every scale's trend in one
    weighted_trend sweep, bit-identical to the per-scale recursion. The
    table is built per scale, vectorized over q, and agrees with the
    scalar fluctuation to 1e-12 relative; the slopes are closed-form
    OLS over all q rows at once and agree with np.polyfit to 1e-12.
    fs-mfa keeps its denoise result in HurstProfile.denoised.
    """
    cfg = cfg or MfaConfig()
    n = len(s)
    scales = cfg.scales if cfg.scales is not None else default_scales(n)
    if scales.size == 0:
        raise ValueError("no usable scales")
    max_scale = int(scales[-1])
    if n < 4 * max_scale:
        raise ValueError(f"need N >= 4*max(scales) = {4 * max_scale}, got N = {n}")

    denoised = denoise(s) if cfg.method == "fs-mfa" else None
    y = profile_series(denoised[0] if denoised else s)
    if cfg.method == "mf-dfa":
        per_scale = [polynomial_detrend_variances(y, int(sc), cfg.dfa_poly_order) for sc in scales]
    else:
        trends = weighted_trend(y, historical_volatility(y, cfg.vol_window), scales)
        per_scale = [
            window_variances(detrend(y, Series(trends[:, j]), int(sc)), int(sc))
            for j, sc in enumerate(scales)
        ]
    dropped = np.array(
        [np.mean(v == 0) > DEGENERATE_WINDOW_FRACTION for v in per_scale], dtype=bool
    )

    q_grid = cfg.q_grid
    table = np.full((q_grid.size, scales.size), np.nan)
    for j, (v, drop) in enumerate(zip(per_scale, dropped)):
        if not drop:
            table[:, j] = _fluctuation_column(v, q_grid)

    hurst, intercept, r_squared = _fit_loglog(np.log(scales.astype(np.float64)), table)
    return HurstProfile(
        method=cfg.method,
        q_grid=q_grid,
        hurst=hurst,
        intercept=intercept,
        r_squared=r_squared,
        table=FluctuationTable(q_grid=q_grid, scales=scales, values=table),
        degenerate_scales=scales[dropped],
        config=cfg,
        denoised=denoised,
    )
