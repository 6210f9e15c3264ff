"""Generalized Hurst exponent estimation on three method variants.

mf-dhv: profile, a centred moving average weighted by the historical
volatility, windowed variances of the detrended residual, q-order
fluctuation function, log-log slope per q. It estimates centred MF-DMA
(Gu & Zhou 2010, Phys. Rev. E 82:011136) with volatility weights: the
mean H(2) of 20 fGn series lies within 0.03 of H, and the weights
lower a multifractal cascade's q > 0 exponents (see hurst_profile).
fs-mfa: the same pipeline after Fourier denoising. mf-dfa: classic
per-window polynomial detrending of the profile as the baseline.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
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
        smallest = DEFAULT_MIN_SCALE if self.scales is None else int(self.scales[0])
        if self.method == "mf-dfa" and self.dfa_poly_order + 2 > smallest:
            raise ValueError(
                f"dfa_poly_order = {self.dfa_poly_order} leaves no residual in a window of "
                f"the smallest scale {smallest}; mf-dfa needs every scale >= dfa_poly_order + 2"
            )


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
            return [v if ok else None for v, ok in zip(arr.tolist(), np.isfinite(arr).tolist())]

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
        """fs-mfa: whether the series had no power above DC, so that
        denoise defaulted its fundamental bin to k* = 1 (every fitted
        coefficient is then zero); None for the other methods."""
        if self.denoised is None:
            return None
        model = self.denoised[1]
        return not (model.alpha.any() or model.beta.any())


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


def weighted_trend(y: Series, theta: Series, scales: int | np.ndarray) -> Iterator[np.ndarray]:
    """Centred volatility-weighted moving average, one array per scale.

    Element j of scale s's array is sum theta_k Y_k / sum theta_k over
    the window [j, j+s), which hurst_profile reads against Y at the
    window's centre j + (s-1)//2. A window whose volatilities sum to 0
    has no weighted mean; its trend is that centre value, so its
    residual is 0. Refused: a scale that is not an integer >= 1,
    N < 4 max(s), a negative theta, a theta sum that is not finite.

    The call checks the arguments and builds the prefix sums of theta
    and theta * Y; the iterator it returns then yields each scale's
    N-s+1 values, in the order given, from a few slices of those sums,
    so no (N, S) buffer exists. The prefix sums are compensated (TwoSum;
    Ogita, Rump & Oishi 2005, SIAM J. Sci. Comput. 26:1955): a second
    cumsum carries each step's rounding error, so a window sum is good
    to a few ulps of itself rather than of the running total. That
    matters on fs-mfa's smooth denoised profile, whose residual is
    small against Y (tests).
    """
    n = len(y)
    if len(theta) != n:
        raise ValueError("y and theta lengths differ")
    listed = np.atleast_1d(scales).tolist()
    for sc in listed:
        if not (isinstance(sc, (int, float)) and float(sc).is_integer() and sc >= 1):
            raise ValueError(f"every scale must be an integer >= 1, got {sc!r}")
    listed = [int(sc) for sc in listed]  # Python ints slice faster than numpy ones
    max_scale = max(listed)
    if n < 4 * max_scale:
        raise ValueError(f"need N >= 4s = {4 * max_scale}, got {n}")
    yv = y.values
    th = theta.values
    if np.any(th < 0):
        raise ValueError("volatilities must be nonnegative")
    # rows: running sums of theta and theta * Y, then of their rounding errors
    width = n + 1
    prefix = np.zeros((4, width))
    total, prev, error = prefix[:2, 1:], prefix[:2, :-1], prefix[2:, 1:]
    with np.errstate(over="ignore"):  # refused just below
        np.cumsum(th, out=total[0])
    if not np.isfinite(total[0, -1]):
        raise ValueError("volatilities must have a finite sum")
    values = np.stack([th, th * yv])
    np.cumsum(values[1], out=total[1])
    added = total - prev  # TwoSum: the error is (prev - (total - added)) + (value - added)
    np.subtract(total, added, out=error)
    np.subtract(prev, error, out=error)
    error += np.subtract(values, added, out=added)
    np.cumsum(error, axis=1, out=error)
    high, low = prefix[:2].reshape(-1), prefix[2:].reshape(-1)

    def trends():
        sums = np.zeros(2 * width)
        low_sums = np.zeros(2 * width)
        for sc in listed:
            # each row's first N-s+1 differences are its window sums; the
            # rest straddle two rows and are not read
            np.subtract(high[sc:], high[:-sc], out=sums[:-sc])
            np.subtract(low[sc:], low[:-sc], out=low_sums[:-sc])
            sums += low_sums
            count = n - sc + 1
            weight, weighted = sums[:count], sums[width : width + count]
            # a masked divide costs about four plain ones on short rows, so
            # it runs only where a window of zero volatility needs it
            if weight.min() > 0:
                yield weighted / weight
            else:
                centre = (sc - 1) // 2
                trend = yv[centre : centre + count].copy()
                yield np.divide(weighted, weight, out=trend, where=weight > 0)

    return trends()


def window_variances(d: Series | np.ndarray, s: int) -> np.ndarray:
    """Mean of squares per non-overlapping width-s window, tail dropped.

    d is a Series or a 1-D array of values; hurst_profile passes its
    residuals as arrays, since they are finite by construction.
    """
    values = d.values if isinstance(d, Series) else d
    n = values.size
    if n < s:
        raise ValueError(f"need at least s = {s} samples, got {n}")
    w = n // s
    segments = values[: w * s].reshape(w, s)
    return np.einsum("ij,ij->i", segments, segments) / s


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


def _orthonormal_polynomials(s: int, order: int) -> np.ndarray:
    """Rows 1..order: the degree-d discrete orthonormal polynomials on
    x_k = (k - (s-1)/2)/s, k = 0..s-1; row 0 is the constant 1/sqrt(s).

    Arnoldi on diag(x) from the constant: each row is x times the last
    one, orthogonalized against every earlier row and normalized
    (Brubeck, Nakatsukasa & Trefethen 2021, SIAM Rev. 63:405). Measured
    at every order up to s-2 for s < 260, |Q Q^T - I| stays below
    3e-14; the three-term (Gram) recurrence alone reaches 1e-12 from
    degree 18 and loses orthogonality entirely near degree s.
    """
    x = (np.arange(s) - (s - 1) / 2) / s
    q = np.empty((order + 1, s))
    q[0] = 1 / math.sqrt(s)
    for d in range(order):
        v = x * q[d]
        done = q[: d + 1]
        v -= (done @ v) @ done
        q[d + 1] = v / math.sqrt(v @ v)
    return q


def polynomial_detrend_variances(y: Series, s: int, order: int) -> np.ndarray:
    """Mean squared residual of a per-window least-squares polynomial.

    Each width-s window loses its mean, then its components along the
    orthonormal polynomials of degree 1..order (_orthonormal_polynomials)
    in one projection; the mean of the squares is left. That is the
    exact least-squares residual up to rounding: against exact rational
    normal equations it agrees to 1e-10 relative for orders 0-3 at
    scales 16 to 16384 (tests). No Vandermonde matrix is formed: the
    uncentred powers of 0..s-1 are so ill-conditioned at order 3 and
    s = 16384 that lstsq drops a singular value and misses the fit.
    """
    if s <= order + 1:
        raise ValueError(f"need s > order+1 = {order + 1}, got s = {s}")
    n = len(y)
    if n < s:
        raise ValueError(f"need at least s = {s} samples, got {n}")
    w = n // s
    segments = y.values[: w * s].reshape(w, s)
    r = segments - segments.mean(axis=1, keepdims=True)
    q = _orthonormal_polynomials(s, order)[1:]
    r -= (r @ q.T) @ q
    return np.einsum("ij,ij->i", r, r) / s


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

    mf-dhv reads weighted_trend's centred theta-weighted moving average
    against Y at each window's centre and passes a scale's N-s+1
    residuals to window_variances, (N-s+1)//s windows; one scale's trend
    is alive at a time. That is centred MF-DMA with volatility weights.
    On fGn (N = 8192, 20 seeds) its mean H(2) reads 0.303, 0.486 and
    0.772 at H = 0.3, 0.5 and 0.8. On the 16-level p = 0.7 cascade the
    weights lower the q > 0 exponents (0.71 and 0.52 at q = 2 and 5,
    against 0.81 and 0.64 unweighted and 0.89 and 0.71 in closed form);
    at q = -5 and -2 it reads 0.99 against 1.54 and 1.36. mf-dfa
    concatenates the per-scale polynomial_detrend_variances, each
    within 1e-10 relative of the exact least-squares residual (tested
    at orders 0-3 and scales 16 to 16384).

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
        counts = (n - scales + 1) // scales
        theta = historical_volatility(y, cfg.vol_window)
        parts = []
        for sc, trend in zip(scales.tolist(), weighted_trend(y, theta, scales)):
            centre = (sc - 1) // 2
            residual = np.subtract(trend, y.values[centre : centre + trend.size], out=trend)
            parts.append(window_variances(residual, sc))
        v = np.concatenate(parts)
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
