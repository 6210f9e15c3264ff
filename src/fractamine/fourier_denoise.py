"""Fourier-series least-squares denoising with entropy order selection.

The basis frequency comes from the series itself: omega = 2*pi*k*/N for
the periodogram's peak bin k* (DC and Nyquist left out). Harmonic u of
that fundamental is DFT bin u*k*, so the least-squares fit against
{1, cos(u*omega*k), sin(u*omega*k)} is a read of one real FFT. Per-term
energies are normalized into a probability distribution, and the
truncation order is the first reversal of the per-term entropy gain
along the energy-descending ranking.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import Series

__all__ = [
    "FourierModel",
    "fit_fourier",
    "select_order",
    "reconstruct",
    "denoise",
]


@dataclass(frozen=True)
class FourierModel:
    """Least-squares Fourier fit of one series.

    eta0 is the constant term, alpha/beta the cosine/sine coefficients
    for harmonics u = 1..max_terms, energy the normalized per-term
    spectral energy (uniform fallback when the total is zero).
    n_samples is retained because reconstruction re-evaluates the basis
    at the original sample positions k = 1..N.
    """

    eta0: float
    alpha: np.ndarray
    beta: np.ndarray
    omega: float
    max_terms: int
    energy: np.ndarray
    n_samples: int

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")
        if len(self.alpha) != self.max_terms or len(self.beta) != self.max_terms:
            raise ValueError("coefficient arrays must have max_terms entries")
        e = np.asarray(self.energy, dtype=np.float64)
        if np.any(e < 0) or abs(e.sum() - 1.0) > 1e-9:
            raise ValueError("energy must be a probability distribution")


def fit_fourier(s: Series, max_terms: int | None = None) -> FourierModel:
    """Least squares against {1, cos(u*omega*k), sin(u*omega*k)}, read off one rfft.

    The fundamental is the periodogram peak: k* >= 1 maximises |F[k]|
    over the bins 1..ceil(N/2)-1 of F = rfft(s), which leave out DC and
    Nyquist, so the mean needs no removal. Ties go to the lowest bin, and
    a series with no power there gets k* = 1. omega = 2*pi*k*/N.

    Harmonic u is then DFT bin u*k*. Every fitted bin lies strictly
    between 0 and N/2, so the design's columns are orthogonal over
    k = 1..N, with squared norms N (constant) and N/2 (cos and sin), and
    the least-squares fit is a read of those bins (the Fourier-detrending
    setting of Chianca, Ticona and Penna 2005): eta0 = F[0]/N and
    alpha_u + i*beta_u = (2/N) * exp(i*theta) * conj(F[u*k*]), where the
    phase theta = 2*pi*u*k*/N accounts for the index k starting at 1.

    max_terms defaults to min(max(floor(N/4), 1), 64, ceil(N/(2k*)) - 1),
    which is what denoise fits; the last term is the largest m with
    m*k* < N/2, which is at least 1 since k* < N/2, so the default fits
    at least one harmonic for every N >= 3. An explicit max_terms must
    also keep max_terms*k* < N/2.
    """
    n = len(s)
    if n < 3:
        raise ValueError(f"need at least 3 samples to fit a harmonic, got {n}")
    spectrum = np.fft.rfft(s.values)
    k = 1 + int(np.argmax(np.abs(spectrum[1 : (n + 1) // 2])))
    limit = -(-n // (2 * k)) - 1
    if max_terms is None:
        max_terms = min(max(n // 4, 1), 64, limit)
    if not (float(max_terms).is_integer() and 1 <= max_terms <= limit):
        raise ValueError(
            f"max_terms must be a whole number in [1, {limit}], so that max_terms*k* < N/2 "
            f"at the fundamental bin k* = {k} of N = {n}; got max_terms = {max_terms}"
        )
    max_terms = int(max_terms)
    bins = k * np.arange(1, max_terms + 1)
    coef = (2.0 / n) * np.exp(2j * np.pi * bins / n) * np.conj(spectrum[bins])
    alpha, beta = coef.real.copy(), coef.imag.copy()
    e = alpha**2 + beta**2
    total = e.sum()
    if total > 0:
        energy = e / total
    else:
        energy = np.full(max_terms, 1.0 / max_terms)
    return FourierModel(
        eta0=float(spectrum[0].real / n),
        alpha=alpha,
        beta=beta,
        omega=2.0 * np.pi * k / n,
        max_terms=max_terms,
        energy=energy,
        n_samples=n,
    )


def _entropy_gains(energy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Energy-descending ranking and per-term entropy gains d(u).

    d(u) = -p_(u) * log2 p_(u) with zero-energy terms contributing 0,
    so the cumulative entropy I(u) is the running sum of gains.
    """
    ranking = np.argsort(-energy, kind="stable")
    p = energy[ranking]
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = np.where(p > 0, -p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
    return ranking, gains


def select_order(m: FourierModel) -> int:
    """Smallest u with gain d(u+1) < d(u); max_terms if gains never drop."""
    _, gains = _entropy_gains(m.energy)
    for u in range(1, len(gains)):
        if gains[u] < gains[u - 1]:
            return u
    return m.max_terms


def reconstruct(m: FourierModel, r: int) -> Series:
    """Evaluate the top-r energy-ranked terms at k = 1..N.

    The kept coefficients times one (2r, N) block of their cos rows, then
    sin rows, filled in place: no stacked copy, and contiguous rows keep
    numpy's vectorized cos/sin loops in use.
    """
    if not (float(r).is_integer() and 0 <= r <= m.max_terms):
        raise ValueError(f"r must be a whole number in [0, {m.max_terms}], got {r}")
    r = int(r)
    ranking, _ = _entropy_gains(m.energy)
    top = ranking[:r]
    basis = np.empty((2 * r, m.n_samples))
    k = np.arange(1, m.n_samples + 1, dtype=np.float64)
    arg = np.outer(top + 1.0, k) * m.omega
    np.cos(arg, out=basis[:r])
    np.sin(arg, out=basis[r:])
    return Series(m.eta0 + np.concatenate([m.alpha[top], m.beta[top]]) @ basis)


def denoise(s: Series) -> tuple[Series, FourierModel, int]:
    """Fit at fit_fourier's default order, entropy-select r, and rebuild.

    The fitted order is min(floor(N/4), 64, ceil(N/(2k*)) - 1) for the
    periodogram's fundamental bin k*, so at least one harmonic is fitted
    whatever k* is, and none reaches the Nyquist bin N/2.
    """
    n = len(s)
    if n < 16:
        raise ValueError(f"need at least 16 samples to denoise, got {n}")
    model = fit_fourier(s)
    r = select_order(model)
    return reconstruct(model, r), model, r


def diagnostics(model: FourierModel, r: int) -> dict:
    """The denoise.json payload: omega, the selected order, the per-term
    entropy gains and energies; the CLI's writer adds format_version."""
    _, gains = _entropy_gains(model.energy)
    return {
        "omega": model.omega,
        "r_selected": int(r),
        "entropy_table": [float(g) for g in gains],
        "energy": [float(p) for p in model.energy],
    }
