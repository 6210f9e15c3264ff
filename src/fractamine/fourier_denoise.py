"""Fourier-series least-squares denoising with entropy order selection.

The basis frequency comes from the series itself: omega = 2*pi/T where
T counts adjacent sign changes. Coefficients are fitted by ordinary
least squares against {1, cos(u*omega*k), sin(u*omega*k)}, per-term
energies are normalized into a probability distribution, and the
truncation order is the first reversal of the per-term entropy gain
along the energy-descending ranking.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .series import Series

__all__ = [
    "FourierModel",
    "DegenerateBasisError",
    "angular_frequency",
    "count_sign_changes",
    "fit_fourier",
    "select_order",
    "reconstruct",
    "denoise",
]


class DegenerateBasisError(ValueError):
    """Raised when the trigonometric design matrix is rank-deficient.

    carries .terms, the harmonic indices whose columns collapsed.
    """

    def __init__(self, terms: list[int]):
        self.terms = terms
        super().__init__(f"rank-deficient design, degenerate harmonic terms: {terms}")


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


def count_sign_changes(s: Series) -> int:
    """Adjacent sign changes with zeros counted as positive."""
    signs = np.where(s.values >= 0.0, 1.0, -1.0)
    return int(np.sum(signs[:-1] * signs[1:] < 0))


def angular_frequency(s: Series) -> float:
    """omega = 2*pi/T from the sign-change count T; 2*pi/N when T = 0."""
    n = len(s)
    if n < 2:
        raise ValueError("need at least 2 samples to count sign changes")
    t = count_sign_changes(s)
    if t == 0:
        return 2.0 * np.pi / n
    return 2.0 * np.pi / t


def _design(omega: float, n: int, max_terms: int) -> np.ndarray:
    k = np.arange(1, n + 1, dtype=np.float64)
    arg = np.outer(k, np.arange(1, max_terms + 1, dtype=np.float64)) * omega
    return np.hstack([np.ones((n, 1)), np.cos(arg), np.sin(arg)])


def fit_fourier(s: Series, max_terms: int, omega: float | None = None) -> FourierModel:
    """Ordinary least squares against the omega-derived basis.

    omega defaults to angular_frequency(s). Requires N >= 2*max_terms+1
    so the coefficients are determined. A rank-deficient design (aliased
    or vanishing harmonics) raises DegenerateBasisError naming the
    offending terms rather than returning an unidentifiable fit.

    One SVD serves both the solve and the rank check: lstsq with
    rcond=None treats singular values at or below eps*max(M, N)*s_max
    as zero, the threshold np.linalg.matrix_rank applies by default.
    """
    n = len(s)
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    if n < 2 * max_terms + 1:
        raise ValueError(f"need N >= 2*max_terms+1 = {2 * max_terms + 1}, got N = {n}")
    if omega is None:
        omega = angular_frequency(s)
    X = _design(omega, n, max_terms)
    coef, _, rank, _ = np.linalg.lstsq(X, s.values, rcond=None)
    if rank < X.shape[1]:
        norms = np.linalg.norm(X, axis=0)
        bad = set()
        # vanishing columns first, then pairwise collinearity scan
        for col in np.flatnonzero(norms < 1e-9):
            bad.add(int((col - 1) % max_terms + 1))
        unit = X / np.maximum(norms, 1e-300)
        gram = np.abs(unit.T @ unit)
        np.fill_diagonal(gram, 0.0)
        for i, j in zip(*np.nonzero(gram > 1.0 - 1e-9)):
            if i < j:
                for col in (int(i), int(j)):
                    if col > 0:
                        bad.add((col - 1) % max_terms + 1)
        raise DegenerateBasisError(sorted(bad))
    eta0 = float(coef[0])
    alpha = coef[1 : max_terms + 1].copy()
    beta = coef[max_terms + 1 :].copy()
    e = alpha**2 + beta**2
    total = e.sum()
    if total > 0:
        energy = e / total
    else:
        energy = np.full(max_terms, 1.0 / max_terms)
    return FourierModel(
        eta0=eta0,
        alpha=alpha,
        beta=beta,
        omega=float(omega),
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
    """Evaluate the top-r energy-ranked terms at k = 1..N."""
    if not 0 <= r <= m.max_terms:
        raise ValueError(f"r must lie in [0, {m.max_terms}], got {r}")
    ranking, _ = _entropy_gains(m.energy)
    k = np.arange(1, m.n_samples + 1, dtype=np.float64)
    out = np.full(m.n_samples, m.eta0)
    for idx in ranking[:r]:
        u = idx + 1
        out = out + m.alpha[idx] * np.cos(u * m.omega * k) + m.beta[idx] * np.sin(u * m.omega * k)
    return Series(out)


def denoise(s: Series) -> tuple[Series, FourierModel, int]:
    """Fit, entropy-select the order, and rebuild the series.

    The fitted order is min(floor(N/4), 64), further capped at
    floor((T-1)/2) so no harmonic reaches the Nyquist alias point of
    the crossing-derived omega (harmonics at u = T/2 and beyond produce
    vanishing or duplicated columns, which would make the fit
    unidentifiable on ordinary low-crossing inputs). When T < 3 leaves
    no usable harmonic, the basis falls back to omega = 2*pi/N, one
    fundamental period spanning the series.
    """
    n = len(s)
    if n < 16:
        raise ValueError(f"need at least 16 samples to denoise, got {n}")
    cap = min(n // 4, 64)
    t = count_sign_changes(s)
    usable = (t - 1) // 2 if t >= 1 else 0
    if usable >= 1:
        omega = 2.0 * np.pi / t
        max_terms = min(cap, usable)
    else:
        omega = 2.0 * np.pi / n
        max_terms = cap
    model = fit_fourier(s, max_terms, omega=omega)
    r = select_order(model)
    return reconstruct(model, r), model, r


def diagnostics_json(model: FourierModel, r: int) -> str:
    """Serialize denoise diagnostics for the CLI layer."""
    _, gains = _entropy_gains(model.energy)
    payload = {
        "format_version": 1,
        "omega": model.omega,
        "r_selected": int(r),
        "entropy_table": [float(g) for g in gains],
        "energy": [float(p) for p in model.energy],
    }
    return json.dumps(payload, indent=2)
