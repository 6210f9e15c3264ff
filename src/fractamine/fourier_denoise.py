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


def _trig_rows(out: np.ndarray, omega: float, harmonics: np.ndarray) -> np.ndarray:
    """Fill out[:h] with cos(u*omega*k) and out[h:] with sin(u*omega*k).

    u runs over the h harmonics and k over the sample positions 1..N, so
    out has shape (2h, N). Each row is contiguous, which keeps numpy's
    vectorized cos/sin loops in use, and writing in place spares a
    stacked copy.
    """
    k = np.arange(1, out.shape[1] + 1, dtype=np.float64)
    arg = np.outer(harmonics, k) * omega
    h = len(harmonics)
    np.cos(arg, out=out[:h])
    np.sin(arg, out=out[h:])
    return out


def _degenerate_terms(gram: np.ndarray, max_terms: int) -> list[int]:
    """Harmonics whose columns vanish or are collinear with another column.

    Column norms and pairwise cosines come straight from the Gram matrix.
    The constant column (index 0) names no harmonic.
    """
    norms = np.sqrt(np.diag(gram))
    with np.errstate(divide="ignore", invalid="ignore"):
        cosines = np.abs(gram) / np.outer(norms, norms)
    np.fill_diagonal(cosines, 0.0)
    bad = np.flatnonzero((norms < 1e-9) | np.any(cosines > 1.0 - 1e-9, axis=1))
    return sorted({int(col - 1) % max_terms + 1 for col in bad if col > 0})


# Eigenvalues of the Gram matrix at or below
# _GRAM_RESOLUTION * (2m+1) * eps * lambda_max count as zero.
_GRAM_RESOLUTION = 10.0


def fit_fourier(s: Series, max_terms: int, omega: float | None = None) -> FourierModel:
    """Ordinary least squares against the omega-derived basis.

    omega defaults to angular_frequency(s). Requires N >= 2*max_terms+1
    so the coefficients are determined. A rank-deficient design (aliased
    or vanishing harmonics) raises DegenerateBasisError naming the
    offending terms rather than returning an unidentifiable fit.

    The fit solves the normal equations. The design X (N x (2m+1),
    m = max_terms, stored transposed with one contiguous row per basis
    function) is built once and reduced to its Gram matrix
    G = X^T X, at most 129 x 129, and to b = X^T y. One symmetric
    eigendecomposition G = V diag(lam) V^T serves both the rank check
    and the solve, coef = V (V^T b / lam).

    Rank rule: the design counts as rank-deficient when
    lam_min <= lam_max * (2m+1) * eps * 10, the resolution of G itself.
    Since lam = sigma(X)**2, the fit refuses cond(X) above
    1/sqrt(10 * (2m+1) * eps): 1.9e6 at m = 64, 1.2e7 at m = 1. An SVD
    solve would accept cond(X) up to about 1/(N * eps), 1e11 or more,
    but the normal equations square the condition number, so between
    the two limits the coefficients would be mostly rounding error.
    The designs denoise builds are close to orthogonal (cond(X) about
    1.6), far inside the rule.
    """
    n = len(s)
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    if n < 2 * max_terms + 1:
        raise ValueError(f"need N >= 2*max_terms+1 = {2 * max_terms + 1}, got N = {n}")
    if omega is None:
        omega = angular_frequency(s)
    xt = np.empty((2 * max_terms + 1, n))
    xt[0] = 1.0
    _trig_rows(xt[1:], omega, np.arange(1, max_terms + 1, dtype=np.float64))
    gram = xt @ xt.T
    lam, vecs = np.linalg.eigh(gram)
    resolution = lam[-1] * gram.shape[0] * np.finfo(np.float64).eps * _GRAM_RESOLUTION
    if not lam[0] > resolution:
        raise DegenerateBasisError(_degenerate_terms(gram, max_terms))
    coef = vecs @ ((vecs.T @ (xt @ s.values)) / lam)
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
    """Evaluate the top-r energy-ranked terms at k = 1..N.

    The kept coefficients times one cos/sin basis block of their
    harmonics.
    """
    if not 0 <= r <= m.max_terms:
        raise ValueError(f"r must lie in [0, {m.max_terms}], got {r}")
    ranking, _ = _entropy_gains(m.energy)
    top = ranking[:r]
    basis = _trig_rows(np.empty((2 * r, m.n_samples)), m.omega, top + 1.0)
    return Series(m.eta0 + np.concatenate([m.alpha[top], m.beta[top]]) @ basis)


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
