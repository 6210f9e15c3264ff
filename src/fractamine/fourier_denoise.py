"""Fourier-series least-squares denoising with entropy order selection.

The basis frequency comes from the series itself: omega = 2*pi/T where
T counts adjacent sign changes, or 2*pi/N when T < 3. Coefficients are
fitted by ordinary least squares against {1, cos(u*omega*k),
sin(u*omega*k)}, per-term energies are normalized into a probability
distribution, and the truncation order is the first reversal of the
per-term entropy gain along the energy-descending ranking.
"""
from __future__ import annotations

import math
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


def _basis_period(s: Series) -> int:
    """The basis period P: the sign-change count T when T >= 3, else N.

    At T = 1 or 2 every harmonic of 2*pi/T aliases (at omega = 2*pi the
    cos column is the constant, at omega = pi the sin column vanishes).
    """
    t = count_sign_changes(s)
    return t if t >= 3 else len(s)


def angular_frequency(s: Series) -> float:
    """omega = 2*pi/P for the basis period P of _basis_period."""
    if len(s) < 2:
        raise ValueError("need at least 2 samples to count sign changes")
    return 2.0 * np.pi / _basis_period(s)


def _degenerate_terms(gram: np.ndarray, max_terms: int, tau: float) -> list[int]:
    """Harmonics whose columns vanish or are collinear with another column.

    A column vanishes when its squared norm G[i, i] is at most tau, the
    resolution of G in the rank rule (see fit_fourier): G is summed from
    power sums, not from the columns, so a smaller diagonal entry is
    rounding, and so are the cosines it would give. Pairwise cosines of
    the other columns come straight from G. The constant column (index
    0) names no harmonic.
    """
    sq = np.diag(gram)
    vanish = sq <= tau
    norms = np.sqrt(np.where(vanish, np.inf, sq))
    cosines = np.abs(gram) / np.outer(norms, norms)
    np.fill_diagonal(cosines, 0.0)
    bad = np.flatnonzero(vanish | np.any(cosines > 1.0 - 1e-9, axis=1))
    return sorted({int(col - 1) % max_terms + 1 for col in bad if col > 0})


# The Gram matrix counts as singular when it is not positive definite
# after _GRAM_RESOLUTION * (2m+1) * eps * ||G||_inf is taken off its
# diagonal (see fit_fourier).
_GRAM_RESOLUTION = 10.0


def _phases(omega: float, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos(omega*q) and sin(omega*q) for an integer array q.

    The product omega*q rounds to arg with an error r up to
    eps*|omega*q|/2, which cos and sin alone would pass on. Splitting
    omega into a 26-bit head and a tail (Veltkamp) makes head*q and
    tail*q exact for q below 2**26, so r = (head*q - arg) + tail*q is
    exact (Dekker's product), and cos(arg + r) = cos(arg) - r*sin(arg),
    sin(arg + r) = sin(arg) + r*cos(arg) up to r**2/2.
    """
    t = omega * 134217729.0  # 2**27 + 1
    head = t - (t - omega)
    q = q.astype(np.float64)
    arg = omega * q
    r = (head * q - arg) + (omega - head) * q
    c, s = np.cos(arg), np.sin(arg)
    return c - r * s, s + r * c


def _power_sums(y: np.ndarray, omega: float, count: int) -> tuple[np.ndarray, np.ndarray]:
    """C_v(j) and S_v(j), the sums of v_k cos(j*omega*k) and v_k sin(j*omega*k).

    k runs over 1..N and j over 0..count-1, for v = 1 (row 0 of each
    (2, count) result) and v = y (row 1). They are the real and
    imaginary parts of P_v(j) = sum_k v_k exp(i*j*omega*k). With
    L = isqrt(N), each position is written as k = 1 + a*L + l (l < L)
    and v is zero-padded to J*L rows, so

        P(j) = sum_l exp(i*j*omega*(l+1)) * sum_a v[a*L+l] * exp(i*j*omega*L*a).

    The inner sums are one real (count x J) @ (J x L) product per real
    and imaginary part, the outer sum one elementwise product reduced
    over l, and only (J + L) * count phases are evaluated, each at an
    integer multiple of omega (_phases).
    """
    n = y.size
    length = math.isqrt(n)
    rows = -(-n // length)
    v = np.zeros((2, rows * length))
    v[0, :n] = 1.0
    v[1, :n] = y
    v = v.reshape(2, rows, length)
    j = np.arange(count)
    cos_outer, sin_outer = _phases(omega, np.outer(j, length * np.arange(rows)))
    c, s = _phases(omega, np.outer(j, np.arange(1, length + 1)))
    re, im = cos_outer @ v, sin_outer @ v
    dot = "jl,vjl->vj"
    return (
        np.einsum(dot, c, re) - np.einsum(dot, s, im),
        np.einsum(dot, c, im) + np.einsum(dot, s, re),
    )


def _normal_equations(y: np.ndarray, omega: float, max_terms: int) -> tuple[np.ndarray, np.ndarray]:
    """G = X^T X and b = X^T y of the design, from power sums alone.

    X has the rows [1, cos(u*omega*k), sin(u*omega*k)] for u = 1..m at
    k = 1..N. With C(j) = C_1(j) and S(j) = S_1(j) (_power_sums), the
    product-to-sum identities give every entry of G from C and S at
    j = |u-v| and u+v:
        cos_u cos_v = (C(u-v) + C(u+v)) / 2,
        sin_u sin_v = (C(u-v) - C(u+v)) / 2,
        cos_u sin_v = (S(u+v) - S(u-v)) / 2,
    and the constant row is [N, C(u), S(u)]. b is [C_y(0), C_y(u),
    S_y(u)]. Neither X nor any N-long trigonometric row is formed.
    """
    m = max_terms
    (c, cy), (s, sy) = _power_sums(y, omega, 2 * m + 1)
    u = np.arange(1, m + 1)
    diff = u[:, None] - u
    lag, lead = np.abs(diff), u[:, None] + u
    cos_sin = (s[lead] - np.sign(diff) * s[lag]) / 2.0
    gram = np.empty((2 * m + 1, 2 * m + 1))
    gram[0, 0] = y.size
    gram[0, 1:] = gram[1:, 0] = np.concatenate([c[u], s[u]])
    gram[1 : m + 1, 1 : m + 1] = (c[lag] + c[lead]) / 2.0
    gram[m + 1 :, m + 1 :] = (c[lag] - c[lead]) / 2.0
    gram[1 : m + 1, m + 1 :] = cos_sin
    gram[m + 1 :, 1 : m + 1] = cos_sin.T
    b = np.concatenate([cy[: m + 1], sy[u]])
    return gram, b


def fit_fourier(s: Series, max_terms: int, omega: float | None = None) -> FourierModel:
    """Ordinary least squares against the omega-derived basis.

    omega defaults to angular_frequency(s). Requires N >= 2*max_terms+1
    so the coefficients are determined. A rank-deficient design (aliased
    or vanishing harmonics) raises DegenerateBasisError naming the
    offending terms rather than returning an unidentifiable fit.

    The fit solves the normal equations. The design X (N x (2m+1),
    m = max_terms) is never formed: its Gram matrix G = X^T X, at most
    129 x 129, and b = X^T y follow from the 2m+1 power sums
    sum_k v_k exp(i*j*omega*k) of v = 1 and v = y (_normal_equations),
    as in Fourier-detrended fluctuation analysis (Chianca, Ticona and
    Penna 2005). Building them evaluates O(sqrt(N) * m) phases, for any
    omega, and the largest temporary is a zero-padded copy of 1 and y.
    The rank test is one Cholesky factorization, the solve one LU solve,
    coef = solve(G, b); no eigenvalue is computed.

    Rank rule: with tau = ||G||_inf * (2m+1) * eps * 10, the design
    counts as rank-deficient when the Cholesky factorization of
    G - tau*I fails, that is when G - tau*I is not positive definite,
    lam_min(G) <= tau up to rounding. ||G||_inf (the largest absolute
    row sum) is at least lam_max and at most sqrt(2m+1) * lam_max, so
    tau is never below the resolution of G, lam_max * (2m+1) * eps * 10,
    and at most sqrt(2m+1) times it. Since lam = sigma(X)**2, the fit
    refuses cond(X) above 1/sqrt(10 * (2m+1) * eps * ||G||_inf/lam_max):
    between 5.6e5 and 1.9e6 at m = 64, depending on how far G is from
    diagonal, and between 9.3e6 and 1.2e7 at m = 1. It accepts every
    cond(X) below the lower figure, 1/sqrt(10 * (2m+1)**1.5 * eps). An
    SVD solve would accept cond(X) up to about 1/(N * eps), 1e11 or more,
    but the normal equations square the condition number, so beyond
    these limits the coefficients would be mostly rounding error. The
    designs denoise builds are close to orthogonal (cond(X) at most
    about 2), far inside the rule.
    """
    n = len(s)
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    if n < 2 * max_terms + 1:
        raise ValueError(f"need N >= 2*max_terms+1 = {2 * max_terms + 1}, got N = {n}")
    if omega is None:
        omega = angular_frequency(s)
    gram, b = _normal_equations(s.values, omega, max_terms)
    size = gram.shape[0]
    tau = np.abs(gram).sum(axis=1).max() * size * np.finfo(np.float64).eps * _GRAM_RESOLUTION
    try:
        np.linalg.cholesky(gram - tau * np.eye(size))
    except np.linalg.LinAlgError:
        raise DegenerateBasisError(_degenerate_terms(gram, max_terms, tau)) from None
    coef = np.linalg.solve(gram, b)
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

    The kept coefficients times one (2r, N) block of their cos rows, then
    sin rows, filled in place: no stacked copy, and contiguous rows keep
    numpy's vectorized cos/sin loops in use.
    """
    if not 0 <= r <= m.max_terms:
        raise ValueError(f"r must lie in [0, {m.max_terms}], got {r}")
    ranking, _ = _entropy_gains(m.energy)
    top = ranking[:r]
    basis = np.empty((2 * r, m.n_samples))
    k = np.arange(1, m.n_samples + 1, dtype=np.float64)
    arg = np.outer(top + 1.0, k) * m.omega
    np.cos(arg, out=basis[:r])
    np.sin(arg, out=basis[r:])
    return Series(m.eta0 + np.concatenate([m.alpha[top], m.beta[top]]) @ basis)


def denoise(s: Series) -> tuple[Series, FourierModel, int]:
    """Fit, entropy-select the order, and rebuild the series.

    omega = 2*pi/P as in angular_frequency (P from _basis_period), and
    the fitted order is min(floor(N/4), 64, floor((P-1)/2)), so no
    harmonic reaches the alias point u = P/2, where columns vanish or
    repeat and the fit would be unidentifiable.
    """
    n = len(s)
    if n < 16:
        raise ValueError(f"need at least 16 samples to denoise, got {n}")
    p = _basis_period(s)
    model = fit_fourier(s, min(n // 4, 64, (p - 1) // 2), omega=2.0 * np.pi / p)
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
