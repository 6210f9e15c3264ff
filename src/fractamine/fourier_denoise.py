"""Fourier-series least-squares denoising with entropy order selection.

The basis frequency comes from the series itself: omega = 2*pi/T where
T counts adjacent sign changes, or 2*pi/N when T < 3. Coefficients are
fitted by ordinary least squares against {1, cos(u*omega*k),
sin(u*omega*k)}, per-term energies are normalized into a probability
distribution, and the truncation order is the first reversal of the
per-term entropy gain along the energy-descending ranking.
"""
from __future__ import annotations

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


def _aliased_terms(period: int, max_terms: int) -> list[int]:
    """Harmonics whose columns vanish or repeat at omega = 2*pi/period.

    Harmonic u has the columns cos(f*omega*k) and +-sin(f*omega*k) for
    its folded frequency f = min(u mod P, P - u mod P). At f = 0 its cos
    column is the constant column and its sin column vanishes; at
    2f = P its sin column vanishes; and harmonics of equal f have equal
    or negated columns. Any other set of harmonics has distinct f in
    (0, P/2), and their columns are orthogonal over each period.
    """
    u = np.arange(1, max_terms + 1)
    f = np.minimum(u % period, period - u % period)
    shared = np.bincount(f)[f] > 1
    return [int(v) for v in u[(f == 0) | (2 * f == period) | shared]]


def _power_sums(y: np.ndarray, period: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """C_v(j) and S_v(j), the sums of v_k cos(j*omega*k) and v_k sin(j*omega*k).

    omega = 2*pi/period, k runs over 1..N and j over 0..count-1, for
    v = 1 (row 0 of each (2, count) result) and v = y (row 1). They are
    the real and imaginary parts of P_v(j) = sum_k v_k exp(i*j*omega*k).
    Every phase repeats with period P in k, so with F_v[r] the sum of v_k
    over k = r mod P,

        P_v(j) = sum_r F_v[r] * exp(2*pi*i*j*r/P) = conj(rfft(F_v)[j mod P]),

    and a bin g = j mod P above P/2 is read as the conjugate of bin
    P - g, since F_v is real. The fold is two bincounts and the rest one
    real FFT of length P; no phase is evaluated.
    """
    residue = np.arange(1, y.size + 1) % period
    folded = np.stack(
        [np.bincount(residue, minlength=period), np.bincount(residue, weights=y, minlength=period)]
    )
    spectrum = np.fft.rfft(folded)
    g = np.arange(count) % period
    f = np.minimum(g, period - g)
    return spectrum.real[:, f], np.where(g > f, 1.0, -1.0) * spectrum.imag[:, f]


def _normal_equations(y: np.ndarray, period: int, max_terms: int) -> tuple[np.ndarray, np.ndarray]:
    """G = X^T X and b = X^T y of the design, from power sums alone.

    X has the rows [1, cos(u*omega*k), sin(u*omega*k)] for u = 1..m at
    k = 1..N, omega = 2*pi/period. With C(j) = C_1(j) and S(j) = S_1(j)
    (_power_sums), the product-to-sum identities give every entry of G
    from C and S at j = |u-v| and u+v:
        cos_u cos_v = (C(u-v) + C(u+v)) / 2,
        sin_u sin_v = (C(u-v) - C(u+v)) / 2,
        cos_u sin_v = (S(u+v) - S(u-v)) / 2,
    and the constant row is [N, C(u), S(u)]. b is [C_y(0), C_y(u),
    S_y(u)]. Neither X nor any N-long trigonometric row is formed.
    """
    m = max_terms
    (c, cy), (s, sy) = _power_sums(y, period, 2 * m + 1)
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


def fit_fourier(s: Series, max_terms: int, period: int | None = None) -> FourierModel:
    """Ordinary least squares against the basis of omega = 2*pi/period.

    period defaults to _basis_period(s) and must be an integer in
    [1, N]. Requires N >= 2*max_terms+1 so the coefficients are
    determined. A rank-deficient design (aliased or vanishing harmonics,
    _aliased_terms) raises DegenerateBasisError naming the offending
    terms rather than returning an unidentifiable fit.

    The fit solves the normal equations. The design X (N x (2m+1),
    m = max_terms) is never formed: its Gram matrix G = X^T X, at most
    129 x 129, and b = X^T y follow from the 2m+1 power sums
    sum_k v_k exp(i*j*omega*k) of v = 1 and v = y (_normal_equations),
    as in Fourier-detrended fluctuation analysis (Chianca, Ticona and
    Penna 2005), and the solve is coef = solve(G, b).

    No numerical rank test is needed. Rows k and k + P of X are equal.
    Without aliasing, the columns of the first P rows are orthogonal,
    with squared norms P (constant) and P/2 (cos and sin), so their Gram
    matrix G_P has eigenvalues P/2 and P. With N = qP + r, 0 <= r < P,
    G is q*G_P plus the Gram matrix of r rows of one more period, which
    lies between 0 and G_P; so q*G_P <= G <= (q+1)*G_P and
    cond(G) <= 2(q+1)/q <= 4, that is cond(X) <= 2.
    """
    n = len(s)
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    if n < 2 * max_terms + 1:
        raise ValueError(f"need N >= 2*max_terms+1 = {2 * max_terms + 1}, got N = {n}")
    if period is None:
        period = _basis_period(s)
    elif not isinstance(period, (int, np.integer)) or not 1 <= period <= n:
        raise ValueError(f"period must be an integer in [1, N = {n}], got {period!r}")
    aliased = _aliased_terms(period, max_terms)
    if aliased:
        raise DegenerateBasisError(aliased)
    coef = np.linalg.solve(*_normal_equations(s.values, period, max_terms))
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
        omega=2.0 * np.pi / period,
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

    The basis period P is _basis_period's, as in angular_frequency, and
    the fitted order is min(floor(N/4), 64, floor((P-1)/2)), so no
    harmonic reaches the alias point u = P/2, where columns vanish or
    repeat and the fit would be unidentifiable.
    """
    n = len(s)
    if n < 16:
        raise ValueError(f"need at least 16 samples to denoise, got {n}")
    p = _basis_period(s)
    model = fit_fourier(s, min(n // 4, 64, (p - 1) // 2), period=p)
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
