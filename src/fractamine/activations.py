"""Activation zoo: the trainable sital nonlinearity plus eleven baselines.

Every kind ships an analytic derivative so the trainer and the
gradient-check harness never fall back to numeric differentiation.
Piecewise kinds report their non-differentiable points through
breakpoints(); at such a point apply_derivative returns the right-hand
derivative.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ActivationSpec",
    "KINDS",
    "sital",
    "sital_derivative",
    "apply",
    "apply_derivative",
    "breakpoints",
]


_DEFAULT_PARAMS: dict[str, dict[str, float]] = {
    "sital": {"gamma": 1.0, "eta": 1.0},
    "gelu": {},
    "relu": {},
    "leaky_relu": {"alpha": 0.01},
    "sigmoid": {},
    "tanh": {},
    "elu": {"alpha": 1.0},
    "selu": {"lam": 1.0507, "alpha": 1.67326},
    "softplus": {},
    "swish": {"beta": 1.0},
    "rsigelud": {"alpha": 0.05, "beta": 0.2},
    # defaults are placeholders, the source reference is unavailable
    "kdac": {"beta1": 1.0, "beta2": 0.1, "mu": 0.01},
}

KINDS = tuple(_DEFAULT_PARAMS)


@dataclass(frozen=True)
class ActivationSpec:
    """A named activation with its parameter set.

    Missing parameters take the recorded defaults. sital enforces
    gamma > eta/4 at construction; that bound keeps the derivative
    strictly positive everywhere (see sital_derivative).
    """

    kind: str
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown activation kind {self.kind!r}")
        merged = dict(_DEFAULT_PARAMS[self.kind])
        for name, value in self.params.items():
            if name not in merged:
                raise ValueError(f"{self.kind} does not take a parameter named {name!r}")
            merged[name] = float(value)
        for name, value in merged.items():
            if not np.isfinite(value):
                raise ValueError(f"parameter {name} must be finite")
        if self.kind == "sital" and not merged["gamma"] > merged["eta"] / 4.0:
            raise ValueError(
                f"sital requires gamma > eta/4, got gamma={merged['gamma']}, eta={merged['eta']}"
            )
        if self.kind == "kdac" and merged["mu"] <= 0:
            raise ValueError("kdac requires mu > 0")
        object.__setattr__(self, "params", merged)


def _sigmoid(x):
    # exp(-logaddexp(0, -x)) = 1/(1+e^-x), overflow-free on both tails
    return np.exp(-np.logaddexp(0.0, -np.asarray(x, dtype=np.float64)))


def sital(x, gamma: float, eta: float):
    """gamma*x + tanh(x) * (1 + sigmoid(eta*x))."""
    x = np.asarray(x, dtype=np.float64)
    return gamma * x + np.tanh(x) * (1.0 + _sigmoid(eta * x))


def sital_derivative(x, gamma: float, eta: float):
    """gamma + (1 - tanh^2 x)(1 + sigmoid(eta x)) + tanh(x) * eta * sig * (1 - sig).

    The first correction term is nonnegative and the second is bounded
    by eta/4 in magnitude, so the whole expression stays at or above
    gamma - eta/4.
    """
    x = np.asarray(x, dtype=np.float64)
    t = np.tanh(x)
    sig = _sigmoid(eta * x)
    return gamma + (1.0 - t * t) * (1.0 + sig) + t * eta * sig * (1.0 - sig)


def _sital_param_partials(x, gamma: float, eta: float):
    """(d/dgamma, d/deta) of sital, used by the trainable-parameter op."""
    x = np.asarray(x, dtype=np.float64)
    sig = _sigmoid(eta * x)
    return x, np.tanh(x) * x * sig * (1.0 - sig)


_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)
_GELU_CUBIC = 0.044715


def _kdac_forward(x, beta1: float, beta2: float, mu: float):
    """Smooth-min of tanh and beta1*x, then smooth-max with beta2*x.

    The printed quadratic blend diverges once the two arguments are
    more than mu apart, so the blend weights zeta and xi are clamped to
    [0, 1]; outside the mu-band the composition is the exact min/max
    and inside it is the classic polynomial smoothing. Returns the
    value and the two clamped weights for the derivative.
    """
    t = np.tanh(x)
    f1 = beta1 * x
    zeta = np.clip(0.5 + (t - f1) / (2.0 * mu), 0.0, 1.0)
    inner = t + zeta * (f1 - t) + mu * zeta * zeta - mu * zeta
    f2 = beta2 * x
    xi = np.clip(0.5 + (f2 - inner) / (2.0 * mu), 0.0, 1.0)
    outer = inner + xi * (f2 - inner) - mu * xi * xi + mu * xi
    return outer, zeta, xi


def apply(spec: ActivationSpec, x):
    """Evaluate the activation elementwise."""
    x = np.asarray(x, dtype=np.float64)
    p = spec.params
    kind = spec.kind
    if kind == "sital":
        return sital(x, p["gamma"], p["eta"])
    if kind == "gelu":
        g = _SQRT_2_OVER_PI * (x + _GELU_CUBIC * x**3)
        return 0.5 * x * (1.0 + np.tanh(g))
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "leaky_relu":
        return np.where(x >= 0, x, p["alpha"] * x)
    if kind == "sigmoid":
        return _sigmoid(x)
    if kind == "tanh":
        return np.tanh(x)
    if kind == "elu":
        return np.where(x >= 0, x, p["alpha"] * np.expm1(np.minimum(x, 0.0)))
    if kind == "selu":
        return p["lam"] * np.where(x >= 0, x, p["alpha"] * np.expm1(np.minimum(x, 0.0)))
    if kind == "softplus":
        # log(1 + e^x) stabilized as max(x, 0) + log1p(e^-|x|)
        return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    if kind == "swish":
        return x * _sigmoid(p["beta"] * x)
    if kind == "rsigelud":
        upper = p["alpha"] * x * _sigmoid(x) + x
        lower = p["beta"] * np.expm1(np.minimum(x, 0.0))
        return np.where(x > 1, upper, np.where(x >= 0, x, lower))
    if kind == "kdac":
        out, _, _ = _kdac_forward(x, p["beta1"], p["beta2"], p["mu"])
        return out
    raise ValueError(f"unknown activation kind {kind!r}")


def apply_derivative(spec: ActivationSpec, x):
    """Analytic elementwise derivative; right-hand value at breakpoints."""
    x = np.asarray(x, dtype=np.float64)
    p = spec.params
    kind = spec.kind
    if kind == "sital":
        return sital_derivative(x, p["gamma"], p["eta"])
    if kind == "gelu":
        g = _SQRT_2_OVER_PI * (x + _GELU_CUBIC * x**3)
        t = np.tanh(g)
        dg = _SQRT_2_OVER_PI * (1.0 + 3.0 * _GELU_CUBIC * x * x)
        return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dg
    if kind == "relu":
        return np.where(x >= 0, 1.0, 0.0)
    if kind == "leaky_relu":
        return np.where(x >= 0, 1.0, p["alpha"])
    if kind == "sigmoid":
        s = _sigmoid(x)
        return s * (1.0 - s)
    if kind == "tanh":
        t = np.tanh(x)
        return 1.0 - t * t
    if kind == "elu":
        return np.where(x >= 0, 1.0, p["alpha"] * np.exp(np.minimum(x, 0.0)))
    if kind == "selu":
        return p["lam"] * np.where(x >= 0, 1.0, p["alpha"] * np.exp(np.minimum(x, 0.0)))
    if kind == "softplus":
        return _sigmoid(x)
    if kind == "swish":
        s = _sigmoid(p["beta"] * x)
        return s + p["beta"] * x * s * (1.0 - s)
    if kind == "rsigelud":
        s = _sigmoid(x)
        upper = p["alpha"] * s * (1.0 + x * (1.0 - s)) + 1.0
        lower = p["beta"] * np.exp(np.minimum(x, 0.0))
        return np.where(x > 1, upper, np.where(x >= 0, 1.0, lower))
    if kind == "kdac":
        _, zeta, xi = _kdac_forward(x, p["beta1"], p["beta2"], p["mu"])
        t = np.tanh(x)
        # envelope property: the blend weight's own x-dependence cancels
        d_inner = (1.0 - zeta) * (1.0 - t * t) + zeta * p["beta1"]
        return (1.0 - xi) * d_inner + xi * p["beta2"]
    raise ValueError(f"unknown activation kind {kind!r}")


def breakpoints(spec: ActivationSpec) -> tuple[float, ...]:
    """x values where the derivative jumps and finite differences lie.

    elu with alpha = 1 and kdac are C1 at their seams, so they report
    none.
    """
    if spec.kind in ("relu", "leaky_relu"):
        return (0.0,)
    if spec.kind == "rsigelud":
        return (0.0, 1.0)
    if spec.kind == "selu":
        return (0.0,)  # derivative jumps from lam*alpha to lam
    if spec.kind == "elu" and spec.params["alpha"] != 1.0:
        return (0.0,)
    return ()
