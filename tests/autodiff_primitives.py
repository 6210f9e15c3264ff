"""Elementwise autodiff nodes that the package's fused ops replaced.

The fused-op oracles, the reverse-sweep DAG test and the backward tests
in test_autodiff.py compose these; nothing in the package calls them.
"""
import numpy as np

from fractamine.activations import _sigmoid
from fractamine.autodiff import DiffArray, _unbroadcast


def add(a: DiffArray, b: DiffArray) -> DiffArray:
    return DiffArray(
        a.data + b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)),
    )


def sub(a: DiffArray, b: DiffArray) -> DiffArray:
    return DiffArray(
        a.data - b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)),
    )


def mul(a: DiffArray, b: DiffArray) -> DiffArray:
    return DiffArray(
        a.data * b.data,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)),
    )


def tanh(t: DiffArray) -> DiffArray:
    out = np.tanh(t.data)
    return DiffArray(out, (t,), lambda g: (g * (1.0 - out * out),))


def sigmoid(t: DiffArray) -> DiffArray:
    out = _sigmoid(t.data)
    return DiffArray(out, (t,), lambda g: (g * out * (1.0 - out),))
