"""Minimal reverse-mode automatic differentiation over float64 arrays.

Each DiffArray node records a tuple of parents and one vector-Jacobian
product: vjp(g) returns one gradient per parent, in parent order.
Every node also takes a creation serial, and since an op builds its node
after its parents exist, creation order is a topological order.
backward() therefore needs no graph search: it visits the reached nodes
in reverse creation order, calls each node's vjp once and accumulates
the results into the parents (the reverse sweep of Griewank & Walther,
Evaluating Derivatives, 2nd ed., ch. 3). Recurrent and convolution
layers are fused ops with hand-written backward passes so graph
bookkeeping stays off the per-timestep path, and an activation node's
backward pass reads the tanh and logistic its forward computed (the
derivative function of activations.forms or sital_forms) rather than
evaluating them again. In the recurrent op the Python loop over time
steps carries only the recurrence: the input projection and the weight
and input gradients are whole-sequence matrix products outside it. One
call runs every direction of a layer in that loop: the gate columns
interleave the directions, as [i_f i_b | f_f f_b | g_f g_b | o_f o_b],
and the recurrent product is one GEMV with the block-diagonal matrix of
their recurrent weights. Each step takes every gate value from one tanh
over all of its pre-activations, through sigmoid(z) = 1/2 + tanh(z/2)/2:
the loop is bound by the cost of each numpy call, not by arithmetic,
since the arrays are small. The fused kernels use only GEMMs, slices and
ufuncs, not numpy's Python-level helpers.
"""
from __future__ import annotations

import heapq
import itertools

import numpy as np

from .activations import ActivationSpec, _sigmoid, forms, sital_forms

__all__ = [
    "DiffArray",
    "add",
    "sub",
    "mul",
    "matmul",
    "tanh",
    "sigmoid",
    "activation",
    "sital_op",
    "narrow",
    "concat",
    "reshape",
    "reduce_max",
    "mean_all",
    "softmax",
    "cross_entropy",
    "lstm_layer",
    "conv1d",
    "maxpool",
    "grad_check",
]


_SERIALS = itertools.count()  # creation order; parents come before consumers


class DiffArray:
    """A value in the computation graph with a gradient slot.

    parents is a tuple of nodes; vjp(g) maps the gradient of this node
    to a tuple holding one gradient per parent, in the same order.
    """

    __slots__ = ("data", "grad", "_parents", "_vjp", "_serial")

    def __init__(self, data, parents=(), vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._vjp = vjp
        self._serial = next(_SERIALS)

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"DiffArray(shape={self.data.shape})"

    def backward(self):
        """Accumulate gradients of this scalar into every ancestor.

        Call it once per graph: grad None marks a node not yet reached,
        so non-leaf nodes must start without one. Leaf gradients add to
        what they hold (ModelParams.zero_grads clears them).
        """
        if self.data.ndim != 0 and self.data.size != 1:
            raise ValueError("backward() starts from a scalar value")
        self.grad = np.ones_like(self.data)
        heap = [(-self._serial, self)] if self._parents else []
        while heap:
            node = heapq.heappop(heap)[1]
            for parent, g in zip(node._parents, node._vjp(node.grad)):
                if parent.grad is None:
                    parent.grad = g
                    if parent._parents:
                        heapq.heappush(heap, (-parent._serial, parent))
                else:
                    parent.grad = parent.grad + g


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum-reduce a broadcast gradient back to the parent shape.

    A gradient of that shape is returned as is, so nodes may share an
    array; no VJP writes into a gradient in place.
    """
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


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


def matmul(a: DiffArray, b: DiffArray) -> DiffArray:
    return DiffArray(a.data @ b.data, (a, b), lambda g: _matmul_vjp(g, a.data, b.data))


def _matmul_vjp(g, a, b):
    # a vector operand's gradient is an outer product; multiply.outer also
    # covers the vector-vector case, where g is a scalar
    da = np.multiply.outer(g, b) if b.ndim == 1 else g @ b.T
    db = np.multiply.outer(a, g) if a.ndim == 1 else a.T @ g
    return da, db


def tanh(t: DiffArray) -> DiffArray:
    out = np.tanh(t.data)
    return DiffArray(out, (t,), lambda g: (g * (1.0 - out * out),))


def sigmoid(t: DiffArray) -> DiffArray:
    out = _sigmoid(t.data)
    return DiffArray(out, (t,), lambda g: (g * out * (1.0 - out),))


def activation(t: DiffArray, spec: ActivationSpec) -> DiffArray:
    """Fixed-parameter activation; for trainable sital use sital_op."""
    out, derivative = forms(spec, t.data)
    return DiffArray(out, (t,), lambda g: (g * derivative(),))


def sital_op(t: DiffArray, gamma: DiffArray, eta: DiffArray) -> DiffArray:
    """sital with gradients into x and both trainable parameters."""
    out, partials = sital_forms(t.data, float(gamma.data), float(eta.data))

    def vjp(g):
        dx, dgamma, deta = partials()
        return g * dx, np.array(np.sum(g * dgamma)), np.array(np.sum(g * deta))

    return DiffArray(out, (t, gamma, eta), vjp)


def narrow(t: DiffArray, axis: int, start: int, length: int) -> DiffArray:
    index = [slice(None)] * t.data.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)

    def vjp(g):
        out = np.zeros_like(t.data)
        out[index] = g
        return (out,)

    return DiffArray(t.data[index], (t,), vjp)


def concat(parts: list[DiffArray], axis: int) -> DiffArray:
    bounds = list(itertools.accumulate((p.data.shape[axis] for p in parts), initial=0))
    lead = (slice(None),) * (axis % parts[0].data.ndim)
    return DiffArray(
        np.concatenate([p.data for p in parts], axis=axis),
        tuple(parts),
        lambda g: tuple(g[lead + (slice(a, b),)] for a, b in zip(bounds, bounds[1:])),
    )


def reshape(t: DiffArray, shape: tuple) -> DiffArray:
    old = t.data.shape
    return DiffArray(t.data.reshape(shape), (t,), lambda g: (g.reshape(old),))


def reduce_max(t: DiffArray, axis: int) -> DiffArray:
    """Max along one axis; gradient flows to the first max position."""
    idx = np.argmax(t.data, axis=axis)
    where = list(np.indices(idx.shape, sparse=True))
    where.insert(axis % t.data.ndim, idx)
    where = tuple(where)

    def vjp(g):
        full = np.zeros_like(t.data)
        full[where] = g
        return (full,)

    return DiffArray(t.data[where], (t,), vjp)


def mean_all(t: DiffArray) -> DiffArray:
    n = t.data.size
    return DiffArray(
        np.asarray(t.data.mean()), (t,), lambda g: (np.full_like(t.data, float(g) / n),)
    )


def softmax(t: DiffArray) -> DiffArray:
    """Softmax over the last axis."""
    z = t.data - t.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = np.sum(g * out, axis=-1, keepdims=True)
        return (out * (g - dot),)

    return DiffArray(out, (t,), vjp)


def cross_entropy(logits: DiffArray, labels) -> DiffArray:
    """Mean cross-entropy from raw scores.

    logits is either a length-K vector with an integer label or an
    (n, K) matrix with n integer labels; computed through logsumexp so
    large scores stay finite.
    """
    z = logits.data
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    z2 = np.atleast_2d(z)
    if labels.shape[0] != z2.shape[0]:
        raise ValueError("label count does not match logit rows")
    m = z2.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z2 - m).sum(axis=1))
    picked = z2[np.arange(z2.shape[0]), labels]
    loss = float(np.mean(lse - picked))

    def vjp(g):
        soft = np.exp(z2 - m)
        soft /= soft.sum(axis=1, keepdims=True)
        soft[np.arange(z2.shape[0]), labels] -= 1.0
        soft *= float(g) / z2.shape[0]
        return (soft.reshape(z.shape),)

    return DiffArray(np.asarray(loss), (logits,), vjp)


def lstm_layer(x: DiffArray, wx, wh, b, reverse=False) -> DiffArray:
    """Recurrent passes over an (n, d) sequence, all directions in one time loop.

    One direction takes wx (d, 4h), wh (h, 4h) and b (4h,), with gate
    layout [input, forget, cell, output] along the columns, and a bool
    reverse; it returns the (n, h) hidden-state sequence. D directions
    take sequences of D weights each and of D flags, and return the
    (n, D*h) concatenation of their states in that order. Boundary
    hidden and cell states are zero; a reverse direction processes the
    sequence back to front and returns its states in input order.

    Step t of the loop is step t of every direction in its own time
    order (input row n-1-t for a reverse one). The gate columns are
    interleaved, [i_1..i_D | f_1..f_D | g_1..g_D | o_1..o_D], so each
    gate is one contiguous D*h block, the cell and hidden states are one
    D*h vector, and the recurrent product is one GEMV with the
    block-diagonal (D*h, 4*D*h) matrix built from the wh. A step makes
    the same numpy calls for any D.

    The gates come from one tanh per step: with sigmoid(z) =
    1/2 + tanh(z/2)/2, the i, f and o columns of the input projection
    and of the recurrent matrix are halved once per call (exact, a power
    of two), and a step applies tanh to all 4*D*h pre-activations and
    then one multiply and one add of per-column constants: three numpy
    calls where a logistic of every block and a separate tanh of the
    cell block took six. The gate values agree with the logistic
    exp(-logaddexp(0, -z)) to about one ulp of 1/2 in absolute terms,
    so a gate below about 1e-16 comes out as exactly 0.
    The backward pass reads the stored gate values and the unhalved
    recurrent weights, so it is unchanged.

    The loops over time steps do only the recurrent work. Each
    direction's input projection x @ wx + b is one (n, d) x (d, 4h)
    product ahead of the forward loop. The backward pass computes every
    factor that does not depend on the recurrence for all steps at once,
    carries dh and dc through the loop while it fills the gate gradient
    dz, and forms each direction's dx, dwx, dwh and db from its columns
    of dz, in its own time order, with one product or sum each.
    """
    if isinstance(wx, DiffArray):
        wx, wh, b, reverse = (wx,), (wh,), (b,), (reverse,)
    dirs = len(wx)
    if not len(wh) == len(b) == len(reverse) == dirs:
        raise ValueError("give one wx, wh, b and reverse flag per direction")
    n = x.data.shape[0]
    h4 = wx[0].data.shape[1]
    if h4 % 4 != 0:
        raise ValueError("gate weight width must be a multiple of 4")
    h = h4 // 4
    hd = dirs * h  # width of one gate block and of the states

    inputs = [x.data[::-1] if rev else x.data for rev in reverse]
    gates = np.empty((n, 4, dirs, h))  # pre-activations, then gate values in place
    w_rec = np.zeros((dirs, h, 4, dirs, h))
    for k in range(dirs):
        gates[:, :, k] = (inputs[k] @ wx[k].data + b[k].data).reshape(n, 4, h)
        w_rec[k, :, :, k] = wh[k].data.reshape(h, 4, h)
    gates = gates.reshape(n, 4 * hd)
    w_rec = w_rec.reshape(hd, 4 * hd)
    gain = np.repeat([0.5, 0.5, 1.0, 0.5], hd)  # i, f, g, o
    offset = 1.0 - gain
    gates *= gain
    w_half = w_rec * gain
    cells = np.empty((n, hd))
    tanh_c = np.empty((n, hd))
    hidden = np.empty((n, hd))
    h_prev = np.zeros(hd)
    c_prev = np.zeros(hd)
    for t in range(n):
        z = gates[t]
        z += h_prev @ w_half
        np.tanh(z, out=z)
        z *= gain
        z += offset
        c_prev = np.multiply(z[hd : 2 * hd], c_prev, out=cells[t])
        c_prev += z[:hd] * z[2 * hd : 3 * hd]
        np.tanh(c_prev, out=tanh_c[t])
        h_prev = np.multiply(z[3 * hd :], tanh_c[t], out=hidden[t])

    def flip_reversed(seq):
        """Reverse in time the columns of every reverse direction: this maps
        (n, D*h) rows from loop order to input order, and back."""
        out = np.empty((n, dirs, h))
        for k, rev in enumerate(reverse):
            part = seq[:, k * h : (k + 1) * h]
            out[:, k] = part[::-1] if rev else part
        return out.reshape(n, hd)

    def vjp(grad_out):
        gh = flip_reversed(grad_out)
        i_g, f_g, g_g, o_g = (gates[:, k * hd : (k + 1) * hd] for k in range(4))
        c_old = np.concatenate([np.zeros((1, hd)), cells[:-1]])
        # dz[t] = [dc, dc, dc, dh] * factors[t], per gate block
        factors = np.empty((n, 4, hd))
        np.multiply(g_g, i_g * (1.0 - i_g), out=factors[:, 0])
        np.multiply(c_old, f_g * (1.0 - f_g), out=factors[:, 1])
        np.multiply(i_g, 1.0 - g_g * g_g, out=factors[:, 2])
        np.multiply(tanh_c, o_g * (1.0 - o_g), out=factors[:, 3])
        dc_dh = o_g * (1.0 - tanh_c * tanh_c)
        dz = np.empty((n, 4, hd))
        dz_rows = dz.reshape(n, 4 * hd)
        w_rec_t = w_rec.T
        dh_next = np.zeros(hd)
        dc_next = np.zeros(hd)
        for t in range(n - 1, -1, -1):
            dh = gh[t] + dh_next
            dc = dc_next + dh * dc_dh[t]
            np.multiply(factors[t, :3], dc, out=dz[t, :3])
            np.multiply(factors[t, 3], dh, out=dz[t, 3])
            dh_next = dz_rows[t] @ w_rec_t
            dc_next = dc * f_g[t]
        grads = []
        for k, rev in enumerate(reverse):
            dz_k = dz.reshape(n, 4, dirs, h)[:, :, k].reshape(n, h4)
            dx_k = dz_k @ wx[k].data.T
            dx_k = dx_k[::-1] if rev else dx_k
            dx = dx_k if k == 0 else dx + dx_k
            dwh = hidden[:-1, k * h : (k + 1) * h].T @ dz_k[1:]  # the state before step 0 is zero
            grads += [inputs[k].T @ dz_k, dwh, dz_k.sum(axis=0)]
        return (dx, *grads)

    parents = (x, *(t for k in range(dirs) for t in (wx[k], wh[k], b[k])))
    return DiffArray(flip_reversed(hidden), parents, vjp)


def conv1d(
    x: DiffArray,
    kernels: DiffArray,
    bias: DiffArray,
    same_length: bool = False,
) -> DiffArray:
    """1-D convolution over an (L, C) sequence.

    kernels has shape (width, C, F). Valid mode shortens the sequence
    to L-width+1; same_length zero-pads so per-position outputs survive
    for the tagging variant.

    Row t of `stacked` (Lo, width*C) is the window x[t : t+width] laid
    end to end, so the forward pass is one GEMM. The kernel gradient
    multiplies a channel-major copy of it (stacked.T @ g sums in another
    order). Output and gradients are bit-identical to a contraction over
    a sliding-window view for C >= 2, and within a few ulps for C = 1.
    """
    w, c_in, n_f = kernels.data.shape
    xd = x.data
    pad_left = 0
    if same_length:
        pad_left = (w - 1) // 2
        pad_right = w - 1 - pad_left
        xd = np.pad(xd, ((pad_left, pad_right), (0, 0)))
    if xd.shape[0] < w:
        raise ValueError(f"sequence length {x.data.shape[0]} shorter than kernel width {w}")
    if xd.shape[1] != c_in:
        raise ValueError(f"channel mismatch: input {xd.shape[1]}, kernels expect {c_in}")
    lo = xd.shape[0] - w + 1
    stacked = np.concatenate([xd[dw : dw + lo] for dw in range(w)], axis=1)  # (Lo, w*C)
    out = stacked @ kernels.data.reshape(w * c_in, n_f) + bias.data

    def vjp(g):
        spread = (g @ kernels.data.transpose(2, 0, 1).reshape(n_f, w * c_in)).reshape(lo, w, c_in)
        dx = np.zeros_like(xd)
        for dw in range(w):
            dx[dw : dw + lo] += spread[:, dw, :]
        if same_length:
            dx = dx[pad_left : pad_left + x.data.shape[0]]
        rows = stacked.reshape(lo, w, c_in).transpose(2, 1, 0).reshape(c_in * w, lo)
        dk = (rows @ g).reshape(c_in, w, n_f)
        return dx, dk.transpose(1, 0, 2), g.sum(axis=0)

    return DiffArray(out, (x, kernels, bias), vjp)


def maxpool(t: DiffArray, size: int = 2, stride: int = 2) -> DiffArray:
    """Max-pool along the length axis of an (L, C) sequence, floor mode.

    The first maximum of each block takes the gradient (reduce_max).
    """
    if size != stride:
        raise ValueError("only size == stride pooling is supported")
    ld, c = t.data.shape
    lo = ld // size
    if lo < 1:
        raise ValueError(f"sequence length {ld} shorter than pool size {size}")
    blocks = reshape(narrow(t, 0, 0, lo * size), (lo, size, c))
    return reduce_max(blocks, axis=1)


def grad_check(op_handle, point: list[DiffArray], h: float = 1e-5, skip=None) -> float:
    """Worst relative disagreement between analytic and numeric gradients.

    op_handle maps the tensors in `point` to a scalar DiffArray.
    Central differences with step h are compared elementwise against
    the analytic gradient using the denominator max(|g|, |fd|, 1e-8).
    skip(tensor_index, flat_index, value) -> bool excludes elements
    sitting on non-differentiable breakpoints.
    """
    out = op_handle(*point)
    for t in point:
        t.grad = None
    out.backward()
    analytic = [
        np.zeros_like(t.data) if t.grad is None else np.asarray(t.grad, dtype=np.float64)
        for t in point
    ]

    worst = 0.0
    for ti, t in enumerate(point):
        flat = t.data.reshape(-1)
        for fi in range(flat.size):
            if skip is not None and skip(ti, fi, float(flat[fi])):
                continue
            keep = float(flat[fi])
            flat[fi] = keep + h
            up = float(op_handle(*point).data)
            flat[fi] = keep - h
            down = float(op_handle(*point).data)
            flat[fi] = keep
            fd = (up - down) / (2.0 * h)
            g = float(analytic[ti].reshape(-1)[fi])
            err = abs(g - fd) / max(abs(g), abs(fd), 1e-8)
            worst = max(worst, err)
    return worst
