import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from numpy.testing import assert_allclose

import fractamine.autodiff as ad
from fractamine import activations
from fractamine.activations import (
    KINDS, ActivationSpec, apply, apply_derivative, breakpoints, sital, sital_derivative,
)
from fractamine.autodiff import DiffArray, grad_check
from fractamine.multifractal import MfaConfig
from fractamine.neuralnet import ModelConfig, birnn_forward, deffsi_forward, hurst_features, init_params
from fractamine.series import synth_embedded_corpus
from fractamine.training import TrainConfig, train


def leaf(values):
    return DiffArray(np.asarray(values, dtype=np.float64))


RNG = np.random.default_rng(42)


def lstm_loop_oracle(x, wx, wh, b, grad_out, reverse=False):
    """The per-step LSTM loop that lstm_layer replaced, forward and VJP.

    Returns the (n, h) hidden states in input order and the gradients
    (dx, dwx, dwh, db) of sum(grad_out * hidden).
    """
    xd = x[::-1] if reverse else x
    n = xd.shape[0]
    h = wx.shape[1] // 4
    gates = np.empty((n, 4 * h))
    cells = np.empty((n, h))
    tanh_c = np.empty((n, h))
    hidden = np.empty((n, h))
    h_prev = np.zeros(h)
    c_prev = np.zeros(h)
    for t in range(n):
        z = xd[t] @ wx + h_prev @ wh + b
        zi = np.exp(-np.logaddexp(0.0, -z[: 2 * h]))
        zg = np.tanh(z[2 * h : 3 * h])
        zo = np.exp(-np.logaddexp(0.0, -z[3 * h :]))
        gates[t, : 2 * h] = zi
        gates[t, 2 * h : 3 * h] = zg
        gates[t, 3 * h :] = zo
        c_prev = zi[h:] * c_prev + zi[:h] * zg
        cells[t] = c_prev
        tanh_c[t] = np.tanh(c_prev)
        h_prev = zo * tanh_c[t]
        hidden[t] = h_prev

    gh = grad_out[::-1] if reverse else grad_out
    dwx = np.zeros_like(wx)
    dwh = np.zeros_like(wh)
    db = np.zeros_like(b)
    dx = np.zeros_like(xd)
    dh_next = np.zeros(h)
    dc_next = np.zeros(h)
    for t in range(n - 1, -1, -1):
        i_g = gates[t, :h]
        f_g = gates[t, h : 2 * h]
        g_g = gates[t, 2 * h : 3 * h]
        o_g = gates[t, 3 * h :]
        c_old = cells[t - 1] if t > 0 else np.zeros(h)
        h_old = hidden[t - 1] if t > 0 else np.zeros(h)
        dh = gh[t] + dh_next
        do = dh * tanh_c[t]
        dc = dc_next + dh * o_g * (1.0 - tanh_c[t] ** 2)
        di = dc * g_g
        df = dc * c_old
        dg = dc * i_g
        dz = np.concatenate(
            [
                di * i_g * (1.0 - i_g),
                df * f_g * (1.0 - f_g),
                dg * (1.0 - g_g * g_g),
                do * o_g * (1.0 - o_g),
            ]
        )
        dwx += np.outer(xd[t], dz)
        dwh += np.outer(h_old, dz)
        db += dz
        dx[t] = dz @ wx.T
        dh_next = dz @ wh.T
        dc_next = dc * f_g
    if reverse:
        dx = dx[::-1]
        hidden = hidden[::-1]
    return hidden, dx, dwx, dwh, db


def dfs_backward_oracle(root):
    """The sweep that backward() replaced: a two-state depth-first search
    builds a topological order on every call, and the nodes are visited
    in its reverse. Returns the nodes in visiting order."""
    topo = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node.grad is None or not node._parents:
            continue
        for parent, g in zip(node._parents, node._vjp(node.grad)):
            parent.grad = g if parent.grad is None else parent.grad + g
    return topo[::-1]


def maxpool_oracle(t, size=2, stride=2):
    """The single maxpool node that the narrow/reshape/reduce_max
    composition replaced."""
    if size != stride:
        raise ValueError("only size == stride pooling is supported")
    ld, c = t.data.shape
    lo = ld // size
    blocks = t.data[: lo * size].reshape(lo, size, c)
    idx = np.expand_dims(np.argmax(blocks, axis=1), 1)
    out = np.take_along_axis(blocks, idx, axis=1).squeeze(1)

    def vjp(g):
        full = np.zeros_like(blocks)
        np.put_along_axis(full, idx, np.expand_dims(g, 1), axis=1)
        dx = np.zeros_like(t.data)
        dx[: lo * size] = full.reshape(lo * size, c)
        return (dx,)

    return DiffArray(out, (t,), vjp)


def conv1d_window_oracle(x, kernels, bias, same_length=False):
    """The conv1d that the stacked-row GEMM replaced: tensordot over a
    sliding-window view of the (padded) sequence, forward and VJP."""
    w = kernels.data.shape[0]
    xd = x.data
    pad_left = 0
    if same_length:
        pad_left = (w - 1) // 2
        xd = np.pad(xd, ((pad_left, w - 1 - pad_left), (0, 0)))
    windows = sliding_window_view(xd, w, axis=0)  # (Lo, C, w)
    out = np.tensordot(windows, kernels.data, axes=((2, 1), (0, 1))) + bias.data

    def vjp(g):
        spread = np.tensordot(g, kernels.data, axes=((1,), (2,)))  # (Lo, w, C)
        dx = np.zeros_like(xd)
        lo = g.shape[0]
        for dw in range(w):
            dx[dw : dw + lo] += spread[:, dw, :]
        if same_length:
            dx = dx[pad_left : pad_left + x.data.shape[0]]
        dk = np.tensordot(windows, g, axes=((0,), (0,)))  # (C, w, F)
        return dx, dk.transpose(1, 0, 2), g.sum(axis=0)

    return DiffArray(out, (x, kernels, bias), vjp)


def concat_split_oracle(parts, axis):
    """The concat whose VJP np.split replaced."""
    offsets = np.cumsum([p.data.shape[axis] for p in parts])[:-1]
    return DiffArray(
        np.concatenate([p.data for p in parts], axis=axis),
        tuple(parts),
        lambda g: tuple(np.split(g, offsets, axis)),
    )


def reduce_max_along_axis_oracle(t, axis):
    """The reduce_max that gathered and scattered with take/put_along_axis."""
    idx = np.expand_dims(np.argmax(t.data, axis=axis), axis)
    out = np.take_along_axis(t.data, idx, axis=axis).squeeze(axis)

    def vjp(g):
        full = np.zeros_like(t.data)
        np.put_along_axis(full, idx, np.expand_dims(g, axis), axis=axis)
        return (full,)

    return DiffArray(out, (t,), vjp)


def unbroadcast_reshape_oracle(grad, shape):
    """The _unbroadcast that returned a reshaped view of an unbroadcast gradient."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def backprop(out, grad_out):
    """Sweep from out as if the loss were sum(grad_out * out)."""
    DiffArray(0.0, (out,), lambda g: (grad_out,)).backward()


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


DAG_OPS = ("add", "mul", "tanh", "matmul", "concat")


def build_dag(values, steps):
    """Leaves holding values, then one node per (op, parent picks) step.

    Each pick selects an existing node, so parents are shared freely and
    a node may take the same parent twice. "concat" is the block product
    [a b] @ [c; d]. Every node is 3x3; the root is the mean of the last.
    """
    leaves = [leaf(v) for v in values]
    nodes = list(leaves)
    for op, picks in steps:
        a, b, c, d = (nodes[i % len(nodes)] for i in picks)
        if op == "add":
            node = ad.add(a, b)
        elif op == "mul":
            node = ad.mul(a, b)
        elif op == "tanh":
            node = ad.tanh(a)
        elif op == "matmul":
            node = ad.matmul(a, b)
        else:
            node = ad.matmul(ad.concat([a, b], axis=1), ad.concat([c, d], axis=0))
        nodes.append(node)
    return leaves, ad.mean_all(nodes[-1])


class TestReverseSweep:
    """backward() against the depth-first sweep it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(
        n_leaves=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        steps=st.lists(
            st.tuples(st.sampled_from(DAG_OPS), st.tuples(*[st.integers(0, 1000)] * 4)),
            min_size=1,
            max_size=8,
        ),
    )
    def test_random_dags_match_the_dfs_sweep(self, n_leaves, seed, steps):
        # Positive leaves keep every value and gradient positive, so a
        # reordered sum of three or more contributions has a relative
        # error bound; with mixed signs cancellation leaves it none.
        values = np.random.default_rng(seed).uniform(0.25, 1.0, (n_leaves, 3, 3))
        leaves, root = build_dag(values, steps)
        root.backward()
        oracle_leaves, oracle_root = build_dag(values, steps)
        visited = dfs_backward_oracle(oracle_root)
        fan_in = Counter(p._serial for node in visited for p in node._parents)
        for got, want in zip(leaves, oracle_leaves):
            if want.grad is None:
                assert got.grad is None
            elif max(fan_in.values()) <= 2:
                assert same_bits(got.grad, want.grad)
            else:
                assert_allclose(got.grad, want.grad, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("task", ["classification", "tagging"])
    def test_criterion_09_network_gradients_bit_identical(self, task):
        cfg = ModelConfig(
            n_classes=3,
            hidden=16,
            filters=8,
            blocks=1,
            conv_width=2,
            dense_width=16,
            attn_dim=4,
            task=task,
            mfa=MfaConfig(method="mf-dfa", q_grid=np.linspace(-4, 4, 5)),
        )
        doc, label = synth_embedded_corpus(3, 3, 12, 64, 4.0, seed=5).items[0]
        target = np.arange(12) % 3 if task == "tagging" else label
        params = init_params(cfg, embed_dim=64, seed=5)
        fv = hurst_features(doc, cfg)
        grads = []
        for sweep in (DiffArray.backward, dfs_backward_oracle):
            params.zero_grads()
            sweep(ad.cross_entropy(deffsi_forward(doc, cfg, params, fv=fv), target))
            grads.append({name: t.grad for name, t in params.tensors.items()})
        got, want = grads
        assert all(g is not None for g in want.values())
        for name in want:
            assert same_bits(got[name], want[name]), name


class TestBackward:
    def test_scalar_chain(self):
        x = leaf(0.5)
        y = ad.tanh(x)
        z = ad.mul(y, y)
        z.backward()
        assert_allclose(x.grad, 2 * np.tanh(0.5) * (1 - np.tanh(0.5) ** 2), rtol=1e-12)

    def test_diamond_graph_accumulates_once(self):
        # x feeds two paths that rejoin; backward must sum both
        x = leaf(2.0)
        a = ad.mul(x, leaf(3.0))
        b = ad.mul(x, leaf(5.0))
        out = ad.add(a, b)
        out.backward()
        assert_allclose(x.grad, 8.0)

    def test_shared_node_reused_many_times(self):
        x = leaf(1.5)
        y = ad.tanh(x)
        total = y
        for _ in range(10):
            total = ad.add(total, y)
        total.backward()
        assert_allclose(x.grad, 11.0 * (1 - np.tanh(1.5) ** 2), rtol=1e-12)

    def test_deep_chain_no_recursion_limit(self):
        x = leaf(0.1)
        y = x
        for _ in range(5000):
            y = ad.add(y, leaf(0.0))
        y.backward()
        assert_allclose(x.grad, 1.0)

    def test_one_vjp_call_per_node(self):
        # a node whose value reaches the output along two paths, with the
        # same parent listed twice: one vjp call, both entries accumulated
        calls = []
        x = leaf([1.0, 2.0])

        def vjp(g):
            calls.append(g)
            return g * 2.0, g * 3.0

        node = DiffArray(x.data * 5.0, (x, x), vjp)
        ad.mean_all(ad.add(node, ad.tanh(node))).backward()
        assert len(calls) == 1
        assert_allclose(x.grad, 5.0 * calls[0])

    def test_backward_requires_scalar(self):
        x = leaf([1.0, 2.0])
        with pytest.raises(ValueError):
            x.backward()


class TestBroadcasting:
    def test_add_bias_row(self):
        def op(m, b):
            return ad.mean_all(ad.add(m, b))

        assert grad_check(op, [leaf(RNG.standard_normal((4, 3))), leaf(RNG.standard_normal(3))]) < 1e-7

    def test_mul_scalar(self):
        def op(m, c):
            return ad.mean_all(ad.mul(m, c))

        assert grad_check(op, [leaf(RNG.standard_normal((4, 3))), leaf(1.3)]) < 1e-7

    def test_sub(self):
        def op(a, b):
            return ad.mean_all(ad.mul(ad.sub(a, b), ad.sub(a, b)))

        assert grad_check(op, [leaf(RNG.standard_normal(5)), leaf(RNG.standard_normal(5))]) < 1e-6


class TestMatmul:
    def test_2d_2d(self):
        def op(a, b):
            return ad.mean_all(ad.matmul(a, b))

        pt = [leaf(RNG.standard_normal((3, 4))), leaf(RNG.standard_normal((4, 5)))]
        assert grad_check(op, pt) < 1e-7

    def test_1d_2d(self):
        def op(v, m):
            return ad.mean_all(ad.matmul(v, m))

        pt = [leaf(RNG.standard_normal(4)), leaf(RNG.standard_normal((4, 3)))]
        assert grad_check(op, pt) < 1e-7

    def test_2d_1d(self):
        def op(m, v):
            return ad.mean_all(ad.matmul(m, v))

        pt = [leaf(RNG.standard_normal((3, 4))), leaf(RNG.standard_normal(4))]
        assert grad_check(op, pt) < 1e-7

    def test_1d_1d(self):
        def op(u, v):
            return ad.matmul(u, v)

        u, v = leaf(RNG.standard_normal(4)), leaf(RNG.standard_normal(4))
        assert grad_check(op, [u, v]) < 1e-7
        assert u.grad.shape == v.grad.shape == (4,)


class TestShapeOps:
    def test_narrow_concat_inverse(self):
        x = leaf(RNG.standard_normal((6, 3)))
        a = ad.narrow(x, 0, 0, 2)
        b = ad.narrow(x, 0, 2, 4)
        back = ad.concat([a, b], axis=0)
        assert_allclose(back.data, x.data)
        ad.mean_all(back).backward()
        assert_allclose(x.grad, np.full((6, 3), 1 / 18))

    def test_narrow_grad(self):
        def op(x):
            return ad.mean_all(ad.narrow(x, 1, 1, 2))

        assert grad_check(op, [leaf(RNG.standard_normal((3, 5)))]) < 1e-7

    def test_concat_axis1(self):
        def op(a, b):
            return ad.mean_all(ad.concat([a, b], axis=1))

        pt = [leaf(RNG.standard_normal((3, 2))), leaf(RNG.standard_normal((3, 4)))]
        assert grad_check(op, pt) < 1e-7

    def test_reshape(self):
        def op(x):
            return ad.mean_all(ad.mul(ad.reshape(x, (6,)), ad.reshape(x, (6,))))

        assert grad_check(op, [leaf(RNG.standard_normal((2, 3)))]) < 1e-6


class TestReductions:
    def test_reduce_max_grad_flows_to_argmax(self):
        x = leaf(np.array([[1.0, 5.0, 3.0], [2.0, 0.0, 7.0]]))
        out = ad.reduce_max(x, axis=0)
        ad.mean_all(out).backward()
        expected = np.array([[0.0, 1 / 3, 0.0], [1 / 3, 0.0, 1 / 3]])
        assert_allclose(x.grad, expected)

    def test_reduce_max_tie_picks_first(self):
        x = leaf(np.array([[2.0], [2.0]]))
        ad.mean_all(ad.reduce_max(x, axis=0)).backward()
        assert_allclose(x.grad, [[1.0], [0.0]])

    def test_mean_all(self):
        def op(x):
            return ad.mean_all(ad.mul(x, x))

        assert grad_check(op, [leaf(RNG.standard_normal((4, 4)))]) < 1e-6


class TestSoftmaxCrossEntropy:
    def test_softmax_rows_sum_to_one(self):
        x = leaf(RNG.standard_normal((5, 3)))
        s = ad.softmax(x)
        assert_allclose(s.data.sum(axis=-1), 1.0, rtol=1e-12)

    def test_softmax_shift_invariance(self):
        v = RNG.standard_normal(4)
        a = ad.softmax(leaf(v)).data
        b = ad.softmax(leaf(v + 1000.0)).data
        assert_allclose(a, b, rtol=1e-9)

    def test_cross_entropy_vector_grad(self):
        def op(logits):
            return ad.cross_entropy(logits, np.array(2))

        assert grad_check(op, [leaf(RNG.standard_normal(4))]) < 1e-7

    def test_cross_entropy_matrix_grad(self):
        def op(logits):
            return ad.cross_entropy(logits, np.array([0, 2, 1]))

        assert grad_check(op, [leaf(RNG.standard_normal((3, 3)))]) < 1e-7

    def test_cross_entropy_value(self):
        logits = leaf(np.log(np.array([0.2, 0.5, 0.3])))
        loss = ad.cross_entropy(logits, np.array(1))
        assert_allclose(float(loss.data), -np.log(0.5), rtol=1e-12)

    def test_extreme_logits_finite(self):
        loss = ad.cross_entropy(leaf(np.array([1000.0, -1000.0])), np.array(0))
        assert np.isfinite(float(loss.data))
        loss.backward()


class TestActivationOps:
    @pytest.mark.parametrize("kind", [k for k in KINDS if k not in ("relu", "leaky_relu", "rsigelud", "selu")])
    def test_smooth_activation_grads(self, kind):
        spec = ActivationSpec(kind)

        def op(x):
            return ad.mean_all(ad.activation(x, spec))

        assert grad_check(op, [leaf(RNG.standard_normal((3, 4)))]) < 1e-5

    def test_relu_grad_off_breakpoint(self):
        spec = ActivationSpec("relu")

        def op(x):
            return ad.mean_all(ad.activation(x, spec))

        x = leaf(RNG.standard_normal((3, 4)) + 0.05)
        assert grad_check(op, [x], skip=lambda ti, fi, v: abs(v) < 1e-3) < 1e-6

    def test_sital_op_parameter_grads(self):
        def op(x, g, e):
            return ad.mean_all(ad.sital_op(x, g, e))

        pt = [leaf(RNG.standard_normal((4, 3))), leaf(1.2), leaf(0.8)]
        assert grad_check(op, pt) < 1e-6

    def test_sital_op_one_tanh_and_one_logistic_per_forward_and_backward(self, monkeypatch):
        counts = Counter()

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(activations, "_sigmoid", counting("logistic", activations._sigmoid))
        monkeypatch.setattr(np, "tanh", counting("tanh", np.tanh))
        ad.mean_all(ad.sital_op(leaf(RNG.standard_normal((4, 3))), leaf(1.2), leaf(0.8))).backward()
        assert counts == {"logistic": 1, "tanh": 1}

    @pytest.mark.parametrize("kind", KINDS)
    def test_activation_node_matches_apply_bitwise(self, kind):
        spec = ActivationSpec(kind)
        edges = [0.0, 1.0, *breakpoints(spec)]
        x = np.concatenate([[-700.0, 700.0, -1e-300, 1e-300], edges, np.nextafter(edges, -1.0),
                            np.nextafter(edges, 2.0), np.linspace(-6.0, 6.0, 49)])
        g = RNG.standard_normal(x.size)
        node = ad.activation(leaf(x), spec)
        (gx,) = node._vjp(g)
        np.testing.assert_array_equal(node.data, apply(spec, x))
        np.testing.assert_array_equal(gx, g * apply_derivative(spec, x))

    @pytest.mark.parametrize("gamma, eta", [(1.0, 1.0), (1.2, 0.8), (0.3, -1.1)])
    def test_sital_op_matches_closed_forms_bitwise(self, gamma, eta):
        x = np.concatenate([[-700.0, 700.0, -1e-300, 0.0, 1e-300], np.linspace(-6.0, 6.0, 49)])
        g = RNG.standard_normal(x.size)
        node = ad.sital_op(leaf(x), leaf(gamma), leaf(eta))
        gx, dgamma, deta = node._vjp(g)
        sig = activations._sigmoid(eta * x)
        np.testing.assert_array_equal(node.data, sital(x, gamma, eta))
        np.testing.assert_array_equal(gx, g * sital_derivative(x, gamma, eta))
        assert dgamma == np.sum(g * x)
        assert deta == np.sum(g * (np.tanh(x) * x * sig * (1.0 - sig)))


class TestRecurrent:
    def make_point(self, n=5, d=4, h=3):
        return [
            leaf(RNG.standard_normal((n, d))),
            leaf(RNG.standard_normal((d, 4 * h)) * 0.3),
            leaf(RNG.standard_normal((h, 4 * h)) * 0.3),
            leaf(RNG.standard_normal(4 * h) * 0.1),
        ]

    def test_forward_shape(self):
        x, wx, wh, b = self.make_point()
        out = ad.lstm_layer(x, wx, wh, b, reverse=False)
        assert out.data.shape == (5, 3)

    def test_forward_grad(self):
        def op(x, wx, wh, b):
            return ad.mean_all(ad.lstm_layer(x, wx, wh, b, reverse=False))

        assert grad_check(op, self.make_point()) < 1e-6

    def test_reverse_grad(self):
        def op(x, wx, wh, b):
            return ad.mean_all(ad.lstm_layer(x, wx, wh, b, reverse=True))

        assert grad_check(op, self.make_point()) < 1e-6

    def test_reverse_is_flipped_forward(self):
        x, wx, wh, b = self.make_point()
        rev = ad.lstm_layer(x, wx, wh, b, reverse=True)
        flipped = ad.lstm_layer(leaf(x.data[::-1]), wx, wh, b, reverse=False)
        assert_allclose(rev.data, flipped.data[::-1], rtol=1e-12)


    # The fused op does the loop's arithmetic in another order: the
    # pre-activation sums x @ wx + b before adding h @ wh (d + h + 1
    # terms), dwx, dwh and db sum their n per-step terms inside one
    # product, and each gate gradient multiplies its three factors in
    # another grouping. Re-associating a sum of k terms moves it by at
    # most about k ulps of its largest term, and the recurrence damps
    # rather than grows such a change (every gate lies in (0, 1)). The
    # gap measured on these cases is at most 5e-16 of the largest
    # entry, so 1e-12 of it holds with a wide margin while any wrong
    # term, which moves a gradient by O(1), still fails.
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("n, d, h", [(1, 5, 3), (2, 5, 3), (12, 7, 4), (12, 3, 6)])
    def test_matches_loop_oracle(self, n, d, h, reverse):
        rng = np.random.default_rng(100 * n + 10 * d + h)
        x = rng.standard_normal((n, d))
        wx = rng.standard_normal((d, 4 * h)) * 0.3
        wh = rng.standard_normal((h, 4 * h)) * 0.3
        b = rng.standard_normal(4 * h) * 0.1
        grad_out = rng.standard_normal((n, h))
        want = lstm_loop_oracle(x, wx, wh, b, grad_out, reverse=reverse)
        point = [leaf(x), leaf(wx), leaf(wh), leaf(b)]
        out = ad.lstm_layer(*point, reverse=reverse)
        # a scalar head whose VJP hands grad_out to the layer unchanged
        DiffArray(0.0, (out,), lambda g: (grad_out,)).backward()
        got = [out.data] + [t.grad for t in point]
        for name, g, w in zip(("hidden", "dx", "dwx", "dwh", "db"), got, want):
            assert g.shape == w.shape, name
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w)), name


class TestFusedDirections:
    """lstm_layer with two directions runs both in one time loop."""

    @staticmethod
    def make_values(n, d, h, seed, x_scale=1.0):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, d)) * x_scale
        weights = [
            [rng.standard_normal((d, 4 * h)) * 0.3, rng.standard_normal((h, 4 * h)) * 0.3,
             rng.standard_normal(4 * h) * 0.1]
            for _ in range(2)
        ]
        return x, weights, rng.standard_normal((n, 2 * h))

    @staticmethod
    def fused(x, weights):
        (wxf, whf, bf), (wxb, whb, bb) = weights
        return ad.lstm_layer(x, (wxf, wxb), (whf, whb), (bf, bb), reverse=(False, True))

    @pytest.mark.parametrize("d", [64, 32, 768])
    @pytest.mark.parametrize("n", [12, 24, 48])
    def test_bit_identical_to_two_single_direction_calls(self, n, d):
        x, weights, grad_out = self.make_values(n, d, 16, seed=n + d)
        runs = []
        for fused in (True, False):
            xl = leaf(x)
            wl = [[leaf(v) for v in direction] for direction in weights]
            if fused:
                out = self.fused(xl, wl)
            else:
                fwd = ad.lstm_layer(xl, *wl[0])
                bwd = ad.lstm_layer(xl, *wl[1], reverse=True)
                out = ad.concat([fwd, bwd], axis=1)
            backprop(out, grad_out)
            runs.append([out.data, xl.grad] + [t.grad for direction in wl for t in direction])
        got, want = runs
        assert len(got) == 8
        for k, (g, w) in enumerate(zip(got, want)):
            assert same_bits(g, w), k

    # BLAS may group the sums of the block-diagonal recurrent GEMV
    # differently from the one-direction GEMV when h is not a multiple of
    # the kernel's vector width, so each direction is held to the loop
    # oracle's tolerance rather than to bit identity.
    @pytest.mark.parametrize("n, d, h", [(1, 5, 3), (2, 5, 3), (12, 7, 4), (12, 3, 6), (12, 64, 16)])
    def test_each_direction_matches_loop_oracle(self, n, d, h):
        self.assert_directions_match_oracle(n, d, h, saturated=False)

    # Here x is scaled so the pre-activations are about 1e3 in size, and
    # most gates are exactly 0 or 1. The layer forms sigmoid(z) as
    # 1/2 + tanh(z/2)/2, which is within about one ulp of 1/2 of the
    # oracle's logaddexp form but reaches exactly 0 near z = -38, where
    # the oracle keeps e^z. A gradient carried only by gates that far out
    # is below about 1e-16 of its unsaturated size, so the bound is taken
    # against the scale max|grad_out| * max(1, max|x|) where that is larger.
    @pytest.mark.parametrize("n, d, h", [(1, 5, 3), (2, 5, 3), (12, 7, 4), (12, 3, 6), (12, 64, 16)])
    def test_saturated_gates_match_loop_oracle(self, n, d, h):
        self.assert_directions_match_oracle(n, d, h, saturated=True)

    def assert_directions_match_oracle(self, n, d, h, saturated):
        x_scale = 1e3 / (0.3 * np.sqrt(d)) if saturated else 1.0
        x, weights, grad_out = self.make_values(n, d, h, seed=100 * n + 10 * d + h, x_scale=x_scale)
        want = [
            lstm_loop_oracle(x, *direction, grad_out[:, k * h : (k + 1) * h], reverse=bool(k))
            for k, direction in enumerate(weights)
        ]
        xl = leaf(x)
        wl = [[leaf(v) for v in direction] for direction in weights]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = self.fused(xl, wl)
            backprop(out, grad_out)
        assert np.all(np.isfinite(out.data)) and np.all(np.abs(out.data) <= 1.0)
        pairs = [(xl.grad, want[0][1] + want[1][1])]
        for k in range(2):
            pairs.append((out.data[:, k * h : (k + 1) * h], want[k][0]))
            pairs += [(t.grad, w) for t, w in zip(wl[k], want[k][2:])]
        floor = np.max(np.abs(grad_out)) * max(1.0, np.max(np.abs(x))) if saturated else 0.0
        for idx, (g, w) in enumerate(pairs):
            assert g.shape == w.shape, idx
            assert np.max(np.abs(g - w)) <= 1e-12 * max(np.max(np.abs(w)), floor), idx

    def test_grad_check(self):
        x, weights, _ = self.make_values(5, 4, 3, seed=7)

        def op(x, wxf, whf, bf, wxb, whb, bb):
            return ad.mean_all(self.fused(x, [[wxf, whf, bf], [wxb, whb, bb]]))

        point = [leaf(x)] + [leaf(v) for direction in weights for v in direction]
        assert grad_check(op, point) < 1e-6

    def test_birnn_forward_makes_one_call_per_layer(self, monkeypatch):
        calls = Counter()

        def counting(name):
            inner = getattr(ad, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return call

        for name in ("lstm_layer", "concat"):
            monkeypatch.setattr(ad, name, counting(name))
        cfg = ModelConfig(hidden=4)
        params = init_params(cfg, embed_dim=6, seed=0)
        doc = synth_embedded_corpus(1, 3, 12, 6, 4.0, seed=0).items[0][0]
        out = birnn_forward(doc, params)
        assert out.data.shape == (12, 8)
        assert calls == Counter(lstm_layer=2)


class TestConvPool:
    def test_conv_shapes(self):
        x = leaf(RNG.standard_normal((10, 3)))
        k = leaf(RNG.standard_normal((4, 3, 6)))
        b = leaf(np.zeros(6))
        out = ad.conv1d(x, k, b)
        assert out.data.shape == (7, 6)

    def test_conv_same_length(self):
        x = leaf(RNG.standard_normal((10, 3)))
        k = leaf(RNG.standard_normal((3, 3, 2)))
        out = ad.conv1d(x, k, leaf(np.zeros(2)), same_length=True)
        assert out.data.shape == (10, 2)

    def test_conv_grad(self):
        def op(x, k, b):
            return ad.mean_all(ad.conv1d(x, k, b))

        pt = [
            leaf(RNG.standard_normal((8, 3))),
            leaf(RNG.standard_normal((3, 3, 4)) * 0.4),
            leaf(RNG.standard_normal(4) * 0.1),
        ]
        assert grad_check(op, pt) < 1e-7

    def test_conv_matches_manual_window(self):
        x = RNG.standard_normal((6, 2))
        k = RNG.standard_normal((3, 2, 1))
        out = ad.conv1d(leaf(x), leaf(k), leaf(np.zeros(1))).data
        manual = np.array(
            [np.sum(x[i : i + 3, :, None] * k) for i in range(4)]
        ).reshape(4, 1)
        assert_allclose(out, manual, rtol=1e-12)

    def test_maxpool_halves_length(self):
        x = leaf(RNG.standard_normal((9, 4)))
        out = ad.maxpool(x, 2, 2)
        assert out.data.shape == (4, 4)  # odd tail dropped
        assert_allclose(out.data, np.maximum(x.data[0:8:2], x.data[1:9:2]))

    def test_maxpool_grad(self):
        def op(x):
            return ad.mean_all(ad.maxpool(x, 2, 2))

        assert grad_check(op, [leaf(RNG.standard_normal((8, 3)))]) < 1e-7

    def test_maxpool_requires_matching_stride(self):
        with pytest.raises(ValueError):
            ad.maxpool(leaf(RNG.standard_normal((8, 2))), 2, 3)

    @pytest.mark.parametrize("length", [3, 7, 9, 12])
    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("size", [2, 3])
    def test_maxpool_matches_single_node_oracle(self, length, ties, size):
        rng = np.random.default_rng(length * 10 + size)
        # values drawn from {0, 1, 2} tie inside most blocks
        x = rng.integers(0, 3, (length, 4)).astype(float) if ties else rng.standard_normal((length, 4))
        grad_out = rng.standard_normal((length // size, 4))
        got_x, want_x = leaf(x), leaf(x)
        got = ad.maxpool(got_x, size, size)
        want = maxpool_oracle(want_x, size, size)
        assert same_bits(got.data, want.data)
        backprop(got, grad_out)
        backprop(want, grad_out)
        assert same_bits(got_x.grad, want_x.grad)

    def test_maxpool_shorter_than_pool_refused(self):
        with pytest.raises(ValueError, match="shorter than pool size"):
            ad.maxpool(leaf(RNG.standard_normal((2, 3))), 3, 3)


class TestGradCheckHarness:
    def test_catches_wrong_gradient(self):
        # a deliberately broken vjp must be flagged
        def op(x):
            bad = DiffArray(x.data * 2.0, (x,), lambda g: (g * 3.0,))
            return ad.mean_all(bad)

        err = grad_check(op, [leaf(RNG.standard_normal(4))])
        assert err > 0.1

    def test_skip_predicate_excludes_points(self):
        spec = ActivationSpec("relu")

        def op(x):
            return ad.mean_all(ad.activation(x, spec))

        x = leaf(np.array([0.0, 1.0, -1.0]))
        err = grad_check(op, [x], skip=lambda ti, fi, v: v == 0.0)
        assert err < 1e-7


class TestReplacedHelpers:
    """The GEMM/slice kernels against the numpy helpers they replaced.

    The replaced helpers are the oracles above. Outside C = 1 both sides
    hand BLAS the same operands in the same layout, so every value and
    gradient must agree bit for bit.
    """

    @staticmethod
    def conv_case(w, c, lo, same_length, seed):
        rng = np.random.default_rng(seed)
        f = int(rng.integers(1, 12))
        length = lo if same_length else lo + w - 1
        x = rng.standard_normal((length, c))
        k = rng.standard_normal((w, c, f)) * 0.4
        b = rng.standard_normal(f) * 0.1
        # the concat VJP hands the layer a column slice of a wider gradient
        wide = rng.standard_normal((lo, f + 3))
        return x, k, b, (wide[:, 3:], np.ascontiguousarray(wide[:, 3:]))

    @staticmethod
    def conv_results(op, x, k, b, same_length, grad_out):
        point = [leaf(x), leaf(k), leaf(b)]
        out = op(*point, same_length=same_length)
        backprop(out, grad_out)
        return [out.data] + [t.grad for t in point]

    @pytest.mark.parametrize("same_length", [False, True])
    @pytest.mark.parametrize("lo", [1, 5, 11])
    @pytest.mark.parametrize("c", [2, 8, 40])
    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_conv1d_bit_identical_to_window_oracle(self, w, c, lo, same_length):
        x, k, b, grads = self.conv_case(w, c, lo, same_length, seed=100 * w + 10 * c + lo)
        for grad_out in grads:
            got = self.conv_results(ad.conv1d, x, k, b, same_length, grad_out)
            want = self.conv_results(conv1d_window_oracle, x, k, b, same_length, grad_out)
            for name, g, o in zip(("out", "dx", "dk", "db"), got, want):
                assert same_bits(g, o), name

    # With one input channel the window view of the oracle is an
    # overlapping strided matrix, and BLAS sums the kernel gradient in
    # another order: a reordered sum of Lo terms moves it by a few ulps
    # of its largest entry.
    @pytest.mark.parametrize("same_length", [False, True])
    @pytest.mark.parametrize("lo", [1, 5, 11])
    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_conv1d_single_channel_within_ulps_of_window_oracle(self, w, lo, same_length):
        x, k, b, grads = self.conv_case(w, 1, lo, same_length, seed=100 * w + lo)
        for grad_out in grads:
            got = self.conv_results(ad.conv1d, x, k, b, same_length, grad_out)
            want = self.conv_results(conv1d_window_oracle, x, k, b, same_length, grad_out)
            for name, g, o in zip(("out", "dx", "dk", "db"), got, want):
                assert g.shape == o.shape, name
                assert np.max(np.abs(g - o)) <= 1e-12 * np.max(np.abs(o)), name

    @pytest.mark.parametrize("axis", [0, 1, -1])
    @pytest.mark.parametrize("widths", [(3,), (2, 5), (1, 4, 2)])
    def test_concat_bit_identical_to_split_oracle(self, axis, widths):
        rng = np.random.default_rng(len(widths) + axis)
        shapes = [(n, 4) if axis == 0 else (4, n) for n in widths]
        values = [rng.standard_normal(shape) for shape in shapes]
        grad_out = rng.standard_normal(np.concatenate(values, axis=axis).shape)
        results = []
        for op in (ad.concat, concat_split_oracle):
            parts = [leaf(v) for v in values]
            out = op(parts, axis)
            grads = out._vjp(grad_out)
            # the parts' gradients are views of the incoming one, as before
            assert all(np.shares_memory(g, grad_out) for g in grads)
            results.append([out.data, *grads])
        for got, want in zip(*results):
            assert same_bits(got, want)

    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("shape, axis", [((7,), 0), ((5, 3), 0), ((5, 3), 1), ((4, 3, 5), 0),
                                             ((4, 3, 5), 1), ((4, 3, 5), 2), ((4, 3, 5), -1)])
    def test_reduce_max_bit_identical_to_along_axis_oracle(self, shape, axis, ties):
        rng = np.random.default_rng(sum(shape) + axis)
        # values drawn from {0, 1, 2} tie along most lines
        x = rng.integers(0, 3, shape).astype(float) if ties else rng.standard_normal(shape)
        grad_out = rng.standard_normal(np.delete(np.array(shape), axis))
        got_x, want_x = leaf(x), leaf(x)
        got = ad.reduce_max(got_x, axis)
        want = reduce_max_along_axis_oracle(want_x, axis)
        assert same_bits(got.data, want.data)
        backprop(got, grad_out)
        backprop(want, grad_out)
        assert same_bits(got_x.grad, want_x.grad)

    def test_network_training_bit_identical_with_the_oracles(self, monkeypatch):
        cfg = ModelConfig(
            n_classes=3,
            hidden=16,
            filters=8,
            blocks=1,
            conv_width=2,
            dense_width=16,
            attn_dim=4,
            mfa=MfaConfig(method="mf-dfa", q_grid=np.linspace(-4, 4, 5)),
        )
        corpus = synth_embedded_corpus(30, 3, 12, 64, 4.0, seed=5)
        runs = []
        for oracles in (False, True):
            if oracles:
                monkeypatch.setattr(ad, "conv1d", conv1d_window_oracle)
                monkeypatch.setattr(ad, "concat", concat_split_oracle)
                monkeypatch.setattr(ad, "reduce_max", reduce_max_along_axis_oracle)
                monkeypatch.setattr(ad, "_unbroadcast", unbroadcast_reshape_oracle)
            params, history = train(corpus, TrainConfig(epochs=2, seed=5), cfg)
            runs.append((history, {name: t.data.tobytes() for name, t in params.tensors.items()}))
        (got_history, got_params), (want_history, want_params) = runs
        assert got_history == want_history
        assert got_params == want_params
