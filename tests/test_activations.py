import numpy as np
import pytest
from numpy.testing import assert_allclose

from fractamine.activations import (
    KINDS,
    ActivationSpec,
    apply,
    apply_derivative,
    breakpoints,
    sital,
    sital_derivative,
)
from fractamine.neuralnet import config_json


def finite_difference(spec, x, h=1e-6):
    return (apply(spec, x + h) - apply(spec, x - h)) / (2 * h)


class TestSpec:
    def test_twelve_kinds(self):
        assert len(KINDS) == 12
        assert len(set(KINDS)) == 12

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ActivationSpec("mish")

    def test_unknown_param(self):
        with pytest.raises(ValueError):
            ActivationSpec("sital", {"delta": 1.0})

    def test_defaults_merged(self):
        spec = ActivationSpec("sital", {"gamma": 2.0})
        assert spec.params["gamma"] == 2.0
        assert spec.params["eta"] == 1.0

    def test_sital_monotonicity_guard(self):
        # gamma must dominate eta/4 or the derivative bound collapses
        with pytest.raises(ValueError):
            ActivationSpec("sital", {"gamma": 0.1, "eta": 1.0})

    def test_json_round_trip(self):
        spec = ActivationSpec("kdac", {"mu": 0.02})
        again = ActivationSpec(**config_json(spec))
        assert again.kind == spec.kind
        assert again.params == spec.params


class TestSital:
    def test_zero_identity(self):
        assert sital(np.array(0.0), 1.0, 1.0) == 0.0

    def test_value_formula(self):
        x = np.array([0.7, -1.3])
        sig = 1.0 / (1.0 + np.exp(-1.5 * x))
        assert_allclose(sital(x, 2.0, 1.5), 2.0 * x + np.tanh(x) * (1 + sig), rtol=1e-12)

    def test_derivative_matches_fd(self):
        x = np.linspace(-10, 10, 201)
        for gamma, eta in [(1.0, 1.0), (0.5, 1.0), (2.0, 4.0)]:
            analytic = sital_derivative(x, gamma, eta)
            fd = (sital(x + 1e-6, gamma, eta) - sital(x - 1e-6, gamma, eta)) / 2e-6
            assert_allclose(analytic, fd, rtol=1e-6, atol=1e-9)

    def test_derivative_lower_bound(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-50, 50, 10_000)
        for gamma, eta in [(1.0, 1.0), (0.5, 1.0), (2.0, 4.0)]:
            d = sital_derivative(x, gamma, eta)
            assert np.all(d >= gamma - eta / 4 - 1e-12)

    def test_large_input_no_overflow(self):
        x = np.array([-800.0, 800.0])
        v = sital(x, 1.0, 1.0)
        d = sital_derivative(x, 1.0, 1.0)
        assert np.all(np.isfinite(v)) and np.all(np.isfinite(d))


class TestZeroIdentities:
    @pytest.mark.parametrize(
        "kind,expected",
        [
            ("sigmoid", 0.5),
            ("gelu", 0.0),
            ("selu", 0.0),
            ("tanh", 0.0),
            ("relu", 0.0),
            ("sital", 0.0),
            ("elu", 0.0),
            ("softplus", np.log(2.0)),
            ("swish", 0.0),
            ("leaky_relu", 0.0),
            ("rsigelud", 0.0),
        ],
    )
    def test_value_at_zero(self, kind, expected):
        assert apply(ActivationSpec(kind), np.array(0.0)) == pytest.approx(expected, abs=1e-15)


class TestDerivatives:
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_finite_difference(self, kind):
        spec = ActivationSpec(kind)
        x = np.linspace(-6, 6, 201)
        flagged = breakpoints(spec)
        keep = np.ones_like(x, dtype=bool)
        for b in flagged:
            keep &= np.abs(x - b) > 1e-3
        analytic = apply_derivative(spec, x[keep])
        fd = finite_difference(spec, x[keep], h=1e-6)
        assert_allclose(analytic, fd, rtol=1e-5, atol=1e-8)

    def test_relu_right_derivative_at_zero(self):
        assert apply_derivative(ActivationSpec("relu"), np.array(0.0)) == 1.0

    def test_rsigelud_kink_at_one(self):
        spec = ActivationSpec("rsigelud")
        left = apply_derivative(spec, np.array(1.0 - 1e-9))
        right = apply_derivative(spec, np.array(1.0 + 1e-9))
        assert left == pytest.approx(1.0)
        assert right > 1.0


class TestBreakpoints:
    def test_flagged_kinds(self):
        assert breakpoints(ActivationSpec("relu")) == (0.0,)
        assert breakpoints(ActivationSpec("leaky_relu")) == (0.0,)
        assert breakpoints(ActivationSpec("rsigelud")) == (0.0, 1.0)
        assert breakpoints(ActivationSpec("selu")) == (0.0,)

    def test_smooth_kinds_have_none(self):
        for kind in ("sital", "gelu", "sigmoid", "tanh", "softplus", "swish", "kdac"):
            assert breakpoints(ActivationSpec(kind)) == ()

    def test_elu_breakpoint_depends_on_alpha(self):
        assert breakpoints(ActivationSpec("elu")) == ()  # alpha=1 joins C1
        assert breakpoints(ActivationSpec("elu", {"alpha": 2.0})) == (0.0,)


class TestBranchBoundaries:
    def test_rsigelud_continuous_at_zero(self):
        spec = ActivationSpec("rsigelud")
        eps = 1e-9
        below = apply(spec, np.array(-eps))
        above = apply(spec, np.array(eps))
        assert abs(below - above) < 1e-8

    def test_rsigelud_jump_at_one(self):
        # the upper branch adds alpha*x*sigmoid(x) on top of identity,
        # so the function is deliberately discontinuous at x = 1
        spec = ActivationSpec("rsigelud", {"alpha": 0.05})
        below = apply(spec, np.array(1.0))
        above = apply(spec, np.array(1.0 + 1e-12))
        expected_jump = 0.05 * 1.0 * (1 / (1 + np.exp(-1.0)))
        assert above - below == pytest.approx(expected_jump, rel=1e-3)

    def test_kdac_c1_at_clamp_seams(self):
        spec = ActivationSpec("kdac")
        # seams sit where the inner/outer blend weights hit the clamp;
        # value and first derivative must both join
        for seam in (-0.5, -0.05, 0.05, 0.5):
            x = np.linspace(seam - 0.02, seam + 0.02, 101)
            fd = finite_difference(spec, x, h=1e-7)
            analytic = apply_derivative(spec, x)
            assert_allclose(analytic, fd, rtol=1e-4, atol=1e-7)

    def test_selu_scale_fixed_point(self):
        # standard scaled-exponential constants keep unit variance:
        # positive branch slope is lambda
        spec = ActivationSpec("selu")
        assert apply_derivative(spec, np.array(3.0)) == pytest.approx(1.0507, abs=1e-4)


class TestVectorization:
    @pytest.mark.parametrize("kind", KINDS)
    def test_shapes_preserved(self, kind):
        spec = ActivationSpec(kind)
        x = np.random.default_rng(1).standard_normal((3, 4, 5))
        assert apply(spec, x).shape == (3, 4, 5)
        assert apply_derivative(spec, x).shape == (3, 4, 5)

    @pytest.mark.parametrize("kind", KINDS)
    def test_extreme_inputs_finite(self, kind):
        spec = ActivationSpec(kind)
        x = np.array([-700.0, -30.0, 30.0, 700.0])
        assert np.all(np.isfinite(apply(spec, x)))
        assert np.all(np.isfinite(apply_derivative(spec, x)))
