import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from fastswitch.field import (DomainEscape, StateVelocity, TestFunction,
                              UGrid, VelocityField, averaged_velocity, flow,
                              flow_positions, interp_apply, interp_eval,
                              interp_weights, sup_norm, u_derivative_values)
from fastswitch.operators import velocity_power_values


@pytest.fixture
def small_grid():
    return UGrid(-8.0, 8.0, 257)


def rk4_reference(fld, x, u0, t, n_steps):
    """Independent fine-step RK4 for the flow oracle."""
    u = np.asarray(u0, dtype=float)
    dt = t / n_steps
    for _ in range(n_steps):
        k1 = fld.eval_state(x, u)
        k2 = fld.eval_state(x, u + 0.5 * dt * k1)
        k3 = fld.eval_state(x, u + 0.5 * dt * k2)
        k4 = fld.eval_state(x, u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


def semigroup(fld, x, t, values):
    """(V_t(x) f)(u) = f(u_x(t)): composition with the flow, cubic interpolation."""
    return interp_eval(fld.grid, values, flow(fld, x, fld.grid.nodes, t))


def derivative(values, grid, order):
    for _ in range(order):
        values = u_derivative_values(values, grid)
    return values


class TestFlow:
    def test_constant_straight_line(self, small_grid):
        fld = VelocityField(small_grid, (StateVelocity("constant", value=1.0),))
        assert_allclose(flow(fld, 0, 0.0, 2.0), 2.0)

    def test_linear_exponential(self, small_grid):
        fld = VelocityField(small_grid, (StateVelocity("linear", slope=1.0, intercept=0.0),))
        assert_allclose(flow(fld, 0, 1.0, np.log(2.0)), 2.0, rtol=1e-12)

    def test_tabulated_vs_fine_rk4(self, small_grid):
        table = np.sin(small_grid.nodes)
        fld = VelocityField(small_grid, (StateVelocity("tabulated", table=table),))
        got = flow(fld, 0, 0.1, 1.0)
        ref = rk4_reference(fld, 0, 0.1, 1.0, 4096)
        assert_allclose(got, ref, atol=1e-8)

    def test_domain_escape(self):
        grid = UGrid(-2.0, 2.0, 64, escape_margin=0.5)
        fld = VelocityField(grid, (StateVelocity("constant", value=1.0),))
        with pytest.raises(DomainEscape):
            flow(fld, 0, 1.5, 2.0)

    @pytest.mark.parametrize("spec", [
        StateVelocity("constant", value=0.8),
        StateVelocity("linear", slope=-0.3, intercept=0.4),
        StateVelocity("tabulated", table=np.sin(np.linspace(-8.0, 8.0, 257)))])
    def test_array_durations_match_scalar_flow(self, small_grid, spec):
        fld = VelocityField(small_grid, (spec,))
        u0 = np.linspace(-2.0, 2.0, 7)
        t = np.array([0.0, 0.01, 0.3, 0.7, 0.05, 1.1, 0.2])
        got = flow(fld, 0, u0, t)
        # each element takes the steps its own duration needs, as if alone
        for i in range(len(t)):
            assert got[i] == flow(fld, 0, u0[i], t[i]), i


class TestSemigroup:
    def test_identity_at_zero(self, small_grid):
        fld = VelocityField(small_grid, (StateVelocity("constant", value=1.0),))
        f = TestFunction("gaussian")(small_grid.nodes)
        assert_allclose(semigroup(fld, 0, 0.0, f), f, atol=1e-14)

    def test_translation(self, small_grid):
        fld = VelocityField(small_grid, (StateVelocity("constant", value=1.0),))
        f = TestFunction("gaussian")(small_grid.nodes)
        out = semigroup(fld, 0, 1.0, f)
        expected = np.exp(-0.5 * (small_grid.nodes + 1.0) ** 2)
        assert np.abs(out - expected).max() < 1e-6

    @pytest.mark.parametrize("spec", [StateVelocity("constant", value=0.8),
                                      StateVelocity("linear", slope=-0.3, intercept=0.4)])
    def test_composition(self, spec):
        # composing stacks two interpolations; 385 nodes keep both below 1e-6
        grid = UGrid(-8.0, 8.0, 385)
        fld = VelocityField(grid, (spec,))
        f = TestFunction("gaussian")(grid.nodes)
        one = semigroup(fld, 0, 0.7, semigroup(fld, 0, 0.4, f))
        both = semigroup(fld, 0, 1.1, f)
        assert sup_norm(one - both) < 1e-6


class TestDerivatives:
    def test_polynomial_exact_interior(self, small_grid):
        u = small_grid.nodes
        df = u_derivative_values(u**3 - 2 * u, small_grid)
        assert np.abs(df[4:-4] - (3 * u**2 - 2)[4:-4]).max() < 1e-10

    def test_constant_annihilated(self, small_grid):
        f = np.full(small_grid.n_points, 3.0)
        assert sup_norm(u_derivative_values(f, small_grid)) < 1e-13

    def test_order_zero_is_identity(self, small_grid):
        f = TestFunction("gaussian")(small_grid.nodes)
        assert_allclose(derivative(f, small_grid, 0), f)

    def test_sin_on_periodic_grid(self):
        grid = UGrid(-np.pi, np.pi, 128, boundary_mode="periodic")
        u = grid.nodes
        fld = VelocityField(grid, (StateVelocity("tabulated", table=u.copy()),))
        out = velocity_power_values(fld, np.sin(u)[None, :], 1)
        h4 = grid.spacing**4
        assert np.abs(out[0] - u * np.cos(u)).max() < 30 * h4


class TestVelocityOperator:
    def test_quadratic(self, small_grid):
        u = small_grid.nodes
        fld = VelocityField(small_grid, (StateVelocity("constant", value=1.0),))
        out = velocity_power_values(fld, (u**2)[None, :], 1)
        assert np.abs(out[0, 4:-4] - 2 * u[4:-4]).max() < 1e-8

    def test_constant_function(self, small_grid):
        fld = VelocityField(small_grid, (StateVelocity("constant", value=2.0),))
        f = np.ones((1, small_grid.n_points))
        assert sup_norm(velocity_power_values(fld, f, 1)) < 1e-13


class TestAveragedVelocity:
    def test_two_state_convex(self, small_grid):
        fld = VelocityField(small_grid, (StateVelocity("constant", value=1.0),
                                         StateVelocity("constant", value=-1.0)))
        vhat = averaged_velocity(np.array([2.0 / 3.0, 1.0 / 3.0]), fld)
        assert_allclose(vhat.values[0], 1.0 / 3.0, atol=1e-14)
        # all-constant fields average to a closed-form affine law
        assert vhat.specs[0].slope == 0.0
        assert vhat.specs[0].intercept == 1.0 / 3.0

    def test_identical_fields(self, small_grid):
        fld = VelocityField(small_grid, (StateVelocity("linear", slope=0.2, intercept=0.5),) * 3)
        vhat = averaged_velocity(np.array([0.2, 0.5, 0.3]), fld)
        assert_allclose(vhat.values[0], fld.values[0], atol=1e-14)

    def test_single_state(self, small_grid):
        fld = VelocityField(small_grid, (StateVelocity("constant", value=0.7),))
        vhat = averaged_velocity(np.array([1.0]), fld)
        assert_allclose(vhat.values, fld.values)

    def test_tabulated_mix(self, small_grid):
        u = small_grid.nodes
        fld = VelocityField(small_grid, (StateVelocity("tabulated", table=np.sin(u)),
                                         StateVelocity("constant", value=1.0)))
        vhat = averaged_velocity(np.array([0.25, 0.75]), fld)
        assert_allclose(vhat.values[0], 0.25 * np.sin(u) + 0.75, atol=1e-14)


class TestConstantIsAffine:
    """A constant velocity is the affine law with slope 0: every field
    operation gives the same bits for either spelling."""

    @pytest.mark.parametrize("value", [0.7, -1.0, 0.0])
    def test_bit_identical_to_linear(self, small_grid, value):
        const = VelocityField(small_grid, (StateVelocity("constant", value=value),
                                           StateVelocity("constant", value=0.25)))
        lin = VelocityField(small_grid, (StateVelocity("linear", slope=0.0, intercept=value),
                                         StateVelocity("linear", slope=0.0, intercept=0.25)))
        u0 = np.linspace(-3.0, 3.0, 11)
        t = np.linspace(0.0, 1.3, 11)
        times = np.array([0.0, 0.2, 0.5, 1.0])
        pi = np.array([0.4, 0.6])
        np.testing.assert_array_equal(const.values, lin.values)
        for x in range(2):
            np.testing.assert_array_equal(const.eval_state(x, u0), lin.eval_state(x, u0))
            np.testing.assert_array_equal(flow(const, x, u0, t), flow(lin, x, u0, t))
            np.testing.assert_array_equal(flow(const, x, u0, 0.6), flow(lin, x, u0, 0.6))
            np.testing.assert_array_equal(flow_positions(const, x, times),
                                          flow_positions(lin, x, times))
        v_const, v_lin = averaged_velocity(pi, const), averaged_velocity(pi, lin)
        np.testing.assert_array_equal(v_const.values, v_lin.values)
        assert (v_const.specs[0].slope, v_const.specs[0].intercept) == \
            (v_lin.specs[0].slope, v_lin.specs[0].intercept)

    def test_stored_as_slope_zero(self):
        spec = StateVelocity("constant", value=-0.5)
        assert spec.kind == "constant"
        assert (spec.slope, spec.intercept) == (0.0, -0.5)

    @pytest.mark.parametrize("extra", [{"slope": 0.1}, {"intercept": 2.0}])
    def test_constant_with_affine_parameters_rejected(self, extra):
        with pytest.raises(ValueError, match="constant velocity"):
            StateVelocity("constant", value=2.0, **extra)


class TestInterpApply:
    @pytest.mark.parametrize("width", [4, 6])
    @pytest.mark.parametrize("value_shape", [(65,), (7, 65), (5, 3, 65)])
    @pytest.mark.parametrize("stencil_shape", [(65,), (5, 65)])
    def test_bit_identical_to_gathered_sum(self, width, value_shape, stencil_shape):
        """Column-at-a-time accumulation adds the stencil products in the
        order of the gathered sum; the FD time derivatives of the transport
        solves amplify any rounding change, so the two must agree exactly."""
        rng = np.random.default_rng(width * 100 + len(value_shape) * 10 + len(stencil_shape))
        grid = UGrid(-6.0, 6.0, 65)
        idx, w = interp_weights(grid, rng.uniform(-7.0, 7.0, stencil_shape), width)
        values = rng.normal(size=value_shape)
        expected = (values[..., idx] * w).sum(axis=-1)
        out = interp_apply(values, idx, w)
        assert out.shape == expected.shape
        assert np.array_equal(out, expected)


class TestSupNorm:
    def test_constant(self, small_grid):
        assert sup_norm(np.full((2, small_grid.n_points), 3.0)) == 3.0

    @given(st.integers(min_value=0, max_value=10_000))
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        f = rng.normal(size=(2, 33))
        g = rng.normal(size=(2, 33))
        assert sup_norm(f + g) <= sup_norm(f) + sup_norm(g) + 1e-15


class TestGeneratorConsistency:
    def test_difference_quotient_converges(self, small_grid):
        fld = VelocityField(small_grid, (StateVelocity("linear", slope=0.5, intercept=0.2),))
        f = TestFunction("gaussian")(small_grid.nodes)[None, :]
        vf = velocity_power_values(fld, f, 1)
        errs = []
        for t in (1e-2, 5e-3, 2.5e-3):
            quot = (semigroup(fld, 0, t, f) - f) / t
            errs.append(np.abs(quot - vf).max())
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.6 * errs[0]  # first order in t


class TestTestFunctions:
    @pytest.mark.parametrize("kind", ["gaussian", "cosine_bump", "poly_capped"])
    def test_bounded(self, kind, small_grid):
        phi = TestFunction(kind, center=0.0, width=1.0, coeffs=(1.0, 0.5))
        vals = phi(small_grid.nodes)
        assert np.isfinite(vals).all()
        for order in range(1, 5):
            assert np.isfinite(derivative(vals, small_grid, order)).all()

    def test_translation_invariance_of_shape(self):
        phi = TestFunction("gaussian", center=1.0, width=0.5)
        assert_allclose(phi(np.array([1.0])), [1.0])

    def test_nodes_broadcast_over_states(self, small_grid):
        f = np.broadcast_to(TestFunction("gaussian")(small_grid.nodes),
                            (3, small_grid.n_points))
        assert f.shape == (3, small_grid.n_points)
        assert_allclose(f[0], f[2])
