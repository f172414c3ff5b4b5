import numpy as np
import pytest
from numpy.testing import assert_allclose

from fastswitch.field import (StateVelocity, TestFunction, UGrid, VelocityField,
                              interp_apply, sup_norm, u_derivative_values)
from fastswitch.model import SemiMarkovModel, SojournDistribution
from fastswitch.operators import L_series_values, TimeSeries, build_kit, velocity_power_values
from fastswitch.regular import (averaged_flow_table, cumulative_simpson_weights, regular_term,
                               solve_c0, solve_ck, system_rhs_values)

from conftest import GRID, PHI, make_model_a, make_pm_field


TIMES = np.linspace(0.0, 1.0, 501)


def reference_duhamel(c_k0, source, times, flow_table):
    """The transport solve as a double loop: one stencil gather per
    (time node, history node) pair, summed with the Simpson row of that time."""
    idx, wts = flow_table
    h_t = float(times[1] - times[0])
    out = np.empty((len(times), c_k0.size))
    for i in range(len(times)):
        row = interp_apply(c_k0, idx[i], wts[i])
        w = cumulative_simpson_weights(i, h_t)
        gathered = np.array([interp_apply(source[j], idx[i - j], wts[i - j])
                             for j in range(i + 1)])
        out[i] = row + w @ gathered
    out[0] = c_k0
    return out


def _duhamel_field(kind):
    """Two-state fields with nonzero averaged drift under model A."""
    if kind == "pm":
        return make_pm_field(UGrid(-6.0, 6.0, 65))
    if kind == "periodic":
        return make_pm_field(UGrid(-np.pi, np.pi, 64, boundary_mode="periodic"))
    grid = UGrid(-6.0, 6.0, 65)
    if kind == "linear":
        return VelocityField(grid, (StateVelocity("linear", slope=-0.2, intercept=0.5),
                                    StateVelocity("linear", slope=0.1, intercept=-0.3)))
    u = grid.nodes
    return VelocityField(grid, (StateVelocity("tabulated", table=0.8 + 0.3 * np.sin(u)),
                                StateVelocity("tabulated", table=-0.4 * np.cos(u))))


@pytest.fixture(scope="module")
def kit_a():
    return build_kit(make_model_a(), make_pm_field())


class TestSolveC0:
    def test_translation_closed_form(self, kit_a):
        # vhat = 1/3: c0(t, u) = phi(u + t/3)
        c0 = solve_c0(kit_a, PHI, TIMES, averaged_flow_table(kit_a, TIMES))
        i = 300
        t = TIMES[i]
        expected = np.exp(-0.5 * (GRID.nodes + t / 3.0) ** 2)
        assert np.abs(c0.values[i, 0] - expected).max() < 1e-6

    def test_initial_value_exact(self, kit_a):
        c0 = solve_c0(kit_a, PHI, TIMES, averaged_flow_table(kit_a, TIMES))
        assert_allclose(c0.values[0, 0], PHI(GRID.nodes), atol=1e-15)

    def test_zero_drift(self):
        grid = GRID
        m = make_model_a()
        fld = VelocityField(grid, (StateVelocity("constant", value=1.0),
                                   StateVelocity("constant", value=-2.0)))
        kit = build_kit(m, fld)
        assert abs(kit.vhat.values[0, 0]) < 1e-14  # 2/3*1 + 1/3*(-2) = 0
        c0 = solve_c0(kit, PHI, TIMES, averaged_flow_table(kit, TIMES))
        assert sup_norm(c0.values - c0.values[0]) < 1e-13

    def test_analytic_derivative_hook(self, kit_a):
        c0 = solve_c0(kit_a, PHI, TIMES, averaged_flow_table(kit_a, TIMES))
        d1 = c0.derivative_values(1)
        expected = kit_a.vhat.values[0] * u_derivative_values(c0.values, GRID)[0, 0]
        # hook returns vhat * d/du applied to every slice
        assert np.abs(d1[0] - kit_a.vhat.values * u_derivative_values(c0.values[0], GRID)).max() < 1e-14


class TestSolveCk:
    def test_homogeneous_matches_c0_machinery(self, kit_a):
        psi = TestFunction("gaussian", center=0.5, width=0.8)
        source = np.zeros((len(TIMES), GRID.n_points))
        ck = solve_ck(kit_a, psi(GRID.nodes), source, TIMES, averaged_flow_table(kit_a, TIMES))
        c0_like = solve_c0(kit_a, psi, TIMES, averaged_flow_table(kit_a, TIMES))
        assert sup_norm(ck.values - c0_like.values) < 1e-14

    def test_zero_drift_constant_source(self):
        m = make_model_a()
        fld = VelocityField(GRID, (StateVelocity("constant", value=1.0),
                                   StateVelocity("constant", value=-2.0)))
        kit = build_kit(m, fld)
        g_of_u = np.sin(GRID.nodes)
        source = np.repeat(g_of_u[None, :], len(TIMES), axis=0)
        ck = solve_ck(kit, PHI(GRID.nodes), source, TIMES, averaged_flow_table(kit, TIMES))
        for i in (100, 250, 500):
            expected = PHI(GRID.nodes) + TIMES[i] * g_of_u
            assert np.abs(ck.values[i, 0] - expected).max() < 1e-10

    def test_exact_initial_value(self, kit_a):
        init = np.cos(GRID.nodes) * np.exp(-0.1 * GRID.nodes**2)
        source = np.random.default_rng(0).normal(size=(len(TIMES), GRID.n_points))
        ck = solve_ck(kit_a, init, source, TIMES, averaged_flow_table(kit_a, TIMES))
        assert_allclose(ck.values[0, 0], init, atol=1e-15)


    @staticmethod
    def _duhamel_gap(kind, times):
        """solve_ck against the double loop, relative to the loop's sup."""
        kit = build_kit(make_model_a(), _duhamel_field(kind))
        assert abs(kit.vhat.values).max() > 0.1
        rng = np.random.default_rng(7)
        npts = kit.fld.grid.n_points
        init, source = rng.normal(size=npts), rng.normal(size=(len(times), npts))
        table = averaged_flow_table(kit, times)
        got = solve_ck(kit, init, source, times, table).values
        expected = reference_duhamel(init, source, times, table)
        return np.abs(got - expected[:, None, :]).max() / np.abs(expected).max()

    @pytest.mark.parametrize("kind", ["pm", "linear", "tabulated", "periodic"])
    def test_lag_gather_matches_double_loop(self, kind):
        assert self._duhamel_gap(kind, np.linspace(0.0, 0.6, 61)) <= 1e-13

    @pytest.mark.parametrize("kind", ["pm", "periodic"])
    @pytest.mark.parametrize("n_times", [2, 3, 4, 5])
    def test_short_series_match_double_loop(self, kind, n_times):
        """The trapezoid row and the odd rows' end corrections overlap
        column 0 on the first rows."""
        assert self._duhamel_gap(kind, np.linspace(0.0, 0.6, n_times)) <= 1e-13

    def test_periodic_flow_past_one_period(self):
        """vhat = 1/3 travels 20/3 > 2π over the horizon, so each node's
        stencil window wraps the seam and covers the whole period."""
        assert self._duhamel_gap("periodic", np.linspace(0.0, 20.0, 61)) <= 1e-13


class TestRegularTerm:
    def test_u1_is_r0_l1_c0_plus_c1(self, expansion_a):
        res = expansion_a
        kit = res.kit
        l1c0 = L_series_values(1, kit, res.c[0])
        expected = np.einsum("xy,tyu->txu", kit.R0, l1c0) + res.c[1].values
        assert np.abs(res.U[1].values - expected).max() < 1e-12

    def test_single_state_model_U_equals_c(self):
        grid = GRID
        m = SemiMarkovModel(states=("s",), P=[[1.0]],
                            sojourns=(SojournDistribution("erlang", rate=2.0, shape=2),))
        fld = VelocityField(grid, (StateVelocity("constant", value=0.5),))
        from fastswitch.pipeline import build_expansion
        res = build_expansion(m, fld, PHI, order=1, horizon=0.5, h_t=0.0025,
                              h_tau=0.01)
        assert np.abs(res.U[1].values - res.c[1].values).max() < 1e-13

    def test_solvability_residual_small(self, expansion_a):
        # Q c_k = 0 and Q R0 = I - Π, so Q U_k - S_k = -Π S_k: the system
        # residual is the solvability residual |Π S_k|
        d = expansion_a.diagnostics["orders"]
        assert d[1]["system15_residual"] < 1e-6
        assert d[2]["system15_residual"] < 1e-5

    def test_projection_defect(self, expansion_a):
        d = expansion_a.diagnostics["orders"]
        assert d[1]["range_projection_defect"] < 1e-8
        assert d[2]["range_projection_defect"] < 1e-8

    def test_QU0_is_zero(self, expansion_a):
        kit = expansion_a.kit
        qu0 = np.einsum("xy,tyu->txu", kit.Q, expansion_a.U[0].values)
        assert np.abs(qu0).max() < 1e-13


class TestDerivativesAtZero:
    def test_first_derivative_is_vhat_phi(self, expansion_a):
        kit = expansion_a.kit
        got = expansion_a.U[0].derivative_values(1)[0]
        phi_vals = np.repeat(PHI(GRID.nodes)[None, :], 2, axis=0)
        expected = kit.vhat.values * u_derivative_values(phi_vals, GRID)
        assert np.abs(got - expected).max() < 1e-6

    def test_second_derivative_operator_oracle(self, expansion_a):
        kit = expansion_a.kit
        got = expansion_a.U[0].derivative_values(2)[0]
        phi_vals = np.repeat(PHI(GRID.nodes)[None, :], 2, axis=0)
        once = kit.vhat.values * u_derivative_values(phi_vals, GRID)
        twice = kit.vhat.values * u_derivative_values(once, GRID)
        assert np.abs(got - twice).max() < 1e-5

    def test_constant_drift_translation_derivatives(self, expansion_a):
        # vhat constant: d^n/dt^n c0(0) = vhat^n phi^(n)
        kit = expansion_a.kit
        vhat = kit.vhat.values[0, 0]
        phi_vals = PHI(GRID.nodes)[None, :]
        dn = phi_vals.copy()
        for n in (1, 2):
            dn = u_derivative_values(dn, GRID)
            got = expansion_a.U[0].derivative_values(n)[0]
            assert np.abs(got[0] - vhat**n * dn[0]).max() < 1e-6

    def test_fd_cross_check_of_hook(self, kit_a):
        # finite differences in t recover the true derivative almost exactly;
        # the hook applies the discrete advection operator, so they agree only
        # to the O(h_u^4) derivative truncation level
        c0 = solve_c0(kit_a, PHI, TIMES, averaged_flow_table(kit_a, TIMES))
        plain = TimeSeries(c0.values.copy(), c0.h_t)
        fd = plain.derivative_values(1)[0]
        analytic = c0.derivative_values(1)[0]
        assert np.abs(fd - analytic).max() < 5e-5

    def test_hook_chains_one_advection_pass(self, kit_a):
        # the n-th derivative is one vhat ∂_u pass on the cached (n-1)-th,
        # the same operations as n passes on the values
        c0 = solve_c0(kit_a, PHI, TIMES, averaged_flow_table(kit_a, TIMES))
        for n in (3, 1, 2):
            np.testing.assert_array_equal(
                c0.derivative_values(n), velocity_power_values(kit_a.vhat, c0.values, n))


class TestSystem15:
    def test_residual_on_grid(self, expansion_a):
        d = expansion_a.diagnostics["orders"]
        assert d[1]["system15_residual"] < 1e-5
        assert d[2]["system15_residual"] < 1e-5

    def test_direct_substitution_order1(self, expansion_a):
        kit = expansion_a.kit
        rhs = system_rhs_values(kit, expansion_a.U, 1)
        qu1 = np.einsum("xy,tyu->txu", kit.Q, expansion_a.U[1].values)
        assert np.abs(qu1 - rhs).max() < 1e-5


class TestViews:
    def test_regular_and_singular_views(self, expansion_a):
        # the regular (c, U) and singular (W) parts are fields of the one
        # result, indexed by order; U_k^R is U_k - c_k
        res = expansion_a
        assert res.order == 2
        assert len(res.c) == len(res.U) == len(res.W) == 3
        kit = res.kit
        for k in (1, 2):
            U_Rk = regular_term(kit, system_rhs_values(kit, res.U, k), res.h_t)[0]
            assert np.abs(res.U[k].values - res.c[k].values - U_Rk.values).max() \
                <= 1e-15 * np.abs(res.U[k].values).max()
        orders = res.diagnostics["orders"]
        assert orders[1]["system15_residual"] < 1e-6
        assert orders[1]["w_decay_ratio"] < 1e-3
        assert np.abs(res.W[1].values[0] + res.U[1].values[0]).max() < 1e-12

    def test_negative_time_rejected(self, expansion_a):
        # a negative index would silently read the series from its end
        t = -10 * expansion_a.h_t
        with pytest.raises(ValueError, match="time grid"):
            expansion_a.t_index(t)
        with pytest.raises(ValueError, match="time grid"):
            expansion_a.evaluate(0.1, t)


class TestPermutationEquivariance:
    def test_relabeled_states(self):
        from fastswitch.pipeline import build_expansion
        m = make_model_a()
        fld = make_pm_field()
        res = build_expansion(m, fld, PHI, order=1, horizon=0.5, h_t=0.0025,
                              h_tau=0.01)
        m2 = SemiMarkovModel(states=("b", "a"), P=[[0.0, 1.0], [1.0, 0.0]],
                             sojourns=(m.sojourns[1], m.sojourns[0]))
        fld2 = VelocityField(GRID, (fld.specs[1], fld.specs[0]))
        res2 = build_expansion(m2, fld2, PHI, order=1, horizon=0.5, h_t=0.0025,
                               h_tau=0.01)
        assert np.abs(res.c[1].values[:, 0] - res2.c[1].values[:, 0]).max() < 1e-10
        assert np.abs(res.U[1].values[:, 0] - res2.U[1].values[:, 1]).max() < 1e-10
        assert np.abs(res.U[1].values[:, 1] - res2.U[1].values[:, 0]).max() < 1e-10
