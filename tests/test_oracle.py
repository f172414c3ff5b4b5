import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fastswitch import oracle
from fastswitch.field import (StateVelocity, TestFunction, UGrid, VelocityField, flow,
                             flow_positions, interp_weights)
from fastswitch.model import SemiMarkovModel, SojournDistribution
from fastswitch.oracle import DirectSolverCost, direct_solve_phi, mc_expectation
from fastswitch.singular import kernel_node_weights

from conftest import (GRID, PHI, make_mixed_model, make_model_a, make_model_b,
                      make_pm_field)


def reference_march(model, fld, phi_values, eps, h_s, n_steps, keep):
    """The step-by-step march of the first-jump identity: per step and state,
    gather the flowed history lag by lag, reduce each stencil, then apply the
    lag weights."""
    grid = fld.grid
    n = model.n_states
    npts = grid.n_points
    h_phys = eps * h_s
    s_nodes = h_s * np.arange(n_steps + 1)

    times_phys = h_phys * np.arange(n_steps + 1)
    pos_idx, pos_w = zip(*(interp_weights(grid, flow_positions(fld, x, times_phys),
                                          order=oracle.INTERP_ORDER) for x in range(n)))

    weights, left_w = kernel_node_weights(model.sojourns, 0, s_nodes)
    surv = np.array([d.survival(s_nodes) for d in model.sojourns])
    j_cut = np.array([min(n_steps, int(math.ceil(d.decay_point(1e-14) / h_s)) + 1)
                      for d in model.sojourns])

    A = np.eye(n) - weights[:, 0, None] * model.P
    A_inv = np.linalg.inv(A)

    phi_row = np.asarray(phi_values, dtype=float).reshape(-1)
    p_sm = np.empty((n, n_steps + 1, npts))  # state-major history of P Φ
    p_sm[:, 0] = np.einsum("xy,u->xu", model.P, phi_row)
    out = {}
    if 0 in keep:
        out[0] = np.broadcast_to(phi_row, (n, npts)).copy()
    for i in range(1, n_steps + 1):
        rhs = np.empty((n, npts))
        for x in range(n):
            first = surv[x, i] * (phi_row[pos_idx[x][i]] * pos_w[x][i]).sum(-1)
            jm = min(i, j_cut[x])
            # rows[j-1] = (PΦ)(t_{i-j}) in state x, evaluated at the state-x
            # flow positions for fast time s_j
            rows = p_sm[x, i - jm:i][::-1]
            idx = pos_idx[x][1:jm + 1]
            wts = pos_w[x][1:jm + 1]
            vals = np.take_along_axis(rows, idx.reshape(jm, -1),
                                      axis=1).reshape(jm, npts, oracle.INTERP_ORDER)
            rhs[x] = first + weights[x, 1:jm + 1] @ (vals * wts).sum(-1)
            if jm == i:
                # cell i starts beyond the integration bound; its left-node
                # part is already in the exact first-jump tail
                rhs[x] -= left_w[x, i] * (p_sm[x, 0][pos_idx[x][i]] * pos_w[x][i]).sum(-1)
        cur = np.tensordot(A_inv, rhs, axes=(1, 0))
        p_sm[:, i] = np.einsum("xy,yu->xu", model.P, cur)
        if i in keep:
            out[i] = cur.copy()
    return out


def reference_mc(model, fld, phi, t, eps, n_samples, seed, u_indices):
    """Monte Carlo by positions: per start state each replicate flows a row
    of every requested node through field.flow, segment by segment, and each
    jump round masks the running replicates state by state.  Same streams,
    same draws and same paths as mc_expectation; returns (values, stderr)."""
    grid = fld.grid
    u_indices = np.asarray(u_indices, dtype=int)
    n = model.n_states
    channels = 1 + max(d.n_uniforms for d in model.sojourns)
    cum_p = np.cumsum(model.P, axis=1)
    values = np.empty((n, len(u_indices)))
    stderr = np.empty_like(values)
    for xi in range(n):
        rng = oracle._philox_stream(seed, xi)
        u = np.tile(grid.nodes[u_indices], (n_samples, 1))
        state = np.full(n_samples, xi)
        remaining = np.full(n_samples, float(t))
        alive = np.flatnonzero(remaining > 0.0)
        while alive.size:
            draws = rng.random((alive.size, channels))
            st = state[alive]
            for s in range(n):
                mine = st == s
                sel, d = alive[mine], draws[mine]
                if not sel.size:
                    continue
                dt = eps * model.sojourns[s].from_uniforms(d[:, 1:])
                rem = remaining[sel]
                hit_end = dt >= rem
                step = np.where(hit_end, rem, dt)
                u[sel] = flow(fld, s, u[sel], step[:, None], check=False)
                remaining[sel] = np.where(hit_end, 0.0, rem - dt)
                nxt = np.searchsorted(cum_p[s], d[~hit_end, 0], side="right")
                state[sel[~hit_end]] = np.minimum(nxt, n - 1)
            alive = alive[remaining[alive] > 0.0]
        if grid.boundary_mode == "periodic":
            u = grid.u_min + np.mod(u - grid.u_min, grid.u_max - grid.u_min)
        for col, finals in enumerate(np.ascontiguousarray(u.T)):
            vals = phi(finals)
            values[xi, col] = vals.mean()
            stderr[xi, col] = vals.std(ddof=1) / math.sqrt(n_samples)
    return values, stderr


def _mixed_fields(grid):
    closed = VelocityField(grid, (StateVelocity("linear", slope=-0.1, intercept=1.0),
                                  StateVelocity("constant", value=-1.0),
                                  StateVelocity("linear", slope=0.05, intercept=0.3)))
    tabulated = VelocityField(grid, tuple(StateVelocity("tabulated", table=row)
                                          for row in closed.values))
    return closed, tabulated


def _fast_model():
    # decay points 3.2 and 1.6: J_x is well below n_steps at eps 0.2, t = 1
    return SemiMarkovModel(states=("a", "b"), P=[[0.0, 1.0], [1.0, 0.0]],
                           sojourns=(SojournDistribution("exponential", rate=10.0),
                                     SojournDistribution("exponential", rate=20.0)))


_SMALL = UGrid(-8.0, 8.0, 129)
# name -> (model, field, t_eval, eps, direct_solve_phi keywords)
REFERENCE_CASES = {
    "model_a": lambda: (make_model_a(), make_pm_field(_SMALL), [0.5, 1.0], 0.1, {}),
    "model_b": lambda: (make_model_b(), make_pm_field(_SMALL), [0.5, 1.0], 0.1, {}),
    "mixed_linear": lambda: (make_mixed_model(), _mixed_fields(_SMALL)[0], [0.5, 1.0],
                             0.2, {}),
    "mixed_tabulated": lambda: (make_mixed_model(), _mixed_fields(_SMALL)[1], [0.5, 1.0],
                                0.2, {}),
    "periodic": lambda: (make_model_a(), make_pm_field(UGrid(-4.0, 4.0, 65, "periodic")),
                         [1.0], 0.2, {}),
    "richardson": lambda: (make_model_a(), make_pm_field(_SMALL), [0.5], 0.1,
                           {"h_s": 0.05, "richardson": True}),
    "lag_cutoff": lambda: (_fast_model(), make_pm_field(_SMALL), [0.5, 1.0], 0.2,
                           {"h_s": 0.01}),
    # 16 columns of drift by t = 2 on 33 points: most nodes of each state
    # read a clipped stencil at some lag
    "narrow_open": lambda: (make_model_a(), make_pm_field(UGrid(-2.0, 2.0, 33,
                                                                escape_margin=3.0)),
                            [1.0, 2.0], 0.2, {}),
    "lag_cutoff_periodic": lambda: (_fast_model(),
                                    make_pm_field(UGrid(-4.0, 4.0, 65, "periodic")),
                                    [0.5, 1.0], 0.2, {"h_s": 0.01}),
}


class TestSampleTrajectory:
    """Switching paths seen through mc_expectation at its minimum sample count."""

    def test_zero_time(self):
        u_idx = np.array([100, 128, 133])
        est = mc_expectation(make_model_a(), make_pm_field(), lambda u: u, 0.0, 0.1,
                             1000, seed=0, u_indices=u_idx)
        assert np.array_equal(est.values, np.tile(GRID.nodes[u_idx], (2, 1)))
        assert est.stderr.max() == 0.0

    def test_deterministic_velocity_matches_flow(self):
        m = make_model_a()
        fld = VelocityField(GRID, (StateVelocity("constant", value=0.7),
                                   StateVelocity("constant", value=0.7)))
        u_idx = np.array([100, 131])
        for seed in (1, 2, 3):
            est = mc_expectation(m, fld, lambda u: u, 1.0, 0.05, 1000, seed=seed,
                                 u_indices=u_idx)
            assert_allclose(est.values, np.tile(GRID.nodes[u_idx] + 0.7, (2, 1)),
                            rtol=1e-12)

    def test_seed_reproducibility(self):
        m = make_model_a()
        fld = make_pm_field()
        kwargs = dict(t=1.0, eps=0.1, n_samples=1000, seed=11, u_indices=np.array([128]))
        a = mc_expectation(m, fld, lambda u: u, **kwargs)
        b = mc_expectation(m, fld, lambda u: u, **kwargs)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.stderr, b.stderr)

    def test_tabulated_velocities_match_closed_form(self):
        # same seed, same jumps: only the RK4 flow of the tables differs
        grid = UGrid(-8.0, 8.0, 129)
        specs = (StateVelocity("linear", slope=-0.1, intercept=1.0),
                 StateVelocity("constant", value=-1.0),
                 StateVelocity("linear", slope=0.05, intercept=0.3))
        closed = VelocityField(grid, specs)
        tabulated = VelocityField(grid, tuple(StateVelocity("tabulated", table=row)
                                              for row in closed.values))
        kwargs = dict(t=1.0, eps=0.2, n_samples=1000, seed=4,
                      u_indices=np.arange(0, grid.n_points, 16))
        a = mc_expectation(make_mixed_model(), closed, PHI, **kwargs)
        b = mc_expectation(make_mixed_model(), tabulated, PHI, **kwargs)
        assert np.abs(a.values - b.values).max() < 1e-12
        assert np.abs(a.stderr - b.stderr).max() < 1e-12

    def test_averaging_principle_statistics(self):
        """Mean displacement approaches vhat * t as eps -> 0 (weak limit)."""
        m = make_model_a()
        fld = make_pm_field()
        eps, t, n = 0.002, 1.0, 20000
        u_idx = 128  # u0 = 0
        est = mc_expectation(m, fld, lambda u: u, t, eps, n, seed=123,
                             u_indices=np.array([u_idx]))
        mean = est.values[0, 0]
        se = est.stderr[0, 0]
        # allow the O(eps) correction on top of the 3-sigma band
        assert abs(mean - 1.0 / 3.0) < 3 * se + 1.0 * eps


# name -> (model, field, u_indices): the cases mc_expectation is held to
# reference_mc on
MC_CASES = {
    "model_a": lambda: (make_model_a(), make_pm_field(_SMALL), np.arange(8, 121, 16)),
    "mixed_linear": lambda: (make_mixed_model(), _mixed_fields(_SMALL)[0],
                             np.arange(0, 129, 16)),
    "periodic": lambda: (make_model_a(), make_pm_field(UGrid(-3.0, 3.0, 65, "periodic")),
                         np.arange(0, 65, 8)),
}


class TestMCExpectation:
    @pytest.mark.parametrize("seed", (3, 17))
    @pytest.mark.parametrize("eps", (0.2, 0.05))
    @pytest.mark.parametrize("case", sorted(MC_CASES))
    def test_flow_maps_match_positions(self, monkeypatch, case, eps, seed):
        """An all-affine field composes each path's flow map and never
        flows positions; it reads what the positions loop reads, up to the
        rounding of the composition."""
        m, fld, u_idx = MC_CASES[case]()
        expected = reference_mc(m, fld, PHI, 1.0, eps, 2000, seed, u_idx)

        def no_flow(*args, **kwargs):
            raise AssertionError("positions flowed")
        monkeypatch.setattr(oracle, "flow", no_flow)
        got = mc_expectation(m, fld, PHI, 1.0, eps, 2000, seed, u_indices=u_idx)
        assert np.abs(got.values - expected[0]).max() <= 1e-14
        assert np.abs(got.stderr - expected[1]).max() <= 1e-14

    def test_tabulated_field_flows_positions(self):
        """A tabulated state has no flow map: such a field keeps the positions
        loop's arithmetic, bit for bit."""
        m, (_, fld) = make_mixed_model(), _mixed_fields(_SMALL)
        u_idx = np.arange(0, 129, 32)
        got = mc_expectation(m, fld, PHI, 1.0, 0.2, 1000, 5, u_indices=u_idx)
        values, stderr = reference_mc(m, fld, PHI, 1.0, 0.2, 1000, 5, u_idx)
        assert np.array_equal(got.values, values)
        assert np.array_equal(got.stderr, stderr)

    def test_constant_function(self):
        m = make_model_a()
        fld = make_pm_field()
        est = mc_expectation(m, fld, lambda u: np.ones_like(u), 0.5, 0.1, 2000,
                             seed=5, u_indices=np.array([100, 128]))
        assert_allclose(est.values, 1.0)
        assert_allclose(est.stderr, 0.0)

    def test_deterministic_velocity_zero_variance(self):
        m = make_model_a()
        fld = VelocityField(GRID, (StateVelocity("constant", value=0.5),
                                   StateVelocity("constant", value=0.5)))
        u_idx = np.array([96, 128, 160])
        est = mc_expectation(m, fld, PHI, 1.0, 0.1, 2000, seed=5, u_indices=u_idx)
        expected = PHI(GRID.nodes[u_idx] + 0.5)
        assert np.abs(est.values - expected).max() < 1e-12
        assert est.stderr.max() < 1e-15

    def test_bit_identical_reruns(self):
        m = make_model_a()
        fld = make_pm_field()
        kwargs = dict(t=0.7, eps=0.1, n_samples=3000, seed=99,
                      u_indices=np.array([110, 140]))
        a = mc_expectation(m, fld, PHI, **kwargs)
        b = mc_expectation(m, fld, PHI, **kwargs)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.stderr, b.stderr)

    def test_start_points_have_independent_streams(self):
        m = make_model_a()
        fld = make_pm_field()
        one = mc_expectation(m, fld, PHI, 0.5, 0.1, 2000, seed=1,
                             u_indices=np.array([100, 150]))
        # each start state has its own stream and each node's column is
        # reduced alone, so a node requested alone reproduces its joint column
        alone = mc_expectation(m, fld, PHI, 0.5, 0.1, 2000, seed=1,
                               u_indices=np.array([150]))
        assert np.array_equal(one.values[:, 1], alone.values[:, 0])

    def test_nodes_of_a_state_share_switching_paths(self):
        # constant ±1 velocities: a replicate's displacement depends on its
        # path alone, so nodes riding the same paths differ by their offset
        m = make_model_a()
        u_idx = np.array([90, 100, 128, 150, 170])
        est = mc_expectation(m, make_pm_field(), lambda u: u, 1.0, 0.1, 2000, seed=8,
                             u_indices=u_idx)
        offsets = GRID.nodes[u_idx] - GRID.nodes[u_idx[0]]
        for x in range(m.n_states):
            assert np.abs(est.values[x] - est.values[x, 0] - offsets).max() < 1e-12
            assert np.abs(est.stderr[x] - est.stderr[x, 0]).max() < 1e-12
        assert est.stderr.min() > 0.0

    def test_minimum_samples_enforced(self):
        m = make_model_a()
        with pytest.raises(ValueError):
            mc_expectation(m, make_pm_field(), PHI, 0.5, 0.1, 10, seed=0)


@pytest.mark.parametrize("eps,t,bad", [
    (0.0, 0.5, "eps"), (-0.1, 0.5, "eps"), (math.nan, 0.5, "eps"), (math.inf, 0.5, "eps"),
    (0.1, -0.5, "t"), (0.1, math.nan, "t"), (0.1, math.inf, "t")])
@pytest.mark.parametrize("method", ("mc", "direct"))
def test_oracles_reject_bad_eps_and_t(monkeypatch, method, eps, t, bad):
    """eps must be finite and > 0 and every t finite and >= 0; each oracle
    raises naming the argument before any draw or march."""
    def no_work(*args):
        raise AssertionError("oracle started")
    monkeypatch.setattr(oracle, "_march", no_work)
    monkeypatch.setattr(oracle, "_philox_stream", no_work)
    if method == "mc":
        call, name = lambda: mc_expectation(make_model_a(), make_pm_field(), PHI, t, eps,
                                            1000, seed=0), "t"
    else:
        call, name = lambda: direct_solve_phi(make_model_a(), make_pm_field(), PHI,
                                              [0.0, t], eps), "t_eval"
    with pytest.raises(ValueError, match=f"^{name if bad == 't' else 'eps'} must be"):
        call()


class TestDirectSolver:
    def test_time_zero(self):
        m = make_model_a()
        fld = make_pm_field()
        est = direct_solve_phi(m, fld, PHI, [0.0], eps=0.1)[0]
        assert np.abs(est.values - PHI(GRID.nodes)[None, :]).max() == 0.0

    def test_single_state_no_switching(self):
        m = SemiMarkovModel(states=("s",), P=[[1.0]],
                            sojourns=(SojournDistribution("exponential", rate=1.0),))
        fld = VelocityField(GRID, (StateVelocity("constant", value=1.0),))
        est = direct_solve_phi(m, fld, PHI, [1.0], eps=0.1, h_s=0.02)[0]
        expected = PHI(GRID.nodes + 1.0)
        assert np.abs(est.values[0] - expected).max() < 1e-6

    def test_seed_independent(self):
        m = make_model_a()
        fld = make_pm_field()
        a = direct_solve_phi(m, fld, PHI, [0.5], eps=0.1, h_s=0.04)[0]
        b = direct_solve_phi(m, fld, PHI, [0.5], eps=0.1, h_s=0.04)[0]
        assert np.array_equal(a.values, b.values)
        assert a.stderr.max() == 0.0

    def test_step_halving_consistency(self):
        m = make_model_a()
        fld = make_pm_field()
        a = direct_solve_phi(m, fld, PHI, [0.5], eps=0.1, h_s=0.04)[0]
        b = direct_solve_phi(m, fld, PHI, [0.5], eps=0.1, h_s=0.02)[0]
        assert np.abs(a.values - b.values).max() < 1e-4

    def test_richardson_agrees_with_fine(self):
        m = make_model_a()
        fld = make_pm_field()
        rich = direct_solve_phi(m, fld, PHI, [0.5], eps=0.1, h_s=0.05,
                                richardson=True)[0]
        fine = direct_solve_phi(m, fld, PHI, [0.5], eps=0.1, h_s=0.01)[0]
        assert np.abs(rich.values - fine.values).max() < 2e-6

    def test_richardson_error_bar_covers_fine_march(self):
        """|E(h_s) - E(2 h_s)| / 15 is the size of the extrapolated value's
        error, measured against a Richardson reference at h_s / 4.  The bar is
        checked in the sup norm: it nears zero where the error changes sign,
        so no node-by-node bound holds."""
        m = make_model_a()
        fld = make_pm_field()
        rich = direct_solve_phi(m, fld, PHI, [0.5], eps=0.1, h_s=0.05,
                                richardson=True)[0]
        ref = direct_solve_phi(m, fld, PHI, [0.5], eps=0.1, h_s=0.0125,
                               richardson=True)[0]
        err = np.abs(rich.values - ref.values).max()
        bar = rich.stderr.max()
        assert 0.5 <= bar / err <= 2.0
        # the factor remainder_compare's noise floor puts on stderr
        assert err <= 4.0 * bar

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_matches_reference_march(self, monkeypatch, case):
        m, fld, t_eval, eps, kwargs = REFERENCE_CASES[case]()
        if case == "lag_cutoff":
            n_steps = round(max(t_eval) / (eps * kwargs["h_s"]))
            assert all(d.decay_point(1e-14) / kwargs["h_s"] + 2 < n_steps
                       for d in m.sojourns)
        got = direct_solve_phi(m, fld, PHI, t_eval, eps, **kwargs)
        monkeypatch.setattr(oracle, "_march", reference_march)
        expected = direct_solve_phi(m, fld, PHI, t_eval, eps, **kwargs)
        assert [e.t for e in got] == [e.t for e in expected]
        for a, b in zip(got, expected):
            scale = np.abs(b.values).max()
            assert np.abs(a.values - b.values).max() <= 1e-12 * scale
            assert np.abs(a.stderr - b.stderr).max() <= 1e-12 * scale

    def test_periodic_lag_cutoff_cuts_the_history(self):
        m, fld, t_eval, eps, kwargs = REFERENCE_CASES["lag_cutoff_periodic"]()
        n_steps = round(max(t_eval) / (eps * kwargs["h_s"]))
        assert all(d.decay_point(1e-14) / kwargs["h_s"] + 2 < n_steps for d in m.sojourns)

    @staticmethod
    def _lag_kernels(m, fld, t, eps, h_s):
        n_steps = round(t / (eps * h_s))
        weights, _ = kernel_node_weights(m.sojourns, 0, h_s * np.arange(n_steps + 1))
        lag_times = eps * h_s * np.arange(1, n_steps + 1)
        return [oracle._lag_kernel(fld, x, lag_times, weights[x, 1:])
                for x in range(m.n_states)]

    def test_gathers_only_clipped_end_columns(self):
        """Constant velocities: the gathered nodes are exactly those whose
        flowed stencil clips at some lag, at most ceil(|v| t / h) +
        INTERP_ORDER at each end; the dense lag kernel covers the rest."""
        m, fld, t, eps = make_model_a(), make_pm_field(_SMALL), 1.0, 0.1
        npts = _SMALL.n_points
        for x, (K, d_min, inner) in enumerate(self._lag_kernels(m, fld, t, eps, 0.02)):
            gathered = np.r_[0:inner.start, inner.stop:npts]
            p = (flow_positions(fld, x, eps * 0.02 * np.arange(1, K.shape[1] + 1))
                 - _SMALL.u_min) / _SMALL.spacing
            low = np.floor(p) - (oracle.INTERP_ORDER // 2 - 1)
            clipped = ((low < 0) | (low + oracle.INTERP_ORDER > npts)).any(axis=0)
            np.testing.assert_array_equal(gathered, np.flatnonzero(clipped))
            per_end = math.ceil(abs(fld.specs[x].intercept) * t / _SMALL.spacing) \
                + oracle.INTERP_ORDER
            assert inner.start <= per_end and npts - inner.stop <= per_end

    def test_linear_states_gather_every_column(self):
        m, (fld, _) = make_mixed_model(), _mixed_fields(_SMALL)
        kernels = self._lag_kernels(m, fld, 1.0, 0.2, 0.02)
        assert [k is None for k in kernels] == [True, False, True]

    # the plain cases keep the ids they had before eps and richardson were parameters
    @pytest.mark.parametrize("h_s,t_eval,bad,eps,richardson", [
        pytest.param(0.03, [0.5, 1.0], "t=0.5 ", 0.2, False, id="0.03-t_eval0-t=0.5 "),
        pytest.param(0.02, [0.5, 0.51], "t=0.51 ", 0.2, False, id="0.02-t_eval1-t=0.51 "),
        # 125 steps eps*h_s, but 62.5 steps of the coarse march 2*eps*h_s
        pytest.param(0.04, [0.5], "t=0.5 ", 0.1, True, id="richardson-0.04-t=0.5 "),
    ])
    def test_off_grid_time_rejected_before_march(self, monkeypatch, h_s, t_eval, bad, eps,
                                                 richardson):
        def no_march(*args):
            raise AssertionError("march started")
        monkeypatch.setattr(oracle, "_march", no_march)
        with pytest.raises(ValueError) as info:
            direct_solve_phi(make_model_a(), make_pm_field(), PHI, t_eval, eps=eps, h_s=h_s,
                             richardson=richardson)
        msg = str(info.value)
        assert bad in msg and "oracle.h_s" in msg and f"{eps:g}" in msg
        assert ("2*eps*oracle.h_s" in msg) == richardson

    def test_cost_guardrail(self):
        m = make_model_a()
        fld = make_pm_field()
        with pytest.raises(DirectSolverCost):
            direct_solve_phi(m, fld, PHI, [1.0], eps=1e-4, h_s=0.001)

    def test_cost_guardrail_counts_the_longest_march(self, monkeypatch):
        """The h_s march takes exactly MAX_STEPS and is admitted; with
        richardson the h_s/2 march takes twice that, and is refused before
        any march starts."""
        from fastswitch import oracle

        def no_march(*args):
            raise AssertionError("march started")
        monkeypatch.setattr(oracle, "_march", no_march)
        eps, h_s = 0.001, 1.0 / 60.0
        assert round(1.0 / (eps * h_s)) == oracle.MAX_STEPS
        with pytest.raises(AssertionError, match="march started"):
            direct_solve_phi(make_model_a(), make_pm_field(), PHI, [1.0], eps, h_s=h_s)
        with pytest.raises(DirectSolverCost) as info:
            direct_solve_phi(make_model_a(), make_pm_field(), PHI, [1.0], eps, h_s=h_s,
                             richardson=True)
        msg = str(info.value)
        assert f"{2 * oracle.MAX_STEPS} steps" in msg and "half-step march (h_s/2)" in msg

    def test_averaging_limit(self):
        """Decreasing eps drives the solution to the averaged flow value."""
        m = make_model_a()
        fld = make_pm_field()
        errs = []
        for eps in (0.2, 0.1, 0.05):
            est = direct_solve_phi(m, fld, PHI, [1.0], eps, h_s=0.02)[0]
            limit = PHI(GRID.nodes + 1.0 / 3.0)
            errs.append(np.abs(est.values - limit[None, :]).max())
        assert errs[0] > errs[1] > errs[2]


class TestCrossOracle:
    def test_mc_within_four_sigma_of_direct(self):
        m = make_model_a()
        fld = make_pm_field()
        u_idx = np.arange(64, 193, 16)
        mc = mc_expectation(m, fld, PHI, 1.0, 0.1, 20000, seed=7, u_indices=u_idx)
        direct = direct_solve_phi(m, fld, PHI, [1.0], 0.1, h_s=0.02)[0]
        diff = np.abs(mc.values - direct.values[:, u_idx])
        assert np.all(diff < 4.0 * mc.stderr + 1e-8)

    def test_mc_wraps_on_periodic_grid(self):
        # paths leave [-3, 3]; both oracles must read φ periodically, the
        # seam node u = 3 included
        m = make_model_a()
        fld = make_pm_field(UGrid(-3.0, 3.0, 129, "periodic"))
        phi = TestFunction("gaussian", 0.0, 0.7)
        mc = mc_expectation(m, fld, phi, 1.0, 0.1, 20000, seed=7)
        direct = direct_solve_phi(m, fld, phi, [1.0], 0.1, h_s=0.02)[0]
        assert np.all(np.abs(mc.values - direct.values) < 4.0 * mc.stderr + 1e-8)
