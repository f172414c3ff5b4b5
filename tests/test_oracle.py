import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fastswitch import oracle
from fastswitch.field import (StateVelocity, TestFunction, UGrid, VelocityField, flow,
                             flow_positions, interp_weights, lag_kernel)
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


def _four_state_tabulated(grid):
    """Four states, one erlang(3) sojourn (four draw channels), zero
    transition probabilities (row 0 ends in one), tabulated velocities."""
    model = SemiMarkovModel(
        states=("a", "b", "c", "d"),
        P=[[0.0, 0.5, 0.5, 0.0], [0.3, 0.0, 0.0, 0.7], [0.2, 0.3, 0.0, 0.5],
           [0.4, 0.1, 0.5, 0.0]],
        sojourns=(SojournDistribution("exponential", rate=2.0),
                  SojournDistribution("erlang", rate=3.0, shape=3),
                  SojournDistribution("uniform", a=0.1, b=0.9),
                  SojournDistribution("erlang", rate=2.0, shape=2)))
    closed = VelocityField(grid, (StateVelocity("linear", slope=-0.1, intercept=1.0),
                                  StateVelocity("constant", value=-1.0),
                                  StateVelocity("linear", slope=0.05, intercept=0.3),
                                  StateVelocity("constant", value=0.5)))
    return model, VelocityField(grid, tuple(StateVelocity("tabulated", table=row)
                                            for row in closed.values))


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
    # unequal drifts: each state has its own offset range, and its drift
    # clips it at one end only
    "unequal_drifts": lambda: (make_model_a(),
                               VelocityField(_SMALL, (StateVelocity("constant", value=2.0),
                                                      StateVelocity("constant", value=-0.5))),
                               [0.5, 1.0], 0.2, {}),
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

# name -> (model, tabulated field): the cases mc_expectation is held to
# reference_mc on bit for bit
TABULATED_CASES = {
    "mixed": lambda: (make_mixed_model(), _mixed_fields(_SMALL)[1]),
    "four_state": lambda: _four_state_tabulated(_SMALL),
}


def _searchsorted_next(cum_row, u):
    return np.minimum(np.searchsorted(cum_row, u, side="right"), len(cum_row) - 1)


@pytest.mark.parametrize("row", ([0.2, 0.5, 0.3], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0],
                                 [0.1] * 10, [1.0], [0.0, 0.0, 1.0]))
def test_next_states_match_searchsorted(row):
    """The comparison count gives the state searchsorted gives, at every
    cumulative entry exactly, at both ends of [0, 1) and past a row sum that
    rounds below 1."""
    cum_row = np.cumsum(row)
    u = np.concatenate([cum_row, [0.0, np.nextafter(1.0, 0.0)],
                        np.random.default_rng(0).random(1000)])
    got = oracle._next_states(cum_row, u, np.uint8)
    assert got.dtype == np.uint8
    assert np.array_equal(got, _searchsorted_next(cum_row, u))
    if len(row) == 10:
        assert cum_row[-1] < 1.0 and got[len(row) + 1] == 9


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

    @pytest.mark.parametrize("eps", (0.2, 0.05))
    @pytest.mark.parametrize("case", sorted(TABULATED_CASES))
    def test_tabulated_field_flows_positions(self, case, eps):
        """A tabulated state has no flow map: such a field keeps the positions
        loop's arithmetic, bit for bit, through the grouped round's slices
        and its comparison-count next states."""
        m, fld = TABULATED_CASES[case]()
        u_idx = np.arange(0, 129, 32)
        got = mc_expectation(m, fld, PHI, 1.0, eps, 1000, 5, u_indices=u_idx)
        values, stderr = reference_mc(m, fld, PHI, 1.0, eps, 1000, 5, u_idx)
        assert np.array_equal(got.values, values)
        assert np.array_equal(got.stderr, stderr)

    def test_sampler_rounds_and_draws(self, monkeypatch):
        """Jump rounds and uniform rows drawn per start state, counted on the
        Philox generators: the grouped round reads the streams exactly as
        the positions loop does."""
        counts = []

        class Counted:
            def __init__(self, rng):
                self.rng, self.rounds, self.rows = rng, 0, 0
                counts.append(self)

            def random(self, size):
                self.rounds += 1
                self.rows += size[0]
                return self.rng.random(size)

        stream = oracle._philox_stream
        monkeypatch.setattr(oracle, "_philox_stream", lambda *key: Counted(stream(*key)))
        m, fld, u_idx = MC_CASES["mixed_linear"]()
        mc_expectation(m, fld, PHI, 1.0, 0.1, 2000, 3, u_indices=u_idx)
        got = [(c.rounds, c.rows) for c in counts]
        counts.clear()
        reference_mc(m, fld, PHI, 1.0, 0.1, 2000, 3, u_idx)
        expected = [(c.rounds, c.rows) for c in counts]
        print(f"mc sampler: mixed_linear eps 0.1 seed 3 2000 samples: rounds "
              f"{'/'.join(str(r) for r, _ in got)} draws {'/'.join(str(d) for _, d in got)}")
        assert got == expected and len(got) == m.n_states

    @pytest.mark.parametrize("seed", (2**63, -2**63 - 1, 2**64 + 1))
    def test_seed_outside_key_range_rejected(self, monkeypatch, seed):
        """The Philox key holds a seed modulo 2**64, so a seed outside
        [-2**63, 2**63) would alias one inside; it is refused before any draw."""
        def no_draw(*args):
            raise AssertionError("stream opened")
        monkeypatch.setattr(oracle, "_philox_stream", no_draw)
        with pytest.raises(ValueError, match=r"^seed must lie in \[-2\*\*63, 2\*\*63\)"):
            mc_expectation(make_model_a(), make_pm_field(), PHI, 0.5, 0.1, 1000, seed)

    def test_seed_range_ends_keep_their_streams(self):
        """Seeds at both ends of the range run, each on its own key: -1 is
        2**64 - 1 modulo 2**64, as it always was, and differs from 2**63 - 1."""
        m, fld, u_idx = make_model_a(), make_pm_field(), np.array([128])
        runs = {seed: mc_expectation(m, fld, PHI, 0.5, 0.1, 1000, seed, u_indices=u_idx).values
                for seed in (-2**63, -1, 2**63 - 1)}
        assert not np.array_equal(runs[-1], runs[2**63 - 1])
        assert not np.array_equal(runs[-2**63], runs[2**63 - 1])
        first = oracle._philox_stream(-1, 0).random(4)
        assert np.array_equal(first, np.random.Generator(np.random.Philox(
            key=np.array([2**64 - 1, 0], dtype=np.uint64))).random(4))

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
        lag_times = eps * h_s * np.arange(1, round(t / (eps * h_s)) + 1)
        return [lag_kernel(fld, x, lag_times, order=oracle.INTERP_ORDER)
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
        assert [len(K) == 0 and inner.stop <= inner.start
                for K, _, inner in kernels] == [True, False, True]

    @staticmethod
    def _stencil_columns(monkeypatch, case):
        """Position columns of each oracle.interp_weights call of the case's
        direct solve, the attribute the traced run wraps."""
        widths = []
        original = oracle.interp_weights

        def counted(grid, positions, *args, **kwargs):
            widths.append(np.shape(positions)[-1])
            return original(grid, positions, *args, **kwargs)
        monkeypatch.setattr(oracle, "interp_weights", counted)
        m, fld, t_eval, eps, kwargs = REFERENCE_CASES[case]()
        direct_solve_phi(m, fld, PHI, t_eval, eps, **kwargs)
        return widths

    def test_translations_build_stencils_per_lag(self, monkeypatch):
        """A translation state's first-jump term reads per-lag stencils: full
        stencils are built only for the columns that clip at some lag
        1..J (J = n_steps here), far fewer than the grid's.  Lag 0 is the
        march's implicit diagonal, so it widens no edge: 12 columns of the
        negative-drift state clip, where lags 0..J would clip 13."""
        m, fld, t_eval, eps, _ = REFERENCE_CASES["model_a"]()
        grid, npts = fld.grid, fld.grid.n_points
        n_steps = round(max(t_eval) / (eps * 0.02))
        clipped = []
        for x in range(m.n_states):
            p = (flow_positions(fld, x, eps * 0.02 * np.arange(1, n_steps + 1))
                 - grid.u_min) / grid.spacing
            low = np.floor(p) - (oracle.INTERP_ORDER // 2 - 1)
            clipped.append(int(((low < 0) | (low + oracle.INTERP_ORDER > npts))
                               .any(axis=0).sum()))
        assert self._stencil_columns(monkeypatch, "model_a") == clipped
        assert clipped[1] == 12 and max(clipped) < npts // 4

    def test_lag_zero_widens_no_edge(self, monkeypatch):
        """On the 257-point grid, the drift -1 state's 807 lags of 0.001
        share one kernel at the inner nodes 15..255; lags 0..807 would end
        them at 254."""
        inners = []
        original = oracle.lag_kernel

        def recorded(*args, **kwargs):
            kernel = original(*args, **kwargs)
            inners.append(kernel[2])
            return kernel
        monkeypatch.setattr(oracle, "lag_kernel", recorded)
        direct_solve_phi(make_model_a(), make_pm_field(), PHI, [1.0], 0.05, h_s=0.02)
        assert inners[1] == slice(15, 255)

    def test_linear_states_build_stencils_for_every_column(self, monkeypatch):
        widths = self._stencil_columns(monkeypatch, "mixed_linear")
        # states 0 and 2 are linear, state 1 a translation
        assert widths[0] == widths[2] == _SMALL.n_points > widths[1]

    def test_one_split_per_state(self, monkeypatch):
        """Lags 1..J split each state's nodes once: one lag kernel and one
        stencil build per state, both over J lags, where J is the history's
        cut, below n_steps here; lag 0 is the march's implicit diagonal."""
        kernel_lags, stencil_rows = [], []
        lag_kernel_orig, interp_weights_orig = oracle.lag_kernel, oracle.interp_weights

        def counted_kernel(fld, x, lag_times, *args, **kwargs):
            kernel_lags.append((x, len(lag_times)))
            return lag_kernel_orig(fld, x, lag_times, *args, **kwargs)

        def counted_weights(grid, positions, *args, **kwargs):
            stencil_rows.append(np.shape(positions)[0])
            return interp_weights_orig(grid, positions, *args, **kwargs)
        monkeypatch.setattr(oracle, "lag_kernel", counted_kernel)
        monkeypatch.setattr(oracle, "interp_weights", counted_weights)
        m, fld, t_eval, eps, kwargs = REFERENCE_CASES["lag_cutoff_periodic"]()
        direct_solve_phi(m, fld, PHI, t_eval, eps, **kwargs)
        n_steps = round(max(t_eval) / (eps * kwargs["h_s"]))
        lags = [min(n_steps, math.ceil(d.decay_point(1e-14) / kwargs["h_s"]) + 1)
                for d in m.sojourns]
        print(f"direct march split: lag_kernel calls {[x for x, _ in kernel_lags]}, "
              f"lags {[n for _, n in kernel_lags]}, stencil rows {stencil_rows}, "
              f"J {lags} of {n_steps}")
        assert kernel_lags == list(enumerate(lags))
        assert stencil_rows == lags
        assert max(lags) < n_steps

    def test_march_memory(self):
        """A translation march holds little beyond its two (n_steps + 1) x
        n_states x n_points arrays, the first-jump terms and the history of
        P Φ: no full-grid stencils over every lag."""
        m, fld = make_model_a(), make_pm_field(GRID)
        eps, h_s, t = 0.05, 0.02, 1.0
        n_steps = round(t / (eps * h_s))
        direct_solve_phi(m, fld, PHI, [0.01], eps, h_s=h_s)   # imports outside the trace
        tracemalloc.start()
        try:
            direct_solve_phi(m, fld, PHI, [t], eps, h_s=h_s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = 2 * (n_steps + 1) * m.n_states * GRID.n_points * 8
        print(f"direct march memory: peak {peak / 2**20:.1f} MB = {peak / arrays:.2f} x "
              f"first + hist ({n_steps} steps, {GRID.n_points} points)")
        assert peak < 3 * arrays

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

    @pytest.mark.parametrize("eps", [0.2, 0.15, 0.1, 0.075])
    @pytest.mark.parametrize("richardson", [False, True])
    def test_march_steps_keep_the_requested_time(self, eps, richardson):
        # 0.75 is 150 to 400 steps eps*0.025; at eps 0.2 and 0.1 the grid time
        # i*eps*h_s rounds to 0.7500000000000001, which the estimate must not report
        steps = oracle.march_steps([0.75, 0.3], eps, 0.025, richardson)
        assert steps == {round(0.3 / (eps * 0.025)): 0.3, round(0.75 / (eps * 0.025)): 0.75}

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
