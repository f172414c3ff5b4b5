import numpy as np
import pytest
from numpy.testing import assert_allclose

from fastswitch.field import StateVelocity, UGrid, VelocityField
from fastswitch.model import SemiMarkovModel, SojournDistribution
from fastswitch.oracle import DirectSolverCost, direct_solve_phi, mc_expectation

from conftest import GRID, PHI, make_mixed_model, make_model_a, make_pm_field


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


class TestMCExpectation:
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
        # computing a start alone reproduces its column from the joint run
        alone = mc_expectation(m, fld, PHI, 0.5, 0.1, 2000, seed=1,
                               u_indices=np.array([150]))
        assert np.array_equal(one.values[:, 1], alone.values[:, 0])

    def test_minimum_samples_enforced(self):
        m = make_model_a()
        with pytest.raises(ValueError):
            mc_expectation(m, make_pm_field(), PHI, 0.5, 0.1, 10, seed=0)


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
        rich = direct_solve_phi(m, fld, PHI, [0.5], eps=0.1, h_s=0.04,
                                richardson=True)[0]
        fine = direct_solve_phi(m, fld, PHI, [0.5], eps=0.1, h_s=0.01)[0]
        assert np.abs(rich.values - fine.values).max() < 2e-6

    def test_cost_guardrail(self):
        m = make_model_a()
        fld = make_pm_field()
        with pytest.raises(DirectSolverCost):
            direct_solve_phi(m, fld, PHI, [1.0], eps=1e-4, h_s=0.001)

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
