import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from fastswitch.field import (StateVelocity, UGrid, VelocityField, _stencil, fd_derivative,
                              fornberg_weights, sup_norm)
from fastswitch.model import SojournDistribution, SemiMarkovModel, generator, semi_markov_stationary
from fastswitch.operators import (L_series_values, TimeSeries, build_kit, potential_build,
                                  state_mix, velocity_power_values)
from fastswitch.regular import (averaged_flow_table, projected_frak_L_series, regular_term,
                                solve_c0, system_rhs_values)

from conftest import make_model_a, make_pm_field, random_model, PHI


def project(pi, values):
    """(Π f)(x, u) = Σ_y π_y f(y, u), broadcast back over the states."""
    return np.broadcast_to(pi @ values, values.shape)


def literal_L_values(k, kit, series):
    """The printed-order L_k without the binomial C(k,j), reindexed j = k - n:
    Σ_j (-1)^(k-j) V^(k-j) P U^(j)."""
    out = 0.0
    for j in range(k + 1):
        dv = series.derivative_values(j)
        if dv.shape[1] != kit.model.n_states:
            dv = np.repeat(dv, kit.model.n_states, axis=1)
        out = out + (-1.0) ** (k - j) * velocity_power_values(kit.fld, state_mix(kit.P, dv), k - j)
    return out


def reference_frak_L(k, kit, c_series):
    """The unprojected script-L recursion on one coefficient series,
    script-L_k = Σ_{n=1..k} μ_n L_n R0 script-L_{k-n} + μ_{k+1} L_{k+1} with
    script-L_0 = L_1, as (n_times, n_states, n_points) values."""
    cache = [L_series_values(1, kit, c_series)]
    for j in range(1, k + 1):
        total = None
        for n in range(1, j + 1):
            r0_inner = TimeSeries(state_mix(kit.R0, cache[j - n]), c_series.h_t)
            term = kit.mu(n)[None, :, None] * L_series_values(n, kit, r0_inner)
            total = term if total is None else total + term
        tail = kit.mu(j + 1)[None, :, None] * L_series_values(j + 1, kit, c_series)
        total = tail if total is None else total + tail
        cache.append(total)
    return cache[k]


def range_only_U(kit, c0, k):
    """U_0 = c0 and U_m = R0 S_m for m = 1..k: every later coefficient c_m is
    zero, so Σ_j Π script-L_j c_{k-j} keeps Π script-L_k c0 alone."""
    U = [c0]
    for m in range(1, k + 1):
        U.append(regular_term(kit, system_rhs_values(kit, U, m), c0.h_t)[0])
    return U


def projected_frak_L_of_c0(k, kit, c0):
    """Π script-L_k c0 from the closed form, as (n_times, n_points)."""
    U = range_only_U(kit, c0, k)
    return projected_frak_L_series(kit, U[:k], U[k], k)


def state_independent(values_1d, n_states):
    return np.repeat(np.asarray(values_1d)[None, :], n_states, axis=0)


class TestProjector:
    def test_direct_example(self, grid):
        kit = _constant_kit()  # model A: pi = (2/3, 1/3)
        f = np.vstack([np.full(grid.n_points, 3.0), np.zeros(grid.n_points)])
        assert_allclose(kit.project_values(f), 2.0, atol=1e-14)

    def test_fixes_state_constant(self, grid):
        pi = np.array([0.3, 0.7])
        f = state_independent(np.sin(grid.nodes), 2)
        assert_allclose(project(pi, f), f, atol=1e-14)

    def test_P_fixes_state_constant_before_projection(self, grid):
        # P is stochastic, so state-constant functions pass through unchanged
        # and the projection commutes on them
        m = make_model_a()
        from fastswitch.model import semi_markov_stationary as _sms
        pi, _ = _sms(m)
        f = state_independent(np.sin(grid.nodes), 2)
        pf = state_mix(m.P, f)
        assert sup_norm(project(pi, pf) - project(pi, f)) < 1e-14

    @given(st.integers(min_value=0, max_value=5_000))
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        pi = rng.random(n) + 0.05
        pi /= pi.sum()
        f = rng.normal(size=(n, 17))
        once = project(pi, f)
        twice = project(pi, once)
        assert sup_norm(once - twice) < 1e-14


class TestPotential:
    def test_model_a_frozen_matrix(self):
        m = make_model_a()
        pi, _ = semi_markov_stationary(m)
        pot = potential_build(generator(m), pi)
        assert_allclose(pot.R0, [[-1.0 / 9.0, 1.0 / 9.0], [2.0 / 9.0, -2.0 / 9.0]],
                        atol=1e-13)
        # independent 2x2 check: R0 Q = I - Pi
        Pi = np.ones((2, 1)) @ pi[None, :]
        assert_allclose(pot.R0 @ generator(m), np.eye(2) - Pi, atol=1e-13)
        assert_allclose(np.eye(2) - Pi, [[1.0 / 3.0, -1.0 / 3.0], [-2.0 / 3.0, 2.0 / 3.0]],
                        atol=1e-13)

    def test_annihilates_state_constant(self, grid):
        m = make_model_a()
        pi, _ = semi_markov_stationary(m)
        pot = potential_build(generator(m), pi)
        f = state_independent(np.cos(grid.nodes), 2)
        assert sup_norm(state_mix(pot.R0, f)) < 1e-13

    @given(st.integers(min_value=0, max_value=5_000))
    def test_inverts_generator_on_range(self, seed):
        rng = np.random.default_rng(seed)
        m = random_model(rng, n_max=12)
        pi, _ = semi_markov_stationary(m)
        Q = generator(m)
        pot = potential_build(Q, pi)
        f = rng.normal(size=(m.n_states, 17))
        back = state_mix(pot.R0, Q @ f)
        expect = f - pi @ f
        assert np.abs(back - expect).max() < 1e-9

    @given(st.integers(min_value=0, max_value=5_000))
    def test_identities_random_models(self, seed):
        rng = np.random.default_rng(seed)
        m = random_model(rng, n_max=20)
        pi, _ = semi_markov_stationary(m)
        Q = generator(m)
        pot = potential_build(Q, pi)
        n = m.n_states
        Pi = np.ones((n, 1)) @ pi[None, :]
        eye = np.eye(n)
        assert np.abs(pot.R0 @ Q - (eye - Pi)).max() < 1e-10
        assert np.abs(Q @ pot.R0 - (eye - Pi)).max() < 1e-10
        assert np.abs(Pi @ pot.R0).max() < 1e-10
        assert np.abs(pot.R0 @ Pi).max() < 1e-10


def reference_fd_derivative(values, h, order, axis, periodic):
    """fd_derivative written out with each interior term added as one
    full-width product, interior += w[j] * v[shifted]: the per-element
    operations of the routine, in the same order."""
    values = np.asarray(values, dtype=float)
    axis = axis % values.ndim
    width = order + 4
    lo = width // 2

    def along(start, stop):
        return (slice(None),) * axis + (slice(start, stop),)

    n = values.shape[axis] - int(periodic)
    v = values
    if periodic:
        core = values[along(0, n)]
        v = np.concatenate([core[along(n - lo, n)], core,
                            core[along(0, width - 1 - lo)]], axis=axis)
    out = np.empty_like(values)
    m = v.shape[axis] - width + 1
    first = 0 if periodic else lo
    interior = out[along(first, first + m)]
    w = _stencil(lo, width, order) / h**order
    np.multiply(v[along(0, m)], w[0], out=interior)
    for j in range(1, width):
        if w[j] != 0.0:
            interior += w[j] * v[along(j, j + m)]
    if periodic:
        out[along(n, n + 1)] = out[along(0, 1)]
        return out
    for rows, start in ((range(lo), 0), (range(lo + m, n), n - width)):
        w = np.array([_stencil(i - start, width, order) for i in rows]) / h**order
        block = np.moveaxis(v[along(start, start + width)], axis, 0)
        ends = np.einsum("rw,w...->r...", w, block)
        out[along(rows.start, rows.stop)] = np.moveaxis(ends, 0, axis)
    return out


def _constant_kit(v0=1.0, v1=-1.0):
    return build_kit(make_model_a(), make_pm_field())


class TestTimeSeries:
    def test_derivatives_of_polynomial(self):
        n_t = 41
        h = 0.05
        t = h * np.arange(n_t)
        vals = (t**3)[:, None, None] * np.ones((1, 1, 17))
        series = TimeSeries(vals, h)
        d1 = series.derivative_values(1)
        d2 = series.derivative_values(2)
        assert np.abs(d1[:, 0, 0] - 3 * t**2).max() < 1e-10
        assert np.abs(d2[:, 0, 0] - 6 * t).max() < 1e-9

    def test_sine_derivative_accuracy(self):
        h = 0.01
        t = h * np.arange(201)
        vals = np.sin(t)[:, None, None] * np.ones((1, 1, 17))
        series = TimeSeries(vals, h)
        d1 = series.derivative_values(1)
        assert np.abs(d1[:, 0, 0] - np.cos(t)).max() < 1e-7

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 8])
    def test_fd_matches_per_row_stencils(self, order):
        """fd_derivative against one Fornberg stencil per row: order + 4 nodes
        starting at clip(i - width//2, 0, n - width) on an open grid, centred
        and wrapped on a periodic one."""
        width = order + 4
        rng = np.random.default_rng(order)

        def per_row(vals, h, n):
            # rows along axis 0; row i reads vals[start(i) + j]
            out = np.empty((n,) + vals.shape[1:])
            for i in range(n):
                start = min(max(i - width // 2, 0), n - width)
                w = fornberg_weights(float(i - start), np.arange(width), order) / h**order
                out[i] = np.tensordot(w, vals[start:start + width], axes=(0, 0))
            return out

        def close(got, expected):
            return np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

        small = UGrid(-1.0, 1.0, 17)
        vals = rng.normal(size=(40, 3, 17))
        got = TimeSeries(vals, 0.05).derivative_values(order)
        assert close(got, per_row(vals, 0.05, 40))

        # u-axis on an open grid: the same rule along the last axis
        got = fd_derivative(vals, small.spacing, order, axis=-1, periodic=False)
        expected = per_row(np.moveaxis(vals, -1, 0), small.spacing, 17)
        assert close(got, np.moveaxis(expected, 0, -1))

        # periodic u-axis: 16 distinct nodes, node 16 repeats node 0
        periodic = vals.copy()
        periodic[..., -1] = periodic[..., 0]
        got = fd_derivative(periodic, small.spacing, order, axis=-1, periodic=True)
        w = fornberg_weights(float(width // 2), np.arange(width), order) / small.spacing**order
        expected = np.empty_like(periodic)
        for i in range(16):
            nodes = (i - width // 2 + np.arange(width)) % 16
            expected[..., i] = periodic[..., nodes] @ w
        expected[..., 16] = expected[..., 0]
        assert close(got, expected)

        # too short: fewer nodes (distinct nodes when periodic) than the width
        with pytest.raises(ValueError, match="too short"):
            TimeSeries(vals[:width - 1], 0.05).derivative_values(order)
        with pytest.raises(ValueError, match="too short"):
            fd_derivative(vals[..., :width], small.spacing, order, axis=-1, periodic=True)
        # width distinct nodes are enough
        fd_derivative(vals[..., :width + 1], small.spacing, order, axis=-1, periodic=True)

    @pytest.mark.parametrize("order", [1, 2, 4])
    @pytest.mark.parametrize("axis,periodic", [(0, False), (-1, False), (-1, True)])
    def test_blocked_fd_bit_identical(self, order, axis, periodic):
        """The result equals the full-width accumulation bit for bit, on
        small arrays, on many leading rows, and on leading rows of more than
        2^16 elements each (3 * 32769)."""
        rng = np.random.default_rng(order)
        for shape in ((40, 3, 17), (600, 2, 129), (12, 3, 2**15 + 1)):
            vals = rng.normal(size=shape)
            if periodic:
                vals[..., -1] = vals[..., 0]
            np.testing.assert_array_equal(
                fd_derivative(vals, 0.05, order, axis=axis, periodic=periodic),
                reference_fd_derivative(vals, 0.05, order, axis=axis, periodic=periodic))

    def test_derivative_cap(self):
        series = TimeSeries(np.zeros((16, 1, 17)), 0.1)
        series.derivative_values(8)
        with pytest.raises(ValueError, match="beyond cap 8"):
            series.derivative_values(9)


class TestLOperators:
    def test_k1_explicit_form(self, grid):
        kit = _constant_kit()
        times = np.linspace(0.0, 1.0, 201)
        c0 = solve_c0(kit, PHI, times, averaged_flow_table(kit, times))
        got = L_series_values(1, kit, c0)[50]
        d1 = c0.derivative_values(1)[50]
        expected = state_mix(kit.P, d1) - kit.fld.values * np.gradient(
            state_mix(kit.P, c0.values[50]), grid.spacing, axis=-1)
        # loose comparison: np.gradient is 2nd order; just check structure agrees
        assert np.abs(got - expected).max() < 1e-3

    def test_k1_binomial_equals_literal(self):
        kit = _constant_kit()
        times = np.linspace(0.0, 1.0, 201)
        c0 = solve_c0(kit, PHI, times, averaged_flow_table(kit, times))
        b = L_series_values(1, kit, c0)
        l = literal_L_values(1, kit, c0)
        assert np.abs(b - l).max() < 1e-13

    def test_constant_in_time_state_constant(self, grid):
        # U independent of t: L_1 U = -V P U = -v(u;x) U'(u)
        kit = _constant_kit()
        vals = np.repeat(PHI(grid.nodes)[None, None, :], 2, axis=1)
        series = TimeSeries(np.repeat(vals, 31, axis=0), 0.01)
        out = L_series_values(1, kit, series)
        from fastswitch.field import u_derivative_values
        expected = -kit.fld.values * u_derivative_values(vals[0], grid)
        assert np.abs(out[15] - expected).max() < 1e-12

    def test_solvability_projection_zero(self):
        kit = _constant_kit()
        times = np.linspace(0.0, 1.0, 201)
        c0 = solve_c0(kit, PHI, times, averaged_flow_table(kit, times))
        out = L_series_values(1, kit, c0)
        proj = kit.project_values(out)
        assert np.abs(proj).max() < 1e-12

    def test_collapse_telescoping_binomial(self):
        from conftest import make_collapse_model, make_collapse_field
        kit = build_kit(make_collapse_model(), make_collapse_field())
        times = np.linspace(0.0, 1.0, 201)
        c0 = solve_c0(kit, PHI, times, averaged_flow_table(kit, times))
        for k in (1, 2, 3):
            vals = L_series_values(k, kit, c0)
            assert np.abs(vals).max() < 1e-6, f"k={k}"

    def test_collapse_literal_form_fails_at_k2(self):
        # the printed form without binomial coefficients does not telescope
        from conftest import make_collapse_model, make_collapse_field
        kit = build_kit(make_collapse_model(), make_collapse_field())
        times = np.linspace(0.0, 1.0, 201)
        c0 = solve_c0(kit, PHI, times, averaged_flow_table(kit, times))
        vals = literal_L_values(2, kit, c0)
        assert np.abs(vals).max() > 1e-3


class TestFrakL:
    """regular.projected_frak_L_series forms Σ_j Π script-L_j c_{k-j} in closed
    form; reference_frak_L is the recursion it replaces."""

    def test_k1_matches_explicit_formula(self):
        # Π script-L_1 = Π L_1 R0 L_1 + Π μ_2 L_2
        kit = _constant_kit()
        times = np.linspace(0.0, 1.0, 201)
        c0 = solve_c0(kit, PHI, times, averaged_flow_table(kit, times))
        l1 = L_series_values(1, kit, c0)
        r0l1 = TimeSeries(state_mix(kit.R0, l1), c0.h_t)
        term1 = L_series_values(1, kit, r0l1)[100]
        term2 = kit.mu(2)[:, None] * L_series_values(2, kit, c0)[100]
        expected = kit.project_values(term1 + term2)
        reference = kit.project_values(reference_frak_L(1, kit, c0)[100])
        assert np.abs(reference - expected).max() < 1e-12
        got = projected_frak_L_of_c0(1, kit, c0)[100]
        assert np.abs(got - expected[0]).max() < 1e-12

    def test_single_state_reduces_to_tail_term(self):
        grid = UGrid(-8.0, 8.0, 257)
        m = SemiMarkovModel(states=("s",), P=[[1.0]],
                            sojourns=(SojournDistribution("erlang", rate=2.0, shape=2),))
        fld = VelocityField(grid, (StateVelocity("constant", value=0.5),))
        kit = build_kit(m, fld)
        assert np.abs(kit.R0).max() < 1e-14
        times = np.linspace(0.0, 1.0, 201)
        c0 = solve_c0(kit, PHI, times, averaged_flow_table(kit, times))
        expected = kit.mu(3)[None, :, None] * L_series_values(3, kit, c0)
        assert np.abs(reference_frak_L(2, kit, c0) - expected).max() < 1e-12
        got = projected_frak_L_of_c0(2, kit, c0)
        assert np.abs(got - expected[:, 0, :]).max() < 1e-12

    def test_collapse_vanishes(self):
        from conftest import make_collapse_model, make_collapse_field
        kit = build_kit(make_collapse_model(), make_collapse_field())
        times = np.linspace(0.0, 1.0, 201)
        c0 = solve_c0(kit, PHI, times, averaged_flow_table(kit, times))
        for k in (1, 2):
            assert sup_norm(kit.project_values(reference_frak_L(k, kit, c0))) < 1e-6
            assert sup_norm(projected_frak_L_of_c0(k, kit, c0)) < 1e-6

    def test_direct_sum_identity(self):
        """The closed form (the order-(k+1) right side with U_k^R in place of
        U_k) must reproduce the recursion summed over the solved coefficients
        (orders 1 and 2)."""
        from fastswitch.pipeline import build_expansion
        kit_model = make_model_a()
        fld = make_pm_field()
        res = build_expansion(kit_model, fld, PHI, order=2, horizon=0.5,
                              h_t=0.0025, h_tau=0.01)
        kit = res.kit
        for k in (1, 2):
            total = 0.0
            for j in range(1, k + 1):
                total = total + kit.project_values(reference_frak_L(j, kit, res.c[k - j]))
            U_Rk = regular_term(kit, system_rhs_values(kit, res.U, k), res.U[0].h_t)[0]
            closed = projected_frak_L_series(kit, res.U[:k], U_Rk, k)
            # FD differentiation of solved series is noisiest at the ends
            sl = slice(4, -4)
            assert np.abs(total[sl, 0] - closed[sl]).max() < 2e-5, f"k={k}"
