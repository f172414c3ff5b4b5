"""Outer (slow-time) part of the expansion: the averaged transport solution,
the inhomogeneous transport solves for the null-space coefficients, and the
order-k right side S_k with its range component and transport source.

The transport equation d c/dt = vhat(u) d c/du + g(t, u) is solved exactly
along the averaged characteristics (Duhamel), so there is no CFL restriction
and the homogeneous part is pure composition with the flow.
"""
from __future__ import annotations

import numpy as np

from .field import TestFunction, flow_positions, interp_apply, interp_weights
from .operators import L_series_values, OperatorKit, TimeSeries, velocity_power_values


def cumulative_simpson_weights(i: int, h: float) -> np.ndarray:
    """Weights over nodes 0..i for ∫_0^{t_i}; composite Simpson with a
    quadratic end correction on odd panel counts."""
    w = np.zeros(i + 1)
    if i == 0:
        return w
    if i == 1:
        # single trapezoid panel; the O(h^3) local error is negligible here
        return h * np.array([0.5, 0.5])
    last = i if i % 2 == 0 else i - 1
    w[0] += 1.0
    w[last] += 1.0
    w[1:last:2] += 4.0
    w[2:last:2] += 2.0
    w *= 1.0 / 3.0
    if i % 2 == 1:
        # final panel via the quadratic through the last three nodes
        w[i - 2] += -1.0 / 12.0
        w[i - 1] += 8.0 / 12.0
        w[i] += 5.0 / 12.0
    return h * w


def averaged_flow_table(kit: OperatorKit, times: np.ndarray):
    """Interpolation stencils at the averaged-flow positions for every time,
    as (n_times, n_points, width) index and weight arrays."""
    return interp_weights(kit.fld.grid, flow_positions(kit.vhat, 0, times))


def solve_c0(kit: OperatorKit, phi: TestFunction, times: np.ndarray,
             flow_table) -> TimeSeries:
    """Averaged transport solution c0(t, u) = φ(flow of vhat from u over t);
    flow_table is averaged_flow_table(kit, times)."""
    grid = kit.fld.grid
    n = kit.model.n_states
    idx, wts = flow_table
    phi_vals = phi(grid.nodes)
    vals = np.repeat(interp_apply(phi_vals, idx, wts)[:, None, :], n, axis=1)
    vals[0] = phi_vals[None, :]
    h_t = float(times[1] - times[0]) if len(times) > 1 else 1.0
    series = TimeSeries(vals, grid, h_t)
    # analytic time derivatives: d^n/dt^n c = (vhat d/du)^n c
    series.derivative_hook = lambda order: velocity_power_values(kit.vhat, vals, order)
    return series


def solve_ck(kit: OperatorKit, c_k0: np.ndarray, source: np.ndarray,
             times: np.ndarray, flow_table) -> TimeSeries:
    """Inhomogeneous averaged transport with initial data c_k0.

    source has shape (n_times, n_points); the solution is
    c(t_i, u) = c_k0(pos_i(u)) + ∫_0^{t_i} source(s, pos_{i-s}(u)) ds
    with composite Simpson over the shared time grid.  The integral is
    gathered one lag l = i - j at a time: every source slice j is read at
    the stencils of time t_l and weighted by the l-th subdiagonal of the
    lower-triangular Simpson weight matrix.
    """
    n_t = len(times)
    h_t = float(times[1] - times[0]) if n_t > 1 else 1.0
    idx, wts = flow_table
    c_k0 = np.asarray(c_k0, dtype=float).reshape(-1)
    simpson = np.zeros((n_t, n_t))
    for i in range(n_t):
        simpson[i, :i + 1] = cumulative_simpson_weights(i, h_t)
    duhamel = np.zeros((n_t, c_k0.size))
    for lag in range(n_t):
        duhamel[lag:] += np.diagonal(simpson, -lag)[:, None] * interp_apply(
            source[:n_t - lag], idx[lag], wts[lag])
    out = np.repeat((interp_apply(c_k0, idx, wts) + duhamel)[:, None, :],
                    kit.model.n_states, axis=1)
    out[0] = c_k0[None, :]
    return TimeSeries(out, kit.fld.grid, h_t)


def system_rhs_values(kit: OperatorKit, U_list: list, k: int) -> np.ndarray:
    """S_k(t) = Σ_{n=1..k} μ_n(x) L_n U_{k-n}(t)."""
    total = 0.0
    for n in range(1, k + 1):
        total = total + kit.mu(n)[None, :, None] * L_series_values(n, kit, U_list[k - n])
    return total


def regular_term(kit: OperatorKit, rhs_values: np.ndarray, h_t: float):
    """Range component U_k^R = R0 S_k of U_k = c_k ⊗ 1 + U_k^R from the
    order-k right side S_k, with its projected defect |Π U_k^R|."""
    u_r_vals = np.einsum("xy,tyu->txu", kit.R0, rhs_values)
    defect = float(np.abs(kit.project_values(u_r_vals)).max())
    return TimeSeries(u_r_vals, kit.fld.grid, h_t), defect


def projected_frak_L_series(kit: OperatorKit, U_list: list, U_Rk: TimeSeries,
                            k: int) -> np.ndarray:
    """Σ_{j=1..k} (Π script-L_j c_{k-j})(t), shape (n_times, n_points).

    With U_m = Σ_i A_i c_{m-i}, A_0 = I and A_i = R0 Σ_{n=1..i} μ_n L_n A_{i-n},
    induction turns the recursion script-L_j = Σ_{n=1..j} μ_n L_n R0 script-L_{j-n}
    + μ_{j+1} L_{j+1} (script-L_0 = L_1) into script-L_j = Σ_{n=1..j+1} μ_n L_n A_{j+1-n}.
    Summed over j, that is S_{k+1} - L_1 c_k (μ_1 = 1): the order-(k+1)
    right side with U_k^R in place of U_k."""
    rhs = system_rhs_values(kit, U_list[:k] + [U_Rk], k + 1)
    return kit.project_values(rhs)[:, 0, :]


def transport_sources(kit: OperatorKit, U_list: list, U_Rk: TimeSeries,
                      k: int) -> np.ndarray:
    """Source of the order-k coefficient equation, the solvability condition
    Π S_{k+1} = 0 of the next order:
    g_k(t) = - Σ_{j=1..k} (Π script-L_j c_{k-j})(t), shape (n_times, n_points)."""
    return -projected_frak_L_series(kit, U_list, U_Rk, k)
