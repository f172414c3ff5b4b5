"""Outer (slow-time) part of the expansion: the averaged transport solution,
the inhomogeneous transport solves for the null-space coefficients, and the
order-k right side S_k with its range component and transport source.

The transport equation d c/dt = vhat(u) d c/du + g(t, u) is solved exactly
along the averaged characteristics (Duhamel), so there is no CFL restriction
and the homogeneous part is pure composition with the flow.

The Duhamel integral uses cumulative-Simpson weights S[i, j] = α(j) + β(i, j):
α is the composite rule's interior weight, β the few end corrections (lags
0-2 and column 0).  The α part is a causal time convolution per u-node over
the window of D grid columns that the node's flowed stencils touch at any
lag, summed by FFT in O(n_points · D · n_times log n_times); β takes a
fixed number of stencil gathers.
"""
from __future__ import annotations

import numpy as np

from .field import TestFunction, UGrid, flow_positions, interp_apply, interp_weights
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


def fft_length(n: int) -> int:
    """Smallest 5-smooth number 2^a 3^b 5^c >= n, which the FFT factors into
    radix-2, -3 and -5 passes; the next power of two bounds the search."""
    length = n
    while True:
        rest = length
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return length
        length += 1


def simpson_split(n_t: int, h: float):
    """The cumulative-Simpson weights S[i, j] = cumulative_simpson_weights(i, h)[j]
    of every row i < n_t, split as α(j) + β(i, j).

    α(j) is the composite rule's interior weight, 2h/3 at even j and 4h/3 at
    odd j.  β is nonzero only on lags i - j = 0, 1, 2 (the trapezoid row 1,
    the ends of even rows, the quadratic end panel of odd rows) and in column
    0, where it is -h/3 for every row i >= 3.  Returns α and the three lag
    diagonals, diagonal l holding β(i, i - l) for i = l..n_t-1.
    """
    odd = np.arange(n_t) % 2 == 1
    alpha = np.where(odd, 4.0 * h / 3.0, 2.0 * h / 3.0)
    lags = [np.where(odd, -11.0 * h / 12.0, -h / 3.0),   # end node j = i
            np.where(odd, h / 3.0, 0.0)[1:],               # j = i - 1
            np.where(odd, -h / 12.0, 0.0)[2:]]             # j = i - 2
    lags[0][:2] = (-2.0 * h / 3.0, -5.0 * h / 6.0)[:n_t]   # empty row, trapezoid
    lags[1][:1] = -h / 6.0                                 # trapezoid start
    lags[2][:1] = -h / 3.0                                 # row 2 starts at column 0
    return alpha, [lag for lag in lags if lag.size]


# complex elements of window_convolution's per-block temporaries
_WINDOW_BLOCK = 1 << 15


def window_convolution(values: np.ndarray, idx: np.ndarray, wts: np.ndarray,
                       grid: UGrid) -> np.ndarray:
    """Causal sums out[i, u] = Σ_{l<=i} Σ_s wts[l, u, s] values[i-l, idx[l, u, s]].

    values is (n_t, n_points) and (idx, wts) a flow table over the same
    times, whose stencils are consecutive columns from idx[l, u, 0] (wrapped
    on a periodic grid, as interp_weights builds them).  The columns that
    node u's stencils touch at any lag lie in a window of D consecutive
    columns (modulo the period on a periodic grid, taking each stencil's
    shift the short way round the seam), so the sums are
    Σ_d K[u, d] ⋆ values[:, col(u, d)] with the lag weights scattered into a
    per-node kernel K[u, d, l]: zero-padded real-FFT convolutions over time,
    taken over blocks of nodes that bound the temporaries.
    """
    n_t, n_p, order = idx.shape
    length = fft_length(2 * n_t - 1)  # no wrap-around
    v_hat = np.fft.rfft(np.ascontiguousarray(values.T), length)   # (column, freq)
    period = n_p - 1 if grid.boundary_mode == "periodic" else None
    shift = idx[:, :, 0] - idx[0, :, 0]   # each stencil's start, from t = 0
    if period is not None:
        shift = (shift + period // 2) % period - period // 2
    low = shift.min(axis=0)
    width = int((shift.max(axis=0) - low).max()) + order
    block = max(1, _WINDOW_BLOCK // (width * v_hat.shape[1]))
    lag = np.arange(n_t)[:, None]
    out = np.empty((n_t, n_p))
    for c in range(0, n_p, block):
        nodes = slice(c, c + block)
        # node-major (node, lag, stencil) layout, so the scatter runs in order
        d = (shift[:, nodes] - low[nodes]).T[:, :, None] + np.arange(order)
        n_b = len(d)
        kernel = np.zeros((n_b, width, n_t))
        np.put(kernel, (np.arange(n_b)[:, None, None] * width + d) * n_t + lag,
               wts[:, nodes].transpose(1, 0, 2))
        # offsets past a node's own window have zero kernel rows, so
        # wrapping them on an open grid reads a harmless column
        window = ((idx[0, nodes, 0] + low[nodes])[:, None] + np.arange(width)) % (period or n_p)
        prod = np.einsum("udf,udf->uf", np.fft.rfft(kernel, length), v_hat[window])
        out[:, nodes] = np.fft.irfft(prod, length)[:, :n_t].T
    return out


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
    series = TimeSeries(vals, h_t)
    # analytic time derivatives: d^n/dt^n c = vhat d/du of the cached (n-1)-th
    series.derivative_hook = lambda order: velocity_power_values(
        kit.vhat, series.derivative_values(order - 1), 1)
    return series


def solve_ck(kit: OperatorKit, c_k0: np.ndarray, source: np.ndarray,
             times: np.ndarray, flow_table) -> TimeSeries:
    """Inhomogeneous averaged transport with initial data c_k0.

    source has shape (n_times, n_points); the solution is
    c(t_i, u) = c_k0(pos_i(u)) + ∫_0^{t_i} source(s, pos_{i-s}(u)) ds
    with composite Simpson over the shared time grid, S[i, j] = α(j) + β(i, j)
    (simpson_split).  The α part is one FFT time convolution of α·source over
    each node's stencil window (window_convolution), O(n_points · D ·
    n_times log n_times) for a window of D columns; β's three lag diagonals
    and column 0 are one stencil gather each.
    """
    n_t = len(times)
    h_t = float(times[1] - times[0]) if n_t > 1 else 1.0
    idx, wts = flow_table
    c_k0 = np.asarray(c_k0, dtype=float).reshape(-1)
    source = np.asarray(source, dtype=float)
    alpha, lags = simpson_split(n_t, h_t)
    duhamel = window_convolution(alpha[:, None] * source, idx, wts, kit.fld.grid)
    for lag, beta in enumerate(lags):
        duhamel[lag:] += beta[:, None] * interp_apply(
            source[:n_t - lag], idx[lag], wts[lag])
    duhamel[3:] -= (h_t / 3.0) * interp_apply(source[0], idx[3:], wts[3:])
    out = np.repeat((interp_apply(c_k0, idx, wts) + duhamel)[:, None, :],
                    kit.model.n_states, axis=1)
    out[0] = c_k0[None, :]
    return TimeSeries(out, h_t)


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
    return TimeSeries(u_r_vals, h_t), defect


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
