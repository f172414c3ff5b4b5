"""Outer (slow-time) part of the expansion: the averaged transport solution,
the inhomogeneous transport solves for the null-space coefficients, and the
order-k right side S_k with its range component and transport source.

The transport equation d c/dt = vhat(u) d c/du + g(t, u) is solved exactly
along the averaged characteristics (Duhamel), so there is no CFL restriction
and the homogeneous part is pure composition with the flow.

The Duhamel integral uses cumulative-Simpson weights S[i, j] = α(j) + β(i, j):
α is the composite rule's interior weight, β the few end corrections (lags
0-2 and column 0).  The α part, with column 0 and the initial data, is one
causal time convolution over the window of D grid columns that a node's
flowed stencils touch at any lag, summed by FFT in O(n_points · D · n_times
log n_times), with one kernel shared by the nodes that never clip or wrap
when vhat is a translation (field.lag_kernel); lags 0-2 take three gathers.
"""
from __future__ import annotations

import functools

import numpy as np

from .field import TestFunction, UGrid, flow_positions, interp_apply, interp_weights, lag_kernel
from .operators import L_series_values, OperatorKit, TimeSeries, state_mix, velocity_power_values


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
    odd j.  β is -h/3 in column 0 of every row and otherwise nonzero only on
    lags i - j = 0, 1, 2 (the ends of even rows, the quadratic end panel of
    odd rows), where row 1, the trapezoid, is the one row overridden.
    Returns α and the three lag diagonals, diagonal l holding β(i, i - l)
    but column 0's -h/3, for i = l..n_t-1.
    """
    odd = np.arange(n_t) % 2 == 1
    alpha = np.where(odd, 4.0 * h / 3.0, 2.0 * h / 3.0)
    lags = [np.where(odd, -11.0 * h / 12.0, -h / 3.0),   # end node j = i
            np.where(odd, h / 3.0, 0.0)[1:],               # j = i - 1
            np.where(odd, -h / 12.0, 0.0)[2:]]             # j = i - 2
    lags[0][1:2] = -5.0 * h / 6.0                          # trapezoid row 1
    lags[1][:1] = h / 6.0
    return alpha, [lag for lag in lags if lag.size]


# complex elements of window_convolution's per-block temporaries
_WINDOW_BLOCK = 1 << 15


def window_convolution(values: np.ndarray, idx: np.ndarray, wts: np.ndarray,
                       grid: UGrid, kernel) -> np.ndarray:
    """Causal sums out[i, u] = Σ_{l<=i} Σ_s wts[l, u, s] values[i-l, idx[l, u, s]].

    values is (n_t, n_points) and (idx, wts) a flow table over the same
    times, whose stencils are consecutive columns from idx[l, u, 0] (wrapped
    on a periodic grid, as interp_weights builds them).  kernel, the
    table's field.lag_kernel, gives its inner nodes the sums
    Σ_d K[d] ⋆ values[:, u + d_min + d]; every other node takes its own
    kernel (_node_convolution).  All are zero-padded real-FFT convolutions
    over time, over blocks of nodes that bound the temporaries.
    """
    n_t, n_p, _ = idx.shape
    length = fft_length(2 * n_t - 1)  # no wrap-around
    v_hat = np.fft.rfft(np.ascontiguousarray(values.T), length)   # (column, freq)
    out = np.empty((n_t, n_p))
    K, d_min, inner = kernel
    k_hat = np.fft.rfft(K, length)
    block = max(1, _WINDOW_BLOCK // k_hat.shape[1])
    for c in range(inner.start, inner.stop, block):
        n_b, prod = min(block, inner.stop - c), 0
        for d, k in enumerate(k_hat, c + d_min):
            prod += k * v_hat[d:d + n_b]
        out[:, c:c + n_b] = np.fft.irfft(prod, length)[:, :n_t].T
    _node_convolution(v_hat, length, idx, wts, grid, np.r_[0:inner.start, inner.stop:n_p], out)
    return out


def _node_convolution(v_hat, length: int, idx, wts, grid: UGrid, rest, out: np.ndarray):
    """window_convolution at the nodes rest, an index array: node u's
    stencils touch a window of D columns at all lags (modulo the period,
    each shift taken the short way round the seam), so its sums are
    Σ_d K[u, d] ⋆ values[:, col(u, d)], the lag weights scattered into K."""
    n_t, n_p, order = idx.shape
    period = n_p - 1 if grid.boundary_mode == "periodic" else None
    shift = idx[:, rest, 0]   # a copy: each stencil's start, made relative to t = 0
    shift -= shift[0]
    if period is not None:
        shift = (shift + period // 2) % period - period // 2
    low = shift.min(axis=0)
    width = int((shift.max(axis=0) - low).max()) + order
    block = max(1, _WINDOW_BLOCK // (width * v_hat.shape[1]))
    lag = np.arange(n_t)[:, None]
    node_ids = np.arange(n_p)[rest]
    for c in range(0, len(node_ids), block):
        sub = slice(c, c + block)
        nodes = node_ids[sub]
        # node-major (node, lag, stencil) layout, so the scatter runs in order
        d = (shift[:, sub] - low[sub]).T[:, :, None] + np.arange(order)
        n_b = len(d)
        kernel = np.zeros((n_b, width, n_t))
        np.put(kernel, (np.arange(n_b)[:, None, None] * width + d) * n_t + lag,
               wts[:, nodes].transpose(1, 0, 2))
        # offsets past a node's own window have zero kernel rows, so
        # wrapping them on an open grid reads a harmless column
        window = ((idx[0, nodes, 0] + low[sub])[:, None] + np.arange(width)) % (period or n_p)
        prod = np.einsum("udf,udf->uf", np.fft.rfft(kernel, length), v_hat[window])
        out[:, nodes] = np.fft.irfft(prod, length)[:, :n_t].T


def averaged_flow_table(kit: OperatorKit, times: np.ndarray):
    """Interpolation stencils at the averaged-flow positions for every time,
    as (n_times, n_points, width) index and weight arrays."""
    return interp_weights(kit.fld.grid, flow_positions(kit.vhat, 0, times))


def transport_series(kit: OperatorKit, values: np.ndarray, sources=None) -> TimeSeries:
    """A solution of the averaged transport equation ∂_t c = vhat ∂_u c + g,
    with the equation's time derivatives c^(n) = vhat ∂_u c^(n-1) + g^(n-1),
    memoized.  sources(m) is g^(m), shape (n_times, n_points); None is g = 0.
    c is in Q's null space: one state row, shape (n_times, 1, n_points)."""
    @functools.cache
    def rule(n: int) -> np.ndarray:
        out = velocity_power_values(kit.vhat, series.derivative_values(n - 1), 1)
        if sources is not None:
            out += sources(n - 1)[:, None, :]
        return out
    series = TimeSeries(values, rule)
    return series


def solve_c0(kit: OperatorKit, phi: TestFunction, times: np.ndarray,
             flow_table) -> TimeSeries:
    """Averaged transport solution c0(t, u) = φ(flow of vhat from u over t)
    in one state row; flow_table is averaged_flow_table(kit, times)."""
    idx, wts = flow_table
    phi_vals = phi(kit.fld.grid.nodes)
    vals = interp_apply(phi_vals, idx, wts)[:, None, :]
    vals[0] = phi_vals
    return transport_series(kit, vals)


def solve_ck(kit: OperatorKit, c_k0: np.ndarray, sources, times: np.ndarray,
             flow_table) -> TimeSeries:
    """Inhomogeneous averaged transport with initial data c_k0 and source
    g = sources(0), shape (n_times, n_points), whose time derivatives
    sources(m) the solution's own read (transport_series).  The solution is
    c(t_i, u) = c_k0(pos_i(u)) + ∫_0^{t_i} g(s, pos_{i-s}(u)) ds
    with composite Simpson over the shared time grid, S[i, j] = α(j) + β(i, j)
    (simpson_split).  Row i of a time convolution reads row 0 at lag i with
    unit weight, so α·g plus c_k0 and column 0's -h/3·g(0) in row 0 is one
    FFT time convolution over each node's stencil window (window_convolution),
    O(n_points · D · n_times log n_times) for a window of D columns, with one
    shared kernel for the nodes that never clip or wrap when vhat is a
    translation; β's three lag diagonals are one stencil gather each.  One
    state row holds c (transport_series)."""
    n_t = len(times)
    h_t = float(times[1] - times[0]) if n_t > 1 else 1.0
    idx, wts = flow_table
    c_k0 = np.asarray(c_k0, dtype=float).reshape(-1)
    source = np.asarray(sources(0), dtype=float)
    alpha, lags = simpson_split(n_t, h_t)
    kernel = lag_kernel(kit.vhat, 0, times, order=idx.shape[-1])
    start = alpha[:, None] * source
    start[0] += c_k0 - (h_t / 3.0) * source[0]
    c = window_convolution(start, idx, wts, kit.fld.grid, kernel)
    for lag, beta in enumerate(lags):
        c[lag:] += beta[:, None] * interp_apply(source[:n_t - lag], idx[lag], wts[lag])
    c[0] = c_k0
    return transport_series(kit, c[:, None, :], lambda m: source if m == 0 else sources(m))


def system_rhs_values(kit: OperatorKit, U_list: list, k: int, shift: int = 0) -> np.ndarray:
    """S_k^(shift)(t) = Σ_{n=1..k} μ_n(x) L_n U_{k-n}^(shift)(t)."""
    total = 0.0
    for n in range(1, k + 1):
        total = total + kit.mu(n)[None, :, None] * L_series_values(
            n, kit, U_list[k - n], shift)
    return total


def regular_term(kit: OperatorKit, U_list: list, k: int, rhs_values: np.ndarray):
    """Range component U_k^R = R0 S_k of U_k = c_k ⊗ 1 + U_k^R from the
    order-k right side S_k = system_rhs_values(kit, U_list, k), passed as
    rhs_values, with its projected defect |Π U_k^R|.  Its time derivatives
    (U_k^R)^(n) = R0 S_k^(n) are memoized."""
    series = TimeSeries(state_mix(kit.R0, rhs_values), functools.cache(
        lambda n: state_mix(kit.R0, system_rhs_values(kit, U_list, k, n))))
    return series, float(np.abs(kit.project_values(series.values)).max())


def projected_frak_L_series(kit: OperatorKit, U_list: list, U_Rk: TimeSeries,
                            k: int, shift: int = 0) -> np.ndarray:
    """Σ_{j=1..k} (Π script-L_j c_{k-j})^(shift)(t), shape (n_times, n_points).

    With U_m = Σ_i A_i c_{m-i}, A_0 = I and A_i = R0 Σ_{n=1..i} μ_n L_n A_{i-n},
    induction turns the recursion script-L_j = Σ_{n=1..j} μ_n L_n R0 script-L_{j-n}
    + μ_{j+1} L_{j+1} (script-L_0 = L_1) into script-L_j = Σ_{n=1..j+1} μ_n L_n A_{j+1-n}.
    Summed over j, that is S_{k+1} - L_1 c_k (μ_1 = 1): the order-(k+1)
    right side with U_k^R in place of U_k."""
    rhs = system_rhs_values(kit, U_list[:k] + [U_Rk], k + 1, shift)
    return kit.project_values(rhs)[:, 0, :]


def transport_sources(kit: OperatorKit, U_list: list, U_Rk: TimeSeries,
                      k: int, shift: int = 0) -> np.ndarray:
    """Source of the order-k coefficient equation, the solvability condition
    Π S_{k+1} = 0 of the next order, or its shift-th time derivative:
    g_k(t) = - Σ_{j=1..k} (Π script-L_j c_{k-j})(t), shape (n_times, n_points)."""
    return -projected_frak_L_series(kit, U_list, U_Rk, k, shift)
