"""Ground-truth estimators for the averaged evolution: Monte Carlo over
switching trajectories, and deterministic time-stepping of the first-jump
renewal identity.

Monte Carlo randomness is counter-based (Philox keyed by seed and start
state), so results are bit-identical for a given seed regardless of how the
work is scheduled.  The switching process does not depend on u, so every
requested node of a start state rides the same sampled paths; each jump
round draws uniforms (alive × channels) for the replicates still running
only, groups them by state with one stable argsort and one take, and
updates each state's contiguous slice in place.  An affine flow is
an affine map of u and so is a composition of them, so with affine
velocities each replicate carries two scalars, its path's flow map, and
not a row of positions; a tabulated state makes the field flow positions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import (VelocityField, flow, flow_map, flow_positions, grid_index,
                    interp_apply, interp_weights, lag_kernel)
from .model import SemiMarkovModel


@dataclass
class OracleEstimate:
    values: np.ndarray          # (n_states, n_selected)
    stderr: np.ndarray          # same shape; the MC standard error, or the direct
                                # solver's Richardson error bar (else zero)
    eps: float
    t: float
    u_indices: np.ndarray       # grid columns the estimate covers
    n_samples: int = 0


# -- trajectory simulation ---------------------------------------------------------


MIN_SAMPLES = 1000    # fewest replicates mc_expectation accepts
SEED_LIMIT = 2**63    # seeds lie in [-SEED_LIMIT, SEED_LIMIT): one Philox key each


def _philox_stream(seed: int, x_idx: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, x_idx], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _next_states(cum_row: np.ndarray, u: np.ndarray, dtype) -> np.ndarray:
    """Next state of each jump uniform u from one row of the cumulative
    transition matrix: the count of cum_row[:-1] entries at or below u.  The
    row is nondecreasing, so this is min(searchsorted(cum_row, u, "right"),
    n - 1); the last entry is never compared, so a row whose sum rounds
    below 1 sends no u past the last state."""
    out = np.zeros(u.shape, dtype=dtype)
    for c in cum_row[:-1]:
        out += u >= c
    return out


def _check_horizon(eps: float, t, t_name: str = "t") -> None:
    """Raise ValueError unless eps is finite and > 0 and every t is finite
    and >= 0: at eps <= 0 no sampled path ends, and a negative or NaN time
    would read φ(u0) or index the march before its start."""
    if not (np.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and > 0, got {eps!r}")
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t) & (t >= 0)):
        raise ValueError(f"{t_name} must be finite and >= 0, got {t.tolist()!r}")


def mc_expectation(model: SemiMarkovModel, fld: VelocityField, phi, t: float,
                   eps: float, n_samples: int, seed: int,
                   u_indices: np.ndarray | None = None) -> OracleEstimate:
    """Sample mean of φ(u(t)) with standard errors, per start (state, node).

    Per start state, every requested node rides each replicate's one
    switching path.  Each jump round draws one row per running replicate,
    groups those rows by state with one stable argsort and one np.take, and
    gathers the replicates' remaining times (and flow maps) in that order
    once; each state's sojourns, flows and next states update one
    contiguous slice in place, and the round scatters back once.  The next
    state counts the cumulative transition row's entries at or below the
    jump uniform (_next_states).  When every state's velocity is affine, a
    replicate carries its path's flow map, two scalars (scale, shift)
    composed per segment from field.flow_map, and its final positions are
    formed once as nodes * scale + shift; a field with a tabulated state
    flows a row of positions, one per node, through field.flow.  A node's
    column is reduced on its own, so its estimate reads the same whether the
    node is requested alone or with others.  seed must lie in
    [-2**63, 2**63): the Philox key holds it modulo 2**64, so a wider range
    would alias."""
    _check_horizon(eps, t)
    if not -SEED_LIMIT <= seed < SEED_LIMIT:
        raise ValueError(f"seed must lie in [-2**63, 2**63), got {seed!r}")
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"Monte Carlo estimate needs at least {MIN_SAMPLES} samples")
    grid = fld.grid
    if u_indices is None:
        u_indices = np.arange(grid.n_points)
    u_indices = np.asarray(u_indices, dtype=int)
    nodes = grid.nodes[u_indices]
    affine = all(spec.kind != "tabulated" for spec in fld.specs)
    n = model.n_states
    channels = 1 + max(d.n_uniforms for d in model.sojourns)
    cum_p = np.cumsum(model.P, axis=1)
    values = np.empty((n, len(u_indices)))
    stderr = np.empty_like(values)
    for xi in range(n):
        rng = _philox_stream(seed, xi)
        if affine:
            scale, shift = np.ones(n_samples), np.zeros(n_samples)
        else:
            u = np.tile(nodes, (n_samples, 1))
        # the narrowest integer type lets the stable argsort take a radix sort
        state = np.full(n_samples, xi, dtype=np.min_scalar_type(n - 1))
        remaining = np.full(n_samples, float(t))
        alive = np.flatnonzero(remaining > 0.0)
        while alive.size:
            # one row per running replicate: channel 0 drives the jump,
            # channels 1.. the sojourn; the stable sort keeps each state's
            # rows in draw order, and each state's replicates are one slice
            # of the grouped arrays, updated in place
            draws = rng.random((alive.size, channels))
            st = state[alive]
            by_state = np.argsort(st, kind="stable")
            grouped, draws = alive[by_state], np.take(draws, by_state, axis=0)
            rem, nxt = remaining[grouped], np.empty_like(st)
            if affine:
                sc_g, sh_g = scale[grouped], shift[grouped]
            lo = 0
            for s, hi in enumerate(np.cumsum(np.bincount(st, minlength=n))):
                part, d = slice(lo, hi), draws[lo:hi]
                lo = hi
                if not d.size:
                    continue
                step = np.minimum(eps * model.sojourns[s].from_uniforms(d[:, 1:]), rem[part])
                rem[part] -= step               # exactly 0 at the horizon
                if affine:
                    sc, sh = flow_map(fld, s, step)
                    sc_g[part] *= sc
                    sh_g[part] = sh_g[part] * sc + sh
                else:
                    sel = grouped[part]
                    u[sel] = flow(fld, s, u[sel], step[:, None], check=False)
                # a finished replicate's state is never read again
                nxt[part] = _next_states(cum_p[s], d[:, 0], nxt.dtype)
            remaining[grouped], state[grouped] = rem, nxt
            if affine:
                scale[grouped], shift[grouped] = sc_g, sh_g
            alive = alive[remaining[alive] > 0.0]
        # one row of final positions per node
        finals = nodes[:, None] * scale + shift if affine else np.ascontiguousarray(u.T)
        if grid.boundary_mode == "periodic":
            # read φ where the expansion and the direct oracle read the grid
            finals = grid.u_min + np.mod(finals - grid.u_min, grid.u_max - grid.u_min)
        for col, row in enumerate(finals):
            vals = phi(row)
            values[xi, col] = vals.mean()
            stderr[xi, col] = vals.std(ddof=1) / math.sqrt(n_samples)
    return OracleEstimate(values=values, stderr=stderr, eps=eps, t=t,
                          u_indices=u_indices, n_samples=n_samples)


# -- deterministic renewal march -----------------------------------------------------


INTERP_ORDER = 6      # stencil width of the flowed-history interpolation
MAX_STEPS = 60000     # longest march march_steps accepts


class DirectSolverCost(RuntimeError):
    """The requested march would be too fine; coarsen h_s or use Monte Carlo."""


def march_steps(t_eval, eps: float, h_s: float, richardson: bool) -> dict:
    """Step index on the march grid of step eps*h_s -> each requested time,
    kept as requested so that every epsilon reports the same t; raises
    ValueError when some time is not a whole number of steps, with
    richardson of the coarse march's steps 2*eps*h_s, and DirectSolverCost
    when the longest march (with richardson, at h_s/2) exceeds MAX_STEPS."""
    h_phys = eps * h_s
    stride, factor = (2, "2*") if richardson else (1, "")
    keep = {}
    for t in sorted(float(t) for t in np.atleast_1d(t_eval)):
        i = grid_index(t, stride * h_phys)
        if i is None:
            raise ValueError(f"t={t:g} is not a whole number of march steps {factor}eps*"
                             f"oracle.h_s = {factor}{eps:g}*{h_s:g}; choose oracle.h_s so "
                             f"that t / ({factor}eps*h_s) is an integer")
        keep[stride * i] = t
    longest = 2 * max(keep) if richardson else max(keep)
    if longest > MAX_STEPS:
        march = "the Richardson half-step march (h_s/2)" if richardson else "the march"
        raise DirectSolverCost(
            f"{march} needs {longest} steps (> {MAX_STEPS}) at eps={eps:g}, "
            f"oracle.h_s={h_s:g}; increase h_s, shorten the horizon, or use the "
            "Monte Carlo oracle")
    return keep


def _diagonals(a: np.ndarray, offset: int, shape: tuple, row_step: int) -> np.ndarray:
    """Read-only view of the contiguous array a's flat elements offset +
    row_step·d + u, for (d, u) within shape: shifted windows of a row
    (row_step 1), or shifted diagonals of a matrix (its row length + 1)."""
    flat = a.reshape(-1)[offset:]
    return np.lib.stride_tricks.as_strided(flat, shape, (row_step * a.itemsize, a.itemsize),
                                           writeable=False)


def _march(model: SemiMarkovModel, fld: VelocityField, phi_values: np.ndarray,
           eps: float, h_s: float, n_steps: int, keep: dict) -> dict:
    """Product-integration march of the first-jump identity; keep maps
    step index -> slot for storing Φ.

    Both terms of the identity end at one lag per state, J = min(n_steps,
    ceil(decay_point(1e-14) / h_s) + 1): the first-jump term of step i
    carries F̄(s_i), and the history's lag j a weight of at most
    F̄(s_{j-1}), both under 1e-14 past J.  Lag 0 is the implicit diagonal
    A = I - diag(w_0) P, so lags 1..J split each state's nodes once
    (field.lag_kernel): the inner nodes share one lag kernel K, and the
    edge nodes (all of a linear or tabulated state) take their own flowed
    stencils.  Both give the first-jump terms of steps 1..J before the
    march (step 0's is never read), K through the windows of φ and (P φ)_x.

    The history of P Φ is kept reversed (step m in row n_steps - m), so the
    lags 1..jm of step i are one contiguous block.  The inner nodes' history
    sums are the shifted diagonals of the BLAS product G = K[:, :jm] @ block,
    K times the lag weights: O(n_steps J n_points D) flops for D column
    offsets, the sums a blocked FFT would give, up to summation order, with
    far less code.  The edge stencils, the lag weights folded in, are flat
    offsets into that block: one gather and one einsum per state and step.
    """
    from .singular import kernel_node_weights

    grid = fld.grid
    n = model.n_states
    npts = grid.n_points
    h_phys = eps * h_s
    s_nodes = h_s * np.arange(n_steps + 1)
    times_phys = h_phys * np.arange(n_steps + 1)

    weights, left_w = kernel_node_weights(model.sojourns, 0, s_nodes)
    surv = np.array([d.survival(s_nodes) for d in model.sojourns])
    j_cut = [min(n_steps, int(math.ceil(d.decay_point(1e-14) / h_s)) + 1)
             for d in model.sojourns]

    A_inv = np.linalg.inv(np.eye(n) - weights[:, 0, None] * model.P)

    phi_row = np.asarray(phi_values, dtype=float).reshape(-1)
    p_phi = np.einsum("xy,u->xu", model.P, phi_row)
    first = np.zeros((n_steps + 1, n, npts))   # history-free part of each rhs
    kernels, lag_idx, lag_w = [], [], []
    for x in range(n):
        jc = j_cut[x]
        lags = slice(1, jc + 1)
        K, d_min, inner = lag_kernel(fld, x, times_phys[lags], INTERP_ORDER)
        edge = np.r_[0:inner.start, inner.stop:npts]
        n_in = inner.stop - inner.start
        # row d of each window is φ or (P φ)_x shifted by d_min + d columns
        phi_win, p_phi_win = (_diagonals(r, inner.start + d_min, (len(K), n_in), 1)
                              for r in (phi_row, p_phi[x]))
        np.matmul(surv[x, lags, None] * K.T, phi_win, out=first[lags, x, inner])
        first[lags, x, inner] -= (left_w[x, lags, None] * K.T) @ p_phi_win
        idx, w = interp_weights(grid, flow_positions(fld, x, times_phys[lags])[:, edge],
                                order=INTERP_ORDER)
        first[lags, x, edge] = surv[x, lags, None] * interp_apply(phi_row, idx, w)
        # cells i <= J start beyond the integration bound; their left-node
        # part is already in the exact first-jump tail
        first[lags, x, edge] -= left_w[x, lags, None] * interp_apply(p_phi[x], idx, w)
        K = K * weights[x, lags]
        G = np.empty((len(K), npts))
        diag = _diagonals(G, inner.start + d_min, (len(K), n_in), npts + 1)
        kernels.append((K, G, diag, inner, edge))
        # (lag, stencil, point) layout: a lag prefix is contiguous
        shape = (jc, INTERP_ORDER, len(edge))
        lag_w.append(np.multiply(weights[x, lags, None, None], w.transpose(0, 2, 1),
                                 out=np.empty(shape)))
        lag_idx.append(np.add(idx.transpose(0, 2, 1), npts * np.arange(jc)[:, None, None],
                              out=np.empty(shape, dtype=np.intp)))
        del idx, w

    hist = np.empty((n, n_steps + 1, npts))   # reversed history of P Φ
    hist[:, n_steps] = p_phi
    out = {}
    if 0 in keep:
        out[0] = np.broadcast_to(phi_row, (n, npts)).copy()
    for i in range(1, n_steps + 1):
        row = n_steps - i + 1   # step i - 1; lag j sits j - 1 rows further
        rhs = first[i]
        for x, (K, G, diag, inner, edge) in enumerate(kernels):
            jm = min(i, j_cut[x])
            block = hist[x, row:row + jm]
            np.matmul(K[:, :jm], block, out=G)
            rhs[x, inner] += diag.sum(axis=0)
            rhs[x, edge] += np.einsum("lqc,lqc->c", block.reshape(-1)[lag_idx[x][:jm]],
                                      lag_w[x][:jm])
        cur = A_inv @ rhs
        np.matmul(model.P, cur, out=hist[:, row - 1])
        if i in keep:
            out[i] = cur
    return out


def direct_solve_phi(model: SemiMarkovModel, fld: VelocityField, phi, t_eval,
                     eps: float, h_s: float = 0.02, richardson: bool = False):
    """Φ_t at the requested times by marching the renewal identity in t.

    Returns one OracleEstimate per requested time.  The kernel uses exact cell
    moments of the sojourn law and interpolation of the flowed history, so the
    march r(h) is O(h^2) with a small constant.  richardson=True returns
    E(h_s) = (4 r(h_s/2) - r(h_s)) / 3, which is O(h_s^4), with its
    a-posteriori error |E(h_s) - E(2 h_s)| / 15 as stderr, from a third march
    at 2 h_s.  Every t must be a whole number of steps eps*h_s, with richardson
    of 2*eps*h_s (see march_steps).
    """
    _check_horizon(eps, t_eval, "t_eval")
    keep = march_steps(t_eval, eps, h_s, richardson)
    n_steps = max(keep)
    grid = fld.grid
    phi_values = phi(grid.nodes)
    if n_steps == 0:
        vals = np.broadcast_to(phi_values, (model.n_states, grid.n_points)).copy()
        return [OracleEstimate(values=vals, stderr=np.zeros_like(vals), eps=eps, t=0.0,
                               u_indices=np.arange(grid.n_points))]
    res = _march(model, fld, phi_values, eps, h_s, n_steps, keep)
    stderr = {i: np.zeros_like(v) for i, v in res.items()}
    if richardson:
        half = _march(model, fld, phi_values, eps, h_s / 2, 2 * n_steps,
                      {2 * i: t for i, t in keep.items()})
        double = _march(model, fld, phi_values, eps, 2 * h_s, n_steps // 2,
                        {i // 2: t for i, t in keep.items()})
        # E(h) - E(2h) = (4 r(h/2) - 5 r(h) + r(2h)) / 3 is 15 times the
        # O(h^4) error of E(h) to leading order
        stderr = {i: np.abs(4.0 * half[2 * i] - 5.0 * res[i] + double[i // 2]) / 45.0
                  for i in keep}
        res = {i: (4.0 * half[2 * i] - res[i]) / 3.0 for i in keep}
    return [OracleEstimate(values=res[i], stderr=stderr[i], eps=eps, t=keep[i],
                           u_indices=np.arange(grid.n_points))
            for i in sorted(keep)]
