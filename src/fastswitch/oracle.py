"""Ground-truth estimators for the averaged evolution: Monte Carlo over
switching trajectories, and deterministic time-stepping of the first-jump
renewal identity.

Monte Carlo randomness is counter-based (Philox keyed by seed and start
point), so results are bit-identical for a given seed regardless of how the
work is scheduled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import VelocityField, flow, flow_positions, interp_weights
from .model import SemiMarkovModel


@dataclass
class OracleEstimate:
    values: np.ndarray          # (n_states, n_selected)
    stderr: np.ndarray          # same shape; zero for the direct solver
    method: str
    eps: float
    t: float
    u_indices: np.ndarray       # grid columns the estimate covers
    n_samples: int = 0
    seed: int | None = None


# -- trajectory simulation ---------------------------------------------------------


def _philox_stream(seed: int, x_idx: int, u_idx: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF,
                    ((x_idx & 0xFFFFFFFF) << 32) | (u_idx & 0xFFFFFFFF)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _simulate_batch(model: SemiMarkovModel, fld: VelocityField, u0: float, x0: int,
                    t: float, eps: float, rng: np.random.Generator,
                    n_samples: int) -> np.ndarray:
    """Vectorized replicates from one start point; per-replicate randomness is
    one row of the start's counter-based stream."""
    n = model.n_states
    channels = 1 + max(d.n_uniforms for d in model.sojourns)
    cum_p = np.cumsum(model.P, axis=1)
    mean_j = t / eps / float(model.mean_sojourns().min())
    block = max(16, int(mean_j * 1.5) + 8)

    u = np.full(n_samples, float(u0))
    state = np.full(n_samples, int(x0))
    remaining = np.full(n_samples, float(t))
    alive = np.arange(n_samples)
    while alive.size:
        draws = rng.random((n_samples, block, channels))
        for r in range(block):
            if not alive.size:
                break
            st = state[alive]
            for s in range(n):
                sel = alive[st == s]
                if not sel.size:
                    continue
                # channel 0 drives the jump, channels 1.. the sojourn
                theta = model.sojourns[s].from_uniforms(draws[sel, r, 1:])
                dt = eps * theta
                hit_end = dt >= remaining[sel]
                step = np.where(hit_end, remaining[sel], dt)
                u[sel] = flow(fld, s, u[sel], step, check=False)
                remaining[sel] = np.where(hit_end, 0.0, remaining[sel] - dt)
                jumpers = sel[~hit_end]
                if jumpers.size:
                    nxt = np.searchsorted(cum_p[s], draws[jumpers, r, 0], side="right")
                    state[jumpers] = np.minimum(nxt, n - 1)
            alive = alive[remaining[alive] > 0.0]
    return u


def mc_expectation(model: SemiMarkovModel, fld: VelocityField, phi, t: float,
                   eps: float, n_samples: int, seed: int,
                   u_indices: np.ndarray | None = None) -> OracleEstimate:
    """Sample mean of φ(u(t)) with standard errors, per start (state, node)."""
    if n_samples < 1000:
        raise ValueError("Monte Carlo estimate needs at least 1000 samples")
    grid = fld.grid
    if u_indices is None:
        u_indices = np.arange(grid.n_points)
    u_indices = np.asarray(u_indices, dtype=int)
    nodes = grid.nodes
    n = model.n_states
    values = np.empty((n, len(u_indices)))
    stderr = np.empty_like(values)
    for xi in range(n):
        for col, ui in enumerate(u_indices):
            rng = _philox_stream(seed, xi, int(ui))
            finals = _simulate_batch(model, fld, nodes[ui], xi, t, eps, rng, n_samples)
            vals = phi(finals)
            values[xi, col] = vals.mean()
            stderr[xi, col] = vals.std(ddof=1) / math.sqrt(n_samples)
    return OracleEstimate(values=values, stderr=stderr, method="monte_carlo",
                          eps=eps, t=t, u_indices=u_indices,
                          n_samples=n_samples, seed=seed)


# -- deterministic renewal march -----------------------------------------------------


class DirectSolverCost(RuntimeError):
    """The requested march would be too fine; coarsen h_s or use Monte Carlo."""


def _march(model: SemiMarkovModel, fld: VelocityField, phi_values: np.ndarray,
           eps: float, h_s: float, n_steps: int, keep: dict,
           interp_order: int) -> dict:
    """Product-integration march of the first-jump identity; keep maps
    step index -> slot for storing Φ."""
    from .singular import kernel_node_weights

    grid = fld.grid
    n = model.n_states
    npts = grid.n_points
    h_phys = eps * h_s
    s_nodes = h_s * np.arange(n_steps + 1)

    times_phys = h_phys * np.arange(n_steps + 1)
    pos_idx, pos_w = zip(*(interp_weights(grid, flow_positions(fld, x, times_phys),
                                          order=interp_order) for x in range(n)))

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
                                      axis=1).reshape(jm, npts, interp_order)
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


def direct_solve_phi(model: SemiMarkovModel, fld: VelocityField, phi, t_eval,
                     eps: float, h_s: float = 0.02, interp_order: int = 6,
                     richardson: bool = False, max_steps: int = 60000):
    """Φ_t at the requested times by marching the renewal identity in t.

    Returns one OracleEstimate per requested time.  The kernel uses exact cell
    moments of the sojourn law and interpolation of the flowed history, so the
    march is O(h_s^2) with a small constant; richardson=True removes the
    leading error term with a second half-step march.
    """
    t_eval = sorted(float(t) for t in np.atleast_1d(t_eval))
    horizon = t_eval[-1]
    h_phys = eps * h_s
    n_steps = int(round(horizon / h_phys))
    if abs(n_steps * h_phys - horizon) > 1e-9 * max(1.0, horizon):
        n_steps = int(math.ceil(horizon / h_phys))
    if n_steps > max_steps:
        raise DirectSolverCost(
            f"march needs {n_steps} steps (> {max_steps}); increase h_s, "
            "shorten the horizon, or use the Monte Carlo oracle")
    keep = {i: i * h_phys for i in (round(t / h_phys) for t in t_eval)}
    grid = fld.grid
    phi_values = phi(grid.nodes)
    if n_steps == 0:
        vals = np.broadcast_to(phi_values, (model.n_states, grid.n_points)).copy()
        return [OracleEstimate(values=vals, stderr=np.zeros_like(vals),
                               method="direct", eps=eps, t=0.0,
                               u_indices=np.arange(grid.n_points))]
    res = _march(model, fld, phi_values, eps, h_s, n_steps, keep, interp_order)
    if richardson:
        keep2 = {2 * i: t for i, t in keep.items()}
        res2 = _march(model, fld, phi_values, eps, h_s / 2, 2 * n_steps, keep2, interp_order)
        res = {i: (4.0 * res2[2 * i] - res[i]) / 3.0 for i in keep}
    out = []
    for i in sorted(keep):
        vals = res[i]
        out.append(OracleEstimate(values=vals, stderr=np.zeros_like(vals),
                                  method="direct", eps=eps, t=keep[i],
                                  u_indices=np.arange(grid.n_points)))
    return out
