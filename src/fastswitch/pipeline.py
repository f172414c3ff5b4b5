"""End-to-end construction of the two-scale expansion and its evaluation.

Per order k the cycle is: range component from the order-k system equation,
initial coefficient value from the renewal-theorem limit, inhomogeneous
transport solve, then the fast-time layer march with its decay checks.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .field import TestFunction, VelocityField, grid_index, lagrange_weights, sup_norm
from .model import SemiMarkovModel, validate_model
from .operators import OperatorKit, TimeSeries, build_kit, state_mix
from .regular import (averaged_flow_table, regular_term, solve_c0, solve_ck,
                      system_rhs_values, transport_sources)
from .singular import (TauGrid, check_boundary_regularity, composite_kernels,
                       default_tau_grid, forcing_terms, initial_ck0, kernel_node_weights,
                       renewal_resolvent, solve_Wk)

# high-order time derivatives of the solved series get noisy beyond this
MAX_ORDER = 3

ADJUDICATIONS = {
    "transport_family_form": "binomial C(k,n) coefficients from the epsilon bookkeeping",
    "negative_extension_factorial": "1/n! Taylor factors kept at every order",
    "pi_normalization": "normalized pi; no extra 1/m_hat division in the nu sums",
    "layer_integral_sign": "lower-layer time integral enters c_k(0) with + sign",
}


@dataclass
class ExpansionResult:
    """The expansion's series by order.  c_k(0) is row 0 of c[k] (φ at
    k = 0), U_k^R is U[k] - c[k], and W_k(0) is -U_k(0)."""

    kit: OperatorKit
    order: int
    times: np.ndarray
    tau_grid: TauGrid
    c: list = dc_field(default_factory=list)
    U: list = dc_field(default_factory=list)
    W: list = dc_field(default_factory=list)      # LayerSeries; W[0] unused placeholder
    diagnostics: dict = dc_field(default_factory=dict)

    @property
    def h_t(self) -> float:
        return float(self.times[1] - self.times[0])

    def t_index(self, t: float) -> int:
        idx = grid_index(t, self.h_t)
        if t < 0 or idx is None or idx >= len(self.times):
            raise ValueError(f"t={t} is not on the expansion time grid")
        return idx

    def layer_value(self, k: int, tau: float) -> np.ndarray:
        """W_k at fast time tau, cubic in tau; zero beyond the window."""
        grid_tau = self.tau_grid
        if tau >= grid_tau.tau_max:
            return np.zeros_like(self.W[k].values[0])
        h = grid_tau.h_tau
        p = tau / h
        i0 = int(np.floor(p))
        base = min(max(i0 - 1, 0), grid_tau.n_tau - 3)
        s = p - base
        vals = self.W[k].values[base:base + 4]
        return np.tensordot(lagrange_weights(s, 4), vals, axes=(0, 0))

    def evaluate(self, eps: float, t: float, order: int | None = None) -> np.ndarray:
        """Partial sum U_0 + Σ_{k<=order} eps^k (U_k + W_k(t/eps))."""
        if order is None:
            order = self.order
        i = self.t_index(t)
        total = self.U[0].values[i].copy()
        for k in range(1, order + 1):
            total += eps**k * (self.U[k].values[i] + self.layer_value(k, t / eps))
        return total


def time_steps(horizon: float, h_t: float) -> int:
    """Number of equal steps of the expansion's time grid on [0, horizon]:
    the nearest to horizon / h_t, and at least 4."""
    return max(4, int(round(horizon / h_t)))


def build_expansion(model: SemiMarkovModel, fld: VelocityField, phi: TestFunction,
                    order: int = 2, horizon: float = 1.0, h_t: float = 0.002,
                    h_tau: float = 0.005, tau_max: float | None = None) -> ExpansionResult:
    if order < 0 or order > MAX_ORDER:
        raise ValueError(f"expansion order {order} outside [0, {MAX_ORDER}]")
    diag = validate_model(model)
    if not diag.usable:
        raise ValueError("model failed validation: " + "; ".join(diag.messages))
    kit = build_kit(model, fld)
    times = np.linspace(0.0, horizon, time_steps(horizon, h_t) + 1)
    grid_tau = default_tau_grid(kit, h_tau=h_tau, tau_max=tau_max)

    flow_table = averaged_flow_table(kit, times)
    c0 = solve_c0(kit, phi, times, flow_table)

    result = ExpansionResult(kit=kit, order=order, times=times, tau_grid=grid_tau)
    result.c.append(c0)
    result.U.append(c0)
    result.W.append(None)

    orders_diag: dict = {}
    if order > 0:
        # the layer march's resolvent and its composites R ⋆ K_r are the
        # same at every order
        resolvent = renewal_resolvent(
            kit.P, kernel_node_weights(model.sojourns, 0, grid_tau.nodes)[0])
        composites = composite_kernels(model.sojourns, grid_tau.nodes, resolvent, order - 1)
    for k in range(1, order + 1):
        rhs_vals = system_rhs_values(kit, result.U, k)
        U_Rk, defect = regular_term(kit, rhs_vals, c0.h_t)
        terms = forcing_terms(kit, k, result.U)

        pi_w_r0 = -state_mix(kit.P - np.eye(kit.model.n_states), U_Rk.values[0])
        ck0, ck0_tail_bound = initial_ck0(kit, k, terms, pi_w_r0, result.W, grid_tau)
        source = transport_sources(kit, result.U, U_Rk, k)
        c_k = solve_ck(kit, ck0, source, times, flow_table)
        U_k = TimeSeries(c_k.values + U_Rk.values, c0.h_t)
        result.c.append(c_k)
        result.U.append(U_k)

        W_series, w_info = solve_Wk(kit, k, grid_tau, -U_k.values[0], terms, result.W,
                                     resolvent, composites)
        result.W.append(W_series)

        reg = check_boundary_regularity(kit, U_k.values[0], W_series.values[0],
                                        w_info["t0_residual"])
        orders_diag[k] = {
            "range_projection_defect": defect,
            "system15_residual": system15_residual(kit, result.U, k, rhs_vals),
            "ck0_sup": float(np.abs(ck0).max()),
            "ck0_tail_bound": ck0_tail_bound,
            "w_decay_ratio": w_info["decay_ratio"],
            "w_decay_worst_state": (None if w_info["decay_worst_state"] is None
                                    else str(w_info["decay_worst_state"])),
            "w_monotone_tail": w_info["monotone_tail"],
            "w_sup": float(sup_norm(W_series.values)),
            "layer_rank": len(W_series.basis),
            "u_sup": float(sup_norm(U_k.values)),
            **reg,
        }

    result.diagnostics = {
        "model": {
            "row_sum_error_max": float(diag.row_sum_errors.max()),
            "irreducible": diag.irreducible,
            "aperiodic": diag.aperiodic,
            "spectral_gap": diag.spectral_gap,
            "cramer_margin": [float(c) for c in diag.cramer_margin],
        },
        "field": {"velocity_bound": kit.fld.bound()},
        "operator": {
            "potential_identity_residual": kit.potential.identity_residual,
            "potential_commute_residual": kit.potential.commute_residual,
        },
        "grids": {
            "h_t": float(times[1] - times[0]), "horizon": float(times[-1]),
            "h_tau": grid_tau.h_tau, "tau_max": grid_tau.tau_max, "n_tau": grid_tau.n_tau,
            "n_points": kit.fld.grid.n_points,
        },
        "orders": orders_diag,
        "adjudications": dict(ADJUDICATIONS),
    }
    return result


def system15_residual(kit: OperatorKit, U_list: list, k: int,
                      rhs_vals: np.ndarray) -> float:
    """Direct substitution check of the order-k system equation
    Q U_k = Σ μ_n L_n U_{k-n} over the whole time grid."""
    qu = np.einsum("xy,tyu->txu", kit.Q, U_list[k].values)
    return float(np.abs(qu - rhs_vals).max())
