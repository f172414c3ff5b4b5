"""Operator algebra of the expansion: projector, potential operator, the
time-derivative series, and the L operator family.

Sign convention: the order-k transport operator is

    L_k U = sum_{j=0..k} (-1)^(j+1) C(k,j) V^(k-j) P U^(j)

which at k=1 reads L_1 U = P U' - V P U.  The binomial coefficients make the
family telescope to zero on solutions of dU/dt = V U when the velocity does
not depend on the state (the collapse tests pin this down; the printed form
without C(k,j) does not telescope at k = 2).

The order-k system Q U_k = S_k, S_k = sum_{n=1..k} mu_n L_n U_{k-n}, is the
only right side the expansion forms: the script-L family of the coefficient
equations is never built, because sum_{j=1..k} script-L_j c_{k-j} equals
S_{k+1} - L_1 c_k (see regular.projected_frak_L_series).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .field import VelocityField, fd_derivative, u_derivative_values
from .model import SemiMarkovModel, embedded_stationary, generator, semi_markov_stationary


@dataclass
class PotentialData:
    R0: np.ndarray
    identity_residual: float
    commute_residual: float


def potential_build(Q: np.ndarray, pi: np.ndarray) -> PotentialData:
    """R0 = (Q + Π)^(-1) - Π with the defining identities verified at build."""
    n = Q.shape[0]
    Pi = np.ones((n, 1)) @ pi[None, :]
    A = Q + Pi
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > 1e12:
        raise np.linalg.LinAlgError(
            f"Q + Pi nearly singular (condition number {cond:.3e})")
    R0 = np.linalg.inv(A) - Pi
    eye = np.eye(n)
    res1 = max(np.abs(R0 @ Q - (eye - Pi)).max(), np.abs(Q @ R0 - (eye - Pi)).max())
    res2 = max(np.abs(Pi @ R0).max(), np.abs(R0 @ Pi).max())
    return PotentialData(R0=R0, identity_residual=float(res1), commute_residual=float(res2))


def state_mix(P: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Apply a state-space matrix along the state axis of (..., n, n_points)."""
    return np.einsum("xy,...yu->...xu", P, values)


# -- time series ----------------------------------------------------------------


MAX_DERIVATIVE = 8  # highest time-derivative order a TimeSeries serves


@dataclass
class TimeSeries:
    """(state, point) arrays sampled on a uniform time grid, with finite-difference
    time derivatives (or an analytic derivative hook where one exists)."""

    values: np.ndarray  # (n_times, n_states, n_points)
    h_t: float
    derivative_hook: object = None  # optional: order -> values array
    _deriv_cache: dict = dc_field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 3:
            raise ValueError("TimeSeries values must be (time, state, point)")

    def derivative_values(self, order: int) -> np.ndarray:
        if order == 0:
            return self.values
        if order > MAX_DERIVATIVE:
            raise ValueError(f"derivative order {order} beyond cap {MAX_DERIVATIVE}")
        if order not in self._deriv_cache:
            if self.derivative_hook is not None:
                self._deriv_cache[order] = self.derivative_hook(order)
            else:
                self._deriv_cache[order] = fd_derivative(
                    self.values, self.h_t, order, axis=0, periodic=False)
        return self._deriv_cache[order]


# -- operator kit ----------------------------------------------------------------


@dataclass
class OperatorKit:
    """Everything the expansion solves need: stationary data, projector,
    potential operator, moment tables."""

    model: SemiMarkovModel
    fld: VelocityField
    rho: np.ndarray
    pi: np.ndarray
    m_hat: float
    Q: np.ndarray
    potential: PotentialData
    vhat: VelocityField  # single-state averaged field

    @property
    def P(self) -> np.ndarray:
        return self.model.P

    @property
    def R0(self) -> np.ndarray:
        return self.potential.R0

    def mu(self, n: int) -> np.ndarray:
        return self.model.reduced_moments(n)

    def nu(self, n: int) -> np.ndarray:
        return self.model.nu_coefficients(n)

    def m(self, n: int) -> np.ndarray:
        return self.model.moments(n)

    def project_values(self, values: np.ndarray) -> np.ndarray:
        """Π along the state axis of (..., n, n_points), broadcast back."""
        avg = np.einsum("y,...yu->...u", self.pi, values)
        return np.repeat(avg[..., None, :], len(self.pi), axis=-2)


def build_kit(model: SemiMarkovModel, fld: VelocityField) -> OperatorKit:
    from .field import averaged_velocity

    rho = embedded_stationary(model)
    pi, m_hat = semi_markov_stationary(model, rho)
    Q = generator(model)
    pot = potential_build(Q, pi)
    vhat = averaged_velocity(pi, fld)
    return OperatorKit(model=model, fld=fld, rho=rho, pi=pi, m_hat=m_hat,
                       Q=Q, potential=pot, vhat=vhat)


# -- L operators -----------------------------------------------------------------


def velocity_power_values(fld: VelocityField, values: np.ndarray, power: int) -> np.ndarray:
    """(v(u;x) ∂_u)^power along the last two axes of (..., n_states, n_points)."""
    out = values
    for _ in range(power):
        out = u_derivative_values(out, fld.grid)
        out *= fld.values
    return out


def L_series_values(k: int, kit: OperatorKit, series: TimeSeries) -> np.ndarray:
    """L_k applied to a whole series; returns (n_times, n_states, n_points)."""
    if k < 1:
        raise ValueError("L order must be >= 1")
    out = 0.0
    for j in range(k + 1):
        pu = state_mix(kit.P, series.derivative_values(j))
        coeff = (-1.0) ** (j + 1) * math.comb(k, j)
        out = out + coeff * velocity_power_values(kit.fld, pu, k - j)
    return out

