"""Spatial discretization: u-grid, velocity fields and flows.

The evolution semigroup is composition with the characteristic flow, so the
module provides exact flows for affine fields, RK4 for tabulated
ones, and local Lagrange interpolation to evaluate grid data at flowed
points.  The one derivative is the first in u, a 4th-order finite
difference.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np


class DomainEscape(RuntimeError):
    """A characteristic left the padded grid window."""


def fornberg_weights(x0: float, nodes: np.ndarray, order: int) -> np.ndarray:
    """Finite-difference weights for the order-th derivative at x0 on
    arbitrary nodes (Fornberg's recursion)."""
    nodes = np.asarray(nodes, dtype=float)
    n = len(nodes)
    if order >= n:
        raise ValueError("need more nodes than derivative order")
    c = np.zeros((n, order + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = nodes[0] - x0
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - x0
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            for k in range(mn, 0, -1):
                c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
            c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, order]


@dataclass(frozen=True)
class UGrid:
    u_min: float
    u_max: float
    n_points: int = 257
    boundary_mode: str = "extrapolate"
    escape_margin: float | None = None

    def __post_init__(self):
        # each message starts with the offending field's name
        if self.n_points < 16:
            raise ValueError(f"n_points must be at least 16, got {self.n_points!r}")
        if not self.u_max > self.u_min:
            raise ValueError(f"u_max must exceed u_min, got u_min={self.u_min!r}, "
                             f"u_max={self.u_max!r}")
        if self.boundary_mode not in ("extrapolate", "periodic"):
            raise ValueError("boundary_mode must be 'extrapolate' or 'periodic', "
                             f"got {self.boundary_mode!r}")
        if self.escape_margin is None:
            object.__setattr__(self, "escape_margin", 0.25 * (self.u_max - self.u_min))

    @property
    def spacing(self) -> float:
        return (self.u_max - self.u_min) / (self.n_points - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.u_min, self.u_max, self.n_points)

    def check_inside(self, positions: np.ndarray, context: str = ""):
        if self.boundary_mode == "periodic":
            return
        lo = self.u_min - self.escape_margin
        hi = self.u_max + self.escape_margin
        pos = np.asarray(positions)
        if pos.min() < lo or pos.max() > hi:
            worst = pos.flat[np.abs(pos - 0.5 * (lo + hi)).argmax()]
            raise DomainEscape(f"characteristic reached u={worst:.4g} outside "
                               f"[{lo:.4g}, {hi:.4g}] ({context})")


def grid_index(t: float, h: float) -> int | None:
    """Step index of t on the grid h·i, or None when t is off that grid by
    more than 1e-9·max(1, t)."""
    i = int(round(t / h))
    return i if abs(i * h - t) <= 1e-9 * max(1.0, t) else None


def sup_norm(values: np.ndarray) -> float:
    vals = np.asarray(values)
    return float(np.abs(vals).max()) if vals.size else 0.0


# -- interpolation -------------------------------------------------------------


def interp_weights(grid: UGrid, positions: np.ndarray, order: int = 4):
    """Stencil indices and Lagrange weights to evaluate grid data at positions.

    order is the stencil width (4 = cubic, 6 = quintic).  Outside the grid the
    evaluation clamps to the end values in extrapolate mode and wraps in
    periodic mode.
    """
    pos = np.asarray(positions, dtype=float)
    n = grid.n_points
    p = (pos - grid.u_min) / grid.spacing
    if grid.boundary_mode == "periodic":
        p = np.mod(p, n - 1)
    else:
        p = np.clip(p, 0.0, n - 1.0)
    base = np.floor(p).astype(np.int64) - (order // 2 - 1)
    if grid.boundary_mode == "periodic":
        idx = np.mod(base[..., None] + np.arange(order), n - 1)
    else:
        base = np.clip(base, 0, n - order)
        idx = base[..., None] + np.arange(order)
    return idx, lagrange_weights(p - base, order)


def lagrange_weights(s: np.ndarray, order: int) -> np.ndarray:
    """Weights of the Lagrange interpolant on nodes 0..order-1 at s, one
    node per entry of a new last axis."""
    w = np.ones(np.shape(s) + (order,))
    for j in range(order):
        for m in range(order):
            if m != j:
                w[..., j] *= (s - m) / (j - m)
    return w


def interp_apply(values: np.ndarray, idx: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Evaluate 1-d grid data (last axis) at precomputed stencils, summing
    one stencil column at a time (the order of (values[..., idx] * w).sum(-1),
    without its width-fold temporary)."""
    out = values[..., idx[..., 0]] * w[..., 0]
    for j in range(1, idx.shape[-1]):
        out += values[..., idx[..., j]] * w[..., j]
    return out


def interp_eval(grid: UGrid, values: np.ndarray, positions: np.ndarray,
                order: int = 4) -> np.ndarray:
    idx, w = interp_weights(grid, positions, order)
    return interp_apply(values, idx, w)


def lag_kernel(fld: VelocityField, x: int, lag_times: np.ndarray, order: int):
    """Lag kernel of state x's flow over lag_times, shared by many nodes.

    A translation, u + b·t, moves every node by the same c_j = b·t_j /
    spacing columns at lag j, so a node u whose width-order stencils neither
    clip nor wrap reads lag j at the columns u + d_min + d with the Lagrange
    weight K[d, j] of c_j.  Returns (K, d_min, inner), inner the slice of
    those nodes.  For any other flow, or when every node clips or wraps,
    inner is empty and K has no rows.
    """
    b = fld.specs[x].drift
    empty = np.zeros((0, len(lag_times))), 0, slice(0, 0)
    if b is None:
        return empty
    grid = fld.grid
    c = b * lag_times / grid.spacing
    base = np.floor(c).astype(np.intp) - (order // 2 - 1)
    d_min = int(base.min())
    d_max = int(base.max()) + order - 1
    # a periodic grid's last node repeats the first: columns beyond n - 2 wrap
    last = grid.n_points - 1 - (grid.boundary_mode == "periodic")
    inner = slice(max(0, -d_min), last - d_max + 1)
    if inner.stop <= inner.start:
        return empty
    K = np.zeros((d_max - d_min + 1, len(c)))
    K[base[:, None] - d_min + np.arange(order), np.arange(len(c))[:, None]] = (
        lagrange_weights(c - base, order))
    return K, d_min, inner


# -- differentiation -----------------------------------------------------------


# unit-spacing weights of the first derivative at each node of five
# consecutive nodes, row i for node i
_STENCILS = np.array([fornberg_weights(float(i), np.arange(5.0), 1) for i in range(5)])
# elements of u_derivative_values' per-block temporaries
_FD_BLOCK = 1 << 14


def u_derivative_values(values: np.ndarray, grid: UGrid) -> np.ndarray:
    """4th-order first derivative along the last axis, on the grid's nodes.

    Node i takes the Fornberg stencil on the five consecutive nodes from
    clip(i - 2, 0, n - 5): one centred stencil in the interior, applied as a
    weighted sum of shifted slices over blocks of flattened rows.  Within
    two nodes of an end, what that sum leaves is overwritten: on an open
    grid by one-sided stencils, on a periodic grid by the centred stencil
    wrapped around, and there the last node repeats the first.
    """
    values = np.asarray(values, dtype=float)
    periodic = grid.boundary_mode == "periodic"
    n = values.shape[-1] - int(periodic)
    rows = values.reshape(-1, values.shape[-1])   # a view unless the rows are scattered
    out = np.empty(rows.shape)
    w = _STENCILS[2] / grid.spacing
    step = max(1, _FD_BLOCK // rows.shape[1])
    for r in range(0, len(rows), step):
        src = np.ascontiguousarray(rows[r:r + step]).reshape(-1)
        part = out[r:r + step].reshape(-1)[2:-2]
        np.multiply(src[:-4], w[0], out=part)
        for j in range(1, 5):
            if w[j] != 0.0:
                part += w[j] * src[j:j + part.size]
    out = out.reshape(values.shape)
    if periodic:
        # the flat pass's sums in its order (w[2] is 0); node n repeats node 0
        ends = np.r_[0, 1, n - 2, n - 1, n]
        out[..., ends] = interp_apply(values, (ends[:, None] + np.arange(-2, 3)) % n, w)
        return out
    # each open end: its two nodes share the end's five
    for nodes, start in ((slice(0, 2), 0), (slice(n - 2, n), n - 5)):
        w = _STENCILS[nodes.start - start:nodes.stop - start] / grid.spacing
        ends = np.einsum("rw,w...->r...", w, np.moveaxis(values[..., start:start + 5], -1, 0))
        out[..., nodes] = np.moveaxis(ends, 0, -1)
    return out


# -- velocity fields -----------------------------------------------------------


@dataclass(frozen=True)
class StateVelocity:
    """Velocity v(u) of a single state: constant, linear (a*u + b) or tabulated.

    A constant velocity is stored as the affine law with slope 0 and
    intercept value, so only affine and tabulated fields reach the flows.
    """

    kind: str
    value: float = 0.0
    slope: float = 0.0
    intercept: float = 0.0
    table: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("constant", "linear", "tabulated"):
            raise ValueError(f"unknown velocity kind {self.kind!r}")
        if self.kind == "tabulated" and self.table is None:
            raise ValueError("tabulated velocity needs values")
        if self.kind == "constant":
            if self.slope != 0.0 or self.intercept != 0.0:
                raise ValueError("constant velocity takes value only, got "
                                 f"slope={self.slope!r}, intercept={self.intercept!r}")
            object.__setattr__(self, "slope", 0.0)
            object.__setattr__(self, "intercept", self.value)

    @property
    def drift(self) -> float | None:
        """b when the flow is the translation u + b·t (affine with slope 0),
        else None."""
        if self.kind == "tabulated" or abs(self.slope) >= 1e-300:
            return None
        return self.intercept


@dataclass
class VelocityField:
    """Per-state velocity specification evaluated on a grid."""

    grid: UGrid
    specs: tuple
    values: np.ndarray = dc_field(init=False)

    def __post_init__(self):
        self.specs = tuple(self.specs)
        rows = []
        for spec in self.specs:
            if spec.kind != "tabulated":
                rows.append(spec.slope * self.grid.nodes + spec.intercept)
            else:
                tab = np.asarray(spec.table, dtype=float)
                if tab.shape != (self.grid.n_points,):
                    raise ValueError("tabulated velocity must match the grid")
                rows.append(tab)
        self.values = np.array(rows)

    @property
    def n_states(self) -> int:
        return len(self.specs)

    def bound(self) -> float:
        """sup over grid and states of |v|, recorded for the boundedness check."""
        return float(np.abs(self.values).max())

    def eval_state(self, x: int, positions: np.ndarray) -> np.ndarray:
        spec = self.specs[x]
        pos = np.asarray(positions, dtype=float)
        if spec.kind != "tabulated":
            return spec.slope * pos + spec.intercept
        return interp_eval(self.grid, self.values[x], pos)


def flow_map(fld: VelocityField, x: int, t):
    """(scale, shift) of state x's affine flow over the durations t, so that
    u_x(t) = u0 * scale + shift: e^{a t} and (b/a) expm1(a t) for the
    velocity a u + b (expm1 keeps the digits that e^{a t} - 1 cancels at
    small |a t|), or 1 and b t for a translation (StateVelocity.drift).
    Two such maps compose to one, so a path of many segments is one map."""
    spec = fld.specs[x]
    if spec.kind == "tabulated":
        raise ValueError(f"state {x} has a tabulated velocity, whose flow is not affine")
    if spec.drift is not None:
        shift = spec.drift * t
        return np.ones_like(shift), shift
    a, b = spec.slope, spec.intercept
    return np.exp(a * t), (b / a) * np.expm1(a * t)


def flow(fld: VelocityField, x: int, u0, t, check: bool = True) -> np.ndarray:
    """Characteristic position u_x(t) started from u0.

    t is a scalar or an array that broadcasts against u0 (one duration per
    element).  Affine fields apply their flow_map, u0 * scale + shift;
    tabulated ones take RK4, each element its own n = max(1, ceil(|t|/h))
    steps of t/n with h a quarter of the grid spacing, so a short duration
    never pays for the longest one.
    """
    u0 = np.asarray(u0, dtype=float)
    if fld.specs[x].kind != "tabulated":
        scale, shift = flow_map(fld, x, t)
        out = u0 * scale + shift
    else:
        n_steps = np.maximum(1, np.ceil(np.abs(t) / (fld.grid.spacing / 4.0))).astype(np.int64)
        out, dt, n_steps = np.broadcast_arrays(u0, t / n_steps, n_steps)
        shortest = n_steps.min()  # >= 1, so out is a fresh array after these
        for _ in range(shortest):
            out = _rk4_step(fld, x, out, dt)
        for step in range(shortest, n_steps.max()):
            live = n_steps > step
            out[live] = _rk4_step(fld, x, out[live], dt[live])
    if check:
        fld.grid.check_inside(out, context=f"state {x}, t={np.max(t):.4g}")
    return out


def _rk4_step(fld: VelocityField, x: int, u: np.ndarray, dt) -> np.ndarray:
    k1 = fld.eval_state(x, u)
    k2 = fld.eval_state(x, u + 0.5 * dt * k1)
    k3 = fld.eval_state(x, u + 0.5 * dt * k2)
    k4 = fld.eval_state(x, u + dt * k3)
    return u + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def flow_positions(fld: VelocityField, x: int, times: np.ndarray) -> np.ndarray:
    """u_x(t) from every grid node, for each t in an increasing time array.

    Affine fields evaluate every time in one call; tabulated fields
    advance incrementally so the cost stays linear in len(times).  Every
    position is checked to lie inside the grid.
    """
    times = np.asarray(times, dtype=float)
    nodes = fld.grid.nodes
    if fld.specs[x].kind != "tabulated":
        out = flow(fld, x, nodes, times[:, None], check=False)
    else:
        out = np.empty((len(times), len(nodes)))
        pos = nodes
        prev = 0.0
        for i, t in enumerate(times):
            dt = float(t) - prev
            if dt > 0:
                pos = flow(fld, x, pos, dt, check=False)
            out[i] = pos
            prev = float(t)
    fld.grid.check_inside(out, context=f"state {x}, horizon {times[-1]:.4g}")
    return out


def averaged_velocity(pi: np.ndarray, fld: VelocityField) -> VelocityField:
    """v̂(u) = Σ_x π_x v(u; x) as a single-state field.

    Keeps affine structure when every state is affine, so averaged flows
    stay closed-form.
    """
    if all(s.kind != "tabulated" for s in fld.specs):
        a = float(sum(p * s.slope for p, s in zip(pi, fld.specs)))
        b = float(sum(p * s.intercept for p, s in zip(pi, fld.specs)))
        spec = StateVelocity("linear", slope=a, intercept=b)
    else:
        tab = np.tensordot(pi, fld.values, axes=(0, 0))
        spec = StateVelocity("tabulated", table=tab)
    return VelocityField(fld.grid, (spec,))


# -- test functions ------------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """Smooth bounded initial data φ(u): gaussian, cosine bump, or a polynomial
    under a gaussian cap."""

    __test__ = False  # not a pytest class

    kind: str = "gaussian"
    center: float = 0.0
    width: float = 1.0
    coeffs: tuple = (1.0,)

    def __post_init__(self):
        # each message starts with the offending field's name
        if self.kind not in ("gaussian", "cosine_bump", "poly_capped"):
            raise ValueError("kind must be 'gaussian', 'cosine_bump' or 'poly_capped', "
                             f"got {self.kind!r}")
        if not self.width > 0:
            raise ValueError(f"width must be > 0, got {self.width!r}")

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        z = (u - self.center) / self.width
        if self.kind == "gaussian":
            return np.exp(-0.5 * z**2)
        if self.kind == "cosine_bump":
            # cos^4 bump: three continuous derivatives at the support edge
            return np.where(np.abs(z) < 1.0,
                            0.25 * (1.0 + np.cos(np.pi * np.clip(z, -1, 1))) ** 2, 0.0)
        p = np.zeros_like(u)  # poly_capped
        for c in reversed(self.coeffs):
            p = p * u + c
        return p * np.exp(-0.5 * z**2)
