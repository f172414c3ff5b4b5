"""Boundary-layer part of the expansion: the fast-time renewal solves and
the initial-condition algorithm for the null-space coefficients.

All integrals against the sojourn laws use product integration with exact
cell moments (the smooth factor is interpolated linearly, the measure is
integrated in closed form), which keeps uniform sojourns exact and makes the
fast-time marching unconditionally stable.

The closed-form part of each order's layer forcing is enumerated once, as
(r, n, vector) terms (forcing_terms): the fast-time march sums their
τ-profiles (term_profile) and the initial-condition algorithm their
fast-time integrals (term_integral).

The march is linear with a convolution kernel, so it is applied as its
discrete resolvent R, the power-series inverse of that kernel, which
renewal_resolvent builds by Newton doubling in O(n_tau log n_tau n_states³).
Every Volterra sum of the layer is a history_convolution: the history part
of ψ^k_0, Σ_r K_r ⋆ V^r P W_{k-r}, is one per r (psi_k0), and R meets the
order's whole forcing (the separable terms' τ-profiles and that history)
in one more, node 0 an ordinary node of it.
Every forcing vector is φ, or a lower order's value at τ = 0, pushed
through V, P and ∂_u, so each layer lies in a span of few u-vectors: the
forcing is projected onto an orthonormal basis of that span, cut at its
numerical rank by one SVD, before R meets it, and the layer lives only as
τ-coefficients on it (LayerSeries), never at full width.  R's sum runs at
the layer's rank and ψ^k_0's at the lower layers' ranks, so no layer sum
runs at n_points width or at the stacked vectors' count: each costs
O(n_tau log n_tau n_states² r).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import sup_norm
from .operators import OperatorKit, state_mix, velocity_power_values
from .regular import cumulative_simpson_weights, fft_length


class LayerWindowError(RuntimeError):
    """The fast-time window is too short for the requested accuracy."""


@dataclass(frozen=True)
class TauGrid:
    tau_max: float
    n_tau: int

    def __post_init__(self):
        if self.n_tau < 8 or self.n_tau % 2 != 0:
            raise ValueError("tau grid needs an even number >= 8 of panels")

    @property
    def h_tau(self) -> float:
        return self.tau_max / self.n_tau

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.tau_max, self.n_tau + 1)


@dataclass
class LayerSeries:
    """A layer W_k on the τ grid as its factor, W_k(τ_i) = coeffs[i] @ basis:
    coeffs (N, n_states, r_k) and basis (r_k, n_points) with orthonormal
    rows.  Node 0 reproduces W_k(0) = -U_k(0) to rounding."""

    coeffs: np.ndarray
    basis: np.ndarray

    def sup_profile(self) -> np.ndarray:
        """sup over states and u of |W_k| at each τ node, formed 256 τ-rows at
        a time: a full-width product would set a build's memory peak."""
        return np.concatenate([np.abs(self.coeffs[i:i + 256] @ self.basis).max(axis=(1, 2))
                               for i in range(0, len(self.coeffs), 256)])


def default_tau_grid(kit: OperatorKit, h_tau: float = 0.005,
                     tau_max: float | None = None) -> TauGrid:
    """Window covering the layer: ten mean sojourns or the survival decay
    point, whichever is larger."""
    if tau_max is None:
        m1 = kit.model.mean_sojourns()
        decay = max(d.decay_point() for d in kit.model.sojourns)
        tau_max = max(10.0 * float(m1.max()), decay)
    n_tau = int(math.ceil(tau_max / h_tau / 2)) * 2
    if n_tau < 8:
        raise ValueError(
            f"layer.h_tau {h_tau:g} cuts the fast-time window layer.tau_max {tau_max:g} "
            f"into {n_tau} panels, fewer than 8: decrease layer.h_tau")
    return TauGrid(tau_max=float(n_tau * h_tau), n_tau=n_tau)


# -- the closed-form layer forcing --------------------------------------------------


def term_profile(sojourns, r: int, n: int, tau: np.ndarray) -> np.ndarray:
    """∫_τ^∞ s^r (τ-s)^n / r! F(ds) for each law F, shape (len(tau), n_laws),
    expanded into the laws' partial moments."""
    return np.array([
        sum(math.comb(n, i) * tau ** (n - i) * (-1.0) ** i * d.partial_moment(r + i, tau)
            for i in range(n + 1))
        for d in sojourns]).T / math.factorial(r)


def term_integral(sojourns, r: int, n: int) -> np.ndarray:
    """∫_0^∞ of term_profile for each law: (-1)^n m_{r+n+1} / ((n+1) r!)."""
    return np.array([(-1.0) ** n * d.moment(r + n + 1) for d in sojourns]) \
        / ((n + 1) * math.factorial(r))


def forcing_terms(kit: OperatorKit, k: int, U: list) -> list:
    """The closed-form part of the order-k layer forcing as (r, n, vector)
    terms, each term_profile(r, n) times an (n_states, n_points) vector.

    The forcing -(ψ^k - ψ^k_0 - ψ^k_1) meets the sojourn laws in closed form
    wherever W_j(τ-s) reaches below zero, where it is the negative extension
    -Σ_{n=0..j} (τ-s)^n/n! U^(n)_{j-n}(0) (W_j(0) = -U_j(0) is its n = 0
    term): one Taylor family (r, n, -V^r P U^(n)_{k-r-n}(0) / n!) for
    0 <= r < k and (r == 0) <= n <= k - r; and -ψ^k = -F̄^(k) V^k P φ is
    (k-n, n, V^k P φ / n!) for 1 <= n <= k, φ read from U_0(0).  The
    (0, 0, P W_k(0)) term waits for c_k(0).  U holds the lower orders' series.
    """
    rows = kit.fld.values.shape   # U_0's one state row widens to (n_states, n_points)
    terms = [(r, n, -U[k - r - n].derivative_values(n)[0] / math.factorial(n))
             for r in range(k) for n in range(int(r == 0), k - r + 1)]
    terms = [(r, n, velocity_power_values(kit.fld, state_mix(kit.P, np.broadcast_to(v, rows)), r))
             for r, n, v in terms]
    vk_phi = velocity_power_values(kit.fld, U[0].values[0], k)   # P φ = φ; V widens it
    return terms + [(k - n, n, vk_phi / math.factorial(n)) for n in range(1, k + 1)]


# -- product-integration kernels ---------------------------------------------------


def kernel_node_weights(sojourns, r: int, tau_nodes: np.ndarray):
    """Product-integration node weights for ∫_0^{τ_i} s^r/r! F(ds) G(s) with G
    linear per cell, one row per sojourn law F.

    Returns (w, a), each (n_laws, n_nodes): w[:, m] is the full-assembly
    weight of node m and a[:, j] the left-node weight of cell j.  The integral
    up to τ_i is Σ_{m<=i} w[:, m] G(τ_m) - a[:, i] G(τ_i), since cell i starts
    beyond τ_i.
    """
    h = tau_nodes[1] - tau_nodes[0]
    Mr = np.array([d.partial_moment(r, tau_nodes) for d in sojourns])
    Mr1 = np.array([d.partial_moment(r + 1, tau_nodes) for d in sojourns])
    mass = (Mr[:, :-1] - Mr[:, 1:]) / math.factorial(r)
    first = (Mr1[:, :-1] - Mr1[:, 1:]) / math.factorial(r)
    a = np.zeros(Mr.shape)
    a[:, :-1] = (mass * tau_nodes[1:] - first) / h
    w = a.copy()
    w[:, 1:] += (first - mass * tau_nodes[:-1]) / h
    return w, a


def history_convolution(kernel: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Causal sums out[i] = Σ_{m<=i} kernel[m] @ values[i-m] over fast time.

    kernel is (N, n_out, n_in) and values (N, n_in, n_cols); the sums are one
    zero-padded real-FFT convolution with fast time as the contiguous
    transform axis, the frequency product summed over the n_in source
    states.  Every caller convolves few columns (n_states in the resolvent's
    doubling, a layer's rank in the layer sums), so the temporaries stay
    small.
    """
    n_nodes = kernel.shape[0]
    length = fft_length(2 * n_nodes - 1)  # no wrap-around
    k_hat = np.fft.rfft(np.ascontiguousarray(kernel.transpose(1, 2, 0)), length)
    v_hat = np.fft.rfft(np.ascontiguousarray(values.transpose(1, 2, 0)), length)
    prod = k_hat[:, 0, None] * v_hat[0]
    for y in range(1, kernel.shape[2]):
        prod += k_hat[:, y, None] * v_hat[y]
    return np.fft.irfft(prod, length)[..., :n_nodes].transpose(2, 0, 1)


def psi_k0(kit: OperatorKit, W_lower: list, k: int, grid_tau: TauGrid):
    """The [0, τ] part of ψ^k_0(τ) = Σ_{r=1..k-1} ∫_0^∞ s^r/r! F(ds) V^r P W_{k-r}(τ-s)
    as a forcing, Σ_r K_r ⋆ V^r P W_{k-r}, factored per state: τ-coefficients
    (N, n_states, m) and u-vectors (n_states, m, n_points) whose contraction
    over m, state by state, is the forcing.

    Each lower layer is read as its factor G B (LayerSeries), so
    V^r P W_{k-r}(τ)[y] = Σ_c (P G)[τ, y, c] (v_y ∂_u)^r B_c: K_r, the diagonal
    of the r-th kernel's node weights w_r, is convolved with P G, r_{k-r}
    columns, less its left cell a_r ⊗ (P G)[0], so the forcing is 0 at τ = 0;
    column c of state y carries the vector (v_y ∂_u)^r B_c.  Each r costs one
    history sum, O(n_tau log n_tau n_states² r_{k-r}), and nothing runs at
    n_points width.  The (τ, ∞) part rides with the (r, 0) terms of
    forcing_terms.
    """
    tau = grid_tau.nodes
    n = kit.model.n_states
    n_points = kit.fld.grid.n_points
    coeffs, vectors = [np.zeros((len(tau), n, 0))], [np.zeros((n, 0, n_points))]
    for r in range(1, k):
        lower = W_lower[k - r]
        w, a = kernel_node_weights(kit.model.sojourns, r, tau)
        pg = state_mix(kit.P, lower.coeffs)
        coeffs.append(history_convolution(w.T[:, :, None] * np.eye(n), pg)
                      - a.T[:, :, None] * pg[0])
        vr_basis = velocity_power_values(
            kit.fld, np.broadcast_to(lower.basis[:, None], (len(lower.basis), n, n_points)), r)
        vectors.append(vr_basis.swapaxes(0, 1))
    return np.concatenate(coeffs, axis=2), np.concatenate(vectors, axis=1)


# -- the renewal solve --------------------------------------------------------------


def renewal_resolvent(P: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Discrete resolvent of the implicit renewal march with node weights w
    (n_states, N), shape (N, n, n): the power-series inverse R of the march's
    kernel B(z) = I - Σ_m diag(w_m) P z^m, built by Newton doubling
    R ← R - R ⋆ (B ⋆ R - I) on history_convolution, O(N log N n³)."""
    n, n_nodes = w.shape
    B = -w.T[:, :, None] * P
    B[0] += np.eye(n)
    R = np.linalg.inv(B[:1])
    while len(R) < n_nodes:
        R = np.concatenate((R, np.zeros_like(R)))[:n_nodes]
        E = history_convolution(B[:len(R)], R)
        E[0] -= np.eye(n)
        R -= history_convolution(R, E)
    return R


# singular values of the stacked forcing u-vectors at or below this fraction
# of the largest are rounding: the layer's basis keeps only the directions
# above it.  The cut sits in the gap between the vectors' numerical rank and
# their rounding, which reaches 1.4e-13 on the three-state mixed model at
# order 3 (257 points), whose smallest kept value is 5e-8
_RANK_TOL = 1e-12


def solve_Wk(kit: OperatorKit, k: int, grid_tau: TauGrid, W_k0: np.ndarray,
             terms: list, W_lower: list, resolvent: np.ndarray):
    """Solve the standard-form fast-time renewal equation

        ∫_0^τ F(ds) P W_k(τ-s) - W_k(τ) = ψ^k - ψ^k_0 - ψ^k_1

    by product integration with an implicit diagonal correction.  The
    forcing, the τ-profiles of the order's forcing_terms and of
    (0, 0, P W_k(0)) and the history part of ψ^k_0 (psi_k0), is assembled
    as coefficients on the layer's u-basis, never at full width: one SVD of
    all their u-vectors keeps the right singular vectors above _RANK_TOL of
    the largest, the numerical rank of the span.  The march is linear, so
    its discrete resolvent (renewal_resolvent on the r = 0 node weights)
    meets those coefficients in one history_convolution at the layer's
    rank, and the result is the layer's factor.  On the raw vectors the
    coefficients would not decay while their sum does, so FFT sums that
    read them round with |G_c|·|B_c|; on an orthonormal basis, |G| is |W|.
    Returns the LayerSeries, its layer_time_integral (J, tail bound,
    advice) and its diagnostics under their diagnostics.json names; the
    boundary residuals renewal_t0, regularity_PI and regularity_I_minus_Pi
    read G_0 B - W_k(0) = U_k(0) + W_k(0) off the factor, as it is and
    under P - I and I - Π.
    """
    tau = grid_tau.nodes
    n_nodes = len(tau)
    # forcing f = -(ψ^k - ψ^k_0 - ψ^k_1): separable τ-profiles (N, n) times
    # (n, n_points) vectors, plus the history part, which is 0 at τ = 0
    terms = [(0, 0, state_mix(kit.P, W_k0)), *terms]
    profiles = [term_profile(kit.model.sojourns, r, m, tau) for r, m, _ in terms]
    vectors = [vec for _, _, vec in terms]
    history, history_vectors = psi_k0(kit, W_lower, k, grid_tau)

    # node i of the march solves A W_i - Σ_{m=1..i} diag(w_m) P W_{i-m}
    # = f_i - diag(a_i) P W_0, A = I - diag(w_0) P, so W is the march's
    # resolvent convolved with that right side; its left-cell term
    # -a ⊗ P W_0 rides in the profile of the (0, 0, P W_0) term.  At node 0
    # the profiles sum to W_0, so the right side there is A W_0 and R_0 = A⁻¹
    # returns W_0 to the residual renewal_t0 reports
    a = kernel_node_weights(kit.model.sojourns, 0, tau)[1]
    profiles[0] = profiles[0] - a.T
    s, vt = np.linalg.svd(np.concatenate([*vectors, *history_vectors]), full_matrices=False)[1:]
    basis = vt[:np.count_nonzero(s > _RANK_TOL * s[0])]
    # every column's τ-coefficients (N, n, c) and u-vectors (n, c, n_points)
    columns = np.concatenate((np.stack(profiles, axis=2), history), axis=2)
    column_vectors = np.concatenate((np.stack(vectors, axis=1), history_vectors), axis=1)
    forcing = (columns.swapaxes(0, 1) @ (column_vectors @ basis.T)).swapaxes(0, 1)
    series = LayerSeries(history_convolution(resolvent, forcing), basis)
    combo = series.coeffs[0] @ series.basis - W_k0   # U_k(0) + W_k(0)
    profile = series.sup_profile()
    norm0 = sup_norm(W_k0)
    # a numerically vanishing layer has no meaningful decay ratio or worst state
    decay_ratio, worst_state = 0.0, None
    if norm0 > 1e-13:
        decay_ratio = profile[-1] / norm0
        # a settled layer ends on a state-independent level, so states level
        # with the worst to rounding of the solve report the first of them
        terminal_by_state = np.abs(series.coeffs[-1] @ series.basis).max(axis=1)
        level = terminal_by_state >= terminal_by_state.max() - 1e-12 * norm0
        worst_state = str(kit.model.states[int(np.argmax(level))])
    if decay_ratio > 0.1:
        # a layer that retains 10% of its initial size signals an
        # inconsistent initial coefficient, a sign error, or a short window
        raise LayerWindowError(
            f"order-{k} layer does not decay (ratio {decay_ratio:.2e}, worst "
            f"state {worst_state!r}); check c_k(0) conventions or increase layer.tau_max")
    m1_max = float(kit.model.mean_sojourns().max())
    tail_start = 3.0 * m1_max
    # sampled at renewal scale (sub-renewal oscillations of non-exponential
    # kernels are not decay violations), and only above the numerical floor,
    # taken as twice the terminal level
    sample_step = max(1, int(round(m1_max / grid_tau.h_tau)))
    start_idx = min(int(round(tail_start / grid_tau.h_tau)), n_nodes - 1)
    samples = profile[start_idx::sample_step]
    floor = 2.0 * profile[-1] + 1e-12
    live = samples > floor
    monotone = True
    if live.sum() > 2:
        seg = samples[live]
        monotone = bool(np.all(np.diff(seg) <= 0.05 * seg[:-1] + 1e-12))
    return series, layer_time_integral(series, grid_tau, profile), {
        "w_sup": float(profile.max()),
        "w_decay_ratio": float(decay_ratio),
        "w_decay_worst_state": worst_state,
        "w_monotone_tail": monotone,
        "layer_rank": len(series.basis),
        "renewal_t0": sup_norm(combo),
        "regularity_PI": sup_norm(state_mix(kit.P - np.eye(kit.model.n_states), combo)),
        "regularity_I_minus_Pi": sup_norm(combo - kit.project_values(combo))}


def layer_time_integral(series: LayerSeries, grid_tau: TauGrid, profile: np.ndarray):
    """J = ∫_0^∞ W(θ) dθ over the window, a bound on the truncated tail, and
    advice naming the layer setting that shrinks that bound; profile is
    series.sup_profile().

    The decay rate is fitted over the clean decay decade of the sup-norm
    profile (between the initial transient and the quadrature-bias floor);
    the truncated mass is bounded by the end level over that rate.  A profile
    whose last decade above its end level lasts more than twice as long as
    that rate needs ends on a flat floor, the quadrature bias, which a finer
    'layer.h_tau' lowers; otherwise the layer is still decaying when the
    window ends and 'layer.tau_max' is the setting to raise.
    """
    tau = grid_tau.nodes
    n_nodes = len(tau)
    w = cumulative_simpson_weights(grid_tau.n_tau, grid_tau.h_tau)
    J = np.tensordot(w, series.coeffs, axes=(0, 0)) @ series.basis
    end = profile[-1]
    top = profile[0]
    if end <= 0 or top <= 0:
        return J, 0.0, ""
    hi_level = 0.1 * top
    lo_level = max(10.0 * end, 1e-9 * top)
    above_hi = np.nonzero(profile >= hi_level)[0]
    above_lo = np.nonzero(profile >= lo_level)[0]
    i1 = int(above_hi[-1]) if above_hi.size else 0
    i2 = int(above_lo[-1]) if above_lo.size else n_nodes - 1
    rate = 0.0
    if i2 > i1 and profile[i2] > 0 and profile[i1] > profile[i2]:
        rate = math.log(profile[i1] / profile[i2]) / (tau[i2] - tau[i1])
    if rate <= 0:
        # no visible decay decade: assume ten e-folds over the window
        rate = 10.0 / float(tau[-1] - tau[0])
    if rate * float(tau[-1] - tau[i2]) > 2.0 * math.log(10.0):
        advice = "the layer ends on its quadrature floor: decrease layer.h_tau"
    else:
        advice = "the layer is still decaying at the window's end: increase layer.tau_max"
    return J, float(end / rate), advice


# -- initial conditions ---------------------------------------------------------------


# largest truncated tail of a lower layer's time integral that c_k(0) accepts
_TAIL_BOUND_MAX = 1e-6


def initial_ck0(kit: OperatorKit, k: int, terms: list, PI_W_R0: np.ndarray,
                integrals: list):
    """c_k(0) from the renewal-theorem limit of the order-k layer equation:
    the ρ-weighted fast-time integrals of the order's forcing_terms and of
    the lower layers' history part, plus the boundary mismatch.

    PI_W_R0 is (P - I) W_k(0) = -(P - I) U_k^R(0), which never involves
    c_k(0) itself.  integrals[j] is layer W_j's layer_time_integral, for
    0 < j < k.  Returns (c_k0 1-d array, tail bound of the truncated
    lower-layer integrals).
    """
    rho = kit.rho
    total = np.einsum("x,x,xu->u", rho, kit.model.mean_sojourns(), PI_W_R0)
    for r, n, vec in terms:
        total += np.einsum("x,xu->u", rho * term_integral(kit.model.sojourns, r, n), vec)

    # ∫_0^∞ of psi_k0: the kernel's mass times each lower layer's integral J
    tail_bound, advice = 0.0, ""
    for r in range(1, k):
        J, tail, layer_advice = integrals[k - r]
        if tail > tail_bound:
            tail_bound, advice = tail, layer_advice
        vrpj = velocity_power_values(kit.fld, state_mix(kit.P, J), r)
        total += np.einsum("x,xu->u", rho * kit.m(r) / math.factorial(r), vrpj)
    if tail_bound > _TAIL_BOUND_MAX:
        raise LayerWindowError(
            f"layer-window tail bound {tail_bound:.3e} exceeds {_TAIL_BOUND_MAX:.1e}; {advice}")
    return total / kit.m_hat, float(tail_bound)
