import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fastswitch.field import (StateVelocity, UGrid, VelocityField, lagrange_weights, sup_norm,
                              u_derivative_values)
from fastswitch.model import SemiMarkovModel, SojournDistribution
from fastswitch.operators import TimeSeries, build_kit, state_mix, velocity_power_values
from fastswitch.pipeline import build_expansion
from fastswitch.regular import cumulative_simpson_weights
from fastswitch import pipeline, regular, singular
from fastswitch.config import load_config
from fastswitch.singular import (LayerSeries, LayerWindowError, TauGrid, default_tau_grid,
                                 fft_length, forcing_terms, history_convolution,
                                 kernel_node_weights, layer_time_integral, psi_k0,
                                 renewal_resolvent, solve_Wk, term_integral, term_profile)

from conftest import (GRID, PHI, integrated_survival, layer_values, make_mixed_model,
                      make_model_a, make_model_b, make_pm_field, negative_extension,
                      nu_coefficients, sojourn_density)

DETERMINISTIC = Path(__file__).resolve().parent.parent / "configs" / "deterministic.json"


def make_mixed_field() -> VelocityField:
    """Velocities for make_mixed_model on 65 points, one of them linear."""
    return VelocityField(UGrid(-6.0, 6.0, 65),
                         (StateVelocity("constant", value=1.0),
                          StateVelocity("constant", value=-1.0),
                          StateVelocity("linear", slope=-0.2, intercept=0.3)))


def profile_sum(kit, terms, tau):
    """Σ over (r, n, vector) terms of the τ-profile times the vector."""
    return sum(term_profile(kit.model.sojourns, r, n, tau)[:, :, None] * vec
               for r, n, vec in terms)


def psi_k_values(kit, k, tau):
    """ψ^k from the order-k forcing terms alone: with U_0 = φ constant in time
    and every higher order zero, the only nonzero terms are those of -ψ^k."""
    shape = (8, kit.model.n_states, kit.fld.grid.n_points)
    def steady(values):
        return TimeSeries(values, lambda n: np.zeros(shape))
    phi = steady(np.broadcast_to(PHI(kit.fld.grid.nodes), shape))
    terms = forcing_terms(kit, k, [phi] + [steady(np.zeros(shape))] * (k - 1))
    return -profile_sum(kit, terms, tau)


def reference_forcing_terms(kit, k, phi_values, U):
    """forcing_terms as two families: (r, 0, V^r P W_{k-r}(0)) for 1 <= r < k
    with W_j(0) read as -U_j(0), and (r, n, -V^r P U^(n)_{k-r-n}(0) / n!) for
    0 <= r < k, 1 <= n <= k - r; then -ψ^k's terms, with φ on the grid."""
    terms = []
    for r in range(k):
        if r > 0:
            terms.append((r, 0, -U[k - r].values[0]))
        terms += [(r, n, -U[k - r - n].derivative_values(n)[0] / math.factorial(n))
                  for n in range(1, k - r + 1)]
    terms = [(r, n, velocity_power_values(kit.fld, state_mix(kit.P, v), r))
             for r, n, v in terms]
    phi = np.broadcast_to(np.asarray(phi_values).reshape(1, -1),
                          (kit.model.n_states, phi_values.size))
    vk_phi = velocity_power_values(kit.fld, state_mix(kit.P, phi), k)
    return terms + [(k - n, n, vk_phi / math.factorial(n)) for n in range(1, k + 1)]


def reference_march(kit, grid_tau, g, W_k0):
    """The step-by-step implicit product-integration march of the renewal
    equation, node by node over the whole history."""
    tau = grid_tau.nodes
    w, a = kernel_node_weights(kit.model.sojourns, 0, tau)
    A_inv = np.linalg.inv(np.eye(kit.model.n_states) - w[:, 0, None] * kit.P)
    W = np.empty((len(tau),) + W_k0.shape)
    pw = np.empty_like(W)
    W[0] = W_k0
    pw[0] = state_mix(kit.P, W_k0)
    for i in range(1, len(tau)):
        rhs = -g[i] + np.einsum("xm,mxu->xu", w[:, i:0:-1], pw[:i]) - a[:, i, None] * pw[0]
        W[i] = A_inv @ rhs
        pw[i] = state_mix(kit.P, W[i])
    return W


def reference_psi_k0(kit, W_lower, k, grid_tau):
    """The [0, τ] part of ψ^k_0(τ) = Σ_{r=1..k-1} ∫_0^∞ s^r/r! F(ds) V^r P W_{k-r}(τ-s)
    as a forcing: the full-assembly history sum of each r less its left-cell
    term -a_r ⊗ V^r P W_{k-r}(0)."""
    tau = grid_tau.nodes
    n = kit.model.n_states
    out = np.zeros((len(tau), n, kit.fld.grid.n_points))
    for r in range(1, k):
        vrpw = velocity_power_values(kit.fld, state_mix(kit.P, layer_values(W_lower[k - r])), r)
        w, a = kernel_node_weights(kit.model.sojourns, r, tau)
        out += history_convolution(w.T[:, :, None] * np.eye(n), vrpw)
        out -= a.T[:, :, None] * vrpw[0]
    return out


def reference_march_forcing(kit, k, grid_tau, W_k0, terms, W_lower):
    """The march's full-width right side: every term's τ-profile times its
    vector summed into one (N, n_states, n_points) array with the history
    forcing, corrected in the left cell, and A W_k(0) at node 0."""
    tau = grid_tau.nodes
    pw0 = state_mix(kit.P, W_k0)
    f = profile_sum(kit, [(0, 0, pw0)] + terms, tau) + reference_psi_k0(kit, W_lower, k, grid_tau)
    w, a = kernel_node_weights(kit.model.sojourns, 0, tau)
    f -= a.T[:, :, None] * pw0
    f[0] = W_k0 - w[:, 0, None] * pw0
    return f


def reference_solve_Wk(kit, k, grid_tau, W_k0, terms, W_lower):
    """The layer from the full-width forcing, convolved with the march's
    resolvent."""
    f = reference_march_forcing(kit, k, grid_tau, W_k0, terms, W_lower)
    return history_convolution(march_resolvent(kit, grid_tau), f)


def reference_resolvent(P, w):
    """The march's resolvent by its recursion, node by node:
    R_0 = A⁻¹ and R_m = A⁻¹ Σ_{j=1..m} diag(w_j) P R_{m-j}, A = I - diag(w_0) P."""
    n, n_nodes = w.shape
    A_inv = np.linalg.inv(np.eye(n) - w[:, 0, None] * P)
    R = np.empty((n_nodes, n, n))
    R[0] = A_inv
    pr_sm = np.empty((n, n_nodes, n))  # state-major history of P R
    pr_sm[:, 0] = P @ A_inv
    rhs = np.empty((n, n))
    for m in range(1, n_nodes):
        for x in range(n):
            rhs[x] = w[x, m:0:-1] @ pr_sm[x, :m]
        R[m] = A_inv @ rhs
        pr_sm[:, m] = P @ R[m]
    return R


def random_layer(rng, grid, grid_tau, n_states, rank):
    """A factored layer: random τ-coefficients on a random orthonormal
    rank-`rank` u-basis."""
    basis = np.linalg.qr(rng.normal(size=(grid.n_points, rank)))[0].T
    coeffs = rng.normal(size=(grid_tau.n_tau + 1, n_states, rank))
    return LayerSeries(coeffs, basis)


def march_resolvent(kit, grid_tau):
    """The march's resolvent R, from the r = 0 node weights."""
    return renewal_resolvent(kit.P, kernel_node_weights(kit.model.sojourns, 0,
                                                        grid_tau.nodes)[0])


@pytest.fixture(scope="module")
def kit_a():
    return build_kit(make_model_a(), make_pm_field())


class TestPsiK:
    def test_exponential_integrated_survival(self, kit_a):
        # state 0 has rate 1: F̄^(1)(τ) = e^(-τ)/1
        tau = np.array([0.0, 0.5, 2.0])
        out = psi_k_values(kit_a, 1, tau)
        vphi = velocity_power_values(kit_a.fld, state_mix(kit_a.P, np.broadcast_to(
            PHI(GRID.nodes), (2, GRID.n_points))), 1)
        for i, t in enumerate(tau):
            assert_allclose(out[i, 0], math.exp(-t) * vphi[0], rtol=1e-12)
            assert_allclose(out[i, 1], math.exp(-2 * t) / 2.0 * vphi[1], rtol=1e-12)

    def test_decays_at_infinity(self, kit_a):
        out = psi_k_values(kit_a, 1, np.array([40.0]))
        assert np.abs(out).max() < 1e-15

    def test_uniform_compact_support(self):
        m = SemiMarkovModel(states=("u",), P=[[1.0]],
                            sojourns=(SojournDistribution("uniform", a=0.0, b=1.0),))
        fld = VelocityField(GRID, (StateVelocity("constant", value=1.0),))
        kit = build_kit(m, fld)
        out = psi_k_values(kit, 1, np.array([1.0, 1.5]))
        assert np.abs(out).max() == 0.0

    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_matches_integrated_survival(self, k):
        # exponential, erlang(2) and uniform(0.2, 1.2) laws, the last kinked
        kit = build_kit(make_mixed_model(), make_mixed_field())
        tau = default_tau_grid(kit, h_tau=0.01).nodes
        phi = np.broadcast_to(PHI(kit.fld.grid.nodes), (3, kit.fld.grid.n_points))
        vk_phi = velocity_power_values(kit.fld, state_mix(kit.P, phi), k)
        fbar_k = np.array([integrated_survival(d, k, tau) for d in kit.model.sojourns]).T
        expected = fbar_k[:, :, None] * vk_phi
        assert np.abs(psi_k_values(kit, k, tau) - expected).max() \
            <= 1e-14 * np.abs(expected).max()


class TestTermEvaluators:
    @pytest.mark.parametrize("r", range(4))
    @pytest.mark.parametrize("n", range(4))
    def test_integral_matches_simpson_of_profile(self, r, n):
        # the uniform law's kinks at 0.2 and 1.2 fall on even nodes, so every
        # Simpson panel sees a smooth profile
        laws = make_mixed_model().sojourns
        h = 0.005
        end = 1.5 * max(d.decay_point() for d in laws)
        n_tau = 2 * int(math.ceil(end / (2 * h)))
        tau = h * np.arange(n_tau + 1)
        numeric = cumulative_simpson_weights(n_tau, h) @ term_profile(laws, r, n, tau)
        assert_allclose(numeric, term_integral(laws, r, n), rtol=1e-8)


class TestNegativeExtension:
    def _U(self, kit, k):
        """k + 1 orders whose n-th time derivative at 0 is (vhat ∂_u)^n of a
        random state-dependent field, one per order."""
        rng = np.random.default_rng(k)
        U = []
        for _ in range(k + 1):
            vals = rng.normal(size=(1, 2, GRID.n_points))
            U.append(TimeSeries(vals, lambda n, v=vals: velocity_power_values(kit.vhat, v, n)))
        return U

    @staticmethod
    def _d0(U, j, n):
        return U[j].derivative_values(n)[0]

    def test_continuity_at_zero(self, expansion_a):
        """W_k(0) is -U_k(0), so the extension meets the layer bit for bit."""
        for k in (1, 2):
            out = negative_extension(expansion_a.U, k, [0.0])
            np.testing.assert_array_equal(out[0], -expansion_a.U[k].values[0])

    def test_k1_linear_form(self, kit_a):
        U = self._U(kit_a, 1)
        tau = np.array([-0.7])
        out = negative_extension(U, 1, tau)
        assert_allclose(out[0], -self._d0(U, 1, 0) - (-0.7) * self._d0(U, 0, 1), rtol=1e-13)

    def test_k2_taylor_factorials(self, kit_a):
        U = self._U(kit_a, 2)
        tau = np.array([-1.2])
        out = negative_extension(U, 2, tau)
        expected = -self._d0(U, 2, 0) - (-1.2) * self._d0(U, 1, 1) \
            - ((-1.2) ** 2 / 2.0) * self._d0(U, 0, 2)
        assert_allclose(out[0], expected, rtol=1e-12)


class TestKernelWeights:
    def test_total_mass(self):
        d = SojournDistribution("exponential", rate=2.0)
        nodes = 0.005 * np.arange(4001)
        w, a = kernel_node_weights((d,), 0, nodes)
        assert w.shape == a.shape == (1, nodes.size)
        # integral of 1 dF over [0, 20] = F(20) ~ 1
        assert abs(w.sum() - 1.0) < 1e-10
        assert a[0, -1] == 0.0

    def test_quadrature_accuracy_halving(self):
        d = SojournDistribution("erlang", rate=1.5, shape=2)
        gfun = lambda s: np.exp(-0.3 * s) * np.cos(s)
        results = []
        for h in (0.01, 0.005):
            nodes = h * np.arange(int(12.0 / h) + 1)
            w, a = kernel_node_weights((d,), 1, nodes)
            results.append(w[0] @ gfun(nodes))
        s = np.linspace(0, 12, 200001)
        ref = np.trapezoid(s * sojourn_density(d, s) * gfun(s), s)
        e1, e2 = abs(results[0] - ref), abs(results[1] - ref)
        assert e2 < e1 / 3.0  # second order
        assert e2 < 1e-6

    def test_uniform_cells_exact_mass(self):
        d = SojournDistribution("uniform", a=0.3, b=1.1)
        nodes = 0.005 * np.arange(401)
        w, a = kernel_node_weights((d,), 0, nodes)
        assert abs(w.sum() - 1.0) < 1e-12


    def test_rows_match_single_laws(self):
        laws = make_mixed_model().sojourns
        nodes = 0.01 * np.arange(801)
        w, a = kernel_node_weights(laws, 1, nodes)
        for x, d in enumerate(laws):
            w1, a1 = kernel_node_weights((d,), 1, nodes)
            assert np.array_equal(w[x], w1[0]) and np.array_equal(a[x], a1[0])


class TestHistoryConvolution:
    # 2 n_nodes - 1 = 65, 199 and 513 pad to 72, 200 and 540, well short of
    # the powers of two 128, 256 and 1024
    @pytest.mark.parametrize("n,n_nodes,n_points", [
        (1, 17, 65), (1, 24, 257), (3, 17, 257), (3, 24, 65),
        (2, 33, 40), (3, 100, 33), (1, 257, 65), (2, 64, 513)])
    def test_matches_causal_double_loop(self, n, n_nodes, n_points):
        rng = np.random.default_rng(n * 1000 + n_nodes + n_points)
        kernel = rng.normal(size=(n_nodes, n, n))
        values = rng.normal(size=(n_nodes, n, n_points))
        expected = np.zeros_like(values)
        for i in range(n_nodes):
            for m in range(i + 1):
                expected[i] += kernel[m] @ values[i - m]
        out = history_convolution(kernel, values)
        assert np.abs(out - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_fft_length_is_smallest_5_smooth(self):
        smooth = sorted({2**a * 3**b * 5**c for a in range(14) for b in range(9)
                         for c in range(6)})
        for n in range(1, 5000):
            length = fft_length(n)
            assert length == next(m for m in smooth if m >= n)
            assert length <= 1 << (n - 1).bit_length()
        assert fft_length(2 * 2635 - 1) == 5400


class TestRenewalResolvent:
    # N = 9 is the smallest window (8 panels); 9, 100 and 613 are not powers of two
    @pytest.mark.parametrize("laws,P,tau_max,n_nodes", [
        ((SojournDistribution("erlang", rate=2.0, shape=2),), [[1.0]], 2.0, 9),
        ((SojournDistribution("uniform", a=0.2, b=1.2),), [[1.0]], 3.0, 100),
        ((SojournDistribution("erlang", rate=1.0), SojournDistribution("uniform", a=0.0, b=1.0)),
         [[0.0, 1.0], [1.0, 0.0]], 4.0, 9),
        ((SojournDistribution("erlang", rate=1.5, shape=3),
          SojournDistribution("uniform", a=0.3, b=0.9)),
         [[0.2, 0.8], [0.6, 0.4]], 6.0, 613),
        ((SojournDistribution("erlang", rate=1.0), SojournDistribution("erlang", rate=2.0, shape=2),
          SojournDistribution("uniform", a=0.2, b=1.2)),
         [[0.0, 0.5, 0.5], [0.3, 0.0, 0.7], [0.6, 0.4, 0.0]], 5.0, 257)])
    def test_matches_recursion(self, laws, P, tau_max, n_nodes):
        P = np.array(P)
        w = kernel_node_weights(laws, 0, np.linspace(0.0, tau_max, n_nodes))[0]
        R = renewal_resolvent(P, w)
        expected = reference_resolvent(P, w)
        assert R.shape == (n_nodes, len(laws), len(laws))
        assert np.abs(R - expected).max() <= 1e-14 * np.abs(expected).max()

    @pytest.mark.parametrize("n_nodes", [2, 9, 16, 17, 613])
    def test_newton_doublings_are_history_convolutions(self, monkeypatch, n_nodes):
        """Each of the ceil(log2 N) doublings is two history_convolution calls."""
        original = singular.history_convolution
        calls = []

        def counted(kernel, values):
            calls.append(len(kernel))
            return original(kernel, values)
        monkeypatch.setattr(singular, "history_convolution", counted)
        laws = (SojournDistribution("erlang", rate=1.0),
                SojournDistribution("uniform", a=0.2, b=1.2))
        w = kernel_node_weights(laws, 0, np.linspace(0.0, 3.0, n_nodes))[0]
        renewal_resolvent(np.array([[0.0, 1.0], [1.0, 0.0]]), w)
        assert len(calls) == 2 * math.ceil(math.log2(n_nodes))


class TestPsiK0:
    def test_k1_is_empty(self, kit_a):
        grid_tau = TauGrid(2.0, 400)
        assert np.abs(reference_psi_k0(kit_a, [None], 1, grid_tau)).max() == 0.0
        coeffs, vectors = psi_k0(kit_a, [None], 1, grid_tau)
        assert coeffs.shape == (401, 2, 0) and vectors.shape == (2, 0, GRID.n_points)

    def test_k2_against_brute_force(self, expansion_a):
        """ψ^2_0 = Q^1 W_1: check the product-integration history part plus
        the closed-form tail terms (1, 0, V P W_1(0)) and (1, 1, -V P U_0'(0))
        against direct fine quadrature of the s-integral using the solved W_1."""
        res = expansion_a
        kit = res.kit
        grid_tau = res.tau_grid
        tau_idx = 400
        tau = grid_tau.nodes[tau_idx]
        W10 = layer_values(res.W[1])[0]
        vp = lambda v: velocity_power_values(kit.fld, state_mix(kit.P, v), 1)
        tail_terms = [(1, 0, vp(W10)), (1, 1, -vp(res.U[0].derivative_values(1)[0]))]
        out = reference_psi_k0(kit, res.W, 2, grid_tau)[tau_idx] \
            + profile_sum(kit, tail_terms, grid_tau.nodes[tau_idx:tau_idx + 1])[0]

        # brute force: int_0^inf s F(ds) V P W1(tau - s), fine trapezoid with
        # grid interpolation on [0, tau] and the polynomial extension beyond
        vpw = velocity_power_values(kit.fld, state_mix(kit.P, layer_values(res.W[1])), 1)
        s_fine = np.linspace(0.0, 30.0, 120001)
        expected = np.zeros((2, GRID.n_points))
        for xi, dist in enumerate(kit.model.sojourns):
            dens = sojourn_density(dist, s_fine)
            # values of V P W1 at tau - s: interpolate the series in tau
            pos = tau - s_fine
            inside = pos >= 0
            idx = np.clip((pos[inside] / grid_tau.h_tau), 0, len(grid_tau.nodes) - 1)
            lo = np.floor(idx).astype(int)
            hi = np.minimum(lo + 1, len(grid_tau.nodes) - 1)
            frac = (idx - lo)[:, None]
            vals = np.zeros((len(s_fine), GRID.n_points))
            vals[inside] = (1 - frac) * vpw[lo, xi] + frac * vpw[hi, xi]
            neg = ~inside
            W1_neg = negative_extension(res.U, 1, pos[neg])
            vals[neg] = velocity_power_values(
                kit.fld, state_mix(kit.P, W1_neg.reshape(-1, 2, GRID.n_points)
                                   ).reshape(-1, 2, GRID.n_points), 1)[:, xi]
            integrand = s_fine[:, None] * dens[:, None] * vals
            expected[xi] = np.trapezoid(integrand, s_fine, axis=0)
        assert np.abs(out - expected).max() < 5e-5

    @pytest.mark.parametrize("k", (2, 3))
    def test_factor_is_reference_history_forcing(self, k):
        """psi_k0's factor, contracted state by state, is Σ_r K_r ⋆ V^r P W_{k-r},
        left cells included: the reference forcing, which reads the factored
        lower layers' values."""
        kit = build_kit(make_mixed_model(), make_mixed_field())
        grid_tau = TauGrid(4.0, 200)
        rng = np.random.default_rng(k)
        W = [None] + [random_layer(rng, kit.fld.grid, grid_tau, 3, rank)
                      for rank in (5, 11)[:k - 1]]
        expected = reference_psi_k0(kit, W, k, grid_tau)
        coeffs, vectors = psi_k0(kit, W, k, grid_tau)
        assert coeffs.shape == (201, 3, (5, 16)[k - 2])
        assert vectors.shape == (3, (5, 16)[k - 2], kit.fld.grid.n_points)
        out = np.einsum("iyc,ycu->iyu", coeffs, vectors)
        assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_refinement_stability(self):
        """Halving h_tau changes the order-1 layer by little (grid oracle)."""
        results = []
        for h in (0.01, 0.005):
            res = build_expansion(make_model_a(), make_pm_field(), PHI, order=1,
                                  horizon=0.5, h_t=0.0025, h_tau=h, tau_max=20.0)
            results.append(res.W[1])
        coarse, fine = results
        diff = np.abs(layer_values(coarse) - layer_values(fine)[::2]).max()
        assert diff < 1e-5


class TestInitialCk0:
    def test_exponential_zero(self, expansion_a):
        assert np.abs(expansion_a.c[1].values[0, 0]).max() < 1e-10

    def test_collapse_zero(self, expansion_collapse):
        assert np.abs(expansion_collapse.c[1].values[0, 0]).max() < 1e-12
        assert np.abs(expansion_collapse.c[2].values[0, 0]).max() < 1e-12

    def test_model_b_analytic_value(self, expansion_b):
        # pi = (2/3, 1/3), nu_1 = (-1/2, -1/4), vhat = 1/3, v = (1, -1):
        # c_1(0) = [2/3*(-1/2)*(1/3-1) + 1/3*(-1/4)*(1/3+1)] phi' = phi'/9
        expected = u_derivative_values(PHI(GRID.nodes), GRID) / 9.0
        assert np.abs(expansion_b.c[1].values[0, 0] - expected).max() < 1e-12

    def test_nu_form_equivalence_k1(self, expansion_b):
        """Order 1 reduces to the ν-weighted average of L_1 U_0(0)."""
        res = expansion_b
        kit = res.kit
        phi = np.broadcast_to(PHI(GRID.nodes), (2, GRID.n_points))
        l1u0 = state_mix(kit.P, res.U[0].derivative_values(1)[0]) - \
            velocity_power_values(kit.fld, state_mix(kit.P, phi), 1)
        expected = np.einsum("x,x,xu->u", kit.pi, nu_coefficients(kit.model, 1), l1u0)
        assert np.abs(res.c[1].values[0, 0] - expected).max() < 1e-12


class TestForcingTerms:
    @pytest.mark.parametrize("make_model", (make_model_a, make_model_b))
    def test_one_taylor_family_matches_two(self, monkeypatch, make_model):
        """The W_j(0) terms are the n = 0 members of the U Taylor family and φ
        is U_0(0), bit for bit; the order-3 build lifts the tail bound as
        TestSolveWk.test_matches_full_width_assembly does."""
        monkeypatch.setattr(singular, "_TAIL_BOUND_MAX", math.inf)
        fld = make_pm_field(UGrid(-6.0, 6.0, 65))
        res = build_expansion(make_model(), fld, PHI, order=3, horizon=0.5, h_t=0.005,
                              h_tau=0.01)
        for k in (1, 2, 3):
            got = forcing_terms(res.kit, k, res.U)
            expected = reference_forcing_terms(res.kit, k, PHI(fld.grid.nodes), res.U)
            assert [(r, n) for r, n, _ in got] == [(r, n) for r, n, _ in expected]
            for (_, _, vec), (_, _, ref) in zip(got, expected):
                np.testing.assert_array_equal(vec, ref)


class TestSolveWk:
    def test_matches_step_by_step_march(self, monkeypatch):
        """Orders 1-3, so the K_2 history sum is checked too; the order-3
        build lifts the tail bound as test_matches_full_width_assembly does."""
        monkeypatch.setattr(singular, "_TAIL_BOUND_MAX", math.inf)
        res = build_expansion(make_mixed_model(), make_mixed_field(), PHI, order=3,
                              horizon=0.5, h_t=0.005, h_tau=0.01)
        kit, grid_tau, tau = res.kit, res.tau_grid, res.tau_grid.nodes
        resolvent = march_resolvent(kit, grid_tau)
        for k in (1, 2, 3):
            W_k0 = -res.U[k].values[0]
            terms = forcing_terms(kit, k, res.U)
            W = solve_Wk(kit, k, grid_tau, W_k0, terms, res.W, resolvent)[0]
            g = -profile_sum(kit, [(0, 0, state_mix(kit.P, W_k0))] + terms, tau) \
                - reference_psi_k0(kit, res.W, k, grid_tau)
            expected = reference_march(kit, grid_tau, g, W_k0)
            assert np.abs(layer_values(W) - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("make_model,field", [
        (make_model_a, None), (make_model_b, None), (make_mixed_model, make_mixed_field),
        (make_model_b, lambda: make_pm_field(UGrid(-6.0, 6.0, 65, boundary_mode="periodic")))])
    def test_matches_full_width_assembly(self, monkeypatch, make_model, field):
        """Orders 1-3 against the full-width forcing assembly.  The comparison
        needs the order-3 inputs, not their accuracy, so the layer-window tail
        bound that h_tau = 0.01 misses at order 3 is lifted for this build."""
        monkeypatch.setattr(singular, "_TAIL_BOUND_MAX", math.inf)
        fld = field() if field else make_pm_field(UGrid(-6.0, 6.0, 65))
        res = build_expansion(make_model(), fld, PHI, order=3, horizon=0.5, h_t=0.005,
                              h_tau=0.01)
        kit, grid_tau = res.kit, res.tau_grid
        resolvent = march_resolvent(kit, grid_tau)
        for k in (1, 2, 3):
            W_k0 = -res.U[k].values[0]
            terms = forcing_terms(kit, k, res.U)
            W = solve_Wk(kit, k, grid_tau, W_k0, terms, res.W, resolvent)[0]
            expected = reference_solve_Wk(kit, k, grid_tau, W_k0, terms, res.W)
            assert np.abs(layer_values(W) - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("make_model,field", [
        (make_model_a, None), (make_model_b, None), (make_mixed_model, make_mixed_field),
        (make_model_b, lambda: make_pm_field(UGrid(-6.0, 6.0, 65, boundary_mode="periodic")))])
    def test_factor_reproduces_layer(self, monkeypatch, make_model, field):
        """Each order's factor G_k B_k is its layer, node 0 included, on an
        orthonormal basis of layer_rank rows: the full-width assembly lies
        in the basis's span and matches the factor, so the rank cut drops
        nothing above rounding.  The order-3 build lifts the tail bound as
        test_matches_full_width_assembly does."""
        monkeypatch.setattr(singular, "_TAIL_BOUND_MAX", math.inf)
        fld = field() if field else make_pm_field(UGrid(-6.0, 6.0, 65))
        res = build_expansion(make_model(), fld, PHI, order=3, horizon=0.5, h_t=0.005,
                              h_tau=0.01)
        kit, grid_tau = res.kit, res.tau_grid
        for k in (1, 2, 3):
            W = res.W[k]
            rank = res.diagnostics["orders"][k]["layer_rank"]
            expected = reference_solve_Wk(kit, k, grid_tau, -res.U[k].values[0],
                                          forcing_terms(kit, k, res.U), res.W)
            assert W.coeffs.shape == expected.shape[:2] + (rank,)
            assert W.basis.shape == (rank, fld.grid.n_points)
            assert np.abs(W.basis @ W.basis.T - np.eye(rank)).max() <= 1e-13
            off_span = expected - expected @ W.basis.T @ W.basis
            assert np.abs(off_span).max() <= 1e-12 * np.abs(expected).max()
            assert np.abs(layer_values(W) - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_layer_is_its_factor(self):
        """A layer is held only as its factor, never at full width."""
        assert [f.name for f in dataclasses.fields(LayerSeries)] == ["coeffs", "basis"]

    def test_history_sums_run_at_basis_width(self, monkeypatch):
        """Each order's layer is one history_convolution with the march's
        resolvent, after one K_r sum per lower layer r (psi_k0), which
        convolves that layer's r_{k-r} coefficient columns; no sum is n_points
        wide.  The resolvent's forcing is the full-width march forcing
        projected on the layer's orthonormal basis, row 0 included, at the
        layer's rank, and no (state, column) series of it is all zeros:
        nothing is padded."""
        monkeypatch.setattr(singular, "_TAIL_BOUND_MAX", math.inf)
        fld = make_pm_field(UGrid(-6.0, 6.0, 65))
        calls, resolvents = [], []   # calls: history sums, each solve_Wk marked by k
        original_convolution = singular.history_convolution
        original_solve = pipeline.solve_Wk
        original_resolvent = pipeline.renewal_resolvent

        def counted(kernel, values):
            calls.append((kernel, values.copy()))
            return original_convolution(kernel, values)

        def marked(kit, k, *args):
            calls.append(k)
            return original_solve(kit, k, *args)

        def kept(*args):
            resolvents.append(original_resolvent(*args))
            return resolvents[-1]
        monkeypatch.setattr(singular, "history_convolution", counted)
        monkeypatch.setattr(pipeline, "solve_Wk", marked)
        monkeypatch.setattr(pipeline, "renewal_resolvent", kept)
        res = build_expansion(make_model_a(), fld, PHI, order=3, horizon=0.5, h_t=0.01,
                              h_tau=0.01)
        kit, grid_tau, tau = res.kit, res.tau_grid, res.tau_grid.nodes
        rank = [None] + [res.diagnostics["orders"][k]["layer_rank"] for k in (1, 2, 3)]
        n = kit.model.n_states
        [resolvent] = resolvents
        sums = [call for call in calls if not isinstance(call, int)]
        assert all(values.shape[2] != fld.grid.n_points for _, values in sums)
        marks = [calls.index(k) for k in (1, 2, 3)] + [len(calls)]
        for k in (1, 2, 3):
            q = res.W[k].basis.T
            order_calls = calls[marks[k - 1] + 1:marks[k]]
            assert len(order_calls) == k
            for r, (kernel, values) in enumerate(order_calls[:-1], start=1):
                w = kernel_node_weights(kit.model.sojourns, r, tau)[0]
                assert np.array_equal(kernel, w.T[:, :, None] * np.eye(n))
                assert values.shape[2] == rank[k - r]
            kernel, forcing = order_calls[-1]
            assert kernel is resolvent
            assert forcing.shape == (len(tau), n, rank[k])
            assert np.abs(q.T @ q - np.eye(rank[k])).max() <= 1e-13
            W_k0 = -res.U[k].values[0]
            f = reference_march_forcing(kit, k, grid_tau, W_k0, forcing_terms(kit, k, res.U),
                                        res.W)
            expected = f @ q
            assert np.abs(forcing - expected).max() <= 1e-12 * np.abs(expected).max()
            assert np.abs(forcing[0] - expected[0]).max() <= 1e-13 * np.abs(expected[0]).max()
            assert np.all(np.abs(forcing).max(axis=0) > 0.0)

    def test_vanishing_layer_has_no_worst_state(self):
        """configs/deterministic.json: every layer is rounding noise, whose
        argmax state would flip with the last bits of the inputs."""
        cfg = load_config(DETERMINISTIC)
        res = build_expansion(cfg.model, cfg.field, cfg.phi, order=2, horizon=0.5,
                              h_t=0.01, h_tau=0.01)
        for k in (1, 2):
            diag = res.diagnostics["orders"][k]
            assert diag["w_sup"] < 1e-13
            assert diag["w_decay_worst_state"] is None
            assert diag["w_decay_ratio"] == 0.0

    def test_single_state_constant_velocity_zero_layer(self):
        m = SemiMarkovModel(states=("s",), P=[[1.0]],
                            sojourns=(SojournDistribution("erlang", rate=2.0, shape=2),))
        fld = VelocityField(GRID, (StateVelocity("constant", value=0.5),))
        res = build_expansion(m, fld, PHI, order=2, horizon=0.5, h_t=0.0025,
                              h_tau=0.01)
        for k in (1, 2):
            assert sup_norm(layer_values(res.W[k])) < 1e-12

    def test_t0_reproduction_order1(self, expansion_a):
        assert expansion_a.diagnostics["orders"][1]["renewal_t0"] < 1e-10

    def test_t0_reproduction_order2(self, expansion_a):
        # order >= 2 inherits the transport-solve residual of c_1
        assert expansion_a.diagnostics["orders"][2]["renewal_t0"] < 1e-5

    def test_decay_both_models(self, expansion_a, expansion_b):
        for res in (expansion_a, expansion_b):
            for k in (1, 2):
                d = res.diagnostics["orders"][k]
                assert d["w_decay_ratio"] < 1e-3
                assert d["w_monotone_tail"]
                assert d["w_decay_worst_state"] in res.kit.model.states

    def test_renewal_limit_closes_loop(self, expansion_a):
        """W_1 settling to zero validates c_1(0) = -ΠW_1(0) end to end."""
        res = expansion_a
        W1 = layer_values(res.W[1])
        tail = np.abs(W1[-1]).max()
        pi_w0 = res.kit.project_values(W1[0])
        assert np.abs(res.c[1].values[0, 0] + pi_w0[0]).max() < 1e-4
        assert tail < 1e-4


class TestLayerRank:
    # (model, field, h_tau); the mixed model's velocities are linear in two states
    CASES = {
        "A": (make_model_a, make_pm_field, 0.0025),
        "B": (make_model_b, make_pm_field, 0.0025),
        "mixed": (make_mixed_model,
                  lambda: VelocityField(GRID, (StateVelocity("linear", slope=-0.1, intercept=1.0),
                                               StateVelocity("constant", value=-1.0),
                                               StateVelocity("linear", slope=0.05,
                                                             intercept=0.3))),
                  0.005)}

    @staticmethod
    def ranks(make_model, make_field, h_tau):
        res = build_expansion(make_model(), make_field(), PHI, order=3, horizon=0.25, h_t=0.002,
                              h_tau=h_tau)
        return [res.diagnostics["orders"][k]["layer_rank"] for k in (1, 2, 3)]

    def test_stable_under_rounding(self, monkeypatch):
        """layer_rank is a counter of the layer, not of the last bits of its
        inputs: relative noise of 1e-15 on every L_n series of the order-3
        right sides, three draws, moves no rank on 257 points.  The ranks
        need neither a long horizon nor the window's accuracy, so the builds
        stop at t = 0.25 and lift the tail bound as
        TestSolveWk.test_matches_full_width_assembly does."""
        monkeypatch.setattr(singular, "_TAIL_BOUND_MAX", math.inf)
        original = regular.L_series_values
        line = []
        for name, case in self.CASES.items():
            clean = self.ranks(*case)
            for seed in range(3):
                rng = np.random.default_rng(seed)

                def noisy(*args):
                    values = original(*args)
                    return values * (1.0 + 1e-15 * rng.standard_normal(values.shape))
                monkeypatch.setattr(regular, "L_series_values", noisy)
                assert self.ranks(*case) == clean, (name, seed)
            monkeypatch.setattr(regular, "L_series_values", original)
            line.append(f"{name} {'/'.join(map(str, clean))}")
        print("layer rank " + " ".join(line))


class TestLayerValue:
    @pytest.mark.parametrize("tau", [0.0, 0.0012, 0.31, 7.777, 19.9971])
    def test_cubic_interpolation_of_factor_rows(self, expansion_a, tau):
        """layer_value interpolates the factor's coefficient rows, then applies
        the basis: the same cubic as interpolating the layer's rows G B."""
        res = expansion_a
        grid_tau = res.tau_grid
        assert tau < grid_tau.tau_max
        p = tau / grid_tau.h_tau
        base = min(max(int(np.floor(p)) - 1, 0), grid_tau.n_tau - 3)
        rows = layer_values(res.W[1])[base:base + 4]
        expected = np.tensordot(lagrange_weights(p - base, 4), rows, axes=(0, 0))
        assert np.abs(res.layer_value(1, tau) - expected).max() <= 1e-15 * np.abs(rows).max()

    def test_zero_beyond_window(self, expansion_a):
        tau_max = expansion_a.tau_grid.tau_max
        for tau in (tau_max, 2.0 * tau_max):
            out = expansion_a.layer_value(2, tau)
            assert out.shape == (2, GRID.n_points) and not out.any()


class TestOrderThree:
    def test_collapse_exact_at_order_three(self):
        """The cancellation that kills every correction when the velocity is
        state-independent is algebraic, so it must survive at order 3 too
        (exercises the deeper recursion and the r=2 kernel tails)."""
        from conftest import make_collapse_field, make_collapse_model
        res = build_expansion(make_collapse_model(), make_collapse_field(), PHI,
                              order=3, horizon=0.5, h_t=0.0025, h_tau=0.02)
        for k in (1, 2, 3):
            d = res.diagnostics["orders"][k]
            assert d["u_sup"] < 1e-12
            assert d["w_sup"] < 1e-12
            assert np.abs(res.c[k].values[0, 0]).max() < 1e-12


class TestBoundaryRegularity:
    def test_model_a_residuals(self, expansion_a):
        for k in (1, 2):
            d = expansion_a.diagnostics["orders"][k]
            assert d["regularity_PI"] < 1e-6
            assert d["regularity_I_minus_Pi"] < 1e-8
        # first-order jump identity: (P - I) W_1(0) = m_1 [V P φ - P U_0'(0)]
        kit, n = expansion_a.kit, expansion_a.kit.model.n_states
        phi = expansion_a.U[0].values[0]
        rhs = kit.model.mean_sojourns()[:, None] * (
            velocity_power_values(kit.fld, state_mix(kit.P, phi), 1)
            - state_mix(kit.P, expansion_a.U[0].derivative_values(1)[0]))
        jump = state_mix(kit.P - np.eye(n), layer_values(expansion_a.W[1])[0])
        assert sup_norm(jump - rhs) < 1e-6

    def test_collapse_residuals(self, expansion_collapse):
        for k in (1, 2):
            d = expansion_collapse.diagnostics["orders"][k]
            assert d["regularity_PI"] < 1e-8
            assert d["regularity_I_minus_Pi"] < 1e-8

    @pytest.mark.parametrize("make_model,field", [
        (make_mixed_model, make_mixed_field),
        (make_model_b, lambda: make_pm_field(UGrid(-6.0, 6.0, 65, boundary_mode="periodic")))],
        ids=["mixed", "b-periodic"])
    def test_order_three_residuals(self, monkeypatch, make_model, field):
        """Three states with mixed laws and non-constant velocities, and a
        periodic u-axis: the solved layer's node 0 meets -U_k(0) to rounding
        at every order.  The order-3 build lifts the tail bound as
        TestSolveWk.test_matches_full_width_assembly does."""
        monkeypatch.setattr(singular, "_TAIL_BOUND_MAX", math.inf)
        res = build_expansion(make_model(), field(), PHI, order=3, horizon=0.5, h_t=0.005,
                              h_tau=0.01)
        for k in (1, 2, 3):
            d = res.diagnostics["orders"][k]
            for key in ("renewal_t0", "regularity_PI", "regularity_I_minus_Pi"):
                assert d[key] < 1e-12, (k, key)

    def test_residuals_read_the_solved_factor(self, monkeypatch):
        """The three residuals measure the factor the solve returns, not the
        W_k(0) it was given: a relative error of 1e-8 in its node-0
        coefficients shows in each of them."""
        def perturbed(coeffs, basis):
            coeffs[0] *= 1.0 + 1e-8
            return LayerSeries(coeffs, basis)
        monkeypatch.setattr(singular, "LayerSeries", perturbed)
        res = build_expansion(make_model_a(), make_pm_field(UGrid(-6.0, 6.0, 65)), PHI,
                              order=2, horizon=0.5, h_t=0.005, h_tau=0.01)
        for k in (1, 2):
            d = res.diagnostics["orders"][k]
            floor = 1e-9 * sup_norm(res.U[k].values[0])
            for key in ("renewal_t0", "regularity_PI", "regularity_I_minus_Pi"):
                assert d[key] >= floor, (k, key, d[key], floor)


class TestTauGrid:
    def test_default_covers_decay(self, kit_a):
        grid_tau = default_tau_grid(kit_a)
        m1_max = kit_a.model.mean_sojourns().max()
        assert grid_tau.tau_max >= 10 * m1_max
        surv = max(d.survival(grid_tau.tau_max) for d in kit_a.model.sojourns)
        assert surv < 1e-9

    def test_layer_integral_exact_for_cubics(self):
        # composite Simpson integrates cubics exactly on the even tau grid; the
        # layer is the cubic in both states on one unit u-vector of 5 points
        grid_tau = TauGrid(3.0, 60)
        tau = grid_tau.nodes
        coeffs = np.broadcast_to((tau**3 - 2.0 * tau)[:, None, None], (len(tau), 2, 1))
        basis = np.full((1, 5), 1.0 / math.sqrt(5.0))
        layer = LayerSeries(coeffs, basis)
        J, _, _ = layer_time_integral(layer, grid_tau, layer.sup_profile())
        assert_allclose(J, (3.0**4 / 4 - 3.0**2) / math.sqrt(5.0), rtol=1e-14)

    def test_layer_integral_tail_bound(self, expansion_a):
        layer = expansion_a.W[1]
        J, tail, _ = layer_time_integral(layer, expansion_a.tau_grid, layer.sup_profile())
        assert tail < 1e-6
        assert np.isfinite(J).all()

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_one_profile_per_layer(self, monkeypatch, order):
        """An order-k build forms each layer's sup-norm profile once: the
        decay checks and the time integral that c_k(0) reads share it."""
        calls = []
        original = LayerSeries.sup_profile

        def counted(self):
            calls.append(id(self))
            return original(self)
        monkeypatch.setattr(LayerSeries, "sup_profile", counted)
        monkeypatch.setattr(singular, "_TAIL_BOUND_MAX", math.inf)
        res = build_expansion(make_model_b(), make_pm_field(UGrid(-6.0, 6.0, 65)), PHI,
                              order=order, horizon=0.5, h_t=0.01, h_tau=0.01)
        assert sorted(calls) == sorted(id(layer) for layer in res.W[1:])

    def test_tail_on_quadrature_floor_names_h_tau(self):
        # the order-1 layer settles on a flat O(h_tau^2) floor long before the
        # window ends, so a longer window cannot lower the tail bound
        for tau_max in (None, 30.0):
            with pytest.raises(LayerWindowError, match="decrease layer.h_tau"):
                build_expansion(make_mixed_model(), make_mixed_field(), PHI, order=2,
                                horizon=0.5, h_t=0.005, h_tau=0.02, tau_max=tau_max)

    def test_tail_still_decaying_names_tau_max(self):
        with pytest.raises(LayerWindowError, match="increase layer.tau_max"):
            build_expansion(make_mixed_model(), make_mixed_field(), PHI, order=2,
                            horizon=0.5, h_t=0.005, h_tau=0.02, tau_max=4.0)
