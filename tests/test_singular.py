import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fastswitch.field import (StateVelocity, UGrid, VelocityField, sup_norm,
                              u_derivative_values)
from fastswitch.model import SemiMarkovModel, SojournDistribution
from fastswitch.operators import TimeSeries, build_kit, state_mix, velocity_power_values
from fastswitch.pipeline import build_expansion
from fastswitch.regular import cumulative_simpson_weights
from fastswitch import singular
from fastswitch.config import load_config
from fastswitch.singular import (LayerSeries, LayerWindowError, TauGrid, composite_kernels,
                                 default_tau_grid, fft_length, forcing_terms, history_convolution,
                                 kernel_node_weights, layer_time_integral,
                                 negative_extension, psi_k0, renewal_resolvent,
                                 solve_Wk, term_integral, term_profile)

from conftest import (GRID, PHI, integrated_survival, make_mixed_model, make_model_a,
                      make_model_b, make_pm_field, sojourn_density)

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
    phi = TimeSeries(np.broadcast_to(PHI(kit.fld.grid.nodes), shape), 0.1)
    phi.derivative_hook = lambda n: np.zeros(shape)
    terms = forcing_terms(kit, k, [phi] + [TimeSeries(np.zeros(shape), 0.1)] * (k - 1))
    return -profile_sum(kit, terms, tau)


def reference_forcing_terms(kit, k, phi_values, U, W):
    """forcing_terms as two families: (r, 0, V^r P W_{k-r}(0)) for 1 <= r < k
    read from the lower layers, and (r, n, -V^r P U^(n)_{k-r-n}(0) / n!) for
    0 <= r < k, 1 <= n <= k - r; then -ψ^k's terms, with φ on the grid."""
    terms = []
    for r in range(k):
        if r > 0:
            terms.append((r, 0, W[k - r].values[0]))
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
        vrpw = velocity_power_values(kit.fld, state_mix(kit.P, W_lower[k - r].values), r)
        w, a = kernel_node_weights(kit.model.sojourns, r, tau)
        out += history_convolution(w.T[:, :, None] * np.eye(n), vrpw)
        out -= a.T[:, :, None] * vrpw[0]
    return out


def reference_solve_Wk(kit, k, grid_tau, W_k0, terms, W_lower):
    """The layer from the full-width forcing: every term's τ-profile times its
    vector summed into one (N, n_states, n_points) right side, corrected at
    node 0 and in the left cell, then convolved with the march's resolvent."""
    tau = grid_tau.nodes
    pw0 = state_mix(kit.P, W_k0)
    f = profile_sum(kit, [(0, 0, pw0)] + terms, tau) + reference_psi_k0(kit, W_lower, k, grid_tau)
    w, a = kernel_node_weights(kit.model.sojourns, 0, tau)
    f -= a.T[:, :, None] * pw0
    f[0] = W_k0 - w[:, 0, None] * pw0
    W = history_convolution(renewal_resolvent(kit.P, w), f)
    W[0] = W_k0
    return W


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
    return LayerSeries(coeffs @ basis, coeffs, basis)


def layer_kernels(kit, grid_tau, r_max):
    """The march's resolvent R and its composites R ⋆ K_r, r = 1..r_max."""
    resolvent = renewal_resolvent(kit.P, kernel_node_weights(kit.model.sojourns, 0,
                                                             grid_tau.nodes)[0])
    return resolvent, composite_kernels(kit.model.sojourns, grid_tau.nodes, resolvent, r_max)


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
            series = TimeSeries(vals, 1.0)
            series.derivative_hook = lambda n, v=vals: velocity_power_values(kit.vhat, v, n)
            U.append(series)
        return U

    @staticmethod
    def _d0(U, j, n):
        return U[j].derivative_values(n)[0]

    def test_continuity_at_zero(self, expansion_a):
        """W_k(0) is -U_k(0), so the extension meets the layer bit for bit."""
        for k in (1, 2):
            out = negative_extension(expansion_a.U, k, [0.0])
            np.testing.assert_array_equal(out[0], expansion_a.W[k].values[0])

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
        coeffs, vectors = psi_k0(kit_a, [None], 1, grid_tau, [])
        assert coeffs.shape == (401, 2, 0) and vectors.shape == (0, GRID.n_points)

    def test_k2_against_brute_force(self, expansion_a):
        """ψ^2_0 = Q^1 W_1: check the product-integration history part plus
        the closed-form tail terms (1, 0, V P W_1(0)) and (1, 1, -V P U_0'(0))
        against direct fine quadrature of the s-integral using the solved W_1."""
        res = expansion_a
        kit = res.kit
        grid_tau = res.tau_grid
        tau_idx = 400
        tau = grid_tau.nodes[tau_idx]
        W10 = res.W[1].values[0]
        vp = lambda v: velocity_power_values(kit.fld, state_mix(kit.P, v), 1)
        tail_terms = [(1, 0, vp(W10)), (1, 1, -vp(res.U[0].derivative_values(1)[0]))]
        out = reference_psi_k0(kit, res.W, 2, grid_tau)[tau_idx] \
            + profile_sum(kit, tail_terms, grid_tau.nodes[tau_idx:tau_idx + 1])[0]

        # brute force: int_0^inf s F(ds) V P W1(tau - s), fine trapezoid with
        # grid interpolation on [0, tau] and the polynomial extension beyond
        vpw = velocity_power_values(kit.fld, state_mix(kit.P, res.W[1].values), 1)
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
    def test_composite_kernel_is_resolvent_of_history_sums(self, k):
        """psi_k0 is R ⋆ Σ_r K_r ⋆ V^r P W_{k-r}: the reference forcing with its
        left-cell terms added back, convolved with the march's resolvent.  The
        lower layers are factored, and the reference reads their values."""
        kit = build_kit(make_mixed_model(), make_mixed_field())
        grid_tau = TauGrid(4.0, 200)
        rng = np.random.default_rng(k)
        W = [None] + [random_layer(rng, kit.fld.grid, grid_tau, 3, rank)
                      for rank in (5, 11)[:k - 1]]
        resolvent, composites = layer_kernels(kit, grid_tau, k - 1)
        history = reference_psi_k0(kit, W, k, grid_tau)
        for r in range(1, k):
            a = kernel_node_weights(kit.model.sojourns, r, grid_tau.nodes)[1]
            history += a.T[:, :, None] * velocity_power_values(
                kit.fld, state_mix(kit.P, W[k - r].values[0]), r)
        expected = history_convolution(resolvent, history)
        coeffs, vectors = psi_k0(kit, W, k, grid_tau, composites)
        out = coeffs @ vectors
        assert np.abs(out - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_refinement_stability(self):
        """Halving h_tau changes the order-1 layer by little (grid oracle)."""
        results = []
        for h in (0.01, 0.005):
            res = build_expansion(make_model_a(), make_pm_field(), PHI, order=1,
                                  horizon=0.5, h_t=0.0025, h_tau=h, tau_max=20.0)
            results.append(res.W[1])
        coarse, fine = results
        diff = np.abs(coarse.values[::1] - fine.values[::2]).max()
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
        expected = np.einsum("x,x,xu->u", kit.pi, kit.nu(1), l1u0)
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
            expected = reference_forcing_terms(res.kit, k, PHI(fld.grid.nodes), res.U, res.W)
            assert [(r, n) for r, n, _ in got] == [(r, n) for r, n, _ in expected]
            for (_, _, vec), (_, _, ref) in zip(got, expected):
                np.testing.assert_array_equal(vec, ref)


class TestSolveWk:
    def test_matches_step_by_step_march(self):
        res = build_expansion(make_mixed_model(), make_mixed_field(), PHI, order=2, horizon=0.5, h_t=0.005, h_tau=0.01)
        kit, grid_tau, tau = res.kit, res.tau_grid, res.tau_grid.nodes
        for k in (1, 2):
            W_k0 = res.W[k].values[0]
            terms = forcing_terms(kit, k, res.U)
            W, _ = solve_Wk(kit, k, grid_tau, W_k0, terms, res.W,
                            *layer_kernels(kit, grid_tau, 1))
            g = -profile_sum(kit, [(0, 0, state_mix(kit.P, W_k0))] + terms, tau) \
                - reference_psi_k0(kit, res.W, k, grid_tau)
            expected = reference_march(kit, grid_tau, g, W_k0)
            assert np.abs(W.values - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("make_model,field", [
        (make_model_a, None), (make_model_b, None), (make_mixed_model, make_mixed_field)])
    def test_matches_full_width_assembly(self, monkeypatch, make_model, field):
        """Orders 1-3 against the full-width forcing assembly.  The comparison
        needs the order-3 inputs, not their accuracy, so the layer-window tail
        bound that h_tau = 0.01 misses at order 3 is lifted for this build."""
        monkeypatch.setattr(singular, "_TAIL_BOUND_MAX", math.inf)
        fld = field() if field else make_pm_field(UGrid(-6.0, 6.0, 65))
        res = build_expansion(make_model(), fld, PHI, order=3, horizon=0.5, h_t=0.005,
                              h_tau=0.01)
        kit, grid_tau = res.kit, res.tau_grid
        kernels = layer_kernels(kit, grid_tau, 2)
        for k in (1, 2, 3):
            W_k0 = res.W[k].values[0]
            terms = forcing_terms(kit, k, res.U)
            W, _ = solve_Wk(kit, k, grid_tau, W_k0, terms, res.W, *kernels)
            expected = reference_solve_Wk(kit, k, grid_tau, W_k0, terms, res.W)
            assert np.abs(W.values - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("make_model,field", [
        (make_model_a, None), (make_model_b, None), (make_mixed_model, make_mixed_field)])
    def test_factor_reproduces_layer(self, monkeypatch, make_model, field):
        """Each order's factor G_k B_k is its layer, node 0 included, on an
        orthonormal basis; the order-3 build lifts the tail bound as
        test_matches_full_width_assembly does."""
        monkeypatch.setattr(singular, "_TAIL_BOUND_MAX", math.inf)
        fld = field() if field else make_pm_field(UGrid(-6.0, 6.0, 65))
        res = build_expansion(make_model(), fld, PHI, order=3, horizon=0.5, h_t=0.005,
                              h_tau=0.01)
        for k in (1, 2, 3):
            W = res.W[k]
            rank = res.diagnostics["orders"][k]["layer_rank"]
            assert W.coeffs.shape == W.values.shape[:2] + (rank,)
            assert W.basis.shape == (rank, fld.grid.n_points)
            assert np.abs(W.coeffs @ W.basis - W.values).max() <= 1e-13 * np.abs(W.values).max()
            assert np.abs(W.basis @ W.basis.T - np.eye(rank)).max() <= 1e-13

    def test_history_sums_run_at_basis_width(self, monkeypatch):
        """No layer sum convolves n_points columns: ψ^k_0 convolves, per lower
        layer r and per source state, the r_{k-r} coefficient columns of
        that layer's factor, so each ψ sum is n_states × r_{k-r} wide.  The
        composite kernels R ⋆ K_r depend on r alone, so an order-3 build
        convolves R with K_1 and with K_2 once each."""
        monkeypatch.setattr(singular, "_TAIL_BOUND_MAX", math.inf)
        fld = make_pm_field(UGrid(-6.0, 6.0, 65))
        original = singular.history_convolution
        calls = []

        def counted(kernel, values):
            calls.append((kernel.shape[2], values.shape[2], values.copy()))
            return original(kernel, values)
        monkeypatch.setattr(singular, "history_convolution", counted)
        res = build_expansion(make_model_a(), fld, PHI, order=3, horizon=0.5, h_t=0.01,
                              h_tau=0.01)
        rank = [None] + [res.diagnostics["orders"][k]["layer_rank"] for k in (1, 2, 3)]
        n = res.kit.model.n_states
        assert all(width != fld.grid.n_points for _, width, _ in calls)
        # the ψ sums are the ones with one source state per kernel
        psi_widths = [width for n_in, width, _ in calls if n_in == 1]
        assert psi_widths == [rank[1]] * n + [rank[2]] * n + [rank[1]] * n
        for r in (1, 2):
            w = kernel_node_weights(res.kit.model.sojourns, r, res.tau_grid.nodes)[0]
            diag_r = w.T[:, :, None] * np.eye(n)
            assert sum(np.array_equal(values, diag_r) for _, _, values in calls) == 1

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
            assert sup_norm(res.W[k].values) < 1e-12

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
        tail = np.abs(res.W[1].values[-1]).max()
        pi_w0 = res.kit.project_values(res.W[1].values[0])
        assert np.abs(res.c[1].values[0, 0] + pi_w0[0]).max() < 1e-4
        assert tail < 1e-4


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
        jump = state_mix(kit.P - np.eye(n), expansion_a.W[1].values[0])
        assert sup_norm(jump - rhs) < 1e-6

    def test_collapse_residuals(self, expansion_collapse):
        for k in (1, 2):
            d = expansion_collapse.diagnostics["orders"][k]
            assert d["regularity_PI"] < 1e-8
            assert d["regularity_I_minus_Pi"] < 1e-8


class TestTauGrid:
    def test_default_covers_decay(self, kit_a):
        grid_tau = default_tau_grid(kit_a)
        m1_max = kit_a.model.mean_sojourns().max()
        assert grid_tau.tau_max >= 10 * m1_max
        surv = max(d.survival(grid_tau.tau_max) for d in kit_a.model.sojourns)
        assert surv < 1e-9

    def test_layer_integral_exact_for_cubics(self):
        # composite Simpson integrates cubics exactly on the even tau grid
        grid_tau = TauGrid(3.0, 60)
        tau = grid_tau.nodes
        vals = np.broadcast_to((tau**3 - 2.0 * tau)[:, None, None], (len(tau), 2, 5))
        J, _, _ = layer_time_integral(TimeSeries(vals, grid_tau.h_tau), grid_tau)
        assert_allclose(J, 3.0**4 / 4 - 3.0**2, rtol=1e-14)

    def test_layer_integral_tail_bound(self, expansion_a):
        J, tail, _ = layer_time_integral(expansion_a.W[1], expansion_a.tau_grid)
        assert tail < 1e-6
        assert np.isfinite(J).all()

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
