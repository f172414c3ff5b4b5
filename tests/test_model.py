import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from fastswitch.model import (ModelError, SemiMarkovModel, SojournDistribution,
                              embedded_stationary, generator,
                              semi_markov_stationary, validate_model)

from conftest import (integrated_survival, make_model_a, nu_coefficient, random_model,
                      sample_sojourns, sojourn_density)


def quadrature_moment(dist: SojournDistribution, k: int) -> float:
    """Independent oracle: fine composite Simpson of s^k against the density,
    over the support (the uniform density jumps at its endpoints)."""
    lo = dist.a if dist.family == "uniform" else 0.0
    top = dist.b if dist.family == "uniform" else dist.decay_point(1e-15)
    s = np.linspace(lo, top, 20001)
    w = np.ones_like(s)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (s[1] - s[0]) / 3.0
    return float(w @ (s**k * sojourn_density(dist, s)))


# -- references for the special cases the general paths now cover ------------------


def reference_structure(P: np.ndarray) -> tuple:
    """(irreducible, aperiodic) by graph search: reachability from state 0
    forward and backward, then the period as the gcd of BFS level
    differences over all edges."""
    adj = P > 1e-15
    n = adj.shape[0]

    def reachable(a):
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        stack = [0]
        while stack:
            i = stack.pop()
            for j in np.nonzero(a[i])[0]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(j)
        return seen

    if not (reachable(adj).all() and reachable(adj.T).all()):
        return False, False
    dist = np.full(n, -1)
    dist[0] = 0
    queue = [0]
    while queue:
        i = queue.pop(0)
        for j in np.nonzero(adj[i])[0]:
            if dist[j] < 0:
                dist[j] = dist[i] + 1
                queue.append(j)
    g = 0
    for i in range(n):
        for j in np.nonzero(adj[i])[0]:
            g = math.gcd(g, int(dist[i] + 1 - dist[j]))
    return True, max(g, 1) == 1


def reference_exponential_partial_moment(lam: float, n: int, tau) -> np.ndarray:
    """M_n(τ) of an exponential(λ) law by the recursion
    M_j = τ^j e^(-λτ) + (j/λ) M_(j-1), M_0 = e^(-λτ)."""
    tau = np.maximum(np.asarray(tau, dtype=float), 0.0)
    out = np.exp(-lam * tau)
    for j in range(1, n + 1):
        out = tau**j * np.exp(-lam * tau) + (j / lam) * out
    return out


DISTS = [
    SojournDistribution("exponential", rate=2.0),
    SojournDistribution("exponential", rate=0.7),
    SojournDistribution("erlang", rate=1.0, shape=2),
    SojournDistribution("erlang", rate=2.5, shape=3),
    SojournDistribution("uniform", a=0.0, b=1.0),
    SojournDistribution("uniform", a=0.5, b=2.0),
]


class TestMoments:
    def test_exponential_mean(self):
        assert SojournDistribution("exponential", rate=2.0).moment(1) == 0.5

    def test_erlang_second_moment(self):
        assert SojournDistribution("erlang", rate=1.0, shape=2).moment(2) == 6.0

    def test_uniform_third_moment(self):
        assert_allclose(SojournDistribution("uniform", a=0.0, b=1.0).moment(3), 0.25)

    @pytest.mark.parametrize("dist", DISTS)
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_moment_matches_quadrature(self, dist, k):
        assert_allclose(dist.moment(k), quadrature_moment(dist, k), rtol=1e-8)

    @pytest.mark.parametrize("dist", DISTS)
    def test_reduced_moment_first_is_one(self, dist):
        assert dist.reduced_moment(1) == 1.0

    def test_reduced_moment_exponential(self):
        lam = 2.0
        assert_allclose(SojournDistribution("exponential", rate=lam).reduced_moment(2), 1 / lam)

    def test_reduced_moment_erlang(self):
        assert_allclose(SojournDistribution("erlang", rate=1.0, shape=2).reduced_moment(2), 1.5)

    def test_nu_exponential_vanishes(self):
        for lam in (0.3, 1.0, 4.2):
            assert nu_coefficient(SojournDistribution("exponential", rate=lam), 1) == 0.0

    def test_nu_erlang(self):
        # mu_2 - m_1 = 1.5 - 2, cross-checked by the quadrature oracle
        dist = SojournDistribution("erlang", rate=1.0, shape=2)
        m1 = quadrature_moment(dist, 1)
        m2 = quadrature_moment(dist, 2)
        assert_allclose(nu_coefficient(dist, 1), m2 / (2 * m1) - m1, rtol=1e-8)
        assert_allclose(nu_coefficient(dist, 1), -0.5, rtol=1e-12)

    def test_nu_uniform(self):
        dist = SojournDistribution("uniform", a=0.0, b=1.0)
        m1 = quadrature_moment(dist, 1)
        m2 = quadrature_moment(dist, 2)
        assert_allclose(nu_coefficient(dist, 1), m2 / (2 * m1) - m1, rtol=1e-8)
        assert_allclose(nu_coefficient(dist, 1), -1.0 / 6.0, rtol=1e-12)


class TestPartialMoments:
    @pytest.mark.parametrize("dist", DISTS)
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_partial_moment_quadrature(self, dist, n):
        tau = 0.8
        top = dist.b if dist.family == "uniform" else dist.decay_point(1e-15)
        if top <= tau:
            assert dist.partial_moment(n, tau) == 0.0
            return
        s = np.linspace(tau, top, 20001)
        w = np.ones_like(s)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= (s[1] - s[0]) / 3.0
        ref = float(w @ (s**n * sojourn_density(dist, s)))
        assert_allclose(dist.partial_moment(n, tau), ref, rtol=1e-7, atol=1e-12)

    def test_partial_moment_at_zero_is_moment(self):
        for dist in DISTS:
            for n in (1, 2, 3):
                assert_allclose(dist.partial_moment(n, 0.0), dist.moment(n), rtol=1e-12)

    def test_integrated_survival_exponential(self):
        lam = 2.0
        dist = SojournDistribution("exponential", rate=lam)
        tau = np.array([0.0, 0.5, 2.0])
        assert_allclose(integrated_survival(dist, 1, tau), np.exp(-lam * tau) / lam, rtol=1e-12)

    def test_integrated_survival_uniform_support(self):
        dist = SojournDistribution("uniform", a=0.0, b=1.0)
        assert integrated_survival(dist, 1, 1.0) == 0.0
        assert integrated_survival(dist, 1, 2.5) == 0.0


class TestExponentialIsErlangOne:
    """Exponential laws run through the erlang formulas with shape 1; the
    closed forms of the exponential family are the reference."""

    @pytest.mark.parametrize("lam", [0.3, 1.0, 1.5, 2.0, 20.0])
    def test_partial_moments_match_recursion(self, lam):
        dist = SojournDistribution("exponential", rate=lam)
        tau = np.linspace(0.0, dist.decay_point(1e-15), 2001)
        for n in range(7):
            assert_allclose(dist.partial_moment(n, tau),
                            reference_exponential_partial_moment(lam, n, tau),
                            rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("lam", [0.3, 1.0, 2.0, 20.0])
    def test_closed_forms_bit_identical(self, lam):
        dist = SojournDistribution("exponential", rate=lam)
        t = np.linspace(-1.0, 40.0 / lam, 501)
        tp = np.maximum(t, 0.0)
        u = np.random.default_rng(3).random((1000, 4))
        np.testing.assert_array_equal(dist.from_uniforms(u), -np.log1p(-u[:, 0]) / lam)
        np.testing.assert_array_equal(dist.survival(t), np.where(t < 0, 1.0, np.exp(-lam * tp)))
        np.testing.assert_array_equal(sojourn_density(dist, t),
                                      np.where(t < 0, 0.0, lam * np.exp(-lam * tp)))
        for k in range(8):
            assert dist.moment(k) == math.factorial(k) / lam**k
        assert nu_coefficient(dist, 1) == 0.0
        assert dist.n_uniforms == 1
        assert dist.cramer_margin() == (1.0 - 1e-6) * lam
        assert dist.decay_point(1e-10) == -math.log(1e-10) / lam

    def test_exponential_shape_other_than_one_rejected(self):
        with pytest.raises(ModelError, match="exponential shape"):
            SojournDistribution("exponential", rate=1.0, shape=2)

    def test_integral_float_shape_is_the_integer_law(self):
        """shape 2.0 passes validation and then computes as shape 2: its
        moments, partial moments and samples were a TypeError before."""
        law = SojournDistribution("erlang", rate=1.0, shape=2.0)
        ref = SojournDistribution("erlang", rate=1.0, shape=2)
        assert law == ref and type(law.shape) is int
        assert [law.moment(k) for k in range(5)] == [ref.moment(k) for k in range(5)]
        tau = np.linspace(0.0, 5.0, 11)
        for k in range(3):
            np.testing.assert_array_equal(law.partial_moment(k, tau), ref.partial_moment(k, tau))
        u = np.random.default_rng(0).random((50, law.n_uniforms))
        np.testing.assert_array_equal(law.from_uniforms(u), ref.from_uniforms(u))
        with pytest.raises(ModelError, match="positive integer"):
            SojournDistribution("erlang", rate=1.0, shape=2.5)


class TestStationary:
    def test_antidiagonal_rho(self):
        rho = embedded_stationary(make_model_a())
        assert_allclose(rho, [0.5, 0.5], atol=1e-13)

    def test_symmetric_rho(self):
        m = SemiMarkovModel(states=("a", "b"), P=[[0.9, 0.1], [0.1, 0.9]],
                            sojourns=(SojournDistribution("exponential", rate=1.0),) * 2)
        assert_allclose(embedded_stationary(m), [0.5, 0.5], atol=1e-13)

    def test_rho_elimination_oracle(self):
        # by hand: rho0 = 0.5 rho0 + rho1, rho0 + rho1 = 1  ->  (2/3, 1/3)
        m = SemiMarkovModel(states=("a", "b"), P=[[0.5, 0.5], [1.0, 0.0]],
                            sojourns=(SojournDistribution("exponential", rate=1.0),) * 2)
        assert_allclose(embedded_stationary(m), [2.0 / 3.0, 1.0 / 3.0], atol=1e-13)

    def test_pi_model_a(self):
        m = make_model_a()
        pi, m_hat = semi_markov_stationary(m)
        assert_allclose(m_hat, 0.75)
        assert_allclose(pi, [2.0 / 3.0, 1.0 / 3.0], atol=1e-13)

    def test_pi_equals_rho_for_identical_sojourns(self):
        m = SemiMarkovModel(states=("a", "b", "c"),
                            P=[[0.0, 0.6, 0.4], [0.3, 0.0, 0.7], [0.5, 0.5, 0.0]],
                            sojourns=(SojournDistribution("erlang", rate=2.0, shape=2),) * 3)
        rho = embedded_stationary(m)
        pi, _ = semi_markov_stationary(m)
        assert_allclose(pi, rho, atol=1e-13)

    def test_single_state(self):
        m = SemiMarkovModel(states=("only",), P=[[1.0]],
                            sojourns=(SojournDistribution("uniform", a=0.0, b=1.0),))
        pi, m_hat = semi_markov_stationary(m)
        assert_allclose(pi, [1.0])
        assert_allclose(m_hat, 0.5)

    def test_reducible_raises(self):
        m = SemiMarkovModel(states=("a", "b"), P=[[1.0, 0.0], [0.0, 1.0]],
                            sojourns=(SojournDistribution("exponential", rate=1.0),) * 2)
        with pytest.raises(ModelError):
            embedded_stationary(m)


class TestGenerator:
    def test_model_a_matrix(self):
        m = SemiMarkovModel(states=("a", "b"), P=[[0.0, 1.0], [1.0, 0.0]],
                            sojourns=(SojournDistribution("exponential", rate=1.0),
                                      SojournDistribution("uniform", a=0.0, b=1.0)))
        # means 1 and 0.5
        assert_allclose(generator(m), [[-1.0, 1.0], [2.0, -2.0]], atol=1e-13)

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            m = random_model(rng)
            assert_allclose(generator(m).sum(axis=1), 0.0, atol=1e-12)

    def test_pi_is_left_null_vector(self):
        m = make_model_a()
        pi, _ = semi_markov_stationary(m)
        assert_allclose(pi @ generator(m), [0.0, 0.0], atol=1e-13)


class TestValidate:
    def test_two_cycle_flags(self):
        diag = validate_model(make_model_a())
        assert diag.irreducible
        assert not diag.aperiodic
        assert diag.usable

    def test_disconnected(self):
        m = SemiMarkovModel(states=("a", "b"), P=[[1.0, 0.0], [0.0, 1.0]],
                            sojourns=(SojournDistribution("exponential", rate=1.0),) * 2)
        diag = validate_model(m)
        assert not diag.irreducible
        assert not diag.usable

    def test_symmetric_all_good(self):
        m = SemiMarkovModel(states=("a", "b"), P=[[0.5, 0.5], [0.5, 0.5]],
                            sojourns=(SojournDistribution("exponential", rate=1.0),) * 2)
        diag = validate_model(m)
        assert diag.irreducible and diag.aperiodic and diag.usable
        assert np.all(diag.cramer_margin < 1.0)

    def test_bad_row_sum_reported(self):
        m = SemiMarkovModel(states=("a", "b"), P=[[0.5, 0.4], [0.5, 0.5]],
                            sojourns=(SojournDistribution("exponential", rate=1.0),) * 2)
        diag = validate_model(m)
        assert not diag.usable
        assert any("row" in msg for msg in diag.messages)

    def test_structure_matches_graph_search(self):
        # random patterns with an edge in every row, from single-edge rows
        # (permutation-like, often periodic or reducible) to dense ones
        rng = np.random.default_rng(11)
        seen = set()
        for _ in range(1500):
            n = int(rng.integers(1, 9))
            adj = rng.random((n, n)) < rng.uniform(0.05, 0.7)
            adj[np.arange(n), rng.integers(0, n, n)] = True
            P = adj / adj.sum(axis=1, keepdims=True)
            m = SemiMarkovModel(states=tuple(range(n)), P=P,
                                sojourns=(SojournDistribution("exponential", rate=1.0),) * n)
            diag = validate_model(m)
            got = (diag.irreducible, diag.aperiodic)
            assert got == reference_structure(P), P
            seen.add(got)
        assert seen == {(False, False), (True, False), (True, True)}

    def test_cramer_margin_uniform_unbounded(self):
        m = SemiMarkovModel(states=("a",), P=[[1.0]],
                            sojourns=(SojournDistribution("uniform", a=0.0, b=1.0),))
        diag = validate_model(m)
        assert diag.cramer_margin[0] > 1e5


class TestSampling:
    def test_exponential_mean(self):
        rng = np.random.default_rng(42)
        dist = SojournDistribution("exponential", rate=2.0)
        x = sample_sojourns(dist, rng, 10**6)
        se = x.std() / math.sqrt(len(x))
        assert abs(x.mean() - 0.5) < 3 * se

    def test_uniform_support(self):
        rng = np.random.default_rng(1)
        dist = SojournDistribution("uniform", a=0.25, b=1.5)
        x = sample_sojourns(dist, rng, 10**5)
        assert x.min() >= 0.25 and x.max() <= 1.5

    def test_erlang_variance(self):
        rng = np.random.default_rng(7)
        lam = 1.5
        dist = SojournDistribution("erlang", rate=lam, shape=2)
        x = sample_sojourns(dist, rng, 10**6)
        # var = 2 / lam^2; the sampling error of the variance is ~ var * sqrt(2/n)-ish
        target = 2.0 / lam**2
        se = np.var((x - x.mean())**2, ddof=1)**0.5 / math.sqrt(len(x))
        assert abs(x.var(ddof=1) - target) < 3 * se


@given(st.integers(min_value=0, max_value=10_000))
def test_stationary_properties_random_models(seed):
    rng = np.random.default_rng(seed)
    m = random_model(rng, n_max=20)
    rho = embedded_stationary(m)
    pi, m_hat = semi_markov_stationary(m, rho)
    Q = generator(m)
    assert np.abs(rho @ m.P - rho).max() < 1e-12
    assert abs(rho.sum() - 1.0) < 1e-12
    assert abs(pi.sum() - 1.0) < 1e-12
    assert np.abs(Q.sum(axis=1)).max() < 1e-12
    assert np.abs(pi @ Q).max() < 1e-12
    assert m_hat > 0


@given(st.integers(min_value=0, max_value=10_000))
def test_pi_permutation_equivariance(seed):
    rng = np.random.default_rng(seed)
    m = random_model(rng, n_max=8)
    n = m.n_states
    perm = rng.permutation(n)
    m2 = SemiMarkovModel(states=tuple(m.states[i] for i in perm),
                         P=m.P[np.ix_(perm, perm)],
                         sojourns=tuple(m.sojourns[i] for i in perm))
    pi1, mh1 = semi_markov_stationary(m)
    pi2, mh2 = semi_markov_stationary(m2)
    assert_allclose(pi2, pi1[perm], atol=1e-10)
    assert_allclose(mh1, mh2, rtol=1e-12)
