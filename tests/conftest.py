import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from fastswitch.field import StateVelocity, TestFunction, UGrid, VelocityField, fornberg_weights
from fastswitch.model import SemiMarkovModel, SojournDistribution
from fastswitch.pipeline import build_expansion

settings.register_profile("suite", max_examples=25, deadline=None,
                          suppress_health_check=(HealthCheck.too_slow,))
settings.load_profile("suite")


GRID = UGrid(-8.0, 8.0, 257)
PHI = TestFunction("gaussian", 0.0, 1.0)


# -- reference sojourn-law functions (the library needs only moments and
# partial moments; these check them)


def sojourn_density(dist: SojournDistribution, t) -> np.ndarray:
    """Density of the sojourn law, vectorized, zero for t < 0."""
    t = np.asarray(t, dtype=float)
    if dist.family == "uniform":
        out = np.where((t >= dist.a) & (t <= dist.b), 1.0 / (dist.b - dist.a), 0.0)
    else:
        m, lam = dist.shape, dist.rate
        tp = np.maximum(t, 0.0)
        out = lam**m * tp ** (m - 1) * np.exp(-lam * tp) / math.factorial(m - 1)
    return np.where(t < 0, 0.0, out)


def integrated_survival(dist: SojournDistribution, k: int, tau) -> np.ndarray:
    """F̄^(k)(τ) = ∫_τ^∞ s^(k-1)/(k-1)! F̄(s) ds = [M_k(τ) - τ^k F̄(τ)] / k!."""
    tau = np.maximum(np.asarray(tau, dtype=float), 0.0)
    return (dist.partial_moment(k, tau) - tau**k * dist.survival(tau)) / math.factorial(k)


def nu_coefficient(dist: SojournDistribution, k: int) -> float:
    """ν_k = (-1)^(k+1) (μ_(k+1) - m_k), the sojourn-law coefficient of the
    ν-weighted form of c_k(0); the library divides by m̂ once instead.

    For the erlang family the rational prefactor is evaluated exactly, so
    ν_1 of an exponential is a true zero, not a rounding residue.
    """
    if dist.family == "uniform":
        return (-1) ** (k + 1) * (dist.reduced_moment(k + 1) - dist.moment(k))
    m = dist.shape
    rising = math.prod(range(m + 1, m + k + 1))
    falling = math.prod(range(m, m + k))
    coeff = Fraction(rising, math.factorial(k + 1)) - falling
    return (-1) ** (k + 1) * float(coeff) / dist.rate**k


def nu_coefficients(model: SemiMarkovModel, k: int) -> np.ndarray:
    """ν_k of each state's sojourn law."""
    return np.array([nu_coefficient(d, k) for d in model.sojourns])


def negative_extension(U: list, k: int, tau) -> np.ndarray:
    """W_k(τ) for τ < 0: -Σ_{n=0..k} τ^n/n! U^(n)_{k-n}(0), which is
    W_k(0) = -U_k(0) at τ = 0.  The library's forcing_terms meets this
    extension in closed form and never evaluates it."""
    tau = np.asarray(tau, dtype=float)
    out = 0.0
    for n in range(k + 1):
        coeff = tau**n / math.factorial(n)
        out = out - coeff.reshape(tau.shape + (1, 1)) * U[k - n].derivative_values(n)[0]
    return out


def sample_sojourns(dist: SojournDistribution, rng: np.random.Generator, size) -> np.ndarray:
    """size sojourns drawn through the library's map from uniforms."""
    return dist.from_uniforms(rng.random(tuple(np.atleast_1d(size)) + (dist.n_uniforms,)))


def make_model_a() -> SemiMarkovModel:
    return SemiMarkovModel(states=("a", "b"), P=[[0.0, 1.0], [1.0, 0.0]],
                           sojourns=(SojournDistribution("exponential", rate=1.0),
                                     SojournDistribution("exponential", rate=2.0)))


def make_model_b() -> SemiMarkovModel:
    return SemiMarkovModel(states=("a", "b"), P=[[0.0, 1.0], [1.0, 0.0]],
                           sojourns=(SojournDistribution("erlang", rate=1.0, shape=2),
                                     SojournDistribution("erlang", rate=2.0, shape=2)))


def make_mixed_model() -> SemiMarkovModel:
    """Three states with exponential, erlang and uniform sojourns."""
    return SemiMarkovModel(
        states=("a", "b", "c"),
        P=[[0.0, 0.6, 0.4], [0.5, 0.0, 0.5], [0.3, 0.7, 0.0]],
        sojourns=(SojournDistribution("exponential", rate=1.5),
                  SojournDistribution("erlang", rate=2.0, shape=2),
                  SojournDistribution("uniform", a=0.2, b=1.2)))


def make_pm_field(grid=GRID) -> VelocityField:
    return VelocityField(grid, (StateVelocity("constant", value=1.0),
                                StateVelocity("constant", value=-1.0)))


def make_collapse_model() -> SemiMarkovModel:
    return SemiMarkovModel(states=("a", "b"), P=[[0.5, 0.5], [0.5, 0.5]],
                           sojourns=(SojournDistribution("exponential", rate=1.0),
                                     SojournDistribution("erlang", rate=2.0, shape=2)))


def layer_values(layer) -> np.ndarray:
    """A layer at full width, G B: its τ-coefficients on its u-basis.  The
    library never holds this array; the tests build it to read the layer
    node by node."""
    return layer.coeffs @ layer.basis


def make_collapse_field(grid=GRID) -> VelocityField:
    return VelocityField(grid, (StateVelocity("constant", value=0.7),
                                StateVelocity("constant", value=0.7)))


def reference_fd_derivative(values, h, order, axis, periodic):
    """order-th derivative along one axis of data on a uniform grid of step h,
    the finite-difference rule that once served u and time derivatives alike.

    Node i takes the 4th-order Fornberg stencil on the order + 4 consecutive
    nodes from clip(i - width//2, 0, n - width): one centred stencil in the
    interior, each term added as one full-width product, and one-sided
    stencils within half a width of an open end.  A periodic grid wraps
    around, and its last node repeats the first."""
    values = np.asarray(values, dtype=float)
    axis = axis % values.ndim
    width = order + 4
    lo = width // 2

    def along(start, stop):
        return (slice(None),) * axis + (slice(start, stop),)

    def stencil(offset):
        return fornberg_weights(float(offset), np.arange(width, dtype=float), order)

    n = values.shape[axis] - int(periodic)
    v = values
    if periodic:
        core = values[along(0, n)]
        v = np.concatenate([core[along(n - lo, n)], core,
                            core[along(0, width - 1 - lo)]], axis=axis)
    out = np.empty_like(values)
    m = v.shape[axis] - width + 1
    first = 0 if periodic else lo
    interior = out[along(first, first + m)]
    w = stencil(lo) / h**order
    np.multiply(v[along(0, m)], w[0], out=interior)
    for j in range(1, width):
        if w[j] != 0.0:
            interior += w[j] * v[along(j, j + m)]
    if periodic:
        out[along(n, n + 1)] = out[along(0, 1)]
        return out
    for rows, start in ((range(lo), 0), (range(lo + m, n), n - width)):
        w = np.array([stencil(i - start) for i in rows]) / h**order
        block = np.moveaxis(v[along(start, start + width)], axis, 0)
        ends = np.einsum("rw,w...->r...", w, block)
        out[along(rows.start, rows.stop)] = np.moveaxis(ends, 0, axis)
    return out


def random_model(rng: np.random.Generator, n_max: int = 20) -> SemiMarkovModel:
    """Random irreducible model for property tests."""
    n = int(rng.integers(1, n_max + 1))
    P = rng.random((n, n)) + 0.05
    P /= P.sum(axis=1, keepdims=True)
    sojourns = []
    for _ in range(n):
        fam = rng.choice(["exponential", "erlang", "uniform"])
        if fam == "exponential":
            sojourns.append(SojournDistribution("exponential", rate=float(rng.uniform(0.5, 3.0))))
        elif fam == "erlang":
            sojourns.append(SojournDistribution("erlang", rate=float(rng.uniform(0.5, 3.0)),
                                                shape=int(rng.integers(1, 4))))
        else:
            a = float(rng.uniform(0.0, 1.0))
            sojourns.append(SojournDistribution("uniform", a=a, b=a + float(rng.uniform(0.2, 2.0))))
    return SemiMarkovModel(states=tuple(range(n)), P=P, sojourns=tuple(sojourns))


@pytest.fixture(scope="session")
def model_a():
    return make_model_a()


@pytest.fixture(scope="session")
def model_b():
    return make_model_b()


@pytest.fixture(scope="session")
def pm_field():
    return make_pm_field()


@pytest.fixture(scope="session")
def phi():
    return PHI


@pytest.fixture(scope="session")
def grid():
    return GRID


@pytest.fixture(scope="session")
def expansion_a():
    """Order-2 expansion of the two-state exponential test model."""
    return build_expansion(make_model_a(), make_pm_field(), PHI, order=2,
                           horizon=1.0, h_t=0.002, h_tau=0.005)


@pytest.fixture(scope="session")
def expansion_b():
    """Order-2 expansion of the two-state erlang test model."""
    return build_expansion(make_model_b(), make_pm_field(), PHI, order=2,
                           horizon=1.0, h_t=0.002, h_tau=0.005)


@pytest.fixture(scope="session")
def expansion_collapse():
    """Order-2 expansion with state-independent velocity (must vanish)."""
    return build_expansion(make_collapse_model(), make_collapse_field(), PHI,
                           order=2, horizon=1.0, h_t=0.002, h_tau=0.01)
