"""Finite-state semi-Markov model: sojourn laws, kernels, stationary structure.

The switching process is specified by an embedded transition matrix P and one
sojourn distribution per state.  Everything downstream (projector, potential
operator, boundary-layer solves) consumes the analytic moment data exposed
here, so all moment-like quantities are closed-form per family rather than
numerical.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

FAMILIES = ("exponential", "erlang", "uniform")

# Survival threshold used when auto-sizing the boundary-layer window.
_DECAY_TOL = 1e-10


class ModelError(ValueError):
    """Raised for structurally invalid model input."""


@dataclass(frozen=True)
class SojournDistribution:
    """Sojourn-time law of one state.

    family is one of "exponential" (rate), "erlang" (shape, rate) or
    "uniform" (a, b).  An exponential law is the erlang law of shape 1 and is
    computed as one.  All three have every moment finite and an exponential
    moment in a neighbourhood of zero, which is what the layer solves rely on.
    """

    family: str
    rate: float = 0.0
    shape: int = 1
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ModelError(f"unknown sojourn family {self.family!r}")
        if self.family == "uniform":
            if self.a < 0 or self.b <= self.a:
                raise ModelError(f"uniform needs 0 <= a < b, got a={self.a}, b={self.b}")
            return
        if not self.rate > 0:
            raise ModelError(f"{self.family} rate must be positive, got {self.rate}")
        if self.family == "exponential" and self.shape != 1:
            raise ModelError(f"exponential shape must be 1 (use erlang), got {self.shape}")
        if self.shape < 1 or self.shape != int(self.shape):
            raise ModelError(f"erlang shape must be a positive integer, got {self.shape}")
        object.__setattr__(self, "shape", int(self.shape))   # the formulas count with it

    # -- distribution functions ------------------------------------------------

    def survival(self, t):
        """F̄(t) = P(θ > t) = M_0(t), vectorized, with F̄(t) = 1 for t < 0."""
        return self.partial_moment(0, t)

    # -- moments ---------------------------------------------------------------

    def moment(self, k: int) -> float:
        """m_k = E[θ^k], exact."""
        if k < 0:
            raise ValueError("moment order must be >= 0")
        if k == 0:
            return 1.0
        if self.family == "uniform":
            return (self.b ** (k + 1) - self.a ** (k + 1)) / ((k + 1) * (self.b - self.a))
        num = 1.0
        for i in range(self.shape, self.shape + k):
            num *= i
        return num / self.rate**k

    def reduced_moment(self, k: int) -> float:
        """μ_k = m_k / (k! m_1); μ_1 = 1 identically."""
        if k < 1:
            raise ValueError("reduced moment order must be >= 1")
        if k == 1:
            return 1.0
        return self.moment(k) / (math.factorial(k) * self.moment(1))

    def partial_moment(self, n: int, tau) -> np.ndarray:
        """M_n(τ) = ∫_τ^∞ s^n F(ds), exact per family, vectorized in τ.

        Negative τ is treated as τ = 0 (the law has no mass below zero).
        """
        tau = np.maximum(np.asarray(tau, dtype=float), 0.0)
        if self.family == "uniform":
            c = np.clip(tau, self.a, self.b)
            return (self.b ** (n + 1) - c ** (n + 1)) / ((n + 1) * (self.b - self.a))
        # s^n F(ds) is m_n times the erlang(shape + n) law, whose survival is
        # e^(-λτ) Σ_{i<shape+n} (λτ)^i / i!
        lam_t = self.rate * tau
        acc = term = 1.0
        for i in range(1, self.shape + n):
            term = term * lam_t / i
            acc = acc + term
        return self.moment(n) * (np.exp(-lam_t) * acc)

    # -- misc ------------------------------------------------------------------

    def cramer_margin(self) -> float:
        """Largest h with a verified finite exponential moment ∫ e^{ht} F(dt).

        Erlang laws admit any h below the rate; uniform laws are compactly
        supported, reported as a large capped value.
        """
        if self.family == "uniform":
            return 1e6
        return (1.0 - 1e-6) * self.rate

    def decay_point(self, tol: float = _DECAY_TOL) -> float:
        """Smallest τ with F̄(τ) <= tol: exact for uniform and shape-1 laws,
        by bisection otherwise."""
        if self.family == "uniform":
            return self.b
        if self.shape == 1:
            return -math.log(tol) / self.rate
        lo, hi = 0.0, 1.0
        while self.survival(hi) > tol:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.survival(mid) > tol:
                lo = mid
            else:
                hi = mid
        return hi

    @property
    def n_uniforms(self) -> int:
        """Uniform variates one sojourn draw consumes."""
        return 1 if self.family == "uniform" else self.shape

    def from_uniforms(self, u: np.ndarray) -> np.ndarray:
        """Map uniforms on the last axis (at least n_uniforms of them) to
        sojourns: inverse CDF for uniform, a sum of shape exponentials for
        erlang."""
        if self.family == "uniform":
            return self.a + (self.b - self.a) * u[..., 0]
        return -np.log1p(-u[..., :self.shape]).sum(axis=-1) / self.rate


@dataclass(frozen=True)
class SemiMarkovModel:
    """Embedded transition matrix plus per-state sojourn distributions."""

    states: tuple
    P: np.ndarray
    sojourns: tuple

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "sojourns", tuple(self.sojourns))
        n = len(self.states)
        if n < 1:
            raise ModelError("need at least one state")
        if P.shape != (n, n):
            raise ModelError(f"P must be {n}x{n}, got {P.shape}")
        if len(self.sojourns) != n:
            raise ModelError("need one sojourn distribution per state")

    @property
    def n_states(self) -> int:
        return len(self.states)

    def mean_sojourns(self) -> np.ndarray:
        return np.array([d.moment(1) for d in self.sojourns])

    def moments(self, k: int) -> np.ndarray:
        return np.array([d.moment(k) for d in self.sojourns])

    def reduced_moments(self, k: int) -> np.ndarray:
        return np.array([d.reduced_moment(k) for d in self.sojourns])


@dataclass
class ModelDiagnostics:
    row_sum_errors: np.ndarray = field(default_factory=lambda: np.zeros(0))
    nonnegative: bool = True
    irreducible: bool = True
    aperiodic: bool = True
    positive_means: bool = True
    cramer_margin: np.ndarray = field(default_factory=lambda: np.zeros(0))
    spectral_gap: float = 0.0
    messages: list = field(default_factory=list)

    @property
    def usable(self) -> bool:
        return (
            self.nonnegative
            and bool(np.all(self.row_sum_errors < 1e-12))
            and self.irreducible
            and self.positive_means
        )


def _power_positive(A: np.ndarray, power: int) -> bool:
    """Whether every entry of A^power is positive, for a nonnegative (or
    boolean) square A, by repeated squaring of the 0/1 pattern."""
    out = np.eye(A.shape[0])
    base = (A > 0).astype(float)
    while power:
        if power & 1:
            out = (out @ base > 0).astype(float)
        base = (base @ base > 0).astype(float)
        power >>= 1
    return bool(out.all())


def validate_model(model: SemiMarkovModel) -> ModelDiagnostics:
    """Structural and ergodicity checks; reports violations, never raises."""
    P = model.P
    diag = ModelDiagnostics()
    diag.row_sum_errors = np.abs(P.sum(axis=1) - 1.0)
    for i, err in enumerate(diag.row_sum_errors):
        if err >= 1e-12:
            diag.messages.append(f"row {model.states[i]}: sum deviates from 1 by {err:.3e}")
    diag.nonnegative = bool((P >= -1e-15).all())
    if not diag.nonnegative:
        bad = np.argwhere(P < -1e-15)
        diag.messages.append(f"negative transition probabilities at {bad.tolist()}")
    # a nonnegative n x n pattern A is irreducible iff (I + A)^(n-1) > 0, and
    # an irreducible A is aperiodic iff A^((n-1)^2+1) > 0 (Wielandt 1950)
    adj = P > 1e-15
    n = model.n_states
    diag.irreducible = _power_positive(adj | np.eye(n, dtype=bool), n - 1)
    if not diag.irreducible:
        diag.messages.append("embedded chain is not irreducible")
        diag.aperiodic = False
    else:
        diag.aperiodic = _power_positive(adj, (n - 1) ** 2 + 1)
        if not diag.aperiodic:
            diag.messages.append("embedded chain is periodic (flagged, not fatal)")
    means = model.mean_sojourns()
    diag.positive_means = bool((means > 0).all())
    if not diag.positive_means:
        diag.messages.append("some state has nonpositive mean sojourn")
    diag.cramer_margin = np.array([d.cramer_margin() for d in model.sojourns])
    eigvals = np.sort(np.abs(np.linalg.eigvals(P)))[::-1]
    diag.spectral_gap = float(1.0 - eigvals[1]) if len(eigvals) > 1 else 1.0
    return diag


def embedded_stationary(model: SemiMarkovModel) -> np.ndarray:
    """ρ with ρP = ρ, Σρ = 1, by a dense solve with a normalization row."""
    n = model.n_states
    if n == 1:
        return np.ones(1)
    A = model.P.T - np.eye(n)
    A[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        rho = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise ModelError(f"stationary solve failed for states {model.states}: {exc}") from exc
    resid = np.abs(rho @ model.P - rho).max()
    if resid > 1e-12 or rho.min() < -1e-12:
        raise ModelError(
            f"embedded stationary distribution unreliable (residual {resid:.3e}); "
            "is the chain irreducible?"
        )
    return np.maximum(rho, 0.0) / np.maximum(rho, 0.0).sum()


def semi_markov_stationary(model: SemiMarkovModel, rho: np.ndarray | None = None):
    """Normalized π_x = ρ_x m_1(x)/m̂ and m̂ = Σ ρ_x m_1(x)."""
    if rho is None:
        rho = embedded_stationary(model)
    m1 = model.mean_sojourns()
    m_hat = float(rho @ m1)
    pi = rho * m1 / m_hat
    return pi, m_hat


def generator(model: SemiMarkovModel) -> np.ndarray:
    """Q = diag(1/m_1) (P - I); rows sum to zero."""
    q = 1.0 / model.mean_sojourns()
    return q[:, None] * (model.P - np.eye(model.n_states))
