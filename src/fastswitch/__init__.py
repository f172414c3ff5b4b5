"""Two-scale asymptotic expansion of averaged functionals of fast-switching
semi-Markov evolutions, with Monte Carlo and deterministic oracles."""

from .analysis import remainder_compare
from .config import RunConfig, config_from_document, load_config
from .field import (DomainEscape, StateVelocity, TestFunction, UGrid,
                    VelocityField, averaged_velocity, flow, sup_norm)
from .model import (ModelDiagnostics, ModelError, SemiMarkovModel,
                    SojournDistribution, embedded_stationary, generator,
                    semi_markov_stationary, validate_model)
from .operators import OperatorKit, PotentialData, TimeSeries, build_kit, potential_build
from .oracle import OracleEstimate, direct_solve_phi, mc_expectation
from .pipeline import ExpansionResult, build_expansion
from .regular import solve_c0, solve_ck
from .singular import LayerSeries, TauGrid, forcing_terms, initial_ck0, psi_k0, solve_Wk

__all__ = [
    "remainder_compare",
    "RunConfig", "config_from_document", "load_config",
    "DomainEscape", "StateVelocity", "TestFunction", "UGrid", "VelocityField",
    "averaged_velocity", "flow", "sup_norm",
    "ModelDiagnostics", "ModelError", "SemiMarkovModel", "SojournDistribution",
    "embedded_stationary", "generator", "semi_markov_stationary", "validate_model",
    "OperatorKit", "PotentialData", "TimeSeries", "build_kit", "potential_build",
    "OracleEstimate", "direct_solve_phi", "mc_expectation",
    "ExpansionResult", "build_expansion",
    "solve_c0", "solve_ck",
    "LayerSeries", "TauGrid", "forcing_terms", "initial_ck0", "psi_k0",
    "solve_Wk",
]
__version__ = "0.1.0"
