"""Run configuration: one JSON document describing model, field, grids,
expansion order, epsilon ladder and oracle choices."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .field import StateVelocity, TestFunction, UGrid, VelocityField, grid_index
from .model import SemiMarkovModel, SojournDistribution
from .oracle import MIN_SAMPLES, SEED_LIMIT
from .pipeline import MAX_ORDER, time_steps


class ConfigError(ValueError):
    """Malformed configuration document."""


@dataclass(frozen=True)
class OracleConfig:
    method: str
    n_samples: int
    seed: int
    h_s: float
    u_stride: int
    t_eval: tuple
    richardson: bool


@dataclass(frozen=True)
class OutputConfig:
    t_stride: int
    tau_stride: int
    u_stride: int


@dataclass(frozen=True)
class RunConfig:
    model: SemiMarkovModel
    field: VelocityField
    phi: TestFunction
    order: int
    horizon: float
    h_t: float
    h_tau: float
    tau_max: float | None
    epsilons: tuple
    oracle: OracleConfig
    output: OutputConfig


def _object(doc, where: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object, got {doc!r}")
    return doc


def _require(doc, key: str, context: str):
    if key not in _object(doc, context):
        raise ConfigError(f"missing key {key!r} in {context}")
    return doc[key]


def _list(vals, where: str) -> list:
    if not isinstance(vals, (list, tuple)):
        raise ConfigError(f"{where} must be a list, got {vals!r}")
    return vals


def _known(doc, keys, where: str) -> dict:
    """doc as a JSON object whose keys are all among keys: a key nothing
    reads is a ConfigError naming it, never a setting silently dropped."""
    for key in _object(doc, where):
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in {where}; "
                              f"expected one of {', '.join(keys)}")
    return doc


def _number(val, name: str, cast=float, positive: bool = False):
    """val as a finite number, integral for cast=int and > 0 if positive;
    anything else (a fraction for an integer, a boolean, a string) is a
    ConfigError.  An integer val is returned exactly, not through a float."""
    try:
        num = None if isinstance(val, (bool, str)) else float(val)
    except (TypeError, ValueError, OverflowError):
        num = None
    if (num is None or not math.isfinite(num) or (positive and not num > 0)
            or (cast is int and not num.is_integer())):
        need = "an integer" if cast is int else "a number"
        need += (" >= 1" if cast is int else " > 0") if positive else ""
        raise ConfigError(f"{name} must be {need}, got {val!r}")
    return val if cast is int and isinstance(val, int) else cast(num)


def _numbers(vals, name: str) -> list:
    """Each entry of the list vals as a finite number, entry i named name[i]."""
    return [_number(v, f"{name}[{i}]") for i, v in enumerate(_list(vals, name))]


def _positive(doc: dict, key: str, default, where: str, cast=float):
    """doc[key] (or the default) as a finite number > 0; cast=int asks >= 1."""
    return _number(doc.get(key, default), f"{where}.{key}", cast, positive=True)


def _built(section: str, cls, **fields):
    """cls(**fields), its ValueError (whose message starts with the field's
    name) turned into a ConfigError naming section.field."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(f"{section}.{exc}") from exc


_SOJOURN_KEYS = {"exponential": ("rate",), "erlang": ("rate", "shape"),
                 "uniform": ("a", "b")}
_VELOCITY_KEYS = {"constant": ("value",), "linear": ("slope", "intercept")}


def _sojourn_from_doc(doc: dict, where: str) -> SojournDistribution:
    fam = _require(doc, "family", where)
    if not isinstance(fam, str) or fam not in _SOJOURN_KEYS:
        raise ConfigError(f"unknown sojourn family {fam!r} in {where}.family")
    _known(doc, ("family",) + _SOJOURN_KEYS[fam], where)
    params = {key: _number(_require(doc, key, where), f"{where}.{key}",
                           int if key == "shape" else float)
              for key in _SOJOURN_KEYS[fam]}
    try:
        return SojournDistribution(fam, **params)
    except ValueError as exc:
        raise ConfigError(f"bad sojourn parameters in {where}: {exc}") from exc


def _velocity_from_doc(doc: dict, where: str, grid: UGrid) -> StateVelocity:
    kind = _require(doc, "kind", where)
    if kind == "tabulated":
        _known(doc, ("kind", "values"), where)
        vals = _numbers(_require(doc, "values", where), f"{where}.values")
        if len(vals) != grid.n_points:
            raise ConfigError(f"tabulated velocity in {where} must have {grid.n_points} values")
        return StateVelocity("tabulated", table=np.array(vals))
    if not isinstance(kind, str) or kind not in _VELOCITY_KEYS:
        raise ConfigError(f"unknown velocity kind {kind!r} in {where}.kind")
    _known(doc, ("kind",) + _VELOCITY_KEYS[kind], where)
    return StateVelocity(kind, **{key: _number(_require(doc, key, where), f"{where}.{key}")
                                  for key in _VELOCITY_KEYS[kind]})


def config_from_document(doc: dict) -> RunConfig:
    _known(doc, ("model", "velocity", "test_function", "grid", "time", "layer", "order",
                 "epsilons", "oracle", "output"), "document")
    mdoc = _known(_require(doc, "model", "document"), ("states", "transitions", "sojourns"),
                  "model")
    states = tuple(_list(_require(mdoc, "states", "model"), "model.states"))
    n = len(states)
    rows = _require(mdoc, "transitions", "model")
    if isinstance(rows, list):
        rows = [_numbers(r, f"model.transitions[{i}]") for i, r in enumerate(rows)]
    if not isinstance(rows, list) or [len(r) for r in rows] != [n] * n:
        raise ConfigError(f"transitions must be {n}x{n}")
    sojourns = [_sojourn_from_doc(s, f"model.sojourns[{i}]")
                for i, s in enumerate(_list(_require(mdoc, "sojourns", "model"),
                                            "model.sojourns"))]
    if len(sojourns) != n:
        raise ConfigError("model.sojourns must list one entry per state")
    try:
        model = SemiMarkovModel(states=states, P=np.array(rows), sojourns=tuple(sojourns))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    gdoc = _known(doc.get("grid", {}), ("u_min", "u_max", "n_points", "boundary_mode"),
                  "grid")
    grid = _built("grid", UGrid, u_min=_number(gdoc.get("u_min", -8.0), "grid.u_min"),
                  u_max=_number(gdoc.get("u_max", 8.0), "grid.u_max"),
                  n_points=_number(gdoc.get("n_points", 257), "grid.n_points", int),
                  boundary_mode=gdoc.get("boundary_mode", "extrapolate"))

    vdoc = _list(_require(doc, "velocity", "document"), "velocity")
    if len(vdoc) != n:
        raise ConfigError("velocity must list one entry per state")
    fld = VelocityField(grid, tuple(_velocity_from_doc(v, f"velocity[{i}]", grid)
                                    for i, v in enumerate(vdoc)))

    tdoc = _known(doc.get("test_function", {}), ("kind", "center", "width", "coeffs"),
                  "test_function")
    phi = _built("test_function", TestFunction, kind=tdoc.get("kind", "gaussian"),
                 center=_number(tdoc.get("center", 0.0), "test_function.center"),
                 width=_number(tdoc.get("width", 1.0), "test_function.width"),
                 coeffs=tuple(_numbers(tdoc.get("coeffs", (1.0,)), "test_function.coeffs")))

    time_doc = _known(doc.get("time", {}), ("horizon", "h_t"), "time")
    horizon = _positive(time_doc, "horizon", 1.0, "time")
    h_t = _positive(time_doc, "h_t", 0.002, "time")
    layer_doc = _known(doc.get("layer", {}), ("h_tau", "tau_max"), "layer")
    h_tau = _positive(layer_doc, "h_tau", 0.005, "layer")
    tau_max = layer_doc.get("tau_max")
    if tau_max is not None and (type(tau_max) not in (int, float) or not 0 < tau_max < math.inf):
        raise ConfigError(f"layer.tau_max must be null or a number > 0, got {tau_max!r}")
    eps = tuple(_numbers(doc.get("epsilons", (0.2, 0.1, 0.05, 0.025)), "epsilons"))
    if not eps:
        raise ConfigError("epsilons must list at least one epsilon")
    for e in eps:
        if not 0.0 < e < 1.0:
            raise ConfigError(f"epsilon {e} outside (0, 1)")
        if eps.count(e) > 1:
            raise ConfigError(f"epsilons repeat {e}: a remainder slope needs distinct epsilons")

    odoc = _known(doc.get("oracle", {}), ("method", "n_samples", "seed", "h_s", "u_stride",
                                          "t_eval", "richardson"), "oracle")
    oracle = OracleConfig(method=odoc.get("method", "direct"),
                          n_samples=_positive(odoc, "n_samples", 100000, "oracle", int),
                          seed=_number(odoc.get("seed", 20240811), "oracle.seed", int),
                          h_s=_positive(odoc, "h_s", 0.02, "oracle"),
                          u_stride=_positive(odoc, "u_stride", 16, "oracle", int),
                          t_eval=tuple(_numbers(odoc.get("t_eval", (0.5, 1.0)),
                                                "oracle.t_eval")),
                          richardson=odoc.get("richardson", False))
    if not isinstance(oracle.richardson, bool):
        raise ConfigError(f"oracle.richardson must be true or false, got {oracle.richardson!r}")
    if not -SEED_LIMIT <= oracle.seed < SEED_LIMIT:
        raise ConfigError(f"oracle.seed must be an integer in [-2**63, 2**63), "
                          f"got {oracle.seed!r}")
    if oracle.n_samples < MIN_SAMPLES:
        raise ConfigError(f"oracle.n_samples must be an integer >= {MIN_SAMPLES}, "
                          f"got {oracle.n_samples!r}")
    if oracle.method not in ("direct", "mc"):
        raise ConfigError(f"oracle.method must be 'direct' or 'mc', got {oracle.method!r}")
    if not oracle.t_eval:
        raise ConfigError("oracle.t_eval must list at least one time")
    # the expansion's time step, by build_expansion's own rule
    step = horizon / time_steps(horizon, h_t)
    for t in oracle.t_eval:
        if not (0.0 < t <= horizon and grid_index(t, step) is not None):
            raise ConfigError(f"oracle.t_eval {t} must lie in (0, {horizon}] on the "
                              f"time grid of step {step:.6g}")
        if oracle.t_eval.count(t) > 1:
            raise ConfigError(f"oracle.t_eval repeats {t}: each time gets one row per epsilon")

    outdoc = _known(doc.get("output", {}), ("t_stride", "tau_stride", "u_stride"), "output")
    output = OutputConfig(**{key: _positive(outdoc, key, default, "output", int)
                             for key, default in (("t_stride", 25), ("tau_stride", 40),
                                                  ("u_stride", 1))})

    order = _number(doc.get("order", 2), "order", int)
    if not 0 <= order <= MAX_ORDER:
        raise ConfigError(f"order {order} outside the supported range 0..{MAX_ORDER}")

    return RunConfig(model=model, field=fld, phi=phi, order=order,
                     horizon=horizon, h_t=h_t, h_tau=h_tau, tau_max=tau_max,
                     epsilons=eps, oracle=oracle, output=output)


def load_config(path, flags: dict | None = None) -> RunConfig:
    """The config file's document with the fragment flags (such as {"order": 3,
    "oracle": {"seed": 7}}) written over it, checked as one.  None values are
    skipped; a file section that is not an object is kept for the checks."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    for key, val in (flags or {}).items():
        section = doc.get(key, {})
        if isinstance(val, dict) and isinstance(section, dict):
            doc[key] = {**section, **{k: v for k, v in val.items() if v is not None}}
        elif val is not None and not isinstance(val, dict):
            doc[key] = val
    return config_from_document(doc)
