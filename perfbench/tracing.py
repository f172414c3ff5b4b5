"""In-memory spans around calls into fastswitch's layers, taken from outside.

A span is recorded by replacing a function with a timing wrapper in the
module where its caller looks the name up (``fastswitch.pipeline.solve_Wk``,
``fastswitch.regular.interp_apply``, ...).  Nothing in the package changes.
Spans nest through a stack, so a layer's self time is its span's duration
minus the durations of the spans it caused; the run is single-threaded, so
children never overlap.
"""
from __future__ import annotations

import time

# (module, attribute, span name) for every layer boundary the traced run
# records.  A function that several modules import is patched in each of
# them, because each holds its own reference.
LAYER_PATCHES = (
    ("fastswitch.cli", "load_config", "config.load_config"),
    ("fastswitch.cli", "build_expansion", "pipeline.build_expansion"),
    ("fastswitch.cli", "remainder_compare", "analysis.remainder_compare"),
    ("fastswitch.pipeline", "validate_model", "model.validate_model"),
    ("fastswitch.pipeline", "build_kit", "operators.build_kit"),
    ("fastswitch.pipeline", "averaged_flow_table", "regular.averaged_flow_table"),
    ("fastswitch.pipeline", "solve_c0", "regular.solve_c0"),
    ("fastswitch.pipeline", "system_rhs_values", "regular.system_rhs_values"),
    ("fastswitch.pipeline", "transport_sources", "regular.transport_sources"),
    ("fastswitch.pipeline", "solve_ck", "regular.solve_ck"),
    ("fastswitch.pipeline", "initial_ck0", "singular.initial_ck0"),
    ("fastswitch.pipeline", "solve_Wk", "singular.solve_Wk"),
    ("fastswitch.singular", "psi_k0", "singular.psi_k0"),
    ("fastswitch.regular", "L_series_values", "operators.L_series_values"),
    ("fastswitch.operators", "L_series_values", "operators.L_series_values"),
    ("fastswitch.regular", "projected_frak_L_series", "operators.projected_frak_L_series"),
    ("fastswitch.regular", "flow_positions", "field.flow_positions"),
    ("fastswitch.regular", "interp_weights", "field.interp_weights"),
    ("fastswitch.regular", "interp_apply", "field.interp_apply"),
    ("fastswitch.oracle", "flow_positions", "field.flow_positions"),
    ("fastswitch.oracle", "interp_weights", "field.interp_weights"),
    ("fastswitch.analysis", "direct_solve_phi", "oracle.direct_solve_phi"),
    ("fastswitch.analysis", "mc_expectation", "oracle.mc_expectation"),
)

# The boundaries every run times, traced or not: they give expand_s and
# oracle_s, and they hand the oracle estimates to the output checks.
END_TO_END_PATCHES = tuple(p for p in LAYER_PATCHES if p[2] in (
    "pipeline.build_expansion", "oracle.direct_solve_phi", "oracle.mc_expectation"))


class Tracer:
    """Spans as [name, start, end, parent index], kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []

    def open(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        rec = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(rec)

    def patch(self, module, attr: str, name: str, after=None) -> None:
        """Time every call of module.attr as a span called name.  after, if
        given, sees (result, args, kwargs) once the span has closed and returns
        the result handed back to the caller."""
        original = getattr(module, attr)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = original(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            return after(result, args, kwargs) if after else result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def total(self, name: str) -> float:
        """Summed duration of every span called name."""
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def self_times(self) -> dict:
        """name -> (summed self time, number of spans)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out: dict = {}
        for s, c in zip(self.spans, child):
            tot, n = out.get(s[0], (0.0, 0))
            out[s[0]] = (tot + (s[2] - s[1]) - c, n + 1)
        return out

    def records(self) -> list:
        """Spans as written out: name, start, end, parent index, run id."""
        return [[s[0], s[1], s[2], s[3], self.run_id] for s in self.spans]
