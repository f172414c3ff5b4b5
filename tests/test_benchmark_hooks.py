"""The traced benchmark run patches fastswitch functions by (module, name);
pruning the package API must never leave one of them dangling."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_layer_patches_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.LAYER_PATCHES
    for module, attr, span in tracing.LAYER_PATCHES:
        target = getattr(importlib.import_module(module), attr, None)
        assert callable(target), f"{module}.{attr} (span {span})"


def test_traced_layers_are_called_through_module_attributes(monkeypatch):
    """The traced spans of both layers wrap names looked up in pipeline,
    singular and regular at call time, or their spans read zero.  The
    transport solves gather one stencil per lag, so interp_apply is called
    O(n_times) times per build, never once per (time, history node) pair."""
    from fastswitch import pipeline, regular, singular
    from fastswitch.field import UGrid
    from conftest import PHI, make_model_a, make_pm_field

    calls = dict.fromkeys(["solve_Wk", "psi_k0", "averaged_flow_table", "solve_c0",
                           "solve_ck", "interp_apply", "initial_ck0"], 0)

    def counted(module, attr):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, attr, wrapper)

    for attr in ("solve_Wk", "averaged_flow_table", "solve_c0", "solve_ck", "initial_ck0"):
        counted(pipeline, attr)
    counted(singular, "psi_k0")
    counted(regular, "interp_apply")
    res = pipeline.build_expansion(make_model_a(), make_pm_field(UGrid(-6.0, 6.0, 65)), PHI,
                                   order=2, horizon=0.5, h_t=0.01, h_tau=0.01)
    assert 0 < calls.pop("interp_apply") <= 3 * len(res.times)
    assert calls.pop("initial_ck0") == 2
    assert calls == {"solve_Wk": 2, "psi_k0": 1, "averaged_flow_table": 1,
                     "solve_c0": 1, "solve_ck": 2}
