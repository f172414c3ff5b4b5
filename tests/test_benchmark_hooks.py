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
    """The traced spans of the fast-time layer wrap pipeline.solve_Wk and
    singular.psi_k0; both must be looked up there at call time, or their
    spans read zero."""
    from fastswitch import pipeline, singular
    from fastswitch.field import UGrid
    from conftest import PHI, make_model_a, make_pm_field

    calls = {"solve_Wk": 0, "psi_k0": 0}

    def counted(module, attr):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, attr, wrapper)

    counted(pipeline, "solve_Wk")
    counted(singular, "psi_k0")
    pipeline.build_expansion(make_model_a(), make_pm_field(UGrid(-6.0, 6.0, 65)), PHI,
                             order=2, horizon=0.5, h_t=0.01, h_tau=0.01)
    assert calls == {"solve_Wk": 2, "psi_k0": 1}
