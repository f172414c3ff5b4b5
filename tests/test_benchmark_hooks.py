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
