"""The traced benchmark run patches fastswitch functions by (module, name);
pruning the package API must never leave one of them dangling."""
import importlib
import importlib.util
import os
import subprocess
import sys
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
    transport solves make a fixed number of stencil gathers, whatever
    n_times: solve_c0 one, and each solve_ck three: Simpson's lag 0-2 ends
    (its initial data, column 0 and the rest of its Duhamel integral are one
    FFT convolution).  Each order forms its transport
    source in one closed-form call, and the order-1 coefficient's second time
    derivative reads that source's first in one more.  The layer march's
    resolvent is the same at every order and is built once."""
    from fastswitch import pipeline, regular, singular
    from fastswitch.field import UGrid
    from conftest import PHI, make_model_a, make_pm_field

    calls = dict.fromkeys(["solve_Wk", "psi_k0", "averaged_flow_table", "solve_c0",
                           "solve_ck", "interp_apply", "initial_ck0",
                           "projected_frak_L_series", "renewal_resolvent"], 0)

    # the stencil gathers made within each transport solve
    gathers, solving = {"solve_c0": 0, "solve_ck": 0}, []

    def counted(module, attr):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            if attr == "interp_apply" and solving:
                gathers[solving[-1]] = gathers.get(solving[-1], 0) + 1
            solving.append(attr)
            try:
                return original(*args, **kwargs)
            finally:
                solving.pop()
        monkeypatch.setattr(module, attr, wrapper)

    for attr in ("solve_Wk", "averaged_flow_table", "solve_c0", "solve_ck", "initial_ck0",
                 "renewal_resolvent"):
        counted(pipeline, attr)
    counted(singular, "psi_k0")
    counted(regular, "interp_apply")
    counted(regular, "projected_frak_L_series")
    pipeline.build_expansion(make_model_a(), make_pm_field(UGrid(-6.0, 6.0, 65)), PHI,
                             order=2, horizon=0.5, h_t=0.01, h_tau=0.01)
    print(f"transport gathers: solve_c0 {gathers['solve_c0']}, "
          f"solve_ck {gathers['solve_ck'] // calls['solve_ck']} per order")
    assert calls.pop("interp_apply") == 1 + 3 * 2
    assert gathers == {"solve_c0": 1, "solve_ck": 3 * 2}
    assert calls.pop("initial_ck0") == 2
    assert calls == {"solve_Wk": 2, "psi_k0": 2, "averaged_flow_table": 1,
                     "solve_c0": 1, "solve_ck": 2, "projected_frak_L_series": 3,
                     "renewal_resolvent": 1}


def test_direct_oracle_flows_each_state_once(monkeypatch):
    """The march builds every state's flowed stencils once, through the oracle
    module attributes that the traced run wraps."""
    from fastswitch import oracle
    from conftest import PHI, make_mixed_model
    from fastswitch.field import StateVelocity, UGrid, VelocityField

    calls = dict.fromkeys(["flow_positions", "interp_weights"], 0)
    for attr in calls:
        original = getattr(oracle, attr)

        def wrapper(*args, _attr=attr, _original=original, **kwargs):
            calls[_attr] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(oracle, attr, wrapper)
    model = make_mixed_model()
    fld = VelocityField(UGrid(-6.0, 6.0, 65),
                        (StateVelocity("constant", value=1.0),
                         StateVelocity("constant", value=-1.0),
                         StateVelocity("linear", slope=0.05, intercept=0.3)))
    oracle.direct_solve_phi(model, fld, PHI, [0.5, 1.0], eps=0.2, h_s=0.05)
    assert calls == {"flow_positions": model.n_states, "interp_weights": model.n_states}


def test_mc_oracle_draws_one_stream_per_start_state(monkeypatch):
    """Every requested node of a start state rides that state's switching
    paths: one counter-based stream per start state, not one per node."""
    import numpy as np
    from fastswitch import oracle
    from conftest import PHI, make_mixed_model
    from fastswitch.field import StateVelocity, UGrid, VelocityField

    keys = []
    original = oracle._philox_stream

    def counted(*args):
        keys.append(args)
        return original(*args)
    monkeypatch.setattr(oracle, "_philox_stream", counted)
    model = make_mixed_model()
    grid = UGrid(-6.0, 6.0, 65)
    fld = VelocityField(grid, (StateVelocity("constant", value=1.0),
                               StateVelocity("constant", value=-1.0),
                               StateVelocity("linear", slope=0.05, intercept=0.3)))
    est = oracle.mc_expectation(model, fld, PHI, 0.5, 0.2, oracle.MIN_SAMPLES, seed=3,
                                u_indices=np.arange(0, grid.n_points, 8))
    assert est.values.shape == (model.n_states, 9)
    assert len(keys) == model.n_states
    assert sorted(k[1] for k in keys) == list(range(model.n_states))


def test_package_runs_without_scipy():
    """Importing scipy.sparse alone costs about 0.25 s and 22 MB of resident
    memory; neither the package import nor a direct solve may pull it in."""
    root = Path(__file__).resolve().parent.parent
    code = ("import sys\n"
            "import fastswitch\n"
            "from fastswitch.config import load_config\n"
            "from fastswitch.oracle import direct_solve_phi\n"
            f"cfg = load_config({str(root / 'configs' / 'model_a.json')!r})\n"
            "direct_solve_phi(cfg.model, cfg.field, cfg.phi, [0.5], eps=0.2, h_s=0.05)\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def load_worker():
    """perfbench/worker.py as a module (it imports tracing from its folder)."""
    spec = importlib.util.spec_from_file_location("perfbench_worker",
                                                  TRACING.parent / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


def test_workload_documents_load(monkeypatch):
    """Every benchmark workload's config, full size and tiny, passes the
    loader's key checks."""
    from fastswitch.config import config_from_document

    monkeypatch.syspath_prepend(str(TRACING.parent))
    worker = load_worker()
    for name in worker.WORKLOADS:
        for tiny in (False, True):
            config_from_document(worker.workload_document(name, 1, tiny=tiny))


def test_expand_passes_benchmark_output_check(tmp_path, monkeypatch):
    """The benchmark counts an expand whose outputs fail its check as a failed
    operation; a renamed diagnostics key or a broken c_0.csv fails here first."""
    import json
    from fastswitch.cli import main

    monkeypatch.syspath_prepend(str(TRACING.parent))   # worker imports tracing
    worker = load_worker()
    doc = worker.workload_document("expand-erlang", 1, tiny=True)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["expand", "--config", str(path), "--out", str(out)]) == 0
    problems, _ = worker.check_expand(out, doc)
    assert problems == []
