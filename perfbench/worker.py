"""One fresh benchmark process: set up, and with --op perform one operation.

    python3 perfbench/worker.py --workload NAME --seed N --spawned T --work DIR
        [--op] [--trace] [--spans FILE] [--tiny] [--corrupt]

Set-up is what every ``fastswitch`` command pays before its real work:
import the package, load the config, validate the model and build the
operator kit.  The operation is ``cli.cmd_expand`` or ``cli.cmd_compare`` on
that config, called as the command line calls it.  Afterwards, outside every
timed region, the worker checks the outputs.  It prints one JSON object as
the last line of its standard output.

--spawned is the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is shared by all processes), so set-up time counts
interpreter start-up too.  --tiny shrinks every size for the benchmark's own
tests; --corrupt shifts by 1e-3 what the checks test, which they must catch:
the built c_0 on expand-erlang, every oracle value on the compare workloads.
"""
from __future__ import annotations

import argparse
import gzip
import json
import resource
import sys
import time
from pathlib import Path

from tracing import END_TO_END_PATCHES, LAYER_PATCHES, Tracer

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("expand-erlang", "compare-direct", "compare-mc-mixed")

# Layers that run on every workload report self seconds; layers that run on
# only some report a share, so that no reported time is zero by design.
TIMED_LAYERS = (
    "singular.solve_Wk", "singular.initial_ck0",
    "regular.solve_ck", "regular.averaged_flow_table", "regular.solve_c0",
    "regular.system_rhs_values", "regular.transport_sources",
    "operators.build_kit", "operators.L_series_values",
    "operators.projected_frak_L_series",
    "field.flow_positions", "field.interp_weights", "field.interp_apply",
    "config.load_config", "model.validate_model", "pipeline.build_expansion",
)
CORRUPTION = 1e-3


def _mixed_model_document() -> dict:
    """Three states, mixed sojourn families (one with a kinked kernel) and
    non-constant velocities."""
    with open(ROOT / "configs" / "model_a.json") as fh:
        doc = json.load(fh)
    doc["model"] = {
        "states": ["a", "b", "c"],
        "transitions": [[0.0, 0.6, 0.4], [0.5, 0.0, 0.5], [0.3, 0.7, 0.0]],
        "sojourns": [{"family": "exponential", "rate": 1.5},
                     {"family": "erlang", "shape": 2, "rate": 2.0},
                     {"family": "uniform", "a": 0.2, "b": 1.2}],
    }
    doc["velocity"] = [{"kind": "linear", "slope": -0.1, "intercept": 1.0},
                       {"kind": "constant", "value": -1.0},
                       {"kind": "linear", "slope": 0.05, "intercept": 0.3}]
    return doc


def workload_document(name: str, seed: int, tiny: bool = False) -> dict:
    """The run config for a workload.  The seed sets only the Gaussian test
    function's centre and the Monte Carlo seed; every size is fixed, so a run
    costs the same on every seed."""
    import numpy as np

    if name == "expand-erlang":
        with open(ROOT / "configs" / "model_b.json") as fh:
            doc = json.load(fh)
        # the coarsest steps at which every order-2 check still passes
        doc.update(order=2, time={"horizon": 1.0, "h_t": 0.004},
                   layer={"h_tau": 0.01, "tau_max": None})
    elif name == "compare-direct":
        with open(ROOT / "configs" / "model_a.json") as fh:
            doc = json.load(fh)
        doc.update(order=1, epsilons=[0.2, 0.1, 0.05],
                   time={"horizon": 1.0, "h_t": 0.004},
                   layer={"h_tau": 0.02, "tau_max": None})
        doc["grid"]["n_points"] = 129
        # h_s = 0.05 puts t_eval on the march grid for every epsilon
        doc["oracle"].update(method="direct", h_s=0.05, t_eval=[0.5, 1.0])
    elif name == "compare-mc-mixed":
        doc = _mixed_model_document()
        doc.update(order=1, epsilons=[0.2, 0.1],
                   time={"horizon": 1.0, "h_t": 0.004},
                   layer={"h_tau": 0.02, "tau_max": None})
        doc["grid"]["n_points"] = 129
        doc["oracle"].update(method="mc", n_samples=20000, u_stride=16, t_eval=[1.0])
    else:
        raise ValueError(f"unknown workload {name!r}")
    doc["test_function"] = {"kind": "gaussian", "width": 1.0,
                            "center": float(np.random.default_rng(seed).uniform(-0.5, 0.5))}
    doc["oracle"]["seed"] = int(seed)
    if tiny:
        doc.update(order=1, time={"horizon": 1.0, "h_t": 0.01},
                   layer={"h_tau": 0.05, "tau_max": None})
        doc["grid"]["n_points"] = 65
        doc["epsilons"] = doc["epsilons"][:2]
        doc["oracle"].update(h_s=0.1, n_samples=2000)
    return doc


def operations(doc: dict, name: str) -> int:
    """Operations one run of the workload attempts: the build, plus one oracle
    call per epsilon."""
    return 1 if name == "expand-erlang" else 1 + len(doc["epsilons"])


# -- output checks -----------------------------------------------------------------


def check_expand(out: Path, doc: dict) -> tuple[list, dict]:
    """Acceptance criteria 4 and 7 on every order, the layer-window tail
    bound, and the written c_0 against its closed form."""
    with open(out / "diagnostics.json") as fh:
        orders = json.load(fh)["orders"]
    problems = []
    # cubic Lagrange interpolation of a unit Gaussian errs by at most
    # (9/16)/24 * max|phi''''| * h^4 = 0.07 h^4 on an interior stencil
    grid = doc["grid"]
    h = (grid["u_max"] - grid["u_min"]) / (grid["n_points"] - 1)
    c0_err = c0_error(out / "c_0.csv", doc)
    if not c0_err < 0.1 * h**4:
        problems.append(f"c_0.csv differs from its closed form by {c0_err:.3e}")
    for k, d in sorted(orders.items()):
        limits = (("system15_residual", 1e-5), ("regularity_PI", 1e-6),
                  ("regularity_I_minus_Pi", 1e-6), ("w_decay_ratio", 1e-3),
                  ("ck0_tail_bound", 1e-6))
        for key, limit in limits:
            if not d[key] < limit:
                problems.append(f"order {k}: {key} {d[key]:.3e} >= {limit:.0e}")
        if not d["w_monotone_tail"]:
            problems.append(f"order {k}: layer tail not monotone")
    residual = max(d["system15_residual"] for d in orders.values())
    return problems, {"residual_max": residual}


def c0_error(path: Path, doc: dict) -> float:
    """Largest gap between c_0 as written and phi(u + vhat t), its exact value
    for two alternating states with constant velocities: the averaged velocity
    vhat weights each state's velocity by its mean sojourn."""
    import numpy as np

    means = [s["shape"] / s["rate"] for s in doc["model"]["sojourns"]]
    vhat = sum(m * v["value"] for m, v in zip(means, doc["velocity"])) / sum(means)
    tf = doc["test_function"]
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(2, 4, 5), ndmin=2)
    t, u, value = data.T
    exact = np.exp(-0.5 * ((u + vhat * t - tf["center"]) / tf["width"]) ** 2)
    return float(np.abs(value - exact).max())


def check_compare_direct(out: Path, doc: dict) -> tuple[list, dict]:
    """Acceptance criterion 5: remainder slope >= N + 0.75 for N = 0, 1 at
    every evaluation time."""
    with open(out / "remainder.json") as fh:
        rem = json.load(fh)
    problems = []
    for s in rem["slopes"]:
        if s["order"] <= 1 and (s["slope"] is None or s["slope"] < s["order"] + 0.75):
            problems.append(f"N={s['order']} t={s['t']:.3g}: slope {s['slope']}")
    eps_min = min(doc["epsilons"])
    n1 = max(r["error"] for r in rem["rows"] if r["order"] == 1 and r["eps"] == eps_min)
    return problems, {"remainder_n1": n1}


def check_compare_mc(oracle_calls: list, cfg) -> tuple[list, dict]:
    """Acceptance criterion 6: |MC - direct| - 4 stderr < 1e-8 at eps 0.2,
    against a direct solve made here, outside the timed run."""
    from fastswitch.oracle import direct_solve_phi

    problems = []
    for eps, ests in oracle_calls:
        if eps != 0.2:
            continue
        for est in ests:
            direct = direct_solve_phi(cfg.model, cfg.field, cfg.phi, [est.t], eps, h_s=0.02)[0]
            gap = abs(est.values - direct.values[:, est.u_indices]) - 4.0 * est.stderr
            if not gap.max() < 1e-8:
                problems.append(f"eps {eps} t {est.t:.3g}: |MC-direct|-4se = {gap.max():.3e}")
    stderr = max(float(est.stderr.max()) for _, ests in oracle_calls for est in ests)
    return problems, {"mc_stderr_max": stderr}


# -- the process ---------------------------------------------------------------


def reference_s() -> float:
    """Duration of a fixed NumPy workload that uses no fastswitch code: history
    sums over arrays larger than a core's L2 cache, then many small gathers.
    Timed just before and just after each operation, it measures how fast the
    machine runs at that moment. Dividing by it cancels most of a shared
    host's speed swings, which can reach a factor of two within seconds."""
    import numpy as np

    rng = np.random.default_rng(0)
    hist = rng.random((2, 1200, 257))
    w = rng.random(1200)
    v = rng.random(129)
    idx = rng.integers(0, 129, (129, 4))
    t0 = time.perf_counter()
    for i in range(1, 1200):
        for x in range(2):
            w[i:0:-1] @ hist[x, :i]
    for _ in range(3000):
        (v[idx] * 0.25).sum(axis=-1)
    return time.perf_counter() - t0


def layer_metrics(tracer: Tracer, st: dict, run_s: float, expand_s: float,
                  captured: dict, bytes_written: int, cmd_span: str) -> dict:
    """The per-layer metrics of one traced operation; st is tracer.self_times()."""

    def self_s(name):
        return st.get(name, (0.0, 0))[0]

    out = {f"{n}_s": self_s(n) for n in TIMED_LAYERS}
    out["cli.write_s"] = self_s(cmd_span)
    out["trace.unattributed_s"] = self_s("setup") + self_s("run")
    singular = sum(v[0] for k, v in st.items() if k.startswith("singular."))
    oracle = sum(v[0] for k, v in st.items() if k.startswith("oracle."))
    out["singular.self_share"] = singular / expand_s
    out["singular.psi_k0_share"] = self_s("singular.psi_k0") / expand_s
    out["oracle.self_share"] = oracle / run_s
    out["oracle.direct_solve_phi_share"] = self_s("oracle.direct_solve_phi") / run_s
    out["oracle.mc_expectation_share"] = self_s("oracle.mc_expectation") / run_s
    out["analysis.remainder_compare_share"] = self_s("analysis.remainder_compare") / run_s
    mc_s = tracer.total("oracle.mc_expectation")
    out["singular.n_tau"] = captured["n_tau"]
    out["field.interp_apply_calls"] = st.get("field.interp_apply", (0.0, 0))[1]
    out["oracle.direct_steps"] = captured["direct_steps"]
    out["oracle.mc_paths"] = captured["mc_paths"]
    out["oracle.mc_paths_per_s"] = captured["mc_paths"] / mc_s if mc_s > 0 else 0.0
    out["cli.bytes_written"] = bytes_written
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--op", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args(argv)
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{work.name}")

    # -- set-up: everything a command does before its real work
    setup = tracer.open("setup")
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from fastswitch import analysis, cli, config, model, operators, oracle, pipeline, regular, singular

    doc = workload_document(args.workload, args.seed, args.tiny)
    cfg_path = work / "config.json"
    with open(cfg_path, "w") as fh:
        json.dump(doc, fh)
    cfg = tracer.call("config.load_config", config.load_config, cfg_path)
    diag = tracer.call("model.validate_model", model.validate_model, cfg.model)
    if not diag.usable:
        raise SystemExit(f"workload model is not usable: {diag.messages}")
    tracer.call("operators.build_kit", operators.build_kit, cfg.model, cfg.field)
    tracer.close(setup)
    setup_s = time.monotonic() - args.spawned
    result = {"kind": "setup", "setup_s": setup_s, "numpy": np.__version__}
    if not args.op:
        print(json.dumps(result))
        return 0

    # -- the operation
    captured = {"n_tau": 0, "oracle": [], "direct_steps": 0, "mc_paths": 0}

    def after_build(res, a, kw):
        captured["n_tau"] = res.tau_grid.n_tau
        if args.corrupt and args.workload == "expand-erlang":
            res.c[0].values += CORRUPTION
        return res

    def after_oracle(res, a, kw):
        ests = res if isinstance(res, list) else [res]
        if args.corrupt:
            for est in ests:
                est.values = est.values + CORRUPTION
        eps = a[4]
        captured["oracle"].append((eps, ests))
        if "h_s" in kw:
            captured["direct_steps"] += round(max(a[3]) / (eps * kw["h_s"]))
        else:
            captured["mc_paths"] += sum(e.n_samples * e.values.size for e in ests)
        return res

    modules = {m.__name__: m for m in (analysis, cli, config, model, operators,
                                       oracle, pipeline, regular, singular)}
    hooks = {"pipeline.build_expansion": after_build,
             "oracle.direct_solve_phi": after_oracle, "oracle.mc_expectation": after_oracle}
    for mod, attr, name in (LAYER_PATCHES if args.trace else END_TO_END_PATCHES):
        tracer.patch(modules[mod], attr, name, hooks.get(name))

    out = work / "out"
    cmd = cli.cmd_expand if args.workload == "expand-erlang" else cli.cmd_compare
    cmd_span = f"cli.{cmd.__name__}"
    ns = argparse.Namespace(config=str(cfg_path), out=str(out), order=None,
                            epsilon=None, oracle=None, seed=None)
    attempted = operations(doc, args.workload)
    errors = []
    ref_before = reference_s()
    run = tracer.open("run")
    try:
        code = tracer.call(cmd_span, cmd, ns)
        if code != 0:
            errors.append(f"{cmd_span} returned {code}")
    except Exception as exc:  # the failure is reported and counted, never retried
        errors.append(f"{type(exc).__name__}: {exc}")
    finally:
        tracer.close(run)
    completed = not errors
    run_s = run[2] - run[1]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.restore()
    ref_after = reference_s()

    # -- checks, outside every timed region
    failed = 0 if completed else attempted
    accuracy = {}
    if completed:
        if args.workload == "expand-erlang":
            problems, accuracy = check_expand(out, doc)
            failed = 1 if problems else 0
        elif args.workload == "compare-direct":
            problems, accuracy = check_compare_direct(out, doc)
            failed = attempted if problems else 0
        else:
            problems, accuracy = check_compare_mc(captured["oracle"], cfg)
            failed = 1 if problems else 0
        errors.extend(problems)
    bytes_written = sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0

    expand_s = tracer.total("pipeline.build_expansion")
    result.update(kind="op", traced=args.trace, completed=completed, run_s=run_s,
                  expand_s=expand_s, ref_s=(ref_before + ref_after) / 2,
                  oracle_s=tracer.total("oracle.direct_solve_phi")
                  + tracer.total("oracle.mc_expectation"),
                  peak_rss_mb=peak_rss_mb, attempted=attempted, failed=failed,
                  errors=errors, accuracy=accuracy)
    if args.trace and completed:
        st = tracer.self_times()
        wall = sum(s[2] - s[1] for s in tracer.spans if s[3] < 0)
        result["layers"] = layer_metrics(tracer, st, run_s, expand_s, captured,
                                         bytes_written, cmd_span)
        result["self_times"] = {k: v[0] for k, v in sorted(st.items())}
        result["closure_error_s"] = sum(v[0] for v in st.values()) - wall
        result["traced_wall_s"] = wall
        if args.spans:
            with gzip.open(args.spans, "wt") as fh:
                json.dump(tracer.records(), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
