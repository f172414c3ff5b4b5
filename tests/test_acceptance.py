"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured numbers."""
import json
import time

import numpy as np

from fastswitch.cli import main
from fastswitch.field import StateVelocity, TestFunction, UGrid, VelocityField
from fastswitch.model import (SemiMarkovModel, SojournDistribution, generator,
                              semi_markov_stationary)
from fastswitch.operators import potential_build
from fastswitch.oracle import direct_solve_phi, mc_expectation
from fastswitch.pipeline import build_expansion

from conftest import GRID, PHI, make_model_a, make_model_b, make_pm_field, random_model


def _report(name: str, passed: bool, detail: str, t0: float):
    """The ACCEPTANCE line holds no wall-clock text, so that it compares
    across commits; the elapsed time goes on its own TIMING line."""
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {name}: {status} {detail}")
    print(f"TIMING {name}: {time.perf_counter() - t0:.1f}s")
    assert passed, detail


def test_criterion_1_operator_identities():
    """Projector/potential identities on 50 random models, n <= 20."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240811)
    worst = {"r0q": 0.0, "pir0": 0.0, "piq": 0.0, "pi2": 0.0}
    for _ in range(50):
        m = random_model(rng, n_max=20)
        pi, _ = semi_markov_stationary(m)
        Q = generator(m)
        pot = potential_build(Q, pi)
        n = m.n_states
        Pi = np.ones((n, 1)) @ pi[None, :]
        eye = np.eye(n)
        worst["r0q"] = max(worst["r0q"], np.abs(pot.R0 @ Q - (eye - Pi)).max(),
                           np.abs(Q @ pot.R0 - (eye - Pi)).max())
        worst["pir0"] = max(worst["pir0"], np.abs(Pi @ pot.R0).max(),
                            np.abs(pot.R0 @ Pi).max())
        worst["piq"] = max(worst["piq"], np.abs(pi @ Q).max())
        worst["pi2"] = max(worst["pi2"], np.abs(Pi @ Pi - Pi).max())
    elapsed = time.perf_counter() - t0
    ok = (worst["r0q"] < 1e-10 and worst["pir0"] < 1e-10
          and worst["piq"] < 1e-12 and worst["pi2"] < 1e-12 and elapsed < 5.0)
    _report("1 operator identities", ok,
            f"R0Q={worst['r0q']:.2e} PiR0={worst['pir0']:.2e} "
            f"piQ={worst['piq']:.2e} Pi2={worst['pi2']:.2e}", t0)


def test_criterion_2_exponential_special_case():
    """All-exponential sojourns: nu_1 = 0 exactly and c_1(0) = 0 to 1e-10."""
    t0 = time.perf_counter()
    grid = UGrid(-6.0, 6.0, 65)
    m = SemiMarkovModel(states=("a", "b", "c"),
                        P=[[0.0, 0.7, 0.3], [0.5, 0.0, 0.5], [0.4, 0.6, 0.0]],
                        sojourns=(SojournDistribution("exponential", rate=0.8),
                                  SojournDistribution("exponential", rate=1.5),
                                  SojournDistribution("exponential", rate=3.0)))
    fld = VelocityField(grid, (StateVelocity("constant", value=1.0),
                               StateVelocity("constant", value=-0.5),
                               StateVelocity("constant", value=0.25)))
    nu1 = m.nu_coefficients(1)
    res = build_expansion(m, fld, TestFunction("gaussian"), order=1,
                          horizon=0.5, h_t=0.005, h_tau=0.02)
    ck0_sup = float(np.abs(res.c[1].values[0, 0]).max())
    elapsed = time.perf_counter() - t0
    ok = bool(np.all(nu1 == 0.0)) and ck0_sup < 1e-10 and elapsed < 1.0
    _report("2 exponential degeneration", ok,
            f"nu1={nu1.tolist()} c1(0)sup={ck0_sup:.2e}", t0)


def test_criterion_3_deterministic_velocity_collapse():
    """State-independent velocity: corrections vanish and the order-0 error
    sits at the discretization floor for every epsilon."""
    t0 = time.perf_counter()
    m = SemiMarkovModel(states=("a", "b"), P=[[0.5, 0.5], [0.5, 0.5]],
                        sojourns=(SojournDistribution("exponential", rate=1.0),
                                  SojournDistribution("erlang", rate=2.0, shape=2)))
    fld = VelocityField(GRID, (StateVelocity("constant", value=0.7),
                               StateVelocity("constant", value=0.7)))
    res = build_expansion(m, fld, PHI, order=2, horizon=1.0, h_t=0.002, h_tau=0.02)
    sup_uw = max(res.diagnostics["orders"][k][key]
                 for k in (1, 2) for key in ("u_sup", "w_sup"))
    floor = 0.0
    for eps in (0.2, 0.1, 0.05):
        est = direct_solve_phi(m, fld, PHI, [1.0], eps, h_s=0.04)[0]
        floor = max(floor, float(np.abs(est.values - res.evaluate(eps, 1.0, order=0)).max()))
    elapsed = time.perf_counter() - t0
    ok = sup_uw < 5e-5 and floor < 1e-5 and elapsed < 30.0
    # the corrections are rounding noise here: print the bound they meet,
    # not digits that move with the last bit
    sup_txt = "<5e-05" if sup_uw < 5e-5 else f"={sup_uw:.2e}"
    _report("3 deterministic collapse", ok,
            f"max|U_k|,|W_k|{sup_txt} order-0 floor={floor:.2e}", t0)


def test_criterion_4_system_residuals(expansion_a):
    """Model A, N=2: order-k system residuals and boundary regularity."""
    t0 = time.perf_counter()
    worst_sys = max(expansion_a.diagnostics["orders"][k]["system15_residual"]
                    for k in (1, 2))
    worst_reg = max(expansion_a.diagnostics["orders"][k]["regularity_PI"]
                    for k in (1, 2))
    ok = worst_sys < 1e-5 and worst_reg < 1e-6 and time.perf_counter() - t0 < 60.0
    _report("4 system residuals", ok,
            f"system={worst_sys:.2e} regularity={worst_reg:.2e}", t0)


def test_criterion_5_remainder_order(expansion_a, expansion_b):
    """Log-log remainder slopes vs the direct oracle: >= N + 0.75 for N=0,1."""
    t0 = time.perf_counter()
    eps_list = (0.2, 0.1, 0.05, 0.025)
    detail = []
    ok = True
    for name, res, model, fld in (("A", expansion_a, make_model_a(), make_pm_field()),
                                  ("B", expansion_b, make_model_b(), make_pm_field())):
        errs = {(n, t): [] for n in (0, 1) for t in (0.5, 1.0)}
        for eps in eps_list:
            ests = direct_solve_phi(model, fld, PHI, [0.5, 1.0], eps, h_s=0.02)
            for est in ests:
                for n in (0, 1):
                    approx = res.evaluate(eps, est.t, order=n)
                    errs[(n, est.t)].append(float(np.abs(est.values - approx).max()))
        le = np.log(eps_list)
        for (n, t), e in sorted(errs.items()):
            slope = float(np.polyfit(le, np.log(e), 1)[0])
            detail.append(f"{name} N={n} t={t}: {slope:.2f}")
            if slope < n + 0.75:
                ok = False
    if time.perf_counter() - t0 >= 600.0:
        ok = False
    _report("5 remainder order", ok, "; ".join(detail), t0)


def test_remainder_inside_boundary_layer(expansion_a, expansion_b):
    """At t = eps*tau the layer terms W_k are O(1), so the slopes of
    criterion 5 must hold there too: >= N + 0.75 for N = 0, 1, 2."""
    eps_list = (0.2, 0.1, 0.05, 0.025)
    taus = (2.0, 4.0)
    for name, res, model in (("A", expansion_a, make_model_a()),
                             ("B", expansion_b, make_model_b())):
        errs = {(n, tau): [] for n in (0, 1, 2) for tau in taus}
        for eps in eps_list:
            ests = direct_solve_phi(model, make_pm_field(), PHI, [eps * tau for tau in taus],
                                    eps, h_s=0.02, richardson=True)
            for tau, est in zip(taus, ests):
                for n in (0, 1, 2):
                    approx = res.evaluate(eps, est.t, order=n)
                    errs[(n, tau)].append(float(np.abs(est.values - approx).max()))
        for (n, tau), e in sorted(errs.items()):
            slope = float(np.polyfit(np.log(eps_list), np.log(e), 1)[0])
            print(f"layer remainder {name} N={n} tau={tau}: slope {slope:.2f}")
            assert slope >= n + 0.75, f"{name} N={n} tau={tau}: slope {slope:.2f}"


def test_criterion_6_cross_oracle():
    """Monte Carlo with 1e5 replicates matches the direct solver within four
    standard errors (plus the direct solver's 1e-8 numeric floor)."""
    t0 = time.perf_counter()
    m = make_model_a()
    fld = make_pm_field()
    u_idx = np.arange(0, GRID.n_points, 16)
    mc = mc_expectation(m, fld, PHI, 1.0, 0.1, 100_000, seed=20240811,
                        u_indices=u_idx)
    direct = direct_solve_phi(m, fld, PHI, [1.0], 0.1, h_s=0.02)[0]
    gap = np.abs(mc.values - direct.values[:, u_idx]) - 4.0 * mc.stderr
    worst = float(gap.max())
    ok = bool(np.all(gap < 1e-8)) and time.perf_counter() - t0 < 300.0
    _report("6 cross-oracle agreement", ok,
            f"worst |diff|-4se={worst:.2e} (allow < 1e-8)", t0)


def test_criterion_7_boundary_layer_decay(expansion_a, expansion_b):
    """Layers decay below 1e-3 of their initial size with monotone tails."""
    t0 = time.perf_counter()
    detail = []
    ok = True
    for name, res in (("A", expansion_a), ("B", expansion_b)):
        for k in (1, 2):
            d = res.diagnostics["orders"][k]
            detail.append(f"{name} k={k}: ratio={d['w_decay_ratio']:.1e}"
                          f" monotone={d['w_monotone_tail']}")
            if d["w_decay_ratio"] >= 1e-3 or not d["w_monotone_tail"]:
                ok = False
    _report("7 boundary-layer decay", ok, "; ".join(detail), t0)


def test_criterion_8_determinism(tmp_path):
    """Identical config and seed reproduce byte-identical outputs."""
    t0 = time.perf_counter()
    doc = {
        "model": {"states": ["a", "b"],
                  "transitions": [[0.0, 1.0], [1.0, 0.0]],
                  "sojourns": [{"family": "exponential", "rate": 1.0},
                               {"family": "erlang", "shape": 2, "rate": 2.0}]},
        "velocity": [{"kind": "constant", "value": 1.0},
                     {"kind": "constant", "value": -1.0}],
        "test_function": {"kind": "gaussian", "center": 0.0, "width": 1.0},
        "grid": {"u_min": -6.0, "u_max": 6.0, "n_points": 65},
        "time": {"horizon": 0.5, "h_t": 0.005},
        "layer": {"h_tau": 0.02, "tau_max": 16.0},
        "order": 1,
        "epsilons": [0.2, 0.1],
        "oracle": {"method": "mc", "n_samples": 2000, "seed": 7,
                   "h_s": 0.05, "u_stride": 8, "t_eval": [0.25, 0.5]},
        "output": {"t_stride": 20, "tau_stride": 100, "u_stride": 4},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    digests = []
    for run in ("one", "two"):
        out = tmp_path / run
        assert main(["expand", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        blob = b"".join(sorted(p.read_bytes() for p in out.iterdir()))
        digests.append(blob)
    ok = digests[0] == digests[1]
    # a file count, not a byte count: the bytes follow the repr length of
    # rounding-level values
    n_files = len(list(out.iterdir()))
    _report("8 determinism", ok, f"{n_files} files {'identical' if ok else 'differ'}", t0)
