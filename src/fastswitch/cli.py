"""Command-line entry points: validate | expand | compare | report.

Exit codes: 0 success, 1 domain failure (invalid model, solver failure),
2 usage or config-parse failure.  Outputs are plain CSV and JSON written so
that identical configs and seeds reproduce identical bytes.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import remainder_compare
from .config import ConfigError, RunConfig, load_config
from .model import ModelError, validate_model
from .oracle import march_steps
from .pipeline import ExpansionResult, build_expansion


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_series_csv(path: Path, quantity: str, k: int, times: np.ndarray,
                      values: np.ndarray, t_stride: int, u_stride: int,
                      u_nodes: np.ndarray):
    # every time and u-node is formatted once; the values of each (time,
    # state) are one "%.17g" template, whose lines share the row's lead
    u_lines = [f"{_fmt(u)},%.17g\n" for u in u_nodes[::u_stride]]
    with open(path, "w") as fh:
        fh.write("quantity,k,time,state,u,value\n")
        for i in range(0, len(times), t_stride):
            time_lead = f"{quantity},{k},{_fmt(times[i])},"
            for x in range(values.shape[1]):
                lead = f"{time_lead}{x},"
                fh.write((lead + lead.join(u_lines))
                         % tuple(values[i, x, ::u_stride].tolist()))


def _floats(text: str) -> list:
    return [float(e) for e in text.split(",")]


def _load(args) -> RunConfig:
    # each flag is checked as the config key it sets
    return load_config(args.config, {"order": args.order, "epsilons": args.epsilon,
                                     "oracle": {"method": args.oracle, "seed": args.seed}})


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    diag = validate_model(cfg.model)
    print(f"row_sum_error_max: {diag.row_sum_errors.max():.3e}")
    print(f"irreducible: {diag.irreducible}")
    print(f"aperiodic: {diag.aperiodic}")
    print(f"positive_means: {diag.positive_means}")
    print(f"spectral_gap: {diag.spectral_gap:.6g}")
    print("cramer_margin: " + ", ".join(f"{c:.6g}" for c in diag.cramer_margin))
    for msg in diag.messages:
        print(f"note: {msg}")
    print(f"velocity_bound: {cfg.field.bound():.6g}")
    if diag.usable:
        print("model: usable")
        return 0
    print("model: NOT usable")
    return 1


def _expand(cfg: RunConfig) -> ExpansionResult:
    return build_expansion(cfg.model, cfg.field, cfg.phi, order=cfg.order,
                           horizon=cfg.horizon, h_t=cfg.h_t,
                           h_tau=cfg.h_tau, tau_max=cfg.tau_max)


def cmd_expand(args) -> int:
    cfg = _load(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        result = _expand(cfg)
    except Exception as exc:
        diag = validate_model(cfg.model)
        partial = {
            "error": str(exc),
            "model": {
                "row_sum_error_max": float(diag.row_sum_errors.max()),
                "irreducible": diag.irreducible,
                "aperiodic": diag.aperiodic,
                "messages": diag.messages,
            },
        }
        with open(out / "diagnostics.json", "w") as fh:
            json.dump(partial, fh, indent=2, sort_keys=True)
            fh.write("\n")
        raise
    u_nodes = cfg.field.grid.nodes
    ts, us = cfg.output.t_stride, cfg.output.u_stride
    for k in range(result.order + 1):
        _write_series_csv(out / f"c_{k}.csv", "c", k, result.times,
                          result.c[k].values[:, :1, :], ts, us, u_nodes)
        _write_series_csv(out / f"U_{k}.csv", "U", k, result.times,
                          result.U[k].values, ts, us, u_nodes)
        if k >= 1:
            _write_series_csv(out / f"W_{k}.csv", "W", k, result.tau_grid.nodes,
                              result.W[k].values, cfg.output.tau_stride, us, u_nodes)
    with open(out / "diagnostics.json", "w") as fh:
        json.dump(result.diagnostics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"expansion written to {out}")
    return 0


def cmd_compare(args) -> int:
    cfg = _load(args)
    if cfg.oracle.method == "direct":
        # an off-grid oracle time needs only the config to reject
        for eps in cfg.epsilons:
            march_steps(cfg.oracle.t_eval, eps, cfg.oracle.h_s, cfg.oracle.richardson)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = _expand(cfg)
    doc = remainder_compare(result, cfg)
    with open(out / "remainder.csv", "w") as fh:
        fh.write("eps,t,order,error,noise_floor,noise_limited\n")
        for r in doc["rows"]:
            fh.write(f"{_fmt(r['eps'])},{_fmt(r['t'])},{r['order']},"
                     f"{_fmt(r['error'])},{_fmt(r['noise_floor'])},"
                     f"{int(r['noise_limited'])}\n")
    with open(out / "slopes.csv", "w") as fh:
        fh.write("order,t,slope,status\n")
        for s in doc["slopes"]:
            slope_txt = _fmt(s["slope"]) if s["slope"] is not None else ""
            fh.write(f"{s['order']},{_fmt(s['t'])},{slope_txt},{s['status']}\n")
    with open(out / "plotdata.csv", "w") as fh:
        fh.write("log10_eps,log10_error,order,t\n")
        for r in doc["rows"]:
            if r["error"] > 0:
                fh.write(f"{_fmt(np.log10(r['eps']))},{_fmt(np.log10(r['error']))},"
                         f"{r['order']},{_fmt(r['t'])}\n")
    with open(out / "remainder.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"remainder report written to {out}")
    return 0


def cmd_report(args) -> int:
    out = Path(args.out)
    diag_path = out / "diagnostics.json"
    rem_path = out / "remainder.json"
    if not diag_path.exists() and not rem_path.exists():
        print("nothing to report: run expand and/or compare first", file=sys.stderr)
        return 1
    lines = []
    if diag_path.exists():
        with open(diag_path) as fh:
            diag = json.load(fh)
        lines.append("== expansion diagnostics ==")
        for key, val in sorted(diag.get("model", {}).items()):
            lines.append(f"model.{key}: {val}")
        for key, val in sorted(diag.get("operator", {}).items()):
            lines.append(f"operator.{key}: {val}")
        for k, entry in sorted(diag.get("orders", {}).items()):
            for key, val in sorted(entry.items()):
                lines.append(f"order{k}.{key}: {val}")
        lines.append("== adjudications ==")
        for key, val in sorted(diag.get("adjudications", {}).items()):
            lines.append(f"{key}: {val}")
    if rem_path.exists():
        with open(rem_path) as fh:
            rem = json.load(fh)
        lines.append("== remainder slopes ==")
        for s in rem["slopes"]:
            slope_txt = "n/a" if s["slope"] is None else f"{s['slope']:.3f}"
            lines.append(f"order {s['order']} @ t={s['t']}: slope {slope_txt} "
                         f"[{s['status']}]")
    text = "\n".join(lines) + "\n"
    with open(out / "summary.txt", "w") as fh:
        fh.write(text)
    print(text, end="")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fastswitch",
        description="Two-scale expansion of averaged fast-switching evolutions")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("validate", cmd_validate), ("expand", cmd_expand),
                     ("compare", cmd_compare), ("report", cmd_report)):
        p = sub.add_parser(name)
        if name != "report":
            p.add_argument("--config", required=True)
        p.add_argument("--out", default="out")
        if name in ("expand", "compare"):
            p.add_argument("--order", type=int, default=None)
            p.add_argument("--epsilon", type=_floats, default=None,
                           help="comma-separated epsilons, replacing the config's")
            p.add_argument("--oracle", choices=("direct", "mc"), default=None)
            p.add_argument("--seed", type=int, default=None)
        p.set_defaults(fn=fn)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ModelError, ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
