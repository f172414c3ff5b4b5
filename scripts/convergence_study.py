#!/usr/bin/env python3
"""Remainder convergence study: sup-norm error of each truncation order
against the deterministic oracle, with fitted log-log slopes.

Usage: python scripts/convergence_study.py [--config configs/model_a.json]
"""
import argparse

from fastswitch.analysis import remainder_compare
from fastswitch.config import load_config
from fastswitch.pipeline import build_expansion


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", default="configs/model_a.json")
    ap.add_argument("--order", type=int, default=None)
    args = ap.parse_args()

    cfg = load_config(args.config)
    order = cfg.order if args.order is None else args.order
    res = build_expansion(cfg.model, cfg.field, cfg.phi, order=order,
                          horizon=cfg.horizon, h_t=cfg.h_t,
                          h_tau=cfg.h_tau, tau_max=cfg.tau_max)
    doc = remainder_compare(res, cfg)

    print(f"{'eps':>8} {'t':>5} {'N':>2} {'error':>12}")
    for row in doc["rows"]:
        print(f"{row['eps']:8.3f} {row['t']:5.2f} {row['order']:2d} "
              f"{row['error']:12.4e}")
    print("\nfitted slopes (target N + 1):")
    for s in doc["slopes"]:
        slope = "n/a" if s["slope"] is None else f"{s['slope']:6.3f}"
        floor = "  [discretization floor]" if s["discretization_floor"] else ""
        print(f"  N={s['order']} t={s['t']}: {slope}{floor}")


if __name__ == "__main__":
    main()
