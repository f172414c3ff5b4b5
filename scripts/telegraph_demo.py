#!/usr/bin/env python3
"""Build the two-state telegraph expansion and print its diagnostics.

Usage: python scripts/telegraph_demo.py [--order N] [--erlang]
"""
import argparse

from fastswitch.field import StateVelocity, TestFunction, UGrid, VelocityField
from fastswitch.model import SemiMarkovModel, SojournDistribution
from fastswitch.pipeline import MAX_ORDER, build_expansion


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--order", type=int, default=2)
    ap.add_argument("--erlang", action="store_true",
                    help="erlang(2) sojourns instead of exponential")
    args = ap.parse_args()
    if not 0 <= args.order <= MAX_ORDER:
        ap.error(f"--order {args.order} outside the supported range 0..{MAX_ORDER}")

    if args.erlang:
        sojourns = (SojournDistribution("erlang", rate=1.0, shape=2),
                    SojournDistribution("erlang", rate=2.0, shape=2))
    else:
        sojourns = (SojournDistribution("exponential", rate=1.0),
                    SojournDistribution("exponential", rate=2.0))
    model = SemiMarkovModel(states=("up", "down"), P=[[0.0, 1.0], [1.0, 0.0]],
                            sojourns=sojourns)
    grid = UGrid(-8.0, 8.0, 257)
    fld = VelocityField(grid, (StateVelocity("constant", value=1.0),
                               StateVelocity("constant", value=-1.0)))
    res = build_expansion(model, fld, TestFunction("gaussian"), order=args.order)

    print(f"pi = {res.kit.pi},  m_hat = {res.kit.m_hat:.4f},  "
          f"vhat = {res.kit.vhat.values[0, 0]:.4f}")
    for k in range(1, args.order + 1):
        d = res.diagnostics["orders"][k]
        print(f"order {k}: |U_k|={d['u_sup']:.4f}  |W_k|={d['w_sup']:.4f}  "
              f"|c_k(0)|={d['ck0_sup']:.4f}  decay={d['w_decay_ratio']:.2e}  "
              f"system residual={d['system15_residual']:.2e}")
    tau = res.tau_grid.nodes
    prof = res.W[1].sup_profile()
    print("\nfirst-layer sup profile:")
    for frac in (0.0, 0.05, 0.1, 0.2, 0.4, 1.0):
        i = int(frac * (len(tau) - 1))
        print(f"  tau={tau[i]:8.3f}   |W_1| = {prof[i]:.3e}")


if __name__ == "__main__":
    main()
