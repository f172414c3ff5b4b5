"""Remainder measurement: compare the truncated expansion against an oracle
over an epsilon ladder and fit the observed convergence order."""
from __future__ import annotations

import numpy as np

from .config import RunConfig
from .oracle import direct_solve_phi, mc_expectation
from .pipeline import ExpansionResult


def _oracle_estimates(cfg: RunConfig, eps: float):
    if cfg.oracle.method == "direct":
        return direct_solve_phi(cfg.model, cfg.field, cfg.phi, cfg.oracle.t_eval,
                                eps, h_s=cfg.oracle.h_s,
                                richardson=cfg.oracle.richardson)
    u_idx = np.arange(0, cfg.field.grid.n_points, cfg.oracle.u_stride)
    return [mc_expectation(cfg.model, cfg.field, cfg.phi, t, eps, cfg.oracle.n_samples,
                           cfg.oracle.seed, u_indices=u_idx) for t in cfg.oracle.t_eval]


def remainder_compare(result: ExpansionResult, cfg: RunConfig) -> dict:
    """Sup-norm remainder of every truncation order at the evaluation times,
    for each epsilon, plus fitted log-log slopes, as the document
    {"rows": [...], "slopes": [...]} that compare writes.  A row below 4 times
    the oracle's largest stderr is oracle-limited and left out of the fit."""
    rows = []
    for eps in cfg.epsilons:
        for est in _oracle_estimates(cfg, eps):
            noise = float(4.0 * est.stderr.max())
            for n_prime in range(result.order + 1):
                approx = result.evaluate(eps, est.t, order=n_prime)
                diff = est.values - approx[:, est.u_indices]
                err = float(np.abs(diff).max())
                rows.append({"eps": eps, "t": float(est.t), "order": n_prime, "error": err,
                             "noise_floor": noise, "noise_limited": err < noise})
    slopes = []
    for n_prime in range(result.order + 1):
        for t in sorted({row["t"] for row in rows}):
            pts = np.array([(row["eps"], row["error"]) for row in rows
                            if row["order"] == n_prime and row["t"] == t
                            and not row["noise_limited"] and row["error"] > 0]).reshape(-1, 2)
            slope = float(np.polyfit(*np.log(pts.T), 1)[0]) if len(pts) >= 2 else None
            slopes.append({"order": n_prime, "t": t, "slope": slope,
                           "status": "ok" if slope is not None else "oracle-limited"})
    return {"rows": rows, "slopes": slopes}
