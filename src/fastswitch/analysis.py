"""Remainder measurement: compare the truncated expansion against an oracle
over an epsilon ladder and fit the observed convergence order."""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .config import RunConfig
from .oracle import direct_solve_phi, mc_expectation
from .pipeline import ExpansionResult

FLOOR_LEVEL = 1e-5


@dataclass
class RemainderRow:
    eps: float
    t: float
    order: int
    error: float
    noise_floor: float
    noise_limited: bool


@dataclass
class RemainderReport:
    rows: list = dc_field(default_factory=list)
    slopes: dict = dc_field(default_factory=dict)   # (order, t) -> slope or None
    floor_flags: dict = dc_field(default_factory=dict)

    def slope(self, order: int, t: float):
        return self.slopes.get((order, float(t)))


def _oracle_estimates(cfg: RunConfig, eps: float):
    if cfg.oracle.method == "direct":
        return direct_solve_phi(cfg.model, cfg.field, cfg.phi, cfg.oracle.t_eval,
                                eps, h_s=cfg.oracle.h_s,
                                richardson=cfg.oracle.richardson)
    ests = []
    u_idx = np.arange(0, cfg.grid.n_points, cfg.oracle.u_stride)
    for t in cfg.oracle.t_eval:
        ests.append(mc_expectation(cfg.model, cfg.field, cfg.phi, t, eps,
                                   cfg.oracle.n_samples, cfg.oracle.seed,
                                   u_indices=u_idx))
    return ests


def remainder_compare(result: ExpansionResult, cfg: RunConfig) -> RemainderReport:
    """Sup-norm remainder of every truncation order at the evaluation times,
    for each epsilon, plus fitted log-log slopes."""
    report = RemainderReport()
    for eps in cfg.epsilons:
        for est in _oracle_estimates(cfg, eps):
            noise = float(4.0 * est.stderr.max()) if est.method == "monte_carlo" else 0.0
            for n_prime in range(result.order + 1):
                approx = result.evaluate(eps, est.t, order=n_prime)
                diff = est.values - approx[:, est.u_indices]
                err = float(np.abs(diff).max())
                report.rows.append(RemainderRow(
                    eps=eps, t=float(est.t), order=n_prime, error=err,
                    noise_floor=noise,
                    noise_limited=bool(noise > 0 and err < noise)))
    t_values = sorted({row.t for row in report.rows})
    for n_prime in range(result.order + 1):
        for t in t_values:
            pts = [(row.eps, row.error) for row in report.rows
                   if row.order == n_prime and row.t == t and not row.noise_limited
                   and row.error > 0]
            if len(pts) >= 2:
                x = np.log([p[0] for p in pts])
                y = np.log([p[1] for p in pts])
                report.slopes[(n_prime, t)] = float(np.polyfit(x, y, 1)[0])
            else:
                report.slopes[(n_prime, t)] = None
            errs = [row.error for row in report.rows
                    if row.order == n_prime and row.t == t]
            report.floor_flags[(n_prime, t)] = bool(errs and max(errs) < FLOOR_LEVEL)
    return report


def report_to_dicts(report: RemainderReport) -> dict:
    rows = [{"eps": r.eps, "t": r.t, "order": r.order, "error": r.error,
             "noise_floor": r.noise_floor, "noise_limited": r.noise_limited}
            for r in report.rows]
    slopes = [{"order": k[0], "t": k[1],
               "slope": v, "status": "ok" if v is not None else "MC-noise-limited",
               "discretization_floor": report.floor_flags.get(k, False)}
              for k, v in sorted(report.slopes.items())]
    return {"rows": rows, "slopes": slopes}
