"""Benchmark of fastswitch's expansion builds and its two oracles.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Closed loop, one client: one
operation at a time, each in a fresh worker process (perfbench/worker.py), so
set-up time and peak memory are per operation.  A run first starts SETUPS
set-up-only workers, then performs operations until --seconds have passed.
Every worker gets BLAS_THREADS BLAS/OpenMP threads.

With --trace 0 the last line of standard output is the end-to-end result;
with --trace 1 the run alternates untraced and traced operations and the
last line gives the per-layer numbers of the traced ones, plus the tracing
overhead.  The lines before it print every metric that applies to the
workload by name and unit.  A JSON record of the run, and the spans of each
traced operation, go to perfbench/results/.
"""
from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS, operations, workload_document

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
DEADLINE_S = 170.0  # a run must end within 180 s

# run_rel and expand_rel are run_s and expand_s over the reference kernel's
# duration around the same operation (worker.reference_s)
END_TO_END_UNITS = {"run_rel": "ratio", "expand_rel": "ratio", "peak_rss_mb": "MB",
                    "setup_s": "s"}
# printed for the workloads they apply to; not in the final JSON line
EXTRA_UNITS = {"run_s": "s", "expand_s": "s", "ref_s": "s", "oracle_s": "s",
               "fail_frac": "ratio", "residual_max": "1", "remainder_n1": "1",
               "mc_stderr_max": "1"}


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    if name == "cli.bytes_written":
        return "bytes"
    return "count"


def _spawn(args, work: Path, env: dict, deadline: float, op: bool, trace: bool,
           spans: Path | None = None) -> dict:
    """Start one worker, wait for it and return its JSON result, or a record
    of why it produced none."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--work", str(work)]
    cmd += ["--op"] if op else []
    cmd += ["--trace"] if trace else []
    cmd += ["--spans", str(spans)] if spans else []
    cmd += ["--tiny"] if args.tiny else []
    cmd += ["--corrupt"] if args.corrupt else []
    spawned = time.monotonic()
    cmd += ["--spawned", repr(spawned)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        return {"kind": "broken", "error": "worker timed out"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"kind": "broken", "error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"kind": "broken", "error": f"no result line: {lines[-1][:200]}"}


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _print_metric(name: str, values: list, unit: str) -> None:
    med = statistics.median(values)
    q1, q3 = _quartiles(values)
    print(f"  {name:40s} {med:<14.6g} {unit:6s} median of {len(values)}; q1 {q1:.6g} q3 {q3:.6g}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes, for the benchmark's own tests")
    ap.add_argument("--corrupt", action="store_true",
                    help="shift what the output checks test by 1e-3; they must then fail")
    args = ap.parse_args(argv)
    start = time.monotonic()
    deadline = start + DEADLINE_S
    for needed in (ROOT / "src" / "fastswitch" / "__init__.py",
                   ROOT / "configs" / "model_a.json", ROOT / "configs" / "model_b.json"):
        if not needed.is_file():
            print(f"benchmark: {needed.relative_to(ROOT)} is missing; run from a "
                  "fastswitch source checkout", file=sys.stderr)
            return 2

    env = dict(os.environ)
    env.update({v: str(BLAS_THREADS) for v in THREAD_VARS})
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = HERE / "work" / tag
    results = HERE / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        setups = [_spawn(args, work, env, deadline, op=False, trace=False)
                  for _ in range(SETUPS)]
        broken = [s for s in setups if s["kind"] != "setup"]
        if broken:
            print(f"benchmark: set-up failed: {broken[0]['error']}", file=sys.stderr)
            return 1
        ops = []
        traced_next = False
        while True:
            t_op = time.monotonic()
            spans = results / f"{tag}-spans{len(ops)}.json.gz" if traced_next else None
            ops.append(_spawn(args, work, env, deadline, op=True, trace=traced_next,
                              spans=spans))
            now = time.monotonic()
            kinds = {o.get("traced") for o in ops if o["kind"] == "op"}
            if now - start >= args.seconds and (args.trace == 0 or kinds == {False, True}):
                break
            if now + (now - t_op) > deadline:
                break
            traced_next = bool(args.trace) and not traced_next
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [o for o in ops if o["kind"] == "op" and not o["traced"] and o["completed"]]
    traced = [o for o in ops if o["kind"] == "op" and o["traced"] and "layers" in o]
    # a worker that broke before reporting failed every operation it attempted
    per_op = operations(workload_document(args.workload, args.seed, args.tiny), args.workload)
    attempted = sum(o["attempted"] if o["kind"] == "op" else per_op for o in ops)
    failed = sum(o["failed"] if o["kind"] == "op" else per_op for o in ops)
    for o in ops:
        for err in o["errors"] if o["kind"] == "op" else [o["error"]]:
            print(f"# failed: {err}", file=sys.stderr)
    if not plain or (args.trace and not traced):
        print("benchmark: no operation completed; see the errors above", file=sys.stderr)
        return 1

    numpy_version = setups[0]["numpy"]
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: {len(ops)} operations ({len(traced)} traced), "
          f"{SETUPS} extra set-ups, {time.monotonic() - start:.1f} s wall")
    print(f"# nproc {os.cpu_count()} blas_threads {BLAS_THREADS} python "
          f"{platform.python_version()} numpy {numpy_version}")
    series = {
        "run_rel": [o["run_s"] / o["ref_s"] for o in plain],
        "expand_rel": [o["expand_s"] / o["ref_s"] for o in plain],
        "peak_rss_mb": [o["peak_rss_mb"] for o in plain],
        "setup_s": [w["setup_s"] for w in setups + ops if "setup_s" in w],
        "run_s": [o["run_s"] for o in plain],
        "expand_s": [o["expand_s"] for o in plain],
        "ref_s": [o["ref_s"] for o in plain],
    }
    if args.workload != "expand-erlang":
        series["oracle_s"] = [o["oracle_s"] for o in plain]
    for key in ("residual_max", "remainder_n1", "mc_stderr_max"):
        vals = [o["accuracy"][key] for o in plain if key in o["accuracy"]]
        if vals:
            series[key] = vals
    print("# end-to-end (untraced operations)")
    for name, vals in series.items():
        _print_metric(name, vals, END_TO_END_UNITS.get(name) or EXTRA_UNITS[name])
    print(f"  {'fail_frac':40s} {failed / attempted:<14.6g} ratio  "
          f"{failed} failed of {attempted} operations")

    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if args.trace == 0:
        metrics = {name: {"value": statistics.median(series[name]), "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    else:
        layers = {k: statistics.median(o["layers"][k] for o in traced)
                  for k in traced[0]["layers"]}
        layers["trace.overhead_s"] = (statistics.median(o["run_s"] for o in traced)
                                      - statistics.median(series["run_s"]))
        print("# per-layer (traced operations; self time unless a share)")
        for name in sorted(layers):
            print(f"  {name:40s} {layers[name]:<14.6g} {_unit(name)}")
        closure = max(abs(o["closure_error_s"]) for o in traced)
        print(f"# self times + unattributed = traced wall time to within {closure:.3g} s")
        self_table = {k: statistics.median(o["self_times"].get(k, 0.0) for o in traced)
                      for k in sorted({k for o in traced for k in o["self_times"]})}
        print("# self time by span (median over traced operations)")
        for name, val in self_table.items():
            print(f"  {name:40s} {val:<14.6g} s")
        metrics = {name: {"value": val, "unit": _unit(name)} for name, val in layers.items()}
    summary["metrics"] = metrics
    record = {"args": vars(args), "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
              "python": platform.python_version(), "numpy": numpy_version,
              "setups": setups, "operations": ops, "result": summary}
    with gzip.open(results / f"{tag}.json.gz", "wt") as fh:
        json.dump(record, fh)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
