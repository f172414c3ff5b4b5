"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "0", "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(workload, trace, section):
    res = last_json(bench("--workload", workload, "--trace", trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    if section == "end_to_end":
        assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_result_counts_as_failed(workload):
    res = last_json(bench("--workload", workload, "--trace", "0", "--corrupt"))
    assert res["failed"] > 0 and not res["correct"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_times_add_up_to_the_root():
    tracer = Tracer("t")

    def leaf():
        time.sleep(0.002)

    class Mod:
        pass

    mod = Mod()
    mod.leaf = leaf
    tracer.patch(mod, "leaf", "leaf")
    root = tracer.open("root")
    for _ in range(3):
        tracer.call("mid", mod.leaf)
    tracer.close(root)
    tracer.restore()
    assert mod.leaf is leaf
    st = tracer.self_times()
    assert st["leaf"][1] == 3 and st["mid"][1] == 3
    assert st["leaf"][0] >= 0.006
    wall = root[2] - root[1]
    assert sum(v[0] for v in st.values()) == pytest.approx(wall, abs=1e-9)
