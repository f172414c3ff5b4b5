"""Smoke tests for the scripts: each runs to completion in a subprocess."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fastswitch.pipeline import MAX_ORDER

REPO = Path(__file__).resolve().parent.parent


def run_script(name, *flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(REPO / "scripts" / name), *flags],
                          capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("flags", [[], ["--erlang"]])
def test_telegraph_demo_runs(flags):
    proc = run_script("telegraph_demo.py", "--order", "1", *flags)
    assert proc.returncode == 0, proc.stderr
    assert "order 1:" in proc.stdout


def test_telegraph_demo_rejects_order_as_usage_error():
    # the demo builds its model in code, so it checks --order itself
    proc = run_script("telegraph_demo.py", "--order", "5")
    assert proc.returncode == 2
    assert f"--order 5 outside the supported range 0..{MAX_ORDER}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_convergence_study_rejects_order_as_config_error():
    # --order is checked as the config's own order key, before any build
    proc = run_script("convergence_study.py", "--config",
                      str(REPO / "configs" / "model_a.json"), "--order", "5")
    assert proc.returncode == 2
    assert "config error: order 5" in proc.stderr
    assert "Traceback" not in proc.stderr
