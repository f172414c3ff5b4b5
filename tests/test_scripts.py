"""Smoke tests for the scripts: each runs to completion in a subprocess."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("flags", [[], ["--erlang"]])
def test_telegraph_demo_runs(flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / "telegraph_demo.py"),
                           "--order", "1", *flags],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "order 1:" in proc.stdout
