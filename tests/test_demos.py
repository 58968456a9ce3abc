"""Smoke test: the fast demos run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_decoder_and_quac.py",
                                  "04_performance_model.py"])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"),
                                 os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
