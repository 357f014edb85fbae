"""The demos still run against the library: each is started as its own
process with PYTHONPATH=src, from a temp directory, and must exit 0.

demos/label_robustness.py is left out: it trains a study of its own and
takes about 28 s, more than the rest of this file together."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["interest_windows.py", "quickstart.py"])
def test_demo_exits_0(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
