"""The demos still run against the library: each is started as its own
process with PYTHONPATH=src, from a temp directory, and must exit 0.

demos/label_robustness.py is left out of that: it trains a study of its
own and takes about 20-30 s, more than the rest of this file together.
Every demo, that one included, is also parsed, and each name it
imports from missctr must exist."""

import ast
import importlib
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


def _has(module, name: str) -> bool:
    if hasattr(module, name):
        return True
    try:  # a submodule, as in `from missctr import autodiff`
        importlib.import_module(f"{module.__name__}.{name}")
    except ImportError:
        return False
    return True


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_imports_only_names_the_library_has(demo):
    tree = ast.parse((ROOT / "demos" / demo).read_text())
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "missctr"]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        missing = [a.name for a in node.names if not _has(module, a.name)]
        assert not missing, f"{demo}: {node.module} has no {missing}"
