"""The library depends on numpy alone: every import in src/missctr is
numpy, the package itself, or the standard library."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "missctr"


def imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            roots.add("missctr" if node.level else node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_src_imports_only_numpy_and_the_standard_library(path):
    allowed = {"numpy", "missctr"} | set(sys.stdlib_module_names)
    extra = imported_roots(path) - allowed
    assert not extra, f"{path.name} imports {sorted(extra)}"


def test_the_import_scan_sees_every_module():
    assert {p.name for p in SRC.glob("*.py")} >= {"autodiff.py", "interests.py", "cli.py"}
    assert imported_roots(SRC / "interests.py") >= {"numpy", "missctr", "dataclasses"}
