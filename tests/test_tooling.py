"""The repository's tooling: the test configuration reports a failing test and runs the tests after
it, and no source module keeps an import it never reads."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
MODULES = sorted(path for path in (ROOT / "src" / "oversmooth").glob("*.py") if path.name != "__init__.py")

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 0


def test_after_it():
    pass
"""


def test_failing_hypothesis_test_is_reported_under_the_warning_filters(tmp_path):
    # Reporting a failing example loads libcst, which warns on import; with every warning
    # an error, that warning used to end the session in an INTERNALERROR (exit code 3).
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), str(tmp_path)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1, proc.stdout
    assert "1 failed, 1 passed" in proc.stdout.splitlines()[-1]


def _unread_imports(source: str) -> list[str]:
    """The names a module-level import binds (``__future__`` aside) that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_unread_imports_are_found():
    source = "from __future__ import annotations\nimport os.path\nimport numpy as np\nnp.ones(1)\n"
    assert _unread_imports(source) == ["os"]


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.stem)
def test_every_import_is_read(module):
    # A deletion that leaves an import behind fails here; __init__ imports only to re-export.
    assert _unread_imports(module.read_text()) == []
