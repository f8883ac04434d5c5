"""The test configuration itself: a failing test is reported, and the tests after it still run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

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
