"""The pytest settings in pyproject.toml."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0
"""


def test_a_failing_property_test_does_not_end_the_run(tmp_path):
    """Hypothesis reports a failing example through libcst, whose import
    warns; under the settings' warning filters that must not end the run
    with an INTERNALERROR before the later tests."""
    (tmp_path / "test_a.py").write_text(FAILING)
    (tmp_path / "test_b.py").write_text("def test_passes():\n    pass\n")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_a.py", "test_b.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
