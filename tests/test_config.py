"""The test configuration reports every test, even after a property test fails."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

#: a failing property test, then a passing test that must still run
THROWAWAY = """
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_a_failing_property_test_does_not_abort_the_run(tmp_path):
    # with every warning an error, hypothesis's own DeprecationWarning while it builds the
    # failure report once became an INTERNALERROR that ended the whole run
    path = tmp_path / "test_throwaway.py"
    path.write_text(THROWAWAY)
    done = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
                           "--rootdir", str(tmp_path), "-p", "no:cacheprovider", str(path)],
                          capture_output=True, text=True, cwd=tmp_path)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
