"""The test configuration itself: a failing test is reported as a failure."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_AND_PASSING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    assert True
"""


def test_a_failing_hypothesis_test_is_a_failure_not_an_internal_error(tmp_path):
    # Under filterwarnings = error, a warning from Hypothesis' failure report
    # once ended the session with INTERNALERROR, and no later test ran.
    (tmp_path / "test_sample.py").write_text(FAILING_AND_PASSING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), str(tmp_path / "test_sample.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = done.stdout + done.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
    assert done.returncode == 1, out
