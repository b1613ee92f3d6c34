"""The suite's pytest settings let a run report every test, even after a property test fails,
and end a test that hangs in a named failure."""

import pathlib
import signal
import subprocess
import sys
import time

import pytest

PYPROJECT = pathlib.Path(__file__).parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert False


def test_passes():
    pass
'''


def test_failing_property_test_does_not_stop_the_run(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    options = ["-c", str(PYPROJECT), "--rootdir", str(tmp_path), "-p", "no:cacheprovider"]
    result = subprocess.run(
        [sys.executable, "-m", "pytest", *options, "test_probe.py"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout


def test_a_test_past_its_deadline_fails():
    # the handler conftest installed, with its timer re-armed from DEADLINE_S to 0.05 s
    signal.setitimer(signal.ITIMER_REAL, 0.05)
    with pytest.raises(pytest.fail.Exception, match="deadline$"):
        time.sleep(10)
