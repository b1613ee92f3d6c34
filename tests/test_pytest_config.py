"""The suite's pytest settings end a test that hangs in a named failure."""

import signal
import time

import pytest


def test_a_test_past_its_deadline_fails():
    # the handler conftest installed, with its timer re-armed from DEADLINE_S to 0.05 s
    signal.setitimer(signal.ITIMER_REAL, 0.05)
    with pytest.raises(pytest.fail.Exception, match="deadline$"):
        time.sleep(10)
