import functools
import os
import pathlib
import signal

import pytest

from tnspectrum import spectrum

SRC = pathlib.Path(__file__).parents[1] / "src"
#: Seconds a test may run before it fails: above the longest timeout a test sets itself, 120 s.
DEADLINE_S = 180


@pytest.fixture(autouse=True)
def deadline():
    """Fail a test still running after ``DEADLINE_S``, so a hang ends in a named failure.

    The timer fires again every ``DEADLINE_S``, which also cuts a Hypothesis replay of a
    hung example. Forked children and subprocesses do not inherit it. A test that arms
    ``ITIMER_REAL`` itself replaces this timer, and puts this handler back when it is done.
    """

    def expire(signum, frame):
        pytest.fail(f"still running after the {DEADLINE_S} s deadline")

    handler = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S, DEADLINE_S)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, handler)


@pytest.fixture(scope="session")
def spectra_up_to_30():
    """Exact spectra for n = 2..30, shared across the closed-form checks."""
    return {n: spectrum(n) for n in range(2, 31)}


@pytest.fixture(scope="session")
def large_spectra():
    """``spectrum`` with each n folded once for the session, for the sizes past 30 that
    several tests check: n = 38..44, which the spectrum-serial benchmark folds, 50 and 60."""
    return functools.cache(spectrum)


@pytest.fixture(scope="session")
def child_env():
    """Environment for a child interpreter that imports ``tnspectrum`` from this checkout."""
    inherited = os.environ.get("PYTHONPATH")
    path = str(SRC) if not inherited else os.pathsep.join((str(SRC), inherited))
    return {**os.environ, "PYTHONPATH": path}
