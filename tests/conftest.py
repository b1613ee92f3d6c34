import functools
import itertools
import math
import os
import pathlib
import signal

import pytest

from tnspectrum import Partition, spectrum

SRC = pathlib.Path(__file__).parents[1] / "src"
#: Seconds a test may run before it fails: above the longest timeout a test sets itself, 120 s.
DEADLINE_S = 180


@pytest.fixture(autouse=True)
def deadline():
    """Fail a test still running after ``DEADLINE_S``, so a hang ends in a named failure.

    The timer fires again every ``DEADLINE_S``. Forked children and subprocesses do not
    inherit it. A test that arms ``ITIMER_REAL`` itself replaces this timer, and puts this
    handler back when it is done.
    """

    def expire(signum, frame):
        pytest.fail(f"still running after the {DEADLINE_S} s deadline")

    handler = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S, DEADLINE_S)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, handler)


@pytest.fixture(scope="session")
def box_partitions():
    """Every partition with 1 to 8 parts, each at most 10, sorted by (n, parts).

    Built from ``itertools``' nonincreasing tuples, so it does not rest on
    ``enumerate_partitions``. In this order a property checked over the box fails first at a
    smallest partition that breaks it.
    """
    box = sorted(
        (Partition(parts) for k in range(1, 9)
         for parts in itertools.combinations_with_replacement(range(10, 0, -1), k)),
        key=lambda p: (p.n, p),
    )
    assert len(box) == math.comb(18, 8) - 1 == 43_757
    return box


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
