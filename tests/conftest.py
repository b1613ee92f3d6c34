import functools
import os
import pathlib

import pytest

from tnspectrum import spectrum

SRC = pathlib.Path(__file__).parents[1] / "src"


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
