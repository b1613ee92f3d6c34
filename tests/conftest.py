import collections
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
def young_lattice():
    """Young's lattice to n = 36: at index n, each λ ⊢ n as a tuple, with (f(λ), v(λ)).

    Built from nothing in ``tnspectrum``, with no hook length or content: f(λ) sums f over
    the λ less one corner on level n - 1 (the branching rule), and v(λ) = C(n, 2) χ^λ(τ)/f(λ)
    is a checked division, χ^λ(τ) at a transposition being the sum of ± f(λ less a rim
    domino) on level n - 2, + for a horizontal domino, - for a vertical (Murnaghan–Nakayama).
    """
    levels = [{(): (1, 0)}]
    for n in range(1, 37):
        degrees = collections.defaultdict(int)
        for mu, (f, _) in levels[-1].items():
            for i, row in enumerate((*mu, 0)):
                if i == 0 or mu[i - 1] > row:  # a box fits at the end of row i
                    degrees[mu[:i] + (row + 1,) + mu[i + 1:]] += f
        below, level = levels[n - 2] if n > 1 else {}, {}
        for lam, f in degrees.items():
            rows, character = (*lam, 0, 0), 0
            for i, row in enumerate(lam):  # a row that the domino empties is dropped
                if row - 2 >= rows[i + 1]:  # horizontal: the last two boxes of row i
                    character += below[lam[:i] + (row - 2,) * (row > 2) + lam[i + 1:]][0]
                if row == rows[i + 1] > rows[i + 2]:  # vertical: those of rows i and i + 1
                    character -= below[lam[:i] + (row - 1,) * 2 * (row > 1) + lam[i + 2:]][0]
            value, remainder = divmod(n * (n - 1) // 2 * character, f)
            assert not remainder, lam
            level[lam] = f, value
        levels.append(level)
    return levels


@pytest.fixture(scope="session")
def lattice_spectra(young_lattice):
    """At index n, ``spectrum(n).entries`` as the lattice gives it: f(λ)² summed per v(λ)."""
    buckets = [collections.defaultdict(int) for _ in young_lattice]
    for sums, level in zip(buckets, young_lattice):
        for f, value in level.values():
            sums[value] += f * f
    return [tuple(sorted(sums.items(), reverse=True)) for sums in buckets]


@pytest.fixture(scope="session")
def large_spectra():
    """``spectrum`` with each n folded once for the session, for the sizes that several
    tests check: n ≤ 30, and 38..44, which the spectrum-serial benchmark folds, 50 and 60."""
    return functools.cache(spectrum)


@pytest.fixture(scope="session")
def child_env():
    """Environment for a child interpreter that imports ``tnspectrum`` from this checkout."""
    inherited = os.environ.get("PYTHONPATH")
    path = str(SRC) if not inherited else os.pathsep.join((str(SRC), inherited))
    return {**os.environ, "PYTHONPATH": path}
