"""Acceptance gate: one test per criterion, each printing a PASS line on success.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The 720-vertex oracle check at n = 6 runs with the rest: the spectrum
is symmetric about zero by construction, and the graph's own spectrum, read
off its closed walks, is evidence of the symmetry independent of it.
"""

import importlib
import math
import time

import pytest

from tnspectrum import (
    conjugate,
    degree,
    eigenvalue,
    eigenvalue_upper_bound,
    enumerate_partitions,
    multiplicity,
    spectrum,
)
from tnspectrum.oracle import build_graph, compare, numeric_spectrum
from tnspectrum.witnesses import (
    NoWitnessError,
    lambda_partition_even,
    lambda_partition_odd,
    verify_witness,
    zero_partition,
)

# Golden data, frozen here independently of the CLI's embedded copies.
ZERO_TABLE = {1: 1, 3: 4, 4: 4, 5: 36, 6: 256, 7: 400, 8: 9864, 9: 6664, 10: 790528, 11: 1474848}
ONE_TABLE = {
    7: 441,
    9: 46656,
    11: 3052225,
    13: 87609600,
    15: 2701400625,
    17: 3928998225152,
    14: 566130565,
    16: 301532774400,
    18: 274422662958600,
    20: 86181028874240000,
}


def _report(label, elapsed=None):
    timing = "" if elapsed is None else f" ({elapsed:.2f}s)"
    print(f"\nacceptance {label}: PASS{timing}")


def test_criterion_1_zero_multiplicity_table():
    start = time.perf_counter()
    for n, expected in ZERO_TABLE.items():
        assert multiplicity(n, 0) == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("criterion 1 (eigenvalue-zero multiplicities, n <= 11)", elapsed)


def test_criterion_2_one_multiplicity_table():
    start = time.perf_counter()
    for n, expected in ONE_TABLE.items():
        assert multiplicity(n, 1) == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report("criterion 2 (eigenvalue-one multiplicities, n <= 20)", elapsed)


def test_criterion_3_top_two_and_hook_values():
    start = time.perf_counter()
    for n in range(2, 31):
        spec = spectrum(n)
        assert spec.entries[0] == (n * (n - 1) // 2, 1)
        if n >= 3:
            assert spec.entries[1] == (n * (n - 3) // 2, (n - 1) ** 2)
        for k in range(3, n + 1):
            assert n * (n - 2 * k + 1) // 2 in spec
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("criterion 3 (largest/second eigenvalues + hook values, n <= 30)", elapsed)


def test_criterion_4_third_and_fourth_largest(large_spectra):
    for n in range(4, 31):
        spec = large_spectra(n)
        assert spec.entries[2] == ((n - 1) * (n - 4) // 2, (n * (n - 3) // 2) ** 2)
    for n in range(7, 31):
        spec = large_spectra(n)
        assert spec.entries[3] == (n * (n - 5) // 2, ((n - 1) * (n - 2) // 2) ** 2)
    _report("criterion 4 (third/fourth largest eigenvalues with multiplicities)")


def _eigenvalues_present(n, targets):
    remaining = set(targets)
    found = set()
    for p in enumerate_partitions(n):
        value = eigenvalue(p)
        if value in remaining:
            remaining.remove(value)
            found.add(value)
            if not remaining:
                break
    return found


def test_criterion_5_prefix_windows():
    for k in (0, 1, 2):
        targets = set(range(k + 1))
        for n in range(10 * k + 4, 10 * k + 25):
            assert _eigenvalues_present(n, targets) == targets, (k, n)
    _report("criterion 5 (0..k present in the spectrum over each 10k+4 window)")


def test_criterion_6_witness_sweeps():
    # zero: every n except 2
    for n in [m for m in range(1, 102, 2)] + [m for m in range(4, 105, 2)]:
        p = zero_partition(n)
        assert p.n == n and eigenvalue(p) == 0
    with pytest.raises(NoWitnessError):
        zero_partition(2)
    assert multiplicity(2, 0) == 0  # the exclusion is real, not just unconstructed
    # one: odd from 7, even from 14
    for n in range(7, 102, 2):
        p = verify_witness(n, 1).partition
        assert p.n == n and eigenvalue(p) == 1
    for n in range(14, 105, 2):
        p = verify_witness(n, 1).partition
        assert p.n == n and eigenvalue(p) == 1
    # general targets over the full validity regions
    for n in range(7, 102, 2):
        for lam in range(1, (n - 3) // 4 + 1):
            p = lambda_partition_odd(n, lam)
            assert p.n == n and eigenvalue(p) == lam
    for n in range(14, 105, 2):
        for lam in range(1, (n - 4) // 10 + 1):
            p = lambda_partition_even(n, lam)
            assert p.n == n and eigenvalue(p) == lam
    _report("criterion 6 (witness constructions across their validity regions)")


def test_criterion_7_oracle_equivalence():
    start = time.perf_counter()
    for n in (2, 3, 4, 5):
        report = compare(spectrum(n), numeric_spectrum(build_graph(n)))
        assert report.agreement
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report("criterion 7 (numeric oracle agrees for n = 2..5)", elapsed)


def test_criterion_7_extended_oracle_n6():
    start = time.perf_counter()
    report = compare(spectrum(6), numeric_spectrum(build_graph(6)))
    elapsed = time.perf_counter() - start
    assert report.agreement
    assert elapsed < 120.0
    _report("criterion 7 extended (numeric oracle agrees for n = 6)", elapsed)


def test_criterion_8_invariant_suite():
    for n in range(1, 13):
        spec = spectrum(n)
        assert all(spec.invariant_checks().values()), n
        squared_degrees = 0
        for p in enumerate_partitions(n):
            assert eigenvalue(conjugate(p)) == -eigenvalue(p)
            assert eigenvalue(p) <= eigenvalue_upper_bound(p)
            squared_degrees += degree(p) ** 2
        assert squared_degrees == math.factorial(n)
    _report("criterion 8 (spectrum and per-partition invariants, n <= 12)")


def test_criterion_9_performance_smoke(monkeypatch):
    start = time.perf_counter()
    serial = spectrum(40)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0  # about 0.02 s on 2 cores
    # real worker processes; the size floor would fold n = 40 in-process
    monkeypatch.setattr(importlib.import_module("tnspectrum.spectrum"), "PARALLEL_MIN_N", 1)
    parallel = spectrum(40, threads=4)
    assert parallel == serial
    _report("criterion 9 (spectrum(40) timing and parallel determinism)", elapsed)
