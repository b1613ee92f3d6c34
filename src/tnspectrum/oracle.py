"""Brute-force check: build the transposition graph explicitly and diagonalize it.

Deliberately independent of the partition pipeline: vertices are the n!
permutations ranked lexicographically, edges join permutations differing by
one transposition, and the spectrum comes out of a dense symmetric
eigensolver. Agreement with the exact route is the end-to-end test.

numpy is imported inside the functions that use it, so importing this module
(and the package, and the CLI) stays cheap for every command but ``oracle``.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .spectrum import Spectrum

ORACLE_MIN_N = 2
ORACLE_MAX_N = 6  # 720 vertices; dense diagonalization beyond this is a time sink


class ComparisonReport(NamedTuple):
    agreement: bool
    max_deviation: float
    discrepancies: tuple[tuple[int, int, int], ...]  # (eigenvalue, exact mult, numeric mult)


def build_graph(n: int):
    """The n! x n! symmetric 0/1 adjacency matrix, vertices in lexicographic rank order."""
    import numpy as np

    if not ORACLE_MIN_N <= n <= ORACLE_MAX_N:
        raise ValueError(
            f"oracle graph limited to {ORACLE_MIN_N} <= n <= {ORACLE_MAX_N} (n! vertices), got {n}"
        )
    perms = list(itertools.permutations(range(n)))
    rank = {perm: i for i, perm in enumerate(perms)}
    adjacency = np.zeros((len(perms), len(perms)), dtype=np.uint8)
    for u, perm in enumerate(perms):
        for i, j in itertools.combinations(range(n), 2):
            swapped = list(perm)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            adjacency[u, rank[tuple(swapped)]] = 1
    return adjacency


def numeric_spectrum(adjacency) -> tuple[float, ...]:
    """Eigenvalues of the adjacency matrix, descending, as raw floats for ``compare`` to judge.

    Raises ``numpy.linalg.LinAlgError`` if the eigensolver does not converge.
    """
    import numpy as np

    values = np.linalg.eigvalsh(adjacency.astype(np.float64))[::-1]
    return tuple(float(v) for v in values)


def check_tolerance(tolerance: float) -> None:
    """Raise ValueError unless 0 < tolerance < 0.5.

    Rounding to the nearest integer decides nothing at 0.5 or beyond, and
    every comparison with nan is false, so such a tolerance would silently
    turn ``compare``'s integrality check off.
    """
    if not 0 < tolerance < 0.5:
        raise ValueError(f"tolerance must satisfy 0 < tolerance < 0.5, got {tolerance!r}")


def compare(
    exact: Spectrum, numeric: tuple[float, ...], tolerance: float = 1e-6
) -> ComparisonReport:
    """Round the numeric eigenvalues and compare multiset-for-multiset with the exact ones.

    Size mismatch (different n) is a usage error and raises; multiplicity
    mismatches are collected into the report instead of thrown. Any value
    farther than ``tolerance`` from an integer raises ArithmeticError, which
    names the farthest. The tolerance must satisfy 0 < tolerance < 0.5.
    """
    check_tolerance(tolerance)
    if exact.order != len(numeric):
        raise ValueError(
            f"size mismatch: exact spectrum carries {exact.order} eigenvalues, "
            f"numeric carries {len(numeric)}"
        )
    deviations = [abs(value - round(value)) for value in numeric]
    max_deviation = max(deviations, default=0.0)
    if max_deviation > tolerance:
        culprit = numeric[deviations.index(max_deviation)]
        raise ArithmeticError(
            f"eigenvalue {culprit!r} is {max_deviation:.3e} away from an integer "
            f"(tolerance {tolerance:g})"
        )
    counts: dict[int, int] = {}
    for value in numeric:
        rounded = round(value)
        counts[rounded] = counts.get(rounded, 0) + 1
    discrepancies = []
    for value in sorted(set(counts) | {v for v, _ in exact.entries}, reverse=True):
        exact_mult = exact.multiplicity(value)
        numeric_mult = counts.get(value, 0)
        if exact_mult != numeric_mult:
            discrepancies.append((value, exact_mult, numeric_mult))
    return ComparisonReport(
        agreement=not discrepancies,
        max_deviation=max_deviation,
        discrepancies=tuple(discrepancies),
    )


def edge_list(adjacency) -> list[tuple[int, int]]:
    """Edges as (u, v) rank pairs with u < v, sorted; for external verification."""
    import numpy as np

    rows, cols = np.nonzero(np.triu(adjacency, k=1))
    return [(int(u), int(v)) for u, v in zip(rows, cols)]
