"""Brute-force check: build the transposition graph explicitly and diagonalize it.

Deliberately independent of the partition pipeline: vertices are the n!
permutations ranked lexicographically, edges join permutations differing by
one transposition, and the spectrum comes out of a dense symmetric
eigensolver. Agreement with the exact route is the end-to-end test.

Every eigenvalue of the graph is an integer, so ``compare`` rounds the
numeric ones and refuses any that lies farther than a fixed 1e-6 from an
integer.

numpy is imported inside the functions that use it, so importing this module
loads no numpy. The package does not import this module, and the CLI imports it
only on first use: ``tnspec oracle`` loads it, and no other command does.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import NamedTuple

from .partitions import ORACLE_MAX_N, ORACLE_MIN_N
from .spectrum import Spectrum

__all__ = ["ComparisonReport", "build_graph", "compare", "edge_list", "numeric_spectrum"]

#: How far ``compare`` lets an eigenvalue lie from an integer. The eigensolver's
#: deviations at n <= 6 are about 1e-14, and rounding decides nothing at 0.5.
_TOLERANCE = 1e-6


class ComparisonReport(NamedTuple):
    agreement: bool
    max_deviation: float
    discrepancies: tuple[tuple[int, int, int], ...]  # (eigenvalue, exact mult, numeric mult)


def build_graph(n: int):
    """The n! x n! symmetric 0/1 adjacency matrix, vertices in lexicographic rank order.

    The matrix is float64, the dtype ``numeric_spectrum``'s eigensolver reads,
    so it reaches the eigensolver without a converted copy.
    """
    import numpy as np

    if not ORACLE_MIN_N <= n <= ORACLE_MAX_N:
        raise ValueError(
            f"oracle graph limited to {ORACLE_MIN_N} <= n <= {ORACLE_MAX_N} (n! vertices), got {n}"
        )
    perms = list(itertools.permutations(range(n)))
    rank = {perm: i for i, perm in enumerate(perms)}
    adjacency = np.zeros((len(perms), len(perms)), dtype=np.float64)
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

    values = np.linalg.eigvalsh(adjacency)[::-1]
    return tuple(float(v) for v in values)


def compare(exact: Spectrum, numeric: tuple[float, ...]) -> ComparisonReport:
    """Round the numeric eigenvalues and compare multiset-for-multiset with the exact ones.

    Size mismatch (different n) is a usage error and raises; multiplicity
    mismatches are collected into the report instead of thrown. Any value
    farther than 1e-6 from an integer raises ArithmeticError, which names the
    farthest; a non-finite value counts as infinitely far.
    """
    if exact.order != len(numeric):
        raise ValueError(
            f"size mismatch: exact spectrum carries {exact.order} eigenvalues, "
            f"numeric carries {len(numeric)}"
        )
    deviations = [abs(v - round(v)) if math.isfinite(v) else math.inf for v in numeric]
    max_deviation = max(deviations, default=0.0)
    if max_deviation > _TOLERANCE:
        culprit = numeric[deviations.index(max_deviation)]
        raise ArithmeticError(
            f"eigenvalue {culprit!r} is {max_deviation:.3e} away from an integer "
            f"(tolerance {_TOLERANCE:g})"
        )
    counts = Counter(map(round, numeric))
    discrepancies = []
    for value in sorted(set(counts) | {v for v, _ in exact.entries}, reverse=True):
        exact_mult = exact.multiplicity(value)
        numeric_mult = counts[value]
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

    rows, cols = np.nonzero(adjacency)
    return [(int(u), int(v)) for u, v in zip(rows, cols) if u < v]
