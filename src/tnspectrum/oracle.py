"""Brute-force check: build the transposition graph and read its exact spectrum off its walks.

Deliberately independent of the partition pipeline: vertices are the n! permutations
ranked lexicographically, edges join permutations differing by one transposition, and
no hook length, content or character enters. All arithmetic is on integers, so nothing
is rounded and there is no tolerance.

``numeric_spectrum`` proves what it uses, on the graph it is given. Relabelling the
values by (0 1) and by the n-cycle maps edges to edges, so the symmetric group they
generate moves vertex 0, the identity e, to every vertex by automorphisms, and every
vertex has the spectral measure sum_v (m_v / n!) delta_v (Godsil, Algebraic
Combinatorics, 1993). The product of A - v over v = -E..E, E = C(n, 2), annihilates e
and so every vertex: the eigenvalues are integers in -E..E. The closed walks
w_k = (A^k)[e, e] for k <= 2E then give each m_v by Lagrange interpolation on -E..E.

The package does not import this module; of the CLI's commands only ``oracle`` loads it.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .partitions import ORACLE_MAX_N, ORACLE_MIN_N
from .spectrum import Spectrum

__all__ = ["ComparisonReport", "build_graph", "compare", "edge_list", "numeric_spectrum"]


class ComparisonReport(NamedTuple):
    agreement: bool
    discrepancies: tuple[tuple[int, int, int], ...]  # (eigenvalue, exact mult, graph mult)


def _ranks(n: int) -> tuple[list[tuple[int, ...]], dict[tuple[int, ...], int]]:
    """The permutations of 0..n - 1 in lexicographic order, and the rank of each."""
    perms = list(itertools.permutations(range(n)))
    return perms, {perm: rank for rank, perm in enumerate(perms)}


def build_graph(n: int) -> list[list[int]]:
    """The n! sorted lists of neighbour ranks, vertices in lexicographic rank order."""
    if not ORACLE_MIN_N <= n <= ORACLE_MAX_N:
        raise ValueError(
            f"oracle graph limited to {ORACLE_MIN_N} <= n <= {ORACLE_MAX_N} (n! vertices), got {n}"
        )
    perms, rank = _ranks(n)
    pairs = list(itertools.combinations(range(n), 2))
    return [sorted(rank[_transposed(perm, i, j)] for i, j in pairs) for perm in perms]


def _transposed(perm: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    """``perm`` with its entries at positions i and j exchanged."""
    swapped = list(perm)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    return tuple(swapped)


def _product(roots) -> list[int]:
    """Coefficients, constant term first, of the product of x - r over ``roots``."""
    poly = [1]
    for r in roots:
        poly = [low - r * high for low, high in zip([0, *poly], [*poly, 0])]
    return poly


def numeric_spectrum(adjacency: list[list[int]]) -> Spectrum:
    """The exact spectrum of a graph on n! vertices, n >= 2, given as neighbour lists.

    A failed proof, or an m_v that is no non-negative integer, raises ArithmeticError.
    """
    order = len(adjacency)
    n = next(k for k in itertools.count(ORACLE_MIN_N) if math.factorial(k) >= order)
    if math.factorial(n) != order:
        raise ValueError(f"{order} vertices is no n! for n >= {ORACLE_MIN_N}")
    perms, rank = _ranks(n)
    for relabel in ((1, 0, *range(2, n)), (*range(1, n), 0)):
        image = [rank[tuple(relabel[x] for x in perm)] for perm in perms]
        for u, neighbours in enumerate(adjacency):
            if sorted(image[v] for v in neighbours) != sorted(adjacency[image[u]]):
                raise ArithmeticError(
                    f"relabelling by {relabel} does not map the edges at vertex {u} onto those"
                    f" at vertex {image[u]}: no proof that the graph is vertex-transitive"
                )
    top = n * (n - 1) // 2
    values = range(top, -top - 1, -1)
    walk, walks, proof = [1] + [0] * (order - 1), [], [0] * order  # walk: column e of A^k
    for coefficient in _product(values):
        walks.append(walk[0])
        proof = [p + coefficient * w for p, w in zip(proof, walk)]
        walk = [sum(map(walk.__getitem__, neighbours)) for neighbours in adjacency]
    if any(proof):
        raise ArithmeticError(f"an eigenvalue of the graph is no integer in {-top}..{top}")
    mults = []
    for value in values:
        others = [u for u in values if u != value]
        basis = order * sum(map(int.__mul__, _product(others), walks))
        mult, remainder = divmod(basis, math.prod(value - u for u in others))
        if remainder or mult < 0:
            raise ArithmeticError(f"eigenvalue {value} gets no non-negative integer multiplicity")
        mults.append(mult)
    return Spectrum(n, tuple((value, mult) for value, mult in zip(values, mults) if mult))


def compare(exact: Spectrum, numeric: Spectrum) -> ComparisonReport:
    """Compare two spectra multiplicity for multiplicity, collecting each difference.

    Spectra for different n or of different order are a usage error and raise ValueError.
    """
    if (exact.n, exact.order) != (numeric.n, numeric.order):
        raise ValueError(f"size mismatch: n = {exact.n} of order {exact.order} against "
                         f"n = {numeric.n} of order {numeric.order}")
    values = sorted({value for value, _ in exact.entries + numeric.entries}, reverse=True)
    discrepancies = tuple(
        (value, exact.multiplicity(value), numeric.multiplicity(value))
        for value in values
        if exact.multiplicity(value) != numeric.multiplicity(value)
    )
    return ComparisonReport(agreement=not discrepancies, discrepancies=discrepancies)


def edge_list(adjacency: list[list[int]]) -> list[tuple[int, int]]:
    """Edges as (u, v) rank pairs with u < v in the lists' order, sorted for ``build_graph``'s."""
    return [(u, v) for u, neighbours in enumerate(adjacency) for v in neighbours if u < v]
