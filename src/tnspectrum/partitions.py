"""Integer partitions: enumeration, conjugation and character degrees.

Partitions of n index the irreducible representations of the symmetric group
on n symbols; the degree attached to a partition is n! divided by the product
of the hook lengths of its Young diagram.
"""

from __future__ import annotations

import math
from typing import Iterator

#: The range of n the brute-force oracle builds the n! vertex graph for; ``tnspec oracle 6``
#: takes about 0.073 s and 14.5 MB peak RSS on a 2-core box (median of 21 fresh processes;
#: a bare interpreter 0.039 s and 13.7 MB), and n = 7 would take about 0.25 s more.
ORACLE_MIN_N = 2
ORACLE_MAX_N = 6


class Partition(tuple):
    """Nonincreasing positive integer parts; ``n`` is their sum.

    The tuple of its parts, checked on construction; its slices are plain
    tuples. A part that is no ``int``, such as 2.5 or 2.0, raises ValueError.
    The empty partition (n = 0) is permitted but plays no role in the
    spectrum pipeline.
    """

    __slots__ = ()

    def __new__(cls, parts=()):
        self = tuple.__new__(cls, parts)
        for left, right in zip(self, self[1:]):
            if left < right:
                raise ValueError(f"parts must be nonincreasing: {tuple(self)}")
        if self and self[-1] < 1 or not all(isinstance(part, int) for part in self):
            raise ValueError(f"parts must be positive integers: {tuple(self)}")
        return self

    @property
    def n(self) -> int:
        return sum(self)

    def __repr__(self):
        return f"Partition{tuple(self)}"


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Yield every partition of ``n`` exactly once, in reverse-lexicographic order.

    The stream starts at (n,), ends at (1,)*n and has exactly p(n) items, p(n) the
    number of partitions of n. An n below 1 raises ValueError at call time.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")

    def successors():
        parts = [n]
        while True:
            yield Partition(parts)
            i = len(parts) - 1
            while i >= 0 and parts[i] == 1:
                i -= 1
            if i < 0:
                return
            # Move one unit out of the rightmost part > 1, then repack the freed
            # units greedily; greedy repacking is what keeps the order reverse-lex.
            spare = len(parts) - i
            cap = parts[i] - 1
            parts[i] = cap
            del parts[i + 1:]
            parts.extend([cap] * (spare // cap))
            if spare % cap:
                parts.append(spare % cap)

    return successors()


def conjugate(p: Partition) -> Partition:
    """Transpose of the Young diagram; an involution preserving n."""
    if not p:
        return Partition()
    counts = [0] * p[0]
    for part in p:
        for j in range(part):
            counts[j] += 1
    return Partition(counts)


def degree(p: Partition) -> int:
    """Character degree for ``p``: n! divided by the product of all hook lengths.

    The division is exact for every valid partition; an inexact division can
    only mean a corrupted hook grid, so it raises instead of rounding.
    """
    n, conj = p.n, conjugate(p)  # ``n`` sums the parts on each access
    hook_product = 1
    for t, row_len in enumerate(p):
        for j in range(row_len):
            hook_product *= row_len - j + conj[j] - t - 1
    quotient, remainder = divmod(math.factorial(n), hook_product)
    if remainder:
        raise ArithmeticError(f"hook product {hook_product} does not divide {n}! for {p}")
    return quotient

