"""Integer partitions: enumeration, conjugation, hook lengths, character degrees.

Partitions of n index the irreducible representations of the symmetric group
on n symbols; the degree attached to a partition is n! divided by the product
of the hook lengths of its Young diagram.
"""

from __future__ import annotations

import math
from typing import Iterator

#: Enumeration resource guard; p(80) is already ~1.6e7 partitions.
DEFAULT_MAX_N = 80


class Partition(tuple):
    """Nonincreasing positive integer parts; ``n`` is their sum.

    The tuple of its parts, checked on construction; its slices are plain
    tuples. The empty partition (n = 0) is permitted but plays no role in
    the spectrum pipeline.
    """

    __slots__ = ()

    def __new__(cls, parts=()):
        self = tuple.__new__(cls, parts)
        for left, right in zip(self, self[1:]):
            if left < right:
                raise ValueError(f"parts must be nonincreasing: {tuple(self)}")
        if self and self[-1] < 1:
            raise ValueError(f"parts must be positive integers: {tuple(self)}")
        return self

    @property
    def n(self) -> int:
        return sum(self)

    def __repr__(self):
        return f"Partition{tuple(self)}"


def enumerate_partitions(n: int, max_n: int = DEFAULT_MAX_N) -> Iterator[Partition]:
    """Yield every partition of ``n`` exactly once, in reverse-lexicographic order.

    The stream starts at (n,), ends at (1,)*n and has exactly
    ``partition_count(n)`` items. The size guard runs at call time.
    """
    check_size(n, max_n)

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


def check_size(n: int, max_n: int) -> None:
    """Raise ValueError unless 1 <= n <= max_n, the enumeration resource guard."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > max_n:
        raise ValueError(f"n = {n} exceeds the enumeration guard max_n = {max_n}")


def conjugate(p: Partition) -> Partition:
    """Transpose of the Young diagram; an involution preserving n."""
    if not p:
        return Partition()
    counts = [0] * p[0]
    for part in p:
        for j in range(part):
            counts[j] += 1
    return Partition(counts)


def hook_lengths(p: Partition) -> tuple[tuple[int, ...], ...]:
    """Hook length of every box (arm + leg + 1), in the ragged shape of ``p``."""
    conj = conjugate(p)
    return tuple(
        tuple(row_len - j + conj[j] - t - 1 for j in range(row_len))
        for t, row_len in enumerate(p)
    )


def degree(p: Partition) -> int:
    """Character degree for ``p``: n! divided by the product of all hook lengths.

    The division is exact for every valid partition; an inexact division can
    only mean a corrupted hook grid, so it raises instead of rounding.
    """
    conj = conjugate(p)
    hook_product = 1
    for t, row_len in enumerate(p):
        for j in range(row_len):
            hook_product *= row_len - j + conj[j] - t - 1
    quotient, remainder = divmod(math.factorial(p.n), hook_product)
    if remainder:
        raise ArithmeticError(f"hook product {hook_product} does not divide {p.n}! for {p}")
    return quotient


def partition_count(n: int) -> int:
    """Number of partitions of ``n``, by Euler's pentagonal-number recurrence.

    Independent of ``enumerate_partitions``; used to cross-check stream lengths.
    Each call builds its own table of p(0), ..., p(n), so threads share nothing.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    counts = [1]  # p(0)
    for m in range(1, n + 1):
        total = 0
        k = 1
        while (pent := k * (3 * k - 1) // 2) <= m:
            sign = 1 if k % 2 else -1
            total += sign * counts[m - pent]
            if pent + k <= m:  # second pentagonal number, k(3k+1)/2
                total += sign * counts[m - pent - k]
            k += 1
        counts.append(total)
    return counts[n]
