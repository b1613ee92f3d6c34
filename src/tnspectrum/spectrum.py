"""Eigenvalues and exact multiplicities of the transposition graph.

The Cayley graph of the symmetric group on n symbols generated by all
transpositions is integral: each partition of n contributes one integer
eigenvalue with multiplicity the squared character degree, and the full
spectrum is a bucket sum over all p(n) partitions.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .partitions import DEFAULT_MAX_N, Partition, check_size, descending_parts


def eigenvalue(p: Partition) -> int:
    """Adjacency eigenvalue attached to ``p``: half of sum_j n_j (n_j - 2j + 1).

    The doubled sum equals twice the content sum of the Young diagram (column
    index minus row index over all boxes), hence is always even; an odd value
    indicates a bug and raises. Conjugation negates the content sum, which is
    why the spectrum is symmetric about zero.
    """
    doubled = 0
    for j, part in enumerate(p.parts, start=1):
        doubled += part * (part - 2 * j + 1)
    if doubled % 2:
        raise ArithmeticError(f"doubled eigenvalue sum {doubled} is odd for {p}")
    return doubled // 2


def character_ratio(p: Partition) -> Fraction:
    """Character value at a transposition over the degree, in lowest terms.

    Equals eigenvalue(p) divided by the number n(n-1)/2 of transpositions.
    """
    if p.n < 2:
        raise ValueError("character ratio requires n >= 2 (no transpositions exist below)")
    return Fraction(eigenvalue(p), p.n * (p.n - 1) // 2)


def eigenvalue_upper_bound(p: Partition) -> int:
    """Closed-form bound >= eigenvalue(p) from the smallest part and the length.

    Half of (n - n_k)(n - n_k + 1) + n_k (n_k - 2k + 1) for a partition with
    k parts and smallest part n_k.
    """
    n, k, last = p.n, len(p.parts), p.parts[-1]
    doubled = (n - last) * (n - last + 1) + last * (last - 2 * k + 1)
    if doubled % 2:
        raise ArithmeticError(f"doubled bound {doubled} is odd for {p}")
    return doubled // 2


@dataclass(frozen=True)
class Spectrum:
    """Distinct eigenvalues with exact multiplicities, in descending order."""

    n: int
    entries: tuple[tuple[int, int], ...]

    @cached_property
    def _lookup(self) -> dict[int, int]:
        return dict(self.entries)

    @cached_property
    def order(self) -> int:
        """Vertex count n!, also the sum of all multiplicities."""
        return sum(m for _, m in self.entries)

    def multiplicity(self, value: int) -> int:
        return self._lookup.get(value, 0)

    def __contains__(self, value: int) -> bool:
        return value in self._lookup

    def invariant_checks(self) -> dict[str, bool]:
        """The five structural facts every transposition-graph spectrum satisfies."""
        fact = math.factorial(self.n)
        pairs = self.entries
        lookup = self._lookup
        return {
            "multiplicity_sum_is_factorial": sum(m for _, m in pairs) == fact,
            "trace_is_zero": sum(v * m for v, m in pairs) == 0,
            "square_trace_is_twice_edge_count":
                sum(v * v * m for v, m in pairs) == fact * self.n * (self.n - 1) // 2,
            "symmetric_about_zero": all(lookup.get(-v) == m for v, m in pairs),
            "largest_eigenvalue_is_simple": pairs[0] == (self.n * (self.n - 1) // 2, 1),
        }


def spectrum(n: int, max_n: int = DEFAULT_MAX_N, threads: int = 1) -> Spectrum:
    """Exact spectrum of the transposition graph on ``n`` symbols.

    Folds degree(p)^2 into one bucket per eigenvalue over all partitions of n.
    Conjugation keeps the degree and negates the eigenvalue, so the fold visits
    only the partitions whose first part is at least their length. Each adds
    its degree^2 at +eigenvalue and, when its first part exceeds its length,
    also at -eigenvalue on behalf of its conjugate. A partition whose first
    part equals its length has a conjugate of the same kind, visited in its
    own right, so it adds at +eigenvalue only.

    The visited partitions are sharded by first part, ceil(sqrt(n)) through
    n; no smaller first part is at least the length. With ``threads`` > 1 the
    shards are dealt round-robin to min(threads, CPU count, shard count)
    worker processes, and none is started when that minimum is 1. Bucket
    addition is commutative and associative, so the result is identical to
    the serial one.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    check_size(n, max_n)
    firsts = range(math.isqrt(n - 1) + 1, n + 1)
    workers = min(threads, os.cpu_count() or 1, len(firsts))
    if workers == 1:
        buckets = _fold(n, firsts)
    else:
        from concurrent.futures import ProcessPoolExecutor

        shards = [firsts[k::workers] for k in range(workers)]
        buckets = {}
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for partial in pool.map(_fold, [n] * workers, shards):
                for value, mult in partial.items():
                    buckets[value] = buckets.get(value, 0) + mult
    entries = tuple(sorted(buckets.items(), key=lambda item: -item[0]))
    return Spectrum(n=n, entries=entries)


def _fold(n: int, firsts) -> dict[int, int]:
    """The buckets ``spectrum`` folds from the partitions of n with first part in ``firsts``.

    One pass over the rows of each visited partition yields both its hook
    product and its doubled eigenvalue; the column lengths come from the runs
    of equal parts.
    """
    factorial = math.factorial(n)
    buckets: dict[int, int] = {}
    for first in firsts:
        for parts in descending_parts(n, first):
            length = len(parts)
            if length > first:
                continue  # its conjugate, whose first part is `length`, stands in for it
            # offsets[j] = (length of column j) - j; columns prev..row-1 have length t
            offsets = []
            prev = 0
            for t in range(length, 0, -1):
                row = parts[t - 1]
                if row > prev:
                    offsets.extend(range(t - prev, t - row, -1))
                    prev = row
            # hook of box (t, j) = arm + leg + 1 = (row - j - 1) + (offsets[j] + j - t - 1) + 1
            hook_product = 1
            doubled = 0
            for t, row in enumerate(parts):
                doubled += row * (row - 2 * t - 1)
                shift = row - t - 1
                for offset in offsets[:row]:
                    hook_product *= shift + offset
            deg, remainder = divmod(factorial, hook_product)
            if remainder:
                raise ArithmeticError(
                    f"hook product {hook_product} does not divide {n}! for {Partition(parts)}"
                )
            if doubled % 2:
                raise ArithmeticError(
                    f"doubled eigenvalue sum {doubled} is odd for {Partition(parts)}"
                )
            value = doubled // 2
            square = deg * deg
            buckets[value] = buckets.get(value, 0) + square
            if first > length:
                buckets[-value] = buckets.get(-value, 0) + square
    return buckets


def multiplicity(n: int, value: int, max_n: int = DEFAULT_MAX_N, threads: int = 1) -> int:
    """Multiplicity of ``value`` in the spectrum for ``n``; 0 when absent."""
    return spectrum(n, max_n=max_n, threads=threads).multiplicity(value)


def top_eigenvalues(
    n: int, count: int, max_n: int = DEFAULT_MAX_N, threads: int = 1
) -> list[tuple[int, int]]:
    """The ``count`` largest distinct eigenvalues with multiplicities, descending."""
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    spec = spectrum(n, max_n=max_n, threads=threads)
    if count > len(spec.entries):
        raise ValueError(
            f"only {len(spec.entries)} distinct eigenvalues exist for n = {n}, requested {count}"
        )
    return list(spec.entries[:count])
