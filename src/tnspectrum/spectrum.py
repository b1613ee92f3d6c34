"""Eigenvalues and exact multiplicities of the transposition graph.

The Cayley graph of the symmetric group on n symbols generated by all
transpositions is integral: each partition of n contributes one integer
eigenvalue with multiplicity the squared character degree, and the full
spectrum is a bucket sum over all p(n) partitions.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from typing import NamedTuple

from .partitions import DEFAULT_MAX_N, Partition, check_size, conjugate


def eigenvalue(p: Partition) -> int:
    """Adjacency eigenvalue attached to ``p``: half of sum_j n_j (n_j - 2j + 1).

    The doubled sum equals twice the content sum of the Young diagram (column
    index minus row index over all boxes), hence is always even; an odd value
    indicates a bug and raises. Conjugation negates the content sum, which is
    why the spectrum is symmetric about zero.
    """
    doubled = 0
    for j, part in enumerate(p, start=1):
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
    n, k, last = p.n, len(p), p[-1] if p else 0
    doubled = (n - last) * (n - last + 1) + last * (last - 2 * k + 1)
    if doubled % 2:
        raise ArithmeticError(f"doubled bound {doubled} is odd for {p}")
    return doubled // 2


class Spectrum(NamedTuple):
    """Distinct eigenvalues with exact multiplicities, in descending order."""

    n: int
    entries: tuple[tuple[int, int], ...]

    @property
    def order(self) -> int:
        """Vertex count n!, also the sum of all multiplicities."""
        return sum(m for _, m in self.entries)

    def multiplicity(self, value: int) -> int:
        return next((m for v, m in self.entries if v == value), 0)

    def __contains__(self, value: int) -> bool:
        # a tuple's own ``in`` would test the fields, not the eigenvalues
        return any(v == value for v, _ in self.entries)

    def invariant_checks(self) -> dict[str, bool]:
        """The five structural facts every transposition-graph spectrum satisfies."""
        fact = math.factorial(self.n)
        pairs = self.entries
        lookup = dict(pairs)
        return {
            "multiplicity_sum_is_factorial": self.order == fact,
            "trace_is_zero": sum(v * m for v, m in pairs) == 0,
            "square_trace_is_twice_edge_count":
                sum(v * v * m for v, m in pairs) == fact * self.n * (self.n - 1) // 2,
            "symmetric_about_zero": all(lookup.get(-v) == m for v, m in pairs),
            "largest_eigenvalue_is_simple": pairs[0] == (self.n * (self.n - 1) // 2, 1),
        }


#: Below this n a spectrum is folded in-process whatever ``threads`` asks for.
#: In a fresh interpreter on a 2-core box, importing and starting the pool
#: outweighed what two workers saved in 4 of 5 readings at n = 48, and two
#: workers were faster in every reading from n = 49 on (BENCH_tail_kernel.json).
PARALLEL_MIN_N = 50


def spectrum(n: int, max_n: int = DEFAULT_MAX_N, threads: int = 1) -> Spectrum:
    """Exact spectrum of the transposition graph on ``n`` symbols.

    Folds degree(p)^2 into one bucket per eigenvalue over all partitions of n.
    Conjugation keeps the degree and negates the eigenvalue, so the fold visits
    only the partitions whose first part is at least their length. Each adds
    its degree^2 at +eigenvalue and, when its first part exceeds its length,
    also at -eigenvalue on behalf of its conjugate. A partition whose first
    part equals its length has a conjugate of the same kind, visited in its
    own right, so it adds at +eigenvalue only.

    The partitions are built bottom-up by a depth-first walk over their
    tails, the rows below the first: a node is a tail, its children put one
    more row, no shorter than the tail's top row, on top of it, and it yields
    the one partition of n whose first row is n minus the tail's size. Adding
    a row on top changes no hook below it, so a node's hook product is its
    parent's times the hooks of the new row alone.

    The walk is sharded by the tail's bottom run (s, m): exactly m rows of
    length s at the bottom, with only longer rows above them. The shard
    (n, 0) is the one-row partition (n). With ``threads`` > 1 and n at least
    ``PARALLEL_MIN_N``, the shards are dealt round-robin, smallest tails
    (largest subtrees) first, to min(threads, CPU count, shard count) worker
    processes, and none is started when that minimum is 1. Bucket addition
    is commutative and associative, so the result is identical to the
    serial one.

    The walk recurses once per row above the bottom run, which is about n/3
    levels, so from about n = 3000 (reachable only with a raised ``max_n``)
    this, ``multiplicity`` and ``top_eigenvalues`` raise RecursionError.
    Before it walks, the fold tabulates k! for every k <= n, which is 324 MB
    at n = 20 000, so a raised ``max_n`` can also end in MemoryError.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    check_size(n, max_n)
    shards = _shards(n)
    workers = min(threads, os.cpu_count() or 1, len(shards)) if n >= PARALLEL_MIN_N else 1
    if workers == 1:
        buckets = _fold(n, shards)
    else:
        from concurrent.futures import ProcessPoolExecutor

        buckets = {}
        with ProcessPoolExecutor(max_workers=workers) as pool:
            dealt = [shards[k::workers] for k in range(workers)]
            for partial in pool.map(_fold, [n] * workers, dealt):
                for value, mult in partial.items():
                    buckets[value] = buckets.get(value, 0) + mult
    entries = tuple(sorted(buckets.items(), key=lambda item: -item[0]))
    return Spectrum(n=n, entries=entries)


def _shards(n: int) -> list[tuple[int, int]]:
    """The bottom runs (s, m) of the tails ``_fold`` visits, smallest tail s*m first.

    A smaller tail leaves more of n to the rows above it and so roots a
    larger subtree; dealing the shards round-robin in this order keeps the
    workers' loads close.
    """
    keys = [(n, 0)]
    for s in range(1, n):
        m = 1
        # the first row, n - s*m, is at least s and longer than the tail
        while n - s * m >= max(s, m + 1):
            keys.append((s, m))
            m += 1
    keys.sort(key=lambda key: (key[0] * key[1], key[0]))
    return keys


def _fold(n: int, shards) -> dict[int, int]:
    """The buckets ``spectrum`` folds from the partitions of n in the given shards.

    A tail mu of size S and length L is described by its column offsets
    ``cols[j] = mu'_j - j - L`` for j < mu_1 (mu'_j is the length of column
    j, counted from 0). A row r put on top of it has the hook r + L + cols[j]
    in column j < mu_1 and r - j beyond, and every hook of mu stays as it
    was. Putting r on top keeps every offset and appends -j - L for
    mu_1 <= j < r; the doubled content sum D(mu) becomes D(mu) - 2S + r(r-1).
    """
    fact = [1]
    for k in range(1, n + 1):
        fact.append(fact[-1] * k)
    factorial = fact[n]
    buckets: dict[int, int] = {}

    def visit(size, length, hooks, doubled, low, cols):
        top = n - size
        first = len(cols)
        product = hooks * math.prod(map((top + length).__add__, cols)) * fact[top - first]
        deg, remainder = divmod(factorial, product)
        if remainder:
            raise ArithmeticError(
                f"hook product {product} does not divide {n}! for {_completed(top, length, cols)}"
            )
        total = doubled - 2 * size + top * (top - 1)
        if total % 2:
            raise ArithmeticError(
                f"doubled eigenvalue sum {total} is odd for {_completed(top, length, cols)}"
            )
        value = total // 2
        square = deg * deg
        buckets[value] = buckets.get(value, 0) + square
        if top > length + 1:  # first part longer than the length: also the conjugate
            buckets[-value] = buckets.get(-value, 0) + square
        # a child row r leaves a first row n - size - r of at least r and at least length + 2
        high = min(top // 2, top - length - 2)
        if low > high:
            return
        doubled -= 2 * size
        cols.extend(range(-first - length, -low - length, -1))
        for row in range(low, high + 1):
            child_hooks = hooks * math.prod(map((row + length).__add__, cols))
            visit(size + row, length + 1, child_hooks, doubled + row * (row - 1), row, cols)
            cols.append(-row - length)
        del cols[first:]

    for s, m in shards:
        # the rectangle s^m: offsets 0, -1, ..., 1 - s; hook product prod_i (i + s)! / i!
        rectangle = math.prod(fact[i + s] // fact[i] for i in range(m))
        visit(s * m, m, rectangle, s * m * (s - m), s + 1, list(range(0, -s, -1)) if m else [])
    return buckets


def _completed(top: int, length: int, cols: list[int]) -> Partition:
    """The partition ``_fold`` visits at the tail ``cols`` of length ``length``, for messages."""
    return Partition([top, *conjugate([offset + j + length for j, offset in enumerate(cols)])])


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
