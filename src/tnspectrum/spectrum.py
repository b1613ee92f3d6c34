"""Eigenvalues and exact multiplicities of the transposition graph.

The Cayley graph of the symmetric group on n symbols generated by all
transpositions is integral: each partition of n contributes one integer
eigenvalue with multiplicity the squared character degree, and the full
spectrum is a bucket sum over all p(n) partitions.
"""

from __future__ import annotations

import math
import os
from itertools import accumulate, count
from operator import add, mul
from typing import NamedTuple

from .partitions import Partition


def eigenvalue(p: Partition) -> int:
    """Adjacency eigenvalue attached to ``p``: the content sum of its Young diagram.

    The content of a box is its column index minus its row index; row j
    (from 0) contributes C(n_j, 2) - j * n_j. Conjugation swaps rows and
    columns and so negates the content sum, which is why the spectrum is
    symmetric about zero.
    """
    content = 0
    for j, part in enumerate(p):
        content += part * (part - 1) // 2 - j * part
    return content


def eigenvalue_upper_bound(p: Partition) -> int:
    """Closed-form bound >= eigenvalue(p) from the smallest part and the length.

    C(n - n_k + 1, 2) + C(n_k, 2) - (k - 1) n_k for a partition with k parts
    and smallest part n_k.
    """
    n, k, last = p.n, len(p), p[-1] if p else 0
    return (n - last + 1) * (n - last) // 2 + last * (last - 1) // 2 - (k - 1) * last


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
#: Whole-process wall time of ``tnspec spectrum N`` in fresh interpreters on a 2-core
#: box, two forked workers on the shards of ``forked._shards`` against the serial fold,
#: 12 alternating pairs per n and set. The floor is the least n at and above which the
#: forked fold won the median and at least 9 of 12 pairs at every n measured. Three sets
#: on this kernel, whose calls fold their children's partitions in one loop, gave 42, 43
#: and 38: the forked fold won 6, 8 and 3 pairs at n = 36, 6, 10 and 10 at 39, 10, 8 and
#: 10 at 40, 7, 9 and 11 at 41, 11, 8 and 12 at 42, and at least 11 at 43 and 44
#: (``BENCH_one_loop_fold.json``). The sets moved the floor both ways, so it stays.
#: Re-measure it whenever ``_fold`` or the shard rule changes.
PARALLEL_MIN_N = 40

#: The largest n ``spectrum`` folds. At n = 300 the walk is 148 frames deep, down
#: the tail 1^147 (1^148 is a pre-leaf), and the two accumulators of n(n - 1) + 1
#: counts below n! each hold at most about 55 MB; the fold cannot finish there, as
#: p(300) is about 9e15.
FOLD_MAX_N = 300


def spectrum(n: int, *, threads: int = 1) -> Spectrum:
    """Exact spectrum of the transposition graph on ``n`` symbols.

    Folds degree(p)^2 into one bucket per eigenvalue over all partitions of n.
    Conjugation keeps the degree and negates the eigenvalue, so the fold visits
    only the partitions whose first part is at least their length, and each
    adds its degree^2 once. One whose first part exceeds its length adds to a
    ``strict`` accumulator, which is added at +eigenvalue and, on behalf of the
    conjugates, at -eigenvalue once, when the buckets are built. A partition
    whose first part equals its length has a conjugate of the same kind,
    visited in its own right, so it adds to a ``square`` accumulator, added at
    +eigenvalue only.

    The partitions are built bottom-up by a depth-first walk over their
    tails, the rows below the first: a node is a tail, its children put one
    more row, no shorter than the tail's top row, on top of it, and it stands
    for the one partition of n whose first row is n minus the tail's size.
    Adding a row on top changes no hook below it, and by Frobenius' beta-number
    form of the hook formula the first row t over a tail mu of length L has the
    hook product (t + L)!/E(t), E(x) = prod_k (x + k - mu_k). So a node
    carries n!/H(mu) and a table of E, each partition's degree is that share
    times E(t)/(t + L)!, and a child's table is the parent's shifted by one
    and multiplied by one linear factor. A call folds its children's
    partitions in one loop, and the root's own partition is folded once,
    before the walk. A child whose first row has no room for a row of its own
    is a leaf, and a child whose children are all leaves is a pre-leaf, whose
    leaves the same loop folds from the parent's table; any other child is a
    call. At n = 44 only 2,743 of the 39,453 partitions visited are calls of
    their own.

    In-process the walk is one tree, rooted at the empty tail. ``spectrum``
    decides only whether a fold may fork: from ``PARALLEL_MIN_N`` on, onto
    min(threads, usable CPUs) processes, the caller and the workers it forks.
    Only when that is 2 or more does it load module ``forked``, cut the walk
    into its shards (``forked._shards``), cap the processes at their count and,
    if 2 or more remain, fold them there (``forked.fold_forked``). A forked
    fold that fails anywhere leaves the accumulators zeroed, and the whole walk
    is folded in-process. The usable CPUs are those the process's affinity
    mask allows, not every CPU of the machine: pinned to one CPU, two workers
    lost to the serial fold at n = 56 in 8 of 10 alternating pairs. Where
    ``os.fork`` is missing there is one, and every fold runs in-process. Bucket
    addition is commutative and associative, so the result is identical to the
    serial one.

    An n below 1 or above ``FOLD_MAX_N`` raises ValueError before any fold, and
    so do ``multiplicity`` and ``top_eigenvalues``.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    _check_n(n)
    workers = min(threads, _usable_cpus()) if n >= PARALLEL_MIN_N else 1
    top = n * (n - 1) // 2  # index i of an accumulator counts the eigenvalue i - top
    strict, square = [0] * (2 * top + 1), [0] * (2 * top + 1)
    folded = False
    if workers > 1:  # a fold that may fork; any other walks from the empty tail in-process
        from .forked import _shards, fold_forked

        shards = _shards(n)
        workers = min(workers, len(shards))
        if workers > 1:
            folded = fold_forked(lambda root: _fold(n, root, strict, square), shards, workers,
                                 (strict, square))
    if not folded:  # one process, or a forked fold that failed anywhere and zeroed the sums
        _fold(n, (0, 0), strict, square)
    # from the largest value down; a strict count at index i also counts the conjugates
    # at the mirror index 2 top - i
    buckets = map(add, reversed(square), map(add, reversed(strict), strict))
    entries = tuple((value, mult) for value, mult in zip(count(top, -1), buckets) if mult)
    return Spectrum(n=n, entries=entries)


def eigenvalue_set(n: int) -> set[int]:
    """The distinct eigenvalues for ``n``: the content sums of the partitions of n.

    A bitset DP with no hook lengths or degrees: ``below[size][t]`` has bit c + C(size, 2)
    set for each content sum c of a partition of ``size`` whose top row is at most t, kept
    for t <= min(size, n - size), the most that later sizes read. A row r put on top of a
    partition of S moves its boxes one row down and adds the contents 0..r - 1, so it shifts
    every sum by C(r, 2) - S and every bit by (r - 1)(S + r). In fresh interpreters on 2
    cores it took 0.08 s and 26 MB peak RSS at n = 200, 0.33 s and 71 MB at n = 300. An n
    outside 1..``FOLD_MAX_N`` raises ValueError first, as in ``spectrum``.
    """
    _check_n(n)
    below = [[1]]  # the empty partition, sum 0
    for size in range(1, n + 1):
        bits, sums = 0, [0]
        for top in range(1, size + 1):
            bits |= below[size - top][min(top, size - top)] << (top - 1) * size
            if top <= n - size:
                sums.append(bits)
        below.append(sums)
    offset = n * (n - 1) // 2
    return {c - offset for c in range(bits.bit_length()) if bits >> c & 1}


def _check_n(n: int) -> None:
    """Raise ValueError for an n that ``spectrum`` and ``eigenvalue_set`` refuse."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > FOLD_MAX_N:
        raise ValueError(f"n = {n} exceeds the fold ceiling FOLD_MAX_N = {FOLD_MAX_N}")


def _usable_cpus() -> int:
    """The CPUs this process may fold on: its affinity mask where the platform has one.

    A platform without ``os.fork`` has one: ``spectrum`` folds there in-process.
    """
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fold(n: int, root: tuple[int, int], strict: list[int], square: list[int]) -> None:
    """Add the partitions of n in the subtree at ``root`` into ``strict`` and ``square``.

    Each accumulator counts degree^2 per eigenvalue v at index v + C(n, 2), and each
    partition is one addition: to ``strict`` when its first part exceeds its length, a
    count that ``spectrum`` also adds at -v for the conjugate, else to ``square``.

    A tail mu of size S and length L is carried as G = n!/H(mu), H(mu) its hook
    product, with its content sum c(mu), its top row low = mu_1 and a table of
    E(x) = prod_{k=1..L} (x + k - mu_k) for low <= x <= n - S. By Frobenius'
    beta-number form of the hook formula, the first row t of the partition (t, mu)
    has the hook product (t + L)!/E(t), so the partition has the degree
    G E(t)/(t + L)!. A child row r put on top gives the tail nu = (r, mu) with
    G_nu = G E(r)/(r + L)! and the table E_nu(x) = (x + 1 - r) E(x + 1). It also moves
    every box of mu one row down, so c(nu) = c(mu) - S + C(r, 2).

    A call at mu never folds its own partition: one loop over its child rows r folds
    each child's partition (n - S - r, r, mu), with
    d = G E(r) (n - S - 2r + 1) E(n - S - r + 1) / ((r + L)! (n - S - r + L + 1)!), and
    eigenvalue c(mu) - 2S + C(r, 2) - r + C(n - S - r, 2). A child row leaves a first row
    n - S - r of at least r and L + 2. The child is a leaf, with no room for a row of its
    own, where 3r > n - S or 2r > n - S - L - 3, and the loop is done with it. Otherwise
    it divides out G_nu once. A pre-leaf, whose child rows are all leaves, where
    4r > n - S or 3r > n - S - L - 4, has its leaves (t, r', r, mu) folded there too,
    reading E_nu straight off the parent's table, as
    d = G_nu E_nu(r') (t - r' + 1) E_nu(t + 1) / ((r' + L + 1)! (t + L + 2)!); any other
    child is a call. At n = 44 that leaves 2,743 calls for the 8,819 nodes with children.

    The root (s, m) is the rectangle s^m, its table from x = s and its child rows
    longer than s (from ``start``; any other call's children start at its ``low``); its
    own partition (n - s m, s^m) is folded once, before the walk. (0, 0) roots the
    whole walk. Every division is a checked ``divmod``: a remainder raises
    ArithmeticError naming the partition whose hook product does not divide n! (the
    rows folded in a loop are named through ``inexact``'s ``rows``, not pushed onto
    ``tail``).
    """
    fact = _factorials(n)
    tail = []  # the rows below the current call's child rows, bottom first, for messages

    def inexact(top, *rows):
        return ArithmeticError(
            f"hook product does not divide {n}! for {_completed(top, [*tail, *rows])}"
        )

    # ``content`` is c(mu) + C(n, 2) less S: every box of the tail one row down
    def visit(size, length, share, content, low, start, table):
        top = n - size
        content -= size  # and every box of a child's tail one row further down
        # every call has top >= length + 1, so split <= high + 1: no child with children passes high
        high = min(top // 2, top - length - 2)
        split = min(top // 3, (top - (length + 1) - 2) // 2) + 1
        inner = min(top // 4, (top - (length + 1) - 3) // 3) + 1
        for row in range(start, high + 1):
            rest = top - row
            deg, remainder = divmod(
                share * table[row - low] * (rest - row + 1) * table[rest + 1 - low],
                fact[row + length] * fact[rest + length + 1],
            )
            if remainder:
                raise inexact(rest, row)
            value = content + row * (row - 3) // 2 + rest * (rest - 1) // 2
            sums = strict if row < top - length - 2 else square
            sums[value] += deg * deg
            if row < split:  # the child has child rows of its own
                child, remainder = divmod(share * table[row - low], fact[row + length])
                if remainder:
                    raise inexact(row)
                if row < inner:
                    shifted = table[row + 1 - low:top - row + 2 - low]  # E(x + 1), x = row..rest
                    tail.append(row)
                    visit(size + row, length + 1, child, content + row * (row - 3) // 2, row, row,
                          list(map(mul, count(1), shifted)))
                    tail.pop()
                    continue
                # a pre-leaf, whose child rows are all leaves
                shift = content - size + row * (row - 5) // 2
                for leaf in range(row, min(rest // 2, rest - length - 3) + 1):
                    first = rest - leaf
                    deg, remainder = divmod(
                        child * ((leaf + 1 - row) * (first - leaf + 1) * (first + 2 - row))
                        * table[leaf + 1 - low] * table[first + 2 - low],
                        fact[leaf + length + 1] * fact[first + length + 2],
                    )
                    if remainder:
                        raise inexact(first, row, leaf)
                    value = shift + leaf * (leaf - 3) // 2 + first * (first - 1) // 2
                    sums = strict if leaf < rest - length - 3 else square
                    sums[value] += deg * deg

    # the rectangle s^m: hooks i + j for rows i < m and 1 <= j <= s, E(x) = prod_k (x + k - s)
    # and content sum m C(s, 2) - s C(m, 2)
    s, m = root
    size, top = s * m, n - s * m
    share, remainder = divmod(fact[n], math.prod(i + j for i in range(m) for j in range(1, s + 1)))
    if remainder:
        raise ArithmeticError(f"hook product does not divide {n}! for {Partition([s] * m)}")
    table = [math.prod(range(x - s + 1, x - s + m + 1)) for x in range(s, top + 1)]
    tail.extend([s] * m)
    deg, remainder = divmod(share * table[top - s], fact[top + m])
    if remainder:
        raise inexact(top)
    content = size * (s - m) // 2 + n * (n - 1) // 2 - size
    sums = strict if top > m + 1 else square
    sums[content + top * (top - 1) // 2] += deg * deg
    visit(size, m, share, content, s, s + 1, table)


def _factorials(n: int) -> list[int]:
    """The k! for k = 0..n, which ``_fold`` reads."""
    return list(accumulate(range(1, n + 1), mul, initial=1))


def _completed(top: int, tail: list[int]) -> Partition:
    """The partition with first row ``top`` over the rows ``tail``, bottom first, for messages."""
    return Partition([top, *reversed(tail)])


def multiplicity(n: int, value: int, *, threads: int = 1) -> int:
    """Multiplicity of ``value`` in the spectrum for ``n``; 0 when absent."""
    return spectrum(n, threads=threads).multiplicity(value)


def top_eigenvalues(n: int, count: int, *, threads: int = 1) -> list[tuple[int, int]]:
    """The ``count`` largest distinct eigenvalues with multiplicities, descending.

    A count above the number of distinct eigenvalues, which ``eigenvalue_set`` finds with
    no degree, raises ValueError before any fold.
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    distinct = len(eigenvalue_set(n))
    if count > distinct:
        raise ValueError(
            f"only {distinct} distinct eigenvalues exist for n = {n}, requested {count}"
        )
    return list(spectrum(n, threads=threads).entries[:count])
