import copy
import functools
import math
import pickle
import subprocess
import sys

import pytest

from tnspectrum import (
    Partition,
    conjugate,
    degree,
    enumerate_partitions,
    partition_count,
)


class TestPartitionType:
    def test_valid_construction(self):
        p = Partition((4, 2, 1))
        assert p == (4, 2, 1)
        assert p.n == 7
        assert len(p) == 3
        assert list(p) == [4, 2, 1]
        assert p[0] == 4

    def test_empty_partition_only_for_zero(self):
        assert Partition().n == 0

    def test_rejects_increasing_parts(self):
        with pytest.raises(ValueError, match=r"^parts must be nonincreasing: \(1, 2\)$"):
            Partition((1, 2))

    def test_rejects_nonpositive_parts(self):
        with pytest.raises(ValueError):
            Partition((3, 0))
        with pytest.raises(ValueError, match=r"^parts must be positive integers: \(0,\)$"):
            Partition((0,))
        with pytest.raises(ValueError):
            Partition((-1,))

    def test_value_semantics(self):
        assert Partition((2, 1)) == Partition([2, 1])
        assert hash(Partition((2, 1))) == hash(Partition((2, 1)))
        assert Partition((2, 1)) != Partition((3,))

    def test_is_the_tuple_of_its_parts(self):
        p = Partition((4, 2, 1))
        assert isinstance(p, tuple)
        assert p == (4, 2, 1) and (4, 2, 1) == p
        assert hash(p) == hash((4, 2, 1))
        assert repr(p) == "Partition(4, 2, 1)"

    def test_slices_and_concatenations_are_plain_tuples(self):
        p = Partition((4, 2, 1))
        assert type(p[1:]) is tuple and p[1:] == (2, 1)
        assert type(p + (5,)) is tuple

    @pytest.mark.parametrize(
        "clone", [lambda p: pickle.loads(pickle.dumps(p)), copy.copy, copy.deepcopy]
    )
    def test_pickle_and_copy_go_through_validation(self, clone):
        p = Partition((4, 2, 1))
        assert type(clone(p)) is Partition and clone(p) == p
        forged = tuple.__new__(Partition, (1, 2))  # skips __new__'s checks
        with pytest.raises(ValueError):
            clone(forged)


class TestEnumeration:
    def test_n1(self):
        assert list(enumerate_partitions(1)) == [(1,)]

    def test_n4_reverse_lex_listing(self):
        expected = [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
        assert list(enumerate_partitions(4)) == expected

    def test_n6_reverse_lex_listing(self):
        expected = [
            (6,),
            (5, 1),
            (4, 2),
            (4, 1, 1),
            (3, 3),
            (3, 2, 1),
            (3, 1, 1, 1),
            (2, 2, 2),
            (2, 2, 1, 1),
            (2, 1, 1, 1, 1),
            (1, 1, 1, 1, 1, 1),
        ]
        assert list(enumerate_partitions(6)) == expected

    def test_resource_guard(self):
        # no soft size limit: a stream past the CLI's default --max-n of 80 starts
        first = next(enumerate_partitions(81))
        assert first == (81,)
        # validation happens at call time, before streaming
        with pytest.raises(ValueError, match="^n must be positive, got 0$"):
            enumerate_partitions(0)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_strictly_decreasing_order_and_distinct(self, n):
        seen = list(enumerate_partitions(n))
        assert len(set(seen)) == len(seen)
        for prev, cur in zip(seen, seen[1:]):
            assert prev > cur  # lexicographic on tuples
        assert all(sum(parts) == n for parts in seen)

    def test_counts_match_pentagonal_recurrence_up_to_40(self):
        for n in range(1, 41):
            assert sum(1 for _ in enumerate_partitions(n)) == partition_count(n)


class TestPartitionCount:
    def test_known_values(self):
        known = {0: 1, 1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22,
                 9: 30, 10: 42, 11: 56, 20: 627, 40: 37338, 100: 190569292}
        for n, expected in known.items():
            assert partition_count(n) == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            partition_count(-1)

    def test_concurrent_first_calls_agree(self, child_env):
        # a fresh interpreter, so the first calls of all four threads overlap;
        # the tiny switch interval interleaves them as finely as Python allows
        script = (
            "import sys, threading\n"
            "from tnspectrum import partition_count\n"
            "n = 1500\n"
            "ways = [1] + [0] * n  # coin change over the parts 1..n\n"
            "for part in range(1, n + 1):\n"
            "    for total in range(part, n + 1):\n"
            "        ways[total] += ways[total - part]\n"
            "sys.setswitchinterval(1e-5)\n"
            "results = []\n"
            "threads = [threading.Thread(target=lambda: results.append(partition_count(n)))\n"
            "           for _ in range(4)]\n"
            "for thread in threads:\n"
            "    thread.start()\n"
            "for thread in threads:\n"
            "    thread.join()\n"
            "print(results == [ways[n]] * 4)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=child_env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "True\n"


class TestConjugate:
    def test_examples(self):
        assert conjugate(Partition((4,))) == (1, 1, 1, 1)
        assert conjugate(Partition((2, 1))) == (2, 1)
        assert conjugate(Partition((3, 1))) == (2, 1, 1)
        assert conjugate(Partition()) == ()

    @pytest.mark.parametrize("n", range(1, 13))
    def test_involution_preserves_n_and_degree(self, n):
        for p in enumerate_partitions(n):
            q = conjugate(p)
            assert q.n == n
            assert conjugate(q) == p
            assert degree(q) == degree(p)

    def test_involution_property(self, box_partitions):
        for p in box_partitions:
            assert conjugate(conjugate(p)) == p, p
            assert conjugate(p).n == p.n, p


@functools.cache
def branching_degree(parts: tuple[int, ...]) -> int:
    """Standard Young tableaux of shape ``parts``, by the branching rule.

    The box holding n is a corner, so d(λ) is the sum of d over λ with one
    corner removed; no hook length is formed.
    """
    if sum(parts) <= 1:
        return 1
    return sum(
        branching_degree(tuple(p for p in (*parts[:i], row - 1, *parts[i + 1:]) if p))
        for i, row in enumerate(parts)
        if i + 1 == len(parts) or parts[i + 1] < row
    )


class TestDegree:
    def test_examples(self):
        assert degree(Partition((3, 1))) == 3
        assert degree(Partition((2, 1))) == 2
        assert degree(Partition((2, 2))) == 2
        assert degree(Partition((4, 2))) == 9  # 6! / (5*4*2*1 * 2*1)
        assert degree(Partition()) == 1

    def test_positive_int_and_conjugation_invariant(self, box_partitions):
        # degree raises unless the hook product divides n!
        for p in box_partitions:
            d = degree(p)
            assert type(d) is int and d >= 1, p
            assert degree(conjugate(p)) == d, p

    def test_inexact_division_raises(self, monkeypatch):
        # 3! + 1 is not a multiple of (2, 1)'s hook product 3
        monkeypatch.setattr(math, "factorial", lambda n: 7)
        with pytest.raises(ArithmeticError, match="does not divide"):
            degree(Partition((2, 1)))

    @pytest.mark.parametrize("n", range(1, 21))
    def test_branching_rule(self, n):
        for p in enumerate_partitions(n):
            assert degree(p) == branching_degree(tuple(p)), p
