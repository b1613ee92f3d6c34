import copy
import math
import pickle
import subprocess
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given

from tnspectrum import (
    Partition,
    conjugate,
    degree,
    enumerate_partitions,
    hook_lengths,
    partition_count,
)

# Arbitrary partitions: draw unordered positive parts and sort them down.
partitions_st = st.builds(
    lambda parts: Partition(sorted(parts, reverse=True)),
    st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=8),
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

    def test_n11_stream_length(self):
        assert sum(1 for _ in enumerate_partitions(11)) == 56

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            enumerate_partitions(0)

    def test_resource_guard(self):
        with pytest.raises(ValueError):
            enumerate_partitions(81)
        with pytest.raises(ValueError):
            enumerate_partitions(6, max_n=5)
        # a raised guard is adjustable; validation happens before streaming
        first = next(enumerate_partitions(81, max_n=100))
        assert first == (81,)

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

    @given(partitions_st)
    def test_involution_property(self, p):
        assert conjugate(conjugate(p)) == p
        assert conjugate(p).n == p.n


class TestHookLengths:
    def test_examples(self):
        assert hook_lengths(Partition((2, 2))) == ((3, 2), (2, 1))
        assert hook_lengths(Partition((4, 2))) == ((5, 4, 2, 1), (2, 1))
        assert hook_lengths(Partition((1,))) == ((1,),)

    @given(partitions_st)
    def test_shape_positivity_and_corner(self, p):
        grid = hook_lengths(p)
        assert tuple(len(row) for row in grid) == p
        assert all(h >= 1 for row in grid for h in row)
        assert grid[0][0] == p[0] + len(p) - 1

    @given(partitions_st)
    def test_product_divides_factorial(self, p):
        product = math.prod(h for row in hook_lengths(p) for h in row)
        assert math.factorial(p.n) % product == 0


class TestDegree:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_single_row_is_trivial_representation(self, n):
        assert degree(Partition((n,))) == 1

    def test_examples(self):
        assert degree(Partition((3, 1))) == 3
        assert degree(Partition((2, 1))) == 2
        assert degree(Partition((2, 2))) == 2
        assert degree(Partition()) == 1

    def test_inexact_division_raises(self, monkeypatch):
        # 3! + 1 is not a multiple of (2, 1)'s hook product 3
        monkeypatch.setattr(math, "factorial", lambda n: 7)
        with pytest.raises(ArithmeticError, match="does not divide"):
            degree(Partition((2, 1)))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_squared_degrees_sum_to_factorial(self, n):
        total = sum(degree(p) ** 2 for p in enumerate_partitions(n))
        assert total == math.factorial(n)
