import copy
import math
import pickle
from fractions import Fraction

import pytest

from tnspectrum import (
    Partition,
    conjugate,
    degree,
    enumerate_partitions,
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

    @pytest.mark.parametrize("parts", [[2.5, 1.5], [2.0], [3, 1.0], [Fraction(5, 2)]])
    def test_rejects_parts_that_are_not_integers(self, parts):
        with pytest.raises(ValueError, match=r"^parts must be positive integers: "):
            Partition(parts)

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

    def test_takes_no_attributes(self):  # an immutable value, with no ``__dict__``
        with pytest.raises(AttributeError):
            Partition((2, 1)).extra = 1

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

    def test_counts_match_coin_change_up_to_40(self):
        ways = [1] + [0] * 40  # p(0..40), by coin change over the parts 1..40
        for part in range(1, 41):
            for total in range(part, 41):
                ways[total] += ways[total - part]
        assert ways[40] == 37338
        for n in range(1, 41):
            assert sum(1 for _ in enumerate_partitions(n)) == ways[n]


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

    @pytest.mark.parametrize("n", range(1, 37))
    def test_matches_young_lattice(self, n, young_lattice):
        for parts, (f, _) in young_lattice[n].items():
            assert degree(Partition(parts)) == f, parts
