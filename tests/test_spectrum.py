import importlib
import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from tnspectrum import (
    Partition,
    character_ratio,
    conjugate,
    degree,
    eigenvalue,
    eigenvalue_upper_bound,
    enumerate_partitions,
    multiplicity,
    spectrum,
    top_eigenvalues,
)

partitions_st = st.builds(
    lambda parts: Partition(sorted(parts, reverse=True)),
    st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=8),
)

spectrum_module = importlib.import_module("tnspectrum.spectrum")


def plain_fold(n):
    """Reference spectrum: every partition folded on its own, no conjugation symmetry."""
    buckets = {}
    for p in enumerate_partitions(n):
        value = eigenvalue(p)
        buckets[value] = buckets.get(value, 0) + degree(p) ** 2
    return tuple(sorted(buckets.items(), reverse=True))


@pytest.fixture
def pools(monkeypatch):
    """Swap the process pool for an in-process one on a 4-CPU machine; lists the pools built."""
    sizes = []

    class InlinePool:
        """Stands in for the process pool: records its size, maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(spectrum_module.os, "cpu_count", lambda: 4)
    return sizes


class TestEigenvalue:
    def test_examples(self):
        assert eigenvalue(Partition((2,))) == 1
        assert eigenvalue(Partition((1, 1))) == -1
        assert eigenvalue(Partition((2, 1))) == 0
        assert eigenvalue(Partition((4,))) == 6
        assert eigenvalue(Partition((1,))) == 0

    @pytest.mark.parametrize("n", range(1, 13))
    def test_conjugation_negates(self, n):
        for p in enumerate_partitions(n):
            assert eigenvalue(conjugate(p)) == -eigenvalue(p)

    @given(partitions_st)
    def test_conjugation_negates_property(self, p):
        assert eigenvalue(conjugate(p)) == -eigenvalue(p)

    @given(partitions_st)
    def test_magnitude_capped_by_transposition_count(self, p):
        assert abs(eigenvalue(p)) <= p.n * (p.n - 1) // 2


class TestCharacterRatio:
    def test_examples(self):
        assert character_ratio(Partition((5,))) == Fraction(1)
        assert character_ratio(Partition((1, 1))) == Fraction(-1)
        assert character_ratio(Partition((2, 1))) == Fraction(0)

    def test_rejects_n1(self):
        with pytest.raises(ValueError):
            character_ratio(Partition((1,)))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_ratio_times_transposition_count_is_eigenvalue(self, n):
        pairs = n * (n - 1) // 2
        for p in enumerate_partitions(n):
            assert character_ratio(p) * pairs == eigenvalue(p)


class TestUpperBound:
    def test_examples(self):
        assert eigenvalue_upper_bound(Partition((6,))) == 15
        assert eigenvalue_upper_bound(Partition((2, 1))) == 2
        assert eigenvalue_upper_bound(Partition((2, 1, 1))) == 4
        assert eigenvalue_upper_bound(Partition()) == 0 == eigenvalue(Partition())

    @pytest.mark.parametrize("n", range(1, 13))
    def test_bounds_every_eigenvalue(self, n):
        for p in enumerate_partitions(n):
            assert eigenvalue(p) <= eigenvalue_upper_bound(p)

    @given(partitions_st)
    def test_bound_property(self, p):
        assert eigenvalue(p) <= eigenvalue_upper_bound(p)


class TestSpectrum:
    def test_n1_single_vertex(self):
        assert spectrum(1).entries == ((0, 1),)

    def test_n2(self):
        assert spectrum(2).entries == ((1, 1), (-1, 1))

    def test_n3(self):
        assert spectrum(3).entries == ((3, 1), (0, 4), (-3, 1))

    def test_n4(self):
        assert spectrum(4).entries == ((6, 1), (2, 9), (0, 4), (-2, 9), (-6, 1))

    def test_n5(self):
        assert spectrum(5).entries == (
            (10, 1), (5, 16), (2, 25), (0, 36), (-2, 25), (-5, 16), (-10, 1),
        )

    def test_resource_guard(self):
        with pytest.raises(ValueError):
            spectrum(81)
        with pytest.raises(ValueError):
            spectrum(10, max_n=9)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_invariants(self, n):
        assert all(spectrum(n).invariant_checks().values())

    def test_lookup_helpers(self):
        spec = spectrum(4)
        assert spec.order == 24
        assert spec.multiplicity(2) == 9
        assert spec.multiplicity(5) == 0
        assert 2 in spec
        assert 5 not in spec

    def test_value_semantics(self):
        spec = spectrum(6)
        assert spec == spectrum(6)
        assert hash(spec) == hash(spectrum(6))
        with pytest.raises(AttributeError):
            spec.entries = ()

    @pytest.mark.parametrize("n", range(1, 31))
    def test_matches_plain_fold(self, n):
        assert spectrum(n).entries == plain_fold(n)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_completed_names_the_visited_partition(self, n):
        # the fold describes a tail mu by its column offsets mu'_j - j - len(mu)
        for p in enumerate_partitions(n):
            tail = p[1:]
            cols = [column - j - len(tail) for j, column in enumerate(conjugate(tail))]
            assert spectrum_module._completed(p[0], len(tail), cols) == p

    def test_hook_product_exactness_is_checked(self, monkeypatch):
        exact_prod = math.prod
        monkeypatch.setattr(math, "prod", lambda factors: exact_prod(factors) + 1)
        with pytest.raises(ArithmeticError, match="does not divide"):
            spectrum(6)

    def test_parallel_fold_matches_serial(self, monkeypatch):
        # real worker processes; the size floor would fold these n in-process
        monkeypatch.setattr(spectrum_module, "PARALLEL_MIN_N", 1)
        for n in (1, 2, 3, 7, 18, 25):
            assert spectrum(n, threads=2) == spectrum(n), n
        assert spectrum(18, threads=3) == spectrum(18)

    @pytest.mark.parametrize("threads", [2, 3])
    def test_dealt_shards_match_plain_fold(self, pools, monkeypatch, threads):
        monkeypatch.setattr(spectrum_module, "PARALLEL_MIN_N", 1)
        for n in range(1, 31):
            assert spectrum(n, threads=threads).entries == plain_fold(n), n
        # n = 1 and n = 2 are a single shard each and fold in-process
        assert len(pools) == 28

    def test_worker_count_is_capped(self, pools, monkeypatch):
        monkeypatch.setattr(spectrum_module, "PARALLEL_MIN_N", 1)
        serial = spectrum(30)
        assert spectrum(30, threads=10**6) == serial
        assert pools == [4]  # min(threads, CPU count 4, 58 shards)
        assert spectrum(2, threads=3) == spectrum(2)
        assert pools == [4]  # one shard: no pool at all
        monkeypatch.setattr(spectrum_module.os, "cpu_count", lambda: None)
        assert spectrum(30, threads=8) == serial
        assert pools == [4]  # CPU count unknown: one worker, no pool

    def test_small_spectra_start_no_pool(self, pools):
        assert spectrum(20, threads=2) == spectrum(20)
        assert pools == []
        spectrum(spectrum_module.PARALLEL_MIN_N, threads=2)
        assert pools == [2]

    def test_rejects_bad_thread_count(self):
        with pytest.raises(ValueError):
            spectrum(6, threads=0)


def transposition_walks(n, steps):
    """Closed walks of each length 0..steps at one vertex, with no hook lengths or contents.

    Tracks, per cycle type, the number of walks from the identity that end at a
    permutation of that type. A transposition splits a cycle of length L into
    lengths a and L - a in L ways (L / 2 when a = L - a), and merges cycles of
    lengths a and b in a * b ways. The identity is the only permutation of
    type 1^n, so its count is the closed-walk count at every vertex.
    """
    identity = (1,) * n
    counts = {identity: 1}
    closed = [1]
    for _ in range(steps):
        following = {}
        for cycles, walks in counts.items():
            for i, length in enumerate(cycles):
                rest = cycles[:i] + cycles[i + 1:]
                for a in range(1, length // 2 + 1):
                    ways = length if 2 * a < length else length // 2
                    split = tuple(sorted(rest + (a, length - a), reverse=True))
                    following[split] = following.get(split, 0) + walks * ways
                for j in range(i + 1, len(cycles)):
                    merged = rest[:j - 1] + rest[j:] + (length + cycles[j],)
                    merged = tuple(sorted(merged, reverse=True))
                    following[merged] = following.get(merged, 0) + walks * length * cycles[j]
        counts = following
        closed.append(counts.get(identity, 0))
    return closed


class TestWalkCountMoments:
    """tr(A^k) = n! * (closed walks of length k at one vertex) = sum of m * v^k.

    An integral spectrum inside [-C(n, 2), C(n, 2)] has at most n(n - 1) + 1
    distinct values, so the moments k = 0..n(n - 1) already fix every
    multiplicity; one more moment is checked on top.
    """

    @pytest.mark.parametrize("n", [8, 12])
    def test_every_moment(self, n):
        steps = n * (n - 1) + 1
        walks = transposition_walks(n, steps)
        entries = spectrum(n).entries
        for k in range(steps + 1):
            assert sum(m * v**k for v, m in entries) == math.factorial(n) * walks[k], k


class TestMultiplicity:
    def test_golden_values(self):
        assert multiplicity(8, 0) == 9864
        assert multiplicity(7, 1) == 441

    def test_absent_value_is_zero(self):
        assert multiplicity(4, 5) == 0


class TestTopEigenvalues:
    def test_n6(self):
        assert top_eigenvalues(6, 3) == [(15, 1), (9, 25), (5, 81)]

    def test_n7(self):
        # at n = 7 only the partition (5, 2) carries the value 9, with degree
        # 7!/360 = 14, so the third-largest multiplicity is 14**2
        assert top_eigenvalues(7, 4) == [(21, 1), (14, 36), (9, 196), (7, 225)]

    def test_n2(self):
        assert top_eigenvalues(2, 1) == [(1, 1)]

    def test_rejects_excessive_count(self):
        with pytest.raises(ValueError):
            top_eigenvalues(2, 3)
        with pytest.raises(ValueError):
            top_eigenvalues(4, 0)


class TestClosedFormsSmallRange:
    """Quick versions of the closed-form sweeps; the acceptance suite runs to 30."""

    @pytest.mark.parametrize("n", range(4, 13))
    def test_third_largest(self, n, spectra_up_to_30):
        spec = spectra_up_to_30[n]
        assert spec.entries[2] == ((n - 1) * (n - 4) // 2, (n * (n - 3) // 2) ** 2)

    @pytest.mark.parametrize("n", range(7, 13))
    def test_fourth_largest(self, n, spectra_up_to_30):
        spec = spectra_up_to_30[n]
        assert spec.entries[3] == (n * (n - 5) // 2, ((n - 1) * (n - 2) // 2) ** 2)

    def test_fourth_largest_formula_breaks_at_n6(self, spectra_up_to_30):
        # (3, 3) shares the value 3 with the hook (4, 1, 1) at n = 6, so the
        # fourth-largest multiplicity exceeds the closed form there
        spec = spectra_up_to_30[6]
        assert spec.entries[3][0] == 3
        assert spec.entries[3][1] == 125 != 100
