import importlib
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

    @pytest.mark.parametrize("n", range(1, 31))
    def test_matches_plain_fold(self, n):
        # reference: every partition folded on its own, no conjugation symmetry
        buckets = {}
        for p in enumerate_partitions(n):
            value = eigenvalue(p)
            buckets[value] = buckets.get(value, 0) + degree(p) ** 2
        assert spectrum(n).entries == tuple(sorted(buckets.items(), reverse=True))

    def test_parallel_fold_matches_serial(self):
        for n in (1, 2, 3, 7, 18, 25):
            assert spectrum(n, threads=2) == spectrum(n), n
        assert spectrum(18, threads=3) == spectrum(18)

    def test_worker_count_is_capped(self, monkeypatch):
        spectrum_module = importlib.import_module("tnspectrum.spectrum")
        pools = []

        class InlinePool:
            """Stands in for the process pool: records its size, maps in this process."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(spectrum_module.os, "cpu_count", lambda: 4)
        serial = spectrum(30)
        assert spectrum(30, threads=10**6) == serial
        assert pools == [4]  # min(threads, CPU count 4, 25 shards)
        assert spectrum(2, threads=3) == spectrum(2)
        assert pools == [4]  # one shard: no pool at all
        monkeypatch.setattr(spectrum_module.os, "cpu_count", lambda: None)
        assert spectrum(30, threads=8) == serial
        assert pools == [4]  # CPU count unknown: one worker, no pool

    def test_rejects_bad_thread_count(self):
        with pytest.raises(ValueError):
            spectrum(6, threads=0)


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
