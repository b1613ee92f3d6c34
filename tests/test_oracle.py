import itertools
import math

import numpy as np
import pytest

from tnspectrum import (
    build_graph,
    compare,
    edge_list,
    numeric_spectrum,
    spectrum,
)


class TestBuildGraph:
    def test_k2(self):
        g = build_graph(2)
        assert len(g) == 2
        assert int(g.sum()) // 2 == 1

    def test_n3(self):
        g = build_graph(3)
        assert len(g) == 6
        assert int(g.sum()) // 2 == 9
        assert all(int(row.sum()) == 3 for row in g)

    def test_n4(self):
        g = build_graph(4)
        assert len(g) == 24
        assert int(g.sum()) // 2 == 72
        assert all(int(row.sum()) == 6 for row in g)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            build_graph(1)
        with pytest.raises(ValueError):
            build_graph(7)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_structural_invariants(self, n):
        adj = build_graph(n)
        assert len(adj) == math.factorial(n)
        assert np.array_equal(adj, adj.T)
        assert not adj.diagonal().any()
        degree = n * (n - 1) // 2
        assert (adj.sum(axis=1) == degree).all()
        assert int(adj.sum()) == math.factorial(n) * degree  # handshake

    @pytest.mark.parametrize("n", range(2, 6))
    def test_bipartite_by_parity(self, n):
        # every edge must join an even and an odd permutation, which rules out
        # odd cycles outright
        g = build_graph(n)
        perms = list(itertools.permutations(range(n)))
        colors = np.array([sum(a > b for a, b in itertools.combinations(p, 2)) % 2 for p in perms])
        rows, cols = np.nonzero(g)
        assert (colors[rows] != colors[cols]).all()


class TestNumericSpectrum:
    def test_n2(self):
        values = numeric_spectrum(build_graph(2))
        assert values == pytest.approx((1.0, -1.0), abs=1e-9)

    def test_n3(self):
        values = numeric_spectrum(build_graph(3))
        assert [round(v) for v in values] == [3, 0, 0, 0, 0, -3]

    @pytest.mark.parametrize("n", range(2, 6))
    def test_descending_and_integral(self, n):
        values = numeric_spectrum(build_graph(n))
        assert len(values) == math.factorial(n)
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(abs(v - round(v)) <= 1e-6 for v in values)

    def test_non_integer_eigenvalue_raises(self, monkeypatch):
        # numeric_spectrum hands the raw values on; compare is the one that judges them
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eigvalsh(a) + 0.25)
        values = numeric_spectrum(build_graph(3))
        assert values == pytest.approx((3.25, 0.25, 0.25, 0.25, 0.25, -2.75), abs=1e-9)
        with pytest.raises(ArithmeticError, match="away from an integer"):
            compare(spectrum(3), values)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_moment_sums(self, n):
        values = numeric_spectrum(build_graph(n))
        fact = math.factorial(n)
        assert abs(sum(values)) <= fact * 1e-6
        assert sum(v * v for v in values) == pytest.approx(
            fact * n * (n - 1) // 2, abs=1e-4
        )


class TestCompare:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_agreement(self, n):
        report = compare(spectrum(n), numeric_spectrum(build_graph(n)), 1e-6)
        assert report.agreement
        assert report.max_deviation <= 1e-6
        assert report.discrepancies == ()

    def test_size_mismatch_raises(self):
        numeric = numeric_spectrum(build_graph(4))
        with pytest.raises(ValueError):
            compare(spectrum(3), numeric, 1e-6)

    def test_discrepancies_reported_not_thrown(self):
        # a hand-mangled multiset: one eigenvalue moved from bucket 0 to 3
        wrong = (3.0, 3.0, 0.0, 0.0, 0.0, -3.0)
        report = compare(spectrum(3), wrong, 1e-6)
        assert not report.agreement
        assert (3, 1, 2) in report.discrepancies
        assert (0, 4, 3) in report.discrepancies

    def test_tolerance_violation_aborts(self):
        drifted = (3.0, 0.4, 0.0, 0.0, 0.0, -3.4)
        with pytest.raises(ArithmeticError):
            compare(spectrum(3), drifted, 1e-6)

    def test_tolerance_violation_names_the_farthest_value(self):
        drifted = (3.0, 0.1, 0.0, 0.0, 0.0, -3.4)
        message = r"^eigenvalue -3\.4 is 4\.000e-01 away from an integer \(tolerance 1e-06\)$"
        with pytest.raises(ArithmeticError, match=message):
            compare(spectrum(3), drifted, 1e-6)


OUTSIDE_OPEN_INTERVAL = [float("nan"), float("inf"), float("-inf"), 0.0, -1e-6, 0.5, 2.0]


class TestRecords:
    @pytest.mark.parametrize(
        "make, field",
        [(lambda: compare(spectrum(3), numeric_spectrum(build_graph(3))), "agreement")],
        ids=["ComparisonReport"],
    )
    def test_fields_are_read_only(self, make, field):
        record = make()
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))

    @pytest.mark.parametrize("n", range(2, 5))
    def test_graph_and_spectrum_are_plain_values(self, n):
        g = build_graph(n)
        assert isinstance(g, np.ndarray)
        assert g.shape == (math.factorial(n), math.factorial(n))
        assert isinstance(numeric_spectrum(g), tuple)


class TestToleranceValidation:
    """A tolerance outside 0 < tol < 0.5 would silently turn the integrality check off."""

    @pytest.mark.parametrize("tolerance", OUTSIDE_OPEN_INTERVAL, ids=repr)
    def test_compare_rejects(self, tolerance):
        numeric = numeric_spectrum(build_graph(3))
        with pytest.raises(ValueError, match="0 < tolerance < 0.5"):
            compare(spectrum(3), numeric, tolerance=tolerance)

    @pytest.mark.parametrize("tolerance", [1e-12, 0.49])
    def test_open_interval_accepted(self, tolerance):
        numeric = numeric_spectrum(build_graph(3))
        assert compare(spectrum(3), numeric, tolerance=tolerance).agreement


class TestEdgeList:
    @pytest.mark.parametrize("n", range(2, 5))
    def test_format_and_count(self, n):
        g = build_graph(n)
        edges = edge_list(g)
        assert len(edges) == math.factorial(n) * n * (n - 1) // 4
        assert all(0 <= u < v < len(g) for u, v in edges)
        assert edges == sorted(edges)
