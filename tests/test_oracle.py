import itertools
import math
import random

import pytest

from tnspectrum import Spectrum, spectrum
from tnspectrum.oracle import build_graph, compare, edge_list, numeric_spectrum


def double_swap(graph, seed):
    """``graph`` with one seeded degree-preserving double edge swap: a-b, c-d made a-d, c-b."""
    rng, swapped = random.Random(seed), [list(neighbours) for neighbours in graph]
    while True:
        (a, b), (c, d) = rng.sample(edge_list(graph), 2)
        if len({a, b, c, d}) == 4 and d not in graph[a] and b not in graph[c]:
            break
    for u, old, new in ((a, b, d), (b, a, c), (c, d, b), (d, c, a)):
        swapped[u][swapped[u].index(old)] = new
    return swapped


class TestBuildGraph:
    def test_k2(self):
        assert build_graph(2) == [[1], [0]]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            build_graph(1)
        with pytest.raises(ValueError):
            build_graph(7)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_structural_invariants(self, n):
        g = build_graph(n)
        degree = n * (n - 1) // 2
        assert all(neighbours == sorted(set(neighbours)) for neighbours in g)
        assert all(u in g[v] for u, neighbours in enumerate(g) for v in neighbours)  # symmetric
        assert all(u not in neighbours for u, neighbours in enumerate(g))  # no loops
        assert all(len(neighbours) == degree for neighbours in g)
        assert sum(map(len, g)) == math.factorial(n) * degree  # handshake

    @pytest.mark.parametrize("n", range(2, 6))
    def test_bipartite_by_parity(self, n):
        # every edge must join an even and an odd permutation, which rules out
        # odd cycles outright
        perms = itertools.permutations(range(n))
        colors = [sum(a > b for a, b in itertools.combinations(p, 2)) % 2 for p in perms]
        g = build_graph(n)
        assert all(colors[u] != colors[v] for u, neighbours in enumerate(g) for v in neighbours)


class TestNumericSpectrum:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_descending_and_integral(self, n):
        spec = numeric_spectrum(build_graph(n))
        assert spec.order == math.factorial(n)
        assert [v for v, _ in spec.entries] == sorted({v for v, _ in spec.entries}, reverse=True)
        assert all(type(v) is int and type(m) is int and m > 0 for v, m in spec.entries)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_double_edge_swap_is_refused(self, n, seed):
        with pytest.raises(ArithmeticError):
            numeric_spectrum(double_swap(build_graph(n), seed))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_removed_edge_is_refused(self, n):
        g = build_graph(n)
        g[g[0].pop(0)].remove(0)
        with pytest.raises(ArithmeticError):
            numeric_spectrum(g)

    @pytest.mark.parametrize("kept", [(1, 0, 2, 3), (1, 2, 3, 0)], ids=["transposition", "cycle"])
    def test_integral_but_not_vertex_transitive_is_refused(self, kept):
        # the edge 0-1 and its images under ``kept``: vertex 0's walks pass the integrality
        # proof, and only the other relabelling finds that the graph is not vertex-transitive
        perms = list(itertools.permutations(range(4)))
        rank = {perm: r for r, perm in enumerate(perms)}
        g, edge = [[] for _ in perms], (perms[0], perms[1])
        for _ in range(4):  # the orbit of the edge, as ``kept`` has order 2 or 4
            u, v = rank[edge[0]], rank[edge[1]]
            g[u], g[v] = sorted({*g[u], v}), sorted({*g[v], u})
            edge = tuple(tuple(kept[x] for x in perm) for perm in edge)
        with pytest.raises(ArithmeticError, match="no proof that the graph is vertex-transitive$"):
            numeric_spectrum(g)

    def test_asymmetric_spectrum(self):
        # the Cayley graph of S_3 on its two 3-cycles is two triangles: the one graph here
        # whose spectrum is not symmetric about zero, so a mirrored spectrum would show
        graph = [[3, 4], [2, 5], [1, 5], [0, 4], [0, 3], [1, 2]]
        assert numeric_spectrum(graph) == Spectrum(3, ((2, 2), (-1, 4)))

    def test_non_integer_eigenvalue_raises(self):
        # the adjacent transpositions' Cayley graph, the permutohedron, is vertex-transitive
        # and has irrational eigenvalues
        perms = list(itertools.permutations(range(4)))
        rank = {perm: r for r, perm in enumerate(perms)}
        g = [sorted(rank[p[:i] + (p[i + 1], p[i]) + p[i + 2:]] for i in range(3)) for p in perms]
        with pytest.raises(ArithmeticError, match=r"no integer in -6\.\.6$"):
            numeric_spectrum(g)

    @pytest.mark.parametrize("order", [0, 1, 5, 7, 23])
    def test_vertex_count_not_a_factorial_raises(self, order):
        with pytest.raises(ValueError, match="is no n!"):
            numeric_spectrum([[] for _ in range(order)])


class TestCompare:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_agreement(self, n):
        numeric = numeric_spectrum(build_graph(n))
        assert numeric == spectrum(n)
        assert compare(spectrum(n), numeric) == (True, ())

    def test_size_mismatch_raises(self):
        for other in (spectrum(4), Spectrum(3, ((3, 1), (0, 5), (-3, 1)))):
            with pytest.raises(ValueError, match="^size mismatch"):
                compare(spectrum(3), other)

    def test_discrepancies_reported_not_thrown(self):
        # one eigenvalue moved from bucket 0 to 3, and one to the absent value 1
        report = compare(spectrum(3), Spectrum(3, ((3, 2), (1, 1), (0, 2), (-3, 1))))
        assert not report.agreement
        assert report.discrepancies == ((3, 1, 2), (1, 0, 1), (0, 4, 2))


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
        assert type(g) is list and all(type(neighbours) is list for neighbours in g)
        assert all(type(v) is int for neighbours in g for v in neighbours)
        assert type(numeric_spectrum(g)) is Spectrum


class TestEdgeList:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_format_and_count(self, n):
        g = build_graph(n)
        edges = edge_list(g)
        assert len(edges) == math.factorial(n) * n * (n - 1) // 4
        assert all(0 <= u < v < len(g) for u, v in edges)
        assert edges == sorted(edges)
        # the same pairs straight from the permutations, without the graph
        perms = list(itertools.permutations(range(n)))
        rank = {perm: r for r, perm in enumerate(perms)}
        expected = set()
        for perm, (i, j) in itertools.product(perms, itertools.combinations(range(n), 2)):
            swapped = list(perm)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            expected.add(tuple(sorted((rank[perm], rank[tuple(swapped)]))))
        assert edges == sorted(expected)
