"""Graph type, searches, oracles, blow-up, and the edge-list format."""

from __future__ import annotations

import contextlib
import math
import re
import sys
from random import Random

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from conftest import (_arc_lists, bellman_ford, complete_graph, cycle_graph, path_graph,
                      random_connected, random_graph, random_strongly_connected, star_graph)
from diamecc import graph as graph_module
from diamecc import search
from diamecc.stdiam import STInstance, build_equivalence_gadget
from diamecc import (UNREACHABLE, Graph, GraphFormatError, apsp_matrix, approx_on_spanner,
                     closest, degree3_blowup, diam_dense_32, diam_folklore_2approx,
                     diam_linear_lessthan2, ecc_2approx, ecc_2plusdelta, ecc_dense_53,
                     eccentricities, eccentricity, exact_diameter, exact_eccentricities,
                     exact_st_diameter, format_graph, is_connected, is_strongly_connected,
                     k_closest, max_distances, multi_source_distance, nearest, parse_graph,
                     parse_vertex_set, source_radius, sssp, st_2approx_true,
                     st_2approx_weighted, st_3approx)


class TestGraphType:
    def test_reverse_adjacency_is_transpose(self):
        rng = Random(0)
        g = random_graph(rng, 30, 80, directed=True, max_w=5)
        fwd = sorted((u, v, w) for u in range(g.n) for v, w in g.adj_out[u])
        rev = sorted((u, v, w) for v in range(g.n) for u, w in g.adj_in[v])
        assert fwd == rev and g.adj_in is not g.adj_out

    def test_undirected_companion_arcs(self):
        g = Graph(3, [(0, 1, 4), (1, 2, 1)])
        assert (0, 4) in g.adj_out[1] and (2, 1) in g.adj_out[1]
        assert g.adj_in is g.adj_out and g.adjacency("in") is g.adjacency("out")

    def test_weight_classes(self):
        assert Graph(3, [(0, 1, 1), (1, 2, 1)]).unit_weights
        zero_one = Graph(3, [(0, 1, 0), (1, 2, 1)])
        assert zero_one.zero_one_weights and not zero_one.positive_weights
        heavy = Graph(3, [(0, 1, 4), (1, 2, 1)])
        assert heavy.positive_weights and not heavy.zero_one_weights
        assert Graph(2).positive_weights and Graph(2).max_weight == 0

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 5, 1)])
        with pytest.raises(ValueError):
            Graph(2, [(0, 1, -1)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 1, 2**63)])
        # The weight itself must fit an int64 too, on one vertex as well.
        for n in (1, 2):
            with pytest.raises(ValueError):
                Graph(n, [(0, 0, 2**63)])

    @pytest.mark.parametrize("edge, message", [
        ((0, 1, float("inf")), "edge (0,1) has invalid weight inf"),
        ((0, 1, float("nan")), "edge (0,1) has invalid weight nan"),
        ((0, 1, 2.5), "edge (0,1) has invalid weight 2.5"),
        ((0, 1, -1), "edge (0,1) has invalid weight -1"),
        ((0.0, 1, 1), "edge (0.0,1) out of range for n=2"),
        ((1, 1.5, 1), "edge (1,1.5) out of range for n=2"),
        ((0, 2, 1), "edge (0,2) out of range for n=2")])
    def test_bad_numbers_name_the_edge(self, edge, message):
        # The first bad edge in input order is named, whatever comes after.
        for edges in ([edge], [(0, 1, 1), edge, (5, 5, -1)]):
            with pytest.raises(ValueError) as err:
                Graph(2, edges)
            assert type(err.value) is ValueError and str(err.value) == message

    @pytest.mark.parametrize("n", [2.5, "3", True, np.bool_(True), None, -1])
    def test_rejects_a_bad_vertex_count(self, n):
        with pytest.raises(ValueError, match="^vertex count n must be a nonnegative int, got "):
            Graph(n, [(0, 1, 1)])

    def test_numpy_vertex_count_is_an_int(self):
        g = Graph(np.int64(3), [(0, 1, 1)])
        assert type(g.n) is int and sssp(g, 0, "out") == [0, 1, UNREACHABLE]

    def test_integral_numbers_are_ints(self):
        g = Graph(3, [(np.int64(0), 1, 2.0), (1, np.int32(2), np.int64(3)), (True, 2, 1)])
        assert g.edges == [(0, 1, 2), (1, 2, 3), (1, 2, 1)]
        assert all(type(x) is int for edge in g.edges for x in edge)

    def test_degree_names_a_bad_vertex(self):
        g = Graph(3, [(0, 1, 1)])
        assert [g.degree(v) for v in range(3)] == [1, 1, 0]
        for v in (-1, 3):
            with pytest.raises(ValueError, match=f"^vertex {v} out of range$"):
                g.degree(v)


def _old_lists(degree, heads, weights) -> list:
    """Reference adjacency lists from arcs grouped by tail: one
    (head, weight) tuple per arc, by zip."""
    arcs = list(zip(heads.tolist(), weights.tolist()))
    ends = degree.cumsum().tolist()
    return [arcs[a:b] for a, b in zip([0] + ends, ends)]


class TestArcGrouping:
    @pytest.mark.parametrize("n", [1, 2**16 - 1, 2**16, 2**16 + 1, graph_module.MAX_VERTICES])
    def test_group_order_is_the_stable_argsort(self, n):
        rng = np.random.default_rng(n)
        # Few distinct ids, so that equal ids test stability; they include
        # both ends of range(n) and each side of the first 16-bit digit.
        values = [v for v in (0, n - 1, 0xFFFF, 0x10000) if v < n] + rng.integers(0, n, 200).tolist()
        for ids in (np.zeros(0, dtype=np.int64), rng.choice(values, 1), rng.choice(values, 5000)):
            assert np.array_equal(graph_module._group_order(ids), np.argsort(ids, kind="stable"))

    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("max_w", [1, 5])
    def test_views_across_the_second_digit(self, monkeypatch, directed, max_w):
        # Ids straddle 0xFFFF / 0x10000, so the arc view's grouping takes two
        # digit passes; no benchmark graph has that many vertices.
        rng = np.random.default_rng(7)
        n, m = 70_000, 30_000
        near = rng.integers(0xFFFF - 50, 0x10000 + 50, size=(m // 2, 2))
        far = rng.integers(0, n, size=(m - m // 2, 2))
        ends = np.concatenate((near, far))
        edges = [(u, v, w) for (u, v), w in zip(ends.tolist(), rng.integers(1, max_w + 1, m).tolist())]
        views = {}
        for old in (False, True):
            if old:
                monkeypatch.setattr(graph_module, "_group_order",
                                    lambda ids: np.argsort(ids, kind="stable"))
                monkeypatch.setattr(graph_module, "_lists", _old_lists)
            g = Graph(n, edges, directed=directed)
            views[old] = (g.adj_out, g.adj_in, g.arcs("out"), g.arcs("in"),
                          search._csr(g, "out"), search._csr(g, "in"))
        new, ref = views[False], views[True]
        assert new[:2] == ref[:2]
        for got, want in zip(new[2:4], ref[2:4]):
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        for got, want in zip(new[4:], ref[4:]):
            assert np.array_equal(got[0], want[0]) and got[1] == want[1]
            assert (got[2] is None) == (want[2] is None)
            assert got[2] is None or np.array_equal(got[2], want[2])

    @pytest.mark.parametrize("directed, weights", [
        (True, [1]), (True, [3]), (True, [0]), (True, [1, 2, 7]),
        (False, [1]), (False, [4]), (False, [2, 9])])
    def test_lists_match_per_arc_tuples(self, directed, weights):
        rng = Random(11)
        for trial in range(20):
            n = rng.randint(1, 30)
            # Self-loops, parallel arcs, and the last vertices left isolated.
            edges = [(rng.randrange(max(n - 3, 1)), rng.randrange(max(n - 3, 1)), rng.choice(weights))
                     for _ in range(rng.randint(0, 3 * n))]
            edges += [(0, 0, weights[0])] * (trial % 2)
            g = Graph(n, edges, directed=directed)
            assert (g.arcs("in") is g.arcs("out")) == (not directed)
            for direction in ("out", "in"):
                want = _arc_lists(g, direction)
                # The arc view, 0 weights included: u's arcs at indptr[u]:indptr[u + 1].
                indptr, degree, heads, arc_weights = view = g.arcs(direction)
                assert all(a.dtype == np.int64 and not a.flags.writeable for a in view)
                assert indptr.tolist() == [0] + degree.cumsum().tolist()
                assert [list(zip(heads[a:b].tolist(), arc_weights[a:b].tolist()))
                        for a, b in zip(indptr.tolist(), indptr[1:].tolist())] == want
                # One weight (or none) is stored once: every arc reads it at
                # stride 0.  Small trials may draw one of several weights.
                assert (arc_weights.strides == (0,)) == (len(set(g.columns[2].tolist())) <= 1)
                adj = g.adjacency(direction)
                assert adj == want
                assert all(type(arcs) is list for arcs in adj)
                if len(weights) == 1:
                    assert len({id(arc) for arcs in adj for arc in arcs}) <= n
                    # On one weight the ring's targets are the view's heads.
                    csr = search._csr(g, direction)
                    assert (csr is None) == (weights == [0])
                    assert csr is None or not g.m or np.shares_memory(csr[0], heads)


class TestSSSP:
    def test_line_graph(self):
        g = path_graph(3)
        assert sssp(g, 0, "out") == [0, 1, 2]

    def test_weighted_triangle(self):
        g = Graph(3, [(0, 1, 5), (1, 2, 1), (0, 2, 10)])
        assert sssp(g, 0)[2] == 6

    def test_matches_bellman_ford(self):
        rng = Random(1)
        for trial in range(40):
            n = rng.randint(2, 64)
            g = random_graph(rng, n, rng.randint(0, 3 * n),
                             directed=rng.random() < 0.5,
                             max_w=rng.choice([1, 1, 7]))
            src = rng.randrange(n)
            for direction in ("out", "in"):
                assert sssp(g, src, direction) == bellman_ford(g, src, direction)

    def test_triangle_inequality_and_tight_predecessor(self):
        rng = Random(2)
        for _ in range(20):
            n = rng.randint(2, 40)
            g = random_graph(rng, n, 3 * n, directed=True, max_w=4)
            dist = sssp(g, 0, "out")
            for u, v, w in g.edges:
                if dist[u] != UNREACHABLE:
                    assert dist[v] <= dist[u] + w
            for v in range(n):
                if v != 0 and dist[v] != UNREACHABLE:
                    assert any(dist[u] + w == dist[v] for u, w in g.adj_in[v]
                               if dist[u] != UNREACHABLE)

    def test_in_direction_equals_transpose(self):
        rng = Random(3)
        g = random_graph(rng, 25, 70, directed=True, max_w=3)
        gt = Graph(g.n, [(v, u, w) for u, v, w in g.edges], directed=True)
        for s in range(0, g.n, 5):
            assert sssp(g, s, "in") == sssp(gt, s, "out")

    def test_zero_one_weights(self):
        g = Graph(4, [(0, 1, 0), (1, 2, 1), (2, 3, 0)])
        assert sssp(g, 0) == [0, 0, 1, 1]

    def test_rows_are_lists(self):
        # Both the list search and the ring pass hand back a plain list.
        g = random_strongly_connected(Random(2), 300, 1200)
        for _ in range(4):
            assert type(sssp(g, 0)) is list
            assert type(multi_source_distance(g, [1, 2], "in")) is list


class TestMultiSource:
    def test_all_vertices_gives_zero(self):
        g = path_graph(5)
        assert multi_source_distance(g, range(5)) == [0] * 5

    def test_two_ends_of_path(self):
        g = path_graph(4)
        assert multi_source_distance(g, {0, 3}, "out") == [0, 1, 1, 0]

    def test_empty_sources_rejected(self):
        with pytest.raises(ValueError):
            multi_source_distance(path_graph(3), [])

    def test_equals_min_over_sources(self):
        rng = Random(4)
        for _ in range(15):
            n = rng.randint(3, 40)
            g = random_graph(rng, n, 2 * n, directed=True, max_w=5)
            sources = rng.sample(range(n), rng.randint(1, n))
            got = multi_source_distance(g, sources, "in")
            want = [min(sssp(g, s, "in")[v] for s in sources) for v in range(n)]
            assert got == want


class TestConnectivity:
    def test_directed_input_ignores_arc_directions(self):
        weakly = Graph(3, [(0, 1, 1), (2, 1, 1)], directed=True)
        assert is_connected(weakly) and not is_strongly_connected(weakly)
        two_parts = Graph(4, [(0, 1, 1), (2, 3, 1), (3, 2, 1)], directed=True)
        assert not is_connected(two_parts)

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = Random(23)
        seen = set()
        for trial in range(120):
            n = rng.randint(1, 30)
            directed = trial % 2 == 0
            g = random_graph(rng, n, rng.randint(0, 2 * n), directed,
                             max_w=rng.choice([1, 0, 8]), loops=True)
            nxg = nx.MultiDiGraph() if directed else nx.MultiGraph()
            nxg.add_nodes_from(range(n))
            nxg.add_edges_from((u, v) for u, v, _ in g.edges)
            want = nx.is_weakly_connected(nxg) if directed else nx.is_connected(nxg)
            assert is_connected(g) == want
            if directed:
                assert is_strongly_connected(g) == nx.is_strongly_connected(nxg)
            seen.add(want)
        assert seen == {True, False}

    def test_undirected_strong_connectivity_is_one_search(self, monkeypatch):
        calls = []
        real = search._distances
        monkeypatch.setattr(search, "_distances",
                            lambda g, sources, direction: calls.append(direction)
                            or real(g, sources, direction))
        assert is_strongly_connected(path_graph(5)) and calls == ["out"]
        calls.clear()
        assert is_strongly_connected(cycle_graph(5, directed=True)) and calls == ["out", "in"]


class TestKClosest:
    def test_star_center_prefers_small_ids(self):
        g = star_graph(6)
        nb = k_closest(g, 0, 4)
        assert nb.items == [(0, 0), (1, 1), (2, 1), (3, 1)]

    def test_path_middle(self):
        g = path_graph(5)
        assert k_closest(g, 2, 3).items == [(2, 0), (1, 1), (3, 1)]

    def test_equals_sorted_full_search(self):
        rng = Random(5)
        for _ in range(30):
            n = rng.randint(2, 50)
            g = random_graph(rng, n, 2 * n, directed=rng.random() < 0.5,
                             max_w=rng.choice([1, 4]))
            v = rng.randrange(n)
            s = rng.randint(1, n)
            direction = rng.choice(["out", "in"])
            full = sorted((d, u) for u, d in enumerate(sssp(g, v, direction))
                          if d != UNREACHABLE)[:s]
            got = k_closest(g, v, s, direction).items
            assert got == [(u, d) for d, u in full]

    def test_unit_weights_last_level_larger_than_s(self):
        # Unit weights take the level-synchronous path, which cuts the last
        # level after sorting it by id; here that level dwarfs s.
        rng = Random(6)
        n = 40
        loops = random_graph(rng, n, n * n // 4, directed=False)
        graphs = [complete_graph(30), complete_graph(20, directed=True), star_graph(40),
                  Graph(n + 1, [(0, i, 1) for i in range(1, n + 1)], directed=True),
                  Graph(n, loops.edges + [(v, v, 1) for v in range(0, n, 4)] + loops.edges[:20])]
        for _ in range(8):
            m = rng.randint(20, 60)
            graphs.append(random_graph(rng, m, m * m // 4, directed=rng.random() < 0.5))
        for g in graphs:
            assert g.unit_weights
            for v in range(0, g.n, 3):
                for s in sorted({1, 2, 5, g.n // 2, g.n}):
                    for direction in ("out", "in"):
                        full = sorted((d, u) for u, d in enumerate(sssp(g, v, direction))
                                      if d != UNREACHABLE)[:s]
                        got = k_closest(g, v, s, direction).items
                        assert got == [(u, d) for d, u in full], (g, v, s, direction)

    def test_heap_path_on_distance_ties(self):
        # Few distinct weights put many vertices at one distance, so the
        # s-th closest vertex often sits inside a level.  Positive weights
        # stop at the s-th pop; 0-weight edges settle the whole level.
        rng = Random(15)
        side = 6
        grid = [(r * side + c, r * side + c + 1, 3) for r in range(side) for c in range(side - 1)]
        grid += [(r * side + c, (r + 1) * side + c, 3) for r in range(side - 1) for c in range(side)]
        graphs = [Graph(side * side, grid), Graph(side * side, grid, directed=True)]
        for choices in ((2, 4), (3,), (0, 2), (0, 1, 2)) * 3:
            n = rng.randint(5, 40)
            graphs.append(Graph(n, [(rng.randrange(n), rng.randrange(n), rng.choice(choices))
                                    for _ in range(rng.randint(n, 3 * n))],
                                directed=rng.random() < 0.5))
        for g in graphs:
            assert not g.unit_weights
            for v in range(0, g.n, 4):
                for direction in ("out", "in"):
                    order = sorted((d, u) for u, d in enumerate(bellman_ford(g, v, direction))
                                   if d != UNREACHABLE)
                    for s in range(1, g.n + 1):
                        got = k_closest(g, v, s, direction).items
                        assert got == [(u, d) for d, u in order[:s]], (g, v, s, direction)

    def test_zero_weight_ties_respect_id_order(self):
        # 0-weight edges put several vertices at the same distance; the
        # neighborhood must still come back in (distance, id) order.
        g = Graph(5, [(0, 4, 0), (0, 3, 0), (4, 1, 1), (3, 2, 1)])
        assert k_closest(g, 0, 3).items == [(0, 0), (3, 0), (4, 0)]


class TestDirectionCheck:
    # Every public function that takes a direction rejects any other string
    # before it searches or caches anything, on the ring path (many sources,
    # unit weights, no probe) as on the list and probe paths.
    CALLS = {
        "eccentricities": lambda g, d: eccentricities(g, range(0, g.n, 3), d),
        "eccentricities into targets": lambda g, d: eccentricities(g, [0, 5], d, targets=[1, 2]),
        "nearest": lambda g, d: nearest(g, range(0, g.n, 3), [1, 2], d),
        "max_distances": lambda g, d: max_distances(g, range(0, g.n, 3), d),
        "closest": lambda g, d: closest(g, range(0, g.n, 3), 4, d),
        "sssp": lambda g, d: sssp(g, 0, d),
        "multi_source_distance": lambda g, d: multi_source_distance(g, [0, 5], d),
        "k_closest": lambda g, d: k_closest(g, 0, 4, d),
        "eccentricity": lambda g, d: eccentricity(g, 0, d),
        "exact_eccentricities": lambda g, d: exact_eccentricities(g, d),
        "eccentricities of no sources": lambda g, d: eccentricities(g, [], d),
        "nearest of no sources": lambda g, d: nearest(g, [], [1, 2], d),
        "closest of no sources": lambda g, d: closest(g, [], 4, d),
    }

    @pytest.mark.parametrize("name", CALLS)
    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("max_w", [1, 7])
    def test_invalid_direction_raises_and_caches_nothing(self, name, directed, max_w):
        rng = Random(0)
        g = (random_strongly_connected(rng, 300, 1200, max_w) if directed
             else random_connected(rng, 300, 1200, max_w))
        for bad in ("bogus", "OUT", None):
            with pytest.raises(ValueError, match="direction must be 'out' or 'in'"):
                self.CALLS[name](g, bad)
            assert not g._csr and not g._views


class TestVertexIdCheck:
    # Every public search rejects a vertex id that is not an int (Python or
    # numpy, as Graph's edges take) in range(n) with ValueError, before it
    # searches or caches anything, on the ring path as on the list paths.
    CALLS = {
        "eccentricities": lambda g, v: eccentricities(g, [0, v, 5]),
        "eccentricities into targets": lambda g, v: eccentricities(g, [0, 5], targets=[1, v]),
        "nearest": lambda g, v: nearest(g, [0, v, 5], [1, 2]),
        "nearest members": lambda g, v: nearest(g, [0, 5], [1, v]),
        "max_distances": lambda g, v: max_distances(g, [0, v, 5]),
        "closest": lambda g, v: closest(g, [0, v, 5], 4),
        "sssp": lambda g, v: sssp(g, v),
        "multi_source_distance": lambda g, v: multi_source_distance(g, [0, v]),
        "k_closest": lambda g, v: k_closest(g, v, 4),
        "eccentricity": lambda g, v: eccentricity(g, v),
        "exact_st_diameter S": lambda g, v: exact_st_diameter(g, [0, v], [1, 2]),
        "exact_st_diameter T": lambda g, v: exact_st_diameter(g, [0, 5], [1, v]),
    }

    @pytest.mark.parametrize("name", CALLS)
    @pytest.mark.parametrize("max_w", [1, 7])
    def test_non_ids_raise_and_cache_nothing(self, name, max_w):
        g = random_connected(Random(0), 300, 1200, max_w)
        for bad in (0.5, 1.0, np.float64(2.0), "1", None, -1, 300, np.int64(300)):
            with pytest.raises(ValueError, match=f"^vertex id {re.escape(repr(bad))} not an int or out of range$"):
                self.CALLS[name](g, bad)
            assert not g._csr and not g._views

    def test_the_first_bad_id_in_input_order_is_named(self):
        # A source set checks its range on its sorted ends, but still names
        # the first bad id as given, an int or not.
        g = random_connected(Random(0), 300, 1200, 7)
        for ids, bad in (([5, 300, -1], "300"), ([-1, 5, 300], "-1"), ([0, 0.5, 5], "0.5"),
                         ([7000, 0.5], "7000"), ([0.5, 7000], "0.5")):
            for call in (lambda: max_distances(g, iter(ids)), lambda: eccentricities(g, ids),
                         lambda: exact_st_diameter(g, [0], ids)):
                with pytest.raises(ValueError, match=f"^vertex id {re.escape(bad)} not"):
                    call()

    @pytest.mark.parametrize("name", CALLS)
    def test_numpy_ints_are_ids(self, name):
        g = random_connected(Random(0), 300, 1200, 7)
        want = self.CALLS[name](g, 3)
        for v in (np.int64(3), np.int32(3), np.uint8(3)):
            got = self.CALLS[name](g, v)
            if name == "closest":
                assert all(np.array_equal(a, b) for a, b in zip(got, want))
            else:
                assert got == want


def _list_builders(monkeypatch) -> list:
    """Record the caller of every Graph.adjacency call: (module, function)."""
    calls = []
    adjacency = Graph.adjacency

    def spy(g, direction):
        caller = sys._getframe(1)
        calls.append((caller.f_globals["__name__"], caller.f_code.co_name))
        return adjacency(g, direction)

    monkeypatch.setattr(Graph, "adjacency", spy)
    return calls


class TestOnlyListSearchesBuildLists:
    LIST_SEARCH = ("diamecc.search", "_list_distances")

    @pytest.mark.parametrize("max_w", [1, 7, 0])
    def test_k_closest_reads_the_arc_view(self, monkeypatch, max_w):
        calls = _list_builders(monkeypatch)
        rng = Random(max_w)
        for directed in (True, False):
            built = random_graph(rng, 200, 800, directed, max_w=max_w)
            g = parse_graph(format_graph(built))
            for v in (0, 7, 199):
                for direction in ("out", "in"):
                    row = bellman_ford(built, v, direction)
                    order = sorted((d, u) for u, d in enumerate(row) if d != UNREACHABLE)
                    for s in (1, 15, 200):
                        assert k_closest(g, v, s, direction).items == [(u, d) for d, u in order[:s]]
        assert calls == []

    def test_estimators_build_lists_only_for_list_searches(self, monkeypatch):
        calls = _list_builders(monkeypatch)
        rng = Random(4)
        g = parse_graph(format_graph(random_strongly_connected(rng, 400, 1600)))
        ecc_2approx(g, seed=1)
        # The depth probe of the sample's out-search is a ring pass on this
        # shallow unit digraph, so no list search runs in either direction.
        assert "in" not in g._views and "out" not in g._views and calls == []
        unit = parse_graph(format_graph(random_connected(rng, 300, 900)))
        st_2approx_true(STInstance(unit, range(0, 300, 7), range(3, 300, 11)), seed=2)
        assert calls == []
        # A probe on weights 1..W is a Dijkstra, and a deep unit graph's
        # probe gives up its ring pass for a BFS: both are list searches.
        weighted = parse_graph(format_graph(random_connected(rng, 300, 900, max_w=6)))
        st_2approx_weighted(STInstance(weighted, range(0, 300, 5), range(1, 300, 13)),
                            seed=3, true_mode=True)
        assert calls and set(calls) == {self.LIST_SEARCH}
        calls.clear()
        sssp(parse_graph(format_graph(cycle_graph(2000, directed=True))), 0)
        assert calls == [self.LIST_SEARCH]

    def test_ball_searches_build_no_lists_and_probe_nothing(self, monkeypatch):
        # closest and k_closest read the arc view only, on every weight class
        # and on weights up to 10**6, whose ring encoding fails the memory
        # half, and closest never runs the depth probe, one source or many.
        calls = _list_builders(monkeypatch)
        probes = []
        ring_rule = search._ring_rule

        def spy(g, sources, direction):
            probes.append(direction)
            return ring_rule(g, sources, direction)

        monkeypatch.setattr(search, "_ring_rule", spy)
        rng = Random(6)
        for max_w in (1, 7, 0, 10**6):
            g = parse_graph(format_graph(random_graph(rng, 300, 1200, True, max_w=max_w)))
            for direction in ("out", "in"):
                closest(g, [5], 20, direction)
                closest(g, range(0, 300, 3), 20, direction)
                k_closest(g, 5, 20, direction)
        assert calls == [] and probes == []

    def test_shallow_unit_graphs_build_no_lists(self, monkeypatch):
        # Every probe on these parsed shallow unit graphs is a ring pass, so
        # no estimator built on the searches calls Graph.adjacency.
        calls = _list_builders(monkeypatch)
        rng = Random(5)
        fresh = lambda g: parse_graph(format_graph(g))
        sparse = random_strongly_connected(rng, 500, 2000)
        undirected = random_connected(rng, 400, 1600)
        dense = random_connected(rng, 150, 150 * 150 // 8)
        for g in (sparse, undirected):
            ecc_2approx(fresh(g), seed=1)
            ecc_2plusdelta(fresh(g), 0.25, seed=2)
            source_radius(fresh(g), seed=3)
            diam_folklore_2approx(fresh(g))
            diam_linear_lessthan2(fresh(g))
            st_3approx(STInstance(fresh(g), range(0, g.n, 7), range(3, g.n, 11)))
        diam_dense_32(fresh(dense), seed=4)
        ecc_dense_53(fresh(dense), seed=5)
        approx_on_spanner(fresh(dense), diam_linear_lessthan2)
        assert calls == []


class TestExactOracles:
    def test_directed_cycle_eccentricities(self):
        g = Graph(5, [(i, (i + 1) % 5, 1) for i in range(5)], directed=True)
        assert exact_eccentricities(g) == [4] * 5

    def test_path_eccentricities(self):
        assert exact_eccentricities(path_graph(3)) == [2, 1, 2]

    def test_matches_apsp_matrix(self):
        rng = Random(6)
        for _ in range(20):
            n = rng.randint(2, 40)
            g = random_graph(rng, n, 2 * n, directed=rng.random() < 0.5,
                             max_w=rng.choice([1, 6]))
            D = apsp_matrix(g)
            assert exact_eccentricities(g, "out") == [D[v].max() for v in range(n)]
            assert exact_eccentricities(g, "in") == [D[:, v].max() for v in range(n)]

    def test_st_diameter_trivial_cases(self):
        g = path_graph(3)
        assert exact_st_diameter(g, range(3), range(3)) == 2
        assert exact_st_diameter(g, {0}, {0}) == 0
        for S, T in (([], {0}), ([0], [-1]), ([0], [5]), ([5], [0])):
            with pytest.raises(ValueError):
                exact_st_diameter(g, S, T)

    def test_st_diameter_matches_apsp(self):
        rng = Random(7)
        for _ in range(15):
            n = rng.randint(2, 30)
            g = random_graph(rng, n, 2 * n, directed=True, max_w=3)
            S = rng.sample(range(n), rng.randint(1, n))
            T = rng.sample(range(n), rng.randint(1, n))
            D = apsp_matrix(g)
            assert exact_st_diameter(g, S, T) == D[np.ix_(sorted(S), sorted(T))].max()


@st.composite
def _diameter_graphs(draw):
    """A graph for exact_diameter: directed or not, unit weights, 1..8, up
    to 10**6, 0/1 or 0..9, and, when drawn connected, a random spanning tree
    (both arc directions when directed) under random edges."""
    n = draw(st.integers(0, 90))
    directed = draw(st.booleans())
    weight = st.integers(*draw(st.sampled_from([(1, 1), (1, 8), (1, 10**6), (0, 1), (0, 9)])))
    edges = []
    if n and draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        for i in range(1, n):
            u = order[draw(st.integers(0, i - 1))]
            edges.append((u, order[i], draw(weight)))
            if directed:
                edges.append((order[i], u, draw(weight)))
    if n:
        edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weight),
                               max_size=2 * n))
    return Graph(n, edges, directed=directed)


class TestExactDiameter:
    # On an undirected graph one search from vertex 0 bounds every
    # eccentricity by d(v, 0) + ecc(0), and only the sources whose bound
    # can still beat the largest eccentricity found run; a directed graph
    # runs every source.

    @settings(max_examples=150, deadline=None)
    @given(g=_diameter_graphs())
    @example(g=Graph(0))
    @example(g=Graph(1))
    @example(g=Graph(2))
    @example(g=Graph(2, [(0, 1, 0)]))
    @example(g=Graph(2, [(1, 0, 5)], directed=True))
    # Weights at the budget: a bound d(v, 0) + ecc(0) = 4W - 2 exceeds int64.
    @example(g=Graph(4, [(0, 1, 3074457345618258601), (1, 2, 3074457345618258602),
                         (1, 3, 3074457345618258602)]))
    def test_property_matches_bellman_ford(self, g):
        assert exact_diameter(g) == max((max(bellman_ford(g, v)) for v in range(g.n)), default=0)

    def test_pendant_gadget_runs_one_batched_pass(self, monkeypatch):
        # The g_st of st_via_diameter: 180 vertices, so every source
        # would take three passes of 64; the bound leaves at most 64.  The
        # search from vertex 0 is the depth probe, a one-bit pass.
        rng = Random(3)
        g = random_connected(rng, 150, 450)
        picked = rng.sample(range(150), 30)
        g_st = build_equivalence_gadget(STInstance(g, picked[:15], picked[15:])).g_st
        passes = _spy_ring(monkeypatch)
        got = exact_diameter(g_st)
        assert passes == [True, False]
        monkeypatch.undo()
        assert got == max(exact_eccentricities(g_st))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_weighted_pendant_gadgets_run_in_the_ring(self, monkeypatch, seed):
        # The gadgets of a weights-1..3 graph hang pendants of weight 900.
        # A pass of up to 64 sources takes 17-27 steps against a budget of
        # about 740, so the only list search allowed is the one of a
        # single-search probe that gave up (11.5-12 steps of budget against
        # 10-13 taken).
        rng = Random(seed)
        g = random_connected(rng, 150, 450, max_w=3)
        picked = rng.sample(range(150), 30)
        gadget = build_equivalence_gadget(STInstance(g, picked[:15], picked[15:]))
        for h in (gadget.g_s, gadget.g_t, gadget.g_st):
            searches = _spy_searches(monkeypatch)
            got = exact_diameter(h)
            monkeypatch.undo()
            lists = [s for s in searches if s != "ring"]
            assert lists in ([], [(0,)])
            assert h._csr[("probe", "out")] == (not lists)
            assert got == max(max(bellman_ford(h, v)) for v in range(h.n))

    def test_cycle_runs_every_source(self, monkeypatch):
        # Every vertex of an undirected 150-cycle has eccentricity 75 and
        # bound d(v, 0) + 75, so no source but 0 is ruled out.
        calls = _spy_eccentricities(monkeypatch)
        assert exact_diameter(cycle_graph(150)) == 75
        assert [len(c) for c in calls] == [64, 85]
        assert sorted(v for c in calls for v in c) == list(range(1, 150))

    @pytest.mark.parametrize("max_w", [1, 7])
    def test_vertex_zero_cut_off_runs_no_batch(self, monkeypatch, max_w):
        g = Graph(6, [(v, v + 1, max_w) for v in range(1, 5)])
        calls = _spy_eccentricities(monkeypatch)
        passes = _spy_ring(monkeypatch)
        assert exact_diameter(g) == UNREACHABLE
        assert calls == [] and False not in passes

    @pytest.mark.parametrize("max_w", [1, 7, 10**6])
    def test_directed_runs_the_searches_of_exact_eccentricities(self, monkeypatch, max_w):
        g, twin = (random_strongly_connected(Random(5), 150, 600, max_w) for _ in range(2))
        searches = _spy_searches(monkeypatch)
        got = exact_diameter(g)
        ran = list(searches)
        searches.clear()
        assert got == max(exact_eccentricities(twin, "out"))
        assert ran == searches and len(ran) > 1


def _spy_eccentricities(monkeypatch) -> list:
    """Record the sources of every eccentricities call from now on."""
    calls = []
    eccentricities_ = search.eccentricities

    def spy(g, sources, *args, **kwargs):
        calls.append(list(sources))
        return eccentricities_(g, sources, *args, **kwargs)

    monkeypatch.setattr(search, "eccentricities", spy)
    return calls


def _assert_reductions(g, sources, direction, rows=None):
    """Check every reduction against Bellman-Ford rows, memoised in ``rows``.

    The member and target set is every third vertex plus the last one.
    """
    rows = {} if rows is None else rows
    for s in set(sources) - rows.keys():
        rows[s] = bellman_ford(g, s, direction)
    members = sorted(set(range(1, g.n, 3)) | {g.n - 1})
    got_ecc = eccentricities(g, sources, direction)
    got_far = max_distances(g, sources, direction)
    got_into = eccentricities(g, sources, direction, targets=members)
    got_near = nearest(g, sources, members, direction)
    assert got_ecc == [max(rows[s]) for s in sources]
    assert got_far == [max(col) for col in zip(*(rows[s] for s in set(sources)))]
    assert got_into == [max(rows[s][t] for t in members) for s in sources]
    # Ties at equal distance go to the smaller id.
    assert got_near == [min((rows[s][t], t) for t in members)[::-1] for s in sources]
    # Plain ints and math.inf: the JSON renderer and `x == UNREACHABLE` need them.
    values = got_ecc + got_far + got_into + [x for pair in got_near for x in pair]
    assert all(type(x) is int or x is math.inf for x in values)


def _assert_single_searches(g, direction, rows):
    """Check sssp from every vertex, and one multi-source search, against
    the Bellman-Ford rows in ``rows``."""
    assert [sssp(g, s, direction) for s in range(g.n)] == [rows[s] for s in range(g.n)]
    want = [min(col) for col in zip(rows[0], rows[3], rows[g.n - 1])]
    assert multi_source_distance(g, [3, 0, g.n - 1, 3], direction) == want


def _messy_graph(rng, n, directed, max_w):
    """Random graph plus self-loops, parallel arcs and two isolated vertices."""
    base = random_graph(rng, n, 2 * n, directed, max_w)
    edges = list(base.edges)
    edges += [(v, v, 1) for v in rng.sample(range(n), 3)]
    edges += rng.sample(edges, 5)
    return Graph(n + 2, edges, directed=directed)


def _pendant_gadgets(rng, n):
    """g_s, g_st and g_final of st_via_diameter on a random connected graph."""
    g = random_connected(rng, n, 3 * n)
    picked = rng.sample(range(n), 2 * (n // 10))
    S, T = sorted(picked[:n // 10]), sorted(picked[n // 10:])
    gadget = build_equivalence_gadget(STInstance(g, S, T))
    return gadget.g_s, gadget.g_st, gadget.g_final


def _twin_path(n=600):
    """A directed weight-1 path with a weight-1000 twin of every arc."""
    return Graph(n, [(v, v + 1, w) for v in range(n - 1) for w in (1, 1000)], directed=True)


class TestBatchedReductions:
    # Every positive weight class runs 64 sources per pass of the bucket
    # ring, so each is checked at the counts around a word boundary; with
    # 0-weight arcs every source is a list search.
    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("lo, hi", [(1, 1), (0, 1), (1, 7), (0, 8)],
                             ids=["unit", "zero-one", "weighted", "zero-to-8"])
    def test_match_bellman_ford(self, directed, lo, hi):
        rng = Random(10 * hi + lo + directed)
        # Mostly connected, fragmented, and small enough that 130 sources repeat.
        for n, m in ((132, 400), (132, 80), (40, 120)):
            g = random_graph(rng, n, m, directed, max_w=hi, min_w=lo, loops=True)
            assert (search._csr(g, "out") is None) == (lo == 0)
            for direction in ("out", "in"):
                rows = {}
                for count in (1, 63, 64, 65, 130):
                    distinct = rng.sample(range(n), min(count, n))
                    with_repeats = [rng.randrange(n) for _ in range(count)]
                    _assert_reductions(g, distinct, direction, rows)
                    _assert_reductions(g, with_repeats, direction, rows)
                    # These graphs are shallow enough that no full batch of
                    # positive weights gives up its ring pass.
                    assert search._has_ring(g, direction) == (lo > 0)

    @pytest.mark.parametrize("max_w", [1, 0, 7])
    def test_self_loops_parallel_arcs_isolated_vertices(self, max_w):
        rng = Random(max_w)
        for directed in (True, False):
            g = _messy_graph(rng, 70, directed, max_w)
            for direction in ("out", "in"):
                _assert_reductions(g, range(g.n), direction)
                _assert_reductions(g, [0, 0, 5, 69, 5], direction)

    def test_zero_weight_cycles(self, monkeypatch):
        # The blow-up turns every vertex of degree >= 3 into a 0-weight
        # cycle; a directed graph gets 0-weight cycles through several
        # vertices, reached at several distances.  No ring pass starts.
        passes = _spy_ring(monkeypatch)
        rng = Random(12)
        blown, _ = degree3_blowup(random_graph(rng, 30, 90, directed=False, max_w=3))
        ring = [(i, (i + 1) % 6, 0) for i in range(6)]
        chords = [(rng.randrange(40), rng.randrange(40), rng.randint(0, 4)) for _ in range(90)]
        directed = Graph(40, ring + [(5, 0, 0)] + chords, directed=True)
        # Weights 0, 3 and 7 key the slots by distance instead of a ring.
        keyed = Graph(40, ring + [(u, v, rng.choice((0, 3, 7))) for u, v, _ in chords],
                      directed=True)
        for g in (blown, directed, keyed):
            assert not g.positive_weights
            for direction in ("out", "in"):
                rows = {}
                _assert_reductions(g, range(g.n), direction, rows)
                _assert_reductions(g, [0, 3, 3, g.n - 1], direction, rows)
                _assert_single_searches(g, direction, rows)
                assert search._csr(g, direction) is None
        assert passes == []

    def test_all_zero_weights(self, monkeypatch):
        # Every reachable vertex is at distance 0, and no ring pass starts.
        passes = _spy_ring(monkeypatch)
        rng = Random(13)
        for directed in (True, False):
            g = random_graph(rng, 70, 90, directed, max_w=0, min_w=0, loops=True)
            assert g.max_weight == 0
            for direction in ("out", "in"):
                rows = {}
                _assert_reductions(g, range(g.n), direction, rows)
                _assert_single_searches(g, direction, rows)
                assert search._csr(g, direction) is None
        g = Graph(3, [(0, 1, 0), (1, 2, 0)], directed=True)
        assert eccentricities(g, [0, 2]) == [0, UNREACHABLE]
        assert max_distances(g, [0], "out") == [0, 0, 0]
        assert passes == []

    def test_weights_above_the_ring_bound(self):
        # A ring of 10**6 slots would dwarf the graph, so these run one
        # search per source; the answers must not change.
        rng = Random(14)
        for directed in (True, False):
            g = random_graph(rng, 90, 270, directed, max_w=10**6, min_w=0, loops=True)
            assert search._csr(g, "out") is None
            for direction in ("out", "in"):
                rows = {}
                _assert_reductions(g, range(g.n), direction, rows)
                _assert_reductions(g, [7, 7, 1], direction, rows)

    def test_pendant_gadgets(self):
        # The S-T reduction's gadgets: the pendant weight is about 2 n times
        # the largest weight, but there are few distinct weights and
        # distances, so the ring runs them 64 sources per pass.
        for graph in _pendant_gadgets(Random(19), 150):
            # Undirected: both directions share one array adjacency and rows.
            rows = {}
            for direction in ("out", "in"):
                for count in (1, 63, 64, 65, 130):
                    rng = Random(count)
                    distinct = rng.sample(range(graph.n), count)
                    with_repeats = [rng.randrange(graph.n) for _ in range(count)]
                    _assert_reductions(graph, distinct, direction, rows)
                    _assert_reductions(graph, with_repeats, direction, rows)
                    assert search._has_ring(graph, direction)
            assert ("full", "out") not in graph._csr

    def test_more_than_64_distinct_weights(self):
        # Even weights, so the slots are keyed by distance rather than a
        # ring of W + 1.  The rank masks that pick a step's gained rows take
        # two words here, and ten pendant vertices hang off arcs of the
        # heaviest weights.
        rng = Random(23)
        for directed in (True, False):
            dense = random_graph(rng, 20, 600, directed, max_w=100, loops=True)
            pendants = [(20 + i, rng.randrange(20), 70 + 3 * i) for i in range(10)]
            arcs = dense.edges + pendants + [(v, u, w) for u, v, w in pendants]
            g = Graph(30, [(u, v, 2 * w) for u, v, w in arcs], directed=directed)
            assert len(search._csr(g, "out")[1]) > 64 and search._csr(g, "out")[2] is not None
            for direction in ("out", "in"):
                rows = {}
                sources = [v % 30 for v in range(64)]
                _assert_reductions(g, sources, direction, rows)
                _assert_reductions(g, [4, 4, 17], direction, rows)
                assert search._has_ring(g, direction)

    def test_live_slot_overflow_falls_back(self):
        # A weight-1 path whose every arc has a weight-1000 twin: each step
        # leaves a slot pending 1000 ahead, so a pass from the start outgrows
        # its live slots long before it ends, and long before its budget of
        # 64 (n + m) scans, 2428 steps at 79 scans a step, runs out.
        sources = list(range(64))
        g = _twin_path(1000)
        assert search._has_ring(g, "out")
        rows = {}
        _assert_reductions(g, sources, "out", rows)
        # It fell back to list searches, and later calls skip the ring.
        assert g._csr[("full", "out")]
        assert not search._has_ring(g, "out")
        _assert_reductions(g, sources, "out", rows)
        # The in-direction has its own flag: from the far end its passes are
        # as deep, and they overflow too.
        assert ("full", "in") not in g._csr
        _assert_reductions(g, range(g.n - 64, g.n), "in")
        assert g._csr[("full", "in")]
        # A call whose first pass fits and whose second overflows keeps the
        # first pass and runs the second batch as list searches.
        g = _twin_path(1000)
        mixed = [g.n - 1] * 65 + sources
        assert search._has_ring(g, "out")
        _assert_reductions(g, mixed, "out", rows)
        assert g._csr[("full", "out")]

    def test_live_slots_stay_under_the_cap(self, monkeypatch):
        # The live slots (the pending ones and the one settling) plus the
        # k_w block rows may fill 16 (n + m) / n words per vertex and no
        # more; a pass that would go over stops before allocating.  Free
        # steps keep the step budget out of the way.
        _free_steps(monkeypatch)
        # From vertex 0 of a twin path on L vertices, step d leaves slots
        # d + 1 and 1000, ..., 1000 + d pending while slot d settles, so the
        # last step, d = L - 2, holds L + 1 live slots.  At L = 44 and 45
        # the budget is 47 - k_w = 45 slots: the first fits exactly and
        # the second goes over.
        for n, overflows in ((44, False), (45, True)):
            g = _twin_path(n)
            k = len(search._csr(g, "out")[1])
            assert search._slot_cap(g) - k == 45
            with pytest.raises(search._RingFull) if overflows else contextlib.nullcontext():
                assert len(list(search._ring_bits(g, [0], "out", search._all_bits(n)))) == n
        # The pendant gadgets use a small part of their budget.
        for g in _pendant_gadgets(Random(20), 150):
            k = len(search._csr(g, "out")[1])
            passes = search._ring_bits(g, range(64), "out", search._all_bits(g.n))
            for _ in passes:
                assert len(passes.gi_frame.f_locals["slots"]) + 1 + k < search._slot_cap(g) // 4

    def test_tiny_graphs(self):
        assert eccentricities(Graph(0), []) == []
        with pytest.raises(ValueError):
            max_distances(Graph(0), [])
        for g in (Graph(1), Graph(1, [(0, 0, 1)], directed=True)):
            assert eccentricities(g, [0, 0]) == [0, 0]
            assert max_distances(g, [0], "in") == [0]

    def test_strongly_connected_finite(self):
        g = Graph(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)], directed=True)
        assert eccentricities(g, [2, 0, 1]) == [2, 2, 2]
        assert max_distances(g, [0], "out") == [0, 1, 2]
        assert max_distances(g, [0], "in") == [0, 2, 1]

    def test_unreachable(self):
        g = Graph(4, [(0, 1, 1), (2, 3, 1)], directed=True)
        assert eccentricities(g, [0, 3]) == [UNREACHABLE, UNREACHABLE]
        assert max_distances(g, [0]) == [0, 1, UNREACHABLE, UNREACHABLE]
        assert max_distances(g, [1, 3], "in") == [UNREACHABLE] * 4

    def test_source_checks(self):
        g = path_graph(3)
        for bad in ([3], [-1], [0, 5]):
            with pytest.raises(ValueError):
                eccentricities(g, bad)
            with pytest.raises(ValueError):
                max_distances(g, bad)
        with pytest.raises(ValueError):
            max_distances(g, [])
        with pytest.raises(ValueError):
            eccentricities(g, [0], "sideways")

    @pytest.mark.parametrize("w", [1, 0, 5])
    def test_nearest_ties_and_unreachable_members(self, w):
        # A star with centre 0, leaves 1..6 at weight w, and a lone vertex 7.
        g = Graph(8, [(0, v, w) for v in (4, 2, 6, 1, 3, 5)])
        assert nearest(g, [0, 0], [6, 3, 5]) == [(3, w), (3, w)]
        assert nearest(g, [3], [6, 3, 5]) == [(3, 0)]
        assert nearest(g, [1, 7], [5, 7]) == [(5, 2 * w), (7, 0)]
        assert nearest(g, [7, 1], [6, 2]) == [(2, UNREACHABLE), (2, 2 * w)]
        assert eccentricities(g, [0, 7], targets=[2, 5]) == [w, UNREACHABLE]
        assert eccentricities(g, [1], targets=[1]) == [0]
        assert nearest(g, [], [1]) == []
        for bad in ([], [8], [-1]):
            with pytest.raises(ValueError):
                nearest(g, [0], bad)
            with pytest.raises(ValueError):
                eccentricities(g, [0], targets=bad)

    def test_undirected_shares_one_array_adjacency(self):
        g = path_graph(70)
        assert eccentricities(g, range(70), "in") == eccentricities(g, range(70), "out")
        assert list(g._csr) == ["out"]

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), n=st.integers(1, 80), directed=st.booleans(),
           weights=st.sampled_from([(1, 1), (1, 1), (0, 1), (1, 5), (0, 8)]))
    def test_property_random_graphs(self, data, n, directed, weights):
        edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                             st.integers(*weights)), max_size=3 * n))
        sources = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=140))
        g = Graph(n, edges, directed=directed)
        for direction in ("out", "in"):
            _assert_reductions(g, sources, direction)


def _nearest_by_rows(g, sources, members, direction):
    """nearest's answer from one Bellman-Ford row per source."""
    rows = {s: bellman_ford(g, s, direction) for s in set(sources)}
    return [min((rows[s][t], t) for t in members)[::-1] for s in sources]


def _free_steps(monkeypatch):
    """Price a ring step at nothing, so that no ring pass gives up for its
    step budget: every search after the probe that the memory half admits
    runs in the ring."""
    monkeypatch.setattr(search, "_step_cost", lambda g: 0)


def _spy_searches(monkeypatch) -> list:
    """Record every search started from now on: "ring" for a ring pass
    (the unit-weight probe's included) and the sources of a list search."""
    searches = []
    ring_bits, list_distances = search._ring_bits, search._list_distances

    def ring(*args, **kwargs):
        searches.append("ring")
        return ring_bits(*args, **kwargs)

    def lists(g, sources, direction):
        searches.append(tuple(sources))
        return list_distances(g, sources, direction)

    monkeypatch.setattr(search, "_ring_bits", ring)
    monkeypatch.setattr(search, "_list_distances", lists)
    return searches


class TestNearest:
    # On positive weights nearest is one search from the members over the
    # reverse arcs, in the ring or as a list search, labelled level by
    # level; a graph with a 0-weight arc runs one list search per source.
    # _STEP_COST = 0 sends every search after the probe that the memory
    # half admits to the ring, so both kinds of search are checked.
    WEIGHTS = {"unit": [1], "one-to-w": range(1, 9), "keyed": [1, 7, 50]}

    @pytest.mark.parametrize("cost", [0, search._STEP_COST])
    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("weights", list(WEIGHTS))
    def test_matches_bellman_ford(self, monkeypatch, weights, directed, cost):
        monkeypatch.setattr(search, "_STEP_COST", cost)
        rng = Random(40 + directed)
        # Mostly connected, fragmented, and small enough that sources repeat.
        for n, m in ((150, 600), (150, 120), (40, 120)):
            arcs = random_graph(rng, n, m, directed, loops=True).edges
            g = Graph(n, [(u, v, rng.choice(self.WEIGHTS[weights])) for u, v, _ in arcs],
                      directed=directed)
            for direction in ("out", "in"):
                for count in (1, 2, 65, 200):
                    sources = [rng.randrange(n) for _ in range(count)]
                    members = rng.sample(range(n), rng.choice([1, 3, n // 4]))
                    want = _nearest_by_rows(g, sources, members, direction)
                    assert nearest(g, sources, members, direction) == want

    @pytest.mark.parametrize("cost", [0, search._STEP_COST])
    @pytest.mark.parametrize("direction", ["out", "in"])
    @pytest.mark.parametrize("arcs", [
        # From 0, members 6 and 5 are both at 2, through 1 and 2: the first
        # tight neighbour carries the larger label.  Member 4 sits behind
        # 3, the closest neighbour, but 11 away, so 3 is not tight.
        [(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 6, 1), (2, 5, 1), (3, 4, 10)],
        # The same meeting at 4 through tight neighbours that settle at
        # different distances of the search from the members, 1 and 3.
        [(0, 1, 3), (0, 2, 1), (0, 3, 1), (1, 6, 1), (2, 5, 3), (3, 4, 10)],
    ], ids=["equal-arcs", "mixed-arcs"])
    def test_the_smaller_label_wins_a_tie(self, monkeypatch, arcs, direction, cost):
        monkeypatch.setattr(search, "_STEP_COST", cost)
        if direction == "in":
            arcs = [(v, u, w) for u, v, w in arcs]
        g = Graph(7, arcs, directed=True)
        d = 4 if arcs[0][2] == 3 else 2
        searches = _spy_searches(monkeypatch)
        for _ in range(2):  # the probe's row, then the ring when it may run
            assert nearest(g, [0, 0, 3], [6, 5, 4], direction) == [(5, d), (5, d), (4, 10)]
            assert nearest(g, range(7), [6, 5, 4], direction) == _nearest_by_rows(
                g, range(7), [6, 5, 4], direction)
        # The probe is a ring pass on these keyed slots; at the default
        # cost it gives up for a list search, and so do the later calls.
        assert searches[0] == "ring"
        assert all(kind == "ring" for kind in searches) == (cost == 0)

    @pytest.mark.parametrize("cost", [0, search._STEP_COST])
    def test_sources_that_are_members_and_unreachable_members(self, monkeypatch, cost):
        monkeypatch.setattr(search, "_STEP_COST", cost)
        # A directed weighted path 0 -> 1 -> 2 -> 3, a pair 4 -> 5 and a lone 6.
        g = Graph(7, [(0, 1, 2), (1, 2, 2), (2, 3, 1), (4, 5, 3)], directed=True)
        for _ in range(2):
            assert nearest(g, [2, 0, 5, 6, 4, 3], [5, 2]) == [
                (2, 0), (2, 4), (5, 0), (2, UNREACHABLE), (5, 3), (2, UNREACHABLE)]
            assert nearest(g, [2, 0, 5, 6, 4, 3], [5, 2], "in") == [
                (2, 0), (2, UNREACHABLE), (5, 0), (2, UNREACHABLE), (2, UNREACHABLE), (2, 1)]
            assert nearest(g, [6, 6], [3, 1]) == [(1, UNREACHABLE)] * 2
        for direction in ("out", "in"):
            want = _nearest_by_rows(g, range(7), [5, 2, 6], direction)
            assert nearest(g, range(7), [5, 2, 6], direction) == want

    def test_deep_weighted_cycle_labels_the_list_row(self, monkeypatch):
        # The rule refuses the ring on a directed 320-cycle of weights
        # 1..10 from the members too, so both calls per direction label the
        # row of one list search: the probe's, then a new one.
        rng = Random(17)
        cycle = Graph(320, [(i, (i + 1) % 320, rng.randint(1, 10)) for i in range(320)],
                      directed=True)
        members = list(range(3, 320, 40))
        sources = list(range(0, 320, 5)) * 2
        searches = _spy_searches(monkeypatch)
        for direction in ("out", "in"):
            want = _nearest_by_rows(cycle, sources, members, direction)
            assert nearest(cycle, sources, members, direction) == want
            assert nearest(cycle, sources, members, direction) == want
        assert searches == [tuple(members)] * 4
        for back in ("out", "in"):
            assert search._ring_rule(cycle, members, back) == (False, [])

    @pytest.mark.parametrize("max_w", [1, 8])
    def test_ring_full_falls_back_to_the_list_row(self, monkeypatch, max_w):
        # A pass that raises _RingFull after its first levels were labelled
        # keeps nothing: the call answers from one list search.
        monkeypatch.setattr(search, "_STEP_COST", 0)
        ring_bits = search._ring_bits

        def full_after_two(*args, **kwargs):
            for i, level in enumerate(ring_bits(*args, **kwargs)):
                if i == 2:
                    raise search._RingFull
                yield level

        g = random_connected(Random(max_w), 200, 600, max_w)
        sources, members = list(range(0, 200, 3)), [5, 17, 150]
        want = _nearest_by_rows(g, sources, members, "out")
        assert nearest(g, sources, members) == want  # the probe
        monkeypatch.setattr(search, "_ring_bits", full_after_two)
        searches = _spy_searches(monkeypatch)
        assert nearest(g, sources, members) == want
        assert searches == ["ring", tuple(members)]

    def test_twin_path_overflows_and_marks(self, monkeypatch):
        # From the start of the twin path each step leaves a slot 1000
        # ahead, so a search from members there outgrows its live slots.
        _free_steps(monkeypatch)
        g = _twin_path()
        sources, members = [599, 300, 2, 0], [0, 1]
        want = _nearest_by_rows(g, sources, members, "in")
        for _ in range(3):  # the probe's row, the overflow, then a list search
            assert nearest(g, sources, members, "in") == want
        assert g._csr[("full", "out")] and ("full", "in") not in g._csr

    def test_zero_weights_run_one_list_search_per_source(self, monkeypatch):
        g = random_graph(Random(44), 60, 150, True, max_w=3, min_w=0)
        assert not g.positive_weights
        searches = _spy_searches(monkeypatch)
        sources, members = [5, 5, 7, 59, 0], [3, 30, 31]
        for direction in ("out", "in"):
            want = _nearest_by_rows(g, sources, members, direction)
            assert nearest(g, sources, members, direction) == want
        assert searches == [(s,) for s in sources] * 2

    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("max_w", [1, 6])
    def test_one_search_whatever_the_sources(self, monkeypatch, max_w, directed):
        searches = _spy_searches(monkeypatch)
        rng = Random(45)
        for count in (1, 2, 64, 65, 300):
            g = (random_strongly_connected(rng, 300, 900, max_w) if directed
                 else random_connected(rng, 300, 900, max_w))
            for direction in ("out", "in"):
                sources = [rng.randrange(300) for _ in range(count)]
                searches.clear()
                nearest(g, sources, [3, 100, 200], direction)
                assert len(searches) == 1


class TestRingRule:
    def test_memory_bound(self):
        rng = Random(16)
        # Weights 1..8 at m = 5n: (k_w + 2) n = 10 n words against 16 (n + m).
        assert search._csr(random_graph(rng, 700, 3500, True, max_w=8), "out") is not None
        # Weights up to 10**6 are nearly all distinct: k_w is about m.
        assert search._csr(random_graph(rng, 700, 3500, True, max_w=10**6), "out") is None
        # Unit weights need 3 n words, which fit even with no edges; a
        # 0-weight arc builds no arrays at all.
        assert search._csr(Graph(20, directed=True), "out") is not None
        assert search._csr(Graph(20, [(0, 1, 0)], directed=True), "out") is None
        # The largest k_w that fits: (k_w + 2) n <= 16 (n + m) at n = 100 and
        # m = k_w arcs of distinct weights gives k_w = 16.
        fits = Graph(100, [(0, 1, w) for w in range(1, 17)], directed=True)
        assert search._csr(fits, "out") is not None
        assert search._csr(Graph(100, [(0, 1, w) for w in range(1, 18)], directed=True),
                           "out") is None
        # The bound counts distinct weights, not the largest one: the pendant
        # gadgets of st_via_diameter need (W + 1) n words far above 16 (n + m)
        # for a ring of W + 1 slots, but have k_w <= 4.
        for g in _pendant_gadgets(Random(21), 150):
            assert (g.max_weight + 1) * g.n > search._RING_WORDS_PER_ITEM * (g.n + g.m)
            csr = search._csr(g, "out")
            assert csr is not None and len(csr[1]) <= 4

    def test_depth_probe(self):
        rng = Random(17)
        # A directed 320-cycle with weights 1..10 is deep: the probe, a
        # list search on weights 1..W, finds D about 1760, so later single
        # searches run as list searches too.
        cycle = Graph(320, [(i, (i + 1) % 320, rng.randint(1, 10)) for i in range(320)],
                      directed=True)
        assert search._ring_rule(cycle, [0], "out") == (False, [bellman_ford(cycle, 0, "out")])
        # The answer is kept: a later call runs no probe.
        assert search._ring_rule(cycle, [5], "out") == (False, [])
        rows = {s: bellman_ford(cycle, s, "in") for s in range(0, 320, 5)}
        _assert_reductions(cycle, list(rows), "in", rows)
        # Weights 1..8 at m = 5n are shallow: after the probe's list search,
        # single searches run in the ring.
        shallow = random_graph(rng, 700, 3500, True, max_w=8)
        assert search._ring_rule(shallow, [3], "out") == (True, [bellman_ford(shallow, 3, "out")])
        assert search._ring_rule(shallow, [3], "out") == (True, [])
        # On unit weights the probe is a one-bit ring pass, which on a
        # 300-path gives up for a list search.
        path = path_graph(300)
        assert search._ring_rule(path, [0], "out") == (False, [bellman_ford(path, 0, "out")])
        assert search._ring_rule(path, [5], "out") == (False, [])
        # Random weights up to 10**6 fail the memory half: no probe runs.
        heavy = random_graph(rng, 50, 100, True, max_w=10**6)
        assert search._ring_rule(heavy, [0], "out") == (False, [])
        assert heavy._csr == {"out": None}
        # On keyed slots the probe is a one-bit ring pass too: a pendant
        # gadget's depth D + W + 1 is about 600, but its search settles
        # only 8 to 10 distances, within a budget of about 12 steps.
        gadget = _pendant_gadgets(Random(22), 150)[1]
        ring, rows = search._ring_rule(gadget, [0], "out")
        assert ring and rows[0].tolist() == bellman_ford(gadget, 0, "out")
        assert search._ring_rule(gadget, [0], "out") == (True, [])

    def test_memory_half_builds_no_arrays(self):
        # A dense digraph of nearly all-distinct weights: k_w is about m,
        # far above 16 (n + m) / n.  The memory half rejects the ring
        # without building the CSR arrays or the rank masks, and no probe
        # runs, single or batched.
        dense = random_graph(Random(23), 40, 4000, True, max_w=10**6)
        sources = list(range(40)) * 2
        assert search._ring_rule(dense, sources[:1], "out") == (False, [])
        assert not search._has_ring(dense, "out")
        assert dense._csr == {"out": None}
        _assert_reductions(dense, sources, "out")

    def test_ring_of_one_to_w_steps_through_every_distance(self, monkeypatch):
        # Weights exactly 1..30 run as a ring, which steps through all
        # D + W + 1 = 61 distances of a pass, however few of them hold bits.
        # From vertex 0 every vertex is at 30, but 71 * 61 > n + m sends a
        # single search after the probe to a list search, and a batch of
        # two gives up its pass for two list searches.  64 sources pay for
        # a ring pass.
        n = 500
        edges = [(0, v, 30) for v in range(1, n)] + [(v, 0, 30) for v in range(1, n)]
        edges += [(v, v + 1, v) for v in range(1, 30)]
        g = Graph(n, edges, directed=True)
        ring, rows = search._ring_rule(g, [0], "out")
        assert search._one_to_w(search._csr(g, "out")[1]) and max(rows[0]) == 30
        assert 2 * (g.n + g.m) < search._step_cost(g) * 61 <= 64 * (g.n + g.m)
        assert not ring
        searches = _spy_searches(monkeypatch)
        assert eccentricities(g, [0, 5]) == [max(bellman_ford(g, s)) for s in (0, 5)]
        assert searches == ["ring", (0,), (5,)]
        searches.clear()
        assert eccentricities(g, range(64)) == [max(bellman_ford(g, s)) for s in range(64)]
        assert searches == ["ring"] and search._has_ring(g, "out")
        monkeypatch.undo()
        _assert_reductions(g, [0, 5], "out")
        _assert_reductions(g, range(64), "out")

    @pytest.mark.parametrize("reduction", ["eccentricities", "targets", "max_distances",
                                           "nearest"])
    def test_batches_run_no_probe(self, monkeypatch, reduction):
        # A batched call on a fresh weighted graph starts its ring passes
        # with no depth probe: on a deep cycle its first full batch gives
        # up, marks the direction and, with the rest, runs as list searches;
        # on a shallow graph every batch runs in the ring.  nearest is one
        # search from the members instead (see TestNearest), so for it only
        # the Bellman-Ford answers are checked.
        rng = Random(18)
        deep = Graph(320, [(i, (i + 1) % 320, rng.randint(1, 10)) for i in range(320)],
                     directed=True)
        shallow = random_graph(rng, 200, 1000, True, max_w=8)
        members = list(range(3, 200, 7))
        run = {"eccentricities": lambda g, srcs: eccentricities(g, srcs),
               "targets": lambda g, srcs: eccentricities(g, srcs, targets=members),
               "max_distances": lambda g, srcs: max_distances(g, srcs),
               "nearest": lambda g, srcs: nearest(g, srcs, members)}[reduction]
        for g, ring in ((deep, False), (shallow, True)):
            srcs = [9] + list(range(100, 170))
            rows = [bellman_ford(g, s) for s in srcs]
            want = {"eccentricities": [max(row) for row in rows],
                    "targets": [max(row[t] for t in members) for row in rows],
                    "max_distances": [max(col) for col in zip(*rows)],
                    "nearest": [min((row[t], t) for t in members)[::-1] for row in rows]}
            searches = _spy_searches(monkeypatch)
            assert run(g, srcs) == want[reduction]
            monkeypatch.undo()
            if reduction != "nearest":
                assert ("probe", "out") not in g._csr
                assert search._has_ring(g, "out") == ring
                assert searches == ["ring"] * (2 if ring else 1) + ([] if ring else [
                    (s,) for s in sorted(set(srcs))])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 60), directed=st.booleans(),
           shape=st.sampled_from(["random", "path", "cycle"]),
           weights=st.sampled_from(["unit", "zero-one", "one-to-w", "sparse", "distinct",
                                    "heavy"]))
    def test_property_step_cost_changes_no_output(self, data, n, directed, shape, weights):
        # The rule only picks a kernel: with _STEP_COST at 0 nearly every
        # pass that the memory half admits runs to its end, and at 10**9
        # every pass gives up at its first step, yet every reduction,
        # single search and batch of one answers the same on a fresh copy
        # of the graph.
        if shape == "random":
            pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                       max_size=3 * n))
        else:
            pairs = [(v, (v + 1) % n) for v in range(n - (shape == "path"))]
        draws = st.sampled_from(TestSingleSearches.WEIGHTS[weights][0])
        ws = data.draw(st.lists(draws, min_size=len(pairs), max_size=len(pairs)))
        edges = [(u, v, w) for (u, v), w in zip(pairs, ws)]
        sources = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=70))
        members = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=10))

        def answers(cost):
            saved, search._STEP_COST = search._STEP_COST, cost
            try:
                g = Graph(n, edges, directed=directed)
                return [(sssp(g, sources[0], d), eccentricities(g, sources[-1:], d),
                         eccentricities(g, sources, d), max_distances(g, sources, d),
                         eccentricities(g, sources, d, targets=members),
                         nearest(g, sources, members, d), multi_source_distance(g, sources, d),
                         sssp(g, sources[-1], d))
                        for d in ("out", "in")]
            finally:
                search._STEP_COST = saved

        assert answers(0) == answers(10**9)


def _spy_ring(monkeypatch) -> list:
    """Record the one_bit flag of every ring pass started from now on."""
    passes = []
    ring_bits = search._ring_bits

    def spy(*args, one_bit=False):
        passes.append(one_bit)
        return ring_bits(*args, one_bit=one_bit)

    monkeypatch.setattr(search, "_ring_bits", spy)
    return passes


def _spy_probe(patch):
    """Record, from now on, the sources of every ring pass and the level of
    every step it settles, and the sources of every list BFS."""
    passes, levels, bfs = [], [], []
    ring_bits, list_bfs = search._ring_bits, search._bfs

    def ring(*args, **kwargs):
        passes.append(args[1])
        for level in ring_bits(*args, **kwargs):
            levels.append(level[0])
            yield level

    def lists(*args):
        bfs.append(args[2])
        return list_bfs(*args)

    patch.setattr(search, "_ring_bits", ring)
    patch.setattr(search, "_bfs", lists)
    return passes, levels, bfs


class TestSingleSearches:
    # Weight draws per class: the ring runs unit weights with one pending
    # slot, weights 1..W as a ring of W + 1, sparse and many distinct
    # weights over keyed slots (more than 64 need two rank words), while
    # 0/1 weights, which build no arrays, and weights up to 10**6, which
    # fail the memory half, keep the list search.
    WEIGHTS = {"unit": ([1], True), "zero-one": ([0, 1], False), "one-to-w": (range(1, 9), True),
               "sparse": ([1, 7, 50], True), "distinct": (range(2, 162, 2), True),
               "heavy": (range(1, 10**6), False)}

    @pytest.mark.parametrize("directed", [True, False])
    @pytest.mark.parametrize("weights", list(WEIGHTS))
    def test_rows_match_dijkstra(self, monkeypatch, directed, weights):
        # A step costs n // 64 = 2 scans, so every search after the probe
        # that the memory half admits runs as a one-bit ring pass.
        monkeypatch.setattr(search, "_STEP_COST", 0)
        draws, ring = self.WEIGHTS[weights]
        rng = Random(31 + directed)
        # Self-loops, parallel arcs and two isolated vertices, 150 and 151;
        # m = 20 n leaves the live slots of 80 distinct weights room.
        base = random_graph(rng, 150, 3000, directed, loops=True).edges
        base += rng.sample(base, 20)
        g = Graph(152, [(u, v, rng.choice(draws)) for u, v, _ in base], directed=directed)
        # The arrays are built up front, as a batch would, so no search
        # waits for them; 0/1 weights and weights up to 10**6 get none.
        assert [search._csr(g, d) is not None for d in ("out", "in")] == [ring] * 2
        assert weights != "distinct" or len(search._csr(g, "out")[1]) > 64
        passes = _spy_ring(monkeypatch)
        for direction in ("out", "in"):
            adj = g.adjacency(direction)
            for s in (0, 5, 151):  # 151 is isolated
                assert sssp(g, s, direction) == search._dijkstra(adj, g.n, [s])
            # Repeated sources, one of them isolated.
            for sources in ([7, 7, 151], [9, 150, 9, 4]):
                want = search._dijkstra(adj, g.n, sorted(set(sources)))
                assert multi_source_distance(g, sources, direction) == want
        # Five searches per direction.  On weights 1..W the first on each
        # arc view is the probe, a list search, and undirected graphs share
        # one view for both directions; on unit weights and keyed slots the
        # probe is a ring pass too.
        probes = 1 + directed if weights == "one-to-w" else 0
        assert passes == [True] * (10 - probes) * ring
        assert ("full", "out") not in g._csr and ("full", "in") not in g._csr

    def test_ring_full_falls_back_and_marks(self, monkeypatch):
        # From the start of the twin path each step leaves a slot 1000
        # ahead, so the probe's pass outgrows its live slots and the search
        # falls back to Dijkstra; the mark then keeps later single searches
        # and batches in that direction off the ring.  The in-direction has
        # its own mark, which a batch into the far end sets for later
        # searches.
        _free_steps(monkeypatch)
        g = _twin_path()
        adj, rev = g.adjacency("out"), g.adjacency("in")
        assert search._csr(g, "out") is not None
        passes = _spy_ring(monkeypatch)
        assert sssp(g, 0) == search._dijkstra(adj, g.n, [0])  # the probe
        assert passes == [True] and g._csr[("full", "out")]
        assert sssp(g, 1) == search._dijkstra(adj, g.n, [1])
        assert passes == [True]
        assert multi_source_distance(g, [2, 3]) == search._dijkstra(adj, g.n, [2, 3])
        assert eccentricities(g, range(64)) == [max(search._dijkstra(adj, g.n, [s]))
                                                for s in range(64)]
        assert passes == [True] and ("full", "in") not in g._csr
        far = list(range(g.n - 64, g.n))
        assert eccentricities(g, far, "in") == [max(search._dijkstra(rev, g.n, [s])) for s in far]
        assert passes == [True, False] and g._csr[("full", "in")]
        assert sssp(g, g.n - 2, "in") == search._dijkstra(rev, g.n, [g.n - 2])
        assert passes == [True, False]

    def test_rule_keeps_deep_graphs_on_list_searches(self, monkeypatch):
        # The unit-weight probe is a ring pass, which gives up for a list
        # search once its steps, at 64 + n // 64 scans each, would cost more
        # than the list search's n + m: on a directed 2000-cycle (D = 1999)
        # and a 300-path (D = 299) it does, and later searches stay on the
        # list; on a random digraph with m = 6n, D = 6, it does not, and they
        # run in the ring.
        passes = _spy_ring(monkeypatch)
        for g, ring in ((cycle_graph(2000, directed=True), False), (path_graph(300), False),
                        (random_strongly_connected(Random(0), 1000, 5000), True)):
            assert sssp(g, 0) == bellman_ford(g, 0, "out")
            assert g._csr[("probe", g._key("out"))] == ring
            for s in (1, 2, 3):
                assert sssp(g, s) == bellman_ford(g, s, "out")
            assert passes == [True] * (1 + 3 * ring)
            passes.clear()

    def test_a_batch_of_one_runs_under_its_own_budget(self, monkeypatch):
        # A single search follows the probe: the first is the probe, a ring
        # pass on unit weights, and each later one starts a ring pass
        # exactly when the graph is shallow.  A one-source batch runs no
        # probe: it always starts a ring pass, bounded by the same n + m
        # scans, which on the deep graphs gives up for a list search and,
        # short of a full batch, marks nothing.
        passes = _spy_ring(monkeypatch)
        batch = lambda g, s: eccentricities(g, [s])[0]
        single = lambda g, s: max(sssp(g, s))
        for make, ring in ((lambda: cycle_graph(2000, directed=True), False),
                           (lambda: path_graph(300), False),
                           (lambda: random_strongly_connected(Random(0), 1000, 5000), True)):
            for kinds in ((single, batch), (batch, single)):
                g, started, want = make(), [], []
                for s in range(6):
                    passes.clear()
                    kind = kinds[s % 2]
                    assert kind(g, s) == max(bellman_ford(g, s, "out"))
                    started.append(len(passes))
                    want.append(int(kind is batch or ring or kind not in kinds[:s]))
                assert started == want
                assert ("full", "out") not in g._csr

    def test_unit_weights_count_every_level(self, monkeypatch):
        # On unit weights a pass that has settled level d counts d + 2
        # steps, the empty level after the last included: at c scans a
        # step a pass read to its end fits its n + m budget exactly when
        # c (D + 2) <= n + m.  (_ring_row stops once every vertex is
        # settled, before the count of level D.)
        g = random_strongly_connected(Random(2), 1000, 5000)
        depth, scans = max(bellman_ford(g, 0, "out")), g.n + g.m
        cost = scans // (depth + 2)
        assert (cost + 1) * (depth + 1) <= scans < (cost + 1) * (depth + 2)
        levels = lambda: [d for d, _, _ in search._ring_bits(g, [0], "out", search._all_bits(g.n),
                                                             one_bit=True)]
        monkeypatch.setattr(search, "_step_cost", lambda g: cost)
        assert levels() == list(range(depth + 1))
        monkeypatch.setattr(search, "_step_cost", lambda g: cost + 1)
        with pytest.raises(search._RingFull):
            levels()
        # A batch's budget is its sources' n + m each.
        assert eccentricities(g, range(64)) == [max(bellman_ford(g, s)) for s in range(64)]
        assert search._has_ring(g, "out")
        monkeypatch.setattr(search, "_step_cost", lambda g: 64 * cost + 64)
        assert eccentricities(g, range(64)) == [max(bellman_ford(g, s)) for s in range(64)]
        assert not search._has_ring(g, "out")

    def test_search_after_the_probe_asks_the_rule(self, monkeypatch):
        # st_3approx's two searches on an undirected graph: the first is the
        # probe, and the second, in the other direction of the same arrays,
        # asks the rule, which runs it in the ring.  On unit weights the
        # probe is a ring pass that builds the arrays and answers the first
        # search; on weights 1..W the rule builds them to learn the weight
        # class, and the probe is a Dijkstra.
        passes = _spy_ring(monkeypatch)
        g = random_connected(Random(1), 600, 1800)
        assert sssp(g, 3, "out") == bellman_ford(g, 3, "out")
        assert g._csr["out"] is not None and passes == [True]
        assert sssp(g, 7, "in") == bellman_ford(g, 7, "in")
        assert passes == [True, True]
        passes.clear()
        g = random_connected(Random(1), 600, 1800, max_w=6)
        assert sssp(g, 3, "out") == bellman_ford(g, 3, "out")
        assert g._csr["out"] is not None and passes == []
        assert sssp(g, 7, "in") == bellman_ford(g, 7, "in")
        assert passes == [True]

    @pytest.mark.parametrize("n, last", [(2000, 41), (20000, 105)])
    def test_deep_probe_gives_up_at_the_refused_depth(self, monkeypatch, n, last):
        # A ring step costs 64 + n // 64 list scans.  A directed 2000-cycle
        # has n + m = 4000, and 95 (d + 2) first exceeds it at d = 41: the
        # probe's ring pass settles levels 0..41, gives up there, and the
        # first search is answered by a list BFS.  On a directed 20000-cycle
        # 376 (d + 2) first exceeds 40000 at d = 105.
        _, levels, bfs = _spy_probe(monkeypatch)
        g = cycle_graph(n, directed=True)
        scans, cost = g.n + g.m, search._step_cost(g)
        assert cost * (last + 1) <= scans < cost * (last + 2)
        assert sssp(g, 0) == bellman_ford(g, 0, "out")
        assert levels == list(range(last + 1)) and bfs == [(0,)]
        assert g._csr[("probe", "out")] is False

    def test_later_searches_on_a_deep_grid_are_list_searches(self, monkeypatch):
        # A parsed 25 x 800 grid: n = 20000, m = 39175 and D = 823 from a
        # corner.  A step costs 64 + 312 list scans, so the probe gives up
        # at level 156, 376 * 158 > n + m, and the second search runs as a
        # list search; counting only the fixed 64 scans, the probe would
        # run all 825 ring steps, each settling 20000 words.
        rows, cols = 25, 800
        edges = [(v, v + 1, 1) for v in range(rows * cols) if (v + 1) % cols]
        edges += [(v, v + cols, 1) for v in range((rows - 1) * cols)]
        g = parse_graph(format_graph(Graph(rows * cols, edges)))
        passes, levels, bfs = _spy_probe(monkeypatch)
        r, c = np.divmod(np.arange(g.n), cols)
        for source in (0, g.n - 1):
            manhattan = np.abs(r - source // cols) + np.abs(c - source % cols)
            assert sssp(g, source) == manhattan.tolist()
        assert g._csr[("probe", "out")] is False
        assert passes == [(0,)] and levels == list(range(157))
        assert bfs == [(0,), (g.n - 1,)]

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(1, 80), directed=st.booleans(),
           shape=st.sampled_from(["random", "path", "cycle"]),
           cost=st.sampled_from([0, 1, 4, 64]), settle=st.integers(1, 16),
           direction=st.sampled_from(["out", "in"]))
    def test_property_unit_probe_depth(self, data, n, directed, shape, cost, settle,
                                       direction):
        # The unit-weight probe answers with the row of its ring pass, or
        # gives up for a list BFS at the first level L where its L + 2
        # steps would cost more than n + m scans, and nowhere else, whatever
        # the step costs; it keeps whether it gave up.
        if shape == "random":
            pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                       max_size=3 * n))
        else:
            pairs = [(v, (v + 1) % n) for v in range(n - (shape == "path"))]
        g = Graph(n, [(u, v, 1) for u, v in pairs], directed=directed)
        source = data.draw(st.integers(0, n - 1))
        want = bellman_ford(g, source, direction)
        finite = [d for d in want if d != UNREACHABLE]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(search, "_STEP_COST", cost)
            patch.setattr(search, "_SETTLE_WORDS", settle)
            _, levels, bfs = _spy_probe(patch)
            assert sssp(g, source, direction) == want
            *fits, last = [search._step_cost(g) * (d + 2) <= g.n + g.m for d in levels]
        assert g._csr[("probe", g._key(direction))] == (not bfs)
        assert levels == list(range(len(levels))) and len(bfs) <= 1
        assert levels[-1] == max(finite) or bfs
        # A pass whose last level settles every vertex ends there uncounted.
        assert all(fits) and (last != bool(bfs) or not bfs and len(finite) == g.n)


@st.composite
def _stop_cases(draw):
    """A graph, a source set, a picked mask, a count and a cap for the two
    early stops: unit weights, the ring of weights 1..8, keyed slots,
    0-weight arcs (list searches only), or a twin path whose passes from
    its first vertices raise _RingFull."""
    kind = draw(st.sampled_from(["unit", "one-to-w", "keyed", "zero", "full"]))
    if kind == "full":
        g = _twin_path(draw(st.integers(45, 60)))
        sources = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    else:
        n = draw(st.integers(1, 60))
        weights = {"unit": [1], "one-to-w": range(1, 9), "keyed": [1, 7, 50],
                   "zero": [0, 1, 3]}[kind]
        edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                         st.sampled_from(weights)), max_size=4 * n))
        g = Graph(n, edges, directed=draw(st.booleans()))
        sources = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=70))
    picked = np.array(draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n)), dtype=bool)
    return g, sorted(set(sources)), picked, draw(st.integers(1, g.n)), draw(st.integers(0, 70))


class TestEarlyStops:
    """The one-bit pass that stops once k picked vertices are settled, and
    the reach pass capped at a level, against full Bellman-Ford rows."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_stop_cases())
    def test_property_stopped_row(self, monkeypatch, case):
        _free_steps(monkeypatch)
        g, sources, picked, k, _ = case
        for direction in ("out", "in"):
            rows = [bellman_ford(g, s, direction) for s in sources]
            full = np.array([min(col) for col in zip(*rows)])
            # The first call may be the depth probe's full row, the rest ring
            # passes, or list searches after _RingFull or on 0 weights.
            for _ in range(2):
                _assert_stopped(search._distances(g, sources, direction, (picked, k)),
                                full, picked, k, exact=False)
            if search._csr(g, direction) is not None:
                with contextlib.suppress(search._RingFull):
                    _assert_stopped(search._ring_row(g, sources, direction, until=(picked, k)),
                                    full, picked, k, exact=True)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_stop_cases())
    def test_property_capped_reach(self, monkeypatch, case):
        _free_steps(monkeypatch)
        g, sources, _, _, cap = case
        for direction in ("out", "in"):
            rows = [bellman_ford(g, s, direction) for s in sources]
            far = np.array([max(col) for col in zip(*rows)])
            for _ in range(2):
                assert search._max_row(g, sources, direction, cap).tolist() == \
                    np.minimum(far, cap).astype(np.int64).tolist()
                assert search._max_row(g, sources, direction).tolist() == \
                    np.where(np.isinf(far), -1, far).astype(np.int64).tolist()

    def test_stop_level_is_recorded(self, monkeypatch):
        # On a 30-path from 0 every vertex reads its own distance, so a cap
        # of 10 reads min(v, 10); a pass that dropped the level that stopped
        # it would leave vertex 10 at 9.  A one-bit pass until 3 of the
        # picked odd vertices are settled stops at level 5.  Free steps keep
        # these short passes under their budgets.
        _free_steps(monkeypatch)
        g = path_graph(30, directed=True)
        assert search._max_row(g, [0], "out", 10).tolist() == [min(v, 10) for v in range(30)]
        picked = np.arange(30) % 2 == 1
        row = search._ring_row(g, [0], "out", until=(picked, 3))
        assert row.tolist() == list(range(6)) + [-1] * 24
        # A pass on a 60-vertex twin path that reaches its last vertex raises
        # _RingFull (see TestBatchedReductions), so these rows come from
        # list searches: the stopped row in full, the reach capped after,
        # where vertex 0, which source 1 cannot reach, reads the cap.
        g = _twin_path(60)
        search._distances(g, [0], "out")
        assert search._distances(g, [0], "out", (np.arange(60) == 59, 1)).tolist() == \
            list(range(60))
        assert g._csr[("full", "out")]
        assert search._max_row(g, [0, 1], "out", 50).tolist() == \
            [50] + [min(v, 50) for v in range(1, 60)]


class TestStepBudget:
    """Every ring pass gives up once its steps would cost more than the
    list searches it replaces; the budget only picks a kernel."""

    @settings(max_examples=100, deadline=None)
    @given(case=_stop_cases(), data=st.data())
    def test_property_budget_changes_no_output(self, case, data):
        # A drawn step cost c puts the budget of a pass of b sources at
        # about b (n + m) / c steps, so passes give up at arbitrary steps:
        # single searches (the probe among them), stopped and capped
        # passes, batches and balls, full batches marking their direction
        # for the next call.  c = 0 means no budget.
        g, sources, picked, k, cap = case
        scale, steps = data.draw(st.sampled_from([0, 1, 8, 64])), data.draw(st.integers(1, 40))
        cost = -(-scale * (g.n + g.m) // steps)
        listed = [sources[i % len(sources)] for i in range(data.draw(st.integers(1, 130)))]
        s = data.draw(st.integers(1, g.n))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(search, "_step_cost", lambda g: cost)
            for direction in ("out", "in"):
                rows = {v: bellman_ford(g, v, direction) for v in sources}
                near = np.array([min(col) for col in zip(*rows.values())])
                far = np.array([max(col) for col in zip(*rows.values())])
                for _ in range(2):  # the second call after the first's marks
                    assert search._distances(g, sources, direction).tolist() == \
                        np.where(np.isinf(near), -1, near).astype(np.int64).tolist()
                    _assert_stopped(search._distances(g, sources, direction, (picked, k)),
                                    near, picked, k, exact=False)
                    assert sssp(g, sources[-1], direction) == rows[sources[-1]]
                    assert search._max_row(g, sources, direction, cap).tolist() == \
                        np.minimum(far, cap).astype(np.int64).tolist()
                    _assert_reductions(g, listed, direction, rows)
                    _assert_closest(g, listed, s, direction)


def _assert_stopped(got, full, picked, k, exact):
    """``got`` equals the full row ``full`` (inf where unreachable) where it
    is settled, every -1 entry is farther than its last settled level, and
    it holds k picked vertices or every reachable one.  With ``exact`` it
    also settled no level past the one that met k."""
    settled = got >= 0
    assert got[settled].tolist() == full[settled].tolist()
    last = got.max(initial=0)
    assert (full[~settled] > last).all()
    assert np.count_nonzero(picked & settled) >= k or (settled == np.isfinite(full)).all()
    if exact:
        assert np.count_nonzero(picked & (full < last)) < k


def _ring_stream(g, sources, direction, one_bit):
    """Every (d, vertices, bits) of one ring pass, and the bits it left unseen."""
    unseen = search._all_bits(g.n)
    stream = [(d, frontier.tolist(), bits.tolist()) for d, frontier, bits
              in search._ring_bits(g, sources, direction, unseen, one_bit=one_bit)]
    return stream, unseen.tolist()


def _spy_pulls(monkeypatch) -> list:
    """Record every ring pass that pulls from now on: one entry at its
    first pull step, when it takes the reverse arcs."""
    pulls = []
    reverse_arcs = search._reverse_arcs

    def spy(*args):
        pulls.append(args)
        return reverse_arcs(*args)

    monkeypatch.setattr(search, "_reverse_arcs", spy)
    return pulls


def _pull_graphs():
    rng = Random(20)
    # In-degree-0 vertex 40 feeds the graph, 38 and 39 are isolated, and
    # self-loops and parallel arcs repeat tails within a vertex's group.
    base = _messy_graph(rng, 38, True, 1)
    edges = list(base.edges) + [(40, v, 1) for v in rng.sample(range(38), 6)]
    yield Graph(41, edges, directed=True)
    yield _messy_graph(rng, 60, False, 1)
    yield random_connected(rng, 50, 50 * 50 // 4)
    yield complete_graph(20, directed=True)
    # One weight other than 1: the next slot is d + 3.
    yield Graph(30, [(u, v, 3) for u, v, _ in random_graph(rng, 30, 150, True).edges],
                directed=True)
    yield Graph(1)
    yield Graph(1, [(0, 0, 1)], directed=True)


class TestPullSteps:
    """A one-weight ring step whose frontier holds enough of the arcs pulls
    over the reverse arcs instead of pushing over its own."""

    @pytest.mark.parametrize("one_bit", [True, False])
    @pytest.mark.parametrize("direction", ["out", "in"])
    @pytest.mark.parametrize("count", [1, 17, 64])
    def test_pull_and_push_yield_the_same_stream(self, monkeypatch, one_bit, direction, count):
        _free_steps(monkeypatch)
        pulls = _spy_pulls(monkeypatch)
        rng = Random(count)
        pulled = 0
        for g in _pull_graphs():
            sources = [rng.randrange(g.n) for _ in range(count)]
            monkeypatch.setattr(search, "_PULL", 0)
            push = _ring_stream(g, sources, direction, one_bit)
            assert not pulls
            monkeypatch.setattr(search, "_PULL", 10**9)
            assert _ring_stream(g, sources, direction, one_bit) == push
            pulled += len(pulls)
            monkeypatch.setattr(search, "_PULL", 4)
            assert _ring_stream(g, sources, direction, one_bit) == push
            pulls.clear()
        assert pulled

    def test_dense_levels_pull_at_the_default_factor(self, monkeypatch):
        pulls = _spy_pulls(monkeypatch)
        g = random_connected(Random(21), 50, 50 * 50 // 4)
        assert eccentricities(g, range(50)) == [max(bellman_ford(g, s)) for s in range(50)]
        assert pulls


def _assert_closest(g, sources, s, direction):
    """closest against each listed source's first s (distance, id) pairs
    of its bellman_ford row, in order."""
    got = search.closest(g, sources, s, direction)
    assert all(col.dtype == np.int64 for col in got)
    balls = {v: sorted((d, u) for u, d in enumerate(bellman_ford(g, v, direction))
                       if d != math.inf)[:s] for v in set(sources)}
    want = [(v, u, d) for v in sources for d, u in balls[v]]
    assert list(zip(*(col.tolist() for col in got))) == want, (g, s, direction)
    return got


def _closest_graphs(rng):
    """Dense, sparse, tree, path, cycle, star and clique graphs, undirected
    and directed, some with vertices that reach fewer than s others."""
    yield random_connected(rng, 90, 90 * 90 // 8)
    yield random_graph(rng, 140, 200, directed=False)
    yield random_graph(rng, 140, 300, directed=True)
    yield random_strongly_connected(rng, 80, 240)
    yield random_connected(rng, 100, 0)
    yield path_graph(100)
    yield path_graph(70, directed=True)
    yield cycle_graph(70)
    yield cycle_graph(66, directed=True)
    yield star_graph(80)
    yield Graph(81, [(0, v, 1) for v in range(1, 81)], directed=True)
    yield complete_graph(30)
    yield complete_graph(20, directed=True)
    yield Graph(3)


class TestClosest:
    """The batched balls: per source, its s closest (vertex, distance) pairs."""

    # Unit weights, the ring of weights 1..W, keyed slots, and 0-weight arcs,
    # which send every source to _ball.
    @pytest.mark.parametrize("weights", [(1,), (1, 2, 3), (2, 5, 9), (0, 1, 3)],
                             ids=["unit", "one-to-w", "keyed", "zero"])
    def test_matches_k_closest(self, weights):
        rng = Random(sum(weights))
        for base in _closest_graphs(rng):
            g = Graph(base.n, [(u, v, rng.choice(weights)) for u, v, _ in base.edges],
                      directed=base.directed)
            assert (search._csr(g, "out") is None) == (0 in weights and g.m > 0)
            shuffled = rng.choices(range(g.n), k=70)  # repeats, in no order
            for direction in ("out", "in") if g.directed else ("out",):
                for s in sorted({1, math.ceil(math.sqrt(g.n)), g.n}):
                    _assert_closest(g, range(g.n), s, direction)
                _assert_closest(g, shuffled, rng.randint(1, g.n), direction)

    def test_memory_half_fails(self):
        # Nearly distinct weights build no ring encoding: every ball is _ball's.
        g = random_graph(Random(8), 700, 3500, True, max_w=10**6)
        assert search._csr(g, "out") is None and search._csr(g, "in") is None
        for direction in ("out", "in"):
            _assert_closest(g, list(range(0, 700, 9)) + [3, 3], 27, direction)

    def test_fewer_than_s_reachable(self):
        g = Graph(81, [(0, v, 1) for v in range(1, 81)], directed=True)
        owner, member, dist = _assert_closest(g, range(81), 5, "out")
        assert np.bincount(owner).tolist() == [5] + [1] * 80
        owner, member, dist = _assert_closest(g, range(81), 81, "in")
        assert np.bincount(owner).tolist() == [1] + [2] * 80

    def test_empty_sources_and_checks(self):
        g = path_graph(5)
        assert [col.tolist() for col in search.closest(g, [], 2)] == [[], [], []]
        for s in (0, 6):
            with pytest.raises(ValueError):
                search.closest(g, [0], s)
        with pytest.raises(ValueError):
            search.closest(g, [5], 2)

    def test_live_slot_overflow_keeps_nothing_of_the_pass(self):
        # Full balls on the twin path outgrow the live slots (see
        # TestBatchedReductions); the batch that raised and the rest are
        # list searches, and the batches before it stay.
        g = _twin_path(200)
        sources = [g.n - 1] * 65 + list(range(64))
        _assert_closest(g, sources, g.n, "out")
        assert g._csr[("full", "out")]

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), n=st.integers(1, 70), directed=st.booleans(),
           weights=st.sampled_from([(1, 1), (1, 1), (3, 3), (1, 4), (0, 2)]))
    def test_property_push_and_pull(self, monkeypatch, data, n, directed, weights):
        # Sources retire under push-only and pull-only one-weight steps alike.
        edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                             st.integers(*weights)), max_size=4 * n))
        sources = data.draw(st.lists(st.integers(0, n - 1), max_size=140))
        s = data.draw(st.integers(1, n))
        g = Graph(n, edges, directed=directed)
        for pull in (0, 10**9):
            monkeypatch.setattr(search, "_PULL", pull)
            for direction in ("out", "in"):
                _assert_closest(g, sources, s, direction)

    def test_one_hop_balls_run_no_pass(self, monkeypatch):
        # Every vertex here has ceil(sqrt(n)) - 1 or more distinct
        # neighbours, so every ball is read off the neighbour view.
        passes = []
        ring_bits = search._ring_bits

        def spy(*args, **kwargs):
            passes.append(args[1])
            return ring_bits(*args, **kwargs)

        monkeypatch.setattr(search, "_ring_bits", spy)
        g = random_connected(Random(1), 90, 90 * 90 // 8)
        _assert_closest(g, range(g.n), math.ceil(math.sqrt(g.n)), "out")
        assert passes == []

    def test_passes_end_when_every_ball_is_full(self, monkeypatch):
        # On a 300-path a pass that kept stepping after its balls filled
        # would walk the whole path.  At s = 1 each ball is its own source:
        # on unit weights it is read off the neighbour view, so no pass
        # runs, and on weights 2 each pass retires its sources at level 0.
        passes = []
        ring_bits = search._ring_bits

        def spy(*args, **kwargs):
            levels = []
            passes.append(levels)
            for level in ring_bits(*args, **kwargs):
                levels.append(level[0])
                yield level

        monkeypatch.setattr(search, "_ring_bits", spy)
        unit, doubled = path_graph(300), path_graph(300, [2] * 299)
        for g, s, count in ((unit, 1, 0), (doubled, 1, 5), (unit, 18, 5), (unit, 40, 5)):
            passes.clear()
            owner, _, dist = _assert_closest(g, range(300), s, "out")
            assert len(passes) == count
            for i, levels in enumerate(passes):
                deepest = dist[(owner >= 64 * i) & (owner < 64 * i + 64)].max()
                assert len(levels) <= deepest + 2


class TestDegree3Blowup:
    def test_triangle(self):
        blown, bmap = degree3_blowup(complete_graph(3))
        assert blown.n == 3  # degree 2 everywhere: nothing to do
        blown2, bmap2 = degree3_blowup(complete_graph(4))
        assert blown2.n == 12
        assert all(len(blown2.adj_out[v]) <= 3 for v in range(blown2.n))
        for u in range(4):
            for v in range(u + 1, 4):
                assert sssp(blown2, bmap2.rep[u])[bmap2.rep[v]] == 1

    def test_single_edge_unchanged(self):
        blown, bmap = degree3_blowup(Graph(2, [(0, 1, 1)]))
        assert blown.n == 2 and bmap.rep == [0, 1]

    def test_star_center_becomes_cycle(self):
        g = star_graph(4)
        blown, bmap = degree3_blowup(g)
        assert blown.n == 4 + 4  # 4-cycle replacing the center, leaves unchanged
        zero_edges = [(u, v) for u, v, w in blown.edges if w == 0]
        assert len(zero_edges) == 4
        leaf_reps = [bmap.rep[v] for v in range(1, 5)]
        for i, a in enumerate(leaf_reps):
            for b in leaf_reps[i + 1:]:
                assert sssp(blown, a)[b] == 2

    def test_preserves_distances_random(self):
        rng = Random(8)
        for _ in range(15):
            n = rng.randint(2, 25)
            g = random_graph(rng, n, 3 * n, directed=False, max_w=3)
            blown, bmap = degree3_blowup(g)
            assert all(len(blown.adj_out[v]) <= 3 for v in range(blown.n))
            for u in range(n):
                du = sssp(g, u)
                db = sssp(blown, bmap.rep[u])
                assert all(db[bmap.rep[v]] == du[v] for v in range(n))

    def test_rejects_directed(self):
        with pytest.raises(ValueError):
            degree3_blowup(Graph(2, [(0, 1, 1)], directed=True))


class TestEdgeListFormat:
    def test_round_trip(self):
        rng = Random(9)
        for directed in (False, True):
            for max_w in (1, 9):
                g = random_graph(rng, 12, 30, directed=directed, max_w=max_w)
                g2 = parse_graph(format_graph(g))
                assert g2.n == g.n and g2.directed == g.directed
                assert g2.edges == g.edges

    def test_comments_and_header(self):
        text = "# a comment\n3 2 undirected unweighted\n0 1\n# another\n1 2\n"
        g = parse_graph(text)
        assert g.n == 3 and g.m == 2

    def test_parse_error_carries_line_number(self):
        with pytest.raises(GraphFormatError) as err:
            parse_graph("3 2 undirected unweighted\n0 1\n1 two\n")
        assert err.value.line_no == 3
        # An out-of-range edge is reported at its own line, not the file's.
        with pytest.raises(GraphFormatError, match=r"^line 3: edge \(0,5\) out of range for n=3$") as err:
            parse_graph("3 2 directed unweighted\n0 1\n0 5\n")
        assert err.value.line_no == 3

    def test_bad_header(self):
        with pytest.raises(GraphFormatError):
            parse_graph("3 1 sideways unweighted\n0 1\n")

    def test_vertex_guard(self, monkeypatch):
        with pytest.raises(GraphFormatError, match="line 2: n = 10000000001 exceeds"):
            parse_graph("# huge\n10000000001 0 undirected unweighted\n")
        monkeypatch.setattr(graph_module, "MAX_VERTICES", 5)
        assert parse_graph("5 1 directed unweighted\n0 4\n").n == 5
        with pytest.raises(GraphFormatError, match="limit of 5 vertices"):
            parse_graph("6 0 directed unweighted\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphFormatError):
            parse_graph("3 5 undirected unweighted\n0 1\n")

    def test_vertex_set_files(self):
        assert parse_vertex_set("2\n# note\n0\n2\n") == [0, 2]
        with pytest.raises(GraphFormatError):
            parse_vertex_set("1\nx\n")

    def test_load_errors_name_the_file(self, tmp_path):
        path = tmp_path / "S.txt"
        path.write_text("1\nx\n")
        with pytest.raises(GraphFormatError, match=f"^{re.escape(str(path))}: line 2: ") as err:
            graph_module.load_vertex_set(path)
        assert (err.value.path, err.value.line_no) == (path, 2)


_ATTRS = ("n", "directed", "edges", "adj_out", "adj_in", "max_weight",
          "unit_weights", "zero_one_weights", "positive_weights")


def _assert_same_graph(got: Graph, want: Graph):
    """Equal in every attribute but the ``_csr`` cache, ids and weights as ints."""
    for name in _ATTRS:
        assert getattr(got, name) == getattr(want, name), name
    assert (got.adj_in is got.adj_out) == (not got.directed)
    assert all(type(x) is int for edge in got.edges for x in edge)
    assert all(type(x) is int for row in got.adj_out + got.adj_in for arc in row for x in arc)


@contextlib.contextmanager
def _spy_lines():
    """Record every text handed to the line parser."""
    texts = []
    parse_lines = graph_module._parse_lines

    def spy(text):
        texts.append(text)
        return parse_lines(text)

    graph_module._parse_lines = spy
    try:
        yield texts
    finally:
        graph_module._parse_lines = parse_lines


def _outcome(parse, text):
    """A parser's Graph attributes, or its error's line number and message."""
    try:
        g = parse(text)
    except GraphFormatError as exc:
        return exc.line_no, str(exc)
    return [getattr(g, name) for name in _ATTRS]


@st.composite
def _edge_list_graphs(draw):
    n = draw(st.integers(0, 12))
    weights = draw(st.sampled_from([st.just(1), st.integers(0, 8), st.integers(0, 10**6)]))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weights),
                          max_size=40)) if n else []
    return Graph(n, edges, directed=draw(st.booleans()))


class TestBulkReader:
    """parse_graph reads plain files in one numpy pass and leaves every
    other text to the line parser, with the same Graph or error."""

    @settings(max_examples=150, deadline=None)
    @given(g=_edge_list_graphs())
    def test_round_trip_runs_the_bulk_reader(self, g):
        with _spy_lines() as texts:
            got = parse_graph(format_graph(g))
        assert texts == []
        _assert_same_graph(got, g)

    @pytest.mark.parametrize("variant, plain", [
        ("comment", False), ("blank line", False), ("crlf", False), ("tab", False),
        ("no final newline", True), ("leading zeros", True)])
    def test_variants_parse_equal(self, variant, plain):
        g = random_graph(Random(5), 9, 20, directed=True, max_w=7)
        text = format_graph(g)
        text = {"comment": lambda t: "# a graph\n" + t,
                "blank line": lambda t: t.replace("\n", "\n\n", 3),
                "crlf": lambda t: t.replace("\n", "\r\n"),
                "tab": lambda t: t.replace(" ", "\t", 5),
                "no final newline": lambda t: t[:-1],
                "leading zeros": lambda t: re.sub(r"(?m)^(\d+) ", r"00\1 ", t)}[variant](text)
        with _spy_lines() as texts:
            got = parse_graph(text)
        assert texts == ([] if plain else [text])
        _assert_same_graph(got, g)

    # Texts the bulk reader must leave to the line parser: most are
    # malformed, and the rest (a sign, non-ASCII digits, 19-digit tokens)
    # are read by int() alone.
    OTHER_TEXTS = {
        "negative id": "3 2 directed unweighted\n0 1\n-1 2\n",
        "plus sign": "3 2 directed unweighted\n0 1\n+1 2\n",
        "decimal weight": "3 2 directed weighted\n0 1 1.5\n1 2 1\n",
        "superscript n": "² 1 directed unweighted\n0 1\n",
        "superscript m": "3 ² directed unweighted\n0 1\n",
        "superscript id": "3 1 directed unweighted\n0 ²\n",
        "arabic-indic n": "٣ 1 directed unweighted\n0 2\n",
        "arabic-indic id": "3 1 directed unweighted\n٠ 2\n",
        "19-digit weight over budget": "3 1 directed weighted\n0 1 9999999999999999999\n",
        "19-digit weight past int64": "1 1 directed weighted\n0 0 9999999999999999999\n",
        "19-digit weight": "3 1 directed weighted\n0 1 1000000000000000000\n",
        "19-digit small weight": "3 1 directed weighted\n0 1 0000000000000000007\n",
        "extra field": "3 1 directed unweighted\n0 1 2\n",
        "missing field": "3 1 directed weighted\n0 1\n",
        "too few edges": "3 2 directed unweighted\n0 1\n",
        "too many edges": "3 1 directed unweighted\n0 1\n1 2\n",
        "id out of range": "3 2 undirected unweighted\n0 1\n0 5\n",
        "tail out of range": "3 2 undirected unweighted\n0 1\n3 0\n",
        "weight over budget": "11 1 directed weighted\n0 1 999999999999999999\n",
        "18-digit weight": "3 1 directed weighted\n0 1 999999999999999999\n",
        "edge on no vertices": "0 1 directed unweighted\n0 0\n",
        "header without newline": "3 1 directed unweighted",
        "trailing blank line": "3 0 directed unweighted\n\n",
        "bad flag": "3 1 sideways unweighted\n0 1\n",
        "five header fields": "3 1 directed unweighted extra\n0 1\n",
        "empty": "",
    }

    @pytest.mark.parametrize("text", OTHER_TEXTS.values(), ids=OTHER_TEXTS.keys())
    def test_other_texts_match_the_line_parser(self, text):
        assert _outcome(parse_graph, text) == _outcome(graph_module._parse_lines, text)

    @settings(max_examples=200, deadline=None)
    @given(g=_edge_list_graphs(), where=st.sampled_from(["first", "middle", "last"]),
           edit=st.sampled_from(["add", "remove", "move down", "move up"]),
           final_newline=st.booleans())
    def test_token_count_edits_match_the_line_parser(self, g, where, edit, final_newline):
        # A token added to or removed from one line, or moved to the next or
        # the previous line, which keeps the total: the bulk reader must
        # give the line parser's Graph or error, or hand the text to it.
        head, *lines = format_graph(g).splitlines()
        if not lines:
            lines = ["0 0"]
            head = head.replace(" 0 ", " 1 ", 1)
        k = {"first": 0, "middle": len(lines) // 2, "last": len(lines) - 1}[where]
        other = min(k + 1, len(lines) - 1) if edit == "move down" else max(k - 1, 0)
        rest, _, token = lines[k].rpartition(" ")
        if edit == "add":
            lines[k] += " 7"
        elif edit == "remove":
            lines[k] = rest
        elif other != k:
            lines[k] = rest
            lines[other] += " " + token
        text = "\n".join([head] + lines) + ("\n" if final_newline else "")
        assert _outcome(parse_graph, text) == _outcome(graph_module._parse_lines, text)

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("max_w", [0, 1, 8, 1000])
    def test_parse_gives_equal_arrays(self, directed, max_w):
        # Weights 0..1 (no ring arrays), unit, exactly 1..8 (a ring of 9
        # slots) and 1..1000 (keyed slots: 20 vertices and 1000 arcs leave
        # room for about 800 distinct weights); with self-loops, parallel
        # edges, no vertices and no edges.
        g = random_graph(Random(max_w), 20, 1000, directed=directed, max_w=max_w, loops=True)
        parallel = Graph(20, g.edges[:30] * 3 + [(4, 4, 1)] * 2, directed)
        for want in (g, parallel, Graph(0, directed=directed), Graph(20, directed=directed)):
            got = parse_graph(format_graph(want))
            _assert_same_graph(got, want)
            assert got.m == want.m and np.array_equal(got.degrees, want.degrees)
            assert all(np.array_equal(a, b) for a, b in zip(got.columns, want.columns))
            for direction in ("out", "in") if want.n else ():
                for a, b in zip(got.arcs(direction), want.arcs(direction)):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
                csr = search._csr(got, direction)
                assert (csr is None) == (not want.positive_weights)
                if csr is not None:
                    (got_targets, got_steps, got_ranks) = csr
                    (want_targets, want_steps, want_ranks) = search._csr(want, direction)
                    assert got_targets.dtype == want_targets.dtype
                    assert np.array_equal(got_targets, want_targets)
                    assert got_steps == want_steps
                    assert (got_ranks is None) == (want_ranks is None)
                    assert got_ranks is None or np.array_equal(got_ranks, want_ranks)
                    # Arc r n + v of weight steps[r]: the lists' arcs, in order.
                    adj, degree = got.adjacency(direction), got.arcs(direction)[1]
                    assert degree.tolist() == [len(row) for row in adj]
                    assert [(t % got.n, got_steps[t // got.n]) for t in got_targets.tolist()] == \
                           [arc for row in adj for arc in row]

    def test_lists_wait_for_a_list_consumer(self):
        built = random_connected(Random(3), 60, 120)
        g = parse_graph(format_graph(built))
        # Unit-weight batches run in the ring with no list probe.
        assert exact_eccentricities(g) == [max(bellman_ford(built, v)) for v in range(60)]
        assert "edges" not in g._views and "out" not in g._views
        # A single search's depth probe gives up its ring pass at once on
        # this small graph, for a list search.
        assert sssp(g, 0) == bellman_ford(built, 0)
        assert "out" in g._views and "edges" not in g._views
        assert g.edges and "edges" in g._views
