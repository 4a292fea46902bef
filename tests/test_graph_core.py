"""Graph type, searches, oracles, blow-up, and the edge-list format."""

from __future__ import annotations

import contextlib
import math
import re
from random import Random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import (bellman_ford, complete_graph, cycle_graph, path_graph, random_connected,
                      random_graph, random_strongly_connected, star_graph)
from diamecc import graph as graph_module
from diamecc import search
from diamecc.stdiam import STInstance, _assemble_gadget, _doubled, _with_pendants
from diamecc import (UNREACHABLE, Graph, GraphFormatError, apsp_matrix,
                     degree3_blowup, eccentricities, exact_eccentricities,
                     exact_st_diameter, format_graph, is_connected,
                     is_strongly_connected, k_closest, max_distances,
                     multi_source_distance, nearest, parse_graph, parse_vertex_set, sssp)


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
    g2, w_scale = _doubled(STInstance(g, S, T))
    span_s, span_t = exact_st_diameter(g2, S, S), exact_st_diameter(g2, T, T)
    g_s, g_t = _with_pendants(g2, [S], w_scale)[0], _with_pendants(g2, [T], w_scale)[0]
    gadget = _assemble_gadget(g2, S, T, g_s, g_t, w_scale, span_s, span_t)
    return g_s, gadget.g_st, gadget.g_final


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
                    # These graphs are shallow enough that big batches of
                    # positive weights run in the ring.
                    assert search._ring_rule(g, distinct, direction)[0] == (lo > 0) or count == 1
                    _assert_reductions(g, distinct, direction, rows)
                    _assert_reductions(g, with_repeats, direction, rows)

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
                    assert search._ring_rule(graph, distinct, direction)[0] or count == 1
                    _assert_reductions(graph, distinct, direction, rows)
                    _assert_reductions(graph, with_repeats, direction, rows)
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
                assert search._ring_rule(g, sources, direction)[0]
                _assert_reductions(g, sources, direction, rows)
                _assert_reductions(g, [4, 4, 17], direction, rows)
                assert ("full", search._key(g, direction)) not in g._csr

    def test_live_slot_overflow_falls_back(self):
        # A weight-1 path whose every arc has a weight-1000 twin: each step
        # leaves a slot pending 1000 ahead, so a pass from the start outgrows
        # its live slots long before it ends.
        sources = list(range(64))
        g = _twin_path()
        assert search._ring_rule(g, sources, "out")[0]
        rows = {}
        _assert_reductions(g, sources, "out", rows)
        # It fell back to list searches, and later calls skip the ring.
        assert g._csr[("full", "out")]
        assert search._ring_rule(g, sources, "out") == (False, [])
        _assert_reductions(g, sources, "out", rows)
        # The in-direction has its own flag: from the far end its passes are
        # as deep, and they overflow too.
        assert ("full", "in") not in g._csr
        _assert_reductions(g, range(g.n - 64, g.n), "in")
        assert g._csr[("full", "in")]
        # A call whose first pass fits and whose second overflows keeps the
        # first pass and runs the second batch as list searches.
        g = _twin_path()
        mixed = [g.n - 1] * 65 + sources
        assert search._ring_rule(g, mixed, "out")[0]
        _assert_reductions(g, mixed, "out", rows)
        assert g._csr[("full", "out")]

    def test_live_slots_stay_under_the_cap(self):
        # The live slots (the pending ones and the one settling) plus the
        # k_w block rows may fill 16 (n + m) / n words per vertex and no
        # more; a pass that would go over stops before allocating.
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
        # A directed 320-cycle with weights 1..10 is deep: the first source's
        # largest distance is about 1760, so 64 sources still run as list
        # searches, with that source's row reused.
        cycle = Graph(320, [(i, (i + 1) % 320, rng.randint(1, 10)) for i in range(320)],
                      directed=True)
        ring, rows = search._ring_rule(cycle, list(range(64)), "out")
        assert not ring and rows == [bellman_ford(cycle, 0, "out")]
        # The depth is kept: a later call runs no probe.
        assert search._ring_rule(cycle, [5, 6], "out") == (False, [])
        rows = {s: bellman_ford(cycle, s, "in") for s in range(0, 320, 5)}
        _assert_reductions(cycle, list(rows), "in", rows)
        # Weights 1..8 at m = 5n are shallow.  A lone first source is the
        # probe itself; once D is known, one source is enough for the ring.
        shallow = random_graph(rng, 700, 3500, True, max_w=8)
        ring, rows = search._ring_rule(shallow, [3], "out")
        assert not ring and rows == [bellman_ford(shallow, 3, "out")]
        assert search._ring_rule(shallow, [3], "out") == (True, [])
        ring, rows = search._ring_rule(random_graph(rng, 700, 3500, True, max_w=8), [3, 1], "out")
        assert ring and len(rows) == 1
        # Unit weights skip the probe however deep the graph.
        assert search._ring_rule(path_graph(300), [0], "out") == (True, [])
        # Random weights up to 10**6 settle nearly every vertex at its own
        # distance, and fail the depth half before the memory half is asked.
        heavy = random_graph(rng, 50, 100, True, max_w=10**6)
        ring, rows = search._ring_rule(heavy, [0, 1], "out")
        assert not ring and rows == [bellman_ford(heavy, 0, "out")]
        assert "out" not in heavy._csr
        # A pass's steps are at most K per source, K being the number of
        # distinct distances in the probe's row: a pendant gadget's depth
        # D + W + 1 is about 600, but K is 8 or 9, so a pass of 64 sources
        # takes at most about 9 * 64 steps and a pass of one source 9.  The
        # 65 sources after the probe run in the ring; at D + W + 1 steps for
        # each of their two passes they would not.
        gadget = _pendant_gadgets(Random(22), 150)[1]
        ring, rows = search._ring_rule(gadget, list(range(66)), "out")
        (depth, distinct), W = gadget._csr[("depth", "out")], gadget.max_weight
        assert ring and len(rows) == 1 and distinct * 64 < depth + W + 1
        assert search._STEP_COST * 2 * (depth + W + 1) > 65 * (gadget.n + gadget.m)

    def test_memory_half_builds_no_arrays(self):
        # A dense digraph of nearly all-distinct weights: the probe row holds
        # at most n distances, so the depth half lets 79 sources through, but
        # k_w is about m, far above 16 (n + m) / n.  The memory half rejects
        # the ring without building the CSR arrays or the rank masks.
        dense = random_graph(Random(23), 40, 4000, True, max_w=10**6)
        sources = list(range(40)) * 2
        ring, rows = search._ring_rule(dense, sources, "out")
        distinct = dense._csr[("depth", "out")][1]
        assert search._STEP_COST * distinct * 79 <= 79 * (dense.n + dense.m)
        assert not ring and len(rows) == 1
        assert dense._csr == {("depth", "out"): dense._csr[("depth", "out")], "out": None}
        _assert_reductions(dense, sources, "out")

    def test_ring_of_one_to_w_steps_through_every_distance(self):
        # Weights exactly 1..30 run as a ring, which steps through all
        # D + W + 1 = 61 distances of a pass, however few of them hold bits.
        # From vertex 0 every vertex is at 30, so K = 2 and a lone source
        # passes the keyed estimate, but 64 * 61 > n + m sends it to a list
        # search.  64 sources pay for a ring pass.
        n = 500
        edges = [(0, v, 30) for v in range(1, n)] + [(v, 0, 30) for v in range(1, n)]
        edges += [(v, v + 1, v) for v in range(1, 30)]
        g = Graph(n, edges, directed=True)
        ring, rows = search._ring_rule(g, [0, 5], "out")
        assert g._csr[("depth", "out")] == (30, 2) and search._one_to_w(search._csr(g, "out")[1])
        assert search._STEP_COST * 2 <= g.n + g.m < search._STEP_COST * 61
        assert not ring and len(rows) == 1
        assert search._ring_rule(g, list(range(64)), "out") == (True, [])
        _assert_reductions(g, [0, 5], "out")
        _assert_reductions(g, range(64), "out")

    @pytest.mark.parametrize("reduction", ["eccentricities", "targets", "max_distances",
                                           "nearest"])
    def test_probe_row_is_the_first_answer(self, reduction):
        # The first call on a fresh weighted graph answers its first source
        # from the depth probe's row, on both sides of the depth rule.
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
            assert run(g, srcs) == want[reduction]
            assert search._ring_rule(g, srcs, "out") == (ring, [])


def _spy_ring(monkeypatch) -> list:
    """Record the one_bit flag of every ring pass started from now on."""
    passes = []
    ring_bits = search._ring_bits

    def spy(*args, one_bit=False):
        passes.append(one_bit)
        return ring_bits(*args, one_bit=one_bit)

    monkeypatch.setattr(search, "_ring_bits", spy)
    return passes


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
        # The time half is switched off, so every search after the probe
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
        # Five searches per direction; the first on each array adjacency is
        # the probe, and undirected graphs share one for both directions.
        assert passes == [True] * (10 - 1 - directed) * ring
        assert ("full", "out") not in g._csr and ("full", "in") not in g._csr

    def test_ring_full_falls_back_and_marks(self, monkeypatch):
        # From the start of the twin path each step leaves a slot 1000
        # ahead, so the pass outgrows its live slots and the search falls
        # back to Dijkstra; the mark then keeps later searches off the ring.
        monkeypatch.setattr(search, "_STEP_COST", 0)
        g = _twin_path()
        adj = g.adjacency("out")
        assert search._csr(g, "out") is not None
        assert sssp(g, 0) == search._dijkstra(adj, g.n, [0])  # the probe
        passes = _spy_ring(monkeypatch)
        assert sssp(g, 1) == search._dijkstra(adj, g.n, [1])
        assert passes == [True] and g._csr[("full", "out")]
        assert multi_source_distance(g, [2, 3]) == search._dijkstra(adj, g.n, [2, 3])
        assert passes == [True] and ("full", "in") not in g._csr

    def test_rule_keeps_deep_graphs_on_list_searches(self, monkeypatch):
        # After the probe, a search runs in the ring when 64 (D + W + 1)
        # steps cost at most the list search's n + m scans: a directed
        # 2000-cycle (D = 1999) and a 300-path (D = 299) stay on the list,
        # and a random digraph with m = 6n, D = 6, runs in the ring.
        passes = _spy_ring(monkeypatch)
        for g, ring in ((cycle_graph(2000, directed=True), False), (path_graph(300), False),
                        (random_strongly_connected(Random(0), 1000, 5000), True)):
            key = search._key(g, "out")
            first = sssp(g, 0)
            assert g._csr[("depth", key)] == (max(first), len(set(first)))
            # No batch built the arrays, which cost about one list search,
            # so the search after the probe is a list search as well.
            for s in (1, 2, 3):
                assert sssp(g, s) == bellman_ford(g, s, "out")
            assert g._csr[("single", key)] == ring and passes == [True, True] * ring
            passes.clear()

    def test_unit_weights_count_every_level(self):
        # On unit weights K = D + 1, but a pass also settles the empty
        # level after the last, so it is counted as D + W + 1 = D + 2 steps.
        g = random_strongly_connected(Random(2), 1000, 5000)
        depth = (g.n + g.m) // search._STEP_COST - 2
        assert search._fits(g, "out", depth, depth + 1, 1)
        assert not search._fits(g, "out", depth + 1, depth + 2, 1)

    def test_one_search_after_the_probe_builds_no_arrays(self):
        # st_3approx's two searches on an undirected graph: the first is the
        # probe, and the second finds no arrays, so it builds none.
        g = random_connected(Random(1), 600, 1800)
        sssp(g, 3, "out")
        sssp(g, 7, "in")
        assert "out" not in g._csr and ("single", "out") not in g._csr
        sssp(g, 9, "in")
        assert g._csr[("single", "out")] and g._csr["out"] is not None


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

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("max_w", [1, 8, 1000])
    def test_seeds_the_ring_arrays(self, directed, max_w):
        # 20 vertices and 1000 arcs leave room for about 800 distinct weights.
        g = random_graph(Random(max_w), 20, 1000, directed=directed, max_w=max_w, loops=True)
        parsed = parse_graph(format_graph(g))
        for direction in ("out", "in"):
            key = search._key(parsed, direction)
            assert ("arcs", key) in parsed._csr or key in parsed._csr
            (got, got_steps, got_ranks) = search._csr(parsed, direction)
            (want, want_steps, want_ranks) = search._csr(g, direction)
            assert ("arcs", key) not in parsed._csr
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert got_steps == want_steps
            assert (got_ranks is None) == (want_ranks is None)
            if got_ranks is not None:
                assert np.array_equal(got_ranks, want_ranks)
