"""Sparse diameter estimators."""

from __future__ import annotations

from random import Random

from conftest import cycle_graph, path_graph, random_strongly_connected
from diamecc import (Graph, diam_folklore_2approx, diam_linear_lessthan2,
                     exact_diameter)
from diamecc import search


class TestFolklore:
    def test_directed_cycle_exact(self):
        assert diam_folklore_2approx(cycle_graph(9, directed=True)) == 8

    def test_undirected_path(self):
        assert diam_folklore_2approx(path_graph(5)) == 4

    def test_half_bound_random(self):
        rng = Random(30)
        for _ in range(30):
            n = rng.randint(2, 60)
            g = random_strongly_connected(rng, n, 2 * n, max_w=rng.choice([1, 6]))
            D = exact_diameter(g)
            est = diam_folklore_2approx(g)
            assert 2 * est >= D and est <= D
            if D % 2 == 1:
                assert est >= (D - 1) // 2 + 1

    def test_unreachable_propagates(self):
        from diamecc import UNREACHABLE
        g = Graph(3, [(0, 1, 1)], directed=True)
        assert diam_folklore_2approx(g) == UNREACHABLE

    def test_one_search_when_undirected(self, monkeypatch):
        # sssp takes its row from _row, as the search made it.
        directions = []
        row = search._row

        def spy(g, sources, direction):
            directions.append(direction)
            return row(g, sources, direction)

        monkeypatch.setattr(search, "_row", spy)
        assert diam_folklore_2approx(path_graph(5)) == 4
        assert directions == ["out"]
        directions.clear()
        assert diam_folklore_2approx(cycle_graph(9, directed=True)) == 8
        assert directions == ["out", "in"]


class TestLinearLessThan2:
    def test_path_five(self):
        est = diam_linear_lessthan2(path_graph(5))
        assert 3 <= est <= 4  # D = 4 = 2h with h = 2

    def test_k2(self):
        assert diam_linear_lessthan2(path_graph(2)) == 1

    def test_even_diameter_bound(self):
        rng = Random(31)
        found = 0
        while found < 30:
            n = rng.randint(3, 60)
            g = random_strongly_connected(rng, n, rng.randint(0, 2 * n))
            D = exact_diameter(g)
            if D % 2 != 0 or D == 0:
                continue
            found += 1
            est = diam_linear_lessthan2(g)
            assert D // 2 + 1 <= est <= D

    def test_odd_diameter_still_lower_bound(self):
        rng = Random(32)
        for _ in range(20):
            n = rng.randint(2, 50)
            g = random_strongly_connected(rng, n, rng.randint(0, 2 * n))
            assert diam_linear_lessthan2(g) <= exact_diameter(g)

    def test_min_degree_vertex_is_cheap(self):
        # The sweep is anchored at a minimum-degree vertex, which by
        # averaging has degree at most 2m/n.
        rng = Random(33)
        for _ in range(10):
            n = rng.randint(2, 50)
            g = random_strongly_connected(rng, n, 2 * n)
            v = min(range(n), key=lambda x: (len(g.adj_out[x]) + len(g.adj_in[x]), x))
            arcs = g.m
            assert len(g.adj_out[v]) + len(g.adj_in[v]) <= 2 * arcs / n
