"""Centers, bunches/clusters, additive-2 spanner, dense estimators."""

from __future__ import annotations

import heapq
import math
import sys
import tracemalloc
from collections import deque
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (band_graph, bellman_ford, center_corpus, complete_graph, path_graph,
                      random_connected, random_graph, star_graph)
from diamecc import (Graph, additive2_spanner, apsp_matrix, approx_on_spanner,
                     diam_dense_32, diam_folklore_2approx, diam_linear_lessthan2, ecc_dense_53,
                     exact_diameter, exact_eccentricities, tz_center,
                     st_3approx, STInstance)
from diamecc import dense as dense_module
from diamecc import search as search_module
from diamecc.dense import (CenterData, _check_dense_input, _cluster_matrix,
                           _greedy_hitting_set)
from diamecc.eccen import ceil_sqrt
from diamecc.graph import format_graph, parse_graph
from diamecc.search import _bfs_parents as tree_parents, _csr, is_connected, k_closest, nearest


def check_center_invariants(g, cd):
    n = g.n
    b = math.ceil(1 / cd.p)
    center_set = set(cd.centers)
    for v in range(n):
        assert len(cd.bunches[v]) <= b
        assert not center_set & {u for u, _ in cd.bunches[v]}  # no center can be closer than d(v, A)
        if v not in center_set:
            assert any(d == 0 for u, d in cd.bunches[v] if u == v)  # v in own bunch
        else:
            assert cd.bunches[v] == []
    for w in range(n):
        assert len(cd.clusters[w]) <= 4 / cd.p
    # Clusters are the exact inverse of bunches.
    inv = [[] for _ in range(n)]
    for v in range(n):
        for u, du in cd.bunches[v]:
            inv[u].append((v, du))
    assert inv == cd.clusters


class TestTZCenter:
    def test_complete_graph(self):
        g = complete_graph(9)
        cd = tz_center(g, 1 / 3, seed=0)
        check_center_invariants(g, cd)
        for v in range(9):
            assert all(u == v for u, _ in cd.bunches[v])  # bunch within self

    def test_path_sixteen(self):
        g = path_graph(16)
        cd = tz_center(g, 1 / 4, seed=0)
        check_center_invariants(g, cd)

    def test_star_hits_every_leaf_neighborhood(self):
        from diamecc import k_closest
        g = star_graph(10)
        cd = tz_center(g, 1 / 3, seed=0)
        b = math.ceil(3)
        centers = set(cd.centers)
        for v in range(g.n):
            assert centers & set(k_closest(g, v, b).vertices())

    def test_random_graphs_many_p(self):
        rng = Random(40)
        for trial in range(15):
            n = rng.randint(4, 70)
            g = random_connected(rng, n, rng.randint(0, 3 * n))
            for p in (0.5, 0.25, 1 / math.ceil(math.sqrt(n))):
                cd = tz_center(g, p, seed=trial)
                check_center_invariants(g, cd)

    def test_pivot_is_nearest_center_smallest_id(self):
        rng = Random(41)
        g = random_connected(rng, 30, 40)
        cd = tz_center(g, 0.3, seed=0)
        D = apsp_matrix(g)
        for v in range(30):
            best = min((D[v, a], a) for a in cd.centers)
            assert (cd.dist[v], cd.pivot[v]) == best

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            tz_center(path_graph(4), 0.0)
        with pytest.raises(ValueError):
            tz_center(Graph(3, [(0, 1, 2), (1, 2, 2)]), 0.5)
        with pytest.raises(ValueError):
            tz_center(Graph(3, [(0, 1, 1)]), 0.5)


def recount_hitting_set(sets, n: int) -> list:
    """The greedy hitting set as it was before the incremental helper.

    Verbatim, except that it returns the picks in pick order; the old
    function returned them sorted.
    """
    member_of = [[] for _ in range(n)]
    for i, s in enumerate(sets):
        for v in s:
            member_of[v].append(i)
    unhit = set(range(len(sets)))
    chosen = []
    while unhit:
        best, best_cover = -1, -1
        counts = {}
        for i in unhit:
            for v in sets[i]:
                counts[v] = counts.get(v, 0) + 1
        for v in sorted(counts):
            if counts[v] > best_cover:
                best, best_cover = v, counts[v]
        chosen.append(best)
        unhit = {i for i in unhit if best not in sets[i]}
    return chosen


def scan_dominators(g) -> list:
    """The spanner's dominator scan as it was before the greedy helper."""
    n = g.n
    threshold = ceil_sqrt(n)
    deg = [len(g.adj_out[v]) for v in range(n)]
    heavy = {v for v in range(n) if deg[v] >= threshold}
    uncovered = set(heavy)
    dominators = []
    while uncovered:
        best, best_cover = -1, -1
        for z in range(n):
            cover = (1 if z in uncovered else 0) + sum(1 for u, _ in g.adj_out[z] if u in uncovered)
            if cover > best_cover:
                best, best_cover = z, cover
        dominators.append(best)
        uncovered.discard(best)
        uncovered.difference_update(u for u, _ in g.adj_out[best])
    return dominators


def flat_hitting_set(sets, n: int) -> list:
    """_greedy_hitting_set on vertex lists, flattened to (owner, member) arrays."""
    owners = np.arange(len(sets)).repeat([len(s) for s in sets])
    members = np.array([v for s in sets for v in s], dtype=np.int64)
    return _greedy_hitting_set(owners, members, n)


@st.composite
def vertex_lists(draw):
    """Up to 20 nonempty lists of up to 6 vertices over range(n), n <= 12."""
    n = draw(st.integers(1, 12))
    lists = st.lists(st.integers(0, n - 1), min_size=1, max_size=6)
    return draw(st.lists(lists, min_size=1, max_size=20)), n


class TestGreedyHittingSet:
    def test_matches_recount_on_ties_and_duplicates(self):
        rng = Random(46)
        for _ in range(300):
            n = rng.randint(1, 15)
            sets = [[rng.randrange(n) for _ in range(rng.randint(1, 6))]
                    for _ in range(rng.randint(1, 30))]
            assert flat_hitting_set(sets, n) == recount_hitting_set(sets, n)

    @settings(max_examples=200, deadline=None)
    @given(case=vertex_lists())
    @example(case=([[2, 2, 0], [2], [0, 0], [1]], 4))  # vertex 3 is in no list
    def test_matches_recount(self, case):
        """Repeats inside one list, vertices in no list and one-element lists."""
        sets, n = case
        assert flat_hitting_set(sets, n) == recount_hitting_set(sets, n)

    def test_picks_hit_every_set(self):
        sets = [[0, 1], [1, 2], [2, 3], [3, 0], [4]]
        picks = flat_hitting_set(sets, 5)
        assert picks == [0, 2, 4]
        assert all(set(picks) & set(s) for s in sets)

    def test_dominators_match_scan(self):
        rng = Random(47)
        for trial in range(40):
            n = rng.randint(1, 60)
            g = random_connected(rng, n, rng.randint(0, n * n // 3))
            edges = list(g.edges)
            if trial % 2:  # parallel edges and self-loops change the coverage counts
                edges += rng.choices(edges, k=len(edges) // 2) if edges else []
                edges += [(v, v, 1) for v in rng.sample(range(n), n // 3)]
            g = Graph(n, edges)
            assert additive2_spanner(g).dominators == scan_dominators(g)


def list_bfs_parents(g: Graph, root: int) -> dict:
    """``dense._bfs_parents`` as it was on the adjacency lists, verbatim."""
    parent = {root: root}
    level = [root]
    while level:
        nxt = []
        for x in level:
            for v, _ in g.adj_out[x]:
                if v not in parent:
                    parent[v] = x
                    nxt.append(v)
        level = nxt
    return parent


def reference_spanner(g):
    """``additive2_spanner`` as it was on the adjacency lists: its body
    verbatim, with recount_hitting_set as the hitting set.  Returns the
    spanner graph and the dominators."""
    n = g.n
    threshold = ceil_sqrt(n)
    deg = [len(g.adj_out[v]) for v in range(n)]
    kept = set()
    for u, v, _ in g.edges:
        if deg[u] < threshold or deg[v] < threshold:
            kept.add((u, v) if u <= v else (v, u))

    closed = [[v] + [u for u, _ in g.adj_out[v]] for v in range(n) if deg[v] >= threshold]
    dominators = recount_hitting_set(closed, n)

    for root in dominators:
        for v, u in list_bfs_parents(g, root).items():
            if v != root:
                kept.add((u, v) if u <= v else (v, u))
    edges = [(u, v, 1) for u, v in sorted(kept)]
    return Graph(n, edges, directed=False), dominators


def lollipop(k: int, length: int) -> Graph:
    """A k-clique with a path of ``length`` more vertices hanging off vertex k - 1."""
    edges = [(u, v, 1) for u in range(k) for v in range(u + 1, k)]
    return Graph(k + length, edges + [(i - 1, i, 1) for i in range(k, k + length)])


class TestSpannerOnArrays:
    """The array-built spanner against the list-built one, and its BFS trees."""

    def corpus(self):
        rng = Random(51)
        for n in (0, 1, 2):
            yield Graph(n)
        yield Graph(1, [(0, 0, 1)])
        yield Graph(2, [(0, 1, 1), (0, 1, 1), (1, 1, 1)])
        for _ in range(12):
            n = rng.randint(3, 70)
            yield random_connected(rng, n, rng.randint(n * n // 8, n * n // 3))  # dense
            yield random_connected(rng, n, rng.randint(0, n))  # sparse
            yield random_connected(rng, n, 0)  # a tree
            g = random_graph(rng, n, rng.randint(0, n * n // 3), directed=False, loops=True)
            edges = g.edges + rng.choices(g.edges, k=len(g.edges) // 3) if g.edges else []
            yield Graph(n, edges)  # parallel edges, self-loops, maybe disconnected
        for n in (3, 64, 65, 300):
            yield path_graph(n)
        yield complete_graph(30)
        # Deep trees, one level step per tail vertex; the roots include g.n - 1,
        # the far end of the tail.
        yield lollipop(40, 300)
        yield lollipop(60, 2000)

    def test_matches_reference(self):
        for g in self.corpus():
            for source in (g, parse_graph(format_graph(g))):  # parsed: arcs seeded
                sp = additive2_spanner(source)
                h, dominators = reference_spanner(g)
                assert sp.dominators == dominators
                assert sp.graph.edges == h.edges
                assert sp.graph.adj_out == h.adj_out
                if g.n:
                    ref = Graph(g.n, h.edges)
                    assert all(np.array_equal(a, b) for a, b in zip(sp.graph.arcs("out"), ref.arcs("out")))
                    got, want = _csr(sp.graph, "out"), _csr(ref, "out")
                    assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]

    def test_tree_parents_match_first_discovery(self):
        rng = Random(52)
        for g in self.corpus():
            for root in rng.sample(range(g.n), min(g.n, 3)) + ([g.n - 1] if g.n else []):
                want = np.full(g.n, -1)
                for v, u in list_bfs_parents(g, root).items():
                    want[v] = u
                assert np.array_equal(tree_parents(g, root), want)

    def test_trees_skip_their_last_level(self, monkeypatch):
        # On a connected graph every vertex has a parent once a tree's last
        # level is found, so each tree scans the arcs of its levels 0..D - 1
        # and never those of level D.
        frontiers, trees = [], []
        arcs = search_module._arcs

        def spy_arcs(indptr, degree, frontier):
            if sys._getframe(1).f_code.co_name == "_bfs_parents":
                frontiers.append(sorted(frontier.tolist()))
            return arcs(indptr, degree, frontier)

        def spy_tree(g, root):
            start = len(frontiers)
            parent = tree_parents(g, root)
            trees.append((root, frontiers[start:]))
            return parent

        monkeypatch.setattr(search_module, "_arcs", spy_arcs)
        monkeypatch.setattr(dense_module, "_bfs_parents", spy_tree)
        g = random_connected(Random(53), 240, 240 * 240 // 8)
        sp = additive2_spanner(g)
        assert sp.dominators and [root for root, _ in trees] == sp.dominators
        for root, scanned in trees:
            row = bellman_ford(g, root)
            assert scanned == [[v for v in range(g.n) if row[v] == d] for d in range(max(row))]


class TestSpanner:
    def test_tree_kept_whole(self):
        rng = Random(42)
        g = random_connected(rng, 25, 0)
        h = additive2_spanner(g).graph
        assert sorted((min(u, v), max(u, v)) for u, v, _ in h.edges) == \
               sorted((min(u, v), max(u, v)) for u, v, _ in g.edges)

    def test_complete_graph(self):
        g = complete_graph(25)
        sp = additive2_spanner(g)
        assert sp.graph.m <= 8 * 25 ** 1.5 * math.log(25)
        assert apsp_matrix(sp.graph).max() <= 3

    def test_additive_two_random(self):
        rng = Random(43)
        for _ in range(20):
            n = rng.randint(2, 55)
            g = random_connected(rng, n, rng.randint(0, n * n // 4))
            h = additive2_spanner(g).graph
            assert np.all(apsp_matrix(h) <= apsp_matrix(g) + 2)
            assert h.m <= 8 * n ** 1.5 * max(math.log(n), 1)


def sentinel_cluster_matrix(g: Graph, cd: CenterData) -> np.ndarray:
    """``_cluster_matrix`` as it was with the n sentinel and a second n x n
    fallback matrix, verbatim."""
    n = g.n
    M = np.full((n, n), n, dtype=np.int64)
    for w in range(n):
        members = cd.clusters[w]
        if len(members) < 2:
            continue
        idx = np.fromiter((v for v, _ in members), dtype=np.int64, count=len(members))
        dv = np.fromiter((d for _, d in members), dtype=np.int64, count=len(members))
        block = dv[:, None] + dv[None, :]
        sub = np.ix_(idx, idx)
        M[sub] = np.minimum(M[sub], block)
    dA = np.asarray(cd.dist, dtype=np.int64)
    fallback = dA[:, None] + dA[None, :] - 1
    unset = M == n
    M[unset] = fallback[unset]
    np.fill_diagonal(M, 0)
    return M


class TestClusterMatrix:
    def test_matches_sentinel_construction(self):
        cases = list(enumerate(center_corpus(107))) + [(0, band_graph(800, D)) for D in (10, 40)]
        blocks = 0
        for seed, g in cases:
            for p in (0.5, 0.25, 1 / math.ceil(math.sqrt(g.n))):
                cd = tz_center(g, p, seed)
                M = _cluster_matrix(cd)
                assert M.dtype == np.int32
                assert np.array_equal(M, sentinel_cluster_matrix(g, cd)), (seed, g.n, p)
                blocks += sum(len(c) >= 2 for c in cd.clusters)
        assert blocks > 0

    def test_peak_is_one_int32_matrix(self):
        g = random_connected(Random(0), 600, 600 * 600 // 8)
        cd = tz_center(g, 1 / math.sqrt(g.n), 0)
        tracemalloc.start()
        try:
            _cluster_matrix(cd)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The sentinel construction peaked at about 25 n^2 bytes.
        assert peak <= 4.5 * g.n ** 2

    def test_intersecting_bunches_give_exact_distance(self):
        rng = Random(44)
        for trial in range(12):
            n = rng.randint(4, 50)
            g = random_connected(rng, n, rng.randint(0, 2 * n))
            cd = tz_center(g, 1 / math.sqrt(n), seed=trial)
            M = _cluster_matrix(cd)
            D = apsp_matrix(g)
            bunch_sets = [frozenset(u for u, _ in cd.bunches[v]) for v in range(n)]
            for u in range(n):
                for v in range(u + 1, n):
                    if bunch_sets[u] & bunch_sets[v]:
                        assert M[u, v] == D[u, v]
                    else:
                        assert cd.dist[u] + cd.dist[v] - 1 <= D[u, v]
                        assert M[u, v] <= D[u, v]

    def test_no_entry_exceeds_distance(self):
        rng = Random(45)
        g = random_connected(rng, 40, 60)
        cd = tz_center(g, 0.2, seed=1)
        M = _cluster_matrix(cd)
        D = apsp_matrix(g)
        assert (M <= D).all()


class TestDenseDiameter:
    def test_path_ten(self):
        est = diam_dense_32(path_graph(10), seed=0)
        assert 5 <= est <= 9  # D = 9 = 3*3 + 0 so the floor is 2h - 1 = 5

    def test_complete_graph(self):
        est = diam_dense_32(complete_graph(12), seed=0)
        assert 0 <= est <= 1

    def test_bound_random(self):
        rng = Random(46)
        for trial in range(30):
            n = rng.randint(2, 70)
            g = random_connected(rng, n, rng.randint(0, 3 * n))
            D = exact_diameter(g)
            h, z = divmod(D, 3)
            floor = 2 * h - 1 if z in (0, 1) else 2 * h
            est = diam_dense_32(g, seed=trial)
            assert floor <= est <= D


class TestDenseEccentricities:
    def test_path_eleven_endpoint(self):
        est = ecc_dense_53(path_graph(11), seed=0)
        assert 5 <= est.values[0] <= 10

    def test_complete_graph_upper(self):
        g = complete_graph(10)
        est = ecc_dense_53(g, seed=0)
        ecc = exact_eccentricities(g)
        assert all(est.values[v] <= ecc[v] for v in range(10))

    def test_bound_random(self):
        rng = Random(47)
        for trial in range(30):
            n = rng.randint(2, 70)
            g = random_connected(rng, n, rng.randint(0, 3 * n))
            ecc = exact_eccentricities(g)
            est = ecc_dense_53(g, seed=trial)
            for u in range(n):
                assert 5 * est.values[u] >= 3 * ecc[u] - 5
                assert est.values[u] <= ecc[u]


class TestDenseInputCheck:
    @pytest.mark.parametrize("estimator", [diam_dense_32, ecc_dense_53])
    def test_checked_once_under_the_callers_name(self, estimator, monkeypatch):
        calls = []
        monkeypatch.setattr(dense_module, "is_connected",
                            lambda g: calls.append(g) or is_connected(g))
        estimator(random_connected(Random(48), 30, 60), seed=0)
        assert len(calls) == 1
        name = estimator.__name__
        for bad, reason in ((Graph(3, [(0, 1, 1), (1, 2, 1)], directed=True), "an undirected"),
                            (Graph(3, [(0, 1, 2), (1, 2, 2)]), "unit weights"),
                            (Graph(3, [(0, 1, 1)]), "a connected")):
            with pytest.raises(ValueError, match=f"^{name} requires {reason}"):
                estimator(bad, seed=0)

    @pytest.mark.parametrize("estimator", [diam_dense_32, ecc_dense_53])
    def test_tiny_graphs(self, estimator):
        for g in (Graph(0), Graph(1), Graph(1, [(0, 0, 1)])):
            est = estimator(g, seed=0)
            assert (est if isinstance(est, int) else est.values) in (0, [0] * g.n)
        for bad in (Graph(1, directed=True), Graph(1, [(0, 0, 2)])):
            with pytest.raises(ValueError, match=f"^{estimator.__name__} requires"):
                estimator(bad, seed=0)


@st.composite
def connected_unit_graphs(draw):
    """``random_connected`` on n <= 40 vertices with up to n^2/4 extra edges."""
    n = draw(st.integers(1, 40))
    extra = draw(st.integers(0, n * n // 4))
    return random_connected(Random(draw(st.integers(0, 2**32))), n, extra)


class TestAgainstNetworkx:
    """Both guarantees against networkx's eccentricities, a third oracle."""

    @settings(max_examples=40, deadline=None)
    @given(g=connected_unit_graphs(), seed=st.integers(0, 2**16))
    def test_guarantees(self, g, seed):
        nx = pytest.importorskip("networkx")
        nxg = nx.empty_graph(g.n)
        nxg.add_edges_from((u, v) for u, v, _ in g.edges)
        ecc = nx.eccentricity(nxg)
        for u, est in enumerate(ecc_dense_53(g, seed).values):
            assert est <= ecc[u] and 5 * (est + 1) >= 3 * ecc[u]
        D = max(ecc.values())
        h, z = divmod(D, 3)
        floor = 2 * h - 1 if z in (0, 1) else 2 * h
        assert floor <= diam_dense_32(g, seed) <= D


class TestDenseScale:
    """n = 800 with D = 5: the ceil(sqrt(n)) = 29 closest vertices that each
    bunch is drawn from are a small fraction of V, so the hitting-set
    argument is exercised."""

    def test_n800_against_floyd_warshall(self):
        g = random_connected(Random(7), 800, 4 * 800)
        ecc = apsp_matrix(g).max(axis=1)
        D = int(ecc.max())
        assert D == 5
        h, z = divmod(D, 3)
        floor = 2 * h - 1 if z in (0, 1) else 2 * h
        assert floor <= diam_dense_32(g, seed=0) <= D
        est = np.array(ecc_dense_53(g, seed=0).values)
        assert (est <= ecc).all()
        assert (5 * (est + 1) >= 3 * ecc).all()


class TestDenseBand:
    """n = 800 on the band family (conftest.band_graph): m = n^2 / D or so,
    and diameter D, where random dense graphs have diameter 2."""

    @pytest.mark.parametrize("D", [10, 40])
    def test_factors_against_scipy(self, D):
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import shortest_path

        g = band_graph(800, D)
        u, v, _ = g.columns
        adj = csr_matrix((np.ones(g.m), (u, v)), shape=(g.n, g.n))
        ecc = shortest_path(adj, directed=False, unweighted=True).max(axis=1)
        assert int(ecc.max()) == D
        h, z = divmod(D, 3)
        floor = 2 * h - 1 if z in (0, 1) else 2 * h
        assert floor <= diam_dense_32(g, seed=0) <= D
        est = np.array(ecc_dense_53(g, seed=0).values)
        assert (est <= ecc).all()
        assert (5 * (est + 1) >= 3 * ecc).all()

    def test_builds_clusters_of_several_members(self):
        # The dense estimators' centers at D = 40 leave clusters of two or
        # more members, so _cluster_matrix writes blocks (at D = 10 none).
        g = band_graph(800, 40)
        cd = tz_center(g, 1 / math.sqrt(g.n), seed=0)
        check_center_invariants(g, cd)
        assert sum(len(c) >= 2 for c in cd.clusters) > 0


class TestSpannerBuildsNoLists:
    def test_diam_dense_32_reads_only_arrays_on_its_spanner(self, monkeypatch):
        spanners = []

        def spy(*args, **kwargs):
            spanners.append(additive2_spanner(*args, **kwargs))
            return spanners[-1]

        monkeypatch.setattr(dense_module, "additive2_spanner", spy)
        g = random_connected(Random(8), 300, 300 * 300 // 8)
        diam_dense_32(g, seed=0)
        h = spanners[0].graph
        # Its searches built the arc view, and no list view.
        assert h.m < g.m and "out" not in h._views

    def test_spanner_compose_builds_no_lists_of_g(self):
        g = parse_graph(format_graph(random_connected(Random(0), 240, 240 * 240 // 8)))
        assert approx_on_spanner(g, diam_linear_lessthan2) >= 0
        assert "out" not in g._views


# The per-center searches that tz_center, diam_dense_32 and ecc_dense_53
# ran before they were built on nearest, eccentricities, max_distances and
# multi_source_distance, kept as written then: a heap search for the
# nearest centers, one list BFS per center, and e2-e5 read off the rows.
UNREACHABLE = math.inf


def _bfs(adj, n, sources):
    dist = [UNREACHABLE] * n
    queue = deque()
    for s in sources:
        if dist[s] == UNREACHABLE:
            dist[s] = 0
            queue.append(s)
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v, _ in adj[u]:
            if dist[v] == UNREACHABLE:
                dist[v] = du + 1
                queue.append(v)
    return dist


def _nearest_centers(g: Graph, centers):
    """d(v, A) and the lexicographically smallest nearest center per vertex."""
    dist = [math.inf] * g.n
    pivot = [-1] * g.n
    heap = [(0, a, a) for a in sorted(centers)]
    heapq.heapify(heap)
    while heap:
        d, src, v = heapq.heappop(heap)
        if pivot[v] != -1:
            continue
        dist[v] = d
        pivot[v] = src
        for u, w in g.adj_out[v]:
            if pivot[u] == -1:
                heapq.heappush(heap, (d + w, src, u))
    return dist, pivot


def _bfs_parents(g: Graph, root: int, radius=math.inf) -> dict:
    """BFS-tree parent of every vertex within ``radius`` of root.

    Each vertex maps to the vertex that first discovered it, scanning
    levels in discovery order; root maps to itself.  Vertices at distance
    ``radius`` are reached but not expanded.  This is ``dense``'s helper as
    it was while ecc_dense_53 still grew the spanner by bunch trees.
    """
    parent = {root: root}
    level = [root]
    while level and radius > 0:
        nxt = []
        for x in level:
            for v, _ in g.adj_out[x]:
                if v not in parent:
                    parent[v] = x
                    nxt.append(v)
        level = nxt
        radius -= 1
    return parent


def reference_diam_dense_32(g, cd, seed):
    n = g.n
    h = additive2_spanner(g).graph
    d2 = max(max(_bfs(h.adj_out, n, (a,))) for a in cd.centers)
    return max(int(_cluster_matrix(cd).max()), d2 - 2)


def reference_ecc_dense_53(g, cd, seed):
    """The estimates, and the number of distinct center eccentricities."""
    n = g.n
    M = _cluster_matrix(cd)
    spanner = additive2_spanner(g)

    aug = {(u, v) if u <= v else (v, u) for u, v, _ in spanner.graph.edges}
    for u in range(n):
        parent = _bfs_parents(g, u, cd.dist[u])
        for x in [v for v, _ in cd.bunches[u]] + [cd.pivot[u]]:
            if x != u:
                aug.add((x, parent[x]) if x <= parent[x] else (parent[x], x))
    h = Graph(n, [(u, v, 1) for u, v in sorted(aug)], directed=False)

    centers = cd.centers
    dist_h = {a: _bfs(h.adj_out, n, (a,)) for a in centers}
    ecc_h = {a: max(dist_h[a]) for a in centers}
    dist_g = {a: _bfs(g.adj_out, n, (a,)) for a in centers}
    ecc_g = {a: max(dist_g[a]) for a in centers}

    row_max = M.max(axis=1)
    values = []
    for u in range(n):
        p = cd.pivot[u]
        e2 = ecc_h[p] - cd.dist[u] - 2
        far = max(centers, key=lambda a: (dist_h[a][u], -a))
        e3 = dist_h[far][u] - 2
        e4 = max(dist_g[a][u] for a in centers)
        e5 = max(ecc_g[a] - dist_g[a][u] for a in centers)
        values.append(max(int(row_max[u]), e2, e3, e4, e5, 0))
    return values, len(set(ecc_g.values()))


def reference_tz_center(g: Graph, p: float, seed: int = 0, *, op: str = "tz_center"):
    """``tz_center`` as it was with one ``k_closest`` per vertex, verbatim."""
    _check_dense_input(g, op)
    if not 0 < p <= 1:
        raise ValueError(f"p must be in (0, 1], got {p}")
    n = g.n
    if n == 0:
        return CenterData([], p, seed, [], [], [], [])
    b = min(n, math.ceil(1 / p))
    # The b-closest neighborhoods; each round prunes them to the bunches.
    bunches = [k_closest(g, v, b, "out").items for v in range(n)]
    sizes = [len(items) for items in bunches]
    members = np.fromiter((u for items in bunches for u, _ in items), dtype=np.int64,
                          count=sum(sizes))
    centers = sorted(_greedy_hitting_set(np.arange(n).repeat(sizes), members, n))

    cap = 4.0 / p
    rng = Random(seed)
    while True:
        found = nearest(g, range(n), centers)
        dist = [d for _, d in found]
        bunches = [[(u, du) for u, du in bunches[v] if du < dist[v]] for v in range(n)]
        clusters = [[] for _ in range(n)]
        for v in range(n):
            for u, du in bunches[v]:
                clusters[u].append((v, du))
        oversized = [w for w in range(n) if len(clusters[w]) > cap]
        if not oversized:
            return CenterData(centers, p, seed, dist, [a for a, _ in found], bunches, clusters)
        drawn = []
        while not drawn:
            drawn = [w for w in oversized if rng.random() < p]
        centers = sorted(set(centers) | set(drawn))


class TestAgainstPerCenterSearches:
    """The batched reductions give the per-center searches' outputs exactly."""

    def corpus(self):
        rng = Random(50)
        for _ in range(30):
            n = rng.randint(2, 60)
            yield random_connected(rng, n, rng.randint(n * n // 8, n * n // 3))
        for _ in range(40):
            n = rng.randint(2, 90)
            yield random_connected(rng, n, rng.randint(0, n))
        for _ in range(25):
            yield random_connected(rng, rng.randint(2, 90), 0)
        for n in (2, 3, 4, 9, 16, 33, 64, 65, 100):
            yield path_graph(n)
        # The dense-tz benchmark's sizes.
        for n in (100, 170, 240):
            yield random_connected(rng, n, n * n // 8)

    def test_matches_reference(self):
        spread = []
        for seed, g in enumerate(self.corpus()):
            cd = tz_center(g, 1 / math.sqrt(g.n), seed)
            assert (cd.dist, cd.pivot) == _nearest_centers(g, cd.centers)
            assert diam_dense_32(g, seed) == reference_diam_dense_32(g, cd, seed)
            values, distinct = reference_ecc_dense_53(g, cd, seed)
            assert ecc_dense_53(g, seed).values == values
            spread.append(distinct)
        assert len(spread) >= 100
        # e5 groups the centers by eccentricity; some cases need 3 groups.
        assert sum(k >= 3 for k in spread) >= 10

    def test_centers_match_per_vertex_balls(self):
        # The batched balls and the array pruning give the per-vertex
        # k_closest builder's CenterData, field for field.
        for seed, g in enumerate(self.corpus()):
            for p in (1 / math.sqrt(g.n), 0.5, 0.15):
                assert tz_center(g, p, seed) == reference_tz_center(g, p, seed), (seed, p)


class TestOneHopPivots:
    """tz_center reads d(v, A) and the pivots off the balls when every ball
    lies within one hop, and asks nearest otherwise."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return nearest(*args, **kwargs)

        monkeypatch.setattr(dense_module, "nearest", spy)
        return calls

    def test_dense_graph_asks_no_nearest(self, calls):
        g = random_connected(Random(1), 90, 90 * 90 // 8)
        p = 1 / math.sqrt(g.n)
        cd = tz_center(g, p, 1)
        assert calls == []
        assert (cd.dist, cd.pivot) == _nearest_centers(g, cd.centers)
        assert cd == reference_tz_center(g, p, 1)

    def test_band_graph_still_asks_nearest(self, calls):
        # The band's end vertices have 20 neighbours, so their balls of 29
        # reach two hops.
        g = band_graph(800, 40)
        cd = tz_center(g, 1 / math.sqrt(g.n), 0)
        assert calls
        assert (cd.dist, cd.pivot) == _nearest_centers(g, cd.centers)

    @pytest.mark.parametrize("b", [3, 4, 6])
    def test_poor_start_resamples_oversized_clusters(self, calls, monkeypatch, b):
        # Pruning only drops ball members, so a cluster can exceed 4/p = 4b
        # only at a vertex in more than 4b balls, which the greedy start
        # picks first.  A band graph has none once its balls reach two
        # hops: its end vertices' balls must outgrow their k = (n - 1)/D
        # neighbours, and a vertex then lies in about b + k < 2b balls.
        # The star's hub lies in every leaf's ball, and a leaf's ball of
        # b >= 3 reaches the other leaves, two hops away, so a start of the
        # last leaf alone leaves the hub in 30 bunches, over 4b.
        def poor_start(owners, members, n):
            return [n - 1]

        monkeypatch.setattr(dense_module, "_greedy_hitting_set", poor_start)
        monkeypatch.setitem(globals(), "_greedy_hitting_set", poor_start)
        g = star_graph(30)
        cd = tz_center(g, 1 / b, seed=b)
        assert len(calls) > 1 and 0 in cd.centers
        assert all(len(cluster) <= 4 * b for cluster in cd.clusters)
        assert cd == reference_tz_center(g, 1 / b, seed=b)


class TestSpannerComposition:
    def test_exact_inner_on_path(self):
        g = path_graph(8)
        value = approx_on_spanner(g, exact_diameter)
        assert value == 5  # spanner of a path is the path; 7 - 2

    def test_st3_inner(self):
        rng = Random(48)
        for trial in range(10):
            n = rng.randint(3, 40)
            g = random_connected(rng, n, rng.randint(0, 2 * n))
            D = exact_diameter(g)

            def inner(h):
                return st_3approx(STInstance(h, range(h.n), range(h.n)))[0]

            value = approx_on_spanner(g, inner)
            assert value <= D
            assert 3 * value >= D - 6  # D/3 - 2 <= value

    def test_folklore_inner(self):
        rng = Random(49)
        for trial in range(10):
            n = rng.randint(2, 40)
            g = random_connected(rng, n, rng.randint(0, 2 * n))
            D = exact_diameter(g)
            value = approx_on_spanner(g, diam_folklore_2approx)
            assert value <= D
            assert 2 * value >= D - 4  # D/2 - 2 <= value
