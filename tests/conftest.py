"""Shared corpus generators and independent reference oracles.

The generators are all seeded and deterministic.  The oracles here are
deliberately naive (edge-relaxation loops, exhaustive enumeration) so the
package's search code is checked against independent implementations.
"""

from __future__ import annotations

import math
from functools import lru_cache
from random import Random

from diamecc import Graph, degree3_blowup, sssp
from diamecc.eccen import _sqrt_sample_size, ceil_sqrt


def random_graph(rng: Random, n: int, m: int, directed: bool, max_w: int = 1,
                 min_w: int | None = None, loops: bool = False) -> Graph:
    """Arbitrary (possibly disconnected) graph from m random arcs.

    Weights are uniform in [min_w, max_w].  Without min_w they start at 1,
    and max_w = 0 then means weights 0 or 1.  Self-loops are dropped unless
    ``loops`` is set.
    """
    if min_w is None:
        min_w, max_w = (0, 1) if max_w == 0 else (1, max_w)
    edges = []
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v and not loops:
            continue
        edges.append((u, v, rng.randint(min_w, max_w)))
    return Graph(n, edges, directed=directed)


def random_strongly_connected(rng: Random, n: int, extra: int, max_w: int = 1) -> Graph:
    """Random digraph forced strongly connected via a hidden cycle."""
    perm = rng.sample(range(n), n)
    edges = [(perm[i], perm[(i + 1) % n], rng.randint(1, max_w)) for i in range(n)]
    if n == 1:
        edges = []
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v, rng.randint(1, max_w)))
    return Graph(n, edges, directed=True)


def random_connected(rng: Random, n: int, extra: int, max_w: int = 1) -> Graph:
    """Random connected undirected graph: spanning tree plus extras."""
    edges = [(i, rng.randrange(i), rng.randint(1, max_w)) for i in range(1, n)]
    seen = {(min(u, v), max(u, v)) for u, v, _ in edges}
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        key = (min(u, v), max(u, v))
        if u != v and key not in seen:
            seen.add(key)
            edges.append((u, v, rng.randint(1, max_w)))
    return Graph(n, edges, directed=False)


def random_tree(rng: Random, n: int) -> Graph:
    return random_connected(rng, n, 0)


def path_graph(n: int, weights=None, directed: bool = False) -> Graph:
    ws = weights if weights is not None else [1] * (n - 1)
    return Graph(n, [(i, i + 1, ws[i]) for i in range(n - 1)], directed=directed)


def cycle_graph(n: int, directed: bool = False) -> Graph:
    return Graph(n, [(i, (i + 1) % n, 1) for i in range(n)], directed=directed)


def complete_graph(n: int, directed: bool = False) -> Graph:
    if directed:
        edges = [(u, v, 1) for u in range(n) for v in range(n) if u != v]
    else:
        edges = [(u, v, 1) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, edges, directed=directed)


def band_graph(n: int, D: int) -> Graph:
    """The path power on n vertices: i ~ j when 0 < |i - j| <= ceil((n - 1) / D).

    Dense, with about n^2 / D edges, and still of diameter D.
    """
    k = -(-(n - 1) // D)
    return Graph(n, [(i, j, 1) for i in range(n) for j in range(i + 1, min(n, i + k + 1))])


def center_corpus(seed: int) -> list:
    """50 connected graphs, 4 to 200 vertices and up to 3n random edges."""
    rng = Random(seed)
    corpus = []
    for _ in range(50):
        n = rng.randint(4, 200)
        corpus.append(random_connected(rng, n, rng.randint(0, 3 * n)))
    return corpus


def star_graph(n_leaves: int) -> Graph:
    return Graph(n_leaves + 1, [(0, i, 1) for i in range(1, n_leaves + 1)])


@lru_cache(maxsize=4)
def _arc_lists(g: Graph, direction: str) -> list:
    """Per-vertex (head, weight) lists built from ``g.edges`` alone."""
    arcs = [[] for _ in range(g.n)]
    for u, v, w in g.edges:
        if direction == "in":
            u, v = v, u
        arcs[u].append((v, w))
        if not g.directed:
            arcs[v].append((u, w))
    return arcs


def bellman_ford(g: Graph, source: int, direction: str = "out") -> list:
    """Relaxation oracle, independent of the package's searches.

    Bellman-Ford in rounds over arc lists built from ``g.edges``; each
    round relaxes only the arcs of the vertices whose distance dropped in
    the round before, so it stops after at most n - 1 rounds.
    """
    arcs = _arc_lists(g, direction)
    dist = [math.inf] * g.n
    dist[source] = 0
    changed = {source}
    for _ in range(max(g.n - 1, 0)):
        dropped = set()
        for u in changed:
            du = dist[u]
            for v, w in arcs[u]:
                if du + w < dist[v]:
                    dist[v] = du + w
                    dropped.add(v)
        if not dropped:
            break
        changed = dropped
    return dist


def reference_st_sweep(inst, mode: str, seeds) -> list:
    """The S-T 2-approximation sweep with one list search per vertex, per seed.

    ``mode`` is "sqrt" (st_2approx_sqrt), "true" (st_2approx_true, run on
    the degree3_blowup graph itself), "weighted" or "weighted-true"
    (st_2approx_weighted).  Every sample vertex x, its nearest t_x in T,
    the vertex t_bar of T farthest from the sample, every vertex y of
    t_bar's neighbourhood and its nearest s_y in S get a full search of
    their own, and the neighbourhood comes from sorting t_bar's row.  The
    seeds share the searches.
    """
    g, S, T = inst.graph, list(inst.S), list(inst.T)
    extend = mode in ("true", "weighted-true")
    if mode == "true":
        g, bmap = degree3_blowup(g)
        S = sorted(bmap.rep[s] for s in S)
        T = sorted(bmap.rep[t] for t in T)
    n = g.n
    z = ceil_sqrt(max(g.m, 1)) if extend else ceil_sqrt(n)
    rows = {}

    def dist_from(v):
        if v not in rows:
            rows[v] = sssp(g, v)
        return rows[v]

    out = []
    for seed in seeds:
        d1 = 0
        min_from_x = [math.inf] * n
        for x in sorted(Random(seed).sample(range(n), _sqrt_sample_size(n))):
            dx = dist_from(x)
            min_from_x = list(map(min, min_from_x, dx))
            t_x = min(T, key=lambda t: (dx[t], t))
            d1 = max(d1, max(dist_from(t_x)[s] for s in S))
        t_bar = max(T, key=lambda t: (min_from_x[t], -t))
        d2 = max(dist_from(t_bar)[s] for s in S)
        row = dist_from(t_bar)
        near = sorted((v for v in range(n) if row[v] < math.inf), key=lambda v: (row[v], v))
        near = set(near[:min(n, z)])
        if extend:
            near |= {u for y in near for u, w in g.adj_out[y] if w > 0}
        for y in near:
            dy = dist_from(y)
            s_y = min(S, key=lambda s: (dy[s], s))
            d2 = max(d2, max(dist_from(s_y)[t] for t in T))
        out.append(max(d1, d2))
    return out


def ov_brute_force_by_coordinates(vectors) -> bool:
    """Independent k-OV check: intersect the coordinate supports.

    A tuple is orthogonal iff no coordinate is 1 in all its members, i.e.
    the intersection of the chosen vectors' support sets is empty.
    Returns True iff some orthogonal tuple exists.
    """
    from itertools import product

    supports = [[frozenset(c for c, bit in enumerate(vec) if bit) for vec in group]
                for group in vectors]
    for choice in product(*supports):
        common = choice[0]
        for s in choice[1:]:
            common = common & s
            if not common:
                break
        if not common:
            return True
    return False
