"""Shared corpus generators and independent reference oracles.

The generators are all seeded and deterministic.  The oracles here are
deliberately naive (edge-relaxation loops, exhaustive enumeration) so the
package's search code is checked against independent implementations.
"""

from __future__ import annotations

import math
from functools import lru_cache
from random import Random

from diamecc import Graph


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
