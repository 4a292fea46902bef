"""Shortest-path searches, exact distance oracles, and the degree-3 blow-up.

Which kernel runs follows the weight class of the graph:

* single and multi-source searches (sssp, multi_source_distance and
  everything built on them): plain BFS when every weight is 1, a
  deque-based 0/1 search when weights are 0 or 1 (the blow-up gadget needs
  0-weight edges without a heap), and binary-heap Dijkstra otherwise.
  These walk the Python adjacency lists, one arc at a time.
* many independent searches (eccentricities, max_distances, and through
  them the exact oracles and the estimators' probe loops): on unit
  weights, a bit-parallel BFS runs up to 64 sources in one
  level-synchronous pass over int64 CSR arrays, with bit i of a uint64
  word per vertex standing for source i.  A pass costs the arcs of its
  frontiers, in numpy, plus a fixed numpy overhead per distance level, so
  each vertex's arcs are scanned once per level at which some new source
  reaches it, not once per source.  Deep graphs with small levels (paths,
  long cycles, small sparse graphs) are the slow case: there the per-level
  overhead dominates, and a pass can take about twice as long as 64
  list-based BFS runs.  Other weight classes run one search per source
  through the kernels above.

All tie-breaking is by (distance, vertex id) ascending, so every operation
here is deterministic.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np

from .graph import UNREACHABLE, DistanceArray, Graph, Neighborhood

# Sources per batched search: one bit each in a uint64 word per vertex.
_WORD = np.iinfo(np.uint64).bits


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


def _zero_one_bfs(adj, n, sources):
    dist = [UNREACHABLE] * n
    queue = deque()
    for s in sources:
        dist[s] = 0
        queue.append(s)
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v, w in adj[u]:
            nd = du + w
            if nd < dist[v]:
                dist[v] = nd
                if w == 0:
                    queue.appendleft(v)
                else:
                    queue.append(v)
    return dist


def _dijkstra(adj, n, sources):
    dist = [UNREACHABLE] * n
    heap = []
    for s in sources:
        if dist[s] == UNREACHABLE:
            dist[s] = 0
            heap.append((0, s))
    heapq.heapify(heap)
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        for v, w in adj[u]:
            nd = du + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def _distances(g: Graph, sources, direction: str):
    adj = g.adjacency(direction)
    if g.unit_weights:
        return _bfs(adj, g.n, sources)
    if g.zero_one_weights:
        return _zero_one_bfs(adj, g.n, sources)
    return _dijkstra(adj, g.n, sources)


def _csr(g: Graph, direction: str):
    """(indptr, degree, heads) int64 arrays of one adjacency, built on first use.

    Undirected graphs keep one copy for both directions, since their
    reverse adjacency equals the forward one.
    """
    adj = g.adjacency(direction)
    key = direction if g.directed else "out"
    csr = g._csr.get(key)
    if csr is None:
        degree = np.fromiter(map(len, adj), dtype=np.int64, count=g.n)
        indptr = np.zeros(g.n + 1, dtype=np.int64)
        np.cumsum(degree, out=indptr[1:])
        heads = np.fromiter((v for row in adj for v, _ in row), dtype=np.int64,
                            count=int(indptr[-1]))
        csr = g._csr[key] = (indptr, degree, heads)
    return csr


def _bfs_bits(g: Graph, sources, direction: str):
    """Level-synchronous BFS from up to 64 sources at once (unit weights).

    Bit i of a vertex's uint64 word stands for ``sources[i]``, so each arc
    scan advances every search.  For d = 0, 1, ... yields the vertices that
    some source first reaches at distance d, and the bits that do so.
    """
    indptr, degree, heads = _csr(g, direction)
    reached = np.zeros(g.n, dtype=np.uint64)
    np.bitwise_or.at(reached, np.asarray(sources, dtype=np.int64),
                     np.left_shift(np.uint64(1), np.arange(len(sources), dtype=np.uint64)))
    unseen = ~reached
    while True:
        frontier = (reached != 0).nonzero()[0]
        if not frontier.size:
            return
        bits = reached[frontier]
        yield frontier, bits
        counts = degree[frontier]
        ends = counts.cumsum()
        arcs = np.arange(ends[-1])
        arcs += (indptr[frontier] - ends + counts).repeat(counts)
        reached = np.zeros(g.n, dtype=np.uint64)
        np.bitwise_or.at(reached, heads[arcs], bits.repeat(counts))
        reached &= unseen
        unseen ^= reached


def _source_set(g: Graph, sources) -> list:
    """Sorted distinct source ids; ValueError when empty or out of range."""
    srcs = sorted(set(sources))
    if not srcs:
        raise ValueError("source set must be nonempty")
    if srcs[0] < 0 or srcs[-1] >= g.n:
        raise ValueError("source id out of range")
    return srcs


def eccentricities(g: Graph, sources, direction: str = "out") -> list:
    """Exact eccentricity of each listed source, in the order given.

    Entry i is max over v of d(sources[i], v) ("out") or d(v, sources[i])
    ("in"), and UNREACHABLE when some v is unreachable.
    """
    srcs = list(sources)
    if srcs and (min(srcs) < 0 or max(srcs) >= g.n):
        raise ValueError("source id out of range")
    if not g.unit_weights:
        return [max(_distances(g, (s,), direction)) for s in srcs]
    out = []
    for lo in range(0, len(srcs), _WORD):
        batch = srcs[lo:lo + _WORD]
        seen = np.zeros(g.n, dtype=np.uint64)
        words = []  # words[d]: the bits that reach some vertex first at d
        for frontier, bits in _bfs_bits(g, batch, direction):
            seen[frontier] |= bits
            words.append(int(np.bitwise_or.reduce(bits)))
        ecc = [UNREACHABLE] * len(batch)
        todo = int(np.bitwise_and.reduce(seen))  # sources that reach every vertex
        for d in range(len(words) - 1, -1, -1):
            hit = words[d] & todo
            todo ^= hit
            while hit:
                ecc[(hit & -hit).bit_length() - 1] = d
                hit &= hit - 1
        out.extend(ecc)
    return out


def max_distances(g: Graph, sources, direction: str = "out") -> list:
    """Per vertex v, the max over s in sources of d(s, v) ("out") or d(v, s) ("in").

    An entry is UNREACHABLE when some source and v are not connected that way.
    """
    srcs = _source_set(g, sources)
    if not g.unit_weights:
        far = [0] * g.n
        for s in srcs:
            far = list(map(max, far, _distances(g, (s,), direction)))
        return far
    far = np.zeros(g.n, dtype=np.int64)
    missed = np.zeros(g.n, dtype=bool)
    for lo in range(0, len(srcs), _WORD):
        batch = srcs[lo:lo + _WORD]
        seen = np.zeros(g.n, dtype=np.uint64)
        last = np.zeros(g.n, dtype=np.int64)  # the level that last reached v
        for d, (frontier, bits) in enumerate(_bfs_bits(g, batch, direction)):
            seen[frontier] |= bits
            last[frontier] = d
        np.maximum(far, last, out=far)
        missed |= seen != np.uint64((1 << len(batch)) - 1)
    return [UNREACHABLE if m else d for d, m in zip(far.tolist(), missed.tolist())]


def sssp(g: Graph, source: int, direction: str = "out") -> DistanceArray:
    """Exact single-source shortest paths.

    ``direction="out"`` gives d(source, v); ``"in"`` gives d(v, source).
    Unreachable vertices get the UNREACHABLE sentinel.
    """
    if not 0 <= source < g.n:
        raise ValueError(f"source {source} out of range")
    return DistanceArray(_distances(g, (source,), direction), source, direction)


def multi_source_distance(g: Graph, sources, direction: str = "out") -> DistanceArray:
    """dist[v] = min over s in sources of d(s, v) (out) or d(v, s) (in)."""
    srcs = _source_set(g, sources)
    return DistanceArray(_distances(g, srcs, direction), tuple(srcs), direction)


def _k_closest_levels(adj, v, s):
    """Unit weights: whole BFS levels, each sorted by id, cut at s vertices."""
    items = [(v, 0)]
    seen = {v}
    level = [v]
    d = 0
    while level and len(items) < s:
        d += 1
        nxt = []
        for u in level:
            for x, _ in adj[u]:
                if x not in seen:
                    seen.add(x)
                    nxt.append(x)
        nxt.sort()
        items.extend((x, d) for x in nxt[:s - len(items)])
        level = nxt
    return items


def k_closest(g: Graph, v: int, s: int, direction: str = "out") -> Neighborhood:
    """The s closest vertices to v under (distance, id) order.

    Fewer than s come back when fewer are reachable.  The search is
    truncated, and the rule follows the weight class, like sssp's kernel:

    * unit weights: a level-synchronous BFS.  It expands whole distance
      levels until they hold s vertices, sorts each level by id and cuts
      the last one to fit.  It scans the arcs of every level before the
      last one and never those of the last level.
    * any other weights (including 0-weight edges): a heap search that
      settles vertices in nondecreasing distance and stops once the s-th
      closest vertex's distance level is exhausted.  It scans the arcs of
      every settled vertex, the whole last level included, which keeps
      the (distance, id) order exact even with 0-weight edges.
    """
    if not 1 <= s <= g.n:
        raise ValueError(f"s must be in [1, {g.n}], got {s}")
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    adj = g.adjacency(direction)
    if g.unit_weights:
        return Neighborhood(v, direction, _k_closest_levels(adj, v, s))
    tentative = {v: 0}
    heap = [(0, v)]
    settled = {}
    last_level = None
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        if len(settled) >= s and d > last_level:
            break
        settled[u] = d
        last_level = d
        for x, w in adj[u]:
            nd = d + w
            if x not in settled and nd < tentative.get(x, UNREACHABLE):
                tentative[x] = nd
                heapq.heappush(heap, (nd, x))
    items = sorted(((d, u) for u, d in settled.items()))[:s]
    return Neighborhood(v, direction, [(u, d) for d, u in items])


def eccentricity(g: Graph, v: int, direction: str = "out"):
    """max over u of d(v, u) (out) or d(u, v) (in); UNREACHABLE if any is."""
    return max(sssp(g, v, direction).dist, default=0)


def exact_eccentricities(g: Graph, direction: str = "out") -> list:
    """Exact per-vertex eccentricities (see eccentricities)."""
    return eccentricities(g, range(g.n), direction)


def exact_diameter(g: Graph):
    """Largest eccentricity; UNREACHABLE when some pair is unreachable."""
    if g.n == 0:
        return 0
    return max(exact_eccentricities(g, "out"))


def exact_radius(g: Graph):
    """Smallest out-eccentricity (Source Radius for directed graphs)."""
    if g.n == 0:
        return 0
    return min(exact_eccentricities(g, "out"))


def exact_st_diameter(g: Graph, S, T):
    """max over s in S, t in T of d(s, t), by exact searches from S."""
    S = sorted(set(S))
    T = sorted(set(T))
    if not S or not T:
        raise ValueError("S and T must be nonempty")
    far = max_distances(g, S, "out")
    return max(far[t] for t in T)


def apsp_matrix(g: Graph) -> np.ndarray:
    """All-pairs distances by Floyd-Warshall relaxation on a dense matrix.

    Reference oracle, deliberately independent of the BFS/Dijkstra code
    paths above.  Entry [u, v] is d(u, v); unreachable pairs get np.inf.
    """
    n = g.n
    D = np.full((n, n), np.inf)
    if n == 0:
        return D
    np.fill_diagonal(D, 0.0)
    for u, v, w in g.edges:
        if w < D[u, v]:
            D[u, v] = w
        if not g.directed and w < D[v, u]:
            D[v, u] = w
    for k in range(n):
        np.minimum(D, D[:, k, None] + D[None, k, :], out=D)
    return D


def is_connected(g: Graph) -> bool:
    """Undirected connectivity (ignores arc directions for directed input)."""
    if g.n <= 1:
        return True
    seen = [False] * g.n
    seen[0] = True
    stack = [0]
    while stack:
        u = stack.pop()
        for v, _ in g.adj_out[u]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
        for v, _ in g.adj_in[u]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return all(seen)


def is_strongly_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    for direction in ("out", "in"):
        dist = _distances(g, (0,), direction)
        if any(d == UNREACHABLE for d in dist):
            return False
    return True


@dataclass
class BlowupMap:
    """Vertex bookkeeping for degree3_blowup.

    ``rep[v]`` is the representative node of original vertex v; distances
    between representatives equal original distances.  ``port[(v, e)]`` is
    the cycle node of v that carries original edge index e.
    """

    rep: list
    port: dict
    original_n: int


def degree3_blowup(g: Graph):
    """Replace each vertex of degree >= 3 by a cycle of 0-weight edges.

    Each cycle node carries exactly one original incident edge at its
    original weight, so every node of the result has degree <= 3 and all
    pairwise distances between representatives are preserved.  Vertices of
    degree <= 2 are kept as single nodes.
    """
    if g.directed:
        raise ValueError("degree3_blowup requires an undirected graph")
    incident = [[] for _ in range(g.n)]
    for e, (u, v, _) in enumerate(g.edges):
        if u == v:
            raise ValueError("self-loops are not supported by degree3_blowup")
        incident[u].append(e)
        incident[v].append(e)

    rep = [0] * g.n
    port = {}
    new_edges = []
    next_id = 0
    for v in range(g.n):
        deg = len(incident[v])
        if deg <= 2:
            rep[v] = next_id
            for e in incident[v]:
                port[(v, e)] = next_id
            next_id += 1
        else:
            base = next_id
            rep[v] = base
            for i, e in enumerate(incident[v]):
                port[(v, e)] = base + i
            for i in range(deg):
                new_edges.append((base + i, base + (i + 1) % deg, 0))
            next_id += deg
    for e, (u, v, w) in enumerate(g.edges):
        new_edges.append((port[(u, e)], port[(v, e)], w))
    return Graph(next_id, new_edges, directed=False), BlowupMap(rep, port, g.n)
