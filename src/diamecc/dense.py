"""Dense-graph machinery: bounded clusters, additive-2 spanner, and the
near-quadratic diameter / eccentricity estimators built on them.

The center computation returns a set A such that every bunch
B(v) = {u : d(v,u) < d(v,A)} has at most ceil(1/p) members and every
cluster C(w) = {v : w in B(v)} has at most 4/p members.  Pairs sharing a
cluster get their exact distance; pairs with disjoint bunches get the
certified lower bound d(u,A) + d(v,A) - 1.  For the diameter a spanner
sweep covers the remaining slack; for the eccentricities exact searches
from A do, and no spanner is built.  All inputs here are undirected,
connected, unit weight.

One greedy cover, ``_greedy_hitting_set`` (max coverage, ties to the
smaller id), makes both set choices: the initial centers, which hit every
ceil(1/p)-closest neighborhood, and the spanner's dominators, which hit
the closed neighborhood of every heavy vertex.  The neighborhoods come
from the level-truncated ``k_closest``, which scans only the arcs of the
levels before the last, so the dense pipeline stays near-quadratic.  The
cover runs on flat (owner, member) arrays, with bincount coverage and an
argmax per pick.

The spanner is built on the graph's CSR arrays: the light edges by a
degree mask over the arcs, the heavy vertices' closed neighborhoods as
flat arrays, and one BFS tree per dominator from ``search._bfs_parents``.
Its edges are the unique keys u n + v, u <= v, and ``_from_columns``
builds the same Graph as ``Graph(n, sorted edges)``, its arc arrays
already seeded for the searches that follow.

The searches from the centers A are ``search``'s batched reductions:
per tz_center round one ``nearest`` over all n vertices; in diam_dense_32
one ``eccentricities`` over A on the spanner; in ecc_dense_53 one
``eccentricities`` and one ``max_distances`` over A on g, |A| sources
each, plus one multi-source search per distinct center eccentricity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random

import numpy as np

from .eccen import EccEstimate, ceil_sqrt
from .graph import Graph, _from_columns
from .search import (_arcs, _bfs_parents, _csr, eccentricities, is_connected, k_closest,
                     max_distances, multi_source_distance, nearest)


@dataclass
class CenterData:
    """Output of tz_center: centers plus bunch/cluster structure.

    dist[v] = d(v, A); pivot[v] = nearest center (ties to smaller id).
    bunches[v] and clusters[w] are lists of (vertex, distance) pairs;
    clusters are the exact inverse relation of bunches.
    """

    centers: list
    p: float
    seed: int
    dist: list
    pivot: list
    bunches: list
    clusters: list


def _check_dense_input(g: Graph, op: str):
    if g.directed:
        raise ValueError(f"{op} requires an undirected graph")
    if not g.unit_weights:
        raise ValueError(f"{op} requires unit weights")
    if not is_connected(g):
        raise ValueError(f"{op} requires a connected graph")


def _greedy_hitting_set(owners, members, n: int) -> list:
    """Greedy hitter of nonempty vertex lists over range(n), in pick order.

    The lists come flat, as int64 arrays: list i holds members[j] for each
    j with owners[j] == i, and owners is nondecreasing.  Each round picks
    the vertex with the largest coverage, the number of unhit lists it
    occurs in (a vertex listed twice in one list counts twice), ties to
    the smaller id, and marks every list holding it hit.  Coverage is a
    bincount of the members, the pick its argmax (the first maximum, so
    the smaller id), and the bincount of the members of the lists a pick
    hits is taken off it.  One argsort of the members finds the lists
    holding each vertex, so a round costs O(n) plus the lists it hits.
    """
    count = np.bincount(members, minlength=n)
    size = np.bincount(owners)
    start = np.cumsum(size) - size
    # The owners of v's entries are lists_of[holds[v]:ends[v]].
    lists_of = owners[np.argsort(members)]
    ends = np.cumsum(count)
    holds = ends - count
    unhit = np.ones(len(size), dtype=bool)
    chosen = []
    while True:
        v = int(count.argmax())
        if not count[v]:
            return chosen
        chosen.append(v)
        hit = np.zeros(len(size), dtype=bool)
        hit[lists_of[holds[v]:ends[v]]] = True
        hit &= unhit
        unhit ^= hit
        count -= np.bincount(members[_arcs(start, size, hit.nonzero()[0])[0]], minlength=n)


def tz_center(g: Graph, p: float, seed: int = 0, *, op: str = "tz_center") -> CenterData:
    """Compute centers with bounded clusters and bunches.

    Starts from a greedy hitting set of every vertex's ceil(1/p)-closest
    neighborhood (so every initial bunch already fits in ceil(1/p)), then
    repeatedly samples each vertex whose cluster exceeds 4/p into A with
    probability p, pruning bunches against the shrinking d(v, A), until no
    cluster is too large.  ``op`` names the entry point in input errors:
    the dense estimators pass their own, so their input is checked once.
    """
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


@dataclass
class Spanner:
    """An additive-2 spanner: d_H(u,v) <= d_G(u,v) + 2 for all pairs."""

    graph: Graph
    dominators: list


def additive2_spanner(g: Graph, seed: int = 0) -> Spanner:
    """Degree-threshold additive-2 spanner.

    Keeps every edge incident to a vertex of degree < ceil(sqrt(n)), then
    greedily picks dominators covering the closed neighborhoods of the
    heavy vertices and adds one full BFS tree per dominator.  Construction
    is deterministic; ``seed`` is accepted for interface uniformity.
    """
    if g.directed:
        raise ValueError("additive2_spanner requires an undirected graph")
    if not g.unit_weights:
        raise ValueError("additive2_spanner requires unit weights")
    n = g.n
    if n == 0:
        return Spanner(Graph(0), [])
    threshold = ceil_sqrt(n)
    (_, degree, heads), _, _ = _csr(g, "out")
    light = degree < threshold
    # Edge u-v is kept as the key u n + v, u <= v: its arc from u.
    tails = np.arange(n).repeat(degree)
    kept = (light[tails] | light[heads]) & (tails <= heads)
    keys = [tails[kept] * n + heads[kept]]

    # The closed neighborhood of each heavy vertex: itself, then its heads.
    heavy = np.flatnonzero(~light)
    size = degree[heavy] + 1
    owners = heavy.repeat(size)
    own = np.zeros(len(owners), dtype=bool)
    own[np.cumsum(size) - size] = True
    members = owners.copy()
    members[~own] = heads[~light[tails]]
    dominators = _greedy_hitting_set(owners, members, n)

    for root in dominators:
        parent = _bfs_parents(g, root)
        v = np.flatnonzero(parent >= 0)
        u = parent[v]
        tree = u != v
        keys.append(np.minimum(u, v)[tree] * n + np.maximum(u, v)[tree])
    u, v = np.divmod(np.unique(np.concatenate(keys)), n)
    return Spanner(_from_columns(n, False, u, v, np.ones(len(u), dtype=np.int64)), dominators)


def _cluster_matrix(g: Graph, cd: CenterData) -> np.ndarray:
    """The estimate matrix M: exact distances for pairs sharing a cluster,
    d(u,A) + d(v,A) - 1 for the rest, 0 on the diagonal.

    The diagonal and both fallback operands stay strictly below n for
    connected unit-weight input, so n doubles as the unset sentinel.
    """
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


def diam_dense_32(g: Graph, seed: int = 0):
    """Almost-3/2 diameter estimate in near-quadratic time.

    For D = 3h + z the returned value is >= 2h - 1 (z in {0,1}) or
    >= 2h (z = 2), and never exceeds D.
    """
    n = g.n
    if n <= 1:
        _check_dense_input(g, "diam_dense_32")
        return 0
    cd = tz_center(g, 1 / math.sqrt(n), seed, op="diam_dense_32")
    h = additive2_spanner(g, seed).graph
    return max(int(_cluster_matrix(g, cd).max()), max(eccentricities(h, cd.centers)) - 2)


def ecc_dense_53(g: Graph, seed: int = 0) -> EccEstimate:
    """Almost-5/3 eccentricity estimates in near-quadratic time.

    Per vertex u: 3*ecc(u)/5 - 1 <= est(u) <= ecc(u).  The estimate is the
    largest of the cluster matrix row maximum, max_a d(a, u) and
    max_a (ecc(a) - d(a, u)) over the centers a, all exact on g.
    """
    n = g.n
    if n <= 1:
        _check_dense_input(g, "ecc_dense_53")
        return EccEstimate([0] * n, "ecc-dense-53", seed)
    cd = tz_center(g, 1 / math.sqrt(n), seed, op="ecc_dense_53")
    row_max = _cluster_matrix(g, cd).max(axis=1)

    # No spanner is needed: any additive-2 spanner H of g has d_H <= d_g + 2,
    # so its probes max_a d_H(a, u) - 2 and ecc_H(pivot(u)) - d(u, A) - 2 can
    # never exceed max_a d(a, u) and max_a (ecc(a) - d(a, u)), taken below.
    # With t the farthest vertex from u, either max_a d(u, a) >= ecc - d(t, A)
    # or the cluster matrix row already carries d(u, A) + d(t', A) - 1, and
    # both routes clear the bound.  max_a (ecc(a) - d(a, u)) costs one
    # multi-source search per distinct center eccentricity E, as the max
    # over E of E - d(A_E, u), A_E being the centers of eccentricity E.
    centers = cd.centers
    far = max_distances(g, centers)
    by_ecc = {}
    for a, e in zip(centers, eccentricities(g, centers)):
        by_ecc.setdefault(e, []).append(a)
    near = [(e, multi_source_distance(g, group)) for e, group in by_ecc.items()]

    values = []
    for u in range(n):
        e5 = max(e - dist[u] for e, dist in near)
        values.append(max(int(row_max[u]), far[u], e5, 0))
    return EccEstimate(values, "ecc-dense-53", seed)


def approx_on_spanner(g: Graph, inner, seed: int = 0):
    """Run an undirected-unweighted diameter estimator on an additive-2 spanner.

    Builds the spanner H, evaluates ``inner(H)``, and subtracts 2 from the
    result (clamped at 0), turning a (p, q) guarantee on H into a
    (p, q + 2) guarantee on g.
    """
    return max(inner(additive2_spanner(g, seed).graph) - 2, 0)
