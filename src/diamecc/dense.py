"""Dense-graph machinery: bounded clusters, additive-2 spanner, and the
near-quadratic diameter / eccentricity estimators built on them.

The center computation returns a set A such that every bunch
B(v) = {u : d(v,u) < d(v,A)} has at most ceil(1/p) members and every
cluster C(w) = {v : w in B(v)} has at most 4/p members.  Pairs sharing a
cluster get their exact distance; pairs with disjoint bunches get the
certified lower bound d(u,A) + d(v,A) - 1.  The cluster matrix holds
both in one int32 n x n array, 4 n^2 bytes: it starts as that bound and
takes the minimum with each cluster's block, since u in C(w) means
d(u,w) < d(u,A), so every block entry lies below the bound.  For the
diameter a spanner sweep covers the remaining slack; for the
eccentricities exact searches from A do, and no spanner is built.  All
inputs here are undirected, connected, unit weight.

One greedy cover, ``_greedy_hitting_set`` (max coverage, ties to the
smaller id), makes both set choices: the initial centers, which hit every
ceil(1/p)-closest neighborhood, and the spanner's dominators, which hit
the closed neighborhood of every heavy vertex.  The neighborhoods come
from ``search.closest``: off its neighbour view when every vertex has
ceil(1/p) - 1 or more distinct neighbours, else 64 per ring pass, which
ends once every ball is full, so it steps only as deep as its deepest
ball.  They come as flat (owner, member, distance) arrays, and stay so:
the cover runs on them, with bincount coverage and an argmax per pick,
each round prunes them to the bunches with one mask, and the cluster
sizes are a bincount of the members.  The bunch and cluster lists of
CenterData are built once, on return.

The spanner is built on the graph's out-arc view (``Graph.arcs``): the
light edges by a degree mask over the arcs, the heavy vertices' closed
neighborhoods as flat arrays, and one BFS tree per dominator from
``search._bfs_parents``, one numpy step per level, which stops once
every vertex has a parent.  So it reads no adjacency list of g, and on a
dense graph ``is_connected``'s depth probe is a ring pass: nothing builds
them.
Its edges are the unique keys u n + v, u <= v, and ``_from_columns``
builds the same Graph as ``Graph(n, sorted edges)`` from their columns,
with no edge tuples or adjacency lists: the searches on it read arrays.

The searches from the centers A are ``search``'s reductions:
one ``closest`` over all n vertices for the balls, and per tz_center
round one ``nearest``, a single search from A that labels every vertex
with its pivot p(v) as it settles d(v, A), as Thorup and Zwick compute
them, unless every ball lies within one hop: then d(v, A) and the pivots
are read off the balls, and no search runs; in diam_dense_32 one
``eccentricities`` over A on the spanner; in ecc_dense_53 one
``eccentricities`` and one ``max_distances`` over A on g, |A| sources
each, plus one multi-source search per distinct center eccentricity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random

import numpy as np

from .eccen import EccEstimate, ceil_sqrt
from .graph import Graph, _from_columns, _group_order
from .search import (_arcs, _bfs_parents, _mask, _sorted_unique, closest, eccentricities,
                     is_connected, max_distances, multi_source_distance, nearest)


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
    hits is taken off it.  One grouping of the members finds the lists
    holding each vertex, so a round costs O(n) plus the lists it hits.
    """
    count = np.bincount(members, minlength=n)
    size = np.bincount(owners)
    start = np.cumsum(size) - size
    # The owners of v's entries are lists_of[holds[v]:ends[v]].
    lists_of = owners[_group_order(members)]
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
    # The b-closest neighborhoods, flat; each round prunes them to the bunches.
    owners, members, dists = closest(g, range(n), b)
    centers = sorted(_greedy_hitting_set(owners, members, n))
    # When every ball lies within one hop, v's ball is v and its b - 1
    # smallest-id neighbours, and a center hits it, so d(v, A) <= 1.  A
    # non-center v's ball holds a center neighbour c and every neighbour of
    # id below c, so v's pivot is the smallest center in its ball; a center
    # is its own.  Bunches are then single vertices: one round suffices.
    one_hop = dists.max() <= 1

    cap = 4.0 / p
    rng = Random(seed)
    while True:
        if one_hop:
            hub = _mask(g, centers)
            pivot = np.minimum.reduceat(np.where(hub[members], members, n),
                                        np.searchsorted(owners, np.arange(n)))
            pivot[hub] = centers
            dist = (~hub).astype(np.int64)
        else:
            pivot, dist = map(np.array, zip(*nearest(g, range(n), centers)))
        keep = dists < dist[owners]
        owners, members, dists = owners[keep], members[keep], dists[keep]
        size = np.bincount(members, minlength=n)
        oversized = np.flatnonzero(size > cap).tolist()
        if not oversized:
            break
        drawn = []
        while not drawn:
            drawn = [w for w in oversized if rng.random() < p]
        centers = sorted(set(centers) | set(drawn))
    # Each cluster lists its bunches' owners in id order: a stable grouping
    # by member keeps the owner-major order.
    order = _group_order(members)
    bunches = _split(members, dists, np.bincount(owners, minlength=n))
    clusters = _split(owners[order], dists[order], size)
    return CenterData(centers, p, seed, dist.tolist(), pivot.tolist(), bunches, clusters)


def _split(vertices, dists, sizes) -> list:
    """Consecutive runs of (vertex, distance) pairs, one list per size."""
    pairs = list(zip(vertices.tolist(), dists.tolist()))
    ends = np.cumsum(sizes).tolist()
    return [pairs[end - k:end] for k, end in zip(sizes.tolist(), ends)]


@dataclass
class Spanner:
    """An additive-2 spanner: d_H(u,v) <= d_G(u,v) + 2 for all pairs."""

    graph: Graph
    dominators: list


def additive2_spanner(g: Graph) -> Spanner:
    """Degree-threshold additive-2 spanner.

    Keeps every edge incident to a vertex of degree < ceil(sqrt(n)), then
    greedily picks dominators covering the closed neighborhoods of the
    heavy vertices and adds one full BFS tree per dominator.  Construction
    is deterministic.
    """
    if g.directed:
        raise ValueError("additive2_spanner requires an undirected graph")
    if not g.unit_weights:
        raise ValueError("additive2_spanner requires unit weights")
    n = g.n
    if n == 0:
        return Spanner(Graph(0), [])
    threshold = ceil_sqrt(n)
    _, degree, heads, _ = g.arcs("out")
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
    u, v = np.divmod(_sorted_unique(np.concatenate(keys)), n)
    return Spanner(_from_columns(n, False, u, v, np.ones(len(u), dtype=np.int64)), dominators)


def _cluster_matrix(cd: CenterData) -> np.ndarray:
    """The estimate matrix M, int32: exact distances for pairs sharing a
    cluster, d(u,A) + d(v,A) - 1 for the rest, 0 on the diagonal.

    M starts as the fallback and takes the minimum with each cluster's
    block, which is exact: u in C(w) means d(u,w) < d(u,A), so each block
    entry d(u,w) + d(w,v) <= d(u,A) + d(v,A) - 2 is below the fallback.
    Every entry is below 2n, so the one n x n array is 4 n^2 bytes.
    """
    dA = np.asarray(cd.dist, dtype=np.int32)
    M = np.add.outer(dA - 1, dA)
    for members in cd.clusters:
        if len(members) > 1:
            idx, dv = np.array(members, dtype=np.int32).T
            sub = np.ix_(idx, idx)
            M[sub] = np.minimum(M[sub], np.add.outer(dv, dv))
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
    h = additive2_spanner(g).graph
    return max(int(_cluster_matrix(cd).max()), max(eccentricities(h, cd.centers)) - 2)


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
    row_max = _cluster_matrix(cd).max(axis=1)

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
    near = [e - np.asarray(multi_source_distance(g, group)) for e, group in by_ecc.items()]
    values = np.max([row_max, far, np.zeros(n, dtype=np.int64), *near], axis=0)
    return EccEstimate(values.tolist(), "ecc-dense-53", seed)


def approx_on_spanner(g: Graph, inner):
    """Run an undirected-unweighted diameter estimator on an additive-2 spanner.

    Builds the spanner H, evaluates ``inner(H)``, and subtracts 2 from the
    result (clamped at 0), turning a (p, q) guarantee on H into a
    (p, q + 2) guarantee on g.
    """
    return max(inner(additive2_spanner(g).graph) - 2, 0)
