"""S-T Diameter estimators and the exact reduction to Diameter.

D_{S,T} = max over s in S, t in T of d(s, t).  Estimators return realized
S-to-T distances, hence never exceed the true value:

* st_3approx          -- two searches, D/3 <= out <= D.
* st_2approx_sqrt     -- sampling sweep, 2*floor(D/4) <= out <= D (unweighted).
* st_2approx_true     -- degree-3 blow-up variant, D/2 <= out <= D.
* st_2approx_weighted -- nonnegative weights; true_mode gives D/2 <= out <= D.

The three sweeps share _two_approx_sweep, which runs the paper's
O(sqrt(n) log n) single-source searches as a few calls into search:
multi_source_distance and nearest, one search each (nearest's from the
member set, as Thorup and Zwick find pivots, labelled with each vertex's
smallest-id nearest member), and eccentricities into a target set,
batched 64 sources per pass.  st_2approx_true runs it on the original
graph, lifted through the port counts of the degree-3 blow-up, whose
distances are the original ones; the blown graph is never built.

st_via_diameter computes the S-T Diameter *exactly* given any exact
Diameter solver, via pendant-edge gadget graphs.  It and
build_equivalence_gadget build them in one place, _gadget, by appending
the pendant and split edges to the doubled input's int64 edge columns.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from random import Random

import numpy as np

from .eccen import _sqrt_sample_size, ceil_sqrt
from .graph import Graph, _check_budget, _from_columns, _join
from .search import (eccentricities, exact_st_diameter, is_connected, k_closest,
                     multi_source_distance, nearest, sssp)


class STInstance:
    """A graph with two nonempty vertex subsets (not necessarily disjoint)."""

    graph: Graph
    S: tuple
    T: tuple

    def __init__(self, graph: Graph, S, T):
        self.graph = graph
        self.S = tuple(sorted(set(S)))
        self.T = tuple(sorted(set(T)))
        if not self.S or not self.T:
            raise ValueError("S and T must be nonempty")
        for v in (self.S[0], self.S[-1], self.T[0], self.T[-1]):
            if not 0 <= v < graph.n:
                raise ValueError(f"vertex {v} out of range")


def st_3approx(inst: STInstance):
    """Linear-time 3-approximation; returns (estimate, witnessing (s, t) pair).

    Searches from the smallest-id s in S and t in T and takes the larger of
    the realized maxima, so D/3 <= estimate <= D.
    """
    g = inst.graph
    s, t = inst.S[0], inst.T[0]
    from_s = sssp(g, s, "out")
    to_t = sssp(g, t, "in")
    best_t = max(inst.T, key=lambda v: (from_s[v], -v))
    best_s = max(inst.S, key=lambda v: (to_t[v], -v))
    if from_s[best_t] >= to_t[best_s]:
        return from_s[best_t], (s, best_t)
    return to_t[best_s], (best_s, t)


def _two_approx_sweep(g: Graph, S, T, rng: Random, z_size: int, extend_positive: bool,
                      ports=None):
    """Core of the 2-approximation sweep on an undirected graph.

    The sweep of the paper runs one search per sample vertex x, from each
    x's nearest t_x in T, from t_bar (the vertex of T farthest from the
    sample), from each vertex y of t_bar's neighbourhood Y, and from each
    y's nearest s_y in S.  It needs only three reductions of those
    searches: the sample's multi-source distances and the nearest member
    of a set under (distance, id), one search each, and the largest
    distance into a set, batched.  Returns the largest realized S-to-T
    distance found: from t_bar and each t_x into S, and from each s_y
    into T.

    ``ports`` lifts the sweep from a graph in which vertex v stands for
    ports[v] consecutive ids (1 each when None): the sample is drawn over
    all the ids and mapped to their vertices, and Y is cut at z_size ids
    (see _neighbourhood).
    """
    ports = ports or [1] * g.n
    sample = _sample(rng, ports)
    min_from_x = multi_source_distance(g, sample)
    t_bar = max(T, key=lambda t: (min_from_x[t], -t))
    pivots = {t for t, _ in nearest(g, sample, T)} | {t_bar}
    near = _neighbourhood(g, t_bar, z_size, extend_positive, ports)
    s_y = {s for s, _ in nearest(g, near, S)}
    return max(eccentricities(g, sorted(pivots), targets=S)
               + eccentricities(g, sorted(s_y), targets=T))


def _sample(rng: Random, ports) -> list:
    """The sweep's sample: ids drawn over all the ports, mapped to their vertices."""
    ends = list(accumulate(ports))
    draws = rng.sample(range(ends[-1]), _sqrt_sample_size(ends[-1]))
    return sorted({bisect_right(ends, x) for x in draws})


def _neighbourhood(g: Graph, t_bar: int, z_size: int, extend_positive: bool, ports) -> list:
    """Y: the owners of t_bar's z_size closest ids, and maybe the far ends of their edges.

    The ids come in (distance, owner, port) order, each owner's ports[v]
    ids in a row.  With ``extend_positive``, Y also takes the far end of
    every positive-weight edge a kept id carries: a vertex of one id
    carries all its edges, and port i of any other carries its i-th edge.
    """
    indptr, _, heads, weights = g.arcs("out")
    near = set()
    left = z_size
    for v in k_closest(g, t_bar, min(g.n, z_size), "out").vertices():
        near.add(v)
        kept = min(ports[v], left)
        if extend_positive:
            lo, hi = indptr[v:v + 2].tolist()
            hi = hi if kept == ports[v] else lo + kept
            far = heads[lo:hi] if g.positive_weights else heads[lo:hi][weights[lo:hi] > 0]
            near.update(far.tolist())
        left -= kept
        if not left:
            break
    return sorted(near)


def st_2approx_sqrt(inst: STInstance, seed: int = 0):
    """Sampling 2-approximation for unweighted graphs: 2*floor(D/4) <= out <= D."""
    g = inst.graph
    if g.directed:
        raise ValueError("st_2approx_sqrt requires an undirected graph")
    if not g.unit_weights:
        raise ValueError("st_2approx_sqrt requires unit weights; use st_2approx_weighted")
    return _two_approx_sweep(g, inst.S, inst.T, Random(seed), ceil_sqrt(g.n),
                             extend_positive=False)


def st_2approx_true(inst: STInstance, seed: int = 0):
    """True 2-approximation for unweighted graphs: D/2 <= out <= D.

    The paper runs the sweep on the degree-3 blow-up (search.degree3_blowup):
    each vertex v of degree >= 3 becomes a 0-weight cycle of deg(v) ports,
    port i carrying v's i-th edge, and every other vertex stays one node.
    The neighbourhood is the ceil(sqrt(m')) closest blown nodes plus the
    far ends of their weight-1 edges, m' being the blow-up's edge count.
    Every port of v is at 0 distance from every other, so blown distances
    are the distances of the owners, and the sweep runs on the original
    graph lifted through the port counts: the sample is drawn over the
    blown ids and mapped to owners, the closest blown nodes are the ports
    of the closest owners in (distance, id) order, and every draw and
    tie-break is the blow-up's.  The blow-up graph is never built.
    """
    g = inst.graph
    if g.directed:
        raise ValueError("st_2approx_true requires an undirected graph")
    if not g.unit_weights:
        raise ValueError("st_2approx_true requires unit weights; use st_2approx_weighted")
    ports, blown_m = _blowup_ports(g)
    return _two_approx_sweep(g, inst.S, inst.T, Random(seed),
                             min(sum(ports), ceil_sqrt(max(blown_m, 1))),
                             extend_positive=True, ports=ports)


def _blowup_ports(g: Graph):
    """Per vertex, its number of nodes in degree3_blowup(g); and the blow-up's edge count.

    A vertex of degree >= 3 becomes a cycle of deg ports and deg 0-weight
    edges; any other vertex stays one node.
    """
    u, v, _ = g.columns
    if (u == v).any():
        raise ValueError("self-loops are not supported by degree3_blowup")
    ports = [deg if deg >= 3 else 1 for deg in g.degrees.tolist()]
    return ports, g.m + sum(p for p in ports if p >= 3)


def st_2approx_weighted(inst: STInstance, seed: int = 0, true_mode: bool = False):
    """The sweep for nonnegative weights.

    In true_mode the far-vertex neighborhood uses the ceil(sqrt(m)) closest
    vertices extended by endpoints of their positive-weight edges, giving
    D/2 <= out <= D; otherwise only out <= D is promised (the additive
    slack of the weaker guarantee references an unidentified edge).
    """
    g = inst.graph
    if g.directed:
        raise ValueError("st_2approx_weighted requires an undirected graph")
    z = ceil_sqrt(max(g.m, 1)) if true_mode else ceil_sqrt(g.n)
    return _two_approx_sweep(g, inst.S, inst.T, Random(seed), min(g.n, z),
                             extend_positive=true_mode)


# ---------------------------------------------------------------------------
# Exact equivalence with Diameter
# ---------------------------------------------------------------------------


@dataclass
class EquivalenceGadget:
    """Gadget graphs reducing S-T Diameter to plain Diameter, built by
    _gadget for build_equivalence_gadget and st_via_diameter alike.

    All weights of the input are doubled up front (so the split weight
    half_span = span/2 is integral) and results must be halved back.
    ``w_scale`` strictly exceeds every finite distance of the doubled
    graph.  ``g_final``, ``x`` and ``y`` are always built; st_via_diameter
    reads ``g_final`` only when the combined gadget's diameter collapses to
    the within-S span (after the role swap that enforces
    span_s = max(D_S, D_T)).
    """

    w_scale: int           # W: pendant edge weight
    g_s: Graph | None      # pendants on S only (None when |S| < 2)
    g_t: Graph | None
    g_st: Graph            # pendants on both S and T
    g_final: Graph         # g_st plus x, y and the split edges
    s_order: tuple         # original id of the i-th S-pendant
    t_order: tuple
    s_pendants: tuple      # pendant ids in g_st / g_final
    t_pendants: tuple
    x: int
    y: int
    span_s: int            # D_S of the doubled graph (after swap)
    span_t: int
    swapped: bool


def _with_pendants(g: Graph, heads, w_scale: int) -> Graph:
    """g plus a pendant vertex on each of ``heads`` in turn, from id g.n on."""
    pendants = (np.arange(g.n, g.n + len(heads)), heads, w_scale)
    return _from_columns(g.n + len(heads), False, *_join(g.columns, pendants))


def _gadget(inst: STInstance, diameter_fn=None) -> EquivalenceGadget:
    """The gadget of ``inst``, after checking the reduction's preconditions.

    A side's span, for S and then for T, is 0 when it has one vertex, and
    otherwise diameter_fn on its pendant graph g_s or g_t minus 2W, or,
    with no diameter_fn, exact_st_diameter on the doubled graph.
    """
    g = inst.graph
    if g.directed:
        raise ValueError("the equivalence reduction is for undirected graphs")
    if not is_connected(g):
        raise ValueError("the equivalence reduction requires a connected graph")
    w_scale = max(2, 2 * g.max_weight) * g.n
    # g_final, the largest gadget graph, has |S| + |T| + 2 more vertices and weight 2W.
    _check_budget(g.n + len(inst.S) + len(inst.T) + 2, 2 * w_scale)
    g2 = _from_columns(g.n, False, *g.columns[:2], 2 * g.columns[2])
    sides = []
    for group in (inst.S, inst.T):
        g_side, span = None, 0
        if len(group) > 1:
            g_side = _with_pendants(g2, group, w_scale)
            span = (exact_st_diameter(g2, group, group) if diameter_fn is None
                    else diameter_fn(g_side) - 2 * w_scale)
        sides.append((group, g_side, span))
    swapped = sides[1][2] > sides[0][2]
    (S, g_s, span_s), (T, g_t, span_t) = sides[::-1] if swapped else sides
    g_st = _with_pendants(g2, S + T, w_scale)
    sp, tp = tuple(range(g2.n, g2.n + len(S))), tuple(range(g2.n + len(S), g_st.n))
    # Split edges need span_s/2; doubling made every distance even.
    half = span_s // 2
    x = g_st.n
    y = g_st.n + 1
    g_final = _from_columns(g_st.n + 2, False, *_join(
        g_st.columns, ([x], y, 2 * w_scale), (x, sp, half), (y, tp, half)))
    return EquivalenceGadget(w_scale, g_s, g_t, g_st, g_final, S, T, sp, tp, x, y,
                             span_s, span_t, swapped)


def build_equivalence_gadget(inst: STInstance) -> EquivalenceGadget:
    """Construct the reduction gadgets, computing the spans exactly."""
    return _gadget(inst)


def st_via_diameter(inst: STInstance, diameter_fn):
    """Exact S-T Diameter using only an exact Diameter solver.

    Stages: within-S span via g_s, within-T span via g_t, the combined
    gadget g_st, and, only when the combined diameter collapses to the
    larger span, the x/y-augmented graph.  Every stage feeds diameter_fn
    a plain Graph; 2*w_scale is subtracted from its answers and the final
    value is halved to undo the weight doubling.
    """
    gadget = _gadget(inst, diameter_fn)
    combined = diameter_fn(gadget.g_st) - 2 * gadget.w_scale
    if combined > gadget.span_s:
        return combined // 2
    return (diameter_fn(gadget.g_final) - 2 * gadget.w_scale) // 2
