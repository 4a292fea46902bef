"""Generators for orthogonal-vectors instances and their reduction graphs.

Each builder returns the gadget graph together with its labeled vertex
sets, the promised low/high distance gap, and (for planted instances) the
witness pair achieving the high side, so the exact oracle can confirm the
gap bit-exactly.  Layers and gadget sets are allocated contiguously, so
every labeled set is an id range.

The layered graph on k+1 levels is the common base: S holds all
(k-1)-tuples over the first k-1 vector sets, T all (k-1)-tuples over the
last k-1, and the middle levels carry partial tuples plus a coordinate
tuple.  Without an orthogonal k-tuple every S-T distance is exactly k;
with one, the witness pair is at distance at least 3k-2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations, product
from random import Random

from .graph import Graph, format_graph, load_graph
from .search import UNREACHABLE, eccentricities, exact_diameter, nearest, sssp

DEFAULT_EDGE_CAP = 2_000_000


class ConstructionSizeError(ValueError):
    """Requested construction exceeds the configured size cap."""

    def __init__(self, required: int, cap: int):
        super().__init__(f"construction needs ~{required} edges, cap is {cap}")
        self.required = required
        self.cap = cap


class MetadataError(ValueError):
    """Construction metadata does not match the graph it describes."""


# ---------------------------------------------------------------------------
# Orthogonal vectors instances
# ---------------------------------------------------------------------------


@dataclass
class OVInstance:
    """k sets of n binary vectors of dimension d.

    ``vectors[i][j]`` is the j-th vector of set i as a tuple of bits.
    ``planted``, when set, is a k-tuple of indices whose vectors have
    generalized inner product 0.
    """

    k: int
    n: int
    d: int
    vectors: tuple
    planted: tuple | None = None
    seed: int | None = None

    @property
    def mode(self) -> str:
        return "planted" if self.planted is not None else "unsat"


def gen_ov(k: int, n: int, d: int, mode: str = "unsat", seed: int = 0) -> OVInstance:
    """Random k-OV instance with a known answer.

    ``unsat`` pins coordinate 0 of every vector to 1, so every k-tuple has
    product 1 there and no solution exists.  ``planted`` rewrites one
    random tuple so that every coordinate has at least one 0 among its
    members, then re-verifies by brute force.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if d < 2:
        raise ValueError("d must be at least 2")
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = Random(seed)
    vecs = [[[rng.randint(0, 1) for _ in range(d)] for _ in range(n)] for _ in range(k)]
    planted = None
    if mode == "unsat":
        for i in range(k):
            for j in range(n):
                vecs[i][j][0] = 1
    elif mode == "planted":
        planted = tuple(rng.randrange(n) for _ in range(k))
        # Zero one uniformly chosen member per coordinate.
        for c in range(d):
            member = rng.randrange(k)
            vecs[member][planted[member]][c] = 0
    else:
        raise ValueError(f"mode must be 'unsat' or 'planted', got {mode!r}")
    inst = OVInstance(k, n, d,
                      tuple(tuple(tuple(v) for v in s) for s in vecs),
                      planted, seed)
    if mode == "planted":
        assert _tuple_is_orthogonal(inst, planted)
        assert ov_brute_force(inst) is not None
    return inst


def _tuple_is_orthogonal(inst: OVInstance, idxs) -> bool:
    return all(any(inst.vectors[i][idxs[i]][c] == 0 for i in range(inst.k))
               for c in range(inst.d))


def ov_brute_force(inst: OVInstance):
    """Lexicographically first orthogonal k-tuple of indices, or None."""
    for idxs in product(range(inst.n), repeat=inst.k):
        if _tuple_is_orthogonal(inst, idxs):
            return idxs
    return None


# ---------------------------------------------------------------------------
# Layered base graph
# ---------------------------------------------------------------------------


def _ridx(digits, radices) -> int:
    idx = 0
    for dig, rad in zip(digits, radices):
        idx = idx * rad + dig
    return idx


@dataclass
class _LayeredCore:
    """Pruned layered graph with tagged edges and id arithmetic.

    Edge tags give the left layer index, which the weighted diameter
    gadget needs to pick out the middle-level edges.  S occupies ids
    [0, s_size); T occupies [t_lo, t_lo + s_size).
    """

    k: int
    n: int
    d: int
    vertex_count: int
    edges: list          # (u, v, left_layer)
    sets: dict           # name -> (lo, hi)
    t_lo: int

    def s_id(self, digits) -> int:
        return _ridx(digits, [self.n] * (self.k - 1))

    def t_id(self, digits) -> int:
        return self.t_lo + _ridx(digits, [self.n] * (self.k - 1))


def _build_layered(inst: OVInstance, prune: bool = True,
                   max_edges: int = DEFAULT_EDGE_CAP) -> _LayeredCore:
    k, n, d = inst.k, inst.n, inst.d
    t = k - 2
    s_size = n ** (k - 1)
    mid_size = (n ** t) * (d ** (t + 1))
    est = 2 * s_size + (t + 1) * mid_size + (t + 2) * s_size * (d ** (t + 1))
    if est > max_edges:
        raise ConstructionSizeError(est, max_edges)

    masks = [[sum(1 << c for c in range(d) if vec[c]) for vec in inst.vectors[j]]
             for j in range(k)]
    ones_at = [[[i for i in range(n) if inst.vectors[j][i][x]] for x in range(d)]
               for j in range(k)]

    # Layer offsets: L0, then t+1 middle layers, then the last layer.
    off = [0, s_size]
    for _ in range(t + 1):
        off.append(off[-1] + mid_size)
    total = off[-1] + s_size
    off.append(total)
    mid_rad = [n] * t + [d] * (t + 1)
    s_rad = [n] * (t + 1)

    edges = []
    # Left boundary: (a_0..a_t) -- (a_0..a_{t-1}, x) when each a_j is 1 on
    # coordinates x_0..x_{t-j}.
    for prefix in product(range(n), repeat=t):
        for xb in product(range(d), repeat=t + 1):
            cmask = []
            acc = 0
            for x in xb:
                acc |= 1 << x
                cmask.append(acc)
            if any(masks[j][prefix[j]] & cmask[t - j] != cmask[t - j] for j in range(t)):
                continue
            mid = off[1] + _ridx(prefix + xb, mid_rad)
            for last in ones_at[t][xb[0]]:
                edges.append((off[0] + _ridx(prefix + (last,), s_rad), mid, 0))
    # Middle: forget the last kept left-side vector, introduce the next
    # right-side one; unconditional on coordinates.
    for j in range(1, t + 1):
        for apart in product(range(n), repeat=t + 1 - j):
            for bpart in product(range(n), repeat=j - 1):
                for xb in product(range(d), repeat=t + 1):
                    src = off[j] + _ridx(apart + bpart + xb, mid_rad)
                    head = apart[:-1]
                    for c in range(n):
                        dst = off[j + 1] + _ridx(head + (c,) + bpart + xb, mid_rad)
                        edges.append((src, dst, j))
    # Right boundary: (b_1..b_{t+1}) -- (b_2..b_{t+1}, x) when each b_j is 1
    # on coordinates x_{t+1-j}..x_t.
    for bpart in product(range(n), repeat=t):
        for xb in product(range(d), repeat=t + 1):
            smask = [0] * (t + 1)
            acc = 0
            for r in range(t, -1, -1):
                acc |= 1 << xb[r]
                smask[r] = acc
            if any(masks[j][bpart[j - 2]] & smask[t + 1 - j] != smask[t + 1 - j]
                   for j in range(2, t + 2)):
                continue
            mid = off[t + 1] + _ridx(bpart + xb, mid_rad)
            for first in ones_at[1][xb[t]]:
                edges.append((mid, off[t + 2] + _ridx((first,) + bpart, s_rad), t + 1))

    alive = [True] * total
    if prune:
        _prune_to_fixpoint(edges, off, total, alive)

    remap = [-1] * total
    alive_prefix = [0] * (total + 1)
    nxt = 0
    for v in range(total):
        alive_prefix[v] = nxt
        if alive[v]:
            remap[v] = nxt
            nxt += 1
    alive_prefix[total] = nxt
    kept = [(remap[u], remap[v], tag) for u, v, tag in edges if alive[u] and alive[v]]
    sets = {}
    bounds = [(alive_prefix[off[layer]], alive_prefix[off[layer + 1]])
              for layer in range(k + 1)]
    sets["S"] = bounds[0]
    for layer in range(1, k):
        sets[f"L{layer}"] = bounds[layer]
    sets["T"] = bounds[k]
    return _LayeredCore(k, n, d, nxt, kept, sets, bounds[k][0])


def _prune_to_fixpoint(edges, off, total, alive):
    """Drop middle vertices lacking a live neighbor on either side, cascading."""
    last = len(off) - 2  # index of the final layer in off terms
    layer_of = [0] * total
    for layer in range(len(off) - 1):
        for v in range(off[layer], off[layer + 1]):
            layer_of[v] = layer
    left_n = [[] for _ in range(total)]
    right_n = [[] for _ in range(total)]
    for u, v, _ in edges:
        right_n[u].append(v)
        left_n[v].append(u)
    left_c = [len(left_n[v]) for v in range(total)]
    right_c = [len(right_n[v]) for v in range(total)]

    def internal(v):
        return 0 < layer_of[v] < last

    stack = [v for v in range(total)
             if internal(v) and (left_c[v] == 0 or right_c[v] == 0)]
    for v in stack:
        alive[v] = False
    while stack:
        v = stack.pop()
        for u in left_n[v]:
            right_c[u] -= 1
            if alive[u] and internal(u) and right_c[u] == 0:
                alive[u] = False
                stack.append(u)
        for u in right_n[v]:
            left_c[u] -= 1
            if alive[u] and internal(u) and left_c[u] == 0:
                alive[u] = False
                stack.append(u)


# ---------------------------------------------------------------------------
# Construction outputs
# ---------------------------------------------------------------------------


@dataclass
class ConstructionOutput:
    """A gadget graph plus the promised distance gap to verify.

    ``scope`` selects the quantifier of the promise:
      st            -- unsat: every S-T distance equals promised_low;
                       planted: the witness pair is >= promised_high.
      diameter      -- unsat: all pairs <= promised_low; planted witness.
      ecc_from_s    -- unsat: every eccentricity of an S vertex is
                       <= promised_low; planted witness.
      ecc_out_all   -- unsat: every out-eccentricity of a U vertex equals
                       promised_low; planted witness.
    """

    construction: str
    graph: Graph
    sets: dict
    promised_low: int
    promised_high: int
    witness: tuple | None
    scope: str
    params: dict = field(default_factory=dict)

    def meta(self) -> dict:
        return {
            "construction": self.construction,
            "sets": {name: [lo, hi] for name, (lo, hi) in self.sets.items()},
            "promised_low": self.promised_low,
            "promised_high": self.promised_high,
            "witness": list(self.witness) if self.witness is not None else None,
            "scope": self.scope,
            **self.params,
        }


def build_kov_layered(inst: OVInstance, max_edges: int = DEFAULT_EDGE_CAP,
                      prune: bool = True) -> ConstructionOutput:
    """The bare layered graph: S-T distance gap k versus 3k-2."""
    core = _build_layered(inst, prune=prune, max_edges=max_edges)
    k = inst.k
    witness = None
    if inst.planted is not None:
        witness = (core.s_id(inst.planted[:k - 1]), core.t_id(inst.planted[1:]))
    g = Graph(core.vertex_count, [(u, v, 1) for u, v, _ in core.edges], directed=False)
    return ConstructionOutput("kov", g, dict(core.sets), k, 3 * k - 2, witness, "st",
                              _params(inst))


def _params(inst: OVInstance, **extra) -> dict:
    out = {"k": inst.k, "n": inst.n, "d": inst.d, "mode": inst.mode,
           "seed": inst.seed}
    out.update(extra)
    return out


def _diam_gadget_k3(inst: OVInstance, weighted: bool,
                    max_edges: int) -> ConstructionOutput:
    """Shared body of the 5-vs-8 and 6-vs-10 diameter constructions."""
    if inst.k != 3:
        raise ValueError("this construction needs a 3-OV instance")
    core = _build_layered(inst, max_edges=max_edges)
    n = inst.n
    heavy = 2 if weighted else 1  # weight of middle-level and clique edges
    s1 = core.vertex_count          # matched copy of S
    s2 = s1 + n * n                 # clique, one vertex per first-set vector
    t1 = s2 + n                     # matched copy of T
    t2 = t1 + n * n                 # clique, one vertex per last-set vector
    total = t2 + n

    edges = [(u, v, heavy if tag == 1 else 1) for u, v, tag in core.edges]
    for i in range(n * n):
        edges.append((core.s_id(divmod(i, n)), s1 + i, 1))
        edges.append((core.t_id(divmod(i, n)), t1 + i, 1))
    for a, a2 in combinations(range(n), 2):
        edges.append((s2 + a, s2 + a2, heavy))
        edges.append((t2 + a, t2 + a2, heavy))
    for a in range(n):
        for b in range(n):
            edges.append((s2 + a, core.s_id((a, b)), 1))
            edges.append((t2 + a, core.t_id((b, a)), 1))

    g = Graph(total, edges, directed=False)
    sets = dict(core.sets)
    sets.update({"S'": (s1, s1 + n * n), "S''": (s2, s2 + n),
                 "T'": (t1, t1 + n * n), "T''": (t2, t2 + n)})
    witness = None
    if inst.planted is not None:
        ia, ib, ic = inst.planted
        witness = (s1 + ia * n + ib, t1 + ib * n + ic)
    low, high = (6, 10) if weighted else (5, 8)
    name = "6v10" if weighted else "5v8"
    return ConstructionOutput(name, g, sets, low, high, witness, "diameter",
                              _params(inst))


def build_diam_5v8(inst: OVInstance, max_edges: int = DEFAULT_EDGE_CAP) -> ConstructionOutput:
    """Undirected unweighted diameter gap 5 vs 8 from 3-OV."""
    return _diam_gadget_k3(inst, weighted=False, max_edges=max_edges)


def build_diam_6v10(inst: OVInstance, max_edges: int = DEFAULT_EDGE_CAP) -> ConstructionOutput:
    """Undirected {1,2}-weighted diameter gap 6 vs 10 from 3-OV."""
    return _diam_gadget_k3(inst, weighted=True, max_edges=max_edges)


class _ArcBuilder:
    """Incremental arc list for directed gadgets with path subdivision."""

    def __init__(self, start: int):
        self.arcs = []
        self.next_id = start

    def arc(self, u, v):
        self.arcs.append((u, v, 1))

    def und(self, u, v):
        self.arcs.append((u, v, 1))
        self.arcs.append((v, u, 1))

    def und_path(self, u, v, length):
        """Undirected path of `length` unit edges between u and v."""
        prev = u
        for _ in range(length - 1):
            mid = self.next_id
            self.next_id += 1
            self.und(prev, mid)
            prev = mid
        self.und(prev, v)


def _diam_gadget_directed(inst: OVInstance, name: str,
                          max_edges: int) -> ConstructionOutput:
    """Shared body of the 3k-4 vs 5k-7 and 8 vs 13 diameter constructions.

    One-way shortcuts leave the clique towards the matched copy S' and, on
    the other side, run from T' into the clique; pointing them at S itself
    would let a path re-enter S two edges after leaving it and collapse
    the planted gap to 4k-4 once k > 3.
    """
    k, n = inst.k, inst.n
    core = _build_layered(inst, max_edges=max_edges)
    s_size = n ** (k - 1)
    if 4 * s_size * (k - 2) > max_edges:
        raise ConstructionSizeError(4 * s_size * (k - 2), max_edges)
    s1 = core.vertex_count
    s2 = s1 + s_size
    t1 = s2 + n
    t2 = t1 + s_size
    rad = [n] * (k - 1)
    ab = _ArcBuilder(t2 + n)
    for u, v, _ in core.edges:
        ab.und(u, v)
    for i in range(s_size):
        ab.und_path(i, s1 + i, k - 2)                       # S -- S' matching
        ab.und_path(core.t_lo + i, t1 + i, k - 2)           # T -- T' matching
    for a, a2 in combinations(range(n), 2):
        ab.und(s2 + a, s2 + a2)
        ab.und(t2 + a, t2 + a2)
    for first in range(n):
        for rest in product(range(n), repeat=k - 2):
            digits = (first,) + rest
            ab.und_path(s2 + first, core.s_id(digits), k - 2)   # hub spokes
            ab.arc(s2 + first, s1 + _ridx(digits, rad))         # one-way shortcut
            ab.und_path(t2 + first, core.t_id(rest + (first,)), k - 2)
            ab.arc(t1 + _ridx(rest + (first,), rad), t2 + first)

    g = Graph(ab.next_id, ab.arcs, directed=True)
    sets = dict(core.sets)
    sets.update({"S'": (s1, s1 + s_size), "S''": (s2, s2 + n),
                 "T'": (t1, t1 + s_size), "T''": (t2, t2 + n)})
    witness = None
    if inst.planted is not None:
        witness = (s1 + _ridx(inst.planted[:k - 1], rad),
                   t1 + _ridx(inst.planted[1:], rad))
    return ConstructionOutput(name, g, sets, 3 * k - 4, 5 * k - 7, witness,
                              "diameter", _params(inst))


def build_diam_3km4(inst: OVInstance, max_edges: int = DEFAULT_EDGE_CAP) -> ConstructionOutput:
    """Directed unweighted diameter gap 3k-4 vs 5k-7 for any k >= 3."""
    if inst.k < 3:
        raise ValueError("this construction needs k >= 3")
    return _diam_gadget_directed(inst, "3km4", max_edges)


def build_diam_8v13(inst: OVInstance, max_edges: int = DEFAULT_EDGE_CAP) -> ConstructionOutput:
    """Directed unweighted diameter gap 8 vs 13 from 4-OV: build_diam_3km4 at
    k = 4, with the same graph, sets, witness and gap, named "8v13"."""
    if inst.k != 4:
        raise ValueError("this construction needs a 4-OV instance")
    return _diam_gadget_directed(inst, "8v13", max_edges)


def build_ecc_lb_undirected(inst: OVInstance, max_edges: int = DEFAULT_EDGE_CAP) -> ConstructionOutput:
    """Undirected eccentricity gap: <= 2k-1 for all of S, or a witness >= 4k-3.

    Hangs a (k-2)-edge tail on every S vertex, merges the tail ends in a
    hub, and hangs a (k-1)-edge tail on every T vertex; the witness is the
    planted S vertex against the far end of the planted T vertex's tail.
    """
    k, n = inst.k, inst.n
    core = _build_layered(inst, max_edges=max_edges)
    s_size = n ** (k - 1)
    if s_size * (2 * k - 3) + 1 > max_edges:
        raise ConstructionSizeError(s_size * (2 * k - 3), max_edges)
    edges = [(u, v, 1) for u, v, _ in core.edges]
    next_id = core.vertex_count

    def tail(prev, length):
        """Hang a path of ``length`` new vertices on ``prev``; return its far end."""
        nonlocal next_id
        for _ in range(length):
            edges.append((prev, next_id, 1))
            prev = next_id
            next_id += 1
        return prev

    s_tail_end = [tail(i, k - 2) for i in range(s_size)]
    hub = next_id
    next_id += 1
    edges.extend((end, hub, 1) for end in s_tail_end)
    t_tail_lo = next_id
    for i in range(s_size):
        tail(core.t_lo + i, k - 1)

    g = Graph(next_id, edges, directed=False)
    sets = dict(core.sets)
    sets["HUB"] = (hub, hub + 1)
    sets["TTAILS"] = (t_tail_lo, next_id)
    witness = None
    if inst.planted is not None:
        rad = [n] * (k - 1)
        t_idx = _ridx(inst.planted[1:], rad)
        witness = (core.s_id(inst.planted[:k - 1]),
                   t_tail_lo + t_idx * (k - 1) + (k - 2))
    return ConstructionOutput("ecc-und", g, sets, 2 * k - 1, 4 * k - 3, witness,
                              "ecc_from_s", _params(inst))


def build_ecc_lb_directed(inst: OVInstance, L: int,
                          max_edges: int = DEFAULT_EDGE_CAP) -> ConstructionOutput:
    """Directed out-eccentricity gap: exactly L+2 everywhere on U, or a
    witness at distance >= 2L+3.

    One vertex per first-set vector (U), one per coordinate that some U
    vector sets (the rest are dropped), a directed (L+1)-path per second-set
    vector, and a directed L-path looping every U vertex back to all of U.
    """
    if inst.k != 2:
        raise ValueError("this construction needs a 2-OV instance")
    if L < 1:
        raise ValueError("L must be at least 1")
    n, d = inst.n, inst.d
    est = n * (L + 3) + n * d
    if est > max_edges:
        raise ConstructionSizeError(est, max_edges)
    used_coords = [c for c in range(d)
                   if any(inst.vectors[0][i][c] for i in range(n))]
    coord_id = {c: n + j for j, c in enumerate(used_coords)}
    vpath_lo = n + len(used_coords)
    x_lo = vpath_lo + n * (L + 1)
    total = x_lo + L

    arcs = []
    for i in range(n):
        arcs.append((i, x_lo, 1))
        arcs.append((x_lo + L - 1, i, 1))
        for c in used_coords:
            if inst.vectors[0][i][c]:
                arcs.append((i, coord_id[c], 1))
    for j in range(L - 1):
        arcs.append((x_lo + j, x_lo + j + 1, 1))
    for i in range(n):
        base = vpath_lo + i * (L + 1)
        for c in used_coords:
            if inst.vectors[1][i][c]:
                arcs.append((coord_id[c], base, 1))
        for j in range(L):
            arcs.append((base + j, base + j + 1, 1))

    g = Graph(total, arcs, directed=True)
    sets = {"U": (0, n), "C": (n, vpath_lo), "VPATHS": (vpath_lo, x_lo),
            "X": (x_lo, total)}
    witness = None
    if inst.planted is not None:
        iu, iv = inst.planted
        witness = (iu, vpath_lo + iv * (L + 1) + L)
    return ConstructionOutput("ecc-dir", g, sets, L + 2, 2 * L + 3, witness,
                              "ecc_out_all", _params(inst, L=L))


# ---------------------------------------------------------------------------
# Serialization and verification
# ---------------------------------------------------------------------------


def save_construction(out: ConstructionOutput, prefix: str):
    """Write PREFIX.graph (edge list) and PREFIX.meta.json; returns the paths."""
    graph_path = f"{prefix}.graph"
    meta_path = f"{prefix}.meta.json"
    with open(graph_path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(out.graph))
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(out.meta(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return graph_path, meta_path


def load_construction(graph_path, meta_path):
    g = load_graph(graph_path)
    try:
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    except UnicodeDecodeError as exc:
        raise MetadataError(f"metadata is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return g, meta


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _range_set(meta, name, n):
    try:
        lo, hi = meta["sets"][name]
    except (KeyError, TypeError, ValueError):
        raise MetadataError(f"metadata lacks vertex set {name!r}") from None
    # An empty set would make every promise over it hold vacuously.
    if not (isinstance(lo, int) and isinstance(hi, int) and 0 <= lo < hi <= n):
        raise MetadataError(f"set {name!r} bounds {[lo, hi]!r} are not a nonempty "
                            f"range within the graph's {n} vertices")
    return range(lo, hi)


def _shown(dist) -> str:
    return "unreachable" if dist == UNREACHABLE else str(dist)


def _promise(meta, key) -> int:
    value = meta.get(key)
    if not isinstance(value, int):
        raise MetadataError(f"{key} must be an integer, got {value!r}")
    return value


def verify_construction(g: Graph, meta: dict) -> list:
    """Recompute the promised bound with the exact oracle.

    Returns one CheckResult per promised bound; MetadataError when the
    metadata is not an object or does not fit the graph.
    """
    if not isinstance(meta, dict):
        raise MetadataError(f"metadata must be a JSON object, got {type(meta).__name__}")
    scope = meta.get("scope")
    mode = meta.get("mode")
    witness = meta.get("witness")
    if mode == "planted":
        high = _promise(meta, "promised_high")
        if not (isinstance(witness, (list, tuple)) and len(witness) == 2
                and all(isinstance(w, int) and 0 <= w < g.n for w in witness)):
            raise MetadataError(f"bad witness {witness!r}")
        u, v = witness
        dist = sssp(g, u, "out")[v]
        return [CheckResult(f"witness distance >= {high}", dist >= high,
                            f"d({u},{v}) = {_shown(dist)}")]
    if mode != "unsat":
        raise MetadataError(f"unknown mode {mode!r}")
    low = _promise(meta, "promised_low")

    if scope == "st":
        S = _range_set(meta, "S", g.n)
        T = _range_set(meta, "T", g.n)
        # Every d(s, t) equals low exactly when the nearest and the farthest
        # t do; one list search then names the first bad t of the first bad s.
        near_far = zip(S, nearest(g, S, T), eccentricities(g, S, targets=T))
        bad = next((s for s, (_, lo), hi in near_far if lo != low or hi != low), None)
        detail = "ok"
        if bad is not None:
            row = sssp(g, bad, "out")
            t = next(t for t in T if row[t] != low)
            detail = f"d({bad},{t}) = {_shown(row[t])}"
        return [CheckResult(f"all S-T distances == {low}", bad is None, detail)]
    if scope == "diameter":
        worst = exact_diameter(g)
        return [CheckResult(f"diameter <= {low}", worst <= low, f"diameter = {_shown(worst)}")]
    if scope == "ecc_from_s":
        worst = max(eccentricities(g, _range_set(meta, "S", g.n), "out"))
        return [CheckResult(f"max ecc over S <= {low}", worst <= low,
                            f"max ecc = {_shown(worst)}")]
    if scope == "ecc_out_all":
        U = _range_set(meta, "U", g.n)
        bad = next(((u, ecc) for u, ecc in zip(U, eccentricities(g, U, "out")) if ecc != low), None)
        return [CheckResult(f"all out-eccentricities over U == {low}", bad is None,
                            "ok" if bad is None else f"ecc({bad[0]}) = {_shown(bad[1])}")]
    raise MetadataError(f"unknown scope {scope!r}")


BUILDERS = {
    "kov": build_kov_layered,
    "5v8": build_diam_5v8,
    "6v10": build_diam_6v10,
    "3km4": build_diam_3km4,
    "8v13": build_diam_8v13,
    "ecc-und": build_ecc_lb_undirected,
    "ecc-dir": build_ecc_lb_directed,
}
