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

Ids within a layer are mixed-radix: an S or T tuple is read in base n, a
middle vertex as t = k-2 base-n vector digits followed by t+1 base-d
coordinate digits.  Each block of edges between adjacent layers is int64
columns by index arithmetic over all mid indices at once: middle level j
changes one digit, of place value n^(j-1) d^(t+1), and a boundary is a
mask over the digits ANDed with the vectors' ones, whose np.nonzero in C
order lists its edges.  Pruning keeps a middle vertex exactly when it
lies on some S-T path, by one forward and one backward sweep over the
blocks; S and T always stay, and one cumsum renumbers.  The builders
add their gadget edges as arrays too and hand the columns to
graph._from_columns, so no construction makes a tuple per edge.  The
four diameter gadgets share one layout past the core (_copies).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product
from random import Random

import numpy as np

from .graph import Graph, _from_columns, _join, load_graph, save_graph
from .search import UNREACHABLE, eccentricities, exact_diameter, nearest, sssp

DEFAULT_EDGE_CAP = 2_000_000
_SHOWN_BITS = 10_000


class ConstructionSizeError(ValueError):
    """Requested construction exceeds the configured size cap.

    ``required`` is the edge estimate, or None for a shape refused before
    its estimate, of over _SHOWN_BITS bits, was formed.  Longer counts are
    shown as powers of two, under Python's integer-string limit.
    """

    def __init__(self, required: int | None, cap: int):
        def shown(x):
            return str(x) if x.bit_length() <= _SHOWN_BITS else f"2^{x.bit_length() - 1}"

        need = f"2^{_SHOWN_BITS} or more" if required is None else f"~{shown(required)}"
        super().__init__(f"construction needs {need} edges, cap is {shown(cap)}")
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
    bits = _random_bits(rng, k * n * d)
    vecs = [[bits[(i * n + j) * d:(i * n + j + 1) * d] for j in range(n)] for i in range(k)]
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


def _random_bits(rng: Random, count: int) -> list:
    """``count`` draws of ``rng.randint(0, 1)``, from the same words.

    CPython's randint(0, 1) keeps the top 2 bits of one 32-bit word, and
    draws again while they read 2 or 3.  So each round draws one word per
    bit still needed, in one getrandbits whose first word is its least
    significant, and keeps the words whose top bits read 0 or 1; no word
    past the last bit is drawn, so ``rng`` goes on as after the randints.
    """
    bits = []
    while len(bits) < count:
        need = count - len(bits)
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        top = np.frombuffer(words, dtype="<u4") >> 30
        bits += top[top < 2].tolist()
    return bits


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


@dataclass
class _LayeredCore:
    """Pruned layered graph with tagged edges and id arithmetic.

    ``columns`` holds the edges as int64 (u, v, left_layer) arrays; the
    tag gives the left layer index, which the weighted diameter gadget
    needs to pick out the middle-level edges.  S occupies ids
    [0, s_size); T occupies [t_lo, t_lo + s_size).
    """

    k: int
    n: int
    d: int
    vertex_count: int
    columns: tuple       # (u, v, left_layer) int64 arrays
    sets: dict           # name -> (lo, hi)
    t_lo: int

    def planted(self, inst: OVInstance):
        """The ids of the planted S and T tuples, or None when ``inst`` plants none."""
        if inst.planted is None:
            return None
        s, t = (int(np.ravel_multi_index(ids, (self.n,) * (self.k - 1)))
                for ids in (inst.planted[:-1], inst.planted[1:]))
        return s, self.t_lo + t


def check_size(name: str, k: int, n: int, d: int, max_edges: int, L: int = 0) -> None:
    """Raise ConstructionSizeError when BUILDERS[name] on k sets of n
    vectors of dimension d (path length L for ecc-dir) would need more than
    ``max_edges`` edges, by the layered graph's estimate but for ecc-dir.
    It reads only the shape, so gen asks it before drawing the vectors; a
    shape that gen_ov or the builder rejects passes."""
    if min(k - 1, n, d - 1) < 1 or (name == "ecc-dir" and L < 1):
        return
    if name == "ecc-dir":
        est = n * (L + 3) + n * d
    elif (k - 1) * (n.bit_length() + d.bit_length() - 2) >= max(max_edges.bit_length(),
                                                                _SHOWN_BITS):
        # The estimate is at least (n d)^(k-1), whose bit length this bounds
        # from below, so a shape this far past the cap is refused before the
        # estimate, a number with millions of digits at k = 10^6, is formed.
        raise ConstructionSizeError(None, max_edges)
    else:
        t = k - 2
        s_size = n ** (k - 1)
        mid_size = (n ** t) * (d ** (t + 1))
        est = 2 * s_size + (t + 1) * mid_size + (t + 2) * s_size * (d ** (t + 1))
    if est > max_edges:
        raise ConstructionSizeError(est, max_edges)


def _build_layered(inst: OVInstance, prune: bool = True,
                   max_edges: int = DEFAULT_EDGE_CAP) -> _LayeredCore:
    k, n, d = inst.k, inst.n, inst.d
    check_size("kov", k, n, d, max_edges)
    t = k - 2
    s_size = n ** (k - 1)
    x_size = d ** (t + 1)
    mid_size = (n ** t) * x_size
    # ones[j][i, c]: vector i of set j is 1 on coordinate c.
    ones = [np.array(vecs, dtype=bool).reshape(n, d) for vecs in inst.vectors]

    # Layer offsets: L0, then t+1 middle layers, then the last layer.
    off = [0] + [s_size + j * mid_size for j in range(t + 2)]
    off.append(off[-1] + s_size)
    # The digits of every mid index: t base-n vector digits, then t+1
    # base-d coordinates x_0..x_t.
    mid = np.arange(mid_size, dtype=np.int64)
    vec = [mid // (n ** (t - 1 - j) * x_size) % n for j in range(t)]
    x = [mid // d ** (t - r) % d for r in range(t + 1)]
    tuples = mid // x_size       # the vector digits as one base-n number

    # Left boundary: (a_0..a_t) -- (a_0..a_{t-1}, x) when each a_j is 1 on
    # coordinates x_0..x_{t-j}.
    ok = np.ones(mid_size, dtype=bool)
    for j in range(t):
        for r in range(t - j + 1):
            ok &= ones[j][vec[j], x[r]]
    at, last = np.nonzero(ones[t].T[x[0]] & ok[:, None])
    blocks = [(off[0] + tuples[at] * n + last, off[1] + at)]
    # Middle level j: forget the last kept left-side vector, introduce the
    # next right-side one; unconditional on coordinates.  That vector's digit
    # has place value n^(j-1) d^(t+1) in the mid index.
    for j in range(1, t + 1):
        place = n ** (j - 1) * x_size
        head = off[j + 1] + mid - mid // place % n * place
        blocks.append(((off[j] + mid).repeat(n),
                       (head[:, None] + np.arange(0, n * place, place)).ravel()))
    # Right boundary: (b_1..b_{t+1}) -- (b_2..b_{t+1}, x) when each b_j is 1
    # on coordinates x_{t+1-j}..x_t.
    ok = np.ones(mid_size, dtype=bool)
    for j in range(2, t + 2):
        for r in range(t + 1 - j, t + 1):
            ok &= ones[j][vec[j - 2], x[r]]
    at, first = np.nonzero(ones[1].T[x[t]] & ok[:, None])
    blocks.append((off[t + 1] + at, off[t + 2] + first * n ** t + tuples[at]))

    alive = np.ones(off[-1], dtype=bool)
    if prune:
        # Each block runs from one layer to the next, so one sweep each way
        # finds the middle vertices reached from S and those reaching T.
        reached = np.zeros(off[-1], dtype=bool)
        reached[:off[1]] = reached[off[-2]:] = True
        reaching = reached.copy()
        for u, v in blocks:
            reached[v[reached[u]]] = True
        for u, v in reversed(blocks):
            reaching[u[reaching[v]]] = True
        alive = reached & reaching
        keep = [alive[u] & alive[v] for u, v in blocks]
        blocks = [(u[kept], v[kept]) for (u, v), kept in zip(blocks, keep)]

    new_id = np.concatenate(([0], alive.cumsum()))
    tags = np.arange(t + 2).repeat([len(u) for u, _ in blocks])
    u, v = (new_id[np.concatenate(col)] for col in zip(*blocks))
    bounds = [(int(new_id[off[layer]]), int(new_id[off[layer + 1]])) for layer in range(k + 1)]
    sets = {"S": bounds[0], **{f"L{layer}": bounds[layer] for layer in range(1, k)},
            "T": bounds[k]}
    return _LayeredCore(k, n, d, int(new_id[-1]), (u, v, tags), sets, bounds[k][0])


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


def _turns(*ids):
    """The entries of equal-length id arrays in turn: the first of each,
    then the second of each, and so on."""
    return np.column_stack(ids).ravel()


def _chains(start, first: int, length: int, *end):
    """One row per entry of ``start``: that vertex, ``length`` new vertices
    (row p takes first + p*length onward), then ``end``'s entry if given."""
    new = first + np.arange(len(start) * length).reshape(len(start), length)
    return np.column_stack((start, new, *end))


def _both_ways(chain) -> tuple:
    """The arcs of the undirected paths along ``chain``'s rows, each edge as
    its forward then its backward arc: (tails, heads), one row per path."""
    a, b = chain[:, :-1], chain[:, 1:]
    shape = (len(chain), 2 * a.shape[1])
    return np.stack((a, b), axis=2).reshape(shape), np.stack((b, a), axis=2).reshape(shape)


def build_kov_layered(inst: OVInstance, max_edges: int = DEFAULT_EDGE_CAP,
                      prune: bool = True) -> ConstructionOutput:
    """The bare layered graph: S-T distance gap k versus 3k-2."""
    core = _build_layered(inst, prune=prune, max_edges=max_edges)
    k = inst.k
    u, v, _ = core.columns
    g = _from_columns(core.vertex_count, False, u, v, np.ones_like(u))
    return ConstructionOutput("kov", g, dict(core.sets), k, 3 * k - 2, core.planted(inst), "st",
                              _params(inst))


def _params(inst: OVInstance, **extra) -> dict:
    out = {"k": inst.k, "n": inst.n, "d": inst.d, "mode": inst.mode,
           "seed": inst.seed}
    out.update(extra)
    return out


def _copies(core: _LayeredCore, inst: OVInstance):
    """The diameter gadgets' layout from id core.vertex_count on: S' and
    T' copy S and T, and the cliques S'' and T'' hold a vertex per vector
    of the first and of the last set.  Returns their first ids, the core's
    sets with these four, and the witness: the copies of the planted S and
    T tuples, or None."""
    s_size = core.n ** (core.k - 1)
    s1 = core.vertex_count
    s2 = s1 + s_size
    t1 = s2 + core.n
    t2 = t1 + s_size
    sets = {**core.sets, "S'": (s1, s2), "S''": (s2, t1), "T'": (t1, t2), "T''": (t2, t2 + core.n)}
    planted = core.planted(inst)
    witness = None if planted is None else (s1 + planted[0], t1 + planted[1] - core.t_lo)
    return (s1, s2, t1, t2), sets, witness


def _diam_gadget_k3(inst: OVInstance, weighted: bool,
                    max_edges: int) -> ConstructionOutput:
    """Shared body of the 5-vs-8 and 6-vs-10 diameter constructions."""
    if inst.k != 3:
        raise ValueError("this construction needs a 3-OV instance")
    core = _build_layered(inst, max_edges=max_edges)
    n = inst.n
    heavy = 2 if weighted else 1  # weight of middle-level and clique edges
    (s1, s2, t1, t2), sets, witness = _copies(core, inst)

    u, v, tag = core.columns
    i = np.arange(n * n)            # the S tuple (a, b) and the T tuple (b, a)
    a, b = np.divmod(i, n)
    lo, hi = np.triu_indices(n, 1)
    g = _from_columns(t2 + n, False, *_join(
        (u, v, np.where(tag == 1, heavy, 1)),
        (_turns(i, core.t_lo + i), _turns(s1 + i, t1 + i), 1),
        (_turns(s2 + lo, t2 + lo), _turns(s2 + hi, t2 + hi), heavy),
        (_turns(s2 + a, t2 + a), _turns(i, core.t_lo + b * n + a), 1)))
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


def _diam_gadget_directed(inst: OVInstance, name: str,
                          max_edges: int) -> ConstructionOutput:
    """Shared body of the 3k-4 vs 5k-7 and 8 vs 13 diameter constructions.

    One-way shortcuts leave the clique towards the matched copy S' and, on
    the other side, run from T' into the clique; pointing them at S itself
    would let a path re-enter S two edges after leaving it and collapse
    the planted gap to 4k-4 once k > 3.  Every other edge is undirected,
    an arc each way, and the matchings and hub spokes are paths of k-2
    edges whose k-3 inner vertices are numbered path by path.
    """
    k, n = inst.k, inst.n
    core = _build_layered(inst, max_edges=max_edges)
    s_size = n ** (k - 1)
    (s1, s2, t1, t2), sets, witness = _copies(core, inst)
    inner = k - 3
    paths_lo = t2 + n

    def paths(start, end, first):
        return _both_ways(_chains(start, first, inner, end))

    u, v, _ = core.columns
    i = np.arange(s_size)
    lo, hi = np.triu_indices(n, 1)
    layered = _both_ways(np.column_stack((u, v)))
    # The S -- S' and T -- T' matchings, in turn.
    matched = paths(_turns(i, core.t_lo + i), _turns(s1 + i, t1 + i), paths_lo)
    cliques = _both_ways(np.column_stack((_turns(s2 + lo, t2 + lo), _turns(s2 + hi, t2 + hi))))
    # For each a, the S tuple (a, rest...) = i and the T tuple (rest..., a):
    # a hub spoke and a one-way shortcut on each side.
    a, rest = np.divmod(i, n ** (k - 2))
    t_tuple = rest * n + a
    spoke_lo = paths_lo + 2 * s_size * inner
    tails, heads = (arcs.reshape(s_size, 2, -1) for arcs in paths(
        _turns(s2 + a, t2 + a), _turns(i, core.t_lo + t_tuple), spoke_lo))
    spokes = (np.column_stack((tails[:, 0], s2 + a, tails[:, 1], t1 + t_tuple)),
              np.column_stack((heads[:, 0], s1 + i, heads[:, 1], t2 + a)))
    u, v = (np.concatenate([arcs[side].ravel() for arcs in (layered, matched, cliques, spokes)])
            for side in (0, 1))
    g = _from_columns(paths_lo + 4 * s_size * inner, True, u, v, np.ones_like(u))
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
    i = np.arange(s_size)
    s_tails = _chains(i, core.vertex_count, k - 2)
    hub = core.vertex_count + s_size * (k - 2)
    t_tail_lo = hub + 1
    t_tails = _chains(core.t_lo + i, t_tail_lo, k - 1)
    total = t_tail_lo + s_size * (k - 1)
    g = _from_columns(total, False, *_join(
        core.columns[:2] + (1,),
        (s_tails[:, :-1].ravel(), s_tails[:, 1:].ravel(), 1),
        (s_tails[:, -1], hub, 1),
        (t_tails[:, :-1].ravel(), t_tails[:, 1:].ravel(), 1)))

    sets = dict(core.sets)
    sets["HUB"] = (hub, hub + 1)
    sets["TTAILS"] = (t_tail_lo, total)
    planted = core.planted(inst)
    witness = None if planted is None else (
        planted[0], t_tail_lo + (planted[1] - core.t_lo) * (k - 1) + (k - 2))
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
    check_size("ecc-dir", 2, n, d, max_edges, L)
    first, second = (np.array(vecs, dtype=bool).reshape(n, d) for vecs in inst.vectors)
    used = first.any(axis=0)
    coords = n + np.arange(used.sum())
    vpath_lo = n + len(coords)
    x_lo = vpath_lo + n * (L + 1)
    total = x_lo + L

    # Row i holds the arcs of U vertex i (i -> X, X's end -> i, then i -> each
    # coordinate it sets), then of second-set vector i (each coordinate it
    # sets -> its path's start, then the path); the masks keep the arcs.
    i = np.arange(n)[:, None]
    row = np.broadcast_to(coords, (n, len(coords)))
    u_arcs = np.column_stack((np.ones((n, 2), dtype=bool), first[:, used]))
    u_tails = np.column_stack((i, np.full(n, x_lo + L - 1), np.broadcast_to(i, row.shape)))
    u_heads = np.column_stack((np.full(n, x_lo), i, row))
    path = vpath_lo + (L + 1) * i + np.arange(L + 1)
    v_arcs = np.column_stack((second[:, used], np.ones((n, L), dtype=bool)))
    v_tails = np.column_stack((row, path[:, :-1]))
    v_heads = np.column_stack((np.broadcast_to(path[:, :1], row.shape), path[:, 1:]))
    x_path = x_lo + np.arange(L)
    g = _from_columns(total, True, *_join(
        (u_tails[u_arcs], u_heads[u_arcs], 1),
        (x_path[:-1], x_path[1:], 1),
        (v_tails[v_arcs], v_heads[v_arcs], 1)))
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
    save_graph(out.graph, graph_path)
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
    if not (type(lo) is int and type(hi) is int and 0 <= lo < hi <= n):
        raise MetadataError(f"set {name!r} bounds {[lo, hi]!r} are not a nonempty "
                            f"range within the graph's {n} vertices")
    return range(lo, hi)


def _shown(dist) -> str:
    return "unreachable" if dist == UNREACHABLE else str(dist)


def _promise(meta, key) -> int:
    value = meta.get(key)
    # Ints are checked by type: JSON's true and false load as bools, which are ints.
    if type(value) is not int:
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
                and all(type(w) is int and 0 <= w < g.n for w in witness)):
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
