"""Shortest-path searches, exact distance oracles, and the degree-3 blow-up.

Which kernel runs follows the weight class of the graph and, through
the ring rule below, its depth:

* single searches (sssp and multi_source_distance, which return the
  distance row as a list, and eccentricity, is_connected and
  is_strongly_connected on them): one search from a source set.  When
  the ring rule admits it, it is one pass of the ring described next,
  with every source in bit 0, and each distance it settles writes that
  row entry for its vertices.  Otherwise it is a list search that walks
  the Python adjacency lists one arc at a time: plain BFS when every
  weight is 1, a deque-based 0/1 search when weights are 0 or 1, and
  binary-heap Dijkstra otherwise.  k_closest is always a truncated list
  search (see it).
* BFS trees (_bfs_parents, one per dominator of dense.additive2_spanner):
  a level-synchronous unit-weight search that records each vertex's
  first discoverer.  A level whose arcs number at least _STEP_COST, the
  ring step's fixed cost below, takes a numpy step over the CSR arrays,
  in which np.minimum.at finds each new head's first arc; a smaller
  level takes a scalar step over the adjacency lists.  This is the
  frontier switch of direction-optimizing BFS (Beamer, Asanovic and
  Patterson, SC 2012), so a long path costs about what a list BFS does
  and a dense graph's wide levels run in numpy.  perfbench's tracer does
  not wrap it, so its trees are not in ``search.calls``; their time is
  in the spanner's.
* many independent searches, reduced per source as they run:
  eccentricities (the largest distance, into every vertex or into a
  target set), max_distances (per vertex, the largest distance from the
  sources) and nearest (the closest member of a set, ties to the smaller
  id).  The exact oracles, the estimators' probe loops, the S-T sweeps
  and the st scope of hardness.verify_construction are built on them.
  A bit-parallel bucket queue (Dial's, one bit per source in a uint64
  word per vertex; "the ring" below) runs up to 64 sources per pass over
  int64 CSR arrays.  Its n-word slots are keyed by distance: a slot
  exists only while bits are pending at its distance, and a pass steps
  only through those distances (nearest stops once every source has met
  a member).  Each step ORs its frontier's arc bits into a k_w x n
  block, k_w being the number of distinct weights, and each row that
  gained bits becomes the slot at d + w or is ORed into it.  Unit
  weights (k_w = 1) keep one pending slot, which is a level-synchronous
  BFS with no weight gather.  When the weights are exactly 1..W, the
  slots form a ring of W + 1 indexed by d mod (W + 1) instead, which
  copies and merges no rows: on weights 1..8 the merges cost about 8% of
  a pass.  Each step costs the arcs of its frontier, in numpy, plus a
  fixed numpy overhead of about what a list search spends on 64 vertices
  and arcs, however few vertices settle there.  A single search's pass
  holds one bit, so it sets the words at its arcs' heads instead of
  ORing into them.
  A one-weight step pulls instead of pushing when _PULL times its
  frontier's arcs reach the graph's m arcs: every vertex ORs its
  in-neighbours' settled words (its out-neighbours' in an in-search)
  with one gather and one np.bitwise_or.reduceat over the reverse CSR
  arrays, with no ufunc.at and no repeat.  This is the pull half of
  direction-optimizing BFS, which MS-BFS (Then et al., PVLDB 8(4), 2014)
  uses for bit-parallel sources.  With _PULL = 4, a 64-source pass on
  random_strongly_connected(n, 4 n) took 0.27 ms against 0.62 ms for
  push only at n = 1000, and 3.8 against 5.7 ms at n = 10**4, and on a
  dense n = 240 graph 0.10 against 0.42 ms, on a 2-core Xeon.  A
  one-bit push only sets words, at about half the cost per arc, so a
  one-bit step pulls at _PULL / 2.  The ring of weights 1..W and the
  keyed slots always push: a prototype per-(rank, head) pull made
  ecc_2plusdelta slower on weights 1..8 at n = 700 (60 against 53 ms).

The ring rule decides, for a call with k sources, which of them run in
the ring, the others running one list search each; and for a single
search, whether its one pass runs.  Its words are counted against
16 (n + m), 128 bytes per vertex and edge, less than the graph's
adjacency lists take.

* depth: the first call on a graph in a direction runs a list search,
  and that search's row gives D, its largest finite distance, and K,
  its number of distinct finite distances; later calls reuse them.  For
  a many-source call that search is its first source's, on every weight
  class but unit weights (those batches skip the probe); for a single
  search it is the search itself, unit weights included.  A pass of b
  sources over keyed slots takes about min(D + W + 1, K b) steps, W
  being the largest weight, and one over the ring of weights 1..W, or
  over unit weights, steps through every distance, D + W + 1.  The k'
  sources left (k - 1 on that first call, k after) run in the ring only
  when 64 times the steps of their passes is at most k' (n + m), the
  list searches' scans; a single search is one pass with k' = 1,
  whatever its sources.  Building the arrays costs about one list search
  (rent or buy), so when no batch has built them, the single search
  after the probe is a list search too and the one after it asks the
  rule: the two searches of st_3approx on an undirected graph build
  none.  The keyed estimate, never above the ring's, is asked before the
  memory half, so a graph that fails it builds no arrays.
  On a directed 320-cycle with weights 1..10, a step took about 12 us and
  a Dijkstra about 0.18 us per vertex or arc, and the ring took 19 times
  as long as 10 list searches and 3 times as long as 64; the rule sends
  both to the list searches.  The pendant gadgets of
  stdiam.st_via_diameter have W about 2 n but K below 10, so they run in
  the ring.  One search on random_strongly_connected(n, 4 n) took 0.3 ms
  in the ring against 1.1 ms as a BFS at n = 1500, and 1.1-2 ms against
  23 ms at n = 10**4; a directed 2000-cycle (D = 1999) and a 300-path
  keep the list search.
* memory, before a pass: the k_w x n block and two slots must fit,
  (k_w + 2) n <= 16 (n + m), or no CSR arrays are built.  Unit weights
  always pass; random weights up to 10**6, nearly all distinct, fail.
* memory, during a pass: the live slots (the pending ones and the one
  settling) plus k_w may never exceed 16 (n + m) / n.  A pass that would
  go over stops before it allocates the slot; its batch and the rest of
  the call, or the single search, run as list searches, and the graph
  keeps a mark so that later calls in that direction skip the ring.

The ring runs on positive weights only: a graph with a 0-weight arc
builds no CSR arrays, so its searches, single and batched, are list
searches.

What stays slow on deep graphs: unit-weight batches skip the probe and
always run in the ring, so a long path or cycle pays one step per level;
and D and K come from one search, so a directed graph whose probe reaches
only a shallow part can still let a deep batch or search into the ring.

All tie-breaking is by (distance, vertex id) ascending, so every operation
here is deterministic.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np

from .graph import UNREACHABLE, Graph, Neighborhood

# Sources per batched search: one bit each in a uint64 word per vertex.
_WORD = np.iinfo(np.uint64).bits

# The ring rule (see the module docstring): ring words allowed per vertex
# and edge, and a ring step's fixed cost in list-search vertex and arc scans.
_RING_WORDS_PER_ITEM = 16
_STEP_COST = 64

# A one-weight ring step pulls over the reverse arcs when _PULL times its
# frontier's arcs reach the graph's arcs, and a one-bit step, whose push
# only sets words, when _PULL / 2 times do (see the module docstring).
_PULL = 4


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


def _list_distances(g: Graph, sources, direction: str):
    """One list search from a source set, by the graph's weight class."""
    adj = g.adjacency(direction)
    if g.unit_weights:
        return _bfs(adj, g.n, sources)
    if g.zero_one_weights:
        return _zero_one_bfs(adj, g.n, sources)
    return _dijkstra(adj, g.n, sources)


def _distances(g: Graph, sources, direction: str):
    """The row of one search from a source set: per vertex, the distance
    from (``out``) or to (``in``) the nearest source.

    Runs as one ring pass with every source in bit 0 when the ring rule
    admits it, and as a list search otherwise (see the module docstring).
    The rule's answer is kept per graph and direction.
    """
    key = _key(g, direction)
    ring = g._csr.get(("single", key))
    if ring is None:
        (depth, distinct), rows = _depth(g, sources, direction)
        if rows:
            return rows[0]
        if key in g._csr or ("rented", key) in g._csr:
            ring = g._csr[("single", key)] = _fits(g, direction, depth, distinct, 1)
        else:
            g._csr[("rented", key)] = True
    if ring and not g._csr.get(("full", key)):
        dist = np.full(g.n, -1, dtype=np.int64)
        try:
            for d, frontier, _ in _ring_bits(g, sources, direction, _all_bits(g.n), one_bit=True):
                dist[frontier] = d
        except _RingFull:
            g._csr[("full", key)] = True
        else:
            row = dist.tolist()
            return row if dist.min() >= 0 else [UNREACHABLE if d < 0 else d for d in row]
    return _list_distances(g, sources, direction)


def _key(g: Graph, direction: str) -> str:
    """The cache key of a direction: undirected graphs share one for both."""
    return direction if g.directed else "out"


def _csr(g: Graph, direction: str):
    """Array adjacency of one direction for the ring search, built on first use.

    Returns ``((indptr, degree, targets), steps, ranks)``: int64 arrays
    over the arcs, ``steps``, the distinct weights in increasing order as
    ints, and ``ranks``, an n x ceil(k_w / 64) uint64 array in which bit
    r of u's row is set when u has an arc of weight ``steps[r]`` (None
    when there is one weight, or when the weights are exactly 1..W).
    Such an arc u -> v has target r n + v: v's word in row r of the
    k_w x n block, or, when the weights are exactly 1..W and so r = w - 1,
    in the ring slot w - 1 past the next one.  On unit weights that is v.
    Returns None, and builds no array, when the graph has a 0-weight arc,
    so that its searches, single and batched, are list searches, or when
    the memory half of the ring rule fails, (k_w + 2) n > 16 (n + m).
    Undirected graphs keep one copy for both directions, since their
    reverse adjacency is the forward one.  The arcs come from the
    adjacency lists, or from the arrays that parse_graph seeded under
    ``("arcs", key)``, which the build takes out of the cache.
    """
    if not g.positive_weights:
        return None
    key = _key(g, direction)
    if key in g._csr:
        return g._csr[key]
    arcs = g._csr.pop(("arcs", key), None)
    adj = g.adjacency(direction)
    n = g.n
    degree = arcs[0] if arcs else np.fromiter(map(len, adj), dtype=np.int64, count=n)
    count = int(degree.sum())
    if g.unit_weights:
        steps, rank = np.ones(1, dtype=np.int64), 0
    else:
        weights = arcs[2] if arcs else np.fromiter((w for row in adj for _, w in row),
                                                   dtype=np.int64, count=count)
        steps, rank = np.unique(weights, return_inverse=True)
        rank = rank.reshape(-1)
    csr = None
    if len(steps) + 2 <= _slot_cap(g):
        heads = arcs[1] if arcs else np.fromiter((v for row in adj for v, _ in row),
                                                 dtype=np.int64, count=count)
        ranks = None
        if len(steps) > 1 and not _one_to_w(steps):
            ranks = np.zeros((n, -(-len(steps) // _WORD)), dtype=np.uint64)
            np.bitwise_or.at(ranks, (np.arange(n).repeat(degree), rank // _WORD),
                             np.left_shift(np.uint64(1), (rank % _WORD).astype(np.uint64)))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degree, out=indptr[1:])
        csr = ((indptr, degree, rank * n + heads), steps.tolist(), ranks)
    g._csr[key] = csr
    return csr


def _one_to_w(steps) -> bool:
    """Whether distinct positive weights ``steps`` are exactly 1..W, W > 1:
    then the ring search's slots form a ring of W + 1."""
    return 1 < len(steps) == steps[-1]


def _arcs(indptr, degree, frontier):
    """Indices of the arcs leaving a nonempty ``frontier``, and each vertex's arc count."""
    counts = degree[frontier]
    ends = counts.cumsum()
    arcs = np.arange(ends[-1])
    arcs += (indptr[frontier] - ends + counts).repeat(counts)
    return arcs, counts


def _bfs_parents(g: Graph, root: int):
    """Per vertex, the vertex that first discovers it in a BFS from ``root``
    over out-arcs, levels scanned in discovery order and arcs in adjacency
    order, as an int64 array: ``root`` for root, -1 when unreached.  Unit
    weights only (the CSR targets are then the heads); its numpy and
    scalar steps (see the module docstring) give the same tree.
    """
    (indptr, degree, heads), _, _ = _csr(g, "out")
    adj = g.adj_out
    seen = bytearray(g.n)
    marks = np.frombuffer(seen, dtype=np.uint8)  # a view: both steps mark seen
    seen[root] = 1
    parent = np.full(g.n, -1, dtype=np.int64)
    parent[root] = root
    kids, dads = [], []  # the scalar steps' discoveries, written at the end
    level, arcs = [root], len(adj[root])
    while len(level):
        if arcs >= _STEP_COST:
            level = np.asarray(level, dtype=np.int64)
            at, counts = _arcs(indptr, degree, level)
            found = heads[at]
            new = marks[found] == 0
            found = found[new]
            # Each new head's first arc, in arc order, discovers it.
            order = np.arange(len(found))
            first = np.full(g.n, len(found))
            np.minimum.at(first, found, order)
            first = first[found] == order
            tails = level.repeat(counts)[new][first]
            level = found[first]
            marks[level] = 1
            parent[level] = tails
            arcs = int(degree[level].sum())
            continue
        nxt, arcs = [], 0
        for x in level:
            for v, _ in adj[x]:
                if not seen[v]:
                    seen[v] = 1
                    nxt.append(v)
                    dads.append(x)
                    arcs += len(adj[v])
        kids += nxt
        level = nxt
    parent[kids] = dads
    return parent


def _all_bits(n: int):
    return np.full(n, np.iinfo(np.uint64).max, dtype=np.uint64)


def _slot_cap(g: Graph) -> int:
    """The n-word arrays a ring pass may hold: 16 (n + m) words, over n."""
    return _RING_WORDS_PER_ITEM * (g.n + g.m) // g.n


def _ring_rule(g: Graph, srcs: list, direction: str):
    """The ring rule (see the module docstring) for a nonempty source list.

    Returns (ring, rows): ``rows`` holds the list-search distance rows run
    to decide, one per source from the start of ``srcs``, and ``ring``
    says whether the sources after them run in the ring or as list
    searches.
    """
    if g._csr.get(("full", _key(g, direction))):
        return False, []
    if g.unit_weights:
        return True, []
    (depth, distinct), rows = _depth(g, srcs[:1], direction)
    return _fits(g, direction, depth, distinct, len(srcs) - len(rows)), rows


def _fits(g: Graph, direction: str, depth: int, distinct: int, left: int) -> bool:
    """The depth and memory halves of the ring rule for ``left`` sources,
    one bit each, given the probe's D and K."""
    scans = left * (g.n + g.m)
    deepest = depth + g.max_weight + 1
    # Keyed slots step only through pending distances, at most K per source;
    # this is the lower estimate, so it is asked before the arrays are built.
    full, part = divmod(left, _WORD)
    keyed = full * min(deepest, distinct * _WORD) + min(deepest, distinct * part)
    # The memory half: no arrays are built when the k_w x n block and two
    # slots would not fit next to the graph, or when it has a 0-weight arc.
    if not left or _STEP_COST * keyed > scans or _csr(g, direction) is None:
        return False
    # Unit weights and the ring of weights 1..W step through every distance
    # up to the last.
    if g.unit_weights or _one_to_w(_csr(g, direction)[1]):
        return _STEP_COST * -(-left // _WORD) * deepest <= scans
    return True


def _depth(g: Graph, sources, direction: str):
    """The ring rule's depth probe: ((D, K), rows), kept per graph and direction.

    D is the largest finite distance of one list search and K the number
    of distinct finite distances in it.  The first call runs that search
    from ``sources`` and returns its row; later calls reuse (D, K) and
    return no rows.  They only pick a kernel, so which search measured
    them never changes a result.
    """
    key = ("depth", _key(g, direction))
    depth = g._csr.get(key)
    if depth is not None:
        return depth, []
    row = _list_distances(g, sources, direction)
    finite = {d for d in row if d != UNREACHABLE}
    depth = g._csr[key] = max(finite, default=0), len(finite)
    return depth, [row]


class _RingFull(Exception):
    """A ring pass would hold more live slots than the memory rule allows."""


def _ring_bits(g: Graph, sources, direction: str, unseen, one_bit: bool = False):
    """Bit-parallel Dial search from up to 64 sources at once.

    The graph's weights are positive (see _csr).  Bit i of a vertex's
    uint64 word stands for ``sources[i]``, so each arc scan advances every
    search.  A dict keyed by distance holds one n-word slot per distance
    at which bits are pending, and a heap the pending distances; a pass
    steps through them in increasing order.  Settling slot d masks out the
    bits seen before and ORs every arc's bits into row r of a k_w x n
    block, ``steps[r]`` being the arc's weight; each row that gained bits
    then becomes slot d + steps[r] or is ORed into it.  When the weights
    are exactly 1..k_w, the block and one more slot form a ring instead:
    slot d mod (k_w + 1) holds distance d, and no row is copied or merged.
    On one weight, a step whose frontier holds enough of the arcs pulls
    its slot over the reverse arcs instead (see the module docstring).
    For each distance d that something settles at, in increasing order,
    yields (d, vertices, bits): the vertices some source first reaches at
    d, and the bits that do so.  ``unseen`` (n words, all ones on entry)
    loses each bit at the vertices it reaches.  With ``one_bit`` every
    source is seeded in bit 0 instead, so the pass is one search from the
    set.  Raises _RingFull, before allocating the slot, when the live slots
    plus k_w would exceed the memory rule's 16 (n + m) / n.
    """
    (indptr, degree, targets), steps, ranks = _csr(g, direction)
    n, k = g.n, len(steps)
    seeds = np.zeros(n, dtype=np.uint64)
    np.bitwise_or.at(seeds, np.asarray(sources, dtype=np.int64),
                     np.uint64(1) if one_bit else
                     np.left_shift(np.uint64(1), np.arange(len(sources), dtype=np.uint64)))
    # Slots are never cleared: bits left in one were settled at the smaller
    # distance they were pending at, so _settle's mask drops them wherever
    # they are carried on.
    if _one_to_w(steps):
        ring = np.zeros((k + 1, n), dtype=np.uint64)
        ring[0] = seeds
        flat = ring.reshape(-1)
        d = last = 0  # last: the largest tentative distance in the ring
        while d <= last:
            frontier, bits = _settle(ring[d % (k + 1)], unseen)
            if frontier.size:
                yield d, frontier, bits
                arcs, counts = _arcs(indptr, degree, frontier)
                if arcs.size:
                    last = d + k
                    heads = targets[arcs]
                    heads += (d + 1) % (k + 1) * n
                    heads %= flat.size
                    _scatter(flat, heads, bits, counts, one_bit)
            d += 1
        return
    # Live slots: the pending ones and the one settling.
    cap = _slot_cap(g) - k
    slots = {0: seeds}
    pending = [0]
    block = np.zeros((k, n), dtype=np.uint64)
    flat = block.reshape(-1)
    rows = list(block)
    alpha = _PULL // 2 if one_bit else _PULL
    pull = None  # the reverse arcs, once a step pulls
    while pending:
        d = heapq.heappop(pending)
        slot = slots.pop(d)
        frontier, bits = _settle(slot, unseen)
        if not frontier.size:
            continue
        yield d, frontier, bits
        if k == 1 and 0 < len(targets) <= alpha * int(degree[frontier].sum()):
            # The settled slot holds exactly the frontier's new bits, so each
            # vertex with in-arcs ORs its in-neighbours' words into the block.
            # The others keep the block's stale bits, which are all seen.
            if pull is None:
                pull = _reverse_arcs(g, direction)
            tails, starts, heads = pull
            flat[heads] = np.bitwise_or.reduceat(slot[tails], starts)
        else:
            arcs, counts = _arcs(indptr, degree, frontier)
            if not arcs.size:
                continue
            _scatter(flat, targets[arcs], bits, counts, one_bit)
        if k == 1:
            # One weight: the block becomes the only pending slot, and the
            # settled slot's array the next block.
            slots[d + steps[0]] = flat
            pending.append(d + steps[0])
            flat = slot
            continue
        # The rows that gained bits: the ranks of the frontier's arcs.
        for j, word in enumerate(np.bitwise_or.reduce(ranks[frontier]).tolist()):
            for r in _bit_indices(word):
                r += _WORD * j
                at = d + steps[r]
                into = slots.get(at)
                if into is not None:
                    into |= rows[r]
                elif len(slots) + 2 > cap:
                    raise _RingFull
                else:
                    slots[at] = rows[r].copy()
                    heapq.heappush(pending, at)


def _reverse_arcs(g: Graph, direction: str):
    """The reverse arcs of a one-weight ring search: ``(tails, starts,
    heads)``, where ``tails`` lists each vertex's in-neighbours (its
    out-neighbours for an ``in`` search) grouped by vertex, and ``starts``
    are the offsets of the nonempty groups, which belong to the vertices
    ``heads``.  An undirected graph reads its one copy of the arrays."""
    (indptr, degree, tails), _, _ = _csr(g, "in" if direction == "out" else "out")
    heads = degree.nonzero()[0]
    return tails, indptr[heads], heads


def _scatter(flat, heads, bits, counts, one_bit):
    """OR each frontier vertex's bits into the words at the heads of its
    arcs; a one-bit pass only sets them, which is the same and faster."""
    if one_bit:
        flat[heads] = 1
    else:
        np.bitwise_or.at(flat, heads, bits.repeat(counts))


def _settle(slot, unseen):
    """Settle a slot: drop its seen bits, and return the vertices that
    hold bits and those bits."""
    slot &= unseen
    unseen ^= slot
    frontier = (slot != 0).nonzero()[0]
    return frontier, slot[frontier]


def _each(g: Graph, srcs: list, direction: str, from_row, from_batch):
    """Run every source of a nonempty list, in order, under the ring rule.

    ``from_row`` takes the distance row of one list search, and
    ``from_batch`` runs one ring pass over up to 64 sources; it must keep
    nothing from a pass that raises _RingFull.  Such a pass marks the
    graph and direction, so later calls skip the ring, and its batch and
    the rest run as list searches.
    """
    ring, rows = _ring_rule(g, srcs, direction)
    for row in rows:
        from_row(row)
    rest = srcs[len(rows):]
    lo = 0
    if ring:
        try:
            for lo in range(0, len(rest), _WORD):
                from_batch(rest[lo:lo + _WORD])
            return
        except _RingFull:
            g._csr[("full", _key(g, direction))] = True
    for s in rest[lo:]:
        from_row(_list_distances(g, (s,), direction))


def _source_set(g: Graph, sources) -> list:
    """Sorted distinct vertex ids; ValueError when empty or out of range."""
    srcs = sorted(set(sources))
    if not srcs:
        raise ValueError("vertex set must be nonempty")
    if srcs[0] < 0 or srcs[-1] >= g.n:
        raise ValueError("vertex id out of range")
    return srcs


def eccentricities(g: Graph, sources, direction: str = "out", targets=None) -> list:
    """Exact eccentricity of each listed source, in the order given.

    Entry i is max over v of d(sources[i], v) ("out") or d(v, sources[i])
    ("in"), v ranging over ``targets`` (every vertex when None), and
    UNREACHABLE when some such v is unreachable.
    """
    srcs = _listed(g, sources)
    if not srcs:
        return []
    cols = range(g.n) if targets is None else _source_set(g, targets)
    picked = None if targets is None else _mask(g, cols)
    out = []

    def from_batch(batch):
        unseen = _all_bits(g.n)
        # (d, the bits that reach some target first at d)
        levels = []
        for d, frontier, bits in _ring_bits(g, batch, direction, unseen):
            if picked is not None:
                bits = bits[picked[frontier]]
            if bits.size:
                levels.append((d, int(np.bitwise_or.reduce(bits))))
        ecc = [UNREACHABLE] * len(batch)
        # The sources that reach every target.
        missed = unseen if picked is None else unseen[picked]
        todo = ~int(np.bitwise_or.reduce(missed)) & ((1 << len(batch)) - 1)
        for d, word in reversed(levels):
            hit = word & todo
            todo ^= hit
            for i in _bit_indices(hit):
                ecc[i] = d
        out.extend(ecc)

    _each(g, srcs, direction, lambda row: out.append(max([row[v] for v in cols])), from_batch)
    return out


def nearest(g: Graph, sources, members, direction: str = "out") -> list:
    """Per listed source, the closest member and its distance, in the order given.

    Entry i is (t, d) for the t in ``members`` with the smallest
    (d(sources[i], t), t) ("out") or (d(t, sources[i]), t) ("in"), so ties
    go to the smaller id; (the smallest member, UNREACHABLE) when no
    member is reachable.  A ring pass stops once each of its sources has
    met a member.
    """
    srcs = _listed(g, sources)
    cols = _source_set(g, members)
    if not srcs:
        return []
    picked = _mask(g, cols)
    out = []

    def from_batch(batch):
        found = [(cols[0], UNREACHABLE)] * len(batch)
        todo = np.uint64((1 << len(batch)) - 1)
        for d, frontier, bits in _ring_bits(g, batch, direction, _all_bits(g.n)):
            hit = picked[frontier]
            if not hit.any():
                continue
            # Members arrive in id order, so the first to carry a bit is
            # that source's nearest: bit i is new at the member where the
            # running OR first gains it.
            first = np.bitwise_or.accumulate(bits[hit] & todo)
            new = first.copy()
            new[1:] ^= first[:-1]
            for v, word in zip(frontier[hit][new != 0].tolist(), new[new != 0].tolist()):
                for i in _bit_indices(word):
                    found[i] = (v, d)
            todo &= ~first[-1]
            if not todo:
                break
        out.extend(found)

    _each(g, srcs, direction, lambda row: out.append(_nearest_in_row(row, cols)), from_batch)
    return out


def _listed(g: Graph, sources) -> list:
    """The sources as a list, repeats kept; ValueError when one is out of range."""
    srcs = list(sources)
    if srcs and (min(srcs) < 0 or max(srcs) >= g.n):
        raise ValueError("source id out of range")
    return srcs


def _mask(g: Graph, vertices):
    picked = np.zeros(g.n, dtype=bool)
    picked[vertices] = True
    return picked


def _bit_indices(word: int):
    """The positions of the set bits of a nonnegative int, lowest first."""
    while word:
        yield (word & -word).bit_length() - 1
        word &= word - 1


def _nearest_in_row(row, members):
    d, t = min((row[t], t) for t in members)
    return t, d


def max_distances(g: Graph, sources, direction: str = "out") -> list:
    """Per vertex v, the max over s in sources of d(s, v) ("out") or d(v, s) ("in").

    An entry is UNREACHABLE when some source and v are not connected that way.
    """
    srcs = _source_set(g, sources)
    far = []  # per vertex, the largest distance of the list-search rows, if any ran
    ring_far = np.zeros(g.n, dtype=np.int64)
    missed = np.zeros(g.n, dtype=bool)

    def from_row(row):
        far[:] = map(max, far, row) if far else row

    def from_batch(batch):
        unseen = _all_bits(g.n)
        last = np.zeros(g.n, dtype=np.int64)  # the distance that last reached v
        for d, frontier, _ in _ring_bits(g, batch, direction, unseen):
            last[frontier] = d
        np.maximum(ring_far, last, out=ring_far)
        missed[(unseen & np.uint64((1 << len(batch)) - 1)) != 0] = True

    _each(g, srcs, direction, from_row, from_batch)
    out = ring_far.tolist()
    if far:
        out[:] = map(max, out, far)
    for v in missed.nonzero()[0].tolist():
        out[v] = UNREACHABLE
    return out


def sssp(g: Graph, source: int, direction: str = "out") -> list:
    """Exact single-source shortest paths, as a list indexed by vertex.

    ``direction="out"`` gives d(source, v); ``"in"`` gives d(v, source).
    Unreachable vertices get the UNREACHABLE sentinel.
    """
    if not 0 <= source < g.n:
        raise ValueError(f"source {source} out of range")
    return _distances(g, (source,), direction)


def multi_source_distance(g: Graph, sources, direction: str = "out") -> list:
    """dist[v] = min over s in sources of d(s, v) (out) or d(v, s) (in)."""
    return _distances(g, _source_set(g, sources), direction)


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
    * other positive weights: a heap search that stops at the s-th pop.
      Every vertex at distance d is pushed at d before the first pop at
      d, so the pops come in exact (distance, id) order.  It scans the
      arcs of the first s - 1 vertices.
    * with 0-weight edges: the same heap search, but a vertex at distance
      d can then be pushed by another one popped at d, so it settles the
      whole level of the s-th closest vertex, scans its arcs, and sorts.
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
        if len(settled) == s and g.positive_weights:
            break
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
    return max(sssp(g, v, direction), default=0)


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
    """max over s in S, t in T of d(s, t), by exact searches from S.

    ValueError when S or T is empty or holds an id out of range.
    """
    T = _source_set(g, T)
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
    if g.directed:
        g = Graph(g.n, g.edges, directed=False)
    return UNREACHABLE not in _distances(g, (0,), "out")


def is_strongly_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    # An undirected graph's two directions are one search.
    return all(UNREACHABLE not in _distances(g, (0,), direction)
               for direction in (("out", "in") if g.directed else ("out",)))


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
