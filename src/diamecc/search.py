"""Shortest-path searches, exact distance oracles, and the degree-3 blow-up.

Which kernel runs follows the weight class of the graph and, through
the ring rule below, its depth:

* single searches (_distances, whose row is an int64 array with -1 where
  unreachable, under is_connected, is_strongly_connected and eccen; sssp
  and multi_source_distance, and eccentricity on them, return it as a
  list, a list search's own list unconverted): one search from a source
  set.  When the ring rule admits it, it is one pass of the ring
  described next, with every source in bit 0, and each distance it
  settles writes that row entry for its vertices.  The pass stops once
  every vertex is settled, so a search that reaches them all never scans
  its last level's arcs (on a dense graph, a pull over all m), or, when
  asked, once k marked vertices are settled, the rest left at -1
  (ecc_2plusdelta reads only its half + 1 nearest active vertices).
  Otherwise it is a list search that walks the Python adjacency lists one
  arc at a time: plain BFS when every weight is 1, a deque-based 0/1
  search when weights are 0 or 1, and binary-heap Dijkstra otherwise;
  only they build the lists, from the arc view.  k_closest is one
  truncated heap search over the arc view (_ball); closest below batches
  the same balls.
* BFS trees (_bfs_parents, one per dominator of dense.additive2_spanner):
  a level-synchronous unit-weight search over the out-arc view that
  records each vertex's first discoverer.  Each level is one numpy step:
  _arcs gathers the level's arcs, the parent row drops the heads already
  found, and np.minimum.at finds each new head's first arc in a table
  made once per tree.  It stops once every vertex has a parent, so a
  spanning tree never scans its last level's arcs, and it reads no
  adjacency list.  A step costs about 10 us plus its arcs: 19-25 ms for
  a parsed 2000-vertex path, against 1.4 ms for a list BFS over built
  lists, and 0.07-0.11 ms for the few wide levels of a tree of
  random_connected(240, 7200), on a 2-core Xeon.
  perfbench's tracer does not wrap it: its trees are not in
  ``search.calls``, and their time is in the spanner's.
* many independent searches, reduced per source as they run:
  eccentricities (the largest distance, into every vertex or into a
  target set), max_distances (per vertex, the largest distance from the
  sources; its int64 core _max_row can cap it at a level, where each
  pass stops) and closest (the s closest vertices, k_closest's ball, as
  flat int64 (owner, member, distance) arrays).  The exact oracles, the
  estimators' probe loops, the S-T sweeps, the st scope of
  hardness.verify_construction and dense.tz_center's balls are built on
  them; exact_diameter, on an undirected graph, runs only the sources that
  one search from vertex 0 does not rule out.  None of them runs the
  depth probe: each pass is bounded by its own budget.  On unit weights,
  when every source has s - 1 or more distinct neighbours, closest reads
  the balls off a neighbour view, the arc view sorted by (tail, head)
  and deduplicated, built per call when every source's arc degree
  reaches s - 1; otherwise it runs ring passes whenever the encoding
  exists.
  A bit-parallel bucket queue (Dial's, one bit per source in a uint64
  word per vertex; "the ring" below) runs up to 64 sources per pass over
  the arc view and the ring's int64 targets (_csr).  Its n-word slots
  are keyed by distance: a slot exists only while bits are pending at
  its distance, and a pass steps only through those distances (closest
  stops once every ball is full: a full source's bit is cleared from the
  unseen words, so the next level drops it; eccentricities into targets
  once no target word holds an unseen bit of the batch).  Each step ORs
  its frontier's arc bits into a k_w x n block, k_w being the number of
  distinct weights, and each row that gained bits becomes the slot at
  d + w or is ORed into it.  Unit weights (k_w = 1) keep one pending
  slot, which is a level-synchronous BFS with no weight gather.  When
  the weights are exactly 1..W, the slots form a ring of W + 1 indexed by
  d mod (W + 1) instead, which copies and merges no rows: on weights
  1..8 the merges cost about 8% of a pass.  Each step costs the arcs of
  its frontier, in numpy, plus a fixed numpy overhead of about what a
  list search spends on 64 vertices and arcs and the settle of all n
  words of its slot, however few vertices settle there.  A single
  search's pass holds one bit, so it sets the words at its arcs' heads
  instead of ORing into them.
  A one-weight step pulls instead of pushing when _PULL times its
  frontier's arcs reach the graph's m arcs: every vertex ORs its
  in-neighbours' settled words (its out-neighbours' in an in-search)
  with one gather and one np.bitwise_or.reduceat over the reverse arc
  view, with no ufunc.at and no repeat.  This is the pull half of
  direction-optimizing BFS, which MS-BFS (Then et al., PVLDB 8(4), 2014)
  uses for bit-parallel sources.  With _PULL = 4, a 64-source pass on
  random_strongly_connected(n, 4 n) took 0.27 ms against 0.62 ms for
  push only at n = 1000, and 3.8 against 5.7 ms at n = 10**4, and on a
  dense n = 240 graph 0.10 against 0.42 ms, on a 2-core Xeon.  A
  one-bit push only sets words, at about half the cost per arc, so a
  one-bit step pulls at _PULL / 2.  The ring of weights 1..W and the
  keyed slots always push: a prototype per-(rank, head) pull made
  ecc_2plusdelta slower on weights 1..8 at n = 700 (60 against 53 ms).
* nearest (per source, the closest member of a set, ties to the smaller
  id): on positive weights one search from the members over the reverse
  arcs, under the single-search ring rule, which labels each level's
  vertices with the smallest label among their tight neighbours (a
  member's is its own id) and stops once every source is settled (see
  _label_levels); with a 0-weight arc, one list search per source.  From
  the S-T sweep's sample to n / 10 members of random_connected(n, 3 n),
  a call took 0.12 against 0.19-0.28 ms for 64-source passes at n = 150,
  and 0.36 against 1.0-1.7 ms at n = 240 with weights 1..6, on a 2-core
  Xeon.  A list search's row is labelled one distance at a time, so on
  nearly distinct weights a call of a few sources can cost more than
  their own list searches.

The ring rule decides which searches run in the ring, the others running
one list search each.  Its words are counted against 16 (n + m), 128
bytes per vertex and edge: the arc view and the ring's targets take 16
per vertex and 8 per arc on one weight, 24 off it, and the lists a list
search builds about 64 and 95 (see Graph).

* time, during a pass: a ring step costs c = 64 + n // 64 list-search
  vertex and arc scans (_step_cost): its fixed numpy overhead and its
  n-word settle.  Every pass has a budget of the list searches it
  replaces, n + m scans for a single search and b (n + m) for a batch of
  b sources, and gives up once c times its steps would exceed it (see
  _ring_bits): on unit weights and the ring of weights 1..W, a pass that
  has settled distance d takes at least d + W + 1 steps, as the ring
  steps through every distance; on keyed slots, which step only through
  pending distances, it counts the steps that settled something, and one
  more.  A pass that gives up hands its batch, and the rest of the call,
  to list searches (closest's to _ball).  A full batch of 64 sources that
  gives up marks the graph and direction, so later batched calls in it
  run as list searches; a single search's or a smaller batch's budget
  says little about a full batch's, so those fall back alone.  On a
  directed 320-cycle with weights 1..10, a step took about 12 us and a
  Dijkstra about 0.18 us per vertex or arc, and a whole pass 19 times as
  long as 10 list searches and 3 times as long as 64.  On the pendant
  gadgets of stdiam.st_via_diameter over random_connected(150,
  450, max_w=3), W about 2 n, a single search took 10-13 steps against a
  budget of 11.5-12, but a pass of up to 64 sources 17-27 against 735-771.
* the depth probe, for single searches only: the first single search on
  a graph in a direction is the probe.  On unit weights and keyed slots
  it is a one-bit ring pass under that budget, which gives up for a list
  search; on the ring of weights 1..W it is a list search whose row gives
  D, its largest finite distance.  Later single searches in that
  direction start in the ring only when the probe's pass did not give
  up, or, on weights 1..W, when c (D + W + 1) <= n + m; so a deep graph
  pays a failed pass once, not per search.  The 1..W probe stays a list
  search because perfbench's tracer counts only list searches, and its
  Dijkstra probes on the weights-1..8 graph are all that sparse-ecc's
  ecc_2plusdelta search count reads.  Batched calls, whose budgets bound
  them, run no probe.  One search on random_strongly_connected(n, 4 n) took
  0.3 ms in the ring against 1.1 ms as a BFS at n = 1500, and 1.1-2 ms
  against 23 ms at n = 10**4.  A directed 2000-cycle (D = 1999), a
  300-path and a parsed 50 x 2000 grid (n = 10**5, D = 2048) keep the
  list search: a search on the grid after the probe took 0.04-0.08 s as
  a BFS, against 0.17-0.41 s in the ring when the step cost left out the
  settle.
* memory, before a pass: the k_w x n block and two slots must fit,
  (k_w + 2) n <= 16 (n + m), or no ring encoding is built.  Unit weights
  always pass; random weights up to 10**6, nearly all distinct, fail.
* memory, during a pass: the live slots (the pending ones and the one
  settling) plus k_w may never exceed 16 (n + m) / n.  A pass that would
  go over stops before it allocates the slot; its batch and the rest of
  the call, or the single search, run as list searches, and the graph
  keeps a mark so that later calls in that direction skip the ring.

The ring runs on positive weights only: a graph with a 0-weight arc
builds no ring encoding, so its searches, single and batched, are list
searches, and its balls _ball's.

What stays slow on deep graphs: a batch learns its depth only by running,
so on a long path or cycle a batch pays its budget, as much as its list
searches, before it gives up, until a full batch marks the direction;
closest's deep balls pay the same before _ball answers them.  A deep
graph's first single search pays for the probe's ring pass, about
(n + m) / c levels, and then for the list search: on parsed directed
cycles of 2000, 20000 and 10**5 vertices it took 1.2-1.4, 11-14 and
80-90 ms against 0.6, 6.5-8.6 and 55-65 ms for a list probe alone, on a
2-core Xeon.  A scalar step for narrow frontiers would remove this cost.

All tie-breaking is by (distance, vertex id) ascending, so every operation
here is deterministic.
"""

from __future__ import annotations

import contextlib
import heapq
import operator
from collections import deque
from dataclasses import dataclass

import numpy as np

from .graph import UNREACHABLE, Graph, Neighborhood, _from_columns, _group_order

# Sources per batched search: one bit each in a uint64 word per vertex.
_WORD = np.iinfo(np.uint64).bits

# The ring rule (see the module docstring): ring words allowed per vertex
# and edge, and a ring step's cost in list-search vertex and arc scans: a
# fixed _STEP_COST, plus the settle of all n words of its slot at
# _SETTLE_WORDS words to a scan (see _step_cost).
_RING_WORDS_PER_ITEM = 16
_STEP_COST = 64
_SETTLE_WORDS = 64

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


def _row(g: Graph, sources, direction: str, until=None):
    """_distances' row as its kernel made it, under the ring rule (see the
    module docstring): the depth probe's row, a ring pass's array (see
    _ring_row, which alone reads ``until``), or a list search's list, also
    when the pass raises _RingFull."""
    ring, rows = _ring_rule(g, sources, direction)
    if rows:
        return rows[0]
    if ring:
        with contextlib.suppress(_RingFull):
            return _ring_row(g, sources, direction, until=until)
    return _list_distances(g, sources, direction)


def _distances(g: Graph, sources, direction: str, until=None):
    """Per vertex, the distance from (``out``) or to (``in``) the nearest
    source, as an int64 array with -1 where unreachable (see _row)."""
    return _as_array(_row(g, sources, direction, until))


def _as_array(row):
    """A row as an int64 array, -1 where unreachable."""
    if isinstance(row, list):
        try:
            row = np.array(row, dtype=np.int64)
        except OverflowError:  # the row holds UNREACHABLE
            row = np.array([-1 if d == UNREACHABLE else d for d in row], dtype=np.int64)
    return row


def _as_list(row) -> list:
    """A row as a list, UNREACHABLE where unreachable."""
    if isinstance(row, list):
        return row
    out = row.tolist()
    return [UNREACHABLE if d < 0 else d for d in out] if (row < 0).any() else out


def _ring_row(g: Graph, sources, direction: str, until=None):
    """The row of one ring pass with every source in bit 0, as an int64
    array with -1 where unreachable; the pass stops once every vertex is
    settled, or with ``until = (picked, k)``, a bool mask and a count, once
    k picked ones are, every -1 entry then being farther than the last
    level.  Raises _RingFull when the pass gives up (see _ring_bits).
    """
    dist = np.full(g.n, -1, dtype=np.int64)
    picked, left = until or (None, g.n)
    for d, frontier, _ in _ring_bits(g, sources, direction, _all_bits(g.n), one_bit=True):
        dist[frontier] = d
        left -= len(frontier) if picked is None else int(np.count_nonzero(picked[frontier]))
        if left <= 0:
            break
    return dist


def _csr(g: Graph, direction: str):
    """The ring search's encoding of one direction's arcs, built on first use.

    Returns ``(targets, steps, ranks)``: ``targets``, an int64 array over
    the arcs of ``g.arcs(direction)``, ``steps``, the distinct weights in
    increasing order as ints, and ``ranks``, an n x ceil(k_w / 64) uint64
    array in which bit r of u's row is set when u has an arc of weight
    ``steps[r]`` (None when there is one weight, or when the weights are
    exactly 1..W).  Such an arc u -> v has target r n + v: v's word in row
    r of the k_w x n block, or, when the weights are exactly 1..W and so
    r = w - 1, in the ring slot w - 1 past the next one.  On one weight
    that is v, and ``targets`` is the view's own heads array.  Returns
    None, and builds nothing, when the graph has a 0-weight arc, so that
    its searches, single and batched, are list searches; and None when
    the memory half of the ring rule fails, (k_w + 2) n > 16 (n + m).
    """
    if not g.positive_weights:
        return None
    key = g._key(direction)
    if key in g._csr:
        return g._csr[key]
    _, degree, heads, weights = g.arcs(direction)
    n = g.n
    if g.unit_weights:
        steps, rank = np.ones(1, dtype=np.int64), 0
    else:
        steps, rank = np.unique(weights, return_inverse=True)
        rank = rank.reshape(-1)
    csr = None
    if len(steps) + 2 <= _slot_cap(g):
        ranks = None
        if len(steps) > 1 and not _one_to_w(steps):
            ranks = np.zeros((n, -(-len(steps) // _WORD)), dtype=np.uint64)
            np.bitwise_or.at(ranks, (np.arange(n).repeat(degree), rank // _WORD),
                             np.left_shift(np.uint64(1), (rank % _WORD).astype(np.uint64)))
        csr = (heads if len(steps) == 1 else rank * n + heads, steps.tolist(), ranks)
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


def _sorted_unique(keys):
    """np.unique of nonnegative keys, without the numpy.ma import that a
    process's first plain np.unique does (about 16 ms on numpy 2.4)."""
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=-1) != 0]


def _bfs_parents(g: Graph, root: int):
    """Per vertex, the vertex that first discovers it in a BFS from ``root``
    over out-arcs, levels scanned in discovery order and arcs in adjacency
    order, as an int64 array: ``root`` for root, -1 when unreached.  It
    reads the heads of the out-arc view; weights are not read.
    """
    indptr, degree, heads, _ = g.arcs("out")
    parent = np.full(g.n, -1, dtype=np.int64)
    parent[root] = root
    level = np.array([root], dtype=np.int64)
    first = np.empty(g.n, dtype=np.int64)
    left = g.n - 1  # the vertices with no parent yet
    while left and len(level):
        at, counts = _arcs(indptr, degree, level)
        found = heads[at]
        new = parent[found] < 0
        found = found[new]
        # Each new head's first arc, in arc order, discovers it.  Only the
        # level's heads are read, so only they are reset.
        order = np.arange(len(found))
        first[found] = len(found)
        np.minimum.at(first, found, order)
        discovers = first[found] == order
        tails = level.repeat(counts)[new][discovers]
        level = found[discovers]
        parent[level] = tails
        left -= len(level)
    return parent


def _all_bits(n: int):
    return np.full(n, np.iinfo(np.uint64).max, dtype=np.uint64)


def _slot_cap(g: Graph) -> int:
    """The n-word arrays a ring pass may hold: 16 (n + m) words, over n."""
    return _RING_WORDS_PER_ITEM * (g.n + g.m) // g.n


def _step_cost(g: Graph) -> int:
    """A ring step's cost in list-search scans, its n-word settle included."""
    return _STEP_COST + g.n // _SETTLE_WORDS


def _has_ring(g: Graph, direction: str) -> bool:
    """Whether ring passes may run in this direction: the graph has a ring
    encoding (see _csr) and no batch in this direction has given up."""
    return not g._csr.get(("full", g._key(direction))) and _csr(g, direction) is not None


def _ring_rule(g: Graph, sources, direction: str):
    """The ring rule for a single search from the source set ``sources``
    (see the module docstring): (ring, rows), kept per graph and direction.

    The first call runs the depth probe, whose row it returns in ``rows``
    as the search's answer: a one-bit ring pass, which gives up for a list
    search, or on weights 1..W a list search.  ``ring`` says whether later
    single searches start in the ring: the probe's pass did not give up,
    or, on weights 1..W, a pass to the probe's largest distance D, D + W + 1
    steps, would not.  It only picks a kernel, so it never changes a result.
    """
    if not _has_ring(g, direction):
        return False, []
    key = ("probe", g._key(direction))
    if key in g._csr:
        return g._csr[key], []
    if _one_to_w(_csr(g, direction)[1]):
        row = _list_distances(g, sources, direction)
        depth = max(d for d in row if d != UNREACHABLE)
        ring = _step_cost(g) * (depth + g.max_weight + 1) <= g.n + g.m
    else:
        try:
            row, ring = _ring_row(g, sources, direction), True
        except _RingFull:
            row, ring = _list_distances(g, sources, direction), False
    g._csr[key] = ring
    return ring, [row]


class _RingFull(Exception):
    """A ring pass gave up: it would hold more live slots than the memory
    rule allows, or take more steps than its budget."""


def _give_up(g: Graph, direction: str, mark: bool = True):
    """Stop a ring pass by raising _RingFull; with ``mark``, first mark the
    graph and direction so that later calls skip the ring (see _has_ring)."""
    if mark:
        g._csr[("full", g._key(direction))] = True
    raise _RingFull


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
    plus k_w would exceed the memory rule's 16 (n + m) / n; and, after
    yielding d, when its steps at _step_cost each (0: no budget) would
    cost more than the list searches it replaces, n + m scans for one bit
    and len(sources) (n + m) for a batch.  The ring steps through every
    distance, so it counts d + k_w + 1 steps; keyed slots count the steps
    that settled something, and one more.  Either overrun marks the graph
    and direction for later calls (see _has_ring), but a budget overrun
    only on a full batch of 64 sources: a smaller budget says little
    about a full batch's.
    """
    (indptr, degree, _, _), (targets, steps, ranks) = g.arcs(direction), _csr(g, direction)
    n, k = g.n, len(steps)
    cost, budget = _step_cost(g), (1 if one_bit else len(sources)) * (n + g.m)
    full = not one_bit and len(sources) == _WORD
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
                if cost * (d + k + 1) > budget:
                    _give_up(g, direction, full)
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
    taken = 0  # the steps that settled something
    while pending:
        d = heapq.heappop(pending)
        slot = slots.pop(d)
        frontier, bits = _settle(slot, unseen)
        if not frontier.size:
            continue
        yield d, frontier, bits
        taken += 1
        if cost * (taken + 1) > budget:
            _give_up(g, direction, full)
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
                    _give_up(g, direction)
                else:
                    slots[at] = rows[r].copy()
                    heapq.heappush(pending, at)


def _reverse_arcs(g: Graph, direction: str):
    """The reverse arcs of a one-weight ring search, ``(tails, starts,
    heads)``: the other direction's arc view, whose heads ``tails`` list
    each vertex's in-neighbours (out-neighbours in an ``in`` search), and
    the offsets ``starts`` of its nonempty groups, those of ``heads``."""
    indptr, degree, tails, _ = g.arcs("in" if direction == "out" else "out")
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
    """Run every source of a nonempty list, in order, in ring passes of up
    to 64 while the ring may run (see _has_ring), the others as list
    searches.

    ``from_row`` takes the distance row of one list search, and
    ``from_batch`` runs one ring pass over up to 64 sources; it must keep
    nothing from a pass that raises _RingFull, whose batch and the rest
    then run as list searches.
    """
    lo = 0
    if _has_ring(g, direction):
        with contextlib.suppress(_RingFull):
            for lo in range(0, len(srcs), _WORD):
                from_batch(srcs[lo:lo + _WORD])
            return
    for s in srcs[lo:]:
        from_row(_list_distances(g, (s,), direction))


def _source_set(g: Graph, sources) -> list:
    """Sorted distinct vertex ids; ValueError when empty or not ids (see
    _ids), the range checked on the sorted ends only."""
    vertices = list(sources)
    srcs = sorted(set(_ids(g, vertices, ranged=False)))
    if not srcs:
        raise ValueError("vertex set must be nonempty")
    if srcs[0] < 0 or srcs[-1] >= g.n:
        raise _bad_id(g, vertices)
    return srcs


def _ids(g: Graph, vertices, ranged: bool = True) -> list:
    """The vertices as a list of ints; ValueError naming the first that is
    not an integer (an int or a numpy int, as Graph's edges take) or, when
    ``ranged``, not in range(n)."""
    vertices = list(vertices)
    try:
        ids = list(map(operator.index, vertices))
    except TypeError:
        raise _bad_id(g, vertices) from None
    if ranged and ids and (min(ids) < 0 or max(ids) >= g.n):
        raise _bad_id(g, vertices)
    return ids


def _bad_id(g: Graph, vertices) -> ValueError:
    """The error naming the first of ``vertices`` that is not an id in range(n)."""
    bad = next(v for v in vertices if not hasattr(v, "__index__") or not 0 <= operator.index(v) < g.n)
    return ValueError(f"vertex id {bad!r} not an int or out of range")


def eccentricities(g: Graph, sources, direction: str = "out", targets=None) -> list:
    """Exact eccentricity of each listed source, in the order given.

    Entry i is max over v of d(sources[i], v) ("out") or d(v, sources[i])
    ("in"), v ranging over ``targets`` (every vertex when None), and
    UNREACHABLE when some such v is unreachable.
    """
    srcs = _listed(g, sources, direction)
    if not srcs:
        return []
    cols = range(g.n) if targets is None else _source_set(g, targets)
    picked = None if targets is None else _mask(g, cols)
    into = None if targets is None else np.asarray(cols, dtype=np.int64)
    out = []

    def from_batch(batch):
        unseen = _all_bits(g.n)
        batch_bits = (1 << len(batch)) - 1
        # (d, the bits that reach some target first at d)
        levels = []
        for d, frontier, bits in _ring_bits(g, batch, direction, unseen):
            if picked is not None:
                bits = bits[picked[frontier]]
            if bits.size:
                levels.append((d, int(np.bitwise_or.reduce(bits))))
                # A pass into targets ends once no target word holds an
                # unseen bit of the batch; only the target words are read.
                if into is not None and not int(np.bitwise_or.reduce(unseen[into])) & batch_bits:
                    break
        ecc = [UNREACHABLE] * len(batch)
        # The sources that reach every target.
        missed = unseen if into is None else unseen[into]
        todo = ~int(np.bitwise_or.reduce(missed)) & batch_bits
        for d, word in reversed(levels):
            hit = word & todo
            todo ^= hit
            for i in _bit_indices(hit):
                ecc[i] = d
        out.extend(ecc)

    _each(g, srcs, direction, lambda row: out.append(max(map(_as_list(row).__getitem__, cols))),
          from_batch)
    return out


def nearest(g: Graph, sources, members, direction: str = "out") -> list:
    """Per listed source, the closest member and its distance, in the order given.

    Entry i is (t, d) for the t in ``members`` with the smallest
    (d(sources[i], t), t) ("out") or (d(t, sources[i]), t) ("in"), so ties
    go to the smaller id; (the smallest member, UNREACHABLE) when no
    member is reachable.

    On positive weights it is one search from the members, over the
    reverse arcs, under the ring rule as in _distances, labelled by
    _label_levels; it stops once every source is settled.  A graph with a
    0-weight arc runs one list search per source instead.
    """
    srcs = _listed(g, sources, direction)
    cols = _source_set(g, members)
    if not srcs:
        return []
    if not g.positive_weights:
        return [_nearest_in_row(_list_distances(g, (s,), direction), cols) for s in srcs]
    back = "in" if direction == "out" else "out"
    ring, rows = _ring_rule(g, cols, back)
    if ring and not rows:
        with contextlib.suppress(_RingFull):
            levels = _ring_bits(g, cols, back, _all_bits(g.n), one_bit=True)
            return _label_levels(g, srcs, cols, direction, ((d, at) for d, at, _ in levels))
    row = rows[0] if rows else _list_distances(g, cols, back)
    return _label_levels(g, srcs, cols, direction, _row_levels(row))


def _label_levels(g: Graph, srcs: list, cols: list, direction: str, levels) -> list:
    """nearest's answer from one search from the members ``cols``, given
    as its levels (d, vertices) in increasing d, which it stops reading
    once every source is settled.

    A member's label is its own id.  A vertex v settled at d > 0 takes
    the smallest label among its tight neighbours: the heads u of its
    arcs v -> u in ``direction`` with d(u) + w(v -> u) = d.  Weights are
    positive, so every tight neighbour settled at a smaller distance and
    is labelled already, and v's label is its smallest-id nearest member.
    """
    indptr, degree, heads, weights = g.arcs(direction)
    dist = np.full(g.n, -1, dtype=np.int64)
    label = np.zeros(g.n, dtype=np.int64)
    wanted = _mask(g, srcs)
    left = int(wanted.sum())
    for d, level in levels:
        dist[level] = d
        if d:
            arcs, counts = _arcs(indptr, degree, level)
            to = heads[arcs]
            near = dist[to]
            tight = near == d - 1 if g.unit_weights else (near >= 0) & (near == d - weights[arcs])
            # Every vertex of the level has a tight arc, so no run is empty.
            label[level] = np.minimum.reduceat(np.where(tight, label[to], g.n),
                                               counts.cumsum() - counts)
        else:
            label[level] = level
        left -= int(wanted[level].sum())
        if not left:
            break
    return [(t, d) if d >= 0 else (cols[0], UNREACHABLE)
            for t, d in zip(label[srcs].tolist(), dist[srcs].tolist())]


def _row_levels(row):
    """The levels (d, vertices) of a distance row, in increasing d."""
    dist = _as_array(row)
    order = np.argsort(dist)
    order = order[dist[order] >= 0]
    cuts = np.flatnonzero(np.diff(dist[order])) + 1
    for at in np.split(order, cuts):
        yield int(dist[at[0]]), at


def _listed(g: Graph, sources, direction: str) -> list:
    """The sources as a list, repeats kept; ValueError when one is not an
    id or the direction is bad, before anything is searched or cached."""
    g._key(direction)
    return _ids(g, sources)


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
    return _as_list(_max_row(g, sources, direction))


def _max_row(g: Graph, sources, direction: str, cap=None):
    """max_distances as an int64 array, -1 where unreachable; with ``cap``,
    min(max_distances, cap) with cap where unreachable, from ring passes
    that stop at their first level >= cap."""
    srcs = _source_set(g, sources)
    far = np.zeros(g.n, dtype=np.int64)
    missed = np.zeros(g.n, dtype=bool)

    def from_row(row):
        row = _as_array(row)
        np.maximum(far, row, out=far)
        missed[row < 0] = True

    def from_batch(batch):
        unseen = _all_bits(g.n)
        last = np.zeros(g.n, dtype=np.int64)  # the distance that last reached v
        # _ring_bits settles a level before yielding it: record the stop's too.
        for d, frontier, _ in _ring_bits(g, batch, direction, unseen):
            last[frontier] = d
            if cap is not None and d >= cap:
                break
        np.maximum(far, last, out=far)
        missed[(unseen & np.uint64((1 << len(batch)) - 1)) != 0] = True

    _each(g, srcs, direction, from_row, from_batch)
    far[missed] = -1 if cap is None else cap
    return far if cap is None else np.minimum(far, cap, out=far)


def closest(g: Graph, sources, s: int, direction: str = "out"):
    """Per listed source, its s closest vertices under (distance, id) order.

    Returns flat int64 arrays ``(owner, member, distance)``, owner-major in
    the order given: each source's entries are k_closest(g, source, s,
    direction).items, fewer than s when fewer are reachable.  On unit
    weights, when every source has s - 1 or more distinct neighbours, each
    ball is the source, then its s - 1 smallest-id neighbours at distance
    1: a prefix of its row in a neighbour view, built for the call only
    when every source's arc degree reaches s - 1.  Otherwise the sources
    run in ring passes of up to 64 while the ring may run (see _has_ring);
    the other balls, on a graph with no encoding and from the batch that
    gave up on, are _ball's.
    A pass keeps, per level, each source's smallest ids up to what its
    ball still needs; a full source retires, so its bit drops out at the
    next level, and the pass ends once every source has retired.
    """
    if not 1 <= s <= g.n:
        raise ValueError(f"s must be in [1, {g.n}], got {s}")
    srcs = _listed(g, sources, direction)
    indptr, degree, heads, _ = g.arcs(direction)
    if g.unit_weights and srcs and degree[srcs].min() >= s - 1:
        # Every ball may lie within one hop.  The neighbour view keeps each
        # row's distinct neighbours, by id; at s = 1 no row is read.
        if s > 1:
            tails = np.arange(g.n).repeat(degree)
            tails, heads = np.divmod(_sorted_unique((tails * g.n + heads)[tails != heads]), g.n)
            degree = np.bincount(tails, minlength=g.n)
            indptr = degree.cumsum() - degree
        if degree[srcs].min() >= s - 1:
            at = np.asarray(srcs, dtype=np.int64)
            ball = heads[indptr[at][:, None] + np.arange(s - 1)]
            return (at.repeat(s), np.column_stack((at, ball)).ravel(),
                    np.tile(np.minimum(np.arange(s), 1), len(at)))
    empty = np.zeros(0, dtype=np.int64)
    parts, sizes = [(empty, empty)], []  # (members, distances) per batch or ball

    def from_batch(batch):
        unseen = _all_bits(g.n)
        need = np.zeros(_WORD, dtype=np.int64)
        need[:len(batch)] = s
        todo = (1 << len(batch)) - 1  # the sources whose balls are not full
        cols = np.arange(_WORD)
        levels = []
        for d, frontier, bits in _ring_bits(g, batch, direction, unseen):
            # Source i's run in ``at``: the frontier positions whose words
            # hold bit i, ascending by id, each at i |frontier| + position.
            # Its first need[i] are the smallest ids its ball still needs.
            width = len(frontier)
            hold = np.unpackbits(bits.astype("<u8", copy=False).view(np.uint8),
                                 bitorder="little").view(bool)
            at = np.flatnonzero(hold.reshape(width, _WORD).T)
            runs = np.searchsorted(at, np.arange(_WORD + 1) * width)
            took = np.minimum(np.diff(runs), need)
            col = cols.repeat(took)
            member = frontier[at[_arcs(runs, took, cols)[0]] - col * width]
            levels.append((col, member, np.full(len(col), d, dtype=np.int64)))
            need -= took
            full = int(np.packbits(need == 0, bitorder="little").view("<u8")[0]) & todo
            if full:
                todo ^= full
                if not todo:
                    break
                unseen &= ~np.uint64(full)
        col, member, dist = map(np.concatenate, zip(*levels))
        order = _group_order(col)  # owner-major, levels kept in order
        parts.append((member[order], dist[order]))
        sizes.extend((s - need[:len(batch)]).tolist())

    lo = 0
    if srcs and _has_ring(g, direction):
        with contextlib.suppress(_RingFull):
            for lo in range(0, len(srcs), _WORD):
                from_batch(srcs[lo:lo + _WORD])
            lo = len(srcs)
    for v in srcs[lo:]:
        parts.append(np.array(_ball(g, v, s, direction), dtype=np.int64).T)
        sizes.append(len(parts[-1][0]))
    member, dist = map(np.concatenate, zip(*parts))
    return np.asarray(srcs, dtype=np.int64).repeat(sizes), member, dist


def sssp(g: Graph, source: int, direction: str = "out") -> list:
    """Exact single-source shortest paths, as a list indexed by vertex.

    ``direction="out"`` gives d(source, v); ``"in"`` gives d(v, source).
    Unreachable vertices get the UNREACHABLE sentinel.
    """
    source, = _ids(g, (source,))
    return _as_list(_row(g, (source,), direction))


def multi_source_distance(g: Graph, sources, direction: str = "out") -> list:
    """dist[v] = min over s in sources of d(s, v) (out) or d(v, s) (in)."""
    return _as_list(_row(g, _source_set(g, sources), direction))


def k_closest(g: Graph, v: int, s: int, direction: str = "out") -> Neighborhood:
    """The s closest vertices to v under (distance, id) order, fewer when
    fewer are reachable: one truncated heap search, _ball."""
    if not 1 <= s <= g.n:
        raise ValueError(f"s must be in [1, {g.n}], got {s}")
    v, = _ids(g, (v,))
    return Neighborhood(v, direction, _ball(g, v, s, direction))


def _ball(g: Graph, v: int, s: int, direction: str) -> list:
    """k_closest's ball as (vertex, distance) pairs, from a heap search
    over the arc view.  On positive weights it stops at the s-th pop:
    every vertex at distance d is pushed at d before the first pop at d,
    so the pops come in exact (distance, id) order, and it scans the arcs
    of the first s - 1 vertices.  With 0-weight edges a vertex at distance
    d can be pushed by another one popped at d, so it settles the whole
    level of the s-th closest vertex, scans its arcs, and sorts.
    """
    indptr, _, heads, weights = g.arcs(direction)
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
        lo, hi = indptr[u:u + 2].tolist()
        for x, w in zip(heads[lo:hi].tolist(), weights[lo:hi].tolist()):
            nd = d + w
            if x not in settled and nd < tentative.get(x, UNREACHABLE):
                tentative[x] = nd
                heapq.heappush(heap, (nd, x))
    return [(u, d) for d, u in sorted((d, u) for u, d in settled.items())[:s]]


def eccentricity(g: Graph, v: int, direction: str = "out"):
    """max over u of d(v, u) (out) or d(u, v) (in); UNREACHABLE if any is."""
    return max(sssp(g, v, direction), default=0)


def exact_eccentricities(g: Graph, direction: str = "out") -> list:
    """Exact per-vertex eccentricities (see eccentricities)."""
    return eccentricities(g, range(g.n), direction)


def exact_diameter(g: Graph):
    """Largest eccentricity; UNREACHABLE when some pair is unreachable.

    On an undirected graph one search from vertex 0 bounds every
    eccentricity: ecc(v) <= d(v, 0) + ecc(0), as d(v, u) <= d(v, 0) + d(0, u)
    for every u.  The 64 sources of largest bound run first, ties to the
    smaller id, then only those whose bound still exceeds the largest
    eccentricity found, so the result is exact; at worst all n run.  A
    directed graph runs every source: its bound needs d(v, 0), an in-search
    that answers no eccentricity.
    """
    if g.n == 0 or g.directed:
        return max(exact_eccentricities(g, "out"), default=0)
    row = _distances(g, (0,), "out")
    if row.min() < 0:
        return UNREACHABLE
    best = reach = int(row.max())  # v's bound is row[v] + reach; no sum, so no int64 wrap
    order = np.argsort(-row, kind="stable")
    for part in (order[:_WORD], order[_WORD:]):
        best = max([best, *eccentricities(g, part[row[part] > best - reach].tolist())])
    return best


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
    u, v, w = g.columns
    np.minimum.at(D, (u, v), w)
    if not g.directed:
        np.minimum.at(D, (v, u), w)
    for k in range(n):
        np.minimum(D, D[:, k, None] + D[None, k, :], out=D)
    return D


def is_connected(g: Graph) -> bool:
    """Undirected connectivity (ignores arc directions for directed input)."""
    if g.n <= 1:
        return True
    if g.directed:
        g = _from_columns(g.n, False, *g.columns)
    return bool(_distances(g, (0,), "out").min() >= 0)


def is_strongly_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    # An undirected graph's two directions are one search.
    return all(_distances(g, (0,), direction).min() >= 0
               for direction in (("out", "in") if g.directed else ("out",)))


@dataclass
class BlowupMap:
    """Vertex bookkeeping for degree3_blowup.

    ``rep[v]`` is the representative node of original vertex v; distances
    between representatives equal original distances.
    """

    rep: list


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
    port = {}  # (v, e): the node of v that carries original edge e
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
    return Graph(next_id, new_edges, directed=False), BlowupMap(rep)
