"""Compact immutable graph type and the edge-list text format.

Graphs are stored as forward adjacency lists of ``(head, weight)`` pairs
together with the reverse adjacency, so in-direction searches never need
an explicit transpose; an undirected graph's two are one list.  Weights
are nonnegative integers; unweighted graphs carry weight 1 everywhere,
and weight 0 is permitted (it is used by the degree-3 blow-up gadget).

parse_graph reads a plain edge-list file (its header, then exactly m
lines of ASCII digits and spaces) in one bulk numpy pass: a gate in C
checks the characters and the tokens per line, np.fromstring reads the
ints, and one stable argsort of the arc tails per direction gives both
the adjacency lists and the arc arrays that the ring search would
otherwise walk those lists for.  Every other text, and every malformed
one, goes to the line parser, which reads comments, blank lines, CRLF
and tabs and words each error with its line number; both give the same
Graph as ``Graph(n, edges, directed)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

UNREACHABLE = math.inf

# max(n-1, 1) * max_weight + 1 must stay below this, so that every distance
# and every weight fits an int64, even on one vertex.
_WEIGHT_BUDGET = 2**63

# The largest vertex count parse_graph accepts.  A directed Graph holds two
# adjacency lists per vertex, about 128 bytes with their slots even when
# empty, so this caps an edgeless file's graph at about 1.2 GiB.  A larger
# header is rejected before anything is allocated for it.
MAX_VERTICES = 10**7


class GraphFormatError(ValueError):
    """Malformed edge-list input; carries the offending 1-based line number
    and, when the input was read from a file, that file's path."""

    def __init__(self, line_no: int, message: str, path=None):
        where = f"line {line_no}" if path is None else f"{path}: line {line_no}"
        super().__init__(f"{where}: {message}")
        self.line_no = line_no
        self.message = message
        self.path = path


class Graph:
    """Immutable adjacency-list graph with nonnegative integer weights.

    For undirected graphs every edge appears once in ``edges`` and twice
    in one adjacency list, which serves as both ``adj_out`` and
    ``adj_in``.  For directed graphs each entry of ``edges`` is one arc.  Instances must not be mutated after
    construction; all algorithms in this package treat them as read-only,
    which also makes every operation safe to call concurrently.  The one
    exception is ``_csr``, a cache that the ring searches, batched and
    single, fill on first use, per direction: the array adjacency, in
    which an arc carries the rank of its weight among the graph's
    distinct weights, or None when those weights are too many for the
    ring's memory bound (a graph with a 0-weight arc builds none and
    runs only list searches); the depth and the number of distinct
    distances of the ring rule's probe, the first search of the first
    call in that direction; and a mark when a ring pass outgrew its
    memory.  Filling it twice gives the same arrays.  The
    rest only picks a kernel and never changes a result.  A graph read by
    parse_graph's bulk pass starts with one more entry per direction,
    ``("arcs", key)``: its arcs in adjacency order as (degree, heads,
    weights) int64 arrays, which the first ring array build takes
    instead of walking the lists (positive weights only).  A graph built
    by ``Graph(...)`` starts with an empty cache.
    """

    __slots__ = ("n", "directed", "edges", "adj_out", "adj_in",
                 "max_weight", "unit_weights", "zero_one_weights",
                 "positive_weights", "_csr")

    def __init__(self, n: int, edges=(), directed: bool = False):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        self.directed = directed
        canon = []
        adj_out = [[] for _ in range(n)]
        adj_in = [[] for _ in range(n)] if directed else adj_out
        max_w = 0
        unit = True
        zero_one = True
        positive = True
        for u, v, w in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if w < 0 or w != int(w):
                raise ValueError(f"edge ({u},{v}) has invalid weight {w}")
            w = int(w)
            canon.append((u, v, w))
            adj_out[u].append((v, w))
            adj_in[v].append((u, w))
            if w > max_w:
                max_w = w
            if w != 1:
                unit = False
            if w > 1:
                zero_one = False
            if w == 0:
                positive = False
        if max(n - 1, 1) * max_w + 1 >= _WEIGHT_BUDGET:
            raise ValueError("weights too large: max(n-1, 1)*max_weight must fit 63 bits")
        self.edges = canon
        self.adj_out = adj_out
        self.adj_in = adj_in
        self.max_weight = max_w
        self.unit_weights = unit
        self.zero_one_weights = zero_one
        self.positive_weights = positive
        self._csr = {}

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency(self, direction: str):
        """Forward adjacency for ``out``, reverse adjacency for ``in``."""
        if direction == "out":
            return self.adj_out
        if direction == "in":
            return self.adj_in
        raise ValueError(f"direction must be 'out' or 'in', got {direction!r}")

    def degree(self, v: int) -> int:
        """Out-degree plus in-degree (each undirected edge counts once per side)."""
        if self.directed:
            return len(self.adj_out[v]) + len(self.adj_in[v])
        return len(self.adj_out[v])

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        return f"Graph(n={self.n}, m={self.m}, {kind})"


@dataclass
class Neighborhood:
    """The s closest vertices of ``owner`` under (distance, id) order."""

    owner: int
    direction: str
    items: list  # [(vertex, distance)], ascending (distance, vertex)

    def vertices(self):
        return [v for v, _ in self.items]

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.items)


def parse_graph(text: str) -> Graph:
    """Parse the edge-list text format.

    Header: ``n m <directed|undirected> <weighted|unweighted>``, then m
    lines ``u v`` (unweighted) or ``u v w`` (weighted) with 0-based ids.
    ``#`` starts a comment line.  A plain file is read in one bulk numpy
    pass (see _parse_bulk); any other text, and every malformed one, by
    the line parser, which words each error with its line number.
    """
    g = _parse_bulk(text)
    return _parse_lines(text) if g is None else g


def _parse_bulk(text: str):
    """The Graph of a plain file, or None to leave the text to the line parser.

    A plain file is its header line and then exactly m lines of 2
    (unweighted) or 3 (weighted) fields, all ids in range, the body using
    only ASCII digits, spaces and newlines, no token of 19 or more digits
    (which could overflow int64), and the weight budget kept.  Its gate
    runs in C: ``bytes.translate`` checks the character set, and a
    ``uint8`` view gives the token bounds and the tokens per line.  The
    arrays it makes hold a byte per character, or an int64 per token or
    line, never an int64 per character.  The line parser would read the
    same Graph from a plain file, and an error from any other.
    """
    head, _, body = text.partition("\n")
    fields = head.split()
    if (len(fields) != 4 or not all(f.isascii() and f.isdigit() for f in fields[:2])
            or fields[2] not in ("directed", "undirected")
            or fields[3] not in ("weighted", "unweighted")):
        return None
    n, m = int(fields[0]), int(fields[1])
    want = 3 if fields[3] == "weighted" else 2
    if n > MAX_VERTICES or not body.isascii():
        return None
    data = body.encode("ascii")
    if data.translate(None, b"0123456789 \n"):
        return None
    chars = np.frombuffer(data, dtype=np.uint8)
    # Alternating starts and ends of the digit runs, the tokens.
    bounds = np.flatnonzero(np.diff(chars > ord(" "), prepend=False, append=False))
    starts, ends = bounds[::2], bounds[1::2]
    newlines = np.flatnonzero(chars == ord("\n"))
    lines = len(newlines) + (len(data) > 0 and data[-1] != ord("\n"))
    if (lines != m or len(starts) != want * m
            or (ends - starts).max(initial=0) >= 19
            # Each newline must close a line of exactly ``want`` tokens.
            or (np.searchsorted(starts, newlines) != want * np.arange(1, len(newlines) + 1)).any()):
        return None
    cols = np.fromstring(data, dtype=np.int64, sep=" ").reshape(m, want).T
    u, v = cols[0], cols[1]
    w = cols[2] if want == 3 else np.ones(m, dtype=np.int64)
    max_w = int(w.max(initial=0))
    if (m and max(u.max(), v.max()) >= n) or max(n - 1, 1) * max_w + 1 >= _WEIGHT_BUDGET:
        return None
    return _from_columns(n, fields[2] == "directed", u, v, w)


def _from_columns(n: int, directed: bool, u, v, w) -> Graph:
    """``Graph(n, zip(u, v, w), directed)`` built from checked int64 edge
    columns, with each direction's arc arrays seeded into ``_csr``."""
    g = Graph.__new__(Graph)
    g.n = n
    g.directed = directed
    g.edges = list(zip(u.tolist(), v.tolist(), w.tolist()))
    g.max_weight = int(w.max(initial=0))
    g.unit_weights = bool((w == 1).all())
    g.zero_one_weights = bool((w <= 1).all())
    g.positive_weights = bool((w > 0).all())
    g._csr = {}
    if directed:
        g.adj_out = _adjacency(g, "out", u, v, w)
        g.adj_in = _adjacency(g, "in", v, u, w)
    else:
        # Edge i gives arcs 2i (u -> v) and 2i + 1 (v -> u), in Graph's order.
        g.adj_out = g.adj_in = _adjacency(g, "out", np.column_stack((u, v)).ravel(),
                                          np.column_stack((v, u)).ravel(), w.repeat(2))
    return g


def _adjacency(g: Graph, key: str, tails, heads, weights) -> list:
    """Per vertex, its ``(head, weight)`` arcs in input order: one stable
    sort of the tails.  Seeds ``g._csr[("arcs", key)]`` with the sorted
    arcs as (degree, heads, weights) int64 arrays when the weights are
    positive, the only graphs whose ring arrays are built."""
    order = np.argsort(tails, kind="stable")
    heads, weights = heads[order], weights[order]
    degree = np.bincount(tails, minlength=g.n)
    if g.positive_weights:
        g._csr[("arcs", key)] = degree, heads, weights
    arcs = list(zip(heads.tolist(), weights.tolist()))
    ends = degree.cumsum().tolist()
    return [arcs[a:b] for a, b in zip([0] + ends, ends)]


def _parse_lines(text: str) -> Graph:
    """Parse the edge-list text format one line at a time: comments, blank
    lines, CRLF and tabs, and the line number of every error."""
    header = False
    edges = []
    n = expected_m = 0
    directed = False
    weighted = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if not header:
            if len(fields) != 4:
                raise GraphFormatError(line_no, "header must be 'n m <directed|undirected> <weighted|unweighted>'")
            try:
                n = int(fields[0])
                expected_m = int(fields[1])
            except ValueError:
                raise GraphFormatError(line_no, "n and m must be integers") from None
            if fields[2] not in ("directed", "undirected"):
                raise GraphFormatError(line_no, f"bad orientation flag {fields[2]!r}")
            if fields[3] not in ("weighted", "unweighted"):
                raise GraphFormatError(line_no, f"bad weight flag {fields[3]!r}")
            if n < 0 or expected_m < 0:
                raise GraphFormatError(line_no, "n and m must be nonnegative")
            if n > MAX_VERTICES:
                raise GraphFormatError(line_no, f"n = {n} exceeds the limit of "
                                                f"{MAX_VERTICES} vertices")
            directed = fields[2] == "directed"
            weighted = fields[3] == "weighted"
            header = True
            continue
        want = 3 if weighted else 2
        if len(fields) != want:
            raise GraphFormatError(line_no, f"expected {want} fields, got {len(fields)}")
        try:
            u = int(fields[0])
            v = int(fields[1])
            w = int(fields[2]) if weighted else 1
        except ValueError:
            raise GraphFormatError(line_no, "edge fields must be integers") from None
        if w < 0:
            raise GraphFormatError(line_no, f"negative weight {w}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(line_no, f"edge ({u},{v}) out of range for n={n}")
        edges.append((u, v, w))
    if not header:
        raise GraphFormatError(0, "empty input: missing header")
    if len(edges) != expected_m:
        raise GraphFormatError(0, f"header promises m={expected_m} edges, found {len(edges)}")
    try:
        return Graph(n, edges, directed=directed)
    except ValueError as exc:
        raise GraphFormatError(0, str(exc)) from None


def format_graph(g: Graph) -> str:
    """Serialize to the edge-list text format (round-trips with parse_graph)."""
    weighted = not g.unit_weights
    kind = "directed" if g.directed else "undirected"
    wkind = "weighted" if weighted else "unweighted"
    lines = [f"{g.n} {g.m} {kind} {wkind}"]
    for u, v, w in g.edges:
        lines.append(f"{u} {v} {w}" if weighted else f"{u} {v}")
    return "\n".join(lines) + "\n"


def _load(parse, path):
    """``parse`` of a file's UTF-8 text; a GraphFormatError names the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return parse(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise GraphFormatError(raw.count(b"\n", 0, exc.start) + 1, "not UTF-8 text", path) from None
    except GraphFormatError as exc:
        raise GraphFormatError(exc.line_no, exc.message, path) from None


def load_graph(path) -> Graph:
    return _load(parse_graph, path)


def save_graph(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g))


def parse_vertex_set(text: str) -> list:
    """Vertex-set file: one id per line, ``#`` comments allowed.

    Returns sorted unique ids.
    """
    ids = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            ids.add(int(line))
        except ValueError:
            raise GraphFormatError(line_no, f"vertex id expected, got {line!r}") from None
    return sorted(ids)


def load_vertex_set(path) -> list:
    return _load(parse_vertex_set, path)
