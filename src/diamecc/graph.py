"""Compact immutable graph type and the edge-list text format.

Graphs are stored as forward adjacency lists of ``(head, weight)`` pairs
together with the reverse adjacency, so in-direction searches never need
an explicit transpose; an undirected graph's two are one list.  Weights
are nonnegative integers; unweighted graphs carry weight 1 everywhere,
and weight 0 is permitted (it is used by the degree-3 blow-up gadget).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

UNREACHABLE = math.inf

# (n-1) * max_weight + 1 must stay below this; a 64-bit distance budget.
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
    which a positive arc carries the rank of its weight among the graph's
    distinct positive weights, or None when those weights are too many
    for the ring's memory bound; the depth and the number of distinct
    distances of the ring rule's probe, the first list search run in that
    direction to decide a kernel (a batch's first source, or a single
    search); whether single searches run in the ring, and a mark that one
    has already waited for the arrays; and a mark when a ring pass
    outgrew its memory.  Filling it twice gives the same arrays.  The
    rest only picks a kernel and never changes a result.
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
        if n > 1 and (n - 1) * max_w + 1 >= _WEIGHT_BUDGET:
            raise ValueError("weights too large: (n-1)*max_weight must fit 63 bits")
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
    ``#`` starts a comment line.
    """
    header = None
    edges = []
    expected_m = 0
    directed = False
    weighted = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if header is None:
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
            header = (n, expected_m)
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
        edges.append((u, v, w))
    if header is None:
        raise GraphFormatError(0, "empty input: missing header")
    n, expected_m = header
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
