"""Compact immutable graph type and the edge-list text format.

A Graph keeps its m edges as int64 columns: tails, heads and weights,
in input order.  Weights are nonnegative integers; unweighted graphs
carry weight 1, and weight 0 is permitted (the degree-3 blow-up uses
it).  Every other form is built from the columns on first use, so a
graph that only the array kernels read holds no Python object per edge
or per vertex.

parse_graph reads a plain edge-list file (its header, then exactly m
lines of ASCII digits and spaces) into the columns in one bulk numpy
pass: a gate in C checks the characters and the tokens per line, and
np.fromstring reads the ints.  Every other text, and every malformed
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

# The largest vertex count parse_graph accepts.  A parsed graph holds
# nothing per vertex.  Per direction, the arc view takes 16 bytes per vertex
# and 8-16 per arc, 0.3 GiB for an edgeless digraph at this cap, and the lists a
# list search builds (only weighted, 0/1-weight and deep unit graphs run one)
# about 64 per vertex, 1.2 GiB here, and 95 per arc, or
# about 6 when all arcs have one weight and outnumber the vertices, which
# then take about 160 (tracemalloc, n = 10**4, m = 5n and 10n).  A larger
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
    """Immutable graph with nonnegative integer weights, kept as edge columns.

    ``columns`` holds the tails, heads and weights of the m edges as
    read-only int64 arrays, in input order; a directed edge is one arc,
    an undirected one an arc each way.  The views ``edges`` ((u, v, w)
    tuples), ``arcs`` (per direction, int64 arrays that every search
    reads, 16 bytes per vertex and 8-16 per arc), ``adj_out`` and ``adj_in``
    (per vertex its ``(head, weight)`` arcs, which only list searches
    build, so only weighted, 0/1-weight and deep unit graphs get them,
    about 64 bytes per vertex and 95 per arc; an undirected graph has one
    of each for both directions) and ``degrees`` are built on
    first access and cached, and so are the ring's arrays and depth probe
    in ``_csr`` (see search._csr and search._ring_rule).  Instances must
    not be mutated after construction; all algorithms treat them as
    read-only, so every operation is safe to call concurrently.  Filling a
    cache twice gives equal values, and ``_csr`` only picks a kernel.
    """

    __slots__ = ("n", "directed", "columns", "max_weight", "unit_weights",
                 "zero_one_weights", "positive_weights", "_views", "_csr")

    def __init__(self, n: int, edges=(), directed: bool = False):
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
            raise ValueError(f"vertex count n must be a nonnegative int, got {n!r}")
        _from_columns(int(n), directed, *_edge_columns(n, edges), g=self)

    @property
    def m(self) -> int:
        return len(self.columns[0])

    @property
    def edges(self) -> list:
        """The edges as (u, v, w) int tuples, in input order."""
        return self._view("edges", lambda: list(zip(*(c.tolist() for c in self.columns))))

    adj_out = property(lambda self: self.adjacency("out"))
    adj_in = property(lambda self: self.adjacency("in"))

    def adjacency(self, direction: str) -> list:
        """Per vertex its ``(head, weight)`` arcs of ``direction``, as in ``arcs``."""
        return self._view(self._key(direction), lambda: _lists(*self.arcs(direction)[1:]))

    def arcs(self, direction: str):
        """The arcs of ``direction`` (the reverse arcs for ``in``) grouped
        by tail: read-only int64 arrays ``(indptr, degree, heads,
        weights)``, u's arcs at indptr[u]:indptr[u + 1], in the tails'
        _group_order, so each vertex's in input order; one weight is kept
        once, broadcast at stride 0.  Built on first use; an undirected
        graph keeps one copy for both directions."""
        key = ("arcs", self._key(direction))
        if key not in self._views:
            u, v, w = self.columns
            if not self.directed:
                # Edge i gives arcs 2i (u -> v) and 2i + 1 (v -> u).
                u, v, w = np.column_stack((u, v)).ravel(), np.column_stack((v, u)).ravel(), w.repeat(2)
            elif direction == "in":
                u, v = v, u
            order, degree = _group_order(u), np.bincount(u, minlength=self.n)
            weights = np.broadcast_to(w[:1], len(v)) if (w == self.max_weight).all() else w[order]
            view = np.concatenate(([0], degree.cumsum())), degree, v[order], weights
            for a in view:
                a.flags.writeable = False
            self._views[key] = view
        return self._views[key]

    def _key(self, direction: str) -> str:
        """A checked direction's cache key: undirected graphs share one."""
        if direction not in ("out", "in"):
            raise ValueError(f"direction must be 'out' or 'in', got {direction!r}")
        return direction if self.directed else "out"

    @property
    def degrees(self):
        """Per vertex, out-degree plus in-degree, as an int64 array: each
        undirected edge counts once per end, so a self-loop counts twice."""
        u, v, _ = self.columns
        return self._view("degrees", lambda: np.bincount(u, minlength=self.n)
                          + np.bincount(v, minlength=self.n))

    def degree(self, v: int) -> int:
        """Out-degree plus in-degree (each undirected edge counts once per side)."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range")
        return int(self.degrees[v])

    def _view(self, key, build):
        """A derived view, built by ``build()`` on first use and cached."""
        got = self._views.get(key)
        if got is None:
            got = self._views[key] = build()
        return got

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        return f"Graph(n={self.n}, m={self.m}, {kind})"


def _from_columns(n: int, directed: bool, u, v, w, g: Graph | None = None) -> Graph:
    """The Graph of checked int64 edge columns: ids in range(n), weights
    nonnegative and within the weight budget.  Fills ``g`` when given
    (Graph.__init__ does), else a new Graph."""
    if g is None:
        g = Graph.__new__(Graph)
    for col in (u, v, w):
        col.flags.writeable = False
    g.n, g.directed, g.columns = n, directed, (u, v, w)
    g.max_weight = int(w.max(initial=0))
    g.unit_weights = bool((w == 1).all())
    g.zero_one_weights = bool((w <= 1).all())
    g.positive_weights = bool((w > 0).all())
    g._views, g._csr = {}, {}
    return g


def _join(*blocks) -> tuple:
    """The (u, v, w) columns of the edges of ``blocks`` in turn, each a
    (u, v, w) triple whose scalars broadcast over its edges."""
    return tuple(np.concatenate(col)
                 for col in zip(*(np.broadcast_arrays(*block) for block in blocks)))


def _group_order(ids):
    """The stable order that groups nonnegative int64 ``ids``: ascending
    ids, equal ids in input order, as np.argsort(ids, kind="stable") gives.

    It runs least-significant-digit passes over 16-bit digits, each a
    stable argsort of uint16 keys, which numpy does as a radix sort in
    linear time.  An int64 stable argsort is a merge sort: on the 14,400
    arcs of a dense n = 240 graph it took 1.0-1.2 ms against 0.11 ms for
    this (2-core Xeon).  Ids below 2**16 take one pass, and every vertex
    id (below MAX_VERTICES < 2**24) at most two.
    """
    order = np.argsort(ids.astype(np.uint16), kind="stable")
    top, shift = int(ids.max(initial=0)), 16
    while top >> shift:
        digit = (ids[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


def _lists(degree, heads, weights) -> list:
    """Per vertex, its ``(head, weight)`` arcs, from arcs grouped by tail.

    When every arc has one weight and there are more arcs than vertices,
    the arcs to a head share one tuple: n tuples, gathered per arc from an
    object array, instead of m.
    """
    n = len(degree)
    if len(weights) > n and weights.min() == weights.max():
        pairs = np.fromiter(zip(range(n), [int(weights[0])] * n), dtype=object, count=n)
        arcs = pairs[heads].tolist()
    else:
        arcs = list(zip(heads.tolist(), weights.tolist()))
    ends = degree.cumsum().tolist()
    return [arcs[a:b] for a, b in zip([0] + ends, ends)]


def _check_budget(n: int, max_w: int) -> None:
    if max(n - 1, 1) * max_w + 1 >= _WEIGHT_BUDGET:
        raise ValueError("weights too large: max(n-1, 1)*max_weight must fit 63 bits")


def _edge_columns(n: int, edges):
    """The checked int64 (u, v, w) columns of ``Graph(n, edges)``.

    numpy checks an all-int table; any other (floats, ints past int64) is
    checked one edge at a time first.  The first bad edge in input order
    raises the ValueError that names it.
    """
    edges = list(edges)
    try:
        table = np.array(edges)
    except ValueError:  # ragged: _checked_edge words the error
        table = None
    if table is None or table.dtype.kind != "i" or table.shape != (len(edges), 3):
        table = [_checked_edge(n, edge) for edge in edges]
        _check_budget(n, max((w for _, _, w in table), default=0))
        table = np.array(table, dtype=np.int64).reshape(-1, 3)
    u, v, w = np.ascontiguousarray(table.T, dtype=np.int64)
    bad = (u < 0) | (u >= n) | (v < 0) | (v >= n) | (w < 0)
    if bad.any():
        _checked_edge(n, edges[int(bad.argmax())])
    _check_budget(n, int(w.max(initial=0)))
    return u, v, w


def _checked_edge(n: int, edge) -> tuple:
    """``edge`` as (u, v, w) ints, or the ValueError that names it: the ids
    must be ints in range(n), and the weight a nonnegative integer value."""
    u, v, w = edge
    if not all(isinstance(x, (int, np.integer)) and 0 <= x < n for x in (u, v)):
        raise ValueError(f"edge ({u},{v}) out of range for n={n}")
    try:
        weight = int(w)
    except (TypeError, ValueError, OverflowError):
        weight = -1
    if weight != w or weight < 0:
        raise ValueError(f"edge ({u},{v}) has invalid weight {w}")
    return int(u), int(v), weight


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
            # Newline k must follow token want (k + 1) - 1 and precede token want (k + 1).
            or (newlines < ends[want - 1::want][:len(newlines)]).any()
            or (newlines[:m - 1] >= starts[want::want]).any()):
        return None
    cols = np.ascontiguousarray(np.fromstring(data, dtype=np.int64, sep=" ").reshape(m, want).T)
    u, v = cols[0], cols[1]
    w = cols[2] if want == 3 else np.ones(m, dtype=np.int64)
    max_w = int(w.max(initial=0))
    if (m and max(u.max(), v.max()) >= n) or max(n - 1, 1) * max_w + 1 >= _WEIGHT_BUDGET:
        return None
    return _from_columns(n, fields[2] == "directed", u, v, w)


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
    cols = g.columns if weighted else g.columns[:2]
    # One %-format over all the ids and weights, row-major.
    rows = (" ".join(["%d"] * len(cols)) + "\n") * g.m
    return f"{g.n} {g.m} {kind} {wkind}\n" + rows % tuple(np.column_stack(cols).ravel().tolist())


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
