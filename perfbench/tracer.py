"""Spans around diamecc's layer entry points, installed from outside ``src/``.

Each target function is replaced by a wrapper in every ``diamecc`` module
that holds a reference to it (module globals and dict values such as
``hardness.BUILDERS``), so calls made through ``from .search import _bfs``
are seen as well.  A target that no longer exists is skipped, and the
metrics derived from it are then absent.

A span is ``[id, parent, pass, job, name, t0, t1, t2, attrs]``: ``t1`` ends
the call itself, ``t2`` ends the wrapper's own bookkeeping (for example
counting arcs), so a parent's self time can exclude that bookkeeping.
Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import numpy as np

# module -> entry points wrapped in it.
TARGETS = {
    "graph": ("load_graph", "load_vertex_set", "format_graph"),
    "search": ("_distances", "_bfs", "_zero_one_bfs", "_dijkstra", "sssp",
               "multi_source_distance", "k_closest", "eccentricity",
               "exact_eccentricities", "exact_diameter", "exact_radius",
               "exact_st_diameter", "degree3_blowup", "is_connected",
               "is_strongly_connected"),
    "eccen": ("ecc_2approx", "ecc_2plusdelta", "ecc_folklore_3approx",
              "source_radius"),
    "diam": ("diam_folklore_2approx", "diam_linear_lessthan2"),
    "stdiam": ("st_3approx", "st_2approx_sqrt", "st_2approx_true",
               "st_2approx_weighted", "st_via_diameter"),
    "dense": ("tz_center", "_greedy_hitting_set", "_cluster_matrix",
              "additive2_spanner", "diam_dense_32", "ecc_dense_53",
              "approx_on_spanner"),
    "hardness": ("gen_ov", "build_kov_layered", "build_diam_5v8",
                 "build_diam_6v10", "build_diam_3km4", "build_diam_8v13",
                 "build_ecc_lb_undirected", "build_ecc_lb_directed",
                 "save_construction", "load_construction",
                 "verify_construction"),
}

KERNELS = ("_bfs", "_zero_one_bfs", "_dijkstra")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        self._degrees = {}
        self.installed = set()  # span names of the targets found
        self.where = (0, 0)  # (pass, job) of the spans being recorded

    def begin_job(self, pass_index: int, job_index: int) -> None:
        self.where = (pass_index, job_index)
        self._degrees.clear()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "diamecc" or name.startswith("diamecc.")]
        for short, names in TARGETS.items():
            home = sys.modules.get(f"diamecc.{short}")
            for name in names:
                orig = getattr(home, name, None)
                if not callable(orig):
                    continue
                wrapper = self._wrap(orig, f"{short}.{name}", self._probe(name))
                self.installed.add(f"{short}.{name}")
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapper)
                            self._patches.append((vars(mod), key, orig))
                        elif isinstance(value, dict):
                            for dkey, dval in list(value.items()):
                                if dval is orig:
                                    value[dkey] = wrapper
                                    self._patches.append((value, dkey, orig))

    def uninstall(self) -> None:
        for table, key, orig in reversed(self._patches):
            table[key] = orig
        self._patches.clear()
        self._degrees.clear()

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, *args):
        """Run fn(*args) inside a span; used for the job's root span."""
        return self._wrap(fn, name, None)(*args)

    def _wrap(self, fn, name, probe):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, *self.where,
                   name, 0.0, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[5] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[6] = perf_counter()
                stack.pop()
            if probe is not None:
                try:
                    rec[8] = probe(args, kwargs, out)
                except (AttributeError, TypeError, IndexError, KeyError, ValueError):
                    rec[8] = None  # a changed signature drops the count, not the run
            rec[7] = perf_counter()
            return out

        traced.__wrapped__ = fn
        return traced

    def dump(self, path) -> None:
        keys = ("id", "parent", "pass", "job", "name", "t0", "t1", "t2", "attrs")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")

    # -- machine-independent counts ------------------------------------------

    def _degree_array(self, adj):
        hit = self._degrees.get(id(adj))
        if hit is None or hit[0] is not adj:
            hit = (adj, np.fromiter((len(a) for a in adj), dtype=np.int64, count=len(adj)))
            self._degrees[id(adj)] = hit
        return hit[1]

    def _probe(self, name):
        """Attribute extractor for a target, or None."""
        if name in KERNELS:
            def kernel(args, kwargs, dist):
                reached = np.isfinite(np.asarray(dist, dtype=np.float64))
                return {"arcs": int(self._degree_array(args[0])[reached].sum()),
                        "reached": int(reached.sum())}
            return kernel
        if name == "k_closest":
            def truncated(args, kwargs, hood):
                g = args[0]
                direction = args[3] if len(args) > 3 else kwargs.get("direction", "out")
                deg = self._degree_array(g.adjacency(direction))
                got = [v for v, _ in hood.items]
                return {"vertices": len(got), "arcs_lb": int(deg[got].sum())}
            return truncated
        if name == "multi_source_distance":
            return lambda args, kwargs, out: {"sources": len(set(args[1])), "n": args[0].n}
        if name == "degree3_blowup":
            return lambda args, kwargs, out: {"n": args[0].n, "blown_n": out[0].n}
        if name == "additive2_spanner":
            return lambda args, kwargs, out: {"m": args[0].m, "spanner_m": out.graph.m}
        if name == "ecc_2plusdelta":
            return lambda args, kwargs, out: {"phases": out.phases,
                                              "sample_misses": out.sample_misses}
        if name == "load_graph":
            return lambda args, kwargs, g: {"m": g.m}
        if name in ("ecc_2approx", "diam_dense_32", "ecc_dense_53", "approx_on_spanner"):
            return lambda args, kwargs, out: {"n": args[0].n}
        return None
