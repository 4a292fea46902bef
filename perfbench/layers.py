"""Per-layer metrics from the spans of a traced run.

A layer is a diamecc module; a span's layer is the prefix of its name
(``search._bfs`` -> ``search``), and the job's root span is ``cli.main``.
Self time is a span's duration minus the time its child spans cover.
Counts (searches, arcs, phases) are machine-independent and repeat
exactly for a seed.  Times are medians over the traced passes.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

KERNEL = {"search._bfs": "bfs", "search._zero_one_bfs": "zero_one",
          "search._dijkstra": "dijkstra"}
SEARCHES = set(KERNEL) | {"search.k_closest"}
DIAM_ESTIMATORS = ("diam.diam_folklore_2approx", "diam.diam_linear_lessthan2")
STDIAM_ESTIMATORS = ("stdiam.st_3approx", "stdiam.st_2approx_sqrt", "stdiam.st_2approx_true",
                     "stdiam.st_2approx_weighted", "stdiam.st_via_diameter")
# The dense-tz estimators whose times the scaling fit uses.
DENSE_ESTIMATORS = ("dense.diam_dense_32", "dense.ecc_dense_53", "dense.approx_on_spanner")


class Missing(Exception):
    """A metric's source entry point is gone from the program."""


class Pass:
    """Spans of one traced pass, with self times and search counts."""

    def __init__(self, spans, installed):
        self.installed = installed
        self.spans = spans
        by_id = {s["id"]: s for s in spans}
        cover = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                cover[s["parent"]] += s["t2"] - s["t0"]
        self.searches = defaultdict(int)  # span id -> searches beneath it
        for s in spans:
            s["dur"] = s["t1"] - s["t0"]
            s["self"] = s["dur"] - cover[s["id"]]
            s["anc"] = anc = []
            p = s["parent"]
            while p is not None:
                anc.append(by_id[p])
                p = by_id[p]["parent"]
            if s["name"] in SEARCHES:
                for a in anc:
                    self.searches[a["id"]] += 1
        self.by_name = defaultdict(list)
        for s in spans:
            self.by_name[s["name"]].append(s)

    def need(self, *names):
        for name in names:
            if name != "cli.main" and name not in self.installed:
                raise Missing(name)

    def named(self, name):
        self.need(name)
        return self.by_name.get(name, [])

    def total(self, name) -> float:
        return sum(s["dur"] for s in self.named(name))

    def count(self, name) -> int:
        return len(self.named(name))

    def attr(self, name, key) -> list:
        return [s["attrs"][key] for s in self.named(name) if s["attrs"]]

    def self_time(self, layer) -> float:
        return sum(s["self"] for s in self.spans if s["name"].split(".")[0] == layer)

    def per_call_searches(self, names) -> float:
        """Mean searches per outermost call of any of the named estimators."""
        self.need(*names)
        calls = [s for name in names for s in self.by_name.get(name, [])
                 if not any(a["name"] in names for a in s["anc"])]
        return _mean([self.searches[s["id"]] for s in calls])


def _mean(xs) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def _ratio(a, b, scale=1.0) -> float:
    return a / b * scale if b else 0.0


def pass_metrics(p: Pass) -> dict:
    out = {}

    def put(key, thunk):
        try:
            out[key] = thunk()
        except Missing:
            pass

    jobs_s = p.total("cli.main")
    put("graph.load_graph.total_s", lambda: p.total("graph.load_graph"))
    put("graph.parse_ns_per_edge", lambda: _ratio(p.total("graph.load_graph"),
                                                  sum(p.attr("graph.load_graph", "m")), 1e9))
    put("graph.format_graph.total_s", lambda: p.total("graph.format_graph"))

    put("search.calls", lambda: sum(p.count(n) for n in SEARCHES))
    put("search.sssp.calls", lambda: p.count("search.sssp"))
    put("search.multi_source.calls", lambda: p.count("search.multi_source_distance"))
    put("search.k_closest.calls", lambda: p.count("search.k_closest"))
    exact = [n for n in p.installed if n.startswith("search.exact_")]
    put("search.exact.calls", lambda: sum(
        1 for n in exact for s in p.named(n)
        if not any(a["name"] in exact for a in s["anc"])))
    put("search.arcs", lambda: sum(sum(p.attr(n, "arcs")) for n in KERNEL))
    put("search.k_closest.arcs_lb", lambda: sum(p.attr("search.k_closest", "arcs_lb")))
    put("search.self_s", lambda: p.self_time("search"))
    put("search.share", lambda: _ratio(p.self_time("search"), jobs_s))
    for name, kernel in KERNEL.items():
        put(f"search.{kernel}.ns_per_arc",
            lambda name=name: _ratio(p.total(name), sum(p.attr(name, "arcs")), 1e9))
    put("search.k_closest.ns_per_vertex", lambda: _ratio(
        p.total("search.k_closest"), sum(p.attr("search.k_closest", "vertices")), 1e9))

    put("stdiam.degree3_blowup.total_s", lambda: p.total("search.degree3_blowup"))
    put("stdiam.blowup_ratio", lambda: _mean([
        s["attrs"]["blown_n"] / s["attrs"]["n"] for s in p.named("search.degree3_blowup")
        if s["attrs"] and s["attrs"]["n"]]))
    put("stdiam.searches", lambda: p.per_call_searches(STDIAM_ESTIMATORS))
    put("stdiam.self_s", lambda: p.self_time("stdiam"))

    put("dense.tz_center.total_s", lambda: p.total("dense.tz_center"))
    put("dense.k_closest.total_s", lambda: sum(
        s["dur"] for s in p.named("search.k_closest")
        if any(a["name"].startswith("dense.") for a in s["anc"])))
    put("dense.hitting_set.total_s", lambda: p.total("dense._greedy_hitting_set"))
    put("dense.spanner.total_s", lambda: p.total("dense.additive2_spanner"))
    put("dense.cluster_matrix.total_s", lambda: p.total("dense._cluster_matrix"))
    put("dense.spanner_edge_ratio", lambda: _mean([
        s["attrs"]["spanner_m"] / s["attrs"]["m"] for s in p.named("dense.additive2_spanner")
        if s["attrs"] and s["attrs"]["m"]]))

    put("eccen.self_s", lambda: p.self_time("eccen"))
    put("eccen.ecc_2approx.searches", lambda: p.per_call_searches(("eccen.ecc_2approx",)))
    put("eccen.ecc_2plusdelta.searches", lambda: p.per_call_searches(("eccen.ecc_2plusdelta",)))
    put("eccen.ecc_2plusdelta.phases", lambda: _mean(p.attr("eccen.ecc_2plusdelta", "phases")))
    put("eccen.ecc_2plusdelta.sample_misses",
        lambda: sum(p.attr("eccen.ecc_2plusdelta", "sample_misses")))

    def sample_frac():
        p.need("search.multi_source_distance")
        fracs = [c["attrs"]["sources"] / c["attrs"]["n"]
                 for c in p.spans if c["name"] == "search.multi_source_distance"
                 and c["attrs"] and any(a["name"] == "eccen.ecc_2approx" for a in c["anc"])]
        p.need("eccen.ecc_2approx")
        return _mean(fracs)
    put("eccen.sample_frac", sample_frac)

    put("diam.self_s", lambda: p.self_time("diam"))
    put("diam.searches", lambda: p.per_call_searches(DIAM_ESTIMATORS))

    put("hardness.build.total_s", lambda: sum(
        p.total(n) for n in p.installed if n.startswith("hardness.build_")))
    put("hardness.save_construction.total_s", lambda: p.total("hardness.save_construction"))
    put("hardness.verify_construction.total_s",
        lambda: p.total("hardness.verify_construction"))
    put("cli.self_s", lambda: p.self_time("cli"))
    return out


def dense_exponent(passes) -> float | None:
    """Mean over dense estimators of the log-log slope of time against n.

    Durations of the estimator calls made directly by a job are grouped by
    (estimator, n), their median taken, and a least-squares line fitted to
    log(time) over log(n).  0 when the run made no dense estimator calls.
    """
    if not all(name in passes[0].installed for name in DENSE_ESTIMATORS):
        return None
    times = defaultdict(list)
    for p in passes:
        for name in DENSE_ESTIMATORS:
            for s in p.by_name.get(name, []):
                if len(s["anc"]) == 1 and s["attrs"]:
                    times[(name, s["attrs"]["n"])].append(s["dur"])
    slopes = []
    for name in DENSE_ESTIMATORS:
        pts = sorted((n, statistics.median(ts)) for (m, n), ts in times.items() if m == name)
        if len(pts) < 2:
            continue
        xs = [math.log(n) for n, _ in pts]
        ys = [math.log(t) for _, t in pts]
        mx, my = _mean(xs), _mean(ys)
        slopes.append(sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                      / sum((x - mx) ** 2 for x in xs))
    return _mean(slopes)


def layer_metrics(spans, installed) -> dict:
    """Median of each per-pass metric over the traced passes, plus the exponent."""
    by_pass = defaultdict(list)
    for s in spans:
        by_pass[s["pass"]].append(s)
    passes = [Pass(by_pass[k], installed) for k in sorted(by_pass)]
    rows = [pass_metrics(p) for p in passes]
    out = {key: statistics.median(r[key] for r in rows) for key in rows[0]}
    exponent = dense_exponent(passes)
    if exponent is not None:
        out["dense.exponent"] = exponent
    return out
