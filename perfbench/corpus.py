"""Seeded corpus, job lists and exact reference values for each workload.

Everything here is derived from the workload seed alone, so the same seed
writes byte-identical files.  Graphs are written in diamecc's edge-list
format and read back by the program through ``diamecc run --input``; the
program gets the generated files and per-job ``--seed`` values derived from
the workload seed, never the workload seed itself.  Reference values come from
``scipy.sparse.csgraph`` on an independently parsed copy of each file and
share no code with ``diamecc``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from random import Random

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

TAU = "1/4"

# The workloads; why each exists is recorded in BENCHMARK.json.
WORKLOADS = ("sparse-ecc", "dense-tz", "st-sweep", "ov-fixtures")


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def strongly_connected_digraph(rng: Random, n: int, m: int, max_w: int) -> dict:
    """Distinct arcs: a hidden Hamiltonian cycle plus random arcs up to m."""
    perm = list(range(n))
    rng.shuffle(perm)
    arcs = {(perm[i], perm[(i + 1) % n]): rng.randint(1, max_w) for i in range(n)}
    while len(arcs) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (u, v) not in arcs:
            arcs[(u, v)] = rng.randint(1, max_w)
    return arcs


def connected_graph(rng: Random, n: int, m: int, max_w: int) -> dict:
    """Distinct undirected edges: a random tree on shuffled labels plus extras."""
    label = list(range(n))
    rng.shuffle(label)
    edges = {}
    for i in range(1, n):
        u, v = label[i], label[rng.randrange(i)]
        edges[(min(u, v), max(u, v))] = rng.randint(1, max_w)
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        key = (min(u, v), max(u, v))
        if u != v and key not in edges:
            edges[key] = rng.randint(1, max_w)
    return edges


def write_graph(path: Path, n: int, edges: dict, directed: bool, max_w: int) -> None:
    weighted = max_w > 1
    lines = [f"{n} {len(edges)} {'directed' if directed else 'undirected'} "
             f"{'weighted' if weighted else 'unweighted'}"]
    for (u, v), w in edges.items():
        lines.append(f"{u} {v} {w}" if weighted else f"{u} {v}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_set(path: Path, ids) -> None:
    path.write_text("".join(f"{v}\n" for v in ids), encoding="utf-8")


# ---------------------------------------------------------------------------
# Independent oracle
# ---------------------------------------------------------------------------

def read_graph(path: Path):
    """Parse an edge-list file into (n, directed, csr) with min-weight dedupe."""
    n = None
    directed = weighted = False
    best = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        f = line.split()
        if n is None:
            n, directed, weighted = int(f[0]), f[2] == "directed", f[3] == "weighted"
            continue
        u, v, w = int(f[0]), int(f[1]), int(f[2]) if weighted else 1
        if u == v:
            continue
        key = (u, v) if directed else (min(u, v), max(u, v))
        if w < best.get(key, math.inf):
            best[key] = w
    rows = np.fromiter((k[0] for k in best), dtype=np.int64, count=len(best))
    cols = np.fromiter((k[1] for k in best), dtype=np.int64, count=len(best))
    vals = np.fromiter(best.values(), dtype=np.float64, count=len(best))
    if np.any(vals == 0):
        raise ValueError(f"{path}: 0-weight edges are outside the oracle's scope")
    return n, directed, csr_matrix((vals, (rows, cols)), shape=(n, n))


def distances(graph, sources=None) -> np.ndarray:
    """Exact distance rows of a read_graph result (all sources, or the
    listed ones); inf marks unreachable pairs."""
    _, directed, mat = graph
    return shortest_path(mat, method="D", directed=directed, indices=sources)


def _finite(x) -> int | None:
    return None if math.isinf(x) else int(x)


def ecc_truth(path: Path) -> dict:
    ecc = distances(read_graph(path)).max(axis=1)
    return {"ecc": [_finite(x) for x in ecc], "diameter": _finite(ecc.max()),
            "radius": _finite(ecc.min())}


def st_truth(path: Path, S, T) -> int | None:
    d = distances(read_graph(path), sources=list(S))
    return _finite(d[:, list(T)].max())


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _run(method, graph, *extra):
    return ["run", method, "--input", graph, *extra, "--json"]


def sparse_ecc(seed: int, out: Path) -> dict:
    """Strongly connected digraphs, m = 5n: unit weights at n = 1000 and 1500,
    weights 1..8 at n = 700."""
    specs = [(1000, 1), (1500, 1), (700, 8)]
    graphs, jobs = {}, []
    for i, (n, max_w) in enumerate(specs):
        rng = Random(f"sparse-ecc/{seed}/{i}")
        path = out / f"sparse{i}-n{n}-w{max_w}.graph"
        write_graph(path, n, strongly_connected_digraph(rng, n, 5 * n, max_w), True, max_w)
        gid = path.name
        graphs[gid] = ecc_truth(path)
        job_seed = str(rng.randrange(10**6))
        for argv, method in (
                (_run("ecc2", gid, "--seed", job_seed), "ecc2"),
                (_run("ecc2d", gid, "--tau", TAU, "--seed", job_seed), "ecc2d"),
                (_run("radius", gid, "--tau", TAU, "--seed", job_seed), "radius"),
                (_run("diam-folk", gid), "diam-folk"),
                (_run("diam-lin", gid), "diam-lin")):
            jobs.append({"argv": argv, "method": method, "graph": gid})
    return {"graphs": graphs, "jobs": jobs}


DENSE_SIZES = (100, 170, 240)
DENSE_COPIES = 3


def dense_tz(seed: int, out: Path) -> dict:
    """Connected undirected unit graphs with m = n^2/8, DENSE_COPIES per size."""
    graphs, jobs = {}, []
    for n in DENSE_SIZES:
        for rep in range(DENSE_COPIES):
            rng = Random(f"dense-tz/{seed}/{n}/{rep}")
            path = out / f"dense-n{n}-{rep}.graph"
            write_graph(path, n, connected_graph(rng, n, n * n // 8, 1), False, 1)
            gid = path.name
            graphs[gid] = ecc_truth(path)
            graphs[gid]["n"] = n
            job_seed = str(rng.randrange(10**6))
            for argv, method in (
                    (_run("diam-dense", gid, "--seed", job_seed), "diam-dense"),
                    (_run("ecc-dense", gid, "--seed", job_seed), "ecc-dense"),
                    (_run("spanner-compose", gid, "--inner", "diam-lin",
                          "--seed", job_seed), "spanner-compose")):
                jobs.append({"argv": argv, "method": method, "graph": gid})
    return {"graphs": graphs, "jobs": jobs}


# (n, max weight, methods): |S| = |T| = n/10, m = n - 1 + 3n.
ST_SPECS = ((150, 1, ("st3", "st2", "st2true", "st-equiv")),
            (600, 1, ("st3", "st2")),
            (240, 6, ("st2", "st2true")))
ST_COPIES = 3


def st_sweep(seed: int, out: Path) -> dict:
    """S-T instances on random connected graphs, ST_COPIES per spec."""
    graphs, jobs = {}, []
    for rep in range(ST_COPIES):
        for n, max_w, methods in ST_SPECS:
            rng = Random(f"st-sweep/{seed}/{n}/{max_w}/{rep}")
            stem = f"st-n{n}-w{max_w}-{rep}"
            gid, s_name, t_name = f"{stem}.graph", f"{stem}.S.txt", f"{stem}.T.txt"
            write_graph(out / gid, n, connected_graph(rng, n, 4 * n - 1, max_w), False, max_w)
            picked = rng.sample(range(n), 2 * (n // 10))
            S, T = sorted(picked[:n // 10]), sorted(picked[n // 10:])
            write_set(out / s_name, S)
            write_set(out / t_name, T)
            graphs[gid] = {"st": st_truth(out / gid, S, T), "weighted": max_w > 1}
            job_seed = str(rng.randrange(10**6))
            for method in methods:
                argv = _run(method, gid, "--sets", s_name, t_name, "--seed", job_seed)
                jobs.append({"argv": argv, "method": method, "graph": gid})
    return {"graphs": graphs, "jobs": jobs}


# construction -> gen arguments besides --construction/--mode/--seed/--out.
# Gadget sizes depend on the random vectors, so each construction is built
# twice per pass from independent seeds; the sum over fixtures then varies
# less from one workload seed to the next.  8v13 varies most and stays small.
# The unsat 5v8, 6v10 and 3km4 verifies cost about the same, so the slowest
# tenth of the jobs is one group rather than the edge between two.
OV_FIXTURES = (
    ("kov", ("--k", "3", "--n", "10", "--d", "5")),
    ("5v8", ("--n", "10", "--d", "5")),
    ("6v10", ("--n", "8", "--d", "5")),
    ("3km4", ("--k", "3", "--n", "10", "--d", "5")),
    ("8v13", ("--n", "3", "--d", "4")),
    ("ecc-und", ("--k", "3", "--n", "10", "--d", "5")),
    ("ecc-dir", ("--k", "2", "--n", "120", "--d", "10", "--L", "8")),
)
OV_COPIES = 2
DIAMETER_GADGETS = ("5v8", "6v10", "3km4", "8v13")


def ov_gen_jobs(seed: int) -> list:
    """The `gen` half of ov-fixtures: every construction in both modes."""
    jobs = []
    for copy in range(OV_COPIES):
        for i, (name, params) in enumerate(OV_FIXTURES):
            gen_seed = str(Random(f"ov-fixtures/{seed}/{copy}/{i}").randrange(10**6))
            for mode in ("unsat", "planted"):
                prefix = f"{name}-{mode}-{copy}"
                argv = ["gen", "--construction", name, *params, "--mode", mode,
                        "--seed", gen_seed, "--out", prefix]
                jobs.append({"argv": argv, "method": "gen", "graph": f"{prefix}.graph",
                             "files": [f"{prefix}.graph", f"{prefix}.meta.json"]})
    return jobs


def ov_fixtures(seed: int, out: Path, generated: dict) -> dict:
    """Full ov-fixtures job list, given the files a set-up `gen` pass wrote.

    ``generated`` maps each written file to its sha256.  Reference values
    are computed from those files; the timed passes must rewrite them
    byte for byte.
    """
    graphs, jobs = {}, []
    for gen in ov_gen_jobs(seed):
        gid, meta_name = gen["files"]
        gen["sha256"] = [generated[gid], generated[meta_name]]
        meta = json.loads((out / meta_name).read_text(encoding="utf-8"))
        graphs[gid] = truth = ov_truth(out / gid, meta)
        jobs.append(gen)
        jobs.append({"argv": ["verify", "--graph", gid, "--meta", meta_name],
                     "method": "verify", "graph": gid})
        name = meta["construction"]
        if name in DIAMETER_GADGETS:
            jobs.append({"argv": _run("diam-lin", gid), "method": "diam-lin",
                         "graph": gid})
        elif name == "kov" and meta["mode"] == "unsat":
            stem = gid.removesuffix(".graph")
            s_name, t_name = f"{stem}.S.txt", f"{stem}.T.txt"
            S, T = range(*meta["sets"]["S"]), range(*meta["sets"]["T"])
            write_set(out / s_name, S)
            write_set(out / t_name, T)
            truth["st"] = st_truth(out / gid, S, T)
            for method in ("st3", "st2"):
                jobs.append({"argv": _run(method, gid, "--sets", s_name, t_name),
                             "method": method, "graph": gid})
    return {"graphs": graphs, "jobs": jobs}


def ov_truth(path: Path, meta: dict) -> dict:
    """Whether the construction's promise holds, recomputed with scipy."""
    graph = read_graph(path)
    truth = {"n": graph[0]}
    if meta["construction"] in DIAMETER_GADGETS:
        truth["diameter"] = _finite(distances(graph).max())
    if meta["mode"] == "planted":
        u, v = meta["witness"]
        truth["promise"] = bool(distances(graph, sources=[u])[0, v] >= meta["promised_high"])
        return truth
    low = meta["promised_low"]
    sets = {k: range(*r) for k, r in meta["sets"].items()}
    scope = meta["scope"]
    if scope == "st":
        d = distances(graph, sources=list(sets["S"]))[:, list(sets["T"])]
        truth["promise"] = bool(np.all(d == low))
    elif scope == "diameter":
        truth["promise"] = truth["diameter"] is not None and truth["diameter"] <= low
    elif scope == "ecc_from_s":
        truth["promise"] = bool(distances(graph, sources=list(sets["S"])).max() <= low)
    elif scope == "ecc_out_all":
        ecc = distances(graph, sources=list(sets["U"])).max(axis=1)
        truth["promise"] = bool(np.all(ecc == low))
    else:
        raise ValueError(f"unknown scope {scope!r}")
    return truth


BUILDERS = {"sparse-ecc": sparse_ecc, "dense-tz": dense_tz, "st-sweep": st_sweep}


