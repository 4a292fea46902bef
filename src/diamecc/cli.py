"""Batch command line: run estimators, generate constructions, verify gaps.

Exit codes: 0 ok, 2 usage, 3 parse/metadata or file error, 4 precondition
violation, 5 construction size guard or out of memory.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from functools import cache

from .diam import diam_folklore_2approx, diam_linear_lessthan2
from .dense import approx_on_spanner, diam_dense_32, ecc_dense_53
from .eccen import ecc_2approx, ecc_2plusdelta, ecc_folklore_3approx, source_radius
from .graph import UNREACHABLE, GraphFormatError, load_graph, load_vertex_set
from .hardness import (BUILDERS, ConstructionSizeError, MetadataError, check_size, gen_ov,
                       load_construction, save_construction, verify_construction)
from .search import exact_diameter, exact_st_diameter
from .stdiam import (STInstance, st_2approx_sqrt, st_2approx_true, st_2approx_weighted,
                     st_3approx, st_via_diameter)

EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_PRECONDITION = 4
EXIT_SIZE = 5


def _jsonable(x):
    if isinstance(x, (list, tuple)):
        # A flat list with no UNREACHABLE dumps as it is.
        if UNREACHABLE not in x and {list, tuple}.isdisjoint(map(type, x)):
            return x
        return [_jsonable(v) for v in x]
    return None if x == UNREACHABLE else x


def _render(report: dict, as_json: bool) -> str:
    if as_json:
        return json.dumps({k: _jsonable(v) for k, v in report.items()}, sort_keys=True)
    parts = []
    for key, value in report.items():
        if isinstance(value, (list, tuple)):
            value = ",".join("unreachable" if v == UNREACHABLE else str(v) for v in value)
        elif value == UNREACHABLE:
            value = "unreachable"
        parts.append(f"{key}={value}")
    return " ".join(parts)


# The --inner choices of spanner-compose: Diameter functions of the graph alone.
DIAMETERS = {"exact": exact_diameter, "diam-folk": diam_folklore_2approx,
             "diam-lin": diam_linear_lessthan2}


def _fraction(text: str) -> Fraction:
    """The type of --tau: an exact rational, so "1/0" is a usage error too."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid fraction {text!r}") from None


def _tau(args) -> Fraction:
    return args.tau if args.tau is not None else Fraction(1, 4)


def _ecc2(g, inst, args):
    est = ecc_2approx(g, args.seed)
    return {"estimates": est.values, "unreachable": est.has_unreachable}


def _radius(g, inst, args):
    variant = "2plusdelta" if args.tau is not None else "2approx"
    vertex, value = source_radius(g, variant, args.seed, _tau(args))
    return {"estimate": value, "vertex": vertex}


def _st3(g, inst, args):
    value, pair = st_3approx(inst)
    return {"estimate": value, "witness": list(pair)}


def _st2(inst: STInstance, seed: int, true_mode: bool):
    if not inst.graph.unit_weights:
        return st_2approx_weighted(inst, seed, true_mode=true_mode)
    return (st_2approx_true if true_mode else st_2approx_sqrt)(inst, seed)


# name -> (needs --sets, reports --seed, fields(graph, STInstance or None, args)).
# The text report lists method, n, m and seed, then the fields in order.
METHODS = {
    "exact": (False, False, lambda g, inst, a: {
        "estimate": exact_diameter(g) if inst is None else exact_st_diameter(g, inst.S, inst.T)}),
    "ecc2": (False, True, _ecc2),
    "ecc2d": (False, True, lambda g, inst, a: {
        "estimates": ecc_2plusdelta(g, _tau(a), a.seed).values, "tau": str(_tau(a))}),
    "ecc-folk": (False, False, lambda g, inst, a: {"estimates": ecc_folklore_3approx(g).values}),
    "radius": (False, True, _radius),
    "diam-folk": (False, False, lambda g, inst, a: {"estimate": diam_folklore_2approx(g)}),
    "diam-lin": (False, False, lambda g, inst, a: {"estimate": diam_linear_lessthan2(g)}),
    "diam-dense": (False, True, lambda g, inst, a: {"estimate": diam_dense_32(g, a.seed)}),
    "ecc-dense": (False, True, lambda g, inst, a: {"estimates": ecc_dense_53(g, a.seed).values}),
    "st3": (True, False, _st3),
    "st2": (True, True, lambda g, inst, a: {"estimate": _st2(inst, a.seed, False)}),
    "st2true": (True, True, lambda g, inst, a: {"estimate": _st2(inst, a.seed, True)}),
    "st-equiv": (True, False, lambda g, inst, a: {
        "estimate": st_via_diameter(inst, exact_diameter)}),
    "spanner-compose": (False, False, lambda g, inst, a: {
        "estimate": approx_on_spanner(g, DIAMETERS[a.inner]), "inner": a.inner}),
}
RUN_METHODS = tuple(METHODS)
SET_METHODS = tuple(name for name, (needs_sets, _, _) in METHODS.items() if needs_sets)


def _run(args) -> int:
    try:
        g = load_graph(args.input)
        sets = [load_vertex_set(path) for path in args.sets or ()]
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GraphFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    method = args.method
    needs_sets, seeded, fields = METHODS[method]
    if needs_sets and not sets:
        print(f"error: {method} needs --sets S.txt T.txt", file=sys.stderr)
        return EXIT_USAGE
    report = {"method": method, "n": g.n, "m": g.m, "seed": args.seed if seeded else None}
    t0 = time.perf_counter()
    try:
        inst = STInstance(g, *sets) if sets else None
        report.update(fields(g, inst, args))
    except ValueError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except MemoryError:
        print(f"out of memory: {method} on n={g.n}, m={g.m}", file=sys.stderr)
        return EXIT_SIZE
    report["millis"] = int((time.perf_counter() - t0) * 1000)
    print(_render(report, args.json))
    return 0


def _gen(args) -> int:
    name = args.construction
    fixed_k = {"5v8": 3, "6v10": 3, "8v13": 4, "ecc-dir": 2}
    k = args.k
    if name in fixed_k:
        if k is not None and k != fixed_k[name]:
            print(f"error: construction {name} is fixed at k={fixed_k[name]}", file=sys.stderr)
            return EXIT_USAGE
        k = fixed_k[name]
    elif k is None:
        print(f"error: construction {name} needs --k", file=sys.stderr)
        return EXIT_USAGE
    if name == "3km4" and k < 3:
        print("error: 3km4 needs k >= 3", file=sys.stderr)
        return EXIT_USAGE
    if name == "ecc-dir" and args.L is None:
        print("error: ecc-dir needs --L", file=sys.stderr)
        return EXIT_USAGE
    try:
        check_size(name, k, args.n, args.d, args.max_edges, args.L or 0)
        inst = gen_ov(k, args.n, args.d, args.mode, args.seed)
        if name == "ecc-dir":
            out = BUILDERS[name](inst, args.L, max_edges=args.max_edges)
        else:
            out = BUILDERS[name](inst, max_edges=args.max_edges)
        graph_path, meta_path = save_construction(out, args.out)
    except ConstructionSizeError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MemoryError:
        print(f"out of memory: {name} at k={k}, n={args.n}, d={args.d}", file=sys.stderr)
        return EXIT_SIZE
    print(f"wrote {graph_path} ({out.graph.n} vertices, {out.graph.m} edges) and {meta_path}")
    return 0


def _verify(args) -> int:
    try:
        g, meta = load_construction(args.graph, args.meta)
        checks = verify_construction(g, meta)
    except (OSError, GraphFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (MetadataError, json.JSONDecodeError) as exc:
        print(f"error: {args.meta}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MemoryError:
        print(f"out of memory: verify on {args.graph}", file=sys.stderr)
        return EXIT_SIZE
    ok = True
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status}: {check.name} ({check.detail})")
        ok = ok and check.passed
    return 0 if ok else 1


# Built once per process: parse_args keeps no state and gives each call a new Namespace.
@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diamecc",
        description="Graph diameter / eccentricity / S-T diameter estimators "
                    "and hardness-construction tooling.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an estimator or exact oracle on a graph file")
    run.add_argument("method", choices=RUN_METHODS)
    run.add_argument("--input", required=True, help="edge-list graph file")
    run.add_argument("--sets", nargs=2, metavar=("S", "T"), help="vertex-set files for st-* methods")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--tau", type=_fraction, default=None, metavar="P/Q",
                     help="exact rational threshold for ecc2d / radius")
    run.add_argument("--inner", choices=tuple(DIAMETERS),
                     default="diam-folk", help="inner algorithm for spanner-compose")
    run.add_argument("--json", action="store_true", help="one JSON object per line")
    run.set_defaults(func=_run)

    gen = sub.add_parser("gen", help="generate a hardness construction")
    gen.add_argument("--construction", required=True, choices=sorted(BUILDERS))
    gen.add_argument("--k", type=int, default=None)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--L", type=int, default=None, help="path length for ecc-dir")
    gen.add_argument("--mode", choices=("unsat", "planted"), default="unsat")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--max-edges", type=int, default=2_000_000)
    gen.add_argument("--out", required=True, help="output prefix (PREFIX.graph, PREFIX.meta.json)")
    gen.set_defaults(func=_gen)

    ver = sub.add_parser("verify", help="recheck a construction's promised gap with the exact oracle")
    ver.add_argument("--graph", required=True)
    ver.add_argument("--meta", required=True)
    ver.set_defaults(func=_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
