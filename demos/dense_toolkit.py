#!/usr/bin/env python3
"""Walkthrough: the dense-graph toolkit.

Shows the bounded-cluster center computation (bunches and clusters), the
additive-2 spanner, and the near-quadratic diameter / eccentricity
estimators built from them, against exact values.
"""

import math
from random import Random

from diamecc import (additive2_spanner, apsp_matrix, diam_dense_32,
                     diam_folklore_2approx, approx_on_spanner, ecc_dense_53,
                     exact_diameter, exact_eccentricities, tz_center)
from diamecc.graph import Graph


def random_connected(rng, n, extra):
    edges = [(i, rng.randrange(i), 1) for i in range(1, n)]
    seen = {(min(u, v), max(u, v)) for u, v, _ in edges}
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and (min(u, v), max(u, v)) not in seen:
            seen.add((min(u, v), max(u, v)))
            edges.append((u, v, 1))
    return Graph(n, edges, directed=False)


def main():
    rng = Random(5)
    n = 100
    g = random_connected(rng, n, 400)
    print(f"graph: {g}")

    p = 1 / math.sqrt(n)
    cd = tz_center(g, p, seed=0)
    biggest_bunch = max(len(b) for b in cd.bunches)
    biggest_cluster = max(len(c) for c in cd.clusters)
    print(f"\ncenters: |A| = {len(cd.centers)} at p = 1/sqrt(n) = {p:.3f}")
    print(f"  largest bunch {biggest_bunch} (cap {math.ceil(1 / p)}), "
          f"largest cluster {biggest_cluster} (cap {4 / p:.1f})")

    sp = additive2_spanner(g)
    stretch = (apsp_matrix(sp.graph) - apsp_matrix(g)).max()
    print(f"\nadditive-2 spanner: {sp.graph.m} of {g.m} edges kept, "
          f"{len(sp.dominators)} dominator trees, worst stretch +{int(stretch)}")

    D = exact_diameter(g)
    h, z = divmod(D, 3)
    est = diam_dense_32(g, seed=0)
    floor = 2 * h - 1 if z in (0, 1) else 2 * h
    print(f"\ndiameter: exact {D} = 3*{h}+{z}; estimate {est} (guaranteed in [{floor}, {D}])")

    ecc = exact_eccentricities(g)
    est5 = ecc_dense_53(g, seed=0)
    worst = min(est5.values[v] - (3 * ecc[v] / 5 - 1) for v in range(n))
    print(f"eccentricities: estimates within [3e/5 - 1, e]; tightest slack {worst:.2f}")

    composed = approx_on_spanner(g, diam_folklore_2approx)
    print(f"\nfolklore 2-approx run on the spanner, minus the additive slack: "
          f"{composed} (guaranteed in [D/2 - 2, D] = [{D / 2 - 2:.1f}, {D}])")


if __name__ == "__main__":
    main()
