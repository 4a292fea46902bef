"""Acceptance suite: one test per criterion, at the stated scale and
tolerance, each printing a PASS line with its runtime.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All bounds are exact (integer or exact-rational comparisons); the
randomized estimators' guarantees are tolerated to fail only when their
sample provably missed the neighborhood it must hit, in which case a
reseeded run must pass.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from random import Random

import numpy as np

from conftest import center_corpus, complete_graph, random_connected, random_strongly_connected
from diamecc import (Graph, STInstance, additive2_spanner, apsp_matrix,
                     build_diam_3km4, build_diam_5v8, build_diam_6v10,
                     build_diam_8v13, build_ecc_lb_directed,
                     build_ecc_lb_undirected, build_kov_layered,
                     diam_dense_32, diam_linear_lessthan2, ecc_2approx,
                     ecc_2plusdelta, ecc_dense_53, exact_diameter,
                     exact_eccentricities, exact_st_diameter, gen_ov,
                     st_2approx_sqrt, st_2approx_true, st_2approx_weighted,
                     st_3approx, st_via_diameter, tz_center,
                     verify_construction)
from diamecc.dense import _cluster_matrix


def _report(num, name, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({elapsed:.1f}s)")


def _mixed_random_graph(rng, n):
    directed = rng.random() < 0.5
    weighted = rng.random() < 0.5
    m = rng.randint(0, 3 * n)
    edges = []
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        edges.append((u, v, rng.randint(0, 10) if weighted else 1))
    return Graph(n, edges, directed=directed)


def _scc_corpus(count, max_n, seed):
    rng = Random(seed)
    corpus = []
    for _ in range(count):
        n = rng.randint(2, max_n)
        max_w = rng.choice([1, 1, 10])
        corpus.append(random_strongly_connected(rng, n, rng.randint(0, 2 * n), max_w))
    return corpus


def test_c01_oracle_self_consistency():
    t0 = time.perf_counter()
    rng = Random(101)
    for _ in range(200):
        n = rng.randint(1, 100)
        g = _mixed_random_graph(rng, n)
        D = apsp_matrix(g)
        assert exact_eccentricities(g, "out") == [D[v].max() for v in range(n)]
        assert exact_eccentricities(g, "in") == [D[:, v].max() for v in range(n)]
        S = rng.sample(range(n), rng.randint(1, n))
        T = rng.sample(range(n), rng.randint(1, n))
        assert exact_st_diameter(g, S, T) == D[np.ix_(sorted(set(S)), sorted(set(T)))].max()
    _report(1, "oracle self-consistency (200 graphs)", t0, 30)


def test_c02_two_approx_eccentricities():
    t0 = time.perf_counter()
    corpus = _scc_corpus(100, 80, 102)
    for g in corpus:
        ecc = exact_eccentricities(g)
        for seed in range(5):
            est = ecc_2approx(g, seed=seed)
            ok = all(2 * est.values[v] >= ecc[v] and est.values[v] <= ecc[v]
                     for v in range(g.n))
            if not ok:
                assert not est.certified, \
                    "guarantee failed although the sample met w's in-neighborhood"
                est = ecc_2approx(g, seed=seed + 10_000)
                assert all(2 * est.values[v] >= ecc[v] and est.values[v] <= ecc[v]
                           for v in range(g.n))
    _report(2, "2-approx eccentricities (100 digraphs x 5 seeds)", t0, 60)


def test_c03_two_plus_delta_eccentricities():
    t0 = time.perf_counter()
    corpus = _scc_corpus(100, 80, 102)
    taus = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2))

    def holds(est, ecc, tau):
        return all((1 - tau) * Fraction(ecc[v]) / 2 <= est.rationals[v] <= ecc[v]
                   for v in range(len(ecc)))

    for idx, g in enumerate(corpus):
        ecc = exact_eccentricities(g)
        for tau in taus:
            est = ecc_2plusdelta(g, tau, seed=idx)
            if not holds(est, ecc, tau):
                assert est.sample_misses > 0, \
                    "guarantee failed although every phase sample hit its half-set"
                est = ecc_2plusdelta(g, tau, seed=idx + 10_000)
                assert holds(est, ecc, tau), "reseeded run failed too"
    _report(3, "(2+delta)-approx eccentricities (100 digraphs x 3 taus)", t0, 60)


def test_c04_st_diameter_estimators():
    t0 = time.perf_counter()
    rng = Random(104)
    for trial in range(100):
        n = rng.randint(2, 48)
        g = random_connected(rng, n, rng.randint(0, 2 * n))
        S = rng.sample(range(n), rng.randint(1, n))
        T = rng.sample(range(n), rng.randint(1, n))
        inst = STInstance(g, S, T)
        D = exact_st_diameter(g, S, T)
        v3, _ = st_3approx(inst)
        assert 3 * v3 >= D and v3 <= D
        vs = st_2approx_sqrt(inst, seed=trial)
        assert 2 * (D // 4) <= vs <= D
        vt = st_2approx_true(inst, seed=trial)
        assert 2 * vt >= D and vt <= D
        gw = Graph(n, [(u, v, rng.randint(0, 10)) for u, v, _ in g.edges])
        instw = STInstance(gw, S, T)
        Dw = exact_st_diameter(gw, S, T)
        vw = st_2approx_weighted(instw, seed=trial, true_mode=True)
        assert 2 * vw >= Dw and vw <= Dw
    _report(4, "S-T diameter estimators (100 graphs, 4 algorithms)", t0, 120)


def test_c05_equivalence_reduction():
    t0 = time.perf_counter()
    rng = Random(105)
    for _ in range(100):
        n = rng.randint(1, 40)
        g = random_connected(rng, n, rng.randint(0, 2 * n), max_w=rng.choice([1, 4, 10]))
        S = rng.sample(range(n), rng.randint(1, n))
        T = rng.sample(range(n), rng.randint(1, n))
        inst = STInstance(g, S, T)
        assert st_via_diameter(inst, exact_diameter) == exact_st_diameter(g, S, T)
    _report(5, "S-T diameter via exact diameter solver (100 instances)", t0, 30)


def test_c06_linear_even_diameter():
    t0 = time.perf_counter()
    rng = Random(106)
    found = 0
    while found < 100:
        n = rng.randint(3, 60)
        g = random_strongly_connected(rng, n, rng.randint(0, 2 * n))
        D = exact_diameter(g)
        if D == 0 or D % 2 != 0:
            continue
        found += 1
        est = diam_linear_lessthan2(g)
        assert D // 2 + 1 <= est <= D
    _report(6, "less-than-2 diameter on even-diameter digraphs (100 graphs)", t0, 30)


def test_c07_center_termination_and_caps():
    t0 = time.perf_counter()
    for idx, g in enumerate(center_corpus(107)):
        n = g.n
        for p in (0.5, 0.25, 1 / math.ceil(math.sqrt(n))):
            cd = tz_center(g, p, seed=idx)
            centers = set(cd.centers)
            assert all(len(cd.clusters[w]) <= 4 / p
                       for w in range(n) if w not in centers)
            assert all(len(cd.bunches[v]) <= math.ceil(1 / p) for v in range(n))
    _report(7, "center computation caps (50 graphs x 3 p)", t0, 60)


def test_c08_cluster_matrix_lemmas():
    t0 = time.perf_counter()
    for idx, g in enumerate(center_corpus(107)):
        n = g.n
        D = apsp_matrix(g)
        for p in (0.5, 0.25, 1 / math.ceil(math.sqrt(n))):
            cd = tz_center(g, p, seed=idx)
            M = _cluster_matrix(cd)
            masks = [0] * n
            for v in range(n):
                for u, _ in cd.bunches[v]:
                    masks[v] |= 1 << u
            dA = cd.dist
            for u in range(n):
                Mu = M[u]
                Du = D[u]
                mu = masks[u]
                for v in range(u + 1, n):
                    if mu & masks[v]:
                        assert Mu[v] == Du[v]
                    else:
                        assert dA[u] + dA[v] - 1 <= Du[v]
    _report(8, "shared-cluster / disjoint-bunch lemmas (50 graphs x 3 p)", t0, 60)


def test_c09_spanner():
    t0 = time.perf_counter()
    rng = Random(109)
    corpus = [random_connected(rng, rng.randint(2, 60), rng.randint(0, 60 * 12))
              for _ in range(49)] + [complete_graph(60)]
    for g in corpus:
        n = g.n
        h = additive2_spanner(g).graph
        assert np.all(apsp_matrix(h) <= apsp_matrix(g) + 2)
        assert h.m <= 8 * n ** 1.5 * max(math.log(n), 1)
    _report(9, "additive-2 spanner stretch and size (50 graphs)", t0, 60)


def test_c10_dense_estimators():
    t0 = time.perf_counter()
    rng = Random(110)
    for trial in range(100):
        n = rng.randint(2, 120)
        g = random_connected(rng, n, rng.randint(0, 3 * n))
        ecc = exact_eccentricities(g)
        D = max(ecc)
        h, z = divmod(D, 3)
        floor = 2 * h - 1 if z in (0, 1) else 2 * h
        est = diam_dense_32(g, seed=trial)
        assert floor <= est <= D
        est5 = ecc_dense_53(g, seed=trial)
        for u in range(n):
            assert 5 * est5.values[u] >= 3 * ecc[u] - 5
            assert est5.values[u] <= ecc[u]
    _report(10, "dense diameter and eccentricity estimators (100 graphs)", t0, 180)


def test_c11_construction_gaps():
    t0 = time.perf_counter()

    def check(out):
        for result in verify_construction(out.graph, out.meta()):
            assert result.passed, (out.construction, out.params, result)

    for k in (2, 3, 4):
        for n in (2, 3):
            for d in (3, 4):
                for mode in ("unsat", "planted"):
                    check(build_kov_layered(gen_ov(k, n, d, mode, seed=k + n + d)))
    for builder, k, n, d in ((build_diam_5v8, 3, 2, 4), (build_diam_5v8, 3, 3, 4),
                             (build_diam_6v10, 3, 2, 4), (build_diam_6v10, 3, 3, 4),
                             (build_diam_3km4, 3, 3, 4), (build_diam_3km4, 4, 2, 3),
                             (build_diam_8v13, 4, 2, 3)):
        for mode in ("unsat", "planted"):
            check(builder(gen_ov(k, n, d, mode, seed=1)))
    for mode in ("unsat", "planted"):
        check(build_ecc_lb_undirected(gen_ov(3, 3, 4, mode, seed=2)))
        for L in (1, 2):
            check(build_ecc_lb_directed(gen_ov(2, 5, 4, mode, seed=3), L))
    _report(11, "construction distance gaps (kov grid + 5 gadgets + ecc bounds)", t0, 120)


def test_c12_determinism():
    t0 = time.perf_counter()
    rng = Random(112)
    digraphs = [random_strongly_connected(rng, rng.randint(2, 60), 40,
                                          max_w=rng.choice([1, 6]))
                for _ in range(25)]
    undirected = [random_connected(rng, rng.randint(2, 60), 40) for _ in range(25)]
    for i, g in enumerate(digraphs):
        assert repr(ecc_2approx(g, seed=i)) == repr(ecc_2approx(g, seed=i))
        assert repr(ecc_2plusdelta(g, Fraction(1, 4), seed=i)) == \
               repr(ecc_2plusdelta(g, Fraction(1, 4), seed=i))
    for i, g in enumerate(undirected):
        S = list(range(0, g.n, 2))
        T = list(range(1, g.n, 2)) or [0]
        inst = STInstance(g, S, T)
        assert st_2approx_sqrt(inst, seed=i) == st_2approx_sqrt(inst, seed=i)
        assert st_2approx_true(inst, seed=i) == st_2approx_true(inst, seed=i)
        assert st_2approx_weighted(inst, seed=i, true_mode=True) == \
               st_2approx_weighted(inst, seed=i, true_mode=True)
        assert repr(tz_center(g, 0.3, seed=i)) == repr(tz_center(g, 0.3, seed=i))
        assert diam_dense_32(g, seed=i) == diam_dense_32(g, seed=i)
        assert repr(ecc_dense_53(g, seed=i)) == repr(ecc_dense_53(g, seed=i))
    _report(12, "byte-identical reruns for every randomized estimator", t0, 120)
