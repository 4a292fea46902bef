"""S-T Diameter estimators and the exact equivalence reduction."""

from __future__ import annotations

from bisect import bisect_right
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (bellman_ford, path_graph, random_connected, random_graph,
                      reference_st_sweep, star_graph)
from diamecc import search, stdiam
from diamecc.eccen import _sqrt_sample_size, ceil_sqrt
from diamecc import (UNREACHABLE, Graph, STInstance, build_equivalence_gadget, degree3_blowup,
                     exact_diameter, exact_st_diameter, gen_ov,
                     build_kov_layered, sssp, st_2approx_sqrt, st_2approx_true,
                     st_2approx_weighted, st_3approx, st_via_diameter)


def random_st_instance(rng, n, extra, max_w=1):
    g = random_connected(rng, n, extra, max_w)
    S = rng.sample(range(n), rng.randint(1, n))
    T = rng.sample(range(n), rng.randint(1, n))
    return STInstance(g, S, T)


class TestST3Approx:
    def test_path_singletons_exact(self):
        inst = STInstance(path_graph(5), {0}, {4})
        value, pair = st_3approx(inst)
        assert value == 4 and pair == (0, 4)

    def test_star_leaves(self):
        g = star_graph(5)
        leaves = range(1, 6)
        value, pair = st_3approx(STInstance(g, leaves, leaves))
        assert value == 2

    def test_bounds_random(self):
        rng = Random(20)
        for _ in range(30):
            inst = random_st_instance(rng, rng.randint(2, 40), rng.randint(0, 40),
                                      max_w=rng.choice([1, 6]))
            D = exact_st_diameter(inst.graph, inst.S, inst.T)
            value, (s, t) = st_3approx(inst)
            assert 3 * value >= D and value <= D
            assert s in inst.S and t in inst.T
            assert sssp(inst.graph, s)[t] == value  # witness realizes the estimate

    def test_empty_sets_rejected(self):
        with pytest.raises(ValueError):
            STInstance(path_graph(3), [], [0])


class TestST2ApproxSqrt:
    def test_long_path(self):
        inst = STInstance(path_graph(9), {0}, {8})
        value = st_2approx_sqrt(inst, seed=0)
        assert 4 <= value <= 8  # 2*floor(8/4) lower bound

    def test_degenerate_zero(self):
        g = path_graph(2)
        assert st_2approx_sqrt(STInstance(g, {0}, {0}), seed=0) == 0

    def test_layered_fixture(self):
        unsat = build_kov_layered(gen_ov(3, 3, 4, "unsat", 0))
        inst = STInstance(unsat.graph, range(*unsat.sets["S"]), range(*unsat.sets["T"]))
        value = st_2approx_sqrt(inst, seed=0)
        assert 2 * (3 // 4) <= value <= 3

    def test_bounds_random(self):
        rng = Random(21)
        for trial in range(25):
            inst = random_st_instance(rng, rng.randint(2, 40), rng.randint(0, 50))
            D = exact_st_diameter(inst.graph, inst.S, inst.T)
            value = st_2approx_sqrt(inst, seed=trial)
            assert 2 * (D // 4) <= value <= D

    def test_rejects_weighted_and_directed(self):
        gw = Graph(2, [(0, 1, 3)])
        with pytest.raises(ValueError):
            st_2approx_sqrt(STInstance(gw, {0}, {1}))
        gd = Graph(2, [(0, 1, 1)], directed=True)
        with pytest.raises(ValueError):
            st_2approx_sqrt(STInstance(gd, {0}, {1}))


class TestST2ApproxTrue:
    def test_path_seven(self):
        inst = STInstance(path_graph(8), {0}, {7})
        value = st_2approx_true(inst, seed=0)
        assert 4 <= value <= 7  # ceil(7/2)

    def test_single_edge(self):
        assert st_2approx_true(STInstance(path_graph(2), {0}, {1}), seed=0) == 1

    def test_halved_bound_many_seeds(self):
        rng = Random(22)
        for trial in range(40):
            inst = random_st_instance(rng, rng.randint(2, 30), rng.randint(0, 30))
            D = exact_st_diameter(inst.graph, inst.S, inst.T)
            value = st_2approx_true(inst, seed=trial)
            assert 2 * value >= D and value <= D


class TestST2ApproxWeighted:
    def test_weighted_path_true_mode(self):
        inst = STInstance(path_graph(3, weights=[3, 3]), {0}, {2})
        value = st_2approx_weighted(inst, seed=0, true_mode=True)
        assert 3 <= value <= 6

    def test_all_zero_weights(self):
        g = Graph(3, [(0, 1, 0), (1, 2, 0)])
        assert st_2approx_weighted(STInstance(g, {0}, {2}), seed=0) == 0

    def test_true_mode_bounds_random(self):
        rng = Random(23)
        for trial in range(25):
            inst = random_st_instance(rng, rng.randint(2, 30), rng.randint(0, 30),
                                      max_w=9)
            D = exact_st_diameter(inst.graph, inst.S, inst.T)
            value = st_2approx_weighted(inst, seed=trial, true_mode=True)
            assert 2 * value >= D and value <= D

    def test_loose_mode_upper_bound_only(self):
        rng = Random(24)
        for trial in range(15):
            inst = random_st_instance(rng, rng.randint(2, 30), rng.randint(0, 30),
                                      max_w=9)
            D = exact_st_diameter(inst.graph, inst.S, inst.T)
            assert st_2approx_weighted(inst, seed=trial) <= D


def _sweep_cases():
    """About 100 random undirected instances: multi-edges, isolated and
    low-degree vertices, disconnected graphs, and in half of them weights
    from 0; one in five is large enough for several 64-source ring passes."""
    rng = Random(30)
    for i in range(100):
        weighted = i % 2 == 1
        n = rng.randint(65, 110) if i % 10 >= 8 else rng.randint(1, 50)
        g = random_graph(rng, n, rng.randint(0, 3 * n), directed=False,
                         max_w=rng.choice([1, 4, 9]) if weighted else 1,
                         min_w=0 if weighted else None)
        S = rng.sample(range(n), rng.randint(1, n))
        T = rng.sample(range(n), rng.randint(1, n))
        yield STInstance(g, S, T)


ESTIMATORS = {"sqrt": st_2approx_sqrt, "true": st_2approx_true,
              "weighted": st_2approx_weighted,
              "weighted-true": lambda inst, seed: st_2approx_weighted(inst, seed, true_mode=True)}


class TestSweepMatchesReference:
    def test_batched_sweeps_equal_per_source_sweep(self, monkeypatch):
        cases = []
        for inst in _sweep_cases():
            modes = ESTIMATORS if inst.graph.unit_weights else ("weighted", "weighted-true")
            for mode in modes:
                cases += [(inst, seed, mode, want) for seed, want in
                          zip((0, 1, 7), reference_st_sweep(inst, mode, (0, 1, 7)))]
        assert sum(mode == "true" for _, _, mode, _ in cases) >= 150

        # st_2approx_true must not build the blow-up, nor any other graph.
        def forbidden(*args):
            raise AssertionError("degree3_blowup called")

        built = []
        init = Graph.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args[0])
            init(self, *args, **kwargs)

        monkeypatch.setattr(search, "degree3_blowup", forbidden)
        monkeypatch.setattr(stdiam, "degree3_blowup", forbidden, raising=False)
        monkeypatch.setattr(Graph, "__init__", counting_init)
        for inst, seed, mode, want in cases:
            got = ESTIMATORS[mode](inst, seed)
            assert (got, type(got)) == (want, type(want)), (inst.graph, seed, mode)
        assert built == []

    def test_self_loops_rejected(self):
        g = Graph(3, [(0, 1, 1), (1, 1, 1), (1, 2, 1)])
        for run in (st_2approx_true, lambda inst: degree3_blowup(inst.graph)):
            with pytest.raises(ValueError, match="self-loops are not supported"):
                run(STInstance(g, {0}, {2}))


class TestBlowupLifting:
    def test_ports_sample_and_neighbourhood_match_the_blown_graph(self):
        # st_2approx_true reads the blow-up's sizes, sample owners and
        # neighbourhood owners off the original graph; here they are read
        # off degree3_blowup instead.
        rng = Random(31)
        for trial in range(60):
            n = rng.randint(1, 40)
            g = random_graph(rng, n, rng.randint(0, 3 * n), directed=False)
            blown, bmap = degree3_blowup(g)

            def owner(b):
                return bisect_right(bmap.rep, b) - 1

            ports, blown_m = stdiam._blowup_ports(g)
            assert (sum(ports), blown_m) == (blown.n, blown.m)
            draws = Random(trial).sample(range(blown.n), _sqrt_sample_size(blown.n))
            assert stdiam._sample(Random(trial), ports) == sorted({owner(b) for b in draws})
            z = min(blown.n, ceil_sqrt(max(blown.m, 1)))
            for t in range(n):
                row = sssp(blown, bmap.rep[t])
                near = sorted((b for b in range(blown.n) if row[b] != UNREACHABLE),
                              key=lambda b: (row[b], b))[:z]
                near += [u for b in near for u, w in blown.adj_out[b] if w > 0]
                assert stdiam._neighbourhood(g, t, z, True, ports) == \
                    sorted({owner(b) for b in near})


def _scipy_st_diameter(inst):
    """max over S x T of scipy's distances, independent of diamecc.search."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    g = inst.graph
    u, v, w = np.array(g.edges).T
    # random_connected draws distinct edges, so csr_matrix sums no weights.
    adj = csr_matrix((w.astype(float), (u, v)), shape=(g.n, g.n))
    rows = dijkstra(adj, directed=False, indices=list(inst.S))
    return rows[:, list(inst.T)].max()


class TestSTScale:
    """n = 2000 and |S| = |T| = 200: the ceil(2 sqrt(n) ln n) sample is 680
    vertices, 34% of V.  At m = 4n - 1 the blow-up has about 8n ids; at
    m = 1.1n the graph is nearly a tree, with D about 20 (unit weights)."""

    @pytest.mark.parametrize("extra", [6000, 200])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_factors_hold_against_scipy(self, seed, extra):
        rng = Random(seed)
        unit = random_connected(rng, 2000, extra)
        weighted = random_connected(rng, 2000, extra, max_w=6)
        S, T = rng.sample(range(2000), 200), rng.sample(range(2000), 200)
        inst, winst = STInstance(unit, S, T), STInstance(weighted, S, T)
        D, WD = _scipy_st_diameter(inst), _scipy_st_diameter(winst)
        assert np.isfinite([D, WD]).all()
        est = st_2approx_sqrt(inst, seed)
        assert 2 * (D // 4) <= est <= D
        est = st_2approx_true(inst, seed)
        assert D <= 2 * est <= 2 * D
        assert st_2approx_weighted(winst, seed) <= WD
        est = st_2approx_weighted(winst, seed, true_mode=True)
        assert WD <= 2 * est <= 2 * WD


class TestEquivalenceGadget:
    def test_k2_spans(self):
        g = Graph(2, [(0, 1, 1)])
        gadget = build_equivalence_gadget(STInstance(g, {0, 1}, {0, 1}))
        # Doubling makes the K_2 distance 2; the pendant graph's diameter
        # is two pendant edges plus the within-S span.
        assert gadget.span_s == 2
        assert exact_diameter(gadget.g_s) == 2 * gadget.w_scale + 2

    def test_singleton_sets(self):
        g = path_graph(4)
        gadget = build_equivalence_gadget(STInstance(g, {0}, {3}))
        assert gadget.g_s is None and gadget.span_s == 0
        # Combined gadget: one pendant per side, diameter 2W + doubled d(0,3).
        assert exact_diameter(gadget.g_st) == 2 * gadget.w_scale + 6

    def test_pendant_pair_distances(self):
        rng = Random(25)
        for _ in range(10):
            inst = random_st_instance(rng, rng.randint(2, 14), rng.randint(0, 12),
                                      max_w=rng.choice([1, 5]))
            gadget = build_equivalence_gadget(inst)
            assert gadget.span_s % 2 == 0  # doubling keeps the split integral
            assert gadget.w_scale > 2 * exact_diameter(inst.graph)
            g2 = gadget.g_final
            w = gadget.w_scale
            for i, vi in enumerate(gadget.s_pendants):
                row = sssp(g2, vi)
                si = gadget.s_order[i]
                for j, uj in enumerate(gadget.t_pendants):
                    tj = gadget.t_order[j]
                    doubled = 2 * sssp(inst.graph, si)[tj]
                    assert row[uj] == 2 * w + min(gadget.span_s, doubled)

    def test_via_diameter_equals_oracle(self):
        rng = Random(26)
        for _ in range(30):
            inst = random_st_instance(rng, rng.randint(1, 30), rng.randint(0, 30),
                                      max_w=rng.choice([1, 4, 10]))
            want = exact_st_diameter(inst.graph, inst.S, inst.T)
            assert st_via_diameter(inst, exact_diameter) == want

    def test_s_equals_t_gives_diameter(self):
        rng = Random(27)
        g = random_connected(rng, 15, 10, max_w=3)
        inst = STInstance(g, range(15), range(15))
        assert st_via_diameter(inst, exact_diameter) == exact_diameter(g)

    def test_path_ends(self):
        g = path_graph(6)
        inst = STInstance(g, {0}, {5})
        assert st_via_diameter(inst, exact_diameter) == 5

    def test_zero_weight_edges(self):
        rng = Random(29)
        for _ in range(10):
            n = rng.randint(2, 16)
            edges = [(i, rng.randrange(i), rng.choice([0, 0, 1, 3])) for i in range(1, n)]
            g = Graph(n, edges)
            S = rng.sample(range(n), rng.randint(1, n))
            T = rng.sample(range(n), rng.randint(1, n))
            inst = STInstance(g, S, T)
            assert st_via_diameter(inst, exact_diameter) == \
                   exact_st_diameter(g, S, T)

    def test_diameter_fn_is_injected(self):
        calls = []

        def counting(graph):
            calls.append(graph.n)
            return exact_diameter(graph)

        inst = STInstance(path_graph(5), {0, 1}, {3, 4})
        assert st_via_diameter(inst, counting) == 4
        assert len(calls) >= 3

    def test_rejects_disconnected(self):
        g = Graph(4, [(0, 1, 1)])
        with pytest.raises(ValueError):
            st_via_diameter(STInstance(g, {0}, {1}), exact_diameter)


class TestRealizedEstimates:
    def test_all_estimates_are_st_distances(self):
        rng = Random(28)
        for trial in range(15):
            inst = random_st_instance(rng, rng.randint(2, 25), rng.randint(0, 25))
            D = exact_st_diameter(inst.graph, inst.S, inst.T)
            for value in (st_3approx(inst)[0],
                          st_2approx_sqrt(inst, trial),
                          st_2approx_true(inst, trial),
                          st_2approx_weighted(inst, trial, true_mode=True)):
                assert value <= D


@st.composite
def _connected_st_instances(draw, weights):
    """A small connected undirected graph with no self-loops, a random
    spanning tree plus extra edges, each weight drawn from ``weights``,
    and nonempty S and T."""
    n = draw(st.integers(1, 24))
    pairs = [(v, draw(st.integers(0, v - 1))) for v in range(1, n)]
    pairs += [(u, v) for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                                         st.integers(0, n - 1)),
                                               max_size=2 * n)) if u != v]
    ws = draw(st.lists(st.sampled_from(weights), min_size=len(pairs), max_size=len(pairs)))
    S = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    T = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    return STInstance(Graph(n, [(u, v, w) for (u, v), w in zip(pairs, ws)]), S, T)


def _st_oracle(inst) -> int:
    """D_{S,T} from one Bellman-Ford row per vertex of S."""
    return max(bellman_ford(inst.graph, s)[t] for s in inst.S for t in inst.T)


def _fresh(inst):
    """The same instance on a new Graph, with nothing cached."""
    g = inst.graph
    return STInstance(Graph(g.n, g.edges), inst.S, inst.T)


class TestSTProperties:
    """The S-T estimators on small connected graphs, unit and weighted,
    against a Bellman-Ford oracle: every estimate is at most D, the true
    modes give at least D/2, and a seed fixes the output.  At these sizes
    the sample holds every vertex, or, for st_2approx_true, at least four
    fifths of the blow-up's ids; its lower bound then fails only when the
    sample misses every one of the 9 or more ids of t_bar's neighbourhood,
    below 10**-6 per draw."""

    UNIT = {"st_3approx": lambda inst, seed: st_3approx(inst)[0],
            "st_2approx_sqrt": st_2approx_sqrt, "st_2approx_true": st_2approx_true}
    WEIGHTED = {"st_3approx": lambda inst, seed: st_3approx(inst)[0],
                "weighted": st_2approx_weighted,
                "weighted-true": lambda inst, seed: st_2approx_weighted(inst, seed, True)}
    # The smallest estimate each guarantees, given D.
    FLOOR = {"st_3approx": lambda D: -(-D // 3), "st_2approx_sqrt": lambda D: 2 * (D // 4),
             "st_2approx_true": lambda D: -(-D // 2), "weighted": lambda D: 0,
             "weighted-true": lambda D: -(-D // 2)}

    @settings(max_examples=60, deadline=None)
    @given(inst=_connected_st_instances([1]), seed=st.integers(0, 2**16))
    def test_unit_estimates(self, inst, seed):
        self._check(inst, seed, self.UNIT)

    @settings(max_examples=60, deadline=None)
    @given(inst=_connected_st_instances([0, 1, 2, 5, 9]), seed=st.integers(0, 2**16))
    def test_weighted_estimates(self, inst, seed):
        self._check(inst, seed, self.WEIGHTED)

    def _check(self, inst, seed, estimators):
        D = _st_oracle(inst)
        for name, run in estimators.items():
            value = run(inst, seed)
            assert self.FLOOR[name](D) <= value <= D, name
            assert run(_fresh(inst), seed) == value, name
        value, (s, t) = st_3approx(inst)
        assert s in inst.S and t in inst.T and bellman_ford(inst.graph, s)[t] == value

    @settings(max_examples=60, deadline=None)
    @given(inst=_connected_st_instances([0, 1, 3]))
    def test_blowup_preserves_representative_distances(self, inst):
        g = inst.graph
        blown, bmap = degree3_blowup(g)
        assert all(len(blown.adj_out[v]) <= 3 for v in range(blown.n))
        for u in range(g.n):
            row = bellman_ford(blown, bmap.rep[u])
            assert [row[bmap.rep[v]] for v in range(g.n)] == bellman_ford(g, u)
