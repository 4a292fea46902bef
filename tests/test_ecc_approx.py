"""Sparse eccentricity estimators and the Source Radius wrapper."""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (bellman_ford, complete_graph, cycle_graph, path_graph,
                      random_connected, random_graph, random_strongly_connected,
                      random_tree, star_graph)
from diamecc import (Graph, ecc_2approx, ecc_2plusdelta, ecc_folklore_3approx,
                     exact_eccentricities, exact_radius, source_radius)
from diamecc import eccen
from diamecc.eccen import (TERMINAL_SIZE, EccEstimate, _log_sample_size,
                           _sqrt_sample_size, ceil_sqrt)
from diamecc.search import (eccentricities, is_strongly_connected, k_closest,
                            max_distances, multi_source_distance, sssp)


class TestEcc2Approx:
    def test_directed_cycle(self):
        g = cycle_graph(8, directed=True)
        est = ecc_2approx(g, seed=0)
        assert all(4 <= e <= 7 for e in est.values)

    def test_single_vertex(self):
        assert ecc_2approx(Graph(1), seed=0).values == [0]

    def test_bounds_on_random_digraphs(self):
        rng = Random(10)
        for trial in range(40):
            n = rng.randint(2, 60)
            g = random_strongly_connected(rng, n, 2 * n, max_w=rng.choice([1, 1, 8]))
            ecc = exact_eccentricities(g)
            est = ecc_2approx(g, seed=trial)
            ok = all(2 * est.values[v] >= ecc[v] and est.values[v] <= ecc[v]
                     for v in range(n))
            if not ok:
                # The guarantee is conditioned on the sample meeting near_w;
                # the run must say it missed, and a reseeded run recover.
                assert not est.certified
                est = ecc_2approx(g, seed=trial + 1000)
                assert all(2 * est.values[v] >= ecc[v] and est.values[v] <= ecc[v]
                           for v in range(n))

    def test_deterministic_for_seed(self):
        rng = Random(11)
        g = random_strongly_connected(rng, 30, 60)
        assert ecc_2approx(g, seed=5).values == ecc_2approx(g, seed=5).values

    def test_unreachable_flagged(self):
        g = Graph(3, [(0, 1, 1)], directed=True)
        est = ecc_2approx(g, seed=0)
        assert est.has_unreachable


def per_vertex_hitting_sample_ok(g, seed: int = 0) -> bool:
    """Whether ecc_2approx's sample hits every ceil(sqrt(n)) in-ball, one
    k_closest per vertex: the old all-balls check, verbatim, kept as the
    oracle that the one-ball certificate must be implied by."""
    n = g.n
    if n == 0:
        return True
    rng = Random(seed)
    sample = set(rng.sample(range(n), _sqrt_sample_size(n)))
    size = min(n, ceil_sqrt(n))
    return all(sample.intersection(k_closest(g, u, size, "in").vertices())
               for u in range(n))


class TestCertificate:
    @pytest.mark.parametrize("c", [2, 0.25, 0.05])
    def test_certified_runs_keep_the_factor(self, monkeypatch, c):
        # Lowering SAMPLE_C shrinks the sample, so that near_w is missed.
        monkeypatch.setattr(eccen, "SAMPLE_C", c)
        rng = Random(23)
        certified, failures = [], 0
        for trial in range(60):
            n = rng.randint(0, 80)
            kind = trial % 4
            if kind == 0:
                g = random_strongly_connected(rng, n, 2 * n, max_w=rng.choice([1, 8]))
            elif kind == 1:
                g = random_connected(rng, n, n // 2)
            elif kind == 2:  # 0/1 weights
                g = random_graph(rng, n, 2 * n, directed=True, max_w=0)
            else:  # maybe unreachable parts, so some balls hold fewer than ceil(sqrt(n))
                g = random_graph(rng, n, n, directed=True, max_w=3)
            ecc = exact_eccentricities(g)
            for seed in range(10 * trial, 10 * trial + 10):
                est = ecc_2approx(g, seed)
                if not all(e <= x <= 2 * e for e, x in zip(est.values, ecc)):
                    failures += 1
                    assert not est.certified
                # A sample that hits every in-ball hits near_w.
                if per_vertex_hitting_sample_ok(g, seed):
                    assert est.certified
                certified.append(est.certified)
        assert any(certified) and (c == 2 or not all(certified))
        assert c != 0.05 or failures > 0


class TestEcc2PlusDelta:
    def test_directed_cycle_rational_bound(self):
        g = cycle_graph(6, directed=True)
        est = ecc_2plusdelta(g, Fraction(1, 4), seed=0)
        for v in range(6):
            assert Fraction(3, 8) * 5 <= est.rationals[v] <= 5

    def test_complete_digraph_exact_at_terminal_size(self):
        g = complete_graph(4, directed=True)
        est = ecc_2plusdelta(g, Fraction(1, 2), seed=0)
        assert est.values == [1, 1, 1, 1]  # |S| <= 4 goes straight to exact

    def test_bounds_over_taus(self):
        rng = Random(12)
        for trial in range(25):
            n = rng.randint(2, 50)
            g = random_strongly_connected(rng, n, 2 * n, max_w=rng.choice([1, 5]))
            ecc = exact_eccentricities(g)
            for tau in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)):
                est = ecc_2plusdelta(g, tau, seed=trial)
                bad = [v for v in range(n)
                       if not (1 - tau) * Fraction(ecc[v]) / 2 <= est.rationals[v] <= ecc[v]]
                if bad:
                    assert est.sample_misses > 0
                    est = ecc_2plusdelta(g, tau, seed=trial + 4000)
                    assert all((1 - tau) * Fraction(ecc[v]) / 2 <= est.rationals[v] <= ecc[v]
                               for v in range(n))
                for v in range(n):
                    assert est.values[v] == est.rationals[v].numerator // est.rationals[v].denominator

    def test_phase_counter_bound(self):
        import math
        rng = Random(13)
        for trial in range(10):
            n = rng.randint(6, 60)
            g = random_strongly_connected(rng, n, n, max_w=6)
            tau = Fraction(1, 4)
            est = ecc_2plusdelta(g, tau, seed=trial)
            d0 = (n - 1) * g.max_weight
            cap = math.log2(n) + math.log(d0) / math.log(1 / (1 - tau)) + 1
            assert est.phases <= cap

    def test_bound_invariant_on_small_inputs(self):
        rng = Random(14)
        for trial in range(10):
            g = random_strongly_connected(rng, rng.randint(5, 20), 15, max_w=3)
            # The reference asserts ecc(v) <= D for every active v in each
            # phase, and the estimator gives its outputs (TestIdlePhases).
            want = _reference_2plusdelta(g, Fraction(1, 4), seed=trial, check_bound_invariant=True)
            got = ecc_2plusdelta(g, Fraction(1, 4), seed=trial)
            assert (got.values, got.rationals, got.phases) == (want.values, want.rationals,
                                                               want.phases)

    @pytest.mark.parametrize("n, max_w, directed, tau", [
        (3000, 1, True, Fraction(1, 4)), (3000, 8, False, Fraction(2, 3)),
        (2000, 100, True, Fraction(1, 8)), (1200, 1, False, Fraction(1, 8)),
        (1200, 8, True, Fraction(2, 3)), (1200, 100, False, Fraction(1, 4)),
        (400, 100, True, Fraction(2, 3)), (400, 8, False, Fraction(1, 8))])
    def test_matches_reference_at_scale(self, n, max_w, directed, tau):
        # The estimator's searches stop early and its bookkeeping is in
        # arrays; the reference runs every search in full, on lists.
        rng = Random(n + max_w)
        g = (random_strongly_connected(rng, n, 4 * n, max_w) if directed
             else random_connected(rng, n, 2 * n, max_w))
        got = ecc_2plusdelta(g, tau, seed=n)
        want = _reference_2plusdelta(g, tau, seed=n)
        assert (got.values, got.rationals, got.phases) == (want.values, want.rationals,
                                                           want.phases)

    def test_rejects_not_strongly_connected(self):
        g = Graph(3, [(0, 1, 1), (1, 2, 1)], directed=True)
        with pytest.raises(ValueError):
            ecc_2plusdelta(g, Fraction(1, 4))

    def test_rejects_bad_tau(self):
        g = cycle_graph(4, directed=True)
        with pytest.raises(ValueError):
            ecc_2plusdelta(g, Fraction(3, 2))


def _reference_2plusdelta(g: Graph, tau, seed: int = 0,
                          check_bound_invariant: bool = False) -> EccEstimate:
    """ecc_2plusdelta as it was before idle phases skipped their searches."""
    tau = Fraction(tau)
    if not 0 < tau < 1:
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    if not is_strongly_connected(g):
        raise ValueError("ecc_2plusdelta requires a strongly connected graph")
    n = g.n
    if n == 0:
        return EccEstimate([], "ecc-2plusdelta", seed, rationals=[], phases=0)
    rng = Random(seed)
    decay = 1 - tau
    bound = Fraction((n - 1) * g.max_weight)
    active = list(range(n))
    exact = [None] * n
    phases = 0
    misses = 0
    true_ecc = eccentricities(g, range(n), "out") if check_bound_invariant else None

    while len(active) > TERMINAL_SIZE and bound >= 1:
        phases += 1
        if true_ecc is not None:
            assert all(true_ecc[v] <= bound for v in active)
        probe = sorted(rng.sample(active, min(len(active), _log_sample_size(n))))
        d_from_a = multi_source_distance(g, probe, "out")
        w = d_from_a.index(max(d_from_a))
        to_w = sssp(g, w, "in")
        # active is ascending and the sort stable, so ties keep id order.
        ordered = sorted(active, key=to_w.__getitem__)
        half = (len(active) + 1) // 2
        near_w, far_w = ordered[:half], ordered[half:]
        if not set(probe) & set(near_w):
            misses += 1
        threshold = decay * bound / 2
        if min(to_w[v] for v in far_w) >= threshold:
            for v in far_w:
                exact[v] = threshold
            active = sorted(near_w)
        else:
            reach = max_distances(g, probe, "in")
            # reach holds ints, so one integer cut replaces a Fraction compare per vertex.
            cut = math.ceil(threshold)
            survivors = []
            for v in active:
                if reach[v] >= cut:
                    exact[v] = threshold
                else:
                    survivors.append(v)
            active = survivors
            bound = decay * bound

    # Endgame: exact computation when few survive, 0 when the bound
    # certifies ecc < 1 (integer weights make that ecc = 0).
    ends = eccentricities(g, active, "out") if len(active) <= TERMINAL_SIZE else [0] * len(active)
    for v, ecc in zip(active, ends):
        exact[v] = Fraction(ecc)
    values = [int(r.numerator // r.denominator) for r in exact]
    return EccEstimate(values, "ecc-2plusdelta", seed, rationals=exact,
                       phases=phases, sample_misses=misses)


def _count_searches(monkeypatch) -> list:
    """Count the searches that ecc_2plusdelta and its reference make: the
    reference's public ones and the estimator's private rows alike."""
    calls = []
    for name in ("sssp", "multi_source_distance", "max_distances", "eccentricities",
                 "_distances", "_max_row"):
        def counted(*args, _search=getattr(eccen, name), **kwargs):
            calls.append(1)
            return _search(*args, **kwargs)
        monkeypatch.setattr(eccen, name, counted)
        if name in globals():
            monkeypatch.setitem(globals(), name, counted)
    return calls


def _idle_phases(g: Graph, tau) -> int:
    """Phases that peel nothing because no distance reaches their threshold.

    The bound only falls, so these are the first phases, and the whole
    vertex set is still active in them.
    """
    diam_ub = max(bellman_ford(g, 0, "in")) + max(bellman_ford(g, 0, "out"))
    bound, idle = Fraction((g.n - 1) * g.max_weight), 0
    while g.n > TERMINAL_SIZE and bound >= 1 and diam_ub < (1 - tau) * bound / 2:
        bound *= 1 - tau
        idle += 1
    return idle


class TestIdlePhases:
    """A phase whose threshold exceeds every distance runs no search."""

    def test_same_estimates_with_fewer_searches(self, monkeypatch):
        calls = _count_searches(monkeypatch)
        rng = Random(18)
        taus = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2))
        skipped = 0
        for trial in range(150):
            n = 1 + trial
            directed = trial % 2 == 0
            max_w = 10 if trial % 4 >= 2 else 1
            g = (random_strongly_connected(rng, n, n, max_w) if directed
                 else random_connected(rng, n, n // 2, max_w))
            tau = taus[trial % 3]
            calls.clear()
            want = _reference_2plusdelta(g, tau, seed=trial)
            # The reference's connectivity check is not a counted search.
            ref_searches = len(calls)
            calls.clear()
            got = ecc_2plusdelta(g, tau, seed=trial)
            assert (got.values, got.rationals, got.phases) == (want.values, want.rationals,
                                                               want.phases)
            assert got.sample_misses <= want.sample_misses
            # An idle phase of the reference peels nothing, so it makes all
            # three of its searches.
            idle = _idle_phases(g, tau)
            skipped += idle
            assert len(calls) == (2 if directed else 1) + ref_searches - 3 * idle
        assert skipped > 0

    @pytest.mark.parametrize("c", [0.25, 0.05])
    def test_missed_probe_certifies_every_failure(self, monkeypatch, c):
        # With a smaller phase sample the probe misses often; a factor
        # failure must still show up as a miss of some non-idle phase.
        monkeypatch.setattr(eccen, "SAMPLE_C", c)
        rng = Random(19)
        failures = 0
        for trial in range(150):
            n = rng.randint(10, 100)
            g = random_strongly_connected(rng, n, n, max_w=rng.choice([1, 10]))
            ecc = exact_eccentricities(g)
            for tau in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)):
                est = ecc_2plusdelta(g, tau, seed=trial)
                if any((1 - tau) * ecc[v] / 2 > est.rationals[v] for v in range(n)):
                    failures += 1
                    assert est.sample_misses > 0
        assert failures > 0


@pytest.mark.scale
class TestScaleOptIn:
    """n = 10**5, where the ceil(2 sqrt(n) ln n) sample is 7.3% of V.  Opt-in
    (pytest -m scale): each estimator is one-sided at 200 sampled sources,
    against scipy, and meets its factor there whenever the run certifies
    its sample; ``certified`` is printed and recorded as a property."""

    @pytest.mark.parametrize("method", ["2approx", "2plusdelta"])
    def test_against_scipy_sources(self, method, record_property):
        g = _scale_graph()
        picked = Random(1).sample(range(g.n), 200)
        # 20 rows at a time keep scipy's float rows at 16 MB.
        ecc = np.concatenate([_scipy_eccentricities(g, picked[i:i + 20])
                              for i in range(0, len(picked), 20)])
        assert np.isfinite(ecc).all()
        ecc = ecc.astype(np.int64).tolist()
        tau = Fraction(1, 4)
        if method == "2approx":
            est = ecc_2approx(g, 1)
            low = [Fraction(e, 2) for e in ecc]
            got = [est.values[v] for v in picked]
        else:
            est = ecc_2plusdelta(g, tau, 1)
            low = [(1 - tau) * e / 2 for e in ecc]
            got = [est.rationals[v] for v in picked]
        print(f"ecc_{method}: certified={est.certified} sample_misses={est.sample_misses}")
        record_property("certified", est.certified)
        assert all(x <= e for x, e in zip(got, ecc))
        assert not est.certified or all(lo <= x for lo, x in zip(low, got))


@functools.lru_cache(maxsize=1)
def _scale_graph():
    """A strongly connected unit digraph, n = 10**5 and m = 5 * 10**5, from seed 1."""
    return random_strongly_connected(Random(1), 10**5, 4 * 10**5)


@st.composite
def _digraphs(draw):
    """A digraph on n <= 30 vertices with unit, 1..8 or 0/1 weights, and the
    same digraph with a Hamilton cycle added, so strongly connected."""
    n = draw(st.integers(1, 30))
    weights = draw(st.sampled_from([st.just(1), st.integers(1, 8), st.integers(0, 1)]))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weights),
                          max_size=3 * n))
    cycle = [(v, (v + 1) % n, draw(weights)) for v in range(n)] if n > 1 else []
    return Graph(n, edges, directed=True), Graph(n, edges + cycle, directed=True)


def _out_eccentricities(g):
    return [max(bellman_ford(g, v, "out")) for v in range(g.n)]


class TestSamplingProperties:
    """Both sampling estimators are one-sided and seed-deterministic, and a
    certified run keeps its factor, at every sample size."""

    @settings(max_examples=200, deadline=None)
    @given(graphs=_digraphs(), seed=st.integers(0, 2**16),
           c=st.sampled_from([2, 0.25, 0.05]),
           tau=st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)]))
    def test_one_sided_deterministic_and_certified(self, graphs, seed, c, tau):
        g, strong = graphs
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(eccen, "SAMPLE_C", c)
            est = ecc_2approx(g, seed)
            assert est == ecc_2approx(g, seed)
            ecc = _out_eccentricities(g)
            assert all(x <= e for x, e in zip(est.values, ecc))
            assert not est.certified or all(e <= 2 * x for x, e in zip(est.values, ecc))

            est = ecc_2plusdelta(strong, tau, seed)
            assert est == ecc_2plusdelta(strong, tau, seed)
            assert est.certified is (est.sample_misses == 0)
            ecc = _out_eccentricities(strong)
            assert all(r <= e for r, e in zip(est.rationals, ecc))
            assert not est.certified or all((1 - tau) * e / 2 <= r
                                            for r, e in zip(est.rationals, ecc))


class TestFolklore3Approx:
    def test_path_is_exact_here(self):
        est = ecc_folklore_3approx(path_graph(3))
        assert est.values == [2, 1, 2]

    def test_star_from_center(self):
        est = ecc_folklore_3approx(star_graph(5))
        ecc = exact_eccentricities(star_graph(5))
        assert est.values[0] == 1
        assert all(3 * est.values[v] >= ecc[v] for v in range(1, 6))

    def test_random_trees(self):
        rng = Random(15)
        for _ in range(20):
            g = random_tree(rng, rng.randint(2, 120))
            ecc = exact_eccentricities(g)
            est = ecc_folklore_3approx(g)
            assert all(3 * est.values[v] >= ecc[v] and est.values[v] <= ecc[v]
                       for v in range(g.n))

    def test_rejects_directed(self):
        with pytest.raises(ValueError):
            ecc_folklore_3approx(cycle_graph(3, directed=True))

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            ecc_folklore_3approx(Graph(3, [(0, 1, 1)]))


class TestSourceRadius:
    def test_directed_cycle(self):
        vertex, value = source_radius(cycle_graph(7, directed=True), "2approx", seed=0)
        assert value == 6

    def test_star_two_approx(self):
        vertex, value = source_radius(star_graph(6), "2approx", seed=0)
        assert 1 <= value <= 2

    def test_random_digraphs_both_methods(self):
        rng = Random(16)
        for trial in range(15):
            n = rng.randint(2, 40)
            g = random_strongly_connected(rng, n, 2 * n)
            radius = exact_radius(g)
            _, v2 = source_radius(g, "2approx", seed=trial)
            assert radius <= v2 <= 2 * radius or not ecc_2approx(g, trial).certified
            _, v2d = source_radius(g, "2plusdelta", seed=trial, tau=Fraction(1, 4))
            assert radius <= v2d
            assert Fraction(3, 8) * v2d <= radius  # value <= (8/3) R


class TestOneSidedness:
    def test_estimates_never_exceed_truth(self):
        rng = Random(17)
        for trial in range(15):
            n = rng.randint(2, 50)
            g = random_strongly_connected(rng, n, 2 * n, max_w=4)
            ecc = exact_eccentricities(g)
            for est in (ecc_2approx(g, trial), ecc_2plusdelta(g, Fraction(1, 4), trial)):
                assert all(est.values[v] <= ecc[v] for v in range(n))
            gu = random_connected(rng, n, n)
            eccu = exact_eccentricities(gu)
            folk = ecc_folklore_3approx(gu)
            assert all(folk.values[v] <= eccu[v] for v in range(n))


def _scipy_eccentricities(g, sources=None):
    """Exact out-eccentricities of ``sources`` (every vertex when None) from
    scipy's BFS, independent of diamecc.search."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    u, v, _ = g.columns
    adj = csr_matrix((np.ones(len(u)), (u, v)), shape=(g.n, g.n))
    # unweighted=True: parallel arcs summed by csr_matrix must not act as weight 2.
    return shortest_path(adj, directed=True, unweighted=True, indices=sources).max(axis=1)


class TestSparseScale:
    """n = 2000: the ceil(2 sqrt(n) ln n) sample is 680 vertices, 34% of V."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_factors_hold_against_scipy(self, seed):
        g = random_strongly_connected(Random(seed), 2000, 8000)
        ecc = _scipy_eccentricities(g)
        assert np.isfinite(ecc).all()
        est = ecc_2approx(g, seed)
        assert est.certified
        est = np.array(est.values)
        assert (est <= ecc).all() and (2 * est >= ecc).all()
        # The factor is asserted outright, whatever sample_misses reads.
        tau = Fraction(1, 4)
        est = ecc_2plusdelta(g, tau, seed)
        assert all((1 - tau) * Fraction(int(e)) / 2 <= r <= int(e)
                   for e, r in zip(ecc, est.rationals))

    def test_small_sample_against_scipy_sources(self):
        # n = 2 * 10**4: the ceil(2 sqrt(n) ln n) sample is 2802 vertices,
        # 14% of V.  scipy checks 200 sampled sources; each estimate is
        # one-sided, and meets its factor wherever the run certifies its
        # sample.
        g = random_strongly_connected(Random(0), 20000, 80000)
        picked = Random(0).sample(range(g.n), 200)
        ecc = _scipy_eccentricities(g, picked)
        assert np.isfinite(ecc).all()
        ecc = ecc.astype(np.int64).tolist()
        tau = Fraction(1, 4)
        est = ecc_2approx(g, 0)
        assert all(est.values[v] <= e for v, e in zip(picked, ecc))
        assert not est.certified or all(2 * est.values[v] >= e for v, e in zip(picked, ecc))
        est = ecc_2plusdelta(g, tau, 0)
        assert all(est.rationals[v] <= e for v, e in zip(picked, ecc))
        assert not est.certified or all((1 - tau) * e / 2 <= est.rationals[v]
                                        for v, e in zip(picked, ecc))
