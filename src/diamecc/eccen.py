"""Eccentricity and Source Radius approximations for sparse directed graphs.

Three estimators, all one-sided (never above the true eccentricity):

* ecc_2approx      -- sampling + neighborhood sweep, factor 2.
* ecc_2plusdelta   -- threshold-decay peeling, factor 2/(1-tau).
* ecc_folklore_3approx -- single search from a root, factor 3, undirected.

Estimates are realized distances or exactly computed eccentricities, so
``estimate <= eccentricity`` holds unconditionally; the multiplicative
lower-bound guarantees hold whenever the sampled hitting sets do their
job (always, for the sample sizes used here, up to the usual with-high-
probability caveat).

ecc_2plusdelta's bound starts at (n - 1) W, far above the diameter, and
decays by 1 - tau per phase.  Its connectivity check is two searches
from vertex 0, whose largest distances sum to diam_ub, an upper bound on
every distance (d(v, u) <= d(v, 0) + d(0, u)).  While the phase threshold
(1 - tau) D / 2 exceeds diam_ub, no vertex can be peeled, so such an idle
phase draws its probe, to keep the random stream, decays D and runs no
search.  Idle phases are the first ones, since D only falls.  They still
count in ``phases``, so ``phases`` counts bound decays and peels, while
the searches are 2 (1 when undirected) plus 2 or 3 per non-idle phase
and the endgame's.  On perfbench's sparse-ecc graphs at seed 1 and
tau = 1/4, 12-14 of 21-25 phases were idle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .graph import UNREACHABLE, Graph
from .search import (eccentricities, eccentricity, k_closest, max_distances,
                     multi_source_distance, sssp)

# "end with |S| <= O(1)" cutoff for the threshold-decay estimator.
TERMINAL_SIZE = 4

# c in the ceil(c sqrt(n) ln n) and ceil(c ln n) sample sizes.  For the
# sqrt(n) sample, c = 2 hits every ceil(sqrt(n))-sized in-neighborhood with
# probability at least 1 - 1/n.  That does not carry over to the ceil(2 ln n)
# phase sample of ecc_2plusdelta: it misses a given half-set with probability
# about 2^(-2 ln n) = n^(-2 ln 2), so the union bound over the n possible
# half-sets gives only about n^(1 - 2 ln 2) ~ n^(-0.39) per phase.  Such
# misses are counted in EccEstimate.sample_misses, for non-idle phases.
SAMPLE_C = 2


@dataclass
class EccEstimate:
    """Per-vertex eccentricity estimates plus provenance.

    ``values`` are integers (or UNREACHABLE where flagged).  For the
    threshold-decay method ``rationals`` carries the exact pre-floor
    values and ``phases`` the number of peeling phases run.
    """

    values: list
    method: str
    seed: object = None
    rationals: list | None = None
    phases: int | None = None
    has_unreachable: bool = False
    # Non-idle phases whose sample provably missed the half-set it must hit;
    # the multiplicative guarantee is proven whenever this stays 0.  Idle
    # phases (see the module docstring) run no search, so they count no
    # miss: their survivors' bound rests on diam_ub, not on the probe.
    sample_misses: int = 0


def _sqrt_sample_size(n: int) -> int:
    if n <= 1:
        return n
    return min(n, max(1, math.ceil(SAMPLE_C * math.sqrt(n) * math.log(n))))


def _log_sample_size(n: int) -> int:
    if n <= 1:
        return n
    return max(1, math.ceil(SAMPLE_C * math.log(n)))


def ceil_sqrt(n: int) -> int:
    s = math.isqrt(n)
    return s if s * s == n else s + 1


def ecc_2approx(g: Graph, seed: int = 0) -> EccEstimate:
    """2-approximate all out-eccentricities: ecc(v)/2 <= est(v) <= ecc(v).

    Steps: sample S of size ~2 sqrt(n) ln n; take w maximizing d(S, w);
    compute exact eccentricities inside the ceil(sqrt(n)) closest
    in-neighborhood of w; estimate everything else by the largest realized
    distance into S union {w}.  The lower-bound guarantee needs S to hit
    every ceil(sqrt(n))-sized in-neighborhood, which the sample size makes
    overwhelmingly likely.
    """
    n = g.n
    if n == 0:
        return EccEstimate([], "ecc-2approx", seed)
    rng = Random(seed)
    sample = sorted(rng.sample(range(n), _sqrt_sample_size(n)))
    d_from_s = multi_source_distance(g, sample, "out")
    w = d_from_s.index(max(d_from_s))
    near_w = k_closest(g, w, min(n, ceil_sqrt(n)), "in").vertices()

    est = max_distances(g, set(sample) | {w}, "in")
    for v, ecc in zip(near_w, eccentricities(g, near_w, "out")):
        est[v] = ecc
    flagged = any(x == UNREACHABLE for x in est)
    return EccEstimate(est, "ecc-2approx", seed, has_unreachable=flagged)


def hitting_sample_ok(g: Graph, seed: int = 0) -> bool:
    """Check whether ecc_2approx's sample hit every ceil(sqrt(n)) in-neighborhood.

    Mirrors the sampling in ecc_2approx exactly (same seed, same draw), so
    a guarantee failure can be attributed to a provably missed neighborhood.
    """
    n = g.n
    if n == 0:
        return True
    rng = Random(seed)
    sample = set(rng.sample(range(n), _sqrt_sample_size(n)))
    size = min(n, ceil_sqrt(n))
    return all(sample.intersection(k_closest(g, u, size, "in").vertices())
               for u in range(n))


def ecc_2plusdelta(g: Graph, tau, seed: int = 0,
                   check_bound_invariant: bool = False) -> EccEstimate:
    """(2 + delta)-style estimator: (1-tau)/2 * ecc(v) <= est(v) <= ecc(v).

    Maintains an active set S (initially V) and a bound D on the largest
    eccentricity inside S, carried as an exact rational.  Each phase either
    halves S (assigning (1-tau)D/2 to the peeled far half) or certifies
    ecc <= (1-tau)D for the survivors and decays D.  The guarantee is on
    the exact rationals in ``rationals``; ``values`` floors them.

    Requires a strongly connected graph.  ``check_bound_invariant``
    recomputes all eccentricities up front and asserts ecc(v) <= D for
    every active v at each phase (debug aid for small graphs only).
    """
    tau = Fraction(tau)
    if not 0 < tau < 1:
        raise ValueError(f"tau must be in (0, 1), got {tau}")
    n = g.n
    if n == 0:
        return EccEstimate([], "ecc-2plusdelta", seed, rationals=[], phases=0)
    from_0 = sssp(g, 0, "out")
    to_0 = sssp(g, 0, "in") if g.directed else from_0
    if UNREACHABLE in from_0 or UNREACHABLE in to_0:
        raise ValueError("ecc_2plusdelta requires a strongly connected graph")
    # d(v, u) <= d(v, 0) + d(0, u): no distance exceeds diam_ub.
    diam_ub = max(to_0) + max(from_0)
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
        threshold = decay * bound / 2
        if diam_ub < threshold:
            # Idle: every to_w and reach value below is at most diam_ub, so
            # nothing would be peeled and the bound would just decay.
            bound = decay * bound
            continue
        d_from_a = multi_source_distance(g, probe, "out")
        w = d_from_a.index(max(d_from_a))
        to_w = sssp(g, w, "in")
        # active is ascending and the sort stable, so ties keep id order.
        ordered = sorted(active, key=to_w.__getitem__)
        half = (len(active) + 1) // 2
        near_w, far_w = ordered[:half], ordered[half:]
        if not set(probe) & set(near_w):
            misses += 1
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


def ecc_folklore_3approx(g: Graph) -> EccEstimate:
    """Folklore 3-approximation for undirected graphs: one search from id 0.

    est(v) = max(d(r, v), ecc(r) - d(r, v)) with r = 0; satisfies
    ecc(v)/3 <= est(v) <= ecc(v).
    """
    if g.directed:
        raise ValueError("ecc_folklore_3approx requires an undirected graph")
    if g.n == 0:
        return EccEstimate([], "ecc-folklore")
    from_r = sssp(g, 0, "out")
    if any(d == UNREACHABLE for d in from_r):
        raise ValueError("ecc_folklore_3approx requires a connected graph")
    ecc_r = max(from_r)
    est = [max(d, ecc_r - d) for d in from_r]
    return EccEstimate(est, "ecc-folklore")


def source_radius(g: Graph, method: str = "2approx", seed: int = 0, tau=None):
    """Approximate Source Radius: (vertex, exact eccentricity of that vertex).

    Runs the chosen eccentricities estimator, picks the vertex with the
    smallest estimate (ties to the smaller id), and recomputes its
    eccentricity exactly, so R <= value <= alpha * R for the method's alpha.
    """
    if g.n == 0:
        raise ValueError("source_radius needs a nonempty graph")
    if method == "2approx":
        est = ecc_2approx(g, seed)
    elif method == "2plusdelta":
        est = ecc_2plusdelta(g, tau if tau is not None else Fraction(1, 4), seed)
    else:
        raise ValueError(f"unknown method {method!r}")
    center = min(range(g.n), key=lambda v: (est.values[v], v))
    return center, eccentricity(g, center, "out")
