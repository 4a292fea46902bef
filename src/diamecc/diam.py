"""Sparse diameter estimators.

Both return realized eccentricities, so they never exceed the true
diameter D.  The folklore estimator guarantees out >= D/2 (and >= h+1
when D = 2h+1); the min-degree neighborhood sweep guarantees out >= h+1
whenever D = 2h is even, beating the folklore h on those inputs.
"""

from __future__ import annotations

from .graph import Graph
from .search import eccentricities, eccentricity


def diam_folklore_2approx(g: Graph):
    """max(out-ecc, in-ecc) of vertex 0; D/2 <= out <= D.

    Returns UNREACHABLE when vertex 0 cannot reach (or be reached by)
    some vertex.  On an undirected graph the two are one search.
    """
    if g.n == 0:
        return 0
    out = eccentricity(g, 0, "out")
    return max(out, eccentricity(g, 0, "in")) if g.directed else out


def diam_linear_lessthan2(g: Graph):
    """Eccentricity sweep over a minimum-degree vertex and its neighbors.

    Picks v minimizing in-degree + out-degree (ties to the smaller id) and
    returns the largest in- or out-eccentricity over v and every vertex
    sharing an edge with v.  For even diameter D = 2h the result is at
    least h + 1; for odd D it is still a valid lower bound (at most D).
    """
    if g.n == 0:
        return 0
    # argmin takes the first minimum, so ties go to the smaller id.
    v = int(g.degrees.argmin())
    tails, heads, _ = g.columns
    around = {v, *heads[tails == v].tolist(), *tails[heads == v].tolist()}
    best = max(eccentricities(g, around, "out"))
    if g.directed:
        best = max(best, *eccentricities(g, around, "in"))
    return best
