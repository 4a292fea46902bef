"""A fixed pure-Python workload that measures how fast the host runs right now.

On a shared host the same job can take 1.7x longer from one minute to the
next.  The benchmark therefore times this calibration next to every job
(and every set-up sample) and reports times scaled to a reference speed:

    scaled = wall * REFERENCE_S / calibration

where ``calibration`` is the mean of the calibrations just before and just
after the measured interval.  The calibration shares no code with diamecc:
three breadth-first searches over a fixed random digraph, the same kind of
interpreter work (lists, a deque, integer compares) that dominates the
estimators.
"""

from __future__ import annotations

from collections import deque
from random import Random
from time import perf_counter

# Calibration time on the 2-core Xeon host where the benchmark was defined;
# scaled times read as wall seconds there.
REFERENCE_S = 0.005

_N = 3000


class Calibration:
    def __init__(self):
        rng = Random("perfbench-calibration")
        self.adj = [[] for _ in range(_N)]
        for _ in range(5 * _N):
            self.adj[rng.randrange(_N)].append(rng.randrange(_N))

    def measure(self) -> float:
        """Seconds taken by three BFS runs over the fixed graph."""
        adj = self.adj
        t0 = perf_counter()
        for source in range(3):
            dist = [-1] * _N
            dist[source] = 0
            queue = deque([source])
            while queue:
                u = queue.popleft()
                for v in adj[u]:
                    if dist[v] < 0:
                        dist[v] = dist[u] + 1
                        queue.append(v)
        return perf_counter() - t0


def scaled(wall: float, calibration: float) -> float:
    return wall * REFERENCE_S / calibration
