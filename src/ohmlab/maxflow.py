"""Small max-flow / min-cut solver (Dinic's algorithm).

Built for the l1 boundary-extension problem: a few thousand nodes, real
capacities. Undirected edges become arc pairs that share residual capacity
in both directions. The min-cut side returned is the set of nodes reachable
from the source in the final residual network, which is the smallest source
side among minimum cuts: the last level search, the one that no longer
reaches the sink, has already found it.
"""

from __future__ import annotations

from collections import deque
from typing import List, Tuple

import numpy as np

__all__ = ["min_cut"]


class _Dinic:
    def __init__(self, n: int):
        self.n = n
        self.head: List[List[int]] = [[] for _ in range(n)]
        self.to: List[int] = []
        self.cap: List[float] = []

    def add_undirected(self, u: int, v: int, c: float) -> None:
        # paired arcs; each is the other's reverse, both start at capacity c
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(c)

    def _levels(self, s: int, eps: float) -> List[int]:
        """Breadth-first distance from s over arcs with residual > eps; -1
        where s does not reach."""
        level = [-1] * self.n
        level[s] = 0
        dq = deque([s])
        while dq:
            u = dq.popleft()
            for aid in self.head[u]:
                v = self.to[aid]
                if level[v] < 0 and self.cap[aid] > eps:
                    level[v] = level[u] + 1
                    dq.append(v)
        return level

    def _augment(self, s: int, t: int, level, it, eps: float) -> float:
        """Push flow along one s-t path of the level graph; 0.0 when none is
        left. A depth-first walk with an explicit path: it[u] moves past an
        arc only once no path to t continues through it."""
        path: List[int] = []
        u = s
        while u != t:
            while it[u] < len(self.head[u]):
                aid = self.head[u][it[u]]
                if self.cap[aid] > eps and level[self.to[aid]] == level[u] + 1:
                    path.append(aid)
                    u = self.to[aid]
                    break
                it[u] += 1
            else:  # dead end: retreat along the arc that led here
                if not path:
                    return 0.0
                u = self.to[path.pop() ^ 1]
                it[u] += 1
        pushed = min(self.cap[aid] for aid in path)
        for aid in path:
            self.cap[aid] -= pushed
            self.cap[aid ^ 1] += pushed
        return pushed

    def max_flow(self, s: int, t: int, eps: float) -> np.ndarray:
        """Augment until no s-t path is left; returns the mask of the nodes
        the last level search reached, the source side of a minimum cut."""
        while True:
            level = self._levels(s, eps)
            if level[t] < 0:
                return np.array(level) >= 0
            it = [0] * self.n
            while self._augment(s, t, level, it, eps) > 0.0:
                pass


def min_cut(
    n: int, arcs: List[Tuple[int, int, float]], s: int, t: int
) -> Tuple[float, np.ndarray]:
    """Minimum s-t cut of an undirected capacitated graph.

    Returns (value, side). The value is recomputed as the exact sum of
    capacities crossing the returned cut, so integer capacities give an
    integer result regardless of augmentation arithmetic. The side is the
    boolean mask of the residual-reachable set: the unique smallest source
    side among min cuts.
    """
    if s == t:
        raise ValueError("source and sink must differ")
    net = _Dinic(n)
    cmax = 0.0
    for u, v, c in arcs:
        if c < 0:
            raise ValueError("capacities must be nonnegative")
        if u == v:
            continue
        net.add_undirected(u, v, float(c))
        cmax = max(cmax, float(c))
    eps = 1e-11 * max(cmax, 1.0)
    side = net.max_flow(s, t, eps)
    value = 0.0
    for u, v, c in arcs:
        if u != v and side[u] != side[v]:
            value += float(c)
    return value, side
