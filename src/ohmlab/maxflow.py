"""Small max-flow / min-cut solver (Dinic's algorithm).

Built for the l1 boundary-extension problem: a few thousand nodes, real
capacities, given as edge arrays with self-loops skipped. Edge k becomes
arcs 2k (tail -> head) and 2k + 1 (back), which share residual capacity.
The min-cut side returned is the set of nodes reachable from the source in
the final residual network, which is the smallest source side among
minimum cuts: the last level search, the one that no longer reaches the
sink, has already found it.
"""

from __future__ import annotations

from collections import deque
from typing import List, Tuple

import numpy as np

__all__ = ["min_cut"]


class _Dinic:
    def __init__(self, n: int, tails: np.ndarray, heads: np.ndarray, caps: np.ndarray):
        # arc 2k runs tails[k] -> heads[k] and arc 2k + 1 back, both at caps[k];
        # a stable argsort by source lists each node's arcs in id order
        self.n = n
        source = np.column_stack([tails, heads]).ravel()
        self.to: List[int] = np.column_stack([heads, tails]).ravel().tolist()
        self.cap: List[float] = np.repeat(caps, 2).tolist()
        ends = np.cumsum(np.bincount(source, minlength=n))[:-1]
        self.head = [a.tolist() for a in np.split(np.argsort(source, kind="stable"), ends)]

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
    n: int, tails, heads, caps, s: int, t: int
) -> Tuple[float, np.ndarray]:
    """Minimum s-t cut of the undirected graph on nodes 0..n-1 whose edge k
    joins tails[k] and heads[k] with capacity caps[k] >= 0; self-loops are
    skipped. Returns (value, side). The value is the exact sum of the
    capacities crossing the returned cut, added in edge order, so integer
    capacities give an integer result regardless of augmentation arithmetic.
    The side is the boolean mask of the residual-reachable set: the unique
    smallest source side among min cuts.
    """
    if s == t:
        raise ValueError("source and sink must differ")
    tails, heads = np.asarray(tails, dtype=np.int64), np.asarray(heads, dtype=np.int64)
    caps = np.asarray(caps, dtype=np.float64)
    if np.any(caps < 0):
        raise ValueError("capacities must be nonnegative")
    keep = tails != heads
    net = _Dinic(n, tails[keep], heads[keep], caps[keep])
    eps = 1e-11 * max(float(caps[keep].max(initial=0.0)), 1.0)
    side = net.max_flow(s, t, eps)
    crossing = caps[side[tails] != side[heads]]
    # a running sum adds left to right, where sum would add pairwise
    value = float(np.cumsum(crossing)[-1]) if crossing.size else 0.0
    return value, side
