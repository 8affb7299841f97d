import sys

import numpy as np
import pytest

from ohmlab.maxflow import min_cut


def test_long_path_needs_no_recursion():
    # one augmenting path through every vertex; the weakest edge is the cut
    n = 20000
    weights = np.full(n - 1, 2.0)
    weights[12345] = 1.5
    tails = np.arange(n - 1)
    limit = sys.getrecursionlimit()
    value, side = min_cut(n, tails, tails + 1, weights, 0, n - 1)
    assert sys.getrecursionlimit() == limit
    assert value == 1.5
    assert side.tolist() == [True] * 12346 + [False] * (n - 12346)


def test_side_is_the_smallest_minimum_source_side(random_multigraph):
    # every cut with s in and t out, by brute force; the minimum source
    # sides are closed under intersection, so the smallest is theirs
    rng = np.random.default_rng(17)
    for trial in range(60):
        n = int(rng.integers(3, 13))
        g = random_multigraph(rng, n, int(rng.integers(0, 2 * n)), weighted=trial % 2 == 0)
        s, t = (int(v) for v in rng.choice(n, 2, replace=False))
        rest = np.delete(np.arange(n), [s, t])
        sides = np.zeros((1 << rest.size, n), dtype=bool)
        sides[:, s] = True
        sides[:, rest] = (np.arange(1 << rest.size)[:, None] >> np.arange(rest.size)) & 1
        cuts = (sides[:, g.tails] != sides[:, g.heads]) @ g.weights
        minimum = cuts <= cuts.min() * (1 + 1e-12)
        value, side = min_cut(n, g.tails, g.heads, g.weights, s, t)
        assert minimum[(sides == side).all(axis=1)][0]
        crossing = zip(g.tails.tolist(), g.heads.tolist(), g.weights.tolist())
        assert value == sum(c for u, v, c in crossing if side[u] != side[v])
        assert np.array_equal(side, np.logical_and.reduce(sides[minimum]))


def test_self_loops_skipped_and_negative_capacity_refused():
    # a self-loop carries no flow and crosses no cut, whatever its capacity;
    # a negative capacity is refused, on a self-loop too
    value, side = min_cut(3, [0, 1, 1], [1, 2, 1], [2.0, 3.0, 100.0], 0, 2)
    assert value == 2.0
    assert side.tolist() == [True, False, False]
    for caps in ([2.0, -1.0, 1.0], [2.0, 3.0, -1.0]):
        with pytest.raises(ValueError, match="nonnegative"):
            min_cut(3, [0, 1, 1], [1, 2, 1], caps, 0, 2)
