import sys

import numpy as np

from ohmlab.maxflow import min_cut


def test_long_path_needs_no_recursion():
    # one augmenting path through every vertex; the weakest edge is the cut
    n = 20000
    weights = np.full(n - 1, 2.0)
    weights[12345] = 1.5
    arcs = [(i, i + 1, float(w)) for i, w in enumerate(weights)]
    limit = sys.getrecursionlimit()
    value, side = min_cut(n, arcs, 0, n - 1)
    assert sys.getrecursionlimit() == limit
    assert value == 1.5
    assert side.tolist() == [True] * 12346 + [False] * (n - 12346)
