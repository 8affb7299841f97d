"""Property tests: fast paths against brute force on generated inputs.

Examples are derandomized, so every run checks the same graphs."""

import itertools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from ohmlab import Multigraph, conductance_exact, cut_weight, volume  # noqa: E402


@st.composite
def weighted_multigraphs(draw):
    """Connected multigraph: a random spanning tree, extra edges, parallel
    copies of some of them, log-uniform weights in [1, 1e6], vertex ids shuffled."""
    n = draw(st.integers(2, 9))
    edges = [(v, draw(st.integers(0, v - 1))) for v in range(1, n)]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges += draw(st.lists(pair.filter(lambda e: e[0] != e[1]), max_size=2 * n))
    edges += draw(st.lists(st.sampled_from(edges), max_size=n))
    weight = st.floats(0.0, 6.0).map(lambda e: 10.0**e)
    weights = draw(st.lists(weight, min_size=len(edges), max_size=len(edges)))
    perm = np.array(draw(st.permutations(range(n))))
    tails, heads = np.array(edges).T
    return Multigraph(n, perm[tails], perm[heads], np.array(weights))


def _brute_force_conductance(g):
    best = np.inf
    for k in range(1, g.n):
        for side in itertools.combinations(range(g.n), k):
            s = np.zeros(g.n, dtype=bool)
            s[list(side)] = True
            best = min(best, cut_weight(g, s) / min(volume(g, s), volume(g, ~s)))
    return best


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(weighted_multigraphs())
# vol(V - S) taken as vol(V) - vol(S) cancels on the light side {2}: phi came
# out 0.9999999999966147 instead of 1
@example(Multigraph(3, np.array([1, 2, 1]), np.array([0, 0, 0]),
                    np.array([1.0, 1.00001, 16383.0])))
def test_conductance_exact_matches_brute_force(g):
    cert = conductance_exact(g)
    assert cert.phi == pytest.approx(_brute_force_conductance(g), rel=1e-13, abs=0.0)
    s = cert.witness
    assert volume(g, s) <= volume(g, ~s)
    assert cut_weight(g, s) / volume(g, s) == pytest.approx(cert.phi, rel=1e-13, abs=0.0)
