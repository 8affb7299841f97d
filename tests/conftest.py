import numpy as np
import pytest

from ohmlab import Multigraph


def _random_multigraph(rng, n, extra, weighted=True):
    """Connected multigraph on n vertices: a random spanning tree, `extra`
    random edges, and parallel copies of about a fifth of those edges.
    Weights are log-uniform in [1, 1e6] when `weighted`, else 1."""
    order = rng.permutation(n)
    edges = [(order[i], order[rng.integers(0, i)]) for i in range(1, n)]
    for _ in range(extra):
        a, b = rng.choice(n, 2, replace=False)
        edges.append((a, b))
    copies = rng.choice(len(edges), max(1, len(edges) // 5), replace=False)
    edges += [edges[i] for i in copies]
    tails, heads = np.array(edges, dtype=np.int64).T
    if weighted:
        weights = 10.0 ** rng.uniform(0.0, 6.0, len(edges))
    else:
        weights = np.ones(len(edges))
    return Multigraph(n, tails, heads, weights)


@pytest.fixture
def random_multigraph():
    """Factory for generated connected multigraphs with parallel edges; pass
    a seeded numpy Generator so that every run sees the same graphs."""
    return _random_multigraph
