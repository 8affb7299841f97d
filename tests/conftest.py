import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from ohmlab import Multigraph, as_vertex_mask, induced_pnorm_nonneg

ROOT = Path(__file__).resolve().parents[1]


def _run_python(*args, timeout=300):
    """Run the interpreter on `args` from the repository root with src/ on
    the path, under a timeout, so that a hang fails the test that ran it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # the RuntimeWarning rule pyproject.toml applies inside the test process
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)


def complete_graph(k):
    return Multigraph.from_edges(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def _grid(a, b):
    """a x b grid graph, vertex i * b + j at row i, column j."""
    edges = [(i * b + j, i * b + j + 1) for i in range(a) for j in range(b - 1)]
    edges += [(i * b + j, (i + 1) * b + j) for i in range(a - 1) for j in range(b)]
    return Multigraph.from_edges(a * b, edges)


def incidence(g):
    """Reference signed incidence matrix B, n x m, column e carrying -1 at
    the tail and +1 at the head, so that L = B W B^T."""
    cols = np.arange(g.m)
    rows = np.concatenate([g.tails, g.heads])
    vals = np.concatenate([-np.ones(g.m), np.ones(g.m)])
    return sp.csr_array((vals, (rows, np.concatenate([cols, cols]))), shape=(g.n, g.m))


def cut_weight(g, s):
    """Total weight of edges with exactly one endpoint in the set, edge by
    edge: the check on conductance_exact's half-table enumeration."""
    mask = as_vertex_mask(g.n, s)
    return float(g.weights[mask[g.tails] != mask[g.heads]].sum())


def volume(g, s):
    """Sum of weighted degrees over the vertex set."""
    return float(g.weighted_degrees[as_vertex_mask(g.n, s)].sum())


def competitive_ratio_operator(g, routing, p):
    """Reference l_p -> l_p competitive ratio of a linear demand -> flow
    operator, called once per edge: the induced norm of |W^-1 A B W|, whose
    column e is w(e) |W^-1 f| for the flow f = routing(chi) of edge e's unit
    demand chi = 1_tail - 1_head."""
    cols = np.empty((g.m, g.m))
    for e in range(g.m):
        chi = np.zeros(g.n)
        chi[g.tails[e]], chi[g.heads[e]] = 1.0, -1.0
        cols[:, e] = np.abs(routing(chi)) * g.weights[e] / g.weights
    return induced_pnorm_nonneg(cols, p)


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
