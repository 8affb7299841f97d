"""Property tests: fast paths against brute force on generated inputs.

Examples are derandomized, so every run checks the same graphs."""

import itertools

import numpy as np
import pytest

import ohmlab.graphs

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from ohmlab import (  # noqa: E402
    Multigraph,
    Partition,
    conductance_bounds,
    conductance_exact,
    cut_weight,
    extension_energy,
    harmonic_extension,
    incidence,
    path_graph,
    random_regular,
    schur_complement,
    schur_edge_weights,
    volume,
)
from ohmlab.linalg import solve_laplacian_block  # noqa: E402

EPS = np.finfo(np.float64).eps

# vol(V - S) taken as vol(V) - vol(S) cancels on the light side {2}: phi came
# out 0.9999999999966147 instead of 1
LIGHT_CORNER = Multigraph(3, np.array([1, 2, 1]), np.array([0, 0, 0]),
                          np.array([1.0, 1.00001, 16383.0]))


@st.composite
def weighted_multigraphs(draw, max_n=9):
    """Connected multigraph: a random spanning tree, extra edges, parallel
    copies of some of them, log-uniform weights in [1, 1e6], vertex ids shuffled."""
    n = draw(st.integers(2, max_n))
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
@example(LIGHT_CORNER)
def test_conductance_exact_matches_brute_force(g):
    cert = conductance_exact(g)
    assert cert.phi == pytest.approx(_brute_force_conductance(g), rel=1e-13, abs=0.0)
    s = cert.witness
    assert volume(g, s) <= volume(g, ~s)
    assert cut_weight(g, s) / volume(g, s) == pytest.approx(cert.phi, rel=1e-13, abs=0.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(weighted_multigraphs(max_n=14))
def test_conductance_exact_same_bits_in_any_block_size(g):
    # The block buffers are reused, so a row left over from the previous
    # block would show here. Rows per block: 8 (the floor), 12 (which divides
    # no power of two, so from n = 9 on the last block is partial) and the
    # default; for n <= 8 all three are one block.
    a = g.n // 2
    certs = []
    for entries in (1, 12 << a, ohmlab.graphs._CUT_BLOCK_ENTRIES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ohmlab.graphs, "_CUT_BLOCK_ENTRIES", entries)
            certs.append(conductance_exact(g))
    for cert in certs[:2]:
        assert cert.phi == certs[-1].phi
        assert np.array_equal(cert.witness, certs[-1].witness)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(weighted_multigraphs())
@example(LIGHT_CORNER)
def test_cheeger_bracket_contains_exact(g):
    lower, upper = conductance_bounds(g)
    exact = conductance_exact(g).phi
    # dense eigh: lambda_2 is off by about n eps ||N|| with ||N|| <= 2
    assert lower.phi <= exact + 1e-14
    assert exact <= upper.phi * (1.0 + 1e-13)
    s = upper.witness
    assert volume(g, s) <= volume(g, ~s)
    assert cut_weight(g, s) / volume(g, s) == pytest.approx(upper.phi, rel=1e-13, abs=0.0)


def _check_laplacian_factor(g):
    """The grounded factor pivots on the diagonal with positive pivots, so
    the grounded block was eliminated as SPD; the block solve of every edge
    demand agrees with dense pinv within the residual contract, plus the
    reference's own rounding."""
    lu = g.laplacian_factor
    assert np.array_equal(lu.perm_r, lu.perm_c)
    assert np.all(lu.U.diagonal() > 0.0)
    lap = g.laplacian.toarray()
    eigs = np.linalg.eigvalsh(lap)
    b = incidence(g).toarray()
    exact = np.linalg.pinv(lap) @ b
    exact -= exact.mean(axis=0)
    x, _ = solve_laplacian_block(g, b)
    # ||L (x - x*)|| <= _SOLVE_TOL ||b|| bounds ||x - x*|| by that over lambda_2
    contract = ohmlab.linalg._SOLVE_TOL * np.linalg.norm(b, axis=0) / eigs[1]
    slack = 100.0 * EPS * (eigs[-1] / eigs[1]) * np.linalg.norm(exact, axis=0)
    assert np.all(np.linalg.norm(x - exact, axis=0) <= contract + slack)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(weighted_multigraphs())
@example(LIGHT_CORNER)
def test_laplacian_factor_is_spd_elimination(g):
    _check_laplacian_factor(g)


def test_laplacian_factor_of_expander():
    # n = 1000 carries real fill: 64,914 factor entries against 3,993 in
    # the grounded block
    _check_laplacian_factor(random_regular(1000, 3, 1))


@st.composite
def eliminations(draw):
    """(graph, partition, boundary values): a weighted multigraph, any
    nonempty terminal set, boundary values in [0, 1]."""
    g = draw(weighted_multigraphs())
    c = sorted(draw(st.sets(st.integers(0, g.n - 1), min_size=1)))
    part = Partition(g.n, np.array(c), np.setdiff1d(np.arange(g.n), c))
    x = draw(st.lists(st.floats(0.0, 1.0), min_size=len(c), max_size=len(c)))
    return g, part, np.array(x)


def _star(leaves, weights):
    return Multigraph(leaves + 1, np.zeros(leaves, dtype=np.int64),
                      np.arange(1, leaves + 1), np.array(weights))


ELIMINATION_CORNERS = [
    # nothing eliminated
    (path_graph(4), Partition.from_eliminated(4, []), np.array([1.0, 0.0, 0.5, 0.25])),
    # one terminal: the Schur complement is the 1 x 1 zero matrix
    (_star(5, [1.0, 1e6, 3.0, 1e3, 7.0]), Partition.from_eliminated(6, [1, 2, 3, 4, 5]),
     np.array([0.5])),
    # F falls apart into one component per eliminated leaf
    (_star(8, [1.0, 1e6, 3.0, 1e3, 7.0, 1e5, 2.0, 40.0]),
     Partition.from_eliminated(9, [1, 2, 3, 4, 5, 6, 7]), np.array([1.0, 0.0])),
]


def corner_examples(test):
    """Run an elimination property on ELIMINATION_CORNERS as well."""
    for case in ELIMINATION_CORNERS:
        test = example(case)(test)
    return test


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(eliminations())
@corner_examples
def test_elimination_matches_dense_pinv(case):
    g, part, x = case
    lap = g.laplacian.toarray()
    c, f = part.terminals, part.eliminated
    l_ff, l_fc = lap[np.ix_(f, f)], lap[np.ix_(f, c)]
    l_ff_inv = np.linalg.pinv(l_ff) if f.size else l_ff
    # a backward-stable solve is off by about eps cond(L_FF), relative
    slack = 100.0 * EPS * (np.linalg.cond(l_ff) if f.size else 1.0)
    schur = schur_complement(g, part)
    want = lap[np.ix_(c, c)] - l_fc.T @ l_ff_inv @ l_fc
    assert np.abs(schur - want).max() <= slack * np.abs(lap).max()
    y = harmonic_extension(g, part, x)
    assert y.shape == f.shape
    if f.size:
        assert np.abs(y - np.clip(-(l_ff_inv @ (l_fc @ x)), 0.0, 1.0)).max() <= slack
    # energy identity: x^T S x is the energy of the harmonic extension
    energy = extension_energy(g, part, x, y)
    assert abs(energy - x @ schur @ x) <= slack * g.weights.sum()


def _reference_schur(g, part):
    """The dense elimination: L_CC - L_FC^T lu.solve(L_FC) with the whole
    |F| x |C| right-hand side at once, and the weights read back row by row."""
    l_fc, lu = ohmlab.sparsify._elimination(g, part)
    c = part.terminals
    schur = g.laplacian[c][:, c].toarray()
    if part.eliminated.size:
        schur = schur - l_fc.T @ lu.solve(l_fc.toarray())
    cutoff = ohmlab.sparsify._SCHUR_DROP * max(float(np.abs(schur).max()), 1.0)
    weights = {}
    for i, u in enumerate(c[:-1].tolist()):
        w = -schur[i, i + 1:]
        keep = np.abs(w) > cutoff
        weights.update(zip(((u, v) for v in c[i + 1:][keep].tolist()), w[keep].tolist()))
    return schur, weights


def _assert_schur_matches_reference(g, part, widths):
    want, want_weights = _reference_schur(g, part)
    for width in widths:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ohmlab.sparsify, "_BLOCK_COLUMNS", width)
            got = schur_complement(g, part)
            weights = schur_edge_weights(g, part)
        assert got.tobytes() == want.tobytes()
        # same keys, values and insertion order; floats compared exactly
        assert list(weights.items()) == list(want_weights.items())


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(eliminations())
@corner_examples
def test_sparse_schur_same_bits_as_dense_reference(case):
    # width 7 splits |C| >= 8 into a full and a partial block, width 1 gives
    # one column per block
    g, part, _ = case
    _assert_schur_matches_reference(g, part, (1, 7, ohmlab.linalg._BLOCK_COLUMNS))


def test_sparse_schur_several_default_blocks():
    # |C| = 300 spans three blocks of the default width
    n = 600
    g = random_regular(n, 3, 1)
    part = Partition.from_eliminated(n, np.random.default_rng(1).choice(n, n // 2, replace=False))
    assert part.terminals.size > 2 * ohmlab.linalg._BLOCK_COLUMNS
    _assert_schur_matches_reference(g, part, (7, ohmlab.linalg._BLOCK_COLUMNS))
