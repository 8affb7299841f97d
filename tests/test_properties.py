"""Property tests: fast paths against brute force on generated inputs.

Examples are derandomized, so every run checks the same graphs."""

import itertools

import numpy as np
import pytest
import scipy.linalg

import ohmlab.graphs

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from ohmlab import (  # noqa: E402
    ConvergenceError,
    Multigraph,
    Partition,
    competitive_ratio,
    competitive_ratio_inf,
    conductance_bounds,
    conductance_exact,
    edge_demand,
    extension_energy,
    flow_projection,
    harmonic_extension,
    induced_pnorm_nonneg,
    l1_objective,
    min_l1_extension,
    path_graph,
    profile_from_voltages,
    random_regular,
    route_electrical,
    schur_complement,
    schur_edge_weights,
    solve_laplacian,
)
from ohmlab.linalg import solve_laplacian_block  # noqa: E402
from ohmlab.sparsify import _elimination  # noqa: E402
from conftest import cut_weight, incidence, volume  # noqa: E402
from test_cli import HEAVY_SEVEN  # noqa: E402
from test_graphs import assert_interval_above, record_filter_intervals  # noqa: E402
from test_thresholds import (  # noqa: E402
    assert_low_column_matches_scan,
    assert_matches_mirrored_reference,
)

EPS = np.finfo(np.float64).eps

# vol(V - S) taken as vol(V) - vol(S) cancels on the light side {2}: phi came
# out 0.9999999999966147 instead of 1
LIGHT_CORNER = Multigraph(3, np.array([1, 2, 1]), np.array([0, 0, 0]),
                          np.array([1.0, 1.00001, 16383.0]))

# a star with one heavy leaf and a heavy edge hung off another leaf,
# lambda_2 = 5.4958e-4. Its Lanczos run on N nearly breaks down after four
# steps (residual 5e-13); run past that, or with one orthogonalization pass
# a step, its Ritz values land on or below lambda_2, and a filter damping from
# there returns about 2 unless the Rayleigh quotient is checked against the
# interval's lower end
HEAVY_STAR = Multigraph(7, np.array([2, 1, 3, 4, 5, 6]), np.array([0, 0, 0, 0, 0, 2]),
                        np.array([1.0, 1.0, 1.0, 1.0, 1e4, 1e3]))

@st.composite
def weighted_multigraphs(draw, max_n=9, min_n=2):
    """Connected multigraph: a random spanning tree, extra edges, parallel
    copies of some of them, log-uniform weights in [1, 1e6], vertex ids shuffled."""
    n = draw(st.integers(min_n, max_n))
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


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(weighted_multigraphs(min_n=5))
@example(HEAVY_STAR)
def test_filtered_lambda2_matches_dense(g):
    # with the dense cap at 4 every graph here takes the Chebyshev-filtered
    # Lanczos path; dense eigh is off by about n eps ||N|| with ||N|| <= 2
    nl = ohmlab.graphs._normalized_laplacian(g).toarray()
    dense = scipy.linalg.eigh(nl, eigvals_only=True, subset_by_index=[1, 1])[0]
    exact = conductance_exact(g).phi
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ohmlab.graphs, "_DENSE_EIGEN_CAP", 4)
        intervals = record_filter_intervals(mp)
        lam, vec = ohmlab.graphs._lambda2(g)
        lower, upper = conductance_bounds(g)
    assert_interval_above(g, intervals, dense)
    assert abs(lam - dense) <= 4.0 * g.n * EPS
    assert lower.phi == lam / 2.0
    assert upper.phi == ohmlab.graphs._sweep_cut(g, vec)[0]
    assert lower.phi <= exact + 1e-14
    assert exact <= upper.phi * (1.0 + 1e-13)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(weighted_multigraphs())
@example(LIGHT_CORNER)
def test_conjugate_gradient_and_factor_solves_agree(g):
    # diagnose above the direct cap reads the conjugate-gradient solve, every
    # other caller the factor; each meets ||L x - b|| <= _SOLVE_TOL ||b||, so
    # two sum-zero solutions differ by at most twice that over lambda_2(L)
    eigs = np.linalg.eigvalsh(g.laplacian.toarray())
    inc = incidence(g)
    b = inc.toarray()
    tol = ohmlab.linalg._SOLVE_TOL * np.linalg.norm(b, axis=0)
    block, block_res = solve_laplacian_block(g, b)
    for j in range(g.m):
        rep = solve_laplacian(g, b[:, j])
        for x, res in ((rep.solution, rep.residual_norm), (block[:, j], block_res[j])):
            assert res <= tol[j]
            assert abs(x.sum()) <= 100.0 * EPS * g.n * np.abs(x).max()
        slack = 100.0 * EPS * (eigs[-1] / eigs[1]) * np.linalg.norm(block[:, j])
        assert np.linalg.norm(rep.solution - block[:, j]) <= 2.0 * tol[j] / eigs[1] + slack
        # the routed flow meets the demand: B f = b up to the same contract
        # and the rounding of summing each vertex's flows
        f = route_electrical(g, b[:, j])
        miss = np.linalg.norm(inc @ f - b[:, j])
        assert miss <= tol[j] + 10.0 * EPS * np.linalg.norm(abs(inc) @ np.abs(f))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(weighted_multigraphs())
@example(HEAVY_SEVEN)
def test_factored_block_never_reaches_conjugate_gradient(g):
    # a factored column that misses the contract is refined against the same
    # factor; it meets ||L x - b|| <= _SOLVE_TOL ||b|| or the call raises
    calls = []
    b = incidence(g).toarray()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ohmlab.linalg, "solve_laplacian", lambda *args: calls.append(args))
        try:
            x, residuals = solve_laplacian_block(g, b)
        except ConvergenceError:
            x = None
    assert g.laplacian_factor is not None
    assert calls == []
    if x is not None:
        tol = ohmlab.linalg._SOLVE_TOL * np.linalg.norm(b, axis=0)
        assert np.all(residuals <= tol)
        assert np.all(np.linalg.norm(g.laplacian @ x - b, axis=0) <= tol)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(weighted_multigraphs().map(lambda g: Multigraph(g.n, g.tails, g.heads, np.ones(g.m))))
def test_flow_projection_is_an_orthogonal_projector(g):
    # each column of Pi is B^T x for a solve with ||L (x - x*)|| <= tol ||b||,
    # ||b|| = sqrt(2), so it is off by at most ||B|| sqrt(2) tol / lambda_2
    # with ||B||^2 = lambda_max; symmetry then holds to twice that, and
    # Pi^2 - Pi = Pi* E + E Pi* + E^2 - E to about 4 sqrt(m) times it
    eigs = np.linalg.eigvalsh(g.laplacian.toarray())
    col = np.sqrt(2.0 * eigs[-1]) * ohmlab.linalg._SOLVE_TOL / eigs[1] + 100.0 * EPS
    pi = flow_projection(g)
    assert np.abs(pi - pi.T).max() <= 2.0 * col
    assert np.abs(pi @ pi - pi).max() <= 4.0 * np.sqrt(g.m) * col
    # rho_1 is |Pi|'s largest column sum, rho_inf its largest row sum (and
    # competitive_ratio_inf the largest per-edge l1 flow norm, unmaterialized)
    rho_1, rho_inf = competitive_ratio(g, 1.0), competitive_ratio(g, np.inf)
    assert abs(rho_1 - rho_inf) <= 2.0 * g.m * col
    assert abs(competitive_ratio_inf(g) - rho_inf) <= 2.0 * g.m * col


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(weighted_multigraphs(), st.sampled_from([None, 0, 7, 50]))
@example(LIGHT_CORNER, None)
def test_derivative_check_matches_mirrored_reference(g, samples):
    # the half below the shift against the negated voltages' profile, on both
    # orientations of the first edges' demands; on LIGHT_CORNER edge 1
    # reversed puts the light vertex 2 alone on the low side. The voltages
    # come from dense pinv: some of these graphs have a rounding floor on
    # the Laplacian residual above the solver's contract
    phi = conductance_exact(g).phi
    pinv = np.linalg.pinv(g.laplacian.toarray())
    for e in range(min(g.m, 3)):
        for sign in (1.0, -1.0):
            prof = profile_from_voltages(g, pinv @ (sign * edge_demand(g, e)))
            assert_low_column_matches_scan(prof)
            for claimed in (phi, 10.0 * phi):
                assert_matches_mirrored_reference(prof, claimed, samples)


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
    # L_FF is eliminated as SPD, like the grounded factor: diagonal pivots, all positive
    _, lu = _elimination(g, part)
    assert np.array_equal(lu.perm_r, lu.perm_c)
    assert np.all(lu.U.diagonal() > 0.0)
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


@st.composite
def boundary_cuts(draw):
    """(graph, partition, 0/1 boundary values): a weighted multigraph and any
    nonempty terminal set, so |F| <= 8."""
    g, part, _ = draw(eliminations())
    bits = st.sampled_from([0.0, 1.0])
    x = draw(st.lists(bits, min_size=part.terminals.size, max_size=part.terminals.size))
    return g, part, np.array(x)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(boundary_cuts())
def test_min_l1_extension_matches_brute_force(case):
    g, part, x = case
    value, y = min_l1_extension(g, part, x)
    brute = min(l1_objective(g, part, x, np.array(bits))
                for bits in itertools.product((0.0, 1.0), repeat=part.eliminated.size))
    assert value == pytest.approx(brute, rel=1e-12, abs=0.0)
    assert np.all((y == 0.0) | (y == 1.0))
    assert l1_objective(g, part, x, y) == pytest.approx(value, rel=1e-12, abs=0.0)


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


PNORM_PS = (1.1, 1.5, 2.0, 3.0, 10.0)


@st.composite
def nonneg_matrices(draw):
    """Entrywise nonnegative matrix: one to three rectangular blocks on the
    diagonal (reducible from two on), each entry zero or log-uniform in
    [1e-3, 1e3], then up to two columns zeroed."""
    entry = st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0**e))
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        values = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
        blocks.append(np.reshape(values, (rows, cols)))
    mat = scipy.linalg.block_diag(*blocks)
    mat[:, draw(st.lists(st.integers(0, mat.shape[1] - 1), max_size=2))] = 0.0
    return mat


def _pnorms(v, p):
    return np.power(v, p).sum(axis=0) ** (1.0 / p)


def _norm_or_lower_end(mat, p):
    """(norm, True) when the bracket closed, else (the lower end the
    iteration cap left, False)."""
    try:
        return induced_pnorm_nonneg(mat, p), True
    except ConvergenceError as exc:
        return exc.best, False


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(nonneg_matrices())
def test_pnorm_bracket_contains_the_norm(mat):
    # A closed bracket returns a value within 1e-12 below the norm: the dual
    # exponent on the transpose agrees, no vector does better, and p = 2 is
    # the top singular value. Near-degenerate top singular values slow the
    # iteration to (s2/s1)^2 a step, so a few examples reach the cap (lowered
    # here to keep them cheap) and raise; the lower end they carry must still
    # be below the norm.
    z = np.random.default_rng(0).random((mat.shape[1], 64)) ** 4 + 1e-9
    n1, ninf = np.abs(mat).sum(axis=0).max(), np.abs(mat).sum(axis=1).max()
    top = np.linalg.svd(mat, compute_uv=False)[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ohmlab.linalg, "_PNORM_MAX_ITER", 2_000)
        for p in PNORM_PS:
            norm, closed = _norm_or_lower_end(mat, p)
            dual, dual_closed = _norm_or_lower_end(mat.T, p / (p - 1.0))
            # Riesz-Thorin bounds the norm by the exact p = 1 and p = inf ends
            assert norm <= n1 ** (1.0 / p) * ninf ** (1.0 - 1.0 / p) * (1.0 + 1e-12)
            if p == 2.0:
                assert norm <= top * (1.0 + 1e-12)
                assert not closed or norm == pytest.approx(top, rel=1e-11, abs=0.0)
            if closed:
                ratios = _pnorms(mat @ z, p) / _pnorms(z, p)
                assert ratios.max() <= norm * (1.0 + 1e-11)
            if closed and dual_closed:
                assert dual == pytest.approx(norm, rel=1e-11, abs=0.0)


def _cycles_and_bridge(a, b):
    """A cycle on a vertices and one on b vertices, joined by one bridge."""
    edges = [(i, (i + 1) % a) for i in range(a)]
    edges += [(a + i, a + (i + 1) % b) for i in range(b)] + [(0, a)]
    return Multigraph.from_edges(a + b, edges)


@pytest.fixture(scope="module")
def near_tied_cycles():
    """|Pi| of a 300-cycle and a 301-cycle joined by a bridge."""
    return np.abs(flow_projection(_cycles_and_bridge(300, 301)))


@pytest.mark.parametrize("p", PNORM_PS)
def test_pnorm_of_reducible_projections(p, near_tied_cycles):
    # every edge of a path is a bridge, so |Pi| is the identity
    assert induced_pnorm_nonneg(np.abs(flow_projection(path_graph(6))), p) == pytest.approx(
        1.0, rel=1e-12, abs=0.0)
    # a bridge splits |Pi| into the bridge's 1 x 1 block [1] and one block
    # per cycle; a k-cycle's block (k - 2)/k I + J/k has the all-ones vector
    # as its maximizer at every p, so its norm is 2 (k - 1)/k
    pi = np.abs(flow_projection(_cycles_and_bridge(3, 5)))
    assert induced_pnorm_nonneg(pi, p) == pytest.approx(8.0 / 5.0, rel=1e-12, abs=0.0)
    # blocks 1.1e-5 apart: the iterate loses the smaller block's share only
    # by (1 - 1.1e-5)^(pq) a step, so only the lower end on the leading
    # block closes the bracket within the iteration cap
    assert induced_pnorm_nonneg(near_tied_cycles, p) == pytest.approx(
        600.0 / 301.0, rel=1e-12, abs=0.0)
