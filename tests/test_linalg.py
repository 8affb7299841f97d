import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp

import ohmlab
from ohmlab import (
    ConvergenceError,
    DisconnectedError,
    Multigraph,
    cycle_graph,
    edge_demand,
    induced_pnorm_nonneg,
    laplacian,
    path_graph,
    random_regular,
    solve_laplacian,
)
from ohmlab.linalg import solve_laplacian_block

from conftest import complete_graph, incidence
from test_cli import HEAVY_SEVEN


class TestIncidenceAndLaplacian:
    def test_incidence_k2(self):
        g = complete_graph(2)
        b = incidence(g).toarray()
        # column e: -1 at the tail, +1 at the head
        assert np.array_equal(b, [[-1.0], [1.0]])

    def test_incidence_column_sums_zero(self):
        g = random_regular(12, 3, 4)
        b = incidence(g)
        assert np.allclose(np.asarray(b.sum(axis=0)).ravel(), 0.0)

    def test_laplacian_is_weighted_gram(self):
        g = Multigraph.from_edges(4, [(0, 1, 2.0), (1, 2, 1.0), (2, 3, 3.0), (0, 3, 1.0)])
        b = incidence(g)
        w = sp.diags_array(g.weights)
        gram = (b @ w @ b.T).toarray()
        assert np.allclose(laplacian(g).toarray(), gram)

    def test_laplacian_row_sums_zero(self):
        g = random_regular(16, 4, 2)
        lap = laplacian(g)
        assert np.allclose(np.asarray(lap.sum(axis=1)).ravel(), 0.0)
        assert np.allclose(lap.diagonal(), g.weighted_degrees)


class TestSolveLaplacian:
    def test_k2_unit_demand(self):
        g = complete_graph(2)
        rep = solve_laplacian(g, np.array([1.0, -1.0]))
        v = rep.solution
        assert v[0] - v[1] == pytest.approx(1.0, abs=1e-12)
        assert abs(v.sum()) < 1e-12

    def test_c4_opposite_corners(self):
        # two parallel 2-hop paths: R_eff = 1, split evenly
        g = cycle_graph(4)
        chi = np.array([1.0, 0.0, -1.0, 0.0])
        rep = solve_laplacian(g, chi)
        v = rep.solution
        assert v[0] - v[2] == pytest.approx(1.0, abs=1e-10)
        assert v[1] == pytest.approx(v[3], abs=1e-10)

    def test_residual_contract(self):
        rng = np.random.default_rng(11)
        for seed in range(1, 11):
            g = random_regular(14, 3, seed)
            b = rng.standard_normal(g.n)
            b -= b.mean()
            rep = solve_laplacian(g, b)
            res = laplacian(g) @ rep.solution - b
            assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(b)
            assert rep.residual_norm <= 1e-10 * np.linalg.norm(b)

    def test_matches_dense_pseudoinverse(self):
        rng = np.random.default_rng(3)
        for seed in (1, 2, 3):
            g = random_regular(10, 3, seed)
            b = rng.standard_normal(g.n)
            b -= b.mean()
            rep = solve_laplacian(g, b)
            exact = np.linalg.pinv(laplacian(g).toarray()) @ b
            exact -= exact.mean()
            scale = np.max(np.abs(exact))
            assert np.max(np.abs(rep.solution - exact)) <= 1e-4 * scale

    def test_zero_rhs_short_circuit(self):
        g = cycle_graph(5)
        rep = solve_laplacian(g, np.zeros(5))
        assert np.array_equal(rep.solution, np.zeros(5))
        assert rep.iterations == 0

    def test_unbalanced_rhs_rejected(self):
        g = cycle_graph(4)
        with pytest.raises(ValueError, match="sum"):
            solve_laplacian(g, np.array([1.0, 0.0, 0.0, 0.0]))

    def test_disconnected_rejected(self):
        g = Multigraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(DisconnectedError):
            solve_laplacian(g, np.array([1.0, -1.0, 0.0, 0.0]))

    def test_convergence_error_carries_last_iterate(self, monkeypatch):
        monkeypatch.setattr(ohmlab.linalg, "_iteration_cap", lambda g: 2)
        g = random_regular(20, 3, 1)
        b = np.zeros(20)
        b[0], b[1] = 1.0, -1.0
        with pytest.raises(ConvergenceError) as exc:
            solve_laplacian(g, b)
        err = exc.value
        assert err.best.shape == (20,)
        assert err.iterations == 2
        # the reported residual is the carried iterate's, against the centred demand
        true_res = np.linalg.norm(laplacian(g) @ err.best - (b - b.mean()))
        assert err.residual == pytest.approx(true_res, rel=1e-12)
        assert err.residual > 1e-10 * np.linalg.norm(b)

    def test_false_convergence_restarts_the_direction(self):
        # on HEAVY_SEVEN the recursive residual meets the bound while the true
        # one misses it; going on along the old direction after swapping the
        # true residual in ran edge 0's demand to the 149,831-iteration cap
        lap = laplacian(HEAVY_SEVEN)
        for e in range(HEAVY_SEVEN.m):
            for sign in (1.0, -1.0):
                b = sign * edge_demand(HEAVY_SEVEN, e)
                rep = solve_laplacian(HEAVY_SEVEN, b)
                assert rep.iterations <= 20, (e, sign, rep.iterations)
                assert rep.residual_norm <= 1e-10 * np.linalg.norm(b)
                assert np.linalg.norm(lap @ rep.solution - b) <= 1e-10 * np.linalg.norm(b)

    def test_capped_iterate_error_never_grows(self, monkeypatch):
        # conjugate gradient minimizes the L-energy error over a growing Krylov
        # space, so each further iteration is at least as close as the last:
        # the iterate it stops at is its best, and no copy of an earlier one
        # is kept
        g = random_regular(20, 3, 1)
        b = np.zeros(20)
        b[0], b[1] = 1.0, -1.0
        lap = laplacian(g).toarray()
        exact = np.linalg.lstsq(lap, b, rcond=None)[0]
        errors = []
        for cap in range(1, 7):
            monkeypatch.setattr(ohmlab.linalg, "_iteration_cap", lambda g, cap=cap: cap)
            with pytest.raises(ConvergenceError) as exc:
                solve_laplacian(g, b)
            assert exc.value.iterations == cap
            e = exc.value.best - exact
            errors.append(float(e @ lap @ e))
        assert all(later <= earlier for earlier, later in zip(errors, errors[1:]))
        assert errors[-1] < errors[0]


def _pcg_gap_bound(g, b, tol):
    """Largest distance between two sum-zero solutions that both meet the
    residual contract: ||x - y|| <= 2 tol ||b|| / lambda_2."""
    lam2 = np.linalg.eigvalsh(laplacian(g).toarray())[1]
    return 2.0 * tol * np.linalg.norm(b) / lam2


class TestSolveLaplacianBlock:
    def test_direct_matches_pcg_on_weighted_multigraphs(self, random_multigraph):
        rng = np.random.default_rng(20)
        tol = 1e-10
        for _ in range(25):
            n = int(rng.integers(2, 60))
            g = random_multigraph(rng, n, extra=int(rng.integers(0, 2 * n)))
            assert g.laplacian_factor is not None
            b = rng.standard_normal((n, 4))
            b -= b.mean(axis=0)
            x, residuals = solve_laplacian_block(g, b)
            for j in range(b.shape[1]):
                true_res = np.linalg.norm(laplacian(g) @ x[:, j] - b[:, j])
                assert true_res <= tol * np.linalg.norm(b[:, j])
                assert residuals[j] <= tol * np.linalg.norm(b[:, j])
                assert abs(x[:, j].sum()) <= 1e-12 * np.abs(x[:, j]).sum()
                pcg = solve_laplacian(g, b[:, j]).solution
                gap = np.linalg.norm(x[:, j] - pcg)
                assert gap <= _pcg_gap_bound(g, b[:, j], tol)

    def test_matches_dense_pseudoinverse(self, random_multigraph):
        rng = np.random.default_rng(21)
        for _ in range(10):
            g = random_multigraph(rng, int(rng.integers(3, 30)), extra=10)
            b = rng.standard_normal((g.n, 3))
            b -= b.mean(axis=0)
            exact = np.linalg.pinv(laplacian(g).toarray()) @ b
            exact -= exact.mean(axis=0)
            x, _ = solve_laplacian_block(g, b)
            assert np.max(np.abs(x - exact)) <= 1e-9 * np.max(np.abs(exact))

    def test_zero_column_stays_zero(self):
        g = cycle_graph(5)
        b = np.zeros((5, 2))
        b[0, 1], b[2, 1] = 1.0, -1.0
        x, residuals = solve_laplacian_block(g, b)
        assert np.array_equal(x[:, 0], np.zeros(5))
        assert residuals[0] == 0.0

    def test_unbalanced_column_rejected(self):
        g = cycle_graph(4)
        b = np.zeros((4, 2))
        b[0, 0], b[1, 0] = 1.0, -1.0
        b[0, 1] = 1.0
        with pytest.raises(ValueError, match="sum"):
            solve_laplacian_block(g, b)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_column_does_not_depend_on_block_width(self, seed):
        # numpy sums a single column pairwise and a wider block row by row;
        # centring a 1-column block by its pairwise mean left 66 of 80
        # sampled edge-demand columns of these graphs a few units in the last
        # place off the same column solved in a 128-wide block
        g = random_regular(200, 3, seed)
        lows, highs, _ = ohmlab.routing._endpoint_pairs(g)
        pairs = ohmlab.routing._pair_demands(g, lows[:128], highs[:128])
        general = np.random.default_rng(seed).standard_normal((g.n, 128))
        general -= general.mean(axis=0)
        for b in (pairs, general):
            wide = solve_laplacian_block(g, b)[0]
            for width in (1, 2, 3, 64):
                for start in range(0, 128, width):
                    narrow = solve_laplacian_block(g, b[:, start:start + width])[0]
                    assert narrow.tobytes() == wide[:, start:start + width].tobytes()

    def test_effective_resistance_equals_the_sweep_column(self):
        g = random_regular(200, 3, 1)
        lows, highs, _ = ohmlab.routing._endpoint_pairs(g)
        lows, highs = lows[:128].tolist(), highs[:128].tolist()
        volts = solve_laplacian_block(g, ohmlab.routing._pair_demands(g, lows, highs))[0]
        for j, (s, t) in enumerate(zip(lows, highs)):
            assert ohmlab.effective_resistance(g, s, t) == volts[s, j] - volts[t, j]

    def test_block_shape_checked(self):
        with pytest.raises(ValueError, match="rows"):
            solve_laplacian_block(cycle_graph(4), np.zeros(4))

    def test_disconnected_rejected(self):
        g = Multigraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        assert g.laplacian_factor is None
        b = np.array([[1.0], [-1.0], [0.0], [0.0]])
        with pytest.raises(DisconnectedError):
            solve_laplacian_block(g, b)


class TestNonFiniteDemand:
    """A NaN or infinite demand entry is refused before any solve, on the
    factored path, the conjugate-gradient path, and the callers above them."""

    @pytest.fixture(params=[np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def bad(self, request):
        g = random_regular(10, 3, 1)
        b = ohmlab.edge_demand(g, 0)
        b[2] = request.param
        return g, b

    @pytest.mark.parametrize("cap", [3000, 0], ids=["factor", "pcg"])
    def test_block_refuses(self, bad, cap, monkeypatch):
        monkeypatch.setattr(ohmlab.graphs, "_DIRECT_VERTEX_CAP", cap)
        g, b = bad
        with pytest.raises(ValueError, match="finite"):
            solve_laplacian_block(g, np.column_stack([ohmlab.edge_demand(g, 1), b]))

    def test_entry_points_refuse(self, bad):
        g, b = bad
        for solve in (solve_laplacian, ohmlab.route_electrical, ohmlab.threshold_profile):
            with pytest.raises(ValueError, match="finite"):
                solve(g, b)


class TestCentred:
    @pytest.mark.parametrize("shape", [(1,), (7,), (1000,), (9, 1), (40, 128), (1000, 3)])
    def test_equals_subtracting_the_mean(self, shape):
        # one column sum serves the drift check and the mean, bit for bit; a
        # block's columns are summed top to bottom at every width, the order
        # cumsum adds in
        rng = np.random.default_rng(len(shape) * 1000 + shape[0])
        b = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
        b -= b.mean(axis=0)
        centred = ohmlab.linalg._centred(b)
        sums = np.cumsum(b, axis=0)[-1] if b.ndim == 2 else b.sum()
        assert centred.tobytes() == (b - sums / shape[0]).tobytes()


class TestPnorm:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
    def test_matches_numpy(self, p):
        v = np.array([3.0, 4.0, 0.0, 1.5])
        assert ohmlab.linalg._pnorm(v, p) == pytest.approx(np.linalg.norm(v, p), rel=1e-14)

    def test_large_p_stays_finite(self):
        # loads up to 5 once overflowed 5 ** 1000 and the norm read inf;
        # ||x||_inf <= ||x||_p <= m^(1/p) ||x||_inf
        v = np.linspace(0.5, 5.0, 6)
        top = ohmlab.linalg._pnorm(v, np.inf)
        assert top == 5.0
        assert top <= ohmlab.linalg._pnorm(v, 1000.0) <= v.size ** (1.0 / 1000.0) * top

    def test_empty_and_zero(self):
        assert ohmlab.linalg._pnorm(np.zeros(0), 2.0) == 0.0
        assert ohmlab.linalg._pnorm(np.zeros(3), 2.0) == 0.0


class TestDirectFallback:
    class _Spoiled:
        """Stands in for the cached factor: adds 1e-3 to column 2 of the
        first solve and, when `always`, to every column of later solves."""

        def __init__(self, lu, always):
            self.lu, self.always, self.solves = lu, always, 0

        def solve(self, rhs):
            x = self.lu.solve(rhs)
            if self.solves == 0:
                x[:, 2] += 1e-3
            elif self.always:
                x += 1e-3
            self.solves += 1
            return x

    @pytest.fixture
    def pcg_calls(self, monkeypatch):
        calls = []
        solve = ohmlab.linalg.solve_laplacian

        def counted(g, b, *args, **kwargs):
            calls.append(np.array(b))
            return solve(g, b, *args, **kwargs)

        monkeypatch.setattr(ohmlab.linalg, "solve_laplacian", counted)
        return calls

    @staticmethod
    def four_pairs():
        g = random_regular(30, 3, 1)
        b = np.zeros((g.n, 4))
        b[[0, 1, 2, 3], range(4)] = 1.0
        b[[10, 11, 12, 13], range(4)] = -1.0
        return g, b

    def test_missed_column_is_refined_against_the_factor(self, pcg_calls):
        g, b = self.four_pairs()
        clean, _ = solve_laplacian_block(g, b)
        spoiled = self._Spoiled(g.laplacian_factor, always=False)
        g.__dict__["laplacian_factor"] = spoiled
        x, residuals = solve_laplacian_block(g, b)
        assert pcg_calls == []
        assert spoiled.solves == 2  # the block, then one refinement step
        assert np.array_equal(np.delete(x, 2, axis=1), np.delete(clean, 2, axis=1))
        for j in range(4):
            true_res = np.linalg.norm(laplacian(g) @ x[:, j] - b[:, j])
            assert true_res <= 1e-10 * np.linalg.norm(b[:, j])
            assert residuals[j] == pytest.approx(true_res, rel=1e-12)
            assert abs(x[:, j].sum()) <= 1e-12

    def test_column_the_refinement_misses_raises(self, pcg_calls):
        g, b = self.four_pairs()
        spoiled = self._Spoiled(g.laplacian_factor, always=True)
        g.__dict__["laplacian_factor"] = spoiled
        with pytest.raises(ConvergenceError, match="refinement") as err:
            solve_laplacian_block(g, b)
        assert pcg_calls == []
        assert spoiled.solves == 1 + ohmlab.linalg._REFINEMENTS
        assert err.value.iterations == ohmlab.linalg._REFINEMENTS
        true_res = np.linalg.norm(laplacian(g) @ err.value.best - b[:, 2])
        assert err.value.residual == pytest.approx(true_res, rel=1e-12)
        assert true_res > 1e-10 * np.linalg.norm(b[:, 2])

    def test_no_factor_above_cap(self, monkeypatch, pcg_calls):
        monkeypatch.setattr(ohmlab.graphs, "_DIRECT_VERTEX_CAP", 9)
        assert cycle_graph(9).laplacian_factor is not None
        widths = []
        block = ohmlab.routing.solve_laplacian_block

        def recorded(g, b, *args, **kwargs):
            widths.append(b.shape[1])
            return block(g, b, *args, **kwargs)

        monkeypatch.setattr(ohmlab.routing, "solve_laplacian_block", recorded)
        g = random_regular(10, 3, 1)
        rho = ohmlab.competitive_ratio_inf(g)
        assert g.__dict__["laplacian_factor"] is None  # asked for, never factored
        assert len(pcg_calls) == g.m  # a simple graph: one pair per edge
        assert widths == [g.m]  # one block, as with a factor
        monkeypatch.undo()
        assert rho == pytest.approx(
            ohmlab.competitive_ratio_inf(random_regular(10, 3, 1)), rel=1e-9
        )

    def test_factorless_sweep_matches_one_pair_at_a_time(self, monkeypatch, pcg_calls,
                                                         random_multigraph):
        # without a factor the sweep still solves 128 pairs per call, and
        # every norm, Pi entry and the worst residual keep the bits of a
        # sweep that holds one pair at a time
        monkeypatch.setattr(ohmlab.graphs, "_DIRECT_VERTEX_CAP", 50)
        width = ohmlab.linalg._BLOCK_COLUMNS
        g = random_multigraph(np.random.default_rng(4), 120, 60)
        pairs = ohmlab.routing._endpoint_pairs(g)[0].size
        assert pairs > width
        widths = []
        block = ohmlab.routing.solve_laplacian_block

        def recorded(g, b, *args, **kwargs):
            widths.append(b.shape[1])
            return block(g, b, *args, **kwargs)

        monkeypatch.setattr(ohmlab.routing, "solve_laplacian_block", recorded)
        l1, pi, residual = ohmlab.routing._sweep(g, signed=True)
        assert g.laplacian_factor is None
        assert len(pcg_calls) == pairs
        assert widths == [width] * (pairs // width) + [pairs % width]
        monkeypatch.setattr(ohmlab.routing, "_BLOCK_COLUMNS", 1)
        l1_ref, pi_ref, residual_ref = ohmlab.routing._sweep(g, signed=True)
        assert widths[-pairs:] == [1] * pairs
        assert np.array_equal(l1, l1_ref) and np.array_equal(pi, pi_ref)
        assert residual == residual_ref


class TestInducedNorms:
    def test_exact_one_and_inf(self):
        # p = 1 and p = inf are the largest column and row sums, bit for bit
        rng = np.random.default_rng(3)
        for shape in ((1, 1), (4, 7), (7, 4), (9, 9)):
            m = rng.random(shape) * (rng.random(shape) < 0.6)
            assert induced_pnorm_nonneg(m, 1.0) == np.abs(m).sum(axis=0).max()
            assert induced_pnorm_nonneg(m, np.inf) == np.abs(m).sum(axis=1).max()
        assert induced_pnorm_nonneg(np.zeros((0, 3)), 1.0) == 0.0
        assert induced_pnorm_nonneg(np.zeros((3, 0)), np.inf) == 0.0

    # Values frozen after agreement (12 digits) with a multi-start
    # Nelder-Mead maximization of ||Mx||_p / ||x||_p.
    @pytest.mark.parametrize(
        "p, value",
        [
            (1.5, 5.372514539999),
            (2.0, 5.464985704219),
            (3.0, 5.733109524814),
            (4.0, 5.957344304139),
        ],
    )
    def test_boyd_iteration_small_matrix(self, p, value):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert induced_pnorm_nonneg(m, p) == pytest.approx(value, abs=1e-9)

    def test_boyd_iteration_3x3(self):
        m = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 1.0], [1.0, 1.0, 1.0]])
        assert induced_pnorm_nonneg(m, 1.5) == pytest.approx(3.673130987729, abs=1e-9)
        assert induced_pnorm_nonneg(m, 3.0) == pytest.approx(3.604062515893, abs=1e-9)

    def test_p2_matches_svd(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            m = rng.random((6, 6))
            top = np.linalg.svd(m, compute_uv=False)[0]
            assert induced_pnorm_nonneg(m, 2.0) == pytest.approx(top, rel=1e-9)

    def test_p_near_two_gets_its_own_value(self):
        # p is never rounded to 2: at p = 2 + 1e-10 the norm lies 4.7e-12
        # (relative) above the spectral norm, beyond the 1e-12 bracket
        m = np.array([[1.0, 2.0], [3.0, 4.0]])

        def brute(p):
            # the maximum over nonnegative unit directions in the plane
            def neg(t):
                x = np.array([np.cos(t), np.sin(t)])
                return -np.linalg.norm(m @ x, p) / np.linalg.norm(x, p)

            bounds, opts = (0.0, np.pi / 2), {"xatol": 1e-12}
            return -scipy.optimize.minimize_scalar(neg, bounds=bounds, method="bounded",
                                                   options=opts).fun

        near = induced_pnorm_nonneg(m, 2.0 + 1e-10)
        assert near == pytest.approx(brute(2.0 + 1e-10), rel=3e-12, abs=0.0)
        assert near > induced_pnorm_nonneg(m, 2.0) * (1.0 + 2e-12)

    def test_endpoint_dispatch(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert induced_pnorm_nonneg(m, 1.0) == 6.0
        assert induced_pnorm_nonneg(m, np.inf) == 7.0

    def test_log_convexity_bound(self):
        # ||M||_p <= ||M||_1^(1/p) ||M||_inf^(1-1/p) for nonneg M
        rng = np.random.default_rng(13)
        for _ in range(5):
            m = rng.random((5, 5))
            n1 = np.abs(m).sum(axis=0).max()
            ninf = np.abs(m).sum(axis=1).max()
            for p in (1.5, 2.0, 3.0, 5.0):
                np_norm = induced_pnorm_nonneg(m, p)
                assert np_norm <= n1 ** (1.0 / p) * ninf ** (1.0 - 1.0 / p) + 1e-9

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 1000.0])
    def test_scales_with_the_matrix_at_any_size(self, p):
        # every p-norm divides by the largest entry before the power; 2^600
        # used to overflow and 2^-600 to return 0
        rng = np.random.default_rng(29)
        for _ in range(4):
            m = rng.random((5, 4)) * (rng.random((5, 4)) < 0.7) + np.eye(5, 4)
            base = induced_pnorm_nonneg(m, p)
            for c in (2.0 ** 600, 2.0 ** -600):
                assert induced_pnorm_nonneg(c * m, p) == pytest.approx(c * base, rel=1e-11)
        assert induced_pnorm_nonneg(np.array([[0.1]]), 2000.0) == pytest.approx(0.1, rel=1e-15)

    def test_negative_entries_rejected(self):
        m = np.array([[1.0, -2.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match="nonneg"):
            induced_pnorm_nonneg(m, 3.0)

    def test_invalid_p_rejected(self):
        m = np.ones((2, 2))
        with pytest.raises(ValueError):
            induced_pnorm_nonneg(m, 0.5)

    @pytest.mark.parametrize("p", [1.0, 3.0, np.inf])
    def test_sparse_input_refused(self, p):
        m = sp.csr_array(np.array([[1.0, 2.0], [3.0, 4.0]]))
        with pytest.raises(ValueError):
            induced_pnorm_nonneg(m, p)
