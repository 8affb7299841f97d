import numpy as np
import pytest
import scipy.sparse as sp

import ohmlab
from ohmlab import (
    ConvergenceError,
    DisconnectedError,
    Multigraph,
    complete_graph,
    cycle_graph,
    incidence,
    induced_norm_1,
    induced_norm_inf,
    induced_pnorm_nonneg,
    laplacian,
    path_graph,
    random_regular,
    solve_laplacian,
)
from ohmlab.linalg import solve_laplacian_block


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
            rep = solve_laplacian(g, b, tol=1e-10)
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

    def test_convergence_error_carries_best_iterate(self):
        g = random_regular(20, 3, 1)
        b = np.zeros(20)
        b[0], b[1] = 1.0, -1.0
        with pytest.raises(ConvergenceError) as exc:
            solve_laplacian(g, b, tol=1e-10, max_iter=2)
        err = exc.value
        assert err.best is not None
        assert err.best.shape == (20,)
        assert err.iterations == 2
        assert err.residual > 0


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
            x, residuals = solve_laplacian_block(g, b, tol)
            for j in range(b.shape[1]):
                true_res = np.linalg.norm(laplacian(g) @ x[:, j] - b[:, j])
                assert true_res <= tol * np.linalg.norm(b[:, j])
                assert residuals[j] <= tol * np.linalg.norm(b[:, j])
                assert abs(x[:, j].sum()) <= 1e-12 * np.abs(x[:, j]).sum()
                pcg = solve_laplacian(g, b[:, j], tol).solution
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
        monkeypatch.setattr(ohmlab.linalg, "_DIRECT_VERTEX_CAP", cap)
        g, b = bad
        with pytest.raises(ValueError, match="finite"):
            solve_laplacian_block(g, np.column_stack([ohmlab.edge_demand(g, 1), b]))

    def test_entry_points_refuse(self, bad):
        g, b = bad
        for solve in (solve_laplacian, ohmlab.route_electrical, ohmlab.threshold_profile):
            with pytest.raises(ValueError, match="finite"):
                solve(g, b)


class TestDirectFallback:
    class _Perturbed:
        """Stands in for the cached factor and spoils one solution column."""

        def __init__(self, lu, column):
            self.lu, self.column = lu, column

        def solve(self, rhs):
            x = self.lu.solve(rhs)
            x[:, self.column] += 1e-3
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

    def test_missed_column_is_resolved_by_pcg(self, pcg_calls):
        g = random_regular(30, 3, 1)
        b = np.zeros((g.n, 4))
        b[[0, 1, 2, 3], range(4)] = 1.0
        b[[10, 11, 12, 13], range(4)] = -1.0
        clean, _ = solve_laplacian_block(g, b)
        assert pcg_calls == []
        g.__dict__["laplacian_factor"] = self._Perturbed(g.laplacian_factor, 2)
        x, residuals = solve_laplacian_block(g, b)
        assert len(pcg_calls) == 1
        assert np.array_equal(pcg_calls[0], b[:, 2])
        assert np.array_equal(x[:, 2], solve_laplacian(g, b[:, 2]).solution)
        assert np.array_equal(np.delete(x, 2, axis=1), np.delete(clean, 2, axis=1))
        for j in range(4):
            true_res = np.linalg.norm(laplacian(g) @ x[:, j] - b[:, j])
            assert true_res <= 1e-10 * np.linalg.norm(b[:, j])
            assert residuals[j] <= 1e-10 * np.linalg.norm(b[:, j])

    def test_no_factor_above_cap(self, monkeypatch, pcg_calls):
        monkeypatch.setattr(ohmlab.linalg, "_DIRECT_VERTEX_CAP", 9)
        assert ohmlab.linalg._direct_factor(cycle_graph(9)) is not None
        widths = []
        block = ohmlab.routing.solve_laplacian_block

        def recorded(g, b, *args, **kwargs):
            widths.append(b.shape[1])
            return block(g, b, *args, **kwargs)

        monkeypatch.setattr(ohmlab.routing, "solve_laplacian_block", recorded)
        g = random_regular(10, 3, 1)
        rho = ohmlab.competitive_ratio_inf(g)
        assert "laplacian_factor" not in g.__dict__  # never factored
        assert len(pcg_calls) == g.m  # a simple graph: one pair per edge
        assert widths == [1] * g.m  # the sweep holds one pair at a time
        monkeypatch.undo()
        assert rho == pytest.approx(
            ohmlab.competitive_ratio_inf(random_regular(10, 3, 1)), rel=1e-9
        )


class TestInducedNorms:
    def test_exact_one_and_inf(self):
        m = np.array([[1.0, -2.0], [3.0, 4.0]])
        assert induced_norm_1(m) == 6.0
        assert induced_norm_inf(m) == 7.0
        sm = sp.csr_array(m)
        assert induced_norm_1(sm) == 6.0
        assert induced_norm_inf(sm) == 7.0

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

    def test_p_near_two_snaps(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        a = induced_pnorm_nonneg(m, 2.0)
        b = induced_pnorm_nonneg(m, 2.0 + 1e-10)
        assert a == b

    def test_endpoint_dispatch(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert induced_pnorm_nonneg(m, 1.0) == 6.0
        assert induced_pnorm_nonneg(m, np.inf) == 7.0

    def test_log_convexity_bound(self):
        # ||M||_p <= ||M||_1^(1/p) ||M||_inf^(1-1/p) for nonneg M
        rng = np.random.default_rng(13)
        for _ in range(5):
            m = rng.random((5, 5))
            n1 = induced_norm_1(m)
            ninf = induced_norm_inf(m)
            for p in (1.5, 2.0, 3.0, 5.0):
                np_norm = induced_pnorm_nonneg(m, p)
                assert np_norm <= n1 ** (1.0 / p) * ninf ** (1.0 - 1.0 / p) + 1e-9

    def test_negative_entries_rejected(self):
        m = np.array([[1.0, -2.0], [3.0, 4.0]])
        with pytest.raises(ValueError, match="nonneg"):
            induced_pnorm_nonneg(m, 3.0)

    def test_invalid_p_rejected(self):
        m = np.ones((2, 2))
        with pytest.raises(ValueError):
            induced_pnorm_nonneg(m, 0.5)

    def test_sparse_input(self):
        m = sp.csr_array(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert induced_pnorm_nonneg(m, 3.0) == pytest.approx(5.733109524814, abs=1e-9)
