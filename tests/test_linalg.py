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
