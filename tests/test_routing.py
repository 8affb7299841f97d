import ast
import importlib
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

import ohmlab
from ohmlab import (
    Multigraph,
    SizeLimitError,
    competitive_ratio,
    competitive_ratio_inf,
    competitive_report,
    cycle_graph,
    demand_fraction,
    edge_demand,
    effective_resistance,
    flow_energy,
    flow_projection,
    gadget_subdivide,
    graph_union,
    induced_pnorm_nonneg,
    localization,
    path_graph,
    petersen_graph,
    random_regular,
    route_electrical,
    validate_demand,
)
from ohmlab.routing import PROJECTION_EDGE_CAP

from conftest import competitive_ratio_operator, complete_graph, incidence


def test_package_reexports_are_in_submodule_all():
    tree = ast.parse(Path(ohmlab.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"ohmlab.{node.module}")
            missing = {alias.name for alias in node.names} - set(module.__all__)
            assert not missing, f"ohmlab.{node.module}.__all__ lacks {sorted(missing)}"


def electrical(g):
    return lambda chi: route_electrical(g, chi)


class TestDemands:
    def test_float_edge_id_refused(self):
        # 1.5 used to raise numpy's IndexError
        with pytest.raises(ValueError, match="edge ids must be integers"):
            edge_demand(cycle_graph(6), 1.5)

    def test_edge_demand_signs(self):
        g = complete_graph(3)
        chi = edge_demand(g, 0)  # edge (0, 1)
        assert np.array_equal(chi, [1.0, -1.0, 0.0])

    def test_unbalanced_demand_rejected(self):
        g = cycle_graph(4)
        with pytest.raises(ValueError):
            validate_demand(g, np.array([1.0, 0.0, 0.0, 0.0]))

    def test_wrong_length_rejected(self):
        g = cycle_graph(4)
        with pytest.raises(ValueError):
            validate_demand(g, np.array([1.0, -1.0]))

    @pytest.mark.parametrize("drift", [0.0, 5e-11, 1e-8, np.nan])
    def test_same_zero_sum_rule_as_solver(self, drift):
        g = cycle_graph(4)
        chi = np.array([1.0, -1.0 + drift, 0.0, 0.0])

        def accepts(check):
            try:
                check(g, chi)
            except ValueError:
                return False
            return True

        assert accepts(validate_demand) == accepts(ohmlab.solve_laplacian)
        if accepts(validate_demand):
            assert np.array_equal(validate_demand(g, chi), chi)  # not centred


class TestRouteElectrical:
    def test_k2_routes_its_own_demand(self):
        g = complete_graph(2)
        f = route_electrical(g, edge_demand(g, 0))
        # B has -1 at the tail, so a unit of current out of the tail is f = -1
        assert f[0] == pytest.approx(-1.0, abs=1e-12)

    def test_routing_identity(self):
        # B f = chi up to the solver contract, across graphs and demands
        rng = np.random.default_rng(2)
        for seed in (1, 2, 3):
            g = random_regular(12, 3, seed)
            b = incidence(g)
            for _ in range(3):
                chi = rng.standard_normal(g.n)
                chi -= chi.mean()
                f = route_electrical(g, chi)
                resid = np.linalg.norm(b @ f - chi)
                assert resid <= 10 * 1e-10 * np.linalg.norm(chi)

    def test_k3_edge_demand_l1(self):
        # direct edge carries 2/3, the two-hop path 1/3 (dense oracle)
        g = complete_graph(3)
        f = route_electrical(g, edge_demand(g, 0))
        assert np.abs(f).sum() == pytest.approx(4.0 / 3.0, abs=1e-9)
        assert sorted(np.round(np.abs(f), 9).tolist()) == pytest.approx(
            [1.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0], abs=1e-9
        )

    def test_energy_consistency(self):
        # E(f) = E(v) = chi^T L^+ chi = R_eff for a pair demand
        for g in (complete_graph(3), cycle_graph(5), petersen_graph()):
            chi = edge_demand(g, 0)
            f = route_electrical(g, chi)
            from ohmlab.linalg import solve_laplacian

            v = solve_laplacian(g, chi).solution
            reff = effective_resistance(g, int(g.tails[0]), int(g.heads[0]))
            assert flow_energy(g, f) == pytest.approx(reff, rel=1e-8)
            assert v @ (g.laplacian @ v) == pytest.approx(reff, rel=1e-8)


class TestEffectiveResistance:
    def test_series_path(self):
        g = path_graph(4)
        assert effective_resistance(g, 0, 3) == pytest.approx(3.0, abs=1e-9)

    def test_c4_opposite_corners(self):
        g = cycle_graph(4)
        assert effective_resistance(g, 0, 2) == pytest.approx(1.0, abs=1e-9)

    def test_same_vertex_zero(self):
        assert effective_resistance(cycle_graph(4), 1, 1) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            effective_resistance(cycle_graph(4), 0, 4)

    def test_float_end_refused_before_any_solve(self, monkeypatch):
        # 1.5 used to pass the range check and fail as numpy's IndexError
        # after the solve
        def no_solve(*args):
            raise AssertionError("solve ran")

        monkeypatch.setattr(ohmlab.routing, "solve_laplacian_block", no_solve)
        with pytest.raises(ValueError, match="vertex ids must be integers"):
            effective_resistance(cycle_graph(6), 1.5, 3)


class TestFlowLength:
    @pytest.mark.parametrize("call", [
        flow_energy,
        lambda g, f: demand_fraction(g, f, edge_demand(g, 0), [0]),
    ], ids=["flow_energy", "demand_fraction"])
    def test_short_flow_refused(self, call):
        # flow_energy broadcast [1.0] over the four edges and returned 4.0
        with pytest.raises(ValueError, match="^flow must have length m=4$"):
            call(cycle_graph(4), [1.0])


class TestCompetitiveRatioInf:
    # K3 and C4 frozen after dense-oracle confirmation
    def test_k2(self):
        assert competitive_ratio_inf(complete_graph(2)) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_k3(self):
        assert competitive_ratio_inf(complete_graph(3)) == pytest.approx(
            4.0 / 3.0, abs=1e-9
        )

    def test_c4(self):
        assert competitive_ratio_inf(cycle_graph(4)) == pytest.approx(
            3.0 / 2.0, abs=1e-9
        )

    def test_parallel_edges_share_solves(self):
        doubled = Multigraph.from_edges(
            3, [(0, 1, 1.0), (0, 1, 1.0), (1, 2, 1.0), (1, 2, 1.0)]
        )
        # doubling halves each copy's flow; the l1 per demand is unchanged
        assert competitive_ratio_inf(doubled) == pytest.approx(1.0, abs=1e-9)


class TestProjectionMatrix:
    def test_k2_projection_is_identity(self):
        pi = flow_projection(complete_graph(2))
        assert pi.shape == (1, 1)
        assert pi[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_k3_entries(self):
        # |Pi| for K3 has 2/3 on the diagonal and 1/3 off it
        pi = flow_projection(complete_graph(3))
        a = np.abs(pi)
        assert np.allclose(np.diag(a), 2.0 / 3.0, atol=1e-9)
        off = a[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 1.0 / 3.0, atol=1e-9)

    def test_symmetric_idempotent(self):
        for seed in (1, 2):
            g = random_regular(14, 3, seed)
            pi = flow_projection(g)
            assert np.max(np.abs(pi - pi.T)) <= 1e-8
            assert np.max(np.abs(pi @ pi - pi)) <= 1e-6

    def test_trace_counts_tree_edges(self):
        g = random_regular(12, 4, 3)
        pi = flow_projection(g)
        assert np.trace(pi) == pytest.approx(g.n - 1, abs=1e-6)

    def test_edge_cap(self):
        g = random_regular(2668, 3, 1)  # m = 4002 > PROJECTION_EDGE_CAP
        with pytest.raises(SizeLimitError):
            flow_projection(g)


class TestCompetitiveRatioP:
    def test_k3_p2(self):
        # dense oracle: || |Pi| ||_2 = 4/3 for K3
        assert competitive_ratio(complete_graph(3), 2.0) == pytest.approx(
            4.0 / 3.0, abs=1e-8
        )

    def test_k2_any_p(self):
        g = complete_graph(2)
        for p in (1.0, 1.5, 2.0, 4.0, np.inf):
            assert competitive_ratio(g, p) == pytest.approx(1.0, abs=1e-9)

    def test_one_equals_inf_on_unit_graphs(self):
        for g in (cycle_graph(4), complete_graph(3), petersen_graph()):
            r1 = competitive_ratio(g, 1.0)
            rinf = competitive_ratio(g, np.inf)
            assert r1 == pytest.approx(rinf, rel=1e-6)

    def test_dual_exponent_symmetry(self):
        g = random_regular(10, 3, 4)
        for p in (1.5, 3.0):
            q = p / (p - 1.0)
            assert competitive_ratio(g, p) == pytest.approx(
                competitive_ratio(g, q), rel=1e-7
            )

    def test_matches_per_edge_solves_at_inf(self):
        for seed in (1, 2, 3):
            g = random_regular(10, 3, seed)
            assert competitive_ratio(g, np.inf) == pytest.approx(
                competitive_ratio_inf(g), abs=1e-8
            )

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
    def test_weighted_graphs_match_the_operator_reference(self, p, random_multigraph):
        # |Pi| W from the sweep against one electrical flow per edge, each
        # column w(e) |W^-1 f|; weights log-uniform in [1, 1e6]
        rng = np.random.default_rng(37)
        for _ in range(10):
            g = random_multigraph(rng, int(rng.integers(2, 16)), int(rng.integers(0, 20)))
            rho = competitive_ratio(g, p)
            assert rho == pytest.approx(competitive_ratio_operator(g, electrical(g), p), rel=1e-9)
            assert rho == competitive_report(g, [p]).rho[p]

    def test_inf_builds_no_projection(self):
        # p = inf reads the sweep's l1 norms, as competitive_ratio_inf does;
        # past the projection's edge cap it used to be refused
        rng = np.random.default_rng(5)
        ring = [(i, (i + 1) % 10) for i in range(10)]
        g = Multigraph.from_edges(10, ring + [tuple(rng.choice(10, 2, replace=False))
                                              for _ in range(4000)])
        assert g.m > PROJECTION_EDGE_CAP
        assert competitive_ratio(g, np.inf) == competitive_ratio_inf(g)

    def test_riesz_thorin_interpolation(self):
        g = random_regular(12, 3, 6)
        r1 = competitive_ratio(g, 1.0)
        rinf = competitive_ratio(g, np.inf)
        r2 = competitive_ratio(g, 2.0)
        for p in (1.5, 2.0, 3.0, 4.0, 8.0):
            rp = competitive_ratio(g, p)
            assert rp <= r1 ** (1.0 / p) * rinf ** (1.0 - 1.0 / p) + 1e-6
            if p > 2.0:
                assert rp <= r2 ** (2.0 / p) * rinf ** (1.0 - 2.0 / p) + 1e-6

    def test_routing_bound_across_p_grid(self):
        # rho_p <= 3 ln(2m)/phi on an expander with exactly known phi
        g = random_regular(12, 4, 2)
        phi = ohmlab.conductance_exact(g).phi
        bound = 3.0 * np.log(2.0 * g.m) / phi
        for p in (1.0, 1.5, 2.0, 4.0, 8.0, np.inf):
            assert competitive_ratio(g, p) <= bound + 1e-6


class TestOperatorRatio:
    """The operator reference in conftest, checked against closed forms."""

    def test_electrical_agrees_with_projection_route(self):
        g = cycle_graph(4)
        for p in (1.0, 2.0, np.inf):
            assert competitive_ratio_operator(g, electrical(g), p) == pytest.approx(
                competitive_ratio(g, p), abs=1e-8
            )

    def test_weight2_k2_is_one(self):
        g = Multigraph.from_edges(2, [(0, 1, 2.0)])
        for rho in (competitive_ratio_operator(g, electrical(g), 3.0), competitive_ratio(g, 3.0)):
            assert rho == pytest.approx(1.0, abs=1e-9)

    def test_c4_tree_routing(self):
        # route every demand along the spanning path 0-1-2-3; the flow on
        # path edge i is minus the demand accumulated left of the edge
        c4 = cycle_graph(4)

        def tree_route(chi):
            f = np.zeros(c4.m)
            carried = 0.0
            for i in range(3):
                carried += chi[i]
                f[i] = -carried
            return f

        # |AB| columns: each tree demand uses its own edge, the chord demand
        # uses all three, so column sums are (1,1,1,3) and row sums (2,2,2,0)
        assert competitive_ratio_operator(c4, tree_route, 1.0) == pytest.approx(
            3.0, abs=1e-9
        )
        assert competitive_ratio_operator(c4, tree_route, np.inf) == pytest.approx(
            2.0, abs=1e-9
        )


class TestPRange:
    @pytest.mark.parametrize("p", [np.nan, 0.5, -np.inf])
    def test_refused_before_any_solve(self, p, monkeypatch):
        def no_solve(*args):
            raise AssertionError("solved before checking p")

        monkeypatch.setattr(ohmlab.routing, "solve_laplacian_block", no_solve)
        g = random_regular(10, 3, 1)
        calls = [
            lambda: competitive_ratio(g, p),
            lambda: induced_pnorm_nonneg(np.ones((3, 3)), p),
            lambda: ohmlab.routing._ratios(g, (np.inf, p)),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="p must be in"):
                call()


class TestEdgelessGraph:
    def test_refused_before_any_conductance_work(self, monkeypatch):
        def no_conductance(*args, **kwargs):
            raise AssertionError("conductance computed for an edgeless graph")

        monkeypatch.setattr(ohmlab.routing, "conductance_exact", no_conductance)
        monkeypatch.setattr(ohmlab.routing, "conductance_bounds", no_conductance)
        g = Multigraph(3, np.array([], dtype=np.int64), np.array([], dtype=np.int64),
                       np.array([]))
        for call in (competitive_ratio_inf, localization, competitive_report,
                     lambda g: competitive_report(g, (2.0, np.inf), bracket=True)):
            with pytest.raises(ValueError, match="^graph has no edges$"):
                call(g)


class TestLocalization:
    def test_k2(self):
        assert localization(complete_graph(2)) == pytest.approx(1.0, abs=1e-9)

    def test_k3_symmetric_edges(self):
        assert localization(complete_graph(3)) == pytest.approx(4.0 / 3.0, abs=1e-9)

    def test_average_below_max(self):
        for seed in (1, 2, 3):
            g = random_regular(14, 3, seed)
            assert localization(g) <= competitive_ratio_inf(g) + 1e-10

    def test_weighted_rejected(self):
        g = Multigraph.from_edges(2, [(0, 1, 2.0)])
        with pytest.raises(ValueError, match="unit"):
            localization(g)


class TestDemandFraction:
    def test_partition_sums_to_one(self):
        g = random_regular(10, 3, 1)
        chi = edge_demand(g, 0)
        f = route_electrical(g, chi)
        lo = demand_fraction(g, f, chi, np.arange(g.m // 2))
        hi = demand_fraction(g, f, chi, np.arange(g.m // 2, g.m))
        assert lo + hi == pytest.approx(1.0, abs=1e-9)

    def test_single_edge_carries_all(self):
        g = complete_graph(2)
        chi = edge_demand(g, 0)
        f = route_electrical(g, chi)
        assert demand_fraction(g, f, chi, [0]) == pytest.approx(1.0, abs=1e-12)

    def test_bad_inputs_rejected(self):
        g = cycle_graph(4)
        chi = edge_demand(g, 0)
        f = route_electrical(g, chi)
        # -1 once read as the last edge and 0.5 as edge 0; 4 once raised a
        # bare numpy IndexError
        for edges in ([-1], [0.5], [g.m], np.array([[0, g.m]])):
            with pytest.raises(ValueError, match="edge id"):
                demand_fraction(g, f, chi, edges)
        assert demand_fraction(g, f, chi, []) == 0.0


class TestGadgetUnionFlow:
    # base graph plus the subdivision gadget: the two halves have equal
    # per-edge effective resistance, so current splits evenly between them
    def test_flow_split_fractions(self):
        g = random_regular(10, 3, 1)
        worst = 1.0
        for k in (1, 2, 3):
            u = graph_union(g, gadget_subdivide(g, k))
            base_ids = np.arange(g.m)
            gadget_ids = np.arange(g.m, u.m)
            for e in range(0, g.m, 5):
                chi = edge_demand(u, e)
                f = route_electrical(u, chi)
                fb = demand_fraction(u, f, chi, base_ids)
                fg = demand_fraction(u, f, chi, gadget_ids)
                assert fb + fg == pytest.approx(1.0, abs=1e-9)
                assert fb > 0 and fg > 0
                worst = min(worst, fb, fg)
        # measured minimum is 1/2 exactly; assert a wide safety margin
        print(f"\nminimum class fraction over all runs: {worst:.6f}")
        assert worst >= 0.05

    def test_l1_mass_monotone_in_k(self):
        g = random_regular(10, 3, 1)
        for e in (0, 7):
            vals = []
            for k in (1, 2, 3, 4):
                u = graph_union(g, gadget_subdivide(g, k))
                chi = edge_demand(u, e)
                vals.append(float(np.abs(route_electrical(u, chi)).sum()))
            for a, b in zip(vals, vals[1:]):
                assert b >= a - 1e-9
            slope = (vals[-1] - vals[0]) / 3.0
            print(f"\nedge {e}: l1 mass by k {vals}, slope {slope:.4f}")
            assert slope > 0

    def test_union_conductance_scales_inversely_in_k(self):
        g = random_regular(10, 3, 2)
        uppers, lowers = [], []
        for k in (2, 3, 4):
            u = graph_union(g, gadget_subdivide(g, k))
            lo, up = ohmlab.conductance_bounds(u)
            uppers.append(up.phi)
            lowers.append(lo.phi)
        for a, b in zip(uppers, uppers[1:]):
            assert b <= a + 1e-9
        scaled_up = [u * k for u, k in zip(uppers, (2, 3, 4))]
        scaled_lo = [v * k for v, k in zip(lowers, (2, 3, 4))]
        c1, c2 = min(scaled_lo), max(scaled_up)
        print(f"\nk*phi bracketing constants: c1 {c1:.4f}  c2 {c2:.4f}")
        assert 0 < c1 <= c2


class TestCompetitiveReport:
    def test_k2_fields(self):
        rep = competitive_report(complete_graph(2))
        assert rep.n == 2 and rep.m == 1
        assert rep.vol == 2.0
        assert rep.phi_kind == "exact"
        assert rep.phi_lower == rep.phi_upper == 1.0
        assert rep.rho[np.inf] == pytest.approx(1.0, abs=1e-9)
        assert rep.bound == pytest.approx(3.0 * np.log(2.0), rel=1e-12)
        assert rep.rho[np.inf] <= rep.bound

    def test_c4_bound(self):
        rep = competitive_report(cycle_graph(4))
        assert rep.rho[np.inf] == pytest.approx(1.5, abs=1e-9)
        assert rep.bound == pytest.approx(3.0 * np.log(8.0) / 0.5, rel=1e-12)

    def test_random_regular_bound_holds(self):
        rep = competitive_report(random_regular(16, 3, 1))
        assert rep.phi_kind == "exact"
        assert rep.rho[np.inf] <= rep.bound

    def test_large_graph_uses_bracket(self):
        g = random_regular(30, 3, 1)
        rep = competitive_report(g)
        assert rep.phi_kind == "cheeger-lower-bound"
        assert rep.phi_lower <= rep.phi_upper
        assert rep.rho[np.inf] <= rep.bound

    def test_p_grid(self):
        rep = competitive_report(cycle_graph(4), p_list=(1.0, 2.0, np.inf))
        assert set(rep.rho) == {1.0, 2.0, np.inf}
        assert rep.rho[1.0] == pytest.approx(rep.rho[np.inf], rel=1e-6)

    def test_weighted_graph_report(self):
        g = Multigraph.from_edges(2, [(0, 1, 2.0)])
        rep = competitive_report(g)
        assert rep.rho[np.inf] == pytest.approx(1.0, abs=1e-8)

    def test_one_factor_and_one_block_column_per_pair(self, monkeypatch):
        # below the direct vertex cap: one LU factor, no conjugate gradient,
        # and each endpoint pair solved once, in blocks of the sweep width
        g = random_regular(200, 3, 1)
        factors, pcg, widths = [], [], []
        splu = scipy.sparse.linalg.splu
        solve = ohmlab.linalg.solve_laplacian
        block = ohmlab.routing.solve_laplacian_block

        def counted_splu(*args, **kwargs):
            factors.append(args[0].shape)
            return splu(*args, **kwargs)

        def counted_solve(g, b, *args, **kwargs):
            pcg.append(b)
            return solve(g, b, *args, **kwargs)

        def recorded_block(g, b, *args, **kwargs):
            widths.append(b.shape[1])
            return block(g, b, *args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", counted_splu)
        monkeypatch.setattr(ohmlab.linalg, "solve_laplacian", counted_solve)
        monkeypatch.setattr(ohmlab.routing, "solve_laplacian_block", recorded_block)
        competitive_report(g, (1.0, 2.0, np.inf))
        pairs, width = ohmlab.routing._endpoint_pairs(g)[0].size, ohmlab.linalg._BLOCK_COLUMNS
        assert factors == [(g.n - 1, g.n - 1)]
        assert pcg == []
        assert sum(widths) == pairs
        assert widths == [width] * (pairs // width) + [pairs % width]

    def test_the_sweep_builds_the_one_factor(self, monkeypatch):
        # above the dense eigensolver's cap, lambda_2 comes from the filter
        # without a factor; the sweep's solves build the one grounded factor
        # and no column reaches conjugate gradient
        g = random_regular(1000, 3, 1)
        factors, dense, pcg = [], [], []
        splu, eigh = scipy.sparse.linalg.splu, scipy.linalg.eigh
        solve = ohmlab.linalg.solve_laplacian

        def counted_splu(*args, **kwargs):
            factors.append(args[0].shape)
            return splu(*args, **kwargs)

        def counted_eigh(*args, **kwargs):
            dense.append(args[0].shape)
            return eigh(*args, **kwargs)

        def counted_pcg(*args, **kwargs):
            pcg.append(args[1])
            return solve(*args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", counted_splu)
        monkeypatch.setattr(scipy.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(ohmlab.linalg, "solve_laplacian", counted_pcg)
        rep = competitive_report(g)
        assert rep.phi_kind == "cheeger-lower-bound"
        assert factors == [(g.n - 1, g.n - 1)]
        assert dense == []
        assert pcg == []

    @pytest.mark.parametrize("k", [4, 5])
    def test_p2_token_is_the_svd_rounding(self, k):
        # the p-norm iteration stops on a certified gap of 1e-12, so here the
        # printed 12-digit token is the rounding of the dense top singular value
        base = random_regular(10, 3, 1)
        u = graph_union(base, gadget_subdivide(base, k))
        top = np.linalg.svd(np.abs(flow_projection(u)), compute_uv=False)[0]
        assert "%.12g" % competitive_report(u, (np.inf, 2.0)).rho[2.0] == "%.12g" % top

    def test_dual_exponents_agree_on_gadget_union(self):
        # |Pi| is symmetric, so ||A||_p = ||A^T||_q = ||A||_q
        base = random_regular(10, 3, 1)
        rho = competitive_report(graph_union(base, gadget_subdivide(base, 3)), (1.5, 3.0)).rho
        assert rho[1.5] == pytest.approx(rho[3.0], rel=1e-12, abs=0.0)


class TestSweepMatchesDense:
    """The blocked sweep's ratios against a dense pinv of the Laplacian, on
    generated multigraphs; the larger ones span several sweep blocks."""

    @staticmethod
    def dense_columns(g):
        # column e: sum_f w(f) |Pi[f, e]| is edge e's l1 flow norm
        inc = incidence(g).toarray()
        pi = inc.T @ np.linalg.pinv(ohmlab.laplacian(g).toarray()) @ inc
        return np.abs(pi) * g.weights[:, None], np.abs(pi) * g.weights[None, :]

    def check(self, g):
        flow_l1, scaled = self.dense_columns(g)
        rho, loc, max_residual = ohmlab.routing._ratios(g, (1.0, np.inf))
        assert rho[np.inf] == pytest.approx(flow_l1.sum(axis=0).max(), rel=1e-9)
        assert rho[1.0] == pytest.approx(scaled.sum(axis=0).max(), rel=1e-9)
        if g.is_unit_weight:
            assert loc == pytest.approx(flow_l1.sum(axis=0).mean(), rel=1e-9)
        assert max_residual <= 1e-10 * np.sqrt(2.0)

    def test_unit_weight_multigraphs(self, random_multigraph):
        rng = np.random.default_rng(30)
        for n in (2, 3, 8, 20, 40):
            self.check(random_multigraph(rng, n, extra=n // 2, weighted=False))

    def test_weighted_multigraphs(self, random_multigraph):
        rng = np.random.default_rng(31)
        for n in (2, 5, 12, 30, 100):
            self.check(random_multigraph(rng, n, extra=n, weighted=True))

    def test_spans_several_blocks(self, random_multigraph):
        g = random_multigraph(np.random.default_rng(32), 200, extra=150, weighted=False)
        assert ohmlab.routing._endpoint_pairs(g)[0].size > 2 * ohmlab.linalg._BLOCK_COLUMNS
        self.check(g)


def _reference_sweep(g):
    """The per-pair loop that routing._sweep replaced, over a dict of edge
    lists per endpoint pair; each l1 norm is summed by a Python loop, left to
    right, the order in which numpy summed every block wider than one pair."""
    groups = {}
    for e, (t, h) in enumerate(zip(g.tails.tolist(), g.heads.tolist())):
        groups.setdefault((min(t, h), max(t, h)), []).append(e)
    groups = list(groups.items())
    l1 = np.empty(g.m)
    pi = np.empty((g.m, g.m))
    max_residual = 0.0
    width = ohmlab.linalg._BLOCK_COLUMNS if g.laplacian_factor is not None else 1
    for start in range(0, len(groups), width):
        block = groups[start:start + width]
        lows, highs = zip(*(pair for pair, _ in block))
        volts, residuals = ohmlab.routing.solve_laplacian_block(
            g, ohmlab.routing._pair_demands(g, lows, highs)
        )
        max_residual = max(max_residual, float(residuals.max()))
        rows = volts.T
        flows = rows[:, g.heads] - rows[:, g.tails]
        for ((a, _), edges), flow in zip(block, flows):
            norm = 0.0
            for value in (g.weights * np.abs(flow)).tolist():
                norm += value
            l1[edges] = norm
            for e in edges:
                pi[:, e] = -flow if g.tails[e] == a else flow
    return l1, pi, max_residual


def _both_orientations(random_multigraph, rng, n, extra, weighted):
    """A generated multigraph plus reversed parallel copies of a quarter of
    its edges, so that pairs hold edges stored both ways."""
    g = random_multigraph(rng, n, extra=extra, weighted=weighted)
    flip = rng.choice(g.m, g.m // 4, replace=False)
    return Multigraph(
        n,
        np.concatenate([g.tails, g.heads[flip]]),
        np.concatenate([g.heads, g.tails[flip]]),
        np.concatenate([g.weights, g.weights[flip]]),
    )


class TestSweepMatchesPairLoop:
    """The numpy sweep gives the per-pair loop's l1, Pi and worst residual,
    bit for bit."""

    @staticmethod
    def assert_same(g):
        l1, pi, max_residual = ohmlab.routing._sweep(g, signed=True)
        ref_l1, ref_pi, ref_residual = _reference_sweep(g)
        assert l1.tobytes() == ref_l1.tobytes()
        assert pi.tobytes() == ref_pi.tobytes()  # signbit of zeros included
        assert max_residual == ref_residual
        unsigned = ohmlab.routing._sweep(g)
        assert unsigned[0].tobytes() == l1.tobytes() and unsigned[1] is None

    @pytest.mark.parametrize("weighted", [False, True])
    def test_multigraphs_over_several_blocks(self, random_multigraph, weighted):
        rng = np.random.default_rng(40 + weighted)
        for n, extra in ((2, 1), (9, 6), (40, 30), (200, 150)):
            g = _both_orientations(random_multigraph, rng, n, extra, weighted)
            assert np.any(g.tails < g.heads) and np.any(g.tails > g.heads)
            self.assert_same(g)
        pairs = ohmlab.routing._endpoint_pairs(g)[0].size
        assert pairs > 2 * ohmlab.linalg._BLOCK_COLUMNS

    @pytest.mark.parametrize("weighted", [False, True])
    def test_without_a_factor(self, monkeypatch, random_multigraph, weighted):
        # one conjugate-gradient column per block
        monkeypatch.setattr(ohmlab.graphs, "_DIRECT_VERTEX_CAP", 1)
        g = _both_orientations(random_multigraph, np.random.default_rng(42), 24, 20, weighted)
        assert g.laplacian_factor is None
        self.assert_same(g)

    def test_endpoint_pairs_in_ascending_order(self):
        g = Multigraph(5, [3, 1, 0, 4, 1, 2, 3], [1, 3, 2, 0, 3, 4, 1], np.ones(7))
        lows, highs, pair_of_edge = ohmlab.routing._endpoint_pairs(g)
        assert lows.tolist() == [0, 0, 1, 2]
        assert highs.tolist() == [2, 4, 3, 4]
        assert pair_of_edge.tolist() == [2, 2, 0, 1, 2, 3, 2]

    @pytest.mark.parametrize("factored", [True, False])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_sweep_does_not_depend_on_pair_order(
        self, monkeypatch, random_multigraph, factored, weighted
    ):
        # each pair's column, norm and Pi columns are its own, whatever block
        # and position a permutation of the pairs puts it in
        if not factored:
            monkeypatch.setattr(ohmlab.graphs, "_DIRECT_VERTEX_CAP", 1)
        rng = np.random.default_rng(45 + weighted)
        g = _both_orientations(random_multigraph, rng, 120, 90, weighted)
        assert (g.laplacian_factor is None) != factored
        ascending = ohmlab.routing._endpoint_pairs(g)
        assert ascending[0].size > ohmlab.linalg._BLOCK_COLUMNS
        expected = ohmlab.routing._sweep(g, signed=True)
        perm = rng.permutation(ascending[0].size)
        position = np.empty_like(perm)
        position[perm] = np.arange(perm.size)
        permuted = (ascending[0][perm], ascending[1][perm], position[ascending[2]])
        monkeypatch.setattr(ohmlab.routing, "_endpoint_pairs", lambda graph: permuted)
        l1, pi, max_residual = ohmlab.routing._sweep(g, signed=True)
        assert l1.tobytes() == expected[0].tobytes()
        assert pi.tobytes() == expected[1].tobytes()
        assert max_residual == expected[2]

    def test_edge_average_matches_a_left_to_right_loop(self):
        # the reference is the per-edge Python loop that cumsum replaced;
        # numpy's mean, summed pairwise, differs from it in the last place
        rng = np.random.default_rng(44)
        pairwise_differs = False
        for m in (1, 2, 7, 8, 9, 100, 1000, 30_000):
            l1 = rng.uniform(1.0, 10.0, m) * 10.0 ** rng.uniform(-3, 3, m)
            total = 0.0
            for value in l1.tolist():
                total += value
            assert ohmlab.routing._edge_average(l1) == total / m
            pairwise_differs |= float(l1.mean()) != total / m
        assert pairwise_differs

    def test_l1_does_not_depend_on_block_width(self, monkeypatch, random_multigraph):
        # a column's factored solve does not depend on its block's width, and
        # a 1-pair block sums its norm in the same order as a 128-pair block
        g = _both_orientations(random_multigraph, np.random.default_rng(43), 60, 40, True)
        wide = ohmlab.routing._sweep(g, signed=True)
        monkeypatch.setattr(ohmlab.routing, "_BLOCK_COLUMNS", 1)
        narrow = ohmlab.routing._sweep(g, signed=True)
        assert g.m >= 8
        assert narrow[0].tobytes() == wide[0].tobytes()
        assert narrow[1].tobytes() == wide[1].tobytes()
