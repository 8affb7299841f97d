"""End-to-end acceptance checks, one test per criterion.

Each test prints a one-line verdict with the measured extremes; the pytest
verbose line is the pass/fail record. The shared corpus is the d in {3, 4},
n in {10, 12, 16, 20}, seeds 1..5 grid of random regular graphs with exact
conductance, built once per session.
"""

import itertools
import time

import numpy as np
import pytest

import ohmlab
from ohmlab import (
    Multigraph,
    Partition,
    competitive_ratio,
    competitive_ratio_inf,
    conductance_bounds,
    conductance_exact,
    cycle_graph,
    edge_demand,
    effective_resistance,
    expected_cut_l1,
    extension_energy,
    flow_projection,
    gadget_subdivide,
    graph_union,
    harmonic_extension,
    l1_objective,
    laplacian,
    localization,
    min_l1_extension,
    petersen_graph,
    random_regular,
    schur_complement,
    schur_edge_weights,
    solve_laplacian,
    threshold_profile,
)
from ohmlab.thresholds import (
    check_derivative_bounds,
    check_integral_identity,
    check_unit_flow,
)

from conftest import complete_graph

GRID = [
    (n, d, seed)
    for d in (3, 4)
    for n in (10, 12, 16, 20)
    for seed in (1, 2, 3, 4, 5)
]


@pytest.fixture(scope="module")
def corpus():
    out = []
    for n, d, seed in GRID:
        g = random_regular(n, d, seed)
        out.append((n, d, seed, g, conductance_exact(g).phi))
    return out


def routing_bound(g, phi):
    return 3.0 * np.log(float(g.weighted_degrees.sum())) / phi


def test_criterion_01_routing_bound_on_grid(corpus):
    started = time.monotonic()
    worst = np.inf
    for n, d, seed, g, phi in corpus:
        rho = competitive_ratio_inf(g)
        bound = routing_bound(g, phi)
        slack = bound - rho
        assert rho <= bound * (1.0 + 1e-6), (n, d, seed, rho, bound)
        worst = min(worst, slack)
    elapsed = time.monotonic() - started
    print(
        f"\ncriterion 1: rho_inf <= 3 ln(vol)/phi on {len(corpus)} graphs, "
        f"min slack {worst:.4f}, {elapsed:.1f}s"
    )
    assert elapsed < 60.0


def test_criterion_02_rho_one_equals_rho_inf(corpus):
    graphs = [g for _, _, _, g, _ in corpus]
    graphs += [cycle_graph(4), complete_graph(3), petersen_graph()]
    worst = 0.0
    for g in graphs:
        r1 = competitive_ratio(g, 1.0)
        rinf = competitive_ratio(g, np.inf)
        rel = abs(r1 - rinf) / rinf
        assert rel <= 1e-6, (g.n, g.m, r1, rinf)
        worst = max(worst, rel)
    print(
        f"\ncriterion 2: rho_1 == rho_inf on {len(graphs)} graphs, "
        f"max relative gap {worst:.2e}"
    )


def test_criterion_03_per_edge_solves_match_dense_projection(corpus):
    pool = [g for _, _, _, g, _ in corpus]
    pool += [complete_graph(3), cycle_graph(4), petersen_graph()]
    checked = 0
    worst = 0.0
    for g in pool:
        if g.m > 30:
            continue
        by_solves = competitive_ratio_inf(g)
        dense = np.abs(flow_projection(g)).sum(axis=1).max()
        gap = abs(by_solves - dense)
        assert gap <= 1e-8, (g.n, g.m, by_solves, dense)
        worst = max(worst, gap)
        checked += 1
    print(
        f"\ncriterion 3: per-edge solves vs dense projection on {checked} "
        f"graphs with m <= 30, max gap {worst:.2e}"
    )
    assert checked >= 20


def test_criterion_04_riesz_thorin_interpolation():
    shapes = [(12, 3), (16, 3), (20, 3), (10, 4), (14, 4)]
    graphs = [random_regular(n, d, seed) for (n, d), seed in
              zip(shapes * 2, (1, 1, 1, 1, 1, 2, 2, 2, 2, 2))]
    assert all(g.m <= 60 for g in graphs)
    worst = -np.inf
    for g in graphs:
        r1 = competitive_ratio(g, 1.0)
        r2 = competitive_ratio(g, 2.0)
        rinf = competitive_ratio(g, np.inf)
        for p in (1.5, 2.0, 3.0, 4.0, 8.0):
            rp = competitive_ratio(g, p)
            interp = r1 ** (1.0 / p) * rinf ** (1.0 - 1.0 / p)
            assert rp <= interp + 1e-6, (g.n, g.m, p, rp, interp)
            worst = max(worst, rp - interp)
            if p > 2.0:
                spectral = r2 ** (2.0 / p) * rinf ** (1.0 - 2.0 / p)
                assert rp <= spectral + 1e-6, (g.n, g.m, p, rp, spectral)
                worst = max(worst, rp - spectral)
    print(
        f"\ncriterion 4: interpolation bounds on {len(graphs)} graphs x 5 "
        f"exponents, worst margin {worst:.2e}"
    )


def test_criterion_05_proof_engine_diagnostics(corpus):
    profiles = 0
    worst_gap = 0.0
    worst_flow = 0.0
    for n, d, seed, g, phi in corpus:
        for e in range(g.m):
            prof = threshold_profile(g, edge_demand(g, e))
            gap = check_integral_identity(prof).relative_gap
            flow_dev = check_unit_flow(prof)
            deriv = check_derivative_bounds(prof, phi, samples=50)
            assert gap <= 1e-10, (n, d, seed, e, gap)
            assert flow_dev <= 1e-8, (n, d, seed, e, flow_dev)
            assert deriv.ok, (n, d, seed, e, deriv)
            worst_gap = max(worst_gap, gap)
            worst_flow = max(worst_flow, flow_dev)
            profiles += 1
    print(
        f"\ncriterion 5: {profiles} edge-demand profiles clean "
        f"(max integral gap {worst_gap:.2e}, max flow deviation {worst_flow:.2e})"
    )


def test_criterion_06_lower_bound_trend():
    started = time.monotonic()
    base = random_regular(10, 3, 1)
    rhos = []
    phi_uppers = []
    reff_range = (np.inf, -np.inf)
    for k in (1, 2, 3, 4):
        u = graph_union(base, gadget_subdivide(base, k))
        rhos.append(competitive_ratio_inf(u))
        _, upper = conductance_bounds(u)
        phi_uppers.append(upper.phi)
        for e in range(base.m):
            r = effective_resistance(u, int(base.tails[e]), int(base.heads[e]))
            assert 0.2 <= r <= 2.0, (k, e, r)
            reff_range = (min(reff_range[0], r), max(reff_range[1], r))
    for a, b in zip(rhos, rhos[1:]):
        assert b > a, rhos
    for a, b in zip(phi_uppers, phi_uppers[1:]):
        assert b < a + 1e-12, phi_uppers
    elapsed = time.monotonic() - started
    print(
        f"\ncriterion 6: rho_inf {['%.3f' % r for r in rhos]} strictly up, "
        f"phi upper {['%.4f' % p for p in phi_uppers]} down, "
        f"R_eff in [{reff_range[0]:.3f}, {reff_range[1]:.3f}], {elapsed:.1f}s"
    )
    assert elapsed < 300.0


def test_criterion_07_localization_bounds(corpus):
    worst_rho_margin = np.inf
    worst_log_margin = np.inf
    for n, d, seed, g, phi in corpus:
        loc = localization(g)
        rho = competitive_ratio_inf(g)
        assert loc <= rho + 1e-10, (n, d, seed, loc, rho)
        phi_bound = routing_bound(g, phi)
        logsq = np.log(n) ** 2 + 10.0
        assert loc <= min(phi_bound, logsq), (n, d, seed, loc, phi_bound, logsq)
        worst_rho_margin = min(worst_rho_margin, rho - loc)
        worst_log_margin = min(worst_log_margin, logsq - loc)
    print(
        f"\ncriterion 7: localization within rho_inf (min margin "
        f"{worst_rho_margin:.4f}) and ln(n)^2 + 10 (min margin "
        f"{worst_log_margin:.4f}) on {len(corpus)} graphs"
    )


def _random_connected(rng, n, extra):
    edges = [(i, i + 1, 1.0) for i in range(n - 1)]
    for _ in range(extra):
        a, b = rng.choice(n, 2, replace=False)
        edges.append((int(min(a, b)), int(max(a, b)), float(rng.integers(1, 4))))
    return Multigraph.from_edges(n, edges)


def test_criterion_08a_threshold_rounding_identity():
    rng = np.random.default_rng(81)
    worst = 0.0
    for _ in range(20):
        g = _random_connected(rng, int(rng.integers(5, 12)), 5)
        for _ in range(10):
            x = rng.random(g.n)
            closed, integrated = expected_cut_l1(g, x)
            gap = abs(closed - integrated)
            assert gap <= 1e-12 * max(closed, 1.0)
            worst = max(worst, gap)
    print(f"\ncriterion 8a: 200 rounding identities, max gap {worst:.2e}")


def test_criterion_08b_capping_never_increases():
    rng = np.random.default_rng(82)
    trials = 0
    while trials < 1000:
        g = _random_connected(rng, 8, 4)
        part = Partition.from_eliminated(8, rng.choice(8, 3, replace=False))
        x = rng.random(part.terminals.size)
        for _ in range(10):
            y = rng.standard_normal(part.eliminated.size) * 2.0 + 0.5
            capped = np.clip(y, 0.0, 1.0)
            assert l1_objective(g, part, x, capped) <= l1_objective(
                g, part, x, y
            ) + 1e-12
            assert extension_energy(g, part, x, capped) <= extension_energy(
                g, part, x, y
            ) + 1e-12
            trials += 1
    print(f"\ncriterion 8b: capping monotone over {trials} trials")


def test_criterion_08c_min_cut_matches_brute_force():
    rng = np.random.default_rng(83)
    for trial in range(50):
        f_size = int(rng.integers(3, 7))
        g = _random_connected(rng, 9, 6)
        part = Partition.from_eliminated(9, rng.choice(9, f_size, replace=False))
        x = (rng.random(part.terminals.size) > 0.4).astype(float)
        value, y = min_l1_extension(g, part, x)
        brute = min(
            l1_objective(g, part, x, np.array(bits))
            for bits in itertools.product((0.0, 1.0), repeat=f_size)
        )
        assert value == brute, (trial, value, brute)
    print("\ncriterion 8c: min-cut equals 2^|F| brute force on 50 instances")


def test_criterion_08d_harmonic_box_and_energy():
    rng = np.random.default_rng(84)
    worst = 0.0
    for _ in range(50):
        g = _random_connected(rng, int(rng.integers(6, 12)), 5)
        f_size = int(rng.integers(1, 4))
        part = Partition.from_eliminated(g.n, rng.choice(g.n, f_size, replace=False))
        x = rng.random(part.terminals.size)
        y = harmonic_extension(g, part, x)
        assert np.all(y >= x.min() - 1e-10) and np.all(y <= x.max() + 1e-10)
        s = schur_complement(g, part)
        energy = extension_energy(g, part, x, y)
        quad = float(x @ s @ x)
        gap = abs(energy - quad) / max(quad, 1.0)
        assert gap <= 1e-10, (energy, quad)
        worst = max(worst, gap)
    print(f"\ncriterion 8d: 50 harmonic extensions in box, energy gap <= {worst:.2e}")


def test_criterion_09_solver_contract():
    rng = np.random.default_rng(9)
    worst_resid = 0.0
    worst_dense = 0.0
    small = 0
    for trial in range(100):
        n = int(rng.integers(6, 21))
        d = 3 if (n * 3) % 2 == 0 else 4
        g = random_regular(n, d, int(rng.integers(1, 1000)))
        b = rng.standard_normal(n)
        b -= b.mean()
        rep = solve_laplacian(g, b)
        resid = np.linalg.norm(laplacian(g) @ rep.solution - b)
        assert resid <= 1e-10 * np.linalg.norm(b), (trial, resid)
        worst_resid = max(worst_resid, resid / np.linalg.norm(b))
        if n <= 12:
            exact = np.linalg.pinv(laplacian(g).toarray()) @ b
            exact -= exact.mean()
            rel = np.max(np.abs(rep.solution - exact)) / np.max(np.abs(exact))
            assert rel <= 1e-4, (trial, rel)
            worst_dense = max(worst_dense, rel)
            small += 1
    print(
        f"\ncriterion 9: 100 solves within tolerance (worst relative residual "
        f"{worst_resid:.2e}); {small} dense comparisons within {worst_dense:.2e}"
    )
    assert small > 0


def test_criterion_10_golden_values():
    rho_k3 = competitive_ratio_inf(complete_graph(3))
    rho_c4 = competitive_ratio_inf(cycle_graph(4))
    assert abs(rho_k3 - 4.0 / 3.0) <= 1e-8
    assert abs(rho_c4 - 3.0 / 2.0) <= 1e-8
    weights = schur_edge_weights(
        ohmlab.path_graph(3), Partition.from_eliminated(3, [1])
    )
    assert weights[(0, 2)] == 0.5
    print(
        f"\ncriterion 10: K3 rho {rho_k3:.10f}, C4 rho {rho_c4:.10f}, "
        f"path Schur weight exactly 0.5"
    )
