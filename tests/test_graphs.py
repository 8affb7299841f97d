import inspect
import io
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

import ohmlab
import ohmlab.graphs
import ohmlab.routing
from ohmlab import (
    ConductanceCertificate,
    Multigraph,
    SizeLimitError,
    as_vertex_mask,
    conductance_bounds,
    conductance_exact,
    cycle_graph,
    gadget_subdivide,
    girth,
    graph_text,
    graph_union,
    path_graph,
    petersen_graph,
    random_regular,
    read_graph,
    write_graph,
)
from ohmlab.experiments import format_value

from conftest import _grid, complete_graph, cut_weight, volume


class TestMultigraph:
    def test_basic_construction(self):
        g = Multigraph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)])
        assert g.n == 3
        assert g.m == 2
        assert np.array_equal(g.weighted_degrees, [1.0, 3.0, 2.0])
        assert not g.is_unit_weight
        assert g.is_connected

    def test_parallel_edges_allowed(self):
        g = Multigraph.from_edges(2, [(0, 1, 1.0), (0, 1, 1.0), (1, 0, 1.0)])
        assert g.m == 3
        assert np.array_equal(g.weighted_degrees, [3.0, 3.0])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Multigraph.from_edges(2, [(1, 1, 1.0)])

    def test_weight_below_one_rejected(self):
        with pytest.raises(ValueError, match="weights"):
            Multigraph.from_edges(2, [(0, 1, 0.5)])

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="weights"):
            Multigraph.from_edges(3, [(0, 1, 1.0), (1, 2, weight)])

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ValueError):
            Multigraph.from_edges(2, [(0, 2, 1.0)])

    def test_float_endpoints_refused_not_truncated(self):
        # tails [0.5, 1.7] used to read as [0, 1]
        with pytest.raises(ValueError, match="edge endpoints must be integers"):
            Multigraph(3, [0.5, 1.7], [1, 2], [1.0, 1.0])
        with pytest.raises(ValueError, match="edge endpoints must be integers"):
            Multigraph.from_edges(3, [(0, 1.0), (1, 2)])
        assert Multigraph.from_edges(3, []).m == 0

    @pytest.mark.parametrize("n", [3.0, 3.5, "3"])
    def test_non_integer_vertex_count_refused(self, n):
        # n = 3.0 used to pass and fail later as numpy's TypeError
        with pytest.raises(ValueError, match="must be integers"):
            Multigraph(n, [0, 1], [1, 2], [1.0, 1.0])

    def test_arrays_are_frozen(self):
        g = complete_graph(3)
        with pytest.raises(ValueError):
            g.weights[0] = 5.0

    def test_disconnected_detected(self):
        g = Multigraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        assert not g.is_connected
        labels = g.component_labels
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]


class TestVolumeAndCut:
    def test_volume_of_mask(self):
        g = cycle_graph(4)
        assert volume(g, [0, 1]) == 4.0
        assert volume(g, as_vertex_mask(4, [0, 1])) == 4.0

    def test_float_ids_refused_not_truncated(self):
        # [1.7, 2.2] used to read as {1, 2}
        g = cycle_graph(5)
        for ids in ([1.7, 2.2], [1.0, 2.0], np.array([3.0])):
            with pytest.raises(ValueError, match="vertex ids must be integers"):
                volume(g, ids)
        assert volume(g, []) == 0.0
        assert volume(g, np.array([1, 2], dtype=np.uint8)) == 4.0
        assert volume(g, np.arange(5) < 2) == 4.0

    def test_cut_weight_c4_pair(self):
        g = cycle_graph(4)
        assert cut_weight(g, [0, 1]) == 2.0
        assert cut_weight(g, [0, 2]) == 4.0

    def test_total_set_has_zero_cut(self):
        g = complete_graph(4)
        assert cut_weight(g, range(4)) == 0.0


class TestConductanceExact:
    # Small-graph values verified against an independent itertools
    # enumeration before being frozen here.
    @pytest.mark.parametrize(
        "g, phi",
        [
            (complete_graph(3), 1.0),
            (complete_graph(4), 2.0 / 3.0),
            (cycle_graph(4), 0.5),
            (cycle_graph(6), 1.0 / 3.0),
            (path_graph(3), 1.0),
            (petersen_graph(), 1.0 / 3.0),
        ],
        ids=["K3", "K4", "C4", "C6", "P3", "petersen"],
    )
    def test_known_values(self, g, phi):
        cert = conductance_exact(g)
        assert cert.kind == "exact"
        assert cert.phi == pytest.approx(phi, abs=1e-14)

    def test_witness_attains_phi(self):
        for seed in range(1, 6):
            g = random_regular(12, 3, seed)
            cert = conductance_exact(g)
            s = cert.witness
            vol = min(volume(g, s), volume(g, ~s))
            assert cut_weight(g, s) / vol == pytest.approx(cert.phi, rel=1e-13)
            # witness is the smaller side
            assert volume(g, s) <= volume(g, ~s)

    def test_weighted_graph(self):
        # triangle with one heavy edge: S={2} cut 2 vol 2; S={0} cut 3 vol 3;
        # S={0,1} cut 2 vol 2 (other side). Minimum 3/4 at S={0,2}? enumerate:
        # weights 0-1:2, 1-2:1, 0-2:1. S={1}: cut 3, vol 3. S={0}: cut 3/3.
        # S={2}: cut 2/2 = 1. S={0,1}: side {2} -> 1. S={0,2}: cut 3, vol 4
        # min(4, 2)... vol({0,2})=4, vol({1})=3 -> 3/3=1. phi = 1.
        g = Multigraph.from_edges(3, [(0, 1, 2.0), (1, 2, 1.0), (0, 2, 1.0)])
        assert conductance_exact(g).phi == pytest.approx(1.0, abs=1e-14)

    def test_size_cap(self):
        g = random_regular(26, 3, 1)
        with pytest.raises(SizeLimitError):
            conductance_exact(g)


class TestConductanceBounds:
    def test_bracket_and_ordering(self):
        for seed in (1, 2, 3):
            g = random_regular(16, 3, seed)
            exact = conductance_exact(g).phi
            lower, upper = conductance_bounds(g)
            assert lower.kind == "cheeger-lower-bound"
            assert upper.kind == "sweep-upper-bound"
            assert lower.phi <= exact + 1e-10
            assert exact <= upper.phi + 1e-10
            # Cheeger: sweep cut is within sqrt(2 lambda_2) of optimal
            assert upper.phi <= np.sqrt(2.0 * (2.0 * lower.phi)) + 1e-10

    def test_upper_witness_attains_value(self):
        g = random_regular(20, 4, 3)
        _, upper = conductance_bounds(g)
        s = upper.witness
        vol = min(volume(g, s), volume(g, ~s))
        assert cut_weight(g, s) / vol == pytest.approx(upper.phi, rel=1e-12)

    def test_dense_and_sparse_paths_agree(self, monkeypatch):
        g = random_regular(18, 3, 7)
        lo_d, up_d = conductance_bounds(g)
        monkeypatch.setattr(ohmlab.graphs, "_DENSE_EIGEN_CAP", 4)
        lo_s, up_s = conductance_bounds(g)
        assert lo_d.phi == pytest.approx(lo_s.phi, rel=1e-7)
        assert up_d.phi == pytest.approx(up_s.phi, rel=1e-7)

    def test_upper_end_on_light_corner(self):
        # vol(V - S) taken as vol(V) - vol(S) cancels on the light side {2}:
        # the sweep value came out 0.9999999999966147, below phi = 1
        g = Multigraph(3, np.array([1, 2, 1]), np.array([0, 0, 0]),
                       np.array([1.0, 1.00001, 16383.0]))
        _, upper = conductance_bounds(g)
        assert conductance_exact(g).phi == 1.0
        assert upper.phi == 1.0
        s = upper.witness
        assert cut_weight(g, s) / volume(g, s) == 1.0

    def test_arpack_path_is_reproducible(self, monkeypatch):
        # above the dense cap ARPACK finds the top eigenvalue of the
        # Chebyshev filter of N
        import scipy.sparse.linalg

        g = random_regular(60, 3, 1)
        eigsh, calls = scipy.sparse.linalg.eigsh, []

        def recorded(*args, **kwargs):
            calls.append((kwargs["k"], kwargs["which"]))
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(ohmlab.graphs, "_DENSE_EIGEN_CAP", 4)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", recorded)
        first, second = conductance_bounds(g)[0].phi, conductance_bounds(g)[0].phi
        assert calls == [(1, "LA"), (1, "LA")]
        assert first == second
        assert first == pytest.approx(_dense_lambda2(g)[0] / 2.0, rel=0.0, abs=1e-10)

    def test_arpack_path_failure_is_convergence_error(self, monkeypatch):
        import scipy.sparse.linalg

        calls = []

        def no_convergence(*args, **kwargs):
            calls.append((kwargs["k"], kwargs["which"]))
            raise scipy.sparse.linalg.ArpackNoConvergence("stalled", np.zeros(1),
                                                          np.zeros((18, 1)))

        monkeypatch.setattr(ohmlab.graphs, "_DENSE_EIGEN_CAP", 4)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        with pytest.raises(ohmlab.ConvergenceError) as info:
            conductance_bounds(random_regular(18, 3, 7))
        assert calls == [(1, "LA")]
        assert info.value.iterations == 10_000
        assert info.value.best.shape == (18,)

    @pytest.mark.parametrize("shape, n, token", [
        pytest.param("path", 1000, "2.47234127706e-06", id="path-1000"),
        pytest.param("cycle", 1000, "9.86957193144e-06", id="cycle-1000"),
        pytest.param("path", 2500, None, id="path"),
        pytest.param("cycle", 2500, None, id="cycle"),
        pytest.param("path", 3500, "2.01535631216e-07", id="path-above-cap"),
        pytest.param("cycle", 3200, None, id="cycle-above-cap"),
    ])
    def test_long_path_and_cycle_match_closed_forms(self, shape, n, token):
        # lambda_2 / 2 of N is sin^2(pi / (2 (n - 1))) on a path and
        # sin^2(pi / n) on a cycle; every n here takes the Chebyshev filter.
        # Unshifted ARPACK on N gave up on these paths (path_graph(3500) after
        # 41 s) and missed the cycles' 11th digit; the filter on [c, 2]
        # printed the 3500-vertex path's phi_lower one unit above the closed
        # form, and Lanczos on N^+ through the factor printed both 1000-vertex
        # tokens one unit off (2.47234127707e-06 and 9.86957193143e-06)
        if shape == "path":
            g, want = path_graph(n), np.sin(np.pi / (2 * (n - 1))) ** 2
        else:
            g, want = cycle_graph(n), np.sin(np.pi / n) ** 2
        lower, _ = conductance_bounds(g)
        assert lower.phi == pytest.approx(want, rel=1e-11, abs=0.0)
        if token is not None:
            assert format_value(lower.phi) == format_value(float(want)) == token

    @pytest.mark.parametrize("g", [cycle_graph(10), _grid(4, 5), _grid(4, 4), complete_graph(8)],
                             ids=["even-cycle", "grid", "square-grid", "complete"])
    def test_filter_path_edge_cases(self, g, monkeypatch):
        # the filter maps [a, 2] onto [-1, 1], a = min(c, theta_2) with
        # c = n / (n - 1). Bipartite graphs put lambda_max = 2 on its upper
        # end; the square grid's lambda_2 is double, so the Krylov space sees
        # one copy and theta_2 lands on the next eigenvalue; on
        # complete_graph(8) lambda_2 = c, every eigenvalue off sqrt(d) sits on
        # the lower end, and the filtered operator is the projector P itself
        lam, _ = _dense_lambda2(g)
        exact = conductance_exact(g).phi
        monkeypatch.setattr(ohmlab.graphs, "_DENSE_EIGEN_CAP", 4)
        intervals = record_filter_intervals(monkeypatch)
        got, vec = ohmlab.graphs._lambda2(g)
        assert_interval_above(g, intervals, lam)
        assert abs(got - lam) <= 2.0 * g.n * np.finfo(float).eps
        assert abs(vec @ np.sqrt(g.weighted_degrees)) <= 1e-12 * np.linalg.norm(vec)
        lower, upper = conductance_bounds(g)
        assert lower.phi <= exact + 1e-14
        assert exact <= upper.phi * (1.0 + 1e-13)

    @pytest.mark.parametrize("scale", [0.5, 0.99])
    def test_filter_reruns_on_full_interval_below_lambda_2(self, scale, monkeypatch):
        # a lower end at or below lambda_2 (a Ritz value that rounding put
        # there) lets the filter amplify another eigenvector; the Rayleigh
        # quotient is then not below the lower end, and Lanczos reruns on [c, 2]
        g = random_regular(60, 3, 1)
        lam, _ = _dense_lambda2(g)
        monkeypatch.setattr(ohmlab.graphs, "_DENSE_EIGEN_CAP", 4)
        monkeypatch.setattr(ohmlab.graphs, "_ritz_bound", lambda nl, u: scale * lam)
        intervals = record_filter_intervals(monkeypatch)
        got, _ = ohmlab.graphs._lambda2(g)
        assert intervals == [scale * lam, g.n / (g.n - 1)]
        assert got == pytest.approx(lam, rel=0.0, abs=1e-10)

    def test_ritz_bound_saves_filtered_products(self, monkeypatch):
        # the narrowed interval [theta_2, 2] damps the spectrum between
        # lambda_3 and c that [c, 2] amplified along with lambda_2: 61
        # filtered products against 121 on this graph
        g = random_regular(5000, 3, 1)
        assert g.n > ohmlab.graphs._DENSE_EIGEN_CAP
        eigsh, counts = scipy.sparse.linalg.eigsh, []

        def counted(op, **kwargs):
            counts.append(0)

            def step(x):
                counts[-1] += 1
                return op.matvec(x)

            return eigsh(scipy.sparse.linalg.LinearOperator(op.shape, matvec=step, dtype=op.dtype), **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counted)
        intervals = record_filter_intervals(monkeypatch)
        narrowed = ohmlab.graphs._lambda2(g)[0]
        assert len(counts) == 1 and intervals[0] < 1.0
        monkeypatch.setattr(ohmlab.graphs, "_ritz_bound", lambda nl, u: np.inf)
        full = ohmlab.graphs._lambda2(g)[0]
        assert intervals[1:] == [g.n / (g.n - 1)]
        assert counts[0] < 0.75 * counts[1]
        assert narrowed == pytest.approx(full, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [402, 1000])
    def test_filter_between_caps_matches_dense_on_regular_graphs(self, n, seed):
        # between the dense cap and the factor cap lambda_2 comes from the
        # Chebyshev filter, as above the factor cap; dense eigh is the
        # independent check, and the sweep over either Fiedler vector finds
        # the same cut
        assert ohmlab.graphs._DENSE_EIGEN_CAP < n <= ohmlab.graphs._DIRECT_VERTEX_CAP
        g = random_regular(n, 3, seed)
        lam, vec = _dense_lambda2(g)
        lower, upper = conductance_bounds(g)
        assert abs(2.0 * lower.phi - lam) <= n * np.finfo(float).eps * 2.0
        assert upper.phi == ohmlab.graphs._sweep_cut(g, vec)[0]

    def test_filter_between_caps_matches_dense_on_weighted_multigraphs(self, random_multigraph):
        rng = np.random.default_rng(15)
        for _ in range(4):
            n = int(rng.integers(500, 1001))
            g = random_multigraph(rng, n, int(rng.integers(0, n)))
            lam = ohmlab.graphs._lambda2(g)[0]
            assert abs(lam - _dense_lambda2(g)[0]) <= n * np.finfo(float).eps * 2.0

    @pytest.mark.parametrize("n", [402, 1000, 3000])
    def test_lambda_2_builds_no_factor(self, n):
        # the Laplacian factor serves solves only: the bracket, its lower end
        # alone and diagnose (whose one solve is conjugate gradient) leave it
        # unbuilt
        g = random_regular(n, 3, 1)
        for run in (conductance_bounds, lambda h: ohmlab.routing._conductance(h, sweep=False),
                    lambda h: ohmlab.experiments.run_diagnose(h, 0)):
            fresh = Multigraph(g.n, g.tails, g.heads, g.weights)
            run(fresh)
            assert "laplacian_factor" not in fresh.__dict__


class TestGirth:
    def test_known_girths(self):
        assert girth(complete_graph(4)) == 3
        assert girth(cycle_graph(4)) == 4
        assert girth(cycle_graph(9)) == 9
        assert girth(petersen_graph()) == 5

    def test_parallel_pair_is_two(self):
        g = Multigraph.from_edges(2, [(0, 1, 1.0), (0, 1, 1.0)])
        assert girth(g) == 2

    def test_forest_is_infinite(self):
        assert girth(path_graph(5)) == np.inf
        assert girth(complete_graph(2)) == np.inf

    def test_subdivision_girth(self):
        # two parallel replacement paths already close a 2k-cycle, so the
        # subdivided girth is min(k * girth, 2k)
        g = cycle_graph(3)
        assert girth(gadget_subdivide(g, 2)) == 4
        assert girth(gadget_subdivide(g, 3)) == 6
        # single long path per edge would give k * girth; with k >= 2 the
        # parallel-path cycle always wins once 2k <= k * girth
        assert girth(gadget_subdivide(cycle_graph(4), 2)) == 4


class TestRandomRegular:
    def test_regular_simple_connected(self):
        for n, d, seed in [(10, 3, 1), (12, 3, 5), (16, 4, 2), (20, 4, 9)]:
            g = random_regular(n, d, seed)
            assert g.n == n
            assert g.m == n * d // 2
            assert np.all(g.weighted_degrees == d)
            assert g.is_connected
            pairs = set()
            for t, h in zip(g.tails, g.heads):
                assert t != h
                key = (min(t, h), max(t, h))
                assert key not in pairs
                pairs.add(key)

    def test_seed_determinism(self):
        a = random_regular(14, 3, 42)
        b = random_regular(14, 3, 42)
        assert np.array_equal(a.tails, b.tails)
        assert np.array_equal(a.heads, b.heads)
        c = random_regular(14, 3, 43)
        assert not (
            np.array_equal(a.tails, c.tails) and np.array_equal(a.heads, c.heads)
        )

    def test_canonical_edge_order(self):
        g = random_regular(12, 3, 3)
        keys = list(zip(g.tails.tolist(), g.heads.tolist()))
        assert all(t < h for t, h in keys)
        assert keys == sorted(keys)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            random_regular(10, 2, 1)  # d < 3
        with pytest.raises(ValueError):
            random_regular(9, 3, 1)  # odd n*d
        with pytest.raises(ValueError):
            random_regular(3, 3, 1)  # n <= d


def _reference_random_regular(n, d, seed, tries):
    """The sequential pairing loop random_regular batches: one
    Generator.permutation per try. Returns the graph (None when the budget
    runs out), the try that gave it, the tries whose pairing was simple but
    disconnected, and the generator."""
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    disconnected = []
    for attempt in range(1, tries + 1):
        perm = rng.permutation(stubs)
        a = perm[0::2]
        b = perm[1::2]
        if np.any(a == b):
            continue
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        keys = lo * n + hi
        if np.unique(keys).size != keys.size:
            continue
        order = np.argsort(keys, kind="stable")
        g = Multigraph(n, lo[order], hi[order], np.ones(keys.size))
        if g.is_connected:
            return g, attempt, disconnected, rng
        disconnected.append(attempt)
    return None, tries, disconnected, rng


def _identical_arrays(g: Multigraph, h: Multigraph) -> bool:
    return g.n == h.n and all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in ((g.tails, h.tails), (g.heads, h.heads), (g.weights, h.weights))
    )


class TestRandomRegularMatchesSequentialTries:
    """Batched pairing tries against the one-permutation-per-try loop."""

    @pytest.mark.parametrize("seed,shape", [(1, (1, 30)), (7, (5, 24)), (3, (64, 80)),
                                            (11, (20, 1600)), (2, (3, 7))])
    def test_permuted_rows_are_sequential_permutations(self, seed, shape):
        # the batching rests on this numpy property; a numpy release that
        # broke it would fail here before any graph differs
        stubs = np.arange(shape[1], dtype=np.int64) // 2
        batched = np.random.default_rng(seed)
        sequential = np.random.default_rng(seed)
        rows = batched.permuted(np.broadcast_to(stubs, shape), axis=1)
        for row in rows:
            assert np.array_equal(row, sequential.permutation(stubs))
        assert batched.bit_generator.state == sequential.bit_generator.state

    def test_certify_grid_graphs(self):
        for n in (10, 12, 16, 20):
            for d in (3, 4):
                for seed in range(1, 21):
                    ref = _reference_random_regular(n, d, seed, ohmlab.graphs._PAIRING_TRIES)[0]
                    assert _identical_arrays(random_regular(n, d, seed), ref), (n, d, seed)

    def test_large_graph(self):
        ref = _reference_random_regular(20000, 3, 1, ohmlab.graphs._PAIRING_TRIES)[0]
        assert _identical_arrays(random_regular(20000, 3, 1), ref)

    @pytest.mark.parametrize("seed", [118, 2853])
    def test_disconnected_simple_pairing_is_skipped(self, seed):
        # at n = 12, d = 3 these seeds draw a simple but disconnected pairing
        # before the connected one (at the first try for seed 2853)
        ref, attempt, disconnected, _ = _reference_random_regular(
            12, 3, seed, ohmlab.graphs._PAIRING_TRIES
        )
        assert disconnected and disconnected[0] < attempt
        assert _identical_arrays(random_regular(12, 3, seed), ref)

    @pytest.mark.parametrize("n,d,seed", [(12, 3, 118), (20, 4, 5), (16, 4, 3)])
    def test_budget_counts_tries(self, monkeypatch, n, d, seed):
        # one try short of the reference's success gives up; exactly enough
        # tries returns its graph, whatever the batch boundaries
        ref, attempt, _, _ = _reference_random_regular(n, d, seed, 10_000)
        assert attempt > 2
        monkeypatch.setattr(ohmlab.graphs, "_PAIRING_TRIES", attempt - 1)
        with pytest.raises(ohmlab.ConvergenceError) as info:
            random_regular(n, d, seed)
        assert info.value.iterations == attempt - 1
        monkeypatch.setattr(ohmlab.graphs, "_PAIRING_TRIES", attempt)
        assert _identical_arrays(random_regular(n, d, seed), ref)

    def test_gives_up_after_the_same_draws(self, monkeypatch):
        # d = 8 at n = 200 finds no simple pairing in the budget: the message,
        # the iteration count and the draws taken match the sequential loop
        real_rng = np.random.default_rng
        draws = []

        class CountingGenerator:
            def __init__(self, seed):
                self.rng = real_rng(seed)

            def permuted(self, x, axis):
                draws.append(x.shape[0])
                return self.rng.permuted(x, axis=axis)

        generators = []

        def counting_rng(seed):
            generators.append(CountingGenerator(seed))
            return generators[-1]

        monkeypatch.setattr(ohmlab.graphs.np.random, "default_rng", counting_rng)
        with pytest.raises(ohmlab.ConvergenceError) as info:
            random_regular(200, 8, 1)
        monkeypatch.undo()
        tries = ohmlab.graphs._PAIRING_TRIES
        assert info.value.iterations == tries == sum(draws)
        assert str(info.value) == f"no simple connected 8-regular pairing found in {tries} tries"
        ref, _, _, ref_rng = _reference_random_regular(200, 8, 1, tries)
        assert ref is None
        assert generators[0].rng.bit_generator.state == ref_rng.bit_generator.state


class TestGadget:
    def test_counts(self):
        g = complete_graph(2)
        for k in (1, 2, 3, 5):
            gk = gadget_subdivide(g, k)
            assert gk.n == 2 + k * (k - 1)
            assert gk.m == k * k
            assert gk.is_unit_weight
            assert gk.is_connected

    def test_k1_is_copy(self):
        g = random_regular(10, 3, 1)
        g1 = gadget_subdivide(g, 1)
        assert g1.n == g.n
        assert np.array_equal(g1.tails, g.tails)
        assert np.array_equal(g1.heads, g.heads)

    def test_effective_resistance_preserved(self):
        # k parallel paths of k unit resistors keep R_eff(endpoints) = 1
        g = complete_graph(2)
        for k in (2, 3, 4):
            gk = gadget_subdivide(g, k)
            assert ohmlab.effective_resistance(gk, 0, 1) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_edge_cap_enforced(self):
        # 1415^2 = 2,002,225 edges from one: refused before anything is built
        g = path_graph(2)
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match="2002225 edges"):
                gadget_subdivide(g, 1415)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_weighted_input_rejected(self):
        g = Multigraph.from_edges(2, [(0, 1, 2.0)])
        with pytest.raises(ValueError):
            gadget_subdivide(g, 2)


class TestGraphUnion:
    def test_concatenates_edges(self):
        a = cycle_graph(4)
        b = path_graph(3)
        u = graph_union(a, b)
        assert u.n == 4
        assert u.m == a.m + b.m
        assert np.array_equal(u.tails[: a.m], a.tails)
        assert np.array_equal(u.tails[a.m :], b.tails)

    def test_union_with_gadget_doubles_volume_terms(self):
        g = random_regular(10, 3, 2)
        u = graph_union(g, gadget_subdivide(g, 1))
        assert u.n == g.n
        assert u.m == 2 * g.m
        assert np.all(u.weighted_degrees == 6)


class TestGraphText:
    def test_round_trip(self, tmp_path):
        g = Multigraph.from_edges(4, [(0, 1, 1.0), (1, 2, 2.5), (2, 3, 1.0)])
        path = tmp_path / "g.txt"
        write_graph(g, path)
        h = read_graph(path)
        assert h.n == g.n
        assert np.array_equal(h.tails, g.tails)
        assert np.array_equal(h.heads, g.heads)
        assert np.array_equal(h.weights, g.weights)

    def test_round_trip_is_byte_stable(self, tmp_path):
        p = tmp_path / "g.txt"
        for n, seed in ((12, 8), (20000, 1)):
            text = graph_text(random_regular(n, 3, seed))
            p.write_text(text)
            assert graph_text(read_graph(p)) == text

    def test_comments_and_blanks_ignored(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# a comment\n\n2 1\n# another\n0 1 1.0\n")
        g = read_graph(p)
        assert (g.n, g.m) == (2, 1)

    def test_readme_triangle(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("# a triangle\n", 1)[1].split("```", 1)[0]
        p = tmp_path / "tri.graph"
        p.write_text("# a triangle\n" + block)
        g = read_graph(p)
        assert (g.n, g.tails.tolist(), g.heads.tolist()) == (3, [0, 1, 2], [1, 2, 0])
        assert g.weights.tolist() == [1.0, 1.0, 1.0]

    def test_edge_line_token_count_checked(self, tmp_path):
        p = tmp_path / "g.txt"
        for line in ("0", "0 1 1.0 7"):
            p.write_text(f"2 1\n{line}\n")
            with pytest.raises(ValueError, match="edge line 0"):
                read_graph(p)

    def test_malformed_header_rejected(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("2\n0 1 1.0\n")
        with pytest.raises(ValueError):
            read_graph(p)

    def test_header_with_a_third_token_rejected(self, tmp_path):
        # "3 2 junk" used to read as n = 3, m = 2
        p = tmp_path / "g.txt"
        p.write_text("3 2 junk\n0 1\n1 2\n")
        with pytest.raises(ValueError, match=r"g\.txt: bad header line, expected 'n m'"):
            read_graph(p)

    def test_graph_errors_name_the_file(self, tmp_path):
        # Multigraph's own refusals used to reach the user without the path
        p = tmp_path / "g.txt"
        p.write_text("3 1\n0 3\n")
        with pytest.raises(ValueError) as err:
            read_graph(p)
        assert str(err.value) == f"{p}: edge endpoint out of range [0, 3)"

    def test_edge_count_mismatch_rejected(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("2 2\n0 1 1.0\n")
        with pytest.raises(ValueError):
            read_graph(p)


def _reference_read_graph(path) -> Multigraph:
    """Line-by-line reader that read_graph's C passes must agree with."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append(line.split())
    if not rows:
        raise ValueError(f"{path}: empty graph file")
    try:
        n, m = map(int, rows[0])
    except ValueError as exc:
        raise ValueError(f"{path}: bad header line, expected 'n m'") from exc
    if len(rows) - 1 != m:
        raise ValueError(f"{path}: header says {m} edges, found {len(rows) - 1}")
    tails = np.empty(m, dtype=np.int64)
    heads = np.empty(m, dtype=np.int64)
    weights = np.empty(m, dtype=np.float64)
    for i, row in enumerate(rows[1:]):
        if len(row) not in (2, 3):
            raise ValueError(f"{path}: edge line {i} needs 'tail head [weight]'")
        tails[i] = int(row[0])
        heads[i] = int(row[1])
        weights[i] = float(row[2]) if len(row) == 3 else 1.0
    try:
        return Multigraph(n, tails, heads, weights)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _same_graph(g: Multigraph, h: Multigraph) -> bool:
    return g.n == h.n and all(
        a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for a, b in ((g.tails, h.tails), (g.heads, h.heads), (g.weights, h.weights))
    )


class TestReadGraphMatchesLineLoop:
    def _both(self, tmp_path, text, newline=None):
        p = tmp_path / "g.txt"
        with open(p, "w", newline=newline) as fh:
            fh.write(text)
        return read_graph(p), _reference_read_graph(p)

    def _same_error(self, tmp_path, text):
        p = tmp_path / "g.txt"
        p.write_text(text)
        with pytest.raises(ValueError) as ref:
            _reference_read_graph(p)
        with pytest.raises(ValueError) as got:
            read_graph(p)
        assert str(got.value) == str(ref.value)
        return str(got.value)

    def test_written_multigraphs_bitwise(self, tmp_path, random_multigraph):
        rng = np.random.default_rng(21)
        for k in range(36):
            n = int(rng.integers(2, 60))
            g = random_multigraph(rng, n, int(rng.integers(0, 2 * n)), weighted=k % 4 != 0)
            p = tmp_path / f"g{k}.txt"
            write_graph(g, p)
            h = read_graph(p)
            assert _same_graph(h, g) and _same_graph(h, _reference_read_graph(p))
            assert h.tails.flags.c_contiguous and h.weights.flags.c_contiguous

    def test_long_decimal_weights(self, tmp_path):
        # correctly rounded like float(): halfway cases and 40-digit mantissas
        rng = np.random.default_rng(5)
        words = ["1.00000000000000011102230246251565404236316680908203125",
                 "9007199254740993", "1e308", "1.7976931348623157e308", "2.5E+3", ".5e1",
                 "7.", "+3", "1" * 40 + ".5"]
        words += [f"{w:.40g}" for w in 10.0 ** rng.uniform(0.0, 12.0, 40)]
        text = f"2 {len(words)}\n" + "".join(f"0 1 {w}\n" for w in words)
        got, ref = self._both(tmp_path, text)
        assert _same_graph(got, ref)

    def test_comments_blanks_crlf_tabs(self, tmp_path):
        text = ("# leading comment\n\n  \t \n5\t 6 \n"
                "\t0\t1\t2.5\n  # indented comment\n1 2\n\x0c\n2  3   1e3  \n"
                "#\n3\x0b4\xa01\n4\u30000\n0 2 7")
        for newline in (None, "\r\n", "\r"):
            got, ref = self._both(tmp_path, text, newline)
            assert _same_graph(got, ref) and got.m == 6

    def test_two_three_and_mixed_forms(self, tmp_path, random_multigraph):
        rng = np.random.default_rng(8)
        for k in range(12):
            g = random_multigraph(rng, int(rng.integers(2, 30)), 5)
            weighted = rng.random(g.m) < [0.0, 1.0, 0.5][k % 3]
            lines = [f"{t} {h} {w!r}" if keep else f"{t} {h}"
                     for t, h, w, keep in zip(g.tails.tolist(), g.heads.tolist(),
                                              g.weights.tolist(), weighted)]
            got, ref = self._both(tmp_path, f"{g.n} {g.m}\n" + "\n".join(lines) + "\n")
            assert _same_graph(got, ref)

    def test_no_edges(self, tmp_path):
        got, ref = self._both(tmp_path, "# none\n3 0\n")
        assert _same_graph(got, ref) and got.m == 0

    def test_malformed_same_message(self, tmp_path):
        cases = {
            "": "empty graph file",
            "# only\n\n": "empty graph file",
            "2\n0 1\n": "bad header line",
            "x 1\n0 1\n": "bad header line",
            "2 1 junk\n0 1\n": "bad header line",
            "2 1 1\n0 1\n": "bad header line",
            "2 2\n0 1\n": "header says 2 edges, found 1",
            "3 2\n0 1\n1 2\n2 0\n": "header says 2 edges, found 3",
            "3 2\n0 1\n1\n": "edge line 1 needs",
            "3 2\n0 1 1.0 7\n1 2\n": "edge line 0 needs",
            "3 2\n0 1\n1 2 3 # note\n": "edge line 1 needs",
            "3 2\n0 1.0\n1 2\n": "invalid literal for int() with base 10: '1.0'",
            "3 2\n0 1\n1.0 2\n": "invalid literal for int() with base 10: '1.0'",
            "3 2\n0 1\n1 2 x\n": "could not convert string to float: 'x'",
            "3 2\n0 1 #c\n1 2\n": "could not convert string to float: '#c'",
            # the first bad line wins, whatever is wrong with it
            "3 3\n0 1\n1 y\n0 1 2 3\n": "invalid literal for int() with base 10: 'y'",
            "3 3\n0 1\n0 1 2 3\n1 y\n": "edge line 1 needs",
            "3 3\n0 1\n1 2 w\n2\n": "could not convert string to float: 'w'",
            # Multigraph's own checks
            "3 1\n0 3\n": "edge endpoint out of range",
            "3 1\n0 1 nan\n": "edge weights must be finite",
            "3 1\n0 1 0.5\n": "edge weights must be finite",
        }
        for text, message in cases.items():
            assert message in self._same_error(tmp_path, text), text

    def test_tokens_numpy_refuses(self, tmp_path):
        # ids and weights with '_' separators or non-ASCII digits, and ids
        # beyond int64, are refused; the line loop read the first two and
        # raised OverflowError on the third
        p = tmp_path / "g.txt"
        for line, bad in [("1_000 0", "1_000"), ("0 1 1_000.5", "1_000.5"),
                          ("0 \u0663", "\u0663"), ("0 1 \u0663.5", "\u0663.5"),
                          ("0 " + "9" * 20, "9" * 20)]:
            p.write_text(f"1001 2\n0 1\n{line}\n", encoding="utf-8")
            with pytest.raises(ValueError, match=f"g.txt: edge line 1: could not convert string '{bad}'"):
                read_graph(p)


    def test_integer_via_float_fallback_refused(self, tmp_path, monkeypatch):
        # numpy releases from 1.23 until the fallback's removal read the id
        # 2.7 as 2 with only a DeprecationWarning, and report the row as a
        # token they could not convert when that warning raises; this fake
        # loadtxt does the same, whatever numpy is installed
        real = np.loadtxt

        def loadtxt_with_fallback(fh, **kwargs):
            try:
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning)
            except DeprecationWarning as exc:
                raise ValueError("could not convert string '2.7' to int64 at row 1, "
                                 "column 2.") from exc
            return real(io.StringIO(fh.getvalue().replace("2.7", "2")), **kwargs)

        monkeypatch.setattr(np, "loadtxt", loadtxt_with_fallback)
        message = self._same_error(tmp_path, "3 2\n0 1\n0 2.7\n")
        assert message == "invalid literal for int() with base 10: '2.7'"

    def test_unrecognised_numpy_message_keeps_path(self, tmp_path, monkeypatch):
        def loadtxt_other_wording(fh, **kwargs):
            raise ValueError("bad token in line 2")

        monkeypatch.setattr(np, "loadtxt", loadtxt_other_wording)
        p = tmp_path / "g.txt"
        p.write_text("3 2\n0 1\n0 2\n")
        with pytest.raises(ValueError, match=r"^\S*g\.txt: bad token in line 2$"):
            read_graph(p)


class TestCertificate:
    def test_fields(self):
        cert = ConductanceCertificate(0.5, "exact", None)
        assert cert.phi == 0.5
        assert cert.kind == "exact"


def record_filter_intervals(mp):
    """Lower ends of the Chebyshev filter intervals that _lambda2 runs
    Lanczos on, in call order, recorded through the MonkeyPatch mp."""
    run, lows = ohmlab.graphs._filtered_lambda2, []

    def recorded(g, nl, u, lo):
        lows.append(lo)
        return run(g, nl, u, lo)

    mp.setattr(ohmlab.graphs, "_filtered_lambda2", recorded)
    return lows


def assert_interval_above(g, lows, lam):
    """The accepted filter interval starts above lambda_2 = lam, or the run
    fell back to [c, 2]."""
    assert lows and (lows[-1] > lam or lows[-1] == g.n / (g.n - 1))


# -- reference implementations: the per-vertex loops the array code replaced --

def _dense_lambda2(g):
    """lambda_2 of the normalized Laplacian and its eigenvector by dense eigh;
    its error is about n eps ||N||, with ||N|| <= 2."""
    nl = ohmlab.graphs._normalized_laplacian(g).toarray()
    vals, vecs = scipy.linalg.eigh(nl, subset_by_index=[1, 1])
    return float(vals[0]), vecs[:, 0]


def _reference_sweep(g, vec):
    """Best sweep ratio and witness, one vertex at a time with a running cut."""
    wdeg = g.weighted_degrees
    total = float(wdeg.sum())
    order = np.argsort(vec / np.sqrt(wdeg), kind="stable")
    adj = [[] for _ in range(g.n)]
    for eid, (t, h) in enumerate(zip(g.tails.tolist(), g.heads.tolist())):
        adj[t].append((h, eid))
        adj[h].append((t, eid))
    in_s = np.zeros(g.n, dtype=bool)
    cut = vol_s = 0.0
    best_ratio, best_k = np.inf, 0
    for k in range(g.n - 1):
        v = int(order[k])
        delta = float(wdeg[v])
        for u, eid in adj[v]:
            if in_s[u]:
                delta -= 2.0 * float(g.weights[eid])
        cut += delta
        vol_s += float(wdeg[v])
        in_s[v] = True
        ratio = cut / min(vol_s, total - vol_s)
        if ratio < best_ratio:
            best_ratio, best_k = ratio, k
    prefix = np.zeros(g.n, dtype=bool)
    prefix[order[: best_k + 1]] = True
    return best_ratio, prefix if float(wdeg[prefix].sum()) <= total / 2.0 else ~prefix


def _reference_conductance(g):
    """(phi, witness) by the per-edge enumerator the split tables replaced:
    every edge visited for every cut, vertex 0 in S, cuts in mask order in
    blocks of 2^18, strict < across blocks, S = V excluded. One change: vol(V
    - S) is summed vertex by vertex like vol(S), since vol(V) - vol(S)
    cancels on a light side (3.6e-12 relative on a generated n = 12 graph)."""
    wdeg = g.weighted_degrees
    nbits = g.n - 1
    count = 1 << nbits
    best_phi, best_mask_id = np.inf, -1
    block = 1 << 18
    for start in range(0, count, block):
        stop = min(start + block, count)
        masks = np.arange(start, stop, dtype=np.int64)
        vol_s = np.full(masks.size, wdeg[0], dtype=np.float64)
        vol_rest = np.zeros(masks.size, dtype=np.float64)
        for v in range(1, g.n):
            bit = (masks >> (v - 1)) & 1
            vol_s += wdeg[v] * bit
            vol_rest += wdeg[v] * (1 - bit)
        cut = np.zeros(masks.size, dtype=np.float64)
        for t, h, w in zip(g.tails, g.heads, g.weights):
            bt = 1 if t == 0 else (masks >> (t - 1)) & 1
            bh = 1 if h == 0 else (masks >> (h - 1)) & 1
            cut += w * (bt != bh)
        with np.errstate(divide="ignore", invalid="ignore"):
            phi_cand = cut / np.minimum(vol_s, vol_rest)
        if stop == count:
            phi_cand[-1] = np.inf
        idx = int(np.argmin(phi_cand))
        if phi_cand[idx] < best_phi:
            best_phi, best_mask_id = float(phi_cand[idx]), start + idx
    bits = (best_mask_id >> np.arange(nbits)) & 1
    s_mask = np.concatenate(([True], bits.astype(bool)))
    return best_phi, s_mask if wdeg[s_mask].sum() <= wdeg[~s_mask].sum() else ~s_mask


def _reference_gadget(g, k):
    """(n, tails, heads): each edge k times, each copy a path of k hops."""
    tails, heads, nxt = [], [], g.n
    for t, h in zip(g.tails.tolist(), g.heads.tolist()):
        for _path in range(k):
            prev = t
            for step in range(1, k + 1):
                if step == k:
                    node = h
                else:
                    node, nxt = nxt, nxt + 1
                tails.append(prev)
                heads.append(node)
                prev = node
    return nxt, tails, heads


def _simple(g):
    """g with only the first copy of each parallel edge."""
    lo, hi = np.minimum(g.tails, g.heads), np.maximum(g.tails, g.heads)
    _, first = np.unique(lo * g.n + hi, return_index=True)
    first.sort()
    return Multigraph(g.n, g.tails[first], g.heads[first], g.weights[first])


def _scattered(rng, random_multigraph, weighted=False):
    """One to three generated multigraphs side by side, up to two isolated
    vertices, all ids shuffled: a graph whose components are not id ranges."""
    parts = [random_multigraph(rng, int(rng.integers(2, 12)), int(rng.integers(0, 8)),
                               weighted=weighted) for _ in range(int(rng.integers(1, 4)))]
    offsets = np.cumsum([0] + [p.n for p in parts])
    n = int(offsets[-1]) + int(rng.integers(0, 3))
    perm = rng.permutation(n)
    return Multigraph(
        n,
        perm[np.concatenate([p.tails + o for p, o in zip(parts, offsets)])],
        perm[np.concatenate([p.heads + o for p, o in zip(parts, offsets)])],
        np.concatenate([p.weights for p in parts]),
    )


def _nx_graph(nx, g, multi=False):
    graph = nx.MultiGraph() if multi else nx.Graph()
    graph.add_nodes_from(range(g.n))
    graph.add_edges_from(zip(g.tails.tolist(), g.heads.tolist()))
    return graph


class TestTraversalsMatchReferences:
    def test_components_match_networkx(self, random_multigraph):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(11)
        cases = [_scattered(rng, random_multigraph) for _ in range(30)]
        cases += [Multigraph(1, [], [], []), Multigraph(4, [], [], [])]
        for g in cases:
            labels = g.component_labels
            comps = list(nx.connected_components(_nx_graph(nx, g, multi=True)))
            # networkx discovers components from the lowest unseen id, too
            for i, comp in enumerate(comps):
                assert np.all(labels[sorted(comp)] == i)
            assert int(labels.max()) == len(comps) - 1
            assert g.is_connected == (len(comps) == 1)

    def test_girth_matches_networkx(self, random_multigraph, monkeypatch):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(12)
        cases = []
        for _ in range(12):
            g = random_multigraph(rng, int(rng.integers(3, 40)),
                                  int(rng.integers(0, 12)), weighted=False)
            cases += [g, _simple(g), _simple(random_multigraph(rng, 20, 0)),
                      _simple(_scattered(rng, random_multigraph)),
                      gadget_subdivide(_simple(g), int(rng.integers(2, 4)))]
        cases += [random_regular(30, 3, s) for s in (1, 2)]
        for chunk_entries in (1 << 20, 50):  # one chunk, and many
            monkeypatch.setattr(ohmlab.graphs, "_BFS_CHUNK_ENTRIES", chunk_entries)
            for g in cases:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = girth(g)
                if _simple(g).m < g.m:
                    assert got == 2
                else:
                    assert got == nx.girth(_nx_graph(nx, g))

    def test_sweep_matches_per_vertex_loop(self, random_multigraph):
        rng = np.random.default_rng(13)
        for trial in range(40):
            weighted = trial % 2 == 1
            g = random_multigraph(rng, int(rng.integers(2, 60)),
                                  int(rng.integers(0, 80)), weighted=weighted)
            # eigenvector order, and coarse random scores full of ties
            for vec in (ohmlab.graphs._lambda2(g)[1],
                        rng.integers(0, 4, g.n) * np.sqrt(g.weighted_degrees)):
                ratio, witness = ohmlab.graphs._sweep_cut(g, vec)
                want_ratio, want_witness = _reference_sweep(g, vec)
                assert np.array_equal(witness, want_witness)
                if weighted:
                    assert ratio == pytest.approx(want_ratio, rel=1e-12)
                else:
                    assert ratio == want_ratio
            _, upper = conductance_bounds(g)
            assert upper.phi == ohmlab.graphs._sweep_cut(g, ohmlab.graphs._lambda2(g)[1])[0]

    def test_expanders_match_loops(self, random_multigraph):
        rng = np.random.default_rng(14)
        for _ in range(10):
            g = random_multigraph(rng, int(rng.integers(2, 15)), int(rng.integers(0, 10)),
                                  weighted=False)
            for k in (1, 2, 3, 4):
                got = gadget_subdivide(g, k)
                n, tails, heads = _reference_gadget(g, k)
                assert got.n == n
                assert got.tails.tolist() == tails and got.heads.tolist() == heads


def _cut_ratio(g, s):
    return cut_weight(g, s) / min(volume(g, s), volume(g, ~s))


def _assert_matches_reference(g, rel=0.0):
    """Bitwise equal phi and the same witness at rel = 0 (unit weights, where
    every sum is exact). Otherwise phi within rel, and the same witness unless
    the two witnesses tie: reassociated sums may order cuts of equal value
    either way, so each witness must attain phi by cut_weight / volume."""
    cert = conductance_exact(g)
    ref_phi, ref_witness = _reference_conductance(g)
    if rel == 0.0:
        assert cert.phi == ref_phi
        assert np.array_equal(cert.witness, ref_witness)
        return
    assert cert.phi == pytest.approx(ref_phi, rel=rel, abs=0.0)
    assert _cut_ratio(g, cert.witness) == pytest.approx(cert.phi, rel=rel, abs=0.0)
    if not np.array_equal(cert.witness, ref_witness):
        assert _cut_ratio(g, ref_witness) == pytest.approx(cert.phi, rel=rel, abs=0.0)


class TestSplitEnumerationMatchesReference:
    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("n", [10, 12, 16, 20])
    def test_unit_weights_bitwise_equal(self, n, d):
        for seed in (1, 2, 3):
            _assert_matches_reference(random_regular(n, d, seed))

    def test_weighted_multigraphs(self, random_multigraph):
        rng = np.random.default_rng(23)
        for n in range(2, 19):
            for _ in range(2):
                g = random_multigraph(rng, n, int(rng.integers(0, 2 * n)))
                _assert_matches_reference(g, rel=1e-13)

    def test_heavy_halves_light_bridge(self, random_multigraph):
        # d . z - z^T W z and c_A + c_B - 2 x^T W_AB y cancel here: the cut is
        # 1 against volumes near 2e7
        rng = np.random.default_rng(5)
        left, right = (random_multigraph(rng, 8, 16, weighted=False) for _ in range(2))
        perm = rng.permutation(16)
        tails = perm[np.concatenate([left.tails, right.tails + 8, [2]])]
        heads = perm[np.concatenate([left.heads, right.heads + 8, [13]])]
        weights = np.concatenate([10.0 ** rng.uniform(5.0, 6.0, left.m + right.m), [1.0]])
        g = Multigraph(16, tails, heads, weights)
        light = np.zeros(16, dtype=bool)
        light[perm[:8]] = True
        if volume(g, light) > volume(g, ~light):
            light = ~light
        cert = conductance_exact(g)
        assert cert.phi == pytest.approx(1.0 / volume(g, light), rel=1e-13, abs=0.0)
        assert np.array_equal(cert.witness, light)
        _assert_matches_reference(g, rel=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_small_splits_parallel_edges_at_vertex_0(self, n, random_multigraph):
        # n - 1 free vertices split ceil / floor: n = 2 leaves half B empty,
        # n = 3 gives one bit to each half, and n - 1 takes both parities
        rng = np.random.default_rng(n)
        for weighted in (False, True):
            g = random_multigraph(rng, n, n, weighted=weighted)
            w = [1.0, 1.0, 1.0] if not weighted else [3.5, 2e5, 7.25]
            g = graph_union(g, Multigraph.from_edges(
                n, [(0, n - 1, w[0]), (n - 1, 0, w[1]), (0, 1, w[2])]))
            _assert_matches_reference(g, rel=1e-13 if weighted else 0.0)

    @pytest.mark.parametrize("entries", [1, 40, 200])
    def test_blocks_keep_first_minimum_and_exclude_full_set(self, entries, monkeypatch):
        # Blocks of one or a few y rows. Complete graphs and cycles tie across
        # blocks, so the first minimum must survive later equal ones. In
        # `clusters` the minimizer {0, 5, 6, 7} is x = 0 of the last y row,
        # the block that also holds S = V (0 / 0).
        clusters = Multigraph.from_edges(
            8, [(i, j) for c in ((0, 5, 6, 7), (1, 2, 3, 4)) for i in c for j in c if i < j]
            + [(0, 1)])
        graphs = [complete_graph(7), cycle_graph(9), petersen_graph(),
                  random_regular(12, 3, 1), clusters]
        default = [conductance_exact(g) for g in graphs]
        monkeypatch.setattr(ohmlab.graphs, "_CUT_BLOCK_ENTRIES", entries)
        for g, want in zip(graphs, default):
            cert = conductance_exact(g)
            assert cert.phi == want.phi
            assert np.array_equal(cert.witness, want.witness)
            _assert_matches_reference(g)
        assert default[-1].phi == 1.0 / 13.0
        assert np.flatnonzero(default[-1].witness).tolist() == [0, 5, 6, 7]

    def test_block_loop_allocates_nothing_per_block(self):
        # three reused (rows, 2^a) buffers peak near 1.3 MB at n = 20; a
        # fresh array per block for the product, the two volume sums, their
        # minimum and the quotient peaks at 12.4 MB
        g = random_regular(20, 3, 1)
        g.laplacian
        tracemalloc.start()
        try:
            conductance_exact(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000

    def test_disconnected_shortcut_and_refusal(self):
        g = Multigraph.from_edges(5, [(0, 3, 2.0), (1, 2, 1.0), (2, 4, 1.0)])
        cert = conductance_exact(g)
        assert (cert.phi, cert.kind) == (0.0, "exact")
        assert cert.witness.tolist() == [True, False, False, True, False]
        # the size refusal comes first, connected or not
        with pytest.raises(SizeLimitError):
            conductance_exact(Multigraph.from_edges(30, [(0, 1)]))

    def test_one_cap_constant(self):
        # the cap is read in conductance_exact alone: no signature takes one,
        # and competitive_report chooses only between it and the bracket
        cap = ohmlab.graphs.EXACT_CONDUCTANCE_CAP
        for fn in (conductance_exact, ohmlab.routing._conductance,
                   ohmlab.routing.competitive_report):
            for param in inspect.signature(fn).parameters.values():
                assert param.annotation not in (int, "int")
                assert type(param.default) is not int
        with pytest.raises(SizeLimitError):
            conductance_exact(random_regular(cap + 1, 4, 1))
        g = random_regular(10, 3, 1)
        exact = ohmlab.routing.competitive_report(g)
        bracketed = ohmlab.routing.competitive_report(g, bracket=True)
        assert (exact.phi_kind, bracketed.phi_kind) == ("exact", "cheeger-lower-bound")
        assert bracketed.rho == exact.rho
