import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

import ohmlab
from ohmlab import (
    Multigraph,
    Partition,
    cycle_graph,
    discretize_minimizer,
    expected_cut_l1,
    extension_energy,
    harmonic_extension,
    l1_objective,
    min_l1_extension,
    path_graph,
    random_regular,
    read_partition,
    schur_complement,
    schur_edge_weights,
    write_partition,
)


def star(leaves):
    return Multigraph.from_edges(
        leaves + 1, [(0, i, 1.0) for i in range(1, leaves + 1)]
    )


def random_instance(rng, n=10, extra=6, f_size=4):
    """Connected graph with a random partition of f_size eliminated vertices."""
    edges = [(i, i + 1, 1.0) for i in range(n - 1)]
    for _ in range(extra):
        a, b = rng.choice(n, 2, replace=False)
        edges.append((int(min(a, b)), int(max(a, b)), float(rng.integers(1, 4))))
    g = Multigraph.from_edges(n, edges)
    elim = rng.choice(n, f_size, replace=False)
    part = Partition.from_eliminated(n, elim)
    return g, part


class TestPartition:
    def test_valid_partition(self):
        p = Partition.from_eliminated(5, [1, 3])
        assert p.terminals.tolist() == [0, 2, 4]
        assert p.eliminated.tolist() == [1, 3]

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            Partition(4, np.array([0, 1, 2]), np.array([2, 3]))

    def test_missing_vertex_rejected(self):
        with pytest.raises(ValueError):
            Partition(4, np.array([0, 1]), np.array([3]))

    def test_no_terminals_rejected(self):
        with pytest.raises(ValueError):
            Partition.from_eliminated(3, [0, 1, 2])

    def test_file_round_trip(self, tmp_path):
        p = Partition.from_eliminated(6, [2, 5])
        path = tmp_path / "part.txt"
        write_partition(p, path)
        q = read_partition(path, 6)
        assert np.array_equal(p.terminals, q.terminals)
        assert np.array_equal(p.eliminated, q.eliminated)

    def test_read_rejects_incomplete(self, tmp_path):
        path = tmp_path / "part.txt"
        path.write_text("C: 0 1\nF: 2\n")
        with pytest.raises(ValueError):
            read_partition(path, 5)

    def test_read_names_the_file_of_a_bad_token(self, tmp_path):
        # a bad id used to surface as int's message alone
        path = tmp_path / "part.txt"
        path.write_text("C: 0 x\nF: 1\n")
        with pytest.raises(ValueError) as err:
            read_partition(path, 3)
        assert str(err.value) == f"{path}: invalid literal for int() with base 10: 'x'"

    def test_read_names_the_file_of_a_bad_partition(self, tmp_path):
        # Partition's own refusals used to reach the user without the path
        path = tmp_path / "part.txt"
        path.write_text("C: 0 5\nF: 1 2\n")
        with pytest.raises(ValueError) as err:
            read_partition(path, 3)
        assert str(err.value) == f"{path}: vertex id out of range [0, 3)"

    def test_float_ids_refused_not_truncated(self):
        # both used to truncate: terminals {0, 1}, eliminated {1, 2}
        with pytest.raises(ValueError, match="vertex ids must be integers"):
            Partition(3, [0.5, 1.9], [2.0])
        with pytest.raises(ValueError, match="vertex ids must be integers"):
            Partition.from_eliminated(4, [1.7, 2.2])
        assert Partition(3, [0, 1, 2], []).eliminated.size == 0

    def test_repeated_id_rejected(self):
        # np.unique used to swallow the second 0 and the second 2
        with pytest.raises(ValueError, match="each id once"):
            Partition(3, np.array([0, 0, 1]), np.array([2]))
        with pytest.raises(ValueError, match="each id once"):
            Partition(3, np.array([0, 1]), np.array([2, 2]))
        with pytest.raises(ValueError, match="each id once"):
            Partition.from_eliminated(4, [1, 1])

    def test_read_rejects_repeated_section(self, tmp_path):
        # the second 'C:' line used to replace the first one
        path = tmp_path / "part.txt"
        path.write_text("C: 0 1\nC: 2\nF: 0 1\n")
        with pytest.raises(ValueError, match="repeated 'C:' line"):
            read_partition(path, 3)
        path.write_text("C: 0 1 1\nF: 2\n")
        with pytest.raises(ValueError, match="each id once"):
            read_partition(path, 3)


class TestSchurComplement:
    def test_path_weight_half(self):
        g = path_graph(3)
        part = Partition.from_eliminated(3, [1])
        weights = schur_edge_weights(g, part)
        assert weights == {(0, 2): pytest.approx(0.5, abs=1e-12)}

    def test_star_becomes_uniform_clique(self):
        g = star(3)
        part = Partition.from_eliminated(4, [0])
        weights = schur_edge_weights(g, part)
        assert set(weights) == {(1, 2), (1, 3), (2, 3)}
        for w in weights.values():
            assert w == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_schur_is_laplacian(self):
        rng = np.random.default_rng(4)
        g, part = random_instance(rng)
        s = schur_complement(g, part)
        assert np.allclose(s, s.T, atol=1e-10)
        assert np.allclose(s.sum(axis=1), 0.0, atol=1e-10)
        off = s[~np.eye(s.shape[0], dtype=bool)]
        assert np.all(off <= 1e-10)

    def test_energy_identity(self):
        # min over y of E(x, y) equals the Schur quadratic form at x
        rng = np.random.default_rng(8)
        for _ in range(5):
            g, part = random_instance(rng)
            s = schur_complement(g, part)
            x = rng.random(part.terminals.size)
            y = harmonic_extension(g, part, x)
            assert extension_energy(g, part, x, y) == pytest.approx(
                float(x @ s @ x), rel=1e-10, abs=1e-12
            )

    def test_buried_component_rejected(self):
        # two disjoint triangles; the second one has no terminal to drain to
        g = Multigraph.from_edges(
            6,
            [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
             (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)],
        )
        part = Partition.from_eliminated(6, [3, 4, 5])
        with pytest.raises(ValueError, match="3"):
            schur_complement(g, part)

    def test_long_path_has_no_size_cap(self):
        # 4100 eliminated vertices in series: one edge of weight 1/(n-1),
        # and voltages falling linearly from 1 to 0
        n = 4102
        g = path_graph(n)
        part = Partition.from_eliminated(n, np.arange(1, n - 1))
        weights = schur_edge_weights(g, part)
        assert list(weights) == [(0, n - 1)]
        assert weights[(0, n - 1)] == pytest.approx(1.0 / (n - 1), rel=1e-10, abs=0.0)
        y = harmonic_extension(g, part, np.array([1.0, 0.0]))
        assert y == pytest.approx(1.0 - np.arange(1, n - 1) / (n - 1), rel=0.0, abs=1e-10)

    def test_elimination_memory_follows_its_output(self):
        # |C| = |F| = 1500 and about 70,000 Schur entries: the dense |F| x |C|
        # right-hand side, its solve and a dense |C| x |C| result peaked near
        # 70 MB; column blocks and a sparse result peak near 9 MB, the
        # returned dict included
        n = 3000
        g = random_regular(n, 3, 1)
        part = Partition.from_eliminated(
            n, np.random.default_rng(1).choice(n, n // 2, replace=False))
        g.laplacian
        tracemalloc.start()
        try:
            schur_edge_weights(g, part)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20_000_000

    @pytest.mark.parametrize("n,seed", [(60, 1), (300, 2), (3000, 3)])
    def test_keys_come_out_sorted(self, n, seed):
        # run_sparsify prints the dict in its own order, which must be the
        # sorted (row-major) one; 3000 vertices span several column blocks
        g = random_regular(n, 3, seed)
        part = Partition.from_eliminated(
            n, np.random.default_rng(seed).choice(n, n // 2, replace=False))
        keys = list(schur_edge_weights(g, part))
        assert len(keys) > n // 2
        assert keys == sorted(keys)
        assert all(u < v for u, v in keys)

    def test_quadratic_form_is_minimized_energy(self):
        # x^T S x equals the energy of the harmonic extension, for any x
        rng = np.random.default_rng(2)
        g, part = random_instance(rng, f_size=3)
        s = schur_complement(g, part)
        for _ in range(5):
            x = rng.random(part.terminals.size)
            y = harmonic_extension(g, part, x)
            assert extension_energy(g, part, x, y) == pytest.approx(
                float(x @ s @ x), rel=1e-9
            )


class TestHarmonicExtension:
    def test_star_third(self):
        g = star(3)
        part = Partition.from_eliminated(4, [0])
        y = harmonic_extension(g, part, np.array([1.0, 0.0, 0.0]))
        assert y == pytest.approx([1.0 / 3.0], abs=1e-10)

    def test_path_midpoint(self):
        g = path_graph(3)
        part = Partition.from_eliminated(3, [1])
        y = harmonic_extension(g, part, np.array([1.0, 0.0]))
        assert y == pytest.approx([0.5], abs=1e-10)

    def test_zero_is_positive_zero(self):
        # -0.0 would print as "-0" in the sparsify CSV
        g = path_graph(4)
        part = Partition.from_eliminated(4, [1, 2])
        y = harmonic_extension(g, part, np.array([0.0, 0.0]))
        assert y.tolist() == [0.0, 0.0]
        assert not np.signbit(y).any()

    def test_maximum_principle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g, part = random_instance(rng, n=12, f_size=5)
            x = rng.random(part.terminals.size)
            y = harmonic_extension(g, part, x)
            assert np.all(y >= x.min() - 1e-10)
            assert np.all(y <= x.max() + 1e-10)

    def test_unit_box_stays_unit_box(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g, part = random_instance(rng)
            x = (rng.random(part.terminals.size) > 0.5).astype(float)
            y = harmonic_extension(g, part, x)
            assert np.all((y >= 0.0) & (y <= 1.0))

    def test_minimizes_energy(self):
        rng = np.random.default_rng(5)
        g, part = random_instance(rng)
        x = rng.random(part.terminals.size)
        y = harmonic_extension(g, part, x)
        base = extension_energy(g, part, x, y)
        for _ in range(20):
            perturbed = y + rng.standard_normal(y.size) * 0.05
            assert extension_energy(g, part, x, perturbed) >= base - 1e-12

    def test_out_of_box_boundary_rejected(self):
        g = path_graph(3)
        part = Partition.from_eliminated(3, [1])
        with pytest.raises(ValueError):
            harmonic_extension(g, part, np.array([2.0, 0.0]))

    def test_nan_boundary_rejected(self):
        # NaN fails no ordered comparison, so a min/max range check let it
        # through and the extension came back [nan]
        g = path_graph(3)
        part = Partition.from_eliminated(3, [1])
        with pytest.raises(ValueError):
            harmonic_extension(g, part, np.array([0.0, np.nan]))


class TestMinL1Extension:
    def brute_force(self, g, part, x):
        best = np.inf
        best_y = None
        f = part.eliminated.size
        for bits in itertools.product((0.0, 1.0), repeat=f):
            y = np.array(bits)
            val = l1_objective(g, part, x, y)
            if val < best - 1e-12:
                best, best_y = val, y
        return best, best_y

    def minimal_source_side(self, g, part, x):
        # canonical optimum: among all 0/1 minimizers, the one whose 1-set
        # is inclusion-minimal (unique by submodularity)
        best, _ = self.brute_force(g, part, x)
        f = part.eliminated.size
        candidates = []
        for bits in itertools.product((0.0, 1.0), repeat=f):
            y = np.array(bits)
            if l1_objective(g, part, x, y) <= best + 1e-9:
                candidates.append(y)
        sets = [frozenset(np.flatnonzero(y)) for y in candidates]
        minimal = min(sets, key=lambda s: (len(s), sorted(s)))
        assert all(minimal <= s for s in sets if len(s & minimal) == len(minimal))
        y = np.zeros(f)
        y[list(minimal)] = 1.0
        return y

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for trial in range(50):
            g, part = random_instance(rng, n=9, extra=5, f_size=min(6, 4 + trial % 3))
            x = (rng.random(part.terminals.size) > 0.4).astype(float)
            value, y = min_l1_extension(g, part, x)
            brute, _ = self.brute_force(g, part, x)
            assert value == pytest.approx(brute, abs=1e-9), f"trial {trial}"
            assert np.all((y == 0.0) | (y == 1.0))
            assert l1_objective(g, part, x, y) == pytest.approx(value, abs=1e-9)

    def test_tie_break_prefers_zero_side(self):
        # a path of two eliminated vertices between terminals 0 and 1: every
        # monotone step assignment cuts exactly one edge; the all-zero one
        # is the canonical minimal-source answer
        g = path_graph(4)
        part = Partition.from_eliminated(4, [1, 2])
        x = np.array([1.0, 0.0])
        value, y = min_l1_extension(g, part, x)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert y.tolist() == [0.0, 0.0]

    def test_matches_lp_relaxation(self):
        # continuous LP optimum agrees: the relaxation is integral here
        rng = np.random.default_rng(17)
        for _ in range(10):
            g, part = random_instance(rng, n=8, extra=4, f_size=3)
            x = (rng.random(part.terminals.size) > 0.5).astype(float)
            value, _ = min_l1_extension(g, part, x)
            lp = self.lp_value(g, part, x)
            assert value == pytest.approx(lp, abs=1e-6)

    @staticmethod
    def lp_value(g, part, x):
        # variables: y over F, then one slack per edge bounding |z_a - z_b|
        f = part.eliminated.size
        pos = {int(v): i for i, v in enumerate(part.eliminated)}
        term = {int(v): x[i] for i, v in enumerate(part.terminals)}
        n_var = f + g.m
        c = np.zeros(n_var)
        c[f:] = g.weights
        rows, rhs = [], []
        for e in range(g.m):
            for sign in (1.0, -1.0):
                row = np.zeros(n_var)
                row[f + e] = -1.0
                const = 0.0
                for v, s in ((int(g.tails[e]), sign), (int(g.heads[e]), -sign)):
                    if v in pos:
                        row[pos[v]] += s
                    else:
                        const -= s * term[v]
                rows.append(row)
                rhs.append(const)
        bounds = [(0.0, 1.0)] * f + [(0.0, None)] * g.m
        res = linprog(c, A_ub=np.array(rows), b_ub=np.array(rhs), bounds=bounds,
                      method="highs")
        assert res.status == 0
        return float(res.fun)

    def test_all_equal_short_circuit(self):
        g = cycle_graph(5)
        part = Partition.from_eliminated(5, [2, 3])
        for const in (0.0, 1.0):
            value, y = min_l1_extension(g, part, np.full(3, const))
            assert value == 0.0
            assert np.all(y == const)

    def test_non_binary_boundary_rejected(self):
        g = path_graph(3)
        part = Partition.from_eliminated(3, [1])
        with pytest.raises(ValueError):
            min_l1_extension(g, part, np.array([0.5, 0.0]))


class TestVectorLengths:
    # a length-1 boundary was once broadcast over every terminal
    def test_wrong_length_boundary_rejected(self):
        g = path_graph(5)
        part = Partition.from_eliminated(5, [1, 2, 3])
        y = [0.5, 0.5, 0.5]
        for call in (l1_objective, extension_energy, discretize_minimizer):
            with pytest.raises(ValueError, match="one boundary value per terminal"):
                call(g, part, [1.0], y)
        assert l1_objective(g, part, [1.0, 0.0], y) == 1.0

    def test_wrong_length_extension_rejected(self):
        g = path_graph(5)
        part = Partition.from_eliminated(5, [1, 2, 3])
        for y in ([0.5], [0.5, 0.5, 0.5, 0.5]):
            for call in (l1_objective, extension_energy):
                with pytest.raises(ValueError, match="per eliminated vertex"):
                    call(g, part, [1.0, 0.0], y)

    def test_partition_of_another_graph_rejected(self):
        part = Partition.from_eliminated(4, [1, 2])
        with pytest.raises(ValueError, match="partition size"):
            l1_objective(path_graph(5), part, [1.0, 0.0], [0.5, 0.5])


def _discretize_reference(g, part, x, y):
    """The per-level rounding discretize_minimizer replaced: snap as it
    does, then shift the smallest positive level to 0 one at a time,
    recomputing the l1 objective at every step."""
    y = np.array(y, dtype=np.float64, copy=True)
    order = np.argsort(y, kind="stable")
    snapped = y[order].copy()
    for i in range(1, snapped.size):
        if snapped[i] - snapped[i - 1] <= 1e-9:
            snapped[i] = snapped[i - 1]
    snapped[snapped <= 1e-9] = 0.0
    snapped[snapped >= 1.0 - 1e-9] = 1.0
    y[order] = snapped
    objective = l1_objective(g, part, x, y)
    scale = max(abs(objective), 1.0)
    for _ in range(y.size):
        if not ((y > 0.0) & (y < 1.0)).any():
            break
        candidate = y.copy()
        candidate[y == y[y > 0.0].min()] = 0.0
        new_objective = l1_objective(g, part, x, candidate)
        if new_objective > objective + ohmlab.sparsify._ROUNDING_TOL * scale:
            raise ValueError("not a minimizer")
        y, objective = candidate, new_objective
    return y


class TestDiscretize:
    def test_matches_per_level_reference(self, random_multigraph):
        # one threshold sweep must give the per-level loop's verdict and
        # output: random y (continuous or on a few shared levels), blends
        # of the l1 minimizer with the harmonic extension, and 0/1 y
        rng = np.random.default_rng(59)
        verdicts = []
        for i in range(1200):
            g = random_multigraph(rng, int(rng.integers(2, 12)), int(rng.integers(0, 10)),
                                  weighted=i % 2 == 0)
            elim = np.flatnonzero(rng.random(g.n) < 0.6)
            part = Partition.from_eliminated(g.n, elim if elim.size < g.n else elim[1:])
            x = rng.integers(0, 2, part.terminals.size).astype(float)
            f = part.eliminated.size
            kind = i // 2 % 4
            if kind == 0:
                y = rng.random(f)
            elif kind == 1:
                y = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], f)
            elif kind == 2:
                lam = rng.random()
                y = lam * min_l1_extension(g, part, x)[1]
                y += (1.0 - lam) * harmonic_extension(g, part, x)
            else:
                y = rng.integers(0, 2, f).astype(float)
            try:
                want = _discretize_reference(g, part, x, y)
            except ValueError:
                with pytest.raises(ValueError, match="not a minimizer"):
                    discretize_minimizer(g, part, x, y)
                verdicts.append(False)
            else:
                assert np.array_equal(discretize_minimizer(g, part, x, y), want)
                verdicts.append(True)
        # both verdicts are exercised, many times each
        assert 200 < sum(verdicts) < 1000

    def test_preserves_objective(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            g, part = random_instance(rng, n=9, f_size=4)
            x = (rng.random(part.terminals.size) > 0.5).astype(float)
            value, y01 = min_l1_extension(g, part, x)
            # blur the optimum into the open box along harmonic directions:
            # a convex combination of minimizers is still a minimizer
            alt = harmonic_extension(g, part, x)
            if l1_objective(g, part, x, alt) <= value + 1e-9:
                blend = 0.5 * (y01 + alt)
                out = discretize_minimizer(g, part, x, blend)
                assert np.all((out == 0.0) | (out == 1.0))
                assert l1_objective(g, part, x, out) == pytest.approx(
                    value, abs=1e-6
                )

    def test_zero_one_input_fixed_point(self):
        g = path_graph(4)
        part = Partition.from_eliminated(4, [1, 2])
        x = np.array([1.0, 0.0])
        out = discretize_minimizer(g, part, x, np.array([0.0, 0.0]))
        assert out.tolist() == [0.0, 0.0]

    def test_non_minimizer_rejected(self):
        # on the 4-path with ends 1 and 0, y = (1/3, 2/3) cuts three times
        # at total 5/3 > 1 and the first level shift changes the objective
        g = path_graph(4)
        part = Partition.from_eliminated(4, [1, 2])
        x = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="not a minimizer"):
            discretize_minimizer(g, part, x, np.array([1.0 / 3.0, 2.0 / 3.0]))

    def test_snaps_near_levels(self):
        g = path_graph(4)
        part = Partition.from_eliminated(4, [1, 2])
        x = np.array([1.0, 0.0])
        out = discretize_minimizer(
            g, part, x, np.array([1e-10, 1.0 - 1e-10])
        )
        assert out.tolist() == [0.0, 1.0]


class TestThresholdRounding:
    def test_expected_cut_two_ways(self, random_multigraph):
        rng = np.random.default_rng(41)
        graphs = [random_instance(rng, n=int(rng.integers(4, 10)), f_size=2)[0]
                  for _ in range(200)]
        graphs += [random_multigraph(rng, int(rng.integers(2, 40)), int(rng.integers(0, 60)))
                   for _ in range(50)]
        for g in graphs:
            x = rng.random(g.n)
            closed, integrated = expected_cut_l1(g, x)
            assert closed == pytest.approx(integrated, abs=1e-12 * max(closed, 1.0))

    def test_monte_carlo_agrees(self):
        rng = np.random.default_rng(43)
        g, _ = random_instance(rng, n=8, f_size=2)
        x = rng.random(g.n)
        closed, _ = expected_cut_l1(g, x)
        draws = rng.uniform(0.0, 1.0, 100_000)
        cuts = np.empty(draws.size)
        for i, t in enumerate(draws):
            mask = x >= t
            cuts[i] = g.weights[mask[g.tails] != mask[g.heads]].sum()
        se = cuts.std(ddof=1) / np.sqrt(cuts.size)
        assert abs(cuts.mean() - closed) <= 4.0 * se

    def test_out_of_box_rejected(self):
        g = path_graph(2)
        with pytest.raises(ValueError):
            expected_cut_l1(g, np.array([-0.1, 0.5]))

    def test_nan_rejected(self):
        # expected_cut_l1 used to return (nan, nan)
        with pytest.raises(ValueError):
            expected_cut_l1(path_graph(3), np.array([0.0, np.nan, 1.0]))
