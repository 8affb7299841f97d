import inspect
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import ohmlab
import ohmlab.graphs
import ohmlab.routing
from ohmlab import (
    ConductanceCertificate,
    Multigraph,
    SizeLimitError,
    as_vertex_mask,
    complete_graph,
    conductance_bounds,
    conductance_exact,
    cut_weight,
    cycle_graph,
    gadget_subdivide,
    girth,
    graph_text,
    graph_union,
    path_graph,
    petersen_graph,
    random_regular,
    read_graph,
    volume,
    weighted_to_multigraph,
    write_graph,
)


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
            conductance_exact(g, max_n=24)


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

    def test_sparse_eigensolver_is_reproducible(self, monkeypatch):
        g = random_regular(60, 3, 1)
        dense = scipy.linalg.eigh(ohmlab.graphs._normalized_laplacian(g).toarray(),
                                  eigvals_only=True, subset_by_index=[1, 1])[0]
        monkeypatch.setattr(ohmlab.graphs, "_DENSE_EIGEN_CAP", 4)
        first, second = conductance_bounds(g)[0].phi, conductance_bounds(g)[0].phi
        assert first == second
        assert first == pytest.approx(dense / 2.0, rel=0.0, abs=1e-10)

    def test_arpack_failure_is_convergence_error(self, monkeypatch):
        import scipy.sparse.linalg

        def no_convergence(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("stalled", np.zeros(1), np.zeros((18, 1)))

        monkeypatch.setattr(ohmlab.graphs, "_DENSE_EIGEN_CAP", 4)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        with pytest.raises(ohmlab.ConvergenceError) as info:
            conductance_bounds(random_regular(18, 3, 7))
        assert info.value.iterations == 10_000
        assert info.value.best.shape == (18,)


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
        g = random_regular(10, 3, 1)
        with pytest.raises(SizeLimitError):
            gadget_subdivide(g, 10, cap_edges=100)

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


class TestWeightedToMultigraph:
    def test_unit_lengths_preserve_conductance(self):
        rng = np.random.default_rng(5)
        g = cycle_graph(5)
        caps = rng.integers(1, 4, g.m)
        weighted = Multigraph(g.n, g.tails, g.heads, caps.astype(float))
        unit = weighted_to_multigraph(g, caps, np.ones(g.m, dtype=int))
        assert unit.n == g.n
        assert unit.is_unit_weight
        assert conductance_exact(unit).phi == pytest.approx(
            conductance_exact(weighted).phi, abs=1e-14
        )

    def test_length_two_subdivides(self):
        g = complete_graph(2)
        u = weighted_to_multigraph(g, [3], [2])
        assert u.n == 3  # one internal vertex
        assert u.m == 6  # two hops of three parallel edges
        # series pair of parallel triples: R = 1/3 + 1/3
        assert ohmlab.effective_resistance(u, 0, 1) == pytest.approx(
            2.0 / 3.0, abs=1e-9
        )

    def test_non_integer_rejected(self):
        g = complete_graph(2)
        with pytest.raises(ValueError):
            weighted_to_multigraph(g, [1.5], [1])
        with pytest.raises(ValueError):
            weighted_to_multigraph(g, [1], [0])


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
        g = random_regular(12, 3, 8)
        text = graph_text(g)
        p = tmp_path / "g.txt"
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

    def test_edge_count_mismatch_rejected(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("2 2\n0 1 1.0\n")
        with pytest.raises(ValueError):
            read_graph(p)


class TestCertificate:
    def test_fields(self):
        cert = ConductanceCertificate(0.5, "exact", None)
        assert cert.phi == 0.5
        assert cert.kind == "exact"


# -- reference implementations: the per-vertex loops the array code replaced --

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


def _reference_expansion(g, caps, lengths):
    """(n, tails, heads): edge e a path of lengths[e] hops, caps[e] copies each."""
    tails, heads, nxt = [], [], g.n
    for t, h, c, s in zip(g.tails.tolist(), g.heads.tolist(), caps, lengths):
        prev = t
        for step in range(1, s + 1):
            if step == s:
                node = h
            else:
                node, nxt = nxt, nxt + 1
            tails += [prev] * c
            heads += [node] * c
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
            caps, lengths = rng.integers(1, 4, g.m), rng.integers(1, 5, g.m)
            got = weighted_to_multigraph(g, caps, lengths)
            n, tails, heads = _reference_expansion(g, caps.tolist(), lengths.tolist())
            assert got.n == n
            assert got.tails.tolist() == tails and got.heads.tolist() == heads
            assert got.is_unit_weight


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

    def test_disconnected_shortcut_and_refusal(self):
        g = Multigraph.from_edges(5, [(0, 3, 2.0), (1, 2, 1.0), (2, 4, 1.0)])
        cert = conductance_exact(g)
        assert (cert.phi, cert.kind) == (0.0, "exact")
        assert cert.witness.tolist() == [True, False, False, True, False]
        # the size refusal comes first, connected or not
        with pytest.raises(SizeLimitError):
            conductance_exact(Multigraph.from_edges(30, [(0, 1)]))

    def test_one_cap_constant(self):
        cap = ohmlab.graphs.EXACT_CONDUCTANCE_CAP
        for fn, name in ((conductance_exact, "max_n"),
                         (ohmlab.routing._conductance, "exact_n_cap"),
                         (ohmlab.routing.competitive_report, "exact_n_cap")):
            assert inspect.signature(fn).parameters[name].default == cap
        with pytest.raises(SizeLimitError):
            conductance_exact(random_regular(cap + 1, 4, 1))
