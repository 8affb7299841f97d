import os
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

import ohmlab
from ohmlab import (
    Multigraph,
    check_derivative_bounds,
    check_integral_identity,
    check_unit_flow,
    conductance_exact,
    cycle_graph,
    diagnostic_rows,
    edge_demand,
    petersen_graph,
    profile_from_voltages,
    random_regular,
    threshold_profile,
)
from ohmlab import thresholds
from ohmlab.experiments import run_diagnose
from ohmlab.thresholds import DIAGNOSTIC_COLUMNS, ThresholdProfile, _rows_at, _thin

from conftest import complete_graph


def scan(prof, t):
    """Reference for the interval table: (cut weight, decay rate, crossing
    flow, vol_geq) at t from one pass over every edge, crossing set
    {va < t <= vb}."""
    va, vb, w = prof.va, prof.vb, prof.weights
    cross = (va < t) & (t <= vb)
    wc, gap = w[cross], vb[cross] - va[cross]
    vol = 2.0 * w[t <= va].sum() + 2.0 * (wc * (vb[cross] - t) / gap).sum()
    return wc.sum(), 2.0 * (wc / gap).sum(), (wc * gap).sum(), vol


def scan_leq(prof, t):
    """Reference for the table's vol_leq column: the volume of {v <= t} from
    one pass over every edge, crossing set {va <= t < vb}."""
    va, vb, w = prof.va, prof.vb, prof.weights
    cross = (va <= t) & (t < vb)
    share = w[cross] * (t - va[cross]) / (vb[cross] - va[cross])
    return 2.0 * w[vb <= t].sum() + 2.0 * share.sum()


def assert_low_column_matches_scan(prof):
    """vol_leq at each interval's left end, relative to itself: summed from
    the low end, a light low side keeps its digits next to a heavy graph."""
    bp = prof.breakpoints
    for r in range(1, bp.size):
        got, want = prof.table[r, 4], scan_leq(prof, bp[r - 1])
        assert abs(got - want) <= 1e-12 * want, (r, got, want)


def mirrored_profile(prof):
    """The profile of the negated voltages, whose vol_geq(t) is the original's
    vol_leq(-t): the construction check_derivative_bounds once ran its low
    side through, kept as the reference for it."""
    return ThresholdProfile(
        weights=prof.weights, voltages=-prof.voltages, va=-prof.vb, vb=-prof.va,
        breakpoints=np.sort(-prof.breakpoints), total_volume=prof.total_volume,
        solver_residual=prof.solver_residual,
    )


def mirrored_derivative_check(prof, phi, samples):
    """check_derivative_bounds with its side below the shift s read off the
    mirrored profile's own table at the mirrored midpoints >= -s."""
    sides = []
    shift = prof.center_shift
    for sign, side in ((1.0, prof), (-1.0, mirrored_profile(prof))):
        bp = side.breakpoints
        mids = 0.5 * (bp[:-1] + bp[1:])
        t = _thin(mids[mids >= sign * shift], samples)
        sides.append((sign * t - shift, *_rows_at(side, t)))
    t, delta, decay, _, vol = map(np.concatenate, zip(*sides))
    lhs = 2.0 * delta * delta
    quad = (lhs - decay) / np.maximum(np.maximum(np.abs(lhs), np.abs(decay)), 1.0)
    allowed = (3.0 / (2.0 * phi)) * decay / (vol + 1.0)
    ratio = (delta - allowed) / np.maximum(np.maximum(np.abs(delta), np.abs(allowed)), 1.0)
    t, quad, ratio = np.append(t, np.nan), np.append(quad, -np.inf), np.append(ratio, -np.inf)
    return ohmlab.DerivativeCheckReport(
        evaluated=t.size - 1,
        quad_max_violation=float(quad.max()),
        quad_worst_t=float(t[quad.argmax()]),
        ratio_max_violation=float(ratio.max()),
        ratio_worst_t=float(t[ratio.argmax()]),
        violations=int((quad > 1e-8).sum() + (ratio > 1e-8).sum()),
    )


def assert_matches_mirrored_reference(prof, phi, samples):
    got = check_derivative_bounds(prof, phi, samples)
    want = mirrored_derivative_check(prof, phi, samples)
    assert (got.evaluated, got.violations) == (want.evaluated, want.violations)
    for name in ("quad_max_violation", "quad_worst_t", "ratio_max_violation", "ratio_worst_t"):
        a, b = getattr(got, name), getattr(want, name)
        # the violations are relative already; t is nan when nothing was sampled
        assert a == b or abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0), (name, got, want)
    return got


def table_at(prof, t):
    """(cut weight, decay rate, crossing flow, vol_geq) at t as floats."""
    return tuple(map(float, _rows_at(prof, t)))


def assert_table_matches_scan(prof, ts):
    for t in ts:
        got, want = table_at(prof, float(t)), scan(prof, float(t))
        for g, w in zip(got[:3], want[:3]):
            assert abs(g - w) <= 1e-12 * abs(w), (t, got, want)
        assert abs(got[3] - want[3]) <= 1e-12 * prof.total_volume, (t, got, want)


def scan_center(prof):
    """Reference for the centring: the same bisection on vol_geq from one
    pass over every edge per threshold, returning (shift, residual)."""
    total = prof.total_volume

    def miss(t):
        return scan(prof, t)[3] - total / 2.0

    lo, hi = float(prof.va.min()), float(prof.vb.max())
    if hi <= lo:
        return lo, abs(miss(lo))
    rng, f_hi = hi - lo, miss(hi)
    if f_hi > 0:
        hi = float(np.nextafter(hi, np.inf))
        f_hi = miss(hi)
    for _ in range(200):
        if hi - lo <= 1e-12 * rng and abs(f_hi) <= 1e-10 * total:
            break
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        f_mid = miss(mid)
        if f_mid > 0:
            lo = mid
        else:
            hi, f_hi = mid, f_mid
    return hi, abs(f_hi)


def k2_profile():
    g = complete_graph(2)
    return threshold_profile(g, edge_demand(g, 0))


def zero_gap_profile():
    # K4 minus one edge, demand across the missing pair: the two middle
    # vertices are exchangeable, land at equal voltage, and share an edge,
    # so the fractional volume jumps by 2 across the centering point
    g = Multigraph.from_edges(
        4, [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0), (1, 2, 1.0)]
    )
    return threshold_profile(g, np.array([1.0, 0.0, 0.0, -1.0]))


class TestK2Profile:
    def test_centered_breakpoints(self):
        prof = k2_profile()
        assert prof.breakpoints == pytest.approx([-0.5, 0.5], abs=1e-10)
        assert prof.t_min == pytest.approx(-0.5, abs=1e-10)
        assert prof.t_max == pytest.approx(0.5, abs=1e-10)

    def test_flow_aligned_orientation(self):
        prof = k2_profile()
        assert np.all(prof.vb >= prof.va)

    def test_cut_at_zero_is_higher_endpoint(self):
        prof = k2_profile()
        mask = prof.voltages >= 0.0
        assert mask.sum() == 1
        assert prof.voltages[mask][0] == pytest.approx(0.5, abs=1e-10)

    def test_cut_beyond_extremes(self):
        # past either end every vertex is on one side: no edge is cut and no
        # flow crosses
        prof = k2_profile()
        assert (prof.voltages >= -1.0).all()
        assert not (prof.voltages >= 1.0).any()
        for t in (-1.0, 1.0):
            cut, decay, flow, _ = table_at(prof, t)
            assert (cut, decay, flow) == (0.0, 0.0, 0.0)

    def test_closed_form_volume(self):
        # vol_geq(t) = 1 - 2t on (-1/2, 1/2], 2 below, 0 above
        prof = k2_profile()
        for t in (-0.3, 0.0, 0.1, 0.49):
            assert table_at(prof, t)[3] == pytest.approx(1.0 - 2.0 * t, abs=1e-9)
        assert table_at(prof, -0.6)[3] == 2.0
        assert table_at(prof, 0.6)[3] == 0.0

    def test_quad_inequality_is_tight(self):
        # a single unit edge attains -d/dt vol = 2 delta^2 exactly
        prof = k2_profile()
        cut, decay, _, _ = table_at(prof, 0.0)
        assert cut == pytest.approx(1.0, abs=1e-10)
        assert decay == pytest.approx(2.0, abs=1e-9)

    def test_integral_identity_exact(self):
        rep = check_integral_identity(k2_profile())
        assert rep.lhs == pytest.approx(1.0, abs=1e-9)
        assert rep.relative_gap <= 1e-12


class TestIntervalTable:
    def test_matches_scan_on_generated_multigraphs(self, random_multigraph):
        rng = np.random.default_rng(17)
        for i in range(30):
            g = random_multigraph(rng, int(rng.integers(3, 30)), int(rng.integers(0, 40)))
            if i % 3 == 0:
                prof = threshold_profile(g, edge_demand(g, int(rng.integers(g.m))))
            elif i % 3 == 1:
                prof = profile_from_voltages(g, rng.standard_normal(g.n))
            else:  # voltage ties: zero-gap edges and parallel crossings
                prof = profile_from_voltages(g, rng.integers(0, 4, g.n).astype(float))
            bp = prof.breakpoints
            mids = 0.5 * (bp[:-1] + bp[1:])
            assert_table_matches_scan(prof, np.concatenate([mids, bp]))
            # the centring reads the table; the scan's bisection may part from
            # it only where rounding flips the sign of a miss at the target
            shift, residual = scan_center(prof)
            assert abs(prof.center_shift - shift) <= 1e-9 * (bp[-1] - bp[0]), i
            assert abs(prof.center_residual - residual) <= 1e-9 * prof.total_volume, i

    def test_tiny_gap_ahead_of_unit_gaps(self):
        # a 1e-13-wide heavy edge below unit-wide ones, then an interval one
        # ulp wide: running totals (add at va, subtract at vb) lose the
        # later intervals' sums to the heavy edge's cancellation
        top = 4.1
        v = [0.1, 0.1 + 1e-13, 1.1, 2.1, 3.1, top, np.nextafter(top, np.inf)]
        edges = [(0, 1, 1e6 + 0.1), (1, 2, 1.3), (2, 3, 1.0), (1, 3, 2.7),
                 (3, 4, 1.0), (4, 5, 1.9), (5, 6, 1.0), (0, 6, 1.0)]
        prof = profile_from_voltages(Multigraph.from_edges(7, edges), v)
        bp = prof.breakpoints
        assert bp.size == 7 and bp[-1] - bp[-2] == np.spacing(top)
        mids = 0.5 * (bp[:-1] + bp[1:])
        assert_table_matches_scan(prof, np.concatenate([mids, bp]))

    def test_outside_the_range_nothing_crosses(self):
        prof = zero_gap_profile()
        for t in (prof.t_min, prof.t_min - 1.0):
            assert table_at(prof, t) == (0.0, 0.0, 0.0, prof.total_volume)
        assert table_at(prof, prof.t_max + 1e-9) == (0.0, 0.0, 0.0, 0.0)

    def test_every_interval_when_samples_not_positive(self):
        # voltages far from a unit flow: unsampled, the check reported 0
        g = random_regular(12, 3, 2)
        prof = profile_from_voltages(g, np.random.default_rng(3).standard_normal(g.n))
        intervals = prof.breakpoints.size - 1
        for samples in (0, -3, None):
            assert len(diagnostic_rows(prof, samples)) == intervals
        bp = prof.breakpoints
        worst = max(abs(table_at(prof, t)[2] - 1.0) for t in 0.5 * (bp[:-1] + bp[1:]))
        assert check_unit_flow(prof) == worst > 0.5
        rep = check_derivative_bounds(prof, 0.1, samples=0)
        assert rep.evaluated == check_derivative_bounds(prof, 0.1, samples=10**6).evaluated


class TestCentering:
    def test_random_graphs_centered(self):
        for seed in (1, 2, 3, 4, 5):
            g = random_regular(12, 3, seed)
            for e in (0, 5):
                prof = threshold_profile(g, edge_demand(g, e))
                vol, shift = prof.total_volume, prof.center_shift
                if prof.center_residual <= 1e-9 * vol:
                    assert table_at(prof, shift)[3] == pytest.approx(
                        vol / 2.0, abs=1e-8 * vol
                    )
                else:
                    # an exact voltage tie on an edge puts a jump under the
                    # bisection point; the residual can never exceed it
                    ties = (prof.va == prof.vb) & (np.abs(prof.va - shift) <= 1e-12)
                    jump = 2.0 * prof.weights[ties].sum()
                    assert prof.center_residual <= jump + 1e-9 * vol

    def test_volume_monotone(self):
        g = random_regular(10, 3, 2)
        prof = threshold_profile(g, edge_demand(g, 3))
        bp = prof.breakpoints
        ts = np.linspace(bp[0] - 0.1, bp[-1] + 0.1, 400)
        vals = [table_at(prof, t)[3] for t in ts]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-12
        assert vals[0] == prof.total_volume
        assert vals[-1] == 0.0

    def test_equal_voltages(self):
        # no demand: every voltage is 0, the shift lands on that common value
        # and half the volume is missed, since vol_geq(0) = vol(V)
        g = random_regular(12, 3, 1)
        prof = threshold_profile(g, np.zeros(g.n))
        assert prof.center_shift == 0.0
        assert prof.center_residual == prof.total_volume / 2.0
        assert check_unit_flow(prof) == 0.0
        assert (prof.t_min, prof.t_max) == (0.0, 0.0)

    def test_one_profile_one_table(self, monkeypatch):
        # run_diagnose builds one profile and one interval table, and the
        # centring bisection reads vol_geq off that same table
        made, builds, reads = [], [], []

        class Counted(ThresholdProfile):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

            @cached_property
            def table(self):
                builds.append(self)
                return ThresholdProfile.table.func(self)

        rows_at = thresholds._rows_at
        monkeypatch.setattr(thresholds, "ThresholdProfile", Counted)
        monkeypatch.setattr(thresholds, "_rows_at",
                            lambda prof, t: reads.append(prof) or rows_at(prof, t))
        run_diagnose(random_regular(30, 3, 1), 0, samples=10)
        assert len(made) == 1 and builds == made
        assert "center_shift" in vars(made[0])
        assert len(reads) > 10 and all(prof is made[0] for prof in reads)

    def test_zero_gap_jump_reported_honestly(self):
        prof = zero_gap_profile()
        assert abs(prof.center_shift) < 1e-12
        assert prof.center_residual == pytest.approx(1.0, abs=1e-9)
        # just left of the jump the volume is 6, just right it is 4;
        # the target 5 is unattainable and the profile says so
        assert table_at(prof, -1e-9)[3] == pytest.approx(6.0, abs=1e-6)
        assert table_at(prof, 1e-9)[3] == pytest.approx(4.0, abs=1e-6)


class TestCutWeightAndFlow:
    def test_cut_weight_is_vertex_cut_weight(self):
        g = random_regular(10, 3, 3)
        prof = threshold_profile(g, edge_demand(g, 0))
        rng = np.random.default_rng(0)
        for t in rng.uniform(prof.breakpoints[0], prof.breakpoints[-1], 25):
            mask = prof.voltages >= t
            direct = float(
                prof.weights[mask[g.tails] != mask[g.heads]].sum()
            )
            assert table_at(prof, t)[0] == pytest.approx(direct, abs=1e-12)

    def test_cut_weight_at_least_one_inside(self):
        # every interior threshold cuts the graph, and unit weights make
        # any cut weigh at least 1
        for seed in (1, 2):
            g = random_regular(12, 3, seed)
            prof = threshold_profile(g, edge_demand(g, 1))
            bp = prof.breakpoints
            for t in np.linspace(bp[0] + 1e-9, bp[-1], 50):
                assert table_at(prof, t)[0] >= 1.0 - 1e-12

    def test_crossing_flow_is_unit_inside(self):
        for seed in (1, 4):
            g = random_regular(10, 3, seed)
            prof = threshold_profile(g, edge_demand(g, 2))
            assert check_unit_flow(prof) <= 1e-8
            bp = prof.breakpoints
            for t in np.linspace(bp[0] * 0.99, bp[-1] * 0.99, 20):
                assert table_at(prof, t)[2] == pytest.approx(1.0, abs=1e-8)

    def test_integral_identity_random(self):
        for seed in (1, 2, 3):
            g = random_regular(12, 3, seed)
            for e in (0, 4, 8):
                rep = check_integral_identity(threshold_profile(g, edge_demand(g, e)))
                assert rep.relative_gap <= 1e-10

    def test_integral_identity_independent_of_blas_threads(self):
        # each rhs was a BLAS dot, which OpenBLAS splits across threads above
        # a few thousand entries: the identity's read 22547.615437449083 with
        # one thread and ...072 with two on the first cycle, and the rounding
        # integral 13317.891160439996 and ...995 on the second. So on a
        # machine with fewer than two cores this test cannot tell the dot from
        # the pairwise sum.
        script = (
            "import numpy as np\n"
            "from ohmlab import check_integral_identity, cycle_graph, expected_cut_l1, profile_from_voltages\n"
            "g = cycle_graph(20000)\n"
            "v = np.random.default_rng(0).standard_normal(g.n)\n"
            "print(repr(check_integral_identity(profile_from_voltages(g, v)).rhs))\n"
            "g = cycle_graph(40000)\n"
            "print(repr(expected_cut_l1(g, np.random.default_rng(3).random(g.n))[1]))\n"
        )
        src = str(Path(ohmlab.__file__).resolve().parents[1])
        rhs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            rhs.append(proc.stdout)
        assert rhs[0] == rhs[1]


class TestDecayRate:
    def test_matches_finite_difference(self):
        g = random_regular(10, 3, 5)
        prof = threshold_profile(g, edge_demand(g, 0))
        bps = prof.breakpoints
        for lo, hi in zip(bps, bps[1:]):
            if hi - lo < 1e-9:
                continue
            mid = 0.5 * (lo + hi)
            h = (hi - lo) * 1e-4
            fd = (table_at(prof, mid - h)[3] - table_at(prof, mid + h)[3]) / (2.0 * h)
            assert table_at(prof, mid)[1] == pytest.approx(fd, rel=1e-6)


class TestMirror:
    """The mirrored reference itself: the negated voltages' profile."""

    def test_volume_identity(self):
        g = random_regular(10, 3, 7)
        prof = threshold_profile(g, edge_demand(g, 6))
        mir = mirrored_profile(prof)
        for t in np.linspace(-0.5, 0.5, 30):
            want = prof.total_volume - table_at(prof, -t)[3]
            got = table_at(mir, t)[3]
            # the two sides may disagree exactly at shared breakpoints
            if np.min(np.abs(prof.breakpoints + t)) > 1e-9:
                assert got == pytest.approx(want, abs=1e-8)

    def test_involution(self):
        prof = threshold_profile(cycle_graph(5), edge_demand(cycle_graph(5), 0))
        back = mirrored_profile(mirrored_profile(prof))
        assert np.allclose(back.voltages, prof.voltages)
        assert np.allclose(back.breakpoints, prof.breakpoints)

    def test_breakpoints_negated(self):
        prof = k2_profile()
        mir = mirrored_profile(prof)
        assert mir.breakpoints == pytest.approx([-0.5, 0.5], abs=1e-10)
        assert np.all(mir.vb >= mir.va)

    def test_cut_weight_symmetry(self):
        g = random_regular(10, 3, 2)
        prof = threshold_profile(g, edge_demand(g, 1))
        mir = mirrored_profile(prof)
        for t in (0.01, 0.07):
            if np.min(np.abs(prof.breakpoints + t)) > 1e-9:
                assert table_at(mir, t)[0] == pytest.approx(table_at(prof, -t)[0], abs=1e-9)

    @pytest.mark.parametrize("samples", [None, 0, 7, 50])
    def test_derivative_check_matches_mirror(self, samples, random_multigraph):
        # the side below the shift reads vol_leq from the one table; the
        # mirror read it as vol_geq off a second table built on the negated
        # voltages
        c4 = cycle_graph(4)
        cases = [(threshold_profile(c4, edge_demand(c4, 0)), 10.0),
                 (zero_gap_profile(), 1.0), (zero_gap_profile(), 10.0), (k2_profile(), 1.0)]
        rng = np.random.default_rng(18)
        for i in range(12):
            g = random_multigraph(rng, int(rng.integers(3, 40)), int(rng.integers(0, 60)))
            v = rng.standard_normal(g.n) if i % 2 else rng.integers(0, 4, g.n).astype(float)
            cases.append((profile_from_voltages(g, v), float(rng.uniform(0.01, 2.0))))
        for prof, phi in cases:
            assert_low_column_matches_scan(prof)
            assert_matches_mirrored_reference(prof, phi, samples)

    def test_low_side_of_an_ulp_wide_interval(self):
        # two intervals one ulp wide, whose midpoints round onto a
        # breakpoint: below the shift a midpoint must read the interval
        # above it
        top = 4.1
        v = np.array([0.1, np.nextafter(0.1, 1.0), 1.1, 2.1, 3.1, top, np.nextafter(top, 5.0)])
        edges = [(0, 1, 1e6 + 0.1), (1, 2, 1.3), (2, 3, 1.0), (1, 3, 2.7),
                 (3, 4, 1.0), (4, 5, 1.9), (5, 6, 1.0), (0, 6, 1.0)]
        for sign in (1.0, -1.0):
            prof = profile_from_voltages(Multigraph.from_edges(7, edges), sign * v)
            mids = 0.5 * (prof.breakpoints[:-1] + prof.breakpoints[1:])
            assert np.isin(mids, prof.breakpoints).sum() == 2
            assert_low_column_matches_scan(prof)
            assert_matches_mirrored_reference(prof, 0.5, None)


class TestDerivativeBounds:
    def test_expander_passes_with_exact_phi(self):
        g = random_regular(10, 3, 1)
        phi = conductance_exact(g).phi
        for e in range(g.m):
            rep = check_derivative_bounds(threshold_profile(g, edge_demand(g, e)), phi)
            assert rep.ok, f"edge {e}: {rep}"

    def test_inflated_phi_fails(self):
        # same profile, phi claimed at 10: at t = 0 the cut weighs 2 but the
        # claimed bound allows (3/20) * decay / volplus = 0.32
        c4 = cycle_graph(4)
        prof = threshold_profile(c4, edge_demand(c4, 0))
        good = check_derivative_bounds(prof, conductance_exact(c4).phi)
        assert good.ok
        bad = check_derivative_bounds(prof, 10.0)
        assert not bad.ok
        assert bad.violations == 4
        assert bad.ratio_worst_t == pytest.approx(0.0, abs=1e-12)
        assert bad.ratio_max_violation == pytest.approx(0.84, abs=1e-9)

    def test_zero_gap_profile_passes(self):
        rep = check_derivative_bounds(zero_gap_profile(), 1.0)
        assert rep.ok
        assert rep.evaluated > 0

    def test_phi_validation(self):
        with pytest.raises(ValueError):
            check_derivative_bounds(k2_profile(), 0.0)

    def test_nan_phi_rejected(self):
        # a NaN phi once passed with ok=True and a NaN worst ratio
        g = random_regular(30, 3, 1)
        prof = threshold_profile(g, edge_demand(g, 0))
        with pytest.raises(ValueError, match="phi must be positive"):
            check_derivative_bounds(prof, float("nan"))


class TestDiagnosticRows:
    def test_columns_and_shape(self):
        assert DIAGNOSTIC_COLUMNS == (
            "t",
            "delta",
            "vol_geq",
            "volplus",
            "dvolplus_dt",
            "crossing_flow",
        )
        g = cycle_graph(4)
        prof = threshold_profile(g, edge_demand(g, 0))
        rows = diagnostic_rows(prof, samples=10)
        assert all(len(r) == len(DIAGNOSTIC_COLUMNS) for r in rows)
        ts = [r[0] for r in rows]
        assert ts == sorted(ts)

    def test_rows_match_profile_functions(self):
        g = random_regular(10, 3, 4)
        prof = threshold_profile(g, edge_demand(g, 0))
        for row in diagnostic_rows(prof, samples=8):
            t, delta, vol, volp, slope, flow = row
            cut, decay, _, want_vol = table_at(prof, t + prof.center_shift)
            assert delta == pytest.approx(cut, abs=1e-12)
            assert vol == pytest.approx(want_vol, abs=1e-12)
            assert volp == pytest.approx(vol + 1.0, abs=1e-12)
            assert slope == pytest.approx(-decay, abs=1e-9)
            assert flow == pytest.approx(1.0, abs=1e-8)

    def test_k2_dump(self):
        # single edge: two breakpoints, one interval, one fully descriptive row
        prof = k2_profile()
        assert prof.breakpoints.size == 2
        rows = diagnostic_rows(prof)
        assert len(rows) == 1
        t, delta, vol, volp, slope, flow = rows[0]
        assert prof.t_min < t < prof.t_max
        assert (delta, flow) == (1.0, 1.0)


class TestProfileConstruction:
    def test_from_voltages_alignment(self):
        g = cycle_graph(5)
        rng = np.random.default_rng(9)
        v = rng.standard_normal(5)
        prof = profile_from_voltages(g, v)
        assert np.all(prof.vb >= prof.va)
        assert prof.total_volume == 2.0 * g.m

    def test_breakpoints_sorted_unique(self):
        g = petersen_graph()
        prof = threshold_profile(g, edge_demand(g, 0))
        bp = prof.breakpoints
        assert np.all(np.diff(bp) > 0)
        shift = prof.center_shift
        assert prof.t_min == bp[0] - shift and prof.t_max == bp[-1] - shift

    def test_disconnected_rejected(self):
        g = Multigraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(ohmlab.DisconnectedError):
            threshold_profile(g, np.array([1.0, -1.0, 0.0, 0.0]))

    def test_solver_residual_recorded(self):
        g = cycle_graph(6)
        prof = threshold_profile(g, edge_demand(g, 0))
        assert 0.0 <= prof.solver_residual <= 1e-10 * np.sqrt(2.0)


def _spider(legs):
    """Tree of paths with the given numbers of edges hanging off vertex 0."""
    edges, n = [], 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, n))
            prev, n = n, n + 1
    return Multigraph.from_edges(n, edges)


def _lollipop(k, tail):
    """cycle_graph(k) with a pendant path of `tail` edges at vertex k - 1."""
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(k - 1 + i, k + i) for i in range(tail)]
    return Multigraph.from_edges(k + tail, edges)


def _random_tree(n, seed):
    rng = np.random.default_rng(seed)
    return Multigraph.from_edges(n, [(i, int(rng.integers(i))) for i in range(1, n)])


class TestMaximumPrinciple:
    # on path_graph(3) edge 0 the solve put vertex 2 at -0.33333333333333337,
    # one ulp below the sink; that opened an interval whose threshold set is
    # not a source-sink cut, with crossing flow 5.55e-17 instead of 1
    @pytest.mark.parametrize("g, edges", [
        (ohmlab.path_graph(3), [0, 1]),
        (ohmlab.path_graph(4), [0, 1, 2]),
        (ohmlab.path_graph(50), [10, 48]),
        (_spider([1, 2, 5]), range(8)),
        (_lollipop(6, 5), range(11)),
        (_random_tree(30, 1), range(29)),
        (_random_tree(30, 2), range(29)),
    ], ids=["path3", "path4", "path50", "spider", "lollipop", "tree30-1", "tree30-2"])
    def test_clamped_profile_is_a_unit_flow(self, g, edges):
        pinv = np.linalg.pinv(g.laplacian.toarray())
        for e in edges:
            chi = edge_demand(g, e)
            prof = threshold_profile(g, chi)
            assert check_unit_flow(prof) <= 1e-8, e
            v = prof.voltages
            support = v[chi != 0]
            assert (v.min(), v.max()) == (support.min(), support.max())
            want = pinv @ chi
            assert np.abs(v - want).max() <= 1e-9 * np.abs(want).max(), e
