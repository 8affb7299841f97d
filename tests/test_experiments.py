import functools
import math

import numpy as np
import pytest

import ohmlab
from ohmlab import (
    Partition,
    conductance_bounds,
    conductance_exact,
    cycle_graph,
    path_graph,
    random_regular,
)
from ohmlab.graphs import EXACT_CONDUCTANCE_CAP
from ohmlab.experiments import (
    ExperimentResult,
    format_value,
    render_csv,
    run_diagnose,
    run_interpolation,
    run_localization,
    run_lowerbound,
    run_report,
    run_sparsify,
    run_upperbound,
)

from conftest import complete_graph


class TestRenderCsv:
    def test_layout(self):
        res = ExperimentResult(("a", "b"), [(1.0, np.inf)], ["note"], [])
        text = render_csv(res, timestamp="2026-01-01T00:00:00+00:00")
        lines = text.strip().split("\n")
        assert lines[0] == "# generated 2026-01-01T00:00:00+00:00"
        assert lines[1] == "# note"
        assert lines[2] == "a,b"
        assert lines[3] == "1,inf"

    def test_no_timestamp(self):
        res = ExperimentResult(("a",), [(0.5,)], [], [])
        assert render_csv(res) == "a\n0.5\n"

    def test_format_value(self):
        assert format_value(np.inf) == "inf"
        assert format_value(1.0) == "1"
        assert format_value(1.0 / 3.0) == "0.333333333333"
        assert format_value("x") == "x"


def _reference_format_value(v) -> str:
    """The per-value formatter render_csv and format_value must agree with."""
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return f"{v:.12g}"
    return str(v)


def _reference_render_csv(result, timestamp=None) -> str:
    lines = [f"# generated {timestamp}"] if timestamp else []
    lines.extend(f"# {c}" for c in result.comments)
    lines.append(",".join(result.header))
    for row in result.rows:
        lines.append(",".join(_reference_format_value(v) for v in row))
    return "\n".join(lines) + "\n"


_VALUES = [
    np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0 / 3.0,
    123456789012.5, 1e-7, 2.0**53 + 2.0, np.float64(np.inf), np.float64(-np.inf),
    np.float64(np.nan), np.float64(-0.0), np.float64(0.1), np.float64(5e-324),
    np.float32(0.1), np.float32(np.inf), np.float32(-0.0), np.int64(-7), np.int64(2**62),
    7, True, False, np.bool_(True), "x", "", "1.0", "inf",
]


class TestRowFormatsMatchTheValueFormatter:
    def test_format_value(self):
        for v in _VALUES:
            assert format_value(v) == _reference_format_value(v), repr(v)

    def test_tuple_and_list_rows(self):
        rng = np.random.default_rng(0)
        rows = [tuple(_VALUES)] + [
            list(rng.permutation(np.array(_VALUES, dtype=object))[:4]) for _ in range(200)
        ]
        rows += [tuple(row) for row in rows[1:50]]
        # one type signature, then values of other types in the same positions
        rows += [(1.0, "a", 2), ("a", 1.0, 2), (1, 2.0, "b"), (1.0, "a", 2)]
        res = ExperimentResult(("a", "b"), rows, ["note 0.1"], [])
        assert render_csv(res) == _reference_render_csv(res)
        stamp = "2026-01-01T00:00:00+00:00"
        assert render_csv(res, stamp) == _reference_render_csv(res, stamp)

    def test_experiment_tables(self):
        g = random_regular(40, 3, 2)
        for res in (
            run_report(g, (1.0, 2.0, np.inf)),
            run_diagnose(g, 5, samples=7),
            run_lowerbound(cycle_graph(6), [1, 2], (np.inf, 2.0)),
            run_upperbound([10], [3], [1]),
        ):
            assert render_csv(res) == _reference_render_csv(res)


class TestRunReport:
    def test_columns_and_slack(self):
        g = random_regular(12, 3, 1)
        res = run_report(g, (np.inf, 2.0))
        assert res.header == ("p", "rho", "bound", "slack")
        assert len(res.rows) == 2
        for _, rho, bound, slack in res.rows:
            assert slack == pytest.approx(bound - rho, abs=1e-12)
            assert slack >= 0
        assert res.violations == []

    def test_violation_plumbing(self, monkeypatch):
        monkeypatch.setattr(ohmlab.experiments, "SLACK_TOL", -1e9)
        res = run_report(cycle_graph(4), (np.inf,))
        assert res.violations

    def test_weighted_graph_reported(self):
        g = ohmlab.Multigraph.from_edges(2, [(0, 1, 3.0)])
        res = run_report(g, (np.inf,))
        assert res.rows[0][1] == pytest.approx(1.0, abs=1e-8)


class TestRunDiagnose:
    def test_k2(self):
        res = run_diagnose(complete_graph(2), 0)
        assert res.header == (
            "t", "delta", "vol_geq", "volplus", "dvolplus_dt", "crossing_flow",
        )
        assert res.violations == []
        assert any("breakpoints 2" in c for c in res.comments)
        assert len(res.rows) == 1

    def test_expander_clean(self):
        g = random_regular(10, 3, 1)
        res = run_diagnose(g, 3)
        assert res.violations == []
        flows = [row[5] for row in res.rows]
        assert max(abs(f - 1.0) for f in flows) <= 1e-8

    def test_edge_out_of_range(self):
        with pytest.raises(ValueError):
            run_diagnose(cycle_graph(4), 99)

    def test_no_sweep_cut(self, monkeypatch):
        # diagnose prints and checks phi_lower only, so the sweep never runs
        above = random_regular(EXACT_CONDUCTANCE_CAP + 6, 3, 1)
        cheeger = conductance_bounds(above)[0]
        at_cap = random_regular(EXACT_CONDUCTANCE_CAP, 3, 1)
        exact = {g.n: conductance_exact(g) for g in (at_cap, cycle_graph(9))}

        def no_sweep(*args, **kwargs):
            raise AssertionError("sweep cut computed")

        monkeypatch.setattr(ohmlab.graphs, "_sweep_cut", no_sweep)
        res = run_diagnose(above, 0)
        assert f"phi (cheeger-lower-bound): {format_value(cheeger.phi)}" in res.comments
        for g in (at_cap, cycle_graph(9)):
            res = run_diagnose(g, 0)
            assert f"phi (exact): {format_value(exact[g.n].phi)}" in res.comments

    def test_lower_certificate_is_the_brackets(self):
        for seed in range(1, 4):
            g = random_regular(60, 4, seed)
            lower, upper = ohmlab.routing._conductance(g, sweep=False)
            assert (lower, upper) == (conductance_bounds(g)[0], None)
        g = random_regular(EXACT_CONDUCTANCE_CAP, 3, 2)
        (lower, upper), (exact, _) = (ohmlab.routing._conductance(g, sweep=False),
                                      ohmlab.routing._conductance(g))
        assert lower is upper
        assert (lower.phi, lower.kind) == (exact.phi, "exact")
        assert np.array_equal(lower.witness, exact.witness)
        # report and diagnose print that one certificate: exact on 16
        # vertices, lambda_2 / 2 on 30
        for n, kind in ((16, "exact"), (30, "cheeger-lower-bound")):
            g = random_regular(n, 3, 3)
            printed = [[c for c in res.comments if c.startswith("phi (")]
                       for res in (run_report(g, (np.inf,)), run_diagnose(g, 0))]
            assert printed[0] == printed[1]
            assert len(printed[0]) == 1 and printed[0][0].startswith(f"phi ({kind}): ")

    def test_disconnected_refused_as_by_the_bracket(self):
        ring = [(i, (i + 1) % 15) for i in range(15)]
        g = ohmlab.Multigraph.from_edges(30, ring + [(15 + a, 15 + b) for a, b in ring])
        with pytest.raises(ohmlab.DisconnectedError) as bracket:
            conductance_bounds(g)
        with pytest.raises(ohmlab.DisconnectedError) as lower:
            ohmlab.routing._conductance(g, sweep=False)
        assert str(lower.value) == str(bracket.value)

    def test_one_profile_one_table(self, monkeypatch):
        # both half-axes of the derivative check read the profile's one table
        cls = ohmlab.thresholds.ThresholdProfile
        build, made, tabled = cls.table.func, [], []

        def construct(*args, **kwargs):
            made.append(cls(*args, **kwargs))
            return made[-1]

        def table(profile):
            tabled.append(profile)
            return build(profile)

        counted = functools.cached_property(table)
        counted.__set_name__(cls, "table")
        monkeypatch.setattr(ohmlab.thresholds, "ThresholdProfile", construct)
        monkeypatch.setattr(cls, "table", counted)
        res = run_diagnose(random_regular(30, 3, 1), 0, samples=5)
        assert res.violations == [] and len(res.rows) == 5
        assert len(made) == 1
        assert len(tabled) == 1 and tabled[0] is made[0]


class TestGatesAgree:
    """Every printed value meets its printed bound under one rule: a
    violation when it exceeds the bound by more than SLACK_TOL = 1e-6,
    absolute, in every runner. Upperbound and lowerbound used to scale the
    tolerance by the bound, so at bound 10 they let 10 + 5e-6 pass."""

    @staticmethod
    def _reports(monkeypatch, rho, localization=None):
        # every report rho at each p, against bound 10
        def fake(g, p_list=(math.inf,), bracket=False):
            return ohmlab.routing.CompetitiveReport(
                g.n, g.m, float(2 * g.m), 0.5, 0.5, "exact",
                dict.fromkeys(map(float, p_list), rho), 10.0, localization, 0.0)

        monkeypatch.setattr(ohmlab.experiments, "competitive_report", fake)

    @pytest.mark.parametrize("excess, flagged", [(5e-6, True), (5e-7, False)])
    def test_every_runner_flags_the_same_excess(self, monkeypatch, excess, flagged):
        value = 10.0 + excess
        v = format_value(value)
        g = random_regular(10, 3, 1)
        self._reports(monkeypatch, value)
        got = {
            "report": run_report(g, (np.inf,)).violations,
            "upperbound": run_upperbound([10], [3], [1]).violations,
            "lowerbound": run_lowerbound(g, [1], (np.inf,)).violations,
        }
        self._reports(monkeypatch, 10.0, localization=value)
        got["localization"] = run_localization([10], [3], [1]).violations
        monkeypatch.setattr(ohmlab.experiments, "_ratios", lambda g, ps: (
            {1.0: 10.0, 2.0: 10.0, math.inf: 10.0, 3.0: value}, None, 0.0))
        got["interpolation"] = run_interpolation(g, (3.0,)).violations
        expected = {
            "report": [f"p=inf: rho {v} exceeds bound 10"],
            "upperbound": [f"n=10 d=3 seed=1: rho_inf {v} exceeds bound 10"],
            "lowerbound": [f"k=1: rho_inf {v} exceeds bound 10"],
            "localization": [f"n=10 d=3 seed=1: localization {v} exceeds rho_inf 10",
                             f"n=10 d=3 seed=1: localization {v} exceeds bound 10"],
            "interpolation": [f"p=3: rho {v} exceeds interpolation bound 10",
                              f"p=3: rho {v} exceeds spectral bound 10"],
        }
        assert got == (expected if flagged else dict.fromkeys(expected, []))


class TestRunSparsify:
    def test_path_sections(self):
        g = path_graph(3)
        part = Partition.from_eliminated(3, [1])
        res = run_sparsify(g, part, np.array([1.0, 0.0]))
        sections = {}
        for section, u, v, value in res.rows:
            sections.setdefault(section, []).append((u, v, value))
        assert sections["schur-weight"] == [("0", "2", pytest.approx(0.5))]
        assert sections["harmonic"][0][2] == pytest.approx(0.5)
        assert sections["l1-minimum"][0][2] == pytest.approx(1.0)
        assert sections["rounding-gap"][0][2] == pytest.approx(0.0, abs=1e-12)

    def test_all_ones_boundary(self):
        g = cycle_graph(5)
        part = Partition.from_eliminated(5, [2])
        res = run_sparsify(g, part, np.ones(4))
        vals = {row[0]: row[3] for row in res.rows}
        assert vals["l1-minimum"] == pytest.approx(0.0, abs=1e-12)


class TestExperiments:
    def test_upperbound_rows(self):
        res = run_upperbound((10, 12), (3,), (1, 2))
        assert res.header == ("n", "d", "seed", "phi", "rho_inf", "bound", "ratio")
        assert len(res.rows) == 4
        for n, d, seed, phi, rho, bound, ratio in res.rows:
            assert rho <= bound
            assert ratio == pytest.approx(rho / bound, abs=1e-12)
        assert res.violations == []

    def test_interpolation_bounds_dominate(self):
        g = random_regular(10, 3, 1)
        res = run_interpolation(g, (1.5, 2.0, 3.0, np.inf))
        assert res.header == ("p", "rho_p", "interp_bound", "spectral_bound")
        rows = {row[0]: row for row in res.rows}
        for p, rho, interp, spectral in res.rows:
            assert rho <= interp + 1e-6
            assert rho <= spectral + 1e-6
        # p = 2 collapses the spectral bound; p = inf collapses the interp one
        assert rows["2"][3] == pytest.approx(rows["2"][1], abs=1e-9)
        assert rows["inf"][2] == pytest.approx(rows["inf"][1], abs=1e-9)
        assert res.violations == []

    def test_interpolation_at_p_one(self):
        # at p = 1 the interpolation bound is rho_1 itself, and the spectral
        # bound, through the dual exponent inf, is rho_inf
        g = random_regular(10, 3, 1)
        (row,) = run_interpolation(g, (1.0,)).rows
        assert row[0] == "1"
        assert row[2] == row[1] == pytest.approx(ohmlab.competitive_ratio(g, 1.0), rel=1e-9)
        assert row[3] == pytest.approx(ohmlab.competitive_ratio_inf(g), rel=1e-9)

    def test_interpolation_refuses_a_weighted_graph(self):
        g = ohmlab.Multigraph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 1.0)])
        with pytest.raises(ValueError, match="unit-weight"):
            run_interpolation(g, (2.0,))

    def test_lowerbound_monotone(self):
        res = run_lowerbound(random_regular(10, 3, 1), (1, 2, 3), (np.inf,))
        assert res.header[:6] == ("k", "n", "m", "phi_lower", "phi_upper", "rho_inf")
        rhos = [row[5] for row in res.rows]
        assert rhos == sorted(rhos)
        uppers = [row[4] for row in res.rows]
        for a, b in zip(uppers, uppers[1:]):
            assert b <= a + 1e-9
        # k = 1 is the doubled base graph and reproduces its ratio
        base = random_regular(10, 3, 1)
        assert rhos[0] == pytest.approx(ohmlab.competitive_ratio_inf(base), abs=1e-8)

    def test_lowerbound_finite_p_columns(self):
        res = run_lowerbound(random_regular(6, 3, 1), (1, 2), (2.0, np.inf))
        assert res.header[-1] == "rho_p_2"
        for row in res.rows:
            assert row[-1] >= 1.0 - 1e-6

    def test_localization_bounds(self):
        res = run_localization((10,), (3,), (1, 2))
        assert res.header == (
            "n", "d", "seed", "localization", "rho_inf", "phi_bound", "logsq_bound",
        )
        for n, d, seed, loc, rho, phi_bound, logsq in res.rows:
            assert loc <= rho + 1e-10
            assert loc <= min(phi_bound, logsq) + 1e-6
        assert res.violations == []
