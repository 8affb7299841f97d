import numpy as np
import pytest
from click.testing import CliRunner

import ohmlab
import ohmlab.experiments
from ohmlab import (
    Partition,
    competitive_ratio_operator,
    path_graph,
    random_regular,
    read_graph,
    route_electrical,
    write_graph,
    write_partition,
)
from ohmlab.cli import cli
from ohmlab.routing import _endpoint_pairs


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def small_graph(tmp_path):
    p = tmp_path / "g.txt"
    write_graph(random_regular(10, 3, 1), p)
    return str(p)


def invoke(runner, args, **kw):
    return runner.invoke(cli, args, obj={}, catch_exceptions=False, **kw)


class TestGen:
    def test_regular_to_file(self, runner, tmp_path):
        out = tmp_path / "g.txt"
        res = invoke(runner, ["--out", str(out), "gen", "regular", "--n", "10", "--d", "3"])
        assert res.exit_code == 0
        g = read_graph(out)
        assert (g.n, g.m) == (10, 15)

    def test_regular_deterministic_bytes(self, runner, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            invoke(runner, ["--seed", "9", "--out", str(out), "gen", "regular",
                            "--n", "12", "--d", "3"])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_option_overrides_global(self, runner, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        invoke(runner, ["--seed", "1", "--out", str(a), "gen", "regular",
                        "--n", "10", "--d", "3", "--seed", "5"])
        invoke(runner, ["--seed", "5", "--out", str(b), "gen", "regular",
                        "--n", "10", "--d", "3"])
        assert a.read_bytes() == b.read_bytes()

    def test_gadget_and_union(self, runner, tmp_path, small_graph):
        gpath = tmp_path / "gadget.txt"
        upath = tmp_path / "union.txt"
        res = invoke(runner, ["--out", str(gpath), "gen", "gadget",
                              "--base", small_graph, "--k", "2"])
        assert res.exit_code == 0
        gk = read_graph(gpath)
        assert gk.m == 15 * 4
        res = invoke(runner, ["--out", str(upath), "gen", "union",
                              "--a", small_graph, "--b", str(gpath)])
        assert res.exit_code == 0
        u = read_graph(upath)
        assert u.m == 15 + 60

    def test_stdout_when_no_out(self, runner):
        res = invoke(runner, ["gen", "regular", "--n", "10", "--d", "3"])
        assert res.exit_code == 0
        assert res.output.startswith("10 15\n")


class TestReport:
    def test_csv_shape(self, runner, small_graph):
        res = invoke(runner, ["--no-timestamp", "report", small_graph,
                              "--p", "inf,2"])
        assert res.exit_code == 0
        lines = res.output.strip().split("\n")
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "p,rho,bound,slack"
        assert len(data) == 3
        assert data[1].startswith("inf,")

    def test_timestamp_header_line(self, runner, small_graph):
        res = invoke(runner, ["report", small_graph])
        assert res.output.startswith("# generated ")

    def test_no_timestamp_reruns_identical(self, runner, small_graph):
        outs = [
            invoke(runner, ["--no-timestamp", "report", small_graph]).output
            for _ in range(2)
        ]
        assert outs[0] == outs[1]

    def test_out_file(self, runner, small_graph, tmp_path):
        out = tmp_path / "report.csv"
        res = invoke(runner, ["--no-timestamp", "--out", str(out), "report",
                              small_graph])
        assert res.exit_code == 0
        assert out.read_text().startswith("#")

    def test_weighted_graph_finite_p(self, runner, tmp_path):
        gpath = tmp_path / "w.txt"
        gpath.write_text("4 5\n0 1 2.0\n1 2 1.0\n2 3 3.0\n3 0 1.0\n0 2 1.0\n")
        res = invoke(runner, ["--no-timestamp", "report", str(gpath), "--p", "2,inf"])
        assert res.exit_code == 0
        rows = [l.split(",") for l in res.output.strip().split("\n")
                if not l.startswith("#")][1:]
        rho = {p: float(value) for p, value, _, _ in rows}
        g = read_graph(gpath)
        reference = competitive_ratio_operator(g, lambda chi: route_electrical(g, chi), 2.0)
        assert rho["2"] == pytest.approx(reference, rel=1e-9)
        assert rho["2"] == pytest.approx(1.55209, abs=1e-5)


class TestDiagnose:
    def test_columns(self, runner, small_graph):
        res = invoke(runner, ["--no-timestamp", "diagnose", small_graph,
                              "--edge", "1", "--samples", "10"])
        assert res.exit_code == 0
        lines = res.output.strip().split("\n")
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "t,delta,vol_geq,volplus,dvolplus_dt,crossing_flow"
        assert any(l.startswith("# breakpoints") for l in lines)

    def test_clean_run_exits_zero(self, runner, small_graph):
        res = invoke(runner, ["diagnose", small_graph])
        assert res.exit_code == 0


class TestSparsify:
    def test_path_instance(self, runner, tmp_path):
        gpath = tmp_path / "p3.txt"
        ppath = tmp_path / "part.txt"
        write_graph(path_graph(3), gpath)
        write_partition(Partition.from_eliminated(3, [1]), ppath)
        res = invoke(runner, ["--no-timestamp", "sparsify", str(gpath),
                              "--partition", str(ppath), "--x", "1,0"])
        assert res.exit_code == 0
        assert "schur-weight,0,2,0.5" in res.output
        assert "l1-minimum,,,1" in res.output

    def test_wrong_x_arity(self, runner, tmp_path):
        gpath = tmp_path / "p3.txt"
        ppath = tmp_path / "part.txt"
        write_graph(path_graph(3), gpath)
        write_partition(Partition.from_eliminated(3, [1]), ppath)
        res = runner.invoke(cli, ["sparsify", str(gpath), "--partition",
                                  str(ppath), "--x", "1"], obj={})
        assert res.exit_code != 0


class TestExperiment:
    def test_upperbound(self, runner):
        res = invoke(runner, ["--no-timestamp", "experiment", "upperbound",
                              "--n-list", "10", "--d-list", "3",
                              "--seeds", "1,2"])
        assert res.exit_code == 0
        lines = res.output.strip().split("\n")
        assert lines[0] == "n,d,seed,phi,rho_inf,bound,ratio"
        assert len(lines) == 3

    def test_interpolation_with_graph(self, runner, small_graph):
        res = invoke(runner, ["--no-timestamp", "experiment", "interpolation",
                              "--graph", small_graph, "--p", "1.5,2,inf"])
        assert res.exit_code == 0
        assert "p,rho_p,interp_bound,spectral_bound" in res.output

    def test_lowerbound(self, runner):
        res = invoke(runner, ["--no-timestamp", "experiment", "lowerbound",
                              "--base-n", "10", "--base-d", "3",
                              "--k-list", "1,2", "--p", "inf"])
        assert res.exit_code == 0
        lines = [l for l in res.output.strip().split("\n") if not l.startswith("#")]
        assert lines[0].startswith("k,n,m,phi_lower,phi_upper,rho_inf")
        assert len(lines) == 3

    def test_localization(self, runner):
        res = invoke(runner, ["--no-timestamp", "experiment", "localization",
                              "--n-list", "10", "--d-list", "3", "--seeds", "1"])
        assert res.exit_code == 0
        assert "localization" in res.output.split("\n")[0]

    def test_unknown_name_rejected(self, runner):
        res = runner.invoke(cli, ["experiment", "frobnicate"], obj={})
        assert res.exit_code != 0

    def test_violation_exits_two(self, runner, small_graph, monkeypatch):
        # force every slack check to trip to exercise the violation path
        monkeypatch.setattr(ohmlab.experiments, "SLACK_TOL", -1e9)
        res = runner.invoke(cli, ["--no-timestamp", "report", small_graph],
                            obj={})
        assert res.exit_code == 2
        assert "violation" in res.output


class TestSolveCounts:
    """Each distinct endpoint pair is solved exactly once per graph.

    A solve is a column through the block entry point or a conjugate-gradient
    call; a column the factor misses and PCG solves again counts twice, so a
    fallback would show up as a repeat."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        block = ohmlab.linalg.solve_laplacian_block
        solve = ohmlab.linalg.solve_laplacian

        def counted_block(g, b, *args, **kwargs):
            calls.extend(tuple(np.flatnonzero(col)) for col in np.asarray(b).T)
            return block(g, b, *args, **kwargs)

        def counted(g, b, *args, **kwargs):
            calls.append(tuple(np.flatnonzero(b)))
            return solve(g, b, *args, **kwargs)

        for mod in (ohmlab.linalg, ohmlab.routing):
            monkeypatch.setattr(mod, "solve_laplacian_block", counted_block)
        for mod in (ohmlab.linalg, ohmlab.thresholds):
            monkeypatch.setattr(mod, "solve_laplacian", counted)
        return calls

    @staticmethod
    def assert_one_solve_per_pair(res, calls, g):
        assert res.exit_code == 0
        assert len(set(calls)) == len(calls) == len(_endpoint_pairs(g))

    def test_report_all_p(self, runner, small_graph, solves):
        res = invoke(runner, ["--no-timestamp", "report", small_graph, "--p", "1,2,inf"])
        self.assert_one_solve_per_pair(res, solves, read_graph(small_graph))

    def test_localization_one_graph(self, runner, solves):
        res = invoke(runner, ["--no-timestamp", "experiment", "localization",
                              "--n-list", "12", "--d-list", "3", "--seeds", "2"])
        self.assert_one_solve_per_pair(res, solves, random_regular(12, 3, 2))

    def test_interpolation(self, runner, solves):
        res = invoke(runner, ["--no-timestamp", "experiment", "interpolation"])
        self.assert_one_solve_per_pair(res, solves, random_regular(10, 3, 1))


class TestMainEntry:
    def test_missing_file_exit_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            ohmlab.cli.main(["report", "/does/not/exist.txt"])
        assert exc.value.code == 1

    def test_success_exit_zero(self, tmp_path, capsys):
        gpath = tmp_path / "g.txt"
        write_graph(path_graph(3), gpath)
        with pytest.raises(SystemExit) as exc:
            ohmlab.cli.main(["--no-timestamp", "report", str(gpath)])
        assert exc.value.code == 0
        assert "p,rho,bound,slack" in capsys.readouterr().out

    @pytest.mark.parametrize("weight", ["inf", "nan"])
    def test_non_finite_weight_exit_one(self, tmp_path, capsys, weight):
        gpath = tmp_path / "tri.graph"
        gpath.write_text(f"3 3\n0 1 {weight}\n1 2 1\n2 0 1\n")
        with pytest.raises(SystemExit) as exc:
            ohmlab.cli.main(["--no-timestamp", "report", str(gpath)])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: edge weights must be finite and >= 1\n"

    def test_operational_error_message(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a graph\n")
        with pytest.raises(SystemExit) as exc:
            ohmlab.cli.main(["report", str(bad)])
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err
