import shlex
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import ohmlab
import ohmlab.experiments
from ohmlab import (
    Multigraph,
    Partition,
    cycle_graph,
    path_graph,
    random_regular,
    read_graph,
    route_electrical,
    write_graph,
    write_partition,
)
from ohmlab.cli import cli
from ohmlab.routing import _endpoint_pairs

from conftest import _grid, _run_python, competitive_ratio_operator


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def small_graph(tmp_path):
    p = tmp_path / "g.txt"
    write_graph(random_regular(10, 3, 1), p)
    return str(p)


# A tree of parallel edges with weights from 1 to 6.5e5: the grounded
# factor leaves the edge-0 demand a true residual of 2.89e-10 against the
# target 1.41e-10, and one refinement step against it meets the target.
# Conjugate gradient's recursive residual meets the target there before the
# true one does.
HEAVY_SEVEN = Multigraph(
    7, np.array([0, 3, 6, 5, 2, 1, 1, 2, 1, 1, 1, 3, 1, 6]),
    np.array([4, 0, 4, 6, 4, 2, 2, 4, 2, 2, 2, 0, 2, 4]),
    np.array([1.0, 1.0, 1.4086720826383612, 252.2846644908154, 1.0000000002302585,
              7547.07626263519, 654496.7026531898, 7547.07626263519, 6489.966314842168,
              485565.9370517034, 654496.7026531898, 485565.9370517034, 485565.9370517034,
              1.0]))


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

    def test_factored_miss_is_refined(self, runner, tmp_path):
        gpath = tmp_path / "heavy7.txt"
        write_graph(HEAVY_SEVEN, gpath)
        res = invoke(runner, ["--no-timestamp", "report", str(gpath), "--p", "1,2,inf"])
        assert res.exit_code == 0
        rows = [l.split(",") for l in res.output.strip().split("\n")
                if not l.startswith("#")][1:]
        assert [row[0] for row in rows] == ["1", "2", "inf"]


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

    @pytest.mark.parametrize("n, edge", [(3, 0), (3, 1), (4, 0), (50, 10), (50, 48)])
    def test_short_paths_exit_zero(self, runner, tmp_path, n, edge):
        # a voltage rounded one ulp past the sink used to fail the
        # crossing-flow check with exit code 2
        p = tmp_path / "path.txt"
        write_graph(path_graph(n), p)
        res = invoke(runner, ["--no-timestamp", "diagnose", str(p), "--edge", str(edge)])
        assert res.exit_code == 0, res.output

    @pytest.mark.parametrize("graph", [lambda: cycle_graph(3500), lambda: _grid(60, 60)],
                             ids=["cycle-3500", "grid-60x60"])
    def test_long_cycle_and_square_grid_exit_zero(self, tmp_path, graph):
        # above 400 vertices lambda_2 comes from Lanczos on a Chebyshev filter
        # of N; on a 2-vCPU x86-64 guest diagnose takes 0.6 s on this cycle
        # and 0.5 s on this grid, whose lambda_2 is double. Unshifted ARPACK
        # took 33 s on the cycle, so each run is a subprocess under a 60 s
        # timeout, and a hang fails the test rather than stalling the suite
        p = tmp_path / "g.txt"
        write_graph(graph(), p)
        proc = _run_python("-m", "ohmlab.cli", "--no-timestamp", "diagnose", str(p), timeout=60)
        assert proc.returncode == 0, proc.stderr


    def test_false_convergence_exits_zero(self, tmp_path):
        # diagnose solves by conjugate gradient; kept on its old direction
        # after a false convergence, edge 0's solve ran 149,831 iterations
        # and exited 1
        p = tmp_path / "heavy7.txt"
        write_graph(HEAVY_SEVEN, p)
        proc = _run_python("-m", "ohmlab.cli", "--no-timestamp", "diagnose", str(p),
                           "--edge", "0", timeout=30)
        assert proc.returncode == 0, proc.stderr


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

    def test_wrong_x_arity(self, tmp_path, capsys):
        # the library's one-value-per-terminal rule, with both counts
        gpath = tmp_path / "p3.txt"
        ppath = tmp_path / "part.txt"
        write_graph(path_graph(3), gpath)
        write_partition(Partition.from_eliminated(3, [1]), ppath)
        with pytest.raises(SystemExit) as exc:
            ohmlab.cli.main(["sparsify", str(gpath), "--partition", str(ppath), "--x", "1"])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: need one boundary value per terminal: 2 terminals, "
                       "got 1 values\n")


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

    def test_upperbound_default_grid(self, runner):
        res = invoke(runner, ["--no-timestamp", "experiment", "upperbound"])
        assert res.exit_code == 0
        lines = res.output.strip().split("\n")
        assert lines[0] == "n,d,seed,phi,rho_inf,bound,ratio"
        keys = [tuple(int(v) for v in line.split(",")[:3]) for line in lines[1:]]
        assert keys == [(n, d, seed) for n in (10, 12, 16, 20) for d in (3, 4)
                        for seed in (1, 2, 3, 4, 5)]

    @pytest.mark.parametrize("args", [
        ["interpolation"],
        ["lowerbound", "--k-list", "1,2"],
    ], ids=lambda args: args[0])
    def test_default_base_graph(self, runner, small_graph, args):
        # without --graph the base graph is random_regular(10, 3, --seed)
        generated = invoke(runner, ["--no-timestamp", "experiment", *args])
        explicit = invoke(runner, ["--no-timestamp", "experiment", *args,
                                   "--graph", small_graph])
        assert generated.exit_code == explicit.exit_code == 0
        assert generated.output == explicit.output

    @pytest.mark.parametrize("args", [
        ["report", "GRAPH", "--p", "50,1000,inf"],
        ["experiment", "interpolation", "--p", "1000,inf"],
    ], ids=["report", "interpolation"])
    def test_large_p_gives_a_finite_ratio(self, runner, tmp_path, args):
        # every vector p-norm divides by its largest entry before the power;
        # raised unscaled to p = 1000 the loads overflowed, and both commands
        # printed rho inf for p = 1000 and exited 2
        gpath = tmp_path / "g16.txt"
        write_graph(random_regular(16, 3, 3), gpath)
        args = [str(gpath) if a == "GRAPH" else a for a in args]
        res = invoke(runner, ["--no-timestamp", *args])
        assert res.exit_code == 0, res.output
        row = next(l for l in res.output.splitlines() if l.startswith("1000,"))
        assert np.isfinite(float(row.split(",")[1]))

    @pytest.mark.parametrize("args", [
        ["experiment", "frobnicate"],
        ["experiment", "upperbound", "--n-list", ""],
        ["experiment", "lowerbound", "--k-list", "0"],
    ])
    def test_bad_name_or_grid_rejected(self, runner, args):
        res = runner.invoke(cli, args, obj={})
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
    call. These graphs are factored: a column the factor misses is refined
    against the same factor inside the block call and counts once, and a
    conjugate-gradient call made from a block call would show up as a
    repeat."""

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
        assert len(set(calls)) == len(calls) == _endpoint_pairs(g)[0].size

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
        assert err == f"error: {gpath}: edge weights must be finite and >= 1\n"

    @pytest.mark.parametrize("args", [
        ["experiment", "upperbound", "--p", "2"],
        ["experiment", "upperbound", "--graph", "G"],
        ["experiment", "localization", "--k-list", "2"],
        ["experiment", "interpolation", "--seeds", "3"],
        ["experiment", "lowerbound", "--n-list", "10"],
        ["experiment", "interpolation", "--base-n", "12"],
        ["experiment", "lowerbound", "--base-d", "4"],
        ["--cap-edges", "5", "gen", "regular", "--n", "10", "--d", "3"],
        ["gen", "regular", "--n", "10", "--d", "3", "--seed", "5"],
    ], ids=" ".join)
    def test_option_not_read_is_refused(self, tmp_path, monkeypatch, capsys, args):
        monkeypatch.chdir(tmp_path)
        write_graph(path_graph(3), tmp_path / "G")
        with pytest.raises(SystemExit) as exc:
            ohmlab.cli.main(["--no-timestamp", *args])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "No such option" in err

    @pytest.mark.parametrize("args", [
        ["report", "G"],
        ["diagnose", "G"],
        ["sparsify", "G", "--partition", "P", "--x", "1,0,0"],
        ["gen", "gadget", "--base", "G", "--k", "2"],
        ["gen", "union", "--a", "G", "--b", "G"],
        ["experiment", "upperbound", "--n-list", "10", "--d-list", "3", "--seeds", "1"],
        ["experiment", "localization", "--n-list", "10", "--d-list", "3", "--seeds", "1"],
        ["experiment", "interpolation", "--graph", "G"],
        ["experiment", "lowerbound", "--graph", "G", "--k-list", "1"],
    ], ids=" ".join)
    def test_seed_not_read_is_refused(self, tmp_path, monkeypatch, capsys, args):
        # only gen regular and a generated experiment base graph read --seed
        monkeypatch.chdir(tmp_path)
        write_graph(cycle_graph(4), tmp_path / "G")
        write_partition(Partition.from_eliminated(4, [1]), tmp_path / "P")
        with pytest.raises(SystemExit) as exc:
            ohmlab.cli.main(["--no-timestamp", "--seed", "2", *args])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "--seed is not read by" in err
        # the same command without --seed runs
        with pytest.raises(SystemExit) as exc:
            ohmlab.cli.main(["--no-timestamp", *args])
        assert exc.value.code == 0

    def test_solver_tolerance_is_not_an_option(self, tmp_path, capsys):
        gpath = tmp_path / "g.txt"
        write_graph(path_graph(3), gpath)
        with pytest.raises(SystemExit) as exc:
            ohmlab.cli.main(["--tol", "1e-6", "report", str(gpath)])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "No such option" in err and "--tol" in err

    def test_p_is_read_by_float_alone(self, tmp_path, capsys):
        gpath = tmp_path / "g.txt"
        write_graph(random_regular(10, 3, 1), gpath)
        outputs = []
        for grid in ("2,inf", "2, INF "):
            with pytest.raises(SystemExit) as exc:
                ohmlab.cli.main(["--no-timestamp", "report", str(gpath), "--p", grid])
            assert exc.value.code == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].out.splitlines()[-1].startswith("inf,")
        with pytest.raises(SystemExit) as exc:
            ohmlab.cli.main(["--no-timestamp", "report", str(gpath), "--p", "oo"])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: could not convert string to float: 'oo'\n"

    @pytest.mark.parametrize("args, message", [
        (["report", "GRAPH", "--p", "0.5"], "Invalid value: p must be in [1, inf], got 0.5"),
        (["report", "GRAPH", "--p", ","], "Invalid value: empty p grid"),
        (["experiment", "upperbound", "--n-list", "1,x"], "Invalid value: bad n list '1,x'"),
    ])
    def test_bad_list_values_exit_one(self, tmp_path, capsys, args, message):
        gpath = tmp_path / "g.txt"
        write_graph(path_graph(3), gpath)
        with pytest.raises(SystemExit) as exc:
            ohmlab.cli.main([str(gpath) if a == "GRAPH" else a for a in args])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err

    def test_operational_error_message(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a graph\n")
        with pytest.raises(SystemExit) as exc:
            ohmlab.cli.main(["report", str(bad)])
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    def test_readme_command_block_runs(self, tmp_path, monkeypatch, capsys):
        # the "Command line" section: a part.txt block, then the commands,
        # run in order in an empty directory
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Command line\n", 1)[1].split("\n## ", 1)[0]
        blocks = section.split("```\n")[1::2]
        partition = next(b for b in blocks if b.startswith("C:"))
        commands = next(b for b in blocks if b.startswith("ohmlab "))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "part.txt").write_text(partition)
        codes = {}
        for line in commands.splitlines():
            argv = shlex.split(line)
            assert argv[0] == "ohmlab"
            with pytest.raises(SystemExit) as exc:
                ohmlab.cli.main(argv[1:])
            codes[line] = exc.value.code
        assert len(codes) == 7
        assert codes == dict.fromkeys(codes, 0), capsys.readouterr().err
