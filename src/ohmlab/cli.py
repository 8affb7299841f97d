"""Command-line interface.

Subcommands: gen (regular | gadget | union), report, diagnose, sparsify, and
experiment (upperbound | localization | interpolation | lowerbound), each
experiment with only the options it reads. Output is CSV (or the graph text
format for gen) to --out or stdout, deterministic apart from the timestamp
header line, which --no-timestamp suppresses.

Exit codes: 0 success, 1 operational error, 2 a checked bound or identity
was violated (so CI can gate on the distinction).
"""

from __future__ import annotations

import sys
from datetime import datetime, timezone

import click
import numpy as np

from .errors import ConvergenceError
from .experiments import (
    ExperimentResult,
    render_csv,
    run_diagnose,
    run_interpolation,
    run_localization,
    run_lowerbound,
    run_report,
    run_sparsify,
    run_upperbound,
)
from .graphs import (
    Multigraph,
    gadget_subdivide,
    graph_text,
    graph_union,
    random_regular,
    read_graph,
)
from .linalg import _check_p
from .sparsify import read_partition

__all__ = ["main", "cli"]


def _parse_p_grid(text: str) -> tuple:
    """Comma-separated p values, each read by float(), which takes inf,
    INF, Infinity and surrounding blanks; a token float() cannot read exits
    1 with its ValueError."""
    grid = [float(tok) for tok in text.split(",") if tok.strip()]
    if not grid:
        raise click.BadParameter("empty p grid")
    try:
        return tuple(_check_p(p) for p in grid)
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from exc


def _parse_int_list(text: str, name: str) -> tuple:
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise click.BadParameter(f"bad {name} list {text!r}") from exc
    if not values:
        raise click.BadParameter(f"empty {name} list")
    return values


def _emit(ctx, text: str) -> None:
    out = ctx.obj["out"]
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _emit_result(ctx, result: ExperimentResult) -> None:
    stamp = None
    if not ctx.obj["no_timestamp"]:
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    _emit(ctx, render_csv(result, stamp))
    if result.violations:
        for msg in result.violations:
            click.echo(f"violation: {msg}", err=True)
        ctx.exit(2)


@click.group()
@click.option("--seed", type=int, default=1, show_default=True,
              help="Generator seed for gen regular and for the generated "
                   "base graph of interpolation and lowerbound; refused "
                   "where nothing reads it.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Output file (default stdout).")
@click.option("--no-timestamp", is_flag=True,
              help="Suppress the generated-at header line.")
@click.pass_context
def cli(ctx, seed, out, no_timestamp):
    """Electrical-flow routing laboratory."""
    ctx.obj = {"seed": seed, "out": out, "no_timestamp": no_timestamp}


def _refuse_seed(ctx, detail: str = "") -> None:
    """Exit 1 on an explicit global --seed that the command would ignore."""
    root = ctx.find_root()
    if root.get_parameter_source("seed") is not click.core.ParameterSource.DEFAULT:
        where = ctx.command_path[len(root.command_path) + 1:] + detail
        raise click.UsageError(f"--seed is not read by {where}")


@cli.group()
def gen():
    """Generate graphs in the text format."""


@gen.command("regular")
@click.option("--n", type=int, required=True, help="Vertex count.")
@click.option("--d", type=int, required=True, help="Degree (>= 3).")
@click.pass_context
def gen_regular(ctx, n, d):
    """Random d-regular simple connected graph (pairing model), seeded by
    the global --seed."""
    _emit(ctx, graph_text(random_regular(n, d, ctx.obj["seed"])))
    return 0


@gen.command("gadget")
@click.option("--base", type=click.Path(exists=True, dir_okay=False), required=True,
              help="Base unit-weight graph file.")
@click.option("--k", type=int, required=True,
              help="Paths per edge and hops per path.")
@click.pass_context
def gen_gadget(ctx, base, k):
    """Replace each edge of the base by k disjoint k-hop paths."""
    _refuse_seed(ctx)
    g = read_graph(base)
    _emit(ctx, graph_text(gadget_subdivide(g, k)))
    return 0


@gen.command("union")
@click.option("--a", "path_a", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--b", "path_b", type=click.Path(exists=True, dir_okay=False), required=True)
@click.pass_context
def gen_union(ctx, path_a, path_b):
    """Edge-disjoint union of two graphs on a shared id space."""
    _refuse_seed(ctx)
    _emit(ctx, graph_text(graph_union(read_graph(path_a), read_graph(path_b))))
    return 0


@cli.command()
@click.argument("graph", type=click.Path(exists=True, dir_okay=False))
@click.option("--p", "p_grid", default="inf", show_default=True,
              help="Comma-separated p grid, e.g. 1,2,inf.")
@click.pass_context
def report(ctx, graph, p_grid):
    """Competitive ratios against the 3 ln(vol)/phi routing bound."""
    _refuse_seed(ctx)
    g = read_graph(graph)
    result = run_report(g, _parse_p_grid(p_grid))
    return _emit_result(ctx, result)


@cli.command()
@click.argument("graph", type=click.Path(exists=True, dir_okay=False))
@click.option("--edge", type=int, default=0, show_default=True,
              help="Edge index whose unit demand is diagnosed.")
@click.option("--samples", type=int, default=50, show_default=True)
@click.pass_context
def diagnose(ctx, graph, edge, samples):
    """Threshold-cut diagnostics for one unit edge demand."""
    _refuse_seed(ctx)
    g = read_graph(graph)
    result = run_diagnose(g, edge, samples)
    return _emit_result(ctx, result)


@cli.command()
@click.argument("graph", type=click.Path(exists=True, dir_okay=False))
@click.option("--partition", "partition_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Partition file (C:/F: lines).")
@click.option("--x", "x_text", required=True,
              help="Comma-separated 0/1 boundary values, one per terminal "
                   "in ascending id order.")
@click.pass_context
def sparsify(ctx, graph, partition_path, x_text):
    """Schur weights, boundary extensions, and the rounding check."""
    _refuse_seed(ctx)
    g = read_graph(graph)
    part = read_partition(partition_path, g.n)
    x = np.array([float(tok) for tok in x_text.split(",") if tok.strip()])
    result = run_sparsify(g, part, x)
    return _emit_result(ctx, result)


# each experiment's options, shared by the experiments that read them
_GRID_OPTIONS = (
    click.Option(["--n-list"], default="10,12,16,20", show_default=True),
    click.Option(["--d-list"], default="3,4", show_default=True),
    click.Option(["--seeds"], default="1,2,3,4,5", show_default=True),
)
_BASE_OPTIONS = (
    click.Option(["--p", "p_grid"], default="inf,2", show_default=True),
    click.Option(["--graph", "graph_path"], type=click.Path(exists=True, dir_okay=False),
                 help="Base graph file (default: random_regular(10, 3, --seed))."),
)


def _grid(n_list: str, d_list: str, seeds: str) -> tuple:
    return (_parse_int_list(n_list, "n"), _parse_int_list(d_list, "d"),
            _parse_int_list(seeds, "seed"))


def _base_graph(ctx, graph_path) -> Multigraph:
    """The --graph file, else random_regular(10, 3, global --seed); any other
    base is written by gen regular and passed with --graph."""
    if graph_path:
        _refuse_seed(ctx, " with --graph")
        return read_graph(graph_path)
    return random_regular(10, 3, ctx.obj["seed"])


@cli.group()
def experiment():
    """Run one of the paper's experiments and emit its CSV."""


@experiment.command(params=list(_GRID_OPTIONS))
@click.pass_context
def upperbound(ctx, n_list, d_list, seeds):
    """rho_inf against 3 ln(vol)/phi on a regular-graph grid."""
    _refuse_seed(ctx, " (it reads --seeds)")
    return _emit_result(ctx, run_upperbound(*_grid(n_list, d_list, seeds)))


@experiment.command(params=list(_GRID_OPTIONS))
@click.pass_context
def localization(ctx, n_list, d_list, seeds):
    """Localization against rho_inf and its bounds on a regular-graph grid."""
    _refuse_seed(ctx, " (it reads --seeds)")
    return _emit_result(ctx, run_localization(*_grid(n_list, d_list, seeds)))


@experiment.command(params=list(_BASE_OPTIONS))
@click.pass_context
def interpolation(ctx, p_grid, graph_path):
    """rho_p against its interpolation bounds on one unit-weight graph."""
    p_grid = _parse_p_grid(p_grid)
    g = _base_graph(ctx, graph_path)
    return _emit_result(ctx, run_interpolation(g, p_grid))


@experiment.command(params=[
    *_BASE_OPTIONS, click.Option(["--k-list"], default="1,2,3,4", show_default=True)])
@click.pass_context
def lowerbound(ctx, p_grid, graph_path, k_list):
    """Ratios of the base graph united with its k-gadget, one row per k."""
    p_grid, k_list = _parse_p_grid(p_grid), _parse_int_list(k_list, "k")
    base = _base_graph(ctx, graph_path)
    return _emit_result(ctx, run_lowerbound(base, k_list, p_grid))


def main(argv=None) -> None:
    try:
        rc = cli.main(args=argv, standalone_mode=False, obj={})
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except click.Abort:
        sys.exit(1)
    except (ValueError, OSError, ConvergenceError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    sys.exit(rc if isinstance(rc, int) else 0)


if __name__ == "__main__":
    main()
