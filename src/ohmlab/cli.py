"""Command-line interface.

Subcommands: gen (regular | gadget | union), report, diagnose, sparsify, and
experiment (upperbound | interpolation | lowerbound | localization). Output
is CSV (or the graph text format for gen) to --out or stdout, deterministic
apart from the timestamp header line, which --no-timestamp suppresses.

Exit codes: 0 success, 1 operational error, 2 a checked bound or identity
was violated (so CI can gate on the distinction).
"""

from __future__ import annotations

import sys
from datetime import datetime, timezone

import click
import numpy as np

from .errors import ConvergenceError, DisconnectedError, SizeLimitError
from .experiments import (
    EXPERIMENT_NAMES,
    ExperimentConfig,
    ExperimentResult,
    render_csv,
    run_diagnose,
    run_experiment,
    run_report,
    run_sparsify,
)
from .graphs import (
    DEFAULT_EDGE_CAP,
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
    grid = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok.lower() in ("inf", "infinity", "oo"):
            grid.append(float("inf"))
        else:
            grid.append(float(tok))
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
@click.option("--tol", type=float, default=1e-10, show_default=True,
              help="Laplacian solver tolerance.")
@click.option("--seed", type=int, default=1, show_default=True,
              help="Default generator seed.")
@click.option("--cap-edges", type=int, default=DEFAULT_EDGE_CAP, show_default=True,
              help="Edge-count cap for gadget and capacity expansion.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Output file (default stdout).")
@click.option("--no-timestamp", is_flag=True,
              help="Suppress the generated-at header line.")
@click.pass_context
def cli(ctx, tol, seed, cap_edges, out, no_timestamp):
    """Electrical-flow routing laboratory."""
    ctx.obj = {
        "tol": tol,
        "seed": seed,
        "cap_edges": cap_edges,
        "out": out,
        "no_timestamp": no_timestamp,
    }


@cli.group()
def gen():
    """Generate graphs in the text format."""


@gen.command("regular")
@click.option("--n", type=int, required=True, help="Vertex count.")
@click.option("--d", type=int, required=True, help="Degree (>= 3).")
@click.option("--seed", "seed_opt", type=int, default=None,
              help="Seed (defaults to the global --seed).")
@click.pass_context
def gen_regular(ctx, n, d, seed_opt):
    """Random d-regular simple connected graph (pairing model)."""
    seed = ctx.obj["seed"] if seed_opt is None else seed_opt
    g = random_regular(n, d, seed)
    _emit(ctx, graph_text(g))
    return 0


@gen.command("gadget")
@click.option("--base", type=click.Path(exists=True, dir_okay=False), required=True,
              help="Base unit-weight graph file.")
@click.option("--k", type=int, required=True,
              help="Paths per edge and hops per path.")
@click.pass_context
def gen_gadget(ctx, base, k):
    """Replace each edge of the base by k disjoint k-hop paths."""
    g = read_graph(base)
    _emit(ctx, graph_text(gadget_subdivide(g, k, ctx.obj["cap_edges"])))
    return 0


@gen.command("union")
@click.option("--a", "path_a", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--b", "path_b", type=click.Path(exists=True, dir_okay=False), required=True)
@click.pass_context
def gen_union(ctx, path_a, path_b):
    """Edge-disjoint union of two graphs on a shared id space."""
    _emit(ctx, graph_text(graph_union(read_graph(path_a), read_graph(path_b))))
    return 0


@cli.command()
@click.argument("graph", type=click.Path(exists=True, dir_okay=False))
@click.option("--p", "p_grid", default="inf", show_default=True,
              help="Comma-separated p grid, e.g. 1,2,inf.")
@click.pass_context
def report(ctx, graph, p_grid):
    """Competitive ratios against the 3 ln(vol)/phi routing bound."""
    g = read_graph(graph)
    result = run_report(g, _parse_p_grid(p_grid), ctx.obj["tol"])
    return _emit_result(ctx, result)


@cli.command()
@click.argument("graph", type=click.Path(exists=True, dir_okay=False))
@click.option("--edge", type=int, default=0, show_default=True,
              help="Edge index whose unit demand is diagnosed.")
@click.option("--samples", type=int, default=50, show_default=True)
@click.pass_context
def diagnose(ctx, graph, edge, samples):
    """Threshold-cut diagnostics for one unit edge demand."""
    g = read_graph(graph)
    result = run_diagnose(g, edge, samples, ctx.obj["tol"])
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
    g = read_graph(graph)
    part = read_partition(partition_path, g.n)
    bits = [tok.strip() for tok in x_text.split(",") if tok.strip()]
    if len(bits) != part.terminals.size:
        raise click.BadParameter(
            f"--x needs {part.terminals.size} values, got {len(bits)}"
        )
    x = np.array([float(b) for b in bits])
    result = run_sparsify(g, part, x)
    return _emit_result(ctx, result)


@cli.command()
@click.argument("name", type=click.Choice(EXPERIMENT_NAMES))
@click.option("--n-list", default="10,12,16,20", show_default=True)
@click.option("--d-list", default="3,4", show_default=True)
@click.option("--seeds", default="1,2,3,4,5", show_default=True)
@click.option("--p", "p_grid", default="inf,2", show_default=True)
@click.option("--k-list", default="1,2,3,4", show_default=True)
@click.option("--graph", "graph_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Explicit base graph for interpolation/lowerbound.")
@click.option("--base-n", type=int, default=10, show_default=True)
@click.option("--base-d", type=int, default=3, show_default=True)
@click.pass_context
def experiment(ctx, name, n_list, d_list, seeds, p_grid, k_list, graph_path,
               base_n, base_d):
    """Run a named experiment and emit its CSV."""
    cfg = ExperimentConfig(
        name=name,
        n_list=_parse_int_list(n_list, "n"),
        d_list=_parse_int_list(d_list, "d"),
        seeds=_parse_int_list(seeds, "seed"),
        p_grid=_parse_p_grid(p_grid),
        k_list=_parse_int_list(k_list, "k"),
        base_n=base_n,
        base_d=base_d,
        base_seed=ctx.obj["seed"],
        tol=ctx.obj["tol"],
        cap_edges=ctx.obj["cap_edges"],
    )
    graph = read_graph(graph_path) if graph_path else None
    result = run_experiment(cfg, graph)
    return _emit_result(ctx, result)


def main(argv=None) -> None:
    try:
        rc = cli.main(args=argv, standalone_mode=False, obj={})
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except click.Abort:
        sys.exit(1)
    except (ValueError, OSError, DisconnectedError, SizeLimitError,
            ConvergenceError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    sys.exit(rc if isinstance(rc, int) else 0)


if __name__ == "__main__":
    main()
