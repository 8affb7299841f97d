"""Experiment runners behind the command-line interface.

Each runner takes only the inputs it reads and produces an
ExperimentResult: a column header, data rows, leading comment lines, and a
list of violation messages. A nonempty violation list is what the CLI turns
into exit code 2, so CI can gate on bound violations. Every comparison of a
printed ratio against its printed bound is made by `_gate` under one rule: the
value exceeds the bound by more than SLACK_TOL. All numeric output is
formatted with %.12g, which makes reruns byte-identical.

The four paper experiments come in two shapes. run_upperbound and
run_localization sweep a grid of random regular graphs (n, d, seed);
run_interpolation and run_lowerbound take one unit-weight base graph, which
the CLI reads from a file or generates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .graphs import Multigraph, gadget_subdivide, graph_union, random_regular
from .routing import _conductance, _ratios, competitive_report, edge_demand
from .sparsify import (
    Partition,
    _full_vector,
    expected_cut_l1,
    harmonic_extension,
    min_l1_extension,
    schur_edge_weights,
)
from .thresholds import (
    DIAGNOSTIC_COLUMNS,
    check_derivative_bounds,
    check_integral_identity,
    check_unit_flow,
    diagnostic_rows,
    threshold_profile,
)

__all__ = [
    "ExperimentResult",
    "run_upperbound",
    "run_localization",
    "run_interpolation",
    "run_lowerbound",
    "run_report",
    "run_diagnose",
    "run_sparsify",
    "format_value",
    "render_csv",
]

SLACK_TOL = 1e-6


@dataclass
class ExperimentResult:
    header: Tuple[str, ...]
    rows: List[tuple]
    comments: List[str] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)


def format_value(v) -> str:
    """%.12g for a float (numpy float64 included; inf, -inf and nan print as
    such), str() for anything else."""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _gate(violations: List[str], where: str, name: str, value: float,
          bound_name: str, bound: float) -> None:
    """Append a violation when `value` exceeds `bound` by more than SLACK_TOL."""
    if value > bound + SLACK_TOL:
        violations.append(f"{where}: {name} {format_value(value)} exceeds "
                          f"{bound_name} {format_value(bound)}")


def render_csv(result: ExperimentResult, timestamp: Optional[str] = None) -> str:
    """Comment lines, the header, then one line per row, each value formatted
    by `format_value`'s rule. Rows (tuples or lists) are rendered by one `%`
    format string per sequence of value types, built once per call."""
    lines = []
    if timestamp:
        lines.append(f"# generated {timestamp}")
    lines.extend(f"# {c}" for c in result.comments)
    lines.append(",".join(result.header))
    formats = {}
    for row in result.rows:
        types = tuple(map(type, row))
        fmt = formats.get(types)
        if fmt is None:
            fmt = formats[types] = ",".join(
                "%.12g" if issubclass(t, float) else "%s" for t in types
            )
        lines.append(fmt % tuple(row))
    return "\n".join(lines) + "\n"


def run_report(g: Multigraph, p_grid: Sequence[float]) -> ExperimentResult:
    """Competitive ratios against the routing bound, one row per p."""
    rep = competitive_report(g, p_grid)
    rows = []
    violations = []
    for p in p_grid:
        p = float(p)
        rho = rep.rho[p]
        rows.append((format_value(p), rho, rep.bound, rep.bound - rho))
        _gate(violations, f"p={format_value(p)}", "rho", rho, "bound", rep.bound)
    comments = [
        f"graph: n={rep.n} m={rep.m} vol={format_value(rep.vol)}",
        f"phi ({rep.phi_kind}): {format_value(rep.phi_lower)}",
    ]
    return ExperimentResult(("p", "rho", "bound", "slack"), rows, comments, violations)


def run_diagnose(g: Multigraph, edge: int, samples: int = 50) -> ExperimentResult:
    """Threshold diagnostics for one unit edge demand, plus identity checks.

    The derivative checks and the printed phi read only the lower conductance
    certificate, `_conductance` without the sweep: exact up to
    EXACT_CONDUCTANCE_CAP vertices, else lambda_2 / 2, no sweep cut."""
    profile = threshold_profile(g, edge_demand(g, edge))
    lower, _ = _conductance(g, sweep=False)
    integral = check_integral_identity(profile)
    flow_dev = check_unit_flow(profile)
    deriv = check_derivative_bounds(profile, lower.phi, samples)
    rows = diagnostic_rows(profile, samples)
    comments = [
        f"edge {edge}: ({int(g.tails[edge])}, {int(g.heads[edge])})",
        f"phi ({lower.kind}): {format_value(lower.phi)}",
        f"breakpoints {profile.breakpoints.size} in "
        f"[{format_value(profile.t_min)}, {format_value(profile.t_max)}]",
        f"center shift {format_value(profile.center_shift)} "
        f"residual {format_value(profile.center_residual)}",
        f"integral identity: lhs {format_value(integral.lhs)} "
        f"rhs {format_value(integral.rhs)} gap {format_value(integral.gap)}",
        f"max |crossing flow - 1|: {format_value(flow_dev)}",
        f"derivative checks: {deriv.evaluated} samples, {deriv.violations} violations",
    ]
    violations = []
    if integral.relative_gap > 1e-10:
        violations.append(
            f"integral identity gap {format_value(integral.relative_gap)} over 1e-10"
        )
    if flow_dev > 1e-8:
        violations.append(f"crossing flow off unit by {format_value(flow_dev)}")
    if not deriv.ok:
        violations.append(
            f"derivative inequalities violated at {deriv.violations} samples "
            f"(worst quad {format_value(deriv.quad_max_violation)}, "
            f"worst ratio {format_value(deriv.ratio_max_violation)})"
        )
    return ExperimentResult(DIAGNOSTIC_COLUMNS, rows, comments, violations)


def run_sparsify(g: Multigraph, part: Partition, x: np.ndarray) -> ExperimentResult:
    """Schur weights, harmonic extension, l1 minimizer, and rounding check.

    Sections are separated by comment lines; the single header covers the
    per-row records (section, key fields, value)."""
    x = np.asarray(x, dtype=np.float64)
    # first, so that a boundary of the wrong length is refused before the Schur work
    y_h = harmonic_extension(g, part, x)
    rows: List[tuple] = []
    for (u, v), w in schur_edge_weights(g, part).items():
        rows.append(("schur-weight", str(u), str(v), w))
    for v, val in zip(part.eliminated, y_h):
        rows.append(("harmonic", str(int(v)), "", float(val)))
    value, y01 = min_l1_extension(g, part, x)
    rows.append(("l1-minimum", "", "", float(value)))
    for v, val in zip(part.eliminated, y01):
        rows.append(("l1-assignment", str(int(v)), "", float(val)))
    closed, integrated = expected_cut_l1(g, _full_vector(g, part, x, y_h))
    rows.append(("rounding-closed-form", "", "", closed))
    rows.append(("rounding-integrated", "", "", integrated))
    gap = abs(closed - integrated)
    rows.append(("rounding-gap", "", "", gap))
    violations = []
    if gap > 1e-9 * max(closed, 1.0):
        violations.append(f"rounding expectation mismatch {format_value(gap)}")
    comments = [
        f"terminals {part.terminals.size}, eliminated {part.eliminated.size}",
    ]
    return ExperimentResult(("section", "u", "v", "value"), rows, comments, violations)


def _grid_reports(n_list: Sequence[int], d_list: Sequence[int], seeds: Sequence[int]):
    """(n, d, seed, report) over the regular-graph grid, in (n, d, seed) order."""
    for n in n_list:
        for d in d_list:
            for seed in seeds:
                yield n, d, seed, competitive_report(random_regular(n, d, seed))


def run_upperbound(
    n_list: Sequence[int], d_list: Sequence[int], seeds: Sequence[int]
) -> ExperimentResult:
    """rho_inf against the 3 ln(vol)/phi routing bound on every grid graph."""
    rows = []
    violations = []
    for n, d, seed, rep in _grid_reports(n_list, d_list, seeds):
        rho, bound = rep.rho[math.inf], rep.bound
        ratio = rho / bound if math.isfinite(bound) and bound > 0 else 0.0
        rows.append((n, d, seed, rep.phi_lower, rho, bound, ratio))
        _gate(violations, f"n={n} d={d} seed={seed}", "rho_inf", rho, "bound", bound)
    return ExperimentResult(
        ("n", "d", "seed", "phi", "rho_inf", "bound", "ratio"), rows, [], violations
    )


def _dual(p: float) -> float:
    if math.isinf(p):
        return 1.0
    if p == 1.0:
        return float("inf")
    return p / (p - 1.0)


def run_interpolation(g: Multigraph, p_grid: Sequence[float]) -> ExperimentResult:
    """rho_p of a unit-weight graph against the Riesz-Thorin interpolation of
    rho_1 and rho_inf and the spectral interpolation through rho_2."""
    if not g.is_unit_weight:
        raise ValueError("interpolation needs a unit-weight graph")
    rhos, _, _ = _ratios(g, (1.0, 2.0, *p_grid))
    rho_1, rho_2, rho_inf = rhos[1.0], rhos[2.0], rhos[math.inf]
    rows = []
    violations = []
    for p in p_grid:
        p = float(p)
        rho = rhos[p]
        inv_p = 0.0 if math.isinf(p) else 1.0 / p
        rt_bound = rho_1**inv_p * rho_inf ** (1.0 - inv_p)
        pp = max(p, _dual(p))
        two_over = 0.0 if math.isinf(pp) else 2.0 / pp
        loc_bound = rho_2**two_over * rho_inf ** (1.0 - two_over)
        rows.append((format_value(p), rho, rt_bound, loc_bound))
        where = f"p={format_value(p)}"
        _gate(violations, where, "rho", rho, "interpolation bound", rt_bound)
        _gate(violations, where, "rho", rho, "spectral bound", loc_bound)
    comments = [f"graph: n={g.n} m={g.m}"]
    return ExperimentResult(
        ("p", "rho_p", "interp_bound", "spectral_bound"), rows, comments, violations
    )


def run_lowerbound(
    base: Multigraph, k_list: Sequence[int], p_grid: Sequence[float]
) -> ExperimentResult:
    """Ratios of the base graph united with its k-gadget, one row per k."""
    header = ["k", "n", "m", "phi_lower", "phi_upper", "rho_inf"]
    finite_p = [p for p in map(float, p_grid) if not math.isinf(p)]
    header.extend(f"rho_p_{format_value(p)}" for p in finite_p)
    rows = []
    violations = []
    for k in k_list:
        u = graph_union(base, gadget_subdivide(base, k))
        # the table reports the spectral bracket, so cuts are never enumerated
        rep = competitive_report(u, p_grid, bracket=True)
        rho = rep.rho[math.inf]
        row = [k, u.n, u.m, rep.phi_lower, rep.phi_upper, rho]
        row.extend(rep.rho[p] for p in finite_p)
        rows.append(tuple(row))
        _gate(violations, f"k={k}", "rho_inf", rho, "bound", rep.bound)
    return ExperimentResult(tuple(header), rows, [], violations)


def run_localization(
    n_list: Sequence[int], d_list: Sequence[int], seeds: Sequence[int]
) -> ExperimentResult:
    """Localization against rho_inf, the phi bound and log^2 n + 10 on every
    grid graph."""
    rows = []
    violations = []
    for n, d, seed, rep in _grid_reports(n_list, d_list, seeds):
        loc, rho, phi_bound = rep.localization, rep.rho[math.inf], rep.bound
        logsq_bound = math.log(n) ** 2 + 10.0
        min_bound = min(phi_bound, logsq_bound)
        rows.append((n, d, seed, loc, rho, phi_bound, logsq_bound))
        where = f"n={n} d={d} seed={seed}"
        _gate(violations, where, "localization", loc, "rho_inf", rho)
        _gate(violations, where, "localization", loc, "bound", min_bound)
    return ExperimentResult(
        ("n", "d", "seed", "localization", "rho_inf", "phi_bound", "logsq_bound"),
        rows,
        [],
        violations,
    )
