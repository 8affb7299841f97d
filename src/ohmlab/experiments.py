"""Experiment runners behind the command-line interface.

Each runner produces an ExperimentResult: a column header, data rows,
leading comment lines, and a list of violation messages. A nonempty
violation list is what the CLI turns into exit code 2, so CI can gate on
bound violations. All numeric output is formatted with %.12g, which makes
reruns byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .graphs import (
    DEFAULT_EDGE_CAP,
    Multigraph,
    gadget_subdivide,
    graph_union,
    random_regular,
)
from .linalg import _check_p
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
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "run_report",
    "run_diagnose",
    "run_sparsify",
    "format_value",
    "render_csv",
    "EXPERIMENT_NAMES",
]

EXPERIMENT_NAMES = ("upperbound", "interpolation", "lowerbound", "localization")
SLACK_TOL = 1e-6


@dataclass(frozen=True)
class ExperimentConfig:
    """Which experiment to run and on what graphs.

    The regular-graph grids drive upperbound and localization; lowerbound
    and interpolation use base_n/base_d/base_seed (or an explicit graph the
    CLI resolved beforehand).
    """

    name: str
    n_list: Tuple[int, ...] = (10, 12, 16, 20)
    d_list: Tuple[int, ...] = (3, 4)
    seeds: Tuple[int, ...] = (1, 2, 3, 4, 5)
    p_grid: Tuple[float, ...] = (float("inf"),)
    k_list: Tuple[int, ...] = (1, 2, 3, 4)
    base_n: int = 10
    base_d: int = 3
    base_seed: int = 1
    tol: float = 1e-10
    cap_edges: int = DEFAULT_EDGE_CAP

    def __post_init__(self):
        if self.name not in EXPERIMENT_NAMES:
            raise ValueError(f"unknown experiment {self.name!r}, expected one of {EXPERIMENT_NAMES}")
        if not self.seeds:
            raise ValueError("seed list must be nonempty")
        if not self.n_list or not self.d_list or not self.k_list:
            raise ValueError("n, d, and k grids must be nonempty")
        if min(self.k_list) < 1:
            raise ValueError("k values must be >= 1")
        for p in self.p_grid:
            _check_p(p)


@dataclass
class ExperimentResult:
    header: Tuple[str, ...]
    rows: List[tuple]
    comments: List[str] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)


def format_value(v) -> str:
    if isinstance(v, float):
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return f"{v:.12g}"
    return str(v)


def render_csv(result: ExperimentResult, timestamp: Optional[str] = None) -> str:
    lines = []
    if timestamp:
        lines.append(f"# generated {timestamp}")
    lines.extend(f"# {c}" for c in result.comments)
    lines.append(",".join(result.header))
    for row in result.rows:
        lines.append(",".join(format_value(v) for v in row))
    return "\n".join(lines) + "\n"


def _p_label(p: float) -> str:
    if math.isinf(p):
        return "inf"
    return format_value(float(p))


def run_report(g: Multigraph, p_grid: Sequence[float], tol: float = 1e-10) -> ExperimentResult:
    """Competitive ratios against the routing bound, one row per p."""
    rep = competitive_report(g, p_grid, tol)
    rows = []
    violations = []
    for p in p_grid:
        p = float(p)
        rho = rep.rho[p]
        slack = rep.bound - rho
        rows.append((_p_label(p), rho, rep.bound, slack))
        if slack < -SLACK_TOL:
            violations.append(
                f"p={_p_label(p)}: rho {format_value(rho)} exceeds bound "
                f"{format_value(rep.bound)}"
            )
    # the bound uses phi_lower, which a bracket certifies by the Cheeger inequality
    kind = "exact" if rep.phi_kind == "exact" else "cheeger-lower-bound"
    comments = [
        f"graph: n={rep.n} m={rep.m} vol={format_value(rep.vol)}",
        f"phi ({kind}): {format_value(rep.phi_lower)}",
    ]
    return ExperimentResult(("p", "rho", "bound", "slack"), rows, comments, violations)


def run_diagnose(g: Multigraph, edge: int, samples: int = 50,
                 tol: float = 1e-10) -> ExperimentResult:
    """Threshold diagnostics for one unit edge demand, plus identity checks."""
    profile = threshold_profile(g, edge_demand(g, edge), tol)
    lower, _ = _conductance(g)
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
    rows: List[tuple] = []
    for (u, v), w in sorted(schur_edge_weights(g, part).items()):
        rows.append(("schur-weight", str(u), str(v), w))
    y_h = harmonic_extension(g, part, x)
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


def _grid_reports(cfg: ExperimentConfig):
    """(n, d, seed, report) over the regular-graph grid."""
    for n in cfg.n_list:
        for d in cfg.d_list:
            for seed in cfg.seeds:
                yield n, d, seed, competitive_report(random_regular(n, d, seed), tol=cfg.tol)


def _run_upperbound(cfg: ExperimentConfig) -> ExperimentResult:
    rows = []
    violations = []
    for n, d, seed, rep in _grid_reports(cfg):
        rho, bound = rep.rho[math.inf], rep.bound
        ratio = rho / bound if math.isfinite(bound) and bound > 0 else 0.0
        rows.append((n, d, seed, rep.phi_lower, rho, bound, ratio))
        if rho > bound + SLACK_TOL * max(bound, 1.0):
            violations.append(
                f"n={n} d={d} seed={seed}: rho_inf {format_value(rho)} "
                f"exceeds bound {format_value(bound)}"
            )
    return ExperimentResult(
        ("n", "d", "seed", "phi", "rho_inf", "bound", "ratio"), rows, [], violations
    )


def _dual(p: float) -> float:
    if math.isinf(p):
        return 1.0
    if p == 1.0:
        return float("inf")
    return p / (p - 1.0)


def _run_interpolation(cfg: ExperimentConfig, g: Optional[Multigraph]) -> ExperimentResult:
    if g is None:
        g = random_regular(cfg.base_n, cfg.base_d, cfg.base_seed)
    if not g.is_unit_weight:
        raise ValueError("interpolation needs a unit-weight graph")
    rhos, _, _ = _ratios(g, (1.0, 2.0, *cfg.p_grid), cfg.tol)
    rho_1, rho_2, rho_inf = rhos[1.0], rhos[2.0], rhos[math.inf]
    rows = []
    violations = []
    for p in cfg.p_grid:
        p = float(p)
        rho = rhos[p]
        inv_p = 0.0 if math.isinf(p) else 1.0 / p
        rt_bound = rho_1**inv_p * rho_inf ** (1.0 - inv_p)
        pp = max(p, _dual(p))
        two_over = 0.0 if math.isinf(pp) else 2.0 / pp
        loc_bound = rho_2**two_over * rho_inf ** (1.0 - two_over)
        rows.append((_p_label(p), rho, rt_bound, loc_bound))
        if rho > rt_bound + SLACK_TOL:
            violations.append(
                f"p={_p_label(p)}: rho {format_value(rho)} exceeds interpolation "
                f"bound {format_value(rt_bound)}"
            )
        if rho > loc_bound + SLACK_TOL:
            violations.append(
                f"p={_p_label(p)}: rho {format_value(rho)} exceeds spectral "
                f"bound {format_value(loc_bound)}"
            )
    comments = [f"graph: n={g.n} m={g.m}"]
    return ExperimentResult(
        ("p", "rho_p", "interp_bound", "spectral_bound"), rows, comments, violations
    )


def _run_lowerbound(cfg: ExperimentConfig, base: Optional[Multigraph]) -> ExperimentResult:
    if base is None:
        base = random_regular(cfg.base_n, cfg.base_d, cfg.base_seed)
    header = ["k", "n", "m", "phi_lower", "phi_upper", "rho_inf"]
    finite_p = [p for p in cfg.p_grid if not math.isinf(float(p))]
    header.extend(f"rho_p_{_p_label(float(p))}" for p in finite_p)
    rows = []
    violations = []
    for k in cfg.k_list:
        u = graph_union(base, gadget_subdivide(base, k, cfg.cap_edges))
        # the table reports the spectral bracket, so cuts are never enumerated
        rep = competitive_report(u, cfg.p_grid, cfg.tol, exact_n_cap=0)
        rho, bound = rep.rho[math.inf], rep.bound
        row = [k, u.n, u.m, rep.phi_lower, rep.phi_upper, rho]
        row.extend(rep.rho[float(p)] for p in finite_p)
        rows.append(tuple(row))
        if rho > bound + SLACK_TOL * max(bound, 1.0):
            violations.append(
                f"k={k}: rho_inf {format_value(rho)} exceeds bound {format_value(bound)}"
            )
    return ExperimentResult(tuple(header), rows, [], violations)


def _run_localization(cfg: ExperimentConfig) -> ExperimentResult:
    rows = []
    violations = []
    for n, d, seed, rep in _grid_reports(cfg):
        loc, rho, phi_bound = rep.localization, rep.rho[math.inf], rep.bound
        logsq_bound = math.log(n) ** 2 + 10.0
        min_bound = min(phi_bound, logsq_bound)
        rows.append((n, d, seed, loc, rho, phi_bound, logsq_bound))
        if loc > rho + SLACK_TOL:
            violations.append(
                f"n={n} d={d} seed={seed}: localization "
                f"{format_value(loc)} exceeds rho_inf {format_value(rho)}"
            )
        if loc > min_bound + SLACK_TOL:
            violations.append(
                f"n={n} d={d} seed={seed}: localization "
                f"{format_value(loc)} exceeds bound {format_value(min_bound)}"
            )
    return ExperimentResult(
        ("n", "d", "seed", "localization", "rho_inf", "phi_bound", "logsq_bound"),
        rows,
        [],
        violations,
    )


def run_experiment(cfg: ExperimentConfig, graph: Optional[Multigraph] = None) -> ExperimentResult:
    """Dispatch a named experiment; `graph` overrides the generated base
    graph for interpolation and lowerbound."""
    if cfg.name == "upperbound":
        return _run_upperbound(cfg)
    if cfg.name == "interpolation":
        return _run_interpolation(cfg, graph)
    if cfg.name == "lowerbound":
        return _run_lowerbound(cfg, graph)
    return _run_localization(cfg)
