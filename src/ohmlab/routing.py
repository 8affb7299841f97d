"""Electrical-flow routing and its competitive ratios.

The routing operator sends a demand chi to the electrical flow W B^T L^+ chi.
Its l_p -> l_p competitive ratio against the optimal congestion is the induced
norm of the entrywise absolute value of W^-1 A B W applied to edge demands;
on unit-weight graphs this is the flow projection matrix Pi = B^T L^+ B.

Every ratio comes from one sweep per graph that solves each distinct endpoint
pair once, in blocks of _BLOCK_COLUMNS pairs, through
linalg.solve_laplacian_block. Which solver that runs (the graph's Laplacian
factor or conjugate gradient) is linalg's choice alone; this module never
reads the factor, and every column meets the same residual contract.
rho_inf and localization read the l1 flow norm of each solve, and |Pi| for
finite p is filled from the same solves; Pi is materialized only when a
finite p asks for it.

Beside the ratios it builds demands (validate_demand, edge_demand), routes
one demand (route_electrical, effective_resistance) and meters a given flow
(flow_energy, demand_fraction), refusing one without a value per edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import SizeLimitError
from .graphs import (
    EXACT_CONDUCTANCE_CAP,
    ConductanceCertificate,
    Multigraph,
    _cheeger_lower,
    _ids,
    conductance_bounds,
    conductance_exact,
)
from .linalg import (
    _BLOCK_COLUMNS,
    _centred,
    _check_p,
    _column_sums,
    induced_pnorm_nonneg,
    solve_laplacian_block,
)

__all__ = [
    "validate_demand",
    "edge_demand",
    "route_electrical",
    "effective_resistance",
    "flow_energy",
    "demand_fraction",
    "flow_projection",
    "competitive_ratio_inf",
    "competitive_ratio",
    "localization",
    "CompetitiveReport",
    "competitive_report",
]

# largest m for which a dense m x m block is built (128 MB of float64)
PROJECTION_EDGE_CAP = 4000


def validate_demand(g: Multigraph, chi: np.ndarray) -> np.ndarray:
    """Check a demand vector: length n, finite entries summing to zero under
    the solvers' rule (linalg._centred). Returns chi as given, not centred."""
    chi = np.asarray(chi, dtype=np.float64)
    if chi.shape != (g.n,):
        raise ValueError(f"demand must have length n={g.n}")
    _centred(chi)
    return chi


def _pair_demands(g: Multigraph, sources, sinks) -> np.ndarray:
    """Unit demands 1_s - 1_t as the columns of an n x k block, one per
    (source, sink) pair; sources and sinks must differ pairwise."""
    cols = np.arange(len(sources))
    chi = np.zeros((g.n, cols.size))
    chi[sources, cols] = 1.0
    chi[sinks, cols] = -1.0
    return chi


def edge_demand(g: Multigraph, eid: int) -> np.ndarray:
    """Unit demand 1_tail - 1_head for edge eid."""
    eid = _ids(eid, g.m, "edge id")
    return _pair_demands(g, [g.tails[eid]], [g.heads[eid]])[:, 0]


def route_electrical(g: Multigraph, chi: np.ndarray) -> np.ndarray:
    """Electrical flow for the demand: f(e) = w(e) (v(head) - v(tail)) with
    v the Laplacian voltages. Satisfies B f = chi up to solver residual."""
    chi = validate_demand(g, chi)
    v = solve_laplacian_block(g, chi[:, None])[0][:, 0]
    return g.weights * (v[g.heads] - v[g.tails])


def effective_resistance(g: Multigraph, s: int, t: int) -> float:
    """chi^T L^+ chi for the unit s-t demand; 0 when s == t."""
    s, t = _ids([s, t], g.n, "vertex id")
    if s == t:
        return 0.0
    v = solve_laplacian_block(g, _pair_demands(g, [s], [t]))[0][:, 0]
    return float(v[s] - v[t])


def _flow(g: Multigraph, f) -> np.ndarray:
    """f as a float array, refused unless it has one value per edge."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (g.m,):
        raise ValueError(f"flow must have length m={g.m}")
    return f


def flow_energy(g: Multigraph, f: np.ndarray) -> float:
    """sum_e f(e)^2 / w(e)."""
    f = _flow(g, f)
    return float((f * f / g.weights).sum())


def demand_fraction(g: Multigraph, f: np.ndarray, chi: np.ndarray, edges) -> float:
    """Fraction of the demand's supply current that the given edges carry.

    Sums the signed outflow of f through the edge subset at every supply
    vertex (chi > 0) and divides by the total supply. Over a partition of
    the edge set the fractions add to 1, which makes this the right meter
    for how a flow splits across edge classes that meet only at vertices.
    f needs one value per edge and the edge ids must be integers in [0, m).
    """
    f = _flow(g, f)
    chi = validate_demand(g, chi)
    mask = np.zeros(g.m, dtype=bool)
    mask[_ids(edges, g.m, "edge id")] = True
    supply = chi > 0
    total = float(chi[supply].sum())
    if total == 0.0:
        raise ValueError("demand has no supply vertices")
    # (B f)(a) restricted to the masked columns: tail carries -f, head +f
    out = 0.0
    out -= f[mask & supply[g.tails]].sum()
    out += f[mask & supply[g.heads]].sum()
    return float(out / total)


def _endpoint_pairs(g: Multigraph) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct endpoint pairs in ascending (low, high) order: their low and
    high ends as two arrays, and for every edge the index of its pair. No
    output of the sweep depends on this order."""
    low = np.minimum(g.tails, g.heads)
    high = np.maximum(g.tails, g.heads)
    keys, pair_of_edge = np.unique(low * g.n + high, return_inverse=True)
    return keys // g.n, keys % g.n, pair_of_edge


def _sweep(
    g: Multigraph, signed: bool = False
) -> Tuple[np.ndarray, Optional[np.ndarray], float]:
    """One solve per distinct endpoint pair, in ascending order, in blocks of
    _BLOCK_COLUMNS pairs whichever solver linalg.solve_laplacian_block runs.

    Returns the l1 flow norm sum_f w(f) |v(head) - v(tail)| of every edge's
    unit demand (parallel edges share their pair's value), the dense signed
    projection Pi when `signed` is set (else None), and the worst solver
    residual. Only one block of voltages and flows, (n + m) _BLOCK_COLUMNS
    floats, is held at a time. Every norm is summed left to right over the
    edges, so it does not depend on its block's width, and no output depends
    on the pair order.
    """
    lows, highs, pair_of_edge = _endpoint_pairs(g)
    norms = np.empty(lows.size)
    pi = np.empty((g.m, g.m)) if signed else None
    max_residual = 0.0
    if signed:
        # the solve runs low -> high; column e of B is -chi_e for the stored
        # orientation, so flip once more when tail is the low end
        sign = np.where(g.tails < g.heads, -1.0, 1.0)
    for start in range(0, lows.size, _BLOCK_COLUMNS):
        stop = start + _BLOCK_COLUMNS
        volts, residuals = solve_laplacian_block(
            g, _pair_demands(g, lows[start:stop], highs[start:stop])
        )
        max_residual = max(max_residual, float(residuals.max()))
        # one row per pair, F-ordered; each block-sized temporary adds to the
        # sweep's peak memory, so flows are subtracted in place and `weighted` freed
        rows = volts.T
        flows = rows[:, g.heads]
        flows -= rows[:, g.tails]
        # each row's terms are added left to right over the edges at every
        # block width: the transpose is a C-ordered block whose columns
        # `_column_sums` adds top to bottom
        weighted = np.abs(flows)
        weighted *= g.weights
        norms[start:stop] = _column_sums(weighted.T)
        del weighted
        if signed:
            edges = np.flatnonzero((pair_of_edge >= start) & (pair_of_edge < stop))
            pi[:, edges] = flows[pair_of_edge[edges] - start].T * sign[edges]
    return norms[pair_of_edge], pi, max_residual


def _edge_average(l1: np.ndarray) -> float:
    # a left-to-right sum keeps the digits of the per-edge definition; cumsum
    # adds in that order, where sum would add pairwise
    return float(np.cumsum(l1)[-1]) / l1.size


def _require_edges(g: Multigraph) -> None:
    if g.m == 0:
        raise ValueError("graph has no edges")


def _require_projection_size(g: Multigraph) -> None:
    if g.m > PROJECTION_EDGE_CAP:
        raise SizeLimitError(
            f"dense projection needs m <= {PROJECTION_EDGE_CAP}, got m={g.m}"
        )


def competitive_ratio_inf(g: Multigraph) -> float:
    """Worst l1 flow norm over unit edge demands, one solve per endpoint pair.

    This equals the inf -> inf competitive ratio of electrical routing; the
    projection matrix is never materialized, so it scales to large m.
    """
    return _ratios(g, (math.inf,))[0][math.inf]


def localization(g: Multigraph) -> float:
    """Average l1 flow norm over unit edge demands, (1/m) sum_e ||W B^T L^+ chi_e||_1.

    Defined for unit-weight graphs; parallel edges each count toward the
    average (their shared endpoint pair is solved once).
    """
    if not g.is_unit_weight:
        raise ValueError("localization is defined for unit-weight graphs")
    return _ratios(g, (math.inf,))[1]


def flow_projection(g: Multigraph) -> np.ndarray:
    """Dense flow projection Pi = B^T L^+ B, m x m, one solve per endpoint pair.

    Symmetric and idempotent up to solver tolerance. Refused, before any
    solve, above PROJECTION_EDGE_CAP edges; the per-edge l_inf path
    (competitive_ratio_inf) never needs it.
    """
    _require_projection_size(g)
    return _sweep(g, signed=True)[1]


def competitive_ratio(g: Multigraph, p: float) -> float:
    """l_p -> l_p competitive ratio of electrical routing, weighted graphs
    included, from the one sweep (`_ratios`): the induced norm of
    |W^-1 A B W| = |Pi| W, which is |Pi| on a unit graph, and the value
    competitive_report reports. p = inf is competitive_ratio_inf's value
    and builds no projection. A finite p materializes |Pi| W (dense, capped
    at PROJECTION_EDGE_CAP edges) and takes linalg.induced_pnorm_nonneg's
    norm: exact column sums for p = 1, otherwise the nonnegative power
    iteration, which stops once its certified bracket on the norm is
    narrower than 1e-12 (relative).
    """
    return _ratios(g, (p,))[0][_check_p(p)]


def _ratios(
    g: Multigraph, p_list: Sequence[float]
) -> Tuple[Dict[float, float], Optional[float], float]:
    """rho_inf and every requested rho_p, the localization (unit graphs only)
    and the worst solver residual, all from one sweep.

    rho_inf is the largest per-edge l1 flow norm. A finite p takes the induced
    norm of |W^-1 A B W| = |Pi| W, whose columns come from the same solves,
    so only a finite p pays for the dense m x m block. A graph without edges
    has no ratio and is refused first.
    """
    _require_edges(g)
    ps = [_check_p(p) for p in p_list]
    finite = [p for p in ps if not math.isinf(p)]
    if finite:
        _require_projection_size(g)
    l1, pi, max_residual = _sweep(g, signed=bool(finite))
    rho = {math.inf: float(l1.max())}
    if finite:
        cols = np.abs(pi, out=pi)
        cols *= g.weights  # column e times w(e); exact on unit graphs
        for p in finite:
            if p not in rho:
                rho[p] = induced_pnorm_nonneg(cols, p)
    loc = _edge_average(l1) if g.is_unit_weight else None
    return rho, loc, max_residual


@dataclass(frozen=True)
class CompetitiveReport:
    """Summary of a graph's routing quality against the expander bound.

    phi_kind is the kind of the certificate behind phi_lower and the bound:
    "exact" or "cheeger-lower-bound".
    """

    n: int
    m: int
    vol: float
    phi_lower: float
    phi_upper: float
    phi_kind: str
    rho: Dict[float, float]
    bound: float
    localization: Optional[float]
    max_residual: float


def _conductance(
    g: Multigraph, bracket: bool = False, sweep: bool = True
) -> Tuple[ConductanceCertificate, Optional[ConductanceCertificate]]:
    """Lower and upper conductance certificates. The one rule choosing exact
    conductance over the spectral bracket: cut enumeration, its value as
    both, up to EXACT_CONDUCTANCE_CAP vertices unless `bracket` is set; else
    the eigenvalue/sweep bracket, or with `sweep` unset lambda_2 / 2 and
    None, without the sweep cut that bounds phi from above."""
    if not bracket and g.n <= EXACT_CONDUCTANCE_CAP:
        cert = conductance_exact(g)
        return cert, cert
    if not sweep:
        return _cheeger_lower(g)[0], None
    return conductance_bounds(g)


def competitive_report(
    g: Multigraph, p_list: Sequence[float] = (np.inf,), bracket: bool = False
) -> CompetitiveReport:
    """Assemble conductance, competitive ratios, and the routing bound.

    Conductance is exact (cut enumeration) up to EXACT_CONDUCTANCE_CAP
    vertices, else, or whenever `bracket` is set, the eigenvalue/sweep
    bracket. The reported bound is 3 ln(vol(V)) / phi
    using the exact value when available and the certified lower bound
    otherwise (a smaller phi only loosens the bound, so it stays valid). On
    unit graphs vol(V) = 2m, so ln(vol(V)) matches the 2m reading of the
    bound. Every ratio and the localization come from one sweep that solves
    each endpoint pair once; max_residual is the worst true residual of
    those solves. An edgeless graph is refused before any conductance work.
    phi_kind is the lower certificate's kind, "exact" or
    "cheeger-lower-bound". The sweep's solver is linalg's choice; the
    bracket's lambda_2 never reads the Laplacian factor.
    """
    _require_edges(g)
    lower, upper = _conductance(g, bracket)
    rho, loc, max_residual = _ratios(g, p_list)
    floor = 1.0 - 1e-6
    for p, value in rho.items():
        if value < floor:
            raise AssertionError(
                f"competitive ratio {value} at p={p} below the sanity floor 1"
            )

    vol = float(g.weighted_degrees.sum())
    bound = 3.0 * math.log(vol) / lower.phi if lower.phi > 0 else math.inf
    return CompetitiveReport(
        n=g.n,
        m=g.m,
        vol=vol,
        phi_lower=lower.phi,
        phi_upper=upper.phi,
        phi_kind=lower.kind,
        rho=rho,
        bound=bound,
        localization=loc,
        max_residual=max_residual,
    )
