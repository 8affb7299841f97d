"""Electrical-flow routing and its competitive ratios.

The routing operator sends a demand chi to the electrical flow W B^T L^+ chi.
Its l_p -> l_p competitive ratio against the optimal congestion is the induced
norm of the entrywise absolute value of W^-1 A B W applied to edge demands;
on unit-weight graphs this is the flow projection matrix Pi = B^T L^+ B.

Every ratio comes from one sweep per graph that solves each distinct endpoint
pair once through linalg.solve_laplacian_block: in blocks of _BLOCK_COLUMNS
pairs against the graph's cached symmetric-mode LU factor (diagonal pivots)
up to the direct vertex cap, one pair at a time by conjugate gradient above
it, every column under the same residual contract. rho_inf and localization
read the l1 flow norm of each solve, and |Pi| for finite p is filled from
the same solves; Pi is materialized only when a finite p asks for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import SizeLimitError
from .graphs import (
    EXACT_CONDUCTANCE_CAP,
    ConductanceCertificate,
    Multigraph,
    conductance_bounds,
    conductance_exact,
)
from .linalg import (
    _BLOCK_COLUMNS,
    _centred,
    _check_p,
    _direct_factor,
    incidence,
    induced_pnorm_nonneg,
    laplacian,
    solve_laplacian_block,
)

__all__ = [
    "validate_demand",
    "edge_demand",
    "route_electrical",
    "effective_resistance",
    "congestion",
    "flow_energy",
    "voltage_energy",
    "flow_projection",
    "competitive_ratio_inf",
    "competitive_ratio",
    "competitive_ratio_operator",
    "localization",
    "CompetitiveReport",
    "competitive_report",
]

# largest m for which a dense m x m block is built (128 MB of float64)
PROJECTION_EDGE_CAP = 4000
# edges on which competitive_ratio_operator checks that the operator routes
_ROUTE_CHECK_EDGES = 8
# largest |B f - chi| entry the route check accepts on those edges
_ROUTE_CHECK_TOL = 1e-8


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
    sources = np.asarray(sources, dtype=np.int64)
    chi = np.zeros((g.n, sources.size))
    cols = np.arange(sources.size)
    chi[sources, cols] = 1.0
    chi[np.asarray(sinks, dtype=np.int64), cols] = -1.0
    return chi


def edge_demand(g: Multigraph, eid: int) -> np.ndarray:
    """Unit demand 1_tail - 1_head for edge eid."""
    if not 0 <= eid < g.m:
        raise ValueError(f"edge index {eid} out of range for m={g.m}")
    return _pair_demands(g, [g.tails[eid]], [g.heads[eid]])[:, 0]


def route_electrical(g: Multigraph, chi: np.ndarray) -> np.ndarray:
    """Electrical flow for the demand: f(e) = w(e) (v(head) - v(tail)) with
    v the Laplacian voltages. Satisfies B f = chi up to solver residual."""
    chi = validate_demand(g, chi)
    v = solve_laplacian_block(g, chi[:, None])[0][:, 0]
    return g.weights * (v[g.heads] - v[g.tails])


def effective_resistance(g: Multigraph, s: int, t: int) -> float:
    """chi^T L^+ chi for the unit s-t demand; 0 when s == t."""
    if not (0 <= s < g.n and 0 <= t < g.n):
        raise ValueError("endpoint out of range")
    if s == t:
        return 0.0
    v = solve_laplacian_block(g, _pair_demands(g, [s], [t]))[0][:, 0]
    return float(v[s] - v[t])


def congestion(g: Multigraph, flows: Sequence[np.ndarray], p: float) -> float:
    """l_p norm of per-edge total |flow| over capacity."""
    p = _check_p(p)
    total = np.zeros(g.m)
    for f in flows:
        f = np.asarray(f, dtype=np.float64)
        if f.shape != (g.m,):
            raise ValueError(f"flow must have length m={g.m}")
        total += np.abs(f)
    loads = total / g.weights
    if math.isinf(p):
        return float(loads.max()) if loads.size else 0.0
    return float(np.power(loads, p).sum() ** (1.0 / p))


def flow_energy(g: Multigraph, f: np.ndarray) -> float:
    """sum_e f(e)^2 / w(e)."""
    f = np.asarray(f, dtype=np.float64)
    return float((f * f / g.weights).sum())


def demand_fraction(g: Multigraph, f: np.ndarray, chi: np.ndarray, edges) -> float:
    """Fraction of the demand's supply current that the given edges carry.

    Sums the signed outflow of f through the edge subset at every supply
    vertex (chi > 0) and divides by the total supply. Over a partition of
    the edge set the fractions add to 1, which makes this the right meter
    for how a flow splits across edge classes that meet only at vertices.
    f needs one value per edge and the edge ids must be integers in [0, m).
    """
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (g.m,):
        raise ValueError(f"flow must have length m={g.m}")
    chi = validate_demand(g, chi)
    ids = np.asarray(edges).ravel()
    if ids.size and not (np.issubdtype(ids.dtype, np.integer)
                         and ids.min() >= 0 and ids.max() < g.m):
        raise ValueError(f"edge ids must be integers in [0, m={g.m})")
    mask = np.zeros(g.m, dtype=bool)
    mask[ids.astype(np.int64)] = True
    supply = chi > 0
    total = float(chi[supply].sum())
    if total == 0.0:
        raise ValueError("demand has no supply vertices")
    # (B f)(a) restricted to the masked columns: tail carries -f, head +f
    out = 0.0
    out -= f[mask & supply[g.tails]].sum()
    out += f[mask & supply[g.heads]].sum()
    return float(out / total)


def voltage_energy(g: Multigraph, v: np.ndarray) -> float:
    """v^T L v, the energy dissipated by the voltage vector."""
    v = np.asarray(v, dtype=np.float64)
    return float(v @ (laplacian(g) @ v))


def _endpoint_pairs(g: Multigraph) -> Dict[Tuple[int, int], List[int]]:
    """Edge ids grouped by endpoint pair (low, high), pairs in first-occurrence
    edge order."""
    groups: Dict[Tuple[int, int], List[int]] = {}
    for e, (t, h) in enumerate(zip(g.tails.tolist(), g.heads.tolist())):
        groups.setdefault((min(t, h), max(t, h)), []).append(e)
    return groups


def _sweep(
    g: Multigraph, signed: bool = False
) -> Tuple[np.ndarray, Optional[np.ndarray], float]:
    """One solve per distinct endpoint pair, in blocks of _BLOCK_COLUMNS pairs
    on the direct path and of one pair above the cap: conjugate gradient
    solves one column per call anyway, so there the sweep holds one voltage
    vector, as a single solve does.

    Returns the l1 flow norm sum_f w(f) |v(head) - v(tail)| of every edge's
    unit demand (parallel edges share their pair's value), the dense signed
    projection Pi when `signed` is set (else None), and the worst solver
    residual. Only one block of voltages is held at a time; the blocks, and
    so every value, depend on the graph alone.
    """
    l1 = np.empty(g.m)
    pi = np.empty((g.m, g.m)) if signed else None
    max_residual = 0.0
    groups = list(_endpoint_pairs(g).items())
    width = _BLOCK_COLUMNS if _direct_factor(g) is not None else 1
    for start in range(0, len(groups), width):
        block = groups[start:start + width]
        lows, highs = zip(*(pair for pair, _ in block))
        volts, residuals = solve_laplacian_block(g, _pair_demands(g, lows, highs))
        max_residual = max(max_residual, float(residuals.max()))
        # one row per pair, so each norm below sums a contiguous row the way
        # a single flow vector is summed
        rows = volts.T
        flows = rows[:, g.heads] - rows[:, g.tails]
        norms = (g.weights * np.abs(flows)).sum(axis=1)
        for ((a, _), edges), flow, norm in zip(block, flows, norms):
            l1[edges] = norm
            if signed:
                for e in edges:
                    # the solve runs low -> high; column e of B is -chi_e for the
                    # stored orientation, so flip once more when tail is the low end
                    pi[:, e] = -flow if g.tails[e] == a else flow
    return l1, pi, max_residual


def _edge_average(l1: np.ndarray) -> float:
    # a left-to-right sum keeps the digits of the per-edge definition
    total = 0.0
    for value in l1.tolist():
        total += value
    return total / l1.size


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
    """l_p -> l_p competitive ratio of electrical routing on a unit graph.

    Materializes |Pi| (dense, capped at PROJECTION_EDGE_CAP edges) for every
    p; competitive_ratio_inf gives p = inf without it. The induced norm is
    linalg.induced_pnorm_nonneg's: exact column/row sums for p = 1 and
    p = inf, the nonnegative power iteration otherwise. Non-unit weights are
    refused: use competitive_ratio_operator, which applies the weighted
    scaling.
    """
    if not g.is_unit_weight:
        raise ValueError(
            "competitive_ratio needs unit weights; use competitive_ratio_operator"
        )
    p = _check_p(p)
    pi = flow_projection(g)
    return induced_pnorm_nonneg(np.abs(pi, out=pi), p)


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


def competitive_ratio_operator(
    g: Multigraph, routing: Callable[[np.ndarray], np.ndarray], p: float
) -> float:
    """l_p -> l_p competitive ratio of an arbitrary demand -> flow operator.

    The operator must be linear and actually route: B (routing(chi_e)) = chi_e
    is verified on _ROUTE_CHECK_EDGES edges to within _ROUTE_CHECK_TOL. The
    ratio is the induced norm of the entrywise absolute value of W^-1 A B W,
    assembled one column per edge as w(e) |W^-1 routing(chi_e)|, dense and
    so capped at PROJECTION_EDGE_CAP edges.
    """
    p = _check_p(p)
    _require_projection_size(g)
    sample = np.linspace(0, g.m - 1, num=min(_ROUTE_CHECK_EDGES, g.m), dtype=np.int64)
    inc = incidence(g)
    cols = np.empty((g.m, g.m))
    cache: Dict[tuple, np.ndarray] = {}
    for e in range(g.m):
        pair = (int(g.tails[e]), int(g.heads[e]))
        if pair not in cache:
            cache[pair] = np.asarray(routing(edge_demand(g, e)), dtype=np.float64)
            if cache[pair].shape != (g.m,):
                raise ValueError("routing operator must return one flow value per edge")
        f = cache[pair]
        if e in sample:
            chi = edge_demand(g, e)
            err = float(np.abs(inc @ f - chi).max())
            if err > _ROUTE_CHECK_TOL:
                raise ValueError(
                    f"operator does not route edge demand {e}: |B f - chi| = {err:.3e}"
                )
        cols[:, e] = g.weights[e] * np.abs(f) / g.weights
    return induced_pnorm_nonneg(cols, p)


@dataclass(frozen=True)
class CompetitiveReport:
    """Summary of a graph's routing quality against the expander bound."""

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
    g: Multigraph, exact_n_cap: int = EXACT_CONDUCTANCE_CAP
) -> Tuple[ConductanceCertificate, ConductanceCertificate]:
    """Lower and upper conductance certificates: the exact value as both when
    cut enumeration is allowed (n <= exact_n_cap), else the eigenvalue/sweep
    bracket."""
    if g.n <= exact_n_cap:
        cert = conductance_exact(g, max_n=exact_n_cap)
        return cert, cert
    return conductance_bounds(g)


def competitive_report(
    g: Multigraph,
    p_list: Sequence[float] = (np.inf,),
    exact_n_cap: int = EXACT_CONDUCTANCE_CAP,
) -> CompetitiveReport:
    """Assemble conductance, competitive ratios, and the routing bound.

    Conductance is exact (cut enumeration) up to exact_n_cap vertices, else
    the eigenvalue/sweep bracket. The reported bound is 3 ln(vol(V)) / phi
    using the exact value when available and the certified lower bound
    otherwise (a smaller phi only loosens the bound, so it stays valid). On
    unit graphs vol(V) = 2m, so ln(vol(V)) matches the 2m reading of the
    bound. Every ratio and the localization come from one sweep that solves
    each endpoint pair once; max_residual is the worst true residual of
    those solves. An edgeless graph is refused before any conductance work.
    The conductance comes first, before the sweep factors the Laplacian, so
    the factor is not held through the eigensolve.
    """
    _require_edges(g)
    lower, upper = _conductance(g, exact_n_cap)
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
        phi_kind="exact" if lower is upper else "bracket",
        rho=rho,
        bound=bound,
        localization=loc,
        max_residual=max_residual,
    )
