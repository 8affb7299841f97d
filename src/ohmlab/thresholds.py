"""Threshold-cut diagnostics over electrical voltage profiles.

For a voltage vector v the threshold cut at t is S_t = {a : v(a) >= t}. The
fractional volume vol_geq(t) counts, per edge aligned so v(a) <= v(b), the
full 2w while t <= v(a), the interpolated share 2w (v(b) - t) / (v(b) - v(a))
while v(a) < t <= v(b), and zero afterwards; edges with v(a) = v(b) count
fully until t passes their value and never cross a cut. Voltages are centered
by a shift chosen so vol_geq(0) = vol(V)/2, which makes the two half-axes
comparable and is the convention the derivative inequalities assume.

Between consecutive breakpoints bp (the distinct voltages) the crossing set
is fixed: cut weight, decay rate -d/dt vol_geq and crossing flow are constant
and vol_geq is linear. `ThresholdProfile.table` holds them, one row per
interval, and every quantity below reads it. A float t lands in row
r = searchsorted(bp, t, 'left'), the interval (bp[r-1], bp[r]] whose crossing
set {v(a) < t <= v(b)} is the edges with v(a) <= bp[r-1] and v(b) >= bp[r];
rows 0 (t <= t_min) and len(bp) (t > t_max) cross nothing and have vol_geq
vol(V) and 0. In row r, vol_geq(t) = vol_geq(bp[r]) + (bp[r] - t) * decay.
Only the centering bisection (`_vol_geq_arrays`) still scans every edge per
threshold: `ohmlab diagnose` prints its residual, which the scan keeps as is.

Everything here is exact piecewise arithmetic on the breakpoint grid; the
only approximation in the pipeline is the Laplacian solve that produced v.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from .graphs import Multigraph, _interval_sums
from .linalg import solve_laplacian
from .routing import validate_demand

__all__ = [
    "ThresholdProfile",
    "threshold_profile",
    "profile_from_voltages",
    "mirrored_profile",
    "threshold_cut",
    "threshold_cut_weight",
    "fractional_volume",
    "padded_volume",
    "volume_decay_rate",
    "crossing_flow",
    "IntegralIdentityReport",
    "check_integral_identity",
    "check_unit_flow",
    "DerivativeCheckReport",
    "check_derivative_bounds",
    "diagnostic_rows",
    "DIAGNOSTIC_COLUMNS",
]

DIAGNOSTIC_COLUMNS = ("t", "delta", "vol_geq", "volplus", "dvolplus_dt", "crossing_flow")
# relative miss of a derivative inequality left to solver and rounding noise
_DERIVATIVE_TOL = 1e-8


@dataclass(frozen=True)
class ThresholdProfile:
    """Centered voltages with per-edge data aligned so va <= vb.

    voltages are per vertex after subtracting center_shift from the raw
    sum-zero solution. center_residual records how far vol_geq(0) landed
    from vol(V)/2 (bisection is argument-limited, so this is the honest
    achieved miss). solver_residual carries the Laplacian residual of the
    voltage solve, 0.0 for profiles built from explicit voltages.
    """

    n: int
    tails: np.ndarray
    heads: np.ndarray
    weights: np.ndarray
    voltages: np.ndarray
    va: np.ndarray
    vb: np.ndarray
    center_shift: float
    center_residual: float
    breakpoints: np.ndarray
    total_volume: float
    solver_residual: float = 0.0

    @property
    def t_min(self) -> float:
        return float(self.breakpoints[0])

    @property
    def t_max(self) -> float:
        return float(self.breakpoints[-1])

    @cached_property
    def table(self) -> np.ndarray:
        """Read-only, one row per threshold interval (module docstring): cut
        weight, decay rate, crossing flow, and vol_geq at the right end."""
        bp, w, span = self.breakpoints, self.weights, self.va < self.vb
        ws, gs = w[span], self.vb[span] - self.va[span]
        rows = np.zeros((bp.size + 1, 4))
        columns = [ws, 2.0 * ws / gs, ws * gs]
        rows[1:-1, :3] = _interval_sums(bp, self.va[span], self.vb[span], columns).T
        # vol_geq(bp[r]) adds, at each bp[j] >= bp[r], the zero-gap edges
        # there and the volume lost across the interval above it; spanning
        # [bp[0], bp[j]], the term at bp[j] lands in every row r <= j
        at_point = np.append(rows[1:-1, 1] * np.diff(bp), 0.0) + np.bincount(
            np.searchsorted(bp, self.va[~span]), 2.0 * w[~span], minlength=bp.size
        )
        rows[1:-1, 3] = _interval_sums(bp, np.full(bp.size, bp[0]), bp, [at_point])[0]
        rows[0, 3] = self.total_volume
        rows.setflags(write=False)
        return rows


def _rows_at(profile: ThresholdProfile, t):
    """(cut weight, decay rate, crossing flow, vol_geq) at thresholds t."""
    bp = profile.breakpoints
    r = np.searchsorted(bp, t, "left")
    cut, decay, flow, right = profile.table[r].T
    return cut, decay, flow, right + (bp[np.minimum(r, bp.size - 1)] - t) * decay


def _thin(values: np.ndarray, samples: Optional[int]) -> np.ndarray:
    """At most `samples` of the values, spread evenly; all of them when
    samples is None or <= 0."""
    if samples is None or not 0 < samples < values.size:
        return values
    idx = np.linspace(0, values.size - 1, num=samples).round().astype(np.int64)
    return values[np.unique(idx)]


def _vol_geq_arrays(va, vb, w, t: float) -> float:
    full = t <= va
    cross = (va < t) & (t <= vb)
    out = 2.0 * float(w[full].sum())
    if cross.any():
        out += 2.0 * float(
            (w[cross] * (vb[cross] - t) / (vb[cross] - va[cross])).sum()
        )
    return out


def _center_shift(va, vb, w, total: float) -> Tuple[float, float]:
    """Leftmost shift s with vol_geq(s) = total/2, by bisection.

    Bisection runs to 1e-12 of the voltage range in the argument and keeps
    halving while the volume miss exceeds 1e-10 * total; the achieved miss is
    returned so callers can record it.
    """
    target = total / 2.0
    lo = float(min(va.min(), vb.min()))
    hi = float(vb.max())
    if hi <= lo:
        # all voltages equal; any shift to that value empties or fills, the
        # profile is degenerate (no demand), center on the common value
        return lo, abs(_vol_geq_arrays(va, vb, w, lo) - target)
    rng = hi - lo
    f_hi = _vol_geq_arrays(va, vb, w, hi) - target
    if f_hi > 0:
        hi = np.nextafter(hi, np.inf)
        f_hi = _vol_geq_arrays(va, vb, w, hi) - target
    for _ in range(200):
        if hi - lo <= 1e-12 * rng and abs(f_hi) <= 1e-10 * total:
            break
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        f_mid = _vol_geq_arrays(va, vb, w, mid) - target
        if f_mid > 0:
            lo = mid
        else:
            hi = mid
            f_hi = f_mid
    return hi, abs(f_hi)


def profile_from_voltages(
    g: Multigraph, voltages: np.ndarray, solver_residual: float = 0.0
) -> ThresholdProfile:
    """Build a centered profile from an explicit voltage vector."""
    v = np.asarray(voltages, dtype=np.float64)
    if v.shape != (g.n,):
        raise ValueError(f"voltages must have length n={g.n}")
    raw_va = v[g.tails]
    raw_vb = v[g.heads]
    flip = raw_va > raw_vb
    tails = np.where(flip, g.heads, g.tails)
    heads = np.where(flip, g.tails, g.heads)
    total = float(g.weighted_degrees.sum())
    va = v[tails]
    vb = v[heads]
    shift, residual = _center_shift(va, vb, g.weights, total)
    centered = v - shift
    return ThresholdProfile(
        n=g.n,
        tails=tails,
        heads=heads,
        weights=g.weights.copy(),
        voltages=centered,
        va=centered[tails],
        vb=centered[heads],
        center_shift=float(shift),
        center_residual=float(residual),
        breakpoints=np.unique(centered),
        total_volume=total,
        solver_residual=float(solver_residual),
    )


def threshold_profile(g: Multigraph, chi: np.ndarray, tol: float = 1e-10) -> ThresholdProfile:
    """Solve for the demand's voltages and build the centered profile."""
    chi = validate_demand(g, chi)
    rep = solve_laplacian(g, chi, tol)
    return profile_from_voltages(g, rep.solution, solver_residual=rep.residual_norm)


def mirrored_profile(profile: ThresholdProfile) -> ThresholdProfile:
    """The profile of the negated voltages (swaps source and sink sides).

    Per-edge volumes satisfy vol'_geq(t) = vol(V) - vol_geq(-t), so the
    mirror of a centered profile is centered; the bound checks run the mirror
    to cover thresholds t <= 0 of the original.
    """
    neg = -profile.voltages
    return ThresholdProfile(
        n=profile.n,
        tails=profile.heads,
        heads=profile.tails,
        weights=profile.weights,
        voltages=neg,
        va=-profile.vb,
        vb=-profile.va,
        center_shift=-profile.center_shift,
        center_residual=profile.center_residual,
        breakpoints=np.sort(-profile.breakpoints),
        total_volume=profile.total_volume,
        solver_residual=profile.solver_residual,
    )


def threshold_cut(profile: ThresholdProfile, t: float) -> np.ndarray:
    """Vertex mask of S_t = {a : v(a) >= t} on the centered voltages."""
    return profile.voltages >= t


def threshold_cut_weight(profile: ThresholdProfile, t: float) -> float:
    """Weight of edges crossing S_t (exactly one endpoint at voltage >= t)."""
    return float(_rows_at(profile, t)[0])


def fractional_volume(profile: ThresholdProfile, t: float) -> float:
    """vol_geq(t) under the per-edge full / interpolated / zero case rule."""
    return float(_rows_at(profile, t)[3])


def padded_volume(profile: ThresholdProfile, t: float) -> float:
    """vol_geq(t) + 1, the padded volume the derivative bound divides by."""
    return fractional_volume(profile, t) + 1.0


def volume_decay_rate(profile: ThresholdProfile, t: float) -> float:
    """-d/dt vol_geq at a non-breakpoint t: sum of 2w / (v(b) - v(a)) over
    crossing edges."""
    return float(_rows_at(profile, t)[1])


def crossing_flow(profile: ThresholdProfile, t: float) -> float:
    """Flow across S_t: sum of w (v(b) - v(a)) over crossing edges.

    Equals 1 for every t strictly between t_min and t_max when the voltages
    come from a unit demand, up to solver residual.
    """
    return float(_rows_at(profile, t)[2])


@dataclass(frozen=True)
class IntegralIdentityReport:
    """Both sides of sum_e w |v(b) - v(a)| = integral of delta(t) dt."""

    lhs: float
    rhs: float

    @property
    def gap(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def relative_gap(self) -> float:
        return self.gap / max(abs(self.lhs), abs(self.rhs), 1e-300)


def check_integral_identity(profile: ThresholdProfile) -> IntegralIdentityReport:
    """Compare the stretch sum against the piecewise-constant cut integral.

    lhs sums w (v(b) - v(a)) edge by edge; rhs is the integral of delta(t),
    the table's cut weight per breakpoint interval times the interval's
    length. The identity holds for any voltage vector, so the gap measures
    arithmetic noise only.
    """
    lhs = float((profile.weights * (profile.vb - profile.va)).sum())
    rhs = float(profile.table[1:-1, 0] @ np.diff(profile.breakpoints))
    return IntegralIdentityReport(lhs=lhs, rhs=rhs)


def check_unit_flow(profile: ThresholdProfile) -> float:
    """Max |crossing flow - 1| over every breakpoint interval of the table;
    0.0 when all voltages are equal."""
    return float(np.abs(profile.table[1:-1, 2] - 1.0).max(initial=0.0))


@dataclass(frozen=True)
class DerivativeCheckReport:
    """Worst-case slack of the two derivative inequalities at the samples.

    quad: -d/dt volplus >= 2 delta(t)^2 (crossing flow squared against the
    decay rate). ratio: delta(t) <= (3 / (2 phi)) * decay / volplus. Positive
    violation values mean the inequality failed by that relative amount;
    violations counts samples beyond _DERIVATIVE_TOL.
    """

    evaluated: int
    quad_max_violation: float
    quad_worst_t: float
    ratio_max_violation: float
    ratio_worst_t: float
    violations: int

    @property
    def ok(self) -> bool:
        return self.violations == 0


def check_derivative_bounds(
    profile: ThresholdProfile, phi: float, samples: Optional[int] = 50
) -> DerivativeCheckReport:
    """Check both derivative inequalities at interval midpoints.

    Samples cover the midpoints at t >= 0 on the profile and, through the
    mirrored profile, t <= 0 of the original, each side thinned evenly to
    `samples` points (every midpoint when samples is None or <= 0); phi
    must be a valid conductance (lower bound) for the graph, and a smaller
    phi only weakens the ratio inequality.
    """
    if phi <= 0.0:
        raise ValueError("phi must be positive")
    sides = []
    for sign, prof in ((1.0, profile), (-1.0, mirrored_profile(profile))):
        bp = prof.breakpoints
        mids = 0.5 * (bp[:-1] + bp[1:])
        t = _thin(mids[mids >= 0.0], samples)
        sides.append((sign * t, *_rows_at(prof, t)))
    t, delta, decay, _, vol = map(np.concatenate, zip(*sides))
    lhs = 2.0 * delta * delta
    quad = (lhs - decay) / np.maximum(np.maximum(np.abs(lhs), np.abs(decay)), 1.0)
    allowed = (3.0 / (2.0 * phi)) * decay / (vol + 1.0)
    ratio = (delta - allowed) / np.maximum(np.maximum(np.abs(delta), np.abs(allowed)), 1.0)
    # sentinels report (-inf, nan) as the worst case when nothing was sampled
    t, quad, ratio = np.append(t, np.nan), np.append(quad, -np.inf), np.append(ratio, -np.inf)
    return DerivativeCheckReport(
        evaluated=t.size - 1,
        quad_max_violation=float(quad.max()),
        quad_worst_t=float(t[quad.argmax()]),
        ratio_max_violation=float(ratio.max()),
        ratio_worst_t=float(t[ratio.argmax()]),
        violations=int((quad > _DERIVATIVE_TOL).sum() + (ratio > _DERIVATIVE_TOL).sum()),
    )


def diagnostic_rows(
    profile: ThresholdProfile, samples: Optional[int] = None
) -> List[tuple]:
    """One row per breakpoint-interval midpoint, thinned to `samples` rows
    (every interval when samples is None or <= 0).

    Columns follow DIAGNOSTIC_COLUMNS: threshold, cut weight, fractional
    volume, padded volume, signed derivative of the padded volume, and the
    crossing flow.
    """
    bp = profile.breakpoints
    t = _thin(0.5 * (bp[:-1] + bp[1:]), samples)
    delta, decay, flow, vol = _rows_at(profile, t)
    return list(zip(t.tolist(), delta.tolist(), vol.tolist(), (vol + 1.0).tolist(),
                    (-decay).tolist(), flow.tolist()))
