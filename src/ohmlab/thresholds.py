"""Threshold-cut diagnostics over electrical voltage profiles.

For a voltage vector v the threshold cut at t is S_t = {a : v(a) >= t}. The
fractional volume vol_geq(t) counts, per edge aligned so v(a) <= v(b), the
full 2w while t <= v(a), the interpolated share 2w (v(b) - t) / (v(b) - v(a))
while v(a) < t <= v(b), and zero afterwards; edges with v(a) = v(b) count
fully until t passes their value and never cross a cut. The profile keeps
the solved voltages as they are; its centring shift s, chosen so
vol_geq(s) = vol(V)/2, makes the two half-axes comparable and is the
convention the derivative inequalities assume. A threshold t is reported
centred, as t - s, only where it leaves the profile.

Between consecutive breakpoints bp (the distinct voltages) the crossing set
is fixed: cut weight, decay rate -d/dt vol_geq and crossing flow are constant
and vol_geq is linear. `ThresholdProfile.table` holds them, one row per
interval, and every quantity below reads it. A float t lands in row
r = searchsorted(bp, t, 'left'), the interval (bp[r-1], bp[r]] whose crossing
set {v(a) < t <= v(b)} is the edges with v(a) <= bp[r-1] and v(b) >= bp[r];
rows 0 (t <= bp[0]) and len(bp) (t > bp[-1]) cross nothing and have vol_geq
vol(V) and 0. In row r, vol_geq(t) = vol_geq(bp[r]) + (bp[r] - t) * decay.
The table also holds vol_leq at each row's left end, the volume of the low
side {v <= t} that the derivative check divides by below the shift; it is
summed from the low end, never taken as vol(V) - vol_geq, which cancels when
the low side is light. In row r,
vol_leq(t) = vol_leq(bp[r-1]) + (t - bp[r-1]) * decay. The centring
bisection reads vol_geq off the same table.

Everything here is exact piecewise arithmetic on the breakpoint grid; the
only approximation in the pipeline is the Laplacian solve that produced v.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional

import numpy as np

from .graphs import Multigraph, _interval_sums
from .linalg import solve_laplacian

__all__ = [
    "ThresholdProfile",
    "threshold_profile",
    "profile_from_voltages",
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
    """Solved voltages with per-edge data aligned so va <= vb.

    voltages, va, vb and breakpoints are in the solve's own coordinates, and
    the table is built on them. center_shift is the threshold s read off
    that table with vol_geq(s) = vol(V)/2, and t_min and t_max are the
    extreme voltages centred by it. center_residual records how far
    vol_geq(s) landed from vol(V)/2 (bisection is argument-limited, so this
    is the honest achieved miss). solver_residual carries the Laplacian
    residual of the voltage solve, 0.0 for profiles built from explicit
    voltages.
    """

    weights: np.ndarray
    voltages: np.ndarray
    va: np.ndarray
    vb: np.ndarray
    breakpoints: np.ndarray
    total_volume: float
    solver_residual: float = 0.0

    @property
    def t_min(self) -> float:
        return float(self.breakpoints[0] - self.center_shift)

    @property
    def t_max(self) -> float:
        return float(self.breakpoints[-1] - self.center_shift)

    @cached_property
    def center_shift(self) -> float:
        """Leftmost s with vol_geq(s) = vol(V)/2, by bisection on the table.

        Bisection runs to 1e-12 of the voltage range in the argument and
        keeps halving while the volume miss exceeds 1e-10 * vol(V). When all
        voltages are equal there is no demand, and s is their common value.
        """
        bp, total = self.breakpoints, self.total_volume
        lo, hi = float(bp[0]), float(bp[-1])
        if hi <= lo:
            return lo
        rng = hi - lo
        f_hi = self._center_miss(hi)
        if f_hi > 0:
            hi = float(np.nextafter(hi, np.inf))
            f_hi = self._center_miss(hi)
        for _ in range(200):
            if hi - lo <= 1e-12 * rng and abs(f_hi) <= 1e-10 * total:
                break
            mid = 0.5 * (lo + hi)
            if not (lo < mid < hi):
                break
            f_mid = self._center_miss(mid)
            if f_mid > 0:
                lo = mid
            else:
                hi, f_hi = mid, f_mid
        return hi

    @property
    def center_residual(self) -> float:
        return abs(self._center_miss(self.center_shift))

    def _center_miss(self, t: float) -> float:
        return float(_rows_at(self, t)[3]) - self.total_volume / 2.0

    @cached_property
    def table(self) -> np.ndarray:
        """Read-only, one row per threshold interval (module docstring): cut
        weight, decay rate, crossing flow, vol_geq at the right end and
        vol_leq at the left end."""
        bp, w, span = self.breakpoints, self.weights, self.va < self.vb
        ws, gs = w[span], self.vb[span] - self.va[span]
        rows = np.zeros((bp.size + 1, 5))
        columns = [ws, 2.0 * ws / gs, ws * gs]
        rows[1:-1, :3] = _interval_sums(bp, self.va[span], self.vb[span], columns).T
        # vol_geq(bp[r]) adds, at each bp[j] >= bp[r], the zero-gap edges
        # there and the volume lost across the interval above it; spanning
        # [bp[0], bp[j]], the term at bp[j] lands in every row r <= j.
        # vol_leq(bp[r - 1]) adds the same from below: the zero-gap edges at
        # each bp[j] <= bp[r - 1] and the volume gained across the interval
        # below it, spanning [bp[j], bp[-1]]
        lost = rows[1:-1, 1] * np.diff(bp)
        flat = np.bincount(np.searchsorted(bp, self.va[~span]), 2.0 * w[~span],
                           minlength=bp.size)
        low, high = np.full(bp.size, bp[0]), np.full(bp.size, bp[-1])
        rows[1:-1, 3] = _interval_sums(bp, low, bp, [np.append(lost, 0.0) + flat])[0]
        rows[1:-1, 4] = _interval_sums(bp, bp, high, [np.insert(lost, 0, 0.0) + flat])[0]
        rows[0, 3] = rows[-1, 4] = self.total_volume
        rows.setflags(write=False)
        return rows


def _rows_at(profile: ThresholdProfile, t):
    """(cut weight, decay rate, crossing flow, vol_geq) at thresholds t."""
    bp = profile.breakpoints
    r = np.searchsorted(bp, t, "left")
    cut, decay, flow, right, _ = profile.table[r].T
    return cut, decay, flow, right + (bp[np.minimum(r, bp.size - 1)] - t) * decay


def _thin(values: np.ndarray, samples: Optional[int]) -> np.ndarray:
    """At most `samples` of the values, spread evenly; all of them when
    samples is None or <= 0."""
    if samples is None or not 0 < samples < values.size:
        return values
    idx = np.linspace(0, values.size - 1, num=samples).round().astype(np.int64)
    return values[np.unique(idx)]


def profile_from_voltages(
    g: Multigraph, voltages: np.ndarray, solver_residual: float = 0.0
) -> ThresholdProfile:
    """Build the profile of an explicit voltage vector."""
    v = np.asarray(voltages, dtype=np.float64)
    if v.shape != (g.n,):
        raise ValueError(f"voltages must have length n={g.n}")
    return ThresholdProfile(
        weights=g.weights,
        voltages=v,
        va=np.minimum(v[g.tails], v[g.heads]),
        vb=np.maximum(v[g.tails], v[g.heads]),
        breakpoints=np.unique(v),
        total_volume=float(g.weighted_degrees.sum()),
        solver_residual=float(solver_residual),
    )


def threshold_profile(g: Multigraph, chi: np.ndarray) -> ThresholdProfile:
    """Solve for the demand's voltages and build their profile.

    The voltages are harmonic off the demand's support, so by the maximum
    principle the support's extremes bound them all. The solve is clamped to
    that range: a voltage within eps of exact stays within eps, and one that
    rounding pushed past the sink no longer opens an interval whose threshold
    set is not a source-sink cut."""
    rep = solve_laplacian(g, chi)
    chi = np.asarray(chi, dtype=np.float64)
    voltages = rep.solution
    if chi.any():
        support = voltages[chi != 0]
        voltages = np.clip(voltages, support.min(), support.max())
    return profile_from_voltages(g, voltages, solver_residual=rep.residual_norm)


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
    arithmetic noise only. Both are pairwise sums, not a BLAS dot, whose
    order follows the thread count.
    """
    lhs = float((profile.weights * (profile.vb - profile.va)).sum())
    rhs = float((profile.table[1:-1, 0] * np.diff(profile.breakpoints)).sum())
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
    profile: ThresholdProfile, phi: float, samples: Optional[int] = None
) -> DerivativeCheckReport:
    """Check both derivative inequalities at interval midpoints.

    Samples cover the midpoints at or above the centring shift s, where the
    volume is vol_geq(t), and those at or below it, where it is vol_leq(t),
    the volume of the low side {v <= t}; each side is thinned evenly from s
    outwards to `samples` points (every midpoint when samples is None or
    <= 0). Both sides read the one interval table, and the worst t are
    reported centred. phi must be a valid conductance (lower bound) for the
    graph, and a smaller phi only weakens the ratio inequality.
    """
    if not phi > 0.0:
        raise ValueError(f"phi must be positive, got {phi}")
    bp, shift = profile.breakpoints, profile.center_shift
    mids = 0.5 * (bp[:-1] + bp[1:])
    up = _thin(mids[mids >= shift], samples)
    down = _thin(mids[mids <= shift][::-1], samples)
    # the low side's crossing set is {v(a) <= t < v(b)}: a midpoint that
    # rounded onto a breakpoint reads the interval above it
    r = np.searchsorted(bp, down, "right")
    low_delta, low_decay, _, _, left = profile.table[r].T
    delta, decay, _, vol = _rows_at(profile, up)
    t = np.concatenate([up, down]) - shift
    delta, decay = np.concatenate([delta, low_delta]), np.concatenate([decay, low_decay])
    vol = np.concatenate([vol, left + (down - bp[r - 1]) * low_decay])
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

    Columns follow DIAGNOSTIC_COLUMNS: centred threshold, cut weight,
    fractional volume, padded volume, signed derivative of the padded volume,
    and the crossing flow.
    """
    bp = profile.breakpoints
    t = _thin(0.5 * (bp[:-1] + bp[1:]), samples)
    delta, decay, flow, vol = _rows_at(profile, t)
    t = t - profile.center_shift
    return list(zip(t.tolist(), delta.tolist(), vol.tolist(), (vol + 1.0).tolist(),
                    (-decay).tolist(), flow.tolist()))
