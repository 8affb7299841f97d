"""Vertex sparsification: Schur complements, boundary extensions, rounding.

A partition splits the vertices into terminals C (kept) and eliminated
vertices F. Eliminating F from the Laplacian gives the Schur complement
L_H = L_CC - L_CF L_FF^{-1} L_FC, itself the Laplacian of a weighted graph
on C. The Schur complement and the harmonic extension both solve against one
sparse LU factor of L_FF, sliced from the cached Laplacian, so the size of F
is not capped and no |F| x |F| block is ever dense. Boundary values on C
extend to F either harmonically (minimizing energy) or by minimizing the l1
edge-difference objective; the l1 problem with 0/1 boundary data is an s-t
minimum cut and always has a 0/1 minimizer, which the level-set rounding
recovers from any real minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg

from .graphs import Multigraph, _interval_sums
from .linalg import laplacian
from .maxflow import min_cut

__all__ = [
    "Partition",
    "read_partition",
    "write_partition",
    "schur_complement",
    "schur_edge_weights",
    "harmonic_extension",
    "extension_energy",
    "cap_to_unit_box",
    "min_l1_extension",
    "l1_objective",
    "discretize_minimizer",
    "random_threshold_cut",
    "expected_cut_l1",
]

# relative size below which a Schur weight is fill-in noise (perfbench mirrors it)
_SCHUR_DROP = 1e-12
# relative objective rise that shows discretize_minimizer was given no minimizer
_ROUNDING_TOL = 1e-6


@dataclass(frozen=True)
class Partition:
    """Terminals C and eliminated vertices F, each sorted ascending."""

    n: int
    terminals: np.ndarray
    eliminated: np.ndarray

    def __post_init__(self):
        c = np.unique(np.asarray(self.terminals, dtype=np.int64))
        f = np.unique(np.asarray(self.eliminated, dtype=np.int64))
        if c.size == 0:
            raise ValueError("partition needs at least one terminal")
        ids = np.concatenate([c, f])
        if ids.size != self.n or np.unique(ids).size != self.n:
            raise ValueError("terminals and eliminated must partition 0..n-1")
        if ids.min() < 0 or ids.max() >= self.n:
            raise ValueError("vertex id out of range")
        object.__setattr__(self, "terminals", c)
        object.__setattr__(self, "eliminated", f)
        c.setflags(write=False)
        f.setflags(write=False)

    @classmethod
    def from_eliminated(cls, n: int, eliminated) -> "Partition":
        """Partition with the given eliminated set; the rest are terminals."""
        f = np.unique(np.asarray(eliminated, dtype=np.int64))
        mask = np.ones(n, dtype=bool)
        if f.size:
            if f.min() < 0 or f.max() >= n:
                raise ValueError("vertex id out of range")
            mask[f] = False
        return cls(n, np.flatnonzero(mask), f)


def write_partition(part: Partition, path) -> None:
    """Write the text format: a 'C: id id ...' line then an 'F: id id ...' line."""
    with open(path, "w") as fh:
        fh.write("C: " + " ".join(str(int(v)) for v in part.terminals) + "\n")
        fh.write("F: " + " ".join(str(int(v)) for v in part.eliminated) + "\n")


def read_partition(path, n: int) -> Partition:
    sets: Dict[str, List[int]] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, rest = line.partition(":")
            key = key.strip().upper()
            if key not in ("C", "F"):
                raise ValueError(f"{path}: expected 'C:' or 'F:' lines, got {key!r}")
            sets[key] = [int(tok) for tok in rest.split()]
    if "C" not in sets:
        raise ValueError(f"{path}: missing 'C:' line")
    return Partition(n, np.array(sets.get("C", []), dtype=np.int64),
                     np.array(sets.get("F", []), dtype=np.int64))


def _elimination(g: Multigraph, part: Partition) -> tuple:
    """(L_FC, sparse LU of L_FF): the one elimination behind the Schur
    complement and the harmonic extension, both sliced from the cached
    Laplacian.

    L_FF is nonsingular exactly when every connected component keeps a
    terminal; a component without one is refused. F may be empty.
    """
    if part.n != g.n:
        raise ValueError("partition size does not match the graph")
    labels = g.component_labels
    drained = np.zeros(int(labels.max()) + 1, dtype=bool)
    drained[labels[part.terminals]] = True
    if not drained.all():
        ids = np.flatnonzero(labels == np.argmin(drained))
        raise ValueError(
            f"eliminated set swallows a whole connected component "
            f"(vertices {ids.tolist()}); its Laplacian block is singular"
        )
    f = part.eliminated
    f_rows = g.laplacian[f]
    lu = scipy.sparse.linalg.splu(sp.csc_array(f_rows[:, f]), permc_spec="MMD_AT_PLUS_A")
    return f_rows[:, part.terminals], lu


def schur_complement(g: Multigraph, part: Partition) -> np.ndarray:
    """Dense Schur complement L_CC - L_CF L_FF^{-1} L_FC, ordered by
    ascending terminal id.

    L_FF is eliminated through one sparse LU factor, so |F| has no cap; the
    dense arrays are the |F| x |C| right-hand side L_FC, its solve and the
    result. Every connected component must keep at least one terminal,
    otherwise the eliminated block is singular and the elimination is
    refused.
    """
    l_fc, lu = _elimination(g, part)
    c = part.terminals
    l_cc = g.laplacian[c][:, c].toarray()
    if part.eliminated.size == 0:
        return l_cc
    # power-of-two instances stay bit-exact: the 3-path gives exactly 1/2
    return l_cc - l_fc.T @ lu.solve(l_fc.toarray())


def schur_edge_weights(g: Multigraph, part: Partition) -> Dict[tuple, float]:
    """Off-diagonal Schur weights as {(u, v): weight} on original ids, u < v.

    Entries below _SCHUR_DROP (relative to the largest magnitude) are dropped
    as elimination fill-in noise.
    """
    sc = schur_complement(g, part)
    c = part.terminals
    scale = float(np.abs(sc).max()) if sc.size else 0.0
    out: Dict[tuple, float] = {}
    for i, u in enumerate(c[:-1].tolist()):
        w = -sc[i, i + 1:]
        keep = np.abs(w) > _SCHUR_DROP * max(scale, 1.0)
        out.update(zip(((u, v) for v in c[i + 1:][keep].tolist()), w[keep].tolist()))
    return out


def _box_check(x: np.ndarray, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.size and (x.min() < 0.0 or x.max() > 1.0):
        raise ValueError(f"{name} entries must lie in [0, 1]")
    return x


def harmonic_extension(g: Multigraph, part: Partition, x: np.ndarray) -> np.ndarray:
    """Energy-minimizing extension y = -L_FF^{-1} L_FC x of boundary data x.

    x is indexed by ascending terminal id, the result by ascending eliminated
    id. L_FF is solved through one sparse LU factor, so |F| has no cap. The
    maximum principle keeps y inside [min x, max x]; values are clamped to
    [0, 1] only to shave float noise (drift beyond 1e-10 trips an internal
    check instead of being hidden).
    """
    l_fc, lu = _elimination(g, part)
    x = _box_check(x, "boundary")
    if x.shape != (part.terminals.size,):
        raise ValueError("need one boundary value per terminal")
    # + 0.0 turns the -0.0 of a zero right-hand side into 0.0 (printed "0")
    y = lu.solve(-(l_fc @ x)) + 0.0
    if y.size and (y.min() < -1e-10 or y.max() > 1.0 + 1e-10):
        raise RuntimeError(
            f"harmonic extension left the unit box by more than float noise "
            f"(range [{y.min()}, {y.max()}])"
        )
    return np.clip(y, 0.0, 1.0)


def _full_vector(g: Multigraph, part: Partition, x, y) -> np.ndarray:
    z = np.empty(g.n)
    z[part.terminals] = x
    z[part.eliminated] = y
    return z


def extension_energy(g: Multigraph, part: Partition, x, y) -> float:
    """Energy z^T L z of the combined boundary + extension vector."""
    z = _full_vector(g, part, np.asarray(x, float), np.asarray(y, float))
    return float(z @ (laplacian(g) @ z))


def l1_objective(g: Multigraph, part: Partition, x, y) -> float:
    """Weighted l1 edge-difference objective sum_e w |z(a) - z(b)|."""
    z = _full_vector(g, part, np.asarray(x, float), np.asarray(y, float))
    return float((g.weights * np.abs(z[g.heads] - z[g.tails])).sum())


def cap_to_unit_box(y: np.ndarray) -> np.ndarray:
    """Clamp entries into [0, 1]; never increases the l1 or energy objective."""
    return np.clip(np.asarray(y, dtype=np.float64), 0.0, 1.0)


def min_l1_extension(
    g: Multigraph, part: Partition, x: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Minimize the l1 objective over extensions of 0/1 boundary data.

    The minimum over real-valued y is attained at a 0/1 point, so the problem
    is the minimum cut separating the 1-terminals from the 0-terminals;
    returned y assigns each eliminated vertex its cut side, preferring the
    0 side on ties (smallest source side). The value is the exact crossing
    weight of the returned assignment. All-equal boundary data short-circuits
    to the constant extension with value 0.
    """
    if part.n != g.n:
        raise ValueError("partition size does not match the graph")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (part.terminals.size,):
        raise ValueError("need one boundary value per terminal")
    if not np.all((x == 0.0) | (x == 1.0)):
        raise ValueError("boundary data must be 0/1")
    f = part.eliminated
    if np.all(x == 1.0):
        return 0.0, np.ones(f.size)
    if np.all(x == 0.0):
        return 0.0, np.zeros(f.size)

    # contract 1-terminals into the source, 0-terminals into the sink; arcs
    # keep the edge order
    src, snk = f.size, f.size + 1
    node_of = np.empty(g.n, dtype=np.int64)
    node_of[f] = np.arange(f.size)
    node_of[part.terminals] = np.where(x == 1.0, src, snk)
    tails, heads = node_of[g.tails], node_of[g.heads]
    keep = tails != heads
    arcs = list(zip(tails[keep].tolist(), heads[keep].tolist(), g.weights[keep].tolist()))
    value, side = min_cut(f.size + 2, arcs, src, snk)
    y = side[: f.size].astype(np.float64)
    return value, y


def discretize_minimizer(
    g: Multigraph, part: Partition, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Round a real minimizer of the l1 extension problem to a 0/1 one.

    Repeatedly shifts the smallest positive level set of y to 0: for a true
    minimizer the objective is linear, hence constant, along that shift, so
    each step preserves the value and strictly grows the 0/1 set. Values
    within 1e-9 of each other (or of 0/1) are snapped together first. If a
    step raises the objective beyond _ROUNDING_TOL (relative), y was not a
    minimizer and the offending level is reported.
    """
    if part.n != g.n:
        raise ValueError("partition size does not match the graph")
    x = np.asarray(x, dtype=np.float64)
    if not np.all((x == 0.0) | (x == 1.0)):
        raise ValueError("boundary data must be 0/1")
    y = _box_check(np.array(y, dtype=np.float64, copy=True), "extension")
    if y.shape != (part.eliminated.size,):
        raise ValueError("need one extension value per eliminated vertex")

    # snap near-equal levels to their common minimum, and the 0/1 rims exactly
    order = np.argsort(y, kind="stable")
    snapped = y[order].copy()
    for i in range(1, snapped.size):
        if snapped[i] - snapped[i - 1] <= 1e-9:
            snapped[i] = snapped[i - 1]
    snapped[snapped <= 1e-9] = 0.0
    snapped[snapped >= 1.0 - 1e-9] = 1.0
    y[order] = snapped

    objective = l1_objective(g, part, x, y)
    scale = max(abs(objective), 1.0)
    for _ in range(y.size):
        interior = (y > 0.0) & (y < 1.0)
        if not interior.any():
            break
        r = float(y[y > 0.0].min())
        level = y == r
        candidate = y.copy()
        candidate[level] = 0.0
        new_objective = l1_objective(g, part, x, candidate)
        if new_objective > objective + _ROUNDING_TOL * scale:
            raise ValueError(
                f"not a minimizer: shifting level {r} to 0 raises the "
                f"objective from {objective} to {new_objective}"
            )
        y = candidate
        objective = new_objective
    return y


def random_threshold_cut(x: np.ndarray, t: float) -> np.ndarray:
    """Membership mask of the threshold set {a : x(a) >= t} for x in [0,1]^V.

    An edge (a, b) lands across the cut exactly when t falls strictly between
    its endpoint values, so a uniform t in [0, 1] crosses it with probability
    |x(a) - x(b)|; the expected cut weight is the l1 objective.
    """
    x = _box_check(x, "vector")
    return x >= t


def expected_cut_l1(g: Multigraph, x: np.ndarray) -> Tuple[float, float]:
    """Expected threshold-cut weight two ways: closed form and integration.

    Returns (sum_e w |x(a) - x(b)|, integral over [0, 1] of the cut weight of
    {x >= t} dt), computed independently: the closed form edge by edge, the
    integral as the cut weight on each interval between sorted distinct
    values of x (summed per interval like the threshold table's) times the
    interval's length.
    """
    x = _box_check(x, "vector")
    if x.shape != (g.n,):
        raise ValueError(f"need one value per vertex, n={g.n}")
    closed = float((g.weights * np.abs(x[g.heads] - x[g.tails])).sum())
    points = np.unique(np.concatenate([[0.0, 1.0], x]))
    lo, hi = np.minimum(x[g.tails], x[g.heads]), np.maximum(x[g.tails], x[g.heads])
    (cut,) = _interval_sums(points, lo, hi, [g.weights])
    return closed, float(cut @ np.diff(points))
