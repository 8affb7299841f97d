"""Vertex sparsification: Schur complements, boundary extensions, rounding.

A partition splits the vertices into terminals C (kept) and eliminated
vertices F. Eliminating F from the Laplacian gives the Schur complement
L_H = L_CC - L_CF L_FF^{-1} L_FC, itself the Laplacian of a weighted graph
on C. The Schur complement and the harmonic extension both solve against one
sparse LU factor of L_FF, sliced from the cached Laplacian and factored like
the grounded Laplacian (`_spd_factor`), so the size of F is not capped and
no |F| x |F| block is ever dense. The Schur complement is eliminated in
column blocks into a sparse result, which schur_edge_weights reads directly;
only the public schur_complement densifies it. Boundary values on C extend
to F either harmonically (minimizing energy) or by minimizing the l1
edge-difference objective; the l1 problem with 0/1 boundary data is an s-t
minimum cut and always has a 0/1 minimizer, which the level-set rounding
recovers from any real minimizer; its check and the rounding integral read
one threshold sweep (`_threshold_cuts`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
import scipy.sparse as sp

from .graphs import Multigraph, _ids, _interval_sums, _spd_factor, as_vertex_mask
from .linalg import _BLOCK_COLUMNS, laplacian
from .maxflow import min_cut

__all__ = [
    "Partition",
    "read_partition",
    "write_partition",
    "schur_complement",
    "schur_edge_weights",
    "harmonic_extension",
    "extension_energy",
    "min_l1_extension",
    "l1_objective",
    "discretize_minimizer",
    "expected_cut_l1",
]

# relative size below which a Schur weight is dropped (perfbench mirrors it):
# a size cut, not a noise floor, as the dropped weights are accurate too
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
        # sorted copies, not np.unique: a repeated id must fail the size check
        c = np.sort(_ids(self.terminals, self.n, "vertex id"))
        f = np.sort(_ids(self.eliminated, self.n, "vertex id"))
        if c.size == 0:
            raise ValueError("partition needs at least one terminal")
        ids = np.concatenate([c, f])
        if ids.size != self.n or np.unique(ids).size != self.n:
            raise ValueError("terminals and eliminated must partition 0..n-1, each id once")
        object.__setattr__(self, "terminals", c)
        object.__setattr__(self, "eliminated", f)
        c.setflags(write=False)
        f.setflags(write=False)

    @classmethod
    def from_eliminated(cls, n: int, eliminated) -> "Partition":
        """Partition with the given eliminated set; the rest are terminals."""
        return cls(n, np.flatnonzero(~as_vertex_mask(n, eliminated)), eliminated)


def write_partition(part: Partition, path) -> None:
    """Write the text format: a 'C: id id ...' line then an 'F: id id ...' line."""
    with open(path, "w") as fh:
        fh.write("C: " + " ".join(str(int(v)) for v in part.terminals) + "\n")
        fh.write("F: " + " ".join(str(int(v)) for v in part.eliminated) + "\n")


def read_partition(path, n: int) -> Partition:
    sets: Dict[str, List[str]] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, rest = line.partition(":")
            key = key.strip().upper()
            if key not in ("C", "F"):
                raise ValueError(f"{path}: expected 'C:' or 'F:' lines, got {key!r}")
            if key in sets:
                raise ValueError(f"{path}: repeated '{key}:' line")
            sets[key] = rest.split()
    if "C" not in sets:
        raise ValueError(f"{path}: missing 'C:' line")
    try:
        return Partition(n, [int(t) for t in sets["C"]], [int(t) for t in sets.get("F", [])])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _same_n(g: Multigraph, part: Partition) -> None:
    if part.n != g.n:
        raise ValueError("partition size does not match the graph")


def _boundary(g: Multigraph, part: Partition, x) -> np.ndarray:
    _same_n(g, part)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (part.terminals.size,):
        got = f"got {x.size} values" if x.ndim == 1 else f"got shape {x.shape}"
        raise ValueError(f"need one boundary value per terminal: "
                         f"{part.terminals.size} terminals, {got}")
    return x


def _zero_one(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if not np.all((x == 0.0) | (x == 1.0)):
        raise ValueError("boundary data must be 0/1")
    return x


def _elimination(g: Multigraph, part: Partition) -> tuple:
    """(L_FC, sparse LU of L_FF): the one elimination behind the Schur
    complement and the harmonic extension, both sliced from the cached
    Laplacian.

    L_FF is nonsingular, hence positive definite, exactly when every
    connected component keeps a terminal; a component without one is
    refused. F may be empty.
    """
    _same_n(g, part)
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
    return f_rows[:, part.terminals], _spd_factor(f_rows[:, f])


def _schur_sparse(g: Multigraph, part: Partition) -> sp.csr_array:
    """Sparse Schur complement L_CC - L_CF L_FF^{-1} L_FC, ordered by ascending
    terminal id: the one result behind both public Schur functions.

    L_FC is solved against the L_FF factor in blocks of _BLOCK_COLUMNS
    columns, and each block of L_CF X is kept sparse, so only one |F| x k and
    one |C| x k dense block live at a time. SuperLU solves every column on its
    own and the product sums each entry in L_CF's nonzero order, so every
    entry has the same bits whatever the block width.
    """
    l_fc, lu = _elimination(g, part)
    c = part.terminals
    l_cc = g.laplacian[c][:, c]
    if part.eliminated.size == 0:
        return l_cc
    blocks = [
        sp.csc_array(l_fc.T @ lu.solve(l_fc[:, start:start + _BLOCK_COLUMNS].toarray()))
        for start in range(0, c.size, _BLOCK_COLUMNS)
    ]
    # power-of-two instances stay bit-exact: the 3-path gives exactly 1/2
    return l_cc - sp.hstack(blocks, format="csr")


def schur_complement(g: Multigraph, part: Partition) -> np.ndarray:
    """Dense Schur complement L_CC - L_CF L_FF^{-1} L_FC, ordered by
    ascending terminal id.

    L_FF is eliminated through one sparse LU factor, so |F| has no cap, and
    the elimination runs in column blocks with a sparse result; only this
    final |C| x |C| array is dense. Every connected component must keep at
    least one terminal, otherwise the eliminated block is singular and the
    elimination is refused.
    """
    return _schur_sparse(g, part).toarray()


def schur_edge_weights(g: Multigraph, part: Partition) -> Dict[tuple, float]:
    """Off-diagonal Schur weights as {(u, v): weight} on original ids, u < v,
    in row-major order.

    Entries below _SCHUR_DROP (relative to the largest magnitude) are
    dropped, a size cut. The Schur complement is never densified.
    """
    sc = _schur_sparse(g, part)
    c = part.terminals
    # the scale is the largest |entry|, diagonal included, floored at 1
    cutoff = _SCHUR_DROP * float(np.abs(sc.data).max(initial=1.0))
    upper = sp.triu(sc, k=1, format="csr")
    # canonical form sorts each row's columns, so the dict comes out row-major
    upper.sum_duplicates()
    rows = np.repeat(c, np.diff(upper.indptr))
    w = -upper.data
    keep = np.abs(w) > cutoff
    pairs = zip(rows[keep].tolist(), c[upper.indices[keep]].tolist())
    return dict(zip(pairs, w[keep].tolist()))


def _box_check(x: np.ndarray, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    # written so that NaN fails it, like linalg._check_p
    if x.size and not (x.min() >= 0.0 and x.max() <= 1.0):
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
    x = _box_check(_boundary(g, part, x), "boundary")
    l_fc, lu = _elimination(g, part)
    # + 0.0 turns the -0.0 of a zero right-hand side into 0.0 (printed "0")
    y = lu.solve(-(l_fc @ x)) + 0.0
    if y.size and (y.min() < -1e-10 or y.max() > 1.0 + 1e-10):
        raise RuntimeError(
            f"harmonic extension left the unit box by more than float noise "
            f"(range [{y.min()}, {y.max()}])"
        )
    return np.clip(y, 0.0, 1.0)


def _full_vector(g: Multigraph, part: Partition, x, y) -> np.ndarray:
    """One vertex vector: x on the terminals, y on the eliminated vertices."""
    x = _boundary(g, part, x)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (part.eliminated.size,):
        raise ValueError("need one extension value per eliminated vertex")
    z = np.empty(g.n)
    z[part.terminals] = x
    z[part.eliminated] = y
    return z


def extension_energy(g: Multigraph, part: Partition, x, y) -> float:
    """Energy z^T L z of the combined boundary + extension vector."""
    z = _full_vector(g, part, x, y)
    return float(z @ (laplacian(g) @ z))


def l1_objective(g: Multigraph, part: Partition, x, y) -> float:
    """Weighted l1 edge-difference objective sum_e w |z(a) - z(b)|."""
    z = _full_vector(g, part, x, y)
    return float((g.weights * np.abs(z[g.heads] - z[g.tails])).sum())


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
    x = _zero_one(_boundary(g, part, x))
    f = part.eliminated
    if np.all(x == 1.0):
        return 0.0, np.ones(f.size)
    if np.all(x == 0.0):
        return 0.0, np.zeros(f.size)

    # contract 1-terminals into the source, 0-terminals into the sink; edges
    # inside either become self-loops, which min_cut skips
    src, snk = f.size, f.size + 1
    node_of = np.empty(g.n, dtype=np.int64)
    node_of[f] = np.arange(f.size)
    node_of[part.terminals] = np.where(x == 1.0, src, snk)
    value, side = min_cut(f.size + 2, node_of[g.tails], node_of[g.heads], g.weights, src, snk)
    y = side[: f.size].astype(np.float64)
    return value, y


def _threshold_cuts(g: Multigraph, z: np.ndarray) -> tuple:
    """(points, cut): the sorted distinct values of z, 0 and 1, and the cut
    weight of {z >= t} on each interval between consecutive points."""
    points = np.unique(np.concatenate([[0.0, 1.0], z]))
    (cut,) = _interval_sums(points, z[g.tails], z[g.heads], [g.weights])
    return points, cut


def discretize_minimizer(
    g: Multigraph, part: Partition, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Round a real minimizer of the l1 extension problem to a 0/1 one.

    Shifts each level of y in (0, 1) to 0, smallest first: for a true
    minimizer the objective is linear, hence constant, along each shift.
    Values within 1e-9 of each other (or of 0/1) are snapped together first.
    Shifting level r to 0 changes the objective by r (cut above r - cut
    below r), so one threshold sweep checks every step. If a step raises the
    objective beyond _ROUNDING_TOL (relative), y was not a minimizer and the
    first offending level is reported.
    """
    x = _zero_one(x)
    y = _box_check(np.array(y, dtype=np.float64, copy=True), "extension")

    # snap near-equal levels to their common minimum, and the 0/1 rims exactly
    order = np.argsort(y, kind="stable")
    snapped = y[order].copy()
    for i in range(1, snapped.size):
        if snapped[i] - snapped[i - 1] <= 1e-9:
            snapped[i] = snapped[i - 1]
    snapped[snapped <= 1e-9] = 0.0
    snapped[snapped >= 1.0 - 1e-9] = 1.0
    y[order] = snapped

    points, cut = _threshold_cuts(g, _full_vector(g, part, x, y))
    rise = points[1:-1] * np.diff(cut)
    objective = l1_objective(g, part, x, y)
    bad = np.flatnonzero(rise > _ROUNDING_TOL * max(objective, 1.0))
    if bad.size:
        raise ValueError(
            f"not a minimizer: shifting level {points[bad[0] + 1]} to 0 raises "
            f"the objective {objective} by {rise[bad[0]]}"
        )
    return np.where(y == 1.0, 1.0, 0.0)


def expected_cut_l1(g: Multigraph, x: np.ndarray) -> Tuple[float, float]:
    """Expected threshold-cut weight two ways: closed form and integration.

    Returns (sum_e w |x(a) - x(b)|, integral over [0, 1] of the cut weight of
    {x >= t} dt), computed independently: the closed form edge by edge, the
    integral as the cut weight on each interval between sorted distinct
    values of x (`_threshold_cuts`) times the interval's length.
    """
    x = _box_check(x, "vector")
    if x.shape != (g.n,):
        raise ValueError(f"need one value per vertex, n={g.n}")
    closed = float((g.weights * np.abs(x[g.heads] - x[g.tails])).sum())
    points, cut = _threshold_cuts(g, x)
    # a pairwise sum, not a BLAS dot, whose split depends on the thread count
    return closed, float(np.sum(cut * np.diff(points)))
