"""Weighted undirected multigraphs and their cut structure.

Edges are stored as parallel (tail, head, weight) arrays. The (tail, head)
order fixes an arbitrary orientation that the incidence matrix and flow
vectors refer to; the graph itself is undirected. Weights are finite reals
>= 1, self-loops are rejected, parallel edges are allowed.

Adjacency lives in one place, the cached `Multigraph.laplacian`: component
labels, the exact conductance's cut tables, the conductance bracket's
normalized Laplacian and girth all read it, never per-vertex lists. Its one
factorization, the cached `Multigraph.laplacian_factor` with vertex 0
grounded, decides by itself whether to exist: only up to _DIRECT_VERTEX_CAP
vertices. Where it exists it serves linalg's solves, nothing else; the
all-pairs sweep solves in the same blocks either way; its recipe,
`_spd_factor`, also factors sparsify's eliminated block. The conductance
bracket's lambda_2 never reads it: dense eigh up to _DENSE_EIGEN_CAP
vertices, Lanczos on a Chebyshev filter of the normalized Laplacian above,
which needs only its sparse products.

Vertex sets are numpy boolean masks of length n (bitset semantics). Helpers
accept index iterables as well and normalize them. Every vertex and edge id
in the library passes one rule, `_ids`: integers in range, a float id
refused, not truncated.
"""

from __future__ import annotations

import io
import re
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
from scipy.sparse import csgraph

from .errors import ConvergenceError, DisconnectedError, SizeLimitError

__all__ = [
    "Multigraph",
    "ConductanceCertificate",
    "as_vertex_mask",
    "conductance_exact",
    "conductance_bounds",
    "girth",
    "random_regular",
    "gadget_subdivide",
    "graph_union",
    "read_graph",
    "write_graph",
    "graph_text",
    "cycle_graph",
    "path_graph",
    "petersen_graph",
]

# most edges gadget_subdivide may create
DEFAULT_EDGE_CAP = 2_000_000
# random_regular's pairing attempts before it gives up
_PAIRING_TRIES = 10_000
# most stubs (pairing tries times n * d) random_regular draws in one batch:
# 256 KB of int64, so above n * d = 16384 it draws one try at a time
_PAIRING_BATCH_ENTRIES = 1 << 15
# conductance is enumerated exactly up to this many vertices, and bracketed
# by conductance_bounds above it
EXACT_CONDUCTANCE_CAP = 24
# conductance_exact evaluates this many cuts per block into three reused
# 256 KB float buffers, small enough to stay in a 2 MB L2 cache together
_CUT_BLOCK_ENTRIES = 1 << 15
# ARPACK restart budget; graphs above 1000 vertices get 10 per vertex
_EIGSH_MAXITER = 10_000
# girth's BFS runs over chunks of sources with this many (source, vertex) and
# (source, edge) entries each
_BFS_CHUNK_ENTRIES = 1 << 20
# Largest vertex count whose Laplacian is factored, for linalg's solves
# only; lambda_2 never reads it. Expander fill-in makes the factor cost grow
# faster than n^2. On random 3-regular graphs (one thread of a 2-vCPU x86-64
# guest, symmetric-mode LU with diagonal pivots):
#
#        n   factor entries   factor   solve per column, blocks of 128
#     1000           64,914   0.006 s   0.07 ms
#     2000          240,160   0.025 s   0.21 ms
#     3000          530,494   0.056 s   0.49 ms
#     5000        1,452,816   0.20 s    1.4 ms
#     7000        2,827,640   0.54 s    2.8 ms
#
# against 4-6 ms for one conjugate-gradient solve at any of these sizes. At
# this cap a graph repays its factor after about 11 solves, which any
# all-pairs sweep makes (about 1.5 n pairs), while a block entry point
# called once pays at most the 0.056 s. No benchmark workload has
# 3000 < n <= 7000, so the cap stays where it was measured to pay.
_DIRECT_VERTEX_CAP = 3000
# lambda_2 comes from dense eigh up to this many vertices and from Lanczos
# on a Chebyshev filter of N above (`_lambda2`). Medians of five runs on
# random 3-regular graphs, seed 1 (one BLAS thread of a 2-vCPU x86-64 guest):
#
#        n   dense eigh   filter
#      200      0.002 s   0.003 s
#      300      0.004 s   0.004 s
#      400      0.011 s   0.003 s
#      600      0.018 s   0.005 s
#     1000      0.085 s   0.005 s
#     2000      0.76 s    0.014 s
#     3000      2.5 s     0.018 s
#
# For the filter, unshifted ARPACK on N (which="SA") against Lanczos on the
# degree-_FILTER_DEGREE filter, damping [c, 2] with c = n / (n - 1) or
# [theta_2, 2] with theta_2 from _RITZ_STEPS Lanczos steps on N (medians of
# five generator seeds, one BLAS thread, runs up to 30% apart; 221 filtered
# products on [c, 2] and 121 on [theta_2, 2] at n = 20000, seed 1):
#
#        n   ARPACK on N   filter on [c, 2]   filter on [theta_2, 2]
#     5000      0.07-0.09 s      0.037 s             0.022 s
#    10000      0.16-0.19 s      0.087 s             0.052 s
#    20000      0.80-0.88 s      0.30-0.34 s         0.14 s
#
# Long cycles and paths, where lambda_2 is tiny, are the filter's slow case:
# path_graph(1000) takes 0.03 s, cycle_graph(2500) 0.06-0.09 s and
# path_graph(3000) 0.27-0.36 s on [theta_2, 2]. Longer ones (single runs;
# the ARPACK column is from an earlier guest):
#
#                        ARPACK on N             [c, 2]        [theta_2, 2]
#    cycle_graph(3200)   21 s                    0.25-0.36 s   0.09-0.14 s
#    cycle_graph(3500)   29 s                    0.31-0.47 s   0.13-0.16 s
#    path_graph(3500)    no convergence, 41 s    1.1-1.6 s     0.33-0.42 s
#
# On [theta_2, 2] the filter's lambda_2 lands within 5e-14 (relative) of the
# closed form on these paths and 2e-15 on these cycles; dense eigh lands
# 1e-11 to 1e-10 away. The cap is not lower because the sweep's phi_upper on
# some of the benchmark's lowerbound gadget unions (n <= 310) is set by
# eigensolver rounding: lambda_2 is double, or Fiedler entries tie exactly.
# With the cap at 4, five of the 112 full-size ratio-sweep CSVs print another
# phi_upper (generator seeds 5, 6 and 8), so lowering it waits for a sweep
# that does not depend on rounding.
_DENSE_EIGEN_CAP = 400
# degree of the Chebyshev filter above _DENSE_EIGEN_CAP; even, so every
# eigenvalue below the filter's interval maps above 1. On [theta_2, 2],
# degrees 6 and 8 took the same time at n = 5000, 10000 and 20000 within the
# runs' spread; 4 and 10 were up to 40% slower at n = 20000
_FILTER_DEGREE = 6
# Lanczos steps on N whose second-smallest Ritz value is the lower end of the
# filter's interval. Medians of _lambda2 at n = 5000 / 10000 / 20000: 10
# steps took 0.033 / 0.064 / 0.19 s, 15 steps 0.025 / 0.058 / 0.15 s, 20
# steps 0.020 / 0.048 / 0.14 s, and 30 or 40 steps no less than 20: a later
# Ritz value no longer narrows the interval enough to repay its step
_RITZ_STEPS = 20
# a residual norm below this ends that Lanczos run: its Krylov space is
# invariant under N to rounding
_RITZ_BREAKDOWN = 1e-12


def _spd_factor(block) -> scipy.sparse.linalg.SuperLU:
    """Sparse LU of a positive definite Laplacian block (the grounded
    Laplacian, sparsify's L_FF): the one factor recipe. Such a block needs no
    off-diagonal pivot, so every pivot is on the diagonal (perm_r == perm_c);
    SuperLU's symmetric mode then gives the same fill as its general mode
    and about half the block-solve time on 3-regular graphs."""
    return scipy.sparse.linalg.splu(sp.csc_array(block), permc_spec="MMD_AT_PLUS_A",
                                    diag_pivot_thresh=0.0, options={"SymmetricMode": True})


@dataclass(frozen=True)
class Multigraph:
    """Immutable weighted multigraph on vertices 0..n-1."""

    n: int
    tails: np.ndarray
    heads: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        tails, heads = np.asarray(self.tails), np.asarray(self.heads)
        weights = np.asarray(self.weights, dtype=np.float64)
        if not (tails.shape == heads.shape == weights.shape) or tails.ndim != 1:
            raise ValueError("tails, heads, weights must be 1-d arrays of equal length")
        tails, heads = (_ids(ends, self.n, "edge endpoint") for ends in (tails, heads))
        if self.n < 1:
            raise ValueError("need at least one vertex")
        if tails.size:
            if np.any(tails == heads):
                raise ValueError("self-loops are not allowed")
            if not np.all(np.isfinite(weights) & (weights >= 1.0)):
                raise ValueError("edge weights must be finite and >= 1")
        for arr in (tails, heads, weights):
            arr.setflags(write=False)
        object.__setattr__(self, "tails", tails)
        object.__setattr__(self, "heads", heads)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple]) -> "Multigraph":
        edges = list(edges)
        tails = np.array([e[0] for e in edges])
        heads = np.array([e[1] for e in edges])
        weights = np.array([e[2] if len(e) > 2 else 1.0 for e in edges], dtype=np.float64)
        return cls(n, tails, heads, weights)

    @property
    def m(self) -> int:
        return int(self.tails.size)

    @cached_property
    def weighted_degrees(self) -> np.ndarray:
        deg = np.bincount(self.tails, weights=self.weights, minlength=self.n)
        deg += np.bincount(self.heads, weights=self.weights, minlength=self.n)
        deg.setflags(write=False)
        return deg

    @cached_property
    def laplacian(self) -> sp.csr_array:
        """Weighted Laplacian B W B^T (parallel edges merge), assembled once
        and read-only like the other cached views."""
        rows = np.concatenate([self.tails, self.heads, self.tails, self.heads])
        cols = np.concatenate([self.tails, self.heads, self.heads, self.tails])
        vals = np.concatenate([self.weights, self.weights, -self.weights, -self.weights])
        lap = sp.coo_array((vals, (rows, cols)), shape=(self.n, self.n)).tocsr()
        lap.sum_duplicates()
        lap.eliminate_zeros()
        for arr in (lap.data, lap.indices, lap.indptr):
            arr.setflags(write=False)
        return lap

    @cached_property
    def laplacian_factor(self) -> Optional[scipy.sparse.linalg.SuperLU]:
        """`_spd_factor` of the Laplacian with vertex 0 grounded (its row
        and column removed, which leaves a connected graph's block positive
        definite), factored once on first use; None, with nothing factored,
        above _DIRECT_VERTEX_CAP vertices, on a disconnected graph or on one
        vertex. This is the one place the cap is checked, and
        linalg.solve_laplacian_block the one reader: it solves against the
        factor exactly when this is not None. No eigensolver reads it, so
        the cap never moves lambda_2."""
        if not 2 <= self.n <= _DIRECT_VERTEX_CAP or not self.is_connected:
            return None
        return _spd_factor(self.laplacian[1:, 1:])

    @cached_property
    def is_unit_weight(self) -> bool:
        return bool(np.all(self.weights == 1.0))

    @cached_property
    def component_labels(self) -> np.ndarray:
        """Connected component id per vertex, read off the Laplacian's
        pattern; labels in discovery order (by each component's lowest id)."""
        _, labels = csgraph.connected_components(self.laplacian, directed=False)
        labels = labels.astype(np.int64)
        labels.setflags(write=False)
        return labels

    @property
    def is_connected(self) -> bool:
        return self.n == 1 or int(self.component_labels.max()) == 0


@dataclass(frozen=True)
class ConductanceCertificate:
    """A conductance value plus how it was obtained.

    kind is one of "exact", "cheeger-lower-bound", "sweep-upper-bound".
    witness is a vertex mask for the certifying cut side (None for the
    eigenvalue lower bound, which certifies no particular cut).
    """

    phi: float
    kind: str
    witness: Optional[np.ndarray] = field(default=None, repr=False)


def _ids(values, bound: int, what: str) -> np.ndarray:
    """The one id rule: values as int64 ids in [0, bound), `what` naming one
    id ("vertex id"). A non-integer dtype is refused, not truncated (empty
    input passes), and so are ids outside [0, bound) and a non-integer bound."""
    if not isinstance(bound, (int, np.integer)):
        raise ValueError(f"vertex and edge counts must be integers, got {bound!r}")
    ids = np.asarray(values)
    if ids.size and not np.issubdtype(ids.dtype, np.integer):
        raise ValueError(f"{what}s must be integers")
    ids = ids.astype(np.int64, copy=False)
    if ids.size and (ids.min() < 0 or ids.max() >= bound):
        raise ValueError(f"{what} out of range [0, {bound})")
    return ids


def as_vertex_mask(n: int, s) -> np.ndarray:
    """Normalize a vertex-set argument to a boolean mask of length n: a bool
    mask as given, else vertex ids under the one id rule (`_ids`)."""
    arr = np.asarray(s)
    if arr.dtype == bool:
        if arr.shape != (n,):
            raise ValueError(f"mask length {arr.shape} does not match n={n}")
        return arr
    ids = _ids(arr, n, "vertex id")
    mask = np.zeros(n, dtype=bool)
    mask[ids] = True
    return mask


def conductance_exact(g: Multigraph) -> ConductanceCertificate:
    """Exact conductance by enumerating every cut with vertex 0 fixed on one side.

    Conductance is min over nonempty proper S of cut(S) / min(vol(S), vol(V-S)).
    n above EXACT_CONDUCTANCE_CAP is refused, connected or not (use
    conductance_bounds instead). Disconnected graphs have conductance 0,
    certified by one component.

    The 2^(n-1) cuts are enumerated meet-in-the-middle: the free vertices
    1..a form half A and a+1..n-1 half B, a = ceil((n-1)/2), and cut number
    x | y << a puts vertex 0, the A vertices set in x and the B vertices set
    in y into S. Each half has tables, 2^a and 2^(n-1-a) entries, of the
    volume it puts in S and in V - S and of the weight its own edges (those
    to vertex 0 included) put across the cut. The A-B edges of a block of y
    rows are one matrix product, X W_AB (1 - Y)^T + (1 - X) W_AB Y^T with X,
    Y the bit rows. Every sum has nonnegative terms only, so heavy weights
    cancel neither a light bridge nor a light side. Cost: about
    4 (n-1-a) 2^(n-1) flops in blocks of up to _CUT_BLOCK_ENTRIES cuts (but
    8 y rows at least), plus O(n 2^a) memory for the tables. Each block is
    written in place into three (rows, 2^a) buffers allocated once per
    call, the cut weights turning into the ratios and the S-side volumes
    into the smaller side's, so a block allocates nothing and the buffers
    stay in cache.

    The witness is the smaller-volume side of the minimizing cut (the first
    in cut-number order among equal values); on a volume tie, the side
    containing vertex 0.
    """
    if g.n > EXACT_CONDUCTANCE_CAP:
        raise SizeLimitError(
            f"exact conductance enumerates 2^(n-1) cuts; n={g.n} exceeds the "
            f"limit {EXACT_CONDUCTANCE_CAP}, use conductance_bounds"
        )
    if g.n < 2:
        raise ValueError("conductance needs at least two vertices")
    if not g.is_connected:
        witness = g.component_labels == 0
        return ConductanceCertificate(phi=0.0, kind="exact", witness=witness)

    wdeg = g.weighted_degrees
    nbits = g.n - 1
    a = (nbits + 1) // 2
    adj = -g.laplacian.toarray()
    np.fill_diagonal(adj, 0.0)
    x_bits, y_bits = _bit_rows(a), _bit_rows(nbits - a)
    half_a, half_b = np.arange(1, a + 1), np.arange(a + 1, g.n)
    cut_a, cut_b = _half_cuts(x_bits, adj, half_a), _half_cuts(y_bits, adj, half_b)
    # vol(V - S) has its own tables: vol(V) - vol(S) cancels when V - S is
    # a light corner of a heavy graph
    vol_a, rest_a = wdeg[0] + x_bits @ wdeg[half_a], (1.0 - x_bits) @ wdeg[half_a]
    vol_b, rest_b = y_bits @ wdeg[half_b], (1.0 - y_bits) @ wdeg[half_b]
    w_ab = adj[np.ix_(half_a, half_b)]
    cross = np.vstack([(x_bits @ w_ab).T, ((1.0 - x_bits) @ w_ab).T])
    y_sides = np.hstack([1.0 - y_bits, y_bits])

    best_phi = np.inf
    best_mask_id = -1
    ny = y_bits.shape[0]
    # 8 rows at least: each block re-reads all of `cross`, which outgrows the
    # cache above the cap (n >= 26), where 2^15 entries are 4 rows or fewer
    rows = min(ny, max(8, _CUT_BLOCK_ENTRIES >> a))
    cut, side, rest = (np.empty((rows, x_bits.shape[0])) for _ in range(3))
    for start in range(0, ny, rows):
        # a partial last block moves back to end at row ny, so every product
        # has the same row count, two or more from n = 3 on: a one-row
        # product takes BLAS's vector path, which sums in another order
        y0 = min(start, ny - rows)
        y1 = y0 + rows
        np.matmul(y_sides[y0:y1], cross, out=cut)
        cut += cut_a
        cut += cut_b[y0:y1, None]
        np.add(vol_a, vol_b[y0:y1, None], out=side)
        np.add(rest_a, rest_b[y0:y1, None], out=rest)
        np.minimum(side, rest, out=side)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(cut, side, out=cut)
        # S = V (the all-ones mask) is not a proper cut
        if y1 == ny:
            cut[-1, -1] = np.inf
        idx = int(np.argmin(cut))
        if cut.flat[idx] < best_phi:
            best_phi = float(cut.flat[idx])
            best_mask_id = (y0 << a) + idx

    bits = (best_mask_id >> np.arange(nbits)) & 1
    s_mask = np.concatenate(([True], bits.astype(bool)))
    if wdeg[s_mask].sum() <= wdeg[~s_mask].sum():
        witness = s_mask
    else:
        witness = ~s_mask
    return ConductanceCertificate(phi=best_phi, kind="exact", witness=witness)


def _bit_rows(k: int) -> np.ndarray:
    """(2^k, k) float 0/1 matrix whose row r holds the bits of r, lowest first."""
    return ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(np.float64)


def _half_cuts(bits: np.ndarray, adj: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Weight of the edges among vertex 0 and `half` that cross the cut, per
    row of bits (which of `half` are in S; vertex 0 always is): the sum of
    adj[i, j] over i in S and j not in S, nonnegative terms only."""
    z = np.hstack([np.ones((bits.shape[0], 1)), bits])
    ids = np.concatenate(([0], half))
    return np.einsum("ij,ij->i", z @ adj[np.ix_(ids, ids)], 1.0 - z)


def _interval_sums(grid: np.ndarray, a, b, columns) -> np.ndarray:
    """(len(columns), len(grid) - 1) sums of each column over the edges
    spanning each grid interval: min(a, b)[e] <= grid[j] and grid[j + 1] <=
    max(a, b)[e], with the ends a, b on the grid in either order and the
    columns nonnegative.

    This is the one threshold sweep: the threshold table, sparsify's
    rounding integral and rounding check (voltages as the grid) and the
    conductance bracket's sweep cuts (vertex ranks as the grid) all read it.

    Every sum adds nonnegative terms only: each edge's run of intervals is
    split into aligned dyadic blocks that take its values. Running totals
    (add at the low end, subtract at the high) cancel when a 1e-13-wide edge's
    decay rate swamps its neighbours'. Values are also split into multiples
    of a quantum, 2**-52 of a power of two above the column total, whose sums
    are exact, and remainders, so each sum is rounded about once in any order.
    """
    k = grid.size - 1
    first, stop = np.searchsorted(grid, np.minimum(a, b)), np.searchsorted(grid, np.maximum(a, b))
    edge = np.flatnonzero(first < stop)
    first, stop = first[edge], stop[edge]
    parts = []
    for col in columns:
        quantum = np.ldexp(1.0, np.frexp(np.sum(col))[1] - 52)
        high = np.floor(col / quantum) * quantum
        parts += [high, col - high]
    sums = np.zeros((len(parts), k))
    level = 0
    while edge.size:  # blocks of 2**level intervals; first, stop count blocks
        at_first, at_stop = first % 2 == 1, stop % 2 == 1
        blocks = np.concatenate([first[at_first], stop[at_stop] - 1])
        owners = np.concatenate([edge[at_first], edge[at_stop]])
        cover = np.arange(k) >> level
        for out, part in zip(sums, parts):
            out += np.bincount(blocks, part[owners], minlength=(k >> level) + 1)[cover]
        first, stop = (first + 1) >> 1, stop >> 1
        live = first < stop
        first, stop, edge, level = first[live], stop[live], edge[live], level + 1
    return sums[0::2] + sums[1::2]


def _normalized_laplacian(g: Multigraph) -> sp.csr_array:
    """D^-1/2 L D^-1/2 on the cached Laplacian's pattern, diagonal exactly 1."""
    dinv_sqrt = 1.0 / np.sqrt(g.weighted_degrees)
    lap = g.laplacian
    rows = np.repeat(np.arange(g.n), np.diff(lap.indptr))
    data = lap.data * dinv_sqrt[rows] * dinv_sqrt[lap.indices]
    data[rows == lap.indices] = 1.0
    return sp.csr_array((data, lap.indices, lap.indptr), shape=lap.shape)


def _lambda2(g: Multigraph):
    """Second-smallest normalized-Laplacian eigenvalue and its eigenvector.

    Dense eigh up to _DENSE_EIGEN_CAP vertices. Above, Lanczos on
    x -> P T_m(l(N)) P x with u = sqrt(d) / ||sqrt(d)||, P = I - u u^T, T_m
    the Chebyshev polynomial of degree m = _FILTER_DEGREE (m products with N
    by the three-term recurrence) and l the affine map of [a, 2] onto [-1, 1]. 2
    bounds N's spectrum, so the damped interval maps into |T_m| <= 1 and every
    eigenvalue below a above 1, the smallest highest. The lower end is
    a = min(c, theta_2):
    - c = n / (n - 1) is the mean of N's n - 1 eigenvalues off u (its trace
      is n), so c >= lambda_2;
    - theta_2 is the second-smallest Ritz value of a short Lanczos run on N
      restricted to u's complement (`_ritz_bound`). Cauchy interlacing gives
      theta_2 >= lambda_3 >= lambda_2. A multiple lambda_2 has one copy in a
      Krylov space, so theta_2 lands on the next distinct eigenvalue.
    The closer a sits above lambda_2, the more the filter damps lambda_3 and
    the rest, and the fewer Lanczos steps separate them.

    In floating point a Ritz value can land on lambda_2 itself, and the
    filter then amplifies some other eigenvector. So the returned value is
    accepted only when it is below a: it is >= lambda_2, so lambda_2 < a was
    the filter's unique top. Otherwise Lanczos runs once more on [c, 2].
    The value returned is the Rayleigh quotient of the projected Ritz vector
    (`_filtered_lambda2`); on u's complement it is >= lambda_2
    (Courant-Fischer), the side every Ritz value falls on.
    """
    if g.n <= _DENSE_EIGEN_CAP:
        nl = _normalized_laplacian(g).toarray()
        vals, vecs = scipy.linalg.eigh(nl, subset_by_index=[0, 1])
        return max(float(vals[1]), 0.0), vecs[:, 1]
    sqrt_d = np.sqrt(g.weighted_degrees)
    u = sqrt_d / np.linalg.norm(sqrt_d)
    nl = _normalized_laplacian(g)
    c = g.n / (g.n - 1)
    lo = min(c, _ritz_bound(nl, u))
    lam, x = _filtered_lambda2(g, nl, u, lo)
    if lo < c and lam >= lo:
        lam, x = _filtered_lambda2(g, nl, u, c)
    return lam, x


def _ritz_bound(nl: sp.csr_array, u: np.ndarray) -> float:
    """Second-smallest Ritz value of N on u's complement, or inf.

    _RITZ_STEPS Lanczos steps on x -> P N P x from the fixed start vector,
    every new vector orthogonalized twice against u and the basis, stopping
    early when the Krylov space is invariant; inf when fewer than two steps
    ran. By Cauchy interlacing the k-th smallest Ritz value is at least the
    (k + 1)-th smallest eigenvalue of N, u's 0 counted first, so the second
    is >= lambda_3 >= lambda_2 in exact arithmetic.
    """
    basis = np.empty((_RITZ_STEPS, nl.shape[0]))
    q = _start_vector(nl.shape[0])
    q -= u * (u @ q)
    q /= np.linalg.norm(q)
    alpha, beta = [], []
    for k in range(_RITZ_STEPS):
        basis[k] = q
        w = nl @ q
        alpha.append(float(q @ w))
        for _ in range(2):
            w -= u * (u @ w)
            w -= basis[: k + 1].T @ (basis[: k + 1] @ w)
        norm = float(np.linalg.norm(w))
        if k == _RITZ_STEPS - 1 or norm <= _RITZ_BREAKDOWN:
            break
        beta.append(norm)
        q = w / norm
    if len(alpha) < 2:
        return np.inf
    return float(scipy.linalg.eigvalsh_tridiagonal(alpha, beta, select="i", select_range=(1, 1))[0])


def _filtered_lambda2(g: Multigraph, nl: sp.csr_array, u: np.ndarray, lo: float) -> tuple:
    """Rayleigh quotient and vector of the top eigenpair of P T_m(l(N)) P.

    T_m is the Chebyshev polynomial of degree m = _FILTER_DEGREE, applied by
    the three-term recurrence, and l the affine map of [lo, 2] onto [-1, 1].
    ARPACK runs from the fixed start vector; no convergence is a ConvergenceError.
    The quotient is summed over edges as sum w (y_a - y_b)^2 / x^T x with
    y = D^-1/2 x, which has no cancellation on long paths.
    """
    mapped = nl * (2.0 / (2.0 - lo))
    mapped.setdiag(mapped.diagonal() - (lo + 2.0) / (2.0 - lo))

    def filtered(x):
        prev = x - u * (u @ x)
        cur = mapped @ prev
        for _ in range(_FILTER_DEGREE - 1):
            prev, cur = cur, 2.0 * (mapped @ cur) - prev
        return cur - u * (u @ cur)

    cap = max(10 * g.n, _EIGSH_MAXITER)
    op = sp.linalg.LinearOperator((g.n, g.n), matvec=filtered, dtype=np.float64)
    v0 = _start_vector(g.n)
    try:
        x = sp.linalg.eigsh(op, k=1, which="LA", maxiter=cap, tol=1e-10, v0=v0)[1][:, 0]
    except sp.linalg.ArpackNoConvergence as exc:
        found = exc.eigenvectors
        best = found[:, -1] if found is not None and found.size else None
        raise ConvergenceError(
            f"eigenvalue iteration did not converge within {cap} iterations",
            best=best,
            iterations=cap,
        ) from exc
    x -= u * (u @ x)
    y = x / np.sqrt(g.weighted_degrees)
    return float(g.weights @ (y[g.tails] - y[g.heads]) ** 2) / float(x @ x), x


def _start_vector(n: int) -> np.ndarray:
    """The fixed start vector of every Lanczos run on an n-vertex graph."""
    return np.random.default_rng(0).standard_normal(n)


def _sweep_cut(g: Multigraph, vec: np.ndarray) -> tuple:
    """(best ratio, witness) over the prefixes of the ordering by vec / sqrt(d).

    The cut after rank k is the weight of the edges whose lower endpoint rank
    is <= k and whose higher one is > k: the interval sums on the rank grid.
    The witness is the smaller-volume side of the first best prefix. The
    volumes of the prefix and of the rest are separate running sums of
    degrees: vol(V) - vol(S) cancels when the rest is a light corner of a
    heavy graph.
    """
    wdeg = g.weighted_degrees
    order = np.argsort(vec / np.sqrt(wdeg), kind="stable")
    rank = np.empty(g.n, dtype=np.int64)
    rank[order] = np.arange(g.n)
    (cut,) = _interval_sums(np.arange(g.n), rank[g.tails], rank[g.heads], [g.weights])
    vol_s = np.cumsum(wdeg[order])[:-1]
    vol_rest = np.cumsum(wdeg[order][::-1])[::-1][1:]
    ratio = cut / np.minimum(vol_s, vol_rest)
    best_k = int(np.argmin(ratio))
    prefix = np.zeros(g.n, dtype=bool)
    prefix[order[: best_k + 1]] = True
    witness = prefix if vol_s[best_k] <= vol_rest[best_k] else ~prefix
    return float(ratio[best_k]), witness


def _cheeger_lower(g: Multigraph) -> tuple:
    """(lambda_2 / 2 certificate, Fiedler vector): the lower end of
    `conductance_bounds` and the ordering its sweep reads, after the
    connectivity and size checks. Callers that print phi_lower alone take
    the certificate and skip the sweep."""
    if not g.is_connected:
        raise DisconnectedError("conductance bounds need a connected graph")
    if g.n < 2:
        raise ValueError("conductance needs at least two vertices")
    lam2, vec = _lambda2(g)
    return ConductanceCertificate(phi=lam2 / 2.0, kind="cheeger-lower-bound", witness=None), vec


def conductance_bounds(g: Multigraph) -> tuple:
    """Certified conductance bracket from the normalized Laplacian.

    Returns (lower, upper) certificates: lower is lambda_2 / 2 with no cut
    witness, upper is the best sweep cut over the second eigenvector ordering,
    every prefix's cut read from the shared interval sums (`_interval_sums`).
    The bracket lambda_2/2 <= phi <= sweep value holds with the sweep value
    itself at most sqrt(2 lambda_2). lambda_2 comes from dense eigh up to
    `_DENSE_EIGEN_CAP` vertices and above from Lanczos on a Chebyshev
    polynomial filter of the sparse matrix, `_FILTER_DEGREE` products per
    step, whose top eigenvector is the Fiedler vector (`_lambda2`); no
    Laplacian factor is built or read. Every Lanczos run starts from a fixed
    vector, so repeated calls return equal floats, and the filter returns a
    value >= lambda_2 up to rounding. `_cheeger_lower` returns the same
    lower certificate without the sweep.
    """
    lower, vec = _cheeger_lower(g)
    best_ratio, witness = _sweep_cut(g, vec)
    upper = ConductanceCertificate(phi=best_ratio, kind="sweep-upper-bound", witness=witness)
    return lower, upper


def girth(g: Multigraph) -> float:
    """Length of the shortest cycle, counting edges and ignoring weights.

    Parallel edges give girth 2 (the Laplacian merged them); forests have
    girth inf. Otherwise BFS runs from every source, in chunks of sources
    over the Laplacian's off-diagonal pattern; for every edge off a source's
    BFS tree, dist(u) + dist(v) + 1 bounds a cycle length, and the minimum
    over sources attains the girth.
    """
    lap = g.laplacian
    rows = np.repeat(np.arange(g.n), np.diff(lap.indptr))
    upper = rows < lap.indices
    u, v = rows[upper], lap.indices[upper]
    if u.size < g.m:
        return 2.0
    if u.size == 0:
        return np.inf
    pattern = sp.csr_array(lap < 0, dtype=np.float64)
    best = np.inf
    chunk = max(1, _BFS_CHUNK_ENTRIES // max(g.n, u.size))
    for start in range(0, g.n, chunk):
        dist, pred = csgraph.shortest_path(
            pattern, method="D", unweighted=True, return_predecessors=True,
            indices=np.arange(start, min(start + chunk, g.n)),
        )
        tree = (pred[:, v] == u) | (pred[:, u] == v)
        best = min(best, float(np.where(tree, np.inf, dist[:, u] + dist[:, v] + 1.0).min()))
    return best


def random_regular(n: int, d: int, seed: int) -> Multigraph:
    """Random d-regular simple connected graph by the pairing model.

    Stubs are paired uniformly; any self-loop or parallel edge rejects the
    whole pairing, as does a disconnected result, and the generator gives up
    after _PAIRING_TRIES pairings. Deterministic per seed.

    Tries are drawn in batches, each row of one `Generator.permuted` call
    being the pairing that one `Generator.permutation` call per try would
    draw, so the graph is the one that sequential loop returns. A batch
    starts at one try and doubles up to _PAIRING_BATCH_ENTRIES stubs, and
    the budget counts tries, not batches.
    """
    if d < 3:
        raise ValueError("degree must be at least 3")
    if n <= d:
        raise ValueError("need more vertices than the degree")
    if (n * d) % 2 != 0:
        raise ValueError("n * d must be even")
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    cap = max(1, _PAIRING_BATCH_ENTRIES // stubs.size)
    tries = 0
    batch = 1
    while tries < _PAIRING_TRIES:
        batch = min(batch, cap, _PAIRING_TRIES - tries)
        tries += batch
        perm = rng.permuted(np.broadcast_to(stubs, (batch, stubs.size)), axis=1)
        # a self-loop or a repeated key rejects the row's whole pairing
        loopless = perm[~np.any(perm[:, 0::2] == perm[:, 1::2], axis=1)]
        a = loopless[:, 0::2]
        b = loopless[:, 1::2]
        keys = np.sort(np.minimum(a, b) * n + np.maximum(a, b), axis=1)
        for row in keys[~np.any(keys[:, 1:] == keys[:, :-1], axis=1)]:
            g = Multigraph(n, row // n, row % n, np.ones(row.size))
            if g.is_connected:
                return g
        batch *= 2
    raise ConvergenceError(
        f"no simple connected {d}-regular pairing found in {_PAIRING_TRIES} tries",
        iterations=_PAIRING_TRIES,
    )


def gadget_subdivide(g: Multigraph, k: int) -> Multigraph:
    """Replace each unit edge by k vertex-disjoint paths of k unit edges.

    Original vertex ids are preserved; each original edge adds k*(k-1) fresh
    internal vertices and k^2 unit edges. k = 1 returns a copy of the input.
    Path j of edge e is p = e k + j: from its tail, fresh vertices
    n + (k - 1) p + i for i < k - 1, and edges p k + i for i < k.
    Effective resistance across a replaced edge's endpoints is preserved
    (k parallel paths of k unit resistors each). More than DEFAULT_EDGE_CAP
    new edges are refused before anything is built.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not g.is_unit_weight:
        raise ValueError("gadget subdivision is defined for unit-weight graphs")
    new_m = g.m * k * k
    if new_m > DEFAULT_EDGE_CAP:
        raise SizeLimitError(
            f"subdivision would create {new_m} edges, over the cap {DEFAULT_EDGE_CAP}"
        )
    paths = g.m * k
    fresh = g.n + (k - 1) * np.arange(paths)[:, None] + np.arange(k - 1)
    walk = np.column_stack([np.repeat(g.tails, k), fresh, np.repeat(g.heads, k)])
    return Multigraph(g.n + fresh.size, walk[:, :-1].ravel(), walk[:, 1:].ravel(), np.ones(new_m))


def graph_union(g: Multigraph, h: Multigraph) -> Multigraph:
    """Edge-disjoint union on the shared id space; n is the larger of the two."""
    n = max(g.n, h.n)
    return Multigraph(
        n,
        np.concatenate([g.tails, h.tails]),
        np.concatenate([g.heads, h.heads]),
        np.concatenate([g.weights, h.weights]),
    )


def graph_text(g: Multigraph) -> str:
    """The text format: a header line "n m", then one "tail head weight" line
    per edge."""
    edges = zip(g.tails.tolist(), g.heads.tolist(), g.weights.tolist())
    lines = [f"{g.n} {g.m}"] + [f"{t} {h} {w!r}" for t, h, w in edges]
    return "\n".join(lines) + "\n"


def write_graph(g: Multigraph, path) -> None:
    """Write the text format to a file; read_graph round-trips it."""
    with open(path, "w") as fh:
        fh.write(graph_text(g))


# a blank or comment line after a newline, up to the next newline
_SKIPPED_LINE = re.compile(r"\n[^\S\n]*(?:#.*)?(?=\n)")
# a newline and then a line of one token, or of four or more; \s is what
# str.split splits on
_BAD_EDGE_LINE = re.compile(r"\n[^\S\n]*(?:\S+[^\S\n]*\n|(?:\S+[^\S\n]+){3}\S)")
_EDGE_FIELDS = np.dtype([("tail", np.int64), ("head", np.int64), ("weight", np.float64)])


def read_graph(path) -> Multigraph:
    """Read the text format written by write_graph: a header "n m", then one
    "tail head [weight]" line per edge, weight 1 when omitted; blank lines and
    lines whose first non-blank character is '#' are skipped.

    No Python code runs per line: one regex drops the skipped lines, another
    finds the first edge line without 2 or 3 tokens, and one `np.loadtxt`
    call reads every edge line (`_edge_table`). Tails and heads are ASCII
    decimal integers, weights what `float` reads without '_' separators.
    Errors name the first bad edge line, counting edge lines from 0.
    """
    with open(path) as fh:
        text = _SKIPPED_LINE.sub("", "\n" + fh.read() + "\n")[1:]
    header, _, edges = text.partition("\n")
    if not header:
        raise ValueError(f"{path}: empty graph file")
    try:
        n, m = map(int, header.split())
    except ValueError as exc:
        raise ValueError(f"{path}: bad header line, expected 'n m'") from exc
    found = edges.count("\n")
    if found != m:
        raise ValueError(f"{path}: header says {m} edges, found {found}")
    bad = _BAD_EDGE_LINE.search(text, len(header))
    if bad:
        # a token error on an earlier line is reported first
        _edge_table(path, edges[: bad.start() - len(header)])
        line = text.count("\n", 0, bad.start())
        raise ValueError(f"{path}: edge line {line} needs 'tail head [weight]'")
    table = _edge_table(path, edges)
    try:
        return Multigraph(n, table["tail"].copy(), table["head"].copy(), table["weight"].copy())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _edge_table(path, edges: str) -> np.ndarray:
    """Structured (tail, head, weight) rows of edge lines holding 2 or 3
    tokens each; a 1 appended to every line is the third column of a
    two-token line. A token numpy cannot read is reported with the message
    `int` or `float` gives for it, or numpy's own when both read it.

    From numpy 1.23, until its removal, loadtxt read a non-integer id such as
    2.7 or 1e3 through float and truncated it with only a DeprecationWarning;
    that warning is made an error here, which loadtxt reports as a token it
    could not convert "at row N" (0-based), like any other."""
    if not edges:
        return np.empty(0, dtype=_EDGE_FIELDS)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(
                io.StringIO(edges.replace("\n", " 1\n")),
                dtype=_EDGE_FIELDS,
                usecols=(0, 1, 2),
                comments=None,
                ndmin=1,
            )
    except ValueError as exc:
        row = re.search(r"at row (\d+)", str(exc))
        if row is None:
            raise ValueError(f"{path}: {exc}") from exc
        line = int(row.group(1))
        tail, head, *weight = edges.split("\n")[line].split()
        # raise int's or float's message for the first token they refuse
        int(tail)
        int(head)
        if weight:
            float(weight[0])
        raise ValueError(f"{path}: edge line {line}: {exc}") from exc


def cycle_graph(k: int) -> Multigraph:
    if k < 3:
        raise ValueError("cycle needs at least 3 vertices")
    tails = np.arange(k, dtype=np.int64)
    heads = (tails + 1) % k
    return Multigraph(k, tails, heads, np.ones(k))


def path_graph(k: int) -> Multigraph:
    if k < 2:
        raise ValueError("path needs at least 2 vertices")
    tails = np.arange(k - 1, dtype=np.int64)
    return Multigraph(k, tails, tails + 1, np.ones(k - 1))


def petersen_graph() -> Multigraph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, i + 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
    return Multigraph.from_edges(10, [(a, b, 1.0) for a, b in edges])
