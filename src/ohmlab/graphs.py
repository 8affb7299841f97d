"""Weighted undirected multigraphs and their cut structure.

Edges are stored as parallel (tail, head, weight) arrays. The (tail, head)
order fixes an arbitrary orientation that the incidence matrix and flow
vectors refer to; the graph itself is undirected. Weights are finite reals
>= 1, self-loops are rejected, parallel edges are allowed.

Adjacency lives in one place, the cached `Multigraph.laplacian`: component
labels, the exact conductance's cut tables, the conductance bracket's
normalized Laplacian and girth all read it, never per-vertex lists.

Vertex sets are numpy boolean masks of length n (bitset semantics). Helpers
accept index iterables as well and normalize them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

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
    "volume",
    "cut_weight",
    "conductance_exact",
    "conductance_bounds",
    "girth",
    "random_regular",
    "gadget_subdivide",
    "graph_union",
    "weighted_to_multigraph",
    "read_graph",
    "write_graph",
    "graph_text",
    "cycle_graph",
    "complete_graph",
    "path_graph",
    "petersen_graph",
]

# most edges gadget_subdivide and weighted_to_multigraph may create
DEFAULT_EDGE_CAP = 2_000_000
# random_regular's pairing attempts before it gives up
_PAIRING_TRIES = 10_000
# conductance is enumerated exactly up to this many vertices, and bracketed
# by conductance_bounds above it
EXACT_CONDUCTANCE_CAP = 24
# conductance_exact evaluates this many cuts per block into three reused
# 256 KB float buffers, small enough to stay in a 2 MB L2 cache together
_CUT_BLOCK_ENTRIES = 1 << 15
# lambda_2 comes from dense eigh up to this many vertices, from ARPACK above
_DENSE_EIGEN_CAP = 2000
# ARPACK restart budget; graphs above 1000 vertices get 10 per vertex
_EIGSH_MAXITER = 10_000
# girth's BFS runs over chunks of sources with this many (source, vertex) and
# (source, edge) entries each
_BFS_CHUNK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class Multigraph:
    """Immutable weighted multigraph on vertices 0..n-1."""

    n: int
    tails: np.ndarray
    heads: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        tails = np.asarray(self.tails, dtype=np.int64)
        heads = np.asarray(self.heads, dtype=np.int64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if not (tails.shape == heads.shape == weights.shape) or tails.ndim != 1:
            raise ValueError("tails, heads, weights must be 1-d arrays of equal length")
        if self.n < 1:
            raise ValueError("need at least one vertex")
        if tails.size:
            if tails.min() < 0 or heads.min() < 0 or max(tails.max(), heads.max()) >= self.n:
                raise ValueError("edge endpoint out of range")
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
        tails = np.array([e[0] for e in edges], dtype=np.int64)
        heads = np.array([e[1] for e in edges], dtype=np.int64)
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
        """Symmetric-mode sparse LU, diagonal pivots, of the Laplacian with
        vertex 0 grounded (its row and column removed), factored once on
        first use; None when the graph is disconnected or has one vertex.

        The grounded block of a connected graph is symmetric positive
        definite, so every pivot is on the diagonal (perm_r == perm_c).
        SuperLU's symmetric mode then gives the same fill as its general
        mode and about half the block-solve time on 3-regular graphs."""
        if self.n < 2 or not self.is_connected:
            return None
        grounded = sp.csc_array(self.laplacian[1:, 1:])
        return scipy.sparse.linalg.splu(
            grounded,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )

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
    witness is a vertex mask for the certifying cut side (empty for the
    eigenvalue lower bound, which certifies no particular cut).
    """

    phi: float
    kind: str
    witness: Optional[np.ndarray] = field(default=None, repr=False)


def as_vertex_mask(n: int, s) -> np.ndarray:
    """Normalize a vertex-set argument to a boolean mask of length n."""
    arr = np.asarray(s)
    if arr.dtype == bool:
        if arr.shape != (n,):
            raise ValueError(f"mask length {arr.shape} does not match n={n}")
        return arr
    ids = arr.astype(np.int64).ravel()
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise ValueError("vertex id out of range")
    mask = np.zeros(n, dtype=bool)
    mask[ids] = True
    return mask


def volume(g: Multigraph, s) -> float:
    """Sum of weighted degrees over the vertex set."""
    mask = as_vertex_mask(g.n, s)
    return float(g.weighted_degrees[mask].sum())


def cut_weight(g: Multigraph, s) -> float:
    """Total weight of edges with exactly one endpoint in the set."""
    mask = as_vertex_mask(g.n, s)
    crossing = mask[g.tails] != mask[g.heads]
    return float(g.weights[crossing].sum())


def conductance_exact(
    g: Multigraph, max_n: int = EXACT_CONDUCTANCE_CAP
) -> ConductanceCertificate:
    """Exact conductance by enumerating every cut with vertex 0 fixed on one side.

    Conductance is min over nonempty proper S of cut(S) / min(vol(S), vol(V-S)).
    n above max_n is refused (use conductance_bounds instead). Disconnected
    graphs have conductance 0, certified by one component.

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
    if g.n > max_n:
        raise SizeLimitError(
            f"exact conductance enumerates 2^(n-1) cuts; n={g.n} exceeds the "
            f"limit {max_n}, use conductance_bounds"
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


def _interval_sums(grid: np.ndarray, lo, hi, columns) -> np.ndarray:
    """(len(columns), len(grid) - 1) sums of each column over the edges
    spanning each grid interval: lo[e] <= grid[j] and grid[j + 1] <= hi[e],
    with lo and hi on the grid and the columns nonnegative.

    This is the one threshold sweep: the threshold table and the rounding
    integral (voltages as the grid) and the conductance bracket's sweep cuts
    (vertex ranks as the grid) all read it.

    Every sum adds nonnegative terms only: each edge's run of intervals is
    split into aligned dyadic blocks that take its values. Running totals
    (add at lo, subtract at hi) cancel when a 1e-13-wide edge's decay rate
    swamps its neighbours'. Values are also split into multiples of a
    quantum, 2**-52 of a power of two above the column total, whose sums are
    exact, and remainders, so each sum is rounded about once in any order.
    """
    k = grid.size - 1
    first, stop = np.searchsorted(grid, lo), np.searchsorted(grid, hi)
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
    d = g.weighted_degrees
    if np.any(d == 0):
        raise DisconnectedError("isolated vertex has no conductance certificate")
    dinv_sqrt = 1.0 / np.sqrt(d)
    lap = g.laplacian
    rows = np.repeat(np.arange(g.n), np.diff(lap.indptr))
    data = lap.data * dinv_sqrt[rows] * dinv_sqrt[lap.indices]
    data[rows == lap.indices] = 1.0
    return sp.csr_array((data, lap.indices, lap.indptr), shape=lap.shape)


def _lambda2(g: Multigraph):
    """Second-smallest normalized-Laplacian eigenvalue and its eigenvector."""
    nl = _normalized_laplacian(g)
    if g.n <= _DENSE_EIGEN_CAP:
        vals, vecs = scipy.linalg.eigh(nl.toarray(), subset_by_index=[0, 1])
    else:
        cap = max(10 * g.n, _EIGSH_MAXITER)
        # a fixed start vector: ARPACK's own random start differs per call
        v0 = np.random.default_rng(0).standard_normal(g.n)
        try:
            vals, vecs = sp.linalg.eigsh(nl, k=2, which="SA", maxiter=cap, tol=1e-10, v0=v0)
        except sp.linalg.ArpackNoConvergence as exc:
            found = exc.eigenvectors
            best = found[:, -1] if found is not None and found.size else None
            raise ConvergenceError(
                f"eigenvalue iteration did not converge within {cap} iterations",
                best=best,
                iterations=cap,
            ) from exc
    return max(float(vals[1]), 0.0), vecs[:, 1]


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
    lo = np.minimum(rank[g.tails], rank[g.heads])
    hi = np.maximum(rank[g.tails], rank[g.heads])
    (cut,) = _interval_sums(np.arange(g.n), lo, hi, [g.weights])
    vol_s = np.cumsum(wdeg[order])[:-1]
    vol_rest = np.cumsum(wdeg[order][::-1])[::-1][1:]
    ratio = cut / np.minimum(vol_s, vol_rest)
    best_k = int(np.argmin(ratio))
    prefix = np.zeros(g.n, dtype=bool)
    prefix[order[: best_k + 1]] = True
    witness = prefix if vol_s[best_k] <= vol_rest[best_k] else ~prefix
    return float(ratio[best_k]), witness


def conductance_bounds(g: Multigraph) -> tuple:
    """Certified conductance bracket from the normalized Laplacian.

    Returns (lower, upper) certificates: lower is lambda_2 / 2 with no cut
    witness, upper is the best sweep cut over the second eigenvector ordering,
    every prefix's cut read from the shared interval sums (`_interval_sums`).
    The bracket lambda_2/2 <= phi <= sweep value holds with the sweep value
    itself at most sqrt(2 lambda_2). lambda_2 comes from dense eigh up to
    `_DENSE_EIGEN_CAP` vertices and from ARPACK on the sparse matrix above,
    started from a fixed vector so that repeated calls return equal floats.
    """
    if not g.is_connected:
        raise DisconnectedError("conductance bounds need a connected graph")
    if g.n < 2:
        raise ValueError("conductance needs at least two vertices")
    lam2, vec = _lambda2(g)
    best_ratio, witness = _sweep_cut(g, vec)
    lower = ConductanceCertificate(phi=lam2 / 2.0, kind="cheeger-lower-bound", witness=None)
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
    """
    if d < 3:
        raise ValueError("degree must be at least 3")
    if n <= d:
        raise ValueError("need more vertices than the degree")
    if (n * d) % 2 != 0:
        raise ValueError("n * d must be even")
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    for _ in range(_PAIRING_TRIES):
        perm = rng.permutation(stubs)
        a = perm[0::2]
        b = perm[1::2]
        if np.any(a == b):
            continue
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        keys = lo * n + hi
        if np.unique(keys).size != keys.size:
            continue
        order = np.argsort(keys, kind="stable")
        g = Multigraph(n, lo[order], hi[order], np.ones(keys.size))
        if g.is_connected:
            return g
    raise ConvergenceError(
        f"no simple connected {d}-regular pairing found in {_PAIRING_TRIES} tries",
        iterations=_PAIRING_TRIES,
    )


def gadget_subdivide(g: Multigraph, k: int) -> Multigraph:
    """Replace each unit edge by k vertex-disjoint paths of k unit edges.

    Original vertex ids are preserved; each original edge adds k*(k-1) fresh
    internal vertices and k^2 unit edges. k = 1 returns a copy of the input.
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
    n, tails, heads = _subdivide(
        g.n, np.repeat(g.tails, k), np.repeat(g.heads, k), np.full(g.m * k, k)
    )
    return Multigraph(n, tails, heads, np.ones(new_m))


def _subdivide(n: int, tails: np.ndarray, heads: np.ndarray, hops: np.ndarray) -> tuple:
    """(n', tails', heads'): edge e becomes a path of hops[e] edges through
    hops[e] - 1 fresh vertices, numbered from n on in edge order and along
    each path from its tail."""
    edge = np.repeat(np.arange(hops.size), hops)
    step = np.arange(edge.size) - np.repeat(np.cumsum(hops) - hops, hops)
    base = (n + np.cumsum(hops - 1) - (hops - 1))[edge]
    new_tails = np.where(step == 0, tails[edge], base + step - 1)
    new_heads = np.where(step == hops[edge] - 1, heads[edge], base + step)
    return n + int((hops - 1).sum()), new_tails, new_heads


def graph_union(g: Multigraph, h: Multigraph) -> Multigraph:
    """Edge-disjoint union on the shared id space; n is the larger of the two."""
    n = max(g.n, h.n)
    return Multigraph(
        n,
        np.concatenate([g.tails, h.tails]),
        np.concatenate([g.heads, h.heads]),
        np.concatenate([g.weights, h.weights]),
    )


def weighted_to_multigraph(
    g: Multigraph,
    capacities: Sequence[int],
    lengths: Sequence[int],
) -> Multigraph:
    """Expand integer capacities and lengths into a unit multigraph.

    Edge e becomes a path of lengths[e] hops through fresh internal vertices,
    each hop carrying capacities[e] parallel unit edges. With unit lengths the
    vertex set is unchanged and cuts/degrees match the capacity-weighted
    graph exactly. More than DEFAULT_EDGE_CAP new edges are refused.
    """
    cap = np.asarray(capacities)
    ln = np.asarray(lengths)
    if cap.shape != (g.m,) or ln.shape != (g.m,):
        raise ValueError("need one capacity and one length per edge")
    if not (np.issubdtype(cap.dtype, np.integer) or np.all(cap == np.floor(cap))):
        raise ValueError("capacities must be integers")
    if not (np.issubdtype(ln.dtype, np.integer) or np.all(ln == np.floor(ln))):
        raise ValueError("lengths must be integers")
    cap = cap.astype(np.int64)
    ln = ln.astype(np.int64)
    if cap.size and (cap.min() < 1 or ln.min() < 1):
        raise ValueError("capacities and lengths must be >= 1")
    new_m = int((cap * ln).sum())
    if new_m > DEFAULT_EDGE_CAP:
        raise SizeLimitError(
            f"expansion would create {new_m} edges, over the cap {DEFAULT_EDGE_CAP}"
        )
    n, tails, heads = _subdivide(g.n, g.tails, g.heads, ln)
    copies = np.repeat(cap, ln)
    return Multigraph(n, np.repeat(tails, copies), np.repeat(heads, copies), np.ones(new_m))


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


def read_graph(path) -> Multigraph:
    """Read the text format written by write_graph: a header "n m", then one
    "tail head [weight]" line per edge, weight 1 when omitted; '#' lines are
    comments."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append(line.split())
    if not rows:
        raise ValueError(f"{path}: empty graph file")
    try:
        n, m = int(rows[0][0]), int(rows[0][1])
    except (IndexError, ValueError) as exc:
        raise ValueError(f"{path}: bad header line, expected 'n m'") from exc
    if len(rows) - 1 != m:
        raise ValueError(f"{path}: header says {m} edges, found {len(rows) - 1}")
    tails = np.empty(m, dtype=np.int64)
    heads = np.empty(m, dtype=np.int64)
    weights = np.empty(m, dtype=np.float64)
    for i, row in enumerate(rows[1:]):
        if len(row) not in (2, 3):
            raise ValueError(f"{path}: edge line {i} needs 'tail head [weight]'")
        tails[i] = int(row[0])
        heads[i] = int(row[1])
        weights[i] = float(row[2]) if len(row) == 3 else 1.0
    return Multigraph(n, tails, heads, weights)


def cycle_graph(k: int) -> Multigraph:
    if k < 3:
        raise ValueError("cycle needs at least 3 vertices")
    tails = np.arange(k, dtype=np.int64)
    heads = (tails + 1) % k
    return Multigraph(k, tails, heads, np.ones(k))


def complete_graph(k: int) -> Multigraph:
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    return Multigraph.from_edges(k, [(i, j, 1.0) for i, j in edges])


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
