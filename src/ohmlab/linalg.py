"""Singular Laplacian solves and induced norms.

The Laplacian L = B W B^T, with B the n x m signed incidence matrix
(B[tail, e] = -1 and B[head, e] = +1 for edge e = (tail, head)), is
assembled once on the graph (`Multigraph.laplacian`), not here, and is
solved only on the sum-zero subspace; neither B nor the pseudo-inverse is
ever formed.

Two solve methods, picked by the graph alone. Where the graph has a
Laplacian factor (`Multigraph.laplacian_factor`: vertex 0 grounded,
symmetric-mode LU with diagonal pivots, built once and only up to the
vertex cap graphs.py sets), solve_laplacian_block, its one reader, solves
blocks of demands against it and refines a column that misses the contract
against the same factor (Higham, Accuracy and Stability of Numerical
Algorithms, ch. 12).
Without one, solve_laplacian's Jacobi-preconditioned conjugate gradient
runs; threshold_profile calls it directly. Both meet the same contract,
fixed at _SOLVE_TOL: the solution sums to zero and its true residual
satisfies ||L x - b|| <= 1e-10 ||b|| for the centred demand b.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
import scipy.sparse as sp

from .errors import ConvergenceError, DisconnectedError
from .graphs import Multigraph

__all__ = [
    "SolveReport",
    "laplacian",
    "solve_laplacian",
    "solve_laplacian_block",
    "induced_pnorm_nonneg",
]

@dataclass(frozen=True)
class SolveReport:
    """Solution vector plus the residual and iteration count that produced it."""

    solution: np.ndarray
    residual_norm: float
    iterations: int


def laplacian(g: Multigraph) -> sp.csr_array:
    """Weighted Laplacian B W B^T (parallel edges merge), cached read-only on
    the graph."""
    return g.laplacian


# Residual contract of every solve, ||L x - b|| <= _SOLVE_TOL ||b||; fixed,
# because every printed ratio and every exit-code-2 gate is calibrated to it
_SOLVE_TOL = 1e-10
# Right-hand-side columns per block solve against a sparse LU factor: wide
# enough that the factor's block solve beats column-at-a-time solves, narrow
# enough that one block of solutions (n x k, and routing's m x k flows) stays
# small. The all-pairs sweep and the Schur complement both solve in blocks of
# this width.
_BLOCK_COLUMNS = 128
# Steps of iterative refinement x <- x - LU^-1 (L x - b) for a column whose
# factored solve misses _SOLVE_TOL; L x - b is summed in long double (a
# 64-bit mantissa on x86-64, plain double where numpy has none wider). Over
# every edge demand of 16,000 generated multigraphs with weights in [1, 1e6]
# the factor missed on 181 of 654,769 columns. Two steps met the contract on
# 179, among them every column conjugate gradient met (160, in 842 s); with
# L x - b in double they met 168.
_REFINEMENTS = 2


def _iteration_cap(g: Multigraph) -> int:
    # crude condition estimate; only the order of magnitude matters for a cap
    w = g.weights
    kappa_hat = g.n * (float(w.max()) / float(w.min()))
    return max(10_000, int(np.ceil(10 * g.n * np.sqrt(kappa_hat))))


def _check_p(p: float) -> float:
    """p as a float; anything outside [1, inf], NaN included, is an error."""
    p = float(p)
    if not p >= 1.0:
        raise ValueError(f"p must be in [1, inf], got {p}")
    return p


def _column_sums(x: np.ndarray) -> np.ndarray:
    """Sum of each column of a C-ordered n x k block, the terms added top to
    bottom whatever k is.

    numpy reduces a block of two columns or more one row at a time, which is
    that order, but sums a single column pairwise; cumsum adds it top to
    bottom. So a column's sum, and the solve or norm built on it, does not
    depend on its block's width.
    """
    if x.shape[1] == 1:
        return np.cumsum(x, axis=0)[-1]
    return x.sum(axis=0)


def _centred(b: np.ndarray) -> np.ndarray:
    """Project a demand (or each column of a block) onto the sum-zero
    subspace; a non-finite entry, or a sum that drifts beyond
    10 * _SOLVE_TOL * ||b||, is an error. This is the one zero-sum rule: the
    solvers and routing.validate_demand all apply it."""
    if not np.all(np.isfinite(b)):
        raise ValueError("demand entries must be finite")
    sums = _column_sums(b) if b.ndim == 2 else b.sum()
    drift = np.ravel(np.abs(sums))
    allowance = np.ravel(10.0 * _SOLVE_TOL * np.linalg.norm(b, axis=0))
    bad = np.flatnonzero(drift > allowance)
    if bad.size:
        j = bad[0]
        raise ValueError(
            f"demand must sum to zero (|sum| = {drift[j]:.3e} vs allowance "
            f"{allowance[j]:.3e})"
        )
    return b - sums / b.shape[0]


def solve_laplacian(g: Multigraph, b: np.ndarray) -> SolveReport:
    """Solve L x = b on the sum-zero subspace with 1^T x = 0.

    Preconditioned conjugate gradient with the diagonal (weighted degree)
    preconditioner, re-orthogonalized against the all-ones vector every
    iteration. b is projected onto the sum-zero subspace first; a non-finite
    entry or drift beyond 10 * _SOLVE_TOL * ||b|| is an error. Convergence
    means the true residual satisfies ||L x - b|| <= _SOLVE_TOL * ||b||.
    When the recursive residual meets that bound but the true one does not,
    the true residual replaces it and the search direction restarts from
    it, since the old direction belongs to the residual that drifted.

    The iteration cap is max(1e4, 10 n sqrt(kappa_hat)) with
    kappa_hat = n * w_max / w_min, a deliberately crude condition-number
    heuristic; hitting the cap raises a convergence error carrying the
    iterate it stopped at and that iterate's true residual.

    solve_laplacian_block runs this solver for every column of a graph
    without a Laplacian factor, and threshold_profile for its one demand;
    a graph with a factor never reaches it through solve_laplacian_block.
    """
    if not g.is_connected:
        raise DisconnectedError("Laplacian solve needs a connected graph")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (g.n,):
        raise ValueError(f"demand must have length n={g.n}")
    b = _centred(b)
    nb = float(np.linalg.norm(b))
    if nb == 0.0:
        return SolveReport(np.zeros(g.n), 0.0, 0)

    lap = g.laplacian
    dinv = 1.0 / g.weighted_degrees
    cap = _iteration_cap(g)

    x = np.zeros(g.n)
    r = b.copy()
    z = dinv * r
    z -= z.mean()
    p = z.copy()
    rz = float(r @ z)
    target = _SOLVE_TOL * nb
    iterations = 0
    while iterations < cap:
        iterations += 1
        lp = lap @ p
        denom = float(p @ lp)
        if denom <= 0.0:
            break
        alpha = rz / denom
        x += alpha * p
        r -= alpha * lp
        x -= x.mean()
        r -= r.mean()
        restart = False
        if float(np.linalg.norm(r)) <= target:
            true_r = b - lap @ x
            true_res = float(np.linalg.norm(true_r))
            if true_res <= target:
                x -= x.mean()
                return SolveReport(x, true_res, iterations)
            r = true_r
            r -= r.mean()
            restart = True
        z = dinv * r
        z -= z.mean()
        rz_new = float(r @ z)
        p = z if restart else z + (rz_new / rz) * p
        rz = rz_new
    true_res = float(np.linalg.norm(b - lap @ x))
    raise ConvergenceError(
        f"conjugate gradient missed tolerance {_SOLVE_TOL:g} after {iterations} "
        f"iterations (residual {true_res:.3e})",
        best=x,
        residual=true_res,
        iterations=iterations,
    )


def solve_laplacian_block(g: Multigraph, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Solve L X = B for an n x k block of demands, one column per demand.

    Returns the n x k solutions and the k true residual norms ||L x - b||.
    Every column meets solve_laplacian's contract: b is centred (a
    non-finite entry or sum drift beyond 10 * _SOLVE_TOL * ||b|| is an
    error), the solution sums to zero, and ||L x - b|| <= _SOLVE_TOL * ||b||.
    When the graph has a Laplacian factor (Multigraph.laplacian_factor) each
    column is a grounded solve against it, centred, whose true residual is
    checked; a column that misses the bound gets up to _REFINEMENTS steps of
    iterative refinement against the same factor, and one that still misses
    raises ConvergenceError with its iterate. Every sum that centres a
    column adds it top to bottom (`_column_sums`), so a column's solution
    is the same bits in a block of any width. Without a factor (above the
    vertex cap, or on a disconnected graph) every column is a
    solve_laplacian call.
    """
    b = np.ascontiguousarray(b, dtype=np.float64)
    if b.ndim != 2 or b.shape[0] != g.n:
        raise ValueError(f"demand block must have n={g.n} rows")
    lu = g.laplacian_factor
    x = np.zeros_like(b)
    if lu is None:
        residuals = np.zeros(b.shape[1])
        for j in range(b.shape[1]):
            rep = solve_laplacian(g, b[:, j])
            x[:, j] = rep.solution
            residuals[j] = rep.residual_norm
        return x, residuals
    b = _centred(b)
    x[1:] = lu.solve(b[1:])
    x -= _column_sums(x) / g.n
    residuals = np.linalg.norm(g.laplacian @ x - b, axis=0)
    target = _SOLVE_TOL * np.linalg.norm(b, axis=0)
    # a NaN residual counts as a miss
    miss = np.flatnonzero(~(residuals <= target))
    for _ in range(_REFINEMENTS):
        if not miss.size:
            break
        r = g.laplacian.astype(np.longdouble) @ x[:, miss] - b[:, miss]
        x[1:, miss] -= lu.solve(r[1:].astype(np.float64))
        x[:, miss] -= _column_sums(x[:, miss]) / g.n
        residuals[miss] = np.linalg.norm(g.laplacian @ x[:, miss] - b[:, miss], axis=0)
        miss = miss[~(residuals[miss] <= target[miss])]
    if miss.size:
        j = miss[0]
        raise ConvergenceError(
            f"factored solve missed tolerance {_SOLVE_TOL:g} after {_REFINEMENTS} "
            f"refinement steps (residual {residuals[j]:.3e})",
            best=x[:, j],
            residual=float(residuals[j]),
            iterations=_REFINEMENTS,
        )
    return x, residuals


def _pnorm(v: np.ndarray, p: float) -> float:
    """The one l_p norm of a nonnegative vector, p in [1, inf], 0.0 when empty:
    v is divided by its largest entry before the power, so the largest term
    is exactly 1 and no p overflows or underflows the sum."""
    top = float(v.max()) if v.size else 0.0
    if top == 0.0 or np.isinf(p):
        return top
    return top * float(np.power(v / top, p).sum() ** (1.0 / p))


# relative gap between the certified ends of the p-norm bracket at which the
# iteration stops: below half a unit in the 12th printed digit
_PNORM_TOL = 1e-12
# power-iteration cap: a guard in case the bracket never closes
_PNORM_MAX_ITER = 100_000


def induced_pnorm_nonneg(mat: np.ndarray, p: float) -> float:
    """p -> p induced norm of an entrywise nonnegative dense array (a
    scipy.sparse matrix raises ValueError).

    Nonlinear power iteration x <- normalize(psi_q(M^T psi_p(M x))) with
    psi_p(v) = v^(p-1) and q the dual exponent, started from the uniform
    positive vector. Each iterate brackets the norm: from above by the Schur
    test (max_j (M^T (M x)^(p-1))_j / x_j^(p-1))^(1/p) over the nonzero
    columns, from below by ||M v||_p / ||v||_p for v = x and, at iterations
    1, 2, 4, ..., for x cut to the columns whose ratio is within _PNORM_TOL
    of the max (on a reducible M, the leading block, which converges while x
    still mixes in a block of nearly the same norm). It stops once the gap is
    within _PNORM_TOL (1e-12, relative), returns the lower end, and gives up
    after _PNORM_MAX_ITER iterations. Every p-norm and power divides by the
    vector's largest entry first (`_pnorm`), so no p overflows or underflows.
    p = 1 and p = inf are the exact column/row-sum formulas.
    """
    p = _check_p(p)
    mat = np.asarray(mat, dtype=np.float64)
    if mat.size and not float(mat.min()) >= 0.0:
        raise ValueError("matrix must be entrywise nonnegative")
    if np.isinf(p) or p == 1.0:
        sums = mat.sum(axis=1 if np.isinf(p) else 0)
        return float(sums.max()) if sums.size else 0.0
    ncols = mat.shape[1]
    if ncols == 0:
        return 0.0

    q = p / (p - 1.0)
    mat_t = mat.T

    x = np.full(ncols, 1.0)
    x /= _pnorm(x, p)
    tiny = np.finfo(np.float64).tiny
    for it in range(1, _PNORM_MAX_ITER + 1):
        y = mat @ x
        lower = _pnorm(y, p)
        if lower == 0.0:
            return 0.0
        y_max = float(y.max())
        w = mat_t @ np.power(y / y_max, p - 1.0)
        w_max = float(w.max())
        x_next = np.power(w / w_max, q - 1.0)
        # Schur ratio w_j / x_j^(p-1) = w_max (x_next_j / x_j)^(p-1); a zero
        # column has x_next_j = 0 and, from the second iterate, x_j = 0
        growth = x_next / np.maximum(x, tiny)
        growth_max = float(growth.max())
        upper = (y_max * growth_max) ** (1.0 - 1.0 / p) * w_max ** (1.0 / p)
        # only at iterations 1, 2, 4, ...: a converged block stays converged,
        # so this at most doubles the iterations, at log2(it) extra products
        if it & (it - 1) == 0:
            v = np.where(growth >= growth_max * (1.0 - _PNORM_TOL), x, 0.0)
            lower = max(lower, _pnorm(mat @ v, p) / _pnorm(v, p))
        if upper - lower <= _PNORM_TOL * lower:
            return lower
        x = x_next / _pnorm(x_next, p)
    raise ConvergenceError(
        f"p-norm bracket stayed wider than {_PNORM_TOL:g} (relative) after "
        f"{_PNORM_MAX_ITER} iterations",
        best=lower,
        iterations=_PNORM_MAX_ITER,
    )
