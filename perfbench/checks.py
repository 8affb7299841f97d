"""Correctness checks for the benchmark's CLI outputs.

Every value an operation prints is compared with a reference:

* recorded values (reference/<workload>.json, written by record.py at the
  commit that introduced the benchmark), or
* for the sparsify Schur weights and harmonic extension, a dense
  computation made here with numpy.linalg.pinv, which is independent of
  ohmlab's scipy elimination and small enough to hold in memory.

On the smallest graph of certify-grid and ratio-sweep the recorded rho
values are also compared with rho from a dense pinv of the Laplacian.

Tolerance. Numbers match when |a - b| <= RTOL * max(|a|, |b|) + ATOL.
The solver contract (`--tol`, default 1e-10) bounds the relative residual
||L x - b|| / ||b||; the relative error of the voltages is then at most
cond(L) * tol on the sum-zero subspace. cond(L) = lambda_max / lambda_2 is
at most 580 on every graph these workloads solve (the k=5 gadget unions;
3-regular graphs stay below 40), so 1e-6 is about 17 times cond * tol. Every
printed value is a sum or maximum of voltage differences with nonnegative
weights, or a dense direct computation, so it inherits that relative bound.
ATOL = 1e-9 covers values that are pure rounding noise of larger sums
(identity gaps, |crossing flow - 1|), whose reference value is itself
about 1e-12.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import numpy as np

RTOL = 1e-6
ATOL = 1e-9
SCHUR_DROP = 1e-12  # sparsify.schur_edge_weights' default fill-in cut-off


def parse_csv(text: str) -> dict:
    """Split CLI CSV into comment lines, header and rows of string tokens."""
    comments, header, rows = [], None, []
    for line in text.splitlines():
        if line.startswith("# "):
            comments.append(line[2:])
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return {"comments": comments, "header": header, "rows": rows}


def _number(token: str):
    try:
        return float(token)
    except ValueError:
        return None


def close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        return a == b
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def _tokens_match(got: str, want: str) -> bool:
    if got == want:
        return True
    a, b = _number(got), _number(want)
    return a is not None and b is not None and close(a, b)


def _words(line: str) -> list:
    """Split a comment line so that every number stands alone."""
    return re.sub(r"([()\[\],:=])", r" \1 ", line).split()


def compare(got: dict, want: dict) -> list:
    """Mismatch messages between a parsed output and its expected table."""
    errors = []
    if got["header"] != want["header"]:
        errors.append(f"header {got['header']} != {want['header']}")
    if len(got["comments"]) != len(want["comments"]):
        errors.append(f"{len(got['comments'])} comment lines, expected {len(want['comments'])}")
    for g_line, w_line in zip(got["comments"], want["comments"]):
        g_words, w_words = _words(g_line), _words(w_line)
        if len(g_words) != len(w_words) or not all(
                _tokens_match(a, b) for a, b in zip(g_words, w_words)):
            errors.append(f"comment {g_line!r} != {w_line!r}")
    if len(got["rows"]) != len(want["rows"]):
        errors.append(f"{len(got['rows'])} rows, expected {len(want['rows'])}")
    for i, (g_row, w_row) in enumerate(zip(got["rows"], want["rows"])):
        if len(g_row) != len(w_row) or not all(
                _tokens_match(a, b) for a, b in zip(g_row, w_row)):
            errors.append(f"row {i}: {g_row} != {w_row}")
    return errors[:5]


# -- independent dense computations -----------------------------------------

def dense_laplacian(g) -> np.ndarray:
    lap = np.zeros((g.n, g.n))
    np.add.at(lap, (g.tails, g.heads), -g.weights)
    np.add.at(lap, (g.heads, g.tails), -g.weights)
    lap[np.diag_indices(g.n)] = -lap.sum(axis=1)
    return lap


def dense_projection(g) -> np.ndarray:
    """|Pi| = |B^T L^+ B| for a unit-weight graph, from a dense pinv."""
    inc = np.zeros((g.n, g.m))
    cols = np.arange(g.m)
    inc[g.tails, cols] = -1.0
    inc[g.heads, cols] = 1.0
    return np.abs(inc.T @ np.linalg.pinv(dense_laplacian(g)) @ inc)


def dense_rho(g) -> dict:
    """rho_1, rho_2, rho_inf and localization of electrical routing."""
    pi = dense_projection(g)
    col_sums = pi.sum(axis=0)
    return {"1": float(col_sums.max()), "inf": float(pi.sum(axis=1).max()),
            "2": float(np.linalg.norm(pi, 2)), "localization": float(col_sums.mean())}


def dense_sparsify_rows(g, part, x) -> list:
    """Expected schur-weight and harmonic rows, as ohmlab formats them."""
    import scipy.sparse as sp

    lap = sp.coo_array((np.concatenate([g.weights, g.weights]),
                        (np.concatenate([g.tails, g.heads]),
                         np.concatenate([g.heads, g.tails]))), shape=(g.n, g.n)).tocsr()
    lap = sp.diags_array(np.asarray(lap.sum(axis=1)).ravel()) - lap
    c, f = part.terminals, part.eliminated
    l_fc = lap[f][:, c].toarray()
    ff_inv = np.linalg.pinv(lap[f][:, f].toarray())
    schur = lap[c][:, c].toarray() - l_fc.T @ ff_inv @ l_fc
    scale = max(float(np.abs(schur).max()), 1.0)
    weights = -np.triu(schur, k=1)
    rows = []
    for i, j in zip(*np.nonzero(np.abs(weights) > SCHUR_DROP * scale)):
        rows.append(["schur-weight", str(int(c[i])), str(int(c[j])), _fmt(weights[i, j])])
    harmonic = np.clip(-(ff_inv @ (l_fc @ x)), 0.0, 1.0)
    rows += [["harmonic", str(int(v)), "", _fmt(val)] for v, val in zip(f, harmonic)]
    return rows


def _fmt(value) -> str:
    return f"{float(value):.12g}"


def _write_sparsify_rows(workdir: Path) -> None:
    """Dense rows for the sparsify input in workdir, written as JSON.

    Run in its own process so that its memory stays out of the benchmark
    process's peak RSS."""
    from ohmlab.graphs import read_graph
    from ohmlab.sparsify import read_partition

    g = read_graph(workdir / "sparsify.graph")
    part = read_partition(workdir / "sparsify.part", g.n)
    x = np.array([float(b) for b in (workdir / "sparsify.x").read_text().split(",")])
    with open(workdir / "dense_sparsify.json", "w") as fh:
        json.dump(dense_sparsify_rows(g, part, x), fh)


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "sparsify":
        sys.exit("usage: checks.py sparsify WORKDIR")
    _write_sparsify_rows(Path(sys.argv[2]))
