"""Exact rational oracle for the solve-based quantities.

On a unit-weight graph the Laplacian is an integer matrix, so grounding
vertex 0 and eliminating the rest with fractions.Fraction gives
effective_resistance, competitive_ratio_inf and localization exactly. Each
float the library returns must lie within an error bound of the exact value
that follows from the solve contract alone:

- a solution x of L x = b (b a centred unit pair demand, ||b|| = sqrt(2))
  with true residual r = L x - b differs from the exact voltages by L^+ r,
  up to a constant;
- so an effective resistance moves by |b^T L^+ r| <= sqrt(R) ||r|| /
  sqrt(lambda_2) and an l1 flow norm sum_f |v(head) - v(tail)| by at most
  sum_f |(B^T L^+ r)_f| <= sqrt(m) ||r|| / sqrt(lambda_2), and so do their
  maximum (rho_inf) and average (localization);
- ||r|| is evaluated exactly, in rationals, from the x the solver returned,
  and must meet the contract, ||r|| <= 1e-10 ||b||;
- forming the quantity from x rounds once more, by under 4 (m + n) eps
  relative.

Conductance needs no bound: every cut weight and volume of these unit-weight
graphs is an integer below 2^53, so phi is one correctly rounded quotient
of the exact minimum over every cut.

Schur weights and harmonic extensions eliminate a seeded vertex set F the
same way, in rationals; their bounds come from the exact residual of each
solve against L_FF and the exact ||L_FF^-1||_inf.

lambda_2 comes from dense eigvalsh. The printed format_value token (12
significant digits) must equal the exact value rounded to 12 digits, unless
the exact value lies within the bound of a rounding boundary. With
||r|| at the contract's 1e-10 ||b|| every value would be that close, so the
token is checked against the bound from the residual the solve reached.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import scipy.sparse.linalg

import ohmlab.routing
from ohmlab import (
    Partition,
    competitive_ratio_inf,
    conductance_exact,
    cycle_graph,
    effective_resistance,
    harmonic_extension,
    localization,
    path_graph,
    petersen_graph,
    random_regular,
    schur_edge_weights,
)
from ohmlab.experiments import format_value
from ohmlab.linalg import _SOLVE_TOL

from conftest import _random_multigraph, complete_graph

EPS = np.finfo(np.float64).eps


def _multigraph(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 11))
    return _random_multigraph(rng, n, int(rng.integers(0, 2 * n)), weighted=False)


GRAPHS = {
    "path6": lambda: path_graph(6),
    "cycle7": lambda: cycle_graph(7),
    "k5": lambda: complete_graph(5),
    "petersen": petersen_graph,
    **{f"regular10-3-{s}": (lambda s=s: random_regular(10, 3, s)) for s in range(1, 6)},
    **{f"multigraph-{s}": (lambda s=s: _multigraph(s)) for s in range(5)},
}


def _laplacian(g):
    """L of a unit-weight graph as a list of rows of Fractions."""
    assert g.is_unit_weight
    lap = [[Fraction(0)] * g.n for _ in range(g.n)]
    for a, b in zip(g.tails.tolist(), g.heads.tolist()):
        lap[a][a] += 1
        lap[b][b] += 1
        lap[a][b] -= 1
        lap[b][a] -= 1
    return lap


def _inverse(mat):
    """Exact inverse of a nonsingular square matrix of Fractions, by
    Gauss-Jordan elimination."""
    k = len(mat)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(k)] for i, row in enumerate(mat)]
    for col in range(k):
        piv = next(r for r in range(col, k) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[k:] for row in aug]


def _grounded_inverse(g):
    """Exact inverse of L with vertex 0 grounded, padded with a zero row and
    column for vertex 0: G[s, s] + G[t, t] - 2 G[s, t] is R(s, t), and
    G[:, s] - G[:, t] is a voltage vector of the unit s -> t demand."""
    grounded = _inverse([row[1:] for row in _laplacian(g)[1:]])
    zero = [Fraction(0)] * g.n
    return [zero] + [[Fraction(0)] + row for row in grounded]


def _exact(g):
    """Exact R(s, t) for every pair s < t, the l1 flow norm of every edge's
    unit demand, rho_inf and localization."""
    grounded = _grounded_inverse(g)
    pairs = [(s, t) for s in range(g.n) for t in range(s + 1, g.n)]
    resistance = {
        (s, t): grounded[s][s] + grounded[t][t] - 2 * grounded[s][t] for s, t in pairs
    }
    ends = list(zip(g.tails.tolist(), g.heads.tolist()))
    l1 = []
    for a, b in ends:
        v = [grounded[i][a] - grounded[i][b] for i in range(g.n)]
        l1.append(sum(abs(v[h] - v[t]) for t, h in ends))
    return resistance, max(l1), sum(l1) / len(l1)


def _round12(q):
    """q rounded to 12 significant digits, exactly."""
    if q == 0:
        return q
    e = math.floor(math.log10(abs(q)))
    while Fraction(10) ** e > abs(q):
        e -= 1
    while Fraction(10) ** (e + 1) <= abs(q):
        e += 1
    unit = Fraction(10) ** (e - 11)
    return round(q / unit) * unit


class _Residuals:
    """Wraps routing's block solve and keeps the largest true relative
    residual ||L x - b|| / ||b|| of the solutions it returns since the last
    reset, evaluated exactly in rationals (rounded up to a float)."""

    def __init__(self, monkeypatch):
        self.worst = 0.0
        real = ohmlab.routing.solve_laplacian_block

        def spy(g, b):
            x, residuals = real(g, b)
            lap = g.laplacian.toarray().astype(int).tolist()
            for col, demand in zip(x.T.tolist(), b.T.tolist()):
                # every float is an integer over a power of two: scale the
                # column and the demand to integers over one denominator
                ratios = [v.as_integer_ratio() for v in col + demand]
                den = max(d for _, d in ratios)
                ints = [num * (den // d) for num, d in ratios]
                xs, bs = ints[:g.n], ints[g.n:]
                sq = sum((sum(a * v for a, v in zip(row, xs) if a) - bi) ** 2
                         for row, bi in zip(lap, bs))
                rel = math.sqrt(Fraction(sq, sum(bi * bi for bi in bs)))
                self.worst = max(self.worst, rel * (1.0 + 4 * EPS))
            return x, residuals

        monkeypatch.setattr(ohmlab.routing, "solve_laplacian_block", spy)


def _check(g, lam2, value, exact, scale, residual):
    """`value` within the bound of `exact` that the residual gives, and its
    token the exact 12-digit rounding where that bound clears every rounding
    boundary. `scale` is sqrt(R) for a resistance, sqrt(m) for an l1 norm:
    the factor on ||r|| / sqrt(lambda_2). Returns whether the token was
    checked."""
    assert residual <= _SOLVE_TOL

    def bound(rel_residual):
        solve = scale * math.sqrt(2.0) * rel_residual / math.sqrt(lam2)
        return Fraction(solve + 4 * (g.m + g.n) * EPS * float(exact))

    error = abs(Fraction(value) - exact)
    assert error <= bound(_SOLVE_TOL)
    tight = bound(residual)
    assert error <= tight, (value, float(exact), float(error), float(tight))
    if _round12(exact - tight) != _round12(exact + tight):
        return False
    assert Fraction(format_value(value)) == _round12(exact), (format_value(value), exact)
    return True


@pytest.mark.parametrize("name", list(GRAPHS))
def test_solve_quantities_match_exact_rationals(name, monkeypatch):
    g = GRAPHS[name]()
    resistance, rho_exact, loc_exact = _exact(g)
    # shrunk by far more than eigvalsh's rounding, so it stays below lambda_2
    lam2 = np.linalg.eigvalsh(g.laplacian.toarray())[1] * (1.0 - 1e-9)
    spy = _Residuals(monkeypatch)
    checked = []

    for (s, t), exact in resistance.items():
        spy.worst = 0.0
        value = effective_resistance(g, s, t)
        checked.append(_check(g, lam2, value, exact, math.sqrt(exact), spy.worst))

    for fn, exact in ((competitive_ratio_inf, rho_exact), (localization, loc_exact)):
        spy.worst = 0.0
        value = fn(g)
        checked.append(_check(g, lam2, value, exact, math.sqrt(g.m), spy.worst))

    # the token half is not vacuous: most values sit well clear of a boundary
    assert sum(checked) >= 0.75 * len(checked)


def _exact_phi(g):
    """min over every nonempty proper S of cut(S) / min(vol(S), vol(V - S)),
    in rationals, one cut at a time."""
    ends = list(zip(g.tails.tolist(), g.heads.tolist()))
    degree = [0] * g.n
    for a, b in ends:
        degree[a] += 1
        degree[b] += 1
    best = None
    for bits in range(1, 2 ** g.n - 1):
        side = [bits >> v & 1 for v in range(g.n)]
        vol = sum(d for d, s in zip(degree, side) if s)
        cut = sum(side[a] != side[b] for a, b in ends)
        phi = Fraction(cut, min(vol, sum(degree) - vol))
        best = phi if best is None else min(best, phi)
    return best


@pytest.mark.parametrize("name", list(GRAPHS))
def test_conductance_matches_exact_rational(name):
    g = GRAPHS[name]()
    exact = _exact_phi(g)
    cert = conductance_exact(g)
    assert cert.kind == "exact"
    assert cert.phi == float(exact)
    side = cert.witness
    vol = int(g.weighted_degrees[side].sum())
    cut = int((side[g.tails] != side[g.heads]).sum())
    assert Fraction(cut, min(vol, int(g.weighted_degrees.sum()) - vol)) == exact
    assert Fraction(format_value(cert.phi)) == _round12(exact)


class _Solves:
    """Wraps splu and keeps every block of solutions its factors return."""

    def __init__(self, monkeypatch):
        self.blocks = []
        real = scipy.sparse.linalg.splu

        class Factor:
            def __init__(factor, lu):
                factor.lu = lu

            def solve(factor, rhs):
                self.blocks.append(factor.lu.solve(rhs))
                return self.blocks[-1]

        monkeypatch.setattr(scipy.sparse.linalg, "splu", lambda *a, **kw: Factor(real(*a, **kw)))


def _token_checked(value, exact, bound):
    """`value` within `bound` of `exact`, and its token the exact 12-digit
    rounding where the bound clears every rounding boundary. Returns whether
    the token was checked."""
    assert abs(Fraction(value) - exact) <= bound, (value, float(exact), float(bound))
    if _round12(exact - bound) != _round12(exact + bound):
        return False
    assert Fraction(format_value(value)) == _round12(exact), (format_value(value), exact)
    return True


@pytest.mark.parametrize("name", ["path6", "cycle7", "petersen", "regular10-3-2",
                                  "multigraph-1", "multigraph-4"])
def test_schur_and_harmonic_match_exact_rationals(name, monkeypatch):
    """Eliminate a seeded F exactly: S = L_CC - L_CF X with X = L_FF^-1 L_FC,
    and the harmonic extension y = -X x of a seeded 0/1 boundary x.

    Each solve against L_FF must be backward stable: its exact residual R
    meets ||R||_inf <= 3 |F| eps (||L_FF||_inf ||y||_inf + ||rhs||_inf), the
    partial-pivoting residual bound for a matrix without pivot growth, as the
    diagonally dominant L_FF is (measured: at most 0.17 |F| eps on 20 seeded
    partitions of every GRAPHS entry). The bound on each float follows from
    R: the error of the solution is L_FF^-1 R, so it is at most
    ||L_FF^-1||_inf ||R||_inf in every entry. A Schur weight adds, over
    the k nonzeros of its row of L_CF, that error times |L_CF| and the
    rounding of its k products and one subtraction, under (k + 1) eps times
    the sum of the magnitudes involved."""
    g = GRAPHS[name]()
    rng = np.random.default_rng(list(GRAPHS).index(name))
    part = Partition.from_eliminated(g.n, rng.choice(g.n, g.n // 2, replace=False))
    c, f = part.terminals.tolist(), part.eliminated.tolist()
    x = rng.integers(0, 2, len(c)).tolist()
    lap = _laplacian(g)
    l_ff = [[lap[i][j] for j in f] for i in f]
    l_fc = [[lap[i][j] for j in c] for i in f]
    inverse = _inverse(l_ff)
    inverse_norm = max(sum(map(abs, row)) for row in inverse)
    l_ff_norm = max(sum(map(abs, row)) for row in l_ff)
    solved = [[sum(a * b[j] for a, b in zip(row, l_fc)) for j in range(len(c))]
              for row in inverse]

    def error(y, rhs):
        # ||L_FF^-1||_inf ||L_FF y - rhs||_inf for a computed solution y
        residual = max(abs(sum(a * Fraction(v) for a, v in zip(row, y)) - b)
                       for row, b in zip(l_ff, rhs))
        scale = l_ff_norm * max(map(abs, y)) + max(map(abs, rhs))
        assert residual <= 3 * len(f) * Fraction(EPS) * scale
        return inverse_norm * residual

    spy = _Solves(monkeypatch)
    weights = schur_edge_weights(g, part)
    computed = np.hstack(spy.blocks)
    column_error = [error(computed[:, j].tolist(), [row[j] for row in l_fc])
                    for j in range(len(c))]
    exact = {}
    for a in range(len(c)):
        for b in range(a + 1, len(c)):
            w = sum(l_fc[r][a] * solved[r][b] for r in range(len(f))) - lap[c[a]][c[b]]
            if w:
                exact[c[a], c[b]] = w
    assert set(weights) == set(exact)
    checked = []
    for (u, v), w in weights.items():
        a, b = c.index(u), c.index(v)
        row = [(l_fc[r][a], Fraction(computed[r, b])) for r in range(len(f)) if l_fc[r][a]]
        magnitude = abs(lap[u][v]) + sum(abs(l * y) for l, y in row)
        bound = (sum(abs(l) for l, _ in row) * column_error[b]
                 + (len(row) + 1) * Fraction(EPS) * magnitude)
        checked.append(_token_checked(w, exact[u, v], bound))

    y = harmonic_extension(g, part, np.array(x, dtype=float))
    bound = error(y.tolist(), [-sum(l * xj for l, xj in zip(row, x)) for row in l_fc])
    for value, row in zip(y.tolist(), solved):
        checked.append(_token_checked(value, -sum(a * xj for a, xj in zip(row, x)), bound))

    assert sum(checked) >= 0.75 * len(checked)


def test_multigraphs_have_parallel_edges():
    for s in range(5):
        g = _multigraph(s)
        assert g.n <= 10 and g.is_unit_weight
        pairs = {tuple(sorted(p)) for p in zip(g.tails.tolist(), g.heads.tolist())}
        assert len(pairs) < g.m
