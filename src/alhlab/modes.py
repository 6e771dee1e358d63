"""Graded-mesh two-point boundary value solver for the reduced radial
operators, decay-rate and expansion fitting, and discrete weighted norms.

The mesh is geometric toward x=0 so that both power-law behavior (1,
1/x, x^2, ...) and the super-polynomial decay of the circle and torus
modes are resolved on the same grid.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np
from scipy import sparse
from scipy.integrate import simpson
from scipy.linalg import svdvals
from scipy.sparse.linalg import splu, spsolve

from .config import DEFAULT, Tolerances
from .indicial import NotBTypeError, indicial_poly, indicial_roots
from .operators import ModeReducedOp

__all__ = [
    "RadialGrid", "Dirichlet", "DecaySelect", "BVProblem", "SampledSolution",
    "ExpansionFit", "DiscreteNorm", "IndicialWeightError", "ConvergenceError",
    "solve_bvp", "fit_expansion", "fit_decay_rate", "discrete_a_norm",
    "weighted_sigma_min",
]


class IndicialWeightError(ValueError):
    """The requested weight sits exactly on an indicial value, so the
    boundary-value problem degenerates."""


class ConvergenceError(RuntimeError):
    """The discrete solve failed its residual or refinement check."""


class RadialGrid:
    """Geometrically graded nodes x_0 < ... < x_N in (0, x_max]."""

    def __init__(self, n: int = 2000, x_min: float = 1e-3,
                 x_max: float = 0.5):
        if not (0 < x_min < x_max):
            raise ValueError("need 0 < x_min < x_max")
        if n < 8:
            raise ValueError("grid too coarse")
        self.n = int(n)
        self.ratio = (x_min / x_max) ** (1.0 / n)
        i = np.arange(n + 1)
        self.nodes = x_max * self.ratio ** (n - i)
        # strictly increasing with a positive inner endpoint
        assert self.nodes[0] > 0 and np.all(np.diff(self.nodes) > 0)

    @property
    def x_min(self) -> float:
        return float(self.nodes[0])

    @property
    def x_max(self) -> float:
        return float(self.nodes[-1])


class Dirichlet(NamedTuple):
    """Fixed values for selected components at one end."""
    values: dict

    @staticmethod
    def scalar(value) -> "Dirichlet":
        return Dirichlet({0: float(value)})


class DecaySelect(NamedTuple):
    """Keep only local solution directions with exponent above
    ``weight + 1``; realized by projection rows on the innermost nodes.
    """
    weight: float
    fit_nodes: int = 20


class BVProblem(NamedTuple):
    operator: ModeReducedOp
    grid: RadialGrid
    rhs: Optional[object] = None      # callable x -> value(s); None = 0
    inner: object = None              # Dirichlet or DecaySelect
    outer: object = None              # Dirichlet


class SampledSolution(NamedTuple):
    grid: RadialGrid
    values: np.ndarray                # shape (size, n+1)
    operator: Optional[ModeReducedOp] = None
    residual: float = math.nan        # relative residual of the solve

    def component(self, i: int) -> np.ndarray:
        return self.values[i]


class ExpansionFit(NamedTuple):
    exponents: tuple
    coefficients: np.ndarray          # shape (len(exponents), size)
    residual: float
    slope: Optional[float]
    flagged: bool


class DiscreteNorm(float):
    """Float with a divergence marker for the inner-end quadrature."""

    def __new__(cls, value, divergent=False):
        obj = super().__new__(cls, value)
        obj.divergent = bool(divergent)
        return obj


def _sample(coeff, xs, var):
    """Float values of an exact coefficient at every node, in one pass of
    its compiled evaluator; a constant comes back as a full array."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals = np.broadcast_to(coeff.lambdify([var])(xs), xs.shape)
    if not np.all(np.isfinite(vals)):
        raise ZeroDivisionError(
            f"coefficient {coeff!r} is not finite on the grid")
    return vals


def _stencil(xs):
    """Nonuniform three-point weights at the interior nodes xs[1:-1]:
    (d1, d2), each of shape (3, len(xs) - 2), weigh the left, centre and
    right neighbour in the second-order first and second derivative."""
    h = np.diff(xs)
    hl, hr = h[:-1], h[1:]
    d1 = np.array([-hr / (hl * (hl + hr)), (hr - hl) / (hl * hr),
                   hl / (hr * (hl + hr))])
    d2 = np.array([2 / (hl * (hl + hr)), -2 / (hl * hr),
                   2 / (hr * (hl + hr))])
    return d1, d2


def _interior_weights(op: ModeReducedOp, xs):
    """Three-point weights of a scalar second-order operator at the
    interior nodes, shape (3, len(xs) - 2) as in ``_stencil``."""
    c2, c1, c0 = (_sample(op.coefficient(0, 0, o), xs[1:-1], op.var)
                  for o in (2, 1, 0))
    d1, d2 = _stencil(xs)
    weights = c2 * d2 + c1 * d1
    weights[1] += c0
    return weights


def _op_order(op: ModeReducedOp) -> int:
    order = 0
    for row in op.entries:
        for cell in row:
            for o in cell:
                order = max(order, o)
    return order


def _mode_exponents(op: ModeReducedOp):
    """(root value, nullvector basis) pairs for decay selection."""
    M = indicial_poly(op)
    out = []
    for r in indicial_roots(M):
        if not isinstance(r.root, Fraction):
            raise ValueError("decay selection needs real rational "
                             "indicial roots")
        for v in r.nullvectors:
            out.append((r.root, v))
    return out


def _decay_rows(op, grid, bc: DecaySelect, n_conditions):
    """Projection rows killing the local directions at or below the
    cutoff; falls back to a zero Dirichlet condition for irregular
    (non-b-type) operators whose decaying solution is below resolution.
    """
    size = op.size
    npts = grid.n + 1
    try:
        basis = _mode_exponents(op)
    except NotBTypeError:
        rows = []
        for comp in range(size):
            rows.append(({comp * npts + 0: 1.0}, 0.0))
        if len(rows) != n_conditions:
            raise ValueError(
                f"irregular operator: inner Dirichlet supplies {len(rows)} "
                f"conditions but {n_conditions} are required")
        return rows
    cutoff = Fraction(bc.weight).limit_denominator(10**9) + 1 \
        if not isinstance(bc.weight, Fraction) else bc.weight + 1
    killed = []
    for idx, (gamma, _v) in enumerate(basis):
        if gamma == cutoff:
            raise IndicialWeightError(
                f"decay cutoff selects the indicial weight {gamma - 1} "
                f"(root {gamma}) exactly")
        if gamma < cutoff:
            killed.append(idx)
    if len(basis) != size * max(_op_order(op), 1):
        raise ValueError("local solution basis is incomplete "
                         "(logarithmic directions are unsupported)")
    if len(killed) != n_conditions:
        raise ValueError(
            f"decay selection kills {len(killed)} directions but the "
            f"problem needs {n_conditions} inner conditions")
    m = bc.fit_nodes
    xs = grid.nodes[:m]
    # column j stacks the components of basis direction j, row comp*m + i
    C = np.column_stack([np.outer([float(c) for c in v], xs ** float(gamma))
                         .ravel() for gamma, v in basis])
    norms = np.linalg.norm(C, axis=0)
    P = np.linalg.pinv(C / norms)
    cols = (np.arange(size)[:, None] * npts + np.arange(m)).ravel()
    return [({c: v for c, v in zip(cols, P[j]) if v != 0.0}, 0.0)
            for j in killed]


def _dirichlet_rows(bc: Dirichlet, grid, size, end):
    npts = grid.n + 1
    node = 0 if end == "inner" else grid.n
    rows = []
    for comp, val in sorted(bc.values.items()):
        if not (0 <= comp < size):
            raise ValueError(f"component {comp} out of range")
        rows.append(({comp * npts + node: 1.0}, float(val)))
    return rows


def _bc_rows(problem, end, n_conditions):
    bc = problem.inner if end == "inner" else problem.outer
    if bc is None:
        if n_conditions == 0:
            return []
        raise ValueError(f"missing {end} boundary condition")
    if isinstance(bc, Dirichlet):
        rows = _dirichlet_rows(bc, problem.grid, problem.operator.size, end)
        if len(rows) != n_conditions:
            raise ValueError(
                f"{end} Dirichlet supplies {len(rows)} conditions, "
                f"need {n_conditions}")
        return rows
    if isinstance(bc, DecaySelect):
        if end != "inner":
            raise ValueError("decay selection applies at the inner end")
        return _decay_rows(problem.operator, problem.grid, bc, n_conditions)
    raise TypeError(f"unsupported boundary condition {bc!r}")


def _rhs_values(problem, xs, size):
    out = np.zeros((size, len(xs)))
    if problem.rhs is None:
        return out
    for i, x in enumerate(xs):
        val = problem.rhs(float(x))
        if size == 1 and np.isscalar(val):
            out[0, i] = val
        else:
            val = np.asarray(val, dtype=float)
            if val.shape != (size,):
                raise ValueError("rhs shape mismatch")
            out[:, i] = val
    return out


def solve_bvp(problem: BVProblem,
              config: Tolerances = DEFAULT) -> SampledSolution:
    """Solve the two-point boundary value problem on the graded grid.

    Scalar second-order operators use three-point stencils at the nodes;
    first-order systems use the midpoint box scheme.  The assembled
    sparse system is solved directly and its relative residual checked.
    """
    op = problem.operator
    grid = problem.grid
    xs = grid.nodes
    n = grid.n
    npts = n + 1
    size = op.size
    order = _op_order(op)
    n_unknowns = size * npts

    def boundary(end, n_conditions):
        """Boundary rows as a sparse block and its right-hand side."""
        rows = _bc_rows(problem, end, n_conditions)
        block = sparse.lil_matrix((len(rows), n_unknowns))
        for r, (coeffs, _) in enumerate(rows):
            block[r, list(coeffs)] = list(coeffs.values())
        return block, [value for _, value in rows]

    if size == 1 and order == 2:
        weights = _interior_weights(op, xs)
        rhs = _rhs_values(problem, xs, 1)[0, 1:-1]
        n_outer = len(problem.outer.values) \
            if isinstance(problem.outer, Dirichlet) else 1
        inner = boundary("inner", 2 - n_outer)
        # interior row i - 1 holds the equation at node i
        i = np.arange(1, n)
        rows = np.tile(i - 1, 3)
        cols = np.concatenate([i - 1, i, i + 1])
        vals = weights.ravel()
    elif order == 1:
        mids = 0.5 * (xs[:-1] + xs[1:])
        h = np.diff(xs)
        # interior row cell * size + i holds equation i on the cell
        cells = np.arange(n)
        rows, cols, vals = [], [], []
        for i in range(size):
            for j in range(size):
                ca, cb = (op.coefficient(i, j, o) for o in (1, 0))
                if ca.is_zero() and cb.is_zero():
                    continue
                a, b = (_sample(c, mids, op.var) for c in (ca, cb))
                rows += [cells * size + i] * 2
                cols += [j * npts + cells, j * npts + cells + 1]
                vals += [-a / h + 0.5 * b, a / h + 0.5 * b]
        rows, cols, vals = map(np.concatenate, (rows, cols, vals))
        rhs = _rhs_values(problem, mids, size).T.ravel()
        n_outer = len(problem.outer.values) \
            if isinstance(problem.outer, Dirichlet) else 0
        inner = boundary("inner", size - n_outer)
    else:
        raise ValueError(
            f"unsupported problem shape: size {size}, order {order}")
    interior = sparse.coo_matrix((vals, (rows, cols)),
                                 shape=(len(rhs), n_unknowns))
    outer = boundary("outer", n_outer)
    A = sparse.vstack([inner[0], interior, outer[0]], format="csr")
    b = np.concatenate([inner[1], rhs, outer[1]])
    if len(b) != n_unknowns:
        raise ValueError(
            f"assembled {len(b)} equations for {n_unknowns} unknowns")
    u = spsolve(A, b)
    if not np.all(np.isfinite(u)):
        raise IndicialWeightError(
            "singular discrete system (weight at an indicial value)")
    scale = np.abs(A) @ np.abs(u) + np.abs(b)
    resid = np.abs(A @ u - b)
    rel = float(np.max(resid / np.maximum(scale, 1e-300)))
    if rel > config.discrete_residual:
        raise ConvergenceError(
            f"discrete residual {rel:.3e} exceeds "
            f"{config.discrete_residual:.1e}")
    return SampledSolution(grid, u.reshape(size, npts), op, rel)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def _tail_window(grid: RadialGrid, config: Tolerances):
    """Indices of the innermost decade, minus the boundary-condition
    nodes."""
    xs = grid.nodes
    idx = np.where(xs <= 10.0 * xs[0])[0]
    idx = idx[idx >= config.fit_nodes]
    if len(idx) < 8:
        raise ValueError("fitting window too small on this grid")
    return idx


def fit_expansion(u: SampledSolution, roots, cutoff,
                  config: Tolerances = DEFAULT) -> ExpansionFit:
    """Least-squares power-law expansion of a sampled solution on the
    inner tail, over candidate exponents above ``cutoff + 1``."""
    gammas = []
    for r in roots:
        g = r.root if hasattr(r, "root") else r
        if float(g) > float(cutoff) + 1.0:
            gammas.append(g)
    if not gammas:
        raise ValueError("no candidate exponents above the cutoff")
    gammas = sorted(gammas, key=float)
    idx = _tail_window(u.grid, config)
    xs = u.grid.nodes[idx]
    size = u.values.shape[0]
    V = np.column_stack([xs ** float(g) for g in gammas])
    norms = np.linalg.norm(V, axis=0)
    Vn = V / norms
    coeffs = np.zeros((len(gammas), size))
    resid_num = 0.0
    resid_den = 0.0
    for comp in range(size):
        y = u.values[comp, idx]
        a, *_ = np.linalg.lstsq(Vn, y, rcond=None)
        coeffs[:, comp] = a / norms
        r = y - Vn @ a
        resid_num += float(r @ r)
        resid_den += float(y @ y)
    residual = math.sqrt(resid_num / resid_den) if resid_den > 0 else 0.0
    mags = np.max(np.abs(u.values[:, idx]), axis=0)
    slope = None
    flagged = False
    if np.all(mags > 0):
        slope = float(np.polyfit(np.log(xs), np.log(mags), 1)[0])
        flagged = min(abs(slope - float(g)) for g in gammas) \
            > config.slope_flag
    return ExpansionFit(tuple(gammas), coeffs, residual, slope, flagged)


def fit_decay_rate(u: SampledSolution, power: int, component: int = 0,
                   config: Tolerances = DEFAULT) -> float:
    """Fit log|u| ~ a*x^power + b*log x + c on the amplitude window and
    return a — the leading decay coefficient (power -1 or -2)."""
    if power not in (-1, -2):
        raise ValueError("power must be -1 or -2")
    y = np.abs(u.values[component])
    xs = u.grid.nodes
    top = float(np.max(y))
    if top == 0.0:
        raise ValueError("cannot fit the decay rate of the zero solution")
    mask = (y > config.amplitude_lo * top) & (y < config.amplitude_hi * top)
    if np.count_nonzero(mask) < 10:
        raise ValueError("amplitude window contains too few nodes")
    xw, yw = xs[mask], y[mask]
    design = np.column_stack([xw ** power, np.log(xw), np.ones_like(xw)])
    sol, *_ = np.linalg.lstsq(design, np.log(yw), rcond=None)
    return float(sol[0])


# ---------------------------------------------------------------------------
# discrete weighted norms
# ---------------------------------------------------------------------------

def _radial_derivative(vals: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Second-order first derivative on the nonuniform grid."""
    du = np.empty_like(vals)
    d1, _ = _stencil(xs)
    du[1:-1] = d1[0] * vals[:-2] + d1[1] * vals[1:-1] + d1[2] * vals[2:]
    du[0] = (vals[1] - vals[0]) / (xs[1] - xs[0])
    du[-1] = (vals[-1] - vals[-2]) / (xs[-1] - xs[-2])
    return du


def discrete_a_norm(u: SampledSolution, weight: float, order: int = 0,
                    metric: str = "gh",
                    config: Tolerances = DEFAULT) -> DiscreteNorm:
    """Weighted Sobolev norm through the structure-field derivatives.

    Derivative words are built from the radial field x^3 d/dx and the
    fiber multipliers (mode frequency times x for the torus directions,
    the bare circle frequency); the square sums over all words of length
    at most ``order`` are integrated against x^(-2 weight) times the
    radial volume density (x^-3 or x^-5).
    """
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1, or 2")
    if metric not in ("gh", "a"):
        raise ValueError("metric must be 'gh' or 'a'")
    xs = u.grid.nodes
    k, (m1, m2) = u.operator.mode if u.operator is not None else (0, (0, 0))
    x3 = xs ** 3

    def actions(w):
        return [x3 * _radial_derivative(w, xs),
                m1 * xs * w, m2 * xs * w, float(k) * w]

    total = np.zeros_like(xs)
    level = [u.values[comp].astype(float) for comp in
             range(u.values.shape[0])]
    for w in level:
        total += w * w
    for _ in range(order):
        nxt = []
        for w in level:
            nxt.extend(actions(w))
        for w in nxt:
            total += w * w
        level = nxt
    density = -3 if metric == "gh" else -5
    integrand = total * xs ** (-2.0 * float(weight) + density)
    value = float(simpson(integrand, x=xs))
    value = math.sqrt(max(value, 0.0))
    divergent = False
    head = integrand[:40]
    if np.all(head > 0):
        slope = float(np.polyfit(np.log(xs[:40]), np.log(head), 1)[0])
        divergent = slope < -0.99
    return DiscreteNorm(value, divergent)


# ---------------------------------------------------------------------------
# closed-range shadow
# ---------------------------------------------------------------------------

#: inverse iterations allowed before ``weighted_sigma_min`` gives up
_SIGMA_MAX_ITER = 100


def weighted_sigma_min(op: ModeReducedOp, weight: float,
                       grid: RadialGrid, fit_nodes: int = 20) -> float:
    """Smallest singular value of the weighted, mass-normalized discrete
    operator with decay selection at the inner end and a Dirichlet row
    at the outer end.

    Local directions strictly below the weight are projected out; a
    direction sitting exactly at the weight (the indicial case) cannot
    be, and shows up as a slowly degenerating near-kernel.  Off the
    weight set the value stays bounded away from zero as the grid
    extends toward x=0.

    The operator is assembled sparse (banded apart from at most two
    projection rows on the first ``fit_nodes`` columns) and its smallest
    singular value found by block inverse iteration on the Gram matrix,
    with the Ritz value taken from the operator itself, since the Gram
    matrix squares its condition number; a run that does not settle
    raises ``ConvergenceError``.
    """
    if op.size != 1 or _op_order(op) != 2:
        raise ValueError("implemented for scalar second-order operators")
    xs = grid.nodes
    n = grid.n
    mu = float(weight)
    weights = _interior_weights(op, xs)
    gammas = [float(g) for g, _ in _mode_exponents(op)]
    killed = [g for g in gammas if g < mu + 1.0 - 1e-12
              and abs(g - (mu + 1.0)) > 1e-12]
    k = len(killed)
    # trapezoid masses against the x^-3 radial density
    dx = np.gradient(xs)
    dx[[0, -1]] *= 0.5
    mass = xs ** -3 * dx
    rows, cols, vals = [], [], []
    # inner projection rows on the conjugated variable v = x^-mu u,
    # whose local exponents are gamma - mu; expressed in the
    # mass-normalized coordinates and rescaled to unit row norm
    if killed:
        w = xs[:fit_nodes]
        C = np.column_stack([w ** (g - mu) for g in gammas])
        C = C / np.linalg.norm(C, axis=0)
        P = np.linalg.pinv(C)
        for r, g in enumerate(killed):
            row = P[gammas.index(g)] / np.sqrt(mass[:fit_nodes])
            rows.append(np.full(fit_nodes, r))
            cols.append(np.arange(fit_nodes))
            vals.append(row / np.linalg.norm(row))
    # interior row k + i - 1 holds the equation at node i
    i = np.arange(1, n)
    for off, w in zip((-1, 0, 1), weights):
        j = i + off
        rows.append(k + i - 1)
        cols.append(j)
        vals.append(w * (xs[j] / xs[i]) ** mu * np.sqrt(mass[i] / mass[j]))
    rows.append([k + n - 1])
    cols.append([n])
    vals.append([1.0])
    B = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(k + n, n + 1)).tocsc()
    # the Gram matrix of a wide B is singular; sigma_min(B) = sigma_min(B^T)
    if B.shape[0] < B.shape[1]:
        B = B.T.tocsc()
    lu = splu((B.T @ B).tocsc())
    Q = np.random.default_rng(0).standard_normal((B.shape[1], 3))
    sigma = math.nan
    for _ in range(_SIGMA_MAX_ITER):
        Q, _r = np.linalg.qr(lu.solve(Q))
        sigma, prev = float(svdvals(B @ Q)[-1]), sigma
        if abs(sigma - prev) <= 1e-13 * sigma:
            return sigma
    raise ConvergenceError(
        f"sigma_min inverse iteration did not settle in {_SIGMA_MAX_ITER} "
        f"steps (last relative change {abs(sigma - prev) / sigma:.1e})")
