"""Graded-mesh two-point boundary value solver for the reduced radial
operators, decay-rate and expansion fitting, and discrete weighted norms.

The mesh is geometric toward x=0 so that both power-law behavior (1,
1/x, x^2, ...) and the super-polynomial decay of the circle and torus
modes are resolved on the same grid.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import islice
from typing import NamedTuple, Optional

from .config import DEFAULT, ConvergenceError, Tolerances
from .indicial import NotBTypeError, indicial_poly, indicial_roots, on_weight
from .operators import ModeReducedOp
from .ratfun import is_exact

__all__ = [
    "RadialGrid", "Dirichlet", "DecaySelect", "BVProblem", "SampledSolution",
    "ExpansionFit", "DiscreteNorm", "IndicialWeightError", "ConvergenceError",
    "solve_bvp", "fit_expansion", "fit_decay_rate", "discrete_a_norm",
    "weighted_sigma_min", "FIT_NODES",
]


#: innermost nodes carrying the decay-selection projection rows; the
#: expansion fit skips them
FIT_NODES = 20


class IndicialWeightError(ValueError):
    """The requested weight sits exactly on an indicial value, so the
    boundary-value problem degenerates."""


def spsolve(bands, ab, b):
    """LAPACK banded LU solve of the matrix with (lower, upper) ``bands``
    held in LAPACK band storage ``ab`` (``gtsv`` for (1, 1), ``gbsv``
    otherwise); scipy loads on first use, not on import.  A singular
    matrix raises ``numpy.linalg.LinAlgError``."""
    from scipy.linalg import solve_banded
    return solve_banded(bands, ab, b, overwrite_ab=True, overwrite_b=True,
                        check_finite=False)


def svdvals(a):
    import numpy as np
    return np.linalg.svd(a, compute_uv=False)


class RadialGrid:
    """Geometrically graded nodes x_0 < ... < x_N in (0, 1/2], the radial
    extent of the x-chart.  The node array is read-only, so the stencil
    cached from it stays valid."""

    def __init__(self, n: int = 2000, x_min: float = 1e-3):
        import numpy as np
        if not (0 < x_min < 0.5):
            raise ValueError("need 0 < x_min < 0.5")
        if n < 8:
            raise ValueError("grid too coarse")
        self.n = int(n)
        ratio = (x_min / 0.5) ** (1.0 / n)
        i = np.arange(n + 1)
        nodes = 0.5 * ratio ** (n - i)
        if not (nodes[0] > 0 and np.all(np.diff(nodes) > 0)):
            raise ValueError(f"RadialGrid(n={n}, x_min={x_min!r}): the nodes "
                             f"are not positive and strictly increasing")
        nodes.flags.writeable = False
        self._nodes = nodes

    @property
    def nodes(self):
        return self._nodes

    @cached_property
    def stencil(self):
        """Nonuniform three-point weights at the interior nodes
        nodes[1:-1]: (d1, d2), each of shape (3, n - 1), weigh the left,
        centre and right neighbour in the second-order first and second
        derivative.  Computed once per grid."""
        import numpy as np
        h = np.diff(self._nodes)
        hl, hr = h[:-1], h[1:]
        d1 = np.array([-hr / (hl * (hl + hr)), (hr - hl) / (hl * hr),
                       hl / (hr * (hl + hr))])
        d2 = np.array([2 / (hl * (hl + hr)), -2 / (hl * hr),
                       2 / (hr * (hl + hr))])
        d1.flags.writeable = d2.flags.writeable = False
        return d1, d2

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
    ``weight + 1``; realized by projection rows on the ``FIT_NODES``
    innermost nodes.
    """
    weight: float


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
    import numpy as np
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        vals = np.broadcast_to(coeff.lambdify([var])(xs), xs.shape)
    if not np.all(np.isfinite(vals)):
        raise ZeroDivisionError(
            f"coefficient {coeff!r} is not finite on the grid")
    return vals


def _interior_weights(op: ModeReducedOp, grid: RadialGrid):
    """Three-point weights of a scalar second-order operator at the
    interior nodes, shape (3, grid.n - 1) as in ``RadialGrid.stencil``."""
    c2, c1, c0 = (_sample(op.coefficient(0, 0, o), grid.nodes[1:-1], op.var)
                  for o in (2, 1, 0))
    d1, d2 = grid.stencil
    weights = c2 * d2 + c1 * d1
    weights[1] += c0
    return weights


def _mode_exponents(op: ModeReducedOp):
    """(root value, nullvector basis) pairs for decay selection."""
    M = indicial_poly(op)
    out = []
    for r in indicial_roots(M):
        if not is_exact(r.root):
            raise ValueError("decay selection needs real rational "
                             "indicial roots")
        for v in r.nullvectors:
            out.append((r.root, v))
    return out


def _killed(basis, cutoff):
    """Indices of the local directions strictly below the cutoff and not
    on it: the ones decay selection projects out."""
    return [i for i, (gamma, _v) in enumerate(basis)
            if gamma < cutoff and not on_weight(gamma, cutoff)]


def _decay_projection(basis, xs, shift=0.0):
    """Pseudo-inverse of the column-normalised local basis
    x^(gamma - shift) v on the nodes xs; row j projects onto direction j.
    Column j stacks the components of direction j, row comp * len(xs) + i.
    """
    import numpy as np
    C = np.column_stack([np.outer([float(c) for c in v],
                                  xs ** (float(gamma) - shift)).ravel()
                         for gamma, v in basis])
    return np.linalg.pinv(C / np.linalg.norm(C, axis=0))


def _decay_rows(op, grid, bc: DecaySelect, n_conditions):
    """Projection rows killing the local directions below the cutoff (a
    direction on it raises ``IndicialWeightError``); falls back to a zero
    Dirichlet condition for irregular (non-b-type) operators whose
    decaying solution is below resolution.
    """
    import numpy as np
    size = op.size
    npts = grid.n + 1
    try:
        basis = _mode_exponents(op)
    except NotBTypeError:
        rows = [({comp * npts: 1.0}, 0.0) for comp in range(size)]
        if len(rows) != n_conditions:
            raise ValueError(
                f"irregular operator: inner Dirichlet supplies {len(rows)} "
                f"conditions but {n_conditions} are required")
        return rows
    cutoff = bc.weight + 1
    for gamma, _v in basis:
        if on_weight(gamma, cutoff):
            raise IndicialWeightError(
                f"decay cutoff selects the indicial weight {gamma - 1} "
                f"(root {gamma}) exactly")
    killed = _killed(basis, cutoff)
    if len(basis) != size * max(op.order(), 1):
        raise ValueError("local solution basis is incomplete "
                         "(logarithmic directions are unsupported)")
    if len(killed) != n_conditions:
        raise ValueError(
            f"decay selection kills {len(killed)} directions but the "
            f"problem needs {n_conditions} inner conditions")
    xs = grid.nodes[:FIT_NODES]
    P = _decay_projection(basis, xs)
    cols = (np.arange(size)[:, None] * npts + np.arange(len(xs))).ravel()
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
    import numpy as np
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


def _blocks(size, cells, brows, npts):
    """Components of each independent block of the discrete system: the
    operator's coupling pattern joined with the components that each
    boundary row touches."""
    root = list(range(size))

    def find(c):
        while root[c] != c:
            c = root[c]
        return c
    links = list(cells)
    for coeffs, _ in brows:
        first = min(coeffs) // npts
        links += [(first, col // npts) for col in coeffs]
    for i, j in links:
        root[find(i)] = find(j)
    groups = {}
    for c in range(size):
        groups.setdefault(find(c), []).append(c)
    return list(groups.values())


def _solve_block(comps, cells, rhs, brows, npts):
    """Values (len(comps), npts) of one block by one banded LU solve and
    superposition.

    Unknowns are numbered node-major from the outer end inward, so the
    elimination runs from the outer boundary toward x = 0 and the
    solution keeps its relative accuracy where it is small.  Each
    single-entry (Dirichlet) row pins its unknown.  Each of the g other
    (decay) rows frees one of the g innermost unknowns not pinned, and a
    pin row fixes that unknown too.  The outer pins go first, then the
    interior rows, then the inner pins, so each interior row sits at a
    fixed offset from its stencil.  One ``spsolve`` takes g + 1
    right-hand sides: the data with every freed unknown at 0, and each
    freed unknown at 1 with no data; the decay rows then choose the
    combination by one g x g solve.  A pin coefficient of 2^(e + 1),
    where 2^e bounds every band entry, makes each pin row LAPACK's pivot,
    so Dirichlet values come back exactly.
    """
    import numpy as np
    bs = len(comps)
    loc = {c: k for k, c in enumerate(comps)}
    n_int = bs * rhs.shape[1]
    n_unknowns = bs * npts
    pins, general = [], []                    # pins: (unknown, column, value)
    for coeffs, rhs_value in brows:
        if min(coeffs) // npts not in loc:
            continue
        local = np.array([(npts - 1 - col % npts) * bs + loc[col // npts]
                          for col in coeffs])
        vals = np.fromiter(coeffs.values(), float, len(coeffs))
        if len(local) == 1:
            pins.append((local[0], 0, rhs_value / vals[0]))
        else:
            general.append((local, vals, rhs_value))
    if n_int + len(pins) + len(general) != n_unknowns:
        raise IndicialWeightError(
            f"singular discrete system: block {comps} has "
            f"{n_int + len(pins) + len(general)} equations for "
            f"{n_unknowns} unknowns")
    pinned = {u for u, _, _ in pins}
    free = list(islice((u for u in range(n_unknowns - 1, -1, -1)
                        if u not in pinned), len(general)))
    pins = sorted(pins + [(u, 1 + k, 1.0) for k, u in enumerate(free)],
                  key=lambda pin: (pin[0] >= bs, pin[0]))
    p_out = sum(u < bs for u, _, _ in pins)
    rows = [*range(p_out), *range(p_out + n_int, n_unknowns)]
    # the interior row of component i on the k-th stencil from the outer
    # end is row p_out + k * bs + loc[i]; its weight on component j at the
    # t-th stencil node from the outer end is in column (k + t) * bs + loc[j]
    fills = [(t * bs + loc[j], t * bs + loc[j] - loc[i] - p_out, w[::-1])
             for (i, j), weights in cells.items() if i in loc
             for t, w in enumerate(weights[::-1])]
    offsets = [off for _, off, _ in fills] \
        + [u - r for r, (u, _, _) in zip(rows, pins)]
    lower, upper = max(0, -min(offsets)), max(0, max(offsets))
    ab = np.zeros((lower + upper + 1, n_unknowns))
    for first, off, w in fills:
        ab[upper - off, first:first + n_int:bs] = w
    pin = np.ldexp(1.0, np.frexp(np.max(np.abs(ab)))[1] + 1)
    b = np.zeros((n_unknowns, 1 + len(general)))
    b[p_out:p_out + n_int, 0] = rhs[comps, ::-1].T.ravel()
    for r, (u, col, value) in zip(rows, pins):
        ab[upper + r - u, u] = pin
        b[r, col] = value * pin
    try:
        x = spsolve((lower, upper), ab, b)
        sol = x[:, 0]
        if general:
            sol = sol + x[:, 1:] @ np.linalg.solve(
                [vals @ x[local, 1:] for local, vals, _ in general],
                [rhs_value - vals @ x[local, 0]
                 for local, vals, rhs_value in general])
    except np.linalg.LinAlgError as exc:
        raise IndicialWeightError(
            "singular discrete system (weight at an indicial value)") from exc
    return sol.reshape(npts, bs)[::-1].T


def _residual(cells, rhs, brows, u):
    """Largest relative residual |A u - b| / (|A| |u| + |b|) over the
    interior equations and the boundary rows, from the assembled
    entries."""
    import numpy as np
    n_stencils = rhs.shape[1]
    au = np.zeros_like(rhs)
    scale = np.abs(rhs)
    for (i, j), weights in cells.items():
        for s, ws in enumerate(weights):
            term = ws * u[j, s:s + n_stencils]
            au[i] += term
            scale[i] += np.abs(term)
    resid, scale = [np.abs(au - rhs).ravel()], [scale.ravel()]
    flat = u.ravel()
    for coeffs, rhs_value in brows:
        term = np.fromiter(coeffs.values(), float, len(coeffs)) \
            * flat[list(coeffs)]
        resid.append([abs(term.sum() - rhs_value)])
        scale.append([np.abs(term).sum() + abs(rhs_value)])
    resid, scale = np.concatenate(resid), np.concatenate(scale)
    return float(np.max(resid / np.maximum(scale, 1e-300)))


def solve_bvp(problem: BVProblem,
              config: Tolerances = DEFAULT) -> SampledSolution:
    """Solve the two-point boundary value problem on the graded grid.

    Scalar second-order operators use three-point stencils at the nodes;
    first-order systems use the midpoint box scheme.  The discrete
    system splits into independent blocks, the components joined by the
    operator's coupling and by any boundary row that touches several of
    them.  Each block is solved by one LAPACK banded LU (``spsolve``) in
    which every Dirichlet row pins its unknown, so Dirichlet values come
    back exactly; its g decay-selection rows pick a combination of the
    g + 1 right-hand sides of that one solve (``_solve_block``).  The
    relative residual of the whole system, taken from its assembled
    entries, is checked against ``config.discrete_residual``.
    """
    import numpy as np
    op = problem.operator
    grid = problem.grid
    xs = grid.nodes
    npts = grid.n + 1
    size = op.size
    order = op.order()
    # cells[i, j][s, k]: weight of component j at node k + s in equation
    # k of component i; rhs[i, k] is its right-hand side
    if size == 1 and order == 2:
        cells = {(0, 0): _interior_weights(op, grid)}
        rhs = _rhs_values(problem, xs, 1)[:, 1:-1]
        n_outer = len(problem.outer.values) \
            if isinstance(problem.outer, Dirichlet) else 1
        n_inner = 2 - n_outer
    elif order == 1:
        mids = 0.5 * (xs[:-1] + xs[1:])
        h = np.diff(xs)
        cells = {}
        for i in range(size):
            for j in range(size):
                ca, cb = (op.coefficient(i, j, o) for o in (1, 0))
                if ca.is_zero() and cb.is_zero():
                    continue
                a, b = (_sample(c, mids, op.var) for c in (ca, cb))
                cells[i, j] = np.array([-a / h + 0.5 * b, a / h + 0.5 * b])
        rhs = _rhs_values(problem, mids, size)
        n_outer = len(problem.outer.values) \
            if isinstance(problem.outer, Dirichlet) else 0
        n_inner = size - n_outer
    else:
        raise ValueError(
            f"unsupported problem shape: size {size}, order {order}")
    brows = _bc_rows(problem, "inner", n_inner) \
        + _bc_rows(problem, "outer", n_outer)
    n_unknowns = size * npts
    if rhs.size + len(brows) != n_unknowns:
        raise ValueError(f"assembled {rhs.size + len(brows)} equations "
                         f"for {n_unknowns} unknowns")
    u = np.empty((size, npts))
    for comps in _blocks(size, cells, brows, npts):
        u[comps] = _solve_block(comps, cells, rhs, brows, npts)
    if not np.all(np.isfinite(u)):
        raise IndicialWeightError(
            "singular discrete system (weight at an indicial value)")
    rel = _residual(cells, rhs, brows, u)
    if rel > config.discrete_residual:
        raise ConvergenceError(
            f"discrete residual {rel:.3e} exceeds "
            f"{config.discrete_residual:.1e}")
    return SampledSolution(grid, u, op, rel)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def _tail_window(grid: RadialGrid):
    """Indices of the innermost decade, minus the ``FIT_NODES`` nodes of
    the decay-selection rows."""
    import numpy as np
    xs = grid.nodes
    idx = np.where(xs <= 10.0 * xs[0])[0]
    idx = idx[idx >= FIT_NODES]
    if len(idx) < 8:
        raise ValueError("fitting window too small on this grid")
    return idx


def fit_expansion(u: SampledSolution, roots, cutoff,
                  config: Tolerances = DEFAULT) -> ExpansionFit:
    """Least-squares power-law expansion of a sampled solution on the
    inner tail, over candidate exponents above ``cutoff + 1``."""
    import numpy as np
    bound = cutoff + 1
    gammas = [g for g in (r.root if hasattr(r, "root") else r for r in roots)
              if g > bound and not on_weight(g, bound)]
    if not gammas:
        raise ValueError("no candidate exponents above the cutoff")
    gammas = sorted(gammas, key=float)
    idx = _tail_window(u.grid)
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


def fit_decay_rate(u: SampledSolution, power: int,
                   config: Tolerances = DEFAULT) -> float:
    """Fit log|u_0| ~ a*x^power + b*log x + c on the amplitude window of
    the first component and return a — the leading decay coefficient
    (power -1 or -2).  A window with fewer than 10 grid nodes is a
    numerical failure of the fit and raises ``ConvergenceError``."""
    import numpy as np
    if power not in (-1, -2):
        raise ValueError("power must be -1 or -2")
    y = np.abs(u.values[0])
    xs = u.grid.nodes
    top = float(np.max(y))
    if top == 0.0:
        raise ValueError("cannot fit the decay rate of the zero solution")
    mask = (y > config.amplitude_lo * top) & (y < config.amplitude_hi * top)
    if np.count_nonzero(mask) < 10:
        raise ConvergenceError("amplitude window contains too few nodes")
    xw, yw = xs[mask], y[mask]
    design = np.column_stack([xw ** power, np.log(xw), np.ones_like(xw)])
    sol, *_ = np.linalg.lstsq(design, np.log(yw), rcond=None)
    return float(sol[0])


# ---------------------------------------------------------------------------
# discrete weighted norms
# ---------------------------------------------------------------------------

def discrete_a_norm(u: SampledSolution, weight: float, order: int = 0,
                    metric: str = "gh") -> DiscreteNorm:
    """Weighted Sobolev norm through the structure-field derivatives.

    Derivative words are built from the radial field x^3 d/dx and the
    fiber multipliers (mode frequency times x for the torus directions,
    the bare circle frequency); the square sums over all words of length
    at most ``order`` are integrated against x^(-2 weight) times the
    radial volume density (x^-3 or x^-5).
    """
    import numpy as np
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1, or 2")
    if metric not in ("gh", "a"):
        raise ValueError("metric must be 'gh' or 'a'")
    xs = u.grid.nodes
    k, (m1, m2) = u.operator.mode if u.operator is not None else (0, (0, 0))
    x3 = xs ** 3

    def actions(w):
        return [x3 * np.gradient(w, xs),
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
    from scipy.integrate import simpson
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
                       grid: RadialGrid) -> float:
    """Smallest singular value of the weighted, mass-normalized discrete
    operator with decay selection at the inner end and a Dirichlet row
    at the outer end.

    Local directions strictly below the weight are projected out; a
    direction sitting exactly at the weight (the indicial case) cannot
    be, and shows up as a slowly degenerating near-kernel.  Off the
    weight set the value stays bounded away from zero as the grid
    extends toward x=0.

    The operator B has at most two projection rows on the first
    ``FIT_NODES`` columns, then the three-point rows of the interior
    nodes and the outer Dirichlet row.  Its Gram matrix goes straight
    into LAPACK symmetric band storage: BᵀB, banded to the projection
    window, or the pentadiagonal BBᵀ when B is wide (no projection row;
    sigma_min(B) = sigma_min(Bᵀ)).  One ``cholesky_banded`` factors it
    and block inverse iteration runs on it, with the Ritz value taken
    from B itself, since the Gram matrix squares its condition number.
    A Gram matrix that is not numerically positive definite, or a run
    that does not settle, raises ``ConvergenceError``.
    """
    import numpy as np
    from scipy.linalg import cho_solve_banded, cholesky_banded
    if op.size != 1 or op.order() != 2:
        raise ValueError("implemented for scalar second-order operators")
    xs = grid.nodes
    n = grid.n
    mu = float(weight)
    basis = _mode_exponents(op)
    killed = _killed(basis, weight + 1)
    # trapezoid masses against the x^-3 radial density
    dx = np.gradient(xs)
    dx[[0, -1]] *= 0.5
    mass = xs ** -3 * dx
    # row t after the projection rows holds bands[s, t] in column t + s:
    # the equation at node t + 1 on the conjugated variable v = x^-mu u
    # in the mass-normalized coordinates, then the outer Dirichlet row
    i = np.arange(1, n)
    j = i + np.arange(-1, 2)[:, None]
    bands = np.zeros((3, n))
    bands[:, :-1] = _interior_weights(op, grid) * (xs[j] / xs[i]) ** mu \
        * np.sqrt(mass[i] / mass[j])
    bands[1, -1] = 1.0
    if killed:
        # inner projection rows, local exponents gamma - mu, expressed in
        # the mass-normalized coordinates and rescaled to unit row norm
        window = min(FIT_NODES, len(xs))
        P = _decay_projection(basis, xs[:window], mu)[killed] \
            / np.sqrt(mass[:window])
        P /= np.linalg.norm(P, axis=1)[:, None]
        # the spare last column takes the products of the third entry of
        # the Dirichlet row, which is zero
        gram = np.zeros((window, n + 2))
        for s in range(3):
            for d in range(3 - s):
                gram[d, s:s + n] += bands[s] * bands[s + d]
        gram = gram[:, :-1]
        r, c = np.tril_indices(window)
        gram[r - c, c] += (P.T @ P)[r, c]

        def apply(Q):                          # B Q
            BQ = bands[0, :, None] * Q[:-1] + bands[1, :, None] * Q[1:]
            BQ[:-1] += bands[2, :-1, None] * Q[2:]
            return np.vstack([P @ Q[:window], BQ])
    else:
        gram = np.zeros((3, n))
        for s in range(3):
            for d in range(s + 1):
                gram[d, :n - d] += bands[s, :n - d] * bands[s - d, d:]

        def apply(Q):                          # Bᵀ Q
            BtQ = np.zeros((n + 1, Q.shape[1]))
            for s in range(3):
                BtQ[s:s + n] += bands[s, :n + 1 - s, None] * Q[:n + 1 - s]
            return BtQ
    try:
        factor = (cholesky_banded(gram, lower=True, check_finite=False), True)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("sigma_min Gram matrix is not numerically "
                               "positive definite") from exc
    Q = np.random.default_rng(0).standard_normal((gram.shape[1], 3))
    sigma = math.nan
    for _ in range(_SIGMA_MAX_ITER):
        Q, _r = np.linalg.qr(cho_solve_banded(factor, Q, check_finite=False))
        sigma, prev = float(svdvals(apply(Q))[-1]), sigma
        if abs(sigma - prev) <= 1e-13 * sigma:
            return sigma
    raise ConvergenceError(
        f"sigma_min inverse iteration did not settle in {_SIGMA_MAX_ITER} "
        f"steps (last relative change {abs(sigma - prev) / sigma:.1e})")
