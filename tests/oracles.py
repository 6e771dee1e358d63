"""Independent numerical oracles used by the test suite.

The geometric oracles work from *sampled float values only* (no
symbolic derivatives), so agreement with the exact pipeline is a genuine
cross-check.  ``sparse_bvp_reference`` checks the linear algebra of
``modes.solve_bvp`` instead: the same discrete equations, assembled as
one component-major sparse system and solved by one sparse direct solve.
``dense_christoffel`` and ``dense_riemann`` check the exact tensor loops
of ``geometry``: every derivative and every product, with no use of the
index symmetries and no skipping of zeros.
Index conventions match the library:
``Riem[l][i][j][k]`` = component of ``[nabla_i, nabla_j] d_k`` along
``d_l`` and ``Ric[j][k] = sum_i Riem[i][j][i][k]``.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def _metric_evaluator(metric):
    # each component is compiled to a float evaluator once, not per sample
    rows = [[e.lambdify(metric.chart.variables) for e in row]
            for row in metric.components]

    def gmat(coords):
        return np.array([[float(fn(*coords)) for fn in row] for row in rows],
                        dtype=float)
    return gmat


def _partial4(f, coords, i, h):
    """4th-order central difference of a matrix-valued function."""
    cp = list(coords)

    def at(delta):
        cp[i] = coords[i] + delta
        val = f(cp)
        cp[i] = coords[i]
        return val
    return (-at(2 * h) + 8 * at(h) - 8 * at(-h) + at(-2 * h)) / (12 * h)


def _christoffel_num(gmat, coords, h):
    g = gmat(coords)
    ginv = np.linalg.inv(g)
    dg = np.array([_partial4(gmat, coords, i, h) for i in range(4)])
    gamma = np.zeros((4, 4, 4))
    for l in range(4):
        for i in range(4):
            for j in range(4):
                s = 0.0
                for m in range(4):
                    s += ginv[l, m] * (dg[i][m, j] + dg[j][m, i] - dg[m][i, j])
                gamma[l, i, j] = 0.5 * s
    return gamma


def _ricci_num_step(gmat, coords, h):
    gamma = _christoffel_num(gmat, coords, h)

    def gamma_fn(c):
        return _christoffel_num(gmat, c, h)
    dgamma = np.array([_partial4(gamma_fn, coords, i, h) for i in range(4)])
    ric = np.zeros((4, 4))
    for j in range(4):
        for k in range(4):
            s = 0.0
            for i in range(4):
                # Riem[i][j][i][k] with Riem[l][a][b][c] the d_l-component
                # of [nabla_a, nabla_b] d_c
                s += dgamma[j][i, i, k] - dgamma[i][i, j, k]
                for m in range(4):
                    s += gamma[i, j, m] * gamma[m, i, k] \
                        - gamma[i, i, m] * gamma[m, j, k]
            ric[j, k] = s
    return ric


def fd_ricci(metric, point, h=None):
    """Finite-difference Ricci tensor with one Richardson step.

    ``point`` maps coordinate names to numbers; the angle coordinate is
    formal so its entry is arbitrary.  Step defaults to a small fraction
    of the radial value to stay inside the domain.
    """
    names = metric.chart.variables
    coords = [float(point.get(nm, 0.0)) for nm in names]
    if h is None:
        h = coords[0] / 80.0
    gmat = _metric_evaluator(metric)
    r1 = _ricci_num_step(gmat, coords, h)
    r2 = _ricci_num_step(gmat, coords, h / 2.0)
    return (16.0 * r2 - r1) / 15.0


def dense_christoffel(metric, ginv):
    """Exact Gamma^l_ij = 1/2 sum_m ginv[l][m] (d_i g_mj + d_j g_mi
    - d_m g_ij), with all 64 derivatives of the metric taken."""
    from alhlab.ratfun import RatFun
    chart, comps = metric.chart, metric.components
    dvars = chart.variables
    dg = [[[chart.derive(comps[m][j], dvars[i]) for j in range(4)]
           for m in range(4)] for i in range(4)]
    half = RatFun.const(Fraction(1, 2))
    gamma = [[[None] * 4 for _ in range(4)] for _ in range(4)]
    for l in range(4):
        for i in range(4):
            for j in range(4):
                s = RatFun.const(0)
                for m in range(4):
                    s = s + ginv[l][m] * (dg[i][m][j] + dg[j][m][i]
                                          - dg[m][i][j])
                gamma[l][i][j] = half * s
    return gamma


def dense_riemann(metric, gamma):
    """Exact Riem[l][i][j][k] = d_i Gamma^l_jk - d_j Gamma^l_ik
    + sum_m (Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik), with all 256
    derivatives and all 2048 products formed."""
    chart = metric.chart
    dvars = chart.variables
    dgamma = [[[[chart.derive(gamma[l][j][k], dvars[i]) for k in range(4)]
                for j in range(4)] for l in range(4)] for i in range(4)]
    riem = [[[[None] * 4 for _ in range(4)] for _ in range(4)]
            for _ in range(4)]
    for l in range(4):
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    s = dgamma[i][l][j][k] - dgamma[j][l][i][k]
                    for m in range(4):
                        s = s + gamma[l][i][m] * gamma[m][j][k] \
                              - gamma[l][j][m] * gamma[m][i][k]
                    riem[l][i][j][k] = s
    return riem


def _fd_partial_scalar(func, coords, axis_orders, h):
    """Nested 2nd-order central differences for a mixed partial of a
    scalar function of 4 variables."""
    for axis in range(4):
        if axis_orders[axis] > 0:
            rest = list(axis_orders)
            rest[axis] -= 1

            def lower(c, _axis=axis, _rest=tuple(rest)):
                cp = list(c)
                cp[_axis] = c[_axis] + h
                up = _fd_partial_scalar(func, cp, _rest, h)
                cp[_axis] = c[_axis] - h
                dn = _fd_partial_scalar(func, cp, _rest, h)
                return (up - dn) / (2 * h)
            return lower(coords)
    return func(coords)


def fd_apply_diffop(terms, func, coords, h=1e-3):
    """Numerically apply a constant-coefficient snapshot of a differential
    operator to ``func`` at ``coords`` with one Richardson step.

    ``terms`` maps 4-index multi-indices (orders in each coordinate) to the
    float value of the corresponding coefficient at ``coords``.
    """
    def once(step):
        total = 0.0
        for alpha, cval in terms.items():
            total += cval * _fd_partial_scalar(func, list(coords),
                                               list(alpha), step)
        return total
    a1 = once(h)
    a2 = once(h / 2.0)
    return (4.0 * a2 - a1) / 3.0


def sparse_bvp_reference(problem):
    """Values (size, n + 1) of a ``modes.BVProblem`` from one sparse
    direct solve of its whole discrete system: unknown comp * (n + 1) +
    node, boundary rows as they are (no elimination), SuperLU."""
    from scipy import sparse
    from scipy.sparse.linalg import spsolve

    from alhlab import modes
    op, grid = problem.operator, problem.grid
    xs, npts, size = grid.nodes, grid.n + 1, op.size
    n_outer = len(problem.outer.values) \
        if isinstance(problem.outer, modes.Dirichlet) else 0
    if op.order() == 2:
        weights = modes._interior_weights(op, grid)
        rhs = modes._rhs_values(problem, xs, 1)[0, 1:-1]
        i = np.arange(1, grid.n)
        rows, cols = np.tile(i - 1, 3), np.concatenate([i - 1, i, i + 1])
        vals = weights.ravel()
        n_inner = 2 - n_outer
    else:
        mids, h = 0.5 * (xs[:-1] + xs[1:]), np.diff(xs)
        cells = np.arange(grid.n)
        rows, cols, vals = [], [], []
        for i in range(size):
            for j in range(size):
                ca, cb = (op.coefficient(i, j, o) for o in (1, 0))
                if ca.is_zero() and cb.is_zero():
                    continue
                a, b = (modes._sample(c, mids, op.var) for c in (ca, cb))
                rows += [cells * size + i] * 2
                cols += [j * npts + cells, j * npts + cells + 1]
                vals += [-a / h + 0.5 * b, a / h + 0.5 * b]
        rows, cols, vals = map(np.concatenate, (rows, cols, vals))
        rhs = modes._rhs_values(problem, mids, size).T.ravel()
        n_inner = size - n_outer
    boundary = modes._bc_rows(problem, "inner", n_inner) \
        + modes._bc_rows(problem, "outer", n_outer)
    for k, (coeffs, _) in enumerate(boundary):
        rows = np.append(rows, [len(rhs) + k] * len(coeffs))
        cols = np.append(cols, list(coeffs))
        vals = np.append(vals, list(coeffs.values()))
    A = sparse.csc_matrix((vals, (rows, cols)), shape=(size * npts,) * 2)
    b = np.concatenate([rhs, [value for _, value in boundary]])
    return spsolve(A, b).reshape(size, npts)
