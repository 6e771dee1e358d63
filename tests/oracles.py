"""Independent numerical oracles used by the test suite.

Everything here works from *sampled float values only* (no symbolic
derivatives), so agreement with the exact pipeline is a genuine
cross-check.  Index conventions match the library:
``Riem[l][i][j][k]`` = component of ``[nabla_i, nabla_j] d_k`` along
``d_l`` and ``Ric[j][k] = sum_i Riem[i][j][i][k]``.
"""

from __future__ import annotations

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
