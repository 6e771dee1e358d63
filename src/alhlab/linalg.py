"""Exact linear algebra over any field: RatFun, Fraction or float.

Entries need only ``+ - * /`` and ``== 0``.  ``det`` and ``inverse`` are
cofactor expansions; ``solve`` and ``nullspace`` share one Gauss-Jordan
elimination, which pivots on the first entry that is not zero: exact
for RatFun and Fraction, but not numerically stable for floats.
"""

from __future__ import annotations


class SingularMatrixError(ValueError):
    """The matrix has no inverse, so the system has no unique solution."""


def det(m):
    """Determinant by cofactor expansion along the first row.

    Every matrix this package passes is at most 4x4; there the expansion,
    which skips zero entries of sparse metrics, is cheaper than
    elimination.
    """
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = None
    for c, a in enumerate(m[0]):
        if a == 0:
            continue
        term = a * det([row[:c] + row[c + 1:] for row in m[1:]])
        if c % 2:
            term = -term
        total = term if total is None else total + term
    return m[0][0] if total is None else total


def _gauss_jordan(m, ncols):
    """Bring the rows of ``m`` to reduced row echelon form in their first
    ``ncols`` columns, in place; return the pivot columns."""
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        p = next((i for i in range(r, len(m)) if not m[i][c] == 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for i, row in enumerate(m):
            f = row[c]
            if i != r and not f == 0:
                m[i] = [a if b == 0 else a - f * b
                        for a, b in zip(row, m[r])]
        pivots.append(c)
    return pivots


def solve(a, b):
    """The vector x with a x = b, for square ``a``."""
    n = len(a)
    m = [list(row) + [bi] for row, bi in zip(a, b)]
    if len(_gauss_jordan(m, n)) < n:
        raise SingularMatrixError("singular matrix")
    return [row[n] for row in m]


def inverse(a):
    """Inverse of a square matrix: its adjugate over its determinant.

    On the model metrics every cofactor and the determinant keep
    monomial denominators, so unlike elimination this never cancels a
    common non-monomial factor, which would take ``ratfun`` off its
    monomial gcd path; it takes about as long.
    """
    d = det(a)
    if d == 0:
        raise SingularMatrixError("singular matrix")
    n = len(a)
    if n == 1:
        return [[d ** -1]]
    inv = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            c = det([row[:i] + row[i + 1:]
                     for k, row in enumerate(a) if k != j]) / d
            inv[i][j] = -c if (i + j) % 2 else c
    return inv


def nullspace(a):
    """Basis of the kernel of ``a``: one vector per non-pivot column of
    its reduced row echelon form, with a 1 in that column."""
    m = [list(row) for row in a]
    cols = len(m[0]) if m else 0
    pivots = _gauss_jordan(m, cols)
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        one = m[0][fc] ** 0
        v = [one - one] * cols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(tuple(v))
    return basis
