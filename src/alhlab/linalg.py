"""Exact linear algebra over any field: RatFun, Fraction or float.

Entries need only ``+ - * /`` and ``== 0`` (``is_positive_definite``
also ``> 0``).  ``det`` is a cofactor expansion; ``solve`` and
``nullspace`` share one Gauss-Jordan elimination, which pivots on the
first entry that is not zero: exact for RatFun and Fraction, but not
numerically stable for floats.  An inverse is ``solve`` against the
columns of the identity; a metric factors itself (``geometry``).
"""

from __future__ import annotations


class SingularMatrixError(ValueError):
    """The matrix has no inverse, so the system has no unique solution."""


def det(m):
    """Determinant by cofactor expansion along the first row.  It divides
    nothing, so it also serves ``Poly`` entries (the 8x8 indicial
    matrices of ``indicial``), and it skips zero entries, so it is cheap
    on sparse matrices such as those."""
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


def is_positive_definite(m) -> bool:
    """Sylvester's criterion for a symmetric ``m``: every leading
    principal minor is positive.  Exact for Fraction entries.  No package
    code calls it: it is the reference that the positivity checks of
    ``tests/test_geometry.py`` and ``tests/test_hk.py`` compare against."""
    return all(det([row[:k] for row in m[:k]]) > 0
               for k in range(1, len(m) + 1))


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
    """The vector x with a x = b, for square ``a``.  Given a list of
    right-hand sides instead, the list of their solutions, all from one
    elimination with the right-hand sides as extra columns."""
    n = len(a)
    several = isinstance(b[0], (list, tuple))
    rhs = b if several else [b]
    m = [list(row) + [bi[i] for bi in rhs] for i, row in enumerate(a)]
    if len(_gauss_jordan(m, n)) < n:
        raise SingularMatrixError("singular matrix")
    x = [[row[n + k] for row in m] for k in range(len(rhs))]
    return x if several else x[0]


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
