"""The exact linear-algebra kernel, cross-checked against sympy."""

import random
from fractions import Fraction

import pytest
import sympy

from alhlab.geometry import MetricField, metric_calabi, metric_gh, r_chart
from alhlab.linalg import SingularMatrixError, det, inverse, nullspace, solve
from alhlab.operators import VectorFieldExpr, frame_solve
from alhlab.ratfun import RatFun


def _entry(rng):
    # about a third of the entries are zero, as in the sparse metrics
    if rng.random() < 0.3:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 5))


def _matrix(rng, rows, cols, rank=None):
    if rank is None:
        return [[_entry(rng) for _ in range(cols)] for _ in range(rows)]
    left = _matrix(rng, rows, rank)
    right = _matrix(rng, rank, cols)
    return [[sum((left[i][k] * right[k][j] for k in range(rank)), Fraction(0))
             for j in range(cols)] for i in range(rows)]


def _to_sympy(m):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                          for v in row] for row in m])


def _from_sympy(v):
    return Fraction(int(v.p), int(v.q))


def _invertible(rng, n):
    while True:
        m = _matrix(rng, n, n)
        if _to_sympy(m).det() != 0:
            return m


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_det_matches_sympy(n):
    rng = random.Random(100 + n)
    for trial in range(20):
        rank = n - 1 if trial % 4 == 0 and n > 1 else None
        m = _matrix(rng, n, n, rank)
        assert det(m) == _from_sympy(_to_sympy(m).det())


def test_det_zero_first_row_and_floats():
    m = [[Fraction(0)] * 3, [Fraction(1), Fraction(2), Fraction(3)],
         [Fraction(4), Fraction(5), Fraction(7)]]
    assert det(m) == 0
    f = [[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]]
    assert det(f) == pytest.approx(18.0)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_solve_matches_sympy(n):
    rng = random.Random(200 + n)
    for _ in range(5):
        m = _invertible(rng, n)
        b = [_entry(rng) for _ in range(n)]
        expected = _to_sympy(m).LUsolve(_to_sympy([[v] for v in b]))
        assert solve(m, b) == [_from_sympy(v) for v in expected]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_inverse_matches_sympy(n):
    # the inverse is an adjugate of cofactor determinants, so sizes stop
    # at 5x5 as for det
    rng = random.Random(250 + n)
    for _ in range(5):
        m = _invertible(rng, n)
        inv = _to_sympy(m).inv()
        assert inverse(m) == [[_from_sympy(inv[i, j]) for j in range(n)]
                              for i in range(n)]


@pytest.mark.parametrize("rows,cols,rank", [(1, 3, 1), (3, 3, 2), (4, 6, 2),
                                            (5, 5, 0), (6, 4, 3), (8, 8, 5),
                                            (8, 8, 8)])
def test_nullspace_matches_sympy(rows, cols, rank):
    rng = random.Random(rows * 100 + cols * 10 + rank)
    for _ in range(4):
        m = _matrix(rng, rows, cols, rank)
        expected = [tuple(_from_sympy(v) for v in vec)
                    for vec in _to_sympy(m).nullspace()]
        got = nullspace(m)
        assert got == expected
        assert len(got) == cols - _to_sympy(m).rank()


@pytest.mark.parametrize("n", [2, 4, 8])
def test_singular_input_raises(n):
    rng = random.Random(300 + n)
    m = _matrix(rng, n, n, rank=n - 1)
    with pytest.raises(SingularMatrixError):
        inverse(m)
    with pytest.raises(SingularMatrixError):
        solve(m, [Fraction(1)] * n)


def test_callers_keep_their_exception_types():
    # the CLI maps ValueError to exit 1 and ArithmeticError to exit 3
    zero = RatFun.const(0)
    g = MetricField(r_chart(), [[zero] * 4 for _ in range(4)])
    with pytest.raises(ZeroDivisionError):
        g.inverse()
    flat = [VectorFieldExpr(r_chart(), [zero] * 4) for _ in range(4)]
    with pytest.raises(ValueError):
        frame_solve(flat, flat[0])


def _gh_affine():
    """Gibbons-Hawking metric V (dr^2 + dy1^2 + dy2^2) + V^-1 (dtheta + A)^2
    with V = 2 r + 5 and A = 2 y1 dy2."""
    k = RatFun.const
    V = k(2) * RatFun.var("r") + k(5)
    A = [k(0), k(0), k(2) * RatFun.var("y1"), k(1)]
    g = [[A[i] * A[j] / V + (V if i == j < 3 else k(0)) for j in range(4)]
         for i in range(4)]
    return MetricField(r_chart(), g)


@pytest.mark.parametrize("make", [metric_gh, lambda: metric_calabi(10),
                                  _gh_affine])
def test_metric_times_inverse_is_identity(make):
    g = make().components
    ginv = inverse(g)
    for i in range(4):
        for j in range(4):
            s = RatFun.const(0)
            for m in range(4):
                s = s + g[i][m] * ginv[m][j]
            assert s == RatFun.const(1 if i == j else 0)
