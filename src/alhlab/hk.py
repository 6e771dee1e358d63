"""Triples of 2-forms and the boundary-data manifold.

This module carries the algebra of 2-form triples (the quadratic wedge
defect ``q_map`` and the gauged residual), the constraint manifold of
boundary data points (A, B, lambda) with its tangent spaces, the exact
constraint check of the closed-form deformation families (the closed
forms of ``families``, run on a RatFun t with their square root
adjoined), the exact pullback expansion of twisted coframe families in
the standard self-dual/anti-self-dual basis, and rotation of raw
deformation matrices into the symmetric gauge.  The families, their jets
and ``second_derivative_report`` live in ``families`` and are
re-exported here.

Every boundary-data computation runs on exact numbers, and a result is
rounded only where it leaves the module: ``pullback_pm``,
``semiflat_matrices`` and ``symmetrize`` return 3x3 matrices as nested
lists of floats (rows of columns); ``PPoint``, ``constraint_F`` and
``tangent_space`` work on nested lists of Fractions.
``family_semiflat`` returns the semiflat matrices as numpy arrays; numpy
is imported only there.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from . import families
from .config import ConvergenceError, ExactIdentityError
from .families import (DeformationFamily, Jet2, _floats, _matmul, _max_diff,
                       _NULL, family_calabi_modulus, family_calabi_scaling,
                       second_derivative_report)
from .forms import FormField, PMBasis, sd_asd_split, sd_asd_triples, wedge
from .geometry import MetricField, r_chart, volume_density
from .linalg import det, nullspace, solve
from .ratfun import Poly, RatFun, _as_ratfun

__all__ = [
    "Triple", "PPoint", "TangentVector", "DeformationFamily", "Jet2",
    "SEMIFLAT_KINDS", "q_map", "gauge_residual", "constraint_F",
    "tangent_space", "family_calabi_scaling", "family_calabi_modulus",
    "calabi_scaling_constraint_exact", "calabi_modulus_constraint_exact",
    "family_semiflat", "semiflat_matrices", "pullback_pm", "symmetrize",
    "second_derivative_report",
]

_TOP = (0, 1, 2, 3)
_ZERO = RatFun.const(0)


# ---------------------------------------------------------------------------
# triples of 2-forms
# ---------------------------------------------------------------------------

class Triple:
    """Ordered triple of degree-2 forms on a shared chart; iterating over
    it yields the three forms."""

    __slots__ = ("forms",)

    def __init__(self, forms):
        forms = tuple(forms)
        if len(forms) != 3:
            raise ValueError("a triple holds exactly three 2-forms")
        chart = forms[0].chart
        for w in forms:
            if w.degree != 2:
                raise ValueError("triple entries must be 2-forms")
            if w.chart != chart:
                raise ValueError("triple entries live on different charts")
        self.forms = forms

    def __iter__(self):
        return iter(self.forms)

    @classmethod
    def standard(cls) -> "Triple":
        """The self-dual basis triple on the cylindrical-model chart."""
        return cls(PMBasis().plus)


def q_map(triple, reference_volume: FormField):
    """Trace-free symmetric matrix of wedge ratios measuring failure of
    the unit-Gram condition: entry (i, j) is w_i ^ w_j over the reference
    volume, minus one third of the diagonal sum on the diagonal."""
    forms = tuple(triple)
    if reference_volume.degree != 4:
        raise ValueError("reference volume must have degree 4")
    vol = reference_volume.get(_TOP)
    if vol.is_zero():
        raise ValueError("reference volume vanishes")
    wed = [[wedge(forms[i], forms[j]).get(_TOP) / vol for j in range(3)]
           for i in range(3)]
    third = (wed[0][0] + wed[1][1] + wed[2][2]) * RatFun.const(Fraction(1, 3))
    return [[wed[i][j] - third if i == j else wed[i][j] for j in range(3)]
            for i in range(3)]


def gauge_residual(eta, omega, g: MetricField):
    """Matrix of the gauged deformation equation: twice the self-dual
    part of eta_i wedged against omega_j, plus the quadratic defect of
    eta, all as ratios against the metric volume."""
    eta_forms, omega_forms = tuple(eta), tuple(omega)
    dens = volume_density(g)
    vol_form = FormField(omega_forms[0].chart, 4, {_TOP: dens})
    q = q_map(eta_forms, vol_form)
    two = RatFun.const(2)
    out = []
    for i in range(3):
        plus_i, _ = sd_asd_split(eta_forms[i], g)
        row = []
        for j in range(3):
            top = wedge(plus_i, omega_forms[j]).get(_TOP)
            row.append(two * top / dens + q[i][j])
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# the boundary-data manifold
# ---------------------------------------------------------------------------

_SYM_SLOTS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_B_SLOTS = ((1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2))


def constraint_F(A, B, lam):
    """Residual A A^T - B B^T - lambda I of the boundary-data constraint,
    as a nested list in the number type of the entries: the six entries
    with j >= i, mirrored."""
    F = [[None] * 3 for _ in range(3)]
    for i, j in _SYM_SLOTS:
        F[i][j] = F[j][i] = (sum(A[i][k] * A[j][k] - B[i][k] * B[j][k]
                                 for k in range(3))
                             - (lam if i == j else 0))
    return F


class PPoint:
    """A boundary-data point (A, B, lambda) of Fractions on the gauge-fixed
    constraint manifold: A symmetric with trace 3, B with vanishing first
    row, lambda positive, and A A^T - B B^T = lambda I, each checked to
    1e-10 (the residual relative to max(1, max |A|^2)).  Float entries
    convert exactly through ``Fraction(float)``."""

    __slots__ = ("A", "B", "lam")

    def __init__(self, A, B, lam):
        tol = 1e-10
        A = [[Fraction(v) for v in row] for row in A]
        B = [[Fraction(v) for v in row] for row in B]
        lam = Fraction(lam)
        if _max_diff(A, list(zip(*A))) > tol:
            raise ValueError("A must be symmetric")
        if max(map(abs, B[0])) > tol:
            raise ValueError("the first row of B must vanish")
        if lam <= 0:
            raise ValueError("lambda must be positive")
        res = _max_diff(constraint_F(A, B, lam), _NULL)
        if res > tol * max(1, _max_diff(A, _NULL) ** 2):
            raise ValueError(f"constraint residual {float(res):.3e} "
                             "exceeds the on-manifold tolerance")
        if abs(A[0][0] + A[1][1] + A[2][2] - 3) > tol:
            raise ValueError("trace of A must equal 3 for gauge-fixed points")
        self.A, self.B, self.lam = A, B, lam


class TangentVector(NamedTuple):
    A_dot: list
    B_dot: list
    lam_dot: Fraction


def _tangent_vector(v):
    """The 13-vector v (the ``_SYM_SLOTS`` of A-dot, the ``_B_SLOTS`` of
    B-dot, then lambda-dot) as a ``TangentVector`` of nested lists."""
    A = [[Fraction(0)] * 3 for _ in range(3)]
    B = [[Fraction(0)] * 3 for _ in range(3)]
    for (i, j), x in zip(_SYM_SLOTS, v):
        A[i][j] = A[j][i] = x
    for (i, j), x in zip(_B_SLOTS, v[6:]):
        B[i][j] = x
    return TangentVector(A, B, v[12])


def _constraint_at(p: PPoint, e: TangentVector, sign):
    """``constraint_F`` at the point p + sign e."""
    def moved(m, dm):
        return [[x + sign * dx for x, dx in zip(row, drow)]
                for row, drow in zip(m, dm)]
    return constraint_F(moved(p.A, e.A_dot), moved(p.B, e.B_dot),
                        p.lam + sign * e.lam_dot)


def tangent_space(p: PPoint):
    """Exact nullspace basis, from ``linalg.nullspace``, of the linearized
    constraint plus gauge conditions (A-dot symmetric with zero trace,
    B-dot with zero first row) at the point p, as ``TangentVector``s of
    Fractions.  F is quadratic, so its linearization along a unit vector
    e is (F(p + e) - F(p - e))/2 exactly, and the rank is exact."""
    columns = []
    for k in range(13):
        e = _tangent_vector([Fraction(int(m == k)) for m in range(13)])
        hi, lo = _constraint_at(p, e, 1), _constraint_at(p, e, -1)
        columns.append([(hi[i][j] - lo[i][j]) / 2 for i, j in _SYM_SLOTS])
    constraint = [list(row) for row in zip(*columns)]
    if len(nullspace(constraint)) > 7:
        raise ValueError("not a manifold point here: the linearized "
                         "constraint is rank-deficient")
    gauge = [Fraction(int(i == j)) for i, j in _SYM_SLOTS] + [Fraction(0)] * 7
    return [_tangent_vector(v) for v in nullspace(constraint + [gauge])]


# ---------------------------------------------------------------------------
# exact constraint verification with the square root adjoined
# ---------------------------------------------------------------------------

def _root_parts(p: Poly, W: RatFun):
    """(even, odd) with p = even + c*odd once c^2 = W is substituted."""
    parts = [RatFun.const(0), RatFun.const(0)]
    for k, coeff in p.coefficients_in("c").items():
        parts[k % 2] = parts[k % 2] + RatFun(coeff) * W ** (k // 2)
    return parts


def _holds_exactly(A, B, lam, W) -> bool:
    """Whether A A^T - B B^T = lambda I and tr A = 3 hold identically in
    t when the symbol c in the entries is a square root of W: each
    residual's numerator vanishes in both c-parity parts, and its
    denominator's norm even^2 - W odd^2 does not."""
    F = constraint_F(A, B, lam)
    residuals = [F[i][j] for i, j in _SYM_SLOTS]
    residuals.append(A[0][0] + A[1][1] + A[2][2] - 3)
    for res in map(_as_ratfun, residuals):
        if any(not part.is_zero() for part in _root_parts(res.num, W)):
            return False
        even, odd = _root_parts(res.den, W)
        if (even * even - W * odd * odd).is_zero():
            return False
    return True


def calabi_scaling_constraint_exact() -> bool:
    """Whether the rescaling family satisfies its quadratic constraint and
    trace normalization identically in the curve parameter: the closed
    form ``family_calabi_scaling`` evaluates, run on t itself with its
    square root adjoined as an exact symbol."""
    t = RatFun.var("t")
    return _holds_exactly(*families._calabi_scaling(1, t),
                          families._scaling_radicand(t))


def calabi_modulus_constraint_exact(alpha=Fraction(3, 5),
                                    beta=Fraction(4, 5)) -> bool:
    """Whether the modulus family satisfies its quadratic constraint and
    trace normalization identically in the curve parameter for exact
    rational parameter values, through the closed form
    ``family_calabi_modulus`` evaluates."""
    al, be = Fraction(alpha), Fraction(beta)
    t = RatFun.var("t")
    return _holds_exactly(*families._calabi_modulus(al, be, t),
                          families._modulus_radicand(al, be, t)[1])


# ---------------------------------------------------------------------------
# twisted-coframe families and the exact pullback expansion
# ---------------------------------------------------------------------------

SEMIFLAT_KINDS = ("theta_twist", "y1_twist", "y2_twist")


def _deformed_triple(kind: str, c: Fraction):
    """The self-dual triple of ``sd_asd_triples`` for the twisted coframe
    of one of the three coordinate deformations."""
    ch = r_chart()
    r = RatFun.var("r")
    y1 = RatFun.var("y1")
    cc = RatFun.const(Fraction(c))
    dr, dy1, dy2, dtheta = (FormField.coordinate_differential(ch, v)
                            for v in ch.variables)
    theta = dtheta + dy2.scale(y1)
    if kind == "theta_twist":
        e1, e2 = dy1, dy2
        th = theta + dr.scale(RatFun.const(2) * cc * r)
    elif kind == "y1_twist":
        e1 = dy1 + dr.scale(cc)
        e2 = dy2
        th = theta + dy2.scale(cc * r)
    elif kind == "y2_twist":
        e1 = dy1
        e2 = dy2 + dr.scale(cc)
        th = theta - dy1.scale(cc * r)
    else:
        raise ValueError(f"unknown coordinate deformation {kind!r}")
    return sd_asd_triples(dr, e1, e2, th)[0]


@cache
def _pm_inverse():
    """The inverse of the 6x6 matrix whose columns are the coefficient
    vectors of the six ``PMBasis`` forms (plus, then minus), as a tuple
    of rows: one shared object per process, which callers must not
    change.  Its columns come from one elimination against the columns
    of the identity, 162 RatFun operations, where the 6x6 adjugate over
    the cofactor determinant took 1,653."""
    vectors = [PMBasis.coefficient_vector(w) for w in PMBasis().all_six()]
    unit = [[RatFun.const(int(i == k)) for i in range(6)] for k in range(6)]
    return tuple(zip(*solve([[v[i] for v in vectors] for i in range(6)],
                            unit)))


def pullback_pm(deformation, point=None):
    """Expand the deformed standard triple of a coordinate deformation in
    the undeformed self-dual/anti-self-dual basis.  The expansion is done
    with exact coefficients, by the basis inverse ``_pm_inverse()``, one
    shared object per process that callers must not change; position
    dependence is an error, so ``point`` cannot change the result.
    Returns the two 3x3 coefficient blocks (self-dual part,
    anti-self-dual part), new nested lists of floats on every call."""
    kind, c = deformation
    inv = _pm_inverse()
    out = []
    for w in _deformed_triple(kind, Fraction(c)):
        vec = PMBasis.coefficient_vector(w)
        entries = []
        for row in inv:
            rf = sum((a * b for a, b in zip(row, vec)
                      if not (a.is_zero() or b.is_zero())), _ZERO)
            if rf.variables():
                raise ValueError("position-dependent expansion of the "
                                 "deformed triple")
            entries.append(float(rf.evaluate(point or {})))
        out.append(entries)
    return [row[:3] for row in out], [row[3:] for row in out]


_SEMIFLAT_PRINTED = {
    "theta_twist": lambda c: (
        [[1.0, 0.0, 0.0], [0.0, 1.0, -c], [0.0, c, 1.0]],
        [[0.0, 0.0, 0.0], [0.0, 0.0, c], [0.0, -c, 0.0]]),
    "y1_twist": lambda c: (
        [[1.0, -c, 0.0], [c, 1.0 - c * c / 2, 0.0], [0.0, 0.0, 1.0]],
        [[0.0, c, 0.0], [0.0, c * c / 2, 0.0], [0.0, 0.0, 0.0]]),
    "y2_twist": lambda c: (
        [[1.0, 0.0, -c], [0.0, 1.0, 0.0], [c, 0.0, 1.0 - c * c / 2]],
        [[0.0, 0.0, c], [0.0, 0.0, 0.0], [0.0, 0.0, c * c / 2]]),
}


def semiflat_matrices(which: str, c):
    """Raw (A, B) expansion matrices of one coordinate deformation of the
    cylindrical model, as nested lists of floats, cross-checked against
    the exact pullback expansion, which ``pullback_pm`` proves independent
    of position."""
    if which not in SEMIFLAT_KINDS:
        raise ValueError(f"unknown coordinate deformation {which!r}")
    A, Bm = _SEMIFLAT_PRINTED[which](float(c))
    pa, pb = pullback_pm((which, Fraction(c)))
    if _max_diff(pa, A) > 1e-12 or _max_diff(pb, Bm) > 1e-12:
        raise ExactIdentityError("stored matrices disagree with the "
                                 "exact pullback expansion")
    return A, Bm


def family_semiflat(which: str, c):
    """``semiflat_matrices`` as two float arrays, for array arithmetic."""
    import numpy as np
    return tuple(np.array(m) for m in semiflat_matrices(which, c))


# ---------------------------------------------------------------------------
# rotation to the symmetric gauge
# ---------------------------------------------------------------------------

#: Newton steps after which the polar iteration counts as unsettled; the
#: scaled iteration took at most 6 in a seeded scan of condition numbers
#: of A from 1 to 1e16
_POLAR_STEPS = 30
#: Frobenius norm of a step that ends the iteration: it converges
#: quadratically, so the iterate after that step is off by about its
#: square, below the rounding of the entries
_POLAR_SETTLED = 1e-9


def _frobenius(m):
    return math.hypot(*(v for row in m for v in row))


def symmetrize(A, B):
    """Unique rotation U with U A symmetric positive definite; returns
    (U, U A, U B) as nested lists of floats, with U A symmetrized.

    U is the transpose of the orthogonal polar factor Q of A = Q H, by
    Newton's iteration X <- (g X + X^-T / g) / 2 from X = A (Higham,
    SIAM J. Sci. Stat. Comput. 7, 1986), with the scale
    g = (|X^-1| / |X|)^(1/2) in the Frobenius norm, which makes the step
    count nearly independent of the condition of A.  An iteration that
    has not settled after ``_POLAR_STEPS`` steps raises
    ``ConvergenceError``; a NaN or infinite entry of A raises
    ``ValueError`` or ``OverflowError``."""
    A, B = _floats(A), _floats(B)
    # the sign of det A, exact for the float entries: a float cofactor
    # expansion can get it wrong past a condition number of about 1e10
    if det([[Fraction(v) for v in row] for row in A]) <= 0:
        raise ValueError("det A must be positive")
    # U is the same for every positive multiple of A: start at unit norm,
    # after an exact power of two brings the largest entry into [1/2, 1),
    # so the norm cannot overflow
    e = math.frexp(max(abs(v) for row in A for v in row))[1]
    X = [[math.ldexp(v, -e) for v in row] for row in A]
    norm = _frobenius(X)
    X = [[v / norm for v in row] for row in X]
    for _ in range(_POLAR_STEPS):
        # and of X: an exact power of two brings |X| into [1, 2), so the
        # rounded inverse neither overflows nor loses bits to underflow
        e = math.frexp(_frobenius(X))[1] - 1
        X = [[math.ldexp(v, -e) for v in row] for row in X]
        # X^-T exact for the float entries of X, then rounded once
        Yt = [[float(v) for v in col] for col in solve(
            [[Fraction(v) for v in row] for row in X],
            [[Fraction(int(i == k)) for i in range(3)] for k in range(3)])]
        g = math.sqrt(_frobenius(Yt) / _frobenius(X))
        nxt = [[(g * X[i][j] + Yt[i][j] / g) / 2 for j in range(3)]
               for i in range(3)]
        step = _frobenius([[a - b for a, b in zip(r, s)]
                           for r, s in zip(nxt, X)])
        X = nxt
        if step <= _POLAR_SETTLED:
            break
    else:
        raise ConvergenceError("the polar iteration did not settle in "
                               f"{_POLAR_STEPS} steps")
    U = [list(col) for col in zip(*X)]
    UA = _matmul(U, A)
    # halves first: the sum of two entries near the float maximum overflows
    return (U, [[UA[i][j] / 2 + UA[j][i] / 2 for j in range(3)]
                for i in range(3)], _matmul(U, B))

