"""Triples of 2-forms and the boundary-data manifold.

This module carries the algebra of 2-form triples (the quadratic wedge
defect ``q_map`` and the gauged residual), the constraint manifold of
boundary data points (A, B, lambda) with its tangent spaces, closed-form
deformation families of that data (each closed form written once over
the number type of t: Fractions to evaluate, jets over them for the
second-derivative report, and a RatFun t for the exact constraint
check), the exact pullback expansion of twisted coframe families in the
standard self-dual/anti-self-dual basis, and rotation of raw deformation
matrices into the symmetric gauge.

Every closed form and every boundary-data computation runs on exact
numbers, and a result is rounded only where it leaves the module:
``DeformationFamily.evaluate``, ``second_derivative_report``,
``pullback_pm``, ``semiflat_matrices`` and ``symmetrize`` return 3x3
matrices as nested lists of floats (rows of columns); ``PPoint``,
``constraint_F`` and ``tangent_space`` work on nested lists of
Fractions.  ``family_semiflat`` returns the semiflat matrices as numpy
arrays; numpy is imported only there.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cache, lru_cache
from math import isqrt
from typing import NamedTuple

from .config import ConvergenceError, ExactIdentityError
from .forms import (FormField, PMBasis, ext_d, sd_asd_split, sd_asd_triples,
                    wedge)
from .geometry import MetricField, r_chart, volume_density
from .linalg import det, is_positive_definite, nullspace, solve
from .ratfun import Poly, RatFun, _as_ratfun, exact_div

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
_EYE = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_NULL = ((0, 0, 0),) * 3


def _floats(rows):
    """A matrix as a new nested list of floats."""
    return [[float(v) for v in row] for row in rows]


def _max_diff(a, b):
    """The largest entry of |a - b| for two matrices of equal shape."""
    return max(abs(x - y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _matmul(a, b):
    """The product of two nested-list matrices."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


# ---------------------------------------------------------------------------
# triples of 2-forms
# ---------------------------------------------------------------------------

class Triple:
    """Ordered triple of degree-2 forms on a shared chart.

    Flags request invariant checks at construction time: ``"symplectic"``
    asserts each form is closed, ``"definite"`` asserts the wedge Gram
    matrix is positive definite at a few rational sample points.
    """

    __slots__ = ("forms", "flags")

    def __init__(self, forms, flags=()):
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
        self.flags = frozenset(flags)
        if "symplectic" in self.flags:
            for k, w in enumerate(forms):
                if not ext_d(w).is_zero():
                    raise ValueError(f"form {k} of a symplectic triple is "
                                     "not closed")
        if "definite" in self.flags:
            rng = random.Random(20210)
            for _ in range(3):
                pt = chart.sample_point(rng)
                gram = [[wedge(a, b).get(_TOP).evaluate(pt) for b in forms]
                        for a in forms]
                if not is_positive_definite(_shifted(gram)):
                    raise ValueError("wedge Gram matrix is not positive "
                                     "definite at a sample point")

    @classmethod
    def standard(cls) -> "Triple":
        """The self-dual basis triple on the cylindrical-model chart."""
        return cls(PMBasis().plus, ("symplectic", "definite"))


#: relative floor below which a wedge Gram eigenvalue counts as zero
_GRAM_FLOOR = Fraction(1e-12)


def _shifted(gram):
    """gram - tau I with tau = ``_GRAM_FLOOR`` * max(1, max |gram|), in
    exact Fractions: it is positive definite exactly when the smallest
    eigenvalue of gram exceeds tau."""
    tau = _GRAM_FLOOR * max(1, *(abs(v) for row in gram for v in row))
    return [[v - tau if i == j else v for j, v in enumerate(row)]
            for i, row in enumerate(gram)]


def _triple_forms(t):
    return t.forms if isinstance(t, Triple) else tuple(t)


def q_map(triple, reference_volume: FormField):
    """Trace-free symmetric matrix of wedge ratios measuring failure of
    the unit-Gram condition: entry (i, j) is w_i ^ w_j over the reference
    volume, minus one third of the diagonal sum on the diagonal."""
    forms = _triple_forms(triple)
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
    eta_forms = _triple_forms(eta)
    omega_forms = _triple_forms(omega)
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
    """A boundary-data point (A, B, lambda) of Fractions: A symmetric, B
    with vanishing first row, lambda positive.  ``on_manifold``
    additionally checks the constraint residual, ``gauge_fixed`` the
    trace normalization, each to 1e-10.  Float entries convert exactly
    through ``Fraction(float)``."""

    __slots__ = ("A", "B", "lam")

    def __init__(self, A, B, lam, on_manifold=True, gauge_fixed=True):
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
        if on_manifold:
            res = _max_diff(constraint_F(A, B, lam), _NULL)
            scale = max(1, _max_diff(A, _NULL) ** 2)
            if res > tol * scale:
                raise ValueError(f"constraint residual {float(res):.3e} "
                                 "exceeds the on-manifold tolerance")
        if gauge_fixed and abs(A[0][0] + A[1][1] + A[2][2] - 3) > tol:
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
# second-order forward differentiation
# ---------------------------------------------------------------------------

class Jet2:
    """Scalar carrying its first and second derivative with respect to a
    curve parameter, each in the number type it is given; arithmetic
    propagates both.  Only integer powers are taken here; ``_sqrt`` has
    its own jet rule."""

    __slots__ = ("f", "d1", "d2")

    def __init__(self, f, d1=0, d2=0):
        self.f, self.d1, self.d2 = f, d1, d2

    @classmethod
    def variable(cls, value) -> "Jet2":
        return cls(value, 1)

    @staticmethod
    def _lift(x) -> "Jet2":
        return x if isinstance(x, Jet2) else Jet2(x)

    def __repr__(self):
        return f"Jet2({self.f!r}, {self.d1!r}, {self.d2!r})"

    def __neg__(self):
        return Jet2(-self.f, -self.d1, -self.d2)

    def __add__(self, other):
        o = Jet2._lift(other)
        return Jet2(self.f + o.f, self.d1 + o.d1, self.d2 + o.d2)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-Jet2._lift(other))

    def __rsub__(self, other):
        return (-self) + Jet2._lift(other)

    def __mul__(self, other):
        o = Jet2._lift(other)
        return Jet2(self.f * o.f,
                    self.d1 * o.f + self.f * o.d1,
                    self.d2 * o.f + 2 * self.d1 * o.d1 + self.f * o.d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = Jet2._lift(other)
        if o.f == 0:
            raise ZeroDivisionError("division by a jet with zero value")
        hf = self.f / o.f
        hd1 = (self.d1 - hf * o.d1) / o.f
        hd2 = (self.d2 - 2 * hd1 * o.d1 - hf * o.d2) / o.f
        return Jet2(hf, hd1, hd2)

    def __rtruediv__(self, other):
        return Jet2._lift(other) / self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return 1 / self ** -n
        out = Jet2(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out


def _richardson(sampler, h):
    """Extrapolate a list of even-order difference quotients sampled at
    steps 4h, 2h and h to h -> 0, entry by entry, in the samples' number
    type."""
    table = [sampler(h * k) for k in (4, 2, 1)]
    for factor in (4, 16):
        table = [[(factor * b - a) / (factor - 1) for a, b in zip(lo, hi)]
                 for lo, hi in zip(table, table[1:])]
    return table[0]


# ---------------------------------------------------------------------------
# closed-form deformation families
# ---------------------------------------------------------------------------

_HALF = Fraction(1, 2)
_ROOT_BITS = 170  # a Fraction root is good to 2^-170, about 51 digits


def _sqrt(x):
    """The square root of the closed forms, in the number type of x: for
    a Fraction, a Fraction within 2^-170 and with at least ``_ROOT_BITS``
    significant bits, so a tiny radicand keeps its digits; for a jet,
    v = sqrt(f), v' = f'/2v and v'' = (f'' - 2 v'^2)/2v; and for a RatFun
    radicand the adjoined symbol c, which ``_holds_exactly`` reduces with
    c^2 = x."""
    if isinstance(x, RatFun):
        return RatFun.var("c")
    if isinstance(x, Jet2):
        v = _sqrt(x.f)
        d1 = x.d1 / (2 * v)
        return Jet2(v, d1, (x.d2 - 2 * d1 * d1) / (2 * v))
    n, d = x.numerator, x.denominator
    k = _ROOT_BITS + max(0, (d.bit_length() - n.bit_length()) // 2 + 1)
    return Fraction(isqrt((n << 2 * k) // d), 1 << k)


def _checked(x):
    """x, once a numeric sample of it is known positive (a Fraction is
    compared exactly, as it may lie beyond the float range); a RatFun in
    t is the identity itself, not a sample."""
    if isinstance(x, RatFun):
        return x
    if (x.f if isinstance(x, Jet2) else x) <= 0:
        raise ValueError("parameter outside the radicand-positive range")
    return x


class DeformationFamily:
    """Closed-form curve t -> (A(t), B(t), lambda(t)) of boundary data,
    exactly (I, 0, 1) at t = 0, whose entry function takes t as a Fraction
    (``evaluate``, which rounds A, B and lambda once, A and B to nested
    lists of floats) or as a jet over the Fractions
    (``second_derivative_report``, which extrapolates from steps 4, 2 and
    1 times ``step``)."""

    def __init__(self, entry_fn, step=Fraction(1e-3)):
        self._fn = entry_fn
        self.step = Fraction(step)
        A0, B0, lam0 = entry_fn(Fraction(0))
        if (tuple(map(tuple, A0)), tuple(map(tuple, B0)), lam0) \
                != (_EYE, _NULL, 1):
            raise ValueError("family does not start at (I, 0, 1)")

    def evaluate(self, t):
        A, B, lam = self._fn(Fraction(t))
        return _floats(A), _floats(B), float(lam)


def _scaling_radicand(s):
    return 12 - 3 * s * s


def _calabi_scaling(alpha, t):
    """Relative rescaling of the circle fiber against the torus, in the
    number type of t: the branch with unit-normalized top entry, with the
    curve parameter entering as s = alpha*t."""
    s = alpha * t
    z = _checked(1 + s * s * _HALF
                 + s * _sqrt(_checked(_scaling_radicand(s))) * _HALF)
    lam = (1 - s * s) ** 2
    a11 = 1 - s * s
    a22 = (z * z + lam) / (2 * z)
    b22 = (z * z - lam) / (2 * z)
    return ([[a11, 0, 0], [0, a22, 0], [0, 0, a22]],
            [[0, 0, 0], [0, b22, 0], [0, 0, b22]], lam)


def family_calabi_scaling(alpha) -> DeformationFamily:
    """The rescaling family ``_calabi_scaling`` at one parameter value.
    It depends on s = alpha t only.  With a step h in s the Richardson
    B_dot keeps a truncation error of sqrt(3) |alpha| h^6 / 16 (the
    -sqrt(3) s^7/1024 term of b22), so the step is 1e-3/max(1, alpha^2):
    1e-3/max(1, |alpha|) in s, an error that falls as |alpha| grows."""
    al = Fraction(float(alpha))
    return DeformationFamily(lambda t: _calabi_scaling(al, t),
                             step=Fraction(1e-3) / max(1, al * al))


@lru_cache(maxsize=128)
def _modulus_coeffs(alpha, beta):
    """m and the coefficients of W in t^2, highest first, with
    4 b22^2 = t^(2m) W(t) and W(0) != 0, by exact polynomial arithmetic
    in t; W = 0 when b22 vanishes identically (alpha = beta = 0)."""
    t2 = Poly.var("t", 2)
    u = 1 - t2.scale((alpha * alpha + beta * beta) / 9)
    n = 9 - 6 * u ** 3 - 3 * u ** 6 - t2.scale(4 * beta * beta) * u ** 4
    m = n.min_degree_in("t") // 2
    W = exact_div(n, Poly.var("t", 2 * m)).coefficients_in("t")
    return m, tuple(W[k].constant_value() if k in W else 0
                    for k in range(max(W, default=0), -1, -2))


def _modulus_radicand(alpha, beta, t):
    """(m, W(t)) of ``_modulus_coeffs``, by Horner's rule in t^2."""
    m, coeffs = _modulus_coeffs(alpha, beta)
    W = 0
    for c in coeffs:
        W = W * t * t + c
    return m, W


def _calabi_modulus(alpha, beta, t):
    """Two-parameter shearing of the torus lattice with compensating
    radial/circle rescaling, in the number type of t; the parameters
    enter as alpha*t and beta*t."""
    u = _checked(1 - (alpha * alpha + beta * beta) * t * t / 9)
    u3 = u * u * u
    a22 = (3 - u3) * _HALF
    m, W = _modulus_radicand(alpha, beta, t)
    b22 = 0
    if alpha or beta:
        sgn = -1 if alpha < 0 else 1
        b22 = sgn * t ** m * _sqrt(_checked(W)) * _HALF
    b23 = u * u * beta * t
    return ([[u3, 0, 0], [0, a22, 0], [0, 0, a22]],
            [[0, 0, 0], [0, b22, b23], [0, b23, -b22]], u3 * u3)


def family_calabi_modulus(alpha, beta) -> DeformationFamily:
    """The modulus family ``_calabi_modulus`` at one parameter pair.

    The parameters enter as alpha t and beta t, so the Richardson step is
    1e-3/max(1, |alpha|, |beta|); with both nonzero it is at most
    |alpha|/(20 beta^2), as the root in b22 bends at t ~ alpha/beta^2."""
    al, be = Fraction(float(alpha)), Fraction(float(beta))
    step = Fraction(1e-3) / max(1, abs(al), abs(be))
    if al and be:
        step = min(step, abs(al) / (20 * be * be))
    return DeformationFamily(lambda t: _calabi_modulus(al, be, t), step)


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
    return _holds_exactly(*_calabi_scaling(1, t), _scaling_radicand(t))


def calabi_modulus_constraint_exact(alpha=Fraction(3, 5),
                                    beta=Fraction(4, 5)) -> bool:
    """Whether the modulus family satisfies its quadratic constraint and
    trace normalization identically in the curve parameter for exact
    rational parameter values, through the closed form
    ``family_calabi_modulus`` evaluates."""
    al, be = Fraction(alpha), Fraction(beta)
    t = RatFun.var("t")
    return _holds_exactly(*_calabi_modulus(al, be, t),
                          _modulus_radicand(al, be, t)[1])


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
    # U is the same for every positive multiple of A: start at unit norm
    norm = _frobenius(A)
    X = [[v / norm for v in row] for row in A]
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
    return (U, [[(UA[i][j] + UA[j][i]) / 2 for j in range(3)]
                for i in range(3)], _matmul(U, B))


# ---------------------------------------------------------------------------
# second-derivative report
# ---------------------------------------------------------------------------

def second_derivative_report(family: DeformationFamily):
    """Second derivative of A and lambda and first derivative of B at
    t = 0, by forward differentiation of the closed forms cross-checked
    against Richardson extrapolation to 1e-9, together with the residuals
    of the second-order constraint identity A'' + A''^T - lambda'' I =
    k B' B'^T in both normalizations (k = 1, the singly-weighted
    quadratic term, and k = 2, the doubly-weighted one).

    A, B and lambda are stacked into one list of 19 entries, so each
    Richardson step samples the family once at each of +h and -h, and the
    jets evaluate it once at t = 0.  Both routes run on Fractions, so
    neither rounds (the quotients carry no eps/h^2 floor); the residuals
    are computed from the same Fractions, and every result goes to float
    once, the matrices as nested lists."""

    def stacked(t):
        A, B, lam = family._fn(t)
        return [*(x for row in A for x in row),
                *(x for row in B for x in row), lam]

    f0 = stacked(Fraction(0))

    def quotients(h):
        fp, fm = stacked(h), stacked(-h)
        return [(p - m) / (2 * h) if 9 <= k < 18
                else (p - 2 * z + m) / (h * h)
                for k, (p, z, m) in enumerate(zip(fp, f0, fm))]

    est = _richardson(quotients, family.step)
    try:
        jets = stacked(Jet2.variable(Fraction(0)))
    except (ValueError, ZeroDivisionError):
        jets = None
    if jets is not None:
        exact = [j.d1 if 9 <= k < 18 else j.d2
                 for k, j in enumerate(map(Jet2._lift, jets))]
        disagreement = max(abs(a - b) for a, b in zip(exact, est))
        if disagreement > 1e-9:
            raise ConvergenceError(
                "closed-form and Richardson derivatives disagree by "
                f"{float(disagreement):.3e}")
        est = exact
    A_ddot = [est[0:3], est[3:6], est[6:9]]
    B_dot = [est[9:12], est[12:15], est[15:18]]
    lam_ddot = est[18]
    base = [[A_ddot[i][j] + A_ddot[j][i] - (lam_ddot if i == j else 0)
             for j in range(3)] for i in range(3)]
    quad = _matmul(B_dot, list(zip(*B_dot)))
    return {
        "A_ddot": _floats(A_ddot),
        "B_dot": _floats(B_dot),
        "lambda_ddot": float(lam_ddot),
        "mm_residual_printed": float(_max_diff(base, quad)),
        "mm_residual_factor2": float(_max_diff(
            base, [[2 * q for q in row] for row in quad])),
    }
