"""Triples of 2-forms and the boundary-data manifold.

This module carries the algebra of 2-form triples (the quadratic wedge
defect ``q_map`` and the gauged residual), the constraint manifold of
boundary data points (A, B, lambda) with its tangent spaces, closed-form
deformation families of that data with exact forward differentiation and
Richardson cross-checks, the exact pullback expansion of twisted coframe
families in the standard self-dual/anti-self-dual basis, and rotation of
raw deformation matrices into the symmetric gauge.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.linalg import polar

from .forms import FormField, PMBasis, ext_d, sd_asd_split, wedge
from .geometry import MetricField, r_chart, volume_density
from .linalg import solve
from .ratfun import RatFun

__all__ = [
    "Triple", "PPoint", "TangentVector", "DeformationFamily", "Jet2",
    "SEMIFLAT_KINDS", "q_map", "gauge_residual", "constraint_F",
    "tangent_space", "family_calabi_scaling", "family_calabi_modulus",
    "calabi_scaling_constraint_exact", "calabi_modulus_constraint_exact",
    "family_semiflat", "pullback_pm", "symmetrize",
    "second_derivative_report",
]

_TOP = (0, 1, 2, 3)


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
            if w.chart.variables != chart.variables:
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
                gram = np.array([
                    [float(wedge(a, b).get(_TOP).evaluate(pt))
                     for b in forms] for a in forms])
                if np.min(np.linalg.eigvalsh(gram)) <= 1e-12 * max(
                        1.0, np.max(np.abs(gram))):
                    raise ValueError("wedge Gram matrix is not positive "
                                     "definite at a sample point")

    @classmethod
    def standard(cls) -> "Triple":
        """The self-dual basis triple on the cylindrical-model chart."""
        return cls(PMBasis().plus, ("symplectic", "definite"))


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
    if not isinstance(dens, RatFun):
        raise ValueError("metric volume density is not rational")
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

def constraint_F(A, B, lam):
    """Residual A A^T - B B^T - lambda I of the boundary-data constraint."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    return A @ A.T - B @ B.T - float(lam) * np.eye(3)


class PPoint:
    """A boundary-data point (A, B, lambda): A symmetric, B with vanishing
    first row, lambda positive.  ``on_manifold`` additionally checks the
    constraint residual, ``gauge_fixed`` the trace normalization."""

    __slots__ = ("A", "B", "lam", "tol")

    def __init__(self, A, B, lam, on_manifold=True, gauge_fixed=True,
                 tol=1e-10):
        A = np.array(A, dtype=float)
        B = np.array(B, dtype=float)
        lam = float(lam)
        if np.max(np.abs(A - A.T)) > tol:
            raise ValueError("A must be symmetric")
        if np.max(np.abs(B[0])) > tol:
            raise ValueError("the first row of B must vanish")
        if lam <= 0:
            raise ValueError("lambda must be positive")
        if on_manifold:
            res = np.max(np.abs(constraint_F(A, B, lam)))
            scale = max(1.0, float(np.max(np.abs(A))) ** 2)
            if res > tol * scale:
                raise ValueError(f"constraint residual {res:.3e} exceeds "
                                 "the on-manifold tolerance")
        if gauge_fixed and abs(np.trace(A) - 3.0) > tol:
            raise ValueError("trace of A must equal 3 for gauge-fixed points")
        self.A, self.B, self.lam, self.tol = A, B, lam, tol


class TangentVector(NamedTuple):
    A_dot: np.ndarray
    B_dot: np.ndarray
    lam_dot: float


_SYM_SLOTS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_B_SLOTS = ((1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2))


def tangent_space(p: PPoint, tol=1e-10):
    """Numerical-rank nullspace basis of the linearized constraint plus
    gauge conditions (A-dot symmetric with zero trace, B-dot with zero
    first row) at the point p."""
    A, B = p.A, p.B
    columns = []
    for (i, j) in _SYM_SLOTS:
        E = np.zeros((3, 3))
        E[i, j] = E[j, i] = 1.0
        columns.append(E @ A.T + A @ E.T)
    for (i, j) in _B_SLOTS:
        E = np.zeros((3, 3))
        E[i, j] = 1.0
        columns.append(-(E @ B.T + B @ E.T))
    columns.append(-np.eye(3))
    constraint = np.array([[col[s] for col in columns] for s in _SYM_SLOTS])
    sv = np.linalg.svd(constraint, compute_uv=False)
    if sv[5] <= tol * max(sv[0], 1.0):
        raise ValueError("not a manifold point here: the linearized "
                         "constraint is rank-deficient")
    gauge = np.zeros(13)
    for k, (i, j) in enumerate(_SYM_SLOTS):
        if i == j:
            gauge[k] = 1.0
    full = np.vstack([constraint, gauge])
    _, s, vh = np.linalg.svd(full)
    rank = int(np.sum(s > tol * s[0]))
    basis = []
    for vec in vh[rank:]:
        Ad = np.zeros((3, 3))
        for k, (i, j) in enumerate(_SYM_SLOTS):
            Ad[i, j] = Ad[j, i] = vec[k]
        Bd = np.zeros((3, 3))
        for k, (i, j) in enumerate(_B_SLOTS):
            Bd[i, j] = vec[6 + k]
        basis.append(TangentVector(Ad, Bd, float(vec[12])))
    return basis


# ---------------------------------------------------------------------------
# second-order forward differentiation
# ---------------------------------------------------------------------------

class Jet2:
    """Scalar carrying its first and second derivative with respect to a
    curve parameter; arithmetic propagates both."""

    __slots__ = ("f", "d1", "d2")

    def __init__(self, f, d1=0.0, d2=0.0):
        self.f = float(f)
        self.d1 = float(d1)
        self.d2 = float(d2)

    @classmethod
    def variable(cls, value) -> "Jet2":
        return cls(value, 1.0, 0.0)

    @staticmethod
    def _lift(x) -> "Jet2":
        return x if isinstance(x, Jet2) else Jet2(x)

    def __float__(self):
        return self.f

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
                    self.d2 * o.f + 2.0 * self.d1 * o.d1 + self.f * o.d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = Jet2._lift(other)
        if o.f == 0.0:
            raise ZeroDivisionError("division by a jet with zero value")
        hf = self.f / o.f
        hd1 = (self.d1 - hf * o.d1) / o.f
        hd2 = (self.d2 - 2.0 * hd1 * o.d1 - hf * o.d2) / o.f
        return Jet2(hf, hd1, hd2)

    def __rtruediv__(self, other):
        return Jet2._lift(other) / self

    def __pow__(self, p):
        if isinstance(p, int) or (isinstance(p, float) and p == int(p)):
            n = int(p)
            if n < 0:
                return Jet2(1.0) / (self ** (-n))
            out = Jet2(1.0)
            base = self
            while n:
                if n & 1:
                    out = out * base
                base = base * base
                n >>= 1
            return out
        if self.f <= 0.0:
            raise ValueError("fractional power of a non-positive jet")
        v = self.f ** p
        d1 = p * self.f ** (p - 1.0) * self.d1
        d2 = (p * (p - 1.0) * self.f ** (p - 2.0) * self.d1 ** 2
              + p * self.f ** (p - 1.0) * self.d2)
        return Jet2(v, d1, d2)


def _jet_parts(x):
    if isinstance(x, Jet2):
        return x.f, x.d1, x.d2
    return float(x), 0.0, 0.0


def _richardson(sampler, h=1e-3, levels=3):
    """Extrapolate an even-order difference quotient sampled at steps
    h, 2h, 4h, ... (finest first in the returned estimate)."""
    steps = [h * 2.0 ** k for k in range(levels)]
    table = [np.asarray(sampler(s), dtype=float) for s in reversed(steps)]
    for j in range(1, levels):
        factor = 4.0 ** j
        table = [(factor * table[i + 1] - table[i]) / (factor - 1.0)
                 for i in range(len(table) - 1)]
    return table[0]


# ---------------------------------------------------------------------------
# closed-form deformation families
# ---------------------------------------------------------------------------

class DeformationFamily:
    """Closed-form curve t -> (A(t), B(t), lambda(t)) of boundary data,
    equal to (I, 0, 1) at t = 0, supporting both float evaluation and
    second-order forward differentiation."""

    def __init__(self, name: str, entry_fn, labels: dict):
        self.name = name
        self._fn = entry_fn
        self.labels = dict(labels)
        A0, B0, lam0 = self.evaluate(0.0)
        if (np.max(np.abs(A0 - np.eye(3))) > 1e-12
                or np.max(np.abs(B0)) > 1e-12 or abs(lam0 - 1.0) > 1e-12):
            raise ValueError("family does not start at (I, 0, 1)")

    def evaluate(self, t):
        A, B, lam = self._fn(float(t))
        return (np.array(A, dtype=float), np.array(B, dtype=float),
                float(lam))

    def jets(self):
        """Values and first/second derivatives at t = 0 by forward
        differentiation of the closed forms."""
        A, B, lam = self._fn(Jet2.variable(0.0))
        out = {}
        for label, entries in (("A", A), ("B", B)):
            val = np.zeros((3, 3))
            d1 = np.zeros((3, 3))
            d2 = np.zeros((3, 3))
            for i in range(3):
                for j in range(3):
                    val[i, j], d1[i, j], d2[i, j] = _jet_parts(entries[i][j])
            out[label] = val
            out[label + "_dot"] = d1
            out[label + "_ddot"] = d2
        lf, l1, l2 = _jet_parts(lam)
        out["lam"], out["lam_dot"], out["lam_ddot"] = lf, l1, l2
        return out


def family_calabi_scaling(alpha) -> DeformationFamily:
    """Relative rescaling of the circle fiber against the torus: branch
    with unit-normalized top entry, curve parameter entering as alpha*t."""
    al = float(alpha)

    def fn(t):
        s = al * t
        rad = 12.0 - 3.0 * s * s
        if float(rad) <= 0.0:
            raise ValueError("parameter outside the radicand-positive range")
        z = 1.0 + s * s * 0.5 + s * (rad ** 0.5) * 0.5
        if float(z) <= 0.0:
            raise ValueError("parameter outside the radicand-positive range")
        lam = (1.0 - s * s) ** 2
        a11 = 1.0 - s * s
        a22 = (z * z + lam) / (2.0 * z)
        b22 = (z * z - lam) / (2.0 * z)
        A = [[a11, 0.0, 0.0], [0.0, a22, 0.0], [0.0, 0.0, a22]]
        B = [[0.0, 0.0, 0.0], [0.0, b22, 0.0], [0.0, 0.0, b22]]
        return A, B, lam

    return DeformationFamily("calabi_scaling", fn, {"alpha": al})


def _modulus_reduced_poly(al, be):
    """Coefficients of the discriminant polynomial with its leading
    t-power removed: returns (m, coefficients) with the discriminant
    equal to t^(2m) times the reduced polynomial."""
    K = al * al + be * be
    u = [1.0, 0.0, -K / 9.0]
    n = npoly.polysub([9.0], 6.0 * npoly.polypow(u, 3))
    n = npoly.polysub(n, 3.0 * npoly.polypow(u, 6))
    n = npoly.polysub(n, 4.0 * be * be * npoly.polymul(
        [0.0, 0.0, 1.0], npoly.polypow(u, 4)))
    top = max(1.0, float(np.max(np.abs(n))))
    n = [0.0 if abs(c) < 1e-12 * top else float(c) for c in n]
    tz = 0
    while tz < len(n) and n[tz] == 0.0:
        tz += 1
    if tz >= len(n):
        return 1, []
    return tz // 2, n[tz:]


def family_calabi_modulus(alpha, beta) -> DeformationFamily:
    """Two-parameter shearing of the torus lattice with compensating
    radial/circle rescaling; parameters enter as alpha*t and beta*t."""
    al, be = float(alpha), float(beta)
    K = al * al + be * be
    m, red_c = _modulus_reduced_poly(al, be)
    sgn = -1.0 if al < 0 else 1.0

    def fn(t):
        u = 1.0 - K * t * t / 9.0
        if float(u) <= 0.0:
            raise ValueError("parameter outside the radicand-positive range")
        u3 = u * u * u
        a22 = (3.0 - u3) * 0.5
        if red_c:
            red = red_c[-1]
            for coef in red_c[-2::-1]:
                red = red * t + coef
            if float(red) < 0.0:
                raise ValueError("parameter outside the radicand-positive "
                                 "range")
            tpow = t if m == 1 else t * t
            b22 = sgn * tpow * (red ** 0.5) * 0.5
        else:
            b22 = 0.0
        b23 = u * u * be * t
        A = [[u3, 0.0, 0.0], [0.0, a22, 0.0], [0.0, 0.0, a22]]
        B = [[0.0, 0.0, 0.0], [0.0, b22, b23], [0.0, b23, -b22]]
        return A, B, u3 * u3

    return DeformationFamily("calabi_modulus", fn, {"alpha": al, "beta": be})


# ---------------------------------------------------------------------------
# exact constraint verification in a quadratic extension
# ---------------------------------------------------------------------------

class _Ext2:
    """Element a + b*s of the quadratic extension of the rational-function
    field by a formal square root s with s*s equal to the fixed W."""

    __slots__ = ("a", "b", "W")

    def __init__(self, a, b, W):
        self.a, self.b, self.W = a, b, W

    def __add__(self, other):
        return _Ext2(self.a + other.a, self.b + other.b, self.W)

    def __sub__(self, other):
        return _Ext2(self.a - other.a, self.b - other.b, self.W)

    def __neg__(self):
        return _Ext2(-self.a, -self.b, self.W)

    def __mul__(self, other):
        return _Ext2(self.a * other.a + self.b * other.b * self.W,
                     self.a * other.b + self.b * other.a, self.W)

    def __truediv__(self, other):
        norm = other.a * other.a - other.b * other.b * self.W
        conj = _Ext2(other.a, -other.b, self.W)
        prod = self * conj
        return _Ext2(prod.a / norm, prod.b / norm, self.W)

    def is_zero(self):
        return self.a.is_zero() and self.b.is_zero()


def calabi_scaling_constraint_exact() -> bool:
    """Whether the rescaling family satisfies its quadratic constraint and
    trace normalization identically in the curve parameter, with the
    square root adjoined as an exact formal symbol."""
    t = RatFun.var("t")
    one = RatFun.const(1)
    zero = RatFun.const(0)
    half = RatFun.const(Fraction(1, 2))
    W = RatFun.const(12) - RatFun.const(3) * t * t

    def ext(a, b=None):
        return _Ext2(a, zero if b is None else b, W)

    z = ext(one + half * t * t, half * t)
    p = (one - t * t) * (one - t * t)
    a11 = ext(one - t * t)
    two_z = z + z
    a22 = (z * z + ext(p)) / two_z
    b22 = (z * z - ext(p)) / two_z
    lam = ext(p)
    residuals = [a11 * a11 - lam,
                 a22 * a22 - b22 * b22 - lam,
                 a11 + a22 + a22 - ext(RatFun.const(3))]
    return all(res.is_zero() for res in residuals)


def calabi_modulus_constraint_exact(alpha=Fraction(3, 5),
                                    beta=Fraction(4, 5)) -> bool:
    """Whether the modulus family satisfies its quadratic constraint and
    trace normalization identically in the curve parameter for exact
    rational parameter values."""
    al, be = Fraction(alpha), Fraction(beta)
    K = al * al + be * be
    t = RatFun.var("t")
    one = RatFun.const(1)
    zero = RatFun.const(0)
    u = one - RatFun.const(K / 9) * t * t
    u2 = u * u
    u3 = u2 * u
    u4 = u2 * u2
    u6 = u3 * u3
    n_poly = (RatFun.const(9) - RatFun.const(6) * u3 - RatFun.const(3) * u6
              - RatFun.const(4 * be * be) * t * t * u4)
    W = n_poly / (u4 * t * t)

    def ext(a, b=None):
        return _Ext2(a, zero if b is None else b, W)

    half = RatFun.const(Fraction(1, 2))
    a11 = ext(u3)
    a22 = ext((RatFun.const(3) - u3) * half)
    b22 = ext(zero, u2 * t * half)
    b23 = ext(u2 * RatFun.const(be) * t)
    lam = ext(u6)
    residuals = [
        a11 * a11 - lam,
        a22 * a22 - (b22 * b22 + b23 * b23) - lam,
        b22 * b23 + b23 * (-b22),
        a11 + a22 + a22 - ext(RatFun.const(3)),
    ]
    return all(res.is_zero() for res in residuals)


# ---------------------------------------------------------------------------
# twisted-coframe families and the exact pullback expansion
# ---------------------------------------------------------------------------

SEMIFLAT_KINDS = ("theta_twist", "y1_twist", "y2_twist")

_SAMPLE_POINTS = [
    {"r": Fraction(3), "y1": Fraction(1, 8), "y2": Fraction(1, 4),
     "theta": Fraction(0)},
    {"r": Fraction(5), "y1": Fraction(1, 2), "y2": Fraction(1, 3),
     "theta": Fraction(1, 7)},
    {"r": Fraction(7), "y1": Fraction(2, 5), "y2": Fraction(1, 7),
     "theta": Fraction(1, 3)},
    {"r": Fraction(4), "y1": Fraction(1, 9), "y2": Fraction(5, 8),
     "theta": Fraction(2, 5)},
    {"r": Fraction(9), "y1": Fraction(3, 7), "y2": Fraction(1, 6),
     "theta": Fraction(1, 2)},
]


def _deformed_triple(kind: str, c: Fraction):
    """Standard triple rebuilt from the twisted coframe of one of the
    three coordinate deformations."""
    ch = r_chart()
    r = RatFun.var("r")
    y1 = RatFun.var("y1")
    cc = RatFun.const(Fraction(c))
    dr = FormField.coordinate_differential(ch, "r")
    dy1 = FormField.coordinate_differential(ch, "y1")
    dy2 = FormField.coordinate_differential(ch, "y2")
    dtheta = FormField.coordinate_differential(ch, "theta")
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
    w1 = wedge(dr, th) + wedge(e1, e2).scale(r)
    w2 = wedge(e1, th) + wedge(e2, dr).scale(r)
    w3 = wedge(e2, th) + wedge(dr, e1).scale(r)
    return w1, w2, w3


def pullback_pm(deformation, point=None):
    """Expand the deformed standard triple of a coordinate deformation in
    the undeformed self-dual/anti-self-dual basis.  The expansion is done
    with exact coefficients; position dependence is an error.  Returns the
    two 3x3 coefficient blocks (self-dual part, anti-self-dual part)."""
    kind, c = deformation
    basis = PMBasis()
    vectors = [PMBasis.coefficient_vector(w) for w in basis.all_six()]
    matrix = [[vectors[j][i] for j in range(6)] for i in range(6)]
    A = np.zeros((3, 3))
    Bm = np.zeros((3, 3))
    for i, w in enumerate(_deformed_triple(kind, Fraction(c))):
        coeffs = solve(matrix, PMBasis.coefficient_vector(w))
        for k, rf in enumerate(coeffs):
            if rf.variables():
                raise ValueError("position-dependent expansion of the "
                                 "deformed triple")
            value = float(rf.evaluate(point) if point is not None
                          else rf.evaluate({}))
            if k < 3:
                A[i, k] = value
            else:
                Bm[i, k - 3] = value
    return A, Bm


_SEMIFLAT_PRINTED = {
    "theta_twist": lambda c: (
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, -c], [0.0, c, 1.0]]),
        np.array([[0.0, 0.0, 0.0], [0.0, 0.0, c], [0.0, -c, 0.0]])),
    "y1_twist": lambda c: (
        np.array([[1.0, -c, 0.0], [c, 1.0 - c * c / 2, 0.0],
                  [0.0, 0.0, 1.0]]),
        np.array([[0.0, c, 0.0], [0.0, c * c / 2, 0.0], [0.0, 0.0, 0.0]])),
    "y2_twist": lambda c: (
        np.array([[1.0, 0.0, -c], [0.0, 1.0, 0.0],
                  [c, 0.0, 1.0 - c * c / 2]]),
        np.array([[0.0, 0.0, c], [0.0, 0.0, 0.0], [0.0, 0.0, c * c / 2]])),
}


def family_semiflat(which: str, c):
    """Raw (A, B) expansion matrices of one coordinate deformation of the
    cylindrical model, cross-checked against the exact pullback expansion
    at five rational sample points."""
    if which not in SEMIFLAT_KINDS:
        raise ValueError(f"unknown coordinate deformation {which!r}")
    A, Bm = _SEMIFLAT_PRINTED[which](float(c))
    cf = Fraction(c)
    for pt in _SAMPLE_POINTS:
        pa, pb = pullback_pm((which, cf), pt)
        if (np.max(np.abs(pa - A)) > 1e-12
                or np.max(np.abs(pb - Bm)) > 1e-12):
            raise ArithmeticError("stored matrices disagree with the exact "
                                  "pullback expansion")
    return A, Bm


# ---------------------------------------------------------------------------
# rotation to the symmetric gauge
# ---------------------------------------------------------------------------

def symmetrize(A, B):
    """Unique rotation U with U A symmetric positive definite; returns
    (U, U A, U B)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if np.linalg.det(A) <= 0:
        raise ValueError("det A must be positive")
    u, p = polar(A, side="right")
    U = u.T
    return U, p, U @ B


# ---------------------------------------------------------------------------
# second-derivative report
# ---------------------------------------------------------------------------

def second_derivative_report(family: DeformationFamily):
    """Second derivative of A and lambda and first derivative of B at
    t = 0, by forward differentiation of the closed forms cross-checked
    against Richardson extrapolation to 1e-9, together with the residuals
    of the second-order constraint identity in both normalizations (the
    singly- and doubly-weighted quadratic term)."""

    def fA(t):
        return family.evaluate(t)[0]

    def fB(t):
        return family.evaluate(t)[1]

    def flam(t):
        return family.evaluate(t)[2]

    def second(fn):
        f0 = fn(0.0)
        return _richardson(lambda h: (fn(h) - 2.0 * f0 + fn(-h)) / h ** 2)

    def first(fn):
        return _richardson(lambda h: (fn(h) - fn(-h)) / (2.0 * h))

    A_ddot_r = second(fA)
    B_dot_r = first(fB)
    lam_ddot_r = float(second(flam))
    try:
        jets = family.jets()
    except (ValueError, ZeroDivisionError):
        jets = None
    if jets is not None:
        disagreement = max(
            float(np.max(np.abs(jets["A_ddot"] - A_ddot_r))),
            float(np.max(np.abs(jets["B_dot"] - B_dot_r))),
            abs(jets["lam_ddot"] - lam_ddot_r))
        if disagreement > 1e-9:
            raise ArithmeticError(
                "closed-form and Richardson derivatives disagree by "
                f"{disagreement:.3e}")
        A_ddot = jets["A_ddot"]
        B_dot = jets["B_dot"]
        lam_ddot = jets["lam_ddot"]
    else:
        A_ddot, B_dot, lam_ddot = A_ddot_r, B_dot_r, lam_ddot_r
    base = A_ddot + A_ddot.T - lam_ddot * np.eye(3)
    quad = B_dot @ B_dot.T
    return {
        "A_ddot": A_ddot,
        "B_dot": B_dot,
        "lambda_ddot": lam_ddot,
        "mm_residual_printed": float(np.max(np.abs(base - quad))),
        "mm_residual_factor2": float(np.max(np.abs(base - 2.0 * quad))),
    }
