"""Triples of 2-forms and the boundary-data manifold.

This module carries the algebra of 2-form triples (the quadratic wedge
defect ``q_map`` and the gauged residual), the constraint manifold of
boundary data points (A, B, lambda) with its tangent spaces, closed-form
deformation families of that data (each closed form written once over
the number type of t: floats, Fractions and jets over them for the
second-derivative report, and a RatFun t for the exact constraint
check), the exact pullback expansion of twisted coframe families in the
standard self-dual/anti-self-dual basis, and rotation of raw deformation
matrices into the symmetric gauge.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from functools import cache, lru_cache
from math import isqrt
from typing import NamedTuple

from .config import ConvergenceError, ExactIdentityError
from .forms import (FormField, PMBasis, ext_d, sd_asd_split, sd_asd_triples,
                    wedge)
from .geometry import MetricField, r_chart, volume_density
from .linalg import is_positive_definite, solve
from .ratfun import Poly, RatFun, _as_ratfun, exact_div

__all__ = [
    "Triple", "PPoint", "TangentVector", "DeformationFamily", "Jet2",
    "SEMIFLAT_KINDS", "q_map", "gauge_residual", "constraint_F",
    "tangent_space", "family_calabi_scaling", "family_calabi_modulus",
    "calabi_scaling_constraint_exact", "calabi_modulus_constraint_exact",
    "family_semiflat", "pullback_pm", "symmetrize",
    "second_derivative_report",
]

_TOP = (0, 1, 2, 3)
_ZERO = RatFun.const(0)


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

def constraint_F(A, B, lam):
    """Residual A A^T - B B^T - lambda I of the boundary-data constraint."""
    import numpy as np
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
        import numpy as np
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
    import numpy as np
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
    """Extrapolate an even-order difference quotient sampled at steps
    4h, 2h and h to h -> 0, in the samples' number type."""
    table = [sampler(h * k) for k in (4, 2, 1)]
    for factor in (4, 16):
        table = [(factor * table[i + 1] - table[i]) / (factor - 1)
                 for i in range(len(table) - 1)]
    return table[0]


# ---------------------------------------------------------------------------
# closed-form deformation families
# ---------------------------------------------------------------------------

_HALF = Fraction(1, 2)
_ROOT_BITS = 170  # a Fraction root is good to 2^-170, about 51 digits


def _sqrt(x):
    """The square root of the closed forms, in the number type of x:
    ``** 0.5`` for floats; for a Fraction, a Fraction within 2^-170 and
    with at least ``_ROOT_BITS`` significant bits, so a tiny radicand
    keeps its digits; for a jet, v = sqrt(f), v' = f'/2v and
    v'' = (f'' - 2 v'^2)/2v; and for a RatFun radicand the adjoined
    symbol c, which ``_holds_exactly`` reduces with c^2 = x."""
    if isinstance(x, RatFun):
        return RatFun.var("c")
    if isinstance(x, Jet2):
        v = _sqrt(x.f)
        d1 = x.d1 / (2 * v)
        return Jet2(v, d1, (x.d2 - 2 * d1 * d1) / (2 * v))
    if isinstance(x, Fraction):
        n, d = x.numerator, x.denominator
        k = _ROOT_BITS + max(0, (d.bit_length() - n.bit_length()) // 2 + 1)
        return Fraction(isqrt((n << 2 * k) // d), 1 << k)
    return x ** 0.5


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
    equal to (I, 0, 1) at t = 0, whose entry function takes t as a float
    (``evaluate``), or as a Fraction or a jet over the Fractions
    (``second_derivative_report``, which extrapolates from steps 4, 2
    and 1 times ``step``)."""

    def __init__(self, name: str, entry_fn, step=Fraction(1e-3)):
        import numpy as np
        self.name = name
        self._fn = entry_fn
        self.step = Fraction(step)
        A0, B0, lam0 = self.evaluate(0.0)
        if (np.max(np.abs(A0 - np.eye(3))) > 1e-12
                or np.max(np.abs(B0)) > 1e-12 or abs(lam0 - 1.0) > 1e-12):
            raise ValueError("family does not start at (I, 0, 1)")

    def evaluate(self, t):
        import numpy as np
        A, B, lam = self._fn(float(t))
        return (np.array(A, dtype=float), np.array(B, dtype=float),
                float(lam))


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
    It depends on s = alpha t only, so its Richardson step is
    1e-3/max(1, |alpha|), 1e-3 in s."""
    al = Fraction(float(alpha))
    return DeformationFamily("calabi_scaling",
                             lambda t: _calabi_scaling(al, t),
                             step=Fraction(1e-3) / max(1, abs(al)))


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
    """The modulus family ``_calabi_modulus`` at one parameter pair.  A
    W(0) below the normal floats (4 alpha^2: |alpha| < ~7.4e-155) would
    lose digits as a float, so it raises ``FloatingPointError``.

    The parameters enter as alpha t and beta t, so the Richardson step is
    1e-3/max(1, |alpha|, |beta|); with both nonzero it is at most
    |alpha|/(20 beta^2), as the root in b22 bends at t ~ alpha/beta^2."""
    al, be = Fraction(float(alpha)), Fraction(float(beta))
    if 0 < abs(_modulus_coeffs(al, be)[1][-1]) < sys.float_info.min:
        raise FloatingPointError(
            f"radicand W(0) underflows the float range at alpha = {alpha}, "
            f"beta = {beta}")
    step = Fraction(1e-3) / max(1, abs(al), abs(be))
    if al and be:
        step = min(step, abs(al) / (20 * be * be))
    return DeformationFamily("calabi_modulus",
                             lambda t: _calabi_modulus(al, be, t), step)


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
    residuals = [sum(A[i][k] * A[j][k] - B[i][k] * B[j][k]
                     for k in range(3)) - (lam if i == j else 0)
                 for i, j in _SYM_SLOTS]
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
    of the identity, 162 RatFun operations; the cofactor
    ``linalg.inverse``, which suits the 4x4 metrics, takes 1,653 here."""
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
    anti-self-dual part), new arrays on every call."""
    import numpy as np
    kind, c = deformation
    inv = _pm_inverse()
    out = np.zeros((3, 6))
    for i, w in enumerate(_deformed_triple(kind, Fraction(c))):
        vec = PMBasis.coefficient_vector(w)
        for k, row in enumerate(inv):
            rf = sum((a * b for a, b in zip(row, vec)
                      if not (a.is_zero() or b.is_zero())), _ZERO)
            if rf.variables():
                raise ValueError("position-dependent expansion of the "
                                 "deformed triple")
            out[i, k] = float(rf.evaluate(point or {}))
    return out[:, :3], out[:, 3:]


def _printed(rows):
    """The float array of one printed matrix."""
    import numpy as np
    return np.array(rows, dtype=float)


_SEMIFLAT_PRINTED = {
    "theta_twist": lambda c: (
        _printed([[1.0, 0.0, 0.0], [0.0, 1.0, -c], [0.0, c, 1.0]]),
        _printed([[0.0, 0.0, 0.0], [0.0, 0.0, c], [0.0, -c, 0.0]])),
    "y1_twist": lambda c: (
        _printed([[1.0, -c, 0.0], [c, 1.0 - c * c / 2, 0.0],
                  [0.0, 0.0, 1.0]]),
        _printed([[0.0, c, 0.0], [0.0, c * c / 2, 0.0], [0.0, 0.0, 0.0]])),
    "y2_twist": lambda c: (
        _printed([[1.0, 0.0, -c], [0.0, 1.0, 0.0],
                  [c, 0.0, 1.0 - c * c / 2]]),
        _printed([[0.0, 0.0, c], [0.0, 0.0, 0.0], [0.0, 0.0, c * c / 2]])),
}


def family_semiflat(which: str, c):
    """Raw (A, B) expansion matrices of one coordinate deformation of the
    cylindrical model, cross-checked against the exact pullback expansion,
    which ``pullback_pm`` proves independent of position."""
    import numpy as np
    if which not in SEMIFLAT_KINDS:
        raise ValueError(f"unknown coordinate deformation {which!r}")
    A, Bm = _SEMIFLAT_PRINTED[which](float(c))
    pa, pb = pullback_pm((which, Fraction(c)))
    if np.max(np.abs(pa - A)) > 1e-12 or np.max(np.abs(pb - Bm)) > 1e-12:
        raise ExactIdentityError("stored matrices disagree with the "
                                 "exact pullback expansion")
    return A, Bm


# ---------------------------------------------------------------------------
# rotation to the symmetric gauge
# ---------------------------------------------------------------------------

def symmetrize(A, B):
    """Unique rotation U with U A symmetric positive definite; returns
    (U, U A, U B)."""
    import numpy as np
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if np.linalg.det(A) <= 0:
        raise ValueError("det A must be positive")
    # A = W S V^T: U = V W^T and U A = V S V^T for any SVD sign choice
    W, s, Vt = np.linalg.svd(A)
    U = Vt.T @ W.T
    return U, (Vt.T * s) @ Vt, U @ B


# ---------------------------------------------------------------------------
# second-derivative report
# ---------------------------------------------------------------------------

def second_derivative_report(family: DeformationFamily):
    """Second derivative of A and lambda and first derivative of B at
    t = 0, by forward differentiation of the closed forms cross-checked
    against Richardson extrapolation to 1e-9, together with the residuals
    of the second-order constraint identity in both normalizations (the
    singly- and doubly-weighted quadratic term).

    A, B and lambda are stacked into one vector of 19 entries, so each
    Richardson step samples the family once at each of +h and -h, and the
    jets evaluate it once at t = 0.  Both routes run on Fractions, so
    neither rounds (the quotients carry no eps/h^2 floor), and the 19
    results go to float once."""
    import numpy as np

    def stacked(t):
        A, B, lam = family._fn(t)
        return np.array([*(x for row in A for x in row),
                         *(x for row in B for x in row), lam], dtype=object)

    f0 = stacked(Fraction(0))

    def quotients(h):
        fp, fm = stacked(h), stacked(-h)
        q = (fp - 2 * f0 + fm) / (h * h)
        q[9:18] = (fp[9:18] - fm[9:18]) / (2 * h)
        return q

    est = _richardson(quotients, family.step)
    try:
        jets = stacked(Jet2.variable(Fraction(0)))
    except (ValueError, ZeroDivisionError):
        jets = None
    if jets is not None:
        exact = np.array([j.d1 if 9 <= k < 18 else j.d2 for k, j in
                          enumerate(map(Jet2._lift, jets))], dtype=object)
        disagreement = float(np.max(np.abs(exact - est)))
        if disagreement > 1e-9:
            raise ConvergenceError(
                "closed-form and Richardson derivatives disagree by "
                f"{disagreement:.3e}")
        est = exact
    est = est.astype(float)
    A_ddot, B_dot = est[:9].reshape(3, 3), est[9:18].reshape(3, 3)
    lam_ddot = float(est[18])
    base = A_ddot + A_ddot.T - lam_ddot * np.eye(3)
    quad = B_dot @ B_dot.T
    return {
        "A_ddot": A_ddot,
        "B_dot": B_dot,
        "lambda_ddot": lam_ddot,
        "mm_residual_printed": float(np.max(np.abs(base - quad))),
        "mm_residual_factor2": float(np.max(np.abs(base - 2.0 * quad))),
    }
