"""Closed-form deformation families of boundary data and their
second-derivative report.

Each closed form is written once over the number type of t: Fractions
to evaluate, jets over them for the report, and a RatFun t for the exact
constraint checks in ``hk``; results are rounded once, as they leave the
module, to floats (3x3 matrices as nested lists, rows of columns).  Only
``config`` is imported at module level; ``ratfun`` is imported where a
RatFun is met and where the modulus radicand is expanded.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .config import ConvergenceError

__all__ = ["DeformationFamily", "Jet2", "family_calabi_scaling",
           "family_calabi_modulus", "second_derivative_report"]

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
    a jet, v = sqrt(f), v' = f'/2v and v'' = (f'' - 2 v'^2)/2v; for a
    Fraction (or int), a Fraction within 2^-170 and with at least
    ``_ROOT_BITS`` significant bits, so a tiny radicand keeps its digits;
    and for anything else, a RatFun radicand, the adjoined symbol c,
    which ``hk._holds_exactly`` reduces with c^2 = x."""
    if isinstance(x, Jet2):
        v = _sqrt(x.f)
        d1 = x.d1 / (2 * v)
        return Jet2(v, d1, (x.d2 - 2 * d1 * d1) / (2 * v))
    if isinstance(x, (int, Fraction)):
        n, d = x.numerator, x.denominator
        k = _ROOT_BITS + max(0, (d.bit_length() - n.bit_length()) // 2 + 1)
        return Fraction(isqrt((n << 2 * k) // d), 1 << k)
    from .ratfun import RatFun
    return RatFun.var("c")


def _checked(x):
    """x, once a numeric sample of it is known positive (a Fraction is
    compared exactly, as it may lie beyond the float range); a RatFun in
    t is the identity itself, not a sample."""
    sample = x.f if isinstance(x, Jet2) else x
    if isinstance(sample, (int, Fraction)) and sample <= 0:
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
    from .ratfun import Poly, exact_div
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

    The parameters enter as alpha t and beta t, and the Richardson
    quotients keep a truncation error relative to their size, which the
    absolute 1e-9 gate compares.  So, as for ``family_calabi_scaling``,
    the step is 1e-3/max(1, alpha^2, beta^2): 1e-3/max(1, |alpha|, |beta|)
    in the parameters, an error that falls as they grow.  With both
    nonzero it is at most |alpha|/(20 beta^2), as the root in b22 bends
    at t ~ alpha/beta^2."""
    al, be = Fraction(float(alpha)), Fraction(float(beta))
    step = Fraction(1e-3) / max(1, al * al, be * be)
    if al and be:
        step = min(step, abs(al) / (20 * be * be))
    return DeformationFamily(lambda t: _calabi_modulus(al, be, t), step)


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
