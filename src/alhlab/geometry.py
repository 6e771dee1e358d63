"""Charts, model metrics, and exact curvature.

All metric components are RatFun values on a 4-coordinate chart whose last
coordinate (``theta``) is a formal circle variable: it never occurs in any
coefficient, so derivatives along it vanish identically.

Curvature conventions (fixed so they are testable):

* ``Riem[l][i][j][k]``  is the ``d l``-component of ``[nabla_i, nabla_j] d_k``,
* ``Ric[j][k] = sum_i Riem[i][j][i][k]``,
* ``scalar = sum_{jk} ginv[j][k] Ric[j][k]``.

With this index order the Ricci tensor is the negative of the common
"sphere-positive" textbook convention; Ricci-flatness is of course
convention independent, and the finite-difference oracle in the test
suite uses the identical index order.

:func:`ricci` never builds the Riemann tensor.  With ``T_k = sum_i
Gamma^i_ik`` formed once it takes the 10 components j <= k of

    Ric_jk = d_j T_k - sum_i d_i Gamma^i_jk
             + sum_{i,m} Gamma^i_jm Gamma^m_ik - sum_m T_m Gamma^m_jk

and mirrors them.  :func:`curvature` builds the Riemann tensor for its
output anyway, so it contracts that one (only additions).

The tensor loops do no work the index symmetries or a zero factor make
redundant.  g is symmetric and Gamma^l_jk = Gamma^l_kj, so each distinct
component is differentiated once and the derivative mirrored;
:func:`riemann` forms each product Gamma^l_am Gamma^m_bc once per
unordered pair (b, c), and computes the components with i < j only,
mirroring Riem[l][j][i][k] = -Riem[l][i][j][k].  A derivative
of zero, or along the formal angle, and a product or a difference with a
zero operand are skipped: on the model metrics 39-44 of the 64
Christoffel symbols vanish identically.  Canonical forms are unique, so
none of this changes a result.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from math import isqrt
from types import MappingProxyType

from .linalg import (SingularMatrixError, det, inverse,
                     is_positive_definite)
from .ratfun import Poly, RatFun, _as_ratfun

_ZERO = RatFun.const(0)
_ONE = RatFun.const(1)
_SAMPLE_DENOMINATOR = 64  # sample points lie on the 1/64 grid of the box


class Chart:
    """An ordered 4-coordinate chart with a rational-box domain.

    The first variable is the radial one; its interval must stay strictly
    positive.  ``domain`` is a read-only mapping, so a chart can be shared.
    """

    __slots__ = ("name", "variables", "domain")

    def __init__(self, name, variables=("x", "y1", "y2", "theta"),
                 domain=None):
        variables = tuple(variables)
        if len(variables) != 4:
            raise ValueError("a chart has exactly 4 variables")
        if domain is None:
            domain = {
                variables[0]: (Fraction(0), Fraction(1, 2)),
                variables[1]: (Fraction(0), Fraction(1)),
                variables[2]: (Fraction(0), Fraction(1)),
                variables[3]: None,  # formal angle
            }
        lo, _hi = domain[variables[0]]
        if lo < 0:
            raise ValueError("radial interval must be positive")
        self.name = name
        self.variables = variables
        self.domain = MappingProxyType(dict(domain))

    @property
    def radial(self):
        return self.variables[0]

    def derive(self, f: RatFun, varname: str) -> RatFun:
        if varname not in self.variables:
            raise KeyError(f"{varname!r} is not a coordinate of chart {self.name}")
        f = _as_ratfun(f)
        if self.domain.get(varname) is None or f.is_zero():
            # coefficients never depend on the formal angle variable
            return _ZERO
        return f.derive(varname)

    def sample_point(self, rng: random.Random) -> dict:
        """A random rational point of the open domain box (angle set to 0)."""
        pt = {}
        for v in self.variables:
            box = self.domain.get(v)
            if box is None:
                pt[v] = Fraction(0)
                continue
            lo, hi = box
            k = rng.randint(1, _SAMPLE_DENOMINATOR - 1)
            pt[v] = lo + (hi - lo) * Fraction(k, _SAMPLE_DENOMINATOR)
        return pt

    def __eq__(self, other):
        """Charts are equal when their names and variables are: two charts
        may share variable names (the root chart's radial variable is
        also called x) without being the same coordinates."""
        if not isinstance(other, Chart):
            return NotImplemented
        return (self.name, self.variables) == (other.name, other.variables)

    def __hash__(self):
        return hash((self.name, self.variables))

    def __repr__(self):
        return f"Chart({self.name}: {', '.join(self.variables)})"


def x_chart() -> Chart:
    return Chart("x")


def r_chart() -> Chart:
    # image of x in (0, 1/2] under r = 1/x
    dom = {"r": (Fraction(2), Fraction(20)), "y1": (Fraction(0), Fraction(1)),
           "y2": (Fraction(0), Fraction(1)), "theta": None}
    return Chart("r", ("r", "y1", "y2", "theta"), dom)


class MetricField:
    """Immutable 4x4 symmetric RatFun matrix (a tuple of tuples) on a
    chart, which computes its inverse and determinant once, on first use."""

    __slots__ = ("chart", "components", "name", "_inverse", "_det")

    def __init__(self, chart: Chart, components, name=""):
        comps = tuple(tuple(_as_ratfun(components[i][j]) for j in range(4))
                      for i in range(4))
        for i in range(4):
            for j in range(i):
                if comps[i][j] != comps[j][i]:
                    raise ValueError(f"metric not symmetric at ({i},{j})")
        self.chart = chart
        self.components = comps
        self.name = name
        self._inverse = self._det = None

    def entry(self, i: int, j: int) -> RatFun:
        return self.components[i][j]

    def det(self) -> RatFun:
        if self._det is None:
            self._det = det(self.components)
        return self._det

    def inverse(self):
        """Exact inverse matrix, as a tuple of tuples."""
        if self._inverse is None:
            try:
                self._inverse = tuple(map(tuple, inverse(self.components)))
            except SingularMatrixError:
                raise ZeroDivisionError(
                    "metric determinant is identically zero") from None
        return self._inverse

    def evaluate(self, point: dict):
        return [[c.evaluate(point) for c in row] for row in self.components]

    def is_positive_definite_at(self, point: dict) -> bool:
        """Sylvester's criterion: every leading principal minor is positive."""
        return is_positive_definite(self.evaluate(point))

    def __repr__(self):
        return f"MetricField({self.name or 'anonymous'} on {self.chart.name}-chart)"


# ---------------------------------------------------------------------------
# model metrics: each is one shared object per process, so its inverse
# and determinant are computed once; callers must not change it
# ---------------------------------------------------------------------------

def _twisted_metric(chart: Chart, name: str, radial, torus, circle
                    ) -> MetricField:
    """radial d rho^2 + torus (dy1^2 + dy2^2) + circle Theta^2 on a chart
    with radial variable rho, where Theta = dtheta + y1 dy2 is the
    connection form of the circle bundle."""
    y1 = RatFun.var("y1")
    cross = circle * y1
    return MetricField(chart, [[radial, _ZERO, _ZERO, _ZERO],
                               [_ZERO, torus, _ZERO, _ZERO],
                               [_ZERO, _ZERO, torus + cross * y1, cross],
                               [_ZERO, _ZERO, cross, circle]], name=name)


@cache
def metric_gh() -> MetricField:
    """Gibbons-Hawking model metric in the x-chart, one shared object
    per process that callers must not change:

    dx^2/x^5 + (dy1^2 + dy2^2)/x + x (dtheta + y1 dy2)^2.
    """
    x = RatFun.var("x")
    return _twisted_metric(x_chart(), "gh", x ** -5, x ** -1, x)


@cache
def metric_a() -> MetricField:
    """The conformally rescaled metric x^{-1} * gh (zero-Lie-derivative
    frame), one shared object per process that callers must not change."""
    f = RatFun.var("x", -1)
    return MetricField(x_chart(), [[f * c for c in row]
                                   for row in metric_gh().components], "a")


@cache
def metric_model() -> MetricField:
    """The conformally rescaled metric x * gh: the metric of
    ``curvature --metric model``, one shared object per process that
    callers must not change."""
    f = RatFun.var("x")
    return MetricField(x_chart(), [[f * c for c in row]
                                   for row in metric_gh().components], "model")


@cache
def metric_gh_r() -> MetricField:
    """Gibbons-Hawking metric written in the r-chart (r = 1/x), one
    shared object per process that callers must not change:

    r dr^2 + r (dy1^2 + dy2^2) + (dtheta + y1 dy2)^2 / r.
    """
    r = RatFun.var("r")
    return _twisted_metric(r_chart(), "gh_r", r, r, r ** -1)


@cache
def metric_calabi(n: int) -> MetricField:
    """Calabi-ansatz model of order n over a flat 2-torus divisor, one
    shared object per process and n that callers must not change.

    n = 2 is the Gibbons-Hawking case and is returned on the plain x-chart
    (all exponents are integers there).  For n >= 3 the natural exponents
    have denominator n, so the chart radial variable is taken to be the
    n-th root of the boundary defining function (components below are in
    that root variable):

    n^2 q^{-2n-4} dq^2 + q^{-2}(dy1^2 + dy2^2) + q^{2n-2}(dtheta + y1 dy2)^2.

    The divisor metric is a desk-scale stand-in: flat unit torus with the
    unit-twist connection form.  For n >= 3 the result is therefore a
    4-dimensional stand-in that is not Ricci-flat (Ric_00 = 6/x^2 at n = 3).
    """
    if n < 2:
        raise ValueError("calabi family needs n >= 2")
    if n == 2:
        return MetricField(x_chart(), metric_gh().components, "calabi2")
    return _calabi_root_metric(n)


def _calabi_root_metric(n: int) -> MetricField:
    """The Calabi-ansatz formula of :func:`metric_calabi` in the root
    chart, for any n >= 2; its radial variable (named ``x``) is the n-th
    root of the boundary defining function.  At n = 2 this is the
    Gibbons-Hawking metric in the chart u^2 = x."""
    q = RatFun.var("x")
    return _twisted_metric(Chart("calabi-root"), f"calabi{n}",
                           RatFun.const(n * n) * q ** (-2 * n - 4), q ** -2,
                           q ** (2 * n - 2))


def metric_flat() -> MetricField:
    return MetricField(x_chart(), [[_ONE if i == j else _ZERO
                                    for j in range(4)] for i in range(4)],
                       name="flat")


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def _mirrored_derivatives(chart, sym):
    """d[i][a][b] = d_i sym[a][b] for a symmetric 4x4 table, each entry
    with a <= b differentiated once and mirrored."""
    out = [[[None] * 4 for _ in range(4)] for _ in range(4)]
    for i, v in enumerate(chart.variables):
        for a in range(4):
            for b in range(a, 4):
                out[i][a][b] = out[i][b][a] = chart.derive(sym[a][b], v)
    return out


def _minus(a, b):
    """a - b, with no arithmetic when b is zero."""
    return a if b.is_zero() else a - b


def christoffel(g: MetricField):
    ginv = g.inverse()
    dg = _mirrored_derivatives(g.chart, g.components)
    half = RatFun.const(Fraction(1, 2))
    gamma = [[[_ZERO] * 4 for _ in range(4)] for _ in range(4)]
    for l in range(4):
        for i in range(4):
            for j in range(i, 4):
                s = _ZERO
                for m in range(4):
                    if ginv[l][m].is_zero():
                        continue
                    b = dg[i][m][j] + dg[j][m][i] - dg[m][i][j]
                    if not b.is_zero():
                        s = s + ginv[l][m] * b
                if not s.is_zero():
                    gamma[l][i][j] = gamma[l][j][i] = half * s
    return gamma


def riemann(g: MetricField, gamma=None):
    if gamma is None:
        gamma = christoffel(g)
    # dgamma[i][l][j][k] = d_i Gamma^l_jk, symmetric in j and k
    dgamma = list(zip(*(_mirrored_derivatives(g.chart, gl) for gl in gamma)))
    # Gamma^l_am Gamma^m_bc is symmetric in b and c: one product per pair
    products = {}

    def product(l, a, m, b, c):
        key = (l, a, m, b, c) if b <= c else (l, a, m, c, b)
        p = products.get(key)
        if p is None:
            x, y = gamma[l][a][m], gamma[m][b][c]
            p = _ZERO if x.is_zero() or y.is_zero() else x * y
            products[key] = p
        return p

    riem = [[[[_ZERO] * 4 for _ in range(4)] for _ in range(4)] for _ in range(4)]
    for l in range(4):
        for i in range(4):
            for j in range(i + 1, 4):
                for k in range(4):
                    s = _minus(dgamma[i][l][j][k], dgamma[j][l][i][k])
                    for m in range(4):
                        p = product(l, i, m, j, k)
                        if not p.is_zero():
                            s = s + p
                        s = _minus(s, product(l, j, m, i, k))
                    riem[l][i][j][k] = s
                    riem[l][j][i][k] = -s
    return riem


def ricci(g: MetricField, gamma=None):
    """The 10 independent Ricci components straight from the Christoffel
    symbols (see the module docstring), mirrored to a 4x4 matrix."""
    chart = g.chart
    if gamma is None:
        gamma = christoffel(g)
    dvars = chart.variables
    trace = [sum((gamma[i][i][k] for i in range(4)), _ZERO)
             for k in range(4)]
    ric = [[_ZERO] * 4 for _ in range(4)]
    for j in range(4):
        for k in range(j, 4):
            s = chart.derive(trace[k], dvars[j])
            for i in range(4):
                s = _minus(s, chart.derive(gamma[i][j][k], dvars[i]))
                for m in range(4):
                    a, b = gamma[i][j][m], gamma[m][i][k]
                    if not (a.is_zero() or b.is_zero()):
                        s = s + a * b
            for m in range(4):
                a, b = trace[m], gamma[m][j][k]
                if not (a.is_zero() or b.is_zero()):
                    s = s - a * b
            ric[j][k] = ric[k][j] = s
    return ric


def curvature(g: MetricField) -> dict:
    """Christoffel symbols, Riemann tensor, Ricci tensor and scalar, exactly.
    Ricci is contracted from the Riemann tensor built for the output."""
    gamma = christoffel(g)
    riem = riemann(g, gamma)
    ric = [[sum((riem[i][j][i][k] for i in range(4)), _ZERO)
            for k in range(4)] for j in range(4)]
    ginv = g.inverse()
    scalar = _ZERO
    for j in range(4):
        for k in range(4):
            if not ric[j][k].is_zero():
                scalar = scalar + ginv[j][k] * ric[j][k]
    return {"christoffel": gamma, "riemann": riem, "ricci": ric,
            "scalar": scalar}


def volume_density(g: MetricField) -> RatFun:
    """sqrt(det g) as a RatFun.  The determinant must be a perfect monomial
    square (true for every model metric); otherwise ValueError."""
    root = _monomial_sqrt(g.det())
    if root is None:
        raise ValueError("metric determinant is not a monomial square, so "
                         "its volume density is not rational")
    return root


def _monomial_sqrt(f: RatFun):
    if f.is_zero():
        return RatFun.const(0)

    def poly_root(p: Poly):
        if not p.is_monomial():
            return None
        exp, coeff = p.leading()
        # a negative coefficient fails the square test: rn * rn >= 0
        rn, rd = isqrt(abs(coeff.numerator)), isqrt(coeff.denominator)
        if (any(e % 2 for e in exp) or rn * rn != coeff.numerator
                or rd * rd != coeff.denominator):
            return None
        return Poly({tuple(e // 2 for e in exp): Fraction(rn, rd)})
    rn, rd = poly_root(f.num), poly_root(f.den)
    if rn is None or rd is None:
        return None
    return RatFun(rn, rd)
