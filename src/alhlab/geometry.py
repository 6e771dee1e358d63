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
"""

from __future__ import annotations

import random
from fractions import Fraction

from .linalg import SingularMatrixError, det, inverse
from .ratfun import Poly, RatFun, _as_ratfun

_ZERO = RatFun.const(0)
_ONE = RatFun.const(1)


class Chart:
    """An ordered 4-coordinate chart with a rational-box domain.

    The first variable is the radial one; its interval must stay strictly
    positive.  ``radial_root = n`` records that the chart radial variable is
    the n-th root of the reference boundary-defining function (used by the
    generalized Calabi family, whose natural exponents have denominator n).
    """

    __slots__ = ("name", "variables", "domain", "radial_root")

    def __init__(self, name, variables=("x", "y1", "y2", "theta"),
                 domain=None, radial_root=1):
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
        self.domain = domain
        self.radial_root = radial_root

    @property
    def radial(self):
        return self.variables[0]

    def derive(self, f: RatFun, varname: str) -> RatFun:
        if varname not in self.variables:
            raise KeyError(f"{varname!r} is not a coordinate of chart {self.name}")
        if self.domain.get(varname) is None:
            return _ZERO  # formal angle variable: coefficients never depend on it
        return _as_ratfun(f).derive(varname)

    def sample_point(self, rng: random.Random, denominator: int = 64) -> dict:
        """A random rational point of the open domain box (angle set to 0)."""
        pt = {}
        for v in self.variables:
            box = self.domain.get(v)
            if box is None:
                pt[v] = Fraction(0)
                continue
            lo, hi = box
            k = rng.randint(1, denominator - 1)
            pt[v] = lo + (hi - lo) * Fraction(k, denominator)
        return pt

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
    """4x4 symmetric RatFun matrix on a chart."""

    __slots__ = ("chart", "components", "name")

    def __init__(self, chart: Chart, components, name=""):
        comps = [[_as_ratfun(components[i][j]) for j in range(4)]
                 for i in range(4)]
        for i in range(4):
            for j in range(i):
                if comps[i][j] != comps[j][i]:
                    raise ValueError(f"metric not symmetric at ({i},{j})")
        self.chart = chart
        self.components = comps
        self.name = name

    def entry(self, i: int, j: int) -> RatFun:
        return self.components[i][j]

    def scale(self, f) -> "MetricField":
        f = _as_ratfun(f)
        return MetricField(self.chart,
                           [[f * c for c in row] for row in self.components],
                           name=self.name)

    def det(self) -> RatFun:
        return det(self.components)

    def inverse(self):
        """Exact inverse matrix."""
        try:
            return inverse(self.components)
        except SingularMatrixError:
            raise ZeroDivisionError(
                "metric determinant is identically zero") from None

    def evaluate(self, point: dict):
        return [[c.evaluate(point) for c in row] for row in self.components]

    def is_positive_definite_at(self, point: dict) -> bool:
        m = self.evaluate(point)
        for k in range(1, 5):
            sub = [[m[i][j] for j in range(k)] for i in range(k)]
            if det(sub) <= 0:
                return False
        return True

    def __repr__(self):
        return f"MetricField({self.name or 'anonymous'} on {self.chart.name}-chart)"


# ---------------------------------------------------------------------------
# model metrics
# ---------------------------------------------------------------------------

def metric_gh() -> MetricField:
    """Gibbons-Hawking model metric in the x-chart.

    dx^2/x^5 + (dy1^2 + dy2^2)/x + x (dtheta + y1 dy2)^2, expanded into
    coordinate components.
    """
    x = RatFun.var("x")
    y1 = RatFun.var("y1")
    g = [[_ZERO] * 4 for _ in range(4)]
    g[0][0] = x ** -5
    g[1][1] = x ** -1
    g[2][2] = x ** -1 + x * y1 * y1
    g[3][3] = x
    g[2][3] = g[3][2] = x * y1
    return MetricField(x_chart(), g, name="gh")


def metric_a() -> MetricField:
    """The conformally rescaled metric x^{-1} * gh (zero-Lie-derivative frame)."""
    m = metric_gh().scale(RatFun.var("x", -1))
    m.name = "a"
    return m


def metric_model() -> MetricField:
    """The rescaled model x * gh used for the Hodge-de Rham normalization."""
    m = metric_gh().scale(RatFun.var("x"))
    m.name = "model"
    return m


def metric_gh_r() -> MetricField:
    """Gibbons-Hawking metric written in the r-chart (r = 1/x):

    r dr^2 + r (dy1^2 + dy2^2) + (dtheta + y1 dy2)^2 / r.
    """
    r = RatFun.var("r")
    y1 = RatFun.var("y1")
    g = [[_ZERO] * 4 for _ in range(4)]
    g[0][0] = r
    g[1][1] = r
    g[2][2] = r + y1 * y1 / r
    g[3][3] = r ** -1
    g[2][3] = g[3][2] = y1 / r
    return MetricField(r_chart(), g, name="gh_r")


def metric_calabi(n: int) -> MetricField:
    """Calabi-ansatz model of order n over a flat 2-torus divisor.

    n = 2 is the Gibbons-Hawking case and is returned on the plain x-chart
    (all exponents are integers there).  For n >= 3 the natural exponents
    have denominator n, so the chart radial variable is taken to be the
    n-th root of the boundary defining function (components below are in
    that root variable; the chart records radial_root = n):

    n^2 q^{-2n-4} dq^2 + q^{-2}(dy1^2 + dy2^2) + q^{2n-2}(dtheta + y1 dy2)^2.

    The divisor metric is a desk-scale stand-in: flat unit torus with the
    unit-twist connection form.
    """
    if n < 2:
        raise ValueError("calabi family needs n >= 2")
    if n == 2:
        m = metric_gh()
        m.name = "calabi2"
        return m
    q = RatFun.var("x")
    y1 = RatFun.var("y1")
    g = [[_ZERO] * 4 for _ in range(4)]
    g[0][0] = RatFun.const(n * n) * q ** (-2 * n - 4)
    g[1][1] = q ** -2
    g[2][2] = q ** -2 + q ** (2 * n - 2) * y1 * y1
    g[3][3] = q ** (2 * n - 2)
    g[2][3] = g[3][2] = q ** (2 * n - 2) * y1
    chart = Chart("calabi-root", radial_root=n)
    return MetricField(chart, g, name=f"calabi{n}")


def metric_flat() -> MetricField:
    return MetricField(x_chart(), [[_ONE if i == j else _ZERO
                                    for j in range(4)] for i in range(4)],
                       name="flat")


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def christoffel(g: MetricField, ginv=None):
    chart = g.chart
    if ginv is None:
        ginv = g.inverse()
    comps = g.components
    dvars = chart.variables
    dg = [[[chart.derive(comps[m][j], dvars[i]) for j in range(4)]
           for m in range(4)] for i in range(4)]
    half = RatFun.const(Fraction(1, 2))
    gamma = [[[_ZERO] * 4 for _ in range(4)] for _ in range(4)]
    for l in range(4):
        for i in range(4):
            for j in range(i, 4):
                s = _ZERO
                for m in range(4):
                    if ginv[l][m].is_zero():
                        continue
                    s = s + ginv[l][m] * (dg[i][m][j] + dg[j][m][i] - dg[m][i][j])
                val = half * s
                gamma[l][i][j] = val
                gamma[l][j][i] = val
    return gamma


def riemann(g: MetricField, gamma=None):
    chart = g.chart
    if gamma is None:
        gamma = christoffel(g)
    dvars = chart.variables
    dgamma = [[[[chart.derive(gamma[l][j][k], dvars[i]) for k in range(4)]
                for j in range(4)] for l in range(4)] for i in range(4)]
    riem = [[[[_ZERO] * 4 for _ in range(4)] for _ in range(4)] for _ in range(4)]
    for l in range(4):
        for i in range(4):
            for j in range(i + 1, 4):
                for k in range(4):
                    s = dgamma[i][l][j][k] - dgamma[j][l][i][k]
                    for m in range(4):
                        s = s + gamma[l][i][m] * gamma[m][j][k] \
                              - gamma[l][j][m] * gamma[m][i][k]
                    riem[l][i][j][k] = s
                    riem[l][j][i][k] = -s
    return riem


def ricci(g: MetricField, riem=None):
    if riem is None:
        riem = riemann(g)
    ric = [[_ZERO] * 4 for _ in range(4)]
    for j in range(4):
        for k in range(4):
            s = _ZERO
            for i in range(4):
                s = s + riem[i][j][i][k]
            ric[j][k] = s
    return ric


def curvature(g: MetricField) -> dict:
    """Christoffel symbols, Riemann tensor, Ricci tensor and scalar, exactly."""
    ginv = g.inverse()
    gamma = christoffel(g, ginv)
    riem = riemann(g, gamma)
    ric = ricci(g, riem)
    scalar = _ZERO
    for j in range(4):
        for k in range(4):
            if not ric[j][k].is_zero():
                scalar = scalar + ginv[j][k] * ric[j][k]
    return {"christoffel": gamma, "riemann": riem, "ricci": ric,
            "scalar": scalar}


def volume_density(g: MetricField):
    """sqrt(det g) as a RatFun when the determinant is a perfect monomial
    square (true for every model metric); otherwise a float evaluator."""
    d = g.det()
    root = _monomial_sqrt(d)
    if root is not None:
        return root

    def evaluator(point):
        v = d.evaluate(point)
        return float(v) ** 0.5
    return evaluator


def _monomial_sqrt(f: RatFun):
    if f.is_zero():
        return RatFun.const(0)

    def poly_root(p: Poly):
        if not p.is_monomial():
            return None
        (exp, coeff), = p.terms.items()
        if any(e % 2 for e in exp):
            return None
        if coeff < 0:
            return None
        from math import isqrt
        rn, rd = isqrt(coeff.numerator), isqrt(coeff.denominator)
        if rn * rn != coeff.numerator or rd * rd != coeff.denominator:
            return None
        half = tuple(e // 2 for e in exp)
        return Poly({half: Fraction(rn, rd)})
    rn = poly_root(f.num)
    rd = poly_root(f.den)
    if rn is None or rd is None:
        return None
    return RatFun(rn, rd)
