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

Every metric is factored once, on first use, by symmetric elimination
that pivots the formal angle first: g = sum_a eta_a theta^a (x) theta^a
with dual frame E_a = d_a - sum_{b pivoted before a} (s_ab / eta_b) E_b,
s the Schur complement left by the earlier pivots.  The inverse is
sum_a E_a (x) E_a / eta_a, the determinant prod_a eta_a and the scalar
sum_a Ric(E_a, E_a) / eta_a.

:func:`ricci` never builds the Riemann tensor.  It contracts a frame
connection omega^a_bc = theta^a(nabla_{E_b} E_c) straight into

    Ric_bc = E_b T_c - sum_a E_a omega^a_bc + sum_ad omega^a_bd omega^d_ac
             - sum_d T_d omega^d_bc - sum_ad C^d_ba omega^a_dc,

with T_c = sum_a omega^a_ac, skipping zero factors, in one of two frames:

* **The metric's own frame**, when E_i = d_i - L_i d_theta for i < 3, so
  g = sum_i eta_i dx_i^2 + eta_3 (dtheta + sum_i L_i dx_i)^2 is a circle
  bundle over a diagonal base: every model metric and every
  Gibbons-Hawking metric V h_flat + V^-1 (dtheta + A)^2.  Its only
  structure functions are C^3_ij = d_j L_i - d_i L_j, Koszul's formula
  gives omega, and d_j = E_j + L_j E_3 returns Ricci to coordinates.  No
  inverse and no Christoffel symbol is built.
* **The coordinate frame**, for every other metric: E = d, omega = Gamma
  and C = 0.  The general frame E_a would give the same result, but its
  nested pivot denominators make it about a hundred times slower on the
  dense polynomial metric of ``tests/test_geometry.py``.

:func:`curvature` builds the Riemann tensor for its output anyway, so it
contracts that one (only additions).

The tensor loops do no work the index symmetries or a zero factor make
redundant.  g is symmetric and Gamma^l_jk = Gamma^l_kj, so each distinct
component is differentiated once and the derivative mirrored;
:func:`christoffel` forms each first-kind symbol 2Gamma_{m,ij} (i <= j)
once and raises it by the nonzero entries of g^-1 / 2; :func:`riemann`
computes the components with i < j only, mirroring
Riem[l][j][i][k] = -Riem[l][i][j][k].  It lists the nonzero Gamma^l_am
once for each (l, a), runs each contraction over those lists alone,
skipping a zero Gamma^m_bc, and forms each product Gamma^l_am Gamma^m_bc
once per unordered pair (b, c).  A derivative of zero, or along the
formal angle, and a difference with a zero operand are skipped too: on
the model metrics 39-44 of the 64 Christoffel symbols vanish
identically.  Canonical forms are unique, so none of this changes a
result.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from math import isqrt
from types import MappingProxyType

from .ratfun import Poly, RatFun, _as_ratfun

_ZERO = RatFun.const(0)
_ONE = RatFun.const(1)
_HALF = RatFun.const(Fraction(1, 2))
_SAMPLE_DENOMINATOR = 64  # sample points lie on the 1/64 grid of the box
_PIVOTS = (3, 0, 1, 2)  # the formal angle first


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
        """A random rational point of the open domain box (angle set to 0).
        No package code calls it: the tests, ``tests/test_geometry.py``
        among them, draw their sample points from it."""
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
    chart, factored once on first use (see the module docstring)."""

    __slots__ = ("chart", "components", "name", "_frame", "_inverse", "_det")

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
        self._frame = self._inverse = self._det = None

    def entry(self, i: int, j: int) -> RatFun:
        return self.components[i][j]

    def frame(self):
        """(eta, E) by coordinate, E[a][a] the object ``_ONE``."""
        if self._frame is None:
            self._frame = _eliminate(self.components)
        return self._frame

    def det(self) -> RatFun:
        if self._det is None:
            eta = self.frame()[0]
            self._det = eta[0] * eta[1] * eta[2] * eta[3]
        return self._det

    def inverse(self):
        """sum_a E_a (x) E_a / eta_a, as a tuple of tuples."""
        if self._inverse is None:
            eta, frame = self.frame()
            w = [[x if x.is_zero() else x / e for x in vec]
                 for e, vec in zip(eta, frame)]
            inv = {(j, k): _dot([u[j] for u in w], [v[k] for v in frame])
                   for j in range(4) for k in range(j, 4)}
            self._inverse = tuple(tuple(inv[min(j, k), max(j, k)]
                                        for k in range(4)) for j in range(4))
        return self._inverse

    def is_positive_definite_at(self, point: dict) -> bool:
        """Sylvester's criterion in pivot order, where each leading minor is
        a product of pivots: every eta_a > 0, and none identically zero."""
        try:
            eta = self.frame()[0]
        except ZeroDivisionError:
            return False
        return all(eta[a].evaluate(point) > 0 for a in _PIVOTS)

    def __repr__(self):
        return f"MetricField({self.name or 'anonymous'} on {self.chart.name}-chart)"


def _eliminate(c):
    """(eta, E) of the symmetric matrix c (see the module docstring), the
    ratios s_pq / eta_p kept in the pivot's column of the Schur matrix."""
    s = [list(row) for row in c]
    eta, E = [None] * 4, [None] * 4
    for n, p in enumerate(_PIVOTS):
        rest = [q for q in _PIVOTS[n + 1:] if not s[p][q].is_zero()]
        e = eta[p] = s[p][p]
        if e.is_zero():
            raise ZeroDivisionError("metric has an identically zero pivot")
        vec = [_ONE if j == p else _ZERO for j in range(4)]
        above = [(s[p][b], E[b]) for b in _PIVOTS[:n]
                 if not s[p][b].is_zero()]
        for j in _PIVOTS[:n] if above else ():
            x = _dot([l for l, _ in above], [fb[j] for _, fb in above])
            vec[j] = x if x.is_zero() else -x
        E[p] = tuple(vec)
        for q in rest:
            s[q][p] = s[p][q] / e
        for i, q in enumerate(rest):
            for r in rest[i:]:
                t = s[p][q] * s[r][p]
                s[q][r] = s[r][q] = _ZERO if s[q][r] == t else s[q][r] - t
    return tuple(eta), tuple(E)


def _dot(u, v):
    """sum_j u_j v_j over the nonzero products, not multiplying by ``_ONE``."""
    s = _ZERO
    for a, b in zip(u, v):
        if not (a.is_zero() or b.is_zero()):
            t = b if a is _ONE else a if b is _ONE else a * b
            s = t if s is _ZERO else s + t
    return s


# ---------------------------------------------------------------------------
# model metrics: each constructor returns one shared object per process,
# so it is factored once; callers must not change it
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
    """Gibbons-Hawking model metric in the x-chart:

    dx^2/x^5 + (dy1^2 + dy2^2)/x + x (dtheta + y1 dy2)^2.
    """
    x = RatFun.var("x")
    return _twisted_metric(x_chart(), "gh", x ** -5, x ** -1, x)


@cache
def metric_a() -> MetricField:
    """The conformally rescaled metric x^{-1} * gh (zero-Lie-derivative
    frame)."""
    f = RatFun.var("x", -1)
    return MetricField(x_chart(), [[f * c for c in row]
                                   for row in metric_gh().components], "a")


@cache
def metric_model() -> MetricField:
    """The conformally rescaled metric x * gh: the metric of
    ``curvature --metric model``."""
    f = RatFun.var("x")
    return MetricField(x_chart(), [[f * c for c in row]
                                   for row in metric_gh().components], "model")


@cache
def metric_gh_r() -> MetricField:
    """Gibbons-Hawking metric written in the r-chart (r = 1/x):

    r dr^2 + r (dy1^2 + dy2^2) + (dtheta + y1 dy2)^2 / r.
    """
    r = RatFun.var("r")
    return _twisted_metric(r_chart(), "gh_r", r, r, r ** -1)


@cache
def metric_calabi(n: int) -> MetricField:
    """Calabi-ansatz model of order n over a flat 2-torus divisor, one
    shared object per process and n.

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


def _plus(s, a, b):
    """s + a b, with no arithmetic for a zero product."""
    return s if a.is_zero() or b.is_zero() else s + a * b


def christoffel(g: MetricField):
    raising = [[(m, _HALF * x) for m, x in enumerate(row) if not x.is_zero()]
               for row in g.inverse()]
    dg = _mirrored_derivatives(g.chart, g.components)
    gamma = [[[_ZERO] * 4 for _ in range(4)] for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            first = []  # 2Gamma_{m,ij} = d_i g_mj + d_j g_mi - d_m g_ij
            for m in range(4):
                a, b = dg[i][m][j], dg[j][m][i]
                s = b if a.is_zero() else a if b.is_zero() else a + b
                first.append(_minus(s, dg[m][i][j]))
            for l in range(4):
                s = _ZERO
                for m, h in raising[l]:
                    s = _plus(s, h, first[m])
                gamma[l][i][j] = gamma[l][j][i] = s
    return gamma


def riemann(g: MetricField, gamma=None):
    if gamma is None:
        gamma = christoffel(g)
    # dgamma[i][l][j][k] = d_i Gamma^l_jk, symmetric in j and k
    dgamma = list(zip(*(_mirrored_derivatives(g.chart, gl) for gl in gamma)))
    # nonzero[l][a]: the pairs (m, Gamma^l_am) with Gamma^l_am nonzero
    nonzero = [[[(m, x) for m, x in enumerate(row) if not x.is_zero()]
                for row in gl] for gl in gamma]
    # Gamma^l_am Gamma^m_bc is symmetric in b and c: one product per pair
    products = {}
    riem = [[[[_ZERO] * 4 for _ in range(4)] for _ in range(4)] for _ in range(4)]
    for l in range(4):
        for i in range(4):
            for j in range(i + 1, 4):
                # sum_m Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik, its
                # terms by m and the Gamma^l_im one first: the order of
                # the dense loop, which fixes the term order of the sums
                terms = sorted([(m, 0, i, j, x) for m, x in nonzero[l][i]]
                               + [(m, 1, j, i, x) for m, x in nonzero[l][j]])
                for k in range(4):
                    s = _minus(dgamma[i][l][j][k], dgamma[j][l][i][k])
                    for m, minus, a, b, x in terms:
                        y = gamma[m][b][k]
                        if y.is_zero():
                            continue
                        key = (l, a, m, b, k) if b <= k else (l, a, m, k, b)
                        p = products.get(key)
                        if p is None:
                            p = products[key] = x * y
                        s = s - p if minus else s + p
                    riem[l][i][j][k] = s
                    riem[l][j][i][k] = -s
    return riem


def ricci(g: MetricField):
    """The Ricci tensor as a 4x4 matrix, in the metric's own frame or the
    coordinate frame (see the module docstring)."""
    bundle = _circle_bundle(g)
    if bundle is not None:
        return _frame_ricci(g.chart, *bundle)
    return _contract_ricci(g.chart, christoffel(g))


def _contract_ricci(chart, omega, struct=None):
    """The 10 components Ric_bc, b <= c, mirrored, from the connection
    omega[a][b][c] = omega^a_bc of a frame whose fields act on a
    coefficient as d_a (see the module docstring).  struct[a][b] = C^3_ab
    are its only structure functions, None for the coordinate frame."""
    dvars = chart.variables
    trace = [_dot([omega[a][a][c] for a in range(4)], (_ONE,) * 4)
             for c in range(4)]
    minus_trace = [-t for t in trace]
    nonzero = [[[(d, x) for d, x in enumerate(row) if not x.is_zero()]
                for row in wa] for wa in omega]
    ric = [[_ZERO] * 4 for _ in range(4)]
    for b in range(4):
        for c in range(b, 4):
            s = chart.derive(trace[c], dvars[b])
            for a in range(4):
                s = _minus(s, chart.derive(omega[a][b][c], dvars[a]))
                for d, x in nonzero[a][b]:
                    s = _plus(s, x, omega[d][a][c])
            for d in range(4):
                s = _plus(s, minus_trace[d], omega[d][b][c])
            if struct is not None:
                for a in range(3):  # -C^3_ba = C^3_ab
                    s = _plus(s, struct[a][b], omega[a][3][c])
            ric[b][c] = ric[c][b] = s
    return ric


def scalar_curvature(g: MetricField, ric) -> RatFun:
    """sum_a Ric(E_a, E_a) / eta_a, each Ric(E_a, E_a) summed before it is
    divided (the terms g^jk Ric_jk of calabi:8191 pass the degree limit)."""
    eta, frame = g.frame()
    scalar = _ZERO
    for e, vec in zip(eta, frame):
        q = _dot(vec, [x if x.is_zero() else _dot(vec, ric[k])
                       for k, x in enumerate(vec)])
        if not q.is_zero():
            scalar = scalar + q / e
    return scalar


def _circle_bundle(g: MetricField):
    """(eta, L) when the last coordinate is the formal angle and the
    metric's frame has E_i = d_i - L_i d_theta for i < 3, else None."""
    eta, E = g.frame()
    if g.chart.domain.get(g.chart.variables[3]) is None and all(
            E[i][j].is_zero() for i in range(3) for j in range(3) if j != i):
        return eta, [-E[i][3] for i in range(3)]
    return None


def _frame_ricci(chart, eta, L):
    """Ricci of sum_a eta_a theta^a (x) theta^a in the orthogonal frame
    E_i = d_i - L_i d_theta, E_3 = d_theta, returned to coordinates."""
    dvars = chart.variables
    # E_a acts on a coefficient as d_a, and as 0 along the formal angle;
    # [E_a, E_b] = C^3_ab E_3 with C^3_ab = E_b L_a - E_a L_b the only
    # structure functions
    dl = [[chart.derive(la, v) for v in dvars[:3]] for la in L]
    struct = [[_ZERO] * 4 for _ in range(4)]
    twist = [[_ZERO] * 4 for _ in range(4)]  # C^3_ab eta_3
    for a in range(3):
        for b in range(a + 1, 3):
            s = _minus(dl[a][b], dl[b][a])
            if not s.is_zero():
                t = s * eta[3]
                struct[a][b], struct[b][a] = s, -s
                twist[a][b], twist[b][a] = t, -t
    deta = [[chart.derive(e, v) for e in eta] for v in dvars]
    # Koszul's formula: omega[c][a][b] = g(nabla_{E_a} E_b, E_c) / eta_c
    # from 2 eta_c omega^c_ab = delta_bc E_a eta_b + delta_ac E_b eta_a
    # - delta_ab E_c eta_a + C^c_ab eta_c - C^b_ac eta_b - C^a_bc eta_a
    half = [_HALF / e for e in eta]
    omega = [[[_ZERO] * 4 for _ in range(4)] for _ in range(4)]
    for a in range(4):
        for b in range(4):
            for c in range(4):
                s = deta[a][b] if b == c else _ZERO
                if a == c:
                    s = s + deta[b][a]
                if a == b:
                    s = _minus(s, deta[c][a])
                if c == 3:
                    s = s + twist[a][b]
                if b == 3:
                    s = _minus(s, twist[a][c])
                if a == 3:
                    s = _minus(s, twist[b][c])
                if not s.is_zero():
                    omega[c][a][b] = half[c] * s
    ric = _contract_ricci(chart, omega, struct)
    # back to coordinates through d_j = E_j + L_j E_3
    rows = [[_plus(ric[j][k], L[j], ric[3][k]) for k in range(4)]
            for j in range(3)] + [ric[3]]
    out = [[None] * 4 for _ in range(4)]
    for j in range(4):
        for k in range(j, 4):
            v = rows[j][k] if k == 3 else _plus(rows[j][k], L[k], rows[j][3])
            out[j][k] = out[k][j] = v
    return out


def curvature(g: MetricField) -> dict:
    """Christoffel symbols, Riemann tensor, Ricci tensor and scalar, exactly.
    Ricci is contracted from the Riemann tensor built for the output."""
    gamma = christoffel(g)
    riem = riemann(g, gamma)
    ric = [[sum((riem[i][j][i][k] for i in range(4)), _ZERO)
            for k in range(4)] for j in range(4)]
    return {"christoffel": gamma, "riemann": riem, "ricci": ric,
            "scalar": scalar_curvature(g, ric)}


def volume_density(g: MetricField) -> RatFun:
    """sqrt(det g) as a RatFun, taken only where det g is a monomial
    square (true for every model metric); otherwise ValueError."""
    root = _monomial_sqrt(g.det())
    if root is None:
        raise ValueError("metric determinant is not a monomial square; "
                         "only a monomial square root is taken")
    return root


def _monomial_sqrt(f: RatFun):
    if f.is_zero():
        return _ZERO

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
