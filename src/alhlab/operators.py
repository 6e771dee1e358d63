"""Differential operators: structure vector fields, Laplacians, mode
reduction, the zero-mode first-order Hodge-de Rham systems (derived from
``forms``), and blowup lifts.

Conventions
-----------
* ``laplacian(g)`` is the analyst's Laplace-Beltrami operator (positive
  leading radial coefficient, nonpositive spectrum); its negative is the
  geometer's operator, which agrees with ``(d + codifferential)**2`` on
  functions.
* Multi-indices are 4-tuples of derivative orders aligned with the chart
  variables; the last slot is the formal circle variable, so applying an
  operator to a RatFun kills every term that differentiates it, while
  mode projection substitutes ``i*k`` for it.
* A vector field is a first-order ``DiffOpExpr`` (``VectorFieldExpr``),
  so brackets, squares and sums use the one operator algebra.
* ``project_modes`` with ``product_model=True`` reduces the product-type
  model operator ``product_model_laplacian()`` (radial b-density, trivial
  fibration) once the input's principal part matches it; this is the
  only mode reduction offered for twisted operators at circle frequency
  k != 0, since a nontrivial twist couples Fourier modes there.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, prod
from types import MappingProxyType

from .config import ExactIdentityError
from .forms import FormField, _star, codifferential, ext_d, wedge
from .geometry import (Chart, MetricField, _calabi_root_metric, metric_gh,
                       x_chart)
from .linalg import solve
from .ratfun import Poly, RatFun, _as_ratfun

_ZERO = RatFun.const(0)
_ONE = RatFun.const(1)


class CouplingError(ValueError):
    """Mode projection requested where Fourier modes do not decouple."""


#: _UNITS[i] is the multi-index of one derivative in chart slot i
_UNITS = tuple(tuple(1 if j == i else 0 for j in range(4)) for i in range(4))


# ---------------------------------------------------------------------------
# scalar differential operators
# ---------------------------------------------------------------------------

class DiffOpExpr:
    """Finite sum of terms coefficient * partial^alpha on a chart."""

    __slots__ = ("chart", "terms")

    def __init__(self, chart: Chart, terms: dict):
        clean = {}
        for idx, val in terms.items():
            idx = tuple(int(i) for i in idx)
            if len(idx) != 4 or any(i < 0 for i in idx):
                raise ValueError(f"bad multi-index {idx}")
            val = _as_ratfun(val)
            if not val.is_zero():
                clean[idx] = clean[idx] + val if idx in clean else val
        self.chart = chart
        self.terms = {i: v for i, v in clean.items() if not v.is_zero()}

    def order(self) -> int:
        return max((sum(i) for i in self.terms), default=0)

    def coefficient(self, idx) -> RatFun:
        return self.terms.get(tuple(idx), _ZERO)

    def apply(self, f) -> RatFun:
        """Apply to a RatFun; the formal circle variable cannot occur in a
        RatFun, so terms differentiating it contribute zero."""
        f = _as_ratfun(f)
        out = _ZERO
        for idx, coeff in self.terms.items():
            g = _derive_multi(self.chart, f, idx)
            if not g.is_zero():
                out = out + coeff * g
        return out

    def __add__(self, other):
        if self.chart != other.chart:
            raise ValueError("different charts")
        terms = dict(self.terms)
        for idx, val in other.terms.items():
            terms[idx] = terms.get(idx, _ZERO) + val
        return DiffOpExpr(self.chart, terms)

    def __neg__(self):
        return DiffOpExpr(self.chart, {i: -v for i, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, f) -> "DiffOpExpr":
        """Left multiplication by a function."""
        f = _as_ratfun(f)
        return DiffOpExpr(self.chart, {i: f * v for i, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, DiffOpExpr):
            return NotImplemented
        return (self.chart == other.chart
                and self.terms == other.terms)

    def __hash__(self):
        return hash(tuple(sorted(self.terms)))

    def __repr__(self):
        if not self.terms:
            return "0"
        names = self.chart.variables
        bits = []
        for idx in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True):
            ds = "".join(f"d{names[i]}^{n}" if n > 1 else f"d{names[i]}"
                         for i, n in enumerate(idx) if n)
            bits.append(f"({self.terms[idx]}){' ' + ds if ds else ''}")
        return " + ".join(bits)


def _derive_multi(chart: Chart, f: RatFun, gamma) -> RatFun:
    g = f
    for slot, n in enumerate(gamma):
        var = chart.variables[slot]
        for _ in range(n):
            g = chart.derive(g, var)
            if g.is_zero():
                return _ZERO
    return g


def compose(a: DiffOpExpr, b: DiffOpExpr) -> DiffOpExpr:
    """Operator composition a o b via the Leibniz rule."""
    if a.chart != b.chart:
        raise ValueError("different charts")
    chart = a.chart
    terms = {}
    for alpha, ca in a.terms.items():
        # every gamma <= alpha componentwise
        for gamma in product(*(range(n + 1) for n in alpha)):
            mult = prod(comb(n, g) for n, g in zip(alpha, gamma))
            for beta, cb in b.terms.items():
                dcb = _derive_multi(chart, cb, gamma)
                if dcb.is_zero():
                    continue
                new = tuple(alpha[i] - gamma[i] + beta[i] for i in range(4))
                add = ca * dcb
                if mult != 1:
                    add = add * RatFun.const(mult)
                terms[new] = terms.get(new, _ZERO) + add
    return DiffOpExpr(chart, terms)


# ---------------------------------------------------------------------------
# vector fields
# ---------------------------------------------------------------------------

class VectorFieldExpr(DiffOpExpr):
    """First-order homogeneous operator, given by its coefficients against
    the coordinate frame of the chart."""

    __slots__ = ()

    def __init__(self, chart: Chart, coefficients):
        coefficients = list(coefficients)
        if len(coefficients) != 4:
            raise ValueError("need exactly 4 coefficients")
        super().__init__(chart, {_UNITS[i]: c
                                 for i, c in enumerate(coefficients)})

    @property
    def coefficients(self) -> list:
        """The four frame coefficients, zeros included."""
        return [self.coefficient(_UNITS[i]) for i in range(4)]


def vf_square(v: VectorFieldExpr) -> DiffOpExpr:
    return compose(v, v)


def lie_bracket(v: VectorFieldExpr, w: VectorFieldExpr) -> VectorFieldExpr:
    if v.chart != w.chart:
        raise ValueError("fields live on different charts")
    vc, wc = v.coefficients, w.coefficients
    return VectorFieldExpr(v.chart, [v.apply(wc[j]) - w.apply(vc[j])
                                     for j in range(4)])


@cache
def structure_fields(kind: str, twisted: bool = False) -> tuple:
    """Generating vector fields of the three boundary structures, built
    once per process and shared.

    kind 'a': {x^3 dx, x dy1, x dy2, dtheta}; 'b': {x dx};
    'c': {x^2 dx, dy1, dy2}.  With ``twisted=True`` the dy2 generator
    picks up the connection correction (dy2 - y1 dtheta).
    """
    ch = x_chart()
    x = RatFun.var("x")
    y1 = RatFun.var("y1")
    z = _ZERO

    def vf(c0=z, c1=z, c2=z, c3=z):
        return VectorFieldExpr(ch, [c0, c1, c2, c3])
    if kind == "b":
        return (vf(c0=x),)
    if kind == "c":
        third = vf(c2=_ONE, c3=-y1) if twisted else vf(c2=_ONE)
        return vf(c0=x * x), vf(c1=_ONE), third
    if kind == "a":
        third = vf(c2=x, c3=-x * y1) if twisted else vf(c2=x)
        return vf(c0=x ** 3), vf(c1=x), third, vf(c3=_ONE)
    raise ValueError(f"unknown structure kind {kind!r}")


def frame_solve(fields, target: VectorFieldExpr):
    """Express ``target`` in the RatFun-span of four frame fields by an
    exact linear solve; raises ValueError if the frame is degenerate."""
    m = [[fields[j].coefficients[i] for j in range(4)] for i in range(4)]
    return solve(m, target.coefficients)


# ---------------------------------------------------------------------------
# Laplace-Beltrami assembly
# ---------------------------------------------------------------------------

def laplacian(g: MetricField) -> DiffOpExpr:
    """Laplace-Beltrami operator of any metric on functions, assembled
    exactly from the inverse metric and D = det g: the first-order
    coefficient in slot j is sum_i d_i g^ij + g^ij d_i D / (2D)."""
    D, chart, ginv = g.det(), g.chart, g.inverse()
    half_dlog = [d if d.is_zero() else d / (RatFun.const(2) * D)
                 for d in (chart.derive(D, v) for v in chart.variables)]
    terms = {}

    def add(idx, val):
        if not val.is_zero():
            terms[idx] = terms[idx] + val if idx in terms else val
    for i, j in product(range(4), repeat=2):
        gij = ginv[i][j]
        if gij.is_zero():
            continue
        add(tuple(a + b for a, b in zip(_UNITS[i], _UNITS[j])), gij)
        add(_UNITS[j], chart.derive(gij, chart.variables[i]))
        if not half_dlog[i].is_zero():
            add(_UNITS[j], gij * half_dlog[i])
    return DiffOpExpr(chart, terms)


@cache
def product_model_laplacian() -> DiffOpExpr:
    """The product-type model operator: sum of squares of the untwisted
    radial-cubed structure frame, built once per process and shared."""
    fields = structure_fields("a", twisted=False)
    op = DiffOpExpr(x_chart(), {})
    for v in fields:
        op = op + vf_square(v)
    return op


def a_rescale_identity() -> bool:
    """Verify, as an exact operator identity, that x times the analyst's
    model Laplacian equals the grouped form: the sum of squares of the
    untwisted structure frame plus the lower-order group
    (-x^5 dx - 2x^2 y1 dy2 dtheta + x^2 y1^2 dtheta^2)."""
    x = RatFun.var("x")
    y1 = RatFun.var("y1")
    ch = x_chart()
    lhs = laplacian(metric_gh()).scale(x)
    rhs = product_model_laplacian() + DiffOpExpr(ch, {
        (1, 0, 0, 0): -(x ** 5),
        (0, 0, 1, 1): RatFun.const(-2) * x * x * y1,
        (0, 0, 0, 2): x * x * y1 * y1,
    })
    if lhs == rhs:
        return True
    raise ExactIdentityError(f"rescale identity failed; difference {lhs - rhs!r}")


# ---------------------------------------------------------------------------
# mode reduction
# ---------------------------------------------------------------------------

class ModeReducedOp:
    """Matrix-valued ordinary differential operator in one radial
    variable, obtained by Fourier reduction or transcription.

    ``entries[i][j]`` maps derivative order to a RatFun coefficient in
    the radial variable.  The entries are read-only (a tuple of tuples
    of ``MappingProxyType`` cells), so an operator is never changed after
    it is built and can be shared; ``indicial.indicial_poly`` keeps its
    indicial polynomial (and with it the roots) in ``_indicial``.
    """

    __slots__ = ("mode", "var", "size", "entries", "_indicial")

    def __init__(self, mode, var: str, entries):
        k, m = mode
        self.mode = (int(k), (int(m[0]), int(m[1])))
        self.var = var
        self.size = len(entries)
        clean = []
        for row in entries:
            if len(row) != self.size:
                raise ValueError("entries must be square")
            clean.append(tuple(MappingProxyType(
                {int(o): _as_ratfun(c) for o, c in cell.items()
                 if not _as_ratfun(c).is_zero()}) for cell in row))
        self.entries = tuple(clean)
        self._indicial = None

    @property
    def mode_class(self) -> str:
        k, m = self.mode
        if k != 0:
            return "theta_perp"
        if m != (0, 0):
            return "y_perp"
        return "zero"

    def order(self) -> int:
        return max((o for row in self.entries for cell in row for o in cell),
                   default=0)

    def coefficient(self, i: int, j: int, order: int) -> RatFun:
        return self.entries[i][j].get(order, _ZERO)

    def apply(self, funcs):
        """Apply to a vector of RatFun in the radial variable, exactly."""
        if len(funcs) != self.size:
            raise ValueError("vector length mismatch")
        fs = [_as_ratfun(f) for f in funcs]
        out = []
        for i in range(self.size):
            acc = _ZERO
            for j in range(self.size):
                for order, coeff in self.entries[i][j].items():
                    g = fs[j]
                    for _ in range(order):
                        g = g.derive(self.var)
                    if not g.is_zero():
                        acc = acc + coeff * g
            out.append(acc)
        return out

    def scale_left(self, f) -> "ModeReducedOp":
        f = _as_ratfun(f)
        return ModeReducedOp(self.mode, self.var,
                             [[{o: f * c for o, c in cell.items()}
                               for cell in row] for row in self.entries])

    def __eq__(self, other):
        if not isinstance(other, ModeReducedOp):
            return NotImplemented
        return (self.mode == other.mode and self.var == other.var
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.mode, self.var, self.size))

    def __repr__(self):
        if self.size == 1:
            cell = self.entries[0][0]
            bits = [f"({c}) D^{o}" if o else f"({c})"
                    for o, c in sorted(cell.items())]
            body = " + ".join(bits) or "0"
        else:
            body = f"{self.size}x{self.size} system"
        return f"ModeReducedOp(mode={self.mode}, {self.var}: {body})"


def _is_twisted(op: DiffOpExpr) -> bool:
    """True when some term differentiating the circle variable has a
    coefficient depending on the torus variables."""
    for idx, coeff in op.terms.items():
        if idx[3] >= 1 and (coeff.variables() & {"y1", "y2"}):
            return True
    return False


def _y_free_part(coeff: RatFun) -> RatFun:
    if coeff.den.variables() & {"y1", "y2"}:
        raise ValueError("denominator depends on torus variables")
    kept = coeff.num.coefficients_in("y1").get(0, Poly())
    return RatFun(kept.coefficients_in("y2").get(0, Poly()), coeff.den)


def project_modes(op: DiffOpExpr, k: int, m, product_model: bool = False
                  ) -> ModeReducedOp:
    """Fourier reduction at circle frequency k and torus frequency m.

    Without ``product_model``, the operator is substituted literally;
    a twisted operator is rejected at k != 0, where its modes couple (at
    k = 0 its torus-dependent terms all differentiate the circle).  With
    ``product_model=True``, the principal part is checked against the
    canonical product-type operator ``product_model_laplacian()``, which
    is then reduced instead (radial b-density, trivial fibration).
    """
    m = (int(m[0]), int(m[1]))
    k = int(k)
    if product_model:
        _check_product_principal(op)
        op = product_model_laplacian()
    elif _is_twisted(op) and k != 0:
        raise CouplingError(
            "twisted operator couples nonzero circle modes; "
            "use product_model=True for the product-type reduction")
    # substitute: d_y1 -> i m1, d_y2 -> i m2, d_theta -> i k
    real_cells: dict[int, RatFun] = {}
    for idx, coeff in op.terms.items():
        fiber_order = idx[1] + idx[2] + idx[3]
        factor = (m[0] ** idx[1]) * (m[1] ** idx[2]) * (k ** idx[3])
        if fiber_order % 2 == 1:
            if factor != 0:
                raise CouplingError(
                    "odd-order fiber term leaves an imaginary reduced "
                    "coefficient at this mode")
            continue
        sign = -1 if fiber_order % 2 == 0 and (fiber_order // 2) % 2 else 1
        val = coeff * RatFun.const(sign * factor)
        if val.is_zero():
            continue
        real_cells[idx[0]] = real_cells.get(idx[0], _ZERO) + val
    for order, coeff in real_cells.items():
        if coeff.variables() - {"x"}:
            raise CouplingError(
                "mode coupling: reduced coefficient still depends on "
                "fiber variables")
    return ModeReducedOp((k, m), "x", [[real_cells]])


def _check_product_principal(op: DiffOpExpr):
    x = RatFun.var("x")
    checks = [
        ((2, 0, 0, 0), x ** 6, False),
        ((0, 2, 0, 0), x * x, False),
        ((0, 0, 2, 0), x * x, True),
        ((0, 0, 0, 2), _ONE, True),
        ((1, 1, 0, 0), _ZERO, False),
        ((1, 0, 1, 0), _ZERO, False),
        ((1, 0, 0, 1), _ZERO, False),
    ]
    for idx, want, y_free_only in checks:
        got = op.coefficient(idx)
        if y_free_only:
            got = _y_free_part(got)
        if got != want:
            raise ValueError(
                f"operator is not of product type: coefficient at {idx} "
                f"is {got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# the reduced zero-mode operators
# ---------------------------------------------------------------------------

@cache
def reduced_scalar_b(var: str = "x") -> ModeReducedOp:
    """The rescaled scalar zero-mode operator x^2 (d/dx)^2 + 2x (d/dx),
    written in the radial variable ``var``: one shared operator per
    process and ``var``, which callers must not change."""
    x = RatFun.var(var)
    return ModeReducedOp((0, (0, 0)), var,
                         [[{2: x * x, 1: RatFun.const(2) * x}]])


#: the zero-mode frame forms of each parity, as index tuples into the
#: coframe (e0, e1, e2, e3)
_EVEN_FORMS = ((), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
               (0, 1, 2, 3))
_ODD_FORMS = ((0,), (1,), (2,), (3,), (0, 1, 2), (0, 1, 3), (0, 2, 3),
              (1, 2, 3))


@cache
def _d00_cells() -> dict:
    """parity -> the 8x8 cells of ``reduced_D00``, derived once per
    process from ``forms`` on the Gibbons-Hawking metric.

    In the root chart u^2 = x (the n = 2 Calabi formula) the metric is
    4u^-8 du^2 + u^-2 (dy1^2 + dy2^2) + u^2 Theta^2, Theta = dtheta +
    y1 dy2, with the orthonormal coframe e0 = 2u^-4 du, e1 = u^-1 dy1,
    e2 = u^-1 dy2, e3 = u Theta.  Since d/du = 2u d/dx, the e_J
    component of u^-3 (d + delta)(f(x) e_I), delta = -*d* as in
    ``forms.codifferential``, is 2u^-4 B_JI x f' + A_JI f with

        A_JI = u^-3 <(d + delta) e_I, e_J>,
        B_JI = <du ^ e_I, e_J> - <e_I, du ^ e_J>  (the symbol of d + delta),

    and <a, e_J> the top-degree coefficient of a ^ S e_J, where S =
    ``forms._star`` is the star without its density, so no square root is
    taken.  Rows are the outputs e_J, columns the inputs e_I.  A cell
    that is not constant raises ExactIdentityError.
    """
    g = _calabi_root_metric(2)
    ch = g.chart
    u = RatFun.var("x")  # the root chart's radial variable
    coframe = (FormField(ch, 1, {(0,): RatFun.const(2) * u ** -4}),
               FormField(ch, 1, {(1,): u ** -1}),
               FormField(ch, 1, {(2,): u ** -1}),
               FormField(ch, 1, {(2,): u * RatFun.var("y1"), (3,): u}))
    frame = {(): FormField.function(ch, _ONE)}
    for idx in sorted(_EVEN_FORMS + _ODD_FORMS, key=len)[1:]:
        frame[idx] = wedge(frame[idx[:-1]], coframe[idx[-1]])
    star = {idx: _star(e, g) for idx, e in frame.items()}
    d = {idx: ext_d(e) for idx, e in frame.items()}
    delta = {idx: codifferential(e, g) for idx, e in frame.items() if idx}
    du = FormField.coordinate_differential(ch, "x")
    du_wedge = {idx: wedge(du, e) for idx, e in frame.items()}
    scales = (RatFun.const(2) * u ** -4, u ** -3)
    x = RatFun.var("x")  # the radial variable of the reduced operator

    def inner_top(a, idx):
        """<a, e_idx>, as the top-degree coefficient."""
        return wedge(a, star[idx]).get((0, 1, 2, 3))

    def cell(J, I):
        """{1: the x d/dx coefficient, 0: the constant}, zeros omitted."""
        if len(J) == len(I) + 1:
            tops = (inner_top(du_wedge[I], J), inner_top(d[I], J))
        elif len(J) == len(I) - 1:
            tops = (-inner_top(du_wedge[J], I), inner_top(delta[I], J))
        else:
            return {}
        out = {order: t * s for order, t, s in zip((1, 0), tops, scales)
               if not t.is_zero()}
        if any(c.variables() for c in out.values()):
            raise ExactIdentityError(
                f"zero-mode cell ({J}, {I}) is not constant: {out}")
        if 1 in out:
            out[1] = out[1] * x
        return out

    return {parity: tuple(tuple(cell(J, I) for I in ins) for J in outs)
            for parity, ins, outs in (("even", _EVEN_FORMS, _ODD_FORMS),
                                      ("odd", _ODD_FORMS, _EVEN_FORMS))}


@cache
def reduced_D00(parity: str) -> ModeReducedOp:
    """The 8x8 first-order zero-mode system of the rescaled Hodge-de Rham
    operator x^(-3/2) (d + delta) of ``metric_gh()`` on even resp. odd
    coefficient vectors, derived from ``forms`` (see ``_d00_cells``): one
    shared operator per process and parity, which callers must not change.

    Even rows act on (f0, f12, f13, f14, f23, f24, f34, f1234); odd rows
    on (f1, f2, f3, f4, f123, f124, f134, f234).
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    return ModeReducedOp((0, (0, 0)), "x", _d00_cells()[parity])


def hodge_derham_radial_square() -> DiffOpExpr:
    """The radial operator -delta d on zero-mode functions f(x) of
    ``metric_gh()``, built with ``forms.ext_d`` and
    ``forms.codifferential`` and read off from its values on 1, x and
    x^2.  The sign is the analyst's: (d + delta)^2 = delta d on functions
    is the geometer's nonnegative Laplacian, and its negative agrees with
    ``laplacian(metric_gh())`` on zero modes, x^5 f'' + 2 x^4 f'."""
    g = metric_gh()
    x = RatFun.var("x")

    def minus_delta_d(f):
        f = FormField.function(g.chart, f)
        return -codifferential(ext_d(f), g).get(())
    p0, p1, p2 = (minus_delta_d(f) for f in (_ONE, x, x * x))
    first = p1 - p0 * x
    second = (p2 - RatFun.const(2) * first * x - p0 * x * x) \
        / RatFun.const(2)
    return DiffOpExpr(g.chart, {(2, 0, 0, 0): second, (1, 0, 0, 0): first,
                                (0, 0, 0, 0): p0})


# ---------------------------------------------------------------------------
# blowup lifts
# ---------------------------------------------------------------------------

_XT = RatFun.var("x")

#: stage -> (chart variables, x / xt in them, the power p of xt in
#: d/dx = xt^-p d/d(radial chart variable)), where xt ("x") is the
#: radial parameter of the blowup base point
_BLOWUP_STAGES = {
    "b": (("s", "y1", "y2", "theta"), RatFun.var("s"), 1),
    "c": (("s_prime", "y1", "y2", "theta"),
          _ONE + _XT * RatFun.var("s_prime"), 2),
    "a": (("S", "Y1", "Y2", "theta"), _ONE + _XT * _XT * RatFun.var("S"), 3),
}


def blowup_chart(stage: str) -> Chart:
    vars4 = _BLOWUP_STAGES[stage][0]
    dom = {vars4[0]: (Fraction(0), Fraction(4)),
           vars4[1]: (Fraction(0), Fraction(1)),
           vars4[2]: (Fraction(0), Fraction(1)),
           vars4[3]: None}
    return Chart(f"blowup-{stage}", vars4, dom)


def blowup_lift(field: VectorFieldExpr, stage: str) -> VectorFieldExpr:
    """Lift a vector field on the x-chart through the radial blowups: its
    pushforward under the blow-down map of the requested stage, in that
    stage's projective coordinates s = x / xt, s' = (s - 1)/xt, S = s'/xt
    and, at stage a, Y_j = (y_j - yt_j)/xt, where xt ("x") and yt_j
    ("y1", "y2") are parameters of the blowup base point."""
    if stage not in _BLOWUP_STAGES:
        raise ValueError(f"unknown blowup stage {stage!r}")
    if field.chart != x_chart():
        raise ValueError("blowup_lift lifts vector fields on the x-chart")
    _, x_over_xt, power = _BLOWUP_STAGES[stage]
    down = {"x": _XT * x_over_xt}
    scale = [_XT ** -power, _ONE, _ONE, _ONE]
    if stage == "a":
        down.update(y1=RatFun.var("y1") + _XT * RatFun.var("Y1"),
                    y2=RatFun.var("y2") + _XT * RatFun.var("Y2"))
        scale[1] = scale[2] = _XT ** -1
    return VectorFieldExpr(blowup_chart(stage), [
        c if c.is_zero() else c.subst(down) * f
        for c, f in zip(field.coefficients, scale)])


# ---------------------------------------------------------------------------
# front-face normal operators
# ---------------------------------------------------------------------------

def front_face_normal_op(component: str, k: int = 0, m=(0, 0)
                         ) -> ModeReducedOp:
    """Mode-wise normal operator at the front face of each blowup stage."""
    m = (int(m[0]), int(m[1]))
    k = int(k)
    if component == "a":
        if k == 0:
            raise ValueError("the fully-blown-up component sees only "
                             "nonzero circle modes")
        cells = {2: _ONE, 0: RatFun.const(-(m[0] ** 2 + m[1] ** 2 + k * k))}
        return ModeReducedOp((k, m), "S", [[cells]])
    if component == "c":
        if m == (0, 0):
            raise ValueError("the intermediate component sees only "
                             "nonzero torus modes")
        cells = {2: _ONE, 0: RatFun.const(-(m[0] ** 2 + m[1] ** 2))}
        return ModeReducedOp((0, m), "s_prime", [[cells]])
    if component == "b":
        return reduced_scalar_b("s")
    raise ValueError(f"unknown component {component!r}")
