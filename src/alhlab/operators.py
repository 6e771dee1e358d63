"""Differential operators: structure vector fields, Laplacians, mode
reduction, the first-order Hodge-de Rham systems, and blowup lifts.

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
* ``project_modes`` with ``product_model=True`` reduces the canonical
  product-type operator (radial b-density, trivial fibration) attached
  to the input's principal part; this is the only mode reduction offered
  for twisted operators away from the zero mode, since a nontrivial
  twist couples Fourier modes.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .config import ExactIdentityError
from .geometry import Chart, MetricField, metric_gh, volume_density, x_chart
from .linalg import solve
from .ratfun import RatFun, _as_ratfun

_ZERO = RatFun.const(0)
_ONE = RatFun.const(1)


class CouplingError(ValueError):
    """Mode projection requested where Fourier modes do not decouple."""


# ---------------------------------------------------------------------------
# vector fields
# ---------------------------------------------------------------------------

class VectorFieldExpr:
    """First-order homogeneous operator: coefficients against the
    coordinate frame of the chart."""

    __slots__ = ("chart", "coefficients")

    def __init__(self, chart: Chart, coefficients):
        coeffs = [_as_ratfun(c) for c in coefficients]
        if len(coeffs) != 4:
            raise ValueError("need exactly 4 coefficients")
        self.chart = chart
        self.coefficients = coeffs

    def apply(self, f) -> RatFun:
        return self.as_diffop().apply(f)

    def as_diffop(self) -> "DiffOpExpr":
        terms = {}
        for i, c in enumerate(self.coefficients):
            if not c.is_zero():
                idx = tuple(1 if j == i else 0 for j in range(4))
                terms[idx] = c
        return DiffOpExpr(self.chart, terms)

    def scale(self, f) -> "VectorFieldExpr":
        f = _as_ratfun(f)
        return VectorFieldExpr(self.chart, [f * c for c in self.coefficients])

    def __add__(self, other):
        if self.chart.variables != other.chart.variables:
            raise ValueError("different charts")
        return VectorFieldExpr(self.chart,
                               [a + b for a, b in zip(self.coefficients,
                                                      other.coefficients)])

    def __sub__(self, other):
        return self + other.scale(RatFun.const(-1))

    def __eq__(self, other):
        if not isinstance(other, VectorFieldExpr):
            return NotImplemented
        return (self.chart.variables == other.chart.variables
                and self.coefficients == other.coefficients)

    def __hash__(self):
        return hash(tuple(self.coefficients))

    def __repr__(self):
        bits = [f"({c}) d_{v}" for c, v in zip(self.coefficients,
                                               self.chart.variables)
                if not c.is_zero()]
        return " + ".join(bits) if bits else "0"


def lie_bracket(v: VectorFieldExpr, w: VectorFieldExpr) -> VectorFieldExpr:
    if v.chart.variables != w.chart.variables:
        raise ValueError("fields live on different charts")
    coeffs = [v.apply(w.coefficients[j]) - w.apply(v.coefficients[j])
              for j in range(4)]
    return VectorFieldExpr(v.chart, coeffs)


def structure_fields(kind: str, twisted: bool = False):
    """Generating vector fields of the three boundary structures.

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
        return [vf(c0=x)]
    if kind == "c":
        third = vf(c2=_ONE, c3=-y1) if twisted else vf(c2=_ONE)
        return [vf(c0=x * x), vf(c1=_ONE), third]
    if kind == "a":
        third = vf(c2=x, c3=-x * y1) if twisted else vf(c2=x)
        return [vf(c0=x ** 3), vf(c1=x), third, vf(c3=_ONE)]
    raise ValueError(f"unknown structure kind {kind!r}")


def frame_solve(fields, target: VectorFieldExpr):
    """Express ``target`` in the RatFun-span of four frame fields by an
    exact linear solve; raises ValueError if the frame is degenerate."""
    m = [[fields[j].coefficients[i] for j in range(4)] for i in range(4)]
    return solve(m, target.coefficients)


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
                clean[idx] = clean.get(idx, _ZERO) + val
        self.chart = chart
        self.terms = {i: v for i, v in clean.items() if not v.is_zero()}

    @classmethod
    def identity(cls, chart: Chart) -> "DiffOpExpr":
        return cls(chart, {(0, 0, 0, 0): _ONE})

    @classmethod
    def partial(cls, chart: Chart, var: str, order: int = 1) -> "DiffOpExpr":
        i = chart.variables.index(var)
        return cls(chart, {tuple(order if j == i else 0
                                 for j in range(4)): _ONE})

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
        if self.chart.variables != other.chart.variables:
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
        return (self.chart.variables == other.chart.variables
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
    if a.chart.variables != b.chart.variables:
        raise ValueError("different charts")
    chart = a.chart
    terms = {}
    for alpha, ca in a.terms.items():
        # enumerate gamma <= alpha componentwise
        ranges = [range(n + 1) for n in alpha]

        def rec(slot, gamma):
            if slot == 4:
                mult = 1
                for n, g in zip(alpha, gamma):
                    mult *= comb(n, g)
                for beta, cb in b.terms.items():
                    dcb = _derive_multi(chart, cb, gamma)
                    if dcb.is_zero():
                        continue
                    new = tuple(alpha[i] - gamma[i] + beta[i]
                                for i in range(4))
                    add = ca * dcb
                    if mult != 1:
                        add = add * RatFun.const(mult)
                    terms[new] = terms.get(new, _ZERO) + add
                return
            for g in ranges[slot]:
                rec(slot + 1, gamma + (g,))
        rec(0, ())
    return DiffOpExpr(chart, terms)


def vf_square(v: VectorFieldExpr) -> DiffOpExpr:
    op = v.as_diffop()
    return compose(op, op)


# ---------------------------------------------------------------------------
# Laplace-Beltrami assembly
# ---------------------------------------------------------------------------

def laplacian(g: MetricField) -> DiffOpExpr:
    """Laplace-Beltrami operator of a model metric on functions,
    assembled exactly from the inverse metric and volume density."""
    dens = volume_density(g)
    chart = g.chart
    ginv = g.inverse()
    terms = {}
    for i in range(4):
        for j in range(4):
            if ginv[i][j].is_zero():
                continue
            idx = tuple((1 if s == i else 0) + (1 if s == j else 0)
                        for s in range(4))
            terms[idx] = terms.get(idx, _ZERO) + ginv[i][j]
    for j in range(4):
        coeff = _ZERO
        for i in range(4):
            if ginv[i][j].is_zero():
                continue
            coeff = coeff + chart.derive(dens * ginv[i][j],
                                         chart.variables[i])
        if not coeff.is_zero():
            idx = tuple(1 if s == j else 0 for s in range(4))
            terms[idx] = terms.get(idx, _ZERO) + coeff / dens
    return DiffOpExpr(chart, terms)


def product_model_laplacian() -> DiffOpExpr:
    """The product-type model operator: sum of squares of the untwisted
    radial-cubed structure frame."""
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
    the radial variable.  An operator is never changed after it is
    built, so ``indicial.indicial_poly`` keeps its indicial polynomial
    (and with it the roots) in ``_indicial``.
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
            clean.append([{int(o): _as_ratfun(c) for o, c in cell.items()
                           if not _as_ratfun(c).is_zero()} for cell in row])
        self.entries = clean
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


def _scalar_reduced(mode, var, cells) -> ModeReducedOp:
    return ModeReducedOp(mode, var, [[cells]])


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
    kept = {e: c for e, c in coeff.num.terms.items()
            if e[2] == 0 and e[3] == 0}
    from .ratfun import Poly
    return RatFun(Poly(kept), coeff.den)


def project_modes(op: DiffOpExpr, k: int, m, product_model: bool = False
                  ) -> ModeReducedOp:
    """Fourier reduction at circle frequency k and torus frequency m.

    Without ``product_model``, the operator is substituted literally;
    a twisted operator is rejected away from the zero mode because its
    modes couple.  With ``product_model=True``, the principal part is
    checked against the canonical product-type operator, which is then
    reduced instead (radial b-density, trivial fibration).
    """
    m = (int(m[0]), int(m[1]))
    k = int(k)
    x = RatFun.var("x")
    if product_model:
        _check_product_principal(op)
        cells = {2: x ** 6, 1: RatFun.const(3) * x ** 5}
        zo = RatFun.const(-(m[0] ** 2 + m[1] ** 2)) * x * x \
            + RatFun.const(-(k ** 2))
        if not zo.is_zero():
            cells[0] = zo
        return _scalar_reduced((k, m), "x", cells)
    if _is_twisted(op) and (k, m) != (0, (0, 0)):
        raise CouplingError(
            "twisted operator couples nonzero Fourier modes; "
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
    return _scalar_reduced((k, m), "x",
                           {o: c for o, c in real_cells.items()
                            if not c.is_zero()})


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

def reduced_scalar_b() -> ModeReducedOp:
    """The rescaled scalar zero-mode operator x^2 (d/dx)^2 + 2x (d/dx)."""
    x = RatFun.var("x")
    return _scalar_reduced((0, (0, 0)), "x",
                           {2: x * x, 1: RatFun.const(2) * x})


def _xdx(shift: Fraction):
    """Cell for (x d/dx + shift)."""
    x = RatFun.var("x")
    cell = {1: x}
    if shift:
        cell[0] = RatFun.const(shift)
    return cell


def _neg(cell):
    return {o: -c for o, c in cell.items()}


def reduced_D00(parity: str) -> ModeReducedOp:
    """The 8x8 first-order zero-mode system of the rescaled Hodge-de Rham
    operator on even resp. odd coefficient vectors.

    Even rows act on (f0, f12, f13, f14, f23, f24, f34, f1234); odd rows
    on (f1, f2, f3, f4, f123, f124, f134, f234).
    """
    one = {0: _ONE}
    z: dict = {}

    def row(cells):
        assert len(cells) == 8
        return cells
    if parity == "even":
        xdx = lambda: _xdx(Fraction(0))
        xdxm1 = lambda: _xdx(Fraction(-1))
        rows = [
            row([xdx(), z, z, z, z, z, z, z]),
            row([z, _neg(xdx()), z, z, z, z, z, z]),
            row([z, z, _neg(xdx()), z, z, z, z, z]),
            row([z, z, z, _neg(xdxm1()), one, z, z, z]),
            row([z, z, z, _neg(one), xdxm1(), z, z, z]),
            row([z, z, z, z, z, xdx(), z, z]),
            row([z, z, z, z, z, z, xdx(), z]),
            row([z, z, z, z, z, z, z, _neg(xdx())]),
        ]
    elif parity == "odd":
        ph = lambda: _xdx(Fraction(1, 2))     # x d/dx + 1/2
        mh = lambda: _xdx(Fraction(-1, 2))    # x d/dx - 1/2
        rows = [
            row([_neg(mh()), z, z, z, z, z, z, z]),
            row([z, mh(), z, z, z, z, z, z]),
            row([z, z, mh(), z, z, z, z, z]),
            row([z, z, z, ph(), _neg(one), z, z, z]),
            row([z, z, z, one, _neg(ph()), z, z, z]),
            row([z, z, z, z, z, _neg(mh()), z, z]),
            row([z, z, z, z, z, z, _neg(mh()), z]),
            row([z, z, z, z, z, z, z, mh()]),
        ]
    else:
        raise ValueError("parity must be 'even' or 'odd'")
    return ModeReducedOp((0, (0, 0)), "x", rows)


# ---------------------------------------------------------------------------
# blowup lifts
# ---------------------------------------------------------------------------

_BLOWUP_CHARTS = {
    "b": ("s", "y1", "y2", "theta"),
    "c": ("s_prime", "y1", "y2", "theta"),
    "a": ("S", "Y1", "Y2", "theta"),
}


def blowup_chart(stage: str) -> Chart:
    vars4 = _BLOWUP_CHARTS[stage]
    dom = {vars4[0]: (Fraction(0), Fraction(4)),
           vars4[1]: (Fraction(0), Fraction(1)),
           vars4[2]: (Fraction(0), Fraction(1)),
           vars4[3]: None}
    return Chart(f"blowup-{stage}", vars4, dom)


def blowup_lift(field: VectorFieldExpr, stage: str) -> VectorFieldExpr:
    """Lift a structure generator through the radial blowups, written in
    the projective coordinate of the requested stage.

    Coordinates: s = x / xt, s' = (s - 1)/xt, S = s'/xt and
    Y_j = (y_j - yt_j)/xt, where xt ("x") and yt_1 ("y1") act as
    parameters of the blowup base point.
    """
    if stage not in _BLOWUP_CHARTS:
        raise ValueError(f"unknown blowup stage {stage!r}")
    ch = blowup_chart(stage)
    xt = RatFun.var("x")
    y1 = RatFun.var("y1")
    z = _ZERO

    # x expressed through the stage coordinate, divided by xt
    if stage == "b":
        s_fac = RatFun.var("s")
    elif stage == "c":
        s_fac = _ONE + xt * RatFun.var("s_prime")
    else:
        s_fac = _ONE + xt * xt * RatFun.var("S")
    # d/dx = xt^{-pow} * d/d(stage var)
    radial_pow = {"b": 1, "c": 2, "a": 3}[stage]
    fiber_scale = {"b": _ONE, "c": _ONE, "a": xt}[stage]

    gens = structure_fields("a", twisted=False)
    twisted_gen = structure_fields("a", twisted=True)[2]

    if field == gens[0]:     # cubed radial field
        coeff = (xt * s_fac) ** 3 / xt ** radial_pow
        return VectorFieldExpr(ch, [coeff, z, z, z])
    if field == gens[1]:     # x d/dy1
        coeff = (xt * s_fac) / fiber_scale
        return VectorFieldExpr(ch, [z, coeff, z, z])
    if field == gens[2]:     # x d/dy2, untwisted
        coeff = (xt * s_fac) / fiber_scale
        return VectorFieldExpr(ch, [z, z, coeff, z])
    if field == gens[3]:     # circle field: untouched by the blowups
        return VectorFieldExpr(ch, [z, z, z, _ONE])
    if field == twisted_gen:  # x (d/dy2 - y1 d/dtheta)
        coeff = (xt * s_fac) / fiber_scale
        if stage == "a":
            y1_here = y1 + xt * RatFun.var("Y1")
        else:
            y1_here = y1
        return VectorFieldExpr(ch, [z, z, coeff,
                                    -(xt * s_fac) * y1_here])
    raise ValueError("unsupported field: expected a structure generator")


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
        return _scalar_reduced((k, m), "S", cells)
    if component == "c":
        if m == (0, 0):
            raise ValueError("the intermediate component sees only "
                             "nonzero torus modes")
        cells = {2: _ONE, 0: RatFun.const(-(m[0] ** 2 + m[1] ** 2))}
        return _scalar_reduced((0, m), "s_prime", cells)
    if component == "b":
        s = RatFun.var("s")
        return _scalar_reduced((0, (0, 0)), "s",
                               {2: s * s, 1: RatFun.const(2) * s})
    raise ValueError(f"unknown component {component!r}")


# ---------------------------------------------------------------------------
# the first-order Hodge-de Rham matrix
# ---------------------------------------------------------------------------

class HodgeDeRhamMatrix:
    """4x4 block matrix of the first-order operator on the four-slot
    coefficient split of a degree-k form.

    Each entry is a list of terms (rational coefficient, half-integer
    radial power, symbol); "1" is multiplication, "ddx" the radial
    derivative, and the remaining symbols are the fiber-degree pieces
    (horizontal differential, circle differential and codifferential,
    and the constant curvature coupling).
    """

    def __init__(self, k: int):
        if not 0 <= k <= 4:
            raise ValueError("degree must be between 0 and 4")
        self.k = k
        half = Fraction(1, 2)

        def diag():
            return [(Fraction(1), half, "DB")]

        def upper():
            return [(Fraction(1), -half, "dF"), (Fraction(1), 3 * half, "Rstar")]

        def lower():
            return [(Fraction(1), -half, "deltaF"), (Fraction(1), 3 * half, "R")]

        def radial(factor: Fraction):
            out = []
            if factor:
                out.append((factor, 3 * half, "1"))
            out.append((Fraction(1), 5 * half, "ddx"))
            return out
        kk = Fraction(k)
        self.entries = [
            [diag(), upper(), radial(-(kk - 2) / 2), []],
            [lower(), diag(), [], radial(-kk / 2)],
            [radial(-(4 - kk) / 2), [], diag(), upper()],
            [[], radial(-(2 - kk) / 2), lower(), diag()],
        ]

    def entry(self, i: int, j: int):
        return list(self.entries[i][j])

    def radial_entry_as_terms(self, i: int, j: int):
        """(coeff, xpow, order) terms for a purely radial entry."""
        out = []
        for coeff, xpow, sym in self.entries[i][j]:
            if sym == "1":
                out.append((coeff, xpow, 0))
            elif sym == "ddx":
                out.append((coeff, xpow, 1))
            else:
                raise ValueError("entry is not purely radial")
        return out


def hodge_derham_matrix(k: int) -> HodgeDeRhamMatrix:
    return HodgeDeRhamMatrix(k)


def _compose_radial_terms(a, b):
    """Compose half-power radial terms (coeff, xpow, order <= 1 each)."""
    out = {}

    def add(c, p, o):
        key = (p, o)
        out[key] = out.get(key, Fraction(0)) + c
    for c1, p1, o1 in a:
        for c2, p2, o2 in b:
            if o1 == 0:
                add(c1 * c2, p1 + p2, o2)
            elif o1 == 1:
                # x^{p1} d (x^{p2} D^{o2}) = p2 x^{p1+p2-1} D^{o2}
                #                            + x^{p1+p2} D^{o2+1}
                if p2:
                    add(c1 * c2 * p2, p1 + p2 - 1, o2)
                add(c1 * c2, p1 + p2, o2 + 1)
            else:
                raise ValueError("only first-order factors supported")
    return [(c, p, o) for (p, o), c in sorted(out.items()) if c]


def hodge_derham_radial_square() -> DiffOpExpr:
    """Radial part of the squared first-order operator on the function
    slot of a 0-form: the composition of the two radial entries that
    connect the function slot through the degree-1 split.  All
    half-powers cancel, leaving an exact operator."""
    m0 = hodge_derham_matrix(0)
    m1 = hodge_derham_matrix(1)
    composed = _compose_radial_terms(m1.radial_entry_as_terms(3, 1),
                                     m0.radial_entry_as_terms(1, 3))
    ch = x_chart()
    terms = {}
    for c, p, o in composed:
        if p.denominator != 1:
            raise ExactIdentityError("half powers failed to cancel")
        coeff = RatFun.const(c) * RatFun.var("x", int(p))
        terms[(o, 0, 0, 0)] = terms.get((o, 0, 0, 0), _ZERO) + coeff
    return DiffOpExpr(ch, terms)
