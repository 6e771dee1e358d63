"""Exterior calculus with exact rational-function coefficients.

A ``FormField`` of degree k stores its components on strictly increasing
k-tuples of coordinate indices.  Orientation is the coordinate order of
the chart (index 0, 1, 2, 3); note that an inversion of the radial
coordinate reverses this orientation, so self-dual means self-dual *in
the stated chart*.

The codifferential is ``-*d*`` on every degree (dimension four,
Riemannian signature), which makes ``(d + codifferential)^2`` on
functions the geometer's (nonnegative) Laplacian.  With * = sqrt(D) S,
D = det g and S = ``_star``, it is -S(D d(S a) + dD ^ S a / 2): no root.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from types import MappingProxyType

from .geometry import Chart, MetricField, metric_gh_r, r_chart, volume_density
from .linalg import det
from .ratfun import RatFun, _as_ratfun

_ZERO = RatFun.const(0)
_ONE = RatFun.const(1)


class FormField:
    """Differential form with RatFun coefficients on a 4-coordinate chart.
    ``comps`` is a read-only mapping, so a form can be shared."""

    __slots__ = ("chart", "degree", "comps")

    def __init__(self, chart: Chart, degree: int, comps: dict):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        clean = {}
        for idx, val in comps.items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise ValueError(f"index {idx} has wrong length for degree {degree}")
            if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
                raise ValueError(f"index {idx} is not strictly increasing")
            if any(i < 0 or i > 3 for i in idx):
                raise ValueError(f"index {idx} out of range")
            val = _as_ratfun(val)
            if not val.is_zero():
                clean[idx] = val
        if degree > 4 and clean:
            raise ValueError("no nonzero forms above degree 4")
        self.chart = chart
        self.degree = degree
        self.comps = MappingProxyType(clean)

    # -- constructors -------------------------------------------------
    @classmethod
    def function(cls, chart: Chart, f) -> "FormField":
        return cls(chart, 0, {(): _as_ratfun(f)})

    @classmethod
    def coordinate_differential(cls, chart: Chart, var: str) -> "FormField":
        i = chart.variables.index(var)
        return cls(chart, 1, {(i,): _ONE})

    @classmethod
    def zero(cls, chart: Chart, degree: int) -> "FormField":
        return cls(chart, degree, {})

    # -- basic algebra ------------------------------------------------
    def get(self, idx) -> RatFun:
        return self.comps.get(tuple(idx), _ZERO)

    def is_zero(self) -> bool:
        return not self.comps

    def __eq__(self, other):
        if not isinstance(other, FormField):
            return NotImplemented
        return (self.degree == other.degree
                and self.chart == other.chart
                and self.comps == other.comps)

    def __hash__(self):
        return hash((self.degree, tuple(sorted(self.comps.items(),
                                               key=lambda t: t[0]))))

    def _check_compat(self, other):
        if self.chart != other.chart:
            raise ValueError("forms live on different charts")
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")

    def __add__(self, other):
        self._check_compat(other)
        comps = dict(self.comps)
        for idx, val in other.comps.items():
            comps[idx] = comps.get(idx, _ZERO) + val
        return FormField(self.chart, self.degree, comps)

    def __neg__(self):
        return FormField(self.chart, self.degree,
                         {i: -v for i, v in self.comps.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, f) -> "FormField":
        f = _as_ratfun(f)
        return FormField(self.chart, self.degree,
                         {i: f * v for i, v in self.comps.items()})

    def __repr__(self):
        if not self.comps:
            return f"FormField(0, degree {self.degree})"
        names = self.chart.variables
        bits = []
        for idx in sorted(self.comps):
            mono = "^".join(f"d{names[i]}" for i in idx) or "1"
            bits.append(f"({self.comps[idx]}) {mono}")
        return " + ".join(bits)


def _merge_sign(a: tuple, b: tuple):
    """Sorted union of two increasing index tuples and the sign of the
    permutation sorting their concatenation, or (None, None) if they
    overlap.  The one permutation-sign rule of wedge, ext_d and the Hodge
    star."""
    if set(a) & set(b):
        return None, None
    inv = sum(1 for i in a for j in b if i > j)
    return tuple(sorted(a + b)), -1 if inv % 2 else 1


def wedge(a: FormField, b: FormField) -> FormField:
    if a.chart != b.chart:
        raise ValueError("forms live on different charts")
    comps = {}
    for ia, va in a.comps.items():
        for ib, vb in b.comps.items():
            idx, sign = _merge_sign(ia, ib)
            if idx is None:
                continue
            term = va * vb
            if sign < 0:
                term = -term
            comps[idx] = comps.get(idx, _ZERO) + term
    return FormField(a.chart, a.degree + b.degree, comps)


def ext_d(a: FormField) -> FormField:
    chart = a.chart
    comps = {}
    for idx, val in a.comps.items():
        for i in range(4):
            if i in idx:
                continue
            coeff = chart.derive(val, chart.variables[i])
            if coeff.is_zero():
                continue
            new, sign = _merge_sign((i,), idx)
            term = coeff if sign > 0 else -coeff
            comps[new] = comps.get(new, _ZERO) + term
    return FormField(chart, a.degree + 1, comps)


def _inverse_gram(ginv, K, I) -> RatFun:
    """det of the inverse-metric Gram matrix between two increasing tuples."""
    if len(K) == 0:
        return _ONE
    mat = [[ginv[kr][ic] for ic in I] for kr in K]
    return det(mat)


def _star(a: FormField, g: MetricField) -> FormField:
    """The Hodge star divided by the volume density: S with * = sqrt(D) S,
    D = det g, in the chart's coordinate orientation."""
    if a.chart != g.chart:
        raise ValueError("form and metric live on different charts")
    ginv, k = g.inverse(), a.degree
    comps = {}
    for K in combinations(range(4), k):
        inner = _ZERO
        for I, val in a.comps.items():
            gram = _inverse_gram(ginv, K, I)
            if gram.is_zero():
                continue
            inner = inner + gram * val
        if inner.is_zero():
            continue
        comp = tuple(i for i in range(4) if i not in K)
        _, sign = _merge_sign(K, comp)
        comps[comp] = inner if sign > 0 else -inner
    return FormField(a.chart, 4 - k, comps)


def hodge_star(a: FormField, g: MetricField) -> FormField:
    """Hodge star in the chart's coordinate orientation; det g must be a
    monomial square (``volume_density``), as on every model metric."""
    return _star(a, g).scale(volume_density(g))


def codifferential(a: FormField, g: MetricField) -> FormField:
    """-*d* (all degrees, dimension four), as -S(D d(S a) + dD ^ S a / 2)
    with S = ``_star`` and D = det g.  Zero on functions."""
    if a.degree == 0:
        return FormField.zero(a.chart, 0)
    D, s = g.det(), _star(a, g)
    dD = ext_d(FormField.function(a.chart, D))
    return -_star(ext_d(s).scale(D) + wedge(dD, s).scale(Fraction(1, 2)), g)


def sd_asd_split(a: FormField, g: MetricField):
    """Split a 2-form into its self-dual and anti-self-dual parts."""
    if a.degree != 2:
        raise ValueError("sd_asd_split acts on 2-forms")
    half = RatFun.const(Fraction(1, 2))
    star = hodge_star(a, g)
    plus = (a + star).scale(half)
    minus = (a - star).scale(half)
    return plus, minus


# ---------------------------------------------------------------------------
# the standard (anti-)self-dual basis at the cylindrical end
# ---------------------------------------------------------------------------

# component slots used when flattening 2-forms on the r-chart
PM_SLOTS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def sd_asd_triples(dr: FormField, e1: FormField, e2: FormField,
                   theta: FormField):
    """The (self-dual, anti-self-dual) pair of triples of a coframe
    (dr, e1, e2, theta) on a chart with radial variable r:

        omega1(+/-) = dr ^ theta +/- r e1 ^ e2
        omega2(+/-) = e1 ^ theta +/- r e2 ^ dr
        omega3(+/-) = e2 ^ theta +/- r dr ^ e1
    """
    r = RatFun.var(dr.chart.radial)
    pairs = [(wedge(a, theta), wedge(b, c).scale(r))
             for a, b, c in ((dr, e1, e2), (e1, e2, dr), (e2, dr, e1))]
    return [a + b for a, b in pairs], [a - b for a, b in pairs]


@cache
def _pm_triples():
    """The plus and minus triples of ``PMBasis``, derived once per
    process; FormFields are read-only, so every basis shares them."""
    ch = r_chart()
    dr, dy1, dy2, dtheta = (FormField.coordinate_differential(ch, v)
                            for v in ch.variables)
    plus, minus = sd_asd_triples(
        dr, dy1, dy2, dtheta + dy2.scale(RatFun.var("y1")))
    return tuple(plus), tuple(minus)


class PMBasis:
    """Standard triple of self-dual / anti-self-dual 2-forms on the
    r-chart of the cylindrical model: the triples of ``sd_asd_triples``
    for the coframe (dr, dy1, dy2, Theta) with the connection form
    Theta = dtheta + y1 dy2.  The plus triple is self-dual for the
    cylindrical-model metric in the r-chart coordinate orientation, the
    minus triple anti-self-dual.
    """

    def __init__(self):
        self.chart = r_chart()
        self.metric = metric_gh_r()
        self.plus, self.minus = _pm_triples()

    def all_six(self):
        return list(self.plus) + list(self.minus)

    @staticmethod
    def coefficient_vector(form: FormField):
        """Flatten a 2-form into the 6-slot coefficient vector."""
        if form.degree != 2:
            raise ValueError("need a 2-form")
        return [form.get(slot) for slot in PM_SLOTS]

    def volume_form(self) -> FormField:
        """Coordinate volume form dr ^ dy1 ^ dy2 ^ dtheta."""
        return FormField(self.chart, 4, {(0, 1, 2, 3): _ONE})
