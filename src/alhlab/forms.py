"""Exterior calculus with exact rational-function coefficients.

A ``FormField`` of degree k stores its components on strictly increasing
k-tuples of coordinate indices.  Orientation is the coordinate order of
the chart (index 0, 1, 2, 3); note that an inversion of the radial
coordinate reverses this orientation, so self-dual means self-dual *in
the stated chart*.

The codifferential is ``-*d*`` on every degree (dimension four,
Riemannian signature), which makes ``(d + codifferential)^2`` on
functions the geometer's (nonnegative) Laplacian.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .geometry import Chart, MetricField, metric_gh_r, r_chart, volume_density
from .linalg import det
from .ratfun import RatFun, _as_ratfun

_ZERO = RatFun.const(0)
_ONE = RatFun.const(1)


class FormField:
    """Differential form with RatFun coefficients on a 4-coordinate chart."""

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
        self.comps = clean

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
                and self.chart.variables == other.chart.variables
                and self.comps == other.comps)

    def __hash__(self):
        return hash((self.degree, tuple(sorted(self.comps.items(),
                                               key=lambda t: t[0]))))

    def _check_compat(self, other):
        if self.chart.variables != other.chart.variables:
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
    """Sign of sorting the concatenation of two disjoint increasing tuples,
    or None if they overlap."""
    if set(a) & set(b):
        return None, None
    merged = a + b
    perm = sorted(range(len(merged)), key=lambda i: merged[i])
    # parity via explicit inversion count (tiny lengths)
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
              if perm[i] > perm[j])
    return tuple(sorted(merged)), -1 if inv % 2 else 1


def wedge(a: FormField, b: FormField) -> FormField:
    if a.chart.variables != b.chart.variables:
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
            pos = sum(1 for j in idx if j < i)
            new = tuple(sorted(idx + (i,)))
            term = coeff if pos % 2 == 0 else -coeff
            comps[new] = comps.get(new, _ZERO) + term
    return FormField(chart, a.degree + 1, comps)


def _inverse_gram(ginv, K, I) -> RatFun:
    """det of the inverse-metric Gram matrix between two increasing tuples."""
    if len(K) == 0:
        return _ONE
    mat = [[ginv[kr][ic] for ic in I] for kr in K]
    return det(mat)


def _complement_sign(K: tuple):
    comp = tuple(i for i in range(4) if i not in K)
    merged = K + comp
    inv = sum(1 for i in range(4) for j in range(i + 1, 4)
              if merged[i] > merged[j])
    return comp, (-1 if inv % 2 else 1)


def hodge_star(a: FormField, g: MetricField) -> FormField:
    """Hodge star in the chart's coordinate orientation.

    Requires the metric volume density to be exact (true for all model
    metrics).
    """
    if a.chart.variables != g.chart.variables:
        raise ValueError("form and metric live on different charts")
    dens = volume_density(g)
    if callable(dens):
        raise ValueError("hodge star needs an exact volume density")
    ginv = g.inverse()
    k = a.degree
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
        comp, sign = _complement_sign(K)
        term = dens * inner
        if sign < 0:
            term = -term
        comps[comp] = comps.get(comp, _ZERO) + term
    return FormField(a.chart, 4 - k, comps)


def codifferential(a: FormField, g: MetricField) -> FormField:
    """-*d* (all degrees, dimension four).  Zero on functions."""
    if a.degree == 0:
        return FormField.zero(a.chart, 0)
    return -hodge_star(ext_d(hodge_star(a, g)), g)


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


class PMBasis:
    """Standard triple of self-dual / anti-self-dual 2-forms on the
    r-chart of the cylindrical model, built from the connection form
    Theta = dtheta + y1 dy2:

        omega1(+/-) = dr ^ Theta       +/- r dy1 ^ dy2
        omega2(+/-) = dy1 ^ Theta      -/+ r dr ^ dy2
        omega3(+/-) = dy2 ^ Theta      +/- r dr ^ dy1

    The plus triple is self-dual for the cylindrical-model metric in the
    r-chart coordinate orientation, the minus triple anti-self-dual.
    """

    def __init__(self):
        self.chart = r_chart()
        self.metric = metric_gh_r()
        r = RatFun.var("r")
        y1 = RatFun.var("y1")
        ch = self.chart

        def mk(vec):
            return FormField(ch, 2, {PM_SLOTS[i]: vec[i] for i in range(6)})
        self.plus = [
            mk([_ZERO, y1, _ONE, r, _ZERO, _ZERO]),
            mk([_ZERO, -r, _ZERO, y1, _ONE, _ZERO]),
            mk([r, _ZERO, _ZERO, _ZERO, _ZERO, _ONE]),
        ]
        self.minus = [
            mk([_ZERO, y1, _ONE, -r, _ZERO, _ZERO]),
            mk([_ZERO, r, _ZERO, y1, _ONE, _ZERO]),
            mk([-r, _ZERO, _ZERO, _ZERO, _ZERO, _ONE]),
        ]

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
