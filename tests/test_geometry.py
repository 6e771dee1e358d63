"""Charts, model metrics, exact curvature, and the finite-difference
cross-check."""

import random
import runpy
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alhlab import geometry
from alhlab.forms import FormField, hodge_star, wedge
from alhlab.geometry import (Chart, MetricField, christoffel, curvature,
                             metric_a, metric_calabi, metric_flat, metric_gh,
                             metric_gh_r, metric_model, r_chart, ricci,
                             riemann, scalar_curvature, volume_density,
                             x_chart)
from alhlab.linalg import det, is_positive_definite
from alhlab.ratfun import RatFun

from oracles import dense_christoffel, dense_riemann, fd_ricci

X = RatFun.var("x")
R = RatFun.var("r")
Y1 = RatFun.var("y1")


# ---------------------------------------------------------------------------
# charts and metric containers
# ---------------------------------------------------------------------------

def test_chart_needs_four_variables():
    with pytest.raises(ValueError):
        Chart("bad", ("x", "y1", "y2"))


def test_chart_angle_derivative_is_zero():
    ch = x_chart()
    assert ch.derive(X * Y1, "theta").is_zero()
    assert ch.derive(X * Y1, "y1") == X


def test_metric_must_be_symmetric():
    comps = [[RatFun.const(0)] * 4 for _ in range(4)]
    comps[0][1] = RatFun.const(1)
    with pytest.raises(ValueError):
        MetricField(x_chart(), comps)


def test_metric_inverse_exact():
    g = metric_gh()
    inv = g.inverse()
    for i in range(4):
        for j in range(4):
            s = RatFun.const(0)
            for m in range(4):
                s = s + g.entry(i, m) * inv[m][j]
            assert s == RatFun.const(1 if i == j else 0)


def test_metric_is_immutable_and_keeps_its_inverse():
    g = metric_gh()
    with pytest.raises(TypeError):
        g.components[0][0] = RatFun.const(1)
    inv = g.inverse()
    assert inv is g.inverse() and g.det() is g.det()
    assert isinstance(inv, tuple) and all(type(row) is tuple for row in inv)
    with pytest.raises(TypeError):
        inv[0][0] = RatFun.const(1)


def test_chart_domain_is_read_only():
    ch = x_chart()
    with pytest.raises(TypeError):
        ch.domain["x"] = (Fraction(0), Fraction(1))
    assert ch.domain["x"] == (Fraction(0), Fraction(1, 2))


def test_charts_compare_by_name_and_variables():
    """The calabi-root chart names its radial variable x too, but it is
    not the x-chart; equal charts hash alike."""
    root = Chart("calabi-root")
    assert root.variables == x_chart().variables
    assert root != x_chart()
    assert x_chart() == x_chart() and hash(x_chart()) == hash(x_chart())
    assert Chart("x", ("x", "y1", "y2", "t")) != x_chart()


def test_model_metrics_are_built_once_per_process():
    for build in (metric_gh_r, metric_a, metric_model):
        assert build() is build()
    assert metric_calabi(3) is metric_calabi(3)
    assert metric_calabi(3) is not metric_calabi(4)


def test_each_metric_is_inverted_once(monkeypatch):
    """curvature() and a double Hodge star factor each metric once: its
    frame, inverse and determinant are kept, not recomputed by each
    caller.  Counted on a metric built here, since ``metric_gh()`` is
    shared and may already hold them."""
    assert metric_gh() is metric_gh()
    calls = []
    eliminate = geometry._eliminate

    def counted(c):
        calls.append(c)
        return eliminate(c)
    monkeypatch.setattr(geometry, "_eliminate", counted)
    g = MetricField(x_chart(), metric_gh().components, "gh")
    curvature(g)
    inv = g.inverse()
    assert len(calls) == 1
    w = wedge(FormField.coordinate_differential(g.chart, "x"),
              FormField.coordinate_differential(g.chart, "theta"))
    hodge_star(hodge_star(w, g), g)
    # the Hodge stars reuse the frame and inverse that curvature() made
    assert len(calls) == 1 and g.inverse() is inv
    assert g.det() is g.det()


def test_singular_metric_raises_on_every_call():
    zero = RatFun.const(0)
    g = MetricField(x_chart(), [[zero] * 4 for _ in range(4)])
    for _ in range(2):
        with pytest.raises(ZeroDivisionError):
            g.inverse()


def test_positive_definite_on_samples():
    rng = random.Random(3)
    for g in (metric_gh(), metric_a(), metric_model(), metric_gh_r()):
        for _ in range(5):
            pt = g.chart.sample_point(rng)
            assert g.is_positive_definite_at(pt)


def test_frame_positivity_agrees_with_sylvester_on_the_components():
    """The frame test agrees with Sylvester's criterion on the evaluated
    components at 20 sample points of each of the 14 model metrics."""
    rng = random.Random(40)
    metrics = [metric_gh(), metric_gh_r(), metric_a(), metric_model(),
               metric_flat()] + [metric_calabi(n) for n in range(2, 11)]
    for g in metrics:
        for _ in range(20):
            pt = g.chart.sample_point(rng)
            want = is_positive_definite([[c.evaluate(pt) for c in row]
                                         for row in g.components])
            assert g.is_positive_definite_at(pt) == want, (g, pt)


def test_frame_positivity_on_indefinite_and_degenerate_metrics():
    """diag(1, 1, 1, 1) + y1 (dx dtheta + dtheta dx) is positive definite
    where y1^2 < 1 and indefinite where y1^2 > 1, as Sylvester's criterion
    says; a metric with an identically zero pivot is definite nowhere."""
    one, zero = RatFun.const(1), RatFun.const(0)
    c = [[one if i == j else zero for j in range(4)] for i in range(4)]
    c[0][3] = c[3][0] = Y1
    g = MetricField(x_chart(), c)
    for v in (Fraction(1, 2), Fraction(3, 2), Fraction(-2), Fraction(1)):
        pt = {"x": Fraction(1, 4), "y1": v, "y2": Fraction(1, 3),
              "theta": Fraction(0)}
        want = is_positive_definite([[e.evaluate(pt) for e in row]
                                     for row in c])
        assert g.is_positive_definite_at(pt) == want == (v * v < 1), v
    c = [[one if i == j else zero for j in range(4)] for i in range(4)]
    c[3][3] = zero
    c[0][3] = c[3][0] = one
    pt = {"x": Fraction(1, 4), "y1": Fraction(1, 2), "y2": Fraction(1, 3),
          "theta": Fraction(0)}
    assert not MetricField(x_chart(), c).is_positive_definite_at(pt)


# ---------------------------------------------------------------------------
# pinned model-metric components
# ---------------------------------------------------------------------------

def test_gh_components():
    g = metric_gh()
    assert g.entry(0, 0) == X ** -5
    assert g.entry(1, 1) == X ** -1
    assert g.entry(2, 2) == X ** -1 + X * Y1 * Y1
    assert g.entry(2, 3) == X * Y1
    assert g.entry(3, 3) == X
    assert g.entry(0, 1).is_zero() and g.entry(1, 2).is_zero()


def test_a_is_gh_over_x():
    ga, g = metric_a(), metric_gh()
    xin = X ** -1
    for i in range(4):
        for j in range(4):
            assert ga.entry(i, j) == xin * g.entry(i, j)


def test_model_is_x_times_gh():
    gm, g = metric_model(), metric_gh()
    for i in range(4):
        for j in range(4):
            assert gm.entry(i, j) == X * g.entry(i, j)
    assert gm.entry(3, 3) == X * X


def test_gh_r_components():
    g = metric_gh_r()
    assert g.entry(0, 0) == R
    assert g.entry(2, 2) == R + Y1 * Y1 / R
    assert g.entry(3, 3) == R ** -1
    assert g.det() == R * R


def test_calabi_family():
    g2 = metric_calabi(2)
    assert g2.entry(0, 0) == X ** -5       # coincides with the gh model
    g3 = metric_calabi(3)
    assert g3.entry(0, 0) == RatFun.const(9) * X ** -10
    assert g3.entry(3, 3) == X ** 4
    with pytest.raises(ValueError):
        metric_calabi(1)


def test_determinants():
    assert metric_gh().det() == X ** -6
    assert metric_a().det() == X ** -10
    assert metric_model().det() == X ** -2
    assert metric_calabi(3).det() == RatFun.const(9) * X ** -10


def test_volume_densities():
    assert volume_density(metric_gh()) == X ** -3
    assert volume_density(metric_model()) == X ** -1
    assert volume_density(metric_a()) == X ** -5
    assert volume_density(metric_gh_r()) == R
    assert volume_density(metric_flat()) == RatFun.const(1)


def test_volume_density_not_rational_is_an_error():
    # a metric whose determinant is not a perfect monomial square
    ch = x_chart()
    comps = [[RatFun.const(0)] * 4 for _ in range(4)]
    diag = [X + RatFun.const(1), RatFun.const(1), RatFun.const(1),
            RatFun.const(1)]
    for i in range(4):
        comps[i][i] = diag[i]
    g = MetricField(ch, comps)
    with pytest.raises(ValueError, match="monomial square"):
        volume_density(g)


# ---------------------------------------------------------------------------
# curvature, exact
# ---------------------------------------------------------------------------

def test_flat_metric_curvature_vanishes():
    cur = curvature(metric_flat())
    assert all(e.is_zero() for row in cur["ricci"] for e in row)
    assert cur["scalar"].is_zero()


def test_gh_is_ricci_flat_exactly():
    cur = curvature(metric_gh())
    for row in cur["ricci"]:
        for e in row:
            assert e.is_zero()
    assert cur["scalar"].is_zero()


def test_gh_riemann_not_flat():
    riem = curvature(metric_gh())["riemann"]
    assert any(not riem[l][i][j][k].is_zero()
               for l in range(4) for i in range(4)
               for j in range(4) for k in range(4))


def test_first_bianchi_exact():
    for g in (metric_gh(), metric_a(), metric_calabi(3)):
        riem = curvature(g)["riemann"]
        for l in range(4):
            for i in range(4):
                for j in range(4):
                    for k in range(4):
                        s = riem[l][i][j][k] + riem[l][j][k][i] \
                            + riem[l][k][i][j]
                        assert s.is_zero()


def test_christoffel_symmetry():
    gam = christoffel(metric_gh())
    for l in range(4):
        for i in range(4):
            for j in range(4):
                assert gam[l][i][j] == gam[l][j][i]


def test_a_metric_ricci_regression():
    """Frozen exact values at (x, y1) = (1/2, 0), cross-checked below by
    the finite-difference oracle."""
    cur = curvature(metric_a())
    pt = {"x": Fraction(1, 2), "y1": Fraction(0), "y2": Fraction(0),
          "theta": Fraction(0)}
    vals = [[cur["ricci"][j][k].evaluate(pt) for k in range(4)]
            for j in range(4)]
    expected = [
        [Fraction(-8), 0, 0, 0],
        [0, Fraction(1, 8), 0, 0],
        [0, 0, Fraction(1, 8), 0],
        [0, 0, 0, Fraction(-1, 32)],
    ]
    assert vals == expected
    assert cur["scalar"] == RatFun.const(Fraction(-3, 2)) * X ** 4


def test_gh_r_chart_also_ricci_flat():
    cur = curvature(metric_gh_r())
    for row in cur["ricci"]:
        for e in row:
            assert e.is_zero()


def _workloads(monkeypatch):
    """The benchmark's workload module, for its metric builders."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))  # workloads imports checks
    return runpy.run_path(str(perfbench / "workloads.py"))


def _gh_affine_builder(monkeypatch):
    """The benchmark's gh_affine_metric(a, b, d, c): the Gibbons-Hawking
    metric with V = a r + b y1 + d y2 + c and dA = *dV, Ricci-flat for every
    affine (hence harmonic) V."""
    return _workloads(monkeypatch)["gh_affine_metric"]


_AFFINE_GH = [(1, 0, 0, 1), (2, 3, 0, 5), (0, 4, 0, 7), (0, 0, 3, 2)]


def test_christoffel_arithmetic_on_the_model_metrics(monkeypatch):
    """christoffel() forms each first-kind symbol 2Gamma_{m,ij} once and
    raises it by the nonzero entries of g^-1 / 2: 754 RatFun + - * /
    calls (nested ones included) over the 12 model metrics of the
    exact-model benchmark, their inverses taken beforehand, where
    rebuilding the first-kind symbols once per upper index took 2,842."""
    wl = _workloads(monkeypatch)
    metrics = [wl["_metric"](name) for name in wl["MODEL_METRICS"]]
    for g in metrics:
        g.inverse()
    calls = []

    def counted(op):
        original = getattr(RatFun, op)

        def wrapped(*args):
            calls.append(op)
            return original(*args)
        return wrapped

    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(RatFun, op, counted(op))
    for g in metrics:
        christoffel(g)
    assert len(calls) == 754


def test_direct_ricci_is_the_riemann_contraction(monkeypatch):
    """ricci() in the metric's own frame equals sum_i Riem[i][j][i][k] of
    riemann(), num and den, on every benchmark model metric and on four
    affine Gibbons-Hawking metrics."""
    wl = _workloads(monkeypatch)
    metrics = [wl["_metric"](name) for name in wl["MODEL_METRICS"]]
    metrics += [wl["gh_affine_metric"](*abcd) for abcd in _AFFINE_GH]
    for g in metrics:
        riem = riemann(g)
        ric = ricci(g)
        for j in range(4):
            for k in range(4):
                want = RatFun.const(0)
                for i in range(4):
                    want = want + riem[i][j][i][k]
                got = ric[j][k]
                assert got.num == want.num and got.den == want.den, \
                    (g.name, j, k)


def test_curvature_matches_the_dense_loops(monkeypatch):
    """curvature() equals the dense reference loops, which use no index
    symmetry and skip no zero, component for component (num and den): the
    Christoffel symbols, the Riemann tensor, its Ricci contraction and the
    scalar, on every benchmark model metric, the flat metric and one affine
    Gibbons-Hawking metric."""
    wl = _workloads(monkeypatch)
    metrics = [wl["_metric"](name) for name in wl["MODEL_METRICS"]]
    metrics += [metric_flat(), wl["gh_affine_metric"](3, 0, 0, 2)]
    assert [g.name for g in metrics[:4]] == ["gh", "gh_r", "a", "model"]
    assert len(metrics) == 14

    def same(got, want, where):
        assert got.num == want.num and got.den == want.den, where

    for g in metrics:
        cur = curvature(g)
        ginv = g.inverse()
        gamma = dense_christoffel(g, ginv)
        riem = dense_riemann(g, gamma)
        scalar = RatFun.const(0)
        for l, i, j in np.ndindex(4, 4, 4):
            same(cur["christoffel"][l][i][j], gamma[l][i][j], (g.name, l, i, j))
            for k in range(4):
                same(cur["riemann"][l][i][j][k], riem[l][i][j][k],
                     (g.name, l, i, j, k))
        for j, k in np.ndindex(4, 4):
            ric = sum((riem[i][j][i][k] for i in range(4)), RatFun.const(0))
            same(cur["ricci"][j][k], ric, (g.name, "ricci", j, k))
            scalar = scalar + ginv[j][k] * ric
        same(cur["scalar"], scalar, (g.name, "scalar"))


def test_ricci_never_builds_riemann(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("ricci built the Riemann tensor")
    monkeypatch.setattr(geometry, "riemann", refuse)
    for g in (metric_gh(), metric_a(), metric_calabi(3)):
        ricci(g)


def _sympy_christoffel_at(a, b, d, c, point):
    """Christoffel symbols of the same metric, built and differentiated
    in sympy, at one rational point."""
    sp = pytest.importorskip("sympy")
    r, y1, y2, th = sp.symbols("r y1 y2 theta")
    coords = (r, y1, y2, th)
    V = a * r + b * y1 + d * y2 + c
    A = [b * y2, d * r, a * y1, 1]
    g = sp.Matrix(4, 4, lambda i, j: A[i] * A[j] / V
                  + (V if i == j < 3 else 0))
    at = {s: sp.Rational(point[s.name].numerator, point[s.name].denominator)
          for s in coords}
    ginv = g.subs(at).inv()
    dg = [[[sp.diff(g[m, j], coords[i]).subs(at) for j in range(4)]
           for m in range(4)] for i in range(4)]
    return [[[sum(ginv[l, m] * (dg[i][m][j] + dg[j][m][i] - dg[m][i][j])
                  for m in range(4)) / 2 for j in range(4)]
             for i in range(4)] for l in range(4)]


def test_two_variable_affine_gh_is_ricci_flat(monkeypatch):
    """V = 2r + 3y1 + 5 goes through the general gcd: the Ricci tensor is
    identically zero within the time bound, and the Christoffel symbols
    agree exactly with sympy at three seeded rational points."""
    gh_affine_metric = _gh_affine_builder(monkeypatch)
    start = time.monotonic()
    g = gh_affine_metric(2, 3, 0, 5)
    gamma = christoffel(g)
    ric = ricci(g)
    assert time.monotonic() - start < 20.0
    assert all(e.is_zero() for row in ric for e in row)
    rng = random.Random(29)
    for _ in range(3):
        pt = g.chart.sample_point(rng)
        want = _sympy_christoffel_at(2, 3, 0, 5, pt)
        for l in range(4):
            for i in range(4):
                for j in range(4):
                    got = gamma[l][i][j].evaluate(pt)
                    assert got == Fraction(int(want[l][i][j].p),
                                           int(want[l][i][j].q))


def test_three_variable_affine_gh_is_ricci_flat(monkeypatch):
    """V = 2r + 3y1 + 5y2 + 7 depends on every chart variable: the Ricci
    tensor is identically zero within the time bound, and the Christoffel
    symbols agree exactly with sympy at three seeded rational points."""
    gh_affine_metric = _gh_affine_builder(monkeypatch)
    start = time.monotonic()
    g = gh_affine_metric(2, 3, 5, 7)
    gamma = christoffel(g)
    ric = ricci(g)
    assert time.monotonic() - start < 20.0
    assert all(e.is_zero() for row in ric for e in row)
    rng = random.Random(31)
    for _ in range(3):
        pt = g.chart.sample_point(rng)
        want = _sympy_christoffel_at(2, 3, 5, 7, pt)
        for l in range(4):
            for i in range(4):
                for j in range(4):
                    got = gamma[l][i][j].evaluate(pt)
                    assert got == Fraction(int(want[l][i][j].p),
                                           int(want[l][i][j].q))


def _sympy_ricci_at(g, coords, points):
    """The Ricci tensor of the sympy metric g on coords, at each rational
    point, from the jets of g there, in this package's convention
    Ric_jk = d_j G^i_ik - d_i G^i_jk + G^i_jm G^m_ik - G^i_im G^m_jk."""
    sp = pytest.importorskip("sympy")
    r4 = range(4)
    dg = [g.diff(c) for c in coords]
    ddg = [[dg[a].diff(c) for c in coords] for a in r4]
    out = []
    for pt in points:
        at = {c: sp.Rational(pt[c.name].numerator, pt[c.name].denominator)
              for c in coords}
        ginv = g.subs(at).inv()
        d1 = [m.subs(at) for m in dg]
        d2 = [[m.subs(at) for m in row] for row in ddg]
        dginv = [-ginv * d1[a] * ginv for a in r4]

        def first(h, a, b, m):  # d_a g_mb + d_b g_ma - d_m g_ab, jets h
            return h[a][m, b] + h[b][m, a] - h[m][a, b]
        gamma = [[[sum(ginv[i, m] * first(d1, j, k, m) for m in r4) / 2
                   for k in r4] for j in r4] for i in r4]
        # dgamma[a][i][j][k] = d_a G^i_jk
        dgamma = [[[[sum(dginv[a][i, m] * first(d1, j, k, m)
                         + ginv[i, m] * first(d2[a], j, k, m)
                         for m in r4) / 2
                     for k in r4] for j in r4] for i in r4] for a in r4]
        out.append([[sum(dgamma[j][i][i][k] - dgamma[i][i][j][k]
                         + sum(gamma[i][j][m] * gamma[m][i][k]
                               - gamma[i][i][m] * gamma[m][j][k]
                               for m in r4) for i in r4)
                     for k in r4] for j in r4])
    return out


def _sympy_calabi_ricci_at(n, points):
    """The Ricci tensor of the Calabi root-chart metric of order n, built
    and differentiated in sympy, at each rational point."""
    sp = pytest.importorskip("sympy")
    coords = sp.symbols("x y1 y2 theta")
    q, y1 = coords[:2]
    circle = q ** (2 * n - 2)
    g = sp.Matrix([[n * n * q ** (-2 * n - 4), 0, 0, 0],
                   [0, q ** -2, 0, 0],
                   [0, 0, q ** -2 + circle * y1 ** 2, circle * y1],
                   [0, 0, circle * y1, circle]])
    return _sympy_ricci_at(g, coords, points)


@pytest.mark.parametrize("n", [16, 100])
def test_calabi_ricci_matches_sympy(n):
    """ricci(metric_calabi(n)) at n = 16 and 100, whose Ricci components
    reach degree 4n + 2, agrees exactly with sympy at three seeded
    rational points."""
    g = metric_calabi(n)
    ric = ricci(g)
    rng = random.Random(n)
    points = [g.chart.sample_point(rng) for _ in range(3)]
    for pt, want in zip(points, _sympy_calabi_ricci_at(n, points)):
        for j in range(4):
            for k in range(4):
                assert ric[j][k].evaluate(pt) == Fraction(
                    int(want[j][k].p), int(want[j][k].q)), (j, k)


def _twisted_bundle(x, y1, y2):
    """(b, h, A) of a non-flat circle bundle over a diagonal base."""
    return (1 + x, 2 + y1, 3 + x * y2), 1 / (1 + x ** 2), (y2, x, y1)


def _harmonic_gh_bundle(r, y1, y2):
    """(b, h, A) of the Gibbons-Hawking metric of the harmonic potential
    V = r^2 - y1^2 + 5 with A = 2 r y1 dy2, so that dA = *dV."""
    V = r ** 2 - y1 ** 2 + 5
    return (V, V, V), 1 / V, (0, 0, 2 * r * y1)


def _bundle_matrix(b, h, A):
    """sum_i b_i dx_i^2 + h (dtheta + sum_i A_i dx_i)^2 as a 4x4 matrix."""
    A = tuple(A) + (1,)
    return [[h * A[i] * A[j] + (b[i] if i == j < 3 else 0) for j in range(4)]
            for i in range(4)]


def _dense_matrix(x, y1, y2):
    """A dense polynomial metric, no circle bundle over a diagonal base."""
    return [[(3 + x if i == j else 0) + (x + (i + j) * y1 + i * j * y2) / 10
             for j in range(4)] for i in range(4)]


def _ricci_against_sympy(chart, matrix, seed):
    """The metric matrix(*base variables) on chart and its ricci(), which
    is checked exactly against sympy at three seeded rational points."""
    sp = pytest.importorskip("sympy")
    base = chart.variables[:3]
    g = MetricField(chart, matrix(*map(RatFun.var, base)))
    ric = ricci(g)
    coords = sp.symbols(chart.variables)
    rng = random.Random(seed)
    points = [chart.sample_point(rng) for _ in range(3)]
    wants = _sympy_ricci_at(sp.Matrix(matrix(*coords[:3])), coords, points)
    for pt, want in zip(points, wants):
        for j in range(4):
            for k in range(4):
                assert ric[j][k].evaluate(pt) == Fraction(
                    int(want[j][k].p), int(want[j][k].q)), (j, k)
    return g, ric


def test_twisted_circle_bundle_ricci_matches_sympy():
    """The frame route on b = (1 + x, 2 + y1, 3 + x y2), h = 1/(1 + x^2),
    A = (y2, x, y1): all 16 Ricci components are nonzero, and each agrees
    exactly with sympy at three seeded rational points."""
    g, ric = _ricci_against_sympy(
        x_chart(), lambda *v: _bundle_matrix(*_twisted_bundle(*v)), 37)
    assert geometry._circle_bundle(g) is not None
    assert not any(e.is_zero() for row in ric for e in row)


def test_harmonic_gh_ricci_matches_sympy():
    """The frame route on the Gibbons-Hawking metric of the non-affine
    harmonic V = r^2 - y1^2 + 5: the Ricci tensor is identically zero, and
    sympy agrees at three seeded rational points."""
    g, ric = _ricci_against_sympy(
        r_chart(), lambda *v: _bundle_matrix(*_harmonic_gh_bundle(*v)), 41)
    assert geometry._circle_bundle(g) is not None
    assert all(e.is_zero() for row in ric for e in row)


def test_dense_metric_ricci_matches_sympy():
    """The coordinate-frame route on the dense metric agrees exactly with
    sympy, whose Christoffel symbols share nothing with christoffel(), at
    three seeded rational points; all 16 components are nonzero."""
    g, ric = _ricci_against_sympy(x_chart(), _dense_matrix, 43)
    assert geometry._circle_bundle(g) is None
    assert not any(e.is_zero() for row in ric for e in row)


_BASE_VARS = tuple(RatFun.var(v) for v in ("x", "y1", "y2"))


def _monomial(exps):
    out = RatFun.const(1)
    for v, e in zip(_BASE_VARS, exps):
        out = out * v ** e
    return out


@st.composite
def _positive_eta(draw):
    """A monomial in x, y1, y2 times an affine form positive on the
    x-chart box: its constant exceeds the sum of |slope| times the
    box's side lengths."""
    exps = draw(st.tuples(st.integers(-3, 3), st.integers(0, 1),
                          st.integers(0, 1)))
    slopes = draw(st.lists(st.integers(-2, 2), min_size=3, max_size=3))
    const = 1 + draw(st.integers(0, 2)) + sum(map(abs, slopes))
    affine = RatFun.const(const) + sum(
        (RatFun.const(c) * v for c, v in zip(slopes, _BASE_VARS)),
        RatFun.const(0))
    return _monomial(exps) * affine


# a polynomial in x, y1, y2 of degree <= 2: up to two terms
_CONNECTION_COEFF = st.lists(
    st.tuples(st.integers(-2, 2),
              st.sampled_from([(a, b, c) for a in range(3) for b in range(3)
                               for c in range(3) if a + b + c <= 2])),
    max_size=2).map(lambda terms: sum(
        (RatFun.const(k) * _monomial(e) for k, e in terms), RatFun.const(0)))


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(st.lists(_positive_eta(), min_size=4, max_size=4),
       st.lists(_CONNECTION_COEFF, min_size=3, max_size=3))
def test_generated_bundle_frame_ricci_is_the_riemann_contraction(eta, L):
    """On generated circle bundles sum_i b_i dx_i^2 + h (dtheta +
    sum_i L_i dx_i)^2 over a diagonal base, eta = (b_0, b_1, b_2, h), the
    frame route of ricci() equals sum_i Riem[i][j][i][k] of
    riemann(g, christoffel(g)), which shares nothing with it but the
    chart's derivatives."""
    g = MetricField(x_chart(), _bundle_matrix(eta[:3], eta[3], L))
    assert geometry._circle_bundle(g) is not None
    riem = riemann(g, christoffel(g))
    ric = ricci(g)
    for j in range(4):
        for k in range(4):
            want = sum((riem[i][j][i][k] for i in range(4)), RatFun.const(0))
            assert ric[j][k] == want, (j, k)


def _check_factorization(g):
    """g times inverse() is the identity, det() is the cofactor
    determinant of the components and the scalar curvature is
    sum_jk g^jk Ric_jk, each exactly."""
    c, inv = g.components, g.inverse()
    zero = RatFun.const(0)
    for i in range(4):
        for j in range(4):
            got = sum((c[i][m] * inv[m][j] for m in range(4)), zero)
            assert got == RatFun.const(int(i == j)), (i, j)
    assert g.det() == det(c)
    ric = ricci(g)
    trace = sum((inv[j][k] * ric[j][k] for j in range(4) for k in range(4)),
                zero)
    assert scalar_curvature(g, ric) == trace


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(st.lists(_positive_eta(), min_size=4, max_size=4),
       st.lists(_CONNECTION_COEFF, min_size=3, max_size=3))
def test_generated_bundle_factorization(eta, L):
    """On generated circle bundles the one factorization is the bundle
    frame, and its inverse, determinant and scalar are exact."""
    g = MetricField(x_chart(), _bundle_matrix(eta[:3], eta[3], L))
    assert geometry._circle_bundle(g) is not None
    _check_factorization(g)


# an affine form in x, y1, y2 with small integer coefficients
_AFFINE = st.lists(st.integers(-2, 2), min_size=4, max_size=4).map(
    lambda k: sum((RatFun.const(a) * v for a, v in zip(k[1:], _BASE_VARS)),
                  RatFun.const(k[0])))


@st.composite
def _dense_symmetric(draw):
    """A symmetric matrix of affine forms, each diagonal entry shifted by
    10, so that no pivot of the elimination vanishes identically."""
    m = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            m[i][j] = m[j][i] = draw(_AFFINE) + (10 if i == j else 0)
    return m


@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(_dense_symmetric())
def test_dense_factorization(m):
    """On dense symmetric metrics the factorization pivots every
    coordinate in turn, and its inverse, determinant and scalar are
    exact."""
    _check_factorization(MetricField(x_chart(), m))


def test_circle_bundle_ricci_never_builds_christoffel(monkeypatch):
    """Every benchmark model metric, the flat metric and the affine
    Gibbons-Hawking metrics are circle bundles over a diagonal base, so
    ricci() takes the frame route and never calls christoffel()."""
    wl = _workloads(monkeypatch)
    metrics = [wl["_metric"](name) for name in wl["MODEL_METRICS"]]
    metrics += [metric_flat()]
    metrics += [wl["gh_affine_metric"](*abcd)
                for abcd in _AFFINE_GH + [(2, 3, 5, 7)]]

    def refuse(*args, **kwargs):
        raise AssertionError("ricci built the Christoffel symbols")
    monkeypatch.setattr(geometry, "christoffel", refuse)
    for g in metrics:
        ricci(g)


def test_dense_metric_ricci_takes_the_christoffel_route(monkeypatch):
    """A dense polynomial metric is no circle bundle over a diagonal base:
    ricci() builds the Christoffel symbols once, within the time bound,
    and equals sum_i Riem[i][j][i][k] of riemann(), num and den."""
    g = MetricField(x_chart(), _dense_matrix(
        *(RatFun.var(v) for v in ("x", "y1", "y2"))))
    assert geometry._circle_bundle(g) is None
    calls = []
    build = geometry.christoffel

    def counted(metric):
        calls.append(metric)
        return build(metric)
    monkeypatch.setattr(geometry, "christoffel", counted)
    start = time.monotonic()
    ric = ricci(g)
    assert time.monotonic() - start < 10.0
    assert calls == [g]
    riem = riemann(g)
    for j in range(4):
        for k in range(4):
            want = sum((riem[i][j][i][k] for i in range(4)), RatFun.const(0))
            assert ric[j][k].num == want.num and ric[j][k].den == want.den


@pytest.mark.parametrize("abcd", [(3, 0, 0, 2), (2, 3, 5, 7)])
def test_affine_gh_ricci_runs_no_heuristic_gcd(monkeypatch, abcd):
    """Every denominator of the affine Gibbons-Hawking metrics is a
    monomial times a power of V, kept factored: building the metric,
    inverting it and its Ricci tensor (exactly zero) call the heuristic
    integer gcd not once."""
    from alhlab import ratfun
    gh_affine_metric = _gh_affine_builder(monkeypatch)
    calls = []
    zz_gcd = ratfun._zz_gcd

    def counted(f, g):
        calls.append(1)
        return zz_gcd(f, g)

    monkeypatch.setattr(ratfun, "_zz_gcd", counted)
    ric = ricci(gh_affine_metric(*abcd))
    assert all(e.is_zero() for row in ric for e in row)
    assert len(calls) == 0


# ---------------------------------------------------------------------------
# finite-difference oracle agreement
# ---------------------------------------------------------------------------

def test_fd_oracle_gh_flatness():
    g = metric_gh()
    rng = random.Random(7)
    for _ in range(10):
        pt = g.chart.sample_point(rng)
        if pt["x"] < Fraction(1, 10):
            pt["x"] += Fraction(1, 10)
        assert np.max(np.abs(fd_ricci(g, pt))) < 1e-6


def test_fd_oracle_matches_exact_a_metric():
    r = fd_ricci(metric_a(), {"x": 0.5, "y1": 0.0, "y2": 0.3, "theta": 0.0})
    expected = np.diag([-8.0, 0.125, 0.125, -0.03125])
    assert np.max(np.abs(r - expected)) < 1e-6


def test_fd_oracle_matches_exact_calabi3():
    g = metric_calabi(3)
    cur = curvature(g)
    pt = {"x": Fraction(3, 4), "y1": Fraction(1, 4), "y2": Fraction(0),
          "theta": Fraction(0)}
    exact = np.array([[float(cur["ricci"][j][k].evaluate(pt))
                       for k in range(4)] for j in range(4)])
    num = fd_ricci(g, {k: float(v) for k, v in pt.items()})
    assert np.max(np.abs(num - exact)) < 1e-5
