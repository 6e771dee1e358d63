"""Exterior algebra, Hodge star, and the (anti-)self-dual basis."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alhlab import forms as forms_module
from alhlab.forms import (PM_SLOTS, FormField, PMBasis, codifferential,
                          ext_d, hodge_star, sd_asd_split, wedge)
from alhlab.geometry import (metric_a, metric_calabi, metric_flat,
                             metric_gh, metric_gh_r, metric_model, x_chart)
from alhlab.hk import Triple
from alhlab.ratfun import Poly, RatFun

X = RatFun.var("x")
Y1 = RatFun.var("y1")
CH = x_chart()


# ---------------------------------------------------------------------------
# strategies: random polynomial-coefficient forms on the x-chart
# ---------------------------------------------------------------------------

def _coeffs():
    fractions = st.builds(Fraction,
                          st.integers(min_value=-4, max_value=4),
                          st.integers(min_value=1, max_value=3))
    # exponents over (x, y1, y2); theta never appears in coefficients
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))

    def build(pairs):
        terms = {}
        for (ex, e1, e2), c in pairs:
            key = (ex, 0, e1, e2) + (0,) * 7
            terms[key] = terms.get(key, Fraction(0)) + c
        return RatFun(Poly(terms))
    return st.lists(st.tuples(exps, fractions), max_size=3).map(build)


def forms(degree):
    idx_pool = {
        0: [()],
        1: [(i,) for i in range(4)],
        2: list(PM_SLOTS),
        3: [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
    }[degree]

    def build(vals):
        return FormField(CH, degree, dict(zip(idx_pool, vals)))
    return st.tuples(*[_coeffs() for _ in idx_pool]).map(build)


@settings(max_examples=40, deadline=None)
@given(forms(1))
def test_d_squared_zero_on_one_forms(a):
    assert ext_d(ext_d(a)).is_zero()


@settings(max_examples=40, deadline=None)
@given(forms(0))
def test_d_squared_zero_on_functions(f):
    assert ext_d(ext_d(f)).is_zero()


@settings(max_examples=40, deadline=None)
@given(forms(2))
def test_d_squared_zero_on_two_forms(a):
    assert ext_d(ext_d(a)).is_zero()


@settings(max_examples=30, deadline=None)
@given(forms(1), forms(2))
def test_graded_commutativity_odd_even(a, b):
    assert wedge(a, b) == wedge(b, a)


@settings(max_examples=30, deadline=None)
@given(forms(1), forms(1))
def test_one_forms_anticommute(a, b):
    assert wedge(a, b) == -wedge(b, a)
    assert wedge(a, a).is_zero()


@settings(max_examples=30, deadline=None)
@given(forms(1), forms(1))
def test_leibniz_rule(a, b):
    lhs = ext_d(wedge(a, b))
    rhs = wedge(ext_d(a), b) - wedge(a, ext_d(b))
    assert lhs == rhs


@settings(max_examples=25, deadline=None)
@given(forms(2))
def test_star_squared_two_forms(a):
    g = metric_gh()
    assert hodge_star(hodge_star(a, g), g) == a


@settings(max_examples=25, deadline=None)
@given(forms(1))
def test_star_squared_one_forms(a):
    g = metric_gh()
    assert hodge_star(hodge_star(a, g), g) == -a


@settings(max_examples=25, deadline=None)
@given(forms(2))
def test_sd_asd_split_reconstructs(a):
    g = metric_gh()
    plus, minus = sd_asd_split(a, g)
    assert plus + minus == a
    assert hodge_star(plus, g) == plus
    assert hodge_star(minus, g) == -minus


# ---------------------------------------------------------------------------
# pinned values
# ---------------------------------------------------------------------------

def test_star_of_one_is_volume():
    got = hodge_star(FormField.function(CH, 1), metric_gh())
    assert got == FormField(CH, 4, {(0, 1, 2, 3): X ** -3})
    got_m = hodge_star(FormField.function(CH, 1), metric_model())
    assert got_m == FormField(CH, 4, {(0, 1, 2, 3): X ** -1})


def test_star_of_volume():
    vol = FormField(CH, 4, {(0, 1, 2, 3): X ** -3})
    assert hodge_star(vol, metric_gh()) == FormField.function(CH, 1)


def test_codifferential_on_functions_is_zero():
    f = FormField.function(CH, X ** 2 * Y1)
    assert codifferential(f, metric_gh()).is_zero()


def _seeded_form(rng, chart, degree):
    """Every component a sum of two Laurent monomials in the chart's
    non-angle variables, with seeded rational coefficients."""
    variables = [RatFun.var(v) for v in chart.variables[:3]]
    comps = {}
    for idx in combinations(range(4), degree):
        comps[idx] = RatFun.const(0)
        for _ in range(2):
            term = RatFun.const(Fraction(rng.randint(-5, 5),
                                         rng.randint(1, 4)))
            for v in variables:
                term = term * v ** rng.randint(-2, 2)
            comps[idx] = comps[idx] + term
    return FormField(chart, degree, comps)


@pytest.mark.parametrize("metric", [
    metric_gh, metric_a, metric_model, metric_gh_r,
    lambda: metric_calabi(3), lambda: metric_calabi(7)])
def test_codifferential_is_minus_star_d_star(metric):
    """codifferential, which takes no square root of det g, equals
    -*d* built from hodge_star on seeded forms of degrees 1 to 3."""
    g = metric()
    rng = random.Random(5)
    for degree in (1, 2, 3):
        for _ in range(3):
            a = _seeded_form(rng, g.chart, degree)
            assert codifferential(a, g) == -hodge_star(
                ext_d(hodge_star(a, g)), g)


def test_geometer_laplacian_sign_on_flat():
    # (d + delta)^2 on functions = delta d; for the flat metric this is
    # minus the sum of coordinate second derivatives
    f = X ** 3 + X * Y1 * Y1
    got = codifferential(ext_d(FormField.function(CH, f)), metric_flat())
    analyst = sum((f.derive(v).derive(v) for v in ("x", "y1", "y2")),
                  RatFun.const(0))
    assert got.get(()) == -analyst


def test_form_constructor_validation():
    with pytest.raises(ValueError):
        FormField(CH, 2, {(1, 1): RatFun.const(1)})
    with pytest.raises(ValueError):
        FormField(CH, 2, {(2, 1): RatFun.const(1)})
    with pytest.raises(ValueError):
        FormField(CH, 1, {(5,): RatFun.const(1)})


# ---------------------------------------------------------------------------
# the standard SD/ASD triple at the end
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def basis():
    return PMBasis()


def test_pm_coefficient_vectors(basis):
    r = RatFun.var("r")
    y1 = RatFun.var("y1")
    z = RatFun.const(0)
    one = RatFun.const(1)
    expect_plus = [
        [z, y1, one, r, z, z],
        [z, -r, z, y1, one, z],
        [r, z, z, z, z, one],
    ]
    expect_minus = [
        [z, y1, one, -r, z, z],
        [z, r, z, y1, one, z],
        [-r, z, z, z, z, one],
    ]
    for w, vec in zip(basis.plus, expect_plus):
        assert PMBasis.coefficient_vector(w) == vec
    for w, vec in zip(basis.minus, expect_minus):
        assert PMBasis.coefficient_vector(w) == vec


def test_pm_triples_derived_once_per_process(monkeypatch):
    """The two triples are derived on the first build; later builds share
    them, read-only, without calling sd_asd_triples."""
    first = PMBasis()

    def no_triples(*args):
        raise AssertionError("sd_asd_triples called after the first build")
    monkeypatch.setattr(forms_module, "sd_asd_triples", no_triples)
    again = PMBasis()
    assert again.plus == first.plus and again.minus == first.minus
    assert Triple.standard().forms == first.plus
    with pytest.raises(TypeError):
        first.plus[0].comps[(0, 1)] = RatFun.const(1)
    with pytest.raises(TypeError):
        first.plus[0] = first.minus[0]
    # the patch does reach the derivation
    forms_module._pm_triples.cache_clear()
    with pytest.raises(AssertionError, match="after the first"):
        PMBasis()


def test_pm_duality(basis):
    g = basis.metric
    for w in basis.plus:
        assert hodge_star(w, g) == w
    for w in basis.minus:
        assert hodge_star(w, g) == -w


def test_pm_wedge_table(basis):
    """Diagonal wedges are +/- 2r times the coordinate volume; every
    mixed wedge vanishes identically."""
    r = RatFun.var("r")
    six = basis.all_six()
    for i in range(6):
        for j in range(6):
            w = wedge(six[i], six[j])
            c = w.get((0, 1, 2, 3))
            if i == j:
                expected = RatFun.const(2) * r if i < 3 else RatFun.const(-2) * r
                assert c == expected
            else:
                assert c.is_zero()


def test_pm_exactly_one_nonclosed(basis):
    six = basis.all_six()
    nonclosed = [i for i, w in enumerate(six) if not ext_d(w).is_zero()]
    assert nonclosed == [3]          # the first minus form
    dw = ext_d(six[3])
    assert dw == FormField(basis.chart, 3, {(0, 1, 2): RatFun.const(-2)})


def test_pm_closed_forms_also_coclosed(basis):
    g = basis.metric
    for i, w in enumerate(basis.all_six()):
        delta = codifferential(w, g)
        if i == 3:
            assert not delta.is_zero()
        else:
            assert delta.is_zero()
