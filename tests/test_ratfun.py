"""Exact rational-function substrate: canonical forms, gcd, calculus, eval."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from alhlab import ratfun
from alhlab.ratfun import (
    DegreeOverflowError,
    Poly,
    PoleError,
    RatFun,
    const,
    exact_div,
    poly_gcd,
    rf_arith,
    rf_derive,
    rf_eval,
    var,
)

x = var("x")
y1 = var("y1")
y2 = var("y2")


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------

def test_gcd_cancellation_difference_of_squares():
    f = (x * x - 1) / (x - 1)
    assert f == x + 1


def test_monomial_product():
    assert (1 / x) * (1 / x) == x ** -2


def test_add_collects_common_factor():
    s = y1 * y1 * x + x
    assert s == x * (y1 * y1 + 1)


def test_derive_negative_power():
    assert rf_derive(x ** -3, "x") == const(-3) * x ** -4


def test_derive_mixed_term():
    assert rf_derive(x * y1 * y1, "y1") == 2 * x * y1


def test_derive_constant_is_zero():
    assert rf_derive(const(7), "x").is_zero()


def test_eval_exact_rational():
    assert rf_eval(x ** -3, {"x": Fraction(1, 2)}) == 8


def test_eval_sum():
    assert rf_eval(x + y1, {"x": 1, "y1": 2}) == 3


def test_eval_pole_is_an_error():
    with pytest.raises(PoleError):
        rf_eval(1 / x, {"x": 0})


def test_eval_float_path():
    v = rf_eval((x + 1) / (x - 2), {"x": 0.5})
    assert v == pytest.approx(1.5 / -1.5)


def test_eval_missing_variable():
    with pytest.raises(KeyError):
        rf_eval(x + y1, {"x": 1})


def test_division_by_zero_ratfun():
    with pytest.raises(ZeroDivisionError):
        rf_arith("div", x, const(0))


def test_degree_guardrail():
    with pytest.raises(DegreeOverflowError):
        (x ** 40) * (x ** 30)


def test_degree_guardrail_configurable():
    ratfun.set_degree_cap(128)
    try:
        assert (x ** 40) * (x ** 30) == x ** 70
    finally:
        ratfun.set_degree_cap(64)


def test_denominator_is_monic():
    f = RatFun(Poly.var("x"), Poly.const(2) * Poly.var("x") ** 2 + 2)
    # 2x^2 + 2 normalizes to x^2 + 1 with the numerator rescaled
    assert f.den == Poly.var("x") ** 2 + Poly.const(1)
    assert f.num == Poly.var("x").scale(Fraction(1, 2))


def test_canonical_coprime():
    f = ((x + y1) ** 2 * (x - y2)) / ((x + y1) * (x + 1))
    g = poly_gcd(f.num, f.den)
    assert g.is_constant()


def test_subst_inversion():
    r = var("r")
    assert (1 / x).subst({"x": 1 / r}) == r


def test_multivariate_gcd_known_factor():
    g = (x + y1) * (y2 + 2)
    a = g * (x - y1)
    b = g * (x * x + 1)
    d = poly_gcd(a.num, b.num)
    assert exact_div(a.num, d) is not None
    assert exact_div(b.num, d) is not None
    # d is exactly the planted factor up to normalization
    assert exact_div(d, g.num).is_constant()


def _planted_gcd_cases(count, seed):
    """Pairs (a, b) in x, r, y1 sharing a random common factor."""
    rng = random.Random(seed)

    def rand_poly(nvars):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exp = [0] * len(ratfun.VARIABLES)
            for i in (0, 2, 1)[:nvars]:
                exp[i] = rng.randint(0, 3)
            terms[tuple(exp)] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        return Poly(terms)

    cases = []
    while len(cases) < count:
        nvars = rng.choice((1, 2, 2, 3))
        common = rand_poly(nvars)
        a = rand_poly(nvars)._mul_raw(common)
        b = rand_poly(nvars)._mul_raw(common)
        if not (a.is_zero() or b.is_zero()):
            cases.append((a, b))
    return cases


def test_general_gcd_matches_sympy():
    sympy = pytest.importorskip("sympy")
    syms = {i: sympy.Symbol(ratfun.VARIABLES[i]) for i in (0, 1, 2)}

    def to_sympy(p):
        return sum(sympy.Rational(c.numerator, c.denominator)
                   * sympy.Mul(*(syms[i] ** k for i, k in enumerate(e) if k))
                   for e, c in p.terms.items())

    gens = list(syms.values())
    for a, b in _planted_gcd_cases(60, seed=7):
        ours = sympy.Poly(to_sympy(poly_gcd(a, b)), *gens)
        theirs = sympy.Poly(sympy.gcd(to_sympy(a), to_sympy(b)), *gens)
        assert (ours * theirs.LC() - theirs * ours.LC()).is_zero


def test_heuristic_gcd_agrees_with_prs():
    # the heuristic answers almost every general gcd; the PRS it falls
    # back to must give the same normalized result
    for a, b in _planted_gcd_cases(40, seed=11):
        shared = sorted(ratfun._VIDX[v] for v in a.variables() & b.variables())
        if not shared or a.monomial_content() != ratfun._ZEXP \
                or b.monomial_content() != ratfun._ZEXP:
            continue
        assert ratfun._monic(ratfun._prs_gcd(a, b, shared[0])) == poly_gcd(a, b)


def test_heuristic_gcd_integer_content():
    # coprime inputs whose images at an odd xi share the factor 4
    a, b = (x + 1).num, (x + 3).num
    assert poly_gcd(a._mul_raw(a), b._mul_raw(b)) == Poly.const(1)
    # over the integers the gcd keeps the common content 2
    e1, e0 = (1,) + (0,) * 10, (0,) * 11
    assert ratfun._zz_gcd({e1: 2, e0: 2}, {e1: 4, e0: 4}) == {e1: 2, e0: 2}
    assert ratfun._zz_gcd({e1: 6, e0: 3}, {e1: 4}) == {e0: 1}


def test_product_rule_dense_operands():
    # a draw that took seconds in the pseudo-remainder gcd alone
    a = (2 * x * y1 - 3 * y1) / (x * y1 + 4)
    b = ((-2 * x ** 3 * y1 ** 2 + Fraction(3, 2) * x ** 3
          - Fraction(1, 2) * y1 ** 3)
         / (x ** 3 * y1 ** 2 - x * y1 ** 3 + 2 * x ** 2 * y1))
    lhs = rf_derive(a * b, "x")
    assert lhs == rf_derive(a, "x") * b + a * rf_derive(b, "x")


def test_valuation_and_leading_coefficient():
    f = (3 * x ** 2 * y1 + x ** 3) / (x ** 5)
    assert f.valuation("x") == -3
    assert f.leading_coefficient("x") == 3 * y1


def test_lambdify_matches_evaluate():
    f = (x ** 2 + y1) / (1 + x * y1)
    fn = f.lambdify(["x", "y1"])
    assert fn(0.5, 0.25) == pytest.approx(
        float(rf_eval(f, {"x": Fraction(1, 2), "y1": Fraction(1, 4)})))


# ---------------------------------------------------------------------------
# property tests (small random rational functions)
# ---------------------------------------------------------------------------

coeffs = st.integers(min_value=-4, max_value=4).map(Fraction)


@st.composite
def polys(draw, max_terms=4, max_exp=3):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n):
        ex = draw(st.integers(min_value=0, max_value=max_exp))
        ey = draw(st.integers(min_value=0, max_value=max_exp))
        exp = [0] * len(ratfun.VARIABLES)
        exp[0], exp[2] = ex, ey
        terms[tuple(exp)] = draw(coeffs)
    return Poly(terms)


@st.composite
def ratfuns(draw):
    num = draw(polys())
    den = draw(polys().filter(lambda p: not p.is_zero()))
    return RatFun(num, den)


@given(ratfuns(), ratfuns(), ratfuns())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(ratfuns(), ratfuns())
@settings(max_examples=60, deadline=None)
def test_product_rule(a, b):
    lhs = rf_derive(a * b, "x")
    rhs = rf_derive(a, "x") * b + a * rf_derive(b, "x")
    assert lhs == rhs


@given(ratfuns(), ratfuns())
@settings(max_examples=60, deadline=None)
def test_eval_commutes_with_arith(a, b):
    pt = {"x": Fraction(1, 3), "y1": Fraction(2, 5)}
    try:
        va, vb = rf_eval(a, pt), rf_eval(b, pt)
        vs = rf_eval(a + b, pt)
        vp = rf_eval(a * b, pt)
    except PoleError:
        return
    assert vs == va + vb
    assert vp == va * vb


@given(ratfuns())
@settings(max_examples=60, deadline=None)
def test_canonical_form_invariants(a):
    if a.is_zero():
        assert a.den == Poly.const(1)
        return
    assert poly_gcd(a.num, a.den).is_constant()
    _, lc = a.den.leading()
    assert lc == 1


@given(ratfuns(), polys().filter(lambda p: not p.is_zero()))
@settings(max_examples=60, deadline=None)
def test_cross_product_equality(a, g):
    # multiplying num and den by a common factor is invisible
    b = RatFun(a.num._mul_raw(g), a.den._mul_raw(g))
    assert a == b
    assert a.num._mul_raw(b.den) == b.num._mul_raw(a.den)


@given(ratfuns())
@settings(max_examples=40, deadline=None)
def test_reciprocal_roundtrip(a):
    if a.is_zero():
        return
    assert a * (1 / a) == const(1)
