"""Exact rational-function substrate: canonical forms, gcd, calculus, eval."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

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


def test_eval_float_point_is_a_type_error():
    f = (x + 1) / (x - 2)
    for bad in (0.5, 0.5 + 0j, "1/2"):
        with pytest.raises(TypeError, match="lambdify"):
            rf_eval(f, {"x": bad})
        with pytest.raises(TypeError, match="lambdify"):
            f.num.evaluate({"x": bad})
    assert f.lambdify(["x"])(0.5) == pytest.approx(1.5 / -1.5)


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


# ---------------------------------------------------------------------------
# arithmetic against the generic constructions
# ---------------------------------------------------------------------------

_X, _Y = Poly.var("x"), Poly.var("y1")


def _raw_pow(p, k):
    out = Poly.const(1)
    for _ in range(k):
        out = out._mul_raw(p)
    return out


_KINDS = ("zero", "const", "poly", "monomial", "shared", "general")


@st.composite
def operands(draw, kinds=_KINDS):
    """Zero, constant, polynomial and general operands, ones over a power
    of x or of y1, and ones over (x+1)^i (y1+2)^j x^l with i >= 1, so that
    two of those share the non-monomial factor x+1."""
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return const(0)
    if kind == "const":
        return const(draw(coeffs.filter(bool)))
    if kind == "general":
        return draw(ratfuns())
    num = draw(polys().filter(lambda p: not p.is_zero()))
    if kind == "poly":
        return RatFun(num)
    if kind == "monomial":
        base = draw(st.sampled_from((_X, _Y)))
        den = _raw_pow(base, draw(st.integers(1, 3)))
    else:
        den = _raw_pow(_X + 1, draw(st.integers(1, 2)))._mul_raw(
            _raw_pow(_Y + 2, draw(st.integers(0, 1))))._mul_raw(
            _raw_pow(_X, draw(st.integers(0, 1))))
    return RatFun(num, den)


@st.composite
def operand_pairs(draw):
    """Independent pairs, pairs of two monomial or shared denominators,
    pairs over coprime powers of x and of y1, pairs over one denominator,
    pairs a, -a, and pairs a, c - a, whose sum c cancels a factor of the
    denominator of a."""
    how = draw(st.sampled_from(("independent", "denominators", "monomials",
                                "same-den", "negated", "difference")))
    dens = operands(("monomial", "shared"))
    if how == "denominators":
        return draw(dens), draw(dens)
    if how == "monomials":
        nums = polys().filter(lambda p: not p.is_zero())
        return (RatFun(draw(nums), _raw_pow(_X, draw(st.integers(1, 3)))),
                RatFun(draw(nums), _raw_pow(_Y, draw(st.integers(1, 3)))))
    if how == "difference":
        a = draw(dens)
        return a, _generic("sub", draw(dens), a)
    a = draw(operands())
    if how == "same-den":
        return a, RatFun(draw(polys()), a.den)
    if how == "negated":
        return a, -a
    return a, draw(operands())


def _generic(op, a, b):
    """The full cross products, canonicalised by one gcd."""
    (n1, d1), (n2, d2) = (a.num, a.den), (b.num, b.den)
    if op == "add":
        return RatFun(n1._mul_raw(d2) + n2._mul_raw(d1), d1._mul_raw(d2))
    if op == "sub":
        return RatFun(n1._mul_raw(d2) - n2._mul_raw(d1), d1._mul_raw(d2))
    if op == "mul":
        return RatFun(n1._mul_raw(n2), d1._mul_raw(d2))
    return RatFun(n1._mul_raw(d2), d1._mul_raw(n2))


_SHARED_A = RatFun(_Y, (_X + 1)._mul_raw(_Y + 2))
_SHARED_B = RatFun(_X - 3, _raw_pow(_X + 1, 2))


@given(operand_pairs(), st.integers(-3, 3))
@example((const(0), _SHARED_A), 2)                       # zero operand
@example((const(Fraction(3, 2)), _SHARED_B), -1)         # constant operand
@example((RatFun(_X * _X + _Y), _SHARED_A), 3)           # polynomial operand
@example((_SHARED_A, RatFun(_X, _SHARED_A.den)), -2)     # equal denominators
@example((RatFun(_Y + 1, _X * _X), RatFun(_X, _raw_pow(_Y, 3))), 1)  # coprime
@example((_SHARED_A, _SHARED_B), -3)                     # shared (x+1)
@example((_SHARED_B, -_SHARED_B), 0)                     # a sum that is zero
@example((RatFun(1, _X * (_X + 1)), RatFun(1, _X * (_X - 1))), 2)  # cancels x
@example((RatFun(_X + 1, _Y), RatFun(_Y, _raw_pow(_X + 1, 2))), -1)  # 2 ways
@settings(max_examples=100, deadline=None, derandomize=True)
def test_arithmetic_matches_generic_construction(pair, k):
    """+, -, *, / and ** give the num and den of the full cross products
    canonicalised by one gcd, on draws that reach every arithmetic path."""
    a, b = pair
    got = {"add": a + b, "sub": a - b, "mul": a * b}
    if not b.is_zero():
        got["div"] = a / b
    for op, value in got.items():
        want = _generic(op, a, b)
        assert value.num == want.num and value.den == want.den, op
    if k < 0 and a.is_zero():
        return
    n, d = (a.num, a.den) if k >= 0 else (a.den, a.num)
    want = RatFun(_raw_pow(n, abs(k)), _raw_pow(d, abs(k)))
    power = a ** k
    assert power.num == want.num and power.den == want.den


_y_polys = st.dictionaries(st.integers(0, 3), coeffs.filter(bool),
                           min_size=1, max_size=3).map(
    lambda t: sum((Poly.var("y1", e).scale(c) for e, c in t.items()), Poly()))


@st.composite
def derive_cases(draw):
    """(f, variable) over a constant denominator, over one free of the
    variable, with a numerator free of it (n' = 0), over a squarefree one,
    over one with the repeated non-monomial factor (x+1)^2, over
    (y1+2)(x+1)^k, whose factor free of x the x-derivative cancels, and
    general."""
    kind = draw(st.sampled_from(("const", "free", "const-num", "squarefree",
                                 "repeated", "free-factor", "general")))
    name = draw(st.sampled_from(("x", "y1")))
    num = draw(polys().filter(lambda p: not p.is_zero()))
    if kind == "general":
        return draw(ratfuns()), name
    if kind == "const":
        return RatFun(num), name
    if kind == "free":
        den = draw(_y_polys.filter(lambda p: not p.is_constant()))
        return RatFun(num, den), "x"
    power = 1 if kind == "squarefree" else draw(st.integers(2, 3))
    if kind == "free-factor":
        return (RatFun(draw(_y_polys), _Y + 2)
                + RatFun(num, _raw_pow(_X + 1, power)), "x")
    den = _raw_pow(_X + 1, power)._mul_raw(
        _raw_pow(_Y + 2, draw(st.integers(0, 1))))._mul_raw(
        _raw_pow(_X, draw(st.integers(0, 1))))
    if kind == "const-num":
        num, name = draw(_y_polys), "x"
    return RatFun(num, den), name


@given(derive_cases())
@example((RatFun(_X._mul_raw(_Y) + 1, _Y), "x"))        # d' = 0, n'/d cancels
@example((RatFun(_Y, _raw_pow(_X + 1, 2)._mul_raw(_Y + 2)), "x"))  # n' = 0
@example((RatFun(_X, _raw_pow(_X + 1, 2)._mul_raw(_Y + 2)), "y1"))
@example((RatFun(_Y + 2, _raw_pow(_X + 1, 2)._mul_raw(_Y + 2)), "x"))
@example((RatFun(_X + 3, _raw_pow(_X + 1, 3)._mul_raw(_raw_pow(_Y + 2, 2))),
          "x"))
@example((RatFun(_raw_pow(_X + 1, 2) + _Y + 2,
                 (_Y + 2)._mul_raw(_raw_pow(_X + 1, 2))), "x"))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_derive_matches_generic_construction(case):
    """derive gives the num and den of (n'd - nd')/d^2 canonicalised by
    one gcd, on a constant d, a d free of the variable, n' = 0, a
    squarefree d, a d with a repeated non-monomial factor and a d with a
    factor free of the variable that must cancel."""
    f, name = case
    n, d = f.num, f.den
    want = RatFun(n.derive(name)._mul_raw(d) - n._mul_raw(d.derive(name)),
                  d._mul_raw(d))
    got = f.derive(name)
    assert got.num == want.num and got.den == want.den


def test_derive_cancels_a_denominator_factor_free_of_the_variable():
    """1/(y1+2) + 1/(x+1)^2 has g = gcd(d, d') = (y1+2)(x+1), whose
    leading coefficient in x is not constant: the gcd with t still runs
    and the derivative is -2/(x+1)^3."""
    f = RatFun(Poly.const(1), _Y + 2) \
        + RatFun(Poly.const(1), _raw_pow(_X + 1, 2))
    assert f.den == (_Y + 2)._mul_raw(_raw_pow(_X + 1, 2))
    df = f.derive("x")
    assert df.num == Poly.const(-2) and df.den == _raw_pow(_X + 1, 3)
