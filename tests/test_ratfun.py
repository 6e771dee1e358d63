"""Exact rational-function substrate: canonical forms, gcd, calculus, eval."""

import math
import operator
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from alhlab import ratfun
from alhlab.ratfun import (
    DegreeOverflowError,
    Poly,
    PoleError,
    RatFun,
    exact_div,
    poly_gcd,
)

x = RatFun.var("x")
y1 = RatFun.var("y1")
y2 = RatFun.var("y2")


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
    assert (x ** -3).derive("x") == RatFun.const(-3) * x ** -4


def test_derive_mixed_term():
    assert (x * y1 * y1).derive("y1") == 2 * x * y1


def test_derive_constant_is_zero():
    assert RatFun.const(7).derive("x").is_zero()


def test_eval_exact_rational():
    assert (x ** -3).evaluate({"x": Fraction(1, 2)}) == 8


def test_eval_sum():
    assert (x + y1).evaluate({"x": 1, "y1": 2}) == 3


def test_eval_pole_is_an_error():
    with pytest.raises(PoleError):
        (1 / x).evaluate({"x": 0})


def test_eval_float_point_is_a_type_error():
    f = (x + 1) / (x - 2)
    for bad in (0.5, 0.5 + 0j, "1/2"):
        with pytest.raises(TypeError, match="lambdify"):
            f.evaluate({"x": bad})
        with pytest.raises(TypeError, match="lambdify"):
            f.num.evaluate({"x": bad})
    assert f.lambdify(["x"])(0.5) == pytest.approx(1.5 / -1.5)


def test_eval_missing_variable():
    with pytest.raises(KeyError):
        (x + y1).evaluate({"x": 1})


def test_division_by_zero_ratfun():
    with pytest.raises(ZeroDivisionError):
        x / RatFun.const(0)


def test_degree_guardrail():
    assert (x ** 16000) * (x ** 16767) == x ** 32767
    with pytest.raises(DegreeOverflowError):
        (x ** 16000) * (x ** 16768)


def test_power_past_the_field_reports_the_power_asked_for():
    """One check of the power's degree before any squaring: the message
    gives the degree asked for, not that of a squaring step."""
    assert Poly.var("x") ** 32767 == Poly.var("x", 32767)
    with pytest.raises(DegreeOverflowError,
                       match="^degree 32768 exceeds the packed field maximum"):
        Poly.var("x") ** 32768
    with pytest.raises(DegreeOverflowError, match="^degree 40000 exceeds"):
        (Poly.var("x") * Poly.var("y1") + 1) ** 20000
    with pytest.raises(DegreeOverflowError,
                       match="^degree 200000000004 exceeds"):
        x ** -200000000004


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
    r = RatFun.var("r")
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
        a = rand_poly(nvars) * common
        b = rand_poly(nvars) * common
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


def _corpus_poly(rng, names, max_deg, max_terms=4):
    """A seeded dense-ish polynomial in ``names`` of degree <= max_deg in
    each variable, with small rational coefficients."""
    out = Poly()
    for _ in range(rng.randint(1, max_terms)):
        mono = Poly.const(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        for v in names:
            mono = mono * Poly.var(v, rng.randint(0, max_deg))
        out = out + mono
    return out if not out.is_zero() else Poly.const(1)


def _corpus_affine_power(rng):
    """A monomial in r, y1, y2 times a power of V = a r + b y1 + d y2 + c,
    the shape of the exact-general workload's Gibbons-Hawking
    denominators; some of a, b, d are zero, as there."""
    a, b, d = (rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(3))
    V = (Poly.var("r").scale(a) + Poly.var("y1").scale(b)
         + Poly.var("y2").scale(d) + rng.randint(1, 9))
    mono = Poly.const(Fraction(rng.randint(1, 9), rng.randint(1, 4)))
    for v in ("r", "y1", "y2"):
        mono = mono * Poly.var(v, rng.randint(0, 2))
    return mono * V ** rng.randint(0, 3)


def _gcd_corpus(seed=2025):
    """Seeded pairs (a g, b g): bivariate in (x, y1), trivariate in
    (r, y1, y2), and the exact-general shapes, each factor a monomial
    times a power of an affine V, or a sum of two such."""
    rng = random.Random(seed)
    cases = []
    for _ in range(12):
        a, b, g = (_corpus_poly(rng, ("x", "y1"), 3) for _ in range(3))
        cases.append(("bivariate", a * g, b * g))
    for _ in range(10):
        a, b, g = (_corpus_poly(rng, ("r", "y1", "y2"), 2) for _ in range(3))
        cases.append(("trivariate", a * g, b * g))
    for k in range(14):
        a, b, g = (_corpus_affine_power(rng) for _ in range(3))
        if k % 2:
            a = a + _corpus_affine_power(rng)
            b = b + _corpus_affine_power(rng)
        cases.append(("exact-general", a * g, b * g))
    return cases


def test_gcd_corpus_matches_sympy():
    """Every gcd of the seeded corpus equals sympy's gcd over QQ made
    monic in grlex order, and each takes well under a generous bound."""
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(ratfun.VARIABLES)

    def to_sympy(p):
        return sympy.Poly.from_dict(
            {e: sympy.Rational(c.numerator, c.denominator)
             for e, c in p.terms.items()}, *gens, domain="QQ")

    for shape, a, b in _gcd_corpus():
        start = time.perf_counter()
        ours = poly_gcd(a, b)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, (shape, elapsed)
        theirs = to_sympy(a).gcd(to_sympy(b))
        want = Poly({e: Fraction(int(c.p), int(c.q))
                     for e, c in theirs.as_dict().items()})
        assert ours == ratfun._monic(want), (shape, a, b)


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
    assert poly_gcd(a * a, b * b) == Poly.const(1)
    # over the integers the gcd keeps the common content 2; _zz_gcd takes
    # and returns dicts keyed by packed monomials
    e1, e0 = ratfun._pack((1,) + (0,) * 10), ratfun._ZEXP
    assert ratfun._zz_gcd({e1: 2, e0: 2}, {e1: 4, e0: 4}) == {e1: 2, e0: 2}
    assert ratfun._zz_gcd({e1: 6, e0: 3}, {e1: 4}) == {e0: 1}


def test_product_rule_dense_operands():
    # a draw that took seconds in the pseudo-remainder gcd alone
    a = (2 * x * y1 - 3 * y1) / (x * y1 + 4)
    b = ((-2 * x ** 3 * y1 ** 2 + Fraction(3, 2) * x ** 3
          - Fraction(1, 2) * y1 ** 3)
         / (x ** 3 * y1 ** 2 - x * y1 ** 3 + 2 * x ** 2 * y1))
    lhs = (a * b).derive("x")
    assert lhs == a.derive("x") * b + a * b.derive("x")


def test_valuation_and_leading_coefficient():
    f = (3 * x ** 2 * y1 + x ** 3) / (x ** 5)
    assert f.valuation("x") == -3
    assert f.leading_coefficient("x") == 3 * y1


def test_lambdify_matches_evaluate():
    f = (x ** 2 + y1) / (1 + x * y1)
    fn = f.lambdify(["x", "y1"])
    assert fn(0.5, 0.25) == pytest.approx(
        float(f.evaluate({"x": Fraction(1, 2), "y1": Fraction(1, 4)})))


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
    lhs = (a * b).derive("x")
    rhs = a.derive("x") * b + a * b.derive("x")
    assert lhs == rhs


@given(ratfuns(), ratfuns())
@settings(max_examples=60, deadline=None)
def test_eval_commutes_with_arith(a, b):
    pt = {"x": Fraction(1, 3), "y1": Fraction(2, 5)}
    try:
        va, vb = a.evaluate(pt), b.evaluate(pt)
        vs = (a + b).evaluate(pt)
        vp = (a * b).evaluate(pt)
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
    b = RatFun(a.num * g, a.den * g)
    assert a == b
    assert a.num * b.den == b.num * a.den


@given(ratfuns())
@settings(max_examples=40, deadline=None)
def test_reciprocal_roundtrip(a):
    if a.is_zero():
        return
    assert a * (1 / a) == RatFun.const(1)


# ---------------------------------------------------------------------------
# arithmetic against the generic constructions
# ---------------------------------------------------------------------------

_X, _Y = Poly.var("x"), Poly.var("y1")


_KINDS = ("zero", "const", "poly", "monomial", "shared", "general")


@st.composite
def operands(draw, kinds=_KINDS):
    """Zero, constant, polynomial and general operands, ones over a power
    of x or of y1, and ones over (x+1)^i (y1+2)^j x^l with i >= 1, so that
    two of those share the non-monomial factor x+1."""
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return RatFun.const(0)
    if kind == "const":
        return RatFun.const(draw(coeffs.filter(bool)))
    if kind == "general":
        return draw(ratfuns())
    num = draw(polys().filter(lambda p: not p.is_zero()))
    if kind == "poly":
        return RatFun(num)
    if kind == "monomial":
        base = draw(st.sampled_from((_X, _Y)))
        den = base ** draw(st.integers(1, 3))
    else:
        den = ((_X + 1) ** draw(st.integers(1, 2))
               * (_Y + 2) ** draw(st.integers(0, 1))
               * _X ** draw(st.integers(0, 1)))
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
        return (RatFun(draw(nums), _X ** draw(st.integers(1, 3))),
                RatFun(draw(nums), _Y ** draw(st.integers(1, 3))))
    if how == "difference":
        a = draw(dens)
        return a, _generic("sub", draw(dens), a)
    a = draw(operands())
    if how == "same-den":
        return a, RatFun(draw(polys()), a.den)
    if how == "negated":
        return a, -a
    return a, draw(operands())


def _assert_poly_well_formed(p):
    """Nonzero Fraction coefficients under exponent tuples of
    len(VARIABLES) ints: what Poly.__eq__ cannot tell apart, since it
    compares term dicts and Fraction(2) == 2."""
    assert all(type(c) is Fraction and c for c in p.terms.values())
    assert all(type(e) is tuple and len(e) == len(ratfun.VARIABLES)
               and all(type(k) is int for k in e) for e in p.terms)


def _assert_well_formed(f):
    """num and den are well formed."""
    _assert_poly_well_formed(f.num)
    _assert_poly_well_formed(f.den)


def _generic(op, a, b):
    """The full cross products, canonicalised by one gcd."""
    (n1, d1), (n2, d2) = (a.num, a.den), (b.num, b.den)
    if op == "add":
        return RatFun(n1 * d2 + n2 * d1, d1 * d2)
    if op == "sub":
        return RatFun(n1 * d2 - n2 * d1, d1 * d2)
    if op == "mul":
        return RatFun(n1 * n2, d1 * d2)
    return RatFun(n1 * d2, d1 * n2)


_SHARED_A = RatFun(_Y, (_X + 1) * (_Y + 2))
_SHARED_B = RatFun(_X - 3, (_X + 1) ** 2)


@given(operand_pairs(), st.integers(-3, 3))
@example((RatFun.const(0), _SHARED_A), 2)                # zero operand
@example((RatFun.const(Fraction(3, 2)), _SHARED_B), -1)  # constant operand
@example((RatFun(_X * _X + _Y), _SHARED_A), 3)           # polynomial operand
@example((_SHARED_A, RatFun(_X, _SHARED_A.den)), -2)     # equal denominators
@example((RatFun(_Y + 1, _X * _X), RatFun(_X, _Y ** 3)), 1)  # coprime
@example((_SHARED_A, _SHARED_B), -3)                     # shared (x+1)
@example((_SHARED_B, -_SHARED_B), 0)                     # a sum that is zero
@example((RatFun(1, _X * (_X + 1)), RatFun(1, _X * (_X - 1))), 2)  # cancels x
@example((RatFun(_X + 1, _Y), RatFun(_Y, (_X + 1) ** 2)), -1)  # 2 ways
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
        _assert_well_formed(value)
    if k < 0 and a.is_zero():
        return
    n, d = (a.num, a.den) if k >= 0 else (a.den, a.num)
    want = RatFun(n ** abs(k), d ** abs(k))
    power = a ** k
    assert power.num == want.num and power.den == want.den
    _assert_well_formed(power)


_divisor_coeffs = st.sampled_from(
    (Fraction(1), Fraction(-2), Fraction(3, 2), Fraction(-1, 5)))


@st.composite
def divisors(draw):
    """A single term c x^i y1^j (rational c), or a polynomial of two to
    four terms."""
    if draw(st.booleans()):
        return Poly({(draw(st.integers(0, 3)), 0, draw(st.integers(0, 3)))
                     + (0,) * (len(ratfun.VARIABLES) - 3):
                     draw(_divisor_coeffs)})
    return draw(polys().filter(lambda p: len(p.terms) > 1))


@given(polys(), divisors())
@example(Poly.const(0), _X * _Y)
@example(_X * _X - _Y + 3, _X.scale(Fraction(3, 2)))
@example(_X + _Y, (_X + 1) * _Y)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_exact_div_inverts_multiplication(a, g):
    """exact_div(a g, g) == a for single-term and multi-term g, and the
    quotient is well formed."""
    q = exact_div(a * g, g)
    assert q == a
    _assert_poly_well_formed(q)


def test_exact_div_by_a_non_dividing_monomial_raises():
    with pytest.raises(ValueError, match="not exactly divisible"):
        exact_div(_X * _Y + _Y, _X)
    with pytest.raises(ValueError, match="not exactly divisible"):
        exact_div(_X * _X + 1, _X.scale(3))
    with pytest.raises(ZeroDivisionError):
        exact_div(_X, Poly())


def test_exact_div_over_the_rationals():
    """Division is over Q: the quotient of the integer parts carries the
    quotient of the contents, also where the numerator's integer content
    is not divisible by the divisor's, and a remainder still raises."""
    q = exact_div(_X.scale(2) + 2, _X.scale(3) + 3)
    assert q == Fraction(2, 3)
    _assert_poly_well_formed(q)
    q = exact_div(_X + 1, _X.scale(2) + 2)
    assert q == Fraction(1, 2)
    _assert_poly_well_formed(q)
    q = exact_div(_X * _X.scale(Fraction(3, 4)) - Fraction(3, 4),
                  _X.scale(6) + 6)
    assert q == _X.scale(Fraction(1, 8)) - Fraction(1, 8)
    _assert_poly_well_formed(q)
    with pytest.raises(ValueError, match="not exactly divisible"):
        exact_div(_X * _X + 1, _X + 1)


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
                + RatFun(num, (_X + 1) ** power), "x")
    den = ((_X + 1) ** power * (_Y + 2) ** draw(st.integers(0, 1))
           * _X ** draw(st.integers(0, 1)))
    if kind == "const-num":
        num, name = draw(_y_polys), "x"
    return RatFun(num, den), name


@given(derive_cases())
@example((RatFun(_X * _Y + 1, _Y), "x"))        # d' = 0, n'/d cancels
@example((RatFun(_Y, (_X + 1) ** 2 * (_Y + 2)), "x"))  # n' = 0
@example((RatFun(_X, (_X + 1) ** 2 * (_Y + 2)), "y1"))
@example((RatFun(_Y + 2, (_X + 1) ** 2 * (_Y + 2)), "x"))
@example((RatFun(_X + 3, (_X + 1) ** 3 * (_Y + 2) ** 2), "x"))
@example((RatFun((_X + 1) ** 2 + _Y + 2, (_Y + 2) * (_X + 1) ** 2), "x"))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_derive_matches_generic_construction(case):
    """derive gives the num and den of (n'd - nd')/d^2 canonicalised by
    one gcd, on a constant d, a d free of the variable, n' = 0, a
    squarefree d, a d with a repeated non-monomial factor and a d with a
    factor free of the variable that must cancel."""
    f, name = case
    n, d = f.num, f.den
    want = RatFun(n.derive(name) * d - n * d.derive(name), d * d)
    got = f.derive(name)
    assert got.num == want.num and got.den == want.den
    _assert_well_formed(got)


def test_derive_cancels_a_denominator_factor_free_of_the_variable():
    """1/(y1+2) + 1/(x+1)^2 has g = gcd(d, d') = (y1+2)(x+1), whose
    leading coefficient in x is not constant: the gcd with t still runs
    and the derivative is -2/(x+1)^3."""
    f = RatFun(Poly.const(1), _Y + 2) \
        + RatFun(Poly.const(1), (_X + 1) ** 2)
    assert f.den == (_Y + 2) * (_X + 1) ** 2
    df = f.derive("x")
    assert df.num == Poly.const(-2) and df.den == (_X + 1) ** 3


# ---------------------------------------------------------------------------
# denominators over a coprime base of affine forms
# ---------------------------------------------------------------------------

_RY = tuple(RatFun.var(v) for v in ("r", "y1", "y2"))


@st.composite
def affine_forms(draw):
    """a r + b y1 + c y2 + d with small integer coefficients, a, b and c
    not all zero; a one-term form is a monomial."""
    a, b, c = draw(st.tuples(*[st.integers(-3, 3)] * 3).filter(any))
    return a * _RY[0] + b * _RY[1] + c * _RY[2] + draw(st.integers(-3, 3))


@st.composite
def over_forms(draw, forms):
    """n / (m L1^e1 L2^e2) built through the arithmetic, for the affine
    forms L1 and L2: a numerator of up to three terms in (r, y1, y2), at
    times times L1 or L2 so that it cancels, and a monomial m."""
    num = RatFun.const(0)
    for _ in range(draw(st.integers(1, 3))):
        term = RatFun.const(draw(coeffs.filter(bool)))
        for v in _RY:
            term = term * v ** draw(st.integers(0, 2))
        num = num + term
    if draw(st.booleans()):
        num = num * draw(st.sampled_from(forms))
    f = num / (_RY[0] ** draw(st.integers(0, 2))
               * _RY[1] ** draw(st.integers(0, 1)))
    for form in forms:
        f = f * form ** -draw(st.integers(0, 3))
    return f


_QUAD = _RY[0] ** 2 + _RY[1] ** 2 + 1  # irreducible and not linear


@st.composite
def factored_pairs(draw):
    """Two RatFuns over powers of the same two affine forms, which may be
    proportional, so that the operands share bases.  At times the first
    is also divided by L1^k entered through the public constructor, or by
    the quadratic r^2 + y1^2 + 1: a cofactor beside linear bases."""
    forms = (draw(affine_forms()), draw(affine_forms()))
    a, b = draw(over_forms(forms)), draw(over_forms(forms))
    extra = draw(st.sampled_from((None, "power", "quadratic")))
    if extra == "power":
        a = a * RatFun(1, forms[0].num ** draw(st.integers(2, 3)))
    elif extra == "quadratic":
        a = a / _QUAD
    return a, b


def _assert_factorisation(f):
    """The stored factorisation multiplies back to den, its bases are
    monic, linear (so irreducible) and pairwise coprime, and the cofactor
    is prime to each of them; a denominator without one is a monomial."""
    fac = f._fac
    if fac is None:
        assert f.den.is_monomial()
        return
    m, pairs, cof = fac
    assert pairs or cof is not None
    product = Poly._of({m: 1}, (1, 1))
    for b, e in pairs:
        assert e > 0 and b.total_degree() == 1 and not b.is_monomial()
        assert b.leading()[1] == 1
        product = product * b ** e
    parts = [b for b, _ in pairs]
    if cof is not None:
        assert cof.monomial_content() == 0 and cof.leading()[1] == 1
        product = product * cof
        parts.append(cof)
    assert product == f.den
    for i, b in enumerate(parts):
        for c in parts[:i]:
            assert poly_gcd(b, c) == 1


@given(factored_pairs(), st.integers(-2, 2),
       st.sampled_from(("r", "y1", "y2")))
@example((_RY[0] + 1, (_RY[0] + 1) ** -2), 2, "r")
@example(((2 * _RY[0] + 2) ** -1, (_RY[0] + 1) ** -3 * _RY[1] ** -1), -1, "y1")
@example(((_RY[0] + _RY[1]) ** -2, (_RY[0] + _RY[1]) ** 2 / _RY[2]), 1, "r")
@example((RatFun(_RY[2].num, (_RY[0] + _RY[1]).num ** 2),
          (_RY[0] + _RY[1]) ** -1), 2, "y1")     # L^2 through RatFun(n, d)
@example(((_RY[0] + 1) / (_QUAD * (_RY[0] + _RY[1])),
          _RY[1] / (_RY[0] + _RY[1]) ** 2), -1, "r")  # a quadratic cofactor
@settings(max_examples=100, deadline=None, derandomize=True)
def test_factored_denominators_match_generic_construction(pair, k, name):
    """+, -, *, /, ** and derive over denominators that are monomials times
    powers of affine forms, at times with a cofactor, keep a factorisation
    that multiplies back to den over pairwise coprime bases, and give the
    num and den that the public RatFun(num, den) builds from the full
    cross products."""
    a, b = pair
    for f in (a, b):
        _assert_factorisation(f)
    got = {"add": a + b, "sub": a - b, "mul": a * b}
    if not b.is_zero():
        got["div"] = a / b
    want = {op: _generic(op, a, b) for op in got}
    if not (k < 0 and a.is_zero()):
        n, d = (a.num, a.den) if k >= 0 else (a.den, a.num)
        got["pow"] = a ** k
        want["pow"] = RatFun(n ** abs(k), d ** abs(k))
    n, d = a.num, a.den
    got["derive"] = a.derive(name)
    want["derive"] = RatFun(n.derive(name) * d - n * d.derive(name), d * d)
    for op, value in got.items():
        assert value.num == want[op].num and value.den == want[op].den, op
        _assert_factorisation(value)


# ---------------------------------------------------------------------------
# packed monomials: 16-bit fields, exponents and degrees up to 2^15 - 1
# ---------------------------------------------------------------------------

_MAX = 2 ** 15 - 1
_n = len(ratfun.VARIABLES)


@st.composite
def _exps(draw):
    """Exponent tuples of small entries, one of them possibly as large as
    the total degree allows."""
    exp = draw(st.lists(st.integers(0, 40), min_size=_n, max_size=_n))
    if draw(st.booleans()):
        slot = draw(st.integers(0, _n - 1))
        exp[slot] = draw(st.integers(0, _MAX - sum(exp) + exp[slot]))
    return tuple(exp)


@given(_exps(), _exps())
@settings(max_examples=300, derandomize=True)
def test_packed_order_is_grlex(a, b):
    """Integer order of packed keys is (total degree, exponent tuple)
    order, and a key unpacks to its tuple."""
    ka, kb = ratfun._pack(a), ratfun._pack(b)
    assert (ka < kb) == ((sum(a), a) < (sum(b), b))
    assert (ka == kb) == (a == b)
    assert ratfun._unpack(ka) == a


@given(_exps(), _exps())
@settings(max_examples=300, derandomize=True)
def test_guard_mask_division_is_slotwise_subtraction(m, n):
    """m | n by the guard mask exactly when no slot of n - m is negative,
    and then n - m is the packed slot-wise difference, degree included."""
    km, kn = ratfun._pack(m), ratfun._pack(n)
    diff = tuple(b - a for a, b in zip(m, n))
    assert ratfun._divides(km, kn) == (min(diff) >= 0)
    if min(diff) >= 0:
        assert kn - km == ratfun._pack(diff)


@given(st.lists(_exps(), min_size=1, max_size=4))
@settings(max_examples=200, derandomize=True)
def test_monomial_content_is_the_slotwise_min(exps):
    """The guard-mask field-wise min over all terms, regraded, is the
    packed slot-wise min."""
    p = Poly({e: 1 for e in exps})
    assert p.monomial_content() == ratfun._pack(tuple(map(min, zip(*exps))))


@given(polys(max_terms=6, max_exp=9))
@settings(max_examples=100, derandomize=True)
def test_terms_view_round_trips(p):
    """Poly(p.terms) == p, and the view cannot change p."""
    assert Poly(p.terms) == p
    view = p.terms
    with pytest.raises(TypeError):
        view[(0,) * _n] = Fraction(1)


@given(_exps(), st.integers(0, _n - 1), st.integers(_MAX + 1, 2 ** 17))
@settings(max_examples=100, derandomize=True)
def test_exponent_beyond_its_field_raises(exp, slot, big):
    """An exponent or a total degree above 2^15 - 1 raises
    DegreeOverflowError in the public constructors and never carries into
    the neighbouring field."""
    e = list(exp)
    e[slot] = big
    with pytest.raises(DegreeOverflowError):
        Poly({tuple(e): 1})
    with pytest.raises(DegreeOverflowError):
        Poly.var(ratfun.VARIABLES[slot], big)
    # within every field but above the degree field
    e = [0] * _n
    e[slot], e[(slot + 1) % _n] = _MAX, 1
    with pytest.raises(DegreeOverflowError):
        Poly({tuple(e): 1})


@given(st.lists(st.integers(0, 40), min_size=_n, max_size=_n).map(tuple),
       _exps(), st.integers(0, _n - 1))
@settings(max_examples=100, derandomize=True)
def test_raw_product_beyond_the_field_raises(a, b, slot):
    """A product of degree up to 2^15 - 1 is the slot-wise sum, and one
    above it raises instead of wrapping."""
    top = Poly.var(ratfun.VARIABLES[slot], _MAX - sum(a))
    p = Poly({a: 1}) * top
    want = list(a)
    want[slot] = _MAX - sum(a) + a[slot]
    assert list(p.terms) == [tuple(want)]
    if sum(b):
        with pytest.raises(DegreeOverflowError):
            p * Poly({b: 1})
        with pytest.raises(DegreeOverflowError):
            ratfun._shift(p, slot, 1)


def test_zz_gcd_read_back_beyond_the_field_raises(monkeypatch):
    """A base-xi read-back whose digit would land above 2^15 - 1 in its
    field raises DegreeOverflowError: here the image gcd is replaced by
    one of full degree with a coefficient of several digits."""
    pack = ratfun._pack
    xc = pack((1,) + (0,) * (_n - 2) + (1,))            # x*c
    f, g = {xc: 1, 0: 1}, {xc: 1, 0: 2}
    wide = pack((_MAX,) + (0,) * (_n - 1))
    real = ratfun._zz_gcd
    monkeypatch.setattr(ratfun, "_zz_gcd", lambda f, g: {wide: 10 ** 60})
    with pytest.raises(DegreeOverflowError):
        real(f, g)


def test_full_width_exponents_stay_in_their_fields():
    """Every variable at 2^15 - 1 on its own, and its product with and
    quotient by the other variables, reads back slot for slot."""
    for i, name in enumerate(ratfun.VARIABLES):
        p = Poly.var(name, _MAX)
        (exp, c), = p.terms.items()
        assert exp == tuple(_MAX if j == i else 0 for j in range(_n))
        assert p.degree_in(name) == p.total_degree() == _MAX
        assert exact_div(p, Poly.var(name, _MAX - 1)) == Poly.var(name, 1)
        with pytest.raises(ValueError, match="not exactly divisible"):
            exact_div(p, Poly.var(ratfun.VARIABLES[i - 1], 1))


def test_only_ratfun_reads_monomial_exponents(monkeypatch):
    """The package reads a Poly through ``coefficients_in``, ``leading``
    and the degree queries, never through the exponent-tuple view: with
    ``Poly.terms`` raising, each former reader still runs, on inputs no
    per-process cache has seen."""
    from alhlab import geometry, hk, indicial, operators

    def no_view(self):
        raise AssertionError("Poly.terms read inside the package")

    monkeypatch.setattr(Poly, "terms", property(no_view))
    r = RatFun.var("r")
    assert geometry._monomial_sqrt(9 * x ** 2 * r ** 4 / (4 * y1 ** 6)) \
        == 3 * x * r ** 2 / (2 * y1 ** 3)
    assert geometry._monomial_sqrt(2 * x ** 2) is None
    al, be = Fraction(5, 17), Fraction(3, 19)
    m, coeffs = hk._modulus_coeffs(al, be)
    assert m == 1 and coeffs[-1] == 4 * al * al
    assert hk.calabi_modulus_constraint_exact(al, be)
    t = Poly.var("t")
    assert indicial._coeffs(t * t * 3 - Fraction(1, 7)) \
        == [Fraction(-1, 7), 0, 3]
    assert indicial._coeffs(Poly()) == []
    f = (x * y1 + 5 * x * x + y2 * r + 7) / (x + 1)
    assert operators._y_free_part(f) == (5 * x * x + 7) / (x + 1)


# ---------------------------------------------------------------------------
# the normal form: one rational content times a primitive integer part
# ---------------------------------------------------------------------------

_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def rational_polys(draw, max_terms=4, max_exp=3):
    """Polynomials in x, y1 and r with small rational coefficients."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exp = [0] * _n
        for slot in (0, 1, 2):
            exp[slot] = draw(st.integers(0, max_exp))
        terms[tuple(exp)] = draw(_rationals)
    return Poly(terms)


def _assert_normal_form(p):
    """p is n/d times a dict of packed monomials to nonzero ints whose gcd
    is 1 and whose grlex-leading value is positive, with n and d coprime
    ints and d > 0; zero is ({}, (0, 1))."""
    n, d = p._c
    assert type(n) is int and type(d) is int and d > 0
    assert math.gcd(n, d) == 1
    if not p._terms:
        assert (n, d) == (0, 1)
        return
    assert n
    assert all(type(e) is int and type(v) is int and v
               for e, v in p._terms.items())
    assert math.gcd(*p._terms.values()) == 1
    assert p._terms[max(p._terms)] > 0
    _assert_poly_well_formed(p)


@given(rational_polys(), rational_polys(), _rationals.filter(bool))
@example(Poly.const(0), _X, Fraction(-1))
@example(_X.scale(2) + 2, _X.scale(-3) - 3, Fraction(1, 3))
@example(_X.scale(Fraction(1, 2)), _Y.scale(Fraction(1, 3)), Fraction(6))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_results_are_in_normal_form(a, b, q):
    """Every Poly that +, -, *, scale, derive, exact_div, poly_gcd and
    _monic return is in the normal form."""
    out = [a + b, a - b, b - a, -a, a * b, a.scale(q), a.derive("x"),
           a.derive("y1"), ratfun._monic(a), poly_gcd(a, b)]
    if not b.is_zero():
        out.append(exact_div(a * b, b))
        g = poly_gcd(a, b)
        out += [exact_div(a, g), exact_div(b, g)]
    for p in out:
        _assert_normal_form(p)


@given(rational_polys(), rational_polys().filter(lambda p: not p.is_zero()),
       _rationals.filter(bool))
@example(_X + 1, _X.scale(2) + 2, Fraction(-2, 3))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_equal_values_by_different_routes_are_equal(a, b, q):
    """Equal values built by different routes compare equal and hash
    equal: (a b)/b, a + b - b, a scaled by q and by 1/q, and Poly(a.terms)
    are all a."""
    for p in (exact_div(a * b, b), a + b - b, a.scale(q).scale(1 / q),
              Poly(a.terms)):
        assert p == a
        assert hash(p) == hash(a)
        _assert_normal_form(p)


# ---------------------------------------------------------------------------
# monomial denominators: arithmetic on packed keys
# ---------------------------------------------------------------------------

def _mono_poly(a=0, b=0, c=0):
    """x^a y1^b y2^c."""
    return Poly({(a, 0, b, c) + (0,) * (_n - 4): 1})


_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
           "div": operator.truediv}


def _uncancelled(op, a, b):
    """The public constructor on the uncancelled pair of a op b, or of the
    derivative of a in the variable op."""
    if op in _BINARY:
        return _generic(op, a, b)
    n, d = a.num, a.den
    return RatFun(n.derive(op) * d - n * d.derive(op), d * d)


_exp3 = st.integers(0, 3)
_monomials = st.builds(_mono_poly, _exp3, _exp3, _exp3)


@st.composite
def laurent_nums(draw):
    """A nonzero polynomial in x, y1 and y2 of one to four terms."""
    return Poly({(draw(_exp3), 0, draw(_exp3), draw(_exp3)) + (0,) * (_n - 4):
                 draw(coeffs.filter(bool))
                 for _ in range(draw(st.integers(1, 4)))})


@st.composite
def laurents(draw, den=None):
    """n/m for a polynomial n in x, y1, y2 and a monomial m."""
    return RatFun(draw(laurent_nums()), draw(_monomials) if den is None
                  else den)


@st.composite
def laurent_pairs(draw):
    """Pairs over different, equal and constant denominators, pairs a, -a
    whose sum is 0, and pairs a, p - a whose sum is a polynomial p."""
    how = draw(st.sampled_from(("different", "equal", "constant", "negated",
                                "to-poly")))
    a = draw(laurents())
    if how == "different":
        return a, draw(laurents())
    if how == "equal":
        return a, draw(laurents(a.den))
    if how == "constant":
        b = draw(laurents(Poly.const(1)))
        return (a, b) if draw(st.booleans()) else (b, a)
    if how == "negated":
        return a, -a
    return a, RatFun(draw(laurent_nums()) * a.den - a.num, a.den)


@st.composite
def monomial_quotients(draw):
    """c m1/m2 for monomials m1 and m2 and a nonzero rational c."""
    return RatFun(draw(_monomials).scale(draw(coeffs.filter(bool))),
                  draw(_monomials))


def _refuse_gcd(mp):
    def refuse(*args):
        raise AssertionError("a gcd or an exact division was called")
    mp.setattr(ratfun, "poly_gcd", refuse)
    mp.setattr(ratfun, "exact_div", refuse)


@given(laurent_pairs(), monomial_quotients(),
       st.sampled_from(("x", "y1", "y2")))
@example((RatFun(_X * _X + _Y, _mono_poly(2, 1)), RatFun.const(1)),
         RatFun.const(1), "x")                      # derivative -2/x^3
@example((RatFun(_X, _mono_poly(0, 2)), RatFun(-_X, _mono_poly(0, 2))),
         RatFun(_mono_poly(1), _mono_poly(0, 1)), "y1")  # the sum is 0
@settings(max_examples=150, deadline=None, derandomize=True)
def test_monomial_denominators_match_the_public_constructor(pair, q, name):
    """+, -, *, / by a monomial quotient and derive over monomial
    denominators give what the public constructor gives on the uncancelled
    pair, keep no factorisation, and, but for a derivative in a variable
    the denominator lacks, call neither poly_gcd nor exact_div."""
    a, b = pair
    on_keys = [f for f in (a, b)
               if name in f.den.variables() or f.den.is_constant()]
    with pytest.MonkeyPatch.context() as mp:
        _refuse_gcd(mp)
        got = [("add", a, b, a + b), ("sub", a, b, a - b),
               ("mul", a, b, a * b)]
        got += [(name, f, None, f.derive(name)) for f in on_keys]
    got += [(name, f, None, f.derive(name)) for f in (a, b)
            if f not in on_keys]
    pq = RatFun(a.num * q.num, q.den)
    got += [("div", a, q, a / q), ("div", pq, q, pq / q)]
    assert got[-1][3] == RatFun(a.num)               # leaves the polynomial
    for op, f, g, value in got:
        want = _uncancelled(op, f, g)
        assert value.num == want.num and value.den == want.den, op
        assert value._fac is None, op
        _assert_well_formed(value)


def test_monomial_denominators_match_sympy_cancel():
    """On 20 seeded cases each result equals sympy's cancel of the same
    expression, over a denominator equal to sympy's up to a constant."""
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(ratfun.VARIABLES)

    def to_sympy(p):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*(g ** k for g, k in zip(gens, e)))
                    for e, c in p.terms.items()), sympy.Integer(0))

    def expr(f):
        return to_sympy(f.num) / to_sympy(f.den)

    rng = random.Random(2030)

    def monomial():
        return _mono_poly(*(rng.randint(0, 3) for _ in range(3)))

    def laurent():
        num = Poly()
        while num.is_zero():
            for _ in range(rng.randint(1, 4)):
                num = num + monomial().scale(
                    Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                             rng.randint(1, 3)))
        return RatFun(num, monomial())

    ops = ("add", "sub", "mul", "div", "x", "y1", "y2")
    for k in range(20):
        op, a = ops[k % len(ops)], laurent()
        if op == "div":
            b = RatFun(monomial().scale(rng.randint(1, 5)), monomial())
        elif k % 3:
            b = laurent()
        else:
            b = RatFun(rng.randint(1, 3), a.den)
        if op in _BINARY:
            got, sym = _BINARY[op](a, b), _BINARY[op](expr(a), expr(b))
        else:
            got = a.derive(op)
            sym = sympy.diff(expr(a), gens[ratfun.VARIABLES.index(op)])
        num, den = sympy.fraction(sympy.cancel(sym))
        assert sympy.expand(to_sympy(got.num) * den
                            - num * to_sympy(got.den)) == 0, (k, op)
        assert sympy.cancel(to_sympy(got.den) / den).is_number, (k, op)


def _field_cases(k):
    """name: (op, a, b or None, outcome) for operands that fit in the
    packed field, with degree k on one side and about 2^15 - 1 - k on the
    other; op is add, sub, mul, div or a variable to derive in.  The
    outcome is the degree in the DegreeOverflowError message where a
    packed-key add would pass 2^15 - 1, else the (num, den) of the result.
    A derivative's numerator has a lower degree than its operand's, so
    only its denominator can pass the limit."""
    R, m, one, L = RatFun, _mono_poly, Poly.const(1), _MAX
    return {
        "product-cancelled-past": ("mul", R(m(L), m(0, 1)),
                                   R(m(0, k), m(1)), L + k - 2),
        "product-at": ("mul", R(m(L - k + 2), m(0, 1)), R(m(0, k), m(1)),
                       (m(L - k + 1, k - 1), one)),
        "product-past": ("mul", R(m(L - k + 3), m(0, 1)), R(m(0, k), m(1)),
                         L + 1),
        "product-den-at": ("mul", R(m(0, 1), m(L - k + 2)),
                           R(m(1), m(0, k)), (one, m(L - k + 1, k - 1))),
        "product-den-past": ("mul", R(m(0, 1), m(L - k + 3)),
                             R(m(1), m(0, k)), L + 1),
        "product-constant-side": ("mul", R(m(L)), R(one, m(0, k)),
                                  (m(L), m(0, k))),
        "product-to-poly": ("mul", R(m(L), m(0, k)), R(m(0, k), m(1)),
                            (m(L - 1), one)),
        "quotient-at": ("div", R(m(L - k + 2), m(0, 1)), R(m(1), m(0, k)),
                        (m(L - k + 1, k - 1), one)),
        "quotient-past": ("div", R(m(L - k + 3), m(0, 1)), R(m(1), m(0, k)),
                          L + 1),
        "sum-at": ("add", R(m(L - k), m(0, k)), R(one, m(k)),
                   (m(L) + m(0, k), m(k, k))),
        "sum-past": ("add", R(m(L - k + 1), m(0, k)), R(one, m(k)), L + 1),
        "sum-past-swapped": ("add", R(one, m(k)), R(m(L - k + 1), m(0, k)),
                             L + 1),
        "difference-past": ("sub", R(m(L - k + 1), m(0, k)), R(one, m(k)),
                            L + 1),
        "sum-den-at": ("add", R(one, m(k)), R(one, m(0, L - k)),
                       (m(0, L - k) + m(k), m(k, L - k))),
        "sum-den-past": ("add", R(one, m(k)), R(one, m(0, L - k + 1)),
                         L + 1),
        "sum-equal-den": ("add", R(m(L), m(0, k)), R(one, m(0, k)),
                          (m(L) + one, m(0, k))),
        # (x^k + y1^(L-k))/(x^k y1^(L-k)) + (y1^(L-k) - y2^k)/(y1^(L-k) y2^k):
        # the shifted numerators reach degree L, and y1^(L-k) cancels
        "sum-cancels-below-cap": ("add", R(m(k) + m(0, L - k), m(k, L - k)),
                                  R(m(0, L - k) - m(0, 0, k),
                                    m(0, L - k, k)),
                                  (m(k) + m(0, 0, k), m(k, 0, k))),
        # the same with y1^(L-k+1) in the first numerator: its shift by
        # y2^k passes L although the sum would cancel below it
        "sum-cancels-past": ("add", R(m(1) + m(0, L - k + 1), m(1, L - k)),
                             R(m(0, L - k) - m(0, 0, k), m(0, L - k, k)),
                             L + 1),
        # the cofactor of the first denominator is 1: only the first
        # numerator is shifted
        "sum-unit-cofactor": ("add", R(m(0, 1) + one, m(k, 1)),
                              R(m(k, 1) - m(0, 0, L - k - 1),
                                m(k, 1, L - k - 1)),
                              (m(k) + m(0, 0, L - k - 1),
                               m(k, 0, L - k - 1))),
        # 1/x^(L-k) - 1/y1^k + 1/y1^k: the second denominator cancels whole
        "sum-cancels-a-denominator": ("add",
                                      R(m(0, k) - m(L - k), m(L - k, k)),
                                      R(one, m(0, k)), (one, m(L - k))),
        "derive-num-at": ("x", R(m(L) + m(0, k), m(1, k)), None,
                          (m(L).scale(L - 1) - m(0, k), m(2, k))),
        "derive-den-at": ("x", R(one, m(k, L - k - 1)), None,
                          (Poly.const(-k), m(k + 1, L - k - 1))),
        "derive-den-past": ("x", R(one, m(k, L - k)), None, L + 1),
        "derive-free-den": ("x", R(m(L), m(0, k)), None,
                            (m(L - 1).scale(L), m(0, k))),
        "derive-free-num": ("y1", R(m(L), m(0, k)), None,
                            (m(L).scale(-k), m(0, k + 1))),
        "derive-poly": ("x", R(m(L)), None, (m(L - 1).scale(L), one)),
    }


@pytest.mark.parametrize("k", [64, 128])
@pytest.mark.parametrize("name", sorted(_field_cases(64)))
def test_degree_cap_on_monomial_denominators(name, k):
    """Products, quotients, sums and derivatives over monomial
    denominators raise DegreeOverflowError where a packed-key add would
    pass 2^15 - 1, and a result at the limit reads back slot for slot,
    with no carry into a neighbouring field."""
    op, a, b, outcome = _field_cases(k)[name]

    def run():
        return _BINARY[op](a, b) if op in _BINARY else a.derive(op)
    if isinstance(outcome, int):
        message = f"degree {outcome} exceeds the packed field maximum {_MAX}"
        with pytest.raises(DegreeOverflowError,
                           match=f"^{re.escape(message)}$"):
            run()
    else:
        got, (num, den) = run(), outcome
        assert dict(got.num.terms) == dict(num.terms)
        assert dict(got.den.terms) == dict(den.terms)
