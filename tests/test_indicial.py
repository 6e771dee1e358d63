"""Indicial polynomials, roots, nullvectors, and Fredholm weights."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alhlab import indicial
from alhlab.geometry import metric_a, metric_gh
from alhlab.indicial import (L2_CUTOFF, NotBTypeError, indicial_poly,
                             indicial_roots, is_fredholm_weight, on_weight,
                             weight_window)
from alhlab.operators import (ModeReducedOp, laplacian, project_modes,
                              reduced_D00, reduced_scalar_b)
from alhlab.ratfun import RatFun

X = RatFun.var("x")


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _poly_eval(p, g):
    acc = 0.0
    for c in reversed(p):
        acc = acc * g + float(c)
    return acc


def _mat_vec(mat, vec):
    return [sum(c * v for c, v in zip(row, vec)) for row in mat]


# ---------------------------------------------------------------------------
# scalar operator
# ---------------------------------------------------------------------------

def test_scalar_indicial_polynomial():
    M = indicial_poly(reduced_scalar_b())
    # gamma(gamma-1) + 2 gamma = gamma^2 + gamma
    assert M.entry(0, 0) == [Fraction(0), Fraction(1), Fraction(1)]


def test_scalar_roots_and_weights():
    roots = indicial_roots(indicial_poly(reduced_scalar_b()))
    assert [(r.root, r.multiplicity) for r in roots] == \
        [(Fraction(-1), 1), (Fraction(0), 1)]
    w = weight_window(roots)
    assert w.weights == (Fraction(-2), Fraction(-1))
    assert is_fredholm_weight(w, 0) is True
    assert is_fredholm_weight(w, -2) is False
    assert is_fredholm_weight(w, -1) is False
    assert is_fredholm_weight(w, Fraction(-3, 2)) is True
    assert is_fredholm_weight(w, -1.0) is False
    assert is_fredholm_weight(w, 0.25) is True


def test_int_gamma_is_exact():
    """An int gamma takes the exact path, as the same Fraction does."""
    for op in (reduced_scalar_b(), reduced_D00("even")):
        M = indicial_poly(op)
        for gamma in (0, 2, -1):
            mat = M.evaluate(gamma)
            assert mat == M.evaluate(Fraction(gamma))
            assert all(type(v) is Fraction for row in mat for v in row)
            basis = M.nullspace(gamma)
            assert basis == M.nullspace(Fraction(gamma))
            assert all(type(c) is Fraction for v in basis for c in v)
    assert indicial_poly(reduced_scalar_b()).evaluate(2) == [[Fraction(6)]]


def test_on_weight_rule():
    """Exact against exact is equality; anything inexact agrees to
    1e-12."""
    assert on_weight(Fraction(-1), -1)
    assert on_weight(True, Fraction(1))
    assert not on_weight(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**15))
    assert on_weight(Fraction(1, 3), 1 / 3)
    assert on_weight(-1.0, -1 + 1e-13)
    assert not on_weight(-1.0, -1 + 1e-11)
    assert on_weight(complex(-2, 1e-13), Fraction(-2))
    assert not on_weight(complex(-2, 1e-11), -2)


def test_unrescaled_zero_mode_same_roots():
    """Left multiplication by a radial power moves the weight but not
    the roots, so the raw zero mode agrees with its rescaled form."""
    zm = project_modes(laplacian(metric_gh()), 0, (0, 0))
    roots = indicial_roots(indicial_poly(zm))
    assert [r.root for r in roots] == [Fraction(-1), Fraction(0)]


def test_trivial_euler_operator():
    op = ModeReducedOp((0, (0, 0)), "x", [[{1: X}]])
    M = indicial_poly(op)
    assert M.entry(0, 0) == [Fraction(0), Fraction(1)]
    roots = indicial_roots(M)
    assert [(r.root, r.multiplicity) for r in roots] == [(Fraction(0), 1)]


def test_l2_cutoff_constant():
    assert L2_CUTOFF == 1


# ---------------------------------------------------------------------------
# the coupled first-order systems
# ---------------------------------------------------------------------------

def test_even_block_entries():
    M = indicial_poly(reduced_D00("even"))
    # the coupled 2x2 block sits on components 3, 4
    assert M.entry(3, 3) == [Fraction(1), Fraction(-1)]   # -(gamma - 1)
    assert M.entry(3, 4) == [Fraction(1)]
    assert M.entry(4, 3) == [Fraction(-1)]
    assert M.entry(4, 4) == [Fraction(-1), Fraction(1)]   # gamma - 1


def test_even_determinant_and_roots():
    M = indicial_poly(reduced_D00("even"))
    assert M.det() == [Fraction(0)] * 7 + [Fraction(-2), Fraction(1)]
    roots = indicial_roots(M)
    assert [(r.root, r.multiplicity) for r in roots] == \
        [(Fraction(0), 7), (Fraction(2), 1)]
    r0, r2 = roots
    assert len(r0.nullvectors) == 7
    assert len(r2.nullvectors) == 1
    # root 0 forces the coupled pair to be opposite
    for v in r0.nullvectors:
        assert v[3] == -v[4]
    # root 2 lives on the coupled pair with equal components
    v = r2.nullvectors[0]
    assert v[3] == v[4] != 0
    assert all(v[i] == 0 for i in (0, 1, 2, 5, 6, 7))


def test_odd_determinant_and_roots():
    M = indicial_poly(reduced_D00("odd"))
    expected = [Fraction(1)]
    for _ in range(7):
        expected = _poly_mul(expected, [Fraction(-1, 2), Fraction(1)])
    expected = _poly_mul(expected, [Fraction(3, 2), Fraction(1)])
    assert M.det() == expected
    roots = indicial_roots(M)
    assert [(r.root, r.multiplicity) for r in roots] == \
        [(Fraction(-3, 2), 1), (Fraction(1, 2), 7)]
    neg, half = roots
    v = neg.nullvectors[0]
    assert v[3] == -v[4] != 0
    assert all(v[i] == 0 for i in (0, 1, 2, 5, 6, 7))
    assert len(half.nullvectors) == 7
    for v in half.nullvectors:
        assert v[3] == v[4]


def test_full_root_set():
    full = set()
    for parity in ("even", "odd"):
        for r in indicial_roots(indicial_poly(reduced_D00(parity))):
            full.add(r.root)
    assert full == {Fraction(-3, 2), Fraction(0), Fraction(1, 2),
                    Fraction(2)}


def test_nullvectors_annihilated_by_leading_part():
    """M(root) v = 0 exactly for every returned basis vector."""
    ops = [reduced_scalar_b(), reduced_D00("even"), reduced_D00("odd")]
    for op in ops:
        M = indicial_poly(op)
        for r in indicial_roots(M):
            mat = M.evaluate(r.root)
            for v in r.nullvectors:
                assert all(x == 0 for x in _mat_vec(mat, v))


# ---------------------------------------------------------------------------
# rejection of irregular (non-b-type) reductions
# ---------------------------------------------------------------------------

def test_circle_mode_rejected():
    op = project_modes(laplacian(metric_a()), 1, (0, 0), product_model=True)
    with pytest.raises(NotBTypeError) as exc:
        indicial_poly(op)
    assert "cell (0,0)" in str(exc.value)


def test_torus_mode_rejected():
    op = project_modes(laplacian(metric_a()), 0, (1, 0), product_model=True)
    with pytest.raises(NotBTypeError):
        indicial_poly(op)


def test_identically_zero_determinant_rejected():
    op = ModeReducedOp((0, (0, 0)), "x",
                       [[{1: X}, {1: X}], [{1: X}, {1: X}]])
    M = indicial_poly(op)
    with pytest.raises(ValueError):
        indicial_roots(M)


# ---------------------------------------------------------------------------
# inexact fallback and oracles
# ---------------------------------------------------------------------------

def test_irrational_roots_via_companion():
    # gamma(gamma-1) + gamma - 2 = gamma^2 - 2
    op = ModeReducedOp((0, (0, 0)), "x",
                       [[{2: X * X, 1: X, 0: RatFun.const(-2)}]])
    M = indicial_poly(op)
    assert M.entry(0, 0) == [Fraction(-2), Fraction(0), Fraction(1)]
    roots = indicial_roots(M)
    assert len(roots) == 2
    for r in roots:
        assert not isinstance(r.root, Fraction)
        assert abs(float(r.root) ** 2 - 2.0) < 1e-9
        assert r.multiplicity == 1
        assert len(r.nullvectors) == 1


def test_roots_against_bracket_bisect_oracle():
    """Every exact root reappears under grid sampling of the
    determinant, sign bracketing, and bisection."""
    for op in (reduced_scalar_b(), reduced_D00("even"), reduced_D00("odd")):
        M = indicial_poly(op)
        det = M.det()
        exact = sorted(float(r.root) for r in indicial_roots(M))
        found = []
        lo, hi, n = -4.0, 4.0, 2048
        prev_x, prev_f = lo, _poly_eval(det, lo)
        for i in range(1, n + 1):
            x = lo + (hi - lo) * i / n
            f = _poly_eval(det, x)
            if prev_f == 0.0:
                found.append(prev_x)
            elif prev_f * f < 0:
                a, b, fa = prev_x, x, prev_f
                for _ in range(80):
                    mid = (a + b) / 2
                    fm = _poly_eval(det, mid)
                    if fa * fm <= 0:
                        b = mid
                    else:
                        a, fa = mid, fm
                found.append((a + b) / 2)
            prev_x, prev_f = x, f
        assert len(found) == len(exact)
        for got, want in zip(sorted(found), exact):
            assert abs(got - want) < 1e-9


@settings(max_examples=60, deadline=None)
@given(a=st.integers(1, 5), b=st.integers(-6, 6), c=st.integers(-6, 6))
def test_random_regular_singular_operators(a, b, c):
    """For a x^2 u'' + b x u' + c u the indicial polynomial is
    a g(g-1) + b g + c and the returned roots kill it."""
    op = ModeReducedOp((0, (0, 0)), "x", [[{
        2: RatFun.const(a) * X * X,
        1: RatFun.const(b) * X,
        0: RatFun.const(c),
    }]])
    M = indicial_poly(op)
    assert M.entry(0, 0) == [Fraction(c), Fraction(b - a), Fraction(a)]
    det = M.det()
    roots = indicial_roots(M)
    total = sum(r.multiplicity for r in roots)
    assert total == 2
    for r in roots:
        if isinstance(r.root, Fraction):
            acc = Fraction(0)
            for coeff in reversed(det):
                acc = acc * r.root + coeff
            assert acc == 0
        else:
            assert abs(_poly_eval(det, complex(r.root))) < 1e-7
    w = weight_window(roots)
    for r in roots:
        shifted = (r.root - 1) if isinstance(r.root, Fraction) \
            else float(r.root.real) - 1.0
        if isinstance(shifted, Fraction):
            assert is_fredholm_weight(w, shifted) is False


# Planted indicial polynomials: rational roots with multiplicities, times
# an optional quadratic a g^2 + b g + c with no rational root.
_PLANTED = [
    # large numerators and denominators, all simple
    ([(Fraction(7919, 360), 1), (Fraction(-104729, 1024), 1),
      (Fraction(3, 7), 1)], None),
    # repeated rational roots
    ([(Fraction(-2999, 96), 2), (Fraction(1, 2), 3),
      (Fraction(65537, 5), 1)], None),
    ([(Fraction(0), 2), (Fraction(-1, 3), 2), (Fraction(-4, 5), 1)], None),
    # one simple irrational quadratic factor: real, then complex roots
    ([(Fraction(4099, 81), 1), (Fraction(-1, 3), 2)], (3, -5, -11)),
    ([(Fraction(-12345, 1331), 1), (Fraction(7, 2), 2)], (1, 1, 5)),
]


def _euler_op(p, g):
    """Scalar Euler operator sum a_j x^j d^j whose indicial polynomial
    is the sympy polynomial p in g."""
    import sympy as sp
    rest = sp.Poly(p, g)
    cell = {}
    while not rest.is_zero:
        j, a = rest.degree(), rest.LC()
        cell[j] = RatFun.const(Fraction(int(a.p), int(a.q))) * X ** j
        rest -= sp.Poly(a * sp.expand_func(sp.ff(g, j)), g)
    return ModeReducedOp((0, (0, 0)), "x", [[cell]])


@pytest.mark.parametrize("planted,quadratic", _PLANTED)
def test_roots_against_sympy_oracle(planted, quadratic):
    """Rational roots and multiplicities equal sympy's exactly; the
    roots of the irrational factor agree to 1e-9."""
    import sympy as sp
    g = sp.Symbol("g")
    p = sp.Integer(1)
    for root, mult in planted:
        p *= (g - sp.Rational(root.numerator, root.denominator)) ** mult
    if quadratic is not None:
        a, b, c = quadratic
        p *= a * g ** 2 + b * g + c
    roots = indicial_roots(indicial_poly(_euler_op(sp.expand(p), g)))
    want = sp.roots(sp.Poly(p, g))
    assert {r.root: r.multiplicity for r in roots
            if isinstance(r.root, Fraction)} == \
        {Fraction(int(r.p), int(r.q)): m for r, m in want.items()
         if r.is_Rational}
    inexact = [r for r in roots if not isinstance(r.root, Fraction)]
    assert all(r.multiplicity == 1 for r in inexact)
    want_inexact = sorted((complex(sp.N(r, 30)) for r, m in want.items()
                           if not r.is_Rational),
                          key=lambda z: (z.real, z.imag))
    got_inexact = sorted((complex(r.root) for r in inexact),
                         key=lambda z: (z.real, z.imag))
    assert len(got_inexact) == len(want_inexact) == \
        (0 if quadratic is None else 2)
    for z, w in zip(got_inexact, want_inexact):
        assert abs(z - w) < 1e-9 * max(1.0, abs(w))


def test_indicial_data_is_computed_once_per_operator(monkeypatch):
    """indicial_poly keeps its result on the operator and indicial_roots
    keeps the roots on that polynomial; each call still gets a list of
    its own, and an equal but separate operator computes afresh."""
    calls = []
    rational_roots = indicial._rational_roots
    monkeypatch.setattr(indicial, "_rational_roots",
                        lambda p: calls.append(p) or rational_roots(p))
    op = reduced_D00("even")
    M = indicial_poly(op)
    assert indicial_poly(op) is M
    first, second = indicial_roots(M), indicial_roots(indicial_poly(op))
    assert first == second and first is not second
    first.clear()
    assert indicial_roots(M) == second
    assert len(calls) == 1
    other = reduced_D00("even")
    assert other == op and indicial_poly(other) is not M
    assert indicial_roots(indicial_poly(other)) == second
    assert len(calls) == 2
