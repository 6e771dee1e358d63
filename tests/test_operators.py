"""Structure fields, Laplacians, mode reduction, the first-order systems,
and blowup lifts."""

import random
from fractions import Fraction

import pytest

from alhlab.forms import FormField, codifferential, ext_d
from alhlab.geometry import (Chart, metric_a, metric_gh, metric_model,
                             r_chart, x_chart)
from alhlab import operators
from alhlab.operators import (CouplingError, DiffOpExpr, ModeReducedOp,
                              VectorFieldExpr, a_rescale_identity,
                              blowup_lift, compose,
                              frame_solve, front_face_normal_op,
                              hodge_derham_radial_square, laplacian,
                              lie_bracket, product_model_laplacian,
                              project_modes, reduced_D00, reduced_scalar_b,
                              structure_fields, vf_square)
from alhlab.ratfun import Poly, RatFun

from oracles import fd_apply_diffop

X = RatFun.var("x")
Y1 = RatFun.var("y1")
Y2 = RatFun.var("y2")
CH = x_chart()
Z = RatFun.const(0)
ONE = RatFun.const(1)


def _random_ratfun(rng):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        key = (rng.randint(0, 3), 0, rng.randint(0, 2), rng.randint(0, 2)) \
            + (0,) * 7
        terms[key] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    p = RatFun(Poly(terms))
    if rng.random() < 0.4:
        p = p / RatFun.var("x", rng.randint(1, 2))
    return p


# ---------------------------------------------------------------------------
# structure fields and brackets
# ---------------------------------------------------------------------------

def test_structure_fields_a():
    a = structure_fields("a")
    assert a[0] == VectorFieldExpr(CH, [X ** 3, Z, Z, Z])
    assert a[1] == VectorFieldExpr(CH, [Z, X, Z, Z])
    assert a[2] == VectorFieldExpr(CH, [Z, Z, X, Z])
    assert a[3] == VectorFieldExpr(CH, [Z, Z, Z, ONE])


def test_structure_fields_twisted():
    tw = structure_fields("a", twisted=True)[2]
    assert tw.coefficients[2] == X
    assert tw.coefficients[3] == -X * Y1


def test_structure_fields_b_c():
    b = structure_fields("b")
    assert len(b) == 1 and b[0] == VectorFieldExpr(CH, [X, Z, Z, Z])
    c = structure_fields("c")
    assert c[0] == VectorFieldExpr(CH, [X * X, Z, Z, Z])
    assert c[1] == VectorFieldExpr(CH, [Z, ONE, Z, Z])
    assert c[2] == VectorFieldExpr(CH, [Z, Z, ONE, Z])
    ct = structure_fields("c", twisted=True)[2]
    assert ct.coefficients[3] == -Y1


def test_bracket_examples():
    a = structure_fields("a")
    tw = structure_fields("a", twisted=True)
    assert lie_bracket(a[0], a[1]) == VectorFieldExpr(CH, [Z, X ** 3, Z, Z])
    assert lie_bracket(a[3], a[1]) == VectorFieldExpr(CH, [Z, Z, Z, Z])
    # [x dy1, x(dy2 - y1 dtheta)] = -x^2 dtheta
    got = lie_bracket(a[1], tw[2])
    assert got == VectorFieldExpr(CH, [Z, Z, Z, -X * X])
    # [x^3 dx, twisted] = x^2 * twisted
    got2 = lie_bracket(a[0], tw[2])
    assert got2 == tw[2].scale(X * X)


def test_twisted_frame_closure():
    """Brackets of the twisted structure frame stay in its span, by an
    exact linear solve."""
    tw = structure_fields("a", twisted=True)
    for i in range(4):
        for j in range(i + 1, 4):
            br = lie_bracket(tw[i], tw[j])
            coeffs = frame_solve(tw, br)
            rebuilt = VectorFieldExpr(CH, [Z, Z, Z, Z])
            for c, f in zip(coeffs, tw):
                rebuilt = rebuilt + f.scale(c)
            assert rebuilt == br


def test_bracket_is_the_commutator_of_compositions():
    tw = structure_fields("a", twisted=True)
    for v in tw:
        for w in tw:
            assert lie_bracket(v, w) == compose(v, w) - compose(w, v)


def test_vector_fields_are_first_order_diffops():
    for kind in ("a", "b", "c"):
        for twisted in (False, True):
            for v in structure_fields(kind, twisted=twisted):
                assert isinstance(v, DiffOpExpr) and v.order() == 1
                assert VectorFieldExpr(CH, v.coefficients) == v
    with pytest.raises(ValueError):
        VectorFieldExpr(CH, [X, Z, Z])
    with pytest.raises(ValueError):
        VectorFieldExpr(CH, [X, Z, Z, Z, Z])


# ---------------------------------------------------------------------------
# DiffOpExpr algebra
# ---------------------------------------------------------------------------

def test_compose_leibniz():
    dx = DiffOpExpr(CH, {(1, 0, 0, 0): ONE})
    mult_x = DiffOpExpr(CH, {(0, 0, 0, 0): X})
    got = compose(dx, mult_x)
    assert got == DiffOpExpr(CH, {(1, 0, 0, 0): X, (0, 0, 0, 0): ONE})


def test_vf_square():
    a0 = structure_fields("a")[0]
    sq = vf_square(a0)
    assert sq == DiffOpExpr(CH, {(2, 0, 0, 0): X ** 6,
                                 (1, 0, 0, 0): RatFun.const(3) * X ** 5})


def test_apply_kills_circle_derivatives():
    op = DiffOpExpr(CH, {(0, 0, 0, 1): ONE, (1, 0, 0, 0): ONE})
    assert op.apply(X * X) == RatFun.const(2) * X


def test_compose_is_application_composition():
    rng = random.Random(11)
    A = DiffOpExpr(CH, {(1, 0, 0, 0): X * X, (0, 1, 0, 0): Y1})
    B = DiffOpExpr(CH, {(1, 1, 0, 0): X, (0, 0, 0, 0): Y1 * Y1})
    AB = compose(A, B)
    for _ in range(6):
        f = _random_ratfun(rng)
        assert AB.apply(f) == A.apply(B.apply(f))


# ---------------------------------------------------------------------------
# Laplacians
# ---------------------------------------------------------------------------

def test_laplacian_gh_pinned_coefficients():
    L = laplacian(metric_gh())
    assert L.coefficient((2, 0, 0, 0)) == X ** 5
    assert L.coefficient((1, 0, 0, 0)) == RatFun.const(2) * X ** 4
    assert L.coefficient((0, 2, 0, 0)) == X
    assert L.coefficient((0, 0, 2, 0)) == X
    assert L.coefficient((0, 0, 1, 1)) == RatFun.const(-2) * X * Y1
    assert L.coefficient((0, 0, 0, 2)) == X ** -1 + X * Y1 * Y1
    assert len(L.terms) == 6


def test_laplacian_examples():
    L = laplacian(metric_gh())
    assert L.apply(X) == RatFun.const(2) * X ** 4
    assert L.apply(ONE).is_zero()
    # circle-symbol check: the second-order circle coefficient times i^2
    assert -L.coefficient((0, 0, 0, 2)) == -(X ** -1 + X * Y1 * Y1)


def test_geometer_laplacian_and_forms_consistency():
    g = metric_gh()
    Lgeo = -laplacian(g)
    rng = random.Random(5)
    for _ in range(4):
        f = _random_ratfun(rng)
        via_forms = codifferential(ext_d(FormField.function(CH, f)), g)
        assert via_forms.get(()) == Lgeo.apply(f)


def test_laplacian_model_metric():
    # model = x * gh, conformal in dimension 4: check radial part directly
    L = laplacian(metric_model())
    assert L.coefficient((2, 0, 0, 0)) == X ** 4
    assert L.apply(ONE).is_zero()


def test_a_rescale_identity_holds():
    assert a_rescale_identity() is True


def test_a_rescale_identity_application_oracle():
    """The grouped and expanded forms agree on 12 random test functions."""
    lhs = laplacian(metric_gh()).scale(X)
    rhs = product_model_laplacian() + DiffOpExpr(CH, {
        (1, 0, 0, 0): -(X ** 5),
        (0, 0, 1, 1): RatFun.const(-2) * X * X * Y1,
        (0, 0, 0, 2): X * X * Y1 * Y1,
    })
    rng = random.Random(23)
    for _ in range(12):
        f = _random_ratfun(rng)
        assert lhs.apply(f) == rhs.apply(f)


def test_product_model_laplacian_pinned():
    P = product_model_laplacian()
    assert P == DiffOpExpr(CH, {
        (2, 0, 0, 0): X ** 6,
        (1, 0, 0, 0): RatFun.const(3) * X ** 5,
        (0, 2, 0, 0): X * X,
        (0, 0, 2, 0): X * X,
        (0, 0, 0, 2): ONE,
    })
    assert product_model_laplacian() is P


# ---------------------------------------------------------------------------
# mode reduction
# ---------------------------------------------------------------------------

def test_project_zero_mode_gh():
    r = project_modes(laplacian(metric_gh()), 0, (0, 0))
    assert r.size == 1
    assert r.coefficient(0, 0, 2) == X ** 5
    assert r.coefficient(0, 0, 1) == RatFun.const(2) * X ** 4
    assert r.coefficient(0, 0, 0).is_zero()
    assert r.mode_class == "zero"


def test_project_coupling_rejected():
    """A twisted operator is refused at k != 0; at k = 0 its torus modes
    decouple and it reduces to the closed forms."""
    L = laplacian(metric_gh())
    with pytest.raises(CouplingError):
        project_modes(L, 1, (0, 0))
    La = laplacian(metric_a())
    for op, m, want in (
            (La, (1, 0), {2: X ** 6, 1: X ** 5, 0: -X * X}),
            (La, (2, 1), {2: X ** 6, 1: X ** 5, 0: RatFun.const(-5) * X * X}),
            (L, (1, 0), {2: X ** 5, 1: RatFun.const(2) * X ** 4, 0: -X})):
        assert project_modes(op, 0, m) == ModeReducedOp((0, m), "x", [[want]])


def test_project_product_model_sweep():
    """The product reduction of the rescaled-frame Laplacian is the
    hand-assembled radial operator at every mode."""
    La = laplacian(metric_a())
    for k in range(0, 3):
        for m1 in range(0, 3):
            for m2 in range(0, 2):
                r = project_modes(La, k, (m1, m2), product_model=True)
                assert r.coefficient(0, 0, 2) == X ** 6
                assert r.coefficient(0, 0, 1) == RatFun.const(3) * X ** 5
                expected0 = RatFun.const(-(m1 * m1 + m2 * m2)) * X * X \
                    + RatFun.const(-(k * k))
                assert r.coefficient(0, 0, 0) == expected0


def test_project_product_model_requires_a_type():
    with pytest.raises(ValueError):
        project_modes(laplacian(metric_gh()), 1, (0, 0), product_model=True)


def test_mode_classes():
    La = laplacian(metric_a())
    assert project_modes(La, 1, (0, 0), product_model=True).mode_class \
        == "theta_perp"
    assert project_modes(La, 0, (1, 0), product_model=True).mode_class \
        == "y_perp"
    assert project_modes(La, 0, (0, 0), product_model=True).mode_class \
        == "zero"


# ---------------------------------------------------------------------------
# reduced zero-mode operators
# ---------------------------------------------------------------------------

def test_reduced_scalar_b_pinned():
    L = reduced_scalar_b()
    assert L.coefficient(0, 0, 2) == X * X
    assert L.coefficient(0, 0, 1) == RatFun.const(2) * X
    # both indicial solutions annihilated
    assert L.apply([ONE])[0].is_zero()
    assert L.apply([X ** -1])[0].is_zero()


def test_reduced_scalar_b_rescale_identity():
    zero_mode = project_modes(laplacian(metric_gh()), 0, (0, 0))
    assert zero_mode.scale_left(X ** -3) == reduced_scalar_b()


def test_d00_even_pinned_rows():
    D = reduced_D00("even")
    assert D.size == 8
    # diagonal radial rows: f0 row is +x d/dx, f12 row is -x d/dx
    assert D.coefficient(0, 0, 1) == X
    assert D.coefficient(1, 1, 1) == -X
    # the coupled block on (f14, f23)
    assert D.coefficient(3, 3, 1) == -X
    assert D.coefficient(3, 3, 0) == ONE
    assert D.coefficient(3, 4, 0) == ONE
    assert D.coefficient(4, 3, 0) == -ONE
    assert D.coefficient(4, 4, 1) == X
    assert D.coefficient(4, 4, 0) == -ONE


def test_d00_odd_pinned_rows():
    D = reduced_D00("odd")
    # f1 row: -(x d/dx - 1/2)
    assert D.coefficient(0, 0, 1) == -X
    assert D.coefficient(0, 0, 0) == RatFun.const(Fraction(1, 2))
    # the coupled block on (f4, f123)
    assert D.coefficient(3, 3, 1) == X
    assert D.coefficient(3, 3, 0) == RatFun.const(Fraction(1, 2))
    assert D.coefficient(3, 4, 0) == -ONE
    assert D.coefficient(4, 3, 0) == ONE
    assert D.coefficient(4, 4, 1) == -X
    assert D.coefficient(4, 4, 0) == RatFun.const(Fraction(-1, 2))


def test_d00_derived_once_per_process(monkeypatch):
    """Both blocks are derived from forms on the first call; later calls
    return the same operator without taking a Hodge star."""
    first = {p: reduced_D00(p) for p in ("even", "odd")}

    def no_star(*args):
        raise AssertionError("hodge_star called after the first derivation")
    monkeypatch.setattr(operators, "hodge_star", no_star)
    for parity, op in first.items():
        again = reduced_D00(parity)
        assert again is op
    with pytest.raises(ValueError):
        reduced_D00("both")
    # the patch does reach the derivation
    operators.reduced_D00.cache_clear()
    operators._d00_cells.cache_clear()
    with pytest.raises(AssertionError, match="after the first"):
        reduced_D00("even")


def test_reduced_operators_are_read_only():
    assert reduced_scalar_b() is reduced_scalar_b()
    assert reduced_scalar_b("s") is not reduced_scalar_b()
    for op in (reduced_scalar_b(), reduced_D00("even")):
        assert type(op.entries) is tuple
        assert all(type(row) is tuple for row in op.entries)
        with pytest.raises(TypeError):
            op.entries[0][0][0] = RatFun.const(1)
        with pytest.raises(TypeError):
            op.entries[0][0] = {}


def test_d00_even_nullvectors():
    D = reduced_D00("even")
    z = Z
    c = RatFun.const(7)
    # root 0: f14 = -f23 constant
    v0 = [z, z, z, c, -c, z, z, z]
    assert all(e.is_zero() for e in D.apply(v0))
    # root 2: f14 = f23 = x^2
    v2 = [z, z, z, X * X, X * X, z, z, z]
    assert all(e.is_zero() for e in D.apply(v2))
    # decoupled components: constants annihilated (root 0)
    vc = [c, c, c, z, z, c, c, c]
    assert all(e.is_zero() for e in D.apply(vc))


# ---------------------------------------------------------------------------
# blowup lifts with an exact pushforward oracle
# ---------------------------------------------------------------------------

def _stage_data(stage):
    radial = {"b": "s", "c": "s_prime", "a": "S"}[stage]
    jac_pow = {"b": 1, "c": 2, "a": 3}[stage]
    return radial, jac_pow


def _x_of(stage, xt, u):
    if stage == "b":
        return xt * u
    if stage == "c":
        return xt * (1 + xt * u)
    return xt * (1 + xt * xt * u)


@pytest.mark.parametrize("stage", ["b", "c", "a"])
def test_lift_radial_field_oracle(stage):
    """x^3 d/dx lifted through each blowup matches the exact chain rule
    at 10 rational points."""
    field = structure_fields("a")[0]
    lifted = blowup_lift(field, stage)
    radial, jac_pow = _stage_data(stage)
    rng = random.Random(31)
    for _ in range(10):
        xt = Fraction(rng.randint(1, 9), rng.randint(10, 40))
        u = Fraction(rng.randint(1, 40), rng.randint(5, 20))
        x_val = _x_of(stage, xt, u)
        pt = {"x": xt, radial: u}
        got = lifted.coefficients[0].evaluate(pt)
        # d/d(stage var) = xt^{jac_pow} d/dx, so the coefficient is
        # x^3 / xt^{jac_pow} evaluated at x = x(xt, u)
        assert got == x_val ** 3 / xt ** jac_pow


@pytest.mark.parametrize("stage", ["b", "c", "a"])
@pytest.mark.parametrize("gen_index", [1, 2])
def test_lift_fiber_fields_oracle(stage, gen_index):
    field = structure_fields("a")[gen_index]
    lifted = blowup_lift(field, stage)
    radial, _ = _stage_data(stage)
    fiber_jac = Fraction(1) if stage in ("b", "c") else None  # a: dY = dy/xt
    rng = random.Random(37 + gen_index)
    for _ in range(10):
        xt = Fraction(rng.randint(1, 9), rng.randint(10, 40))
        u = Fraction(rng.randint(1, 40), rng.randint(5, 20))
        x_val = _x_of(stage, xt, u)
        pt = {"x": xt, radial: u}
        got = lifted.coefficients[gen_index].evaluate(pt)
        scale = xt if stage == "a" else Fraction(1)
        assert got == x_val / scale


def test_lift_circle_field_unchanged():
    field = structure_fields("a")[3]
    for stage in ("b", "c", "a"):
        lifted = blowup_lift(field, stage)
        assert lifted.coefficients[3] == ONE
        assert all(lifted.coefficients[i].is_zero() for i in range(3))


def test_lift_twisted_field_oracle():
    """The twisted generator's full lift at the last stage: both the
    fiber coefficient and the circle coefficient match the chain rule
    (x = xt(1 + xt^2 S), y1 = yt1 + xt Y1) at 10 rational points."""
    field = structure_fields("a", twisted=True)[2]
    lifted = blowup_lift(field, "a")
    rng = random.Random(41)
    for _ in range(10):
        xt = Fraction(rng.randint(1, 9), rng.randint(10, 40))
        S = Fraction(rng.randint(1, 40), rng.randint(5, 20))
        yt1 = Fraction(rng.randint(-10, 10), rng.randint(1, 7))
        Y1 = Fraction(rng.randint(-10, 10), rng.randint(1, 7))
        x_val = xt * (1 + xt * xt * S)
        y1_val = yt1 + xt * Y1
        pt = {"x": xt, "S": S, "y1": yt1, "Y1": Y1}
        assert lifted.coefficients[2].evaluate(pt) == x_val / xt
        assert lifted.coefficients[3].evaluate(pt) == -(x_val * y1_val)


def test_lift_twisted_field_lower_stages():
    field = structure_fields("a", twisted=True)[2]
    lb = blowup_lift(field, "b")
    s = RatFun.var("s")
    assert lb.coefficients[2] == X * s
    assert lb.coefficients[3] == -X * s * Y1


@pytest.mark.parametrize("stage", ["b", "c", "a"])
def test_lift_general_field_oracle(stage):
    """A field that is no structure generator, x y1 d/dx + x^2 d/dy2 -
    x y1 d/dtheta, lifts by the chain rule (y1 = yt1 + xt Y1 at stage a)
    at 10 rational points."""
    field = VectorFieldExpr(CH, [X * Y1, Z, X * X, -X * Y1])
    lifted = blowup_lift(field, stage)
    radial, jac_pow = _stage_data(stage)
    rng = random.Random(43)
    for _ in range(10):
        xt = Fraction(rng.randint(1, 9), rng.randint(10, 40))
        u = Fraction(rng.randint(1, 40), rng.randint(5, 20))
        yt1 = Fraction(rng.randint(-10, 10), rng.randint(1, 7))
        Y1_val = Fraction(rng.randint(-10, 10), rng.randint(1, 7))
        x_val = _x_of(stage, xt, u)
        y1_val = yt1 + xt * Y1_val if stage == "a" else yt1
        pt = {"x": xt, radial: u, "y1": yt1, "Y1": Y1_val}
        fiber = xt if stage == "a" else Fraction(1)
        got = [c.evaluate(pt) for c in lifted.coefficients]
        assert got == [x_val * y1_val / xt ** jac_pow, 0,
                       x_val * x_val / fiber, -x_val * y1_val]


def test_lift_rejects_unknown_stage_and_chart():
    with pytest.raises(ValueError):
        blowup_lift(structure_fields("a")[0], "d")
    with pytest.raises(ValueError):
        blowup_lift(VectorFieldExpr(r_chart(), [ONE, Z, Z, Z]), "b")


def test_lift_rejects_a_root_chart_field():
    """The calabi-root chart's radial variable is also called x; a field
    on it is not on the x-chart and does not lift."""
    field = VectorFieldExpr(Chart("calabi-root"), [X ** 3, Z, Z, Z])
    with pytest.raises(ValueError, match="x-chart"):
        blowup_lift(field, "b")


# ---------------------------------------------------------------------------
# front-face normal operators
# ---------------------------------------------------------------------------

def test_front_face_a_component():
    op = front_face_normal_op("a", k=1)
    assert op.var == "S"
    assert op.coefficient(0, 0, 2) == ONE
    assert op.coefficient(0, 0, 0) == RatFun.const(-1)
    op2 = front_face_normal_op("a", k=2, m=(1, 1))
    assert op2.coefficient(0, 0, 0) == RatFun.const(-6)
    with pytest.raises(ValueError):
        front_face_normal_op("a", k=0)


def test_front_face_a_symbol_negative():
    """Fourier symbol of the last-stage normal operator is <= -1 for
    every frequency: -|xi|^2 - k^2 with k^2 >= 1."""
    op = front_face_normal_op("a", k=1)
    for xi in (0.0, 0.5, 2.0):
        symbol = -xi * xi * float(op.coefficient(0, 0, 2).evaluate({})) \
            + float(op.coefficient(0, 0, 0).evaluate({}))
        assert symbol <= -1


def test_front_face_c_component():
    op = front_face_normal_op("c", m=(1, 0))
    assert op.var == "s_prime"
    assert op.coefficient(0, 0, 0) == RatFun.const(-1)
    with pytest.raises(ValueError):
        front_face_normal_op("c", m=(0, 0))
    # exp(-s') solves the constant-coefficient equation: finite
    # differences of the operator applied to it vanish
    import math
    h = 1e-4
    for sp in (0.3, 1.0, 2.5):
        upp = (math.exp(-(sp + h)) - 2 * math.exp(-sp)
               + math.exp(-(sp - h))) / (h * h)
        residual = float(op.coefficient(0, 0, 2).evaluate({})) * upp \
            + float(op.coefficient(0, 0, 0).evaluate({})) * math.exp(-sp)
        assert abs(residual) < 1e-6


def test_front_face_b_component():
    op = front_face_normal_op("b")
    s = RatFun.var("s")
    assert op.var == "s"
    assert op.coefficient(0, 0, 2) == s * s
    assert op.coefficient(0, 0, 1) == RatFun.const(2) * s
    assert op == reduced_scalar_b("s")


# ---------------------------------------------------------------------------
# the Hodge-de Rham operator from forms
# ---------------------------------------------------------------------------

def test_hd_radial_square_is_zero_mode_laplacian():
    sq = hodge_derham_radial_square()
    expected = DiffOpExpr(CH, {(2, 0, 0, 0): X ** 5,
                               (1, 0, 0, 0): RatFun.const(2) * X ** 4})
    assert sq == expected


def test_hd_square_fd_application_oracle():
    """Squared first-order system applied numerically to a compactly
    supported radial function agrees with the exact scalar Laplacian at
    3 interior points."""
    sq = hodge_derham_radial_square()
    L = laplacian(metric_gh())
    # rational bump supported on [0, 1/2]
    bump = (X * (RatFun.const(Fraction(1, 2)) - X)) ** 4 \
        * RatFun.const(4096)

    def bump_float(coords):
        xv = coords[0]
        return float(bump.evaluate({"x": Fraction(xv)}))
    for xv in (0.15, 0.25, 0.4):
        pt = {"x": Fraction(xv).limit_denominator(1000)}
        exact = float(L.apply(bump).evaluate(pt))
        terms = {idx: float(c.evaluate(pt)) for idx, c in sq.terms.items()}
        approx = fd_apply_diffop(terms, bump_float,
                                 [float(pt["x"]), 0.0, 0.0, 0.0], h=1e-3)
        assert abs(approx - exact) / max(abs(exact), 1e-12) < 1e-6
