"""Triple algebra, the boundary-data manifold, deformation families,
and the symmetric gauge."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alhlab import hk
from alhlab.config import ExactIdentityError
from alhlab.forms import FormField, PMBasis
from alhlab.geometry import metric_gh_r
from alhlab.hk import (
    SEMIFLAT_KINDS,
    DeformationFamily,
    Jet2,
    PPoint,
    Triple,
    calabi_modulus_constraint_exact,
    calabi_scaling_constraint_exact,
    constraint_F,
    family_calabi_modulus,
    family_calabi_scaling,
    family_semiflat,
    gauge_residual,
    pullback_pm,
    q_map,
    second_derivative_report,
    symmetrize,
    tangent_space,
)
from alhlab.ratfun import RatFun

BASE = PPoint(np.eye(3), np.zeros((3, 3)), 1.0)


# ---------------------------------------------------------------------------
# triples and the quadratic defect map
# ---------------------------------------------------------------------------

def test_standard_triple_carries_both_flags():
    t = Triple.standard()
    assert t.flags == {"symplectic", "definite"}
    assert all(w.degree == 2 for w in t.forms)


def test_symplectic_flag_rejects_non_closed_member():
    b = PMBasis()
    with pytest.raises(ValueError, match="not closed"):
        Triple((b.minus[0], b.plus[1], b.plus[2]), ("symplectic",))
    # the other two anti-self-dual members are closed
    Triple((b.minus[1], b.plus[1], b.plus[2]), ("symplectic",))


def test_definite_flag_rejects_degenerate_gram():
    b = PMBasis()
    with pytest.raises(ValueError, match="positive definite"):
        Triple((b.plus[0], b.plus[0], b.plus[0]), ("definite",))


def test_triple_shape_validation():
    b = PMBasis()
    with pytest.raises(ValueError, match="three"):
        Triple(b.plus[:2])
    vol = PMBasis().volume_form()
    with pytest.raises(ValueError, match="2-forms"):
        Triple((vol, vol, vol))


def test_q_map_standard_triple_vanishes():
    b = PMBasis()
    q = q_map(Triple.standard(), b.volume_form())
    assert all(q[i][j].is_zero() for i in range(3) for j in range(3))


def test_q_map_repeated_form_pinned_values():
    b = PMBasis()
    q = q_map((b.plus[0], b.plus[0], b.plus[0]), b.volume_form())
    two_r = RatFun.const(2) * RatFun.var("r")
    for i in range(3):
        for j in range(3):
            if i == j:
                assert q[i][j].is_zero()
            else:
                assert q[i][j] == two_r


def test_q_map_rejects_zero_or_wrong_degree_volume():
    b = PMBasis()
    with pytest.raises(ValueError, match="vanishes"):
        q_map(Triple.standard(), FormField.zero(b.chart, 4))
    with pytest.raises(ValueError, match="degree 4"):
        q_map(Triple.standard(), b.plus[0])


@st.composite
def _combination_coeffs(draw):
    return [Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 4)))
            for _ in range(18)]


@settings(max_examples=10, deadline=None)
@given(_combination_coeffs())
def test_q_map_symmetric_and_trace_free(coeffs):
    b = PMBasis()
    six = b.all_six()
    forms = []
    for i in range(3):
        w = FormField.zero(b.chart, 2)
        for k in range(6):
            w = w + six[k].scale(RatFun.const(coeffs[6 * i + k]))
        forms.append(w)
    q = q_map(forms, b.volume_form())
    assert (q[0][0] + q[1][1] + q[2][2]).is_zero()
    for i in range(3):
        for j in range(i + 1, 3):
            assert q[i][j] == q[j][i]


# ---------------------------------------------------------------------------
# gauged residual
# ---------------------------------------------------------------------------

def test_gauge_residual_vanishes_for_zero_deformation():
    b = PMBasis()
    zero = FormField.zero(b.chart, 2)
    res = gauge_residual((zero, zero, zero), Triple.standard(), metric_gh_r())
    assert all(res[i][j].is_zero() for i in range(3) for j in range(3))


def test_gauge_residual_vanishes_for_anti_self_dual_triple():
    b = PMBasis()
    res = gauge_residual(Triple(b.minus), Triple.standard(), metric_gh_r())
    assert all(res[i][j].is_zero() for i in range(3) for j in range(3))


def test_gauge_residual_conformal_scaling_exact():
    b = PMBasis()
    eps = Fraction(1, 8)
    eta = Triple(tuple(w.scale(RatFun.const(eps)) for w in b.plus))
    res = gauge_residual(eta, Triple.standard(), metric_gh_r())
    expected = RatFun.const(4 * eps)
    for i in range(3):
        for j in range(3):
            if i == j:
                assert res[i][j] == expected
            else:
                assert res[i][j].is_zero()


# ---------------------------------------------------------------------------
# the boundary-data manifold
# ---------------------------------------------------------------------------

def test_constraint_vanishes_at_base_point():
    assert np.array_equal(constraint_F(np.eye(3), np.zeros((3, 3)), 1.0),
                          np.zeros((3, 3)))


def test_ppoint_validation():
    eye, zero = np.eye(3), np.zeros((3, 3))
    skew = eye.copy()
    skew[0, 1] = 0.5
    with pytest.raises(ValueError, match="symmetric"):
        PPoint(skew, zero, 1.0)
    bad_b = zero.copy()
    bad_b[0, 2] = 0.25
    with pytest.raises(ValueError, match="first row"):
        PPoint(eye, bad_b, 1.0)
    with pytest.raises(ValueError, match="positive"):
        PPoint(eye, zero, 0.0)
    with pytest.raises(ValueError, match="constraint residual"):
        PPoint(eye, zero, 2.0)
    # the same data is accepted once the on-manifold check is waived
    off = PPoint(eye, zero, 2.0, on_manifold=False)
    assert off.lam == 2.0
    stretched = np.diag([2.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="trace"):
        PPoint(stretched, zero, 2.0, on_manifold=False)
    PPoint(stretched, zero, 2.0, on_manifold=False, gauge_fixed=False)


def test_tangent_space_at_base_point():
    basis = tangent_space(BASE)
    assert len(basis) == 6
    for vec in basis:
        assert np.max(np.abs(vec.A_dot)) < 1e-10
        assert abs(vec.lam_dot) < 1e-10
        assert np.max(np.abs(vec.B_dot[0])) < 1e-10
    stacked = np.array([vec.B_dot[1:].ravel() for vec in basis])
    assert np.linalg.matrix_rank(stacked, tol=1e-10) == 6


def test_tangent_space_rejects_degenerate_point():
    degenerate = PPoint(np.zeros((3, 3)), np.zeros((3, 3)), 1.0,
                        on_manifold=False, gauge_fixed=False)
    with pytest.raises(ValueError, match="not a manifold point"):
        tangent_space(degenerate)


# ---------------------------------------------------------------------------
# exact constraint identities of the closed-form families
# ---------------------------------------------------------------------------

def test_scaling_family_constraint_exact_symbolically():
    assert calabi_scaling_constraint_exact()


def test_modulus_family_constraint_exact_symbolically():
    assert calabi_modulus_constraint_exact(Fraction(3, 5), Fraction(4, 5))
    assert calabi_modulus_constraint_exact(Fraction(1, 2), Fraction(1, 3))


# ---------------------------------------------------------------------------
# deformation families: values and derivatives
# ---------------------------------------------------------------------------

def test_families_start_at_base_point_and_stay_on_manifold():
    for fam in (family_calabi_scaling(0.8), family_calabi_modulus(0.7, 0.4)):
        A0, B0, lam0 = fam.evaluate(0.0)
        assert np.max(np.abs(A0 - np.eye(3))) == 0.0
        assert np.max(np.abs(B0)) == 0.0
        assert lam0 == 1.0
        A, B, lam = fam.evaluate(0.2)
        assert np.max(np.abs(constraint_F(A, B, lam))) < 1e-14
        assert abs(np.trace(A) - 3.0) < 1e-14


def test_scaling_family_second_derivative_report():
    alpha = 0.8
    rep = second_derivative_report(family_calabi_scaling(alpha))
    a2 = alpha * alpha
    expect_A = np.diag([-2.0 * a2, a2, a2])
    expect_B = np.diag([0.0, np.sqrt(3.0) * alpha, np.sqrt(3.0) * alpha])
    assert np.max(np.abs(rep["A_ddot"] - expect_A)) < 1e-9
    assert np.max(np.abs(rep["B_dot"] - expect_B)) < 1e-9
    assert abs(rep["lambda_ddot"] + 4.0 * a2) < 1e-9
    # the doubly-weighted quadratic identity holds; singly-weighted fails
    # by exactly the quadratic term itself
    assert rep["mm_residual_factor2"] < 1e-9
    assert abs(rep["mm_residual_printed"] - 3.0 * a2) < 1e-9


def test_modulus_family_second_derivative_report():
    al, be = 0.7, 0.4
    K = al * al + be * be
    rep = second_derivative_report(family_calabi_modulus(al, be))
    expect_B = np.array([[0.0, 0.0, 0.0], [0.0, al, be], [0.0, be, -al]])
    expect_A = np.diag([-2.0 * K / 3.0, K / 3.0, K / 3.0])
    assert np.max(np.abs(rep["B_dot"] - expect_B)) < 1e-9
    assert np.max(np.abs(rep["A_ddot"] - expect_A)) < 1e-9
    assert abs(rep["lambda_ddot"] + 4.0 * K / 3.0) < 1e-9
    assert rep["mm_residual_factor2"] < 1e-9
    assert abs(rep["mm_residual_printed"] - K) < 1e-9


def test_modulus_family_pure_shear_branch():
    beta = 0.9
    rep = second_derivative_report(family_calabi_modulus(0.0, beta))
    expect_B = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, beta],
                         [0.0, beta, 0.0]])
    assert np.max(np.abs(rep["B_dot"] - expect_B)) < 1e-9
    assert rep["mm_residual_factor2"] < 1e-9


def test_modulus_family_negative_parameter_sign():
    rep = second_derivative_report(family_calabi_modulus(-0.5, 0.2))
    assert abs(rep["B_dot"][1, 1] + 0.5) < 1e-9
    assert abs(rep["B_dot"][1, 2] - 0.2) < 1e-9


_GRID = [k / 20 for k in range(1, 20)]


def test_every_grid_parameter_passes_the_richardson_oracle():
    """The Richardson samples are Fractions, so the step-1e-3 second
    differences carry no eps/h^2 rounding floor: every value and pair on
    the 0.05 grid in (0, 1) reports within the unchanged 1e-9 gate."""
    for al in _GRID:
        rep = second_derivative_report(family_calabi_scaling(al))
        a2, r3 = al * al, np.sqrt(3.0) * al
        assert np.max(np.abs(rep["A_ddot"] - np.diag([-2 * a2, a2, a2]))) \
            < 1e-9
        assert np.max(np.abs(rep["B_dot"] - np.diag([0.0, r3, r3]))) < 1e-9
        for be in _GRID:
            K = al * al + be * be
            rep = second_derivative_report(family_calabi_modulus(al, be))
            expect_B = np.array([[0.0, 0.0, 0.0], [0.0, al, be],
                                 [0.0, be, -al]])
            expect_A = np.diag([-2.0 * K / 3.0, K / 3.0, K / 3.0])
            assert np.max(np.abs(rep["B_dot"] - expect_B)) < 1e-9, (al, be)
            assert np.max(np.abs(rep["A_ddot"] - expect_A)) < 1e-9, (al, be)


@pytest.mark.parametrize("al, be", [
    (1e-3, 0.5), (5e-3, 0.95), (1e-5, 0.5), (1e-4, 3.0), (1e-20, 0.5),
    (1e-7, 0.5), (0.7, 0.4), (-0.3, 0.9), (0.0, 0.8), (2.0, 0.1),
    (1e-150, 0.5), (-1e-150, 0.5)])
def test_small_alpha_passes_the_richardson_oracle(al, be):
    """The root in b22 bends at t ~ alpha/beta^2; the Richardson steps
    stay below that bend, so a small |alpha| passes the unchanged 1e-9
    cross-check.  The absolute check alone would pass B_dot = 0 for a
    tiny alpha, so the alpha entry is also checked relative to alpha."""
    rep = second_derivative_report(family_calabi_modulus(al, be))
    expect_B = np.array([[0.0, 0.0, 0.0], [0.0, al, be], [0.0, be, -al]])
    assert np.max(np.abs(rep["B_dot"] - expect_B)) < 1e-9
    assert abs(rep["B_dot"][1][1] - al) <= 1e-12 * abs(al)


@pytest.mark.parametrize("al", [30.0, 50.0, 100.0, 500.0, 1000.0, -1000.0,
                                1e4])
def test_large_scaling_alpha_passes_the_richardson_oracle(al):
    """The scaling family depends on s = alpha t only, so its Richardson
    step is 1e-3 in s: a large |alpha| neither leaves the radicand domain
    |s| < 2 nor lets the truncation error pass the unchanged 1e-9 gate."""
    family = family_calabi_scaling(al)
    assert family.step == Fraction(1e-3) / abs(Fraction(al))
    rep = second_derivative_report(family)
    a2, r3 = al * al, np.sqrt(3.0) * al
    assert rep["lambda_ddot"] == -4.0 * a2
    assert np.max(np.abs(rep["A_ddot"] - np.diag([-2 * a2, a2, a2]))) \
        <= 1e-12 * a2
    assert np.max(np.abs(rep["B_dot"] - np.diag([0.0, r3, r3]))) \
        <= 1e-12 * abs(al)


def test_huge_scaling_alpha_passes_on_fraction_jets():
    """The jets run on Fractions, so there is no float rounding (about
    one ulp of 4e10) for the absolute 1e-9 gate to catch: alpha = 1e5
    passes, and lambda'' = -4 alpha^2 is the float of the exact value."""
    rep = second_derivative_report(family_calabi_scaling(1e5))
    assert rep["lambda_ddot"] == -4e10
    assert rep["A_ddot"][0, 0] == -2e10 and rep["A_ddot"][1, 1] == 1e10


@pytest.mark.parametrize("al", [1e-155, -1e-155, 1e-170])
def test_subnormal_modulus_radicand_is_refused(al):
    with pytest.raises(FloatingPointError, match="alpha"):
        family_calabi_modulus(al, 0.5)


def test_richardson_step_scales_only_for_small_modulus_alpha():
    assert family_calabi_modulus(1e-3, 0.5).step == Fraction(1e-3) / 5
    for family in (family_calabi_modulus(0.0, 0.8),
                   family_calabi_modulus(0.7, 0.4),
                   family_calabi_modulus(0.3, 0.0),
                   family_calabi_scaling(1e-6)):
        assert family.step == Fraction(1e-3)


@pytest.mark.parametrize("al, be", [
    (50.0, 0.5), (0.0, 300.0), (1e3, 1e3), (1e4, 1.0)])
def test_large_modulus_parameters_pass_the_richardson_oracle(al, be):
    """The parameters enter as alpha t and beta t, so the step shrinks
    with max(|alpha|, |beta|): the 4h sample stays in u > 0 and the
    truncation error under the unchanged 1e-9 gate."""
    family = family_calabi_modulus(al, be)
    big = max(1, abs(Fraction(al)), abs(Fraction(be)))
    assert family.step <= Fraction(1e-3) / big
    rep = second_derivative_report(family)
    K = al * al + be * be
    assert rep["lambda_ddot"] == pytest.approx(-4 * K / 3, rel=1e-15)
    expect_B = np.array([[0.0, 0.0, 0.0], [0.0, al, be], [0.0, be, -al]])
    assert np.max(np.abs(rep["B_dot"] - expect_B)) == 0.0


def test_trivial_modulus_family_takes_no_root():
    rep = second_derivative_report(family_calabi_modulus(0.0, 0.0))
    assert np.max(np.abs(rep["B_dot"])) == 0.0
    assert np.max(np.abs(rep["A_ddot"])) == 0.0
    assert calabi_modulus_constraint_exact(0, 0)


def test_fraction_root_is_good_to_fifty_digits():
    for x in (Fraction(2), Fraction(12), Fraction(1, 10 ** 6),
              Fraction(7, 3) * Fraction(1e-3) ** 2):
        root = hk._sqrt(x)
        assert isinstance(root, Fraction)
        assert root * root <= x < (root + Fraction(1, 2 ** 170)) ** 2


@pytest.mark.parametrize("name", ["scaling", "modulus"])
def test_exact_check_runs_the_evaluated_closed_form(monkeypatch, name):
    """The exact constraint check and ``evaluate`` call one closed form:
    a change to it shows in both."""
    family = (family_calabi_scaling(0.8) if name == "scaling"
              else family_calabi_modulus(0.7, 0.4))
    check = (calabi_scaling_constraint_exact if name == "scaling"
             else calabi_modulus_constraint_exact)
    closed_form = getattr(hk, f"_calabi_{name}")

    def with_t_cubed(*args):
        A, B, lam = closed_form(*args)
        A[1][1] = A[1][1] + args[-1] ** 3
        return A, B, lam

    before = family.evaluate(0.2)[0]
    assert check()
    monkeypatch.setattr(hk, f"_calabi_{name}", with_t_cubed)
    assert not check()
    after = family.evaluate(0.2)[0]
    assert abs(after[1, 1] - before[1, 1] - 0.2 ** 3) < 1e-15


def test_family_domain_errors():
    scaling = family_calabi_scaling(0.8)
    with pytest.raises(ValueError, match="radicand"):
        scaling.evaluate(3.0)  # square root of a negative number
    with pytest.raises(ValueError, match="radicand"):
        scaling.evaluate(-1.25)  # denominator branch collapses
    modulus = family_calabi_modulus(0.7, 0.4)
    with pytest.raises(ValueError, match="radicand"):
        modulus.evaluate(4.0)


def test_family_rejects_wrong_base_point():
    def fn(t):
        eye = np.eye(3) * 2.0
        return eye, np.zeros((3, 3)), 1.0

    with pytest.raises(ValueError, match="does not start"):
        DeformationFamily("bad", fn)


# ---------------------------------------------------------------------------
# forward differentiation and its cross-checks
# ---------------------------------------------------------------------------

def test_jet_arithmetic_matches_closed_form_derivatives():
    """Jets over the Fractions are exact; the square root goes through
    ``hk._sqrt``, good to about 50 digits."""
    x = Fraction(1, 10)
    t = Jet2.variable(x)
    j = (2 + t) ** 5
    assert (j.f, j.d1, j.d2) == ((2 + x) ** 5, 5 * (2 + x) ** 4,
                                 20 * (2 + x) ** 3)
    j = 1 / (1 + t)
    assert (j.f, j.d1, j.d2) == (1 / (1 + x), -(1 + x) ** -2,
                                 2 * (1 + x) ** -3)
    j = hk._sqrt(9 + t)
    assert isinstance(j.d2, Fraction)
    assert j.d1 == 1 / (2 * j.f)
    assert abs(float(j.d1) - 0.5 * 9.1 ** -0.5) < 1e-15
    assert abs(float(j.d2) + 0.25 * 9.1 ** -1.5) < 1e-15
    with pytest.raises(TypeError):
        t ** 0.5  # no fractional power: only _sqrt takes roots of jets


def test_jet_root_of_a_tiny_value_is_finite():
    """The jet root of a tiny Fraction keeps its significant digits, and
    its derivatives, far beyond the float range, stay exact."""
    j = hk._sqrt(Jet2(Fraction(1e-300), 0, 2))
    assert float(j.f) == pytest.approx(1e-150, rel=1e-15)
    assert j.d1 == 0
    assert float(j.d2) == pytest.approx(1e150, rel=1e-15)
    j = hk._sqrt(Jet2(Fraction(1e-300) ** 3, 0, 2))
    assert float(j.f * Fraction(10) ** 450) == pytest.approx(1, rel=1e-15)


def test_jet_guards():
    t = Jet2.variable(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        hk._sqrt(t * t)
    with pytest.raises(ZeroDivisionError):
        1 / t


def test_report_falls_back_to_extrapolation():
    def fn(t):
        v = hk._sqrt(t * t)  # breaks the jet path at t = 0, fine for samples
        w = v * v
        A = [[1.0 + w, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        B = [[0.0, 0.0, 0.0]] * 3
        return A, B, 1.0 + w

    rep = second_derivative_report(DeformationFamily("fallback", fn))
    assert abs(rep["A_ddot"][0, 0] - 2.0) < 1e-6
    assert abs(rep["lambda_ddot"] - 2.0) < 1e-6


def test_report_detects_inconsistent_closed_forms():
    def fn(t):
        lam = 1.0 + t * t if isinstance(t, Jet2) else 1.0 + 2.0 * t * t
        eye = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        return eye, [[0.0, 0.0, 0.0]] * 3, lam

    with pytest.raises(ArithmeticError, match="disagree"):
        second_derivative_report(DeformationFamily("lying", fn))


def test_report_samples_the_family_once_per_point():
    """One float evaluation at t = 0 and one at each of +h and -h for the
    three Richardson steps: A, B and lambda share every sample."""
    closed_form = family_calabi_modulus(0.7, 0.4)._fn
    samples = []

    def counting(t):
        if not isinstance(t, Jet2):
            samples.append(t)
        return closed_form(t)

    family = DeformationFamily("counted", counting)
    samples.clear()
    second_derivative_report(family)
    assert len(samples) == 7
    assert sorted(samples) == sorted([0.0] + [s * 1e-3 * 2.0 ** k
                                              for k in range(3)
                                              for s in (1, -1)])


# ---------------------------------------------------------------------------
# twisted-coframe families
# ---------------------------------------------------------------------------

def test_semiflat_raw_matrices_satisfy_constraint():
    for kind in SEMIFLAT_KINDS:
        for c in (0.1, 0.5, 1.0):
            A, B = family_semiflat(kind, c)
            res = A @ A.T - B @ B.T - np.eye(3)
            assert np.max(np.abs(res)) < 1e-15, (kind, c)


def test_semiflat_expands_the_pullback_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return pullback_pm(*args)

    monkeypatch.setattr(hk, "pullback_pm", counting)
    for kind in SEMIFLAT_KINDS:
        family_semiflat(kind, 0.5)
    assert [args[0][0] for args in calls] == list(SEMIFLAT_KINDS)


def test_semiflat_cross_check_catches_a_wrong_printed_matrix(monkeypatch):
    printed = hk._SEMIFLAT_PRINTED["theta_twist"]

    def wrong(c):
        A, B = printed(c)
        A[1, 2] = c  # the sign of the twist flipped
        return A, B

    monkeypatch.setitem(hk._SEMIFLAT_PRINTED, "theta_twist", wrong)
    with pytest.raises(ExactIdentityError, match="exact pullback"):
        family_semiflat("theta_twist", 0.5)
    # c = 0 makes the wrong entry right again
    family_semiflat("theta_twist", 0.0)


def test_semiflat_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown"):
        family_semiflat("twist_everything", 0.5)


def test_pullback_expansion_exact_at_rational_parameter():
    c = Fraction(1, 3)
    A, B = pullback_pm(("y1_twist", c))
    assert A[0, 0] == 1.0 and A[0, 1] == float(-c)
    assert A[1, 1] == float(1 - c * c / 2)
    assert B[0, 1] == float(c) and B[1, 1] == float(c * c / 2)
    assert np.max(np.abs(B[2])) == 0.0
    # evaluation point must not matter: the expansion is constant
    pt = {"r": Fraction(5), "y1": Fraction(1, 2), "y2": Fraction(1, 3),
          "theta": Fraction(0)}
    A2, B2 = pullback_pm(("y1_twist", c), pt)
    assert np.array_equal(A, A2) and np.array_equal(B, B2)


def test_pullback_inverts_the_basis_once_and_checks_each_call(monkeypatch):
    """The PM-basis inverse is built once and shared; every call still
    multiplies it out into new arrays and refuses a position-dependent
    expansion."""
    first = pullback_pm(("theta_twist", Fraction(1, 2)))
    assert hk._pm_inverse() is hk._pm_inverse()

    def no_solve(*args):
        raise AssertionError("PM basis inverted again")
    monkeypatch.setattr(hk, "solve", no_solve)
    again = pullback_pm(("theta_twist", Fraction(1, 2)))
    assert all(np.array_equal(a, b) and a is not b
               for a, b in zip(first, again))
    plus = PMBasis().plus
    monkeypatch.setattr(hk, "_deformed_triple", lambda kind, c: (
        plus[0].scale(RatFun.var("r")), plus[1], plus[2]))
    with pytest.raises(ValueError, match="position-dependent"):
        pullback_pm(("theta_twist", Fraction(1, 2)))


def test_pullback_matches_stored_matrices_for_all_kinds():
    c = Fraction(2, 7)
    for kind in SEMIFLAT_KINDS:
        A, B = pullback_pm((kind, c))
        As, Bs = family_semiflat(kind, c)
        assert np.max(np.abs(A - As)) < 1e-12
        assert np.max(np.abs(B - Bs)) < 1e-12


# ---------------------------------------------------------------------------
# the symmetric gauge
# ---------------------------------------------------------------------------

def _expected_theta_twist(c):
    s = np.sqrt(1.0 + c * c)
    A = np.diag([1.0, s, s])
    B = np.array([[0.0, 0.0, 0.0],
                  [0.0, -c * c / s, c / s],
                  [0.0, -c / s, -c * c / s]])
    U = np.array([[1.0, 0.0, 0.0],
                  [0.0, 1.0 / s, c / s],
                  [0.0, -c / s, 1.0 / s]])
    return U, A, B


def _expected_y1_twist(c):
    d = 1.0 + c * c / 4.0
    A = np.array([[(1.0 + 3.0 * c * c / 4.0) / d, -(c ** 3 / 4.0) / d, 0.0],
                  [-(c ** 3 / 4.0) / d,
                   (1.0 + c * c / 4.0 + c ** 4 / 8.0) / d, 0.0],
                  [0.0, 0.0, 1.0]])
    B = np.array([[0.0, (c + c ** 3 / 4.0) / d, 0.0],
                  [0.0, (-c * c / 2.0 - c ** 4 / 8.0) / d, 0.0],
                  [0.0, 0.0, 0.0]])
    U = np.array([[(1.0 - c * c / 4.0) / d, c / d, 0.0],
                  [-c / d, (1.0 - c * c / 4.0) / d, 0.0],
                  [0.0, 0.0, 1.0]])
    return U, A, B


def _swap_23(mat):
    perm = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    return perm @ mat @ perm


@pytest.mark.parametrize("c", (0.1, 0.5, 1.0))
def test_symmetrize_theta_twist_closed_form(c):
    U, At, Bt = symmetrize(*family_semiflat("theta_twist", c))
    Ue, Ae, Be = _expected_theta_twist(c)
    assert np.max(np.abs(U - Ue)) < 1e-12
    assert np.max(np.abs(At - Ae)) < 1e-12
    assert np.max(np.abs(Bt - Be)) < 1e-12


@pytest.mark.parametrize("c", (0.1, 0.5, 1.0))
def test_symmetrize_y1_twist_closed_form(c):
    U, At, Bt = symmetrize(*family_semiflat("y1_twist", c))
    Ue, Ae, Be = _expected_y1_twist(c)
    assert np.max(np.abs(U - Ue)) < 1e-12
    assert np.max(np.abs(At - Ae)) < 1e-12
    assert np.max(np.abs(Bt - Be)) < 1e-12


@pytest.mark.parametrize("c", (0.1, 0.5, 1.0))
def test_symmetrize_y2_twist_is_permuted_y1_twist(c):
    U, At, Bt = symmetrize(*family_semiflat("y2_twist", c))
    Ue, Ae, Be = _expected_y1_twist(c)
    assert np.max(np.abs(At - _swap_23(Ae))) < 1e-12
    assert np.max(np.abs(Bt - _swap_23(Be))) < 1e-12
    assert np.max(np.abs(U - _swap_23(Ue))) < 1e-12


def test_symmetrize_cubic_and_quartic_coefficients_pinned():
    # the off-diagonal entry carries a single quarter-cubic, and the
    # shear entry closes with a quartic (not cubic) term
    c = 0.5
    d = 1.0 + c * c / 4.0
    _, At, Bt = symmetrize(*family_semiflat("y1_twist", c))
    assert abs(At[0, 1] + (c ** 3 / 4.0) / d) < 1e-12
    assert abs(At[0, 1] + (3.0 * c ** 3 / 4.0) / d) > 1e-2
    assert abs(Bt[1, 1] - (-c * c / 2.0 - c ** 4 / 8.0) / d) < 1e-12
    assert abs(Bt[1, 1] - (-c * c / 2.0 - c ** 3 / 8.0) / d) > 1e-3


def test_symmetrize_idempotent_and_rotation_invariant():
    A, B = family_semiflat("y1_twist", 0.7)
    U, At, Bt = symmetrize(A, B)
    U2, At2, Bt2 = symmetrize(At, Bt)
    assert np.max(np.abs(U2 - np.eye(3))) < 1e-12
    assert np.max(np.abs(At2 - At)) < 1e-12
    assert np.max(np.abs(Bt2 - Bt)) < 1e-12
    rng = np.random.default_rng(7)
    Q0, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(Q0) < 0:
        Q0[:, 0] *= -1.0
    _, At3, Bt3 = symmetrize(Q0 @ A, Q0 @ B)
    assert np.max(np.abs(At3 - At)) < 1e-12
    assert np.max(np.abs(Bt3 - Bt)) < 1e-12


def test_symmetrize_matches_scipy_polar():
    from scipy.linalg import polar
    rng = np.random.default_rng(5)
    cases = [family_semiflat(kind, c) for kind in SEMIFLAT_KINDS
             for c in (0.1, 0.5, 1.0)]
    while len(cases) < 9 + 50:
        A = rng.normal(size=(3, 3))
        if np.linalg.det(A) > 0:
            cases.append((A, rng.normal(size=(3, 3))))
    for A, B in cases:
        u, p = polar(A, side="right")
        U, At, Bt = symmetrize(A, B)
        assert np.max(np.abs(U - u.T)) < 1e-13
        assert np.max(np.abs(At - p)) < 1e-13
        assert np.max(np.abs(Bt - u.T @ B)) < 1e-13


def test_symmetrize_rejects_nonpositive_determinant():
    with pytest.raises(ValueError, match="positive"):
        symmetrize(np.diag([1.0, -1.0, 1.0]), np.zeros((3, 3)))
