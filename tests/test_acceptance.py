"""Acceptance suite: one test per shipped guarantee.

Each test here is a single top-level check of the library, marked with
``@pytest.mark.acceptance(number, label)`` so the terminal summary ends
with one pass/fail line per criterion (see conftest.py).  Tests are
deterministic and self-contained; they re-state the guarantees rather
than importing helper logic from the per-module suites.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

import conftest
from oracles import fd_ricci

from alhlab.cohomology import l2_hodge_dim, moduli_dim, wh_interval
from alhlab.forms import FormField, PMBasis, ext_d, hodge_star, wedge
from alhlab.geometry import (curvature, metric_a, metric_gh, metric_model,
                             ricci, volume_density, x_chart)
from alhlab.hk import (PPoint, Triple, calabi_scaling_constraint_exact,
                       family_calabi_modulus, family_calabi_scaling,
                       family_semiflat, pullback_pm, q_map,
                       second_derivative_report, symmetrize, tangent_space)
from alhlab.indicial import (indicial_poly, indicial_roots, weight_window)
from alhlab.modes import (BVProblem, DecaySelect, Dirichlet, RadialGrid,
                          fit_decay_rate, fit_expansion, solve_bvp)
from alhlab.operators import (DiffOpExpr, VectorFieldExpr,
                              a_rescale_identity, blowup_lift, laplacian,
                              product_model_laplacian, project_modes,
                              reduced_D00, reduced_scalar_b,
                              structure_fields)
from alhlab.ratfun import RatFun

X = RatFun.var("x")
Y1 = RatFun.var("y1")
ONE = RatFun.const(1)


# ---------------------------------------------------------------------------
# 1. exact Ricci-flatness of the model metric
# ---------------------------------------------------------------------------

@pytest.mark.acceptance(1, "model metric Ricci-flat: exact zero matrix + "
                           "finite-difference oracle < 1e-6 at 10 points, "
                           "< 30 s")
def test_criterion_01_exact_ricci_flatness():
    start = time.monotonic()
    g = metric_gh()
    ric = ricci(g)
    assert all(ric[i][j].is_zero() for i in range(4) for j in range(4))
    rng = random.Random(101)
    for _ in range(10):
        pt = g.chart.sample_point(rng)
        if pt["x"] < Fraction(1, 10):
            pt["x"] += Fraction(1, 10)
        assert np.max(np.abs(fd_ricci(g, pt))) < 1e-6
    assert time.monotonic() - start < 30.0


# ---------------------------------------------------------------------------
# 2. conformal relation and volume densities
# ---------------------------------------------------------------------------

@pytest.mark.acceptance(2, "conformal identity a = gh / x and volume "
                           "densities x^-3, x^-1 (exact)")
def test_criterion_02_conformal_and_volume_identities():
    ga, g = metric_a(), metric_gh()
    xin = X ** -1
    for i in range(4):
        for j in range(4):
            assert ga.entry(i, j) == xin * g.entry(i, j)
    assert volume_density(metric_gh()) == X ** -3
    assert volume_density(metric_model()) == X ** -1


# ---------------------------------------------------------------------------
# 3. operator regrouping and the reduced radial operator
# ---------------------------------------------------------------------------

@pytest.mark.acceptance(3, "x * Laplacian regroups into the product-model "
                           "operator + lower-order terms (exact); zero-mode "
                           "rescale is x^2 d^2 + 2x d")
def test_criterion_03_operator_identity():
    # grouped form, as an exact operator identity
    assert a_rescale_identity() is True
    lhs = laplacian(metric_gh()).scale(X)
    rhs = product_model_laplacian() + DiffOpExpr(x_chart(), {
        (1, 0, 0, 0): -(X ** 5),
        (0, 0, 1, 1): RatFun.const(-2) * X * X * Y1,
        (0, 0, 0, 2): X * X * Y1 * Y1,
    })
    assert lhs == rhs
    # reduced zero-mode operator: x^2 d^2/dx^2 + 2x d/dx exactly
    L = reduced_scalar_b()
    assert L.size == 1
    assert L.coefficient(0, 0, 2) == X * X
    assert L.coefficient(0, 0, 1) == RatFun.const(2) * X
    assert L.coefficient(0, 0, 0).is_zero()
    zero_mode = project_modes(laplacian(metric_gh()), 0, (0, 0))
    assert zero_mode.scale_left(X ** -3) == L


# ---------------------------------------------------------------------------
# 4. indicial roots, weights, and nullvector relations
# ---------------------------------------------------------------------------

@pytest.mark.acceptance(4, "indicial data: scalar roots {-1, 0} / weights "
                           "{-2, -1}; first-order system roots "
                           "{-3/2, 0, 1/2, 2} with the coupled-pair "
                           "nullvector relations (exact)")
def test_criterion_04_indicial_suite():
    roots = indicial_roots(indicial_poly(reduced_scalar_b()))
    assert [r.root for r in roots] == [Fraction(-1), Fraction(0)]
    w = weight_window(roots)
    assert w.weights == (Fraction(-2), Fraction(-1))

    full = set()
    for parity in ("even", "odd"):
        M = indicial_poly(reduced_D00(parity))
        full |= {r.root for r in indicial_roots(M)}
    assert full == {Fraction(-3, 2), Fraction(0), Fraction(1, 2),
                    Fraction(2)}

    even = indicial_roots(indicial_poly(reduced_D00("even")))
    r0, r2 = even
    assert (r0.root, r2.root) == (Fraction(0), Fraction(2))
    # root 0: the coupled pair of components is opposite in every
    # nullvector; root 2: equal and supported only on that pair
    for v in r0.nullvectors:
        assert v[3] == -v[4]
    (v2,) = r2.nullvectors
    assert v2[3] == v2[4] != 0
    assert all(v2[i] == 0 for i in (0, 1, 2, 5, 6, 7))


# ---------------------------------------------------------------------------
# 5. decay trichotomy of homogeneous solutions
# ---------------------------------------------------------------------------

@pytest.mark.acceptance(5, "mode trichotomy on a 2000-node graded grid: "
                           "span{1, 1/x} to O(h^2); exp(-1/x) rate within "
                           "5%; -1/(2x^2) leading term within 5%; < 60 s")
def test_criterion_05_mode_trichotomy():
    start = time.monotonic()

    # (i) both-frequencies-zero: solutions live in span{1, 1/x}; the
    # discrete solution converges to the closed form at second order
    op0 = reduced_scalar_b()
    errs = {}
    for n in (1000, 2000):
        g = RadialGrid(n=n)
        sol = solve_bvp(BVProblem(op0, g, None, Dirichlet.scalar(2.0),
                                  Dirichlet.scalar(1.0)))
        b = (2.0 - 1.0) / (1.0 / g.x_min - 1.0 / g.x_max)
        a = 1.0 - b / g.x_max
        errs[n] = float(np.max(np.abs(sol.values[0] - (a + b / g.nodes))))
    assert errs[2000] < 1e-4
    assert errs[1000] / errs[2000] > 3.0          # order >= 2

    grid = RadialGrid()                           # n = 2000
    assert grid.n == 2000

    # (ii) torus frequency only: decay exp(-1/x), rate within 5%
    op_t = project_modes(laplacian(metric_a()), 0, (1, 0),
                         product_model=True)
    sol_t = solve_bvp(BVProblem(op_t, grid, None, DecaySelect(0.0),
                                Dirichlet.scalar(1.0)))
    rate_t = fit_decay_rate(sol_t, -1)
    assert abs(rate_t - (-1.0)) < 0.05 * 1.0

    # (iii) circle frequency: log|u| led by -1/(2x^2), within 5%
    op_c = project_modes(laplacian(metric_a()), 1, (0, 0),
                         product_model=True)
    sol_c = solve_bvp(BVProblem(op_c, grid, None, DecaySelect(0.0),
                                Dirichlet.scalar(1.0)))
    rate_c = fit_decay_rate(sol_c, -2)
    assert abs(rate_c - (-0.5)) < 0.05 * 0.5

    assert time.monotonic() - start < 60.0


# ---------------------------------------------------------------------------
# 6. leading exponent of the decaying even-block solution
# ---------------------------------------------------------------------------

@pytest.mark.acceptance(6, "even-block decaying solution: expansion fit "
                           "with cutoff 0 recovers leading exponent 2, "
                           "residual < 1e-4")
def test_criterion_06_leading_exponent_two():
    op = reduced_D00("even")
    g = RadialGrid()
    sol = solve_bvp(BVProblem(op, g, None, DecaySelect(0.0),
                              Dirichlet({3: g.x_max ** 2})))
    roots = indicial_roots(indicial_poly(op))
    fit = fit_expansion(sol, roots, 0.0)
    assert fit.exponents == (Fraction(2),)
    assert fit.residual < 1e-4
    assert not fit.flagged


# ---------------------------------------------------------------------------
# 7. exterior algebra and the self-dual basis
# ---------------------------------------------------------------------------

@pytest.mark.acceptance(7, "forms: d^2 = 0, star^2 = id on 2-forms, six "
                           "wedge orthogonality relations, exactly one "
                           "non-closed basis form, wedge-defect of the "
                           "standard triple = 0 (exact)")
def test_criterion_07_forms_suite():
    ch = x_chart()
    g = metric_gh()

    # d^2 = 0 on a function, a 1-form, and a 2-form with mixed
    # polynomial coefficients
    f = FormField.function(ch, X ** 2 * Y1 + RatFun.var("y2"))
    a1 = FormField(ch, 1, {(0,): X * Y1, (2,): RatFun.var("y2") ** 2,
                           (3,): X ** 3})
    a2 = FormField(ch, 2, {(0, 1): X * X, (1, 2): Y1 * Y1,
                           (2, 3): X * Y1})
    for form in (f, a1, a2):
        assert ext_d(ext_d(form)).is_zero()

    # star is an involution on 2-forms
    assert hodge_star(hodge_star(a2, g), g) == a2

    basis = PMBasis()
    six = basis.all_six()
    gm = basis.metric
    for w in six:
        assert hodge_star(hodge_star(w, gm), gm) == w

    # wedge table: diagonal +/- twice the radial coordinate times the
    # coordinate volume, every mixed product identically zero
    r = RatFun.var("r")
    for i in range(6):
        for j in range(6):
            c = wedge(six[i], six[j]).get((0, 1, 2, 3))
            if i == j:
                assert c == (RatFun.const(2) * r if i < 3
                             else RatFun.const(-2) * r)
            else:
                assert c.is_zero()

    # exactly one of the six fails closedness: the first anti-self-dual
    nonclosed = [i for i, w in enumerate(six) if not ext_d(w).is_zero()]
    assert nonclosed == [3]

    # the standard triple has identically-zero wedge defect
    q = q_map(Triple.standard(), basis.volume_form())
    assert all(q[i][j].is_zero() for i in range(3) for j in range(3))


# ---------------------------------------------------------------------------
# 8. boundary-data manifold tangent space
# ---------------------------------------------------------------------------

@pytest.mark.acceptance(8, "tangent space at (I, 0, 1): dimension 6, "
                           "A_dot = 0, lambda_dot = 0, nullspace = "
                           "{B_dot with zero first row} (rank tol 1e-10)")
def test_criterion_08_tangent_space():
    base = PPoint(np.eye(3), np.zeros((3, 3)), 1.0)
    basis = tangent_space(base)
    assert len(basis) == 6
    for vec in basis:
        assert np.max(np.abs(vec.A_dot)) < 1e-10
        assert abs(vec.lam_dot) < 1e-10
        assert np.max(np.abs(vec.B_dot[0])) < 1e-10
    stacked = np.array([np.ravel(np.array(vec.B_dot, dtype=float)[1:]) for vec in basis])
    assert np.linalg.matrix_rank(stacked, tol=1e-10) == 6


# ---------------------------------------------------------------------------
# 9. deformation families
# ---------------------------------------------------------------------------

@pytest.mark.acceptance(9, "deformation families: scaling constraint exact "
                           "in the symbolic parameter; second derivatives "
                           "match closed forms to 1e-9 with Richardson "
                           "cross-check; symmetrized twist matrices to "
                           "1e-12 at c in {0.1, 0.5, 1}; pullback "
                           "constancy; quadratic-term normalization "
                           "reported, not asserted")
def test_criterion_09_deformation_families():
    # (a) the scaling family satisfies A A^T - B B^T = lambda I and
    # tr A = 3 exactly, with the parameter kept symbolic
    assert calabi_scaling_constraint_exact() is True

    # (b) second derivatives of the two closed-form families match their
    # closed-form targets; second_derivative_report raises internally if
    # the forward-mode jets and Richardson extrapolation disagree beyond
    # 1e-9, so a returned report IS the cross-check
    alpha = 0.8
    rep = second_derivative_report(family_calabi_scaling(alpha))
    a2 = alpha * alpha
    assert np.max(np.abs(rep["A_ddot"]
                         - np.diag([-2 * a2, a2, a2]))) < 1e-9
    assert np.max(np.abs(rep["B_dot"]
                         - np.diag([0.0, np.sqrt(3) * alpha,
                                    np.sqrt(3) * alpha]))) < 1e-9

    al, be = 0.7, 0.4
    kk = al * al + be * be
    rep2 = second_derivative_report(family_calabi_modulus(al, be))
    assert np.max(np.abs(rep2["B_dot"]
                         - np.array([[0.0, 0.0, 0.0],
                                     [0.0, al, be],
                                     [0.0, be, -al]]))) < 1e-9
    half_addot = np.diag([-kk / 3.0, kk / 6.0, kk / 6.0])
    assert np.max(np.abs(rep2["A_ddot"] - 2.0 * half_addot)) < 1e-9

    # the normalization of the quadratic term in the second-order
    # constraint identity is reported in both conventions, not asserted
    for name, r in (("scaling a=0.8", rep), ("modulus a=0.7 b=0.4", rep2)):
        conftest.REPORT_LINES.append(
            f"criterion 9, {name}: lambda_ddot = {r['lambda_ddot']:+.6f}; "
            f"constraint residual {r['mm_residual_printed']:.3e} "
            f"(singly-weighted quadratic term) vs "
            f"{r['mm_residual_factor2']:.3e} (doubly-weighted)")

    # (c) symmetrized twist families, entrywise to 1e-12
    for c in (0.1, 0.5, 1.0):
        s = np.sqrt(1.0 + c * c)
        U, At, Bt = symmetrize(*family_semiflat("theta_twist", c))
        assert np.max(np.abs(At - np.diag([1.0, s, s]))) < 1e-12
        assert np.max(np.abs(Bt - np.array(
            [[0.0, 0.0, 0.0],
             [0.0, -c * c / s, c / s],
             [0.0, -c / s, -c * c / s]]))) < 1e-12
        assert np.max(np.abs(U - np.array(
            [[1.0, 0.0, 0.0],
             [0.0, 1.0 / s, c / s],
             [0.0, -c / s, 1.0 / s]]))) < 1e-12

        d = 1.0 + c * c / 4.0
        A1 = np.array(
            [[(1.0 + 3.0 * c * c / 4.0) / d, -(c ** 3 / 4.0) / d, 0.0],
             [-(c ** 3 / 4.0) / d,
              (1.0 + c * c / 4.0 + c ** 4 / 8.0) / d, 0.0],
             [0.0, 0.0, 1.0]])
        B1 = np.array(
            [[0.0, (c + c ** 3 / 4.0) / d, 0.0],
             [0.0, (-c * c / 2.0 - c ** 4 / 8.0) / d, 0.0],
             [0.0, 0.0, 0.0]])
        U1 = np.array(
            [[(1.0 - c * c / 4.0) / d, c / d, 0.0],
             [-c / d, (1.0 - c * c / 4.0) / d, 0.0],
             [0.0, 0.0, 1.0]])
        U, At, Bt = symmetrize(*family_semiflat("y1_twist", c))
        assert np.max(np.abs(At - A1)) < 1e-12
        assert np.max(np.abs(Bt - B1)) < 1e-12
        assert np.max(np.abs(U - U1)) < 1e-12

        perm = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                         [0.0, 1.0, 0.0]])
        U, At, Bt = symmetrize(*family_semiflat("y2_twist", c))
        assert np.max(np.abs(At - perm @ A1 @ perm)) < 1e-12
        assert np.max(np.abs(Bt - perm @ B1 @ perm)) < 1e-12
        assert np.max(np.abs(U - perm @ U1 @ perm)) < 1e-12

    # (d) the exact pullback expansion is position-independent: the same
    # coefficients at two distinct sample points
    c = Fraction(2, 7)
    p1 = {"r": Fraction(3), "y1": Fraction(1, 3), "y2": Fraction(1, 5)}
    p2 = {"r": Fraction(7), "y1": Fraction(2, 3), "y2": Fraction(4, 5)}
    for kind in ("theta_twist", "y1_twist", "y2_twist"):
        a_first, b_first = pullback_pm((kind, c), p1)
        a_second, b_second = pullback_pm((kind, c), p2)
        assert np.array_equal(a_first, a_second)
        assert np.array_equal(b_first, b_second)


# ---------------------------------------------------------------------------
# 10. cohomology dimension tables
# ---------------------------------------------------------------------------

@pytest.mark.acceptance(10, "harmonic-form dimension 11-b and moduli count "
                            "3(10-b) for b in 1..9, degree symmetry, "
                            "3(9-b)+3 split, weighted-interval cases")
def test_criterion_10_cohomology_tables():
    for b in range(1, 10):
        assert l2_hodge_dim(b, 2) == 11 - b
        for k in (0, 1, 3, 4):
            assert l2_hodge_dim(b, k) == 0
        # degree symmetry k <-> 4 - k
        for k in range(5):
            assert l2_hodge_dim(b, k) == l2_hodge_dim(b, 4 - k)
        m = moduli_dim(b)
        assert m == 3 * (10 - b)
        assert m.split == (3 * (9 - b), 3)
        assert sum(m.split) == m
    # the weighted-cohomology interval in the three regimes
    assert wh_interval(0, -0.7) == 1
    assert wh_interval(0, 0.3) == 0
    assert wh_interval(1, 0.0) is None
    assert wh_interval(1, 0.4) == 0


# ---------------------------------------------------------------------------
# 11. blowup lifts against the chain-rule oracle
# ---------------------------------------------------------------------------

@pytest.mark.acceptance(11, "blowup lifts of the radial, fiber, and "
                            "twisted generators match the exact "
                            "Jacobian-pushforward oracle at 10 rational "
                            "points each")
def test_criterion_11_blowup_lifts():
    stage_radial = {"b": "s", "c": "s_prime", "a": "S"}
    stage_jac_pow = {"b": 1, "c": 2, "a": 3}

    def x_of(stage, xt, u):
        if stage == "b":
            return xt * u
        if stage == "c":
            return xt * (1 + xt * u)
        return xt * (1 + xt * xt * u)

    # radial generator x^3 d/dx through each stage
    field = structure_fields("a")[0]
    for stage in ("b", "c", "a"):
        lifted = blowup_lift(field, stage)
        rng = random.Random(61)
        for _ in range(10):
            xt = Fraction(rng.randint(1, 9), rng.randint(10, 40))
            u = Fraction(rng.randint(1, 40), rng.randint(5, 20))
            x_val = x_of(stage, xt, u)
            pt = {"x": xt, stage_radial[stage]: u}
            got = lifted.coefficients[0].evaluate(pt)
            assert got == x_val ** 3 / xt ** stage_jac_pow[stage]

    # fiber generators x d/dy_i, rescaled fiber coordinates at the last
    # stage (dY = dy / x-tilde)
    for gen_index in (1, 2):
        field = structure_fields("a")[gen_index]
        for stage in ("b", "c", "a"):
            lifted = blowup_lift(field, stage)
            rng = random.Random(67 + gen_index)
            for _ in range(10):
                xt = Fraction(rng.randint(1, 9), rng.randint(10, 40))
                u = Fraction(rng.randint(1, 40), rng.randint(5, 20))
                x_val = x_of(stage, xt, u)
                pt = {"x": xt, stage_radial[stage]: u}
                got = lifted.coefficients[gen_index].evaluate(pt)
                scale = xt if stage == "a" else Fraction(1)
                assert got == x_val / scale

    # twisted generator at the last stage: fiber and circle coefficients
    field = structure_fields("a", twisted=True)[2]
    lifted = blowup_lift(field, "a")
    rng = random.Random(71)
    for _ in range(10):
        xt = Fraction(rng.randint(1, 9), rng.randint(10, 40))
        S = Fraction(rng.randint(1, 40), rng.randint(5, 20))
        yt1 = Fraction(rng.randint(-10, 10), rng.randint(1, 7))
        Y1v = Fraction(rng.randint(-10, 10), rng.randint(1, 7))
        x_val = xt * (1 + xt * xt * S)
        y1_val = yt1 + xt * Y1v
        pt = {"x": xt, "S": S, "y1": yt1, "Y1": Y1v}
        assert lifted.coefficients[2].evaluate(pt) == x_val / xt
        assert lifted.coefficients[3].evaluate(pt) == -(x_val * y1_val)
