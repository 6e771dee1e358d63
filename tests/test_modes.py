"""Graded-grid boundary value solves, decay-rate fits, expansion fits,
and discrete weighted norms."""

import json
import math
import os
import subprocess
import sys
from functools import cached_property
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import svdvals

from alhlab import modes
from alhlab.config import DEFAULT
from alhlab.geometry import metric_a
from alhlab.indicial import indicial_poly, indicial_roots
from alhlab.modes import (BVProblem, DecaySelect, Dirichlet,
                          ConvergenceError, IndicialWeightError, RadialGrid,
                          SampledSolution, _interior_weights,
                          _mode_exponents, _sample,
                          discrete_a_norm, fit_decay_rate, fit_expansion,
                          solve_bvp, weighted_sigma_min)
from alhlab.operators import (ModeReducedOp, laplacian, project_modes,
                              reduced_D00, reduced_scalar_b)
from alhlab.ratfun import RatFun

from oracles import sparse_bvp_reference

X = RatFun.var("x")
HALF = Fraction(1, 2)


def _odd_coupled_block():
    return ModeReducedOp((0, (0, 0)), "x", [
        [{1: X, 0: RatFun.const(HALF)}, {0: RatFun.const(-1)}],
        [{0: RatFun.const(1)}, {1: -X, 0: RatFun.const(-HALF)}],
    ])


def test_grid_shape():
    g = RadialGrid(n=100, x_min=1e-2)
    assert len(g.nodes) == 101
    assert abs(g.x_min - 1e-2) < 1e-15
    assert abs(g.x_max - 0.5) < 1e-15
    assert np.all(np.diff(g.nodes) > 0)
    with pytest.raises(ValueError):
        RadialGrid(x_min=0.6)
    with pytest.raises(ValueError):
        RadialGrid(n=2)


def test_grid_nodes_must_increase():
    """x_min this close to 1/2 rounds every node to the same float; a
    grid that still resolves its nodes keeps a finite stencil."""
    with pytest.raises(ValueError, match=r"n=8, x_min=0\.4999999999999999\b"):
        RadialGrid(n=8, x_min=0.4999999999999999)
    g = RadialGrid(n=8, x_min=0.49999999999999)
    assert np.all(np.diff(g.nodes) > 0)
    assert all(np.all(np.isfinite(d)) for d in g.stencil)


def test_grid_nodes_are_read_only():
    """The stencil is cached per grid, so the nodes it came from cannot
    change under it."""
    g = RadialGrid(n=50)
    with pytest.raises(AttributeError):
        g.nodes = np.linspace(0.1, 0.5, 51)
    with pytest.raises(ValueError):
        g.nodes[3] = 0.2
    d1, _ = g.stencil
    assert g.stencil[0] is d1
    with pytest.raises(ValueError):
        d1[0, 0] = 1.0


def test_one_stencil_per_grid(monkeypatch):
    """weighted_sigma_min at two weights and a solve on one grid compute
    its stencil once; another grid computes its own."""
    calls = []
    stencil = RadialGrid.stencil.func

    def counted(grid):
        calls.append(grid)
        return stencil(grid)

    monkeypatch.setattr(RadialGrid, "stencil", cached_property(counted))
    RadialGrid.stencil.__set_name__(RadialGrid, "stencil")
    op = reduced_scalar_b()
    grid = RadialGrid(n=200)
    first = weighted_sigma_min(op, -0.5, grid)
    weighted_sigma_min(op, 0.5, grid)
    solve_bvp(BVProblem(op, grid, inner=Dirichlet.scalar(1.0),
                        outer=Dirichlet.scalar(0.0)))
    assert calls == [grid]
    assert weighted_sigma_min(op, -0.5, RadialGrid(n=200)) == first
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# coefficient sampling and the three-point stencil
# ---------------------------------------------------------------------------

def _sampled_operators():
    lap_a = laplacian(metric_a())
    yield "scalar", reduced_scalar_b()
    yield "d00-even", reduced_D00("even")
    yield "d00-odd", reduced_D00("odd")
    for k, m in ((0, (0, 0)), (1, (0, 0)), (3, (0, 0)), (0, (1, 0)),
                 (0, (2, 1))):
        yield f"mode {k},{m}", project_modes(lap_a, k, m, product_model=True)


def test_sample_matches_exact_evaluation():
    """The vectorised sampler agrees with per-node exact evaluation on
    every nonzero coefficient the solvers sample."""
    xs = RadialGrid(n=3000, x_min=1e-8).nodes
    checked = 0
    for name, op in _sampled_operators():
        for i in range(op.size):
            for j in range(op.size):
                for o in range(3):
                    c = op.coefficient(i, j, o)
                    if c.is_zero():
                        continue
                    got = _sample(c, xs, op.var)
                    want = np.array([
                        float(c.evaluate({op.var: Fraction(float(x))}))
                        for x in xs])
                    assert got.shape == xs.shape, (name, i, j, o)
                    assert np.all(np.abs(got - want)
                                  <= 1e-14 * np.abs(want)), (name, i, j, o)
                    checked += 1
    assert checked > 20


def test_sample_constant_fills_grid():
    xs = RadialGrid(n=50).nodes
    got = _sample(RatFun.const(HALF), xs, "x")
    assert got.shape == xs.shape and np.all(got == 0.5)


def test_sample_rejects_pole_on_grid():
    xs = RadialGrid(n=100, x_min=0.1).nodes
    pole = RatFun.const(1) / (X - RatFun.const(Fraction(1, 2)))
    with pytest.raises(ZeroDivisionError):
        _sample(pole, xs, "x")


def test_stencil_exact_on_quadratics():
    grid = RadialGrid(n=200, x_min=1e-4)
    xs = grid.nodes
    d1, d2 = grid.stencil
    assert d1.shape == d2.shape == (3, len(xs) - 2)
    u = np.stack([xs[:-2], xs[1:-1], xs[2:]]) ** 2
    eps = np.finfo(float).eps
    # the only error left is rounding, bounded by the summed magnitudes
    for w, want in ((d1, 2 * xs[1:-1]), (d2, 2.0)):
        got = np.sum(w * u, axis=0)
        assert np.all(np.abs(got - want)
                      <= 16 * eps * np.sum(np.abs(w * u), axis=0))


# ---------------------------------------------------------------------------
# scalar solves against the closed form a + b/x
# ---------------------------------------------------------------------------

def _scalar_closed_form(grid, u_in, u_out):
    x0, xN = grid.x_min, grid.x_max
    b = (u_in - u_out) / (1.0 / x0 - 1.0 / xN)
    a = u_out - b / xN
    return a + b / grid.nodes


def test_scalar_two_sided_dirichlet_second_order():
    op = reduced_scalar_b()
    errs = {}
    for n in (1000, 2000):
        g = RadialGrid(n=n)
        sol = solve_bvp(BVProblem(op, g, None, Dirichlet.scalar(2.0),
                                  Dirichlet.scalar(1.0)))
        exact = _scalar_closed_form(g, 2.0, 1.0)
        errs[n] = float(np.max(np.abs(sol.values[0] - exact)))
        assert 0.0 <= sol.residual <= DEFAULT.discrete_residual
    assert errs[2000] < 1e-4
    assert errs[1000] / errs[2000] > 3.0      # order >= 2


def test_zero_data_gives_zero():
    op = reduced_scalar_b()
    g = RadialGrid(n=400)
    sol = solve_bvp(BVProblem(op, g, None, Dirichlet.scalar(0.0),
                              Dirichlet.scalar(0.0)))
    assert np.max(np.abs(sol.values)) == 0.0


@settings(max_examples=10, deadline=None)
@given(u_in=st.floats(-3, 3), u_out=st.floats(-3, 3))
@example(u_in=0.0, u_out=1.0)
def test_scalar_solution_family(u_in, u_out):
    op = reduced_scalar_b()
    g = RadialGrid(n=400)
    sol = solve_bvp(BVProblem(op, g, None, Dirichlet.scalar(u_in),
                              Dirichlet.scalar(u_out)))
    exact = _scalar_closed_form(g, u_in, u_out)
    scale = abs(u_in - u_out) + 1.0   # discretization error rides on b
    assert np.max(np.abs(sol.values[0] - exact)) < 1e-3 * scale
    # Dirichlet values come back exactly, not as a solve's rounding
    assert sol.values[0, 0] == u_in and sol.values[0, -1] == u_out


def test_residual_gate_can_trip():
    op = reduced_scalar_b()
    g = RadialGrid(n=200)
    tight = DEFAULT._replace(discrete_residual=1e-18)
    with pytest.raises(ConvergenceError):
        solve_bvp(BVProblem(op, g, None, Dirichlet.scalar(2.0),
                            Dirichlet.scalar(1.0)), config=tight)


# every way to give the two Dirichlet conditions, and both on one component
@pytest.mark.parametrize("inner, outer", [
    (None, {0: 1.0, 1: 1.0}), ({1: 0.0}, {0: 1.0}), ({0: 0.0}, {1: 1.0}),
    ({0: 0.0, 1: 0.0}, None), ({0: 0.0}, {0: 1.0})])
def test_system_with_an_empty_component_is_singular(inner, outer):
    """The second component of this 2x2 first-order operator has no
    terms, so its block of the discrete system is singular whatever the
    boundary rows say."""
    op = ModeReducedOp((0, (0, 0)), "x", [[{1: X}, {}], [{}, {}]])
    bcs = [None if bc is None else Dirichlet(bc) for bc in (inner, outer)]
    with pytest.raises(IndicialWeightError, match="singular"):
        solve_bvp(BVProblem(op, RadialGrid(n=100), None, *bcs))


def _oracle_problems(n):
    g = RadialGrid(n=n)
    xN = g.x_max
    yield "d00-even", BVProblem(reduced_D00("even"), g, None,
                                DecaySelect(0.0), Dirichlet({3: xN ** 2}))
    yield "odd block", BVProblem(
        _odd_coupled_block(), g, None, None,
        Dirichlet({0: 0.7 * xN ** 0.5 + 0.3 * xN ** -1.5,
                   1: 0.7 * xN ** 0.5 - 0.3 * xN ** -1.5}))
    # the cutoff -1/2 kills the root -1 and keeps the root 0
    yield "scalar decay", BVProblem(reduced_scalar_b(), g, lambda x: x,
                                    DecaySelect(-1.5), Dirichlet.scalar(1.0))
    # the cutoff 1 kills both roots of the odd block (-3/2 and 1/2), so
    # both decay rows fall in its one block
    yield "odd block decay", BVProblem(
        _odd_coupled_block(), g, lambda x: (x, x * x), DecaySelect(0.0))


@pytest.mark.parametrize("name", ["d00-even", "odd block", "scalar decay",
                                  "odd block decay"])
def test_solve_bvp_matches_sparse_direct_reference(name):
    """The banded block solve agrees with one sparse direct solve of the
    whole component-major system."""
    problem = dict(_oracle_problems(400))[name]
    got = solve_bvp(problem).values
    want = sparse_bvp_reference(problem)
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def _spy_bands(monkeypatch):
    """Record (bands, unknowns, right-hand sides) of every banded solve."""
    seen = []
    solve = modes.spsolve

    def spy(bands, ab, b):
        seen.append((bands, ab.shape[1], b.shape[1]))
        return solve(bands, ab, b)
    monkeypatch.setattr(modes, "spsolve", spy)
    return seen


def test_d00_blocks_and_bands(monkeypatch):
    """d00-even splits into six scalar blocks and the coupled pair (3, 4),
    each with one decay row: one banded solve per block, of the data and
    one homogeneous column, in a band as narrow as the box stencil."""
    seen = _spy_bands(monkeypatch)
    problem = dict(_oracle_problems(400))["d00-even"]
    solve_bvp(problem)
    assert sorted(seen) == [((0, 1), 401, 2)] * 6 + [((2, 2), 802, 2)]


@pytest.mark.parametrize("n", [10000, 40000])
def test_d00_residual_at_rounding_level_on_fine_grids(n):
    """Eliminating from the outer end toward x = 0 keeps the small inner
    values relatively accurate: every row, the decay row included, is
    satisfied to rounding."""
    g = RadialGrid(n=n)
    sol = solve_bvp(BVProblem(reduced_D00("even"), g, None,
                              DecaySelect(0.0), Dirichlet({3: g.x_max ** 2})))
    assert sol.residual < 1e-13


@pytest.mark.parametrize("n", [12, 17, 18])
def test_decay_selection_on_grids_coarser_than_the_fit_window(n):
    """With fewer than FIT_NODES nodes the decay rows still act on each
    component's own nodes: the solution has no part along the killed
    directions.  (The reference solver builds the same rows, so this is
    checked against the projection itself.)"""
    g = RadialGrid(n=n)
    op = reduced_D00("even")
    sol = solve_bvp(BVProblem(op, g, None, DecaySelect(0.0),
                              Dirichlet({3: g.x_max ** 2})))
    basis = _mode_exponents(op)
    P = modes._decay_projection(basis, g.nodes)
    killed = P[modes._killed(basis, 1.0)] @ sol.values.ravel()
    assert np.max(np.abs(killed)) <= 1e-12 * np.max(np.abs(sol.values))


def test_unsupported_shape_rejected():
    op = ModeReducedOp((0, (0, 0)), "x",
                       [[{2: X * X}, {}], [{}, {2: X * X}]])
    g = RadialGrid(n=100)
    with pytest.raises(ValueError):
        solve_bvp(BVProblem(op, g, None, Dirichlet({0: 0.0, 1: 0.0}),
                            Dirichlet({0: 1.0, 1: 1.0})))


# ---------------------------------------------------------------------------
# mode trichotomy
# ---------------------------------------------------------------------------

def test_torus_mode_decay_rate():
    op = project_modes(laplacian(metric_a()), 0, (1, 0), product_model=True)
    g = RadialGrid()
    sol = solve_bvp(BVProblem(op, g, None, DecaySelect(0.0),
                              Dirichlet.scalar(1.0)))
    rate = fit_decay_rate(sol, -1)
    assert abs(rate - (-1.0)) < 0.05


def test_circle_mode_decay_rate():
    op = project_modes(laplacian(metric_a()), 1, (0, 0), product_model=True)
    g = RadialGrid()
    sol = solve_bvp(BVProblem(op, g, None, DecaySelect(0.0),
                              Dirichlet.scalar(1.0)))
    rate = fit_decay_rate(sol, -2)
    assert abs(rate - (-0.5)) < 0.05 * 0.5


def test_circle_mode_against_exact_solution():
    """The k=1 decaying solution is exp(-1/(2x^2)) up to normalization."""
    op = project_modes(laplacian(metric_a()), 1, (0, 0), product_model=True)
    g = RadialGrid()
    sol = solve_bvp(BVProblem(op, g, None, DecaySelect(0.0),
                              Dirichlet.scalar(1.0)))
    xs = g.nodes
    exact = np.exp(2.0 - 1.0 / (2 * xs ** 2))
    mask = exact > 1e-12
    rel = np.max(np.abs(sol.values[0][mask] - exact[mask]) / exact[mask])
    assert rel < 0.02


def test_super_polynomial_vs_polynomial():
    """Log-log slope of the k-mode keeps steepening toward x=0 while the
    zero mode's stays locked near its power."""
    g = RadialGrid()
    xs = g.nodes
    op_k = project_modes(laplacian(metric_a()), 1, (0, 0),
                         product_model=True)
    sol = solve_bvp(BVProblem(op_k, g, None, DecaySelect(0.0),
                              Dirichlet.scalar(1.0)))
    u = np.abs(sol.values[0])

    def window_slope(center):
        mask = (xs > center / 1.2) & (xs < center * 1.2) & (u > 0)
        return np.polyfit(np.log(xs[mask]), np.log(u[mask]), 1)[0]

    assert window_slope(0.1) > 2 * window_slope(0.2) > 0


# ---------------------------------------------------------------------------
# decay selection and expansion fits on the coupled systems
# ---------------------------------------------------------------------------

def test_even_system_leading_exponent_two():
    op = reduced_D00("even")
    g = RadialGrid()
    sol = solve_bvp(BVProblem(op, g, None, DecaySelect(0.0),
                              Dirichlet({3: g.x_max ** 2})))
    xs = g.nodes
    assert sol.values[3, -1] == g.x_max ** 2
    for comp in (3, 4):
        assert np.max(np.abs(sol.values[comp] - xs ** 2)) < 1e-5
    roots = indicial_roots(indicial_poly(op))
    fit = fit_expansion(sol, roots, 0.0)
    assert fit.exponents == (Fraction(2),)
    assert fit.residual < 1e-4
    assert not fit.flagged
    assert abs(fit.slope - 2.0) < 0.05
    c = fit.coefficients[0]
    assert abs(c[3] - 1.0) < 1e-3 and abs(c[4] - 1.0) < 1e-3
    assert abs(c[3] - c[4]) < 1e-6
    for comp in (0, 1, 2, 5, 6, 7):
        assert abs(c[comp]) < 1e-6


def test_decay_cutoff_at_indicial_weight_rejected():
    op = reduced_D00("even")
    g = RadialGrid(n=400)
    with pytest.raises(IndicialWeightError):
        solve_bvp(BVProblem(op, g, None, DecaySelect(-1.0),
                            Dirichlet({3: 1.0})))


# an int, a Fraction, a float, and a float within 1e-12 of the weight
@pytest.mark.parametrize("weight", [-1, Fraction(-1), -1.0, -1.0 + 1e-13])
def test_decay_cutoff_at_indicial_weight_rejected_for_every_number_type(
        weight):
    op = reduced_D00("even")
    with pytest.raises(IndicialWeightError, match="weight -1 "):
        solve_bvp(BVProblem(op, RadialGrid(n=400), None, DecaySelect(weight),
                            Dirichlet({3: 1.0})))


def test_odd_block_exponents_only():
    op = _odd_coupled_block()
    roots = indicial_roots(indicial_poly(op))
    assert [r.root for r in roots] == [Fraction(-3, 2), Fraction(1, 2)]
    g = RadialGrid()
    a, b = 0.7, 0.3
    xN = g.x_max
    outer = Dirichlet({0: a * xN ** 0.5 + b * xN ** -1.5,
                       1: a * xN ** 0.5 - b * xN ** -1.5})
    sol = solve_bvp(BVProblem(op, g, None, None, outer))
    fit = fit_expansion(sol, roots, -3.0)
    assert fit.exponents == (Fraction(-3, 2), Fraction(1, 2))
    assert fit.residual < 1e-4
    assert abs(fit.slope - (-1.5)) < 0.05
    # the steep direction is recovered sharply, the shallow one loosely
    assert abs(fit.coefficients[0][0] - b) < 1e-4
    assert abs(fit.coefficients[0][1] + b) < 1e-4
    assert abs(fit.coefficients[1][0] - a) < 0.07
    assert abs(fit.coefficients[1][1] - a) < 0.07


def test_fit_expansion_exact_power():
    g = RadialGrid(n=500)
    u = SampledSolution(g, (g.nodes ** 2)[None, :])
    fit = fit_expansion(u, [Fraction(2)], 0.0)
    assert fit.exponents == (Fraction(2),)
    assert abs(fit.coefficients[0][0] - 1.0) < 1e-12
    assert fit.residual < 1e-12
    assert not fit.flagged


def test_fit_expansion_candidate_rules():
    g = RadialGrid(n=500)
    u = SampledSolution(g, np.ones((1, 501)))
    roots = [Fraction(-1), Fraction(0)]
    with pytest.raises(ValueError):
        fit_expansion(u, roots, 0.0)        # nothing above cutoff + 1
    fit = fit_expansion(u, roots, Fraction(-3, 2))
    assert fit.exponents == (Fraction(0),)  # x^-1 sits below -3/2 + 1
    both = fit_expansion(u, roots, Fraction(-5, 2))
    assert both.exponents == (Fraction(-1), Fraction(0))


def test_fit_expansion_scalar_two_exponent():
    op = reduced_scalar_b()
    g = RadialGrid()
    sol = solve_bvp(BVProblem(op, g, None, Dirichlet.scalar(2.0),
                              Dirichlet.scalar(1.0)))
    exact = _scalar_closed_form(g, 2.0, 1.0)
    x0, xN = g.x_min, g.x_max
    b = (2.0 - 1.0) / (1.0 / x0 - 1.0 / xN)
    a = 1.0 - b / xN
    roots = indicial_roots(indicial_poly(op))
    fit = fit_expansion(sol, roots, Fraction(-5, 2))
    assert fit.exponents == (Fraction(-1), Fraction(0))
    assert abs(fit.coefficients[0][0] - b) < 1e-5 * abs(b)
    assert abs(fit.coefficients[1][0] - a) < 1e-3 * abs(a)
    assert fit.residual < 1e-6
    del exact


# ---------------------------------------------------------------------------
# discrete weighted norms
# ---------------------------------------------------------------------------

def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, c in enumerate(q):
            out[i + j] += a * c
    return out


def test_norm_of_weighted_bump_closed_form():
    g = RadialGrid()
    xs = g.nodes
    a, b = Fraction(1, 8), Fraction(3, 8)
    mu = 0.7
    lin_a = [-a, Fraction(1)]
    lin_b = [b, Fraction(-1)]
    bump = [Fraction(1)]
    for _ in range(3):
        bump = _poly_mul(bump, lin_a)
        bump = _poly_mul(bump, lin_b)
    sq = _poly_mul(bump, bump)

    def bump_val(x):
        return float((x - float(a)) ** 3 * (float(b) - x) ** 3) \
            if float(a) <= x <= float(b) else 0.0

    vals = np.array([bump_val(x) for x in xs]) * xs ** mu
    u = SampledSolution(g, vals[None, :])
    got = discrete_a_norm(u, mu, order=0, metric="gh")
    # integral of sq(x) * x^-3 over [a, b]: power rule plus one log term
    total = 0.0
    for k, coeff in enumerate(sq):
        if k == 2:
            total += float(coeff) * math.log(float(b) / float(a))
        else:
            p = k - 2
            total += float(coeff) * (float(b) ** p - float(a) ** p) / p
    assert abs(got - math.sqrt(total)) < 1e-6 * math.sqrt(total)
    assert not got.divergent


def test_norm_zero():
    g = RadialGrid(n=300)
    u = SampledSolution(g, np.zeros((1, 301)))
    assert discrete_a_norm(u, 0.0) == 0.0
    assert not discrete_a_norm(u, 0.0).divergent


def test_norm_divergence_flag():
    g = RadialGrid(n=300)
    u = SampledSolution(g, np.ones((1, 301)))
    res = discrete_a_norm(u, 0.0, metric="gh")
    assert res.divergent
    ok = discrete_a_norm(u, -2.0, metric="gh")
    assert not ok.divergent


def test_norm_first_order_closed_form():
    g = RadialGrid()
    xs = g.nodes
    u = SampledSolution(g, xs[None, :], reduced_scalar_b())
    got = discrete_a_norm(u, -2.0, order=1, metric="gh")
    # |u|^2 + |x^3 u'|^2 = x^2 + x^6 against x dx
    x0, xN = g.x_min, g.x_max
    total = (xN ** 4 - x0 ** 4) / 4 + (xN ** 8 - x0 ** 8) / 8
    assert abs(got - math.sqrt(total)) < 1e-8 * math.sqrt(total)


def test_norm_mode_frequencies_enter():
    g = RadialGrid()
    xs = g.nodes
    op = project_modes(laplacian(metric_a()), 0, (1, 0), product_model=True)
    u = SampledSolution(g, xs[None, :], op)
    got = discrete_a_norm(u, -2.0, order=1, metric="gh")
    # adds |m1 x u|^2 = x^4 to the radial words
    x0, xN = g.x_min, g.x_max
    total = (xN ** 4 - x0 ** 4) / 4 + (xN ** 8 - x0 ** 8) / 8 \
        + (xN ** 6 - x0 ** 6) / 6
    assert abs(got - math.sqrt(total)) < 1e-8 * math.sqrt(total)


def test_norm_order_monotone():
    g = RadialGrid(n=600)
    xs = g.nodes
    u = SampledSolution(g, xs[None, :], reduced_scalar_b())
    n0 = discrete_a_norm(u, -2.0, order=0)
    n1 = discrete_a_norm(u, -2.0, order=1)
    n2 = discrete_a_norm(u, -2.0, order=2)
    assert n0 < n1 < n2


def test_volume_density_weight_shift():
    """The same function has equal weighted norms under the two radial
    densities when the weight shifts by one full power; the half shift
    does not balance them."""
    g = RadialGrid()
    xs = g.nodes
    u = SampledSolution(g, (1.0 + xs ** 2)[None, :])
    for c in (-2.0, -3.0):
        for order in (0, 2):
            lhs = discrete_a_norm(u, c, order=order, metric="gh")
            rhs = discrete_a_norm(u, c - 1.0, order=order, metric="a")
            assert abs(lhs - rhs) <= 1e-12 * max(lhs, 1.0)
    half = discrete_a_norm(u, -2.0 - 0.5, order=0, metric="a")
    full = discrete_a_norm(u, -2.0, order=0, metric="gh")
    assert abs(half - full) > 0.1 * full


# ---------------------------------------------------------------------------
# closed-range shadow
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(40, 3), (6, 6), (3, 40)])
def test_svdvals_matches_scipy(shape):
    a = np.random.default_rng(9).standard_normal(shape)
    want = svdvals(a)
    got = modes.svdvals(a)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-13 * want[0]


def test_sigma_min_degenerates_at_indicial_weight():
    op = reduced_scalar_b()
    grids = [RadialGrid(n=int(120 * math.log10(0.5 / xm)), x_min=xm)
             for xm in (1e-2, 1e-4, 1e-8)]
    at_weight = [weighted_sigma_min(op, -1.0, g) for g in grids]
    off_weight = [weighted_sigma_min(op, -0.5, g) for g in grids]
    assert at_weight[0] > at_weight[1] > at_weight[2]
    assert at_weight[2] < 0.55 * at_weight[0]
    assert off_weight[2] > 0.8 * off_weight[0]
    assert off_weight[2] > 2 * at_weight[2]


def _dense_sigma_min(op, weight, grid, fit_nodes=20):
    """Reference: the same operator filled into a dense matrix, entry by
    entry, and its full singular value decomposition."""
    xs = grid.nodes
    n = grid.n
    mu = float(weight)
    gammas = [float(g) for g, _ in _mode_exponents(op)]
    killed = [g for g in gammas if g < mu + 1.0 - 1e-12
              and abs(g - (mu + 1.0)) > 1e-12]
    dx = np.gradient(xs)
    dx[[0, -1]] *= 0.5
    mass = xs ** -3 * dx
    B = np.zeros((len(killed) + n, n + 1))
    if killed:
        w = xs[:fit_nodes]
        C = np.column_stack([w ** (g - mu) for g in gammas])
        P = np.linalg.pinv(C / np.linalg.norm(C, axis=0))
        for r, g in enumerate(killed):
            row = P[gammas.index(g)] / np.sqrt(mass[:fit_nodes])
            B[r, :fit_nodes] = row / np.linalg.norm(row)
    weights = _interior_weights(op, grid)
    for i in range(1, n):
        for off in (-1, 0, 1):
            j = i + off
            B[len(killed) + i - 1, j] = weights[off + 1, i - 1] \
                * (xs[j] / xs[i]) ** mu * math.sqrt(mass[i] / mass[j])
    B[-1, n] = 1.0
    return float(svdvals(B)[-1])


# weight -1 gives a square operator, -1/2 and +1/2 a tall one (two
# projection rows) and -3 a wide one (none); x_min 0.4 gives n = 11, a
# grid coarser than the FIT_NODES window of the projection rows
@pytest.mark.parametrize("weight", [-1.0, -0.5, -3.0, 0.5])
@pytest.mark.parametrize("x_min", [1e-2, 1e-4, 1e-8, 0.4])
def test_sigma_min_matches_dense_svd(weight, x_min):
    op = reduced_scalar_b()
    grid = RadialGrid(n=int(120 * math.log10(0.5 / x_min)), x_min=x_min)
    want = _dense_sigma_min(op, weight, grid)
    assert abs(weighted_sigma_min(op, weight, grid) - want) <= 1e-9 * want


@pytest.mark.parametrize("n", [int(120 * math.log10(0.5 / 1e-30)), 10000])
def test_sigma_min_degenerates_out_to_1e_30(n):
    """A grid reaching x_min = 1e-30 against the grid of the same node
    density per decade ending at 1e-2 (sigma_min scales with the node
    spacing, so only equal densities compare)."""
    op = reduced_scalar_b()
    far = RadialGrid(n=n, x_min=1e-30)
    per_decade = far.n / math.log10(0.5 / 1e-30)
    near = RadialGrid(n=round(per_decade * math.log10(0.5 / 1e-2)),
                      x_min=1e-2)
    at_near, at_far = (weighted_sigma_min(op, -1.0, g) for g in (near, far))
    off_near, off_far = (weighted_sigma_min(op, -0.5, g)
                         for g in (near, far))
    assert at_far < 0.5 * at_near
    assert off_far > 0.8 * off_near
    assert off_far > 1.5 * at_far


@pytest.mark.parametrize("weight", [Fraction(-1, 2), Fraction(-1),
                                    Fraction(-3, 2), Fraction(1, 4)])
def test_sigma_min_exact_weight_matches_float(weight):
    op = reduced_scalar_b()
    grid = RadialGrid(n=240, x_min=1e-2)
    assert weighted_sigma_min(op, weight, grid) \
        == weighted_sigma_min(op, float(weight), grid)


# one tall (two projection rows) and one wide (none) operator in a fresh
# interpreter; the last stdout line lists the scipy.sparse modules loaded
_SIGMA_PROBE = """
import json, sys
from alhlab.modes import RadialGrid, weighted_sigma_min
from alhlab.operators import reduced_scalar_b
for weight in (-0.5, -3.0):
    weighted_sigma_min(reduced_scalar_b(), weight, RadialGrid(n=200))
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[:2] == ["scipy", "sparse"])))
"""


def test_sigma_min_loads_no_scipy_sparse():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run([sys.executable, "-c", _SIGMA_PROBE], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == []


def test_sigma_min_indefinite_gram_raises():
    """5,000 nodes down to x_min = 1e-2 put the condition number of BᵀB
    past 1 / eps (diagonal up to 1.6e13, Dirichlet column 1), so its band
    Cholesky breaks down at the last pivot: a numerical failure, raised as
    ``ConvergenceError`` like an unsettled iteration, not as LAPACK's
    ``LinAlgError``."""
    with pytest.raises(ConvergenceError):
        weighted_sigma_min(reduced_scalar_b(), -0.5,
                           RadialGrid(n=5000, x_min=1e-2))


def test_sigma_min_unsettled_iteration_raises(monkeypatch):
    monkeypatch.setattr(modes, "_SIGMA_MAX_ITER", 1)
    with pytest.raises(ConvergenceError):
        weighted_sigma_min(reduced_scalar_b(), -0.5, RadialGrid(n=200))
