"""The four workloads: one round of tasks each, built from a seed.

A round is a fixed list of tasks.  The seed picks the inputs (points,
modes, parameters, coefficients) once, and every round repeats the same
tasks, so each run attempts whole rounds of the same operations.  A task
is timed from the call into alhlab to its return; its check runs after
the clock stops.

Seeded inputs are drawn from ranges on which the cost of a task barely
depends on the draw, so runs with different seeds measure the same work.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

import checks

HERE = os.path.dirname(os.path.abspath(__file__))


class Task(NamedTuple):
    name: str
    run: Callable[[], object]
    check: Callable[[object], object]  # result -> None, or a message


def _first_error(*messages):
    return next((m for m in messages if m), None)


def _point(rng, radial_lo, radial_hi, den=64):
    """Seeded rational point (radial, y1, y2, theta = 0) of a chart box."""
    lo, hi = Fraction(radial_lo), Fraction(radial_hi)
    return [lo + (hi - lo) * Fraction(rng.randint(0, den - 1), den),
            Fraction(rng.randint(1, den - 1), den),
            Fraction(rng.randint(1, den - 1), den), Fraction(0)]


# x-chart points stay in [1/4, 1/2): below that calabi:10's components
# span more than 50 digits and the oracle's metric inverse degenerates.
def _x_point(rng):
    return _point(rng, Fraction(1, 4), Fraction(1, 2))


def _r_point(rng):
    return _point(rng, 3, 12)


# ---------------------------------------------------------------------------
# exact-model
# ---------------------------------------------------------------------------

MODEL_METRICS = ["gh", "gh_r", "a", "model"] + [f"calabi:{n}"
                                                 for n in range(3, 11)]


def _metric(name):
    from alhlab import geometry
    if name.startswith("calabi:"):
        return geometry.metric_calabi(int(name.split(":")[1]))
    return getattr(geometry, f"metric_{name}")()


def _ricci_at(ric, variables, point):
    at = dict(zip(variables, point))
    return [[float(ric[i][j].evaluate(at)) for j in range(4)]
            for i in range(4)]


def _curvature_task(name, rng):
    from alhlab.geometry import curvature
    point = _r_point(rng) if name == "gh_r" else _x_point(rng)
    variables = ("r" if name == "gh_r" else "x", "y1", "y2", "theta")

    oracle = []  # the FD Ricci tensor at ``point``, the same every round

    def check(out):
        ric = out["ricci"]
        if name in ("gh", "gh_r"):
            return _first_error(
                checks.check_ricci_zero(name, ric),
                None if out["scalar"].is_zero() else f"{name}: scalar != 0")
        if not oracle:
            oracle.append(checks.fd_ricci(name, point))
        return checks.check_ricci_fd(name, oracle[0],
                                     _ricci_at(ric, variables, point))
    return Task(f"curvature:{name}", lambda: curvature(_metric(name)), check)


def _poly_ratfun(poly):
    """RatFun of {(e_x, e_y1, e_y2): coefficient}."""
    from alhlab.ratfun import RatFun
    out = RatFun.const(0)
    for (e0, e1, e2), c in poly.items():
        out = out + RatFun.const(c) * RatFun.var("x", e0) \
            * RatFun.var("y1", e1) * RatFun.var("y2", e2)
    return out


def _laplacian_task(rng):
    from alhlab.geometry import metric_a, metric_gh
    from alhlab.operators import a_rescale_identity, laplacian
    poly = {(2, 1, 0): rng.randint(1, 9), (1, 0, 3): rng.randint(1, 9),
            (3, 1, 1): rng.randint(-9, -1), (0, 2, 1): rng.randint(1, 9)}
    points = {"gh": _x_point(rng), "a": _x_point(rng)}

    def run():
        return laplacian(metric_gh()), laplacian(metric_a()), \
            a_rescale_identity()

    def check(out):
        lap_gh, lap_a, identity = out
        f = _poly_ratfun(poly)
        errs = [None if identity is True else "regrouping identity failed"]
        for name, lap in (("gh", lap_gh), ("a", lap_a)):
            pt = points[name]
            value = lap.apply(f).evaluate(dict(zip(("x", "y1", "y2"), pt)))
            errs.append(checks.check_laplacian_fd(name, poly, pt, value))
        return _first_error(*errs)
    return Task("laplacian", run, check)


def _rf_terms(terms):
    """RatFun sum of c * x^p over (c, p) pairs."""
    return _poly_ratfun({(p, 0, 0): c for c, p in terms})


def _modes_task(rng):
    from alhlab.geometry import metric_a, metric_gh
    from alhlab.operators import laplacian, project_modes
    from alhlab.ratfun import RatFun
    modes = [(0, (rng.randint(1, 3), rng.randint(0, 3))),
             (rng.randint(1, 4), (0, 0)),
             (rng.randint(1, 3), (rng.randint(0, 2), rng.randint(1, 2)))]

    def run():
        zero = project_modes(laplacian(metric_gh()), 0, (0, 0))
        lap_a = laplacian(metric_a())
        return zero, [project_modes(lap_a, k, m, product_model=True)
                      for k, m in modes]

    def check(out):
        zero, reduced = out
        # x^-3 times the gh zero mode is x^2 D^2 + 2x D
        z = zero.scale_left(RatFun.var("x", -3))
        want = {2: _rf_terms([(1, 2)]), 1: _rf_terms([(2, 1)]),
                0: _rf_terms([])}
        if any(z.coefficient(0, 0, o) != w for o, w in want.items()):
            return f"zero mode of gh is {z!r}"
        for (k, m), op in zip(modes, reduced):
            for order, terms in checks.product_mode_coefficients(k, m).items():
                if op.coefficient(0, 0, order) != _rf_terms(terms):
                    return f"product-model mode {(k, m)} is {op!r}"
        return None
    return Task("project_modes", run, check)


def _indicial_task():
    from alhlab.indicial import indicial_poly, indicial_roots, weight_window
    from alhlab.operators import reduced_D00, reduced_scalar_b

    def run():
        ops = {"scalar": reduced_scalar_b(), "even": reduced_D00("even"),
               "odd": reduced_D00("odd")}
        roots = {k: indicial_roots(indicial_poly(op)) for k, op in ops.items()}
        return roots, weight_window(roots["scalar"])

    def check(out):
        roots, window = out
        r = {k: [x.root for x in v] for k, v in roots.items()}
        return _first_error(
            checks.check_roots("scalar", r["scalar"], checks.SCALAR_ROOTS),
            checks.check_roots("d00-even", r["even"],
                               checks.D00_ROOTS["even"]),
            checks.check_roots("d00-odd", r["odd"], checks.D00_ROOTS["odd"]),
            None if set(window.weights) == {g - 1 for g in checks.SCALAR_ROOTS}
            else f"scalar weights {window.weights}")
    return Task("indicial", run, check)


def _forms_task(rng):
    from alhlab.forms import FormField, PMBasis, ext_d, hodge_star, wedge
    from alhlab.geometry import metric_gh, x_chart
    from alhlab.ratfun import RatFun
    c = [RatFun.const(rng.randint(1, 9)) for _ in range(6)]

    def run():
        ch, g = x_chart(), metric_gh()
        x, y1, y2 = RatFun.var("x"), RatFun.var("y1"), RatFun.var("y2")
        f = FormField.function(ch, c[0] * x * x * y1 + c[1] * y2)
        a1 = FormField(ch, 1, {(0,): c[2] * x * y1, (2,): y2 * y2,
                               (3,): c[3] * x ** 3})
        a2 = FormField(ch, 2, {(0, 1): x * x, (1, 2): c[4] * y1 * y1,
                               (2, 3): c[5] * x * y1})
        d2 = [ext_d(ext_d(w)) for w in (f, a1, a2)]
        star2 = hodge_star(hodge_star(a2, g), g)
        basis = PMBasis()
        six, gm = basis.all_six(), basis.metric
        star_six = [hodge_star(hodge_star(w, gm), gm) for w in six]
        wedges = [[wedge(u, v).get((0, 1, 2, 3)) for v in six] for u in six]
        nonclosed = [i for i, w in enumerate(six) if not ext_d(w).is_zero()]
        return d2, (star2, a2), list(zip(star_six, six)), wedges, nonclosed

    def check(out):
        d2, star2, star_six, wedges, nonclosed = out
        r2 = RatFun.const(2) * RatFun.var("r")
        if not all(w.is_zero() for w in d2):
            return "d^2 != 0"
        if any(a != b for a, b in [star2] + star_six):
            return "star^2 != id on 2-forms"
        for i in range(6):
            for j in range(6):
                want = (r2 if i < 3 else -r2) if i == j else RatFun.const(0)
                if wedges[i][j] != want:
                    return f"wedge of basis forms {i}, {j} is {wedges[i][j]!r}"
        # d(dr ^ Theta - r dy1 ^ dy2) = -2 dr ^ dy1 ^ dy2; the rest close
        if nonclosed != [3]:
            return f"non-closed basis forms {nonclosed}"
        return None
    return Task("forms", run, check)


SEMIFLAT = ("theta_twist", "y1_twist", "y2_twist")

# The modulus family is not seeded: for about one parameter pair in twelve
# its closed-form and Richardson derivatives differ by just over the 1e-9
# that second_derivative_report allows, and the CLI exits 3 (CHANGES.md,
# FOUND).  (0.7, 0.4) passes every time.
MODULUS_PARAMS = (0.7, 0.4)


def _hk_task(rng):
    from alhlab.forms import PMBasis
    from alhlab.hk import (Triple, family_calabi_modulus,
                           family_calabi_scaling, pullback_pm, q_map,
                           second_derivative_report)
    c = Fraction(rng.randint(1, 9), 10)
    point = {"r": Fraction(rng.randint(3, 12)),
             "y1": Fraction(rng.randint(1, 9), 10),
             "y2": Fraction(rng.randint(1, 9), 10)}
    alpha = rng.randint(1, 9) / 10
    al, be = MODULUS_PARAMS

    def run():
        return (q_map(Triple.standard(), PMBasis().volume_form()),
                {k: pullback_pm((k, c), point) for k in SEMIFLAT},
                second_derivative_report(family_calabi_scaling(alpha)),
                second_derivative_report(family_calabi_modulus(al, be)))

    def check(out):
        q, pulls, rep_s, rep_m = out
        errs = []
        if not all(q[i][j].is_zero() for i in range(3) for j in range(3)):
            errs.append("standard triple has a wedge defect")
        for kind, (A, B) in pulls.items():
            wa, wb = checks.semiflat_closed_form(kind, float(c))
            errs += [checks.check_close(f"{kind} A", A, wa, 1e-12),
                     checks.check_close(f"{kind} B", B, wb, 1e-12)]
        for label, rep, (wa, wb) in (
                ("scaling", rep_s, checks.calabi_scaling_derivatives(alpha)),
                ("modulus", rep_m, checks.calabi_modulus_derivatives(al, be))):
            errs += [
                checks.check_close(f"{label} A''", rep["A_ddot"], wa, 1e-9),
                checks.check_close(f"{label} B'", rep["B_dot"], wb, 1e-9)]
        return _first_error(*errs)
    return Task("hk", run, check)


def _blowup_task(rng):
    from alhlab.operators import blowup_lift, structure_fields
    pts = [(Fraction(rng.randint(1, 9), rng.randint(10, 40)),
            Fraction(rng.randint(1, 40), rng.randint(5, 20)),
            Fraction(rng.randint(-10, 10), rng.randint(1, 7)),
            Fraction(rng.randint(-10, 10), rng.randint(1, 7)))
           for _ in range(4)]

    def run():
        gens = structure_fields("a")
        twisted = structure_fields("a", twisted=True)[2]
        lifts = {st: [blowup_lift(gens[i], st) for i in range(4)]
                 for st in ("b", "c", "a")}
        return lifts, blowup_lift(twisted, "a")

    def check(out):
        lifts, tw = out
        for stage, (radial, f1, f2, circle) in lifts.items():
            u_name = checks.BLOWUP_RADIAL[stage]
            if circle.coefficients[3] != 1:
                return f"{stage}: circle generator moved"
            for xt, u, _, _ in pts:
                at = {"x": xt, u_name: u}
                want = checks.blowup_expected(stage, "radial", xt, u)
                fib = checks.blowup_expected(stage, "fiber", xt, u)
                if (radial.coefficients[0].evaluate(at) != want
                        or f1.coefficients[1].evaluate(at) != fib
                        or f2.coefficients[2].evaluate(at) != fib):
                    return f"{stage}: lift mismatch at {at}"
        for xt, S, y1, Y1 in pts:
            at = {"x": xt, "S": S, "y1": y1, "Y1": Y1}
            fib, circ = checks.blowup_expected("a", "twisted", xt, S, y1, Y1)
            if (tw.coefficients[2].evaluate(at) != fib
                    or tw.coefficients[3].evaluate(at) != circ):
                return f"twisted lift mismatch at {at}"
        return None
    return Task("blowup_lift", run, check)


def exact_model(rng):
    tasks = [_curvature_task(name, rng) for name in MODEL_METRICS]
    tasks += [_laplacian_task(rng), _modes_task(rng), _indicial_task(),
              _forms_task(rng), _hk_task(rng), _blowup_task(rng)]
    return tasks[0], tasks


# ---------------------------------------------------------------------------
# exact-general
# ---------------------------------------------------------------------------

def gh_affine_metric(a, b, d, c):
    """Gibbons-Hawking metric V (dr^2 + dy1^2 + dy2^2) + V^-1 (dtheta + A)^2
    with V = a r + b y1 + d y2 + c and A = b y2 dr + d r dy1 + a y1 dy2,
    so that dA = *dV in the orientation (r, y1, y2)."""
    from alhlab.geometry import MetricField, r_chart
    from alhlab.ratfun import RatFun
    r, y1, y2 = RatFun.var("r"), RatFun.var("y1"), RatFun.var("y2")
    k = RatFun.const
    V = k(a) * r + k(b) * y1 + k(d) * y2 + k(c)
    A = [k(b) * y2, k(d) * r, k(a) * y1, k(1)]  # the last slot is dtheta
    W = 1 / V
    g = [[W * A[i] * A[j] + (V if i == j < 3 else k(0)) for j in range(4)]
         for i in range(4)]
    return MetricField(r_chart(), g, name=f"gh[{a},{b},{d},{c}]")


def _hk_constraints_task(rng):
    """The deformation families' quadratic constraints, exact in the curve
    parameter t: their denominators (12 - 3 t^2, powers of 1 - K t^2 / 9)
    are not monomials, so they belong here and not in exact-model."""
    from alhlab.hk import (calabi_modulus_constraint_exact,
                           calabi_scaling_constraint_exact)
    al = Fraction(rng.randint(1, 9), rng.randint(2, 9))
    be = Fraction(rng.randint(1, 9), rng.randint(2, 9))

    def run():
        return (calabi_scaling_constraint_exact(),
                calabi_modulus_constraint_exact(al, be))
    return Task("hk-constraints", run, lambda out: None if out == (True, True)
                else f"constraint residuals nonzero: {out}")


def exact_general(rng):
    from alhlab.geometry import ricci
    tasks = []
    for slot in range(3):           # the one variable V depends on
        for _ in range(3):
            coef = [0, 0, 0]
            coef[slot] = rng.randint(2, 9)
            a, b, d = coef
            c = rng.randint(2, 9)
            label = f"ricci:gh[{a},{b},{d},{c}]"
            tasks.append(Task(
                label,
                lambda a=a, b=b, d=d, c=c: ricci(gh_affine_metric(a, b, d, c)),
                lambda ric, label=label: checks.check_ricci_zero(label, ric)))
    tasks.append(_hk_constraints_task(rng))
    warm = Task("warm-up", lambda: ricci(gh_affine_metric(1, 0, 0, 1)),
                lambda ric: checks.check_ricci_zero("warm-up", ric))
    return warm, tasks


# ---------------------------------------------------------------------------
# radial
# ---------------------------------------------------------------------------

def _decay_task(lap_a, k, m, n):
    from alhlab.modes import (BVProblem, DecaySelect, Dirichlet, RadialGrid,
                              fit_decay_rate, solve_bvp)
    from alhlab.operators import project_modes
    power = checks.decay_target(k, m)[0]

    def run():
        op = project_modes(lap_a, k, m, product_model=True)
        sol = solve_bvp(BVProblem(op, RadialGrid(n=n), None, DecaySelect(0.0),
                                  Dirichlet.scalar(1.0)))
        return fit_decay_rate(sol, power)
    return Task(f"decay:{k},{m}:n={n}",
                run, lambda rate: checks.check_decay(k, m, power, rate))


def _zero_mode_task(inner, n):
    from alhlab.modes import BVProblem, Dirichlet, RadialGrid, solve_bvp
    from alhlab.operators import reduced_scalar_b

    def run():
        op = reduced_scalar_b()
        return [solve_bvp(BVProblem(op, RadialGrid(n=size), None,
                                    Dirichlet.scalar(inner),
                                    Dirichlet.scalar(1.0)))
                for size in (n, 2 * n)]

    def check(sols):
        errs = [checks.zero_mode_error(s.grid.nodes, s.values[0], inner, 1.0)
                for s in sols]
        return checks.check_second_order(errs)
    return Task(f"zero-mode:n={n}", run, check)


def _d00_task(n):
    from alhlab.indicial import indicial_poly, indicial_roots
    from alhlab.modes import (BVProblem, DecaySelect, Dirichlet, RadialGrid,
                              fit_expansion, solve_bvp)
    from alhlab.operators import reduced_D00

    def run():
        op = reduced_D00("even")
        grid = RadialGrid(n=n)
        sol = solve_bvp(BVProblem(op, grid, None, DecaySelect(0.0),
                                  Dirichlet({3: grid.x_max ** 2})))
        return fit_expansion(sol, indicial_roots(indicial_poly(op)), 0.0)
    return Task(f"d00-even:n={n}", run, lambda fit: checks.check_d00_fit(
        fit.exponents, fit.residual, fit.flagged))


def _sigma_task():
    from alhlab.modes import RadialGrid, weighted_sigma_min
    from alhlab.operators import reduced_scalar_b

    def run():
        op = reduced_scalar_b()
        grids = [RadialGrid(n=int(120 * math.log10(0.5 / xm)), x_min=xm)
                 for xm in (1e-2, 1e-4, 1e-8)]
        return ([weighted_sigma_min(op, -1.0, g) for g in grids],
                [weighted_sigma_min(op, -0.5, g) for g in grids])
    return Task("sigma_min", run, lambda out: checks.check_sigma_min(*out))


def radial(rng):
    from alhlab.geometry import metric_a
    from alhlab.operators import laplacian
    lap_a = laplacian(metric_a())
    k = rng.randint(1, 4)
    m = rng.choice([(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)])
    tasks = [_decay_task(lap_a, k, (0, 0), 20000),
             _decay_task(lap_a, 0, m, 40000),
             _zero_mode_task(float(rng.randint(2, 5)), 10000),
             _d00_task(10000),
             _sigma_task()]
    return _decay_task(lap_a, 1, (0, 0), 2000), tasks


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def _fraction_arg(point):
    return ",".join(str(v) for v in point)


class CliRunner:
    """Runs one CLI invocation per task: ``python -m alhlab.cli`` as a user
    would, or, in the traced run, the launcher that wraps the same entry
    point and writes its span totals next to the run outputs."""

    def __init__(self, root, env, outdir, traced):
        self.root, self.env, self.outdir = root, env, outdir
        self.traced = traced
        self.totals = []

    def __call__(self, argv):
        if self.traced:
            dump = os.path.join(self.outdir, f"cli-trace-{len(self.totals)}")
            cmd = [sys.executable, os.path.join(HERE, "cli_launcher.py"),
                   dump] + argv
        else:
            cmd = [sys.executable, "-m", "alhlab.cli"] + argv
        proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"alhlab {' '.join(argv)} exited "
                               f"{proc.returncode}: {proc.stderr[-300:]}")
        if self.traced:
            with open(dump + ".json") as handle:
                self.totals.append(json.load(handle)["totals"])
        return proc.stdout


def _results(text):
    return json.loads(text)["results"]


def _cli_curvature(run, name, point, output=None):
    argv = ["curvature", "--metric", name]
    if point is not None:
        argv += ["--at", _fraction_arg(point)]
    if output:
        argv = ["--output", output] + argv

    def go():
        text = run(argv)
        if output:
            with open(output) as handle:
                text = handle.read()
        return _results(text)

    def check(res):
        if point is None:
            return None if res["ricci_zero_exact"] is True \
                else f"{name}: Ricci not exactly zero"
        want = float(abs(checks.fd_ricci(name, point)).max())
        got = res["ricci_max_abs_at_point"]
        if not abs(got - want) <= 1e-5 * (1 + want):
            return f"{name}: max |Ric| {got} vs FD {want}"
        return None
    return Task(f"cli:curvature:{name}", go, check)


def _cli_indicial(run, op):
    want = {"scalar": checks.SCALAR_ROOTS,
            "d00-even": checks.D00_ROOTS["even"],
            "d00-odd": checks.D00_ROOTS["odd"]}[op]

    def check(res):
        roots = [Fraction(r["root"]) for r in res["roots"]]
        weights = {Fraction(w) for w in res["weights"]}
        return _first_error(checks.check_roots(op, roots, want),
                            None if weights == {g - 1 for g in want}
                            else f"{op}: weights {sorted(weights)}")
    return Task(f"cli:indicial:{op}", lambda: _results(
        run(["indicial", "--operator", op, "--weights"])), check)


def _cli_modes(run, k, m):
    argv = ["modes", "solve", "--k", str(k), "--m", f"{m[0]},{m[1]}",
            "--grid", "2000", "--fit"]

    def check(res):
        fit = res["fit"]
        if fit["kind"] != "exponential-rate":
            return f"mode {(k, m)}: fit kind {fit['kind']}"
        return checks.check_decay(k, m, fit["log_power"], fit["coefficient"])
    return Task(f"cli:modes:{k},{m}", lambda: _results(run(argv)), check)


def _cli_deform(run, family, params):
    argv = ["deform", "--family", family, "--param",
            ",".join(str(p) for p in params)]

    def check(res):
        if family == "calabi-scaling":
            wa, wb = checks.calabi_scaling_derivatives(*params)
        elif family == "calabi-modulus":
            wa, wb = checks.calabi_modulus_derivatives(*params)
        else:
            kind = family.replace("sf-", "") + "_twist"
            u, sa, sb = checks.symmetrized_closed_form(kind, params[0])
            ra, rb = checks.semiflat_closed_form(kind, params[0])
            return _first_error(*(checks.check_close(f"{family} {key}",
                                                     res[key], want, 1e-12)
                                  for key, want in (
                                      ("A_raw", ra), ("B_raw", rb),
                                      ("rotation", u), ("A_symmetric", sa),
                                      ("B_symmetric", sb))))
        return _first_error(
            checks.check_close(f"{family} A''", res["A_ddot"], wa, 1e-9),
            checks.check_close(f"{family} B'", res["B_dot"], wb, 1e-9))
    return Task(f"cli:deform:{family}", lambda: _results(run(argv)), check)


def _cli_cohomology(run, b, fmt):
    argv = ["cohomology", "--b", str(b)]
    if fmt == "csv":
        argv = ["--format", "csv"] + argv

    def go():
        text = run(argv)
        if fmt == "json":
            res = _results(text)
            return ([row["dim"] for row in res["table"]],
                    res["moduli_total"], res["moduli_split"])
        rows = dict(csv.reader(io.StringIO(text)))
        return ([int(rows[f"results.table[{k}].dim"]) for k in range(5)],
                int(rows["results.moduli_total"]),
                [int(rows[f"results.moduli_split[{i}]"]) for i in range(2)])
    return Task(f"cli:cohomology:{fmt}", go,
                lambda out: checks.check_cohomology(b, *out))


def _cli_lift_check(run, seed):
    def check(res):
        if res["mismatches"] != 0 or res["all_exact"] is not True \
                or res["checks"] < 1:
            return f"lift-check: {res}"
        return None
    return Task("cli:lift-check", lambda: _results(
        run(["--seed", str(seed), "lift-check"])), check)


def _cli_triple_q(run):
    def check(res):
        # eta = eps * omega with omega self-dual, omega_i ^ omega_j =
        # 2 r delta_ij and volume density r: the residual is 4 eps delta_ij
        eps = Fraction(res["gauge_residual_epsilon"])
        if (res["q_standard_all_zero"] is not True
                or res["gauge_residual_offdiagonal_zero"] is not True
                or [Fraction(v) for v in res["gauge_residual_diagonal"]]
                != [4 * eps] * 3):
            return f"triple-q: {res}"
        return None
    return Task("cli:triple-q", lambda: _results(run(["triple-q"])), check)


def cli(rng, runner):
    param = [round(rng.randint(1, 19) * 0.05, 2) for _ in range(4)]
    decaying = rng.choice([(0, (1, 0)), (0, (1, 1)), (0, (2, 1)),
                           (1, (0, 0)), (2, (0, 0)), (3, (0, 0))])
    output = os.path.join(runner.outdir, "cli-output.json")
    tasks = [
        _cli_curvature(runner, "gh", None),
        _cli_curvature(runner, "a", _x_point(rng)),
        _cli_curvature(runner, f"calabi:{rng.randint(3, 10)}", _x_point(rng)),
        _cli_curvature(runner, "model", _x_point(rng), output=output),
        _cli_indicial(runner, rng.choice(["scalar", "d00-even", "d00-odd"])),
        _cli_modes(runner, *decaying),
        _cli_deform(runner, "calabi-scaling", param[:1]),
        _cli_deform(runner, "calabi-modulus", MODULUS_PARAMS),
        _cli_deform(runner, "sf-theta", param[1:2]),
        _cli_deform(runner, "sf-y1", param[2:3]),
        _cli_deform(runner, "sf-y2", param[3:4]),
        _cli_cohomology(runner, rng.randint(1, 9), "json"),
        _cli_cohomology(runner, rng.randint(1, 9), "csv"),
        _cli_lift_check(runner, rng.randint(0, 10 ** 6)),
        _cli_triple_q(runner),
    ]
    return _cli_cohomology(runner, 1, "json"), tasks


WORKLOADS = ("cli", "exact-model", "exact-general", "radial")
