"""The benchmark's own tests: every output check accepts alhlab's result
and rejects a corrupted one, and the tracer counts what it should.

Run with the package sources on the path:
    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import checks
import spans
import workloads
from alhlab.geometry import metric_a, metric_gh, ricci
from alhlab.hk import family_semiflat, symmetrize
from alhlab.operators import laplacian
from alhlab.ratfun import Poly, RatFun

POINT = [Fraction(5, 16), Fraction(3, 8), Fraction(7, 16), Fraction(0)]


def test_ricci_fd_check():
    ric = workloads._ricci_at(ricci(metric_a()), ("x", "y1", "y2"), POINT)
    want = checks.fd_ricci("a", POINT)
    assert checks.check_ricci_fd("a", want, ric) is None
    bad = [row[:] for row in ric]
    bad[0][0] *= 1 + 1e-6
    assert checks.check_ricci_fd("a", want, bad)


def test_ricci_zero_check():
    ric = ricci(metric_gh())
    assert checks.check_ricci_zero("gh", ric) is None
    ric[1][2] = RatFun.var("x", -2)
    assert checks.check_ricci_zero("gh", ric)


def test_general_gh_metric_is_ricci_flat_and_its_check_bites():
    ric = ricci(workloads.gh_affine_metric(0, 0, 3, 2))
    assert checks.check_ricci_zero("gh", ric) is None
    # a potential that is not harmonic breaks the theorem the check uses
    from alhlab.geometry import MetricField, r_chart
    r = RatFun.var("r")
    V = r * r + RatFun.const(1)
    g = [[V if i == j < 3 else RatFun.const(0) for j in range(4)]
         for i in range(4)]
    g[3][3] = 1 / V
    assert checks.check_ricci_zero("non-harmonic", ricci(MetricField(
        r_chart(), g)))


def test_laplacian_fd_check():
    poly = {(2, 1, 0): 3, (1, 0, 3): 5, (3, 1, 1): -2}
    f = workloads._poly_ratfun(poly)
    value = laplacian(metric_gh()).apply(f).evaluate(
        dict(zip(("x", "y1", "y2"), POINT)))
    assert checks.check_laplacian_fd("gh", poly, POINT, value) is None
    assert checks.check_laplacian_fd("gh", poly, POINT,
                                     float(value) * (1 + 1e-6))


def test_root_and_weight_checks():
    assert checks.check_roots("s", [Fraction(0), Fraction(-1)],
                              checks.SCALAR_ROOTS) is None
    assert checks.check_roots("s", [Fraction(0), Fraction(1)],
                              checks.SCALAR_ROOTS)
    task = workloads._cli_indicial(None, "d00-even")
    good = {"roots": [{"root": "0"}, {"root": "2"}], "weights": ["-1", "1"]}
    assert task.check(good) is None
    assert task.check({**good, "weights": ["-1", "2"]})
    assert task.check({**good, "roots": [{"root": "0"}]})


def test_decay_check():
    assert checks.check_decay(0, (1, 2), -1, -math.sqrt(5) * 1.04) is None
    assert checks.check_decay(0, (1, 2), -1, -math.sqrt(5) * 1.06)
    assert checks.check_decay(3, (0, 0), -2, -1.5) is None
    assert checks.check_decay(3, (0, 0), -1, -1.5)


def test_zero_mode_and_d00_and_sigma_checks():
    assert checks.check_second_order([4e-6, 1e-6]) is None
    assert checks.check_second_order([2e-6, 1e-6])
    assert checks.check_second_order([4e-3, 1e-3])
    nodes = np.geomspace(1e-3, 0.5, 200)
    b = (2.0 - 1.0) / (1 / nodes[0] - 1 / nodes[-1])
    exact = 1.0 - b / nodes[-1] + b / nodes
    assert checks.zero_mode_error(nodes, exact, 2.0, 1.0) < 1e-12
    assert checks.zero_mode_error(nodes, exact + nodes * 1e-3, 2.0, 1.0) > 1e-5
    assert checks.check_d00_fit((Fraction(2),), 1e-6, False) is None
    assert checks.check_d00_fit((Fraction(0), Fraction(2)), 1e-6, False)
    assert checks.check_d00_fit((Fraction(2),), 1e-3, False)
    at, off = [0.045, 0.032, 0.022], [0.051, 0.050, 0.050]
    assert checks.check_sigma_min(at, off) is None
    assert checks.check_sigma_min(off, at)


def test_cohomology_checks():
    assert checks.check_cohomology(4, [0, 0, 7, 0, 0], 18, [15, 3]) is None
    assert checks.check_cohomology(4, [0, 0, 8, 0, 0], 18, [15, 3])
    assert checks.check_cohomology(4, [0, 0, 7, 0, 0], 18, [12, 6])


def test_semiflat_closed_forms_match_alhlab_and_reject_corruption():
    for kind in workloads.SEMIFLAT:
        A, B = family_semiflat(kind, 0.35)
        wa, wb = checks.semiflat_closed_form(kind, 0.35)
        assert checks.check_close(kind, A, wa, 1e-12) is None
        assert checks.check_close(kind, B, wb, 1e-12) is None
        assert checks.check_close(kind, A + 1e-9, wa, 1e-12)
        want = checks.symmetrized_closed_form(kind, 0.35)
        for got, ref in zip(symmetrize(A, B), want):
            assert checks.check_close(kind, got, ref, 1e-12) is None


def test_cli_result_checks_reject_corruption():
    task = workloads._cli_triple_q(None)
    good = {"q_standard_all_zero": True, "gauge_residual_epsilon": "1/8",
            "gauge_residual_diagonal": ["1/2"] * 3,
            "gauge_residual_offdiagonal_zero": True}
    assert task.check(good) is None
    assert task.check({**good, "gauge_residual_diagonal": ["1/2", "1/2",
                                                            "1/4"]})
    lift = workloads._cli_lift_check(None, 1)
    assert lift.check({"mismatches": 0, "all_exact": True,
                       "checks": 93}) is None
    assert lift.check({"mismatches": 1, "all_exact": True, "checks": 93})
    deform = workloads._cli_deform(None, "calabi-scaling", [0.5])
    a, b = checks.calabi_scaling_derivatives(0.5)
    res = json.loads(json.dumps({"A_ddot": a.tolist(), "B_dot": b.tolist()}))
    assert deform.check(res) is None
    res["B_dot"][1][1] += 1e-6
    assert deform.check(res)
    modes = workloads._cli_modes(None, 2, (0, 0))
    fit = {"kind": "exponential-rate", "log_power": -2, "coefficient": -1.0}
    assert modes.check({"fit": fit}) is None
    assert modes.check({"fit": {**fit, "coefficient": -0.9}})


def test_exact_model_round_passes_its_checks_and_rejects_corruption():
    warm, tasks = workloads.exact_model(random.Random("exact-model:7"))
    assert len(tasks) == 18
    out = {}
    for task in tasks:
        out[task.name] = task.run()
        assert task.check(out[task.name]) is None, task.name
    check = {task.name: task.check for task in tasks}
    # each corruption swaps in a plausible but wrong alhlab object
    zero, reduced = out["project_modes"]
    assert check["project_modes"]((zero, reduced[::-1]))
    lifts, twisted = out["blowup_lift"]
    radial, f1, f2, circle = lifts["a"]
    assert check["blowup_lift"](({**lifts, "a": [radial, f2, f1, circle]},
                                 twisted))
    d2, star2, star_six, wedges, nonclosed = out["forms"]
    swapped = [row[:] for row in wedges]
    swapped[0][0], swapped[3][3] = wedges[3][3], wedges[0][0]
    assert check["forms"]((d2, star2, star_six, swapped, nonclosed))
    q, pulls, rep_s, rep_m = out["hk"]
    pulls = dict(pulls, y1_twist=pulls["y2_twist"])
    assert check["hk"]((q, pulls, rep_s, rep_m))
    lap_gh, lap_a, identity = out["laplacian"]
    assert check["laplacian"]((lap_a, lap_gh, identity))
    roots, window = out["indicial"]
    assert check["indicial"](({**roots, "even": roots["odd"]}, window))
    assert check["curvature:calabi:5"](out["curvature:calabi:6"])
    assert check["curvature:gh"](out["curvature:a"])


def test_general_gcd_classification():
    x, y = Poly.var("x"), Poly.var("y1")
    assert not spans.is_general_gcd(x * x * y, x)          # monomials
    assert not spans.is_general_gcd(x * (x + 1), y * (y + 1))  # disjoint
    assert spans.is_general_gcd(x * y + 1, x + 2)
    # the common monomial factor x is split off first: y1 + 1 and y1
    assert not spans.is_general_gcd(x * y + x, x * y)


def test_tracer_counts_and_restores():
    import alhlab.geometry as geometry
    import alhlab.ratfun as ratfun
    original = ratfun.poly_gcd
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert geometry.ricci is not ricci  # module global is wrapped
        geometry.curvature(metric_gh())
        recorded = list(tracer.calls)
        tracer.active = False
        geometry.curvature(metric_gh())
        assert tracer.calls == recorded
    finally:
        tracer.uninstall()
    assert ratfun.poly_gcd is original and geometry.ricci is ricci
    totals = tracer.totals()
    assert totals["ratfun.poly_gcd.calls"] > 0
    assert totals["ratfun.poly_gcd.general_calls"] == 0
    assert totals["ratfun.arith.calls"] > 0
    assert len(tracer.spans) == 5 * sum(tracer.calls)
    assert all(v >= 0 for k, v in totals.items() if k.endswith("self_ms"))


@pytest.mark.parametrize("name", ["cli", "exact-model", "exact-general",
                                  "radial"])
def test_workload_inputs_repeat_for_a_seed(name):
    if name == "cli":
        runner = workloads.CliRunner(".", {}, ".", False)
        build = lambda rng: workloads.cli(rng, runner)  # noqa: E731
    else:
        build = getattr(workloads, name.replace("-", "_"))
    first = [t.name for t in build(random.Random(f"{name}:3"))[1]]
    again = [t.name for t in build(random.Random(f"{name}:3"))[1]]
    assert first == again
