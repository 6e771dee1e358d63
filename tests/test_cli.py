"""Command-line dispatch: artifact schemas, formats, exit codes."""

import csv
import io
import json
import os
import runpy
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alhlab import cli, config, families, geometry, hk, operators, ratfun
from alhlab.cli import (
    EXIT_IDENTITY,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    cli_dispatch,
    main,
)
from alhlab.config import ExactIdentityError
from alhlab.hk import (family_calabi_modulus, family_calabi_scaling,
                       second_derivative_report)
from alhlab.ratfun import RatFun


def _run_json(argv):
    code, text = cli_dispatch(argv)
    assert code == EXIT_OK, text
    return json.loads(text)


def test_cohomology_schema_and_values():
    doc = _run_json(["cohomology", "--b", "1"])
    assert set(doc) == {"command", "inputs", "results", "provenance",
                        "warnings"}
    assert doc["command"] == "cohomology"
    assert isinstance(doc["provenance"]["paper_refs"], list)
    results = doc["results"]
    assert results["moduli_total"] == 27
    assert results["moduli_split"] == [24, 3]
    dims = {row["k"]: row["dim"] for row in results["table"]}
    assert dims == {0: 0, 1: 0, 2: 10, 3: 0, 4: 0}
    assert doc["warnings"]  # floor-convention note


def test_indicial_scalar_weights():
    doc = _run_json(["indicial", "--operator", "scalar", "--weights"])
    results = doc["results"]
    assert [r["root"] for r in results["roots"]] == ["-1", "0"]
    assert results["weights"] == ["-2", "-1"]


def test_indicial_parity_block_roots():
    doc = _run_json(["indicial", "--operator", "d00-even"])
    roots = [r["root"] for r in doc["results"]["roots"]]
    assert roots == ["0", "2"]
    doc = _run_json(["indicial", "--operator", "d00-odd"])
    roots = [r["root"] for r in doc["results"]["roots"]]
    assert roots == ["-3/2", "1/2"]


def test_curvature_exact_model_metric():
    doc = _run_json(["curvature", "--metric", "gh", "--exact"])
    assert doc["results"]["ricci"] == "0 (identically)"
    assert doc["results"]["ricci_zero_exact"] is True


def test_curvature_numeric_point():
    doc = _run_json(["curvature", "--metric", "a",
                     "--at", "1/2,0,1/3,0"])
    results = doc["results"]
    assert results["point"] == ["1/2", "0", "1/3", "0"]
    assert results["ricci_zero_exact"] is False
    assert np.isfinite(results["ricci_max_abs_at_point"])
    assert results["ricci_max_abs_at_point"] > 0


def test_modes_solve_expansion_fit():
    doc = _run_json(["modes", "solve", "--k", "0", "--m", "0,0",
                     "--grid", "400", "--fit"])
    fit = doc["results"]["fit"]
    assert fit["kind"] == "power-expansion"
    assert fit["exponents"] == ["-2", "0"]
    assert abs(fit["coefficients"][1] - 1.0) < 1e-3
    assert fit["residual"] < 1e-3
    results = doc["results"]
    assert results["unknowns"] == 401
    assert 0.0 <= results["discrete_residual"] <= 1e-8


def test_modes_solve_rate_branch():
    doc = _run_json(["modes", "solve", "--k", "1", "--m", "0,0",
                     "--grid", "400", "--fit"])
    fit = doc["results"]["fit"]
    assert fit["kind"] == "exponential-rate"
    assert fit["log_power"] == -2
    assert fit["coefficient"] < 0
    assert any("exponential" in w for w in doc["warnings"])


def test_deform_scaling_with_report():
    doc = _run_json(["deform", "--family", "calabi-scaling",
                     "--param", "0.8", "--report-mm"])
    results = doc["results"]
    assert abs(results["A_ddot"][0][0] + 1.28) < 1e-9
    assert abs(results["lambda_ddot"] + 2.56) < 1e-9
    assert results["mm_residual_factor2"] < 1e-9
    assert abs(results["mm_residual_printed"] - 1.92) < 1e-6
    assert doc["warnings"]


def test_deform_semiflat_matrices():
    doc = _run_json(["deform", "--family", "sf-theta", "--param", "0.5"])
    results = doc["results"]
    assert results["A_raw"][1][2] == -0.5
    s = np.sqrt(1.25)
    assert abs(results["A_symmetric"][1][1] - s) < 1e-12
    assert abs(results["rotation"][1][2] - 0.5 / s) < 1e-12


def test_deform_cross_check_failure_is_not_identity_failure(monkeypatch):
    # a closed form whose Fraction samples (the Richardson oracle) carry
    # an extra t^2/1000 that its jets do not, so the derivatives disagree:
    # a float cross-check, not a broken exact identity
    closed_form = families._calabi_modulus

    def off_on_samples(alpha, beta, t):
        A, B, lam = closed_form(alpha, beta, t)
        if isinstance(t, Fraction):
            A[1][1] = A[1][1] + t * t / 1000
        return A, B, lam

    monkeypatch.setattr(families, "_calabi_modulus", off_on_samples)
    code, text = cli_dispatch(["deform", "--family", "calabi-modulus",
                               "--param", "0.7,0.4"])
    assert code == EXIT_NUMERIC, text
    doc = json.loads(text)
    assert doc["kind"] == "numerical-failure"
    assert "disagree" in doc["error"]


def test_deform_modulus_near_the_old_rounding_floor():
    # the step-1e-3 second differences of float samples missed the 1e-9
    # gate here by their rounding floor; Fraction samples pass it
    doc = _run_json(["deform", "--family", "calabi-modulus",
                     "--param", "0.3,0.05"])
    B_dot = doc["results"]["B_dot"]
    assert abs(B_dot[1][1] - 0.3) < 1e-9
    assert abs(B_dot[1][2] - 0.05) < 1e-9


@pytest.mark.parametrize("alpha", ["1e-155", "1e-170", "5e-324"])
def test_deform_modulus_subnormal_radicand_is_exact(alpha):
    # no failure: W(0) = 4 alpha^2 is subnormal or zero as a float, but
    # the closed form runs on Fractions, so B_dot comes out exact
    B_dot = _run_json(["deform", "--family", "calabi-modulus",
                       "--param", f"{alpha},0.5"])["results"]["B_dot"]
    al = float(alpha)
    assert B_dot == [[0.0, 0.0, 0.0], [0.0, al, 0.5], [0.0, 0.5, -al]]


def test_deform_modulus_tiny_normal_radicand_is_accurate():
    B_dot = _run_json(["deform", "--family", "calabi-modulus",
                       "--param", "1e-150,0.5"])["results"]["B_dot"]
    assert abs(B_dot[1][1] - 1e-150) <= 1e-12 * 1e-150


@pytest.mark.parametrize("alpha", ["30", "500", "-1000"])
def test_deform_scaling_large_alpha(alpha):
    results = _run_json(["deform", "--family", "calabi-scaling",
                         "--param", alpha])["results"]
    assert results["lambda_ddot"] == -4.0 * float(alpha) ** 2


@pytest.mark.parametrize("alpha", ["1e10", "1e12"])
def test_deform_scaling_beyond_the_old_step_limit(alpha):
    # with the step 1e-3/|alpha| the Richardson B_dot kept a truncation
    # error of sqrt(3) |alpha| 1e-18 / 16, over the 1e-9 gate here
    results = _run_json(["deform", "--family", "calabi-scaling",
                         "--param", alpha])["results"]
    al = float(alpha)
    assert results["lambda_ddot"] == -4.0 * al ** 2
    assert results["A_ddot"][0][0] == -2.0 * al ** 2
    assert abs(results["B_dot"][1][1] - np.sqrt(3) * al) <= 1e-15 * al


@pytest.mark.parametrize("param", ["1e5,1", "1e5,0", "0,1e5", "1e6,0",
                                   "1e8,0", "1e22,0", "1e150,1", "1e-3,1e3"])
def test_deform_modulus_beyond_the_old_step_limit(param):
    # with the step 1e-3/max(1, |alpha|, |beta|) the Richardson cross-check
    # kept a constant relative truncation error, which passed the absolute
    # 1e-9 gate from max(|alpha|, |beta|) ~ 1e5 on; the jets are exact
    results = _run_json(["deform", "--family", "calabi-modulus",
                         "--param", param])["results"]
    al, be = (Fraction(float(v)) for v in param.split(","))
    s = al * al + be * be
    assert results["lambda_ddot"] == float(-4 * s / 3)
    assert results["A_ddot"][0][0] == float(-2 * s / 3)
    assert results["A_ddot"][1][1] == results["A_ddot"][2][2] == float(s / 3)
    assert results["B_dot"][1] == [0.0, float(al), float(be)]


def test_wrong_semiflat_matrix_is_identity_failure(monkeypatch):
    printed = hk._SEMIFLAT_PRINTED["theta_twist"]

    def wrong(c):
        A, B = printed(c)
        B[1][2] = -c  # the sign of the anti-self-dual part flipped
        return A, B

    monkeypatch.setitem(hk._SEMIFLAT_PRINTED, "theta_twist", wrong)
    code, text = cli_dispatch(["deform", "--family", "sf-theta",
                               "--param", "0.5"])
    assert code == EXIT_IDENTITY
    doc = json.loads(text)
    assert doc["kind"] == "exact-identity-failure"
    assert "pullback" in doc["error"]


def test_json_round_trip_bit_for_bit():
    doc = _run_json(["deform", "--family", "calabi-modulus",
                     "--param", "0.7,0.4"])
    rep = second_derivative_report(family_calabi_modulus(0.7, 0.4))
    assert doc["results"]["A_ddot"][1][1] == rep["A_ddot"][1][1]
    assert doc["results"]["lambda_ddot"] == rep["lambda_ddot"]


def test_csv_flattening():
    code, text = cli_dispatch(["--format", "csv", "cohomology", "--b", "9"])
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["key", "value"]
    table = {key: value for key, value in rows[1:]}
    assert table["results.moduli_total"] == "3"
    assert table["results.table[2].dim"] == "2"
    assert len(table) == len(rows) - 1  # keys unique


def test_output_file_written_atomically(tmp_path):
    target = tmp_path / "artifact.json"
    code, text = cli_dispatch(["--output", str(target),
                               "cohomology", "--b", "4"])
    assert code == EXIT_OK
    assert target.read_text() == text
    assert os.listdir(tmp_path) == ["artifact.json"]  # no temp residue


@pytest.mark.parametrize("directory", ["missing", "is-a-directory"])
def test_unwritable_output_is_usage_error(tmp_path, directory):
    (tmp_path / "is-a-directory").mkdir()
    target = tmp_path / directory
    if directory == "missing":
        target = target / "x.json"
    code, text = cli_dispatch(["--output", str(target),
                               "cohomology", "--b", "3"])
    assert code == EXIT_USAGE
    assert text.startswith("usage error:")
    assert "Traceback" not in text
    assert sorted(os.listdir(tmp_path)) == ["is-a-directory"]
    assert os.listdir(tmp_path / "is-a-directory") == []


def test_usage_errors_exit_one():
    bad = (
        ["bogus"],
        [],
        ["curvature", "--metric", "nope"],
        ["cohomology", "--b", "12"],
        ["modes"],
        ["deform", "--family", "calabi-scaling", "--param", "1,2"],
        ["modes", "solve", "--k", "0", "--m", "0,0,0", "--grid", "100"],
        ["curvature", "--metric", "gh", "--exact", "-1"],
    )
    for argv in bad:
        code, text = cli_dispatch(argv)
        assert code == EXIT_USAGE, argv
        assert text.startswith("usage error:"), argv


@pytest.mark.parametrize("param", ["nan", "inf", "-inf", "0.5,nan"])
def test_non_finite_param_is_usage_error(param, capsys):
    family = "calabi-modulus" if "," in param else "calabi-scaling"
    assert main(["deform", "--family", family, f"--param={param}"]) \
        == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("cutoff", ["nan", "inf", "-inf"])
def test_non_finite_cutoff_is_usage_error(cutoff, capsys):
    assert main(["modes", "solve", "--k", "1", "--m", "0,0", "--grid",
                 "200", "--fit", f"--cutoff={cutoff}"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:")


@pytest.mark.parametrize("metric,point", [
    ("a", "0,0,0,0"),           # the singular radial end
    ("a", "-1/4,1/2,1/2,0"),
    ("a", "3/4,1/2,1/2,0"),
    ("a", "1/2,2,1/3,0"),
    ("gh", "1/4,1/2,-1/3,0"),
    ("calabi:3", "0,1/2,1/2,0"),
])
def test_point_outside_chart_domain_is_usage_error(metric, point):
    code, text = cli_dispatch(["curvature", "--metric", metric,
                               f"--at={point}"])
    assert code == EXIT_USAGE, text
    assert "outside the chart domain" in text


@pytest.mark.parametrize("point", ["1/0,0,0,0", "abc,0,0,0", "1/2,0,x,0"])
def test_unparseable_point_is_usage_error(point):
    code, text = cli_dispatch(["curvature", "--metric", "gh",
                               f"--at={point}"])
    assert code == EXIT_USAGE, text
    assert "rational" in text


_TIMED_DISPATCH = """\
import json, sys, time
from alhlab.cli import cli_dispatch
start = time.perf_counter()
code, text = cli_dispatch(sys.argv[1:])
print(json.dumps([code, text, time.perf_counter() - start]))
"""


@pytest.mark.parametrize("point", ["1/3,1/2,1/5,1e99999999",
                                   "1e-99999999,1/2,1/5,0",
                                   "1/3,1/2,1/5,1e5000"])
def test_point_past_the_digit_limit_is_refused_at_once(point):
    # Fraction would build 10^99999999 before any check; a hang ends the
    # child at the timeout instead of stalling the suite
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _TIMED_DISPATCH,
                           "curvature", "--metric", "gh", f"--at={point}"],
                          capture_output=True, text=True, timeout=60,
                          env=env, check=True)
    code, text, seconds = json.loads(proc.stdout)
    assert code == EXIT_USAGE, text
    assert text.startswith("usage error: --at:") and "4300 digits" in text
    assert seconds < 1


@pytest.mark.parametrize("coordinate,value", [
    ("0e99999999", "0"), ("-0.000e-99999999", "0"),
    ("1.5e-4299", "3/2" + "0" * 4299), ("12.5e4298", "125" + "0" * 4297)])
def test_point_at_the_digit_limit_is_read_exactly(coordinate, value):
    # a zero mantissa is zero whatever its exponent; the denominator
    # 2·10^4299 and the numerator 125·10^4296 have 4,300 digits each
    doc = _run_json(["curvature", "--metric", "gh",
                     f"--at=1/3,1/2,1/5,{coordinate}"])
    assert doc["results"]["point"][3] == value


def test_point_under_the_digit_limit_is_unchanged():
    big = "1" + "0" * 4000
    code, text = cli_dispatch(["curvature", "--metric", "gh",
                               "--at", "1/3,1/2,1/5,1e4000"])
    assert code == EXIT_OK, text
    assert text == json.dumps({
        "command": "curvature",
        "inputs": {"at": "1/3,1/2,1/5,1e4000", "exact": False,
                   "format": "json", "metric": "gh", "seed": 0},
        "provenance": {"paper_refs": ["gibbons-hawking-model-metric",
                                      "curvature-pipeline"]},
        "results": {"metric": "gh", "point": ["1/3", "1/2", "1/5", big],
                    "ricci": "0 (identically)",
                    "ricci_max_abs_at_point": 0.0,
                    "ricci_zero_exact": True},
        "warnings": []}, indent=2, sort_keys=True) + "\n"


def test_negative_point_after_a_space_reaches_the_domain_check():
    code, text = cli_dispatch(["curvature", "--metric", "a", "--at",
                               "-1/4,1/2,1/2,0"])
    assert code == EXIT_USAGE, text
    assert "outside the chart domain" in text


@pytest.mark.parametrize("argv,expect", [
    (["modes", "solve", "--k", "1", "--m", "-1,0", "--grid", "200"],
     {"k": 1, "m": [-1, 0]}),
    (["modes", "solve", "--k", "-1", "--m", "-2,1", "--grid", "200"],
     {"k": -1, "m": [-2, 1]}),
    (["deform", "--family", "calabi-modulus", "--param", "-0.3,0.9"],
     {"alpha": -0.3, "beta": 0.9}),
])
def test_negative_option_value_after_a_space_is_accepted(argv, expect):
    results = _run_json(argv)["results"]
    assert {key: results[key] for key in expect} == expect


def test_point_on_closed_box_edges_accepted():
    doc = _run_json(["curvature", "--metric", "a", "--at", "1/2,1,0,7"])
    assert np.isfinite(doc["results"]["ricci_max_abs_at_point"])


def test_unknown_tolerance_override_is_usage_error(tmp_path):
    cfg = tmp_path / "over.cfg"
    cfg.write_text("not_a_field=1\n")
    code, text = cli_dispatch(["--config", str(cfg), "modes", "solve",
                               "--k", "0", "--m", "0,0", "--grid", "100"])
    assert code == EXIT_USAGE
    assert "override" in text


@pytest.mark.parametrize("line", ["rate_fit_rel=0.02", "fit_nodes=20"])
def test_removed_tolerance_keys_are_unknown(tmp_path, line):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(line + "\n")
    code, text = cli_dispatch(["--config", str(cfg), "modes", "solve",
                               "--k", "0", "--m", "0,0", "--grid", "100"])
    assert code == EXIT_USAGE, text
    assert text.startswith("usage error: unknown tolerance override")


@pytest.mark.parametrize("line", [
    "discrete_residual=abc",
    "discrete_residual=nan",   # would switch the residual gate off
    "discrete_residual=inf",
    "amplitude_lo=1/100",      # a fraction, not a float literal
])
def test_ill_typed_tolerance_override_is_usage_error(tmp_path, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, text = cli_dispatch(["--config", str(cfg), "modes", "solve",
                               "--k", "0", "--m", "0,0", "--grid", "100"])
    assert code == EXIT_USAGE, text
    assert text.startswith("usage error: tolerance override")


@pytest.mark.parametrize("text, key", [
    ("discrete_residual=-1", "discrete_residual"),
    ("discrete_residual=1e-400", "discrete_residual"),  # parses to 0.0
    ("slope_flag=0", "slope_flag"),
    ("amplitude_lo=1\namplitude_hi=0.5", "amplitude_lo"),
    ("amplitude_hi=1e-40", "amplitude_lo"),  # the default lower edge
])
def test_tolerance_override_that_can_only_fail_later_is_usage_error(
        tmp_path, text, key):
    # each exits 2 at the solve or the fit unless refused as read
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text + "\n")
    code, out = cli_dispatch(["--config", str(cfg), "modes", "solve",
                              "--k", "1", "--m", "0,0", "--grid", "400",
                              "--fit"])
    assert code == EXIT_USAGE, out
    assert out.startswith(f"usage error: tolerance override {key}=")


def test_tolerances_are_an_immutable_named_tuple():
    assert config.Tolerances._fields == (
        "discrete_residual", "slope_flag", "amplitude_lo", "amplitude_hi")
    tight = config.DEFAULT._replace(discrete_residual=1e-12)
    assert tight.discrete_residual == 1e-12
    assert config.DEFAULT.discrete_residual == 1e-8
    with pytest.raises(AttributeError):
        config.DEFAULT.slope_flag = 1.0


def test_numerical_failure_exit_two(tmp_path):
    cfg = tmp_path / "tight.cfg"
    cfg.write_text("# unreachable residual bound\ndiscrete_residual=1e-18\n")
    code, text = cli_dispatch(["--config", str(cfg), "modes", "solve",
                               "--k", "0", "--m", "0,0", "--grid", "100"])
    assert code == EXIT_NUMERIC
    doc = json.loads(text)
    assert doc["kind"] == "numerical-failure"
    assert doc["error"]


def test_failed_rate_fit_exit_two():
    # a valid command whose decay is too steep for the default grid:
    # the amplitude window holds too few nodes to fit a rate
    code, text = cli_dispatch(["modes", "solve", "--k", "10000",
                               "--m", "0,0", "--fit"])
    assert code == EXIT_NUMERIC, text
    doc = json.loads(text)
    assert doc["kind"] == "numerical-failure"
    assert "too few nodes" in doc["error"]


def test_identity_failure_exit_three(monkeypatch):
    def broken(args):
        raise ExactIdentityError("wedge identity violated")

    monkeypatch.setattr(cli, "_cmd_triple_q", broken)
    code, text = cli_dispatch(["triple-q"])
    assert code == EXIT_IDENTITY
    doc = json.loads(text)
    assert doc["kind"] == "exact-identity-failure"
    assert "wedge" in doc["error"]
    assert operators.ExactIdentityError is ExactIdentityError


def test_other_arithmetic_error_is_numerical(monkeypatch):
    def broken(args):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(cli, "_cmd_triple_q", broken)
    code, text = cli_dispatch(["triple-q"])
    assert code == EXIT_NUMERIC
    assert json.loads(text)["kind"] == "numerical-failure"


def test_numpy_linalg_error_is_numerical(monkeypatch):
    # LinAlgError subclasses ValueError, which alone would be exit 1
    def broken(args):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(cli, "_cmd_triple_q", broken)
    code, text = cli_dispatch(["triple-q"])
    assert code == EXIT_NUMERIC
    assert json.loads(text)["kind"] == "numerical-failure"


def test_clean_turns_numpy_values_into_python_values():
    cleaned = cli._clean({
        "f64": np.float64(0.1), "i64": np.int64(-3), "bool": np.bool_(True),
        "matrix": np.array([[1.0, 0.5], [-2.0, 0.25]]),
        "float": 0.1, "int": 7, "flag": False, "fraction": Fraction(2, 3),
        "ratfun": RatFun.var("x") / 2, 3: (np.float64(1.5), [np.int64(2)]),
    })
    assert cleaned == {
        "f64": 0.1, "i64": -3, "bool": True,
        "matrix": [[1.0, 0.5], [-2.0, 0.25]],
        "float": 0.1, "int": 7, "flag": False, "fraction": "2/3",
        "ratfun": "1/2*x", "3": [1.5, [2]],
    }
    assert [type(cleaned[k]) for k in ("f64", "i64", "bool", "float",
                                       "int", "flag")] \
        == [float, int, bool, float, int, bool]
    assert all(type(v) is float for row in cleaned["matrix"] for v in row)
    json.dumps(cleaned)


def test_deform_report_document_is_the_plain_rendering():
    """The document of a family report, byte for byte, as the report's
    nested lists and floats render."""
    code, text = cli_dispatch(["deform", "--family", "calabi-scaling",
                               "--param", "0.8", "--report-mm"])
    assert code == EXIT_OK, text
    report = second_derivative_report(family_calabi_scaling(0.8))
    results = {"family": "calabi-scaling", "alpha": 0.8}
    for key in ("A_ddot", "B_dot", "lambda_ddot", "mm_residual_printed",
                "mm_residual_factor2"):
        results[key] = report[key]
    doc = json.loads(text)
    doc["results"] = results
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == text


@pytest.mark.parametrize("family", ["sf-y1", "sf-y2"])
def test_semiflat_overflow_is_numerical_failure(family):
    # c^2 at c = 1e200 overflows float(Fraction) in the cross-check
    code, text = cli_dispatch(["deform", "--family", family,
                               "--param", "1e200"])
    assert code == EXIT_NUMERIC, text
    doc = json.loads(text)
    assert doc["kind"] == "numerical-failure"
    assert doc["command"][-1] == "1e200"


def test_degree_cap_is_not_an_identity_failure():
    # past the packed-field degree limit (2^15 - 1) exact arithmetic
    # refuses with exit 2; calabi:16 is far below it
    code, text = cli_dispatch(["curvature", "--metric", "calabi:8300",
                               "--exact"])
    assert code == EXIT_NUMERIC
    doc = json.loads(text)
    assert doc["kind"] == "degree-cap-exceeded"
    assert "exceeds the packed field maximum 32767" in doc["error"]
    results = _run_json(["curvature", "--metric", "calabi:16"])["results"]
    assert results["metric"] == "calabi:16"


@pytest.mark.parametrize("exact,last", [([], 8191), (["--exact"], 8191)],
                         ids=["ricci", "exact"])
def test_degree_cap_boundary_lies_at_the_packed_field_limit(exact, last):
    # the Ricci tensor of calabi:N reaches degree 4N + 2, and the exact
    # scalar sums each Ric(E_a, E_a) before dividing by eta_a, so it
    # stays below that: the last N with 4N + 2 <= 2^15 - 1 runs and the
    # next one is refused
    results = _run_json(["curvature", "--metric", f"calabi:{last}"] + exact)
    assert results["results"]["metric"] == f"calabi:{last}"
    code, text = cli_dispatch(["curvature", "--metric",
                               f"calabi:{last + 1}"] + exact)
    assert code == EXIT_NUMERIC, text
    assert json.loads(text)["kind"] == "degree-cap-exceeded"


def test_exact_scalar_at_the_degree_limit():
    # calabi:8191 has the largest Ricci degree that fits, 4N + 2 = 32766;
    # its scalar has degree 2N + 2, and this value was also obtained
    # separately, by contracting the frame connection
    results = _run_json(["curvature", "--metric", "calabi:8191",
                         "--exact"])["results"]
    assert results["scalar"] == "603635757/134184962*x^16384"


@pytest.mark.parametrize("metric", [
    "calabi:7_0", "calabi:+7", "calabi:-7", "calabi:007", "calabi:0",
    "calabi:\u0663", "calabi:abc", "calabi:", "calabi: 7", "calabi:7.0"])
def test_malformed_calabi_order_is_usage_error(metric):
    code, text = cli_dispatch(["curvature", "--metric", metric])
    assert code == EXIT_USAGE, text
    assert text.startswith(f"usage error: metric {metric!r}: calabi:N takes")
    assert "invalid literal" not in text


def test_calabi_order_past_the_int_digit_limit_is_a_degree_refusal():
    # 5,000 digits: int() would refuse the string, and the degree 2N + 4
    # is far past the packed field limit
    metric = "calabi:" + "9" * 5000
    code, text = cli_dispatch(["curvature", "--metric", metric])
    assert code == EXIT_NUMERIC, text
    doc = json.loads(text)
    assert doc["kind"] == "degree-cap-exceeded"
    assert doc["error"].startswith("metric calabi:N with a 5000-digit N")
    assert "Exceeds the limit" not in text
    # the CLI raises it from config, ratfun re-exports the same class
    assert ratfun.DegreeOverflowError is config.DegreeOverflowError


def test_curvature_exact_never_builds_the_riemann_tensor(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("riemann() called")

    monkeypatch.setattr(geometry, "riemann", refuse)
    run = "curvature --metric calabi:5 --exact"
    golden = (_ROOT / "tests" / "golden" / "exact_outputs.txt").read_text()
    section = golden.split(f"## alhlab {run} (exit 0)\n", 1)[1]
    code, text = cli_dispatch(run.split())
    assert code == EXIT_OK, text
    assert section.startswith(text)


@pytest.mark.parametrize("n", [*range(11, 17), 100])
def test_curvature_exact_scalar_is_the_ricci_contraction(n):
    g = geometry.metric_calabi(n)
    ric, ginv = geometry.ricci(g), g.inverse()
    scalar = RatFun.const(0)
    for j in range(4):
        for k in range(4):
            scalar = scalar + ginv[j][k] * ric[j][k]
    doc = _run_json(["curvature", "--metric", f"calabi:{n}", "--exact"])
    assert doc["results"]["scalar"] == str(scalar)


def test_lift_check_reports_all_exact():
    doc = _run_json(["lift-check"])
    results = doc["results"]
    assert results["all_exact"] is True
    assert results["mismatches"] == 0
    assert results["checks"] == 113


def test_triple_q_pinned_values():
    doc = _run_json(["triple-q"])
    results = doc["results"]
    assert results["q_standard_all_zero"] is True
    assert results["gauge_residual_diagonal"] == ["1/2", "1/2", "1/2"]
    assert results["gauge_residual_offdiagonal_zero"] is True


def test_seeded_determinism():
    _, first = cli_dispatch(["--seed", "5", "lift-check"])
    _, second = cli_dispatch(["--seed", "5", "lift-check"])
    assert first == second
    code, other = cli_dispatch(["--seed", "6", "lift-check"])
    assert code == EXIT_OK
    assert json.loads(other)["results"]["all_exact"] is True


def test_main_streams_and_exit_codes(capsys):
    assert main(["cohomology", "--b", "2"]) == EXIT_OK
    captured = capsys.readouterr()
    assert json.loads(captured.out)["results"]["moduli_total"] == 24
    assert captured.err == ""
    assert main(["bogus"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:")


@pytest.mark.parametrize("argv", [
    ["--help"], ["-h"], ["modes", "-h"], ["modes", "solve", "--help"],
    ["indicial", "--operator", "scalar", "-h"], ["deform", "--help"],
])
def test_help_is_exit_zero_with_the_text(argv, capsys):
    code, text = cli_dispatch(argv)
    assert code == EXIT_OK
    assert text.startswith("usage: alhlab")
    assert capsys.readouterr() == ("", "")
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == text
    assert captured.err == ""


# A subcommand path, then options with values and bare flags, all from a
# fixed vocabulary that holds bad values too; argv is cut at eight tokens.
# Grid sizes stay at or below 200 so that each draw runs in milliseconds.
_FUZZ_HEADS = (
    [], ["bogus"], ["curvature"], ["indicial"], ["modes"], ["modes", "solve"],
    ["deform"], ["cohomology"], ["lift-check"], ["triple-q"],
    ["--format", "csv"], ["--seed", "3"], ["--config", "missing.cfg"],
    ["deform", "--family", "calabi-modulus"], ["deform", "--family", "sf-y1"],
    ["modes", "solve", "--k", "0", "--m", "0,0"],
    *(["--config", name, "modes", "solve", "--k", "1", "--m", "0,0"]
      for name in ("negative.cfg", "underflow.cfg", "window.cfg")),
)
# --config files the fuzz names, written once into a temporary directory;
# each holds values that only a later solve or fit would refuse
_FUZZ_CONFIGS = {
    "negative.cfg": "discrete_residual=-1\n",
    "underflow.cfg": "discrete_residual=1e-400\n",
    "window.cfg": "amplitude_lo=1\namplitude_hi=0.5\n",
}
_FUZZ_VALUES = {
    "--metric": ("gh", "a", "model", "calabi:2", "calabi:x"),
    "--at": ("1/2,0,0,0", "-1/4,1/2,1/2,0", "0,0,0,0", "1/0,0,0,0"),
    "--operator": ("scalar", "d00-even", "d00-odd", "x"),
    "--k": ("0", "1", "-3", "x"),
    "--m": ("0,0", "1,0", "2,1", "0,0,0", "-1,0"),
    "--grid": ("8", "50", "200", "0", "1000000000"),
    "--cutoff": ("-3.5", "-1", "nan", "x"),
    "--family": ("calabi-scaling", "calabi-modulus", "sf-theta", "sf-y1",
                 "sf-y2", "x"),
    "--param": ("0.5", "3", "0.3,0.05", "0,0.3", "inf", "1e200", "x",
                "-0.3,0.9"),
    "--b": ("1", "12", "x"),
    "--config": ("missing.cfg", *_FUZZ_CONFIGS),
}
_FUZZ_FLAGS = ("--exact", "--weights", "--fit", "--report-mm", "--format",
               "solve", "-h", "--help", "--", "x")
_FUZZ_WORDS = st.one_of(
    st.sampled_from(_FUZZ_FLAGS).map(lambda flag: [flag]),
    st.sampled_from(sorted(_FUZZ_VALUES)).flatmap(
        lambda opt: st.sampled_from(_FUZZ_VALUES[opt]).map(
            lambda value: [opt, value])))


@pytest.fixture(scope="module")
def fuzz_configs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz-configs")
    for name, text in _FUZZ_CONFIGS.items():
        (directory / name).write_text(text)
    return directory


@settings(max_examples=300, derandomize=True, deadline=None,
          database=None)
@given(st.sampled_from(_FUZZ_HEADS), st.lists(_FUZZ_WORDS, max_size=4))
def test_fuzzed_argv_ends_in_an_exit_code_and_a_document(fuzz_configs, head,
                                                         words):
    argv = [str(fuzz_configs / tok) if tok in _FUZZ_CONFIGS else tok
            for tok in (head + [tok for word in words for tok in word])[:8]]
    code, text = cli_dispatch(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_NUMERIC, EXIT_IDENTITY)
    if code == EXIT_USAGE:
        assert text.startswith("usage error:")
    if code in (EXIT_NUMERIC, EXIT_IDENTITY):
        doc = json.loads(text)
        assert doc["command"] == argv and doc["kind"] and doc["error"]


_ROOT = Path(__file__).resolve().parents[1]

# Import the CLI in a fresh interpreter and report, for every site the
# traced benchmark wraps, whether it resolves, together with the numpy,
# scipy and numpy.polynomial modules loaded.
_IMPORT_PROBE = """
import json, sys
import alhlab.cli
missing = []
for mod, attr in json.loads(sys.argv[1]):
    obj = sys.modules.get(mod)
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    if not callable(obj):
        missing.append([mod, attr])
numpy = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
polynomial = sorted(m for m in sys.modules
                    if m.startswith("numpy.polynomial"))
print(json.dumps({"missing": missing, "numpy": numpy, "scipy": scipy,
                  "polynomial": polynomial}))
"""


def test_cli_import_loads_no_scipy_and_every_traced_module():
    spans = runpy.run_path(str(_ROOT / "perfbench" / "spans.py"))["SPANS"]
    sites = [site for group in spans.values() for site in group]
    assert ("alhlab.modes", "spsolve") in sites
    assert ("alhlab.modes", "svdvals") in sites
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE,
                          json.dumps(sites)], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    report = json.loads(out.stdout)
    assert report["numpy"] == []
    assert report["scipy"] == []
    assert report["polynomial"] == []
    assert report["missing"] == []


# Run one CLI call in a fresh interpreter; the last stdout line reports
# its exit code and the numpy modules loaded by then.
_CALL_PROBE = """
import json, sys
from alhlab.cli import main
code = main(sys.argv[1:])
numpy = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
print(json.dumps({"code": code, "numpy": numpy}))
"""

# the exact calls of the benchmark's cli workload, in its argument shapes
_EXACT_CALLS = (
    "curvature --metric gh",
    "curvature --metric a --at 1/3,2/5,1/2,0",
    "curvature --metric calabi:7 --at 2/7,1/3,3/4,0",
    "--output {out} curvature --metric model --at 1/4,1/5,1/3,0",
    "indicial --operator scalar --weights",
    "indicial --operator d00-even --weights",
    "indicial --operator d00-odd --weights",
    "cohomology --b 3",
    "--format csv cohomology --b 3",
    "--seed 5 lift-check",
    "triple-q",
)

# the deformation calls of the same workload: floats on plain Python
_DEFORM_CALLS = (
    "deform --family calabi-scaling --param 0.35",
    "deform --family calabi-modulus --param 0.7,0.4",
    "deform --family sf-theta --param 0.45",
    "deform --family sf-y1 --param 0.95",
    "deform --family sf-y2 --param 0.05",
)


def _probe_call(argv, probe=_CALL_PROBE):
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", probe, *argv],
                         env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("call", _EXACT_CALLS + _DEFORM_CALLS)
def test_exact_calls_never_load_numpy(call, tmp_path):
    argv = call.format(out=tmp_path / "out.json").split()
    assert _probe_call(argv) == {"code": EXIT_OK, "numpy": []}


def test_numeric_calls_load_numpy():
    # the probe sees numpy once a float computation has loaded it
    report = _probe_call("modes solve --k 1 --m 0,0 --grid 200".split())
    assert report["code"] == EXIT_OK and "numpy" in report["numpy"]


# Run one CLI call in a fresh interpreter; the last stdout line reports
# its exit code and the alhlab modules executed by then.  ``import
# alhlab.cli`` registers the package modules lazily: one still of the
# lazy subclass of ModuleType has never run, and ``type`` does not load it.
_EXECUTED_PROBE = """
import json, sys, types
from alhlab.cli import main
code = main(sys.argv[1:])
executed = sorted(m for m, mod in list(sys.modules.items())
                  if m.split(".")[0] == "alhlab"
                  and type(mod) is types.ModuleType)
print(json.dumps({"code": code, "executed": executed}))
"""

# subcommand -> the modules none of its calls may execute
_UNREACHED = {
    "curvature": {"hk", "forms", "linalg", "operators", "indicial",
                  "modes", "cohomology"},
    "indicial": {"hk", "modes"},
    "lift-check": {"hk", "modes"},
    "deform": {"operators", "indicial", "modes", "cohomology"},
}


@pytest.mark.parametrize("call", [
    call for call in _EXACT_CALLS + _DEFORM_CALLS
    if set(call.split()) & set(_UNREACHED)])
def test_each_call_executes_only_the_modules_it_reaches(call, tmp_path):
    argv = call.format(out=tmp_path / "out.json").split()
    report = _probe_call(argv, _EXECUTED_PROBE)
    assert report["code"] == EXIT_OK
    executed = set(report["executed"])
    assert {"alhlab", "alhlab.cli", "alhlab.config"} <= executed
    command = next(word for word in argv if word in _UNREACHED)
    assert not executed & {f"alhlab.{name}" for name in _UNREACHED[command]}


@pytest.mark.parametrize("call", ["cohomology --b 3",
                                  "--format csv cohomology --b 3"])
def test_cohomology_executes_no_other_module(call):
    assert _probe_call(call.split(), _EXECUTED_PROBE) == {
        "code": EXIT_OK, "executed": ["alhlab", "alhlab.cli",
                                      "alhlab.cohomology", "alhlab.config"]}


@pytest.mark.parametrize("call, more", [
    ("deform --family calabi-scaling --param 0.35", []),
    ("deform --family calabi-modulus --param 0.7,0.4", ["alhlab.ratfun"]),
])
def test_calabi_families_execute_only_their_closed_forms(call, more):
    # the modulus family expands its radicand in ratfun; neither runs hk
    assert _probe_call(call.split(), _EXECUTED_PROBE) == {
        "code": EXIT_OK, "executed": sorted([
            "alhlab", "alhlab.cli", "alhlab.config", "alhlab.families",
            *more])}


# Run one CLI call in a fresh interpreter; the last stdout line reports
# its exit code and whether ``dataclasses`` was imported, which brings
# ``inspect`` and with it ``ast``, ``dis`` and ``tokenize``.
_DATACLASSES_PROBE = """
import json, sys
from alhlab.cli import main
code = main(sys.argv[1:])
print(json.dumps({"code": code, "dataclasses": "dataclasses" in sys.modules}))
"""


@pytest.mark.parametrize("call", _EXACT_CALLS + _DEFORM_CALLS)
def test_exact_calls_never_import_dataclasses(call, tmp_path):
    argv = call.format(out=tmp_path / "out.json").split()
    assert _probe_call(argv, _DATACLASSES_PROBE) == {"code": EXIT_OK,
                                                     "dataclasses": False}


def test_a_module_imported_after_the_cli_is_the_registered_one():
    # geometry imported in full after the CLI registered it lazily: one
    # module object, in sys.modules, on the package and in the CLI
    probe = ("import json, sys, types\n"
             "import alhlab.cli\n"
             "registered = sys.modules['alhlab.geometry']\n"
             "lazy = type(registered) is not types.ModuleType\n"
             "from alhlab.geometry import ricci\n"
             "import alhlab.geometry\n"
             "print(json.dumps([lazy, alhlab.geometry is registered,\n"
             "                  alhlab.cli.geometry is registered,\n"
             "                  sys.modules['alhlab.geometry'] is registered,\n"
             "                  ricci is registered.ricci]))\n")
    assert _probe_call([], probe) == [True] * 5
