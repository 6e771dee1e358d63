"""Command-line dispatch: artifact schemas, formats, exit codes."""

import csv
import io
import json
import os

import numpy as np
import pytest

from alhlab import cli
from alhlab.cli import (
    EXIT_IDENTITY,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    cli_dispatch,
    main,
)
from alhlab.hk import family_calabi_modulus, second_derivative_report


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


def test_usage_errors_exit_one():
    bad = (
        ["bogus"],
        [],
        ["curvature", "--metric", "nope"],
        ["cohomology", "--b", "12"],
        ["modes"],
        ["deform", "--family", "calabi-scaling", "--param", "1,2"],
        ["modes", "solve", "--k", "0", "--m", "0,0,0", "--grid", "100"],
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


def test_negative_point_after_a_space_reaches_the_domain_check():
    code, text = cli_dispatch(["curvature", "--metric", "a", "--at",
                               "-1/4,1/2,1/2,0"])
    assert code == EXIT_USAGE, text
    assert "outside the chart domain" in text


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


def test_numerical_failure_exit_two(tmp_path):
    cfg = tmp_path / "tight.cfg"
    cfg.write_text("# unreachable residual bound\ndiscrete_residual=1e-18\n")
    code, text = cli_dispatch(["--config", str(cfg), "modes", "solve",
                               "--k", "0", "--m", "0,0", "--grid", "100"])
    assert code == EXIT_NUMERIC
    doc = json.loads(text)
    assert doc["kind"] == "numerical-failure"
    assert doc["error"]


def test_identity_failure_exit_three(monkeypatch):
    def broken(args):
        raise ArithmeticError("wedge identity violated")

    monkeypatch.setitem(cli._DISPATCH, "triple-q", broken)
    code, text = cli_dispatch(["triple-q"])
    assert code == EXIT_IDENTITY
    doc = json.loads(text)
    assert doc["kind"] == "exact-identity-failure"
    assert "wedge" in doc["error"]


def test_degree_cap_is_not_an_identity_failure():
    code, text = cli_dispatch(["curvature", "--metric", "calabi:11"])
    assert code == EXIT_NUMERIC
    doc = json.loads(text)
    assert doc["kind"] == "degree-cap-exceeded"
    assert "exceeds cap" in doc["error"]
    results = _run_json(["curvature", "--metric", "calabi:10"])["results"]
    assert results["metric"] == "calabi:10"


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
