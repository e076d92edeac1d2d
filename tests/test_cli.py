"""Exit codes, JSON envelopes, and file outputs of the command line tool."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import logriesz
from logriesz import ProblemParams, Side, UClass, classify, convolution
from logriesz.cli import main, parse_number, parse_profile, parse_radii, parse_window
from logriesz.errors import LabError, ParameterError, QuadratureFailure


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    return code, json.loads(out), err


class TestParsers:
    def test_rational_and_float_literals(self):
        assert parse_number("2.5") == 2.5
        assert math.isclose(parse_number("7/6"), 7.0 / 6.0, rel_tol=1e-15)
        assert parse_number(" 1e3 ") == 1000.0
        with pytest.raises(ParameterError):
            parse_number("seven")
        with pytest.raises(ParameterError):
            parse_number("1/0")

    def test_radii_grid(self):
        radii = parse_radii("2:1000:3")
        assert np.allclose(radii, np.geomspace(2.0, 1000.0, 3))
        for bad in ("5:4:3", "0:10:3", "1:10", "1:10:1", "1:inf:3", "nan:10:3", "1:nan:3", "inf:inf:3",
                    "1:10:x"):
            with pytest.raises(ParameterError):
                parse_radii(bad)

    def test_window(self):
        assert parse_window("1e3:1e7") == (1e3, 1e7)
        with pytest.raises(ParameterError):
            parse_window("1e7:1e3")
        for bad in ("1:inf", "nan:10", "1:nan", "inf:inf", "0:10"):
            with pytest.raises(ParameterError):
                parse_window(bad)

    def test_window_without_a_colon(self):
        with pytest.raises(ParameterError, match="--window expects start:stop"):
            parse_window("1")

    def test_profiles(self):
        ball = parse_profile("ball:2", 3)
        assert ball.support_radius == 2.0
        power = parse_profile("power:4:0:10", 3)
        assert power.infinity_spec.power == -4.0
        ansatz = parse_profile("ansatz:2.5:0:10", 3)
        assert ansatz.infinity_spec.power == -2.5
        with pytest.raises(ParameterError):
            parse_profile("gauss:1", 3)
        with pytest.raises(ParameterError):
            parse_profile("ball:1:2", 3)


class TestClassifyCommand:
    def test_existence_exit_zero(self, capsys):
        code, env, _ = run_json(capsys, [
            "classify", "--side", "P+", "--N", "3", "--p", "2", "--q", "4",
            "--alpha", "1", "--beta", "-1.5",
        ])
        assert code == 0
        assert env["command"] == "classify"
        assert env["version"] == "0.1.0"
        assert env["result"]["verdict"] == "Exists"
        assert env["result"]["construction"]["case_id"] == "2"

    def test_endpoint_kernel_within_tolerance_of_serrin_threshold(self, capsys):
        # p is 1e-13 above N/(N-2) = 3, so the classifier puts it on p = N/(N-2): case T4-1
        code, env, _ = run_json(capsys, [
            "classify", "--side", "P+", "--N", "3", "--p", "3.0000000000003", "--q", "1",
            "--alpha", "3", "--beta", "1",
        ])
        assert code == 0
        assert env["result"]["verdict"] == "Exists"
        assert env["result"]["clause"] == "Thm4"
        assert env["result"]["construction"]["case_id"] == "T4-1"

    def test_nonexistence_exit_three(self, capsys):
        code, env, _ = run_json(capsys, [
            "classify", "--side", "P+", "--N", "3", "--p", "1", "--q", "1",
            "--alpha", "1", "--beta", "0",
        ])
        assert code == 3
        assert env["result"]["verdict"] == "NotExists"
        assert env["result"]["clause"] == "Thm2(ii)"

    def test_open_exit_four(self, capsys):
        code, env, _ = run_json(capsys, [
            "classify", "--side", "P+", "--N", "3", "--p", "4", "--q", "1",
            "--alpha", "1", "--beta", "-1.5",
        ])
        assert code == 4
        assert env["result"]["verdict"] == "Open"
        assert env["result"]["clause"] == "Table1-row5"

    def test_invalid_parameters_exit_two(self, capsys):
        code, out, err = run(capsys, [
            "classify", "--side", "P+", "--N", "3", "--p", "2", "--q", "2",
            "--alpha", "4", "--beta", "0",
        ])
        assert code == 2
        assert out == ""
        assert "invalid parameters" in err

    def test_rational_exponent_literal(self, capsys):
        code, env, _ = run_json(capsys, [
            "classify", "--side", "P+", "--N", "5", "--p", "7/6", "--q", "1",
            "--alpha", "1", "--beta", "0",
        ])
        assert code == 3
        assert math.isclose(env["inputs"]["p"], 7.0 / 6.0, rel_tol=1e-15)

    def test_damped_side_with_class_restriction(self, capsys):
        code, env, _ = run_json(capsys, [
            "classify", "--side", "P-", "--N", "3", "--p", "0.5", "--q", "1",
            "--alpha", "1", "--beta", "0", "--u-class", "bounded",
        ])
        assert code == 3
        assert env["result"]["clause"] == "Thm1(ii)"

    def test_text_format_is_flat(self, capsys):
        code, out, _ = run(capsys, [
            "classify", "--side", "P+", "--N", "3", "--p", "1", "--q", "1",
            "--alpha", "1", "--beta", "0", "--format", "text",
        ])
        assert code == 3
        assert "{" not in out
        assert "result.verdict = NotExists" in out

    def test_envelope_matches_library_call(self, capsys):
        rng = np.random.default_rng(11)
        for _ in range(12):
            N = int(rng.integers(3, 6))
            alpha = round(float(rng.uniform(0.1, N - 0.1)), 3)
            beta = round(float(rng.uniform(alpha - N + 0.05, 2.0)), 3)
            p = round(float(rng.uniform(0.2, 5.0)), 3)
            q = round(float(rng.uniform(0.2, 5.0)), 3)
            code, env, _ = run_json(capsys, [
                "classify", "--side", "P+", "--N", str(N), "--p", str(p),
                "--q", str(q), "--alpha", str(alpha), "--beta", str(beta),
            ])
            expected = classify(
                ProblemParams(Side.PPLUS, N, p, q, alpha, beta, u_class=UClass.GENERAL)
            )
            assert env["result"] == expected.to_dict()
            assert set(env) == {"command", "inputs", "result", "version"}
            assert code == {"Exists": 0, "NotExists": 3, "Open": 4}[expected.verdict.value]

    def test_deterministic_output(self, capsys):
        argv = ["classify", "--side", "P+", "--N", "3", "--p", "2", "--q", "4",
                "--alpha", "1", "--beta", "-1.5"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2


class TestConvolveCommand:
    def test_ball_rows_and_csv(self, capsys, tmp_path):
        out_file = tmp_path / "rows.csv"
        code, env, _ = run_json(capsys, [
            "convolve", "--N", "3", "--alpha", "1", "--beta", "0",
            "--profile", "ball:1", "--radii", "2:1000:3", "--out", str(out_file),
        ])
        assert code == 0
        rows = env["result"]["rows"]
        assert len(rows) == 3
        mass = 4.0 * math.pi / 3.0
        for row in rows:
            assert math.isclose(row["value"], mass / row["r"], rel_tol=1e-6)
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "r,value,error_estimate"
        assert len(lines) == 4
        for row, line in zip(rows, lines[1:]):
            assert math.isclose(float(line.split(",")[1]), row["value"], rel_tol=1e-12)

    def test_divergent_source_exit_six(self, capsys):
        code, out, err = run(capsys, [
            "convolve", "--N", "3", "--alpha", "1", "--beta", "0",
            "--profile", "power:1:0:10", "--radii", "1:100:3",
        ])
        assert code == 6
        assert "slow-decay regime" in err

    def test_bad_profile_exit_two(self, capsys):
        code, _, err = run(capsys, [
            "convolve", "--N", "3", "--alpha", "1", "--beta", "0",
            "--profile", "blob:1", "--radii", "1:100:3",
        ])
        assert code == 2
        assert "invalid parameters" in err


    def test_profile_below_the_float_range_exit_zero(self, capsys):
        """(A + r)^-2 log(A + r)^-1.5 at A = 1e200 is below the float range at these
        radii; read in logs, the Newton kernel gives 4 pi times its potential, 0.0931."""
        code, env, _ = run_json(capsys, [
            "convolve", "--N", "3", "--alpha", "1", "--beta", "0",
            "--profile", "power:2:-1.5:1e200", "--radii", "1:100:3",
        ])
        assert code == 0
        for row in env["result"]["rows"]:
            assert math.isclose(row["value"], 4.0 * math.pi * 0.0930972595999533, rel_tol=1e-9)

    def test_non_finite_radius_exit_two(self, capsys):
        code, _, err = run(capsys, [
            "convolve", "--N", "3", "--alpha", "1", "--beta", "0",
            "--profile", "ball:1", "--radii", "1:inf:3",
        ])
        assert code == 2
        assert "invalid parameters" in err

    def test_radius_past_the_float_range_exit_two(self, capsys):
        code, _, err = run(capsys, [
            "convolve", "--N", "3", "--alpha", "1", "--beta", "0",
            "--profile", "power:4:0:10", "--radii", "1e304:1e305:2",
        ])
        assert code == 2
        assert "invalid parameters" in err

    @pytest.mark.parametrize("profile", ["ball:inf", "ball:nan", "ball:1e308", "ball:1e154", "ball:1e200",
                                         "ball:1e307", "power:nan:0:10", "power:4:nan:10", "power:inf:0:10",
                                         "power:4:0:inf"])
    def test_profile_parameter_that_is_not_finite_exit_two(self, capsys, profile):
        """A typed ParameterError, exit 2; a RuntimeWarning would fail the test."""
        code, out, err = run(capsys, [
            "convolve", "--N", "3", "--alpha", "1", "--beta", "0",
            "--profile", profile, "--radii", "1:10:3",
        ])
        assert code == 2 and out == ""
        assert "invalid parameters" in err

    def test_non_integer_count_exit_two(self, capsys):
        code, _, err = run(capsys, [
            "convolve", "--N", "3", "--alpha", "1", "--beta", "0",
            "--profile", "ball:1", "--radii", "1:10:x",
        ])
        assert code == 2
        assert "invalid parameters" in err


def test_every_out_csv_ends_its_lines_with_lf(capsys, tmp_path):
    """convolve, asymptotics and probe write their --out files with the same line ending,
    and every convolve and certificate cell reads back as its JSON value exactly."""
    for argv in (["convolve", "--N", "3", "--alpha", "1", "--beta", "0", "--profile", "ball:1", "--radii", "1:1e3:7"],
                 ["asymptotics", "--N", "3", "--alpha", "1", "--beta", "0", "--profile", "power:3:0:1.05",
                  "--window", "1e3:1e7"],
                 ["probe", "--kind", "certificate", "--N", "3", "--p", "2", "--q", "2", "--alpha", "0", "--beta", "0"]):
        out_file = tmp_path / f"{argv[0]}.csv"
        code, env, _ = run_json(capsys, argv + ["--out", str(out_file)])
        assert code == 0
        data = out_file.read_bytes()
        assert data.endswith(b"\n") and b"\r" not in data, argv[0]
        header, *cells = [line.split(",") for line in data.decode().splitlines()]
        result = env["result"]
        if argv[0] == "convolve":
            assert header == ["r", "value", "error_estimate"]
            assert [[float(x) for x in row] for row in cells] == [[row[k] for k in header] for row in result["rows"]]
        elif argv[0] == "probe":
            assert header == ["R", "certificate_value", "clause"]
            assert [(float(r), float(v), c) for r, v, c in cells] == [
                (r, v, result["clause"]) for r, v in zip(result["radii"], result["values"])]


CONVOLVE_BALL = ["convolve", "--N", "3", "--alpha", "1", "--beta", "0", "--profile", "ball:1", "--radii", "1:100:3"]


@pytest.mark.parametrize("error, code, prefix", [(QuadratureFailure, 5, "quadrature failure: "),
                                                 (LabError, 2, "error: ")])
def test_library_errors_map_to_exit_codes(capsys, monkeypatch, error, code, prefix):
    """A QuadratureFailure exits 5 and any other LabError 2, each with its message on stderr
    and nothing on stdout."""
    def fail(*args):
        raise error("no convergence")

    monkeypatch.setattr(convolution, "convolve_radial", fail)
    assert run(capsys, CONVOLVE_BALL) == (code, "", prefix + "no convergence\n")


def test_text_format_flattens_lists(capsys):
    """--format text writes a list of records as one indexed key per field, and a list of
    numbers on one line."""
    rows = run_json(capsys, CONVOLVE_BALL)[1]["result"]["rows"]
    code, text, _ = run(capsys, CONVOLVE_BALL + ["--format", "text"])
    assert code == 0
    assert [line for line in text.splitlines() if line.startswith("result.")] == [
        f"result.rows[{i}].{k} = {row[k]}" for i, row in enumerate(rows) for k in ("r", "value", "error_estimate")]
    cert = ["probe", "--kind", "certificate", "--N", "3", "--p", "2", "--q", "2", "--alpha", "0", "--beta", "0"]
    radii = run_json(capsys, cert)[1]["result"]["radii"]
    code, text, _ = run(capsys, cert + ["--format", "text"])
    assert code == 0
    assert f"result.radii = {' '.join(str(r) for r in radii)}" in text.splitlines()


class TestAsymptoticsCommand:
    def test_upper_envelope_report(self, capsys, tmp_path):
        out_file = tmp_path / "fit.csv"
        code, env, _ = run_json(capsys, [
            "asymptotics", "--N", "3", "--alpha", "1", "--beta", "0",
            "--profile", "power:4:0:10", "--kind", "upper",
            "--window", "1e3:1e6", "--case-id", "cli-check", "--out", str(out_file),
        ])
        assert code == 0
        assert env["result"]["pass"] is True
        assert env["result"]["case_id"] == "cli-check"
        assert math.isclose(env["result"]["predicted"]["power"], -1.0, abs_tol=1e-12)
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "r,value,predicted,fitted"
        assert len(lines) == 9


    def test_lower_envelope_report(self, capsys):
        code, env, _ = run_json(capsys, [
            "asymptotics", "--N", "3", "--alpha", "1", "--beta", "0",
            "--profile", "power:4:0:10", "--kind", "lower", "--window", "1e3:1e6",
        ])
        assert code == 0
        assert env["inputs"]["kind"] == "lower"
        assert env["result"]["predicted"] == {"power": -1.0, "logpower": 0.0, "loglog": False}
        assert env["result"]["pass"] is True

    def test_window_that_is_not_finite_exit_two(self, capsys):
        code, _, err = run(capsys, [
            "asymptotics", "--N", "3", "--alpha", "1", "--beta", "0",
            "--profile", "power:3:0:1.05", "--window", "1:inf",
        ])
        assert code == 2
        assert "invalid parameters" in err


class TestAnsatzCommand:
    def test_threshold_and_decay(self, capsys):
        code, env, _ = run_json(capsys, [
            "ansatz", "--N", "3", "--gamma", "3", "--tau", "0",
        ])
        assert code == 0
        assert math.isclose(env["result"]["lambda_star"], 0.12, rel_tol=1e-4)
        assert env["result"]["potential_power"] == -1.0
        assert env["result"]["potential_logpower"] == 1.0
        assert math.isclose(env["result"]["scale"], math.sqrt(10.0), rel_tol=1e-12)

    def test_invalid_gamma_exit_two(self, capsys):
        code, _, err = run(capsys, ["ansatz", "--N", "3", "--gamma", "5", "--tau", "0"])
        assert code == 2
        assert "invalid parameters" in err

    def test_infinite_scale_exit_two(self, capsys):
        code, _, err = run(capsys, ["ansatz", "--N", "3", "--gamma", "3", "--tau", "0", "--A", "inf"])
        assert code == 2
        assert "invalid parameters" in err

    def test_source_below_the_float_range_exit_zero(self, capsys):
        """v(0) = 1e-375: the threshold 2N / (A (N + 2)) is still read off Lap(v)/v."""
        code, env, _ = run_json(capsys, ["ansatz", "--N", "3", "--gamma", "3", "--tau", "0", "--A", "1e250"])
        assert code == 0
        assert math.isclose(env["result"]["lambda_star"], 1.2e-250, rel_tol=1e-9)


class TestVerifyCommand:
    def test_certified_construction(self, capsys):
        code, env, _ = run_json(capsys, [
            "verify", "--case", "2", "--N", "3", "--alpha", "1", "--beta", "-1.5",
            "--p", "2", "--q", "4",
        ])
        assert code == 0
        assert env["result"]["pass"] is True
        assert env["result"]["stable"] is True
        assert 0.0 < env["result"]["S"] < 1e4
        assert env["result"]["lambda"] > env["result"]["lambda_star"]

    def test_large_scale_table_covers_the_tail_probes(self, capsys):
        """At A = 1e20 convolve_radial's tail probes reach 2e3 sqrt(A) = 2e13, past
        4e3 r_out = 4e9: the table is sized by max(r_out, sqrt(A))."""
        code, env, _ = run_json(capsys, [
            "verify", "--case", "2", "--N", "3", "--alpha", "1", "--beta", "-1.5",
            "--p", "2", "--q", "4", "--A", "1e20",
        ])
        assert code == 0
        assert env["result"]["pass"] is True
        assert env["result"]["stable"] is True
        assert math.isfinite(env["result"]["S"]) and env["result"]["S"] > 0.0

    def test_drift_side_below_the_float_range_exit_two(self, capsys):
        code, _, err = run(capsys, [
            "verify", "--case", "2", "--N", "3", "--alpha", "1", "--beta", "-1.5",
            "--p", "2", "--q", "4", "--A", "1e200",
        ])
        assert code == 2
        assert "A = 1e+200" in err

    def test_wrong_exponents_exit_two(self, capsys):
        code, _, err = run(capsys, [
            "verify", "--case", "5", "--N", "3", "--alpha", "0.5", "--beta", "-1.5",
            "--p", "2.5", "--q", "3",
        ])
        assert code == 2
        assert err

    @pytest.mark.parametrize("lam", ["inf", "nan"])
    def test_lambda_that_is_not_finite_exit_two(self, capsys, lam):
        code, out, err = run(capsys, [
            "verify", "--case", "2", "--N", "3", "--alpha", "1", "--beta", "-1.5",
            "--p", "2", "--q", "4", "--lam", lam,
        ])
        assert (code, out) == (2, "")
        assert err == f"invalid parameters: ParameterError: lambda must be finite, got {lam}\n"

    def test_potential_past_the_float_range_exit_two(self, capsys):
        """At N = 200 the table's r^(2-N) overflows at its innermost radius: refused, not NaN."""
        code, out, err = run(capsys, [
            "verify", "--case", "1b", "--N", "200", "--alpha", "1", "--beta", "0",
            "--p", "200", "--q", "3",
        ])
        assert (code, out) == (2, "")
        assert err.startswith("invalid parameters: ParameterError: r^(2-N) M(r) leaves the float range at r = ")

    def test_case_refused_where_classifier_finds_nonexistence(self, capsys):
        # q is 1e-13 above N/(N-2) = 3, so q = N/(N-2) to the classifier (Thm2(ix)),
        # and case 2's hypothesis q > N/(N-2) fails
        code, _, err = run(capsys, [
            "verify", "--case", "2", "--N", "3", "--alpha", "1", "--beta", "-1.5",
            "--p", "2", "--q", "3.0000000000003",
        ])
        assert code == 2
        assert "HypothesisViolated" in err


class TestProbeCommand:
    def test_testfn_constant(self, capsys):
        code, env, _ = run_json(capsys, [
            "probe", "--kind", "testfn", "--N", "3", "--k", "5", "--delta", "2",
            "--R", "10", "--lam", "5",
        ])
        assert code == 0
        assert math.isclose(env["result"]["constant"], 886.1142, rel_tol=1e-5)
        assert env["result"]["delta_power_valid"] is True

    def test_harnack_ball(self, capsys):
        code, env, _ = run_json(capsys, [
            "probe", "--kind", "harnack", "--N", "3", "--profile", "ball:1",
            "--p", "2", "--R", "10",
        ])
        assert code == 0
        assert math.isclose(env["result"]["mass"], 4.0 * math.pi / 3.0, rel_tol=1e-8)

    @pytest.mark.parametrize("R", ["1e-200", "1e-120", "1e120", "1e200"])
    def test_harnack_at_extreme_radii(self, capsys, R):
        code, env, _ = run_json(capsys, [
            "probe", "--kind", "harnack", "--N", "3", "--profile", "ball:1",
            "--p", "2", "--R", R,
        ])
        assert code == 0
        # the mass underflows for the small R, the ratio for the large
        ball = 4.0 * math.pi / 3.0
        mass, ratio = (0.0, ball) if float(R) < 1.0 else (ball, 0.0)
        assert math.isclose(env["result"]["mass"], mass) and math.isclose(env["result"]["ratio"], ratio)

    @pytest.mark.parametrize("lam", ["inf", "nan"])
    def test_testfn_lambda_that_is_not_finite_exit_two(self, capsys, lam):
        code, out, err = run(capsys, ["probe", "--kind", "testfn", "--N", "3", "--lam", lam])
        assert (code, out) == (2, "")
        assert err == f"invalid parameters: ParameterError: lambda must be finite, got {lam}\n"

    @pytest.mark.parametrize("argv", [["--kind", "harnack", "--N", "0"], ["--kind", "testfn", "--N", "0"],
                                      ["--kind", "testfn", "--N", "-3"]])
    def test_dimension_that_is_not_positive_exit_two(self, capsys, argv):
        code, out, err = run(capsys, ["probe", *argv])
        assert (code, out) == (2, "")
        assert err == f"invalid parameters: InvalidDimension: dimension must be a positive integer, got {argv[-1]}\n"

    def test_testfn_past_the_float_range_is_invalid(self, capsys):
        code, _, err = run(capsys, ["probe", "--kind", "testfn", "--N", "5", "--R", "1e-160"])
        assert code == 2
        assert "1e-160" in err

    def test_certificate_with_csv(self, capsys, tmp_path):
        out_file = tmp_path / "cert.csv"
        code, env, _ = run_json(capsys, [
            "probe", "--kind", "certificate", "--N", "3", "--p", "2", "--q", "2",
            "--alpha", "0", "--beta", "0", "--out", str(out_file),
        ])
        assert code == 0
        assert env["result"]["clause"] == "Thm2(iv)"
        assert env["result"]["strictly_increasing"] is True
        lines = out_file.read_text().strip().splitlines()
        assert len(lines) == 26

    def test_chain_probe(self, capsys):
        code, env, _ = run_json(capsys, [
            "probe", "--kind", "chain", "--N", "3", "--alpha", "1", "--beta", "0",
            "--p", "3", "--radii", "100:1e6:6",
        ])
        assert code == 0
        assert math.isclose(env["result"]["predicted"]["power"], -1.0, abs_tol=1e-12)
        assert len(env["result"]["values"]) == 6

    def test_steep_chain_prints_the_ball_as_json(self, capsys):
        """Past r = 1, u0^p is r^(p(2-N)), the shape it declares, at scale 0: so at p = 1e7 its
        ratio to it at the tail probes is 1, not (1 + 1/s)^((N-2)p), which overflowed to NaN, and
        the values are the unit ball's (4 pi / 3) / max(1, r) to 1e-6: u0^p's mass past r = 1,
        4 pi / (p - 2), is 3e-7 of it."""
        code, out, _ = run(capsys, ["probe", "--kind", "chain", "--N", "3", "--alpha", "1", "--beta", "0",
                                    "--p", "1e7"])
        assert code == 0
        result = json.loads(out, parse_constant=lambda c: pytest.fail(f"{c} is not JSON"))["result"]
        assert np.allclose(result["values"], 4.0 * math.pi / 3.0 / np.array(result["radii"]), rtol=1e-6, atol=0.0)

    def test_certificate_existence_region_exit_two(self, capsys):
        code, _, err = run(capsys, [
            "probe", "--kind", "certificate", "--N", "3", "--p", "4", "--q", "2",
            "--alpha", "1", "--beta", "-1.5",
        ])
        assert code == 2
        assert "no nonexistence clause" in err
        assert "Cor1.5" not in err

    @pytest.mark.parametrize("argv, tag", [
        ("--N 3 --p 3.07 --q 1 --alpha 1.98 --beta 1.11", "Cor1.5(ii)"),
        ("--N 5 --p 4.89 --q 1 --alpha 1.95 --beta -2.91", "Cor1.5(i)"),
    ])
    def test_certificate_corollary_verdict_exit_two(self, capsys, argv, tag):
        code, _, err = run(capsys, ["probe", "--kind", "certificate", *argv.split()])
        assert code == 2
        assert f"HypothesisViolated: {tag}: no divergence series" in err


@pytest.mark.parametrize("argv", [
    "classify --side P+ --N 3 --p nan --q 4 --alpha 1 --beta -1.5",
    "probe --kind certificate --N 3 --p nan --q 2 --alpha 0 --beta 0",
    "probe --kind chain --N 3 --p nan --alpha 1 --beta 0",
    "probe --kind chain --N 3 --p inf --alpha 1 --beta 0",
    "probe --kind harnack --N 3 --p inf",
])
def test_reaction_exponent_that_is_not_finite_exit_two(capsys, argv):
    """A typed ParameterError, exit 2; no verdict, series or RuntimeWarning."""
    code, out, err = run(capsys, argv.split())
    assert (code, out) == (2, "")
    assert err.startswith("invalid parameters: ParameterError: exponent p must be positive and finite")


@pytest.mark.parametrize("beta", ["inf", "nan"])
def test_kernel_exponent_that_is_not_finite_exit_two(capsys, beta):
    """A typed InvalidBeta, exit 2; no verdict, and no "beta": Infinity, which is not JSON."""
    code, out, err = run(capsys, f"classify --side P+ --N 3 --p 2.5 --q 2.5 --alpha 1 --beta {beta}".split())
    assert (code, out) == (2, "")
    assert err.startswith("invalid parameters: InvalidBeta: beta must exceed alpha - N = -2.0 and be finite")


@pytest.mark.parametrize("argv, keys", [
    ("classify --side P+ --N 3 --p 2 --q 4 --alpha 1 --beta -1.5 --format json", "side N p q alpha beta u_class"),
    ("convolve --N 3 --alpha 1 --beta 0 --profile ball:1 --radii 1:10:2", "N alpha beta profile radii"),
    ("asymptotics --N 3 --alpha 1 --beta 0 --profile power:3:0:1.05 --case-id x", "N alpha beta profile kind window"),
    ("ansatz --N 3 --gamma 3 --tau 0", "N gamma tau A"),
    ("verify --case 2 --N 3 --alpha 1 --beta -1.5 --p 2 --q 4 --lam 50", "case N alpha beta p q A lambda"),
    ("probe --kind certificate --N 3 --p 2 --q 2", "N p q alpha beta theta radii"),
    ("probe --kind testfn --N 3 --lam 2", "N k delta R lambda"),
    ("probe --kind harnack --N 3", "N profile p R"),
    ("probe --kind chain --N 3 --p 3 --radii 1:10:2", "N alpha beta p radii"),
    ("table --N 3", "N"),
])
def test_inputs_echo_the_declared_flags(capsys, argv, keys):
    """inputs are the flags a subcommand declares, in the order declared, less --format, --out
    and --case-id, with --lam as lambda; probe's are those of its --kind."""
    _, env, _ = run_json(capsys, argv.split())
    assert env["command"] == argv.split()[0]
    assert list(env["inputs"]) == keys.split()


class TestTableCommand:
    def test_json_table(self, capsys, tmp_path):
        out_file = tmp_path / "table.json"
        code, env, _ = run_json(capsys, [
            "table", "--N", "5", "--out", str(out_file),
        ])
        assert code == 0
        assert env["result"]["all_match"] is True
        assert len(env["result"]["records"]) == 151
        saved = json.loads(out_file.read_text())
        assert saved["result"] == env["result"]

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_out_file_is_the_printed_envelope(self, capsys, tmp_path, fmt):
        """--out writes the JSON envelope that JSON mode prints, byte for byte, in both formats."""
        out_file = tmp_path / "table.json"
        code, out, _ = run(capsys, ["table", "--N", "3", "--out", str(out_file)])
        assert code == 0
        code, text, _ = run(capsys, ["table", "--N", "3", "--out", str(out_file), "--format", fmt])
        assert code == 0
        assert out_file.read_text() + "\n" == out
        assert (text == out) == (fmt == "json")

    def test_text_table(self, capsys):
        code, out, _ = run(capsys, ["table", "--N", "3", "--format", "text"])
        assert code == 0
        assert "all_match = True" in out
        assert out.count("[ok]") == 125


README_CLASSIFY = ["classify", "--side", "P+", "--N", "3", "--p", "2", "--q", "4", "--alpha", "1", "--beta", "-1.5"]


def fresh_cli(argv, before="", after=""):
    """main(argv) in a fresh interpreter, between the statements before and after; returns
    the finished process."""
    package_root = os.path.dirname(os.path.dirname(logriesz.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))))
    script = f"import sys\n{before}\nfrom logriesz.cli import main\ncode = main(sys.argv[1:])\n{after}\nsys.exit(code)"
    return subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True)


BLOCK_NUMPY = 'sys.modules["numpy"] = None'


class TestImportsPerSubcommand:
    """Each subcommand imports the modules it runs: the decision commands run where numpy
    cannot be imported, and convolve loads none of the certificate modules."""

    @pytest.mark.parametrize("argv", [README_CLASSIFY, README_CLASSIFY + ["--format", "text"],
                                      ["table", "--N", "3"], ["table", "--N", "3", "--format", "text"]])
    def test_decision_commands_run_with_numpy_blocked(self, argv):
        blocked, plain = fresh_cli(argv, BLOCK_NUMPY), fresh_cli(argv)
        assert (blocked.returncode, blocked.stderr) == (0, ""), blocked.stderr
        assert blocked.stdout == plain.stdout and plain.returncode == 0

    def test_invalid_alpha_exit_two_with_numpy_blocked(self):
        argv = README_CLASSIFY[:-4] + ["--alpha", "5", "--beta", "0"]
        proc = fresh_cli(argv, BLOCK_NUMPY)
        assert proc.returncode == 2 and proc.stdout == ""
        assert "invalid parameters: InvalidAlpha" in proc.stderr

    @pytest.mark.parametrize("argv", [["--help"], ["classify", "--help"]])
    def test_help_with_numpy_blocked(self, argv):
        proc = fresh_cli(argv, BLOCK_NUMPY)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: logriesz")

    def test_convolve_loads_no_certificate_module(self, tmp_path):
        """Nor numpy.polynomial: the Gauss rules come from convolution's own generator."""
        argv = ["convolve", "--N", "3", "--alpha", "1", "--beta", "0", "--profile", "ball:1",
                "--radii", "1:1e3:7", "--out", str(tmp_path / "rows.csv")]
        proc = fresh_cli(argv, after="print(' '.join(sorted(m for m in sys.modules if m.startswith('logriesz.'))), "
                                       "'numpy.polynomial' in sys.modules, file=sys.stderr)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.split() == ["logriesz.cli", "logriesz.convolution", "logriesz.errors", "logriesz.kernel",
                                       "False"]
