"""Command-line interface: artifacts, exit codes, config precedence."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oscspec import asymptotics, cli, oracle, oscillator, quantize
from oscspec.cli import EXIT_CONVERGENCE, EXIT_OK, EXIT_ORACLE, EXIT_TOLERANCE, EXIT_USAGE, main
from oscspec.errors import DomainError
from conftest import parse_csv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrum:
    def test_csv_artifact(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--M", "2", "--levels", "8", "--N", "100")
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["level", "energy", "parity", "parity_index"]
        energies = [row["energy"] for row in rows]
        assert len(energies) == 8
        assert all(b > a for a, b in zip(energies, energies[1:]))
        assert rows[0]["parity"] == "even" and rows[1]["parity"] == "odd"

    def test_json_artifact(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--M", "2", "--levels", "4", "--N", "80",
                           "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert set(doc) == {"problem", "energies", "levels", "residuals", "iterations",
                            "sum_rule_err"}
        assert len(doc["energies"]) == 4
        assert doc["iterations"]["even"] >= 1

    def test_rejects_harmonic(self, capsys, monkeypatch):
        # one check, growth_constant's, for every command, before anything runs
        _refuse_every_solve(monkeypatch)
        for argv in (("spectrum", "--M", "1", "--levels", "4"), ("iterate", "--M", "1"),
                     ("analyze", "--M", "1"), ("verify", "--M", "1"),
                     ("bracket", "--M", "1", "--upper"), ("spectrum", "--M", "-5")):
            code, out, err = run(capsys, *argv)
            assert code == EXIT_USAGE
            assert out == "" and err == "usage error: invalid input: M must be at least 2\n"

    def test_requires_m(self, capsys):
        code, _, err = run(capsys, "spectrum", "--levels", "4")
        assert code == EXIT_USAGE

    def test_single_parity(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--M", "2", "--levels", "3", "--N", "60",
                           "--parity", "odd", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["levels"][0]["level"] == 1
        assert list(doc["residuals"]) == ["odd"]
        assert list(doc["sum_rule_err"]) == ["odd"]

    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "spectrum.csv"
        code, out, _ = run(capsys, "spectrum", "--M", "2", "--levels", "4", "--N", "60",
                           "--out", str(target))
        assert code == EXIT_OK
        assert out == ""
        header, rows = parse_csv(target.read_text())
        assert len(rows) == 4

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "spectrum", "--M", "2", "--levels", "5", "--N", "60")
        _, second, _ = run(capsys, "spectrum", "--M", "2", "--levels", "5", "--N", "60")
        assert first == second

    def test_large_m_converges_at_default_settings(self, capsys):
        # the contraction rate (M - 1)/(M + 1) is 0.98 at M = 100, so fixed-point
        # iteration crawls, but the Newton steps of the solve take 6 / 4 of the
        # default 400
        code, out, _ = run(capsys, "spectrum", "--M", "100", "--N", "250", "--levels", "4",
                           "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert len(doc["energies"]) == 4
        assert max(doc["residuals"].values()) <= 1e-10


class TestIterate:
    def test_perturbed_run_reports_rate(self, capsys):
        code, out, _ = run(capsys, "iterate", "--M", "2", "--N", "120", "--max-steps", "25",
                           "--perturb-eps", "1", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["problem"]["parity"] == "odd"
        assert doc["steps"] >= 4
        assert 0.0 < doc["fitted_lambda"] < 1.0
        assert len(doc["residual_sup"]) == doc["steps"]

    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, "iterate", "--M", "2", "--N", "60", "--max-steps", "6",
                           "--tol", "0")
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["step", "residual_sup", "residual_weighted"]
        assert len(rows) == 6

    def test_too_few_steps_leave_rate_unfitted(self, capsys):
        # empirical_rate needs four iterates; two steps give none to fit
        code, out, _ = run(capsys, "iterate", "--M", "2", "--N", "60", "--max-steps", "2",
                           "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["fitted_lambda"] is None
        code, _, err = run(capsys, "iterate", "--M", "2", "--N", "60", "--max-steps", "2")
        assert code == EXIT_OK
        assert err == ""

    def test_seed_scale_converges_back(self, capsys):
        # a flat log-space bump of ln 3 triples the stored values, tail pinned
        code, out, _ = run(capsys, "iterate", "--M", "2", "--N", "60", "--max-steps", "200",
                           "--perturb-eps", "0", "--perturb-size", repr(math.log(3.0)),
                           "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["residual_sup"][-1] <= 1e-10

    def test_fitted_rate_matches_prediction(self, capsys):
        # full-size diagnostic run: the fitted rate sits near alpha - 1 = 1/3
        code, out, _ = run(capsys, "iterate", "--M", "2", "--perturb-eps", "1",
                           "--max-steps", "30", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert 0.28 <= doc["fitted_lambda"] <= 0.38


class TestAnalyze:
    def test_factor_at_unit_weight(self, capsys):
        code, out, _ = run(capsys, "analyze", "--M", "2", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["alpha_star"] == pytest.approx(4.0 / 3.0, abs=1e-14)
        row = next(r for r in doc["contraction"] if r["epsilon"] == 1.0)
        assert row["factor"] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert all(r["gap"] <= 1e-9 for r in doc["drift"])
        assert all(r["gap"] <= 1e-9 for r in doc["contraction"])

    def test_symmetric_weights(self, capsys):
        code, out, _ = run(capsys, "analyze", "--theta", "1.5707963", "--eps", "0.5",
                           "--eps", "1.5", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        lo, hi = doc["contraction"]
        assert lo["s_closed"] == pytest.approx(hi["s_closed"], abs=1e-9)

    def test_csv_round_trips(self, capsys):
        code, out, _ = run(capsys, "analyze", "--M", "3")
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["kind", "alpha", "integral", "closed", "gap",
                          "epsilon", "s_integral", "s_closed", "factor"]
        kinds = {row["kind"] for row in rows}
        assert kinds == {"drift", "contraction"}

    def test_angle_next_to_pi(self, capsys):
        # pi - theta = 6.3e-5 and 3.1e-8: the pair kernel peaks within
        # cos(theta/2) of s = 1, and an unresolved peak gave quadrature
        # warnings and wrong integrals
        for M in ("100000", "200000000"):
            code, out, _ = run(capsys, "analyze", "--M", M, "--format", "json")
            assert code == EXIT_OK
            doc = json.loads(out)
            for row in doc["contraction"]:
                assert abs(row["s_integral"] - row["s_closed"]) <= 1e-10 * row["s_closed"]
            for row in doc["drift"]:
                assert row["gap"] <= 1e-13 * row["closed"]

    def test_requires_angle_or_m(self, capsys):
        for argv in (("analyze",), ("analyze", "--M", "2", "--theta", "3.0")):
            code, _, err = run(capsys, *argv)
            assert code == EXIT_USAGE

    def test_rejects_bad_theta(self, capsys, monkeypatch):
        # one check, KernelParams', before any integral is evaluated
        _refuse_every_solve(monkeypatch)
        for theta in ("3.5", "3.141592653589793", "0", "-1"):
            code, out, err = run(capsys, "analyze", "--theta", theta)
            assert code == EXIT_USAGE
            assert out == "" and err.startswith(
                "usage error: invalid input: theta must lie strictly between 0 and pi"), err

    def test_rejects_alpha_outside_the_drift_domain(self, capsys):
        # the drift integral diverges at alpha <= 1; the parser refuses inf and nan
        for alpha in ("1", "0.5", "inf", "nan"):
            code, out, err = run(capsys, "analyze", "--M", "2", "--alpha", alpha)
            assert code == EXIT_USAGE, alpha
            assert out == "" and "--alpha" in err

    def test_rejects_eps_outside_the_strip(self, capsys, tmp_path, monkeypatch):
        # the contraction integral diverges at |eps - 1| >= alpha* = 1 + theta/pi,
        # from a flag or a config file, and no integral is evaluated
        monkeypatch.setattr(asymptotics, "contraction_integral", _must_not_solve)
        monkeypatch.setattr(asymptotics, "drift_integral", _must_not_solve)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps = 3\n")
        out_path = tmp_path / "table.csv"
        for argv in (("--theta", "1.5707963", "--eps", "2.5"), ("--M", "2", "--config", str(cfg))):
            code, out, err = run(capsys, "analyze", *argv, "--out", str(out_path))
            assert code == EXIT_USAGE, argv
            assert out == "" and "--eps" in err and "usage error" in err, err
            assert not out_path.exists()

    def test_closed_drift_next_to_one(self, capsys):
        # the 60-digit value of sin(pi/3 / alpha) / sin(pi/alpha) at 1 + 1e-9
        code, out, _ = run(capsys, "analyze", "--M", "2", "--alpha", "1.000000001",
                           "--format", "json")
        assert code == EXIT_OK
        (row,) = json.loads(out)["drift"]
        assert abs(row["closed"] - 275664425.01131700016) <= 4e-16 * 275664425.01131700016

    def test_alpha_whose_double_overflows_matches_closed(self, capsys):
        # 2 * 1e308 is inf, which the drift integral never forms
        code, out, _ = run(capsys, "analyze", "--M", "2", "--alpha", "1e308", "--format", "json")
        assert code == EXIT_OK
        (row,) = json.loads(out)["drift"]
        assert row["gap"] <= 1e-12 * row["closed"]

    def test_subnormal_theta_writes_json(self, capsys):
        # an overflowed closed form wrote inf and nan, which JSON refuses
        code, out, _ = run(capsys, "analyze", "--theta", "1e-310", "--format", "json")
        assert code == EXIT_OK
        for row in json.loads(out)["contraction"]:
            assert row["gap"] <= 1e-13 * row["s_integral"], row["epsilon"]


class TestVerify:
    def test_passes_with_realistic_bound(self, capsys):
        code, out, _ = run(capsys, "verify", "--M", "2", "--levels", "4", "--N", "150",
                           "--bound", "5e-3", "--oracle-grid", "1024")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["max_rel_dev"] <= 5e-3
        assert len(doc["levels"]) == 4
        # the O(1/N) error of the plain tail, -1.6e-3 / -5.2e-4 at N = 150
        assert list(doc["sum_rule_err"]) == ["even", "odd"]
        assert all(-5e-3 < err < 0 for err in doc["sum_rule_err"].values())

    def test_tolerance_failure_exit_code(self, capsys):
        code, out, _ = run(capsys, "verify", "--M", "2", "--levels", "4", "--N", "150",
                           "--bound", "1e-12", "--oracle-grid", "1024")
        assert code == EXIT_TOLERANCE
        doc = json.loads(out)
        assert doc["pass"] is False

    def test_oracle_failure_exit_code(self, capsys):
        code, _, err = run(capsys, "verify", "--M", "2", "--levels", "4", "--N", "100",
                           "--oracle-grid", "128", "--oracle-levels", "2",
                           "--oracle-tol", "1e-15")
        assert code == EXIT_ORACLE
        assert "oracle" in err.lower()

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--M", "2", "--levels", "3", "--N", "150",
                           "--bound", "5e-3", "--oracle-grid", "1024", "--format", "csv")
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["level", "computed", "oracle", "abs_dev", "rel_dev"]
        assert len(rows) == 3

    def test_odd_oracle_grid(self, capsys):
        docs = []
        for grid in ("1025", "1024"):
            code, out, _ = run(capsys, "verify", "--M", "2", "--N", "250", "--levels", "10",
                               "--bound", "5e-3", "--oracle-grid", grid)
            assert code == EXIT_OK
            docs.append(json.loads(out))
        odd, even = (np.array([row["oracle"] for row in doc["levels"]]) for doc in docs)
        assert odd.size == 10
        assert np.max(np.abs(odd - even) / even) <= 1e-9

    def test_refine_tightens_deviations(self, capsys):
        code, out, _ = run(capsys, "verify", "--M", "2", "--levels", "4", "--N", "150",
                           "--bound", "5e-3", "--oracle-grid", "1024", "--refine")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["refined_N"] == 300
        assert doc["refinement_monotone"] is True
        assert doc["max_rel_dev_refined"] <= doc["max_rel_dev"]


class TestBracket:
    def test_upper_super(self, capsys):
        code, out, _ = run(capsys, "bracket", "--M", "2", "--upper", "100",
                           "--N", "300", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["kind"] == "SUPER"
        assert doc["verified"] is True

    def test_lower_sub(self, capsys):
        code, out, _ = run(capsys, "bracket", "--M", "2", "--lower", "6",
                           "--N", "300", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["kind"] == "SUB"
        assert doc["verified"] is True

    def test_csv_header(self, capsys):
        for side, param in (("--upper", "A"), ("--lower", "Nparam")):
            code, out, _ = run(capsys, "bracket", "--M", "2", side, "--N", "300")
            assert code == EXIT_OK
            header, rows = parse_csv(out)
            assert header == ["kind", "verified", "max_violation", "slack", "M", "parity", "N",
                              param]
            assert len(rows) == 1

    def test_side_carries_its_parameter(self, capsys):
        # a bare side takes its default parameter, a given one reaches the row
        for argv, key, value in ((("--upper",), "A", 100.0), (("--upper", "50"), "A", 50.0),
                                 (("--upper=0.5",), "A", 0.5), (("--lower",), "Nparam", 6),
                                 (("--lower", "7"), "Nparam", 7)):
            code, out, _ = run(capsys, "bracket", "--M", "2", *argv, "--N", "300",
                               "--format", "json")
            assert code == EXIT_OK, argv
            assert json.loads(out)[key] == value

    def test_negative_shift_is_invalid_input(self, capsys):
        code, out, err = run(capsys, "bracket", "--M", "2", "--upper", "-5", "--N", "300")
        assert code == EXIT_USAGE
        assert out == "" and "invalid input: A must be nonnegative" in err

    def test_requires_side(self, capsys):
        code, _, err = run(capsys, "bracket", "--M", "2", "--N", "300")
        assert code == EXIT_USAGE
        code, _, _ = run(capsys, "bracket", "--M", "2", "--upper", "--lower", "--N", "300")
        assert code == EXIT_USAGE


class TestConfigFile:
    def test_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        # comment-only, blank and whitespace-only lines are skipped
        cfg.write_text("# run settings\nN = 70\n\n   \nlevels = 3  # trailing comment\n"
                       "format = json\n")
        code, out, _ = run(capsys, "spectrum", "--M", "2", "--config", str(cfg))
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["problem"]["N"] == 70
        assert len(doc["energies"]) == 3
        # explicit flag beats the file
        code, out, _ = run(capsys, "spectrum", "--M", "2", "--config", str(cfg),
                           "--levels", "2")
        doc = json.loads(out)
        assert len(doc["energies"]) == 2

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate = 3\n")
        code, _, err = run(capsys, "spectrum", "--M", "2", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "frobnicate" in err

    def test_repeatable_key_given_once(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps = 0.5\nalpha = 2.0\nformat = json\n")
        code, out, _ = run(capsys, "analyze", "--M", "2", "--config", str(cfg))
        assert code == EXIT_OK
        doc = json.loads(out)
        assert [row["epsilon"] for row in doc["contraction"]] == [0.5]
        assert [row["alpha"] for row in doc["drift"]] == [2.0]

    def test_malformed_line_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("N 70\n")
        code, _, err = run(capsys, "spectrum", "--M", "2", "--config", str(cfg))
        assert code == EXIT_USAGE

    def test_non_utf8_file_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes("N = 70  # Größe\n".encode("latin-1"))
        code, _, err = run(capsys, "spectrum", "--M", "2", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "usage error" in err and "run.cfg" in err and "UTF-8" in err

    def test_unknown_format_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = xml\n")
        code, out, err = run(capsys, "analyze", "--M", "2", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert out == ""
        assert "xml" in err

    def test_missing_file_is_a_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "spectrum", "--M", "2",
                           "--config", str(tmp_path / "missing.cfg"))
        assert code == EXIT_USAGE
        assert "usage error" in err and "missing.cfg" in err

    def test_values_checked_like_flags(self, capsys, tmp_path, monkeypatch):
        # wrong type, empty, outside the choices, or not a flag of the command:
        # each is refused before any solve, naming the key and the file
        monkeypatch.setattr(oscillator, "compute_spectrum", _must_not_solve)
        cfg = tmp_path / "run.cfg"
        for line, key in (("M = 2.5", "--M"), ("levels = 3.7", "--levels"), ("N =", "--N"),
                          ("theta = 1.0", "--theta"), ("parity = sideways", "--parity"),
                          ("levels = false", "--levels"), ("frobnicate = false", "--frobnicate"),
                          ("lev = 3", "--lev"), ("help = true", "help")):
            cfg.write_text(line + "\n")
            code, out, err = run(capsys, "spectrum", "--config", str(cfg))
            assert code == EXIT_USAGE, line
            assert out == ""
            assert key in err and "run.cfg" in err, err
            assert "Traceback" not in err

    def test_key_the_command_does_not_read_rejected(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(asymptotics, "verify_bracket", _must_not_solve)
        monkeypatch.setattr(cli, "run_iteration", _must_not_solve)
        cfg = tmp_path / "run.cfg"
        for command, line, key in (("bracket", "tol = 1e-3", "--tol"),
                                   ("bracket", "A = 100", "--A"),
                                   ("iterate", "steps = 5", "--steps")):
            cfg.write_text(line + "\n")
            code, out, err = run(capsys, command, "--M", "2", "--config", str(cfg),
                                 *(("--upper",) if command == "bracket" else ()))
            assert code == EXIT_USAGE, line
            assert out == "" and key in err and "run.cfg" in err, err

    def test_flag_replaces_file_list(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps = 0.5\nformat = json\n")
        code, out, _ = run(capsys, "analyze", "--M", "2", "--config", str(cfg), "--eps", "1.5")
        assert code == EXIT_OK
        assert [row["epsilon"] for row in json.loads(out)["contraction"]] == [1.5]

    def test_switch_from_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("upper = true\nlower = false\n")
        argv = ("bracket", "--M", "2", "--N", "300", "--format", "json")
        code, from_file, _ = run(capsys, *argv, "--config", str(cfg))
        assert code == EXIT_OK
        assert (code, from_file) == run(capsys, *argv, "--upper")[:2]
        assert json.loads(from_file)["kind"] == "SUPER"
        cfg.write_text("upper = 50\n")
        code, from_file, _ = run(capsys, *argv, "--config", str(cfg))
        assert (code, from_file) == run(capsys, *argv, "--upper", "50")[:2]
        assert json.loads(from_file)["A"] == 50.0

    def test_output_keys_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        for key in ("out", "config"):
            cfg.write_text(f"{key} = {tmp_path / 'other'}\n")
            code, out, err = run(capsys, "analyze", "--M", "2", "--config", str(cfg))
            assert code == EXIT_USAGE
            assert out == "" and key in err and "run.cfg" in err
        assert not (tmp_path / "other").exists()

    def test_bad_flag_returns_usage_code(self, capsys):
        code, out, err = run(capsys, "spectrum", "--M", "2", "--format", "xml")
        assert code == EXIT_USAGE
        assert out == "" and "usage error" in err and "xml" in err

    def test_unwritable_output_fails_before_the_solve(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(oscillator, "compute_spectrum", _must_not_solve)
        code, _, err = run(capsys, "spectrum", "--M", "2", "--out", str(tmp_path))
        assert code == EXIT_USAGE
        assert "usage error" in err

    def test_failed_command_leaves_output_alone(self, capsys, tmp_path):
        argv = ("spectrum", "--M", "2", "--levels", "4", "--N", "60", "--max-steps", "1")
        existing = tmp_path / "existing.csv"
        existing.write_text("level,energy\n0,1.0\n")
        assert run(capsys, *argv, "--out", str(existing))[0] == EXIT_CONVERGENCE
        assert existing.read_text() == "level,energy\n0,1.0\n"
        fresh = tmp_path / "fresh.csv"
        assert run(capsys, *argv, "--out", str(fresh))[0] == EXIT_CONVERGENCE
        assert not fresh.exists()


def _must_not_solve(*args, **kwargs):
    raise AssertionError("the solver ran on input that should have been refused")


def _refuse_every_solve(monkeypatch):
    for module, name in ((oracle, "hamiltonian_eigenvalues"), (oscillator, "compute_spectrum"),
                         (oscillator, "solve_parity"), (asymptotics, "verify_bracket"),
                         (asymptotics, "contraction_integral"), (asymptotics, "drift_integral"),
                         (cli, "run_iteration")):
        monkeypatch.setattr(module, name, _must_not_solve)


@pytest.mark.parametrize("argv, flag", [
    (("spectrum", "--levels", "0"), "--levels"),
    (("spectrum", "--N", "10", "--levels", "21"), "--levels"),
    (("spectrum", "--N", "10", "--parity", "odd", "--levels", "11"), "--levels"),
    (("verify", "--levels", "0"), "--levels"),
    (("verify", "--N", "10", "--levels", "21"), "--levels"),
    (("verify", "--levels", "20", "--oracle-grid", "128"), "--oracle-grid"),
    (("spectrum", "--tol", "abc"), "--tol"),
    # options that the command would not read
    (("bracket", "--upper", "--tol", "1e-3"), "--tol"),
    (("verify", "--parity", "both"), "--parity"),
    # a bound no deviation can meet
    (("verify", "--bound", "-1e-3"), "--bound"),
    # a parameter of the other bracket side, and former spellings of iterate options
    (("bracket", "--lower", "--A", "5"), "--A"),
    (("bracket", "--upper", "--Nparam", "3"), "--Nparam"),
    (("iterate", "--seed-scale", "3"), "--seed-scale"),
    (("iterate", "--steps", "5"), "--steps"),
    # an amplitude without the perturbation it scales
    (("iterate", "--perturb-size", "0.5"), "--perturb-size"),
    # weights outside the convergence strip 0 <= eps < 1 + alpha* = 7/3
    (("iterate", "--eps", "200"), "--eps"),
    (("iterate", "--eps", "2.34"), "--eps"),
    (("iterate", "--eps", "-0.5"), "--eps"),
    # weights where the contraction integral diverges, |eps - 1| >= alpha* = 4/3
    (("analyze", "--eps", "2.34"), "--eps"),
    (("analyze", "--eps", "-0.34"), "--eps"),
    (("analyze", "--eps", "0.5", "--eps", "2.4"), "--eps"),
    # truncations numpy cannot size as one float64 array: from 2**60 - 64 on
    # np.arange(1, N + 1, dtype=float) rounds its length up to 2**60
    (("spectrum", "--N", str(2**60 - 64)), "truncation"),
    (("spectrum", "--N", str(2**60)), "truncation"),
    (("spectrum", "--N", str(2**63 - 1)), "truncation"),
    (("verify", "--N", str(2**60 - 64)), "truncation"),
    (("verify", "--N", str(2**60)), "truncation"),
    (("verify", "--N", str(2**63 - 1)), "truncation"),
    # the doubled truncation of --refine, checked before the oracle runs
    (("verify", "--N", str(2**59), "--refine"), "truncation"),
])
def test_out_of_range_options_are_refused_before_any_solve(capsys, monkeypatch, argv, flag):
    _refuse_every_solve(monkeypatch)
    code, out, err = run(capsys, argv[0], "--M", "2", *argv[1:])
    assert code == EXIT_USAGE
    assert out == "" and flag in err and "usage error" in err, err


# each command's defaults, as main hands them to its handler
_DEFAULTS = {
    "spectrum": {"levels": 10, "N": 500, "tol": 1e-10, "parity": "both",
                 "format": "csv", "max_steps": 400},
    "iterate": {"parity": "odd", "N": 1000, "max_steps": 40, "tol": 1e-10, "eps": 1.0,
                "perturb_eps": None, "perturb_size": None, "format": "csv"},
    "analyze": {"M": None, "theta": None, "format": "csv",
                "eps": (0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 1.9),
                "alpha": (1.1, 1.5, 2.0, 3.0, 8.0)},
    "verify": {"levels": 10, "N": 1000, "tol": 1e-10, "bound": 1e-3,
               "oracle_grid": 2048, "oracle_levels": 3, "oracle_tol": 1e-6,
               "format": "json", "max_steps": 400, "refine": False},
    "bracket": {"parity": "even", "N": 2000, "slack": 1e-8, "format": "csv",
                "upper": None, "lower": None},
}


@pytest.mark.parametrize("command", sorted(_DEFAULTS))
def test_each_command_gets_its_defaults(capsys, monkeypatch, command):
    seen = []
    monkeypatch.setattr(cli, f"cmd_{command}",
                        lambda opts: seen.append(opts) or (EXIT_OK, {}, []))
    side = ("--upper",) if command == "bracket" else ()
    code, _, _ = run(capsys, command, "--M", "2", *side)
    assert code == EXIT_OK
    expected = {**_DEFAULTS[command], "command": command, "M": 2}
    if side:
        expected["upper"] = 100.0
    assert seen == [expected]


def test_no_command_prints_help(capsys):
    code, out, _ = run(capsys)
    assert code == EXIT_USAGE
    assert "spectrum" in out


def test_oversized_truncation_is_a_usage_error(capsys):
    # the 7 PiB seed is refused at once, so nothing is allocated
    code, _, err = run(capsys, "spectrum", "--M", "2", "--N", "1000000000000000")
    assert code == EXIT_USAGE
    assert "usage error" in err and "--N" in err


def test_verify_fails_to_allocate_before_the_oracle(capsys, monkeypatch):
    # 2**59 is the largest truncation OperatorConfig accepts, and its 4 EiB
    # seed cannot be allocated: the solve runs first and fails at once
    def oracle_run(*args, **kwargs):
        raise AssertionError("the oracle ran before the solve")

    monkeypatch.setattr(oracle, "hamiltonian_eigenvalues", oracle_run)
    code, out, err = run(capsys, "verify", "--M", "2", "--N", str(2**59))
    assert code == EXIT_USAGE
    assert out == "" and "usage error" in err and "--N" in err


_DIGITS_401 = "9" * 401


@pytest.mark.parametrize("argv", [
    ("spectrum", "--M", "2", "--N", "9223372036854775808"),
    ("spectrum", "--M", "2", "--N", _DIGITS_401),
    ("spectrum", "--M", "2", "--levels", "-9223372036854775808"),
    ("analyze", "--M", _DIGITS_401),
    ("verify", "--M", "2", "--oracle-grid", _DIGITS_401),
], ids=["N-2**63", "N-401-digits", "levels-minus-2**63", "analyze-M-401-digits",
        "oracle-grid-401-digits"])
def test_integer_options_past_int64_are_usage_errors(capsys, tmp_path, monkeypatch, argv):
    # numpy's int64 holds |value| < 2**63; a flag or a config key past it is
    # refused by the parser and named, before anything runs
    _refuse_every_solve(monkeypatch)
    flag, value = argv[-2:]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag[2:]} = {value}\n")
    for given in (argv, (*argv[:-2], "--config", str(cfg))):
        code, out, err = run(capsys, *given)
        assert code == EXIT_USAGE, given
        assert out == "" and err.startswith("usage error: ") and flag in err, err
        assert "must lie strictly between -2**63 and 2**63" in err


@pytest.mark.parametrize("levels", ["40", "9223372036854775807"])
def test_oracle_grid_past_its_cap_is_refused_before_any_grid(capsys, monkeypatch, levels):
    # 2048 points doubled 39 times would never finish; the cap compares
    # exponents, so the largest level count is refused at once as well
    monkeypatch.setattr(oracle, "_grid_eigenvalues", _must_not_solve)
    _refuse_every_solve(monkeypatch)
    code, out, err = run(capsys, "verify", "--M", "2", "--oracle-levels", levels)
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("usage error: invalid input: the finest grid"), err


def test_oversized_panel_count_names_m(capsys, monkeypatch):
    # the panel count grows like M + 1: M = 1e15 asks for petabytes of panel
    # points, which numpy refuses before any kernel sum is evaluated
    monkeypatch.setattr(quantize, "_kernel_sum", _must_not_solve)
    code, out, err = run(capsys, "spectrum", "--M", "1000000000000000", "--N", "5",
                         "--levels", "1")
    assert code == EXIT_USAGE
    assert out == "" and "does not fit in memory" in err and "--M" in err, err


def test_unwritable_output_is_a_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "analyze", "--M", "2", "--out", str(tmp_path))
    assert code == EXIT_USAGE
    assert "usage error" in err


def test_single_refinement_level_is_invalid_input(capsys, monkeypatch):
    # one level would leave the oracle's self-check, and --oracle-tol, unused
    monkeypatch.setattr(oracle, "hamiltonian_eigenvalues", _must_not_solve)
    monkeypatch.setattr(oscillator, "compute_spectrum", _must_not_solve)
    code, out, err = run(capsys, "verify", "--M", "2", "--oracle-levels", "1")
    assert code == EXIT_USAGE
    assert out == "" and "invalid input: refinement_levels must be at least 2" in err


def test_invalid_stop_rule_is_a_usage_error(capsys):
    for argv in (("iterate", "--M", "2", "--N", "60", "--max-steps", "0"),
                 ("spectrum", "--M", "2", "--levels", "4", "--N", "60", "--tol", "-1")):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == "" and "invalid input" in err


@pytest.mark.parametrize("argv", [
    ("iterate", "--M", "2", "--N", "20", "--perturb-eps", "0", "--perturb-size", "710"),
    ("iterate", "--M", "2", "--N", "20", "--perturb-eps=-1000"),
    ("bracket", "--M", "2", "--upper", "1e300", "--N", "20"),
])
def test_overflow_while_building_input_is_invalid_input(capsys, argv):
    # the overflow gives inf, which the sequence built from it refuses, with no warning
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == "" and "RuntimeWarning" not in err
    assert "invalid input: all entries must be finite and strictly positive" in err


@pytest.mark.parametrize("argv", [
    ("analyze", "--M", "100000000000000000"),
    ("spectrum", "--M", "100000000000000000", "--N", "20", "--levels", "2"),
    ("verify", "--M", "100000000000000000", "--N", "20", "--levels", "2"),
], ids=["analyze", "spectrum-both", "verify"])
def test_angle_rounded_to_pi_is_invalid_input(capsys, monkeypatch, argv):
    # theta = (M - 1) pi / (M + 1) rounds to pi at M = 1e17; nothing is solved
    for module, name in ((asymptotics, "drift_integral"), (oracle, "hamiltonian_eigenvalues"),
                         (oscillator, "compute_spectrum")):
        monkeypatch.setattr(module, name, _must_not_solve)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == "" and "invalid input: theta must lie strictly between 0 and pi" in err


def test_value_error_of_the_solve_is_not_invalid_input(capsys, monkeypatch):
    # only building the inputs maps a ValueError to "invalid input"; one
    # raised by the solve is a fault of the program and propagates
    def broken(*args, **kwargs):
        raise ValueError("internal check failed")

    monkeypatch.setattr(quantize, "apply_quantization", broken)
    with pytest.raises(ValueError, match="internal check failed"):
        main(["spectrum", "--M", "2", "--levels", "4", "--N", "60"])
    assert "invalid input" not in capsys.readouterr().err


def test_library_error_of_the_solve_is_exit_1(capsys, monkeypatch):
    # an OscspecError other than NoConvergence and ResolutionError
    def refuse(*args, **kwargs):
        raise DomainError("refused by the library")

    monkeypatch.setattr(oscillator, "compute_spectrum", refuse)
    code, out, err = run(capsys, "spectrum", "--M", "2")
    assert code == EXIT_CONVERGENCE
    assert out == "" and err.startswith("error: refused by the library")


def test_negative_exponent_notation_is_a_value(capsys):
    argv = ("iterate", "--M", "2", "--N", "60", "--max-steps", "5")
    code, spaced, _ = run(capsys, *argv, "--perturb-eps", "-1e-1")
    assert code == EXIT_OK
    assert spaced == run(capsys, *argv, "--perturb-eps=-1e-1")[1]
    # the value reaches StopRule's check instead of being read as a flag
    code, out, err = run(capsys, "spectrum", "--M", "2", "--tol", "-1e-3")
    assert code == EXIT_USAGE
    assert out == "" and "invalid input" in err


def test_non_finite_float_options_are_usage_errors(capsys, tmp_path, monkeypatch):
    # every float option, flag or config key, refuses nan and inf before any solve
    for module, name in ((asymptotics, "drift_integral"), (asymptotics, "contraction_integral"),
                         (asymptotics, "verify_bracket"), (oracle, "hamiltonian_eigenvalues"),
                         (oscillator, "compute_spectrum"), (cli, "run_iteration")):
        monkeypatch.setattr(module, name, _must_not_solve)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps = nan\n")
    for argv, flag in ((("analyze", "--M", "2", "--eps", "nan"), "--eps"),
                       (("verify", "--M", "2", "--bound", "nan"), "--bound"),
                       (("bracket", "--M", "2", "--upper", "--slack", "nan"), "--slack"),
                       (("spectrum", "--M", "2", "--tol", "inf"), "--tol"),
                       (("iterate", "--M", "2", "--config", str(cfg)), "--eps")):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert out == "" and flag in err and "usage error" in err, (argv, err)


def test_module_runs_as_a_process():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "oscspec.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    done = cli("analyze", "--M", "2", "--format", "json")
    assert done.returncode == EXIT_OK, done.stderr
    assert json.loads(done.stdout)["alpha_star"] == pytest.approx(4.0 / 3.0, abs=1e-14)
    done = cli("spectrum", "--M", "2.5")
    assert done.returncode == EXIT_USAGE
    assert "usage error" in done.stderr and "Traceback" not in done.stderr


def test_import_leaves_integration_and_special_functions_unloaded():
    # no solve path finds a scalar root or needs scipy.special, the
    # verification integrals of analyze are fixed Gauss-Legendre sums and
    # series, and loading these subpackages costs every process ~0.3 s
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    loaded = ("sorted(m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.special') "
              "if m in sys.modules)")
    probe = ("import contextlib, io, sys, oscspec; "
             f"print({loaded}); "
             "from oscspec import cli\n"
             "with contextlib.redirect_stdout(io.StringIO()): "
             "code = cli.main(['analyze', '--M', '2'])\n"
             f"print(code, {loaded})")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "0 []"]


NUMPY_ONLY_ARGVS = (
    ["spectrum", "--M", "2", "--N", "60"],
    ["iterate", "--M", "2", "--N", "60"],
    ["analyze", "--M", "2"],
    ["bracket", "--M", "2", "--N", "200", "--upper", "100"],
)


def run_probe(probe: str) -> list[str]:
    """Stdout lines of a fresh interpreter running `probe` on this tree."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_only_the_oracle_loads_scipy():
    # the solver, analyze and bracket are numpy code; scipy.linalg serves the
    # oracle's tridiagonal eigensolver alone and is imported on its first call
    loaded = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
    probe = ("import contextlib, io, sys, oscspec\n"
             f"print({loaded})\n"
             "from oscspec import cli, oracle\n"
             f"for argv in {NUMPY_ONLY_ARGVS!r}:\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        code = cli.main(argv)\n"
             f"    print(code, {loaded})\n"
             # a coarse grid whose two levels agree to 4e-4, the default 1e-6 refuses it
             "cfg = oracle.OracleConfig(grid_points=512, refinement_levels=2, tolerance=1e-2)\n"
             "oracle.hamiltonian_eigenvalues(2, 4, cfg)\n"
             "print('scipy.linalg' in sys.modules)")
    assert run_probe(probe) == ["[]"] + ["0 []"] * len(NUMPY_ONLY_ARGVS) + ["True"]


def test_solver_commands_need_only_numpy():
    # sys.modules["scipy"] = None makes every scipy import raise ImportError
    argvs = [["spectrum", "--M", "2", "--N", "60", "--format", "json"], *NUMPY_ONLY_ARGVS[1:]]
    run_all = ("import contextlib, io, json\n"
               "from oscspec import cli\n"
               "runs = []\n"
               f"for argv in {argvs!r}:\n"
               "    out = io.StringIO()\n"
               "    with contextlib.redirect_stdout(out):\n"
               "        code = cli.main(argv)\n"
               "    runs.append([code, out.getvalue()])\n"
               "print(json.dumps(runs))")
    blocked = json.loads(run_probe("import sys\nsys.modules['scipy'] = None\n" + run_all)[0])
    normal = json.loads(run_probe(run_all)[0])
    assert [code for code, _ in blocked] == [EXIT_OK] * len(argvs)
    assert blocked == normal


def test_convergence_failure_exit_code(capsys):
    code, _, err = run(capsys, "spectrum", "--M", "2", "--levels", "4", "--N", "60",
                       "--max-steps", "1")
    assert code == EXIT_CONVERGENCE
    assert "convergence" in err.lower()

