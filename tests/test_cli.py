"""Command-line interface: artifacts, exit codes, config precedence."""

import json

import pytest

from oscspec.cli import EXIT_CONVERGENCE, EXIT_OK, EXIT_ORACLE, EXIT_TOLERANCE, EXIT_USAGE, main
from oscspec.tables import parse_csv


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
        assert set(doc) == {"problem", "energies", "levels", "residuals", "iterations"}
        assert len(doc["energies"]) == 4
        assert doc["iterations"]["even"] >= 1

    def test_rejects_harmonic(self, capsys):
        for argv in (("spectrum", "--M", "1", "--levels", "4"), ("iterate", "--M", "1"),
                     ("analyze", "--M", "1"), ("verify", "--M", "1"),
                     ("bracket", "--M", "1", "--upper")):
            code, _, err = run(capsys, *argv)
            assert code == EXIT_USAGE
            assert "at least 2" in err

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


class TestIterate:
    def test_perturbed_run_reports_rate(self, capsys):
        code, out, _ = run(capsys, "iterate", "--M", "2", "--N", "120", "--steps", "25",
                           "--perturb-eps", "1", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["problem"]["parity"] == "odd"
        assert doc["steps"] >= 4
        assert 0.0 < doc["fitted_lambda"] < 1.0
        assert len(doc["residual_sup"]) == doc["steps"]

    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, "iterate", "--M", "2", "--N", "60", "--steps", "6",
                           "--tol", "0")
        assert code == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["step", "residual_sup", "residual_weighted"]
        assert len(rows) == 6

    def test_seed_scale_converges_back(self, capsys):
        code, out, _ = run(capsys, "iterate", "--M", "2", "--N", "60", "--steps", "200",
                           "--seed-scale", "3", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["residual_sup"][-1] <= 1e-10

    def test_fitted_rate_matches_prediction(self, capsys):
        # full-size diagnostic run: the fitted rate sits near alpha - 1 = 1/3
        code, out, _ = run(capsys, "iterate", "--M", "2", "--perturb-eps", "1",
                           "--steps", "30", "--format", "json")
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
        kinds = {row["kind"] for row in rows}
        assert kinds == {"drift", "contraction"}

    def test_requires_angle_or_m(self, capsys):
        code, _, err = run(capsys, "analyze")
        assert code == EXIT_USAGE

    def test_rejects_bad_theta(self, capsys):
        code, _, _ = run(capsys, "analyze", "--theta", "3.5")
        assert code == EXIT_USAGE


class TestVerify:
    def test_passes_with_realistic_bound(self, capsys):
        code, out, _ = run(capsys, "verify", "--M", "2", "--levels", "4", "--N", "150",
                           "--bound", "5e-3", "--oracle-grid", "1024")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["max_rel_dev"] <= 5e-3
        assert len(doc["levels"]) == 4

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
        code, out, _ = run(capsys, "bracket", "--M", "2", "--upper", "--A", "100",
                           "--N", "300", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["kind"] == "SUPER"
        assert doc["verified"] is True

    def test_lower_sub(self, capsys):
        code, out, _ = run(capsys, "bracket", "--M", "2", "--lower", "--Nparam", "6",
                           "--N", "300", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["kind"] == "SUB"
        assert doc["verified"] is True

    def test_requires_side(self, capsys):
        code, _, err = run(capsys, "bracket", "--M", "2", "--N", "300")
        assert code == EXIT_USAGE
        code, _, _ = run(capsys, "bracket", "--M", "2", "--upper", "--lower", "--N", "300")
        assert code == EXIT_USAGE


class TestConfigFile:
    def test_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("N = 70\nlevels = 3  # trailing comment\nformat = json\n")
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


def test_no_command_prints_help(capsys):
    code, out, _ = run(capsys)
    assert code == EXIT_USAGE
    assert "spectrum" in out


def test_oversized_truncation_is_a_usage_error(capsys):
    # the 7 PiB seed is refused at once, so nothing is allocated
    code, _, err = run(capsys, "spectrum", "--M", "2", "--N", "1000000000000000")
    assert code == EXIT_USAGE
    assert "usage error" in err and "--N" in err


def test_unwritable_output_is_a_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "analyze", "--M", "2", "--out", str(tmp_path))
    assert code == EXIT_USAGE
    assert "usage error" in err


def test_convergence_failure_exit_code(capsys):
    code, _, err = run(capsys, "spectrum", "--M", "2", "--levels", "4", "--N", "60",
                       "--max-steps", "1")
    assert code == EXIT_CONVERGENCE
    assert "convergence" in err.lower()

