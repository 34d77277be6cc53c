"""Command-line behavior: exit codes, output routing, and formats."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ranklaws as rl
from ranklaws.cli import _format_params, main


@pytest.fixture
def plain_csv(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("8\n4\n2\n1\n")
    return str(path)


@pytest.fixture
def zipf_csv(tmp_path):
    series = rl.curve(rl.ZipfParams(k=4.0, alpha=1.0), n=12)
    path = tmp_path / "zipf.csv"
    path.write_text("".join(f"{v!r}\n" for v in map(float, series.values)))
    return str(path)


class TestExitCodes:
    def test_missing_file_is_input_error(self, capsys, tmp_path):
        code = main(["fit", str(tmp_path / "nope.csv"), "--model", "zipf"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "nope.csv" in captured.err

    def test_zero_value_rejected_when_asked(self, capsys, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("5\n0\n2\n1\n")
        code = main(["fit", str(path), "--model", "zipf", "--zero-policy", "reject"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "line 2" in captured.err

    def test_duplicate_rank_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("1,9\n2,5\n2,3\n4,1\n")
        code = main(["compare", str(path), "--pre-ranked"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "duplicate rank" in captured.err

    def test_too_short_series_is_fit_error(self, capsys, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("3\n2\n1\n")
        code = main(["fit", str(path), "--model", "beta-like"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "fit error" in captured.err

    def test_unknown_flag_is_usage_error(self, capsys, plain_csv):
        code = main(["fit", plain_csv, "--model", "zipf", "--bogus"])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""

    def test_out_of_range_probability_is_usage_error(self, capsys):
        code = main(["simulate", "--p-new", "1.5", "--steps", "100"])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert "p_new" in captured.err

    def test_help_exits_clean(self, capsys):
        assert main(["--help"]) == 0
        assert "ranklaws" in capsys.readouterr().out

    def test_bad_delimiter_is_usage_error(self, capsys, plain_csv):
        assert main(["fit", plain_csv, "--model", "zipf", "--delimiter", "ab"]) == 64

    def test_invalid_utf8_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xff\xfe\x00bad")
        assert main(["fit", str(path), "--model", "zipf"]) == 1
        assert "UTF-8" in capsys.readouterr().err

    def test_quiet_silences_diagnostics(self, capsys, tmp_path):
        code = main(["fit", str(tmp_path / "nope.csv"), "--model", "zipf", "--quiet"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        assert captured.out == ""


class TestFitCommand:
    def test_json_document_shape(self, capsys, zipf_csv):
        assert main(["fit", zipf_csv, "--model", "zipf", "--quiet"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"tool_version", "input_digest", "series", "fit", "warnings"}
        assert doc["series"]["n"] == 12
        assert doc["series"]["max"] == 4.0
        assert doc["fit"]["model"] == "zipf"
        assert doc["fit"]["params"]["alpha"] == pytest.approx(1.0, abs=1e-10)
        assert doc["fit"]["r_squared"] == pytest.approx(1.0, abs=1e-12)
        assert len(doc["fit"]["residuals"]) == 12

    def test_repeat_runs_are_byte_identical(self, capsys, zipf_csv):
        main(["fit", zipf_csv, "--model", "zipf", "--quiet"])
        first = capsys.readouterr().out
        main(["fit", zipf_csv, "--model", "zipf", "--quiet"])
        assert capsys.readouterr().out == first
        assert first.endswith("\n")
        assert "\r" not in first

    def test_summary_goes_to_stderr_with_stdout_payload(self, capsys, plain_csv):
        assert main(["fit", plain_csv, "--model", "zipf"]) == 0
        captured = capsys.readouterr()
        json.loads(captured.out)
        assert "zipf: K=" in captured.err
        assert "R^2=" in captured.err

    def test_output_file_moves_summary_to_stdout(self, capsys, tmp_path, plain_csv):
        out = tmp_path / "report.json"
        assert main(["fit", plain_csv, "--model", "zipf", "--output", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "zipf: K=" in captured.out
        json.loads(out.read_text())

    def test_constant_series_summary(self, capsys, tmp_path):
        path = tmp_path / "const.csv"
        path.write_text("2.5\n2.5\n2.5\n2.5\n")
        assert main(["fit", str(path), "--model", "zipf"]) == 0
        err = capsys.readouterr().err
        assert "alpha=0.0000" in err
        assert "R^2=1.0000" in err
        for model, params in (("lavalette", "K=2.5000 b=0.0000"), ("beta-like", "K=2.5000 a=0.0000 b=0.0000")):
            assert main(["fit", str(path), "--model", model]) == 0
            assert capsys.readouterr().err == f"{model}: {params} R^2=1.0000\n"

    def test_dropped_rows_become_warnings(self, capsys, tmp_path):
        path = tmp_path / "holes.csv"
        path.write_text("5\n0\n3\n-1\n2\n1\n")
        assert main(["fit", str(path), "--model", "zipf", "--quiet"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["series"]["n"] == 4
        assert len(doc["warnings"]) == 2
        assert any("line 2" in w for w in doc["warnings"])

    def test_physics_like_fixture_fits_tightly(self, capsys, tmp_path):
        series = rl.generate_synthetic(
            rl.BetaLikeParams(k=0.0273, a=0.4058, b=0.991, n=200), rl.NoiseSpec(sigma=0.05, seed=1)
        )
        path = tmp_path / "physics.csv"
        path.write_text("".join(f"{v!r}\n" for v in map(float, series.values)))
        assert main(["fit", str(path), "--model", "beta-like"]) == 0
        captured = capsys.readouterr()
        r_squared = float(captured.err.rsplit("R^2=", 1)[1])
        assert r_squared >= 0.9990
        assert json.loads(captured.out)["fit"]["r_squared"] >= 0.9990

    def test_pre_ranked_with_labels_and_delimiter(self, capsys, tmp_path):
        path = tmp_path / "ranked.tsv"
        path.write_text("2\tsecond\t4\n1\tfirst\t9\n3\tthird\t1\n")
        assert main(["fit", str(path), "--model", "zipf", "--pre-ranked",
                     "--delimiter", "\t", "--quiet"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["series"]["n"] == 3
        assert doc["series"]["max"] == 9.0


class TestParamSummary:
    @pytest.mark.parametrize(
        "params,text",
        [
            (rl.ZipfParams(k=2.0, alpha=1.25), "K=2.0000 alpha=1.2500"),
            (rl.MandelbrotParams(rho=3.5, epsilon=-0.125, n=9), "rho=3.5000 epsilon=-0.1250"),
            (rl.LavaletteParams(k=0.5, b=0.75, n=9), "K=0.5000 b=0.7500"),
            (rl.BetaLikeParams(k=0.0273, a=0.4058, b=0.991, n=9), "K=0.0273 a=0.4058 b=0.9910"),
        ],
    )
    def test_format_params(self, params, text):
        assert _format_params(params) == text


class TestCompareCommand:
    def test_table_and_document(self, capsys, tmp_path):
        series = rl.generate_synthetic(
            rl.BetaLikeParams(k=1.0, a=0.45, b=0.9, n=120), rl.NoiseSpec(sigma=0.02, seed=5)
        )
        path = tmp_path / "beta.csv"
        path.write_text("".join(f"{v!r}\n" for v in map(float, series.values)))
        assert main(["compare", str(path)]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["comparison"]["best_by_r2"] == "beta-like"
        assert doc["comparison"]["nesting_ok"] is True
        assert [r["model"] for r in doc["comparison"]["reports"]] == list(rl.MODEL_TAGS)
        assert "best: beta-like   nesting_ok: true" in captured.err
        assert captured.err.splitlines()[0].startswith("model")

    def test_empty_file_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert main(["compare", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no data rows" in captured.err


class TestGenerateCommand:
    def test_round_trip_through_fit(self, capsys, tmp_path):
        path = tmp_path / "gen.csv"
        assert main(["generate", "--model", "lavalette", "--k", "2", "--b", "0.7",
                     "--n", "60", "--sigma", "0.05", "--seed", "11",
                     "--output", str(path), "--quiet"]) == 0
        capsys.readouterr()
        assert main(["fit", str(path), "--model", "lavalette", "--quiet"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fit"]["params"]["b"] == pytest.approx(0.7, abs=0.1)
        assert doc["fit"]["r_squared"] > 0.99

    def test_same_seed_same_bytes(self, capsys):
        argv = ["generate", "--model", "zipf", "--k", "1", "--alpha", "1.1",
                "--n", "20", "--sigma", "0.3", "--seed", "8", "--quiet"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_noiseless_output_equals_curve_values(self, capsys):
        assert main(["generate", "--model", "beta-like", "--k", "0.0273", "--a", "0.4058",
                     "--b", "0.991", "--n", "100", "--sigma", "0", "--seed", "1",
                     "--quiet"]) == 0
        lines = capsys.readouterr().out.splitlines()
        curve = rl.curve(rl.BetaLikeParams(k=0.0273, a=0.4058, b=0.991, n=100))
        assert len(lines) == 100
        assert [float(x) for x in lines] == curve.values.tolist()

    def test_integer_values_render_without_decimal_point(self, capsys):
        assert main(["generate", "--model", "zipf", "--k", "4", "--alpha", "1",
                     "--n", "2", "--quiet"]) == 0
        assert capsys.readouterr().out == "4\n2\n"

    def test_missing_parameter_flags(self, capsys):
        assert main(["generate", "--model", "beta-like", "--n", "10", "--k", "1"]) == 64
        assert capsys.readouterr().err == "ranklaws: error: model beta-like requires --n --k --a --b\n"
        assert main(["generate", "--model", "zipf", "--n", "10"]) == 64
        assert capsys.readouterr().err == "ranklaws: error: model zipf requires --n --k --alpha\n"

    def test_inapplicable_flag_rejected(self, capsys):
        assert main(["generate", "--model", "zipf", "--n", "10", "--k", "1",
                     "--alpha", "1", "--rho", "2"]) == 64
        assert "--rho" in capsys.readouterr().err
        # With several extra flags the first in option order is named.
        assert main(["generate", "--model", "zipf", "--n", "10", "--k", "1",
                     "--alpha", "1", "--rho", "1", "--a", "1"]) == 64
        assert capsys.readouterr().err == "ranklaws: error: --a does not apply to model zipf\n"

    def test_zero_length_rejected(self, capsys):
        assert main(["generate", "--model", "zipf", "--n", "0", "--k", "1",
                     "--alpha", "1"]) == 64

    def test_negative_sigma_rejected(self, capsys):
        assert main(["generate", "--model", "zipf", "--n", "5", "--k", "1",
                     "--alpha", "1", "--sigma", "-0.5"]) == 64


class TestSimulateCommand:
    def test_single_step(self, capsys):
        assert main(["simulate", "--p-new", "0.5", "--steps", "1", "--quiet"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_counts_and_summary(self, capsys):
        assert main(["simulate", "--p-new", "0.2", "--steps", "500", "--seed", "3"]) == 0
        captured = capsys.readouterr()
        counts = [int(line) for line in captured.out.splitlines()]
        assert sum(counts) == 500
        assert counts == sorted(counts, reverse=True)
        assert "simulated 500 items" in captured.err

    def test_deterministic_across_runs(self, capsys):
        argv = ["simulate", "--p-new", "0.1", "--steps", "800", "--seed", "6", "--quiet"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first


class TestModuleEntryPoint:
    @staticmethod
    def run_module(*args):
        src = str(Path(rl.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        return subprocess.run(
            [sys.executable, "-m", "ranklaws", *args], env=env, capture_output=True, timeout=60
        )

    def test_same_bytes_as_main(self, capsysbinary):
        argv = ["simulate", "--p-new", "0.1", "--steps", "1000", "--seed", "0"]
        assert main(argv) == 0
        proc = self.run_module(*argv)
        assert proc.returncode == 0
        assert proc.stdout == capsysbinary.readouterr().out

    def test_bare_invocation_is_usage_error(self):
        proc = self.run_module()
        assert proc.returncode == 64
        assert proc.stdout == b""


class TestPlotdataCommand:
    def test_noiseless_columns_agree(self, capsys, zipf_csv):
        assert main(["plotdata", zipf_csv, "--model", "zipf", "--quiet"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "rank\tobserved\tfitted\tlog_residual"
        assert len(lines) == 13
        for i, line in enumerate(lines[1:], start=1):
            rank, observed, fitted, resid = line.split("\t")
            assert int(rank) == i
            assert float(fitted) == pytest.approx(float(observed), rel=1e-8)
            assert abs(float(resid)) < 1e-8

    def test_constant_input_zero_residuals(self, capsys, tmp_path):
        path = tmp_path / "const.csv"
        path.write_text("3\n3\n3\n3\n")
        assert main(["plotdata", str(path), "--model", "lavalette", "--quiet"]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [r[1] for r in rows] == ["3", "3", "3", "3"]
        assert [r[3] for r in rows] == ["0", "0", "0", "0"]

    def test_short_series_is_fit_error(self, capsys, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("3\n2\n1\n")
        assert main(["plotdata", str(path), "--model", "beta-like"]) == 2
        assert capsys.readouterr().out == ""
