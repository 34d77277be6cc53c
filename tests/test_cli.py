"""Command-line behavior: exit codes, output routing, and formats."""

from __future__ import annotations

import contextlib
import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ranklaws as rl
from ranklaws import cli
from ranklaws.cli import _format_params, main
from ranklaws.fit import FitReport
from conftest import traced_peak

FIXTURE = str(Path(__file__).parent / "data" / "betalike_n200_sigma01_seed42.csv")


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

    @pytest.mark.parametrize("argv, extra", [
        (["generate", "--model", "zipf", "--k", "1", "--alpha", "1", "--n", "20", "--delimiter", ";"], "--delimiter ;"),
        (["fit", "INPUT", "--model", "zipf", "--bogus"], "--bogus"),
    ])
    def test_unknown_flag_reported_under_subcommand_usage(self, capsys, plain_csv, argv, extra):
        code = main([plain_csv if arg == "INPUT" else arg for arg in argv])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert captured.err.startswith(f"usage: ranklaws {argv[0]} [-h] ")
        assert captured.err.endswith(f"\nranklaws {argv[0]}: error: unrecognized arguments: {extra}\n")

    def test_unknown_flag_before_subcommand_keeps_top_level_usage(self, capsys, plain_csv):
        code = main(["--bogus", "fit", plain_csv, "--model", "zipf"])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert captured.err.startswith("usage: ranklaws [-h] {fit,")
        assert captured.err.endswith("\nranklaws: error: unrecognized arguments: --bogus\n")

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

    @pytest.mark.parametrize("content", [None, b"\xff\xfe\x00bad"], ids=["missing", "not-utf-8"])
    @pytest.mark.parametrize("command", [["fit", "--model", "zipf"], ["compare"], ["plotdata", "--model", "zipf"]])
    def test_bad_flag_reported_before_bad_input(self, capsys, tmp_path, command, content):
        # The flags are checked before the input is read, so the flag error wins.
        path = tmp_path / "input.csv"
        if content is not None:
            path.write_bytes(content)
        assert main([command[0], str(path), *command[1:], "--delimiter", "ab"]) == 64
        assert capsys.readouterr() == (
            "", "ranklaws: error: delimiter must be a single printable character or tab, got 'ab'\n")

    @pytest.mark.parametrize("command", [["fit", "--model", "zipf"], ["compare"], ["plotdata", "--model", "zipf"]])
    def test_quote_delimiter_is_usage_error(self, capsys, command):
        # csv accepts '"' as a delimiter before Python 3.13 and raises a bare ValueError from then on.
        assert main([command[0], FIXTURE, *command[1:], "--delimiter", '"']) == 64
        assert capsys.readouterr() == (
            "", "ranklaws: error: delimiter must not be the quote character '\"', got '\"'\n")

    @pytest.mark.parametrize("command", [["fit", "--model", "zipf"], ["compare"], ["plotdata", "--model", "zipf"]])
    def test_number_character_delimiter_is_usage_error(self, capsys, tmp_path, command):
        # Split at '.', the cells 4.5, 3.25 and 2.125 would read as the series 125, 25, 5.
        path = tmp_path / "decimals.csv"
        path.write_text("4.5\n3.25\n2.125\n")
        assert main([command[0], str(path), *command[1:], "--delimiter", "."]) == 64
        assert capsys.readouterr() == (
            "", "ranklaws: error: delimiter must not occur in numbers: a digit or one of '.+-eE_', got '.'\n")

    def test_invalid_utf8_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xff\xfe\x00bad")
        assert main(["fit", str(path), "--model", "zipf"]) == 1
        assert "UTF-8" in capsys.readouterr().err

    def test_bare_carriage_return_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "cr.csv"
        path.write_bytes(b"a\rb,1.0\nc,2.0\n")
        code = main(["fit", str(path), "--model", "zipf"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("ranklaws: error: line 1: ")

    # Each input's zipf fit error.
    ZIPF_OVERFLOWS = {
        # the fitted law overflows at the low ranks
        "1e300\n1152921504606846976\n12345\n3.5\n1\n0.1\n1e-310\n": "zipf fit is not finite in double precision (log_sse=",
        # the fitted K overflows
        "1.7e308\n1.6e308\n1.5e308\n1e-300\n": "zipf fit: K is outside the double range (log k = 966.9",
    }

    @pytest.mark.parametrize("command, prefix", [(["fit", "--model", "zipf"], ""), (["compare"], "zipf: ")])
    @pytest.mark.parametrize("text", ZIPF_OVERFLOWS)
    def test_overflowing_fit_is_fit_error(self, capsys, tmp_path, command, prefix, text):
        path = tmp_path / "decades.csv"
        path.write_text(text)
        code = main([command[0], str(path), *command[1:]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"ranklaws: fit error: {prefix}{self.ZIPF_OVERFLOWS[text]}")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command, prefix, text", [
        (["fit", "--model", "beta-like"], "", "1.7976931348623157e308\n" * 3 + "1e300\n" * 2 + "1\n1e-300\n"),
        (["fit", "--model", "beta-like"], "", "1e100\n1\n1\n1\n1e-307\n"),
        (["compare"], "beta-like: ", "1e100\n1\n1\n1\n1e-307\n"),
    ])
    def test_underflowing_k_is_fit_error(self, capsys, tmp_path, command, prefix, text):
        path = tmp_path / "under.csv"
        path.write_text(text)
        code = main([command[0], str(path), *command[1:]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        error = f"ranklaws: fit error: {prefix}beta-like fit: K is outside the double range (log k = -"
        assert captured.err.startswith(error)
        assert captured.err.count("\n") == 1

    def test_quiet_silences_diagnostics(self, capsys, tmp_path):
        code = main(["fit", str(tmp_path / "nope.csv"), "--model", "zipf", "--quiet"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ""
        assert captured.out == ""

    @pytest.mark.parametrize("quiet", [False, True])
    def test_unwritable_output_is_input_error(self, capsys, tmp_path, plain_csv, quiet):
        out = tmp_path / "missing" / "x.json"
        code = main(["fit", plain_csv, "--model", "zipf", "--output", str(out), *["--quiet"] * quiet])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        if quiet:
            assert captured.err == ""
        else:
            assert captured.err.startswith("ranklaws: error: ")
            assert captured.err.count("\n") == 1
            assert "x.json" in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["generate", "--model", "zipf", "--k", "1", "--alpha", "1", "--n", str(10**23)],
         f"n must be at most 2**53, got {10**23}"),
        (["generate", "--model", "beta-like", "--k", "1", "--a", "1", "--b", "1", "--n", str(2**53 + 1)],
         f"n must be at most 2**53, got {2**53 + 1}"),
        (["simulate", "--p-new", "0.1", "--steps", str(10**20)], f"steps must be at most 2**53, got {10**20}"),
    ], ids=["zipf-n-10**23", "beta-like-n-2**53+1", "steps-10**20"])
    def test_size_past_exact_doubles_is_usage_error(self, capsys, argv, message):
        assert main(argv) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ranklaws: error: {message}\n"

    @pytest.mark.parametrize("name, argv", [
        ("generate_synthetic", ["generate", "--model", "zipf", "--k", "1", "--alpha", "1", "--n", str(10**15)]),
        ("simulate_simon", ["simulate", "--p-new", "0.1", "--steps", str(10**15)]),
    ], ids=["generate", "simulate"])
    @pytest.mark.parametrize("quiet", [False, True])
    def test_unallocatable_size_is_exit_1(self, capsys, monkeypatch, name, argv, quiet):
        # A size within 2**53 that still cannot be allocated; the refusal is
        # simulated, so the test never asks for the memory.
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.11 PiB for an array with shape (1000000000000000,)")

        monkeypatch.setattr(cli, name, refuse)
        assert main([*argv, *["--quiet"] * quiet]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("" if quiet else "ranklaws: error: Unable to allocate 7.11 PiB for an array "
                                                 "with shape (1000000000000000,)\n")

    @pytest.mark.parametrize("flag", [["--delimiter", ";"], ["--zero-policy", "reject"], ["--pre-ranked"]])
    @pytest.mark.parametrize("command", [["generate", "--model", "zipf", "--n", "3", "--k", "1", "--alpha", "1"],
                                         ["simulate", "--p-new", "0.5", "--steps", "10"]])
    def test_input_flags_only_on_commands_that_read_input(self, capsys, command, flag):
        assert main([*command, *flag]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag[0]}" in captured.err


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
            # The beta-like fit of nineteen values of 1e210: outside 1e-4 <= |v| < 1e6, .4e.
            (rl.BetaLikeParams(k=1.0000000000000402e+210, a=5.344688343059086e-29, b=-5.297033824032705e-29, n=19),
             "K=1.0000e+210 a=5.3447e-29 b=-5.2970e-29"),
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

    def test_law_flags_follow_the_law_table(self, capsys, monkeypatch):
        # A law that gains a field gains its flag, in the help and in the check, with no CLI edit.
        @dataclasses.dataclass(frozen=True)
        class ScaledMandelbrot(rl.MandelbrotParams):
            k: float

        monkeypatch.setitem(rl.models.LAWS, "mandelbrot", ScaledMandelbrot)
        monkeypatch.setenv("COLUMNS", "200")  # argparse wraps help lines at the terminal width
        assert main(["generate", "--help"]) == 0
        help_lines = [line.split(maxsplit=2) for line in capsys.readouterr().out.splitlines()]
        assert ["--k", "K", "scale factor K (zipf, mandelbrot, lavalette, beta-like)"] in help_lines
        assert main(["generate", "--model", "mandelbrot", "--n", "10", "--rho", "1", "--epsilon", "0.2"]) == 64
        assert capsys.readouterr() == ("", "ranklaws: error: model mandelbrot requires --n --rho --epsilon --k\n")

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

    @pytest.mark.parametrize("flags, message", [
        (["--alpha", "-400"], "values must all be finite"),
        (["--alpha", "400"], "values must all be strictly positive"),
        (["--alpha", "1", "--sigma", "1000", "--seed", "3"], "values must all be finite"),
    ])
    @pytest.mark.parametrize("quiet", [False, True])
    def test_values_outside_double_range_rejected(self, capsys, flags, message, quiet):
        argv = ["generate", "--model", "zipf", "--k", "1", "--n", "20", *flags, *["--quiet"] * quiet]
        assert main(argv) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("" if quiet else f"ranklaws: error: {message}\n")


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

    def test_golden_digest(self, capsysbinary):
        # How the kernel resolves owners may change, the stream it consumes
        # and the bytes it leads to may not.
        assert main(["simulate", "--p-new", "0.1", "--steps", "1000000", "--seed", "3"]) == 0
        out = capsysbinary.readouterr().out
        assert hashlib.sha256(out).hexdigest() == "2233c228118b1ea09322268545bfc584c809394780991134070e78f166a0e98d"


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


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")


class TestFailedStdoutExit:
    """A write to stdout that fails exits 1 through ``main`` with one error line.

    The child runs with Python's default buffered stdout, so the failing
    bytes are the last buffered ones: they reach the stream only when
    flushed. Left to the interpreter's exit flush they would exit 120 and
    print "Exception ignored", also under --quiet. The same holds for
    stderr, and for a standard stream closed before the child starts.
    """

    COMMANDS = {
        "fit": ["fit", FIXTURE, "--model", "zipf"],
        "simulate": ["simulate", "--p-new", "0.1", "--steps", "1000"],
        "generate": ["generate", "--model", "zipf", "--k", "1", "--alpha", "1", "--n", "20"],
    }

    @staticmethod
    def run_module(args, stdout, stderr=subprocess.PIPE, **kwargs):
        src = str(Path(rl.__file__).resolve().parent.parent)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "ranklaws", *args], env=env, stdout=stdout,
                              stderr=stderr, timeout=60, **kwargs)

    def run_to_dev_full(self, args):
        with open("/dev/full", "wb") as full:
            return self.run_module(args, full)

    def run_to_closed_pipe(self, args):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            return self.run_module(args, write_end)
        finally:
            os.close(write_end)

    def run_with_bad_stderr(self, args, stderr, **kwargs):
        # stderr on /dev/full, or fd 2 closed before exec, so that Python sets sys.stderr to None.
        if stderr == "closed":
            return self.run_module(args, subprocess.PIPE, None, preexec_fn=lambda: os.close(2), **kwargs)
        with open("/dev/full", "wb") as full:
            return self.run_module(args, subprocess.PIPE, full, **kwargs)

    @staticmethod
    def assert_one_error(proc, quiet, code):
        # One error line and nothing else: no summary, no "Exception ignored".
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == (b"" if quiet else f"ranklaws: error: {OSError(code, os.strerror(code))}\n".encode())

    @needs_dev_full
    @pytest.mark.parametrize("quiet", [False, True])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_full_disk(self, command, quiet):
        proc = self.run_to_dev_full(self.COMMANDS[command] + ["--quiet"] * quiet)
        self.assert_one_error(proc, quiet, errno.ENOSPC)

    @pytest.mark.parametrize("quiet", [False, True])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_closed_pipe(self, command, quiet):
        proc = self.run_to_closed_pipe(self.COMMANDS[command] + ["--quiet"] * quiet)
        self.assert_one_error(proc, quiet, errno.EPIPE)

    @needs_dev_full
    def test_summary_after_output_file(self, tmp_path):
        # The report is complete on disk; only the summary fails, on stdout.
        out, reference = tmp_path / "x.json", tmp_path / "reference.json"
        proc = self.run_to_dev_full(["compare", FIXTURE, "--output", str(out)])
        self.assert_one_error(proc, False, errno.ENOSPC)
        assert main(["compare", FIXTURE, "--output", str(reference), "--quiet"]) == 0
        assert out.read_bytes() == reference.read_bytes()

    @pytest.mark.skipif(os.name != "posix", reason="closes the child's fd 1 before exec")
    def test_closed_stdout_left_alone(self, tmp_path):
        # Started with fd 1 closed, Python sets sys.stdout to None; a run
        # that writes nothing there still succeeds.
        out, reference = tmp_path / "x.json", tmp_path / "reference.json"
        proc = self.run_module(["compare", FIXTURE, "--output", str(out), "--quiet"], None,
                               preexec_fn=lambda: os.close(1))
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert main(["compare", FIXTURE, "--output", str(reference), "--quiet"]) == 0
        assert out.read_bytes() == reference.read_bytes()

    @needs_dev_full
    def test_help_text(self):
        # argparse ignores an OSError while writing help, so only the flush
        # that main makes can see this one.
        proc = self.run_to_dev_full(["--help"])
        self.assert_one_error(proc, False, errno.ENOSPC)

    @needs_dev_full
    @pytest.mark.parametrize("stderr", ["full", "closed"])
    @pytest.mark.parametrize("quiet", [False, True])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_unwritable_stderr(self, command, quiet, stderr):
        # The output is complete on stdout; a summary that cannot be written
        # exits 1 like any failed write, and the error line about it is lost.
        args = self.COMMANDS[command] + ["--quiet"] * quiet
        proc = self.run_with_bad_stderr(args, stderr)
        reference = self.run_module(args + ["--quiet"], subprocess.PIPE)
        assert (reference.returncode, reference.stderr) == (0, b"")
        assert (proc.returncode, proc.stdout) == (0 if quiet else 1, reference.stdout)

    @needs_dev_full
    @pytest.mark.parametrize("stderr", ["full", "closed"])
    @pytest.mark.parametrize("argv, code", [
        (["fit", "nope.csv", "--model", "zipf"], 1),
        (["fit", FIXTURE, "--model", "zipf", "--bogus"], 64),
    ], ids=["missing-input", "unknown-flag"])
    def test_error_with_unwritable_stderr(self, tmp_path, argv, code, stderr):
        # The error keeps its exit code, and its line never goes to stdout.
        proc = self.run_with_bad_stderr(argv, stderr, cwd=tmp_path)
        assert (proc.returncode, proc.stdout) == (code, b"")

    @pytest.mark.skipif(os.name != "posix", reason="closes the child's fd 1 before exec")
    @pytest.mark.parametrize("written", ["report", "summary", "help"])
    def test_closed_stdout_written_to(self, tmp_path, written):
        # Started with fd 1 closed, a run that writes its report, its summary
        # (after --output) or --help there fails like a write to a closed fd.
        out, reference = tmp_path / "x.json", tmp_path / "reference.json"
        args = {"report": self.COMMANDS["fit"], "summary": ["compare", FIXTURE, "--output", str(out)],
                "help": ["--help"]}[written]
        proc = self.run_module(args, None, preexec_fn=lambda: os.close(1))
        self.assert_one_error(proc, False, errno.EBADF)
        if written == "summary":
            assert main(["compare", FIXTURE, "--output", str(reference), "--quiet"]) == 0
            assert out.read_bytes() == reference.read_bytes()


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

    def test_warnings_precede_summary(self, capsys, tmp_path):
        holes = tmp_path / "holes.csv"
        holes.write_text("5\n0\n3\n2\n1\n")
        clean = tmp_path / "clean.csv"
        clean.write_text("5\n3\n2\n1\n")
        dropped = "ranklaws: warning: line 2: dropped non-positive value 0.0"
        assert main(["plotdata", str(clean), "--model", "zipf"]) == 0
        tsv, summary = capsys.readouterr()
        assert main(["plotdata", str(holes), "--model", "zipf"]) == 0
        assert capsys.readouterr() == (tsv, f"{dropped}\n{summary}")
        assert main(["plotdata", str(holes), "--model", "zipf", "--quiet"]) == 0
        assert capsys.readouterr() == (tsv, "")
        out = tmp_path / "plot.tsv"
        assert main(["plotdata", str(holes), "--model", "zipf", "--output", str(out)]) == 0
        assert capsys.readouterr() == (f"{dropped}\n{summary}", "")
        assert out.read_text() == tsv
        # A fit warning (the rho search stopping at its bracket edge) follows the parse warnings.
        assert main(["plotdata", str(holes), "--model", "mandelbrot"]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err[0] == dropped
        assert err[1] == ("ranklaws: warning: rho search converged at the upper end of the bracket, 10 N (rho=40); "
                          "fit may be unreliable")
        assert err[2].startswith("mandelbrot: rho=")
        assert len(err) == 3


def _reference_value(v: float) -> str:
    return str(int(v)) if v.is_integer() else repr(v)


class TestCsvWriters:
    VALUES = [1e300, 2.0**60, 12345.0, 3.5, 1.0, 0.1, 1e-310, 5e-324]

    def test_series_csv_matches_per_element_format(self):
        series = rl.RankedSeries(np.array(self.VALUES))
        assert "".join(cli._series_csv(series)) == "".join(_reference_value(v) + "\n" for v in self.VALUES)

    def test_series_csv_across_slices(self):
        # Lines just before, on and just after the slice edges, each value on its own line.
        values = np.arange(2 * cli._LIST_SLICE + 1, 0, -1) / 8.0
        chunks = list(cli._series_csv(rl.RankedSeries(values)))
        assert len(chunks) == 3
        assert "".join(chunks) == "".join(_reference_value(v) + "\n" for v in values.tolist())

    def test_series_csv_runs_across_slices(self):
        # Runs of 1000 equal values, three of them crossing a slice edge, the last one cut short.
        n = 3 * cli._LIST_SLICE + 5
        values = np.repeat(np.arange(n // 1000 + 1, 0, -1) / 8.0, 1000)[:n]
        chunks = list(cli._series_csv(rl.RankedSeries(values)))
        assert [chunk.count("\n") for chunk in chunks] == [cli._LIST_SLICE] * 3 + [5]
        assert "".join(chunks) == "".join(_reference_value(v) + "\n" for v in values.tolist())

    def test_plotdata_matches_per_element_format(self, capsys, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("".join(f"{v!r}\n" for v in self.VALUES))
        assert main(["plotdata", str(path), "--model", "lavalette", "--quiet"]) == 0
        series = rl.RankedSeries(np.array(self.VALUES))
        rep = rl.fit_model(series, "lavalette")
        fitted = rl.models.model_values(rep.params, series.n)
        expected = ["rank\tobserved\tfitted\tlog_residual"] + [
            f"{i + 1}\t{_reference_value(float(series.values[i]))}\t{_reference_value(float(fitted[i]))}"
            f"\t{_reference_value(float(rep.residuals[i]))}"
            for i in range(series.n)
        ]
        assert capsys.readouterr().out == "\n".join(expected) + "\n"


_json_text = st.one_of(st.text(max_size=8), st.text('"\\\x00\x01\x1f\x7f\n\t\u00e9\u2028', max_size=8))
_json_floats = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e308]),
    st.floats().map(np.float64),
)
# float64 arrays, such as the residuals, are encoded as the list of their values.
_json_arrays = st.lists(_json_floats, max_size=8).map(lambda xs: np.array(xs, dtype=np.float64))
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _json_text, _json_floats, _json_arrays),
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(_json_text, children, max_size=6),
    ),
    max_leaves=25,
)


class TestReportEncoding:
    @given(st.one_of(st.dictionaries(_json_text, _json_values), _json_values))
    @example({"residuals": [i / 7 for i in range(2 * cli._LIST_SLICE + 1)], "rows": [[1.5, None, "x"]] * 3})
    @example({"residuals": np.arange(2 * cli._LIST_SLICE + 1) / 7, "empty": np.array([]),
              "pair": np.array([-0.0, 5e-324])})
    @settings(max_examples=200, deadline=None)
    def test_matches_indented_json_dumps(self, obj):
        expected = json.dumps(obj, sort_keys=True, indent=2, default=np.ndarray.tolist) + "\n"
        assert "".join(cli._json(obj)) == expected

    @pytest.mark.parametrize("argv", [["fit", FIXTURE, "--model", "beta-like"], ["compare", FIXTURE]])
    def test_real_documents_match_indented_json_dumps(self, capsys, monkeypatch, argv):
        docs = []
        encode = cli._json

        def spy(obj):
            docs.append(obj)
            return encode(obj)

        monkeypatch.setattr(cli, "_json", spy)
        assert main([*argv, "--quiet"]) == 0
        assert len(docs) == 1
        expected = json.dumps(docs[0], sort_keys=True, indent=2, default=np.ndarray.tolist) + "\n"
        assert capsys.readouterr().out == expected

    def test_document_layout(self):
        rep = FitReport(model="zipf", params=rl.ZipfParams(k=2.0, alpha=1.5), r_squared=0.75, log_sse=0.05,
                        residuals=[0.1, -0.2], n=2, warnings=("fit note",))
        series = rl.RankedSeries([3.0, 1.5])
        doc = cli._document("0123456789abcdef", series, ["line 2: dropped non-positive value 0.0"], "fit",
                            cli._fit_payload(rep))
        assert "".join(doc) == f"""{{
  "fit": {{
    "log_sse": 0.05,
    "model": "zipf",
    "n": 2,
    "params": {{
      "alpha": 1.5,
      "k": 2.0
    }},
    "r_squared": 0.75,
    "residuals": [
      0.1,
      -0.2
    ],
    "warnings": [
      "fit note"
    ]
  }},
  "input_digest": "0123456789abcdef",
  "series": {{
    "max": 3.0,
    "min": 1.5,
    "n": 2
  }},
  "tool_version": "{rl.__version__}",
  "warnings": [
    "line 2: dropped non-positive value 0.0"
  ]
}}
"""

    def test_report_written_in_slices(self, tmp_path):
        # Writing holds one slice of residuals as text at a time, never a
        # list of every residual or the whole document.
        n = 200_000
        series = rl.generate_synthetic(rl.BetaLikeParams(k=0.0273, a=0.4058, b=0.991, n=n),
                                       rl.NoiseSpec(sigma=0.1, seed=7))
        rep = rl.fit_model(series, "beta-like")
        out = tmp_path / "fit.json"
        args = cli._build_parser().parse_args(["fit", "in.csv", "--model", "beta-like", "--output", str(out)])
        chunks = cli._document("0123456789abcdef", series, [], "fit", cli._fit_payload(rep))
        code, peak = traced_peak(cli._emit, args, chunks, None)
        assert code == 0
        assert peak < n * 8
        assert json.loads(out.read_text())["fit"]["residuals"] == rep.residuals.tolist()

    def test_write_failing_partway_is_exit_1(self, capsys, monkeypatch):
        # Output goes out a slice at a time: a write that fails after the
        # first slice exits 1 and leaves that slice behind.
        class FullDisk(io.StringIO):
            def write(self, text):
                if self.tell():
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(text)

        monkeypatch.setattr(sys, "stdout", FullDisk())
        assert main(["simulate", "--p-new", "0.1", "--steps", "100000", "--seed", "1"]) == 1
        assert len(sys.stdout.getvalue().splitlines()) == cli._LIST_SLICE
        assert capsys.readouterr().err == "ranklaws: error: [Errno 28] No space left on device\n"

    def test_reports_never_use_pure_python_encoder(self, capsys, monkeypatch):
        def pure_python_encoder(*args, **kwargs):
            raise AssertionError("json fell back to its pure-Python encoder")

        monkeypatch.setattr(json.encoder, "_make_iterencode", pure_python_encoder)
        assert main(["fit", FIXTURE, "--model", "beta-like", "--quiet"]) == 0
        assert json.loads(capsys.readouterr().out)["fit"]["n"] == 200
        assert main(["compare", FIXTURE, "--quiet"]) == 0
        assert json.loads(capsys.readouterr().out)["comparison"]["nesting_ok"] is True


def _finite_positive(values) -> list[float]:
    """``values`` clipped into the positive doubles, so every one is a valid input cell."""
    return np.clip(values, 5e-324, sys.float_info.max).tolist()


def _lognormal(s: float, seed: int, n: int) -> list[float]:
    with np.errstate(all="ignore"):  # exp(N(0, 200)) overflows and underflows
        return _finite_positive(np.exp(np.random.default_rng(seed).normal(0.0, s, n)))


_magnitudes = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
_picks = st.sampled_from([5e-324, 1.0, 2.0, sys.float_info.max])
_fuzz_series = st.one_of(
    st.lists(_magnitudes, min_size=1, max_size=39),
    st.builds(_lognormal, st.floats(0.0, 200.0), st.integers(0, 2**32 - 1), st.integers(1, 39)),
    st.builds(lambda v, n: [v] * n, st.one_of(_magnitudes, _picks), st.integers(1, 39)),
    st.lists(_picks, min_size=1, max_size=39),
)
_fuzz_commands = st.one_of(
    st.sampled_from(rl.MODEL_TAGS).map(lambda m: ["fit", "--model", m]),
    st.just(["compare"]),
    st.sampled_from(rl.MODEL_TAGS).map(lambda m: ["plotdata", "--model", m]),
)
# Sizes numpy allocates at once, or past 2**53, which must be refused before any allocation.
_sizes = st.one_of(st.integers(-3, 10**4), st.integers(2**53 + 1, 10**30))
_flag_floats = st.one_of(st.floats(), st.floats(-5.0, 5.0))


@st.composite
def _source_flags(draw):
    if draw(st.booleans()):
        law = rl.models.LAWS[draw(st.sampled_from(rl.MODEL_TAGS))]
        names = [f.name for f in dataclasses.fields(law) if f.name != "n"]
        flags = [f"--{name}={draw(_flag_floats)!r}" for name in names]
        return ["generate", "--model", law.model, f"--n={draw(_sizes)}", *flags,
                f"--sigma={draw(st.floats(0.0, 5.0) | st.floats())!r}", f"--seed={draw(st.integers(-3, 2**65))}"]
    return ["simulate", f"--p-new={draw(st.floats(0.0, 1.0) | st.floats())!r}", f"--steps={draw(_sizes)}",
            f"--seed={draw(st.integers(-3, 2**65))}"]


def _no_constant(name):
    raise ValueError(f"report holds the non-JSON constant {name}")


def _run(argv) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


class TestFuzzGate:
    """Seeded CLI fuzz: every run either reports finite numbers or fails with one clean line."""

    @given(values=_fuzz_series, command=_fuzz_commands, to_file=st.booleans())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_fit_commands_report_or_fail_cleanly(self, values, command, to_file):
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "series.csv", Path(tmp) / "out"
            path.write_text("".join(f"{v!r}\n" for v in values))
            code, stdout, stderr = _run([command[0], str(path), *command[1:], *["--output", str(out)] * to_file])
            if code == 2:
                assert stdout == ""
                assert not out.exists()
                assert stderr.startswith("ranklaws: fit error: ") and stderr.count("\n") == 1
                return
            assert code == 0, stderr
            payload = out.read_text() if to_file else stdout
        if command[0] == "plotdata":
            header, *rows = payload.splitlines()
            assert header == "rank\tobserved\tfitted\tlog_residual" and len(rows) == len(values)
            assert all(math.isfinite(float(cell)) for row in rows for cell in row.split("\t"))
        else:
            json.loads(payload, parse_constant=_no_constant)

    @given(argv=_source_flags())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_source_commands_succeed_or_reject_flags(self, argv):
        code, stdout, stderr = _run(argv)
        if code == 64:
            assert stdout == ""
            assert stderr.startswith("ranklaws: error: ") and stderr.count("\n") == 1
            return
        assert code == 0, stderr
        assert all(0.0 < float(line) < math.inf for line in stdout.splitlines())
