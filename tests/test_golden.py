"""Golden SHA-256 digests of the CLI's output bytes.

Every report, plot table and generated series below is pinned byte for
byte, on the committed 200-row fixture and on a generated 2*10^5-row
series. How the CLI computes or writes its output may change; these bytes
may not, except by a change that says which digests it moves and why.

The last digits of a large report follow the BLAS thread count, which the
CLI fixes to one only when numpy is not yet loaded. So every command runs
in one fresh interpreter, as the CLI would, with the thread variables
removed from its environment.

The last digits also follow the CPU: numpy's SIMD dispatch, whose exp
and log at X86_V4 differ from those at X86_V3, and the kernel set
OpenBLAS picks, which sums lstsq and dot products in its own order. So
the child is held to one level and one core, X86_V3 and OpenBLAS's
Haswell kernels, which every x86 CPU with AVX2 can run, and the digests
are those of the numpy 2.4.6 wheel (OpenBLAS 0.3.31) there. The tests
skip on any other numpy and on CPUs without X86_V3.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ranklaws
from conftest import cpu_features

FIXTURE = str(Path(__file__).parent / "data" / "betalike_n200_sigma01_seed42.csv")

# The paper's physics row at n = 2*10^5, under lognormal noise.
LARGE = ["generate", "--model", "beta-like", "--k", "0.0273", "--a", "0.4058", "--b", "0.991",
         "--n", "200000", "--sigma", "0.1", "--seed", "7", "--output", "{tmp}/large.csv"]
LARGE_DIGEST = "6dcdbc21858a676b8ffe6365cf5a47e92de804da20ccdcf01027f2a56d73b987"

# A zipf curve at n = 10^6, under lognormal noise.
MILLION = ["generate", "--model", "zipf", "--k", "1000", "--alpha", "1.1", "--n", "1000000",
           "--sigma", "0.5", "--seed", "11"]
MILLION_DIGEST = "7fd85633c104199256b784de785394ced0215caf2a238084f461f0a7b0300f0c"

COMMANDS = {
    "fit-zipf": ["fit", "--model", "zipf"],
    "fit-mandelbrot": ["fit", "--model", "mandelbrot"],
    "fit-lavalette": ["fit", "--model", "lavalette"],
    "fit-beta-like": ["fit", "--model", "beta-like"],
    "compare": ["compare"],
    "plotdata-zipf": ["plotdata", "--model", "zipf"],
    "plotdata-mandelbrot": ["plotdata", "--model", "mandelbrot"],
    "plotdata-lavalette": ["plotdata", "--model", "lavalette"],
    "plotdata-beta-like": ["plotdata", "--model", "beta-like"],
}
SOURCES = {"fixture": FIXTURE, "large": "{tmp}/large.csv"}
# Commands also run with --output, whose file must hold the stdout bytes.
TO_FILE = ("fit-beta-like", "plotdata-mandelbrot")

# The numpy release the digests were taken with, from its PyPI wheel.
NUMPY = "2.4.6"
# numpy 2.4's dispatch targets above X86_V3, which the child turns off.
ABOVE_X86_V3 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")

# (input, command) -> SHA-256 of the output. The mandelbrot fit of both
# inputs ends at the upper end of its rho bracket, so the fit-mandelbrot
# and compare reports carry that warning's text.
DIGESTS = {
    ("fixture", "fit-zipf"): "6563a3299f9f46c2e33ecc8b559c01f3756ea6afcd90d333a86e5ba4f655e858",
    ("fixture", "fit-mandelbrot"): "0889857895351f90d5ea004e3191d7d3d443befd466c24d323d0de0ab6ff9a3a",
    ("fixture", "fit-lavalette"): "3809d2628843411efa05ef920fa92e524f932aa2fa153991e7dcea53b395362a",
    ("fixture", "fit-beta-like"): "bc330dd16b7eaadb067c367db3a69837cfea7de1d2d4ae6848cee8419279ae8f",
    ("fixture", "compare"): "d227f79e02fc31acec5041ed9aa90d875fa81504a4edc6e1c390a3f338b1ee9c",
    ("fixture", "plotdata-zipf"): "8b11956dbe99246e4fe7e22b6d30b350f305b716c0b358f9f02dc31aa41eaf13",
    ("fixture", "plotdata-mandelbrot"): "b53d496130d4f134663c5d7f09bf48597989cdf39a15f0c3083938a6fbbdb024",
    ("fixture", "plotdata-lavalette"): "5cfa2d31deff0301365e79b9c19c6305c3ba4eff89909b960c58373a2f4c50b1",
    ("fixture", "plotdata-beta-like"): "ec004f3c5183f451ede9fa8f9c315ad969a77da570fa34ca3e172646dcff82b5",
    ("large", "fit-zipf"): "6ad8f2156c91c167c67a791730290cc7bad5e83856658b03db43da1bfebfb114",
    ("large", "fit-mandelbrot"): "548790bb17b951fb2c368bc64124cf8465e3184de0ad6331d69999527677e8d9",
    ("large", "fit-lavalette"): "147c6e09393328332230648fd4fb04bd4785b58b993d91e160a5a0b3436bf730",
    ("large", "fit-beta-like"): "3e86412fc635837daedb8270ed67c78c9f055a6110cf7ab59147e3a251b0b607",
    ("large", "compare"): "30d339caebef3cc5d36dd25eef17023836d4f851d64a35e692a35085d44fca29",
    ("large", "plotdata-zipf"): "2833415d958622ea893b6513d3015408c529587b6b9e26d99b7f3814133524b7",
    ("large", "plotdata-mandelbrot"): "20c5f4597fbe91c713fb26f4be4ecdb0d673994f1bf001d218930e95b8bc4779",
    ("large", "plotdata-lavalette"): "1c3817ba49e5527687bf31891236d2caf93937998a1718277e2d247aee586966",
    ("large", "plotdata-beta-like"): "5c3ebf0d63fc638357f049378617e6aebe288e14eb12e45a2c31e23d6f93ce7c",
}

# Runs each command line of argv[1] (a JSON list) through cli.main in order,
# "{tmp}" standing for a scratch directory, and prints a JSON list of
# [exit code, SHA-256 of its --output file if it names one, else of stdout].
_CHILD = r"""
import contextlib, hashlib, io, json, sys, tempfile
from ranklaws.cli import main
results = []
with tempfile.TemporaryDirectory() as tmp:
    for argv in json.loads(sys.argv[1]):
        argv = [arg.format(tmp=tmp) for arg in argv]
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n")
        with contextlib.redirect_stdout(stdout):
            code = main([*argv, "--quiet"])
        stdout.flush()
        data = stdout.buffer.getvalue()
        if "--output" in argv:
            with open(argv[argv.index("--output") + 1], "rb") as fh:
                data = fh.read()
        results.append([code, hashlib.sha256(data).hexdigest()])
print(json.dumps(results))
"""


def _cases() -> dict:
    cases = {"large-series": LARGE, "million-series": MILLION}
    for source, path in SOURCES.items():
        for command, (name, *flags) in COMMANDS.items():
            cases[f"{source}-{command}"] = [name, path, *flags]
    for command in TO_FILE:
        name, *flags = COMMANDS[command]
        cases[f"large-{command}-to-file"] = [name, SOURCES["large"], *flags, "--output", "{tmp}/out"]
    return cases


@pytest.fixture(scope="module")
def outputs() -> dict:
    features = cpu_features()
    if np.__version__ != NUMPY or not features.get("X86_V3"):
        pytest.skip(f"digests are for numpy {NUMPY} at SIMD level X86_V3; this is numpy "
                    f"{np.__version__}, X86_V3 {'on' if features.get('X86_V3') else 'missing'}")
    cases = _cases()
    src = str(Path(ranklaws.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(
        filter(None, [env.get("NPY_DISABLE_CPU_FEATURES"), *(f for f in ABOVE_X86_V3 if features.get(f))]))
    env["OPENBLAS_CORETYPE"] = "Haswell"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(list(cases.values()))],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return dict(zip(cases, map(tuple, json.loads(proc.stdout))))


def test_generated_large_series(outputs):
    assert outputs["large-series"] == (0, LARGE_DIGEST)


def test_generated_million_series(outputs):
    assert outputs["million-series"] == (0, MILLION_DIGEST)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("source", SOURCES)
def test_report_bytes(outputs, source, command):
    assert outputs[f"{source}-{command}"] == (0, DIGESTS[source, command])


@pytest.mark.parametrize("command", TO_FILE)
def test_output_file_bytes(outputs, command):
    assert outputs[f"large-{command}-to-file"] == (0, DIGESTS["large", command])
