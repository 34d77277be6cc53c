"""Golden SHA-256 digests of the CLI's output bytes.

Every report, plot table and generated series below is pinned byte for
byte, on the committed 200-row fixture and on a generated 2*10^5-row
series. How the CLI computes or writes its output may change; these bytes
may not, except by a change that says which digests it moves and why.

The last digits of a large report follow the BLAS thread count, which the
CLI fixes to one only when numpy is not yet loaded. So every command runs
in one fresh interpreter, as the CLI would, with the thread variables
removed from its environment.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ranklaws

FIXTURE = str(Path(__file__).parent / "data" / "betalike_n200_sigma01_seed42.csv")

# The paper's physics row at n = 2*10^5, under lognormal noise.
LARGE = ["generate", "--model", "beta-like", "--k", "0.0273", "--a", "0.4058", "--b", "0.991",
         "--n", "200000", "--sigma", "0.1", "--seed", "7", "--output", "{tmp}/large.csv"]
LARGE_DIGEST = "5ea63c356cc3c528ec553d3e938f5ddcb0463c0399e792d425bfa4aa17541b04"

# A zipf curve at n = 10^6, under lognormal noise.
MILLION = ["generate", "--model", "zipf", "--k", "1000", "--alpha", "1.1", "--n", "1000000",
           "--sigma", "0.5", "--seed", "11"]
MILLION_DIGEST = "4368cba03a20bee924bf683714b7b6e737e4f28f578664d83b9f465761e22bce"

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

# (input, command) -> SHA-256 of the output. The mandelbrot fit of both
# inputs ends at the upper end of its rho bracket, so the fit-mandelbrot
# and compare reports carry that warning's text.
DIGESTS = {
    ("fixture", "fit-zipf"): "458d683e6d957bc157ebc87242947987f2eba5a2619ed2af2302fee49b98b1c3",
    ("fixture", "fit-mandelbrot"): "a438758c49df97ca32a9d40eb2ae268687e63f08065fd907aec275009003d6f7",
    ("fixture", "fit-lavalette"): "ecca01cfcb78ea6df68d1ffba070f827ca89b83feeff7caed611bdb6324aedab",
    ("fixture", "fit-beta-like"): "54ad7135ddb7f0e69ad9c18f4628b0032e9e52bc44224bc46e9904ebb940e190",
    ("fixture", "compare"): "1e805ad4d8aeab3b642de4867d2132f9990500b9c3660193a14b39cb8b1f65e5",
    ("fixture", "plotdata-zipf"): "89113351a41da1f852897865929fd78aaadb2e028dddf06fde16aa2b665f8104",
    ("fixture", "plotdata-mandelbrot"): "a6ec893ff16a24b9b570c5d222c7a02748df29408b6696c12595eddbca47d67b",
    ("fixture", "plotdata-lavalette"): "cd00a3f3b43dcf8afc997c0be0f5f8956353a0ad573baf9655a287129f33320a",
    ("fixture", "plotdata-beta-like"): "d5a26065b2a3f96853253fec84c89ec599ef64f5590cd585ab8d517f522085de",
    ("large", "fit-zipf"): "60277331a983805ec7b1bfb3bf727153c29384e153e1519383895420920b43fc",
    ("large", "fit-mandelbrot"): "931a49ea095d6d994885887f6c3f0c3c2bc7ce3f0904dd422a08c2d5eed3e306",
    ("large", "fit-lavalette"): "4797f252fe4bb4054b428edbc37511877067edfe74781212d90b10a897f99519",
    ("large", "fit-beta-like"): "464d58dc55a79205a89acac0c388628346fb55b814ffdcbccb93a20287bd193f",
    ("large", "compare"): "bf33a6c75ccada26ea3476b031011f4cff1fff9e8ad60b0c9286d822866e11a3",
    ("large", "plotdata-zipf"): "e5cc3173163d4579082bbdf0e6f37ff7454b6683cd794aa0f86da1511b452b55",
    ("large", "plotdata-mandelbrot"): "af8519910bf6927b24c92a76a7a212b6266caf260e40aee836f1b023cebfaa94",
    ("large", "plotdata-lavalette"): "87614681f4e2079ecb87aa56a4ddf46ff7956696c7f49a2ef1ca09b7e9edac8d",
    ("large", "plotdata-beta-like"): "b6098af5824b391426eb14fc48af135f220c57db5e8e71534cd21dbc79a6d250",
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
    cases = _cases()
    src = str(Path(ranklaws.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
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
