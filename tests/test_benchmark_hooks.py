"""The names the benchmark's layer trace wraps stay where it looks them up.

``perfbench/layers.py`` times each layer by replacing module attributes of
the package (``cli._read_series``, ``accel.mandelbrot_profile``, ...), so a
renamed or inlined hook breaks the traced benchmark run but no other test.
These tests load that file by path and run what ``--trace 1`` runs, on
small inputs.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import ranklaws as rl
import ranklaws.cli  # noqa: F401  (binds rl.cli, as perfbench/run.py does)

ROOT = Path(__file__).parent.parent
FIXTURE = Path(__file__).parent / "data" / "betalike_n200_sigma01_seed42.csv"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", ROOT / "perfbench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up while it runs
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_traced_ops_cross_every_wrapped_layer(layers, tmp_path):
    tracer = layers.Tracer()
    argvs = [
        ["compare", str(FIXTURE), "--output", str(tmp_path / "compare.json"), "--quiet"],
        ["simulate", "--p-new", "0.1", "--steps", "1000", "--seed", "1", "--output", str(tmp_path / "sim.csv"),
         "--quiet"],
    ]
    with layers.patched(layers.op_patches(tracer, rl)):
        assert [rl.cli.main(argv) for argv in argvs] == [0, 0]
    names = {name for name, _, _ in tracer.spans}
    assert names >= {"cli.read", "ingest.parse_csv", "fit.compare_models", "accel.mandelbrot_profile", "cli.write",
                     "generate.simulate_simon", "accel.simon_owners"}


def test_kernel_probes_reach_the_kernels_through_accel(layers):
    series, _ = rl.parse_csv(FIXTURE.read_text(), rl.IngestOptions())
    probe = layers.rho_probe(rl, series)
    assert probe["fit.rho_probes"] > 0 and probe["fit.rho_probe_cap_hit"] == 0
    assert layers.simon_kernel(rl, 1)["accel.simon_steps"] > 0


def test_backend_flag_is_readable():
    assert rl.accel.NUMBA_ENABLED in (True, False)
