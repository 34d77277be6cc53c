"""Process start-up: the lazy package import, the CLI's BLAS thread default and its frozen heap.

Each test runs a fresh interpreter, since what is checked happens once per
process: which modules ``import ranklaws`` loads, whether the CLI sets
``OPENBLAS_NUM_THREADS`` before numpy loads, and which entry points freeze
the heap for the garbage collector.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ranklaws as rl

SRC = str(Path(rl.__file__).resolve().parent.parent)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
SUBMODULES = ("errors", "ingest", "models", "fit", "generate", "accel")
FIXTURE = str(Path(__file__).parent / "data" / "betalike_n200_sigma01_seed42.csv")
# Threads of the current process on Linux; -1 where /proc is missing.
COUNT_THREADS = "len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else -1"


def run_python(*args: str, **env_vars: str) -> str:
    """Run the interpreter with the thread variables removed, plus ``env_vars``; return stdout."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env.update(env_vars)
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def run_code(code: str, **env_vars: str):
    """Run ``code`` in a fresh interpreter; it prints one JSON value, returned decoded."""
    return json.loads(run_python("-c", code, **env_vars))


class TestLazyImport:
    def test_import_loads_no_numpy(self):
        code = "import json, sys, ranklaws; print(json.dumps(sorted(m for m in sys.modules if m.startswith(('numpy', 'ranklaws')))))"
        assert run_code(code) == ["ranklaws"]

    @pytest.mark.parametrize("first", ["", "ranklaws.accel", "ranklaws.FitError"])
    def test_every_public_name_and_submodule_resolves(self, first):
        code = (
            "import importlib, json, ranklaws\n"
            f"{first}\n"
            "names = {n: getattr(ranklaws, n) for n in ranklaws.__all__}\n"
            "mods = {m: getattr(ranklaws, m) for m in ('models', 'fit', 'accel')}\n"
            "homes = [importlib.import_module(f'ranklaws.{m}') for m in ('errors', 'ingest', 'models', 'fit', 'generate')]\n"
            "print(json.dumps({'same': all(any(getattr(h, n, None) is v for h in homes) for n, v in names.items() if n != '__version__'),\n"
            "                  'mods': sorted(m.__name__ for m in mods.values())}))"
        )
        assert run_code(code) == {"same": True, "mods": ["ranklaws.accel", "ranklaws.fit", "ranklaws.models"]}

    def test_dir_lists_names_without_loading_them(self):
        code = (
            "import json, sys, ranklaws\n"
            "names = dir(ranklaws)\n"
            f"print(json.dumps({{'missing': [n for n in [*ranklaws.__all__, *{SUBMODULES!r}] if n not in names],\n"
            "                  'numpy': [m for m in sys.modules if m.split('.')[0] == 'numpy']}))"
        )
        assert run_code(code) == {"missing": [], "numpy": []}

    def test_star_import_binds_all(self):
        code = "from ranklaws import *\nimport json, ranklaws\nprint(json.dumps([n for n in ranklaws.__all__ if n not in globals()]))"
        assert run_code(code) == []

    def test_unknown_name_raises_attribute_error(self):
        code = (
            "import json, ranklaws\n"
            "try:\n    ranklaws.no_such_name\nexcept AttributeError as exc:\n    print(json.dumps(str(exc)))"
        )
        assert run_code(code) == "module 'ranklaws' has no attribute 'no_such_name'"
        with pytest.raises(AttributeError):
            rl.no_such_name


class TestBlasThreadDefault:
    def test_library_leaves_blas_alone(self):
        code = (
            "import json, os, ranklaws, ranklaws.accel\n"
            "[getattr(ranklaws, n) for n in ranklaws.__all__]\n"
            "print(json.dumps(os.environ.get('OPENBLAS_NUM_THREADS')))"
        )
        assert run_code(code) is None

    def test_cli_runs_blas_on_one_thread(self):
        # On a 1-CPU host OpenBLAS starts no worker anyway, so only the
        # environment check can fail there.
        code = f"import json, os, ranklaws.cli\nprint(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), {COUNT_THREADS}]))"
        setting, threads = run_code(code)
        assert setting == "1"
        assert threads in (1, -1)

    @pytest.mark.parametrize("var", THREAD_VARS)
    def test_user_setting_kept(self, var):
        code = f"import json, os, ranklaws.cli\nprint(json.dumps({{v: os.environ.get(v) for v in {THREAD_VARS!r}}}))"
        assert run_code(code, **{var: "2"}) == {v: "2" if v == var else None for v in THREAD_VARS}

    def test_numpy_loaded_first_keeps_environment(self):
        code = "import json, os, numpy, ranklaws.cli\nprint(json.dumps(os.environ.get('OPENBLAS_NUM_THREADS')))"
        assert run_code(code) is None

    def test_module_entry_point_gets_same_default(self):
        code = (
            "import json, os, runpy, sys\n"
            "sys.argv = ['ranklaws']\n"
            "try:\n    runpy.run_module('ranklaws', run_name='__main__', alter_sys=True)\n"
            "except SystemExit:\n    pass\n"
            f"print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), {COUNT_THREADS}]))"
        )
        setting, threads = run_code(code)
        assert setting == "1"
        assert threads in (1, -1)

    def test_report_bytes_do_not_depend_on_thread_count(self, tmp_path):
        # A multi-threaded OpenBLAS splits the dot products of the rho search
        # by core, which moves the last bits of a 10^4-value report. A 1-CPU
        # host runs one thread either way, so it cannot show that failure.
        path = str(tmp_path / "simon.csv")
        run_python("-m", "ranklaws", "simulate", "--p-new", "0.1", "--steps", "100000", "--seed", "4",
                   "--output", path, "--quiet")
        fit = ("-m", "ranklaws", "fit", path, "--model", "mandelbrot", "--quiet")
        default, single = run_python(*fit).splitlines(), run_python(*fit, OPENBLAS_NUM_THREADS="1").splitlines()
        # Compared line by line: a diff of two 10^4-line strings takes pytest minutes.
        assert len(default) == len(single)
        assert [pair for pair in zip(default, single) if pair[0] != pair[1]][:5] == []


class TestHeapFreeze:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_import_leaves_collector_alone(self, enabled):
        code = (
            "import gc, json\n"
            f"{'' if enabled else 'gc.disable()'}\n"
            "import ranklaws.cli\n"
            "print(json.dumps([gc.get_freeze_count(), gc.isenabled()]))"
        )
        assert run_code(code) == [0, enabled]

    def test_module_entry_point_freezes_heap(self):
        code = (
            "import contextlib, gc, io, json, runpy, sys\n"
            "sys.argv = ['ranklaws', '--help']\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    try:\n        runpy.run_module('ranklaws', run_name='__main__', alter_sys=True)\n"
            "    except SystemExit as exc:\n        code = exc.code\n"
            "print(json.dumps([code, out.getvalue().startswith('usage: ranklaws'), gc.get_freeze_count() > 0]))"
        )
        assert run_code(code) == [0, True, True]

    def test_in_process_main_leaves_freeze_count(self, tmp_path):
        out = str(tmp_path / "report.json")
        code = (
            "import gc, json\n"
            "from ranklaws.cli import main\n"
            "before = gc.get_freeze_count()\n"
            f"status = main(['compare', {FIXTURE!r}, '--quiet', '--output', {out!r}])\n"
            "print(json.dumps([status, before, gc.get_freeze_count()]))"
        )
        assert run_code(code) == [0, 0, 0]
