"""Fresh-process runs: numpy is the one runtime dependency, and the module
entry point reads its arguments from ``sys.argv``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import squidcavity

# ``sys.modules[name] = None`` makes every ``import name`` raise ImportError
_BLOCKED_RUN = """
import importlib, pkgutil, runpy, sys
sys.modules["scipy"] = None
import squidcavity
for info in pkgutil.iter_modules(squidcavity.__path__):
    if info.name != "__main__":
        importlib.import_module("squidcavity." + info.name)
sys.argv = ["squidcavity", "truth-table", "--out", sys.argv[1]]
runpy.run_module("squidcavity", run_name="__main__", alter_sys=True)
"""


def _python(*args):
    """Run the interpreter on ``args`` with the package's source on its path."""
    src = str(Path(squidcavity.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_package_imports_and_runs_without_scipy(tmp_path):
    run = _python("-c", _BLOCKED_RUN, str(tmp_path))
    assert run.returncode == 0, run.stderr
    assert "PASS" in run.stdout
    assert json.loads((tmp_path / "truth_table.json").read_text())["passed"] is True


def test_module_help_lists_the_commands_and_no_command_is_a_usage_error():
    run = _python("-m", "squidcavity", "--help")
    assert run.returncode == 0, run.stderr
    listed = [line.split()[:1] for line in run.stdout.splitlines()]
    for command in ("truth-table", "cluster", "feasibility", "decoherence"):
        assert [command] in listed
    run = _python("-m", "squidcavity")
    assert run.returncode == 2
    assert run.stderr.startswith("usage: squidcavity ")
