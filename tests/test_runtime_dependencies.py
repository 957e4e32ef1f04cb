"""numpy is the one runtime dependency: the package runs with scipy blocked."""

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


def test_package_imports_and_runs_without_scipy(tmp_path):
    src = str(Path(squidcavity.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-c", _BLOCKED_RUN, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert "PASS" in run.stdout
    assert json.loads((tmp_path / "truth_table.json").read_text())["passed"] is True
