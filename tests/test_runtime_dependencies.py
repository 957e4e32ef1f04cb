"""Fresh-process runs: numpy is the one runtime dependency, the module
entry point reads its arguments from ``sys.argv``, and repeated chain runs
keep their state memory in the heap rather than faulting it in again."""

import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import pytest

import squidcavity

# ``sys.modules[name] = None`` makes every ``import name`` raise ImportError
_BLOCKED_RUN = """
import importlib, pkgutil, runpy, sys
sys.modules[sys.argv[2]] = None
import squidcavity
for info in pkgutil.iter_modules(squidcavity.__path__):
    if info.name != "__main__":
        importlib.import_module("squidcavity." + info.name)
sys.argv = ["squidcavity", "truth-table", "--out", sys.argv[1]]
runpy.run_module("squidcavity", run_name="__main__", alter_sys=True)
"""

# the minor page faults of each of six N = 10 chain runs, one per line
_CHAIN_FAULTS = """
import resource
from squidcavity.evolution import evolve_pure
from squidcavity.protocols import chain_initial_state, cluster_chain_schedule
state, schedule = chain_initial_state(10), cluster_chain_schedule(10)
for _ in range(6):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    evolve_pure(state, schedule)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _python(*args, env=os.environ):
    """Run the interpreter on ``args`` with the package's source on its path."""
    src = str(Path(squidcavity.__file__).resolve().parents[1])
    env = dict(env, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_package_imports_and_runs_without_scipy(tmp_path):
    run = _python("-c", _BLOCKED_RUN, str(tmp_path), "scipy")
    assert run.returncode == 0, run.stderr
    assert "PASS" in run.stdout
    assert json.loads((tmp_path / "truth_table.json").read_text())["passed"] is True


def test_package_imports_and_runs_without_resource(tmp_path):
    # the phase line then keeps its times and counts no faults
    run = _python("-c", _BLOCKED_RUN, str(tmp_path), "resource")
    assert run.returncode == 0, run.stderr
    assert re.search(r"^  propagate \d+\.\d{4} s, report \d+\.\d{4} s$", run.stdout, re.M)
    assert "faults" not in run.stdout


def test_repeated_chain_runs_keep_their_memory_in_the_heap():
    # one allocation of two states per run sets glibc's trim threshold
    # above what a run frees, so from the third run on, a run faults in
    # next to nothing (about 1 350 pages a run with two one-state arrays)
    pytest.importorskip("resource", reason="no resource module to count page faults with")
    if platform.libc_ver()[0] != "glibc":
        pytest.skip(f"the heap thresholds are glibc's, and the C library is {platform.libc_ver()}")
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("MALLOC_") and key != "GLIBC_TUNABLES"
    }
    run = _python("-c", _CHAIN_FAULTS, env=env)
    assert run.returncode == 0, run.stderr
    faults = [int(line) for line in run.stdout.split()]
    assert len(faults) == 6
    assert max(faults[3:]) < 64, faults


def test_module_help_lists_the_commands_and_no_command_is_a_usage_error():
    run = _python("-m", "squidcavity", "--help")
    assert run.returncode == 0, run.stderr
    listed = [line.split()[:1] for line in run.stdout.splitlines()]
    for command in ("truth-table", "cluster", "feasibility", "decoherence"):
        assert [command] in listed
    run = _python("-m", "squidcavity")
    assert run.returncode == 2
    assert run.stderr.startswith("usage: squidcavity ")
