"""The benchmark's own self-check runs against the package in src/.

``perfbench/selftest.py`` imports names from the package (``GateParams``,
``gate_condition_residuals``, ``single_excitation_closed_form``) and checks
that every corrupted output counts as a failed op, so an API change that
breaks the benchmark fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_catches_every_corruption():
    result = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "all corruptions caught" in result.stdout
