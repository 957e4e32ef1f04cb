"""Every script in demos/ runs to completion against the package in src/,
and the package's top level exports only what demos/, perfbench/ and README
use.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_top_level_exports_only_what_is_used():
    # a name stays at the top level while a demo or a benchmark file imports
    # it from the package, or README names it in backticks
    used = set()
    for path in DEMOS + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            package = (getattr(node, "module", None) or "").split(".")[0]
            if isinstance(node, ast.ImportFrom) and package == "squidcavity":
                used.update(alias.name for alias in node.names)
    readme = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    for span in re.findall(r"`([^`]+)`", readme):
        used.update(re.findall(r"[A-Za-z_]\w*", span))
    init = ast.parse((ROOT / "src" / "squidcavity" / "__init__.py").read_text())
    exported = {
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert exported, "no exports found"
    assert sorted(exported - used) == []
