"""Every script in demos/ runs to completion against the package in src/,
the package's top level exports only what demos/, perfbench/ and README
use, no module imports a name it never reads, and the package has one
module entry point.
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


def test_every_module_reads_each_name_it_imports():
    # the package's __init__ imports names only to export them
    package = (ROOT / "src" / "squidcavity").glob("*.py")
    modules = [
        *(path for path in package if path.name != "__init__.py"),
        *(ROOT / "tests").glob("*.py"),
        *DEMOS,
    ]
    unread = []
    for path in sorted(modules):
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                # ``import a.b`` binds ``a``
                imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
        # an attribute chain such as ``np.linalg.norm`` reads its first name
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread += [f"{path.relative_to(ROOT)}: {name}" for name in sorted(imported - read)]
    assert unread == []


def test_only_the_package_main_runs_as_a_script():
    # ``python -m squidcavity`` is the one module entry point
    scripts = [
        path.name
        for path in sorted((ROOT / "src" / "squidcavity").glob("*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    assert scripts == ["__main__.py"]


def test_the_cavity_site_is_written_as_its_name():
    # a literal -1 among an operator's sites reads like an index from the
    # end; the cavity has one address, hilbert.CAVITY
    literal = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "squidcavity").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "LocalOperator"
        for sites in [*node.args[:1], *(k.value for k in node.keywords if k.arg == "sites")]
        if any(ast.unparse(part) == "-1" for part in ast.walk(sites))
    ]
    assert literal == []


def test_only_hilbert_states_a_bound_by_hand():
    # a tolerance, limit or size goes through hilbert.check_number or
    # check_index; the NaN-safe idiom ``if not x <= bound: raise`` is theirs
    own = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "squidcavity").glob("*.py"))
        if path.name != "hilbert.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.If)
        and isinstance(node.test, ast.UnaryOp)
        and isinstance(node.test.op, ast.Not)
        and isinstance(node.test.operand, ast.Compare)
        and any(isinstance(part, ast.Raise) for stmt in node.body for part in ast.walk(stmt))
    ]
    assert own == []


def test_only_hilbert_reads_a_buffers_flags():
    # a buffer lent for writing has one rule, hilbert.check_buffer; no other
    # module checks contiguity, writability or overlap on its own
    own = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "squidcavity").glob("*.py"))
        if path.name != "hilbert.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and node.attr in ("c_contiguous", "writeable", "may_share_memory", "shares_memory")
    ]
    assert own == []
