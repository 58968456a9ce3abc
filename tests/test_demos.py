"""Demo checks: the fast demos run to completion, and every demo and the
README quick start import only names the package still has."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_decoder_and_quac.py",
                                  "04_performance_model.py"])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"),
                                 os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _sources():
    """(label, source) for each demo and each README Python block."""
    for path in sorted((ROOT / "demos").glob("*.py")):
        yield path.name, path.read_text()
    readme = (ROOT / "README.md").read_text()
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme,
                                         re.DOTALL)):
        yield f"README.md block {i}", block


SOURCES = list(_sources())


def test_readme_has_python_quick_start():
    assert any(label.startswith("README.md") for label, _ in SOURCES)


@pytest.mark.parametrize("label,source", SOURCES,
                         ids=[label for label, _ in SOURCES])
def test_imported_names_exist(label, source):
    """Parsed, not run: a deleted name fails here even in a slow demo."""
    missing = []
    for node in ast.walk(ast.parse(source, label)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                node.module.split(".")[0] == "quactrng":
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{alias.name}" for alias in node.names
                        if not hasattr(module, alias.name)]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "quactrng":
                    importlib.import_module(alias.name)
    assert not missing
