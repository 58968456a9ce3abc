"""Session fixtures shared by several test modules."""

import ast
from pathlib import Path

import pytest

import quactrng
from quactrng import build_device, calibrated_variation
from quactrng.entropy import build_sib_plan, characterize


@pytest.fixture(scope="session")
def wave_map():
    """"0111" characterization of segments 0-1023 (two spatial wave
    periods) on the calibrated device."""
    device = build_device(variation=calibrated_variation())
    return characterize(device, "0111", range(1024), trials=1000)


@pytest.fixture(scope="session")
def plan(wave_map):
    """One-bin plan from ``wave_map``, covering 30-90 C."""
    return build_sib_plan([wave_map], bins=[(30.0, 90.0)])


def _callers(tree, callee):
    """Qualified names of the functions in ``tree`` that call ``callee``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", getattr(func, "attr", None)) == callee:
                    found.add(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    return found


@pytest.fixture(scope="session")
def package_callers():
    """``callers(name)``: the ``module.qualified.function`` names in the
    quactrng package that call a function of that name."""
    def callers(callee):
        found = set()
        for path in sorted(Path(quactrng.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            found |= {f"{path.stem}.{name}"
                      for name in _callers(tree, callee)}
        return found
    return callers
