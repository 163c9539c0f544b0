"""The core stays exact: no ``fractions``, no float literals, no ``float()``.

Every module of the package except the SVG renderer is parsed and
scanned.  Rendering is the one place floats are allowed.
"""

import ast
from pathlib import Path

import pytest

CORE = sorted(
    p
    for p in (Path(__file__).resolve().parents[1] / "src" / "tritile").glob("*.py")
    if p.name != "render.py"
)


def _inexact_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            names = []
        if any(n.split(".")[0] == "fractions" for n in names):
            found.append(f"line {node.lineno}: import of fractions")
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"line {node.lineno}: float literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(f"line {node.lineno}: call to float()")
    return found


def test_core_modules_found():
    assert {"surface.py", "cones.py", "lattice.py"} <= {p.name for p in CORE}


@pytest.mark.parametrize("path", CORE, ids=lambda p: p.name)
def test_core_module_is_exact(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _inexact_uses(tree) == []


def test_guard_catches_inexact_code():
    src = "from fractions import Fraction\nimport fractions\nx = 0.5\ny = float(3)\n"
    assert len(_inexact_uses(ast.parse(src))) == 4
