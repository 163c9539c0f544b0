"""Every error type is raised somewhere and told apart by the CLI, so
none lingers in the API.

A class of ``errors.py`` is raised when some module of the package
raises it, or when it is the base of a class that is.  It is told apart
when an ``except`` clause of ``shell.py`` names it: a type no caller
catches by name adds nothing a message could not say.  Every module is
parsed, not imported.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tritile"


def _parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _classes(tree: ast.AST) -> dict[str, list[str]]:
    """Class name -> the names of its bases."""
    return {
        node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }


def _name(exc: ast.expr) -> str | None:
    """``E`` for an expression ``E`` or ``m.E``."""
    if isinstance(exc, ast.Name):
        return exc.id
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return None


def _raised(tree: ast.AST) -> set[str]:
    """Names raised as ``raise E``, ``raise E(...)`` or ``raise m.E(...)``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.add(_name(exc))
    return names


def _caught(tree: ast.AST) -> set[str]:
    """Names in ``except E``, ``except m.E`` and ``except (E, F)`` clauses."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names.update(_name(exc) for exc in types)
    return names


def _unraised(classes: dict[str, list[str]], raised: set[str]) -> list[str]:
    live: set[str] = set()
    todo = [c for c in classes if c in raised]
    while todo:
        c = todo.pop()
        if c in classes and c not in live:
            live.add(c)
            todo.extend(classes[c])
    return sorted(set(classes) - live)


def test_every_error_type_is_raised():
    classes = _classes(_parse(PACKAGE / "errors.py"))
    assert "GeometryError" in classes
    raised = set().union(*(_raised(_parse(p)) for p in PACKAGE.glob("*.py")))
    assert _unraised(classes, raised) == []


def test_guard_catches_an_unraised_error_type():
    src = (
        "class A(Exception): pass\n"
        "class B(A): pass\n"
        "class C(Exception): pass\n"
        "class D(C): pass\n"
        "def f():\n"
        "    raise B('x')\n"
    )
    tree = ast.parse(src)
    assert _unraised(_classes(tree), _raised(tree)) == ["C", "D"]


def test_every_error_type_is_caught_by_the_cli():
    classes = _classes(_parse(PACKAGE / "errors.py"))
    caught = _caught(_parse(PACKAGE / "shell.py"))
    assert sorted(set(classes) - caught) == []


def test_guard_catches_an_uncaught_error_type():
    src = (
        "class A(Exception): pass\n"
        "class B(A): pass\n"
        "class C(Exception): pass\n"
        "def f():\n"
        "    try:\n"
        "        g()\n"
        "    except (OSError, m.C):\n"
        "        pass\n"
        "    except A as exc:\n"
        "        pass\n"
    )
    tree = ast.parse(src)
    assert sorted(set(_classes(tree)) - _caught(tree)) == ["B"]
