"""Smoke test: every demo script runs to completion, and so does the
README's library quick start; its command lines parse.  Every public
name of the package has a caller outside its own unit tests, every
optional parameter is passed by the package or the benchmark, and every
CLI option is set by a README command or a benchmark operation.  Every
test the README or the package names by its name exists."""

import argparse
import ast
import importlib
import re
import shlex

import pytest

from conftest import ROOT, run_python
from tritile.shell import build_parser

DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()
README_PYTHON = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
SRC = ROOT / "src" / "tritile"
# The acceptance module counts as a caller: it gates the documented claims.
CALLERS = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
CALLERS += [*DEMOS, ROOT / "README.md", ROOT / "tests" / "test_acceptance.py"]


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    code, out, err, _ = run_python([str(demo)], timeout=120)
    assert code == 0, err
    assert out


def test_readme_quick_start_runs():
    # The one fenced python block of the README; its asserts are the check.
    (block,) = README_PYTHON
    exec(compile(block, "README.md", "exec"), {})


def _readme_commands():
    # Every `tritile ...` command of the "Command line" fence, each side of
    # a pipe on its own.
    (fence,) = re.findall(r"^## Command line\n.*?^```\n(.*?)^```$", README, re.M | re.S)
    return [shlex.split(c) for line in fence.splitlines() for c in line.split("|")]


def test_readme_commands_parse():
    # Parsing names files but opens none.
    commands = _readme_commands()
    assert len(commands) == 13 and all(argv[0] == "tritile" for argv in commands)
    for argv in commands:
        assert build_parser().parse_args(argv[1:]).fn


def test_readme_layout_names_every_module():
    # One line of the "Layout" fence per module, indented under src/tritile/.
    (fence,) = re.findall(r"^## Layout\n.*?^```\n(.*?)^```$", README, re.M | re.S)
    listed = set(re.findall(r"^  (\w+\.py) ", fence, re.M))
    assert {p.name for p in SRC.glob("*.py")} - {"__init__.py"} - listed == set()


def test_no_numbered_roadmap_references():
    # ROADMAP.md renumbers its items whenever it is re-planned, so the
    # README and the code name an item, never its number.
    numbered = re.compile(r"ROADMAP\s+items?\s+\d")
    texts = {"README.md": README, **{str(p.relative_to(ROOT)): p.read_text() for p in sorted(SRC.glob("*.py"))}}
    assert [name for name, text in texts.items() if numbered.search(text)] == []


def test_every_cited_test_name_is_a_test():
    # A test named in the README or the package is a test function of a
    # tests/test_*.py module, those its tables generate included, so that
    # a test renamed or folded into a table leaves no stale name behind.
    # A name before ".py" is a module, and ROADMAP.md may name tests still
    # to be written.
    modules = [importlib.import_module(p.stem) for p in sorted((ROOT / "tests").glob("test_*.py"))]
    tests = {name for m in modules for name, value in vars(m).items() if name.startswith("test_") and callable(value)}
    texts = [README, *(p.read_text() for p in sorted(SRC.glob("*.py")))]
    cited = {name for text in texts for name in re.findall(r"\btest_\w+\b(?!\.py)", text)}
    assert "test_pinned_public_call_counts" in cited and "test_norm_contains_closed_walks" in cited
    assert sorted(cited - tests) == []


def _public_names(path):
    """Public module-level functions and classes of ``path``, and the
    public methods of its public classes."""
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name


def test_every_export_has_a_caller():
    # Every public name of the package, exported or not, so that a helper
    # only its own unit test calls shows up here.
    names = sorted({name for p in SRC.glob("*.py") for name in _public_names(p)})
    lines = [line for p in CALLERS for line in p.read_text().splitlines()]

    def called(name):
        own = re.compile(rf"\s*(def|class) {name}\b")  # its own definition is no caller
        return any(re.search(rf"\b{name}\b", line) and not own.match(line) for line in lines)

    assert "section_at" in names and "qpoints" in names
    assert [name for name in names if not called(name)] == []


def _defaulted(name, args, skip):
    """``(name, parameter, position)`` of each defaulted parameter of
    ``args``, the position counted past ``skip`` leading parameters and
    ``None`` for a keyword-only one."""
    pos = args.posonlyargs + args.args
    first = len(pos) - len(args.defaults)
    for i, a in enumerate(pos[first:], first):
        yield name, a.arg, i - skip
    for a, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield name, a.arg, None


def _optional_parameters(path):
    """Defaulted parameters of the public functions of ``path``, and of
    its public classes other than enums: the defaulted fields, the
    ``__init__`` parameters and those of the public methods."""
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            yield from _defaulted(node.name, node.args, 0)
            continue
        if any(ast.unparse(b).endswith("Enum") for b in node.bases):
            continue
        fields = [item for item in node.body if isinstance(item, ast.AnnAssign)]
        yield from ((node.name, f.target.id, i) for i, f in enumerate(fields) if f.value is not None)
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and (item.name == "__init__" or not item.name.startswith("_")):
                yield from _defaulted(node.name if item.name == "__init__" else item.name, item.args, 1)


def test_every_optional_parameter_has_traffic():
    # The parameter twin of the export check: a default that every call
    # keeps is a constant.  A call in the package or the benchmark must
    # pass the parameter, by keyword or by position; tests, demos and the
    # README set values that no program path does, so they do not count.
    calls = [
        node
        for p in [*SRC.glob("*.py"), *(ROOT / "bench").glob("*.py")]
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.Call)
    ]

    def callee(call):
        return getattr(call.func, "id", None) or getattr(call.func, "attr", None)

    def passed(name, param, position):
        return any(
            callee(c) == name
            and (any(k.arg == param for k in c.keywords) or position is not None and len(c.args) > position)
            for c in calls
        )

    optional = [o for p in sorted(SRC.glob("*.py")) for o in _optional_parameters(p)]
    assert ("trace", "max_steps", 2) in optional and ("GeometryError", "peaks", None) in optional
    assert ("ConjUpSet", "generators", 0) in optional
    assert [f"{name}({param})" for name, param, pos in optional if not passed(name, param, pos)] == []


def _commands(parser, path=()):
    """``(path, parser)`` of every subcommand, ``roof add`` as ``("roof", "add")``."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield path + (name,), sub
                yield from _commands(sub, path + (name,))


def _given(argv, strings):
    """The values ``argv`` gives an option of these strings, ``None`` for a flag."""
    for i, tok in enumerate(argv):
        for s in strings:
            if tok == s:
                yield argv[i + 1] if i + 1 < len(argv) else None
            elif tok.startswith(s + "="):
                yield tok[len(s) + 1 :]


def test_every_cli_option_has_traffic(monkeypatch, tmp_path):
    # The CLI twin of the export check: every subcommand, option and
    # `choices` value is set by a README command or by an operation or
    # warm-up of a seed-1 benchmark workload, so that no option is kept
    # that nothing uses.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    argvs = [argv[1:] for argv in _readme_commands()]
    for name in workloads.WORKLOADS:
        warm, ops = workloads.build(name, 1, str(tmp_path))
        argvs += [list(op.argv) for op in [*warm.values(), *ops]]
    unused = []
    for path, parser in _commands(build_parser()):
        mine = [argv[len(path) :] for argv in argvs if tuple(argv[: len(path)]) == path]
        if not mine:
            unused.append(" ".join(path))
        for action in parser._actions:
            if not action.option_strings or isinstance(action, argparse._HelpAction):
                continue
            given = [v for argv in mine for v in _given(argv, action.option_strings)]
            option = f"{' '.join(path)} {'/'.join(action.option_strings)}"
            if not given:
                unused.append(option)
            else:
                unused += [f"{option} {c}" for c in action.choices or () if c not in given]
    assert unused == []
    # Every window of that traffic parses, so lies within the side cap.
    windows = [build_parser().parse_args(argv).window for argv in argvs if any(_given(argv, ["--window"]))]
    assert max(max(w.u_max - w.u_min, w.v_max - w.v_min) + 1 for w in windows) == 121
