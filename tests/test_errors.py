"""The error hierarchy: one class per exit code, each a ValueError, which
`cli.main` maps to that code; sadp code raises no builtin exception and
defines no exception class outside `sadp.errors`, and raises each message
from one site. And guards against code only tests reach: every public
function or class of sadp has a caller outside `tests/`, every private
module-level function has one inside `sadp`, and no module reads another's
private names."""

import ast
import builtins
import pathlib

import pytest

from sadp import cli, errors, harness

SRC = pathlib.Path(__file__).parent.parent / "src" / "sadp"

# the exit codes the README documents, per class
DOCUMENTED_EXIT_CODES = {
    "SadpError": 2,
    "BudgetInfeasibleError": 3,
    "DataFileError": 4,
}

ERROR_CLASSES = [
    c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, BaseException)
]


def test_every_error_class_has_a_documented_code():
    assert sorted(c.__name__ for c in ERROR_CLASSES) == sorted(DOCUMENTED_EXIT_CODES)
    assert all(issubclass(c, errors.SadpError) and issubclass(c, ValueError) for c in ERROR_CLASSES)


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_cli_returns_each_error_class_code(tmp_path, capsys, monkeypatch, cls):
    def fail(config):
        raise cls("the run failed")

    monkeypatch.setattr(harness, "train", fail)
    (tmp_path / "run.cfg").write_text("")
    code = cli.main(["train", "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path)])
    assert code == DOCUMENTED_EXIT_CODES[cls.__name__]
    assert capsys.readouterr().err == "error: the run failed\n"


def test_cli_does_not_catch_a_foreign_value_error(tmp_path, monkeypatch):
    # a ValueError that sadp did not raise is a bug: it must keep its traceback
    def fail(config):
        raise ValueError("not a sadp error")

    monkeypatch.setattr(harness, "train", fail)
    (tmp_path / "run.cfg").write_text("")
    with pytest.raises(ValueError, match="not a sadp error"):
        cli.main(["train", "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path)])


def builtin_raises(source: str) -> list[tuple[str | None, str]]:
    """(enclosing function, class name) of each `raise` of a builtin exception."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                cls = getattr(builtins, getattr(exc, "id", ""), None)
                if isinstance(cls, type) and issubclass(cls, BaseException):
                    found.append((func, exc.id))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if named else func)

    visit(ast.parse(source), None)
    return found


def test_guard_finds_builtin_raises():
    source = "def f(x):\n    if x:\n        raise TypeError(x)\n    raise KeyError\nraise OSError\n"
    assert builtin_raises(source) == [("f", "TypeError"), ("f", "KeyError"), (None, "OSError")]
    assert builtin_raises("def f():\n    raise errors.DataFileError('x')\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_sadp_raises_only_sadp_errors(path):
    # the one exception: _parse_value's ValueError, which parse_config_text
    # sees as the parse failure of one config value
    allowed = [("_parse_value", "ValueError")] if path.name == "harness.py" else []
    assert builtin_raises(path.read_text()) == allowed


EXCEPTION_NAMES = {
    name for name, c in vars(builtins).items() if isinstance(c, type) and issubclass(c, BaseException)
} | {c.__name__ for c in ERROR_CLASSES}


def exception_classes(source: str) -> list[str]:
    """Names of the classes a module defines on a builtin or sadp exception
    base, at any depth, by name or as an attribute (`errors.SadpError`)."""
    return [
        node.name for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        and any(getattr(b, "id", getattr(b, "attr", None)) in EXCEPTION_NAMES for b in node.bases)
    ]


def test_guard_finds_exception_classes():
    source = (
        "class A(ValueError): pass\n"
        "class B(errors.DataFileError): pass\n"
        "def f():\n    class C(SadpError, object): pass\n"
        "class D: pass\n"
        "class E(np.ndarray): pass\n"
    )
    assert exception_classes(source) == ["A", "B", "C"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_errors_defines_exception_classes(path):
    # one class per exit code, all in sadp.errors: a new failure gets a message
    expected = sorted(DOCUMENTED_EXIT_CODES) if path.name == "errors.py" else []
    assert sorted(exception_classes(path.read_text())) == expected


def error_messages(source: str) -> list[str]:
    """The message expression, as `ast.unparse` writes it, of each `raise`
    of a sadp.errors class called with one."""
    names = {c.__name__ for c in ERROR_CLASSES}
    return [
        ast.unparse(node.exc.args[0]) for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args
        and getattr(node.exc.func, "id", getattr(node.exc.func, "attr", None)) in names
    ]


def test_guard_finds_error_messages():
    source = (
        "def f(x):\n    if x:\n        raise SadpError(f'x={x} must be > 0')\n"
        "    raise errors.DataFileError('bad file') from None\n"
        "raise ValueError('not sadp')\nraise SadpError\n"
    )
    assert sorted(error_messages(source)) == ["'bad file'", "f'x={x} must be > 0'"]


def test_each_error_message_is_raised_once():
    # one home per rule: a message raised at two sites is a rule checked twice
    messages = [m for path in sorted(SRC.glob("*.py")) for m in error_messages(path.read_text())]
    assert sorted({m for m in messages if messages.count(m) > 1}) == []


REPO = SRC.parent.parent
CALLER_DIRS = ("src", "demos", "scripts", "perfbench")


def public_definitions(source: str) -> list[str]:
    """Names of the public functions and classes a module defines at its top level."""
    return [
        node.name for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def referenced_names(tree: ast.AST) -> set[str]:
    """Every name a parsed module or node reads, by name, as an attribute or
    in an import; a definition's own name and the text of strings do not count."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_guard_finds_public_definitions_and_references():
    source = (
        "import numpy.random\n"
        "from .a import b as c\n"
        "def f(x: Spec):\n    def inner(): pass\n    return g(x).h\n"
        "class K: pass\n"
        "def _private(): return 'quoted'\n"
    )
    assert public_definitions(source) == ["f", "K"]
    assert referenced_names(ast.parse(source)) == {"numpy.random", "b", "Spec", "g", "x", "h"}


def test_every_public_name_has_a_caller_outside_tests():
    # a re-export in sadp/__init__.py would not be a caller
    used = set().union(*(
        referenced_names(ast.parse(path.read_text()))
        for d in CALLER_DIRS for path in sorted((REPO / d).rglob("*.py"))
        if path != SRC / "__init__.py"
    ))
    public = {name for path in SRC.glob("*.py") for name in public_definitions(path.read_text())}
    assert sorted(public - used) == []


def uncalled_private_functions(sources: list[str]) -> list[str]:
    """The module-level `_name` functions the sources define that no code
    in them reads outside the function's own body."""
    defined, used = set(), set()
    for source in sources:
        for node in ast.parse(source).body:
            names = referenced_names(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("_"):
                defined.add(node.name)
                names.discard(node.name)
            used |= names
    return sorted(defined - used)


def test_guard_finds_uncalled_private_functions():
    sources = [
        "def _called(): pass\ndef _recursive(n): return _recursive(n - 1)\ndef _unused(): pass\n",
        "from .a import _imported\nTABLE = [_called]\ndef _imported(): pass\n",
    ]
    assert uncalled_private_functions(sources) == ["_recursive", "_unused"]


def test_every_private_function_has_a_caller_in_sadp():
    # a test's call does not count: the private names are sadp's own
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert uncalled_private_functions(sources) == []


def sibling_private_reads(source: str) -> list[str]:
    """`module._name` for each private name a module reads from a sibling it
    imports relatively: `from .models import _backprop`, or `models._backprop`
    after `from . import models` (an alias is traced to its module)."""
    tree = ast.parse(source)
    siblings, reads = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                if node.module is None:
                    siblings[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    reads.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and isinstance(node.value, ast.Name) and node.value.id in siblings
        ):
            reads.append(f"{siblings[node.value.id]}.{node.attr}")
    return sorted(reads)


def test_guard_finds_sibling_private_reads():
    source = (
        "from __future__ import annotations\n"
        "from . import data, models as m\n"
        "from .accountant import _grid, spend\n"
        "def f(w, x):\n    return m._backprop(w), data.poisson_sample(1), x._cache, np._NoValue\n"
        "def _own(): return f\n"
    )
    assert sibling_private_reads(source) == ["accountant._grid", "models._backprop"]


def test_no_module_reads_another_modules_private_names():
    # a private name is its module's own format: a second reader is a
    # second module that must change with it
    reads = {path.name: sibling_private_reads(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: r for name, r in reads.items() if r} == {}
