"""Every function, class and method ``subtod`` defines is used outside the tests.

A definition counts as used when some module under ``src/`` or ``bench/``
loads its name (``name`` or ``obj.name``), or when a string constant in
``bench/`` is exactly its name: ``bench/tracer.py`` patches functions such
as ``build_group``, ``sample_turn``, ``dialog_success`` and ``replace_turn``
by name. Dunder methods are called by the language and are exempt. A
definition that only the tests reach belongs in the tests. Likewise, every
error class is named by some ``except`` clause or ``isinstance`` check in
``src/subtod``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "subtod"
READERS = (ROOT / "src", ROOT / "bench")


def _trees(root: Path):
    for path in sorted(root.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def _definitions() -> list[tuple[str, int, str]]:
    """(file, line, name) of every function, class and method defined in ``src/subtod``."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        (path.name, node.lineno, node.name)
        for path, tree in _trees(SRC)
        for node in ast.walk(tree)
        if isinstance(node, kinds) and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def _names_used() -> set[str]:
    used = set()
    for root in READERS:
        for path, tree in _trees(root):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    used.add(node.attr)
                elif (
                    root.name == "bench"
                    and isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                ):
                    used.add(node.value)
    return used


def test_every_definition_is_used_outside_the_tests():
    used = _names_used()
    defined = _definitions()
    assert defined
    unused = [f"{file}:{line}: {name}" for file, line, name in defined if name not in used]
    assert unused == []


def _caught_names(tree: ast.AST) -> set[str]:
    """Names in the ``except`` clauses and ``isinstance`` class arguments of ``tree``."""
    checked = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            checked.append(node.type)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            checked.append(node.args[1])
    return {
        name.id if isinstance(name, ast.Name) else name.attr
        for expr in checked
        for name in ast.walk(expr)
        if isinstance(name, (ast.Name, ast.Attribute))
    }


def test_every_error_class_is_caught_somewhere():
    """Each class in ``errors.py`` is named by an ``except`` or ``isinstance`` in ``src/subtod``.

    A class that no handler tells apart is one outcome under two names.
    """
    errors = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    classes = [node.name for node in errors.body if isinstance(node, ast.ClassDef)]
    assert classes
    caught = set().union(*(_caught_names(tree) for _, tree in _trees(SRC)))
    assert [name for name in classes if name not in caught] == []
