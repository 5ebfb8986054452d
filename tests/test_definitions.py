"""Every function, class and method ``subtod`` defines is used outside the tests.

A definition counts as used when some module under ``src/`` or ``bench/``
loads its name (``name`` or ``obj.name``), or when a string constant in
``bench/`` is exactly its name: ``bench/tracer.py`` patches functions such
as ``build_group``, ``sample_turn``, ``dialog_success`` and ``replace_turn``
by name. Dunder methods are called by the language and are exempt. A
definition that only the tests reach belongs in the tests.
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
