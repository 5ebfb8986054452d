"""Every name a ``subtod`` module imports is used in that module.

An import kept on purpose carries ``# noqa: F401`` on its statement's first
line or on the imported name's own line.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "subtod"
NOQA = "# noqa: F401"


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            exempt = NOQA in lines[node.lineno - 1] or NOQA in lines[alias.lineno - 1]
            if name not in used and not exempt:
                unused.append(f"{path.name}:{alias.lineno}: {name}")
    return unused


def test_no_module_imports_a_name_it_does_not_use():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert unused == []
