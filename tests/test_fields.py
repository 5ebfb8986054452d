"""Every field a ``subtod`` dataclass or NamedTuple declares is read somewhere.

A field counts as read when some module under ``src/`` or ``bench/`` loads
it as an attribute (``obj.field``); ``bench/`` counts because the tracer
reads the parsers' diagnostics. Every field of a class that writes itself
out with ``asdict(self)`` counts as read too, since that call reads them
all into the output. A field that nothing reads is dead weight that every
constructor still has to fill.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "subtod"
READERS = (ROOT / "src", ROOT / "bench")


def _last_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _is_record_class(node: ast.ClassDef) -> bool:
    bases = {_last_name(base) for base in node.bases}
    return "NamedTuple" in bases or any(
        _last_name(d) == "dataclass" for d in node.decorator_list
    )


def _writes_itself_out(node: ast.ClassDef) -> bool:
    """True if a method of the class ``node`` calls ``asdict(self)``."""
    return any(
        isinstance(call, ast.Call) and _last_name(call) == "asdict"
        and [getattr(arg, "id", None) for arg in call.args] == ["self"]
        for call in ast.walk(node)
    )


def _declared_fields(path: Path) -> list[tuple[str, str, int]]:
    """(class, field, line) of every field declared on a dataclass or NamedTuple in ``path``.

    A class that writes itself out with ``asdict(self)`` reads all its fields: none is listed.
    """
    fields = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (
            isinstance(node, ast.ClassDef)
            and _is_record_class(node)
            and not _writes_itself_out(node)
        ):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    fields.append((node.name, stmt.target.id, stmt.lineno))
    return fields


def _attributes_read() -> set[str]:
    read = set()
    for root in READERS:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
    return read


def test_every_declared_field_is_read():
    read = _attributes_read()
    declared = [
        (path.name, cls, name, line)
        for path in sorted(SRC.glob("*.py"))
        for cls, name, line in _declared_fields(path)
    ]
    assert declared
    unread = [
        f"{file}:{line}: {cls}.{name}" for file, cls, name, line in declared if name not in read
    ]
    assert unread == []
