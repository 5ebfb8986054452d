"""A mutation probe: change one operator in a rule module, run tier-1, and see whether a test fails.

pytest does not collect this file, and it is not part of tier-1. It copies
``src/``, ``tests/`` and ``bench/`` into a scratch directory, checks that
tier-1 passes there, and mutates only that copy.
For each module it lists every operator site (a comparison, an arithmetic
or boolean operator, a ``not``, an integer or boolean constant, and the
``all``/``any`` and ``min``/``max`` builtins), picks ``--per-module`` of
them with a fixed seed, and runs tier-1 with ``-x`` once per mutant. A
mutant that no test kills is printed as a survivor. A mutant whose run takes
three times as long as the unmutated one, plus a minute, hangs: its run is
stopped and it counts as killed.

Sites that cannot change an output are not listed: decorator arguments
(``@dataclass(frozen=True)``, ``@lru_cache(maxsize=...)``), ``repr=``
arguments, and the values of the tuning constants in ``TUNING_CONSTANTS``,
which size a memo, a block or a connection pool. So every survivor is a
candidate gap.

Run it with:

    python tests/mutate.py [--per-module 14] [--seed 0] [--workdir DIR] [module ...]

With no module named, it probes ``evaluate``, ``subgoals``, ``sampling``,
``verbalize`` and ``iteration``. Each mutant costs up to one tier-1 run.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("evaluate", "subgoals", "sampling", "verbalize", "iteration")
# Module-level constants that bound a memo, a block or a pool; no output depends on them.
TUNING_CONSTANTS = frozenset(
    {"PARSE_MEMO_SIZE", "NORMALIZE_MEMO_SIZE", "BLOCK_SIZE", "MAX_IN_FLIGHT"}
)

_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult, ast.Div: ast.Mult,
    ast.And: ast.Or, ast.Or: ast.And,
}
_BUILTINS = {"all": "any", "any": "all", "min": "max", "max": "min"}


def _mutations(node: ast.AST) -> list[ast.AST]:
    """The mutated copies of ``node`` that change one operator, constant or builtin name."""
    out = []
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in _SWAPS:
                ops = list(node.ops)
                ops[i] = _SWAPS[type(op)]()
                out.append(ast.Compare(node.left, ops, node.comparators))
    elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in _SWAPS:
        fields = {name: getattr(node, name) for name in node._fields}
        out.append(type(node)(**{**fields, "op": _SWAPS[type(node.op)]()}))
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        out.append(node.operand)
    elif isinstance(node, ast.Constant) and type(node.value) in (int, bool):
        value = not node.value if isinstance(node.value, bool) else node.value + 1
        out.append(ast.Constant(value))
    elif isinstance(node, ast.Name) and node.id in _BUILTINS:
        out.append(ast.Name(_BUILTINS[node.id], node.ctx))
    return out


def _inert(tree: ast.Module) -> set[int]:
    """The ids of the nodes in ``tree`` whose mutants cannot change an output (module docstring)."""
    roots: list[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            roots += node.decorator_list
        elif isinstance(node, ast.keyword) and node.arg == "repr":
            roots.append(node.value)
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id in TUNING_CONSTANTS for t in targets):
            roots.append(node.value)
    return {id(node) for root in roots for node in ast.walk(root)}


def mutants(source: str) -> list[tuple[int, str, str]]:
    """Every one-site mutant of ``source``: its line, the mutated text, and the whole mutated source.

    Only the mutated node's own text changes, so comments and layout stay.
    A mutated expression is parenthesized, so it binds as the original did.
    Nodes that ``_inert`` lists get no mutant.
    """
    tree = ast.parse(source)
    inert = _inert(tree)
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line.encode("utf-8")))
    encoded = source.encode("utf-8")
    out = []
    for node in ast.walk(tree):
        if not hasattr(node, "end_col_offset") or id(node) in inert:
            continue
        begin = starts[node.lineno - 1] + node.col_offset
        end = starts[node.end_lineno - 1] + node.end_col_offset
        for mutated in _mutations(node):
            text = ast.unparse(mutated)
            if isinstance(mutated, ast.expr):
                text = f"({text})"
            new = encoded[:begin] + text.encode("utf-8") + encoded[end:]
            out.append((node.lineno, text, new.decode("utf-8")))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="*", default=list(MODULES))
    parser.add_argument("--per-module", type=int, default=14)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workdir", help="scratch directory for the copy (default: a new temp dir)")
    args = parser.parse_args(argv)
    work = Path(args.workdir or tempfile.mkdtemp(prefix="subtod-mutate-"))
    for name in ("src", "tests", "bench"):
        shutil.rmtree(work / name, ignore_errors=True)
        shutil.copytree(ROOT / name, work / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", work / "pyproject.toml")
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--continue-on-collection-errors"]
    start = time.monotonic()
    if subprocess.run(command, cwd=work, env=env, capture_output=True).returncode != 0:
        print(f"tier-1 fails in {work} before any mutation", file=sys.stderr)
        return 1
    limit = 3 * (time.monotonic() - start) + 60
    rng = random.Random(args.seed)
    survivors = total = 0
    for module in args.modules:
        path = work / "src" / "subtod" / f"{module}.py"
        original = path.read_text(encoding="utf-8")
        candidates = mutants(original)
        picked = sorted(rng.sample(range(len(candidates)), min(args.per_module, len(candidates))))
        for index in picked:
            line, text, mutated = candidates[index]
            path.write_text(mutated, encoding="utf-8")
            try:
                done = subprocess.run(command, cwd=work, env=env, capture_output=True,
                                      timeout=limit)
                verdict = "killed " if done.returncode != 0 else "SURVIVED"
            except subprocess.TimeoutExpired:
                verdict = "hung   "
            finally:
                path.write_text(original, encoding="utf-8")
            total += 1
            survivors += verdict == "SURVIVED"
            print(f"{verdict} {module}.py:{line}: {text}", flush=True)
    print(f"{total - survivors} of {total} mutants killed, {survivors} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
