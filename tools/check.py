"""A stdlib-only static scan for three slips ruff would flag.

    python tools/check.py PATH [PATH ...]

Parses every ``.py`` file under the given files and directories and
reports, one ``path:line: CODE message`` line each:

* ``F401`` an import whose name nothing in the module uses (names in
  ``__all__``, string annotations and ``TypeVar``/``cast`` arguments
  count as uses; a line carrying ``# noqa`` is skipped);
* ``F841`` a local assigned by a plain assignment, or bound by
  ``except ... as``, that its function never reads (``_``-prefixed
  names are exempt);
* ``B905`` a ``zip()`` call without ``strict=``.

Exits 1 if anything is reported.  It is a subset of the ruff rules the
CI lint job enforces (``pyproject.toml``), for machines without ruff.
"""

from __future__ import annotations

import argparse
import ast
import pathlib
import sys
from typing import Iterator, List, Set, Tuple

Finding = Tuple[int, str, str]


def _string_names(node: ast.AST) -> Iterator[str]:
    """Names read inside string constants under ``node`` that parse as
    expressions (forward-referenced annotations)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                expr = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            for name in ast.walk(expr):
                if isinstance(name, ast.Name):
                    yield name.id


def _used_names(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used.update(_string_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                used.update(_string_names(node.returns))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("TypeVar", "cast"):
                used.update(_string_names(node))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(_string_names(node.value))
            for elt in ast.walk(node.value):
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    used.add(elt.value)
    return used


def unused_imports(tree: ast.Module, lines: List[str]) -> Iterator[Finding]:
    used = _used_names(tree)
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound in used or alias.name == "*":
                continue
            if "# noqa" in lines[alias.lineno - 1]:
                continue
            yield alias.lineno, "F401", f"{alias.name!r} imported but unused"


def _scope_walk(node: ast.AST) -> Iterator[ast.AST]:
    """Every node of a function body, nested functions included (a
    closure's read of a local is a use)."""
    for child in ast.iter_child_nodes(node):
        yield child
        yield from _scope_walk(child)


def unused_locals(tree: ast.Module) -> Iterator[Finding]:
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        assigned: List[Tuple[str, int]] = []
        read: Set[str] = set()
        declared: Set[str] = set()
        for node in _scope_walk(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assigned.append((target.id, node.lineno))
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    assigned.append((node.target.id, node.lineno))
            elif isinstance(node, ast.ExceptHandler) and node.name:
                assigned.append((node.name, node.lineno))
        for name, lineno in assigned:
            if name in read or name in declared or name.startswith("_"):
                continue
            yield lineno, "F841", f"local {name!r} assigned but never used"


def zip_without_strict(tree: ast.Module) -> Iterator[Finding]:
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "zip"
            and not any(kw.arg == "strict" for kw in node.keywords)
        ):
            yield node.lineno, "B905", "zip() without an explicit strict="


def check_file(path: pathlib.Path) -> List[Finding]:
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    findings = [
        *unused_imports(tree, lines),
        *unused_locals(tree),
        *zip_without_strict(tree),
    ]
    return sorted(findings)


def python_files(paths: List[str]) -> Iterator[pathlib.Path]:
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("paths", nargs="+", help="files or directories")
    args = parser.parse_args(argv)
    found = 0
    for path in python_files(args.paths):
        for lineno, code, message in check_file(path):
            print(f"{path}:{lineno}: {code} {message}")
            found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
