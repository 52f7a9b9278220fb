"""Every module of the package and of the tests references each name it
imports. No linter runs here, so this scan is what catches an import left
behind by an edit. Package `__init__.py` files re-export what they import,
`__future__` imports are directives, and an import whose line is marked
`# noqa` is kept on purpose."""

import ast
from pathlib import Path

import pytest

import skewtab

MODULES = sorted(Path(skewtab.__file__).parent.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each name bound by an import in source that no Name
    node reads or writes; attribute access starts at a Name, so `mod.attr`
    counts as a use of `mod`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and "# noqa" not in lines[alias.lineno - 1]:
                out.append((alias.lineno, name))
    return out


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_an_unused_import():
    source = "import os\nimport re  # noqa\nfrom __future__ import annotations\nfrom x import y as z, w\nw()\n"
    assert unused_imports(source) == [(1, "os"), (4, "z")]
