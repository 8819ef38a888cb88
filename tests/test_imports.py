"""Every imported name is read by its module.

An ``ast`` scan of the library, the tests and the demos: a name bound by
an import and never loaded is an unused import.  ``__init__.py`` files
are skipped, since their imports are the package's re-exports, and so
are ``__future__`` imports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for top in ("src/homlab", "tests", "demos")
                 for p in (ROOT / top).rglob("*.py") if p.name != "__init__.py")


def unread_imports(source):
    """The names that ``source`` binds by an import and never loads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in loaded)


def test_scan_finds_an_unread_import():
    src = "import os\nimport numpy as np\nfrom a.b import c, d as e\nprint(np, c)\n"
    assert unread_imports(src) == [(1, "os"), (3, "e")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    assert unread_imports(path.read_text()) == []
