"""No module of the package imports a name it never uses.

A small `ast` pass stands in for a linter: every name a module binds by an
import, other than a `__future__` feature, must be read somewhere in it or be
listed in its `__all__`.  `__init__` is exempt, since its imports are the
package's namespace.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "shiftkms"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported, read, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - read - exported)


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport sys\nfrom math import pi as tau\nprint(sys.argv)\n"
    assert unused_imports(source) == ["os", "tau"]
    assert unused_imports("from x import f\n__all__ = ['f']\n") == []


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.stem)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
