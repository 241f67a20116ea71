"""No module of the package or its tests imports a name it never uses, and no
module of the package defines a private name or a dataclass field that nothing
reads, uses a private name of another module, or states the integer rule of a
count itself.

Five small `ast` passes stand in for a linter.  Every name a module binds by an
import, other than a `__future__` feature, must be read somewhere in it or be
listed in its `__all__`; the package's `__init__` is exempt, since its imports
are the package's namespace.  Every module-level private name (a function, class or
assigned constant with one leading underscore) must be read by some module of
the package, as a name or as an attribute.  No module of the package uses a
private name of a sibling, neither as an attribute such as `spectral._x` of a
module bound by `from . import spectral` nor by `from .spectral import _x`;
dunders such as `__version__` do not count.
Every field of a dataclass of the package must be read as an attribute, or named
in a call of `cli._fields`, by some file of the package, its tests or the benchmark.
No module but `spectral`, whose `as_count` is the one rule, raises a
`ValueError` whose message says "must be >=" or "must be an integer".
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "shiftkms"


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


IMPORTING = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py") + sorted((ROOT / "tests").glob("*.py"))


@pytest.mark.parametrize("path", IMPORTING, ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def orphan_private_names(sources: dict[str, str]) -> list[str]:
    """module.name for each module-level private name of sources (module -> text) that none reads."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, n) for n in names if n.startswith("_") and not n.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(f"{module}.{name}" for module, name in defined if name not in read)


def test_the_check_sees_an_orphan_private_name():
    sources = {
        "a": "__all__ = []\n_used = 1\n_orphan, _LIMIT = 2, 3\ndef _f():\n    return _used\nclass _C:\n    pass\n",
        "b": "from . import a\nfrom .a import _LIMIT\na._f()\nprint(a._C, _LIMIT)\na._orphan = 4\n",
    }
    assert orphan_private_names(sources) == ["a._orphan"]


def test_every_private_name_is_read():
    assert orphan_private_names({p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def foreign_private_uses(sources: dict[str, str]) -> list[str]:
    """'module: sibling._name' for each use, in a module of sources (module -> text), of a private name of a
    sibling: imported by `from .sibling import _name`, or an attribute of a module bound by `from . import`."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        siblings = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
                siblings.update((a.asname or a.name, a.name) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                found += [f"{module}: {node.module}.{a.name}" for a in node.names if _private(a.name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in siblings and _private(node.attr):
                found.append(f"{module}: {siblings[node.value.id]}.{node.attr}")
    return sorted(found)


def test_the_check_sees_a_foreign_private_name():
    sources = {
        "a": "from . import b as bee\nclass _C:\n    _x = 1\n_LIMIT = _C._x\nprint(bee.__name__, bee.public)\n",
        "b": "from . import a, __version__\nfrom .a import _LIMIT, pi\na._f()\nprint(a.__doc__, _LIMIT)\na._C = 4\n",
        "c": "from . import a\nfrom .a import _f as g\nprint(a.__all__, a._C)\n",
    }
    assert foreign_private_uses(sources) == ["b: a._C", "b: a._LIMIT", "b: a._f", "c: a._C", "c: a._f"]


def test_no_module_uses_a_private_name_of_another():
    assert foreign_private_uses({p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}) == []


def unread_fields(defining: dict[str, str], reading: list[str]) -> list[str]:
    """Class.field for each field of a dataclass of defining (module -> text) that no text of reading
    loads as an attribute or names in a `_fields(report, ...)` call, where each component of a dotted
    path counts and the key of a (key, path) pair does not.  Fields are matched by name alone, so a
    field is taken as read when a field of the same name of any other class is: `BetaExpansion.beta`
    would pass for `KmsReport.beta`."""
    fields = []
    for source in defining.values():
        for node in ast.walk(ast.parse(source)):
            decorators = [d.func if isinstance(d, ast.Call) else d for d in getattr(node, "decorator_list", [])]
            if isinstance(node, ast.ClassDef) and any(getattr(d, "id", None) == "dataclass" for d in decorators):
                fields += [(node.name, f.target.id) for f in node.body if isinstance(f, ast.AnnAssign)]
    read = set()
    for source in reading:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_fields":
                read.update(c for arg in node.args[1:] for c in _field_path(arg).split("."))
    return sorted(f"{cls}.{name}" for cls, name in fields if name not in read)


def _field_path(arg) -> str:
    """The attribute path of a name passed to `cli._fields`: a string, or the second item of a pair."""
    if isinstance(arg, ast.Tuple):
        arg = arg.elts[1]
    return arg.value if isinstance(arg, ast.Constant) and isinstance(arg.value, str) else ""


def test_the_check_sees_an_unread_field():
    defining = {
        "a": (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\nclass R:\n    kept: int\n    echo: int\n    beta: float\n"
            "@dataclass\nclass S:\n    beta: float\n    size: int = 0\n"
            "class Plain:\n    unread: int\n"
        ),
    }
    reading = ["r = R(1, 2, 3)\nprint(r.kept, S(1.0).beta)\nr.echo = 4\n"]
    # R.beta is unread, but S.beta of the same name is read
    assert unread_fields(defining, reading) == ["R.echo", "S.size"]
    # a name passed to _fields is read, each component of its dotted path too, but not its key
    defining["b"] = "from dataclasses import dataclass\n@dataclass\nclass T:\n    x: int\n    key: int\n"
    reading.append('_fields(r, "kept", ("key", "echo.x"))\n')
    assert unread_fields(defining, reading) == ["S.size", "T.key"]


def test_every_dataclass_field_is_read():
    defining = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    readers = [p for d in (SRC, ROOT / "tests", ROOT / "perfbench") for p in sorted(d.glob("*.py"))]
    assert unread_fields(defining, [p.read_text(encoding="utf-8") for p in readers]) == []


COUNT_RULE = ("must be >=", "must be an integer")


def count_rule_raises(source: str) -> list[int]:
    """Line of each `raise ValueError(...)` whose message, a string or an f-string, states a count rule."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        call = node.exc if isinstance(node, ast.Raise) else None
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "ValueError" and call.args:
            strings = [c.value for c in ast.walk(call.args[0]) if isinstance(c, ast.Constant)]
            text = "".join(s for s in strings if isinstance(s, str))
            if any(rule in text for rule in COUNT_RULE):
                lines.append(node.lineno)
    return sorted(lines)


def test_the_check_sees_a_count_rule():
    source = (
        "def f(n, d):\n"
        "    if n < 0:\n"
        '        raise ValueError("n must be >= 0")\n'
        '    raise ValueError(f"{d!r} must be an integer, got {d}")\n'
        'raise ValueError(f"beta must be > 1, got {b}")\n'
        'raise InputError("field must be an integer")\n'
    )
    assert count_rule_raises(source) == [3, 4]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.stem != "spectral"), ids=lambda p: p.stem)
def test_only_spectral_states_the_count_rule(path):
    assert count_rule_raises(path.read_text(encoding="utf-8")) == []
