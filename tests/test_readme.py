"""The README's examples run as written.

Every document of its ```json block goes through `shiftkms all` at the default
flags, and its ```python quick start is executed, so the documentation cannot
drift away from the code unnoticed.  Its `Flags:` paragraph names exactly the
options of the command-line parser, and every backticked `module.name` it cites,
where module is one of the package's modules, `Automaton` or `PerronData`, exists.
Every backticked snake_case identifier and every backticked call `name(...)`
occurs in the package source as an identifier, so no deleted name stays cited.
"""

import ast
import importlib
import json
import pkgutil
import re
from pathlib import Path

import pytest

import shiftkms
from shiftkms.cli import _build_parser, main
from shiftkms.spectral import PerronData
from shiftkms.subshift import Automaton

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)


DOCUMENTS = [line for block in _blocks("json") for line in block.splitlines() if line.strip()]


def test_readme_has_examples():
    assert len(DOCUMENTS) == 5 and len(_blocks("python")) == 1


@pytest.mark.parametrize("doc", DOCUMENTS, ids=lambda doc: json.loads(doc)["type"])
def test_readme_document_runs_all(doc, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(doc, encoding="utf-8")
    assert main(["all", str(path), "--no-timestamp"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("{") and captured.err == ""


def test_readme_quick_start_runs():
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})


def test_readme_flags_line_lists_exactly_the_parser_options():
    (paragraph,) = re.findall(r"^Flags: (.*?)\n\n", README, flags=re.M | re.S)
    options = [s for a in _build_parser()._actions for s in a.option_strings if s not in ("-h", "--help")]
    assert re.findall(r"`(--[\w-]+)`", paragraph) == options


def _has(owner, name):
    # a dataclass field without a default is no class attribute
    return hasattr(owner, name) or name in getattr(owner, "__dataclass_fields__", {})


def test_readme_dotted_names_resolve():
    modules = [m.name for m in pkgutil.iter_modules(shiftkms.__path__) if not m.name.startswith("_")]
    owners = {name: importlib.import_module(f"shiftkms.{name}") for name in modules}
    owners.update(Automaton=Automaton, PerronData=PerronData)
    cited = [(o, n) for o, n in re.findall(r"`(\w+)\.(\w+)`", README) if o in owners]
    assert len(cited) >= 4
    assert [f"{o}.{n}" for o, n in cited if not _has(owners[o], n)] == []


def _source_identifiers() -> set[str]:
    """Every identifier of the package source: a def or class, a name, an attribute,
    an argument or keyword, or an identifier-like string such as a report key."""
    names = set()
    for path in Path(shiftkms.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
                names.add(node.arg)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                names.add(node.value)
    return names


def test_readme_identifiers_occur_in_the_source():
    spans = re.findall(r"`([^`\n]+)`", README)
    snake = {s for s in spans if re.fullmatch(r"[a-z]\w*_\w+", s)}
    calls = {m.group(1) for s in spans if (m := re.match(r"(\w+)\(", s))}
    cited = snake | calls
    assert len(cited) >= 20
    assert sorted(cited - _source_identifiers()) == []
