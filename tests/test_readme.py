"""The README's examples run as written.

Every document of its ```json block goes through `shiftkms all` at the default
flags, and its ```python quick start is executed, so the documentation cannot
drift away from the code unnoticed.  Its `Flags:` paragraph names exactly the
options of the command-line parser.
"""

import json
import re
from pathlib import Path

import pytest

from shiftkms.cli import _build_parser, main

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
