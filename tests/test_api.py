"""The public API as shipped: `skewtab.__all__`, the package namespace and the
README's "Public API" table name the same names, and the README's examples
run as printed. Runs against the source tree or an installed package alike."""

import contextlib
import importlib
import io
import re
import shlex
import types
from pathlib import Path

import pytest

import skewtab
from skewtab.cli import run

from conftest import capture

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
FENCED = re.compile(r"^```[a-z]*\n(.*?)^```$", re.M | re.S)


def _section(title: str) -> str:
    """The README text under heading `## title`, up to the next such heading."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : end if end >= 0 else len(README)]


def _api_table() -> dict[str, list[str]]:
    """Module name -> names, read off the README's Public API table."""
    table = {}
    for line in _section("Public API").splitlines():
        cells = line.split("|")
        if len(cells) == 4 and cells[1].strip().startswith("`"):
            table[cells[1].strip().strip("`")] = re.findall(r"`(\w+)`", cells[2])
    return table


def test_all_has_64_distinct_names():
    assert len(skewtab.__all__) == 64
    assert len(set(skewtab.__all__)) == len(skewtab.__all__)


def test_package_namespace_is_all():
    public = {
        name
        for name, value in vars(skewtab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(skewtab.__all__)


def test_readme_table_is_all():
    table = _api_table()
    listed = [name for names in table.values() for name in names]
    assert sorted(listed) == sorted(skewtab.__all__)
    for module, names in table.items():
        home = importlib.import_module(f"skewtab.{module}")
        for name in names:
            assert getattr(home, name) is getattr(skewtab, name), (module, name)


def test_readme_quick_start_runs_as_printed():
    (block,) = FENCED.findall(_section("Library quick start"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    # Each print's trailing comment is its output, with "..." eliding a middle part.
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    comments = [line.split("#", 1)[1].strip() for line in prints]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(comments)
    for shown, got in zip(comments, printed):
        head, elided, tail = shown.partition(" ... ")
        assert got.startswith(head) and got.endswith(tail) if elided else got == shown, (shown, got)


CLI_EXAMPLES = [
    block.splitlines() for block in FENCED.findall(README) if block.startswith("$ skewtab ")
]


def test_readme_has_cli_examples():
    assert len(CLI_EXAMPLES) == 4


@pytest.mark.parametrize("lines", CLI_EXAMPLES, ids=lambda lines: lines[0][2:])
def test_readme_cli_example_matches_run(lines):
    code, out, err = capture(run, shlex.split(lines[0])[2:])
    assert (code, err) == (0, "")
    assert out.splitlines() == lines[1:]
