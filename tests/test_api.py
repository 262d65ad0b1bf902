"""The public surface: eta26.__all__ against the README's Public API table."""

import ast
import importlib
import re
from pathlib import Path

import eta26

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(eta26.__file__).resolve().parent


def _readme_names():
    """Every backticked name in the table cells of README's Public API section
    after the first column, which names the module."""
    text = README.read_text()
    assert "\n## Public API\n" in text
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    names = []
    for line in section.splitlines():
        if line.startswith("| `"):
            for cell in line.strip().strip("|").split("|")[1:]:
                names += re.findall(r"`(\w+)`", cell)
    return names


def test_all_has_no_duplicates():
    assert len(eta26.__all__) == len(set(eta26.__all__))


def test_every_exported_name_resolves():
    for name in eta26.__all__:
        assert getattr(eta26, name) is not None, name


def test_readme_counts_the_names_of_all():
    # the count in README's prose is kept by hand; the table is checked below
    stated = re.findall(r"`eta26\.__all__` holds (\d+) names", README.read_text())
    assert stated == [str(len(eta26.__all__))]


def test_all_equals_the_readme_public_api():
    names = _readme_names()
    assert len(names) == len(set(names))
    assert set(names) == set(eta26.__all__)


def _sibling_uses():
    """(module, name) for every name one src/eta26 module takes from a sibling,
    by `from .m import name` or by `m.name` after `from . import m`."""
    uses = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        siblings = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    siblings.update((a.asname or a.name, a.name) for a in node.names)
                else:
                    uses.update((node.module, a.name) for a in node.names)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in siblings):
                uses.add((siblings[node.value.id], node.attr))
    return uses


def test_every_function_or_class_used_across_modules_is_public():
    # README: a name is public when code in src/ uses it from another module;
    # underscore names are private by choice, and constants are exempt
    used = {name for module, name in _sibling_uses() if not name.startswith("_")
            and callable(getattr(importlib.import_module(f"eta26.{module}"), name))}
    assert used, "the scan found no cross-module use"
    assert used <= set(eta26.__all__), sorted(used - set(eta26.__all__))
