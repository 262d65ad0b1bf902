"""Each mutation catalogue entry still applies and names a test that exists.

No mutant runs here: this only checks that every entry's old text occurs
exactly once in its file and that its test function is defined in its test
file, so that a change to either shows up at once rather than on the next
run of tests/mutants/catalogue.py; and that README states the catalogue's size.
"""

import ast
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_catalogue():
    spec = importlib.util.spec_from_file_location(
        "mutant_catalogue", ROOT / "tests" / "mutants" / "catalogue.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CATALOGUE


CATALOGUE = _load_catalogue()


def test_readme_counts_the_mutants_of_the_catalogue():
    # the count in README's prose is kept by hand; tie it to the catalogue
    stated = re.findall(r"\((\d+) mutants\)", (ROOT / "README.md").read_text())
    assert stated == [str(len(CATALOGUE))]


def test_catalogue_names_are_unique():
    names = [m.name for m in CATALOGUE]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", CATALOGUE, ids=[m.name for m in CATALOGUE])
def test_mutant_applies_once_and_names_a_defined_test(mutant):
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    test_file, test_name = mutant.test.split("::")
    tree = ast.parse((ROOT / test_file).read_text())
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert test_name in defined
