"""The public surface: eta26.__all__ against the README's Public API table."""

import re
from pathlib import Path

import eta26

README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_all_equals_the_readme_public_api():
    names = _readme_names()
    assert len(names) == len(set(names))
    assert set(names) == set(eta26.__all__)
