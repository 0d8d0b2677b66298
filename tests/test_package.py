"""The package's public surface: its exports and the README's list of them."""

import re
from pathlib import Path

import chansounder


def test_every_export_resolves_once():
    assert [name for name in chansounder.__all__ if not hasattr(chansounder, name)] == []
    assert len(set(chansounder.__all__)) == len(chansounder.__all__)
    namespace = {}
    exec("from chansounder import *", namespace)
    assert set(chansounder.__all__) <= set(namespace)


def test_readme_lower_level_pieces_are_exported():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = readme.split("Lower-level pieces (", 1)[1].split(")", 1)[0]
    names = re.findall(r"`(\w+)`", listed)
    assert names and sorted(set(names) - set(chansounder.__all__)) == []


def test_readme_lists_every_export():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    count, listed = readme.split("The package root exports ", 1)[1].split(")", 1)[0].split(" names (", 1)
    assert re.findall(r"`(\w+)`", listed) == chansounder.__all__
    assert int(count) == len(chansounder.__all__)
