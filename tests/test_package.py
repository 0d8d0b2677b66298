"""The package's public surface: its exports and the README's list of them."""

import ast
import os
import re
import subprocess
import sys
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


def test_readme_library_use_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert "rms_delay_spread_s" in capsys.readouterr().out


def _names_used(tree: ast.Module) -> set[str]:
    """Every name a module reads, also inside string annotations and
    ``__all__`` entries."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                used |= _names_used(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return used


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted((Path(chansounder.__file__).parent).glob("*.py")):
        tree = ast.parse(path.read_text())
        used = _names_used(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno}: {name}" for name in names if name not in used]
    assert unused == []


def test_importing_the_cli_does_not_load_numpy_random():
    # numpy.random is imported where noise is drawn, so a process that
    # draws none never pays for loading it
    src = str(Path(chansounder.__file__).resolve().parents[1])
    code = "import sys, chansounder.cli; print('numpy.random' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out == "False\n"
