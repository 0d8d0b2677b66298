"""``tools/reach.py`` lists the statements of ``src/chansounder`` that the
benchmark's campaigns never run."""

import ast
import inspect
import os
import subprocess
import sys
import textwrap

from chansounder import corrmath, sounder

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _body_lines(fn) -> list[int]:
    """The first line of each statement of ``fn``'s own body, its docstring aside."""
    lines, first = inspect.getsourcelines(fn)
    (node,) = ast.parse(textwrap.dedent("".join(lines))).body
    return [first + s.lineno - 1 for s in node.body if not isinstance(s, ast.Expr)]


def test_reach_lists_what_a_doppler_sound_campaign_never_runs():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "reach.py"), "--workload", "doppler_sound"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    listed = {line.split(": ", 1)[0] for line in proc.stdout.splitlines() if not line.startswith("#")}
    # the pipeline correlates through _pccf_in_place, so fast_pccf never runs
    assert f"corrmath.py:{_body_lines(corrmath.fast_pccf)[-1]}" in listed
    assert not {f"sounder.py:{line}" for line in _body_lines(sounder.frames_from_capture)} & listed
