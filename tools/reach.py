"""List the statements of ``src/chansounder`` that the benchmark's campaigns never run.

Runs one campaign of each benchmark workload (``perfbench/workloads.py``:
``generate``, ``setup``, ``campaign``; seed 1, in a temporary directory),
as ``tools/compare_outputs.py`` does, under a line tracer on every thread
(``sys.settrace`` and ``threading.settrace``: the matrix slices and the
TCP sender run on threads of their own).  The tracer starts before the
program is imported, so module-level statements count too.  Then it
prints each statement of ``src/chansounder`` that no campaign ran, as
``module:line: text``: first those that neither raise nor sit in an
``except`` handler, then those that do.  The benchmark cannot see the
speed of a statement it never runs.

    python3 tools/reach.py [--workload W]...

A statement counts as run when a line of its own (its header, for a
compound statement) does; one with no code of its own, a docstring say,
is not listed.  This is a report, not a gate: it exits 0, or 1 when a
campaign fails.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import tempfile
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "chansounder")
WORKLOADS = ("doppler_sound", "gated_split", "tcp_link")
SEED = 1


def _code_lines(code: types.CodeType) -> set[int]:
    """The lines that hold code in ``code`` and the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _head(node: ast.stmt) -> range:
    """The lines of ``node`` that are its own: all of a simple statement,
    the decorators and header lines of a compound one."""
    body = getattr(node, "body", None)
    if not isinstance(body, list) or not body:
        return range(node.lineno, node.end_lineno + 1)
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    return range(first, max(node.lineno + 1, body[0].lineno))


def statements(path: str):
    """Yield ``(lines, first line's text, raises)`` for each statement of
    the module at ``path`` with code of its own: the lines that hold that
    code, and whether it is a ``raise`` or sits in an ``except`` handler."""
    with open(path, encoding="utf-8") as f:
        source = f.read()
    code = _code_lines(compile(source, path, "exec"))
    text = source.splitlines()

    def walk(node: ast.AST, in_handler: bool):
        for child in ast.iter_child_nodes(node):
            handler = in_handler or isinstance(child, ast.ExceptHandler)
            if isinstance(child, ast.stmt) and not (
                isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)  # a docstring
            ):
                lines = set(_head(child)) & code
                if lines:
                    yield lines, text[child.lineno - 1].strip(), handler or isinstance(child, ast.Raise)
            yield from walk(child, handler)

    yield from walk(ast.parse(source, path), False)


def unreached(executed: dict[str, set[int]]) -> tuple[list[str], list[str]]:
    """The ``module:line: text`` lines of the statements no line of which
    is in ``executed`` (lines run, by file): those that neither raise nor
    sit in an ``except`` handler, and those that do."""
    plain: list[str] = []
    raising: list[str] = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        ran = executed.get(path, set())
        for lines, text, raises in statements(path):
            if not lines & ran:
                (raising if raises else plain).append(f"{name}:{min(lines)}: {text}")
    return plain, raising


def trace_campaigns(workloads) -> tuple[dict[str, set[int]], list[str]]:
    """Run one campaign of each workload under a line tracer on every
    thread; return the lines of ``src/chansounder`` run, by file, and a
    line per failed campaign."""
    executed: dict[str, set[int]] = {}
    prefix = SRC + os.sep

    def local(frame, event, arg):
        if event == "line":
            executed.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import workloads as wl  # the standard library only; the program is imported by setup

    failures = []
    threading.settrace(start)
    sys.settrace(start)
    try:
        with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
            for workload in workloads:
                work_dir = os.path.join(tmp, workload)
                os.makedirs(work_dir)
                inp = wl.generate(workload, SEED, work_dir)
                state = wl.setup(inp)
                log: list[str] = []
                try:
                    if not wl.campaign(inp, state, os.path.join(work_dir, "run"), log=log):
                        failures.append(f"{workload} seed {SEED} failed: {'; '.join(log)}")
                finally:
                    state.close()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    import chansounder

    if not os.path.abspath(chansounder.__file__).startswith(prefix):
        raise RuntimeError(f"imported chansounder from {chansounder.__file__}, not from {SRC}")
    return executed, failures


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=WORKLOADS, help="a workload to run (default: all)")
    args = p.parse_args(argv)

    executed, failures = trace_campaigns(args.workload or WORKLOADS)
    for line in failures:
        print(line, file=sys.stderr)
    plain, raising = unreached(executed)
    print(f"# {len(plain)} statements of src/chansounder that no campaign ran:")
    print("\n".join(plain))
    print(f"# {len(raising)} more that raise or sit in an except handler:")
    print("\n".join(raising))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
