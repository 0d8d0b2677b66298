"""Check that the program's output files are byte-identical to a base commit's.

Runs one campaign of each benchmark workload (``perfbench/workloads.py``:
``generate``, ``setup``, ``campaign``) per seed, first with the base
commit's ``src/`` and then with this checkout's, each in a fresh
interpreter, and compares the SHA-256 of every file the runs leave behind.
Both sides run in the same absolute work directory, because a ``.frames``
header records the calibration profile's path.  Both use this checkout's
workload definitions, so only the program differs.

    python3 tools/compare_outputs.py BASE_COMMIT

Each side first prints its numpy version and SIMD dispatch: the baseline
features numpy was built for and the features it enabled on this CPU,
which ``NPY_DISABLE_CPU_FEATURES`` narrows.  Some output bits depend on
that dispatch, so a comparison holds for the dispatch it printed.

Exits 0 when every file matches, 1 when a file differs or exists on one
side only, and 2 when a side fails to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("doppler_sound", "gated_split", "tcp_link")
SEEDS = (1, 7)


def _digests(work_dir: str) -> dict[str, str]:
    """SHA-256 of every file under ``work_dir``, keyed by relative path."""
    out = {}
    for dirpath, _, names in os.walk(work_dir):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, work_dir)] = hashlib.sha256(f.read()).hexdigest()
    return out


def dispatch() -> str:
    """This interpreter's numpy version, its baseline SIMD features and
    the features it enabled, as one line."""
    import numpy
    from numpy._core import _multiarray_umath as umath

    enabled = [name for name, on in umath.__cpu_features__.items() if on]
    return (
        f"numpy {numpy.__version__}, baseline {' '.join(umath.__cpu_baseline__)}, "
        f"enabled {' '.join(enabled)}"
    )


def run_side(src: str, work_root: str) -> dict[str, str]:
    """In this interpreter, run one campaign per workload and seed with the
    program in ``src``; return the digests of every file left behind."""
    sys.path[:0] = [src, os.path.join(ROOT, "perfbench")]
    import chansounder
    import workloads

    if not os.path.abspath(chansounder.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"imported chansounder from {chansounder.__file__}, not from {src}")
    digests = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            work_dir = os.path.join(work_root, f"{workload}-{seed}")
            os.makedirs(work_dir)
            inp = workloads.generate(workload, seed, work_dir)
            state = workloads.setup(inp)
            log: list[str] = []
            try:
                ok = workloads.campaign(inp, state, os.path.join(work_dir, "run"), log=log)
            finally:
                state.close()
            if not ok:
                raise RuntimeError(f"{workload} seed {seed} failed: {'; '.join(log)}")
            for rel, digest in _digests(work_dir).items():
                digests[f"{workload}-{seed}/{rel}"] = digest
    return digests


def _export_src(commit: str, dest: str) -> str:
    """Check out ``src/`` of ``commit`` into ``dest`` through a scratch
    index, leaving this checkout's index and files alone; return its path."""
    os.makedirs(dest)
    subprocess.run(
        ["git", "-C", ROOT, f"--work-tree={dest}", "checkout", commit, "--", "src"],
        env={**os.environ, "GIT_INDEX_FILE": os.path.join(dest, "index")}, check=True,
    )
    return os.path.join(dest, "src")


def compare(base: dict[str, str], head: dict[str, str]) -> list[str]:
    """One line per file that differs or exists on one side only."""
    problems = []
    for rel in sorted(base.keys() | head.keys()):
        if rel not in head:
            problems.append(f"only in base: {rel}")
        elif rel not in base:
            problems.append(f"only in head: {rel}")
        elif base[rel] != head[rel]:
            problems.append(f"differs: {rel}")
    return problems


# One side in a fresh interpreter: argv is this file's directory, src, work dir.
_RUN_SIDE = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import compare_outputs; "
    "print(json.dumps([compare_outputs.dispatch(), compare_outputs.run_side(*sys.argv[2:])]))"
)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", help="commit whose outputs this checkout must reproduce")
    args = p.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        work = os.path.join(tmp, "work")
        sides = {}
        for name, src in (
            ("base", _export_src(args.base, os.path.join(tmp, "base"))),
            ("head", os.path.join(ROOT, "src")),
        ):
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            proc = subprocess.run(
                [sys.executable, "-c", _RUN_SIDE, os.path.dirname(os.path.abspath(__file__)), src, work],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            if proc.returncode != 0:
                print(f"{name} ({src}) failed:\n{proc.stderr.strip()[-4000:]}", file=sys.stderr)
                return 2
            info, sides[name] = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{name}: {info}")

    problems = compare(sides["base"], sides["head"])
    for line in problems:
        print(line)
    total = len(sides["base"].keys() | sides["head"].keys())
    print(f"{total - len(problems)} of {total} output files byte-identical to {args.base}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
