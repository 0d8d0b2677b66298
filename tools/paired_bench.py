"""Run the benchmark on a base commit and on this checkout in alternating pairs.

Builds two temporary trees, each with a copy of this checkout's
``perfbench/``: one with the base commit's ``src/``, one with this
checkout's.  Then runs ``perfbench/run.py --trace 0`` for the workload and
seed in both trees, once per pair, with the side that goes first
alternating from pair to pair.  Prints each end-to-end metric of
``BENCHMARK.json`` with its median and quartiles per side, and in how many
pairs the head side was better.

    python3 tools/paired_bench.py BASE_COMMIT --workload doppler_sound --seed 11 --pairs 10 --seconds 10

Exits 0 when every run passed its output checks, 1 when a campaign failed,
and 2 when a side fails to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

from compare_outputs import ROOT, WORKLOADS, _export_src

_COPY_IGNORE = shutil.ignore_patterns("__pycache__", ".perfbench_out")


def _run(tree: str, args) -> dict:
    """The result line of one ``perfbench/run.py --trace 0`` run in ``tree``."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=900 + 2 * args.seconds)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 2 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr.strip()[-4000:]}")
    return json.loads(lines[-1])


def _spread(values: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]"


def report(metrics: list[dict], runs: dict[str, list[dict]]) -> list[str]:
    """One line per end-to-end metric: median [q1, q3] per side and the
    pairs in which head was better; then each side's failed campaigns."""
    out = [f"{'metric':<24}{'better':<8}{'base median [q1, q3]':<40}{'head median [q1, q3]':<40}head better"]
    for m in metrics:
        name, sign = m["name"], (1 if m["better"] == "higher" else -1)
        base, head = ([r["metrics"][name]["value"] for r in runs[side]] for side in ("base", "head"))
        wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
        out.append(f"{name:<24}{m['better']:<8}{_spread(base):<40}{_spread(head):<40}{wins}/{len(base)}")
    for side, results in runs.items():
        failed = sum(r["failed"] for r in results)
        out.append(f"{side}: {failed} of {sum(r['attempted'] for r in results)} campaigns failed")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", help="commit to compare this checkout against")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=10.0, help="measured time per run")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        metrics = json.load(f)["end_to_end"]

    runs: dict[str, list[dict]] = {"base": [], "head": []}
    with tempfile.TemporaryDirectory(prefix="paired-bench-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in runs}
        _export_src(args.base, trees["base"])
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(trees["head"], "src"), ignore=_COPY_IGNORE)
        for tree in trees.values():
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(tree, "perfbench"), ignore=_COPY_IGNORE)
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                try:
                    runs[side].append(_run(trees[side], args))
                except RuntimeError as exc:
                    print(f"{side} failed to run: {exc}", file=sys.stderr)
                    return 2
            print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)

    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs, base {args.base}")
    print("\n".join(report(metrics, runs)))
    return 0 if all(r["correct"] for side in runs.values() for r in side) else 1


if __name__ == "__main__":
    sys.exit(main())
