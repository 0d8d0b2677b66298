"""Run the benchmark on a base commit and on this checkout in alternating pairs.

Builds two temporary trees, each with a copy of this checkout's
``perfbench/``: one with the base commit's ``src/``, one with this
checkout's.  Then, for each ``--seed`` in turn, runs ``perfbench/run.py
--trace 0`` for the workload and seed in both trees, once per pair, with
the side that goes first alternating from pair to pair, and prints each
pair's end-to-end metrics to stderr as it completes.  Then prints, per
seed, each end-to-end metric of ``BENCHMARK.json`` with its median and
quartiles per side, in how many pairs the head side was better, and a
verdict by the claim rule: ``gain``, ``regression``, ``unresolved`` or
``no change`` (see ``verdict``).  Last comes each metric's verdict over
all seeds (see ``overall``): one run of pairs can read a gain that
another seed does not, so a gain holds only where every seed reads one.

    python3 tools/paired_bench.py BASE_COMMIT --workload doppler_sound --seed 11 --seed 12 --pairs 10 --seconds 10

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


def _run(tree: str, args, seed: int) -> dict:
    """The result line of one ``perfbench/run.py --trace 0`` run in ``tree``."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=900 + 2 * args.seconds)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 2 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr.strip()[-4000:]}")
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """q1, median and q3 (all three the value itself for one run)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _spread(values: list[float]) -> str:
    q1, median, q3 = _quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def verdict(metric: dict, base: list[float], head: list[float]) -> str:
    """The claim rule on one metric's paired runs.

    ``gain``: head is better in at least nine tenths of at least ten
    pairs (ties count for neither) and its median is better by more than
    the base's q3 - q1.  ``regression``: head's median is worse by more
    than the metric's ``bound``, a fraction of the base median.
    ``unresolved``: the base's q3 - q1 is wider than that bound and not
    every head run is better than every base run.  Otherwise ``no change``.
    """
    sign = 1 if metric["better"] == "higher" else -1
    q1, median, q3 = _quartiles(base)
    better_by = sign * (statistics.median(head) - median)
    bound = metric["bound"] * abs(median)
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    if len(base) >= 10 and 10 * wins >= 9 * len(base) and better_by > q3 - q1:
        return "gain"
    if -better_by > bound:
        return "regression"
    if q3 - q1 > bound and min(sign * h for h in head) <= max(sign * b for b in base):
        return "unresolved"
    return "no change"


def overall(verdicts: list[str]) -> str:
    """One metric's verdict over the :func:`verdict` of each seed:
    ``regression`` when any seed reads it, ``gain`` only when every seed
    does, else ``unresolved`` when any seed does, else ``no change``."""
    if "regression" in verdicts:
        return "regression"
    if all(v == "gain" for v in verdicts):
        return "gain"
    return "unresolved" if "unresolved" in verdicts else "no change"


def _values(runs: dict[str, list[dict]], name: str) -> tuple[list[float], list[float]]:
    """Metric ``name`` of each base run and of each head run."""
    base, head = ([r["metrics"][name]["value"] for r in runs[side]] for side in ("base", "head"))
    return base, head


def report(metrics: list[dict], runs: dict[str, list[dict]]) -> list[str]:
    """One line per end-to-end metric: median [q1, q3] per side, the
    pairs in which head was better and the :func:`verdict`; then each
    side's failed campaigns."""
    out = [
        f"{'metric':<24}{'better':<8}{'base median [q1, q3]':<40}{'head median [q1, q3]':<40}"
        f"{'head better':<13}verdict"
    ]
    for m in metrics:
        name, sign = m["name"], (1 if m["better"] == "higher" else -1)
        base, head = _values(runs, name)
        wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
        out.append(
            f"{name:<24}{m['better']:<8}{_spread(base):<40}{_spread(head):<40}"
            f"{f'{wins}/{len(base)}':<13}{verdict(m, base, head)}"
        )
    for side, results in runs.items():
        failed = sum(r["failed"] for r in results)
        out.append(f"{side}: {failed} of {sum(r['attempted'] for r in results)} campaigns failed")
    return out


def summary(metrics: list[dict], runs_by_seed: dict[int, dict[str, list[dict]]]) -> list[str]:
    """One line per end-to-end metric: each seed's :func:`verdict` and the
    :func:`overall` verdict."""
    out = [f"{'metric':<24}{'verdict per seed':<48}overall"]
    for m in metrics:
        verdicts = [verdict(m, *_values(runs, m["name"])) for runs in runs_by_seed.values()]
        per_seed = ", ".join(f"{seed}: {v}" for seed, v in zip(runs_by_seed, verdicts))
        out.append(f"{m['name']:<24}{per_seed:<48}{overall(verdicts)}")
    return out


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", help="commit to compare this checkout against")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, action="append", help="a seed to run pairs for; repeat for more (default 0)")
    p.add_argument("--pairs", type=int, default=10, help="pairs per seed")
    p.add_argument("--seconds", type=float, default=10.0, help="measured time per run")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    args.seed = list(dict.fromkeys(args.seed or [0]))
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        metrics = json.load(f)["end_to_end"]

    runs_by_seed = {seed: {"base": [], "head": []} for seed in args.seed}
    with tempfile.TemporaryDirectory(prefix="paired-bench-") as tmp:
        trees = {side: os.path.join(tmp, side) for side in ("base", "head")}
        _export_src(args.base, trees["base"])
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(trees["head"], "src"), ignore=_COPY_IGNORE)
        for tree in trees.values():
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(tree, "perfbench"), ignore=_COPY_IGNORE)
        for seed, runs in runs_by_seed.items():
            for i in range(args.pairs):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                for side in order:
                    try:
                        runs[side].append(_run(trees[side], args, seed))
                    except RuntimeError as exc:
                        print(f"{side} failed to run: {exc}", file=sys.stderr)
                        return 2
                base, head = (runs[side][-1]["metrics"] for side in ("base", "head"))
                values = ", ".join(
                    f"{m['name']} {base[m['name']]['value']:.6g} -> {head[m['name']]['value']:.6g}" for m in metrics
                )
                print(f"seed {seed}, pair {i + 1}/{args.pairs} ({order[0]} first), base -> head: {values}", file=sys.stderr)

    for seed, runs in runs_by_seed.items():
        print(f"{args.workload}, seed {seed}, {args.pairs} pairs of {args.seconds:g} s runs, base {args.base}")
        print("\n".join(report(metrics, runs)))
    print(f"{args.workload}, over seeds {', '.join(map(str, args.seed))}")
    print("\n".join(summary(metrics, runs_by_seed)))
    return 0 if all(r["correct"] for runs in runs_by_seed.values() for side in runs.values() for r in side) else 1


if __name__ == "__main__":
    sys.exit(main())
