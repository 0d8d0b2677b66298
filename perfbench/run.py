#!/usr/bin/env python3
"""chansounder benchmark: whole campaigns, end to end and by layer.

    python3 perfbench/run.py --workload doppler_sound --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from the repository root; the program is imported from ``src/``.  One
client runs campaigns back to back (a closed loop) for ``--seconds``, each
from its config file to every output file written, and every campaign's
outputs are checked.  With ``--trace 0`` the last line reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
pass plus the tracing overhead.  The exit status is 1 when any campaign
failed and 2 when the program cannot be found.
"""

from __future__ import annotations

import os

# The workloads are sized for two cores: one client thread, plus the
# stimulation server on tcp_link.  Keep numeric libraries single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("doppler_sound", "gated_split", "tcp_link")
#: Set-ups per run, each in a fresh interpreter; setup_s is their median.
SETUP_PROBES = 7
#: campaign_s_tail is the highest percentile with this many campaigns beyond it.
TAIL_BEYOND = 10
#: Traced campaigns run with tracemalloc for the per-layer peaks.
MEMORY_CAMPAIGNS = 2
#: Times are reported in seconds at the machine speed where the reference
#: computation takes this long (about its duration here on a quiet machine).
REFERENCE_S = 0.02


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--corrupt-campaign", type=int, metavar="K",
        help="self-test: damage campaign K's frames file before it is checked",
    )
    p.add_argument("--setup-probe", metavar="INPUTS", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _probe_setup(inputs_path: str) -> int:
    """Time one set-up in this fresh interpreter: from before ``import
    chansounder`` to the point where the first campaign could start."""
    inp = workloads.Inputs.load(inputs_path)
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    state = workloads.setup(inp)
    elapsed = time.perf_counter() - t0
    state.close()
    print(json.dumps({"setup_s": elapsed}))
    return 0


def _setup_seconds(inputs_path: str, reference: "Reference") -> list[float]:
    """Set-up times of fresh interpreters, scaled to reference speed like the
    campaign times."""
    values = []
    before = reference.seconds()
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", "all", "--setup-probe", inputs_path],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed in a fresh interpreter: {proc.stderr.strip()[-2000:]}")
        after = reference.seconds()
        elapsed = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        values.append(elapsed * 2.0 * REFERENCE_S / (before + after))
        before = after
    return values


def _damage(path: str) -> None:
    """Overwrite 32 bytes in the middle of a frames file with 0x40, which reads
    as 32.5 in every float64 it covers, whatever the alignment."""
    size = os.path.getsize(path)
    with open(path, "r+b") as f:
        f.seek(size // 2)
        f.write(b"\x40" * 32)


class Reference:
    """A fixed mix of the work campaigns do: short FFTs, a long elementwise
    numpy pass and an interpreter loop.

    The benchmark shares its CPUs with other machines' work, which slows
    every computation in phases lasting from seconds to minutes, by up to
    about 1.7x.  Timed right before and after each campaign, this
    computation tracks the machine's momentary speed, and dividing by it
    removes most of that drift from the campaign times.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._short = rng.standard_normal(1024) + 0j
        self._long = rng.standard_normal(100_000)

    def seconds(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        for _ in range(200):
            np.fft.fft(self._short)
        for _ in range(3):
            np.exp(1j * self._long)
        total = 0
        for k in range(60_000):
            total += k
        return time.perf_counter() - t0


class Runner:
    """Runs and checks the campaigns of one workload in this process."""

    def __init__(self, inp: workloads.Inputs, state, seed: int, corrupt: int | None):
        self.inp, self.state, self.seed, self.corrupt = inp, state, seed, corrupt
        self.base = os.path.join(inp.work_dir, "run")
        self.first_digest: str | None = None
        self.first_problems: list[str] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.reference = Reference()

    def campaign(self, tracer=workloads.NoTrace()) -> float:
        """Run, time and check one campaign; return its wall seconds."""
        import checks

        index = self.attempted
        self.attempted += 1
        log: list[str] = []
        t0 = time.perf_counter()
        try:
            ok = workloads.campaign(self.inp, self.state, self.base, tracer, log)
        except Exception:
            ok = False
            log.append(traceback.format_exc(limit=3))
        elapsed = time.perf_counter() - t0

        problems = log if not ok else []
        if ok:
            if index == self.corrupt:
                _damage(self.base + ".frames")
            problems += [
                f"missing output {os.path.basename(p)}"
                for p in workloads.outputs(self.inp, self.base)
                if not (os.path.isfile(p) and os.path.getsize(p))
            ]
            problems += checks.check_frames(self.inp, self.base + ".frames")
            digest = checks.sha256(self.base + ".frames")
            if self.first_digest is None:
                self.first_digest = digest
                self.first_problems = checks.deep_check(self.inp, self.base, self.seed)
            elif digest != self.first_digest:
                problems.append("frames differ from the first campaign's")
            problems += self.first_problems
        if problems:
            self.failures.append(f"campaign {index}: " + "; ".join(problems))
        return elapsed

    def loop(self, seconds: float, tracer=None) -> tuple[list[float], list[float]]:
        """Campaigns back to back for ``seconds``, and at least enough for the tail.

        Returns the wall times and the same times at reference speed: each
        scaled by ``REFERENCE_S`` over the mean of the reference timings
        taken just before and just after the campaign.
        """
        wall: list[float] = []
        scaled: list[float] = []
        before = self.reference.seconds()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(wall) <= TAIL_BEYOND:
            if tracer is not None:
                tracer.trace = str(self.attempted)
            elapsed = self.campaign(tracer or workloads.NoTrace())
            after = self.reference.seconds()
            wall.append(elapsed)
            scaled.append(elapsed * 2.0 * REFERENCE_S / (before + after))
            before = after
        return wall, scaled


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(runner: Runner, wall: list[float], times: list[float], inputs_path: str, lines: list[str]) -> dict:
    import tracemalloc

    setups = _setup_seconds(inputs_path, runner.reference)

    tracemalloc.start()
    runner.campaign()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    n = len(times)
    ordered = sorted(times)
    tail = ordered[n - TAIL_BEYOND - 1]
    pct = 100.0 * (n - TAIL_BEYOND) / n
    samples = runner.inp.samples
    m = {
        "campaign_s": _metric(statistics.median(times), "s"),
        "campaign_s_tail": _metric(tail, "s"),
        "samples_per_s": _metric(samples * n / sum(times), "1/s"),
        "peak_mem_b_per_sample": _metric(peak / samples, "B"),
        "setup_s": _metric(statistics.median(setups), "s"),
    }
    notes = {
        "campaign_s": f"median of {n} campaigns; wall median {statistics.median(wall):.6g} s",
        "campaign_s_tail": f"p{pct:.1f}: {TAIL_BEYOND} of {n} campaigns were slower",
        "samples_per_s": f"{samples} stimulation samples per campaign",
        "peak_mem_b_per_sample": f"untimed pass, peak {peak / (1 << 20):.1f} MiB",
        "setup_s": f"median of {len(setups)} set-ups in fresh interpreters",
    }
    for name, v in m.items():
        lines.append(f"{name} = {v['value']:.6g} {v['unit']} ({notes[name]})")
    return m


def _per_layer(runner: Runner, inp: workloads.Inputs, tracer, seconds: float, lines: list[str]) -> dict:
    import checks
    import tracemalloc

    import tracing

    untraced = runner.loop(seconds / 2)[1]
    tracer.install()
    try:
        traced = runner.loop(seconds / 2, tracer)[1]
        tracemalloc.start()
        tracer.memory = True
        for _ in range(MEMORY_CAMPAIGNS):
            tracer.trace = f"memory{runner.attempted}"
            runner.campaign(tracer)
    finally:
        tracer.memory = False
        tracemalloc.stop()
        tracer.uninstall()
    overhead = statistics.median(traced) - statistics.median(untraced)
    lines.append(
        f"tracing overhead = {overhead:.6g} s per campaign "
        f"(median {statistics.median(traced):.6g} s traced over {len(traced)}, "
        f"{statistics.median(untraced):.6g} s untraced over {len(untraced)})"
    )
    kept = len(checks.expected_kept(inp))
    m = tracing.layer_metrics(tracer, inp.periods, kept, overhead)
    for name, v in m.items():
        lines.append(f"{name} = {v['value']:.6g} {v['unit']}")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{inp.workload}-seed{runner.seed}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"workload": inp.workload, "seed": runner.seed, "spans": tracer.spans,
                   "counts": [[t, k, n] for (t, k), n in tracer.counts.items()]}, f)
    lines.append(f"spans written to {os.path.relpath(path, ROOT)}")
    return m


def run_workload(args) -> int:
    sys.path.insert(0, SRC)
    import chansounder
    import chansounder.cli  # noqa: F401  (loads every module the tracer probes)
    import numpy

    if not os.path.abspath(chansounder.__file__).startswith(SRC + os.sep):
        print(f"error: chansounder was imported from {chansounder.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    state = None
    try:
        inp = workloads.generate(args.workload, args.seed, work)
        inputs_path = os.path.join(work, "inputs.json")
        inp.save(inputs_path)
        lines = [
            f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}, "
            f"nproc {os.cpu_count()}, numpy {numpy.__version__}"
        ]

        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        try:
            state = workloads.setup(inp, tracer or workloads.NoTrace())
        finally:
            if tracer is not None:
                tracer.uninstall()

        runner = Runner(inp, state, args.seed, args.corrupt_campaign)
        runner.campaign()  # warm-up: fills caches and runs the deep output checks
        if args.trace:
            metrics = _per_layer(runner, inp, tracer, args.seconds, lines)
        else:
            wall, times = runner.loop(args.seconds)
            metrics = _end_to_end(runner, wall, times, inputs_path, lines)
        failed = len(runner.failures)
        lines.append(f"error_rate = {failed / runner.attempted:.6g} ({failed} of {runner.attempted} campaigns failed)")
        lines += [f"FAILED {f}" for f in runner.failures[:10]]
        print("\n".join(lines))
        print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed, "metrics": metrics}))
        return 0 if failed == 0 else 1
    finally:
        if state is not None:
            state.close()
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in its own fresh interpreter, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode == 2 or not proc.stdout.strip():
            return 2
        status = max(status, proc.returncode)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "chansounder", "__init__.py")):
        print(f"error: no chansounder sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return _probe_setup(args.setup_probe)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
