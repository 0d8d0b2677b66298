"""The three benchmark workloads: inputs from a seed, set-up, one campaign.

Each workload is a whole campaign run through the program's public entry
points (``chansounder.cli.main`` and ``chansounder.wire.serve_stimulation``).
The generator turns the workload seed into config files; the program sees
nothing else.  Campaigns are 5 to 20 times smaller than first proposed
(2000 periods at N=1024 and N=4096, 20000 at N=127), so that one run of
``run_seconds`` holds enough campaigns for a tail percentile with ten
campaigns beyond it; per-sample and per-period costs keep their
proportions at this size.

This module imports only the standard library at module level: the set-up
probe imports it before it starts its clock, and ``import chansounder``
(which pulls in numpy) belongs inside the timed set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import socket
import threading
from dataclasses import asdict, dataclass, field

FS = 1_000_000.0
CABLE = [1.0, 0.0, 0.25]


@dataclass
class Inputs:
    """Generated inputs of one workload, plus what the checks need to know."""

    workload: str
    work_dir: str
    config: str
    family: str
    n_seq: int
    periods: int
    taps: list  # [delay, [re, im], doppler_hz]
    snr_db: float | None
    noise_seed: int
    seq_param: int  # FZC root or MLS register length
    triggers: list = field(default_factory=list)  # absolute sample indices
    corrupt_span: int = 128
    dc_suppression_hz: float = 0.0
    through_config: str | None = None
    profile: str | None = None

    @property
    def samples(self) -> int:
        """Stimulation samples of one campaign."""
        return self.periods * self.n_seq

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(asdict(self), f)

    @classmethod
    def load(cls, path: str) -> "Inputs":
        with open(path, "r", encoding="utf-8") as f:
            return cls(**json.load(f))


def _taps_text(taps) -> str:
    parts = []
    for delay, (re, im), doppler in taps:
        gain = repr(complex(re, im))
        parts.append(f"{delay}:{gain}" + (f":{doppler!r}" if doppler else ""))
    return " ; ".join(parts)


def _write(path: str, lines: list[str]) -> str:
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    return path


def _sequence_lines(inp: Inputs) -> list[str]:
    if inp.family == "fzc":
        return [
            "sequence.family = fzc",
            f"sequence.length = {inp.n_seq}",
            f"sequence.root = {inp.seq_param}",
        ]
    return ["sequence.family = mls", f"sequence.register_length = {inp.seq_param}"]


def _campaign_lines(inp: Inputs) -> list[str]:
    snr = "none" if inp.snr_db is None else repr(inp.snr_db)
    return _sequence_lines(inp) + [
        f"sample_rate = {FS!r}",
        f"n_sequences = {inp.periods}",
        f"channel.taps = {_taps_text(inp.taps)}",
        "channel.cable = " + ", ".join(repr(c) for c in CABLE),
        f"channel.snr_db = {snr}",
        f"seed = {inp.noise_seed}",
    ]


def generate(workload: str, seed: int, work_dir: str) -> Inputs:
    """Write the config files of ``workload`` for ``seed`` into ``work_dir``.

    The seed picks the channel noise seed and, on ``gated_split``, the
    trigger positions; everything else is fixed by the workload.
    """
    rng = random.Random(f"{workload}:{seed}")
    noise_seed = rng.randrange(1 << 31)
    config = os.path.join(work_dir, "campaign.cfg")

    if workload == "doppler_sound":
        inp = Inputs(
            workload, work_dir, config, "fzc", 1024, 200,
            taps=[[0, [1.0, 0.0], 0.0], [3, [0.0, 0.5], 60.0], [11, [-0.2, 0.1], -150.0]],
            snr_db=20.0, noise_seed=noise_seed, seq_param=7,
        )
        _write(config, _campaign_lines(inp))
        return inp

    if workload == "gated_split":
        n_seq, periods, every = 127, 1000, 97
        # One overflow per window of 97 periods, never in the window's last
        # period, so consecutive corrupt spans (128 samples) cannot overlap.
        triggers = [
            (w + rng.randrange(every - 1)) * n_seq + rng.randrange(n_seq)
            for w in range(0, periods, every)
            if w + every - 1 <= periods
        ]
        inp = Inputs(
            workload, work_dir, config, "mls", n_seq, periods,
            taps=[[0, [1.0, 0.0], 0.0], [4, [0.4, -0.2], 0.0], [9, [0.0, 0.15], 0.0]],
            snr_db=30.0, noise_seed=noise_seed, seq_param=7,
            triggers=triggers, corrupt_span=128, dc_suppression_hz=20000.0,
            through_config=os.path.join(work_dir, "through.cfg"),
            profile=os.path.join(work_dir, "through.csp"),
        )
        through = Inputs(
            workload, work_dir, inp.through_config, "mls", n_seq, 200,
            taps=[[0, [1.0, 0.0], 0.0]], snr_db=40.0,
            noise_seed=rng.randrange(1 << 31), seq_param=7,
        )
        _write(inp.through_config, _campaign_lines(through))
        _write(
            config,
            _campaign_lines(inp)
            + [
                "triggers = " + " ; ".join(f"{i}:overflow:buffer overrun" for i in triggers),
                f"corrupt_span = {inp.corrupt_span}",
                f"calibration = {inp.profile}",
                f"dc_suppression_hz = {inp.dc_suppression_hz!r}",
                "doppler_zero_fill = true",
            ],
        )
        return inp

    if workload == "tcp_link":
        inp = Inputs(
            workload, work_dir, config, "fzc", 4096, 400,
            taps=[[0, [1.0, 0.0], 0.0], [5, [0.0, 0.3], 0.0], [40, [0.1, 0.0], 0.0]],
            snr_db=None, noise_seed=noise_seed, seq_param=7,
        )
        _write(config, _campaign_lines(inp) + ["chunk_samples = 1000"])
        return inp

    raise ValueError(f"unknown workload {workload!r}")


class NoTrace:
    """Stand-in for the tracer when a pass is not traced."""

    def span(self, name: str):
        return contextlib.nullcontext()


def _cli(args: list[str], tracer, log: list[str]) -> int:
    from chansounder import cli

    out, err = io.StringIO(), io.StringIO()
    with tracer.span(f"cli.{args[0]}"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(args)
    if rc != 0:
        log.append(f"chansounder {' '.join(args)} -> {rc}: {err.getvalue().strip()}")
    return rc


@dataclass
class State:
    """What set-up leaves for the campaigns."""

    listener: socket.socket | None = None

    def close(self) -> None:
        if self.listener is not None:
            self.listener.close()


def setup(inp: Inputs, tracer=NoTrace()) -> State:
    """Import the program, parse the config, generate the sequence, and make
    the calibration profile or the listening socket where the workload has one."""
    import chansounder  # noqa: F401  (timed: the import is part of set-up)
    from chansounder import cli, config  # noqa: F401

    config.load_config(inp.config).make_sequence()
    state = State()
    if inp.through_config is not None:
        log: list[str] = []
        if _cli(["calibrate", "--config", inp.through_config, "--out", inp.profile], tracer, log):
            raise RuntimeError("; ".join(log))
    if inp.workload == "tcp_link":
        state.listener = socket.create_server(("127.0.0.1", 0))
    return state


def campaign(inp: Inputs, state: State, base: str, tracer=NoTrace(), log=None) -> bool:
    """Run one campaign from its config file to every output file written.

    Returns True when every command exited with 0 (and, on ``tcp_link``,
    the server delivered the whole stream).
    """
    log = [] if log is None else log
    cfg = inp.config
    if inp.workload == "doppler_sound":
        return _cli(["sound", "--config", cfg, "--out", base], tracer, log) == 0

    if inp.workload == "gated_split":
        for args in (
            ["stimulate", "--config", cfg, "--out", base + ".iq"],
            ["correlate", "--config", cfg, "--input", base + ".iq", "--out", base],
            ["characterize", "--config", cfg, "--input", base + ".frames", "--out", base],
        ):
            if _cli(args, tracer, log) != 0:
                return False
        return True

    from chansounder import config, wire

    served: dict = {}

    def serve() -> None:
        try:
            served["summary"] = wire.serve_stimulation(
                config.load_config(cfg), endpoint=state.listener
            )
        except Exception as exc:  # reported as a failed campaign
            served["error"] = exc

    host, port = state.listener.getsockname()[:2]
    server = threading.Thread(target=serve, name="stimulation-server")
    server.start()
    try:
        rc = _cli(["correlate", "--config", cfg, "--endpoint", f"{host}:{port}", "--out", base], tracer, log)
    finally:
        server.join(timeout=60.0)
    if server.is_alive() or "error" in served:
        log.append(f"stimulation server: {served.get('error', 'did not finish')}")
        return False
    if not served["summary"].complete:
        log.append("stimulation server: stream incomplete")
        return False
    return rc == 0


def outputs(inp: Inputs, base: str) -> list[str]:
    """Every file one campaign must leave behind."""
    report = [base + ".frames", base + ".report.txt", base + ".pdp.csv", base + ".psd.csv", base + ".doppler.csv"]
    if inp.workload == "doppler_sound":
        return report
    if inp.workload == "gated_split":
        return [base + ".iq", base + ".iq.meta", base + ".iq.triggers"] + report
    return [base + ".frames"]
