"""Command-line front end.

Five subcommands cover the measurement workflow:

* ``stimulate``: generate the stimulation stream (through the simulated
  channel) and write it to a capture file or serve it over TCP.
* ``correlate``: turn a capture file or a live TCP stream into an
  impulse-response frame series.
* ``sound``: both halves in one process, plus characterization.
* ``calibrate``: run a through-connection campaign and store the
  resulting correction profile.
* ``characterize``: compute the metric suite over a stored frame series.

Every flag mirrors a config-file key and wins over it.
"""

from __future__ import annotations

import argparse
import sys

from . import charmetrics, framestore, sounder, wire
from .calib import through_calibrate
from .config import CampaignConfig, load_config
from .seqgen import descriptor as seq_descriptor


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chansounder",
        description="correlative channel sounding against a simulated channel",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="campaign config file")
        p.add_argument("--seed", type=int, help="noise seed")
        p.add_argument("--out", help="output path (or base path)")
        p.add_argument("--input", help="input capture or frame-series path")
        p.add_argument("--endpoint", help="host:port for the wire link")
        p.add_argument("--calibration", help="calibration profile to apply")
        p.add_argument("--duration", type=float, help="campaign length in seconds")
        p.add_argument("--fs", type=float, help="sample rate in Hz")
        p.add_argument("--sequence", choices=("fzc", "mls"), help="sequence family")
        p.add_argument("--length", type=int, help="sequence length (fzc)")
        p.add_argument("--root", type=int, help="sequence root (fzc)")
        p.add_argument(
            "--taps", help="mls register taps, comma separated (implies --length via 2**l-1)"
        )

    for name, help_text in (
        ("stimulate", "generate and record or serve the stimulation stream"),
        ("correlate", "correlate a capture file or live stream into frames"),
        ("sound", "run the full pipeline in one process"),
        ("calibrate", "measure a through connection and store its profile"),
        ("characterize", "compute channel metrics over stored frames"),
    ):
        add_common(sub.add_parser(name, help=help_text))
    return parser


def _config_from_args(args: argparse.Namespace) -> CampaignConfig:
    cfg = load_config(args.config) if args.config else CampaignConfig()
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.explicit.add("seed")
    if args.out is not None:
        cfg.out = args.out
        cfg.explicit.add("out")
    if args.input is not None:
        cfg.input = args.input
        cfg.explicit.add("input")
    if args.endpoint is not None:
        cfg.endpoint = args.endpoint
        cfg.explicit.add("endpoint")
    if args.calibration is not None:
        cfg.calibration = args.calibration
        cfg.explicit.add("calibration")
    if args.duration is not None:
        cfg.duration = args.duration
        cfg.n_sequences = None
        cfg.explicit.add("duration")
    if args.fs is not None:
        cfg.sample_rate = args.fs
        cfg.explicit.add("sample_rate")
    if args.sequence is not None:
        cfg.family = args.sequence
        cfg.explicit.add("sequence.family")
    if args.length is not None:
        cfg.length = args.length
        cfg.explicit.add("sequence.length")
    if args.root is not None:
        cfg.root = args.root
        cfg.explicit.add("sequence.root")
    if args.taps is not None:
        taps = tuple(int(t) for t in args.taps.replace(".", ",").split(",") if t.strip())
        cfg.taps = taps
        cfg.register_length = max(taps)
        cfg.family = "mls"
        cfg.explicit.update({"sequence.taps", "sequence.family"})
    return cfg


def _require(value, flag: str):
    if value is None:
        raise ValueError(f"this command needs {flag} (flag or config key)")
    return value


def _write_series(cfg: CampaignConfig, frames, total_sequences: int) -> str:
    if not frames:
        raise ValueError("no sequence periods survived gating; nothing to write")
    out = _require(cfg.out, "--out")
    path = out + ".frames"
    framestore.write_frames(
        path,
        frames,
        t_s=1.0 / cfg.sample_rate,
        calibration=cfg.calibration or "",
        total_sequences=total_sequences,
    )
    return path


def _characterize(cfg: CampaignConfig, frames, fs: float) -> str:
    """Run the configured metric suite and return the report text; with
    an output path, also write the report and the CSV files."""
    report = charmetrics.characterize(
        frames,
        fs,
        f_c=cfg.center_frequency,
        bc_threshold=cfg.bc_threshold,
        doppler_zero_fill=cfg.doppler_zero_fill,
        d_ref_m=cfg.max_distance_ref_m,
    )
    text = charmetrics.report_text(report)
    if cfg.out:
        with open(cfg.out + ".report.txt", "w", encoding="utf-8") as f:
            f.write(text)
        charmetrics.export_csv(report, cfg.out)
    return text


def cmd_stimulate(cfg: CampaignConfig) -> int:
    if cfg.endpoint:
        summary = wire.serve_stimulation(cfg)
        state = "complete" if summary.complete else "interrupted"
        print(
            f"served {summary.samples_sent} samples in {summary.chunks_sent} chunks "
            f"({summary.triggers_sent} triggers) on {summary.endpoint}: {state}"
        )
        return 0 if summary.complete else 1

    out = _require(cfg.out, "--out")
    seq, capture, events = sounder.capture_campaign(cfg)
    framestore.write_capture(
        out, capture, sequence_descriptor=seq_descriptor(seq), seed_note=f"seed={cfg.seed}"
    )
    if events:
        framestore.write_trigger_log(out + ".triggers", events)
    print(f"wrote {len(capture)} samples to {out}")
    return 0


def cmd_correlate(cfg: CampaignConfig) -> int:
    if cfg.endpoint:
        frames, summary = wire.consume_correlation(cfg.endpoint, cfg)
        total = summary.samples_received // frames.n_seq
    else:
        path = _require(cfg.input, "--input")
        capture, meta = framestore.read_capture(path)
        seq = cfg.stream_sequence(meta.sequence_descriptor, "capture")
        if cfg.explicit & {"sample_rate"} and capture.fs != cfg.sample_rate:
            raise ValueError(
                f"capture was recorded at {capture.fs} Hz but the configuration "
                f"expects {cfg.sample_rate} Hz"
            )
        cfg.sample_rate = capture.fs
        events = []
        try:
            events = framestore.read_trigger_log(path + ".triggers")
        except FileNotFoundError:
            pass
        frames = sounder.correlate_campaign(cfg, capture, seq, events)
        total = len(capture) // seq.n_seq
    path = _write_series(cfg, frames, total)
    print(f"kept {len(frames)} of {total} sequence periods -> {path}")
    return 0


def cmd_sound(cfg: CampaignConfig) -> int:
    seq, capture, events = sounder.capture_campaign(cfg)
    frames = sounder.correlate_campaign(cfg, capture, seq, events)
    del capture  # release the raw stream before characterization
    total = cfg.num_sequences()
    path = _write_series(cfg, frames, total)
    if events:
        framestore.write_trigger_log(cfg.out + ".triggers", events)

    text = _characterize(cfg, frames, cfg.sample_rate)
    print(f"kept {len(frames)} of {total} sequence periods -> {path}")
    sys.stdout.write(text)
    return 0


def cmd_calibrate(cfg: CampaignConfig) -> int:
    out = _require(cfg.out, "--out")
    model = cfg.channel_model()
    through_ok = len(model.taps) == 1 and model.taps[0].delay == 0 and (
        model.taps[0].gain == 1 + 0j and model.taps[0].doppler_hz == 0.0
    )
    if not through_ok:
        raise ValueError(
            "calibration needs a through connection: exactly one channel tap "
            "with delay 0, gain 1, no Doppler (cable and noise are allowed)"
        )
    cfg = _uncalibrated(cfg)
    profile = through_calibrate(sounder.run_sounding(cfg), gain_cap_db=cfg.gain_cap_db)
    framestore.write_profile(out, profile)
    print(
        f"profile from {profile.created_from} frames, "
        f"{len(profile.clamped_bins)} clamped bin(s) -> {out}"
    )
    return 0


def _uncalibrated(cfg: CampaignConfig) -> CampaignConfig:
    if cfg.calibration is not None:
        raise ValueError(
            "calibration runs must not themselves apply a profile; drop the "
            "calibration key"
        )
    return cfg


def cmd_characterize(cfg: CampaignConfig) -> int:
    path = _require(cfg.input, "--input")
    frames, meta = framestore.read_frames(path)
    sys.stdout.write(_characterize(cfg, frames, 1.0 / meta.t_s))
    return 0


_COMMANDS = {
    "stimulate": cmd_stimulate,
    "correlate": cmd_correlate,
    "sound": cmd_sound,
    "calibrate": cmd_calibrate,
    "characterize": cmd_characterize,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _COMMANDS[args.command](cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
