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

Every flag sets the config key it names, through that key's parser, and
wins over the config file.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import charmetrics, framestore, sounder, wire
from .calib import through_calibrate
from .config import CampaignConfig, load_config


#: Flags that set one config key each: flag -> (key, help).
_FLAGS = {
    "--seed": ("seed", "noise seed"),
    "--out": ("out", "output path (or base path)"),
    "--input": ("input", "input capture or frame-series path"),
    "--endpoint": ("endpoint", "host:port for the wire link"),
    "--calibration": ("calibration", "calibration profile to apply"),
    "--duration": ("duration", "campaign length in seconds"),
    "--fs": ("sample_rate", "sample rate in Hz"),
    "--sequence": ("sequence.family", "sequence family: fzc or mls"),
    "--length": ("sequence.length", "sequence length (fzc)"),
    "--root": ("sequence.root", "sequence root (fzc)"),
    "--taps": (
        "sequence.taps",
        "mls register taps, comma separated (implies --sequence mls and a "
        "register length of the largest tap)",
    ),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused:
    ``main`` may run many times in one process, and ``parse_args`` never
    changes the parser."""
    parser = argparse.ArgumentParser(
        prog="chansounder",
        description="correlative channel sounding against a simulated channel",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("stimulate", "generate and record or serve the stimulation stream"),
        ("correlate", "correlate a capture file or live stream into frames"),
        ("sound", "run the full pipeline in one process"),
        ("calibrate", "measure a through connection and store its profile"),
        ("characterize", "compute channel metrics over stored frames"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="campaign config file")
        for flag, (key, flag_help) in _FLAGS.items():
            p.add_argument(flag, help=f"{flag_help}; sets {key}")
    return parser


def _config_from_args(args: argparse.Namespace) -> CampaignConfig:
    cfg = load_config(args.config) if args.config else CampaignConfig()
    for flag, (key, _) in _FLAGS.items():
        value = getattr(args, flag[2:])
        if value is not None:
            cfg.set_key(key, value, flag)
    if args.taps is not None:
        cfg.set_key("sequence.family", "mls", "--taps")
        cfg.register_length = max(cfg.taps, default=cfg.register_length)
    return cfg


def _require(value, flag: str):
    if value is None:
        raise ValueError(f"this command needs {flag} (flag or config key)")
    return value


def _write_series(cfg: CampaignConfig, frames, total_sequences: int) -> str:
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


def _nonempty(frames, total_sequences: int):
    if not frames:
        raise ValueError(
            f"kept 0 of {total_sequences} sequence periods (discard_first drops period 0, "
            "triggers gate the others, and a capture shorter than one period holds none); "
            "nothing to write"
        )
    return frames


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
        with framestore.replacing(cfg.out + ".report.txt") as f:
            f.write(text.encode("utf-8"))
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
    stream = sounder.capture_stream(cfg)
    framestore.write_capture(out, stream, stream.meta)
    print(f"wrote {stream.n_samples} samples to {out}")
    return 0


def cmd_correlate(cfg: CampaignConfig) -> int:
    if cfg.endpoint:
        frames, total, _ = wire.consume_correlation(cfg.endpoint, cfg)
    else:
        profile = cfg.load_profile()  # a bad profile fails before the capture is read
        capture, meta = framestore.read_capture(_require(cfg.input, "--input"))
        # A capture file's rule: its rate and sequence are adopted unless the
        # configuration states a rate or pins a sequence that differs.
        seq = cfg.stream_sequence(meta.sequence_descriptor, capture.fs, "capture")
        frames, total = sounder.correlate(cfg, capture, seq, meta.triggers, profile)
        del capture  # free the capture before the frames are written
    path = _write_series(cfg, _nonempty(frames, total), total)
    print(f"kept {len(frames)} of {total} sequence periods -> {path}")
    return 0


def cmd_sound(cfg: CampaignConfig) -> int:
    out = _require(cfg.out, "--out")
    frames, total, events = sounder.sound_campaign(cfg)
    # Characterize first: a setting only that stage checks then fails
    # before any file is written.
    text = _characterize(cfg, _nonempty(frames, total), cfg.sample_rate)
    path = _write_series(cfg, frames, total)
    framestore.write_trigger_sidecar(out, events)
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
    if cfg.calibration is not None:
        raise ValueError(
            "calibration runs must not themselves apply a profile; drop the "
            "calibration key"
        )
    profile = through_calibrate(sounder.run_sounding(cfg), gain_cap_db=cfg.gain_cap_db)
    framestore.write_profile(out, profile)
    print(
        f"profile from {profile.created_from} frames, "
        f"{len(profile.clamped_bins)} clamped bin(s) -> {out}"
    )
    return 0


def cmd_characterize(cfg: CampaignConfig) -> int:
    path = _require(cfg.input, "--input")
    frames, meta = framestore.read_frames(path)
    sys.stdout.write(_characterize(cfg, frames, meta.sample_rate))
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
