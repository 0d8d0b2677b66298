"""Campaign configuration.

Campaigns are described by flat ``key = value`` text files.  ``#``
starts a comment, blank lines are ignored, and an ``include = path``
line splices another file in place (relative to the including file);
later assignments win.  Unknown keys are rejected with the file and
line they came from.

The defaults (an unmodified :class:`CampaignConfig`) describe the
scaled-down reference campaign used throughout the test-suite: a
1024-sample polyphase sequence at 1 MSps over a static three-tap
channel with a short cable, 200 repetitions, noise off.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields

from . import framestore
from .calib import DEFAULT_GAIN_CAP_DB
from .chansim import ChannelModel, ChannelTap
from .frames import AT_LEAST_1, FINITE, GAIN_CAP_DB, NON_NEGATIVE, NONE_OR_FINITE, NONE_OR_POSITIVE_FINITE
from .frames import OPEN_UNIT, POSITIVE_FINITE, RATE, TriggerEvent, check, checked, none_or
from .seqgen import LENGTHS, REGISTER_LENGTHS, ROOTS, Sequence, descriptor, from_descriptor, generate_fzc, generate_mls


def _parse_bool(value: str) -> bool:
    v = value.strip().lower()
    if v in ("true", "yes", "on", "1"):
        return True
    if v in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _parse_choice(what: str, *choices: str):
    def parse(value: str) -> str:
        v = value.strip().lower()
        if v not in choices:
            raise ValueError(f"{what} must be {' or '.join(choices)}, got {value!r}")
        return v

    return parse


def _parse_optional_float(value: str) -> float | None:
    return None if value.strip().lower() in ("", "none") else float(value)


def _parse_optional_int(value: str) -> int | None:
    return None if value.strip().lower() == "none" else int(value)


def _parse_optional_str(value: str) -> str | None:
    return value.strip() or None


def _parse_mls_taps(value: str) -> tuple[int, ...]:
    return tuple(int(t) for t in value.replace(".", ",").split(",") if t.strip())


def _parse_cable(value: str) -> list[complex] | None:
    return [complex(p.strip()) for p in value.split(",") if p.strip()] or None


def _records(value: str, form: str, record, maxsplit: int = -1):
    """``record(*fields)`` for each non-blank ``;``-separated record of
    ``value``, split at ``:`` (at most ``maxsplit`` times) into two or three
    ``fields``; any other record raises "<form>, got <record>"."""
    for part in filter(None, map(str.strip, value.split(";"))):
        fields = part.split(":", maxsplit)
        if not 2 <= len(fields) <= 3:
            raise ValueError(f"{form}, got {part!r}")
        yield record(*fields)


# A tap or a trigger is checked by the class it becomes as it is read, so
# set_key adds the file and line; the config keeps the record's fields.
def _tap(delay: str, gain: str, doppler_hz: str = "0") -> tuple[int, complex, float]:
    tap = ChannelTap(int(delay.strip()), complex(gain.strip()), float(doppler_hz.strip()))
    return tap.delay, tap.gain, tap.doppler_hz


def _trigger(index: str, kind: str, note: str = "") -> tuple[int, str, str]:
    event = TriggerEvent(int(index), kind.strip(), note=note)
    return event.sample_index, event.kind, event.note


def _parse_channel_taps(value: str) -> list[tuple]:
    taps = list(_records(value, "channel tap must be delay:gain[:doppler_hz]", _tap))
    if not taps:
        raise ValueError("channel.taps must name at least one tap")
    return taps


def _parse_triggers(value: str) -> list[tuple[int, str, str]]:
    return list(_records(value, "trigger must be index:kind[:note]", _trigger, 2))


def _setting(key: str, parse, default=None, factory=None, valid=None):
    """A :class:`CampaignConfig` field set by config key ``key`` through
    ``parse``, defaulting to ``default`` (or to a fresh ``factory()``).
    ``valid`` is an optional ``(test, rule)`` range check, kept in the
    metadata: a parsed value that fails ``test`` is rejected as
    ``"<key> must <rule>"`` (:func:`frames.checked`)."""
    meta = {"key": key, "parse": parse if valid is None else checked(parse, *valid, key), "valid": valid}
    if factory is not None:
        return field(default_factory=factory, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class CampaignConfig:
    """Everything needed to run one sounding campaign.  Each field but
    ``explicit`` is a setting declared with its config key and parser."""

    family: str = _setting("sequence.family", _parse_choice("sequence family", "fzc", "mls"), "fzc")
    length: int = _setting("sequence.length", int, 1024, valid=LENGTHS)
    root: int = _setting("sequence.root", int, 7, valid=ROOTS)
    register_length: int = _setting("sequence.register_length", int, 10, valid=REGISTER_LENGTHS)
    taps: tuple[int, ...] | None = _setting("sequence.taps", _parse_mls_taps)

    sample_rate: float = _setting("sample_rate", float, 1_000_000.0, valid=RATE)
    center_frequency: float = _setting("center_frequency", float, 5.8e9, valid=POSITIVE_FINITE)
    n_sequences: int | None = _setting("n_sequences", _parse_optional_int, 200, valid=none_or(*AT_LEAST_1))
    duration: float | None = _setting("duration", _parse_optional_float, valid=NONE_OR_POSITIVE_FINITE)

    channel_taps: list[tuple] = _setting(
        "channel.taps",
        _parse_channel_taps,
        factory=lambda: [(0, 1 + 0j, 0.0), (3, 0.5j, 0.0), (11, -0.2 + 0.1j, 0.0)],
    )
    snr_db: float | None = _setting("channel.snr_db", _parse_optional_float, valid=NONE_OR_FINITE)
    cfo_hz: float = _setting("channel.cfo_hz", float, 0.0, valid=FINITE)
    cable: list[complex] | None = _setting(
        "channel.cable", _parse_cable, factory=lambda: [1 + 0j, 0j, 0.25 + 0j]
    )
    seed: int = _setting("seed", int, 0, valid=(lambda v: 0 <= v < 2**128, "lie in 0..2**128 - 1"))

    triggers: list[tuple[int, str, str]] = _setting("triggers", _parse_triggers, factory=list)
    trigger_log: str | None = _setting("trigger_log", _parse_optional_str)
    corrupt_span: int = _setting("corrupt_span", int, 128, valid=AT_LEAST_1)

    calibration: str | None = _setting("calibration", _parse_optional_str)
    gain_cap_db: float = _setting("gain_cap_db", float, DEFAULT_GAIN_CAP_DB, valid=GAIN_CAP_DB)
    discard_first: bool = _setting("discard_first", _parse_bool, True)
    dc_suppression_hz: float = _setting("dc_suppression_hz", float, 0.0, valid=NON_NEGATIVE)
    dc_position: str = _setting(
        "dc_position", _parse_choice("dc_position", "before", "after"), "before"
    )
    doppler_zero_fill: bool = _setting("doppler_zero_fill", _parse_bool, False)
    bc_threshold: float = _setting("bc_threshold", float, 0.5, valid=OPEN_UNIT)
    max_distance_ref_m: float | None = _setting(
        "max_distance_ref_m", _parse_optional_float, valid=NONE_OR_POSITIVE_FINITE
    )

    out: str | None = _setting("out", _parse_optional_str)
    input: str | None = _setting("input", _parse_optional_str)
    endpoint: str | None = _setting("endpoint", _parse_optional_str)
    chunk_samples: int = _setting("chunk_samples", int, 4096, valid=AT_LEAST_1)
    timeout: float = _setting("timeout", float, 10.0, valid=POSITIVE_FINITE)

    explicit: set = field(default_factory=set, repr=False, compare=False)

    def set_key(self, key: str, value: str, where: str) -> None:
        """Set config key ``key`` from its text ``value``; ``where`` (a file
        and line, or a flag) prefixes any error.  A duration clears the
        sequence count, so the later of the two wins."""
        if key not in _KEYS:
            raise ValueError(f"{where}: unknown config key {key!r}")
        name, parse = _KEYS[key]
        try:
            setattr(self, name, parse(value))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if key == "duration" and self.duration is not None:
            self.n_sequences = None
        self.explicit.add(key)

    def make_sequence(self) -> Sequence:
        if self.family == "fzc":
            return generate_fzc(self.length, self.root)
        if self.family == "mls":
            return generate_mls(self.register_length, self.taps)
        raise ValueError(f"unknown sequence family {self.family!r}")

    def sequence_pinned(self) -> bool:
        """True when the configuration explicitly names a sequence."""
        return bool(self.explicit & _SEQUENCE_KEYS)

    def stream_sequence(
        self, stream_descriptor: str, fs: float, source: str, error=ValueError, strict=False
    ) -> Sequence:
        """Adopt the sample rate ``fs`` of a capture or peer (``source``) and
        return the sequence it was stimulated with: its descriptor, or the
        local sequence when that is empty (unknown).  An explicit (when
        ``strict``, any) local rate other than ``fs``, a pinned sequence
        that differs from the descriptor or, when ``strict``, that an empty
        descriptor leaves unconfirmed, and an unusable descriptor raise
        ``error``."""
        if (strict or "sample_rate" in self.explicit) and fs != self.sample_rate:
            raise error(
                f"{source} samples at {fs} Hz but the configuration expects "
                f"{self.sample_rate} Hz"
            )
        self.sample_rate = fs
        local = self.make_sequence()
        pinned_mismatch = self.sequence_pinned() and descriptor(local) != stream_descriptor
        if pinned_mismatch and (stream_descriptor or strict):
            raise error(
                f"{source} was stimulated with {stream_descriptor!r} but the "
                f"configuration pins {descriptor(local)!r}"
            )
        if not stream_descriptor:
            return local
        try:
            return from_descriptor(stream_descriptor)
        except ValueError as exc:
            raise error(f"{source} sequence descriptor is unusable: {exc}") from exc

    def num_sequences(self) -> int:
        if self.n_sequences is not None:
            return check(self.n_sequences, *AT_LEAST_1, "n_sequences")
        if self.duration is not None:
            t_seq = check(self.make_sequence().n_seq / self.sample_rate, *RATE, "sequence period")
            periods = self.duration / t_seq
            if periods == math.inf:
                raise ValueError(f"duration {self.duration} s is more sequence periods than a float holds")
            n = int(round(periods))
            if n < 1:
                raise ValueError(
                    f"duration {self.duration} s is shorter than one sequence period"
                )
            return n
        raise ValueError("either n_sequences or duration must be set")

    def channel_model(self) -> ChannelModel:
        taps = [ChannelTap(int(d), complex(g), float(f)) for d, g, f in self.channel_taps]
        return ChannelModel(
            taps=taps,
            snr_db=self.snr_db,
            cfo_hz=self.cfo_hz,
            cable=self.cable,
            seed=self.seed,
        )

    def trigger_events(self) -> list[TriggerEvent]:
        if self.trigger_log is not None:
            return framestore.read_trigger_log(self.trigger_log)
        return [
            TriggerEvent(sample_index=i, kind=kind, note=note)
            for i, kind, note in self.triggers
        ]

    def load_profile(self):
        if self.calibration is None:
            return None
        return framestore.read_profile(self.calibration)


#: Every campaign setting, as config-file key -> (field, parser).  The
#: file loader and the command-line flags both set keys through
#: :meth:`CampaignConfig.set_key`, so each key has this one parser.
_KEYS = {
    f.metadata["key"]: (f.name, f.metadata["parse"]) for f in fields(CampaignConfig) if f.metadata
}
_SEQUENCE_KEYS = {key for key in _KEYS if key.startswith("sequence.")}


def _load_into(cfg: CampaignConfig, path: str, seen: tuple[str, ...]) -> None:
    real = os.path.realpath(path)
    if real in seen:
        chain = " -> ".join(seen + (real,))
        raise ValueError(f"config include cycle: {chain}")
    base = os.path.dirname(real)
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            if "=" not in line:
                raise ValueError(f"{where}: expected key = value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key == "include":
                target = value if os.path.isabs(value) else os.path.join(base, value)
                _load_into(cfg, target, seen + (real,))
            else:
                cfg.set_key(key, value, where)


def load_config(path: str) -> CampaignConfig:
    """Load a campaign configuration file, following includes."""
    cfg = CampaignConfig()
    _load_into(cfg, path, ())
    return cfg
