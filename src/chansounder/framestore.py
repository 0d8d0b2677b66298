"""On-disk formats for captures, frame series, trigger logs and profiles.

Capture files are raw interleaved little-endian 32-bit float IQ pairs
(the native format of most recording front ends) with a mandatory text
sidecar ``<path>.meta`` naming the format version, sample rate, center
frequency, start index, stimulation sequence descriptor and seed
provenance.  A capture without its sidecar is not readable.

Frame-series and profile files are small binary containers: a 4-byte
magic, a length-prefixed text header of key=value lines, then fixed
records of little-endian 64-bit float pairs.  Impulse responses are
stored at full double precision because the correlator output spans far
more dynamic range than the raw capture.

All writers are deterministic: identical inputs produce byte-identical
files.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .calib import CalibrationProfile
from .frames import FrameSeries, IqFrame, TriggerEvent

CAPTURE_VERSION = 1
FRAMES_MAGIC = b"CSF1"
PROFILE_MAGIC = b"CSP1"
#: ``write_frames`` packs records in slices of about this size, so it
#: never holds a second copy of the whole series.
_WRITE_SLICE_BYTES = 1 << 20


def _write_kv(path: str, pairs: list[tuple[str, str]]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for key, value in pairs:
            f.write(f"{key}={value}\n")


def _read_kv(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = value
    return out


@dataclass
class CaptureMeta:
    """Sidecar contents of a capture file."""

    sample_rate: float
    center_frequency: float
    start_index: int
    sequence_descriptor: str
    seed_note: str
    version: int = CAPTURE_VERSION


def sidecar_path(path: str) -> str:
    return path + ".meta"


def write_capture(
    path: str,
    frame: IqFrame,
    sequence_descriptor: str = "",
    seed_note: str = "",
) -> None:
    """Write an IQ capture: float32 payload plus text sidecar."""
    payload = np.asarray(frame.samples).astype("<c8").tobytes()
    with open(path, "wb") as f:
        f.write(payload)
    _write_kv(
        sidecar_path(path),
        [
            ("format_version", str(CAPTURE_VERSION)),
            ("sample_rate", repr(float(frame.fs))),
            ("center_frequency", repr(float(frame.f_c))),
            ("start_index", str(frame.start_index)),
            ("sequence", sequence_descriptor),
            ("seed_note", seed_note),
        ],
    )


def read_capture(path: str) -> tuple[IqFrame, CaptureMeta]:
    """Read an IQ capture and its mandatory sidecar."""
    try:
        kv = _read_kv(sidecar_path(path))
    except FileNotFoundError:
        raise ValueError(
            f"capture {path} has no sidecar {sidecar_path(path)}; refusing to "
            "guess the sample rate"
        ) from None
    try:
        version = int(kv["format_version"])
        fs = float(kv["sample_rate"])
        f_c = float(kv["center_frequency"])
        start_index = int(kv.get("start_index", "0"))
    except KeyError as exc:
        raise ValueError(f"capture sidecar {sidecar_path(path)} is missing {exc}") from exc
    if version != CAPTURE_VERSION:
        raise ValueError(
            f"unsupported capture format version {version} (supported: {CAPTURE_VERSION})"
        )

    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) % 8 != 0:
        raise ValueError(
            f"capture payload {path} is truncated: {len(raw)} bytes is not a "
            "whole number of float32 IQ pairs"
        )
    samples = np.frombuffer(raw, dtype="<c8").astype(np.complex128)
    meta = CaptureMeta(
        sample_rate=fs,
        center_frequency=f_c,
        start_index=start_index,
        sequence_descriptor=kv.get("sequence", ""),
        seed_note=kv.get("seed_note", ""),
        version=version,
    )
    return IqFrame(samples, fs, f_c, start_index), meta


@dataclass
class FrameSeriesMeta:
    """Header contents of a frame-series file."""

    n_seq: int
    t_s: float
    t_seq: float
    calibration: str
    total_sequences: int


def _record_dtype(n_seq: int) -> np.dtype:
    """One frame-series record; its fields are the :class:`FrameSeries` fields."""
    return np.dtype(
        [("sequence_index", "<i8"), ("t_i", "<f8"), ("corrected", "u1"), ("h", "<c16", (n_seq,))]
    )


def _positive(parse):
    """A header field parser that also demands a finite value above zero."""

    def parse_positive(text: str):
        value = parse(text)
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"must be positive and finite, got {value}")
        return value

    return parse_positive


def _read_container(path: str, magic: bytes, kind: str, fields: dict) -> tuple[dict, memoryview]:
    """Parse a container's magic and header; return the header values
    (``fields`` maps each required key to its parser) and the payload."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != magic:
        raise ValueError(f"{path} is not a {kind} file (bad magic)")
    if len(blob) < 8:
        raise ValueError(f"{path} is truncated before the header")
    (header_len,) = struct.unpack_from("<I", blob, 4)
    header_end = 8 + header_len
    if len(blob) < header_end:
        raise ValueError(f"{path} is truncated inside the header")
    kv: dict[str, str] = {}
    for line in blob[8:header_end].decode("utf-8").splitlines():
        if line:
            key, _, value = line.partition("=")
            kv[key] = value
    for key, parse in fields.items():
        if key not in kv:
            raise ValueError(f"{path}: {kind} header is missing {key!r}")
        try:
            kv[key] = parse(kv[key])
        except ValueError as exc:
            raise ValueError(f"{path}: {kind} header field {key}: {exc}") from None
    return kv, memoryview(blob)[header_end:]


def write_frames(
    path: str,
    frames,
    t_s: float,
    calibration: str = "",
    total_sequences: int | None = None,
) -> None:
    """Write an impulse-response series with its grid metadata.

    ``frames`` is a :class:`FrameSeries` or a list of frames.
    ``total_sequences`` records how many periods the stimulation run
    contained (including gated-out ones); it defaults to one past the
    highest stored index.
    """
    series = FrameSeries.of(frames)
    if not len(series):
        raise ValueError("refusing to write an empty frame series")
    n_seq = series.n_seq
    if total_sequences is None:
        total_sequences = int(series.sequence_index.max()) + 1

    header = (
        f"n_records={len(series)}\n"
        f"n_seq={n_seq}\n"
        f"t_s={t_s!r}\n"
        f"t_seq={n_seq * t_s!r}\n"
        f"calibration={calibration}\n"
        f"total_sequences={total_sequences}\n"
    ).encode("utf-8")

    dtype = _record_dtype(n_seq)
    step = max(1, _WRITE_SLICE_BYTES // dtype.itemsize)
    with open(path, "wb") as f:
        f.write(FRAMES_MAGIC)
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        for lo in range(0, len(series), step):
            part = series[lo : lo + step]
            f.write(np.rec.fromarrays([getattr(part, n) for n in dtype.names], dtype=dtype))


def read_frames(path: str) -> tuple[FrameSeries, FrameSeriesMeta]:
    """Read a frame series written by :func:`write_frames`."""
    kv, payload = _read_container(
        path,
        FRAMES_MAGIC,
        "frame-series",
        {
            "n_records": _positive(int),
            "n_seq": _positive(int),
            "t_s": _positive(float),
            "t_seq": _positive(float),
            "total_sequences": int,
        },
    )
    n_records = kv["n_records"]
    record = _record_dtype(kv["n_seq"])
    whole = len(payload) // record.itemsize
    if whole < n_records:
        raise ValueError(f"{path} is truncated at record {whole} of {n_records}")
    if len(payload) > n_records * record.itemsize:
        raise ValueError(
            f"{path} has {len(payload) - n_records * record.itemsize} trailing bytes after the records"
        )
    records = np.frombuffer(payload, dtype=record)
    series = FrameSeries(**{name: records[name].copy() for name in record.names})
    meta = FrameSeriesMeta(
        n_seq=kv["n_seq"],
        t_s=kv["t_s"],
        t_seq=kv["t_seq"],
        calibration=kv.get("calibration", ""),
        total_sequences=kv["total_sequences"],
    )
    return series, meta


def write_trigger_log(path: str, events: list[TriggerEvent]) -> None:
    """Write trigger events as one text line each."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("# sample_index,kind,span,note\n")
        for ev in sorted(events, key=lambda e: e.sample_index):
            f.write(f"{ev.sample_index},{ev.kind},{ev.span},{ev.note}\n")


def read_trigger_log(path: str) -> list[TriggerEvent]:
    """Read a trigger log, sorted by sample index."""
    events: list[TriggerEvent] = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",", 3)
            if len(parts) < 3:
                raise ValueError(
                    f"{path}:{lineno}: expected sample_index,kind,span[,note], got {line!r}"
                )
            try:
                index = int(parts[0])
                span = int(parts[2])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            note = parts[3] if len(parts) > 3 else ""
            try:
                events.append(TriggerEvent(index, parts[1], span, note))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return sorted(events, key=lambda e: e.sample_index)


def write_profile(path: str, profile: CalibrationProfile) -> None:
    """Write a calibration profile (header plus float64 payload)."""
    clamped = ".".join(str(int(b)) for b in profile.clamped_bins)
    header = (
        f"n_seq={profile.n_seq}\n"
        f"source={profile.source}\n"
        f"gain_cap_db={profile.gain_cap_db!r}\n"
        f"created_from={profile.created_from}\n"
        f"clamped_bins={clamped}\n"
    ).encode("utf-8")
    with open(path, "wb") as f:
        f.write(PROFILE_MAGIC)
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        f.write(np.asarray(profile.h_ftt).astype("<c16").tobytes())


def read_profile(path: str) -> CalibrationProfile:
    """Read a calibration profile written by :func:`write_profile`."""
    kv, payload = _read_container(
        path,
        PROFILE_MAGIC,
        "calibration-profile",
        {"n_seq": _positive(int), "source": str, "gain_cap_db": float, "created_from": int},
    )
    n_seq = kv["n_seq"]
    clamped_text = kv.get("clamped_bins", "")
    clamped = (
        np.array([int(t) for t in clamped_text.split(".")], dtype=np.int64)
        if clamped_text
        else np.empty(0, dtype=np.int64)
    )
    if len(payload) != 16 * n_seq:
        raise ValueError(
            f"{path} payload is {len(payload)} bytes, expected {16 * n_seq}"
        )
    h_ftt = np.frombuffer(payload, dtype="<c16").astype(np.complex128)
    return CalibrationProfile(
        h_ftt=h_ftt,
        source=kv["source"],
        gain_cap_db=kv["gain_cap_db"],
        created_from=kv["created_from"],
        clamped_bins=clamped,
    )
