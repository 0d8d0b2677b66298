"""On-disk formats for captures, frame series, trigger logs and profiles.

Capture files are raw interleaved little-endian 32-bit float IQ pairs
(the native format of most recording front ends) with a mandatory text
sidecar ``<path>.meta`` naming the format version, sample rate, center
frequency, start index, stimulation sequence descriptor and seed
provenance, and an optional trigger log ``<path>.triggers``.  A capture
without its ``.meta`` is not readable; this module is the only code that
names either sidecar.

Frame-series and profile files are small binary containers: a 4-byte
magic, a length-prefixed text header of key=value lines, then fixed
records of little-endian 64-bit float pairs.  Impulse responses are
stored at full double precision because the correlator output spans far
more dynamic range than the raw capture.

All writers are deterministic: identical inputs produce byte-identical
files.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .calib import CalibrationProfile
from .frames import CAPTURE_DTYPE, FINITE, NON_NEGATIVE, POSITIVE_FINITE, RATE, FrameSeries, IqFrame, TriggerEvent
from .frames import check, check_finite, checked, first_non_finite

CAPTURE_VERSION = 1
FRAMES_MAGIC = b"CSF1"
PROFILE_MAGIC = b"CSP1"
#: ``write_frames`` packs and ``read_frames`` unpacks records in slices
#: of about this size, so neither holds a second copy of the whole series.
_SLICE_BYTES = 1 << 20


@dataclass
class CaptureMeta:
    """A capture's record, carried beside its samples: a capture file's
    ``.meta`` text and optional ``.triggers`` log, a wire stream's HELLO and TRIGGERs."""

    sequence_descriptor: str = ""
    seed_note: str = ""
    triggers: list[TriggerEvent] = field(default_factory=list)


def sidecar_path(path: str) -> str:
    return path + ".meta"


def write_trigger_sidecar(path: str, events: list[TriggerEvent]) -> None:
    """Write the events to ``<path>.triggers``, or remove a stale log
    when there are none."""
    if events:
        write_trigger_log(path + ".triggers", events)
    elif os.path.exists(path + ".triggers"):
        os.remove(path + ".triggers")


@contextmanager
def replacing(path: str):
    """Open ``<path>.part`` for binary writing; it replaces ``path`` when
    the block ends, and is removed when the block raises, so a failed
    write leaves the earlier file as it was."""
    part = path + ".part"
    try:
        with open(part, "wb") as f:
            yield f
        os.replace(part, path)
    except BaseException:
        if os.path.exists(part):
            os.remove(part)
        raise


def write_capture(path: str, capture: "IqFrame | sounder.CaptureStream", meta: CaptureMeta) -> None:
    """Write an IQ capture and its record: float32 payload, text sidecar and trigger log.

    ``capture`` is an :class:`IqFrame` or a :class:`sounder.CaptureStream`,
    written block by block.  Each file goes through :func:`replacing`, and
    none is put in place before all three are written, so a failed write
    leaves the earlier capture and its sidecars as they were.  A stale
    trigger log is removed only after the new files are in place.
    """
    with replacing(path) as f, replacing(sidecar_path(path)) as text:
        for block in (capture,) if isinstance(capture, IqFrame) else capture:
            np.asarray(block.samples, dtype=CAPTURE_DTYPE).tofile(f)
        text.write(
            (
                f"format_version={CAPTURE_VERSION}\n"
                f"sample_rate={float(capture.fs)!r}\n"
                f"center_frequency={float(capture.f_c)!r}\n"
                f"start_index={capture.start_index}\n"
                f"sequence={meta.sequence_descriptor}\n"
                f"seed_note={meta.seed_note}\n"
            ).encode("utf-8")
        )
        if meta.triggers:  # the last file written, so the first put in place
            write_trigger_log(path + ".triggers", meta.triggers)
    if not meta.triggers and os.path.exists(path + ".triggers"):
        os.remove(path + ".triggers")


def read_capture(path: str) -> tuple[IqFrame, CaptureMeta]:
    """Read an IQ capture (complex64, as stored), its sidecar and trigger
    log; a NaN or infinite sample raises ``ValueError``."""
    try:
        with open(sidecar_path(path), "r", encoding="utf-8") as f:
            text = f.read()
    except FileNotFoundError:
        raise ValueError(
            f"capture {path} has no sidecar {sidecar_path(path)}; refusing to "
            "guess the sample rate"
        ) from None
    fields = {
        "format_version": int,
        "sample_rate": checked(float, *RATE),
        "center_frequency": checked(float, *FINITE),
        "start_index": _sample_index,
    }
    kv = _parse_header(text, sidecar_path(path), "capture sidecar", fields, {"start_index": "0"})
    if kv["format_version"] != CAPTURE_VERSION:
        raise ValueError(
            f"unsupported capture format version {kv['format_version']} "
            f"(supported: {CAPTURE_VERSION})"
        )

    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size % CAPTURE_DTYPE.itemsize != 0:
            raise ValueError(
                f"capture payload {path} is truncated: {size} bytes is not a "
                "whole number of float32 IQ pairs"
            )
        samples = np.fromfile(f, dtype=CAPTURE_DTYPE)
    check_finite(samples, kv["start_index"], f"capture payload {path}")
    frame = IqFrame(samples, kv["sample_rate"], kv["center_frequency"], kv["start_index"])
    log = path + ".triggers"
    events = read_trigger_log(log) if os.path.exists(log) else []
    return frame, CaptureMeta(kv.get("sequence", ""), kv.get("seed_note", ""), events)


@dataclass
class FrameSeriesMeta:
    """Header contents of a frame-series file."""

    n_seq: int
    t_s: float
    t_seq: float
    calibration: str
    total_sequences: int

    @property
    def sample_rate(self) -> float:
        """The rate the series was written at: the header stores only its
        reciprocal ``t_s``, so this is the shortest decimal (1 to 17
        significant digits) whose reciprocal is ``t_s``, and ``1 / t_s``
        when none is."""
        rate = 1.0 / self.t_s
        for digits in range(1, 18):
            c = float(f"{rate:.{digits}g}")
            if 1.0 / c == self.t_s:
                return c
        return rate


def _record_dtype(n_seq: int) -> np.dtype:
    """One frame-series record; its fields are the :class:`FrameSeries` fields."""
    return np.dtype(
        [("sequence_index", "<i8"), ("t_i", "<f8"), ("corrected", "u1"), ("h", "<c16", (n_seq,))]
    )


#: A header field parser for an absolute sample index.
_sample_index = checked(int, *NON_NEGATIVE)


def _bins(text: str) -> np.ndarray:
    """A header field parser for ``.``-separated non-negative bin numbers."""
    return np.array([_sample_index(t) for t in text.split(".")] if text else [], dtype=np.int64)


def _parse_header(
    text: str, where: str, kind: str, fields: dict, defaults: dict | None = None
) -> dict:
    """Parse ``key=value`` lines (blank and ``#`` lines skipped); ``fields``
    maps each key to its parser, other keys stay text.  A key of
    ``fields`` is required unless ``defaults`` gives its text."""
    kv: dict = dict(defaults or {})
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{where}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        kv[key.strip()] = value
    for key, parse in fields.items():
        if key not in kv:
            raise ValueError(f"{where}: {kind} is missing {key!r}")
        try:
            kv[key] = parse(kv[key])
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{where}: {kind} field {key}: {exc}") from None
    return kv


@contextmanager
def _read_container(
    path: str, magic: bytes, kind: str, fields: dict, defaults: dict | None = None
):
    """Open a container and parse its magic and header, reading nothing
    else; yield the header values (see :func:`_parse_header`), the open
    file, positioned at the payload, and the payload's size in bytes."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(8)
        if head[:4] != magic:
            raise ValueError(f"{path} is not a {kind} file (bad magic)")
        if len(head) < 8:
            raise ValueError(f"{path} is truncated before the header")
        (header_len,) = struct.unpack_from("<I", head, 4)
        header_end = 8 + header_len
        # checked before the read, so a hostile length allocates nothing
        if size < header_end:
            raise ValueError(f"{path} is truncated inside the header")
        text = f.read(header_len).decode("utf-8")
        kv = _parse_header(text, path, f"{kind} header", fields, defaults)
        yield kv, f, size - header_end


def _write_head(f, magic: bytes, header: str) -> None:
    """Write the magic and length-prefixed header that :func:`_read_container` reads."""
    text = header.encode("utf-8")
    f.write(magic + struct.pack("<I", len(text)) + text)


def write_frames(
    path: str,
    frames: FrameSeries,
    t_s: float,
    calibration: str = "",
    total_sequences: int | None = None,
) -> None:
    """Write an impulse-response series with its grid metadata.

    ``t_s`` and ``n_seq * t_s`` meet :func:`read_frames`'s rules.
    ``total_sequences`` records how many periods the stimulation run
    contained (including gated-out ones); it defaults to one past the
    highest stored index.
    """
    if not len(frames):
        raise ValueError("refusing to write an empty frame series")
    n_seq = frames.n_seq
    check(t_s, *RATE, "t_s")
    t_seq = check(float(n_seq * t_s), *POSITIVE_FINITE, "t_seq")
    if total_sequences is None:
        total_sequences = int(frames.sequence_index.max()) + 1

    header = (
        f"n_records={len(frames)}\n"
        f"n_seq={n_seq}\n"
        f"t_s={float(t_s)!r}\n"
        f"t_seq={t_seq!r}\n"
        f"calibration={calibration}\n"
        f"total_sequences={total_sequences}\n"
    )

    dtype = _record_dtype(n_seq)
    step = max(1, _SLICE_BYTES // dtype.itemsize)
    with replacing(path) as f:
        _write_head(f, FRAMES_MAGIC, header)
        for lo in range(0, len(frames), step):
            part = frames[lo : lo + step]
            f.write(np.rec.fromarrays([getattr(part, n) for n in dtype.names], dtype=dtype))


def read_frames(path: str) -> tuple[FrameSeries, FrameSeriesMeta]:
    """Read a frame series written by :func:`write_frames`, slice by
    slice into the series' own arrays; a NaN or infinity in a record's
    time or response raises ``ValueError``."""
    fields = {
        "n_records": checked(int, *POSITIVE_FINITE),
        "n_seq": checked(int, *POSITIVE_FINITE),
        "t_s": checked(float, *RATE),
        "t_seq": checked(float, *POSITIVE_FINITE),
        "total_sequences": _sample_index,
    }
    with _read_container(path, FRAMES_MAGIC, "frame-series", fields) as (kv, f, size):
        n_records = kv["n_records"]
        record = _record_dtype(kv["n_seq"])
        whole = size // record.itemsize
        if whole < n_records:
            raise ValueError(f"{path} is truncated at record {whole} of {n_records}")
        if size > n_records * record.itemsize:
            raise ValueError(
                f"{path} has {size - n_records * record.itemsize} trailing bytes after the records"
            )
        columns = {name: np.empty(n_records, dtype=record.fields[name][0]) for name in record.names}
        step = max(1, _SLICE_BYTES // record.itemsize)
        for lo in range(0, n_records, step):
            part = np.fromfile(f, dtype=record, count=min(step, n_records - lo))
            hi = lo + len(part)
            for name, column in columns.items():
                column[lo:hi] = part[name]
            del part  # before the next slice is read, so only one is held
            bad = [i for name in ("t_i", "h") if (i := first_non_finite(columns[name][lo:hi])) is not None]
            if bad:
                raise ValueError(f"{path}: record {lo + min(bad)} holds a non-finite value")
    series = FrameSeries(**columns)
    meta = FrameSeriesMeta(
        n_seq=kv["n_seq"],
        t_s=kv["t_s"],
        t_seq=kv["t_seq"],
        calibration=kv.get("calibration", ""),
        total_sequences=kv["total_sequences"],
    )
    return series, meta


def write_trigger_log(path: str, events: list[TriggerEvent]) -> None:
    """Write trigger events as one text line each, through :func:`replacing`."""
    with replacing(path) as f:
        f.write(b"# sample_index,kind,span,note\n")
        for ev in sorted(events):
            f.write(f"{ev.sample_index},{ev.kind},{ev.span},{ev.note}\n".encode("utf-8"))


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
            try:  # the note, if any, is the fourth part
                events.append(TriggerEvent(int(parts[0]), parts[1], int(parts[2]), *parts[3:]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return sorted(events)


def write_profile(path: str, profile: CalibrationProfile) -> None:
    """Write a calibration profile (header plus float64 payload)."""
    clamped = ".".join(str(int(b)) for b in profile.clamped_bins)
    header = (
        f"n_seq={profile.n_seq}\n"
        f"source={profile.source}\n"
        f"gain_cap_db={float(profile.gain_cap_db)!r}\n"
        f"created_from={profile.created_from}\n"
        f"clamped_bins={clamped}\n"
    )
    with replacing(path) as f:
        _write_head(f, PROFILE_MAGIC, header)
        f.write(np.asarray(profile.h_ftt).astype("<c16").tobytes())


def read_profile(path: str) -> CalibrationProfile:
    """Read a calibration profile written by :func:`write_profile`; a NaN
    or infinity in the correction filter raises ``ValueError``."""
    fields = {
        "n_seq": checked(int, *POSITIVE_FINITE),
        "source": str,
        "gain_cap_db": checked(float, *FINITE),
        "created_from": _sample_index,
        "clamped_bins": _bins,
    }
    with _read_container(
        path, PROFILE_MAGIC, "calibration-profile", fields, {"clamped_bins": ""}
    ) as (kv, f, size):
        n_seq, clamped = kv["n_seq"], kv["clamped_bins"]
        if len(clamped) and clamped.max() >= n_seq:
            raise ValueError(
                f"{path}: calibration-profile header field clamped_bins: bin {clamped.max()} >= n_seq={n_seq}"
            )
        if size != 16 * n_seq:
            raise ValueError(f"{path} payload is {size} bytes, expected {16 * n_seq}")
        h_ftt = np.fromfile(f, dtype="<c16").astype(np.complex128)
    bad = first_non_finite(h_ftt)
    if bad is not None:
        raise ValueError(f"{path}: calibration-profile value h_ftt[{bad}] is not finite")
    return CalibrationProfile(
        h_ftt=h_ftt,
        source=kv["source"],
        gain_cap_db=kv["gain_cap_db"],
        created_from=kv["created_from"],
        clamped_bins=clamped,
    )
