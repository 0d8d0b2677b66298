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
from .frames import CAPTURE_DTYPE, FINITE, GAIN_CAP_DB, NON_NEGATIVE, POSITIVE_FINITE, RATE, FrameSeries, IqFrame
from .frames import TriggerEvent, capture_blocks, check_finite, checked, first_non_finite

CAPTURE_VERSION = 1
FRAMES_MAGIC = b"CSF1"
PROFILE_MAGIC = b"CSP1"
#: ``write_frames`` packs and ``read_frames`` unpacks records in slices
#: of about this size, so neither holds a second copy of the whole series.
_SLICE_BYTES = 1 << 20

#: A header field parser for an absolute sample index.
_sample_index = checked(int, *NON_NEGATIVE)


def _bins(text: str) -> np.ndarray:
    """A header field parser for ``.``-separated non-negative bin numbers."""
    return np.array([_sample_index(t) for t in text.split(".")] if text else [], dtype=np.int64)


#: Each container's header fields as its reader parses them (other keys
#: stay text); its writer parses the header it is about to write with the
#: same table (:func:`_header`).  The payload rules are stated once too,
#: each run by the writer before or as it writes and by the reader on
#: what it reads: :func:`frames.check_finite` for a capture,
#: :func:`_check_records` for a frame series and
#: :class:`calib.CalibrationProfile` for a profile.
_CAPTURE_FIELDS = {
    "format_version": int,
    "sample_rate": checked(float, *RATE),
    "center_frequency": checked(float, *FINITE),
    "start_index": _sample_index,
}
_FRAMES_FIELDS = {
    "n_records": checked(int, *POSITIVE_FINITE),
    "n_seq": checked(int, *POSITIVE_FINITE),
    "t_s": checked(float, *RATE),
    "t_seq": checked(float, *RATE),
    "total_sequences": _sample_index,
}
_PROFILE_FIELDS = {
    "n_seq": checked(int, *POSITIVE_FINITE),
    "source": str,
    "gain_cap_db": checked(float, *GAIN_CAP_DB),
    "created_from": _sample_index,
    "clamped_bins": _bins,
}


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
    trigger log is removed only after the new files are in place.  Both
    sidecars' texts, and an :class:`IqFrame`'s samples
    (:func:`frames.capture_blocks`), meet their readers' rules before a
    file is opened.
    """
    blocks = capture_blocks(capture, f"capture payload {path}")
    sidecar = _header(sidecar_path(path), "capture sidecar", _CAPTURE_FIELDS, {
        "format_version": str(CAPTURE_VERSION),
        "sample_rate": _float_text(capture.fs),
        "center_frequency": _float_text(capture.f_c),
        "start_index": str(capture.start_index),
        "sequence": meta.sequence_descriptor,
        "seed_note": meta.seed_note,
    })
    _trigger_log(path + ".triggers", meta.triggers)  # its notes, checked before a file is opened
    with replacing(path) as f, replacing(sidecar_path(path)) as text:
        for block in blocks:
            np.asarray(block.samples, dtype=CAPTURE_DTYPE).tofile(f)
        text.write(sidecar.encode("utf-8"))
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
    kv = _parse_header(text, sidecar_path(path), "capture sidecar", _CAPTURE_FIELDS, {"start_index": "0"})
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


def _one_line(text: str, name: str) -> str:
    """``text``, if it holds no line break (:meth:`str.splitlines`, the readers' splitter)."""
    if "".join(text.splitlines()) != text:
        raise ValueError(f"{name}: must hold no line break, got {text!r}")
    return text


def _float_text(v) -> str:
    """``repr(float(v))``, or the infinity of its sign for an int past float range."""
    try:
        return repr(float(v))
    except OverflowError:
        return "inf" if v > 0 else "-inf"


def _header(where: str, kind: str, fields: dict, values: dict) -> str:
    """The ``key=value`` lines of the texts ``values``, once each is one line
    and the lines parse as the reader parses them, with its table ``fields``."""
    text = "".join(f"{key}={_one_line(value, f'{where}: {kind} field {key}')}\n" for key, value in values.items())
    _parse_header(text, where, kind, fields)
    return text


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


def _check_records(path: str, lo: int, t_i: np.ndarray, h: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first of the frame-series records
    from number ``lo`` on, with times ``t_i`` and responses ``h``, whose
    time or response is not finite: the rule :func:`write_frames` runs on
    each slice it packs and :func:`read_frames` on each slice it reads."""
    bad = [i for x in (t_i, h) if (i := first_non_finite(x)) is not None]
    if bad:
        raise ValueError(f"{path}: record {lo + min(bad)} holds a non-finite value")


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

    The header (``t_s``, ``t_seq = n_seq * t_s``) and each record meet
    :func:`read_frames`'s rules; a record whose time or response is not
    finite raises ``ValueError`` and leaves no file.
    ``total_sequences`` records how many periods the stimulation run
    contained (including gated-out ones); it defaults to one past the
    highest stored index.
    """
    if not len(frames):
        raise ValueError("refusing to write an empty frame series")
    n_seq = frames.n_seq
    if total_sequences is None:
        total_sequences = int(frames.sequence_index.max()) + 1
    header = _header(path, "frame-series header", _FRAMES_FIELDS, {
        "n_records": str(len(frames)),
        "n_seq": str(n_seq),
        "t_s": _float_text(t_s),
        "t_seq": _float_text(n_seq * t_s),
        "calibration": calibration,
        "total_sequences": str(total_sequences),
    })

    dtype = _record_dtype(n_seq)
    step = max(1, _SLICE_BYTES // dtype.itemsize)
    with replacing(path) as f:
        _write_head(f, FRAMES_MAGIC, header)
        for lo in range(0, len(frames), step):
            part = frames[lo : lo + step]
            _check_records(path, lo, part.t_i, part.h)
            f.write(np.rec.fromarrays([getattr(part, n) for n in dtype.names], dtype=dtype))


def read_frames(path: str) -> tuple[FrameSeries, FrameSeriesMeta]:
    """Read a frame series written by :func:`write_frames`, slice by
    slice into the series' own arrays; a NaN or infinity in a record's
    time or response raises ``ValueError``."""
    with _read_container(path, FRAMES_MAGIC, "frame-series", _FRAMES_FIELDS) as (kv, f, size):
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
            _check_records(path, lo, columns["t_i"][lo:hi], columns["h"][lo:hi])
    series = FrameSeries(**columns)
    meta = FrameSeriesMeta(
        n_seq=kv["n_seq"],
        t_s=kv["t_s"],
        t_seq=kv["t_seq"],
        calibration=kv.get("calibration", ""),
        total_sequences=kv["total_sequences"],
    )
    return series, meta


def _trigger_log(path: str, events: list[TriggerEvent]) -> bytes:
    """The trigger log ``path`` of ``events``, one line each (:func:`_one_line` checks each note)."""
    name = f"{path}: trigger note"
    lines = ["# sample_index,kind,span,note\n"]
    lines += [f"{ev.sample_index},{ev.kind},{ev.span},{_one_line(ev.note, name)}\n" for ev in sorted(events)]
    return "".join(lines).encode("utf-8")


def write_trigger_log(path: str, events: list[TriggerEvent]) -> None:
    """Write trigger events as one text line each (:func:`_trigger_log`) through :func:`replacing`."""
    log = _trigger_log(path, events)
    with replacing(path) as f:
        f.write(log)


def read_trigger_log(path: str) -> list[TriggerEvent]:
    """Read a trigger log, sorted by sample index.  Only a line's break is
    cut off, so a note reads back as it was written, its spaces included;
    blank lines and ``#`` lines are skipped."""
    events: list[TriggerEvent] = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.removesuffix("\n")
            if not line.strip() or line.lstrip().startswith("#"):
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
    """Write a calibration profile: a header meeting :func:`read_profile`'s
    rules, then the float64 payload, which met them when the profile was built."""
    header = _header(path, "calibration-profile header", _PROFILE_FIELDS, {
        "n_seq": str(profile.n_seq),
        "source": profile.source,
        "gain_cap_db": _float_text(profile.gain_cap_db),
        "created_from": str(profile.created_from),
        "clamped_bins": ".".join(str(int(b)) for b in profile.clamped_bins),
    })
    with replacing(path) as f:
        _write_head(f, PROFILE_MAGIC, header)
        f.write(np.asarray(profile.h_ftt).astype("<c16").tobytes())


def read_profile(path: str) -> CalibrationProfile:
    """Read a calibration profile written by :func:`write_profile`; one
    that breaks a rule of :class:`calib.CalibrationProfile` (a NaN or
    infinity in the correction filter, a clamped bin past ``n_seq``)
    raises ``ValueError``."""
    with _read_container(
        path, PROFILE_MAGIC, "calibration-profile", _PROFILE_FIELDS, {"clamped_bins": ""}
    ) as (kv, f, size):
        n_seq = kv["n_seq"]
        if size != 16 * n_seq:
            raise ValueError(f"{path} payload is {size} bytes, expected {16 * n_seq}")
        h_ftt = np.fromfile(f, dtype="<c16").astype(np.complex128)
    try:
        return CalibrationProfile(h_ftt, kv["source"], kv["gain_cap_db"], kv["created_from"], kv["clamped_bins"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
