"""One round-trip property per container: every record a constructor
accepts is either refused by its writer, with ``ValueError`` and no file
or ``.part`` left behind, or read back bit for bit.

The records are drawn from what each constructor accepts: floats of
every kind (NaN, both infinities, subnormals, both edges of ``RATE``),
text of any code point (line breaks and lone surrogates among them),
clamped bins past ``n_seq``, integers past each wire field's width and
complex64 capture samples.  Each ``@example`` is a case whose writer and
reader once disagreed.
"""

import math
import os
import struct
import tempfile

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chansounder import framestore as fsio
from chansounder import wire
from chansounder.calib import CalibrationProfile
from chansounder.framestore import CaptureMeta
from chansounder.frames import MAX_GAIN_CAP_DB, TRIGGER_KINDS, FrameSeries, IqFrame, TriggerEvent

LEAST_RATE = 5.56268464626801e-309  # the least float with a finite reciprocal
GREATEST_RATE = 1.7976931348623151e308  # the greatest float RATE accepts
EDGES = [LEAST_RATE, math.nextafter(LEAST_RATE, 0.0), GREATEST_RATE, math.nextafter(GREATEST_RATE, math.inf),
         5e-324, 1.7976931348623157e308, MAX_GAIN_CAP_DB, math.nextafter(MAX_GAIN_CAP_DB, math.inf), 1e10]
FLOATS = st.one_of(st.floats(), st.sampled_from(EDGES + [-v for v in EDGES]))
#: Text of any code point, with the ones that broke a container weighted in.
TEXT = st.one_of(
    st.text(st.integers(0, 0x10FFFF).map(chr), max_size=8),
    st.sampled_from(["", " buf\t", "a,b", "#x", "k=v", "a\nb", "a\rb", " ", "\x85", "\ud800", "x" * 70_000]),
)
COMPLEX = st.builds(complex, FLOATS, FLOATS)
#: Integers on both sides of every wire field's width, and of zero.
WIDE_INTS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([2**8, 2**16 - 1, 2**16, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64, -(2**63) - 1]),
    st.integers(-(2**70), 2**70),
)
#: Each property runs the profile's examples (100, or 1,000 under
#: ``--hypothesis-profile=wide``), with no deadline: a refused write is a
#: file system round trip.
PROPERTY = settings(deadline=None)


def bits(x) -> bytes:
    """The bytes of a float, or of an array with its dtype and shape."""
    if isinstance(x, np.ndarray):
        return str((x.dtype.str, x.shape)).encode() + x.tobytes()
    return struct.pack("<d", x)


def written(write) -> dict | None:
    """Run ``write(directory)`` in a fresh directory: the bytes of each file
    it left, or None when it raised ``ValueError`` and left no file."""
    with tempfile.TemporaryDirectory() as directory:
        try:
            write(directory)
        except ValueError:
            assert os.listdir(directory) == []  # no file, no .part either
            return None
        files = {}
        for name in sorted(os.listdir(directory)):
            with open(os.path.join(directory, name), "rb") as f:
                files[name] = f.read()
        return files


def read_back(files: dict, read):
    """``read(path)`` of the files ``written`` returned, in a fresh directory."""
    with tempfile.TemporaryDirectory() as directory:
        for name, blob in files.items():
            with open(os.path.join(directory, name), "wb") as f:
                f.write(blob)
        return read(os.path.join(directory, "f"))


@PROPERTY
@given(
    h=st.integers(1, 3).flatmap(lambda n: st.lists(st.lists(COMPLEX, min_size=n, max_size=n), min_size=1, max_size=3)),
    t_i=st.lists(FLOATS, min_size=3, max_size=3),
    first=st.integers(-1, 2**62),
    corrected=st.booleans(),
    t_s=FLOATS,
    calibration=TEXT,
    total=st.one_of(st.none(), st.integers(-1, 2**70)),
)
@example(h=[[math.nan, 0j]], t_i=[0.0] * 3, first=0, corrected=False, t_s=1e-6, calibration="", total=None)
def test_frames_file_round_trips_or_is_refused(h, t_i, first, corrected, t_s, calibration, total):
    try:
        series = FrameSeries(np.array(h), first + np.arange(len(h)), t_i[: len(h)], corrected)
    except ValueError:
        return  # the constructor refuses it
    files = written(lambda d: fsio.write_frames(os.path.join(d, "f"), series, t_s, calibration, total))
    if files is None:
        return
    assert sorted(files) == ["f"]
    back, meta = read_back(files, fsio.read_frames)
    for name in ("h", "sequence_index", "t_i", "corrected"):
        assert bits(getattr(back, name)) == bits(np.ascontiguousarray(getattr(series, name)))
    assert (meta.n_seq, meta.calibration) == (series.n_seq, calibration)
    assert bits(meta.t_s) == bits(t_s) and bits(meta.t_seq) == bits(series.n_seq * t_s)
    assert meta.total_sequences == (first + len(h) if total is None else total)


@PROPERTY
@given(
    h_ftt=st.lists(COMPLEX, min_size=1, max_size=4),
    source=TEXT,
    gain_cap_db=FLOATS,
    created_from=st.integers(-1, 2**70),
    clamped_bins=st.lists(st.integers(-1, 6), max_size=3),
)
@example(h_ftt=[1, 0, 0, 0], source="through", gain_cap_db=40.0, created_from=1, clamped_bins=[7])
@example(h_ftt=[1, math.nan, 0, 0], source="through", gain_cap_db=40.0, created_from=1, clamped_bins=[])
def test_profile_file_round_trips_or_is_refused(h_ftt, source, gain_cap_db, created_from, clamped_bins):
    try:
        profile = CalibrationProfile(np.array(h_ftt, dtype=complex), source, gain_cap_db, created_from, clamped_bins)
    except ValueError:
        return  # the profile refuses it, so no writer is handed it
    files = written(lambda d: fsio.write_profile(os.path.join(d, "f"), profile))
    if files is None:
        return
    back = read_back(files, fsio.read_profile)
    assert bits(back.h_ftt) == bits(np.ascontiguousarray(profile.h_ftt))
    assert bits(back.clamped_bins) == bits(np.ascontiguousarray(profile.clamped_bins))
    assert (back.source, back.created_from) == (source, created_from)
    assert bits(back.gain_cap_db) == bits(gain_cap_db)


TRIGGERS = st.lists(
    st.tuples(st.integers(-1, 2**70), st.sampled_from(TRIGGER_KINDS), st.integers(0, 2**40), TEXT), max_size=3
)


@PROPERTY
@given(
    samples=st.lists(st.builds(complex, st.floats(width=32), st.floats(width=32)), max_size=5),
    fs=FLOATS,
    f_c=FLOATS,
    start_index=st.integers(-1, 2**70),
    descriptor=TEXT,
    seed_note=TEXT,
    triggers=TRIGGERS,
)
@example(samples=[1j], fs=1e6, f_c=0.0, start_index=0, descriptor="", seed_note="", triggers=[(8, "overflow", 1, " buf\t")])
@example(samples=[complex(math.nan, 0)], fs=1e6, f_c=0.0, start_index=3, descriptor="", seed_note="", triggers=[])
def test_capture_with_its_sidecars_round_trips_or_is_refused(samples, fs, f_c, start_index, descriptor, seed_note, triggers):
    try:
        frame = IqFrame(np.array(samples, dtype=np.complex64), fs, f_c, start_index)
        events = [TriggerEvent(*t) for t in triggers]
    except ValueError:
        return  # a constructor refuses it
    files = written(lambda d: fsio.write_capture(os.path.join(d, "f"), frame, CaptureMeta(descriptor, seed_note, events)))
    if files is None:
        return
    assert sorted(files) == ["f", "f.meta"] + ["f.triggers"] * bool(events)
    back, meta = read_back(files, fsio.read_capture)
    assert bits(back.samples) == bits(frame.samples)
    assert bits(back.fs) == bits(fs) and bits(back.f_c) == bits(f_c) and back.start_index == start_index
    assert (meta.sequence_descriptor, meta.seed_note) == (descriptor, seed_note)
    assert [(e.sample_index, e.kind, e.span, e.note) for e in meta.triggers] == sorted(triggers, key=lambda t: t[0])


def decoded(message: bytes):
    """The record :func:`wire.read_message` gives back for ``message``."""
    (length,) = struct.unpack_from("<I", message)
    assert length == len(message) - 4
    return wire.decode_message(message[4:])


@PROPERTY
@given(fs=FLOATS, f_c=FLOATS, descriptor=TEXT)
@example(fs=1e6, f_c=math.inf, descriptor="")
def test_hello_round_trips_or_is_refused(fs, f_c, descriptor):
    try:
        message = wire.encode_hello(wire.Hello(fs, f_c, descriptor))
    except ValueError:
        return  # refused as it is built or encoded
    back = decoded(message)
    assert isinstance(back, wire.Hello)
    assert (bits(back.fs), bits(back.f_c), back.sequence_descriptor) == (bits(fs), bits(f_c), descriptor)


@PROPERTY
@given(start_index=WIDE_INTS, samples=st.lists(st.builds(complex, st.floats(width=32), st.floats(width=32)), max_size=4))
def test_iq_chunk_round_trips_or_is_refused(start_index, samples):
    try:  # a chunk carries a block of a capture, at its start index
        block = IqFrame(np.array(samples, dtype=np.complex64), 1.0, 0.0, start_index)
        message = wire.encode_iq_chunk(block.start_index, block.samples)
    except ValueError:
        return
    back = decoded(message)
    assert isinstance(back, wire.IqChunk)
    assert back.start_index == start_index and bits(back.samples) == bits(block.samples)


@PROPERTY
@given(sample_index=WIDE_INTS, kind=st.sampled_from(TRIGGER_KINDS), span=WIDE_INTS, note=TEXT)
@example(sample_index=0, kind="overflow", span=2**32, note="")
@example(sample_index=0, kind="overflow", span=1, note="x" * 70_000)
@example(sample_index=2**63, kind="overflow", span=1, note="")
def test_trigger_round_trips_or_is_refused(sample_index, kind, span, note):
    try:
        message = wire.encode_trigger(TriggerEvent(sample_index, kind, span, note))
    except ValueError:
        return
    back = decoded(message)
    assert isinstance(back, TriggerEvent)
    assert (back.sample_index, back.kind, back.span, back.note) == (sample_index, kind, span, note)


@PROPERTY
@given(total=WIDE_INTS)
def test_end_round_trips_or_is_refused(total):
    try:
        message = wire.encode_end(wire.End(total).total_samples)
    except ValueError:
        return
    back = decoded(message)
    assert isinstance(back, wire.End) and back.total_samples == total
