"""Round-trip and corruption tests for the on-disk formats."""

import hashlib
import math
import os
import re
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chansounder import charmetrics
from chansounder import framestore as fsio
from chansounder.calib import CalibrationProfile, through_calibrate
from chansounder.framestore import CaptureMeta
from chansounder.frames import GAIN_CAP_DB, FrameSeries, IqFrame, TriggerEvent

from check_memory import traced_peak


class TestCapture:
    def make_frame(self, rng, n=257):
        x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(np.complex64)
        return IqFrame(x.astype(np.complex128), fs=1e6, f_c=5.8e9, start_index=1024)

    def test_round_trip_bitwise(self, tmp_path, rng):
        frame = self.make_frame(rng)
        path = str(tmp_path / "a.iq")
        fsio.write_capture(path, frame, CaptureMeta("fzc:n=1024:u=7", "seed=0"))
        back, meta = fsio.read_capture(path)
        # payload is float32; the original was already float32-representable
        assert np.array_equal(back.samples, frame.samples)
        assert back.fs == 1e6 and back.f_c == 5.8e9
        assert back.start_index == 1024
        assert meta.sequence_descriptor == "fzc:n=1024:u=7"
        assert meta.seed_note == "seed=0"

    @pytest.mark.parametrize("i, value", [(3, complex(0.0, -math.inf)), (70_000, complex(math.nan, 1.0))])
    def test_non_finite_sample_named_by_absolute_index(self, tmp_path, i, value):
        # the second case lies past the first span each side checks
        x = np.ones(80_000, dtype=np.complex64)
        x[i] = value
        path = str(tmp_path / "a.iq")
        message = f"^capture payload {re.escape(path)} holds a non-finite sample at absolute index {1024 + i}$"
        # the writer refuses the frame before it opens a file
        with pytest.raises(ValueError, match=message):
            fsio.write_capture(path, IqFrame(x, fs=1e6, start_index=1024), CaptureMeta())
        assert not list(tmp_path.iterdir())
        # the reader names the sample in a payload written by other means
        fsio.write_capture(path, IqFrame(np.ones_like(x), fs=1e6, start_index=1024), CaptureMeta())
        x.tofile(path)
        with pytest.raises(ValueError, match=message):
            fsio.read_capture(path)

    def test_sample_past_float32_range_is_refused(self, tmp_path):
        # finite in complex128, infinite in the capture format
        path = str(tmp_path / "a.iq")
        frame = IqFrame(np.array([1.0, 1e39, 2.0]), fs=1e6, start_index=5)
        with pytest.raises(ValueError, match=f"^capture payload {re.escape(path)} holds a non-finite sample at absolute index 6$"):
            fsio.write_capture(path, frame, CaptureMeta())
        assert not list(tmp_path.iterdir())

    def test_strided_samples_are_written_in_order(self, tmp_path, rng):
        frame = self.make_frame(rng)
        path = str(tmp_path / "a.iq")
        fsio.write_capture(path, IqFrame(frame.samples[::2], fs=1e6), CaptureMeta())
        back, _ = fsio.read_capture(path)
        assert back.samples.dtype == np.complex64
        assert np.array_equal(back.samples, frame.samples[::2])

    def test_write_is_deterministic(self, tmp_path, rng):
        frame = self.make_frame(rng)
        p1, p2 = str(tmp_path / "a.iq"), str(tmp_path / "b.iq")
        fsio.write_capture(p1, frame, CaptureMeta("d", "s"))
        fsio.write_capture(p2, frame, CaptureMeta("d", "s"))
        assert Path(p1).read_bytes() == Path(p2).read_bytes()
        assert Path(p1 + ".meta").read_bytes() == Path(p2 + ".meta").read_bytes()

    def test_missing_sidecar_rejected(self, tmp_path, rng):
        frame = self.make_frame(rng)
        path = str(tmp_path / "a.iq")
        fsio.write_capture(path, frame, CaptureMeta())
        (tmp_path / "a.iq.meta").unlink()
        with pytest.raises(ValueError, match="sidecar"):
            fsio.read_capture(path)

    def test_truncated_payload_rejected(self, tmp_path, rng):
        frame = self.make_frame(rng)
        path = str(tmp_path / "a.iq")
        fsio.write_capture(path, frame, CaptureMeta())
        blob = Path(path).read_bytes()
        Path(path).write_bytes(blob[:-3])
        with pytest.raises(ValueError, match="truncated"):
            fsio.read_capture(path)

    def test_wrong_version_rejected(self, tmp_path, rng):
        frame = self.make_frame(rng)
        path = str(tmp_path / "a.iq")
        fsio.write_capture(path, frame, CaptureMeta())
        meta = Path(path + ".meta").read_text().replace("format_version=1", "format_version=9")
        Path(path + ".meta").write_text(meta)
        with pytest.raises(ValueError, match="version 9"):
            fsio.read_capture(path)

    def test_malformed_sidecar_line(self, tmp_path, rng):
        frame = self.make_frame(rng)
        path = str(tmp_path / "a.iq")
        fsio.write_capture(path, frame, CaptureMeta())
        with open(path + ".meta", "a") as f:
            f.write("no equals sign here\n")
        with pytest.raises(ValueError, match="key=value"):
            fsio.read_capture(path)


class TestCaptureSidecars:
    """``write_capture``/``read_capture`` own both sidecars: the ``.meta``
    text, range-checked, and the optional ``.triggers`` log."""

    def write(self, tmp_path, events=()):
        path = str(tmp_path / "a.iq")
        frame = IqFrame(np.arange(8) + 1j, fs=1e6, f_c=5.8e9, start_index=64)
        fsio.write_capture(path, frame, CaptureMeta("fzc:n=8:u=3", "seed=0", list(events)))
        return path

    def test_trigger_events_travel_in_the_meta(self, tmp_path):
        events = [TriggerEvent(70, "external", 4, "marker"), TriggerEvent(66, "overflow", 2)]
        path = self.write(tmp_path, events)
        frame, meta = fsio.read_capture(path)
        assert [(e.sample_index, e.kind, e.span, e.note) for e in meta.triggers] == [
            (66, "overflow", 2, ""),
            (70, "external", 4, "marker"),
        ]
        assert frame.start_index == 64

    def test_no_log_means_no_events(self, tmp_path):
        path = self.write(tmp_path)
        assert not (tmp_path / "a.iq.triggers").exists()
        assert fsio.read_capture(path)[1].triggers == []

    def test_rewrite_without_events_removes_the_stale_log(self, tmp_path):
        path = self.write(tmp_path, [TriggerEvent(70)])
        assert (tmp_path / "a.iq.triggers").exists()
        self.write(tmp_path)
        assert not (tmp_path / "a.iq.triggers").exists()
        assert fsio.read_capture(path)[1].triggers == []

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sample_rate", "inf"),
            ("sample_rate", "nan"),
            ("sample_rate", "0.0"),
            ("sample_rate", "-1000000.0"),
            ("sample_rate", "fast"),
            ("center_frequency", "inf"),
            ("center_frequency", "-inf"),
            ("center_frequency", "nan"),
            ("format_version", "one"),
        ],
    )
    def test_hostile_sidecar_value_rejected(self, tmp_path, field, value):
        path = self.write(tmp_path)
        meta = tmp_path / "a.iq.meta"
        lines = [
            f"{field}={value}" if ln.startswith(field + "=") else ln
            for ln in meta.read_text().splitlines()
        ]
        meta.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=field):
            fsio.read_capture(path)

    @pytest.mark.parametrize("field", ["format_version", "sample_rate", "center_frequency"])
    def test_missing_sidecar_field_rejected(self, tmp_path, field):
        path = self.write(tmp_path)
        meta = tmp_path / "a.iq.meta"
        lines = [ln for ln in meta.read_text().splitlines() if not ln.startswith(field + "=")]
        meta.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"missing '{field}'"):
            fsio.read_capture(path)


    @pytest.mark.parametrize("value", ["-1", "x", "1.5"])
    def test_hostile_start_index_names_the_sidecar_field(self, tmp_path, value):
        path = self.write(tmp_path)
        meta = tmp_path / "a.iq.meta"
        meta.write_text(meta.read_text().replace("start_index=64", f"start_index={value}"))
        with pytest.raises(ValueError, match=r"a\.iq\.meta: capture sidecar field start_index"):
            fsio.read_capture(path)

    def test_start_index_is_optional(self, tmp_path):
        path = self.write(tmp_path)
        meta = tmp_path / "a.iq.meta"
        meta.write_text(meta.read_text().replace("start_index=64\n", ""))
        assert fsio.read_capture(path)[0].start_index == 0

    def test_comment_lines_are_skipped(self, tmp_path):
        path = self.write(tmp_path)
        meta = tmp_path / "a.iq.meta"
        meta.write_text("# written by hand\n" + meta.read_text().replace("\n", "\n#start_index=-1\n", 1))
        frame, capture_meta = fsio.read_capture(path)
        assert frame.start_index == 64 and capture_meta.sequence_descriptor == "fzc:n=8:u=3"


class TestFrameSeries:
    def make_series(self, rng, n=8, count=5, index=None):
        rows = np.arange(count)
        return FrameSeries(
            h=rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n)),
            sequence_index=rows if index is None else index,
            t_i=(rows + 1) * 8e-6,
            corrected=rows % 2 == 0,
        )

    def test_round_trip_bitwise_values(self, tmp_path, rng):
        frames = self.make_series(rng)
        path = str(tmp_path / "run.frames")
        fsio.write_frames(path, frames, t_s=1e-6, calibration="prof.csp", total_sequences=7)
        back, meta = fsio.read_frames(path)
        assert len(back) == len(frames)
        for a, b in zip(back, frames):
            assert np.array_equal(a.h, b.h)
            assert a.t_i == b.t_i
            assert a.sequence_index == b.sequence_index
            assert a.corrected == b.corrected
        assert meta.n_seq == 8
        assert meta.t_s == 1e-6
        assert meta.t_seq == 8e-6
        assert meta.calibration == "prof.csp"
        assert meta.total_sequences == 7

    @pytest.mark.parametrize("field", ["h", "t_i"])
    @pytest.mark.parametrize("slice_bytes", [1 << 20, 300])
    def test_non_finite_record_named(self, tmp_path, rng, monkeypatch, field, slice_bytes):
        # 300-byte slices hold two 145-byte records, so record 3 is in the second
        monkeypatch.setattr(fsio, "_SLICE_BYTES", slice_bytes)
        frames = self.make_series(rng)
        columns = {"h": np.array(frames.h), "t_i": np.array(frames.t_i)}
        columns[field][3] = math.nan
        path = str(tmp_path / "run.frames")
        bad = FrameSeries(columns["h"], frames.sequence_index, columns["t_i"])
        message = f"^{re.escape(path)}: record 3 holds a non-finite value$"
        # the writer refuses the series and leaves no file, no .part either
        with pytest.raises(ValueError, match=message):
            fsio.write_frames(path, bad, t_s=1e-6)
        assert not list(tmp_path.iterdir())
        # the reader names the record in a file written with the check off
        with monkeypatch.context() as patch:
            patch.setattr(fsio, "_check_records", lambda *args: None)
            fsio.write_frames(path, bad, t_s=1e-6)
        with pytest.raises(ValueError, match=message):
            fsio.read_frames(path)

    def test_total_sequences_defaults_past_highest(self, tmp_path, rng):
        frames = self.make_series(rng, index=[0, 1, 2, 3, 11])
        path = str(tmp_path / "run.frames")
        fsio.write_frames(path, frames, t_s=1e-6)
        _, meta = fsio.read_frames(path)
        assert meta.total_sequences == 12

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            fsio.write_frames(str(tmp_path / "x"), FrameSeries(np.empty((0, 8)), [], []), t_s=1e-6)

    @pytest.mark.parametrize(
        "t_s, field, got",
        [
            (5e-324, "t_s", "5e-324"),
            (math.inf, "t_s", "inf"),
            (2**1024, "t_s", "inf"),  # an int past float range is written as inf
            # t_s values read_frames takes, but 8 of the first overflow the
            # sequence period, and 8 of the second, the greatest float, has
            # a reciprocal whose reciprocal is inf
            (1e308, "t_seq", "inf"),
            (sys.float_info.max / 8, "t_seq", repr(sys.float_info.max)),
        ],
        ids=["5e-324", "inf", "2**1024", "1e308", "max/8"],
    )
    def test_write_rejects_a_header_the_reader_rejects(self, tmp_path, rng, t_s, field, got):
        # the reader's own message, from the reader's own field table
        path = tmp_path / "run.frames"
        rule = "must be positive and finite with a finite reciprocal whose reciprocal is finite"
        with pytest.raises(ValueError) as exc:
            fsio.write_frames(str(path), self.make_series(rng), t_s=t_s)
        assert str(exc.value) == f"{path}: frame-series header field {field}: {rule}, got {got}"
        assert not list(tmp_path.iterdir())

    def test_bad_magic_rejected(self, tmp_path, rng):
        frames = self.make_series(rng)
        path = str(tmp_path / "run.frames")
        fsio.write_frames(path, frames, t_s=1e-6)
        blob = bytearray(Path(path).read_bytes())
        blob[:4] = b"XXXX"
        Path(path).write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="magic"):
            fsio.read_frames(path)

    def test_truncated_record_rejected(self, tmp_path, rng):
        frames = self.make_series(rng)
        path = str(tmp_path / "run.frames")
        fsio.write_frames(path, frames, t_s=1e-6)
        blob = Path(path).read_bytes()
        Path(path).write_bytes(blob[:-10])
        with pytest.raises(ValueError, match="truncated at record"):
            fsio.read_frames(path)

    def test_trailing_bytes_rejected(self, tmp_path, rng):
        frames = self.make_series(rng)
        path = str(tmp_path / "run.frames")
        fsio.write_frames(path, frames, t_s=1e-6)
        with open(path, "ab") as f:
            f.write(b"\x00" * 7)
        with pytest.raises(ValueError, match="trailing"):
            fsio.read_frames(path)

    def test_write_is_deterministic(self, tmp_path, rng):
        frames = self.make_series(rng)
        p1, p2 = str(tmp_path / "a.frames"), str(tmp_path / "b.frames")
        fsio.write_frames(p1, frames, t_s=1e-6)
        fsio.write_frames(p2, frames, t_s=1e-6)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()


class TestTriggerLog:
    def test_round_trip_with_commas_in_note(self, tmp_path):
        events = [
            TriggerEvent(900, "external", 5, "marker, with, commas"),
            TriggerEvent(17, "overflow", 128, ""),
        ]
        path = str(tmp_path / "run.triggers")
        fsio.write_trigger_log(path, events)
        back = fsio.read_trigger_log(path)
        assert [e.sample_index for e in back] == [17, 900]
        assert back[0].kind == "overflow" and back[0].span == 128 and back[0].note == ""
        assert back[1].kind == "external" and back[1].span == 5
        assert back[1].note == "marker, with, commas"

    def test_empty_log(self, tmp_path):
        path = str(tmp_path / "run.triggers")
        fsio.write_trigger_log(path, [])
        assert fsio.read_trigger_log(path) == []

    def test_parse_error_carries_line_number(self, tmp_path):
        path = str(tmp_path / "bad.triggers")
        Path(path).write_text("# header\n12,overflow,1,ok\nnot-a-number,overflow,1\n")
        with pytest.raises(ValueError, match=r"bad\.triggers:3"):
            fsio.read_trigger_log(path)

    def test_short_line_rejected(self, tmp_path):
        path = str(tmp_path / "bad.triggers")
        Path(path).write_text("12,overflow\n")
        with pytest.raises(ValueError, match=":1"):
            fsio.read_trigger_log(path)

    def test_bad_kind_rejected_with_line(self, tmp_path):
        path = str(tmp_path / "bad.triggers")
        Path(path).write_text("12,meteor,1,\n")
        with pytest.raises(ValueError, match=":1"):
            fsio.read_trigger_log(path)

    def test_read_sorts_by_index(self, tmp_path):
        path = str(tmp_path / "log.triggers")
        Path(path).write_text("50,external,1,b\n3,overflow,2,a\n")
        back = fsio.read_trigger_log(path)
        assert [e.sample_index for e in back] == [3, 50]


class TestProfile:
    def make_profile(self, rng):
        # real calibration output with clamped bins exercises every field
        h = np.zeros(16, dtype=complex)
        h[0] = 1.0
        spec = np.fft.fft(h)
        spec[5] = 1e-6
        spec[9] = 0.0
        return through_calibrate(FrameSeries(np.fft.ifft(spec)[None], [0], [0.0]), gain_cap_db=40.0)

    def test_round_trip(self, tmp_path, rng):
        prof = self.make_profile(rng)
        path = str(tmp_path / "cal.csp")
        fsio.write_profile(path, prof)
        back = fsio.read_profile(path)
        assert np.array_equal(back.h_ftt, prof.h_ftt)
        assert back.source == prof.source
        assert back.gain_cap_db == prof.gain_cap_db
        assert back.created_from == prof.created_from
        assert np.array_equal(back.clamped_bins, prof.clamped_bins)

    def test_round_trip_no_clamped_bins(self, tmp_path):
        prof = CalibrationProfile(
            h_ftt=np.array([1.0 + 0j, 0.0, 0.0, 0.0]),
            source="identity",
            gain_cap_db=40.0,
            created_from=0,
            clamped_bins=np.empty(0, dtype=np.int64),
        )
        path = str(tmp_path / "id.csp")
        fsio.write_profile(path, prof)
        back = fsio.read_profile(path)
        assert back.clamped_bins.size == 0
        assert np.array_equal(back.h_ftt, prof.h_ftt)

    def test_bad_magic(self, tmp_path, rng):
        path = str(tmp_path / "cal.csp")
        fsio.write_profile(path, self.make_profile(rng))
        blob = bytearray(Path(path).read_bytes())
        blob[0] ^= 0xFF
        Path(path).write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="magic"):
            fsio.read_profile(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_gain_cap_rejected(self, tmp_path, rng, value):
        path = tmp_path / "cal.csp"
        fsio.write_profile(str(path), self.make_profile(rng))
        blob = path.read_bytes()
        # same header length, so the payload stays where it was
        path.write_bytes(blob.replace(b"gain_cap_db=40.0", b"gain_cap_db=" + value.encode().rjust(4)))
        with pytest.raises(ValueError, match=r"cal\.csp: calibration-profile header field gain_cap_db"):
            fsio.read_profile(str(path))

    @pytest.mark.parametrize("value", [complex(math.nan, 0.0), complex(0.0, math.inf), complex(-math.inf, 1.0)])
    def test_non_finite_filter_value_rejected(self, tmp_path, rng, value):
        prof = self.make_profile(rng)
        h_ftt = np.array(prof.h_ftt)
        h_ftt[5] = value
        # the profile refuses the value, so no writer is handed it
        with pytest.raises(ValueError, match=r"^calibration-profile value h_ftt\[5\] is not finite$"):
            CalibrationProfile(h_ftt, prof.source, prof.gain_cap_db, prof.created_from, prof.clamped_bins)
        # the reader names it in a file written by other means
        path = tmp_path / "cal.csp"
        fsio.write_profile(str(path), prof)
        blob = bytearray(path.read_bytes())
        at = len(blob) - 16 * (prof.n_seq - 5)
        blob[at : at + 16] = np.array([value], dtype="<c16").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=r"cal\.csp: calibration-profile value h_ftt\[5\] is not finite"):
            fsio.read_profile(str(path))

    def test_payload_size_checked(self, tmp_path, rng):
        path = str(tmp_path / "cal.csp")
        fsio.write_profile(path, self.make_profile(rng))
        blob = Path(path).read_bytes()
        Path(path).write_bytes(blob[:-16])
        with pytest.raises(ValueError, match="payload"):
            fsio.read_profile(path)

    def test_frames_magic_rejected_as_profile(self, tmp_path, rng):
        # a frame-series file must not parse as a profile
        frames = FrameSeries(np.ones((1, 4)), [0], [1.0])
        path = str(tmp_path / "run.frames")
        fsio.write_frames(path, frames, t_s=1e-6)
        with pytest.raises(ValueError, match="magic"):
            fsio.read_profile(path)


class TestWrittenBytes:
    """Each writer's bytes, header included, from fixed inputs whose every
    value is exact in binary.  The digests were recorded at commit 0fdb0c9."""

    def digest(self, path):
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    def test_frame_series_file(self, tmp_path):
        h = np.array([[1, 0.5j, -0.25], [2 + 1j, 0, -1j]])
        frames = FrameSeries(h, [1, 4], [3e-6, 12e-6], [False, True])
        path = str(tmp_path / "a.frames")
        fsio.write_frames(path, frames, t_s=1e-6, calibration="cal.csp", total_sequences=9)
        assert self.digest(path) == "e29fe949c541dc310ac0ffc08b3c48e77f2992c8123436c6aff05a01b5703bc4"

    def test_profile_file(self, tmp_path):
        prof = CalibrationProfile(
            np.array([1, 0.5j, -0.25, 0.125 + 0.125j]), "through", 40.0, 3, np.array([1, 2])
        )
        path = str(tmp_path / "cal.csp")
        fsio.write_profile(path, prof)
        assert self.digest(path) == "9258dbb29c2fd0e13ffd2ada3c4873a00d85af8353c072523a47835a4340b255"

    def test_numpy_scalars_write_the_bytes_of_floats(self, tmp_path):
        # a numpy scalar's repr is "np.float64(...)": each header float is
        # written as the repr of a Python float, which the readers take back
        h = np.array([[1, 0.5j, -0.25], [2 + 1j, 0, -1j]])
        frames = FrameSeries(h, [1, 4], [3e-6, 12e-6], [False, True])
        prof = CalibrationProfile(
            np.array([1, 0.5j, -0.25, 0.125 + 0.125j]), "through", np.float64(40.0), 3, np.array([1, 2])
        )
        fsio.write_frames(
            str(tmp_path / "a.frames"), frames, t_s=np.float64(1e-6), calibration="cal.csp", total_sequences=9
        )
        fsio.write_profile(str(tmp_path / "cal.csp"), prof)
        assert self.digest(tmp_path / "a.frames") == "e29fe949c541dc310ac0ffc08b3c48e77f2992c8123436c6aff05a01b5703bc4"
        assert self.digest(tmp_path / "cal.csp") == "9258dbb29c2fd0e13ffd2ada3c4873a00d85af8353c072523a47835a4340b255"
        _, meta = fsio.read_frames(str(tmp_path / "a.frames"))
        assert (meta.t_s, meta.t_seq) == (1e-6, 3e-6)
        assert type(meta.t_s) is float
        assert fsio.read_profile(str(tmp_path / "cal.csp")).gain_cap_db == 40.0

    def test_capture_sidecar(self, tmp_path):
        frame = IqFrame(np.array([1, 0.5j, -0.25, 2 + 1j]), fs=1e6, f_c=5.8e9, start_index=7)
        path = str(tmp_path / "a.iq")
        fsio.write_capture(path, frame, CaptureMeta("fzc:n=4:u=1", "seed=0"))
        assert self.digest(path + ".meta") == "0cfafc731044f5b691204d88ad06e51ae3bd425667ca34e048b3b2dd75a2243b"


class TestWriteOut:
    """Every writer goes through ``replacing``, which starts each piece of
    about ``_SLICE_BYTES`` out to disk (``os.posix_fadvise`` with
    ``POSIX_FADV_DONTNEED``) as soon as it is written, and the rest before
    the rename; the bytes do not depend on it."""

    @staticmethod
    def write_all(directory):
        """Write one file of each kind into ``directory``; return their paths."""
        rng = np.random.default_rng(5)
        base = os.path.join(directory, "run")
        samples = (rng.standard_normal(40_000) + 1j * rng.standard_normal(40_000)).astype(np.complex64)
        events = [TriggerEvent(300, note="buffer overrun")]
        fsio.write_capture(base + ".iq", IqFrame(samples, 1e6), CaptureMeta("fzc:n=64:u=7", "seed=1", events))
        series = TestFrameSeries().make_series(rng, n=64, count=300)
        fsio.write_frames(base + ".frames", series, t_s=1e-6, calibration="cal.csp", total_sequences=301)
        fsio.write_profile(base + ".csp", CalibrationProfile(rng.standard_normal(64) + 0j))
        charmetrics._write_csv(base + ".csv", b"delay_s,power\n", np.arange(2_000) * 1e-6, rng.random((2_000, 3)))
        return [base + suffix for suffix in (".iq", ".iq.meta", ".iq.triggers", ".frames", ".csp", ".csv")]

    @pytest.mark.parametrize("slice_bytes", [1 << 20, 4096, 300])
    def test_every_byte_is_written_out_once_in_order(self, tmp_path, monkeypatch, slice_bytes):
        monkeypatch.setattr(fsio, "_SLICE_BYTES", slice_bytes)
        advised = []  # (inode, offset, length) of each call, in order

        def posix_fadvise(fd, offset, length, advice):
            assert advice == os.POSIX_FADV_DONTNEED
            advised.append((os.fstat(fd).st_ino, offset, length))

        monkeypatch.setattr(os, "posix_fadvise", posix_fadvise, raising=False)
        for path in self.write_all(str(tmp_path)):
            # the rename keeps the .part's inode
            ranges = [(offset, length) for ino, offset, length in advised if ino == os.stat(path).st_ino]
            assert ranges and ranges[0][0] == 0
            for (offset, length), (following, _) in zip(ranges, ranges[1:]):
                assert length >= slice_bytes and following == offset + length
            assert sum(length for _, length in ranges) == os.path.getsize(path)
            if slice_bytes < 1 << 20 and path.endswith((".frames", ".csv")):  # out as it is written
                assert len(ranges) > 1
        assert not list(tmp_path.glob("*.part"))

    def test_the_bytes_do_not_depend_on_the_write_out(self, tmp_path, monkeypatch):
        (tmp_path / "with").mkdir()
        (tmp_path / "without").mkdir()
        want = [Path(p).read_bytes() for p in self.write_all(str(tmp_path / "with"))]
        monkeypatch.delattr(os, "posix_fadvise", raising=False)
        assert [Path(p).read_bytes() for p in self.write_all(str(tmp_path / "without"))] == want


def _capture(f_c=0.0):
    return IqFrame(np.ones(8, dtype=complex), 1e6, f_c)


#: Each writer's text field, as a write of a file at ``path`` whose field
#: holds ``text``, and a tail that, after a line break, would be read back
#: as a field (or a trigger) of its own.
TEXT_FIELDS = {
    ".frames calibration": (
        lambda path, text: fsio.write_frames(path, FrameSeries(np.ones((2, 4)), [1, 2], [1e-6, 2e-6]), 1e-6, text),
        "t_s=0.5",
    ),
    ".meta sequence": (lambda path, text: fsio.write_capture(path, _capture(), CaptureMeta(text)), "sample_rate=2.0"),
    ".meta seed_note": (
        lambda path, text: fsio.write_capture(path, _capture(), CaptureMeta(seed_note=text)),
        "sample_rate=2.0",
    ),
    ".csp source": (
        lambda path, text: fsio.write_profile(path, CalibrationProfile(np.ones(4), text)),
        "gain_cap_db=1.0",
    ),
    "trigger log note": (
        lambda path, text: fsio.write_trigger_log(path, [TriggerEvent(8, note=text)]),
        "40,overflow,9",
    ),
    ".meta trigger note": (
        lambda path, text: fsio.write_capture(path, _capture(), CaptureMeta(triggers=[TriggerEvent(8, note=text)])),
        "40,overflow,9",
    ),
}
LINE_BREAKS = {"LF": "\n", "CR": "\r", "FF": "\x0c", "LS": "\u2028"}


def _bad_writes():
    """(good write, bad write, part of the bad write's error), with an id,
    of every header or log a reader would read differently from what was
    given, or reject: a line break in each text field, two NaN header floats."""
    for field, (write, tail) in TEXT_FIELDS.items():
        for name, brk in LINE_BREAKS.items():
            yield pytest.param(
                lambda p, w=write: w(p, "buf"), lambda p, w=write, t=f"buf{brk}{tail}": w(p, t),
                "must hold no line break, got 'buf", id=f"{field}-{name}",
            )
    yield pytest.param(
        lambda p: fsio.write_profile(p, CalibrationProfile(np.ones(4))),
        lambda p: fsio.write_profile(p, CalibrationProfile(np.ones(4), gain_cap_db=math.nan)),
        f"gain cap must {GAIN_CAP_DB[1]}, got nan", id=".csp gain_cap_db-nan",
    )
    yield pytest.param(
        lambda p: fsio.write_capture(p, _capture(), CaptureMeta()),
        lambda p: fsio.write_capture(p, _capture(math.nan), CaptureMeta()),
        "capture sidecar field center_frequency: must be finite, got nan", id=".meta center_frequency-nan",
    )


@pytest.mark.parametrize("good, bad, message", _bad_writes())
def test_a_writer_refuses_a_file_its_reader_would_read_otherwise(tmp_path, good, bad, message):
    # in a fresh directory: nothing is left, no .part either
    (tmp_path / "fresh").mkdir()
    with pytest.raises(ValueError, match=re.escape(message)):
        bad(str(tmp_path / "fresh" / "f"))
    assert not list((tmp_path / "fresh").iterdir())
    # over an earlier file: it stays byte for byte as it was
    (tmp_path / "old").mkdir()
    good(str(tmp_path / "old" / "f"))
    before = {p.name: p.read_bytes() for p in (tmp_path / "old").iterdir()}
    with pytest.raises(ValueError, match=re.escape(message)):
        bad(str(tmp_path / "old" / "f"))
    assert {p.name: p.read_bytes() for p in (tmp_path / "old").iterdir()} == before


def container(magic, header, payload=b""):
    """Assemble a frame-series or profile container by hand."""
    head = header.encode("utf-8")
    return magic + struct.pack("<I", len(head)) + head + payload


def frames_header(**fields):
    values = {"n_records": "1", "n_seq": "2", "t_s": "1e-06", "t_seq": "2e-06", "total_sequences": "1"}
    values.update(fields)
    return "".join(f"{k}={v}\n" for k, v in values.items())


def record(index=0, n_seq=2):
    return struct.pack("<qdB", index, 1e-6, 0) + np.zeros(n_seq, dtype="<c16").tobytes()


class TestFrameSeriesContainer:
    def test_series_round_trip_keeps_flags(self, tmp_path, rng):
        series = TestFrameSeries().make_series(rng)
        path = str(tmp_path / "a.frames")
        fsio.write_frames(path, series, t_s=1e-6, calibration="p.csp", total_sequences=9)

        back, meta = fsio.read_frames(path)
        assert isinstance(back, FrameSeries)
        assert np.array_equal(back.h, series.h)
        assert np.array_equal(back.sequence_index, series.sequence_index)
        assert np.array_equal(back.t_i, series.t_i)
        assert back.corrected.tolist() == [True, False, True, False, True]
        assert meta.total_sequences == 9

    def test_sliced_write_gives_same_bytes(self, tmp_path, rng, monkeypatch):
        frames = TestFrameSeries().make_series(rng)
        whole, sliced = str(tmp_path / "a.frames"), str(tmp_path / "b.frames")
        fsio.write_frames(whole, frames, t_s=1e-6)
        monkeypatch.setattr(fsio, "_SLICE_BYTES", 300)  # two records per slice
        fsio.write_frames(sliced, frames, t_s=1e-6)
        assert Path(whole).read_bytes() == Path(sliced).read_bytes()

    def test_sliced_read_gives_same_series(self, tmp_path, rng, monkeypatch):
        path = str(tmp_path / "a.frames")
        fsio.write_frames(path, TestFrameSeries().make_series(rng), t_s=1e-6)
        whole, _ = fsio.read_frames(path)
        monkeypatch.setattr(fsio, "_SLICE_BYTES", 300)  # two records per slice, the last one alone
        sliced, _ = fsio.read_frames(path)
        for name in ("h", "sequence_index", "t_i", "corrected"):
            assert getattr(sliced, name).tobytes() == getattr(whole, name).tobytes()

    def test_read_peaks_near_the_file_size(self, tmp_path):
        path = str(tmp_path / "big.frames")
        n_records, n_seq = 300, 4096
        series = FrameSeries(
            h=np.ones((n_records, n_seq), dtype=complex), sequence_index=np.arange(n_records), t_i=np.zeros(n_records)
        )
        fsio.write_frames(path, series, t_s=1e-6)
        del series
        size = os.path.getsize(path)
        (back, _), peak = traced_peak(lambda: fsio.read_frames(path))
        assert len(back) == n_records and back.h[-1, -1] == 1
        assert peak <= 1.1 * size, f"peak {peak} B for a {size} B file"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_seq", "0"),
            ("t_s", "0"),
            ("t_s", "nan"),
            ("t_s", "inf"),
            ("t_s", "-1e-06"),
            ("t_seq", "0"),
            ("n_records", "0"),
            ("n_records", "-1"),
            ("n_seq", "two"),
            ("total_sequences", "-7"),
        ],
    )
    def test_hostile_header_rejected(self, tmp_path, field, value):
        path = tmp_path / "bad.frames"
        path.write_bytes(container(fsio.FRAMES_MAGIC, frames_header(**{field: value}), record()))
        with pytest.raises(ValueError, match=field):
            fsio.read_frames(str(path))

    def test_comment_lines_are_skipped(self, tmp_path):
        path = tmp_path / "a.frames"
        header = "# written by hand\n" + frames_header() + "#n_seq=0\n"
        path.write_bytes(container(fsio.FRAMES_MAGIC, header, record()))
        back, meta = fsio.read_frames(str(path))
        assert len(back) == 1 and meta.n_seq == 2 and meta.t_s == 1e-06
        profile = tmp_path / "a.csp"
        header = "#gain_cap_db=nan\nn_seq=2\nsource=x\ngain_cap_db=40.0\ncreated_from=1\nclamped_bins=\n"
        profile.write_bytes(container(fsio.PROFILE_MAGIC, header, bytes(2 * 16)))
        assert fsio.read_profile(str(profile)).gain_cap_db == 40.0

    def test_sample_rate_without_a_short_decimal_is_the_reciprocal(self):
        # no decimal of 1 to 17 significant digits has this t_s as its reciprocal
        t_s = 0.0007887235624121622
        assert all(1.0 / float(f"{1.0 / t_s:.{d}g}") != t_s for d in range(1, 18))
        assert fsio.FrameSeriesMeta(2, t_s, 2 * t_s, "", 1).sample_rate == 1.0 / t_s

    def test_missing_header_key_rejected(self, tmp_path):
        path = tmp_path / "bad.frames"
        path.write_bytes(container(fsio.FRAMES_MAGIC, "n_records=1\nn_seq=2\n", record()))
        with pytest.raises(ValueError, match="missing 't_s'"):
            fsio.read_frames(str(path))

    def test_negative_sequence_index_rejected(self, tmp_path):
        path = tmp_path / "bad.frames"
        path.write_bytes(container(fsio.FRAMES_MAGIC, frames_header(), record(index=-3)))
        with pytest.raises(ValueError, match="non-negative"):
            fsio.read_frames(str(path))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("clamped_bins", "a.b", "invalid literal"),
            ("clamped_bins", "-3", "must be non-negative, got -3"),
            ("clamped_bins", "1.99", "bin 99 >= n_seq=8"),
            ("clamped_bins", "8", "bin 8 >= n_seq=8"),
            ("clamped_bins", "99999999999999999999", "too large"),
            # an int past float range fails the rule, as infinity would
            pytest.param("n_seq", str(2**1024), "must be positive and finite, got 1797", id="n_seq-2**1024"),
            ("created_from", "-4", "must be non-negative, got -4"),
        ],
    )
    def test_hostile_profile_header_names_the_field(self, tmp_path, field, value, message):
        values = {"n_seq": "8", "source": "x", "gain_cap_db": "40.0", "created_from": "1", "clamped_bins": "7"}
        values[field] = value
        header = "".join(f"{k}={v}\n" for k, v in values.items())
        path = tmp_path / "bad.csp"
        path.write_bytes(container(fsio.PROFILE_MAGIC, header, bytes(16 * 8)))
        with pytest.raises(ValueError, match=rf"bad\.csp: calibration-profile header field {field}: .*{message}"):
            fsio.read_profile(str(path))

    def test_profile_with_zero_length_rejected(self, tmp_path):
        path = tmp_path / "bad.csp"
        path.write_bytes(
            container(fsio.PROFILE_MAGIC, "n_seq=0\nsource=x\ngain_cap_db=40.0\ncreated_from=1\n")
        )
        with pytest.raises(ValueError, match="n_seq"):
            fsio.read_profile(str(path))


def _valid_frames_blob(tmp_path):
    frames = FrameSeries(np.tile(np.arange(3) + 1j, (2, 1)), [0, 1], [1e-6, 2e-6], [False, True])
    path = str(tmp_path / "valid.frames")
    fsio.write_frames(path, frames, t_s=1e-6)
    return Path(path).read_bytes()


def _valid_profile_blob(tmp_path):
    path = str(tmp_path / "valid.csp")
    fsio.write_profile(path, TestProfile().make_profile(None))
    return Path(path).read_bytes()


def _parses_or_value_error(reader, path, blob):
    with open(path, "wb") as f:
        f.write(blob)
    try:
        reader(path)
    except ValueError:
        pass


def _valid_capture_file(tmp_path, suffix):
    path = str(tmp_path / "valid.iq")
    frame = IqFrame(np.arange(4) + 1j, fs=1e6, f_c=5.8e9)
    fsio.write_capture(path, frame, CaptureMeta("fzc:n=4:u=1", "seed=0", [TriggerEvent(2, "external", 1, "x")]))
    return (tmp_path / f"valid.iq{suffix}").read_bytes()


def _read_capture_checked(path):
    """``read_capture``, plus what every capture that parses must satisfy."""
    frame, _ = fsio.read_capture(path)
    assert math.isfinite(frame.fs) and frame.fs > 0


def _read_fuzzed_meta(path):
    """``path`` holds ``.meta`` bytes: read them beside a valid payload."""
    capture = path[: -len(".meta")]
    with open(capture, "wb") as f:
        f.write(bytes(16))
    _read_capture_checked(capture)


def _read_fuzzed_payload(path):
    """``path`` holds payload bytes: read them beside a valid ``.meta``."""
    with open(path + ".meta", "w") as f:
        f.write("format_version=1\nsample_rate=1000000.0\ncenter_frequency=0.0\n")
    _read_capture_checked(path)


_READERS = [
    ("frames", fsio.read_frames, _valid_frames_blob),
    ("csp", fsio.read_profile, _valid_profile_blob),
    ("iq.meta", _read_fuzzed_meta, lambda tmp_path: _valid_capture_file(tmp_path, ".meta")),
    ("iq", _read_fuzzed_payload, lambda tmp_path: _valid_capture_file(tmp_path, "")),
    ("triggers", fsio.read_trigger_log, lambda tmp_path: _valid_capture_file(tmp_path, ".triggers")),
]
_FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestContainerFuzz:
    """Any byte string either parses or raises ValueError, never another error."""

    @_FUZZ
    @given(which=st.sampled_from(_READERS), blob=st.binary(max_size=200), magic=st.booleans())
    def test_arbitrary_bytes(self, tmp_path, which, blob, magic):
        kind, reader, valid = which
        if magic:
            blob = (fsio.FRAMES_MAGIC if kind == "frames" else fsio.PROFILE_MAGIC) + blob
        _parses_or_value_error(reader, str(tmp_path / f"fuzz.{kind}"), blob)

    @_FUZZ
    @given(
        which=st.sampled_from(_READERS),
        edits=st.lists(st.tuples(st.integers(0, 400), st.integers(0, 255)), max_size=6),
        cut=st.integers(0, 400),
        insert=st.binary(max_size=16),
    )
    def test_mutated_valid_files(self, tmp_path, which, edits, cut, insert):
        kind, reader, valid = which
        blob = bytearray(valid(tmp_path))
        for pos, value in edits:
            blob[pos % len(blob)] = value
        blob[cut % (len(blob) + 1) : cut % (len(blob) + 1)] = insert
        _parses_or_value_error(reader, str(tmp_path / f"fuzz.{kind}"), bytes(blob))
