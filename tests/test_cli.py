"""End-to-end command-line tests driven through main()."""

import argparse
import errno
import math
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chansounder import _floatrepr, charmetrics, framestore, seqgen, sounder, wire
from chansounder.cli import _COMMANDS, _FLAGS, _build_parser, _config_from_args, main
from chansounder.config import CampaignConfig, load_config
from chansounder.framestore import read_profile
from chansounder.frames import MAX_GAIN_CAP_DB, IqFrame
from chansounder.seqgen import generate_fzc

from conftest import range_checked_keys, serving, unit_profile


def small_config(tmp_path, extra=""):
    """A quick campaign: short sequence, few repetitions, static channel."""
    path = tmp_path / "camp.cfg"
    path.write_text(
        "sequence.length = 64\n"
        "sequence.root = 7\n"
        "n_sequences = 12\n"
        "channel.taps = 0:1 ; 2:0.25j\n"
        "channel.cable =\n"
        + extra
    )
    return str(path)


@pytest.fixture
def blocks(monkeypatch):
    """The start index of every capture block made, in order."""
    made = []
    real = sounder.CaptureStream.__iter__

    def counting(stream):
        for block in real(stream):
            made.append(block.start_index)
            yield block

    monkeypatch.setattr(sounder.CaptureStream, "__iter__", counting)
    return made


@pytest.fixture
def pccf_calls(monkeypatch):
    """The row count of every block of periods correlated."""
    calls = []
    real = sounder._pccf_in_place

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(sounder, "_pccf_in_place", counting)
    return calls


@pytest.fixture
def chunk_heads(monkeypatch):
    """The start index of every IQ chunk header the receiver read: each
    IQ_CHUNK goes through ``wire._chunk_head``, whether the receiver
    reads it into its capture or decodes it as a message."""
    chunks = []
    real = wire._chunk_head

    def counting(payload, payload_bytes):
        start_index, count = real(payload, payload_bytes)
        chunks.append(start_index)
        return start_index, count

    monkeypatch.setattr(wire, "_chunk_head", counting)
    return chunks


class TestSoundFlow:
    def test_calibrate_then_sound(self, tmp_path):
        cal_cfg = tmp_path / "cal.cfg"
        cal_cfg.write_text(
            "sequence.length = 64\n"
            "n_sequences = 12\n"
            "channel.taps = 0:1\n"
            "channel.cable = 1, 0, 0.25\n"
        )
        prof = str(tmp_path / "prof.csp")
        assert main(["calibrate", "--config", str(cal_cfg), "--out", prof]) == 0

        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "sequence.length = 64\n"
            "n_sequences = 12\n"
            "channel.taps = 0:1 ; 2:0.25j\n"
            "channel.cable = 1, 0, 0.25\n"
            f"calibration = {prof}\n"
        )
        out = str(tmp_path / "run1")
        assert main(["sound", "--config", str(cfg), "--out", out]) == 0

        frames, meta = framestore.read_frames(out + ".frames")
        assert len(frames) == 11  # first period discarded
        assert meta.total_sequences == 12
        assert meta.calibration == prof
        assert all(f.corrected for f in frames)
        # calibrated response recovers the taps, cable removed
        h = frames[0].h
        assert abs(h[0] - 1.0) < 1e-5
        assert abs(h[2] - 0.25j) < 1e-5
        assert Path(out + ".report.txt").read_text().startswith("frames = 11")
        for suffix in (".pdp.csv", ".psd.csv"):
            assert (tmp_path / ("run1" + suffix)).exists()

    def test_sound_twice_is_byte_identical(self, tmp_path):
        cfg = small_config(tmp_path, "channel.snr_db = 20\n")
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["sound", "--config", cfg, "--out", out1]) == 0
        assert main(["sound", "--config", cfg, "--out", out2]) == 0
        for suffix in (".frames", ".report.txt", ".pdp.csv", ".psd.csv", ".doppler.csv"):
            b1 = Path(out1 + suffix).read_bytes()
            b2 = Path(out2 + suffix).read_bytes()
            assert b1 == b2, f"{suffix} differs between identical runs"

    def test_sound_without_doppler_leaves_no_stale_doppler_csv(self, tmp_path, capsys):
        # a 6-period campaign writes a Doppler map; a 2-period one into the
        # same --out keeps one frame, skips Doppler and must not leave the
        # first run's .doppler.csv beside its report
        out = str(tmp_path / "run")
        for periods in (6, 2):
            cfg = tmp_path / f"p{periods}.cfg"
            cfg.write_text(f"sequence.length = 64\nn_sequences = {periods}\nchannel.taps = 0:1\nchannel.cable =\n")
            assert main(["sound", "--config", str(cfg), "--out", out]) == 0
            assert (tmp_path / "run.doppler.csv").exists() == (periods == 6)
        report = Path(out + ".report.txt").read_text()
        assert "frames = 1\n" in report and "note = doppler: skipped, fewer than two frames" in report
        assert (tmp_path / "run.pdp.csv").exists() and (tmp_path / "run.psd.csv").exists()

    def test_characterize_stored_frames(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        out = str(tmp_path / "run")
        main(["sound", "--config", cfg, "--out", out])
        capsys.readouterr()
        rep = str(tmp_path / "again")
        assert main(["characterize", "--input", out + ".frames", "--out", rep]) == 0
        text = capsys.readouterr().out
        assert "rms_delay_spread_s" in text
        assert Path(rep + ".report.txt").read_text() == text

    @pytest.mark.parametrize("command", ["sound", "characterize"])
    def test_failed_csv_write_keeps_the_earlier_doppler_csv(self, tmp_path, monkeypatch, capsys, command):
        # the disk fills at the third batch of the Doppler table: the run
        # exits 2, the earlier .doppler.csv stays whole and no .part is left
        cfg, out = small_config(tmp_path), str(tmp_path / "run")
        assert main(["sound", "--config", cfg, "--out", out]) == 0
        before = Path(out + ".doppler.csv").read_bytes()
        real_write, real_reprs = charmetrics._write_csv, _floatrepr.reprs
        state = {"path": "", "batches": 0}

        def write(path, *table):
            state["path"] = path
            real_write(path, *table)

        def reprs(values, seps):
            if state["path"].endswith(".doppler.csv"):
                state["batches"] += 1
                if state["batches"] == 3:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_reprs(values, seps)

        monkeypatch.setattr(charmetrics, "_CSV_BATCH", 16)  # one 12-number row a batch
        monkeypatch.setattr(charmetrics, "_write_csv", write)
        monkeypatch.setattr(_floatrepr, "reprs", reprs)
        capsys.readouterr()
        args = ["--config", cfg] if command == "sound" else ["--input", out + ".frames"]
        assert main([command, *args, "--out", out]) == 2
        assert os.strerror(errno.ENOSPC) in capsys.readouterr().err
        assert state["batches"] == 3
        assert Path(out + ".doppler.csv").read_bytes() == before
        assert not list(tmp_path.glob("*.part"))

    def test_characterize_reports_the_rate_sound_reported(self, tmp_path, capsys):
        # 1 / t_s is 7000000.000000001 for 7 MS/s; the header's t_s must
        # still give back the configured rate.
        out = str(tmp_path / "run")
        assert main(["sound", "--config", small_config(tmp_path, "sample_rate = 7e6\n"), "--out", out]) == 0
        capsys.readouterr()
        rep = str(tmp_path / "again")
        assert main(["characterize", "--input", out + ".frames", "--out", rep]) == 0
        assert "sample_rate_hz = 7000000.0\n" in capsys.readouterr().out
        assert Path(rep + ".report.txt").read_bytes() == Path(out + ".report.txt").read_bytes()


class TestStimulateCorrelate:
    def test_split_flow_matches_single_process(self, tmp_path):
        cfg = small_config(tmp_path)
        cap = str(tmp_path / "cap.iq")
        assert main(["stimulate", "--config", cfg, "--out", cap]) == 0
        meta = framestore.read_capture(cap)[1]
        assert meta.sequence_descriptor == "fzc:n=64:u=7"

        frames_out = str(tmp_path / "split")
        assert main(["correlate", "--config", cfg, "--input", cap, "--out", frames_out]) == 0

        sound_out = str(tmp_path / "whole")
        assert main(["sound", "--config", cfg, "--out", sound_out]) == 0

        a, _ = framestore.read_frames(frames_out + ".frames")
        b, _ = framestore.read_frames(sound_out + ".frames")
        assert len(a) == len(b)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.h, fb.h)
            assert fa.t_i == fb.t_i and fa.sequence_index == fb.sequence_index

    @pytest.mark.parametrize("dc_hz", ["-5", "nan"])
    def test_correlate_rejects_negative_or_nan_dc_suppression(self, tmp_path, capsys, dc_hz):
        cap = str(tmp_path / "cap.iq")
        assert main(["stimulate", "--config", small_config(tmp_path), "--out", cap]) == 0
        capsys.readouterr()
        cfg = small_config(tmp_path, f"dc_suppression_hz = {dc_hz}\n")
        assert main(["correlate", "--config", cfg, "--input", cap, "--out", str(tmp_path / "f")]) == 2
        assert "dc_suppression_hz must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "f.frames").exists()

    def test_trigger_log_travels_with_capture(self, tmp_path, capsys):
        cfg = small_config(tmp_path, "triggers = 300:overflow:buf\ncorrupt_span = 8\n")
        cap = str(tmp_path / "cap.iq")
        main(["stimulate", "--config", cfg, "--out", cap])
        events = framestore.read_trigger_log(cap + ".triggers")
        assert len(events) == 1 and events[0].span == 8

        out = str(tmp_path / "gated")
        assert main(["correlate", "--config", cfg, "--input", cap, "--out", out]) == 0
        text = capsys.readouterr().out
        assert "kept 10 of 12" in text  # period 0 discarded, period 4 gated
        frames, _ = framestore.read_frames(out + ".frames")
        assert 4 not in [f.sequence_index for f in frames]

    def test_sound_logs_the_corrupted_span(self, tmp_path):
        cfg = small_config(tmp_path, "triggers = 300:overflow:buf\ncorrupt_span = 8\n")
        out = str(tmp_path / "s")
        assert main(["sound", "--config", cfg, "--out", out]) == 0
        events = framestore.read_trigger_log(out + ".triggers")
        assert [(e.sample_index, e.span) for e in events] == [(300, 8)]

    def test_capture_descriptor_wins_when_unpinned(self, tmp_path):
        cfg = small_config(tmp_path)
        cap = str(tmp_path / "cap.iq")
        main(["stimulate", "--config", cfg, "--out", cap])
        # correlate with no config at all: the sidecar names the sequence
        out = str(tmp_path / "f")
        assert main(["correlate", "--input", cap, "--out", out]) == 0
        frames, meta = framestore.read_frames(out + ".frames")
        assert meta.n_seq == 64

    def test_pinned_descriptor_mismatch_fails(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        cap = str(tmp_path / "cap.iq")
        main(["stimulate", "--config", cfg, "--out", cap])
        rc = main(
            ["correlate", "--input", cap, "--out", str(tmp_path / "f"),
             "--sequence", "fzc", "--length", "32", "--root", "5"]
        )
        assert rc == 2
        assert "pins" in capsys.readouterr().err


class TestCaptureSidecarFlow:
    """The capture's sidecars are written and read by framestore alone."""

    def test_stale_trigger_log_is_removed_by_the_next_stimulate(self, tmp_path, capsys):
        # 316 + 8 corrupted samples straddle periods 4 and 5 of 64 samples.
        cap = str(tmp_path / "cap.iq")
        cfg = small_config(tmp_path, "n_sequences = 20\ntriggers = 316:overflow:buf\ncorrupt_span = 8\n")
        assert main(["stimulate", "--config", cfg, "--out", cap]) == 0
        cfg = small_config(tmp_path, "n_sequences = 20\n")
        assert main(["stimulate", "--config", cfg, "--out", cap]) == 0
        capsys.readouterr()
        assert main(["correlate", "--config", cfg, "--input", cap, "--out", str(tmp_path / "f")]) == 0
        assert "kept 19 of 20" in capsys.readouterr().out
        assert not (tmp_path / "cap.iq.triggers").exists()

    def test_a_failed_stimulate_leaves_the_earlier_capture(self, tmp_path, capsys, monkeypatch):
        cap = str(tmp_path / "cap.iq")
        cfg = small_config(tmp_path, "triggers = 300:overflow:buf\nchunk_samples = 100\n")
        assert main(["stimulate", "--config", cfg, "--out", cap]) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(before) == ["camp.cfg", "cap.iq", "cap.iq.meta", "cap.iq.triggers"]
        real = sounder.CaptureStream.__iter__

        def failing(stream):
            for i, block in enumerate(real(stream)):
                if i == 3:
                    raise ValueError("capture samples are not finite in 32-bit float precision")
                yield block

        monkeypatch.setattr(sounder.CaptureStream, "__iter__", failing)
        # another seed note: a sidecar written after the failure would differ,
        # as would a payload cut after three of the eight blocks
        assert main(["stimulate", "--config", cfg, "--seed", "5", "--out", cap]) == 2
        assert "not finite" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize(
        "sidecar, kept",
        [
            (".meta", ["cap.iq", "cap.iq.meta", "cap.iq.triggers"]),
            (".triggers", ["cap.iq", "cap.iq.meta", "cap.iq.triggers"]),
        ],
    )
    def test_a_full_disk_leaves_the_earlier_sidecar(self, tmp_path, capsys, monkeypatch, sidecar, kept):
        # the disk fills half way through the sidecar's text: the earlier
        # payload and both earlier sidecars stay whole, since no file is
        # put in place before all three are written, and no .part is left
        cap = str(tmp_path / "cap.iq")
        cfg = small_config(tmp_path, "triggers = 300:overflow:buf\n")
        assert main(["stimulate", "--config", cfg, "--out", cap]) == 0
        before = {name: (tmp_path / name).read_bytes() for name in kept}

        class Full:
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.f.write(data[: len(data) // 2])
                self.f.flush()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def full_open(file, *args, **kwargs):
            f = open(file, *args, **kwargs)
            return Full(f) if sidecar in os.path.basename(file) else f

        monkeypatch.setattr(framestore, "open", full_open, raising=False)
        cfg = small_config(tmp_path, "triggers = 400:overflow:other\n")
        assert main(["stimulate", "--config", cfg, "--seed", "5", "--out", cap]) == 2
        assert os.strerror(errno.ENOSPC) in capsys.readouterr().err
        assert {name: (tmp_path / name).read_bytes() for name in kept} == before
        assert not list(tmp_path.glob("*.part"))

    def test_capture_from_a_later_sample_counts_periods_from_sample_0(self, tmp_path, capsys):
        # A 6-period stream recorded from sample 64 on holds periods 1..5.
        cap = str(tmp_path / "cap.iq")
        assert main(["stimulate", "--config", small_config(tmp_path, "n_sequences = 6\n"), "--out", cap]) == 0
        capture, meta = framestore.read_capture(cap)
        late = IqFrame(capture.samples[64:], capture.fs, capture.f_c, 64)
        framestore.write_capture(cap, late, meta)
        capsys.readouterr()
        out = str(tmp_path / "f")
        assert main(["correlate", "--input", cap, "--out", out]) == 0
        assert "kept 5 of 6" in capsys.readouterr().out
        frames, fmeta = framestore.read_frames(out + ".frames")
        assert [f.sequence_index for f in frames] == [1, 2, 3, 4, 5]
        assert fmeta.total_sequences == 6

    def test_nonfinite_sidecar_sample_rate_fails_before_writing(self, tmp_path, capsys):
        cap = str(tmp_path / "cap.iq")
        assert main(["stimulate", "--config", small_config(tmp_path), "--out", cap]) == 0
        meta = tmp_path / "cap.iq.meta"
        meta.write_text(meta.read_text().replace("sample_rate=1000000.0", "sample_rate=inf"))
        out = str(tmp_path / "f")
        assert main(["correlate", "--input", cap, "--out", out]) == 2
        assert "sample_rate" in capsys.readouterr().err
        assert not (tmp_path / "f.frames").exists()

    def test_unusable_sidecar_descriptor_fails_before_writing(self, tmp_path, capsys):
        cap = str(tmp_path / "cap.iq")
        assert main(["stimulate", "--config", small_config(tmp_path), "--out", cap]) == 0
        meta = tmp_path / "cap.iq.meta"
        meta.write_text(meta.read_text().replace("sequence=fzc:n=64:u=7", "sequence=fzc:n=8:u=2"))
        assert main(["correlate", "--input", cap, "--out", str(tmp_path / "f")]) == 2
        assert capsys.readouterr().err.startswith(
            "error: capture sequence descriptor is unusable: root 2 is not coprime to length 8"
        )
        assert not (tmp_path / "f.frames").exists()

    @pytest.mark.parametrize("command", ["stimulate", "sound"])
    def test_infinite_sample_rate_fails_before_writing(self, tmp_path, capsys, command):
        out = str(tmp_path / "r")
        assert main([command, "--config", small_config(tmp_path), "--fs", "inf", "--out", out]) == 2
        # the flag is range-checked where it is set, before any sequence is made
        rule = "must be positive and finite with a finite reciprocal whose reciprocal is finite"
        assert f"--fs: sample_rate {rule}, got inf" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["camp.cfg"]

    def test_unpinned_correlate_adopts_the_capture_sample_rate(self, tmp_path):
        cap = str(tmp_path / "cap.iq")
        assert main(["stimulate", "--config", small_config(tmp_path), "--fs", "2e6", "--out", cap]) == 0
        out = str(tmp_path / "f")
        assert main(["correlate", "--input", cap, "--out", out]) == 0
        assert framestore.read_frames(out + ".frames")[1].t_s == 5e-7

    def test_sound_characterizes_before_it_writes(self, tmp_path, capsys):
        out = str(tmp_path / "bt")
        rc = main(["sound", "--config", small_config(tmp_path, "bc_threshold = 2\n"), "--out", out])
        assert rc == 2
        assert "threshold" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["camp.cfg"]

    def test_a_failed_frames_write_leaves_the_earlier_output_set(self, tmp_path, capsys, monkeypatch):
        out = str(tmp_path / "run")
        cfg = small_config(tmp_path)
        assert main(["sound", "--config", cfg, "--out", out]) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert {"run.frames", "run.report.txt", "run.pdp.csv", "run.psd.csv"} <= before.keys()

        def full(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(framestore, "write_frames", full)
        capsys.readouterr()
        assert main(["sound", "--config", cfg, "--length", "128", "--out", out]) == 2
        assert "No space left on device" in capsys.readouterr().err
        # the report and the tables are written after the frames, so none is replaced
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_sound_with_no_surviving_period_has_nothing_to_write(self, tmp_path, capsys):
        out = str(tmp_path / "one")
        assert main(["sound", "--config", small_config(tmp_path, "n_sequences = 1\n"), "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: kept 0 of 1 sequence periods (discard_first drops period 0")
        assert err.rstrip().endswith("nothing to write")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["camp.cfg"]

    def test_correlate_of_one_period_counts_what_it_kept(self, tmp_path, capsys):
        cap = str(tmp_path / "cap.iq")
        assert main(["stimulate", "--config", small_config(tmp_path, "n_sequences = 1\n"), "--out", cap]) == 0
        capsys.readouterr()
        assert main(["correlate", "--input", cap, "--out", str(tmp_path / "f")]) == 2
        assert "error: kept 0 of 1 sequence periods (discard_first drops" in capsys.readouterr().err
        assert not (tmp_path / "f.frames").exists()

    def test_capture_shorter_than_one_period_holds_none(self, tmp_path, capsys):
        cap = str(tmp_path / "cap.iq")
        assert main(["stimulate", "--config", small_config(tmp_path, "n_sequences = 1\n"), "--out", cap]) == 0
        capture, meta = framestore.read_capture(cap)
        framestore.write_capture(cap, IqFrame(capture.samples[:40], capture.fs, capture.f_c), meta)
        capsys.readouterr()
        assert main(["correlate", "--input", cap, "--out", str(tmp_path / "f")]) == 2
        err = capsys.readouterr().err
        assert "kept 0 of 0 sequence periods" in err and "shorter than one period holds none" in err
        assert not (tmp_path / "f.frames").exists()

    def test_sound_without_events_removes_a_stale_trigger_log(self, tmp_path):
        out = str(tmp_path / "s")
        cfg = small_config(tmp_path, "triggers = 300:overflow:buf\n")
        assert main(["sound", "--config", cfg, "--out", out]) == 0
        assert (tmp_path / "s.triggers").exists()
        assert main(["sound", "--config", small_config(tmp_path), "--out", out]) == 0
        assert not (tmp_path / "s.triggers").exists()


class TestCorrelateWritesAsItCorrelates:
    """``correlate`` writes its ``.frames`` batch by batch as it corrects the
    matrix; a failure in a later batch, after earlier batches went out,
    leaves the earlier output whole and no ``.part``."""

    @pytest.mark.parametrize("failure", ["non-finite record", "full disk"])
    @pytest.mark.parametrize("transport", ["--input", "--endpoint"])
    def test_a_failure_in_a_later_batch_leaves_the_earlier_frames(
        self, tmp_path, capsys, monkeypatch, transport, failure
    ):
        cfg, cap, out = small_config(tmp_path), str(tmp_path / "cap.iq"), str(tmp_path / "run")
        # the earlier output, of another sequence root, so a replaced file would differ
        assert main(["stimulate", "--config", cfg, "--root", "5", "--out", cap]) == 0
        assert main(["correlate", "--config", cfg, "--root", "5", "--input", cap, "--out", out]) == 0
        before = Path(out + ".frames").read_bytes()
        assert main(["stimulate", "--config", cfg, "--out", cap]) == 0

        # 11 records kept, in batches of at most three rows, each one write
        monkeypatch.setattr(sounder, "_BATCH_BYTES", 3 * 16 * 64)
        writes, real_writev = [], os.writev

        def writev(fd, buffers):
            if failure == "full disk" and len(writes) == 2:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            writes.append(len(buffers))
            return real_writev(fd, buffers)

        monkeypatch.setattr(os, "writev", writev)
        real_time = sounder.measurement_time
        if failure == "non-finite record":  # record 7 is sequence period 8
            monkeypatch.setattr(
                sounder, "measurement_time", lambda index, *args: np.where(index == 8, np.inf, real_time(index, *args))
            )
        capsys.readouterr()
        if transport == "--input":
            rc = main(["correlate", "--config", cfg, "--input", cap, "--out", out])
        else:
            with serving(lambda lsock: wire.serve_stimulation(load_config(cfg), lsock)) as (endpoint, summary):
                rc = main(["correlate", "--config", cfg, "--endpoint", endpoint, "--out", out])
            assert summary[0].complete
        assert rc == 2
        err = capsys.readouterr().err
        if failure == "full disk":
            assert os.strerror(errno.ENOSPC) in err
        else:
            assert err == f"error: {out}.frames: record 7 holds a non-finite value\n"
        # earlier batches went out before the failure
        assert len(writes) == 2 if failure == "full disk" else len(writes) >= 1
        assert Path(out + ".frames").read_bytes() == before
        assert not list(tmp_path.glob("*.part"))


class TestWireFlow:
    def test_two_process_link(self, tmp_path):
        # stimulation side in a thread, correlation side in the foreground
        cfg = small_config(tmp_path)
        out = str(tmp_path / "live")
        with serving(lambda lsock: wire.serve_stimulation(load_config(cfg), lsock)) as (endpoint, summary):
            rc = main(["correlate", "--config", cfg, "--endpoint", endpoint, "--out", out])
        assert rc == 0
        assert summary[0].complete

        offline = str(tmp_path / "off")
        main(["sound", "--config", cfg, "--out", offline])
        a, _ = framestore.read_frames(out + ".frames")
        b, _ = framestore.read_frames(offline + ".frames")
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.h, fb.h)

    @staticmethod
    def stimulate(monkeypatch, cfg):
        """A server that runs ``stimulate --config cfg --endpoint`` on the
        harness's listening socket."""
        real = wire.serve_stimulation

        def serve(lsock):
            monkeypatch.setattr(wire, "serve_stimulation", lambda config: real(config, lsock))
            return main(["stimulate", "--config", cfg, "--endpoint", "127.0.0.1:%d" % lsock.getsockname()[1]])

        return serve

    def test_stimulate_serves_the_whole_stream(self, tmp_path, capsys, monkeypatch):
        cfg = small_config(tmp_path, "triggers = 300:overflow:buf\ncorrupt_span = 8\n")
        with serving(self.stimulate(monkeypatch, cfg)) as (endpoint, rc):
            assert main(["correlate", "--config", cfg, "--endpoint", endpoint, "--out", str(tmp_path / "live")]) == 0
        assert rc == [0]
        out = capsys.readouterr().out
        assert f"served 768 samples in 1 chunks (1 triggers) on {endpoint}: complete\n" in out
        assert "kept 10 of 12" in out

    def test_stimulate_to_a_peer_that_hangs_up_exits_1(self, tmp_path, capsys, monkeypatch):
        cfg = small_config(tmp_path, "n_sequences = 50000\n")  # 25.6 MB on the wire
        with serving(self.stimulate(monkeypatch, cfg)) as (endpoint, rc):
            with wire.connect(endpoint, 10.0) as (_, hello):
                assert hello.sequence_descriptor == "fzc:n=64:u=7"
        assert rc == [1]
        served = r"served (\d+) samples in (\d+) chunks \(0 triggers\) on " + endpoint + ": interrupted"
        ((samples, chunks),) = re.findall(served, capsys.readouterr().out)
        assert int(samples) == 4096 * int(chunks) < 50_000 * 64


class TestCorrectionsCheckedBeforeCorrelating:
    """``sound``, and ``correlate`` from a file or the wire, check the
    profile length and the DC band against the stream's sequence and rate
    with one message, before any period is correlated."""

    @pytest.fixture(params=["dc band", "profile length"])
    def bad_config(self, request, tmp_path):
        if request.param == "dc band":
            return small_config(tmp_path, "dc_suppression_hz = 300000\n"), (
                "error: dc_suppression_hz = 300000.0 must lie below sample_rate / 4 = 250000.0\n"
            )
        prof = str(tmp_path / "short.csp")
        framestore.write_profile(prof, unit_profile(32))
        return small_config(tmp_path, f"calibration = {prof}\n"), (
            "error: profile length 32 does not match frame length 64\n"
        )

    def test_sound_and_correlate_give_one_message(self, tmp_path, capsys, pccf_calls, bad_config):
        cfg, message = bad_config
        assert main(["sound", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == message
        cap = str(tmp_path / "cap.iq")
        assert main(["stimulate", "--config", cfg, "--out", cap]) == 0
        capsys.readouterr()
        assert main(["correlate", "--config", cfg, "--input", cap, "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == message
        assert pccf_calls == []
        assert not list(tmp_path.glob("run*"))

    @staticmethod
    def correlate_over_the_wire(tmp_path, cfg, served):
        """Serve the campaign ``served``, lengthened past what the socket
        buffers hold, to ``correlate --config cfg --endpoint``; return the
        exit status and the stimulation summary."""
        served.n_sequences = 50_000  # 25.6 MB on the wire
        with serving(lambda lsock: wire.serve_stimulation(served, lsock)) as (endpoint, summary):
            rc = main(["correlate", "--config", cfg, "--endpoint", endpoint, "--out", str(tmp_path / "run")])
        return rc, summary[0]

    def test_correlate_over_the_wire_gives_the_same_message(
        self, tmp_path, capsys, pccf_calls, chunk_heads, bad_config
    ):
        cfg, message = bad_config
        rc, summary = self.correlate_over_the_wire(tmp_path, cfg, load_config(cfg))
        assert rc == 2
        assert not summary.complete  # the correlation side hung up after the HELLO
        assert capsys.readouterr().err == message
        assert pccf_calls == [] and chunk_heads == []
        assert not list(tmp_path.glob("run*"))

    def test_correlate_over_the_wire_checks_the_rate_at_hello(
        self, tmp_path, capsys, pccf_calls, chunk_heads
    ):
        served = load_config(small_config(tmp_path))
        cfg = small_config(tmp_path, "sample_rate = 2000000\n")
        rc, summary = self.correlate_over_the_wire(tmp_path, cfg, served)
        assert rc == 2
        assert not summary.complete
        assert capsys.readouterr().err == (
            "error: peer samples at 1000000.0 Hz but the configuration expects 2000000.0 Hz\n"
        )
        assert pccf_calls == [] and chunk_heads == []
        assert not list(tmp_path.glob("run*"))


class TestOneCorrelationCall:
    """Each command that correlates, whatever its transport, makes exactly
    one ``sounder.correlate`` call and one ``frames_from_capture`` call,
    so a second correlation path cannot come back unseen."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for name in ("correlate", "frames_from_capture"):
            real = getattr(sounder, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(sounder, name, counting)
        return calls

    @pytest.mark.parametrize("transport", ["sound", "correlate --input", "correlate --endpoint"])
    def test_one_call_each(self, tmp_path, capsys, calls, transport):
        cfg = small_config(tmp_path)
        out = ["--out", str(tmp_path / "run")]
        if transport == "sound":
            assert main(["sound", "--config", cfg] + out) == 0
        elif transport == "correlate --input":
            cap = str(tmp_path / "cap.iq")
            assert main(["stimulate", "--config", cfg, "--out", cap]) == 0
            assert main(["correlate", "--config", cfg, "--input", cap] + out) == 0
        else:
            with serving(lambda lsock: wire.serve_stimulation(load_config(cfg), lsock)) as (endpoint, _):
                assert main(["correlate", "--config", cfg, "--endpoint", endpoint] + out) == 0
        assert calls == ["correlate", "frames_from_capture"]


@pytest.mark.parametrize("family", ["mls", "fzc"])
def test_correlate_of_a_capture_makes_its_sequence_once(tmp_path, monkeypatch, family):
    # the capture's descriptor names the configured sequence, so the local one is used
    cfg = small_config(tmp_path, f"sequence.family = {family}\nsequence.register_length = 6\n")
    cap, out = str(tmp_path / "cap.iq"), str(tmp_path / "run")
    assert main(["stimulate", "--config", cfg, "--out", cap]) == 0
    # with no configuration the sequence is made from the capture's descriptor
    assert main(["correlate", "--input", cap, "--out", out + "-adopted"]) == 0
    made = []
    for name in ("generate_fzc", "generate_mls"):
        real = getattr(seqgen, name)

        def counting(*args, _name=name, _real=real):
            made.append(_name)
            return _real(*args)

        monkeypatch.setattr(seqgen, name, counting)
        monkeypatch.setattr(f"chansounder.config.{name}", counting)
    assert main(["correlate", "--config", cfg, "--input", cap, "--out", out]) == 0
    assert made == [f"generate_{family}"]
    assert Path(out + ".frames").read_bytes() == Path(out + "-adopted.frames").read_bytes()


class TestProfileBeforeCapture:
    """A missing or wrong-length calibration profile fails before any
    capture block is made, and before a capture is read or received."""

    @staticmethod
    def profile(tmp_path, kind):
        if kind == "missing":
            return str(tmp_path / "nope.csp"), "No such file"
        path = str(tmp_path / f"{kind}.csp")
        n_seq = 64 if kind == "good" else 32
        framestore.write_profile(path, unit_profile(n_seq))
        return path, "profile length 32 does not match frame length 64"

    @pytest.mark.parametrize("kind", ["missing", "short"])
    def test_sound_makes_no_block_and_writes_nothing(self, tmp_path, capsys, blocks, kind):
        prof, message = self.profile(tmp_path, kind)
        argv = ["sound", "--config", small_config(tmp_path), "--calibration", prof]
        assert main(argv + ["--out", str(tmp_path / "run")]) == 2
        assert message in capsys.readouterr().err
        assert blocks == [] and not list(tmp_path.glob("run*"))

    def test_sound_with_a_good_profile_makes_its_block(self, tmp_path, blocks):
        prof, _ = self.profile(tmp_path, "good")
        argv = ["sound", "--config", small_config(tmp_path), "--calibration", prof]
        assert main(argv + ["--out", str(tmp_path / "run")]) == 0
        assert blocks == [0]  # 12 periods of 64 samples in one 4096-sample block

    @pytest.mark.parametrize("kind", ["missing", "short"])
    def test_run_sounding_makes_no_block(self, tmp_path, blocks, kind):
        prof, message = self.profile(tmp_path, kind)
        cfg = load_config(small_config(tmp_path, f"calibration = {prof}\n"))
        with pytest.raises((OSError, ValueError), match=message):
            sounder.run_sounding(cfg)
        assert blocks == []

    def test_correlate_reads_no_capture(self, tmp_path, capsys, monkeypatch):
        cfg = small_config(tmp_path)
        cap = str(tmp_path / "cap.iq")
        assert main(["stimulate", "--config", cfg, "--out", cap]) == 0
        reads = []
        monkeypatch.setattr(framestore, "read_capture", lambda path: reads.append(path))
        prof, message = self.profile(tmp_path, "missing")
        argv = ["correlate", "--config", cfg, "--input", cap, "--calibration", prof]
        assert main(argv + ["--out", str(tmp_path / "run")]) == 2
        assert message in capsys.readouterr().err
        assert reads == [] and not list(tmp_path.glob("run*"))

    def test_correlate_and_consume_correlation_receive_nothing(self, tmp_path, capsys, monkeypatch):
        received = []
        monkeypatch.setattr(wire, "consume_stream", lambda *a, **kw: received.append(a))
        prof, message = self.profile(tmp_path, "missing")
        argv = ["correlate", "--config", small_config(tmp_path), "--calibration", prof]
        assert main(argv + ["--endpoint", "127.0.0.1:9", "--out", str(tmp_path / "run")]) == 2
        assert message in capsys.readouterr().err
        cfg = load_config(small_config(tmp_path, f"calibration = {prof}\n"))
        with pytest.raises(OSError):
            wire.consume_correlation("127.0.0.1:9", cfg)
        assert received == [] and not list(tmp_path.glob("run*"))


#: Out-of-range values, at least one for every range-checked config key.
OUT_OF_RANGE = [
    ("bc_threshold", "2"),
    ("bc_threshold", "0"),
    ("bc_threshold", "nan"),
    ("center_frequency", "0"),
    ("center_frequency", "-5"),
    ("center_frequency", "inf"),
    ("center_frequency", "nan"),
    ("corrupt_span", "0"),
    ("chunk_samples", "0"),
    ("chunk_samples", "-4096"),
    ("gain_cap_db", "inf"),
    ("gain_cap_db", "-1"),
    ("gain_cap_db", "nan"),
    ("gain_cap_db", "1e10"),  # its linear cap 10**(dB/20) is past float range
    ("max_distance_ref_m", "-1"),
    ("max_distance_ref_m", "0"),
    ("max_distance_ref_m", "inf"),
    ("max_distance_ref_m", "nan"),
    ("dc_suppression_hz", "-5"),
    ("dc_suppression_hz", "nan"),
    ("duration", "inf"),
    ("duration", "0"),
    ("duration", "-1"),
    ("duration", "nan"),
    ("timeout", "nan"),
    ("timeout", "-1"),
    ("timeout", "0"),
    ("timeout", "inf"),
    ("sample_rate", "-5"),
    ("sample_rate", "0"),
    ("sample_rate", "inf"),
    ("sample_rate", "nan"),
    ("channel.snr_db", "inf"),
    ("channel.snr_db", "-inf"),
    ("channel.snr_db", "nan"),
    ("channel.cfo_hz", "nan"),
    ("channel.cfo_hz", "inf"),
    ("channel.cfo_hz", "-inf"),
    ("n_sequences", "0"),
    ("n_sequences", "-3"),
    ("sequence.length", "1"),
    ("sequence.length", "-64"),
    ("sequence.root", "0"),
    ("sequence.root", "-7"),
    ("sequence.register_length", "1"),
    ("sequence.register_length", "25"),
    ("seed", "-1"),
    ("seed", str(2**128)),
]


class TestRangeChecksAtParseTime:
    """A key whose value is out of range fails where it is set, before
    any capture block is made or any file written."""

    @pytest.mark.parametrize("command", ["sound", "calibrate", "stimulate"])
    @pytest.mark.parametrize("key, value", OUT_OF_RANGE)
    def test_out_of_range_value_fails_at_its_line(self, tmp_path, capsys, blocks, command, key, value):
        cfg = small_config(tmp_path, f"{key} = {value}\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        assert f"camp.cfg:6: {key} must" in capsys.readouterr().err
        assert blocks == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["camp.cfg"]

    def test_the_table_walks_every_range_checked_key(self):
        assert {key for key, _ in OUT_OF_RANGE} == range_checked_keys()

    @pytest.mark.parametrize(
        "key, value",
        [("bc_threshold", "0.999"), ("corrupt_span", "1"), ("chunk_samples", "1"),
         ("gain_cap_db", "0"), ("dc_suppression_hz", "0"), ("duration", "1e-3"),
         ("duration", "none"), ("timeout", "1e-9"), ("center_frequency", "1"),
         ("max_distance_ref_m", "1e-9"), ("max_distance_ref_m", "none"), ("sample_rate", "1e-3"),
         ("channel.snr_db", "-300"), ("channel.snr_db", "none"), ("channel.cfo_hz", "-1e-300"),
         ("sequence.root", "1"), ("sequence.register_length", "2"), ("sequence.register_length", "24"),
         ("seed", "0"), ("seed", str(2**128 - 1))],
    )
    def test_edge_of_the_range_is_accepted(self, tmp_path, key, value):
        cfg = small_config(tmp_path, f"{key} = {value}\n")
        assert main(["sound", "--config", cfg, "--out", str(tmp_path / "run")]) == 0

    @pytest.mark.parametrize(
        "extra",
        # one period is kept only when the first is not discarded; two samples hold one tap;
        # the seed is used only with noise on
        [
            "n_sequences = 1\ndiscard_first = false\n",
            "sequence.length = 2\nchannel.taps = 0:1\n",
            f"seed = {2**128 - 1}\nchannel.snr_db = 20\n",
        ],
    )
    def test_edge_of_the_range_is_accepted_where_other_keys_allow_it(self, tmp_path, extra):
        cfg = small_config(tmp_path, extra)
        assert main(["sound", "--config", cfg, "--out", str(tmp_path / "run")]) == 0

    @pytest.mark.parametrize("command", ["sound", "calibrate"])
    @pytest.mark.parametrize("dc_hz", ["250000", "1e9"])
    def test_dc_band_at_or_above_a_quarter_of_the_rate_fails_before_a_block(
        self, tmp_path, capsys, blocks, command, dc_hz
    ):
        cfg = small_config(tmp_path, f"channel.taps = 0:1\ndc_suppression_hz = {dc_hz}\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "dc_suppression_hz" in err and "sample_rate / 4 = 250000.0" in err
        assert blocks == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["camp.cfg"]

    def test_dc_band_just_below_a_quarter_of_the_rate_runs(self, tmp_path):
        cfg = small_config(tmp_path, "dc_suppression_hz = 249999\n")
        assert main(["sound", "--config", cfg, "--out", str(tmp_path / "run")]) == 0


class TestErrorPaths:
    def test_missing_out_flag(self, tmp_path, capsys):
        assert main(["sound", "--config", small_config(tmp_path)]) == 2
        assert "--out" in capsys.readouterr().err

    def test_correlate_needs_input_or_endpoint(self, tmp_path, capsys):
        assert main(["correlate", "--out", str(tmp_path / "x")]) == 2
        assert "--input" in capsys.readouterr().err

    def test_missing_capture_file(self, tmp_path, capsys):
        rc = main(["correlate", "--input", str(tmp_path / "nope.iq"), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_config_reports_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense = 1\n")
        assert main(["sound", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
        assert "bad.cfg:1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("triggers = 5000:bogus:x", "unknown trigger kind 'bogus'"),
            ("channel.taps = -1:1", "tap delay must be a non-negative integer, got -1"),
        ],
    )
    def test_bad_trigger_or_tap_reports_location(self, tmp_path, capsys, line, message):
        cfg = small_config(tmp_path, line + "\n")
        assert main(["sound", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert f"{cfg}:6: {message}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["camp.cfg"]

    def test_calibrate_rejects_multipath(self, tmp_path, capsys):
        cfg = small_config(tmp_path)  # two taps
        rc = main(["calibrate", "--config", cfg, "--out", str(tmp_path / "p.csp")])
        assert rc == 2
        assert "through connection" in capsys.readouterr().err

    def test_calibrate_gain_cap_at_and_past_its_edge(self, tmp_path, capsys):
        config = "sequence.length = 64\nn_sequences = 4\nchannel.taps = 0:1\nchannel.cable =\n"
        (tmp_path / "cal.cfg").write_text(config + f"gain_cap_db = {MAX_GAIN_CAP_DB!r}\n")
        out = str(tmp_path / "p.csp")
        assert main(["calibrate", "--config", str(tmp_path / "cal.cfg"), "--out", out]) == 0
        assert read_profile(out).gain_cap_db == MAX_GAIN_CAP_DB
        past = math.nextafter(MAX_GAIN_CAP_DB, math.inf)
        for value in (past, 1e10):
            (tmp_path / "cal.cfg").write_text(config + f"gain_cap_db = {value!r}\n")
            capsys.readouterr()
            assert main(["calibrate", "--config", str(tmp_path / "cal.cfg"), "--out", str(tmp_path / "q.csp")]) == 2
            assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'cal.cfg'}:5: gain_cap_db must ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cal.cfg", "p.csp"]

    def test_stimulate_endpoint_with_a_note_too_long_for_its_field_exits_2(self, tmp_path, capsys):
        # 70,000 UTF-8 bytes do not fit the TRIGGER's 16-bit note length; the
        # send fails before it listens, so no peer is waited for
        cfg = small_config(tmp_path, f"triggers = 300:overflow:{'x' * 70_000}\ntimeout = 1\n")
        assert main(["stimulate", "--config", cfg, "--endpoint", "127.0.0.1:0"]) == 2
        err = capsys.readouterr().err
        assert err == "error: TRIGGER note length must fit its 16-bit field (0..65535), got 70000\n"

    def test_calibrate_rejects_profile_key(self, tmp_path, capsys):
        cfg = tmp_path / "cal.cfg"
        cfg.write_text(
            "sequence.length = 64\nn_sequences = 4\nchannel.taps = 0:1\n"
            "channel.cable =\ncalibration = some.csp\n"
        )
        rc = main(["calibrate", "--config", str(cfg), "--out", str(tmp_path / "p.csp")])
        assert rc == 2
        assert "drop the" in capsys.readouterr().err

    def test_fs_mismatch_against_capture(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        cap = str(tmp_path / "cap.iq")
        main(["stimulate", "--config", cfg, "--out", cap])
        rc = main(
            ["correlate", "--input", cap, "--out", str(tmp_path / "x"), "--fs", "2e6"]
        )
        assert rc == 2
        assert "2000000" in capsys.readouterr().err


    def test_characterize_rejects_zero_sample_period(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(["sound", "--config", small_config(tmp_path), "--out", out]) == 0
        blob = Path(out + ".frames").read_bytes()
        (header_len,) = struct.unpack_from("<I", blob, 4)
        header = blob[8 : 8 + header_len].replace(b"t_s=1e-06", b"t_s=0.000")
        with open(out + ".frames", "wb") as f:
            f.write(blob[:8] + header + blob[8 + header_len :])
        capsys.readouterr()
        assert main(["characterize", "--input", out + ".frames"]) == 2
        assert "t_s" in capsys.readouterr().err

    def test_a_rate_or_period_with_an_infinite_reciprocal_exits_2(self, tmp_path, capsys):
        # 5e-324 is positive and finite, but 1 / 5e-324 is inf
        rule = "must be positive and finite with a finite reciprocal whose reciprocal is finite, got 5e-324"
        cfg, out, cap = small_config(tmp_path), str(tmp_path / "run"), str(tmp_path / "cap.iq")
        assert main(["sound", "--config", cfg, "--fs", "5e-324", "--out", out]) == 2
        assert capsys.readouterr().err == f"error: --fs: sample_rate {rule}\n"

        assert main(["stimulate", "--config", cfg, "--out", cap]) == 0
        meta = tmp_path / "cap.iq.meta"
        meta.write_text(meta.read_text().replace("sample_rate=1000000.0", "sample_rate=5e-324"))
        capsys.readouterr()
        assert main(["correlate", "--input", cap, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {meta}: capture sidecar field sample_rate: {rule}\n"

        assert main(["sound", "--config", cfg, "--out", out]) == 0
        blob = Path(out + ".frames").read_bytes()
        (header_len,) = struct.unpack_from("<I", blob, 4)
        header = blob[8 : 8 + header_len].replace(b"t_s=1e-06", b"t_s=5e-324")
        with open(out + ".frames", "wb") as f:
            f.write(blob[:4] + struct.pack("<I", len(header)) + header + blob[8 + header_len :])
        capsys.readouterr()
        assert main(["characterize", "--input", out + ".frames"]) == 2
        assert capsys.readouterr().err == f"error: {out}.frames: frame-series header field t_s: {rule}\n"

    #: The rule of a sample rate and a sequence period, and the rate 6e-309,
    #: which passes it, while 64 samples of it, 64 * (1 / 6e-309), are inf.
    RATE_RULE = "must be positive and finite with a finite reciprocal whose reciprocal is finite"
    PERIOD_ERROR = f"error: sequence period {RATE_RULE}, got inf\n"

    @staticmethod
    def fresh(tmp_path):
        """An empty output directory and a base path in it."""
        (tmp_path / "fresh").mkdir()
        return tmp_path / "fresh", str(tmp_path / "fresh" / "run")

    @pytest.mark.parametrize("fs", ["6e-309", "1.7976931348623157e308"])
    def test_sound_at_a_rate_whose_period_is_unusable_exits_2(self, tmp_path, capsys, fs):
        # the greatest float fails at the flag: its period 2**-1024 has an infinite reciprocal
        fresh, out = self.fresh(tmp_path)
        assert main(["sound", "--fs", fs, "--length", "64", "--out", out]) == 2
        err = capsys.readouterr().err
        if fs == "6e-309":
            assert err == self.PERIOD_ERROR
        else:
            assert err == f"error: --fs: sample_rate {self.RATE_RULE}, got 1.7976931348623157e+308\n"
        assert not list(fresh.iterdir())

    def test_correlate_of_a_capture_whose_period_is_unusable_correlates_nothing(self, tmp_path, capsys, pccf_calls):
        cap = str(tmp_path / "cap.iq")
        assert main(["stimulate", "--config", small_config(tmp_path), "--out", cap]) == 0
        meta = tmp_path / "cap.iq.meta"
        meta.write_text(meta.read_text().replace("sample_rate=1000000.0", "sample_rate=6e-309"))
        fresh, out = self.fresh(tmp_path)
        capsys.readouterr()
        assert main(["correlate", "--input", cap, "--out", out]) == 2
        assert capsys.readouterr().err == self.PERIOD_ERROR
        assert pccf_calls == []
        assert not list(fresh.iterdir())

    @staticmethod
    def serve_tiny_rate(lsock):
        """Serve three 64-sample periods at 6e-309 samples/s."""
        return wire.serve_capture(IqFrame(np.ones(192), 6e-309), framestore.CaptureMeta("fzc:n=64:u=7"), lsock)

    def test_correlate_from_a_peer_whose_period_is_unusable_reads_no_chunk(self, tmp_path, capsys, chunk_heads):
        fresh, out = self.fresh(tmp_path)
        with serving(self.serve_tiny_rate) as (endpoint, _):
            assert main(["correlate", "--fs", "6e-309", "--endpoint", endpoint, "--out", out]) == 2
        assert capsys.readouterr().err == self.PERIOD_ERROR
        assert chunk_heads == []
        assert not list(fresh.iterdir())

    def test_library_correlation_at_a_rate_whose_period_is_unusable_raises(self, chunk_heads):
        message = f"^sequence period {self.RATE_RULE}, got inf$"
        with pytest.raises(ValueError, match=message):
            sounder.frames_from_capture(IqFrame(np.ones(192), 6e-309), generate_fzc(64, 1))
        config = CampaignConfig()
        config.set_key("sample_rate", "6e-309", "--fs")
        with serving(self.serve_tiny_rate) as (endpoint, _):
            with pytest.raises(ValueError, match=message):
                wire.consume_correlation(endpoint, config)
        assert chunk_heads == []

    def test_wire_total_counts_periods_of_the_adopted_sequence(self, tmp_path, capsys):
        # The local side names no sequence, so it adopts the peer's
        # 64-sample one instead of its 1024-sample default.
        served = load_config(small_config(tmp_path))
        out = str(tmp_path / "live")
        with serving(lambda lsock: wire.serve_stimulation(served, lsock)) as (endpoint, _):
            rc = main(["correlate", "--endpoint", endpoint, "--out", out])
        assert rc == 0
        assert "kept 11 of 12" in capsys.readouterr().out
        _, meta = framestore.read_frames(out + ".frames")
        assert meta.n_seq == 64 and meta.total_sequences == 12


class TestFlagOverrides:
    def test_seed_flag_changes_noise(self, tmp_path):
        cfg = small_config(tmp_path, "channel.snr_db = 10\n")
        out1, out2 = str(tmp_path / "s0"), str(tmp_path / "s1")
        main(["sound", "--config", cfg, "--out", out1, "--seed", "0"])
        main(["sound", "--config", cfg, "--out", out2, "--seed", "1"])
        a, _ = framestore.read_frames(out1 + ".frames")
        b, _ = framestore.read_frames(out2 + ".frames")
        assert not np.array_equal(a[0].h, b[0].h)

    def test_duration_flag(self, tmp_path):
        cfg = small_config(tmp_path)
        out = str(tmp_path / "d")
        # 64 samples at 1 MSps: 640 us covers 10 periods
        assert main(["sound", "--config", cfg, "--out", out, "--duration", "640e-6"]) == 0
        _, meta = framestore.read_frames(out + ".frames")
        assert meta.total_sequences == 10

    def test_mls_taps_flag(self, tmp_path):
        out = str(tmp_path / "m")
        rc = main(
            ["sound", "--out", out, "--taps", "5,3", "--duration", "0.00062",
             "--config", small_config(tmp_path)]
        )
        assert rc == 0
        _, meta = framestore.read_frames(out + ".frames")
        assert meta.n_seq == 31


#: One value per flag row, as given on the command line.
FLAG_VALUES = {
    "--seed": "5",
    "--out": "run",
    "--input": "cap.iq",
    "--endpoint": "127.0.0.1:7000",
    "--calibration": "prof.csp",
    "--duration": "0.5",
    "--fs": "2e6",
    "--sequence": "MLS",
    "--length": "64",
    "--root": "5",
    "--taps": "5,3",
}


def config_of(argv):
    return _config_from_args(_build_parser().parse_args(argv))


class TestFlagTable:
    def test_every_flag_has_a_value_here(self):
        assert set(FLAG_VALUES) == set(_FLAGS)

    @pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
    def test_flag_equals_config_line(self, tmp_path, flag):
        key, value = _FLAGS[flag][0], FLAG_VALUES[flag]
        text = f"{key} = {value}\n"
        if flag == "--taps":  # the one flag with an implication
            text += "sequence.family = mls\n"
        path = tmp_path / "c.cfg"
        path.write_text(text)
        from_file = load_config(str(path))
        if flag == "--taps":
            from_file.register_length = 5
        from_flag = config_of(["sound", flag, value])
        assert from_flag == from_file
        assert from_flag.explicit == from_file.explicit

    def test_string_flag_is_stripped_and_empty_means_unset(self):
        assert config_of(["sound", "--out", " run "]).out == "run"
        cfg = config_of(["sound", "--calibration", ""])
        assert cfg.calibration is None and "calibration" in cfg.explicit

    def test_empty_taps_flag_reports_the_empty_tap_set(self, tmp_path, capsys):
        assert main(["sound", "--taps", "", "--out", str(tmp_path / "x")]) == 2
        assert "tap set must not be empty" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--fs", "abc", "could not convert string to float: 'abc'"),
            ("--seed", "1.5", "invalid literal for int()"),
            ("--sequence", "gold", "fzc or mls"),
            ("--taps", "5,x", "invalid literal for int()"),
        ],
    )
    def test_bad_flag_value_exits_2_naming_the_flag(self, tmp_path, capsys, flag, value, message):
        rc = main(["sound", flag, value, "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {flag}: ")
        assert message in err


class TestParserReuse:
    """``main`` builds its parser once per process and reuses it."""

    @staticmethod
    def parsed(parser, argv):
        cfg = _config_from_args(parser.parse_args(argv))
        return cfg, cfg.explicit

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(sorted(_COMMANDS)),
                st.lists(st.sampled_from(sorted(FLAG_VALUES)), unique=True),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_reused_parser_gives_the_config_of_a_fresh_one(self, calls):
        # the argv lists run in sequence, so state carried between calls would show
        for command, flags in calls:
            argv = [command] + [part for flag in flags for part in (flag, FLAG_VALUES[flag])]
            assert self.parsed(_build_parser(), argv) == self.parsed(_build_parser.__wrapped__(), argv)

    def test_two_calls_build_one_parser_tree(self, tmp_path, monkeypatch, capsys):
        made = []
        real = argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            made.append(kwargs.get("prog"))
            real(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        _build_parser.cache_clear()
        for _ in range(2):
            assert main(["correlate", "--out", str(tmp_path / "x")]) == 2
        assert made[0] == "chansounder"
        assert len(made) == 1 + len(_COMMANDS)  # the root and one parser per subcommand

    def test_out_of_one_call_is_not_carried_to_the_next(self, tmp_path, capsys):
        cap, cfg = str(tmp_path / "cap.iq"), small_config(tmp_path)
        assert main(["stimulate", "--config", cfg, "--out", cap]) == 0
        assert main(["correlate", "--config", cfg, "--input", cap, "--out", str(tmp_path / "a")]) == 0
        capsys.readouterr()
        assert main(["correlate", "--config", cfg, "--input", cap]) == 2
        assert "this command needs --out" in capsys.readouterr().err
