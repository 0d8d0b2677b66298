"""Pipeline stage tests: stimulation, gating, correlation, normalization,
timestamps, profile correction, and the composed offline run."""

import math
import os
import tempfile
import threading
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chansounder import chansim, framestore, sounder
from chansounder.charmetrics import characterize
from chansounder.calib import through_calibrate
from chansounder.config import CampaignConfig
from chansounder.corrmath import fast_pccf
from chansounder.frames import FrameSeries, IqFrame, TriggerEvent
from chansounder.seqgen import generate_fzc, generate_mls
from chansounder.sounder import (
    CaptureStream,
    _correct_ftt_in_place,
    _dc_gap,
    _patch_dc,
    _remove_dc_bias_in_place,
    capture_stream,
    check_corrections,
    frames_from_capture,
    measurement_time,
    normalize,
    quantize_capture,
    run_sounding,
    sequence_gate,
    sound_campaign,
    stimulate_capture,
)

from check_memory import traced_peak
from conftest import on_cpus, random_complex, unit_profile

FS = 1e6


class TestStimulate:
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 40), n_reps=st.integers(1, 6), data=st.data())
    def test_any_span_is_the_tiled_sequence_bitwise(self, n, n_reps, data):
        seq = generate_fzc(n, 1)
        start = data.draw(st.integers(0, n * n_reps), label="start")
        stop = data.draw(st.integers(start, n * n_reps), label="stop")
        cap = stimulate_capture(seq, n_reps, FS, 0.0, start, stop)
        expected = np.tile(seq.samples, n_reps)[start:stop]
        assert cap.samples.dtype == expected.dtype
        assert cap.samples.tobytes() == expected.tobytes()
        assert cap.start_index == start

    def test_single_frame_capture(self):
        seq = generate_fzc(8, 3)
        cap = stimulate_capture(seq, 4, FS, f_c=5.8e9)
        assert len(cap) == 32
        assert cap.f_c == 5.8e9
        assert cap.start_index == 0

    def test_capture_repeats_the_sequence(self):
        seq = generate_fzc(16, 3)
        cap = stimulate_capture(seq, 5, FS)
        assert np.array_equal(cap.samples, np.tile(seq.samples, 5))
        with pytest.raises(ValueError, match="n_reps must be at least 1, got 0"):
            stimulate_capture(seq, 0, FS)

    def test_range_is_a_slice_of_the_whole_stream(self):
        seq = generate_fzc(16, 3)
        whole = np.tile(seq.samples, 5)
        for start, stop in [(0, 0), (0, 80), (5, 6), (13, 19), (16, 48), (30, 79), (79, 80)]:
            cap = stimulate_capture(seq, 5, FS, 1.0, start, stop)
            assert np.array_equal(cap.samples, whole[start:stop])
            assert cap.start_index == start and cap.f_c == 1.0
        with pytest.raises(ValueError, match="outside"):
            stimulate_capture(seq, 5, FS, 0.0, 70, 81)


class TestQuantize:
    @pytest.mark.parametrize("bad", [1e40, float("nan"), 1j * float("inf")])
    def test_rejects_non_finite_float32(self, bad):
        x = np.array([1.0 + 0j, bad, 0.5j])
        with pytest.raises(ValueError, match="not finite"):
            quantize_capture(IqFrame(x, FS))

    def test_names_the_absolute_index_of_the_first_bad_sample(self):
        # a block that starts at sample 1000, as a capture stream's later blocks do
        x = np.ones(8, dtype=complex)
        x[[3, 5]] = 1e40, np.nan  # 1e40 is finite in float64 only
        message = "^capture samples are not finite in 32-bit float precision at absolute index 1003$"
        with pytest.raises(ValueError, match=message):
            quantize_capture(IqFrame(x, FS, start_index=1000))

    def test_idempotent(self, rng):
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        once = quantize_capture(IqFrame(x, FS)).samples
        twice = quantize_capture(IqFrame(once, FS)).samples
        assert np.array_equal(once, twice)

    def test_rounds_to_float32(self):
        x = np.array([1 + 1e-12 + 0j])
        q = quantize_capture(IqFrame(x, FS)).samples
        assert q.dtype == np.complex64 and q[0] == np.complex64(x[0])


class TestGate:
    def make_stream(self, n_seq=8, n_reps=10):
        seq = generate_fzc(n_seq, 3)
        return seq, stimulate_capture(seq, n_reps, FS)

    def test_no_events_keeps_all(self):
        seq, cap = self.make_stream()
        runs, kept = sequence_gate(cap, [], seq.n_seq)
        assert kept == list(range(10))
        assert runs.tolist() == [[0, 10]]

    def test_event_drops_containing_sequence(self):
        seq, cap = self.make_stream()
        ev = TriggerEvent(4 * 8 + 3, "overflow", span=1)
        _, kept = sequence_gate(cap, [ev], 8)
        assert kept == [0, 1, 2, 3, 5, 6, 7, 8, 9]

    def test_event_at_stream_start(self):
        seq, cap = self.make_stream()
        _, kept = sequence_gate(cap, [TriggerEvent(0, "overflow", span=1)], 8)
        assert kept == list(range(1, 10))

    def test_span_over_boundary_drops_both(self):
        seq, cap = self.make_stream()
        # span [38, 42) touches sequences 4 (32..39) and 5 (40..47)
        ev = TriggerEvent(38, "overflow", span=4)
        _, kept = sequence_gate(cap, [ev], 8)
        assert 4 not in kept and 5 not in kept
        assert kept == [0, 1, 2, 3, 6, 7, 8, 9]

    def test_partial_tail_dropped(self):
        seq = generate_fzc(8, 3)
        samples = np.tile(seq.samples, 10)
        cap = IqFrame(np.concatenate([samples, seq.samples[:5]]), FS)
        blocks, kept = sequence_gate(cap, [], 8)
        assert kept == list(range(10))

    def test_kept_indices_strictly_monotone_random_events(self, rng):
        seq, cap = self.make_stream(n_seq=8, n_reps=32)
        for _ in range(50):
            n_ev = int(rng.integers(0, 4))
            positions = sorted(rng.choice(256, size=n_ev, replace=False).tolist())
            evs = [TriggerEvent(int(p), "overflow", span=int(rng.integers(1, 12))) for p in positions]
            _, kept = sequence_gate(cap, evs, 8)
            assert all(b > a for a, b in zip(kept, kept[1:]))
            tainted = set()
            for ev in evs:
                tainted.update(range(ev.sample_index // 8, (ev.sample_index + ev.span - 1) // 8 + 1))
            assert set(kept) == set(range(32)) - tainted

    def test_validation(self):
        seq, cap = self.make_stream()
        with pytest.raises(ValueError):
            sequence_gate(cap, [], 0)


class TestCorrelateNormalize:
    def test_identity_channel_fzc_is_delta(self):
        seq = generate_fzc(64, 7)
        h = normalize(fast_pccf(seq.samples, seq.samples), seq.n_seq)
        assert abs(h[0] - 1.0) < 1e-12
        assert np.max(np.abs(h[1:])) < 1e-12

    def test_identity_channel_mls_bias_floor(self):
        seq = generate_mls(10)
        n = seq.n_seq
        h = normalize(fast_pccf(seq.samples, seq.samples), n)
        assert abs(h[0] - 1.0) < 1e-12
        assert np.allclose(h[1:], -1.0 / n, atol=1e-12)

    def test_delayed_scaled_block(self):
        seq = generate_fzc(32, 5)
        block = 0.5j * np.roll(seq.samples, 3)
        h = normalize(fast_pccf(block, seq.samples), 32)
        assert abs(h[3] - 0.5j) < 1e-12
        assert np.max(np.abs(np.delete(h, 3))) < 1e-12

    def test_normalize_validation(self):
        with pytest.raises(ValueError):
            normalize(np.ones(4), 0)


class TestMeasurementTime:
    def test_law(self):
        t_seq = 1024 / FS
        t_s = 1 / FS
        assert measurement_time(0, t_seq, t_s) == t_seq - t_s
        assert measurement_time(4, t_seq, t_s) == 5 * t_seq - t_s

    def test_pipeline_stamps(self):
        seq = generate_fzc(16, 3)
        cap = stimulate_capture(seq, 4, FS)
        frames = frames_from_capture(cap, seq, discard_first=False)
        t_seq = 16 / FS
        t_s = 1 / FS
        assert [f.sequence_index for f in frames] == [0, 1, 2, 3]
        for f in frames:
            assert f.t_i == (f.sequence_index + 1) * t_seq - t_s


class TestCorrectFtt:
    def test_identity_profile_passthrough(self, rng):
        h = random_complex(rng, (2, 16))
        out = h.copy()
        _correct_ftt_in_place(out, unit_profile(16).spectrum())
        assert np.allclose(out, h, atol=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="profile length 9 does not match frame length 8"):
            check_corrections(unit_profile(9), 8, FS, 0.0, "before")

    def test_removes_known_cable(self, rng):
        # through response measured, inverted, then applied to a sounding
        # of the same cable: the corrected frame is the bare channel.
        seq = generate_fzc(64, 7)
        cable = np.array([1.0, 0.2 - 0.1j, 0.05j])
        model = chansim.ChannelModel(taps=[chansim.ChannelTap(0, 1.0)], cable=cable)
        cap = chansim.apply_channel(stimulate_capture(seq, 3, FS), model)
        through = frames_from_capture(cap, seq)
        profile = through_calibrate(through)

        tap_model = chansim.ChannelModel(
            taps=[chansim.ChannelTap(0, 1.0), chansim.ChannelTap(5, -0.4j)], cable=cable
        )
        cap2 = chansim.apply_channel(stimulate_capture(seq, 3, FS), tap_model)
        frames = frames_from_capture(cap2, seq, profile=profile)
        h = frames[0].h
        assert abs(h[0] - 1.0) < 1e-9
        assert abs(h[5] + 0.4j) < 1e-9
        assert np.max(np.abs(np.delete(h, [0, 5]))) < 1e-9



def patched(spec, bw, fs):
    """The spectra ``spec`` with their DC band patched, in a copy."""
    out = np.array(spec, dtype=complex)
    _patch_dc(out, bw, fs)
    return out


class TestRemoveDcBias:
    def test_bin_count_rule(self):
        # full-scale numbers: 781 kHz at 100 MSps over 1024 bins -> 8 bins
        assert len(_dc_gap(781e3, 100e6, 1024)[0]) == 8
        # never fewer than one bin
        assert len(_dc_gap(1.0, 100e6, 1024)[0]) == 1

    def test_dc_line_removed_from_delta(self):
        n = 128
        fs = 1e6
        delta = np.where(np.arange(n) == 0, 1.0, 0.0)
        h = (delta + 0.1)[None].astype(complex)  # additive DC offset
        _remove_dc_bias_in_place(h, 7810.0, fs)
        residual_dc = abs(np.mean(h[0] - delta))
        assert residual_dc <= 0.1 * 10 ** (-40 / 20)

    def test_out_of_band_bins_untouched(self, rng):
        n = 64
        fs = 1e6
        spec = random_complex(rng, n)
        out = patched(spec, 50e3, fs)
        n_b = len(_dc_gap(50e3, fs, n)[0])
        shifted_in = np.fft.fftshift(spec)
        shifted_out = np.fft.fftshift(out)
        g0 = n // 2 - n_b // 2
        outside = np.r_[0:g0, g0 + n_b : n]
        assert np.array_equal(shifted_out[outside], shifted_in[outside])

    def test_gap_is_linear_interpolation(self, rng):
        n = 32
        fs = 1e6
        spec = random_complex(rng, n)
        bw = 4 * fs / n  # 4 bins
        out = np.fft.fftshift(patched(spec, bw, fs))
        g0 = n // 2 - 2
        left, right = out[g0 - 1], out[g0 + 4]
        for j in range(4):
            w = (j + 1) / 5
            want = (1 - w) * left + w * right
            assert out[g0 + j] == pytest.approx(want, abs=1e-12)

    def test_idempotent(self, rng):
        n = 64
        fs = 1e6
        spec = random_complex(rng, n)
        once = patched(spec, 30e3, fs)
        twice = patched(once, 30e3, fs)
        assert np.allclose(once, twice, atol=1e-15)


class TestCheckCorrections:
    """Every correction setting is checked in one place,
    :func:`check_corrections`, before the first capture block."""

    def test_bandwidth_bound(self):
        with pytest.raises(ValueError, match=r"must lie below sample_rate / 4 = 250000.0"):
            check_corrections(None, 16, 1e6, 2.6e5, "before")

    def test_a_band_with_no_anchor_bin_is_rejected(self):
        with pytest.raises(ValueError, match="covers 1 of 2 bins and leaves no anchor bins"):
            check_corrections(None, 2, 1e6, 1000.0, "after")
        check_corrections(None, 3, 1e6, 1000.0, "after")

    def test_no_anchor_fails_before_a_block_is_drawn(self, monkeypatch):
        drawn = []
        real = CaptureStream.__iter__

        def counting(stream):
            for block in real(stream):
                drawn.append(block.start_index)
                yield block

        monkeypatch.setattr(CaptureStream, "__iter__", counting)
        cfg = CampaignConfig(
            length=2, root=1, n_sequences=5000, channel_taps=[(0, 1, 0.0)], cable=None,
            chunk_samples=1000, dc_suppression_hz=1000.0,
        )
        with pytest.raises(ValueError, match="leaves no anchor bins"):
            sound_campaign(cfg)
        assert drawn == []
        cfg.dc_suppression_hz = 0.0
        assert sound_campaign(cfg)[1] == 5000 and len(drawn) == 10

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_raises_exactly_when_frames_from_capture_does(self, data):
        n_seq = data.draw(st.integers(2, 40), label="n_seq")
        fs = data.draw(st.sampled_from([1.0, 1e3, 1e6, 3.3e7]), label="fs")
        band = data.draw(
            st.one_of(
                st.sampled_from([0.0, -1.0, math.nan, math.inf, fs / 4, fs / n_seq]),
                st.floats(0.0, fs / 2),
            ),
            label="dc_suppression_hz",
        )
        position = data.draw(st.sampled_from(["before", "after", "middle"]), label="dc_position")
        length = data.draw(st.none() | st.integers(max(1, n_seq - 2), n_seq + 2), label="profile length")
        profile = None if length is None else unit_profile(length)
        seq = generate_fzc(n_seq, 1)
        capture = stimulate_capture(seq, 3, fs)

        def error(call):
            try:
                call()
            except ValueError as exc:
                return str(exc)
            return None

        want = error(lambda: check_corrections(profile, n_seq, fs, band, position))
        got = error(
            lambda: frames_from_capture(capture, seq, profile=profile, dc_suppression_hz=band, dc_position=position)
        )
        assert got == want

class TestFramesFromCapture:
    def test_discard_first_default(self):
        seq = generate_fzc(16, 3)
        cap = stimulate_capture(seq, 5, FS)
        frames = frames_from_capture(cap, seq)
        assert [f.sequence_index for f in frames] == [1, 2, 3, 4]

    def test_multipath_first_frame_differs_then_settles(self):
        # Period 0 sees the channel ring up from silence; once discarded,
        # every remaining frame is the steady-state response.
        seq = generate_fzc(32, 5)
        model = chansim.ChannelModel(
            taps=[chansim.ChannelTap(0, 1.0), chansim.ChannelTap(7, 0.5)]
        )
        cap = chansim.apply_channel(stimulate_capture(seq, 4, FS), model)
        frames = frames_from_capture(cap, seq, discard_first=False)
        h0, h1, h2 = frames[0].h, frames[1].h, frames[2].h
        assert not np.allclose(h0, h1, atol=1e-12)
        assert np.allclose(h1, h2, atol=1e-12)
        assert abs(h1[0] - 1.0) < 1e-10 and abs(h1[7] - 0.5) < 1e-10

    def test_dc_position_flag_validated(self):
        seq = generate_fzc(16, 3)
        cap = stimulate_capture(seq, 2, FS)
        with pytest.raises(ValueError, match="dc_position"):
            frames_from_capture(cap, seq, dc_suppression_hz=100.0, dc_position="middle")

    @pytest.mark.parametrize("dc_hz", [-5.0, float("nan")])
    def test_negative_or_nan_dc_suppression_rejected(self, dc_hz):
        # neither may silently turn DC removal off, as 0 does
        seq = generate_fzc(16, 3)
        cap = stimulate_capture(seq, 3, FS)
        with pytest.raises(ValueError, match="dc_suppression_hz must be non-negative"):
            frames_from_capture(cap, seq, dc_suppression_hz=dc_hz)


class TestRunSounding:
    def test_reference_campaign_recovers_taps(self):
        cfg = CampaignConfig()
        cfg.n_sequences = 30
        cfg.cable = None
        frames = run_sounding(cfg)
        assert len(frames) == 29
        h = frames[0].h
        for delay, gain, _ in cfg.channel_taps:
            assert abs(h[delay] - gain) < 1e-6
        assert not frames[0].corrected

    def test_noise_seed_reproducible(self):
        cfg = CampaignConfig()
        cfg.n_sequences = 6
        cfg.snr_db = 20.0
        a = run_sounding(cfg)
        b = run_sounding(cfg)
        assert all(np.array_equal(x.h, y.h) for x, y in zip(a, b))

    def test_triggers_gate_sequences(self):
        cfg = CampaignConfig()
        cfg.n_sequences = 10
        cfg.triggers = [(4 * 1024 + 100, "overflow", "")]
        cfg.corrupt_span = 64
        frames = run_sounding(cfg)
        assert 4 not in [f.sequence_index for f in frames]
        assert [f.sequence_index for f in frames] == [1, 2, 3, 5, 6, 7, 8, 9]


class TestCampaignLimits:
    def small(self, **fields):
        cfg = CampaignConfig(length=64, root=7, n_sequences=4, cable=None)
        for name, value in fields.items():
            setattr(cfg, name, value)
        return cfg

    def test_delay_must_stay_below_the_period(self):
        cfg = self.small(channel_taps=[(0, 1, 0.0), (64, 0.5, 0.0)])
        with pytest.raises(ValueError, match="wraps around"):
            run_sounding(cfg)
        # the cable counts: delay 62 plus a 3-tap cable reaches back 64
        cfg = self.small(channel_taps=[(62, 1, 0.0)], cable=[1, 0, 0.25])
        with pytest.raises(ValueError, match="wraps around"):
            run_sounding(cfg)
        cfg = self.small(channel_taps=[(61, 1, 0.0)], cable=[1, 0, 0.25])
        assert len(run_sounding(cfg)) == 3

    def test_doppler_must_stay_below_half_the_period_rate(self):
        # 1 MSps over 64 samples: |Doppler| must stay below 7812.5 Hz
        for f in (7812.5, -7812.5, 9000.0):
            cfg = self.small(channel_taps=[(0, 1, 0.0), (3, 0.5, f)])
            with pytest.raises(ValueError, match="aliases"):
                run_sounding(cfg)
        cfg = self.small(channel_taps=[(0, 1, 0.0), (3, 0.5, -7812.0)])
        assert len(run_sounding(cfg)) == 3

    def test_the_doppler_limit_is_the_one_the_report_prints(self):
        # MLS-127 at the paper's 100 MS/s, where 127 / fs and 127 * (1 / fs)
        # differ in the last bit: the report's doppler_max_hz is no valid tap
        cfg = self.small(family="mls", register_length=7, sample_rate=1e8)
        limit = characterize(run_sounding(cfg), cfg.sample_rate).doppler.max_hz
        assert limit == 393700.7874015748
        cfg.channel_taps = [(0, 1, 0.0), (3, 0.5, limit)]
        with pytest.raises(ValueError, match=f"resolves \\|Doppler\\| < {limit} Hz$"):
            capture_stream(cfg)
        cfg.channel_taps = [(0, 1, 0.0), (3, 0.5, -math.nextafter(limit, 0))]
        assert len(capture_stream(cfg).seq.samples) == 127

    def test_nan_doppler_is_rejected(self):
        cfg = self.small(channel_taps=[(0, 1, 0.0), (3, 0.5, float("nan"))])
        with pytest.raises(ValueError, match="Doppler shift nan Hz aliases"):
            run_sounding(cfg)

    def test_nan_cfo_is_rejected(self):
        with pytest.raises(ValueError, match="CFO nan Hz is not representable"):
            run_sounding(self.small(cfo_hz=float("nan")))

    def test_sample_rate_is_checked_before_the_doppler_limit(self):
        with pytest.raises(ValueError, match="sample rate must be positive"):
            run_sounding(self.small(sample_rate=-5.0))

    def test_overflowing_gain_is_rejected(self):
        cfg = self.small(channel_taps=[(0, 1e40, 0.0)])
        with pytest.raises(ValueError, match="not finite"):
            run_sounding(cfg)


class TestBatchedEqualsPerFrame:
    """frames_from_capture runs each stage once over the block matrix of
    kept periods; row by row it must give exactly the bits of the
    per-period composition over the complex128 widening of each period,
    whether the capture is complex64, the format of every transport, or
    already widened."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_bitwise_equal_to_per_frame_composition(self, data):
        n_seq = data.draw(st.sampled_from([16, 31, 64]), label="n_seq")
        start = data.draw(st.integers(0, 2 * n_seq), label="start_index")
        length = data.draw(st.integers(0, 8 * n_seq), label="samples")
        events = [
            TriggerEvent(start + p, "overflow", span)
            for p, span in data.draw(
                st.lists(
                    st.tuples(st.integers(0, max(length - 1, 0)), st.integers(1, 2 * n_seq)),
                    max_size=4 if length else 0,
                ),
                label="triggers",
            )
        ]
        discard_first = data.draw(st.booleans(), label="discard_first")
        dc_hz = data.draw(st.sampled_from([0.0, 3 * FS / n_seq]), label="dc_suppression_hz")
        dc_position = data.draw(st.sampled_from(["before", "after"]), label="dc_position")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        profile = (
            through_calibrate(FrameSeries(random_complex(rng, (1, n_seq)), [0], [0.0]))
            if data.draw(st.booleans(), label="profile")
            else None
        )
        seq = generate_fzc(n_seq, 3)
        samples = random_complex(rng, length).astype(np.complex64)
        dtype = data.draw(st.sampled_from([np.complex64, np.complex128]), label="capture dtype")
        capture = IqFrame(samples.astype(dtype), FS, 0.0, start)

        got = frames_from_capture(
            capture,
            seq,
            events=events,
            profile=profile,
            discard_first=discard_first,
            dc_suppression_hz=dc_hz,
            dc_position=dc_position,
        )

        tainted = {
            k
            for ev in events
            for k in range(ev.sample_index // n_seq, (ev.sample_index + ev.span - 1) // n_seq + 1)
        }
        first, last = -(-start // n_seq), (start + length) // n_seq
        kept = [
            k
            for k in range(first, last)
            if k not in tainted and not (discard_first and k == 0)
        ]
        assert [fr.sequence_index for fr in got] == kept
        assert got.h.shape == (len(kept), n_seq)
        for k, fr in zip(kept, got):
            block = samples[k * n_seq - start : (k + 1) * n_seq - start].astype(np.complex128)
            # the same stages, in the same order, over this period alone
            want = normalize(fast_pccf(block, seq.samples), n_seq)[None]
            if dc_hz and dc_position == "before":
                _remove_dc_bias_in_place(want, dc_hz, FS)
            if profile is not None:
                _correct_ftt_in_place(want, profile.spectrum())
            if dc_hz and dc_position == "after":
                _remove_dc_bias_in_place(want, dc_hz, FS)
            assert np.array_equal(fr.h.view(np.uint64), want[0].view(np.uint64))
            assert fr.t_i == measurement_time(k, n_seq / FS, 1 / FS)
            assert fr.corrected == (profile is not None)


class TestSlicesGiveTheSameBits:
    """frames_from_capture runs its matrix stages on one slice of rows per
    usable CPU; the series must not depend on how many there are."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_same_series_on_one_two_and_three_cpus(self, data):
        n_seq = data.draw(st.sampled_from([15, 16, 31, 64]), label="n_seq")
        n_frames = data.draw(st.integers(0, 9), label="frames")
        dc_hz = data.draw(st.sampled_from([0.0, 3 * FS / n_seq]), label="dc_suppression_hz")
        dc_position = data.draw(st.sampled_from(["before", "after"]), label="dc_position")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        profile = (
            through_calibrate(FrameSeries(random_complex(rng, (1, n_seq)), [0], [0.0]))
            if data.draw(st.booleans(), label="profile")
            else None
        )
        seq = generate_fzc(n_seq, 1)
        capture = IqFrame(random_complex(rng, n_frames * n_seq).astype(np.complex64), FS)

        series = []
        for count in (1, 2, 3):
            with on_cpus(count):
                series.append(
                    frames_from_capture(
                        capture,
                        seq,
                        profile=profile,
                        discard_first=False,
                        dc_suppression_hz=dc_hz,
                        dc_position=dc_position,
                    )
                )

        assert len(series[0]) == n_frames
        for other in series[1:]:
            for name in ("h", "sequence_index", "t_i", "corrected"):
                assert getattr(other, name).tobytes() == getattr(series[0], name).tobytes()


    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_frames_written_while_correlating_are_write_frames_of_the_series(self, data):
        # batches of ``rows`` rows: F = 1, a batch boundary +- 1 and several
        # batches, each written as it is corrected, on 1, 2 and 3 CPUs
        n_seq = data.draw(st.sampled_from([15, 16, 31]), label="n_seq")
        rows = data.draw(st.integers(1, 4), label="rows per batch")
        n_frames = data.draw(st.sampled_from([1, rows - 1, rows, rows + 1, 3 * rows + 2]).filter(bool), label="frames")
        discard_first = data.draw(st.booleans(), label="discard_first")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        profile = through_calibrate(FrameSeries(random_complex(rng, (1, n_seq)), [0], [0.0]))
        seq = generate_fzc(n_seq, 1)
        n_periods = n_frames + discard_first
        capture = IqFrame(random_complex(rng, n_periods * n_seq + 3).astype(np.complex64), FS)

        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            patch.setattr(sounder, "_BATCH_BYTES", rows * 16 * n_seq)
            opened, batches = [], []

            @contextmanager
            def writer(n_records, n, total):
                opened.append((n_records, n, total))
                path = os.path.join(tmp, "live.frames")
                with framestore.writing_frames(path, n_records, n, 1 / FS, "p", total) as write:
                    yield lambda frames: batches.append(len(frames)) or write(frames)

            for count in (1, 2, 3):
                batches.clear()
                with on_cpus(count):
                    series = frames_from_capture(
                        capture, seq, profile=profile, discard_first=discard_first, writer=writer
                    )
                framestore.write_frames(os.path.join(tmp, "whole.frames"), series, 1 / FS, "p", n_periods)
                live, whole = (Path(tmp, name).read_bytes() for name in ("live.frames", "whole.frames"))
                assert len(series) == n_frames
                assert live == whole
                # one write per batch, of ``rows`` rows at most, in whole rounds of one per CPU
                k, needed = min(count, n_frames), -(-n_frames // rows)
                assert sum(batches) == n_frames and max(batches) <= rows
                assert len(batches) == max(k, min(n_frames, -(-needed // k) * k))
            assert opened == [(n_frames, n_seq, n_periods)] * 3


class TestInputsUntouched:
    """The correlator and the whole pipeline leave the bytes of every
    array they are given as they were: only the pipeline's own frame
    matrix is written in place."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_stages_leave_their_inputs(self, data):
        n_seq = data.draw(st.sampled_from([16, 31]), label="n_seq")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        rows, ref = random_complex(rng, (3, n_seq)), random_complex(rng, n_seq)
        inputs = [rows, ref]
        before = [x.tobytes() for x in inputs]

        fast_pccf(rows, ref)

        assert [x.tobytes() for x in inputs] == before

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_frames_from_capture_leaves_the_capture(self, data):
        n_seq = 31
        seq = generate_mls(5)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        dtype = data.draw(st.sampled_from([np.complex64, np.complex128]), label="capture dtype")
        capture = IqFrame(random_complex(rng, 8 * n_seq).astype(dtype), FS)
        # none, a leading run, or periods in the middle dropped
        events = data.draw(
            st.sampled_from([[], [TriggerEvent(n_seq)], [TriggerEvent(2 * n_seq, span=n_seq + 1)]]),
            label="triggers",
        )
        discard_first = data.draw(st.booleans(), label="discard_first")
        profile = through_calibrate(FrameSeries(random_complex(rng, (1, n_seq)), [0], [0.0]))
        inputs = [capture.samples, seq.samples, profile.h_ftt]
        before = [x.tobytes() for x in inputs]

        got = frames_from_capture(
            capture,
            seq,
            events=events,
            profile=profile,
            discard_first=discard_first,
            dc_suppression_hz=3 * FS / n_seq,
        )

        assert [x.tobytes() for x in inputs] == before
        assert len(got) and not np.shares_memory(got.h, capture.samples)


class TestCorrelationMemory:
    def test_one_frame_matrix_above_the_capture(self):
        self.check_one_frame_matrix_above_the_capture()

    def test_more_cpus_than_slices_hold_the_same_bound(self):
        # the slice count stops at frames.MAX_SLICES, each slice with its
        # own iteration buffer; more CPUs start no more slices
        with on_cpus(8):
            self.check_one_frame_matrix_above_the_capture()

    @staticmethod
    def check_one_frame_matrix_above_the_capture():
        # gated_split's shape: MLS-127, overflow triggers that drop periods
        # in the middle of the stream, a profile and DC removal.  The kept
        # periods are widened straight into the one complex128 matrix and
        # every stage works in place on it.  Four times
        # gated_split's 1000 periods, so that numpy's fixed 128 KiB buffer
        # of a broadcasting multiply, one per slice and at most three,
        # stays under the 1 B/sample.
        seq = generate_mls(7)
        n = seq.n_seq
        capture = quantize_capture(stimulate_capture(seq, 4000, FS))
        events = [TriggerEvent(p * n + 60, "overflow", 128) for p in range(5, 4000, 97)]
        profile = through_calibrate(FrameSeries(np.eye(1, n), [0], [0.0]))

        def run():
            return frames_from_capture(capture, seq, events, profile, dc_suppression_hz=20_000.0)

        run()  # first-use allocations (FFT plans) outside the trace
        frames, peak = traced_peak(run)
        assert len(frames) == 4000 - 1 - 2 * len(events)
        matrix = frames.h.nbytes
        assert peak <= matrix + len(capture), f"{(peak - matrix) / len(capture):.2f} B/sample above the matrix"


def whole_stream_capture(cfg):
    """The reference capture: the channel over the whole stimulation
    stream in one pass, then the trigger damage and quantization."""
    seq = cfg.make_sequence()
    x = stimulate_capture(seq, cfg.num_sequences(), cfg.sample_rate, cfg.center_frequency)
    y = chansim.apply_channel(x, cfg.channel_model())
    events = cfg.trigger_events()
    if events:
        y, events = chansim.inject_disruption(y, events, cfg.corrupt_span)
    return quantize_capture(y), events


def draw_campaign(data, static=False, min_reps=1):
    """A small random campaign: FZC or MLS, taps (static only, if asked),
    an optional cable, CFO, noise and non-overlapping triggers."""
    family, n_seq = data.draw(
        st.sampled_from([("fzc", 16), ("mls", 31), ("fzc", 64)]), label="sequence"
    )
    n_reps = data.draw(st.integers(min_reps, 5), label="n_reps")
    total = n_seq * n_reps
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    cable = None
    if data.draw(st.booleans(), label="cable"):
        cable = list(random_complex(rng, data.draw(st.integers(1, 4), label="cable taps")))
    cable_delay = len(cable) - 1 if cable else 0
    doppler_limit = FS / (2 * n_seq)
    doppler = st.just(0.0) if static else st.one_of(st.just(0.0), st.floats(-0.99, 0.99))
    taps = [
        (delay, complex(random_complex(rng, 1)[0]), f * doppler_limit)
        for delay, f in data.draw(
            st.lists(
                st.tuples(st.integers(0, n_seq - 1 - cable_delay), doppler), min_size=1, max_size=4
            ),
            label="taps (delay, Doppler / limit)",
        )
    ]
    corrupt_span = data.draw(st.integers(1, 2 * n_seq), label="corrupt_span")
    triggers, end = [], 0
    for i in sorted(set(data.draw(st.lists(st.integers(0, total - 1), max_size=4)))):
        if i >= end:  # spans must not overlap
            triggers.append((i, "overflow", ""))
            end = i + corrupt_span
    return CampaignConfig(
        family=family,
        length=n_seq,
        register_length=5,
        n_sequences=n_reps,
        channel_taps=taps,
        cable=cable,
        cfo_hz=data.draw(st.one_of(st.just(0.0), st.floats(-0.49, 0.49)), label="cfo") * FS,
        snr_db=data.draw(st.one_of(st.none(), st.floats(0.0, 40.0)), label="snr_db"),
        seed=data.draw(st.integers(0, 2**31 - 1), label="noise seed"),
        triggers=triggers,
        corrupt_span=corrupt_span,
    )


class TestCaptureStream:
    """capture_stream makes the capture in chunk_samples blocks; put
    together they must give the whole-stream capture bit for bit."""

    def check_blocks(self, cfg):
        total = cfg.num_sequences() * cfg.make_sequence().n_seq
        want, want_events = whole_stream_capture(cfg)

        stream = capture_stream(cfg)
        blocks = list(stream)
        assert [b.start_index for b in blocks] == list(range(0, total, cfg.chunk_samples))
        assert [len(b) for b in blocks[:-1]] == [cfg.chunk_samples] * (len(blocks) - 1)
        assert all(b.samples.dtype == np.complex64 for b in blocks)
        got = np.concatenate([b.samples for b in blocks])
        assert got.tobytes() == want.samples.tobytes()
        assert [(e.sample_index, e.span) for e in stream.events] == [
            (e.sample_index, e.span) for e in want_events
        ]
        # the correlator takes the blocks as they come and gives the bits
        # it gives for the whole capture
        seq = cfg.make_sequence()
        got = frames_from_capture(stream, seq, stream.events)
        whole = frames_from_capture(want, seq, want_events)
        assert got.sequence_index.tolist() == whole.sequence_index.tolist()
        assert got.h.tobytes() == whole.h.tobytes() and got.t_i.tobytes() == whole.t_i.tobytes()

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_blocks_equal_the_whole_stream_bitwise(self, data):
        cfg = draw_campaign(data)
        n_seq, lead = cfg.make_sequence().n_seq, cfg.channel_model().max_delay()
        total = cfg.num_sequences() * n_seq
        cfg.chunk_samples = data.draw(
            st.one_of(
                st.just(1),
                st.integers(1, max(1, lead)),  # shorter than the channel's reach
                st.integers(1, 3 * n_seq),  # cuts periods
                st.integers(total, total + 40),  # one block
            ),
            label="chunk_samples",
        )
        self.check_blocks(cfg)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_static_channel_blocks_cut_from_one_period_equal_the_whole_stream(self, data):
        # without Doppler taps every block is cut from the channel output
        # over the ring-up plus one period; blocks that end or start right
        # at the ring-up or one period past it find an off-by-one there
        cfg = draw_campaign(data, static=True, min_reps=2)
        n_seq, lead = cfg.make_sequence().n_seq, cfg.channel_model().max_delay()
        total = cfg.num_sequences() * n_seq
        cfg.chunk_samples = data.draw(
            st.one_of(
                st.sampled_from(
                    [max(1, c) for c in (lead - 1, lead, lead + 1, n_seq + lead - 1, n_seq + lead, n_seq + lead + 1)]
                ),
                st.integers(1, 3 * n_seq),
                # about the whole stream: the run is capped at the stream's end
                st.sampled_from([total - 1, total, total + 1]),
                # just past the run's ring-up plus one period
                st.integers(lead + n_seq, lead + n_seq + 8),
            ),
            label="chunk_samples",
        )
        self.check_blocks(cfg)

    @pytest.mark.parametrize("chunk", [1, 7, 42, 64, 1000])
    def test_static_channel_runs_once_per_campaign(self, chunk, monkeypatch):
        calls, apply_channel = [], chansim.apply_channel

        def counted(frame, model):
            calls.append(len(frame))
            return apply_channel(frame, model)

        monkeypatch.setattr(chansim, "apply_channel", counted)
        cfg = CampaignConfig(length=64, n_sequences=4, snr_db=20.0, chunk_samples=chunk)
        cfg.channel_taps = [(0, 1, 0.0), (40, 0.5j, 0.0)]
        n_blocks = len(list(capture_stream(cfg)))
        assert calls == [64 + cfg.channel_model().max_delay()]
        # one Doppler tap: the channel runs once per block
        calls.clear()
        cfg.channel_taps = [(0, 1, 0.0), (40, 0.5j, 2000.0)]
        assert len(list(capture_stream(cfg))) == n_blocks == len(calls)

    def test_static_blocks_are_read_only_views_of_one_run(self):
        cfg = CampaignConfig(length=64, n_sequences=5, snr_db=None, chunk_samples=50)
        blocks = list(capture_stream(cfg))
        run = blocks[0].samples.base
        assert run is not None and all(b.samples.base is run for b in blocks)
        for b in blocks:
            with pytest.raises(ValueError, match="read-only"):
                b.samples[0] = 0

    @staticmethod
    def tcp_link_shaped(n_sequences):
        cfg = CampaignConfig(length=4096, n_sequences=n_sequences, snr_db=None, chunk_samples=1000)
        cfg.channel_taps = [(0, 1, 0.0), (5, 0.3j, 0.0), (40, 0.1, 0.0)]
        return cfg

    def test_static_stream_holds_the_run_and_a_constant_per_block(self):
        list(capture_stream(self.tcp_link_shaped(2)))  # first-use allocations outside the trace
        stream = capture_stream(self.tcp_link_shaped(40))
        run_bytes = (stream.model.max_delay() + 4096 + 1000 - 1) * np.dtype(np.complex64).itemsize
        tracemalloc.start()
        try:
            blocks = iter(stream)
            next(blocks)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            n_blocks = 1 + sum(1 for _ in blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n_blocks == 164
        assert held <= run_bytes + 4096, f"{held} B held for a {run_bytes} B run"
        # a block copied out of the run would take 8,000 B
        assert peak - held <= 4096, f"{peak - held} B per block"

    def test_a_block_longer_than_the_stream_holds_no_more_than_the_stream(self):
        cfg = CampaignConfig(length=1024, n_sequences=4, snr_db=None, chunk_samples=2**40)
        list(capture_stream(replace(cfg, n_sequences=1)))  # first-use allocations outside the trace
        stream = capture_stream(cfg)
        tracemalloc.start()
        try:
            blocks = list(stream)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [len(b) for b in blocks] == [4096]
        # the complex64 stream itself, and at the peak the stream's size
        # in the complex128 samples the channel works in
        assert held <= 4096 * 8 + 2048, f"{held} B held"
        assert peak <= 4096 * 16, f"{peak} B at the peak"

    def test_non_finite_sample_fails_in_its_own_block(self):
        # samples 0..4 see only the unit tap; the 1e40 tap overflows float32
        # from sample 5 on, so the block holding sample 5 raises, not sooner
        cfg = CampaignConfig(length=16, n_sequences=2, cable=None, snr_db=None, chunk_samples=4)
        cfg.channel_taps = [(0, 1, 0.0), (5, 1e40, 0.0)]
        blocks = iter(capture_stream(cfg))
        assert len(next(blocks)) == 4
        with pytest.raises(ValueError, match="not finite"):
            next(blocks)

    def test_spans_crossing_block_edges(self):
        cfg = CampaignConfig(length=16, n_sequences=8, cable=None, snr_db=None)
        cfg.channel_taps = [(0, 1, 0.0)]
        cfg.triggers = [(5, "overflow", ""), (30, "external", ""), (120, "overflow", "")]
        cfg.corrupt_span = 20
        cfg.chunk_samples = 7
        stream = capture_stream(cfg)
        # stamped once against the whole stream: the last span is clamped there
        assert [(e.sample_index, e.span) for e in stream.events] == [(5, 20), (30, 20), (120, 8)]
        got = np.concatenate([b.samples for b in stream])
        dead = np.zeros(128, dtype=bool)
        dead[5:25] = dead[30:50] = dead[120:] = True
        assert np.all(got[dead] == 0) and np.all(got[~dead] != 0)

    def test_one_sample_blocks_under_a_long_channel(self):
        cfg = CampaignConfig(length=64, n_sequences=3, snr_db=10.0, cfo_hz=1234.5)
        cfg.channel_taps = [(0, 1, 0.0), (40, 0.5j, 2000.0)]
        cfg.chunk_samples = 1
        blocks = list(capture_stream(cfg))
        assert len(blocks) == 192 and all(len(b) == 1 for b in blocks)
        got = np.concatenate([b.samples for b in blocks])
        assert got.tobytes() == whole_stream_capture(cfg)[0].samples.tobytes()

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_first_blocks_shorter_than_the_cable(self, chunk):
        # the first blocks are shorter than the five-tap cable alone
        rng = np.random.default_rng(chunk)
        cfg = CampaignConfig(length=16, n_sequences=2, cable=list(random_complex(rng, 5)))
        cfg.channel_taps = [(0, 0.7 - 0.2j, 0.0)]
        cfg.chunk_samples = chunk
        got = np.concatenate([b.samples for b in capture_stream(cfg)])
        assert got.tobytes() == whole_stream_capture(cfg)[0].samples.tobytes()

    def test_limit_checks_come_first_in_their_order(self):
        # a bad sample rate is reported before an excess delay, and that
        # before an aliasing Doppler tap; none needs a block to be made
        cfg = CampaignConfig(length=64, n_sequences=2, cable=None, sample_rate=-1.0)
        cfg.channel_taps = [(64, 1, 0.0), (0, 1, 1e9)]
        with pytest.raises(ValueError, match="sample rate must be positive"):
            capture_stream(cfg)
        cfg.sample_rate = FS
        with pytest.raises(ValueError, match="wraps around"):
            capture_stream(cfg)
        cfg.channel_taps = [(0, 1, 1e9)]
        with pytest.raises(ValueError, match="aliases"):
            capture_stream(cfg)

    def test_chunk_samples_must_be_positive(self):
        cfg = CampaignConfig(length=16, n_sequences=2)
        cfg.chunk_samples = 0
        with pytest.raises(ValueError, match="chunk_samples must be at least 1"):
            capture_stream(cfg)


class TestBlocksOnTwoThreads:
    """Blocks with per-block work are made two at a time on two usable
    CPUs or more (frames.in_order): the same bits on any count, each
    block's error at its own turn, and no thread left behind."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_blocks_are_the_same_bits_on_1_2_and_8_cpus(self, data):
        cfg = draw_campaign(data)
        n_seq = cfg.make_sequence().n_seq
        total = cfg.num_sequences() * n_seq
        cfg.chunk_samples = data.draw(
            st.one_of(
                st.just(1),
                st.integers(2, 3 * n_seq).filter(lambda c: n_seq % c),  # does not divide the period
                st.integers(total + 1, total + 40),  # longer than the stream
            ),
            label="chunk_samples",
        )
        runs = []
        for count in (1, 2, 8):
            with on_cpus(count):
                runs.append([(b.start_index, b.samples.tobytes()) for b in capture_stream(cfg)])
        assert runs[1] == runs[0] and runs[2] == runs[0]

    @staticmethod
    def stream(n_sequences=8, **settings):
        cfg = CampaignConfig(length=16, n_sequences=n_sequences, cable=None, chunk_samples=16, **settings)
        cfg.channel_taps = [(0, 1, 0.0), (3, 0.5j, 900.0)]
        return capture_stream(cfg)

    def test_a_block_that_fails_on_the_helper_raises_at_its_own_turn(self):
        # noise of power 1e80 overflows float32 in every sample the first
        # trigger's span leaves standing: first in block 3, made by the helper
        stream = self.stream(snr_db=-800.0, triggers=[(0, "overflow", "")], corrupt_span=48)
        baseline = threading.active_count()
        got = []
        with on_cpus(2), pytest.raises(ValueError, match="at absolute index 48$"):
            for block in stream:
                got.append(block.start_index)
        assert got == [0, 16, 32]
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("how", ["close", "drop"])
    def test_a_stream_left_part_way_leaves_no_thread(self, how):
        baseline = threading.active_count()
        with on_cpus(2):
            blocks = iter(self.stream(snr_db=20.0))
            assert next(blocks).start_index == 0
            assert threading.active_count() == baseline + 1
            if how == "close":
                blocks.close()
            else:
                del blocks
        assert threading.active_count() == baseline

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(threading.Thread, "start", lambda t: pytest.fail("a thread started"))
        with on_cpus(1):
            assert len(list(self.stream(snr_db=20.0, cfo_hz=100.0))) == 8

    def test_slices_of_the_quantized_run_start_no_thread(self, monkeypatch):
        monkeypatch.setattr(threading.Thread, "start", lambda t: pytest.fail("a thread started"))
        cfg = CampaignConfig(length=16, n_sequences=8, cable=None, snr_db=None, chunk_samples=16)
        with on_cpus(2):
            assert len(list(capture_stream(cfg))) == 8
