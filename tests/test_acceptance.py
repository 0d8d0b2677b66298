"""Acceptance suite.

Each test covers one numbered acceptance criterion at its stated
tolerance and prints a single pass line, so a verbose run reads as a
checklist.  Helpers assemble pipeline stages directly where a criterion
needs a non-default precision path; everything else drives the public
entry points.
"""

import socket
import struct
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from chansounder import charmetrics as cm
from chansounder import framestore, sounder, wire
from chansounder.calib import through_calibrate
from chansounder.chansim import ChannelModel, ChannelTap, apply_channel
from chansounder.cli import main
from chansounder.config import CampaignConfig
from chansounder.frames import IqFrame, TriggerEvent
from chansounder.seqgen import bind_rate, generate_fzc, generate_mls
from chansounder.wire import WireProtocolError, decode_message


def ok(num, text):
    print(f"criterion {num:2d} PASS: {text}")


def test_criterion_01_sequence_perfection():
    t0 = time.perf_counter()
    fzc = generate_fzc(1024, 7)
    mls = generate_mls(10)
    elapsed = time.perf_counter() - t0

    pacf = np.fft.ifft(np.abs(np.fft.fft(fzc.samples)) ** 2)
    assert abs(pacf[0] - 1024) <= 1e-6 * 1024
    assert np.max(np.abs(pacf[1:])) <= 1e-6 * 1024

    mls_pacf = np.rint(
        np.real(np.fft.ifft(np.abs(np.fft.fft(mls.samples)) ** 2))
    ).astype(np.int64)
    assert mls_pacf[0] == 1023
    assert np.all(mls_pacf[1:] == -1)

    assert elapsed < 1.0
    ok(1, f"perfect PACFs, generated in {elapsed * 1e3:.1f} ms")


def test_criterion_02_spectral_flatness():
    fzc = generate_fzc(1024, 7)
    mags = np.abs(np.fft.fft(fzc.samples))
    assert np.max(np.abs(mags - 32.0)) <= 1e-6 * 32.0
    ok(2, "constant 32.0 spectral magnitude within 1e-6 relative")


def test_criterion_03_timing_arithmetic():
    seq = bind_rate(generate_fzc(1024, 7), 100e6)
    assert seq.duration == 1.024e-5  # exact in binary floating point

    res = cm.doppler_resolution(12.0)
    assert abs(res - 0.083) / 0.083 <= 0.01

    fmax = cm.max_doppler(seq.duration)
    assert fmax == 48828.125
    assert abs(fmax - 48.8e3) / 48.8e3 <= 0.001

    speed = cm.doppler_to_speed(48.8e3, 5.8e9)
    assert abs(speed - 2522.9) / 2522.9 <= 0.005
    assert abs(speed - 2526.0) / 2526.0 <= 0.005
    ok(3, f"T_seq = {seq.duration} s, {fmax} Hz, {speed:.1f} m/s")


def test_criterion_04_end_to_end_oracle(tmp_path):
    t0 = time.perf_counter()
    cal = CampaignConfig()  # defaults are the scaled reference campaign
    cal.channel_taps = [(0, 1 + 0j, 0.0)]
    prof_path = str(tmp_path / "prof.csp")
    framestore.write_profile(
        prof_path, through_calibrate(sounder.run_sounding(cal), gain_cap_db=40.0)
    )

    cfg = CampaignConfig()
    cfg.calibration = prof_path
    frames = sounder.run_sounding(cfg)
    elapsed = time.perf_counter() - t0

    assert len(frames) == 199
    expected = {0: 1 + 0j, 3: 0.5j, 11: -0.2 + 0.1j}
    h = np.mean([f.h for f in frames], axis=0)

    floor = 10 ** (-60.0 / 20.0)
    found = set(np.flatnonzero(np.abs(h) > floor * np.max(np.abs(h))).tolist())
    assert found == set(expected), f"tap delays {sorted(found)}"
    worst = 0.0
    for delay, gain in expected.items():
        err = abs(h[delay] - gain) / abs(gain)
        worst = max(worst, err)
        assert err <= floor, f"tap {delay} gain error {20 * np.log10(err):.1f} dB"
    assert elapsed < 10.0
    ok(
        4,
        f"delays exact, worst gain error {20 * np.log10(max(worst, 1e-300)):.1f} dB, "
        f"{elapsed:.2f} s",
    )


def test_criterion_05_processing_gain():
    n = 1024
    seq = generate_fzc(n, 7)
    reps = 101
    x = np.tile(seq.samples, reps)

    # dissimilar in-band interferer at 0 dB SIR: unit-power random QPSK
    rng = np.random.default_rng(7)
    qpsk = (
        rng.choice([1, -1], size=len(x)) + 1j * rng.choice([1, -1], size=len(x))
    ) / np.sqrt(2)
    capture = IqFrame(x + qpsk, fs=1e6)

    frames = sounder.frames_from_capture(capture, seq, discard_first=True)
    assert len(frames) == 100

    delta = np.zeros(n, dtype=complex)
    delta[0] = 1.0
    err = np.stack([f.h - delta for f in frames])
    mean_bin_error_power = float(np.mean(np.abs(err) ** 2))
    peak_power = float(np.mean([np.abs(f.h[0]) ** 2 for f in frames]))

    gain_db = 10 * np.log10(peak_power / mean_bin_error_power)
    assert abs(gain_db - 10 * np.log10(n)) <= 2.0
    ok(5, f"interference suppressed {gain_db:.2f} dB (target 30.10 +- 2)")


def test_criterion_06_cfo_tolerance():
    n = 1024
    seq = generate_fzc(n, 7)
    fs = 1e6
    reps = 21

    def peak_mag(cfo_hz):
        model = ChannelModel(taps=[ChannelTap(0, 1 + 0j, 0.0)], cfo_hz=cfo_hz)
        capture = apply_channel(sounder.stimulate_capture(seq, reps, fs), model)
        frames = sounder.frames_from_capture(capture, seq)
        return float(np.mean([np.max(np.abs(f.h)) for f in frames]))

    base = peak_mag(0.0)
    offset = peak_mag(1e-4 * fs)
    loss_db = 20 * np.log10(base / offset)
    assert loss_db <= 1.0
    ok(6, f"peak loss {loss_db:.3f} dB at CFO = 1e-4 fs")


def test_criterion_07_gating():
    n = 64
    seq = generate_fzc(n, 7)
    capture = sounder.stimulate_capture(seq, 10, fs=1e6)

    ev = TriggerEvent(4 * n + 17, "overflow", 8, "")
    frames = sounder.frames_from_capture(capture, seq, events=[ev], discard_first=False)
    assert [f.sequence_index for f in frames] == [0, 1, 2, 3, 5, 6, 7, 8, 9]
    assert len(frames) == 9

    rng = np.random.default_rng(11)
    for _ in range(100):
        idx = int(rng.integers(0, 10 * n))
        span = int(rng.integers(1, 3 * n))
        _, kept = sounder.sequence_gate(capture, [TriggerEvent(idx, "overflow", span)], n)
        touched = {
            p for p in range(10) if idx < (p + 1) * n and idx + span > p * n
        }
        assert set(kept) == set(range(10)) - touched
        assert list(kept) == sorted(kept)
    ok(7, "event in sequence 4 keeps {0-3, 5-9}; 100 random placements complete")


def test_criterion_08_doppler_line():
    t0 = time.perf_counter()
    n, fs, fd = 1000, 1e6, 50.0
    seq = generate_fzc(n, 7)
    t_seq = n / fs  # 1 ms per period, 2000 periods = 2 s capture

    model = ChannelModel(taps=[ChannelTap(0, 1 + 0j, fd)])
    capture = apply_channel(sounder.stimulate_capture(seq, 2000, fs), model)
    frames = sounder.frames_from_capture(capture, seq, discard_first=False)
    assert len(frames) == 2000

    dmap = cm.doppler_map(frames, t_seq)
    assert dmap.resolution_hz == pytest.approx(0.5)

    flat = int(np.argmax(dmap.power))
    f_bin, d_bin = np.unravel_index(flat, dmap.power.shape)
    assert d_bin == 0
    assert dmap.freqs_hz[f_bin] == pytest.approx(fd, abs=1e-9)

    row = dmap.power[:, d_bin]
    frac = float(row[f_bin] / np.sum(row))
    assert frac >= 0.99
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    ok(8, f"50 Hz line in bin {f_bin} with {100 * frac:.3f}% row energy, {elapsed:.2f} s")


def test_criterion_09_delay_statistics():
    fs = 10e6  # 100 ns per delay bin
    seq = generate_fzc(1024, 7)
    model = ChannelModel(
        taps=[ChannelTap(0, 1 + 0j, 0.0), ChannelTap(1, 1 + 0j, 0.0)]
    )
    capture = apply_channel(sounder.stimulate_capture(seq, 12, fs), model)
    frames = sounder.frames_from_capture(capture, seq)

    p = cm.pdp(frames)
    t_s = 1.0 / fs
    mean = cm.mean_delay(p, t_s)
    rms = cm.rms_delay_spread(p, t_s)
    assert abs(mean - 50e-9) / 50e-9 <= 1e-9
    assert abs(rms - 50e-9) / 50e-9 <= 1e-9
    ok(9, f"mean {mean * 1e9:.6f} ns, rms {rms * 1e9:.6f} ns (target 50)")


def test_criterion_10_calibration_round_trip():
    fs = 1e6
    n = 1024
    cable = [1 + 0j, 0j, 0.25 + 0j]

    cal = CampaignConfig()
    cal.channel_taps = [(0, 1 + 0j, 0.0)]
    cal.cable = cable
    cal.n_sequences = 40
    profile = through_calibrate(sounder.run_sounding(cal), gain_cap_db=40.0)

    # corrected through response: off-peak floor
    seq = cal.make_sequence()
    capture = sounder.quantize_capture(
        apply_channel(sounder.stimulate_capture(seq, 40, fs), cal.channel_model())
    )
    frames = sounder.frames_from_capture(capture, seq, profile=profile)
    h = np.mean([f.h for f in frames], axis=0)
    off_db = 20 * np.log10(np.max(np.abs(h[1:])) / np.abs(h[0]))
    assert off_db <= -60.0

    # DC offset injected at the receiver, suppression bandwidth scaled
    # from 781 kHz at 100 MSps down to this fs
    bw = 781e3 * fs / 100e6
    biased = IqFrame(capture.samples + 1.0, fs, capture.f_c, capture.start_index)
    dirty = sounder.frames_from_capture(biased, seq, profile=profile)
    h_dirty = np.mean([f.h for f in dirty], axis=0)
    resid_raw_db = 20 * np.log10(np.max(np.abs(h_dirty[1:])) / np.abs(h_dirty[0]))
    assert resid_raw_db > -40.0  # the bias genuinely poisons the frame

    clean = sounder.frames_from_capture(
        biased, seq, profile=profile, dc_suppression_hz=bw, dc_position="before"
    )
    h_clean = np.mean([f.h for f in clean], axis=0)
    resid_db = 20 * np.log10(np.max(np.abs(h_clean[1:])) / np.abs(h_clean[0]))
    assert resid_db <= -40.0
    ok(
        10,
        f"cable corrected to {off_db:.1f} dB; DC residual {resid_raw_db:.1f} -> "
        f"{resid_db:.1f} dB with {bw / 1e3:.2f} kHz suppression",
    )


def test_criterion_11_wire_equivalence():
    cfg = CampaignConfig()
    cfg.length = 256
    cfg.n_sequences = 20
    cfg.chunk_samples = 777  # force chunk cuts inside periods

    offline = sounder.run_sounding(cfg)

    with socket.create_server(("127.0.0.1", 0)) as lsock:
        port = lsock.getsockname()[1]
        t = threading.Thread(target=wire.serve_stimulation, args=(cfg, lsock), daemon=True)
        t.start()
        frames, summary = wire.consume_correlation(f"127.0.0.1:{port}", cfg)
        t.join(timeout=10.0)

    assert len(frames) == len(offline) == 19
    for a, b in zip(frames, offline):
        assert np.array_equal(a.h, b.h)
        assert a.t_i == b.t_i and a.sequence_index == b.sequence_index

    # fuzzing: every random message must fail as a structured error
    rng = np.random.default_rng(0)  # seed checked: no accidental valid frame
    rejected = 0
    for _ in range(10000):
        size = int(rng.integers(0, 65))
        body = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
        try:
            decode_message(body)
        except WireProtocolError:
            rejected += 1
    assert rejected == 10000
    ok(11, "wire frames bit-identical to offline; 10000/10000 fuzz messages rejected")


def test_criterion_12_determinism(tmp_path):
    cfg_path = tmp_path / "camp.cfg"
    cfg_path.write_text(
        "sequence.length = 256\n"
        "n_sequences = 30\n"
        "channel.snr_db = 15\n"
        "seed = 3\n"
    )
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(["sound", "--config", str(cfg_path), "--out", out1]) == 0
    assert main(["sound", "--config", str(cfg_path), "--out", out2]) == 0
    suffixes = (".frames", ".report.txt", ".pdp.csv", ".psd.csv", ".doppler.csv")
    for suffix in suffixes:
        b1 = Path(out1 + suffix).read_bytes()
        b2 = Path(out2 + suffix).read_bytes()
        assert b1 == b2, f"{suffix} differs between identical runs"
    ok(12, f"two runs byte-identical across {len(suffixes)} output files")
