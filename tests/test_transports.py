"""Transport equivalence: a campaign sounded in one process, stimulated to a
capture file and correlated from it, or served and correlated over TCP
gives the same period count, the same frames bit for bit and the same
``.frames`` bytes.

The property runs hypothesis's default number of examples; the ``wide``
profile of ``conftest.py`` runs 1,000 (``--hypothesis-profile=wide``).
"""

import copy
import math
import os
import socket
import tempfile
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chansounder import cli, framestore, sounder, wire
from chansounder.calib import through_calibrate
from chansounder.config import CampaignConfig
from chansounder.frames import FrameSeries

FS = 1e6


@st.composite
def campaigns(draw):
    """A small random campaign: its config (without a calibration path) and
    the seed of its through response, or None for no profile."""
    cfg = CampaignConfig(sample_rate=FS, center_frequency=2.4e9, timeout=10.0)
    if draw(st.booleans(), label="fzc"):
        cfg.family = "fzc"
        cfg.length = n = draw(st.integers(16, 256), label="length")
        cfg.root = draw(st.sampled_from([u for u in range(1, n) if math.gcd(u, n) == 1]), label="root")
    else:
        cfg.family = "mls"
        cfg.register_length = draw(st.integers(4, 8), label="register_length")
        n = 2**cfg.register_length - 1
    cfg.n_sequences = periods = draw(st.integers(2, 12), label="n_sequences")

    doppler_limit = FS / (2 * n)
    doppler = draw(st.booleans(), label="doppler")
    gains = st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False)
    cfg.channel_taps = [
        (
            draw(st.integers(0, n // 4), label="delay"),
            draw(gains, label="gain"),
            draw(st.floats(-0.9, 0.9), label="doppler fraction") * doppler_limit if doppler else 0.0,
        )
        for _ in range(draw(st.integers(1, 3), label="taps"))
    ]
    cfg.cable = draw(st.none() | st.lists(gains, min_size=1, max_size=3), label="cable")
    cfg.cfo_hz = draw(st.just(0.0) | st.floats(-0.4 * FS, 0.4 * FS), label="cfo_hz")
    cfg.snr_db = draw(st.none() | st.floats(0.0, 40.0), label="snr_db")
    cfg.seed = draw(st.integers(0, 2**16), label="seed")

    # Non-overlapping triggers: each starts past the span of the one before.
    cfg.corrupt_span = span = draw(st.integers(1, 2 * n), label="corrupt_span")
    starts = draw(st.lists(st.integers(0, periods * n - 1), max_size=3, unique=True), label="triggers")
    cfg.triggers = []
    for start in sorted(starts):
        if not cfg.triggers or start >= cfg.triggers[-1][0] + span:
            cfg.triggers.append((start, draw(st.sampled_from(["overflow", "external"]), label="kind"), ""))

    cfg.chunk_samples = draw(st.integers(1, 3 * n), label="chunk_samples")
    cfg.discard_first = draw(st.booleans(), label="discard_first")
    dc = draw(st.sampled_from(["off", "before", "after"]), label="dc removal")
    if dc != "off":
        cfg.dc_position = dc
        cfg.dc_suppression_hz = draw(st.integers(1, 3), label="dc bins") * FS / n
    profile_seed = draw(st.none() | st.integers(0, 2**16), label="profile seed")
    return cfg, profile_seed


def write_profile(path, n, seed):
    """A through-calibration profile of an ``n``-sample random response."""
    rng = np.random.default_rng(seed)
    through = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    framestore.write_profile(path, through_calibrate(FrameSeries(through, [0, 1], [0.0, 1.0])))


def sound(cfg):
    frames, total, _ = sounder.sound_campaign(cfg)
    return frames, total


def stimulate_then_correlate(cfg, path):
    cfg.out = path
    assert cli.cmd_stimulate(cfg) == 0
    capture, meta = framestore.read_capture(path)
    # the adoption rule of cli.cmd_correlate for a capture file
    seq = cfg.stream_sequence(meta.sequence_descriptor, capture.fs, "capture")
    return sounder.correlate(cfg, capture, seq, meta.triggers, cfg.load_profile())


def serve_then_consume(cfg):
    lsock = socket.create_server(("127.0.0.1", 0))
    box = {}

    def serve():
        with lsock:
            box["summary"] = wire.serve_stimulation(copy.deepcopy(cfg), lsock)

    t = threading.Thread(target=serve, daemon=True)
    t.start()
    try:
        frames, _, _ = wire.consume_correlation("127.0.0.1:%d" % lsock.getsockname()[1], cfg)
    finally:
        t.join(timeout=20.0)
    assert box["summary"].complete
    return frames, box["summary"].samples_sent // frames.n_seq


def frames_bytes(frames, total, cfg, path):
    """The ``.frames`` file of a non-empty series, else None."""
    if not len(frames):
        return None
    framestore.write_frames(
        path, frames, t_s=1.0 / cfg.sample_rate, calibration=cfg.calibration or "", total_sequences=total
    )
    with open(path, "rb") as f:
        return f.read()


@settings(deadline=None)
@given(campaigns())
def test_three_transports_give_the_same_frames_and_bytes(campaign):
    cfg, profile_seed = campaign
    with tempfile.TemporaryDirectory() as tmp:
        if profile_seed is not None:
            n = cfg.make_sequence().n_seq
            cfg.calibration = os.path.join(tmp, "through.csp")
            write_profile(cfg.calibration, n, profile_seed)
        results = [
            sound(copy.deepcopy(cfg)),
            stimulate_then_correlate(copy.deepcopy(cfg), os.path.join(tmp, "cap.iq")),
            serve_then_consume(copy.deepcopy(cfg)),
        ]
        (want, want_total), *others = results
        for frames, total in others:
            assert total == want_total == cfg.n_sequences
            assert frames.h.shape == want.h.shape
            assert np.array_equal(frames.h.view(np.uint64), want.h.view(np.uint64))
            assert np.array_equal(frames.sequence_index, want.sequence_index)
            assert np.array_equal(frames.t_i.view(np.uint64), want.t_i.view(np.uint64))
            assert np.array_equal(frames.corrected, want.corrected)
        files = [frames_bytes(f, t, cfg, os.path.join(tmp, f"{i}.frames")) for i, (f, t) in enumerate(results)]
        assert files[1:] == files[:1] * 2
