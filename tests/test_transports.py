"""Transport equivalence: a campaign sounded in one process, stimulated to a
capture file and correlated from it, or served and correlated over TCP
gives the same period count, the same frames bit for bit and the same
``.frames`` bytes; both receive sides are ``cli.cmd_correlate``.  A
campaign that keeps no period fails alike on all three.

The property runs hypothesis's default number of examples; the ``wide``
profile of ``conftest.py`` runs 1,000 (``--hypothesis-profile=wide``).
"""

import copy
import math
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chansounder import cli, framestore, sounder, wire
from chansounder.calib import through_calibrate
from chansounder.config import CampaignConfig
from chansounder.frames import FrameSeries

from conftest import serving

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
    """The in-process side, writing its frames as ``cmd_sound`` does."""
    frames, total, _ = sounder.sound_campaign(cfg)
    cli._write_series(cfg, cli._nonempty(frames, total), total)


def stimulate_then_correlate(cfg):
    out, cfg.out = cfg.out, cfg.out + ".iq"
    assert cli.cmd_stimulate(cfg) == 0
    cfg.input, cfg.out = cfg.out, out
    cli.cmd_correlate(cfg)


def serve_then_correlate(cfg):
    served = copy.deepcopy(cfg)
    with serving(lambda lsock: wire.serve_stimulation(served, lsock), timeout=20.0) as (endpoint, summary):
        cfg.endpoint = endpoint
        cli.cmd_correlate(cfg)
    assert summary[0].complete


def written(side, cfg, out):
    """The frames, header period total and bytes of the ``.frames`` file
    that ``side`` writes for ``cfg`` to ``out``; None when it keeps no
    period and fails as the commands do."""
    cfg.out = out
    try:
        side(cfg)
    except ValueError as exc:
        if not str(exc).startswith(f"kept 0 of {cfg.n_sequences} sequence periods "):
            raise
        return None
    frames, meta = framestore.read_frames(out + ".frames")
    with open(out + ".frames", "rb") as f:
        return frames, meta.total_sequences, f.read()


@settings(deadline=None)
@given(campaigns())
def test_three_transports_give_the_same_frames_and_bytes(campaign):
    cfg, profile_seed = campaign
    with tempfile.TemporaryDirectory() as tmp:
        if profile_seed is not None:
            n = cfg.make_sequence().n_seq
            cfg.calibration = os.path.join(tmp, "through.csp")
            write_profile(cfg.calibration, n, profile_seed)
        sides = (sound, stimulate_then_correlate, serve_then_correlate)
        results = [written(side, copy.deepcopy(cfg), os.path.join(tmp, side.__name__)) for side in sides]
        if results[0] is None:  # sound kept no period
            assert results == [None] * 3
            return
        assert None not in results
        (want, want_total, want_bytes), *others = results
        assert want_total == cfg.n_sequences
        for frames, total, data in others:
            assert total == want_total
            assert frames.h.shape == want.h.shape
            assert np.array_equal(frames.h.view(np.uint64), want.h.view(np.uint64))
            assert np.array_equal(frames.sequence_index, want.sequence_index)
            assert np.array_equal(frames.t_i.view(np.uint64), want.t_i.view(np.uint64))
            assert np.array_equal(frames.corrected, want.corrected)
            assert data == want_bytes
