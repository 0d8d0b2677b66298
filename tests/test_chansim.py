"""Simulated channel tests: exact tap algebra, deterministic noise,
chunk invariance, fault injection, and the bits of the in-place noise,
rotation and tap sums against their out-of-place forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chansounder import chansim
from chansounder.chansim import (
    ChannelModel,
    ChannelTap,
    add_awgn,
    apply_cfo,
    apply_channel,
    inject_disruption,
)
from chansounder.frames import IqFrame, TriggerEvent

from conftest import random_complex

FS = 1e6


def frame_of(samples, start=0, fs=FS):
    return IqFrame(np.asarray(samples, dtype=np.complex128), fs, 0.0, start)


# The out-of-place forms of the channel's arithmetic, the oracle of the
# in-place ones: the same ufuncs on the same operands in the same order,
# each product of two arrays taken from named arrays.  numpy reuses an
# unnamed temporary of 256 KiB or more as the output of a product and
# swaps the operands to do so, and a complex product of swapped operands
# can round differently (seen with AVX-512).


def oracle_rotate(samples, freq_hz, fs, start_index):
    idx = start_index + np.arange(len(samples), dtype=np.int64)
    rotation = np.exp(2j * np.pi * freq_hz * (idx / fs))
    return samples * rotation


def oracle_noise(seed, start_sample, count):
    u = chansim._uniform_at(seed, 2 * start_sample, 2 * count)
    u1, u2 = u[0::2], u[1::2]
    r = np.sqrt(-2.0 * np.log1p(-u1))
    phase = np.exp(2j * np.pi * u2)
    z = r * phase
    return z / np.sqrt(2.0)


def oracle_awgn(frame, snr_db, seed):
    noise = np.sqrt(10.0 ** (-snr_db / 10.0)) * oracle_noise(seed, frame.start_index, len(frame))
    return np.asarray(frame.samples, dtype=np.complex128) + noise


def oracle_cfo(frame, cfo_hz):
    return oracle_rotate(np.asarray(frame.samples, dtype=np.complex128), cfo_hz, frame.fs, frame.start_index)


def oracle_channel(frame, model):
    x = np.asarray(frame.samples, dtype=np.complex128)
    n = len(x)
    y = np.zeros(n, dtype=np.complex128)
    for tap in model.taps:
        part = x[: n - tap.delay]
        if tap.doppler_hz != 0.0:
            part = oracle_rotate(part, tap.doppler_hz, frame.fs, frame.start_index + tap.delay)
        y[tap.delay :] += tap.gain * part
    if model.cable is not None:
        y = np.convolve(y, model.cable)[:n]
    out = IqFrame(y, frame.fs, frame.f_c, frame.start_index)
    if model.cfo_hz:
        out = IqFrame(oracle_cfo(out, model.cfo_hz), frame.fs, frame.f_c, frame.start_index)
    if model.snr_db is not None:
        out = IqFrame(oracle_awgn(out, model.snr_db, model.seed), frame.fs, frame.f_c, frame.start_index)
    return out.samples


def outcome(fn, *args):
    """The dtype and bytes of ``fn(*args)``'s samples, or the type and
    text of what it raised; numpy's float warnings are not raised."""
    try:
        with np.errstate(all="ignore"):
            got = fn(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    got = getattr(got, "samples", got)
    return got.dtype.str, got.tobytes()


MAX = 1.7976931348623157e308
#: ±0, subnormals, the least normal and values near the float64 maximum,
#: among plain values.
PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, MAX, -MAX, 1e308, -9.9e307]),
    st.floats(-4.0, 4.0),
)
SAMPLE = st.builds(complex, PARTS, PARTS)
#: Lengths 0, 1 and odd ones.
LENGTH = st.one_of(st.sampled_from([0, 1]), st.integers(1, 60).map(lambda k: 2 * k + 1))
START = st.integers(0, 2**53)
RATES = st.sampled_from([FS, 7.0, 3.3e5, 2.0**-1000])


@st.composite
def frames(draw):
    """Frames of normal samples from a drawn seed, which round as a
    product's operands do, with drawn samples among them."""
    n = draw(LENGTH)
    samples = random_complex(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    for i, v in draw(st.lists(st.tuples(st.integers(0, max(0, n - 1)), SAMPLE), max_size=n)):
        samples[i] = v
    return IqFrame(samples, draw(RATES), 0.0, draw(START))


def below_half(fs):
    """Frequencies of magnitude below ``fs / 2``."""
    return st.floats(-0.4999, 0.4999).map(lambda f: f * fs)


class TestInPlaceBits:
    """The in-place noise, rotation and tap sums give the bits of their
    out-of-place forms, and leave their input frame as it was."""

    @staticmethod
    def same(fn, oracle, frame, *args):
        before = frame.samples.tobytes()
        assert outcome(fn, frame, *args) == outcome(oracle, frame, *args)
        assert frame.samples.tobytes() == before

    @settings(deadline=None)
    @given(frame=frames(), snr_db=st.one_of(st.floats(-3000.0, 3000.0), st.sampled_from([-3100.0, 0.0, 20.0])),
           seed=st.integers(0, 2**64 - 1))
    def test_add_awgn(self, frame, snr_db, seed):
        self.same(add_awgn, oracle_awgn, frame, snr_db, seed)

    @settings(deadline=None)
    @given(data=st.data(), frame=frames())
    def test_apply_cfo(self, data, frame):
        self.same(apply_cfo, oracle_cfo, frame, data.draw(below_half(frame.fs), label="cfo_hz"))

    @settings(deadline=None)
    @given(data=st.data(), frame=frames())
    def test_apply_channel(self, data, frame):
        reach = max(1, len(frame))
        taps = data.draw(
            st.lists(st.tuples(st.integers(0, reach - 1), SAMPLE, st.one_of(st.just(0.0), below_half(frame.fs))), min_size=1, max_size=3),
            label="taps (delay, gain, Doppler)",
        )
        model = ChannelModel(
            taps=[ChannelTap(*t) for t in taps],
            snr_db=data.draw(st.one_of(st.none(), st.floats(-300.0, 300.0)), label="snr_db"),
            cfo_hz=data.draw(st.one_of(st.just(0.0), below_half(frame.fs)), label="cfo_hz"),
            cable=data.draw(st.one_of(st.none(), st.lists(SAMPLE, min_size=1, max_size=3)), label="cable"),
            seed=data.draw(st.integers(0, 2**64 - 1), label="seed"),
        )
        self.same(apply_channel, oracle_channel, frame, model)


class TestTaps:
    def test_pure_delay_and_gain(self, rng):
        x = random_complex(rng, 50)
        model = ChannelModel(taps=[ChannelTap(3, 0.5 - 0.25j)])
        y = apply_channel(frame_of(x), model).samples
        assert np.allclose(y[:3], 0.0)
        assert np.allclose(y[3:], (0.5 - 0.25j) * x[:-3], atol=1e-15)

    def test_superposition(self, rng):
        x = random_complex(rng, 64)
        t1 = ChannelTap(0, 1.0)
        t2 = ChannelTap(5, -0.3j)
        both = apply_channel(frame_of(x), ChannelModel(taps=[t1, t2])).samples
        one = apply_channel(frame_of(x), ChannelModel(taps=[t1])).samples
        two = apply_channel(frame_of(x), ChannelModel(taps=[t2])).samples
        assert np.array_equal(both, one + two)

    def test_doppler_rotation_formula(self, rng):
        x = random_complex(rng, 40)
        fd = 1234.0
        model = ChannelModel(taps=[ChannelTap(0, 1.0, fd)])
        y = apply_channel(frame_of(x, start=7), model).samples
        idx = 7 + np.arange(40)
        want = x * np.exp(2j * np.pi * fd * idx / FS)
        assert np.allclose(y, want, atol=1e-12)

    def test_cable_convolution(self, rng):
        x = random_complex(rng, 30)
        cable = np.array([1.0, 0.0, 0.25 + 0.1j])
        model = ChannelModel(taps=[ChannelTap(0, 1.0)], cable=cable)
        y = apply_channel(frame_of(x), model).samples
        assert np.allclose(y, np.convolve(x, cable)[:30], atol=1e-15)

    def test_tap_delay_must_fit(self):
        model = ChannelModel(taps=[ChannelTap(10, 1.0)])
        with pytest.raises(ValueError, match="does not fit"):
            apply_channel(frame_of(np.ones(10)), model)

    def test_model_validation(self):
        with pytest.raises(ValueError, match="at least one tap"):
            ChannelModel(taps=[])
        with pytest.raises(ValueError, match="non-negative integer"):
            ChannelTap(-1, 1.0)
        with pytest.raises(ValueError, match="cable"):
            ChannelModel(taps=[ChannelTap(0, 1.0)], cable=np.array([]))

    def test_tuple_taps_coerced(self):
        model = ChannelModel(taps=[(2, 0.5j, 0.0)])
        assert isinstance(model.taps[0], ChannelTap)
        assert model.max_delay() == 2

    def test_max_delay_includes_cable(self):
        model = ChannelModel(taps=[ChannelTap(4, 1.0)], cable=np.array([1.0, 0.0, 0.5]))
        assert model.max_delay() == 6


class TestCfo:
    def test_formula(self, rng):
        x = random_complex(rng, 25)
        y = apply_cfo(frame_of(x, start=100), 500.0).samples
        idx = 100 + np.arange(25)
        assert np.allclose(y, x * np.exp(2j * np.pi * 500.0 * idx / FS), atol=1e-12)

    def test_chunked_equals_whole_bitwise(self, rng):
        x = random_complex(rng, 101)
        whole = apply_cfo(frame_of(x), 777.0).samples
        a = apply_cfo(frame_of(x[:37], start=0), 777.0).samples
        b = apply_cfo(frame_of(x[37:], start=37), 777.0).samples
        assert np.array_equal(whole, np.concatenate([a, b]))

    def test_chunked_equals_whole_bitwise_past_256_kib(self, rng):
        # numpy takes an unnamed 256 KiB temporary as a product's output and
        # swaps the operands to do so, which changed a rotated frame's bits
        x = random_complex(rng, 40_000)
        whole = apply_cfo(frame_of(x), 777.0).samples
        parts = [apply_cfo(frame_of(x[a : a + 8000], start=a), 777.0).samples for a in range(0, 40_000, 8000)]
        assert whole.tobytes() == np.concatenate(parts).tobytes()

    def test_unrepresentable_cfo_rejected(self):
        with pytest.raises(ValueError, match="not representable"):
            apply_cfo(frame_of(np.ones(4)), FS / 2)

    def test_nan_cfo_rejected(self):
        with pytest.raises(ValueError, match="CFO nan Hz is not representable"):
            apply_cfo(frame_of(np.ones(4)), float("nan"))

    def test_channel_applies_the_same_cfo_limit(self):
        model = ChannelModel(taps=[ChannelTap(0, 1.0)], cfo_hz=0.7 * FS)
        with pytest.raises(ValueError, match="not representable"):
            apply_channel(frame_of(np.ones(4)), model)


class TestAwgn:
    @pytest.mark.parametrize("snr_db", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_snr(self, snr_db):
        with pytest.raises(ValueError, match="SNR must be finite"):
            add_awgn(frame_of(np.ones(8)), snr_db)

    def test_deterministic(self, rng):
        x = random_complex(rng, 200)
        y1 = add_awgn(frame_of(x), 20.0, seed=5).samples
        y2 = add_awgn(frame_of(x), 20.0, seed=5).samples
        assert np.array_equal(y1, y2)

    def test_seed_changes_noise(self, rng):
        x = random_complex(rng, 200)
        y1 = add_awgn(frame_of(x), 20.0, seed=5).samples
        y2 = add_awgn(frame_of(x), 20.0, seed=6).samples
        assert not np.array_equal(y1, y2)

    def test_power_level(self):
        n = 200_000
        x = np.zeros(n)
        for snr_db in (0.0, 10.0, 23.0):
            y = add_awgn(frame_of(x), snr_db, seed=1).samples
            measured = np.mean(np.abs(y) ** 2)
            want = 10.0 ** (-snr_db / 10.0)
            assert measured == pytest.approx(want, rel=0.02)

    def test_chunk_invariant_bitwise(self):
        """Noise depends on the absolute sample index, not the chunking."""
        x = np.zeros(100)
        whole = add_awgn(frame_of(x), 10.0, seed=9).samples
        for cut in (1, 2, 3, 17, 50, 99):
            a = add_awgn(frame_of(x[:cut], start=0), 10.0, seed=9).samples
            b = add_awgn(frame_of(x[cut:], start=cut), 10.0, seed=9).samples
            assert np.array_equal(whole, np.concatenate([a, b])), f"cut={cut}"

    def test_snr_relative_to_unit_signal(self):
        # At 0 dB SNR over a unit-power signal, signal and noise power match.
        n = 100_000
        x = np.ones(n)
        y = add_awgn(frame_of(x), 0.0, seed=2).samples
        noise = y - x
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(1.0, rel=0.02)

    def test_model_snr_none_means_no_noise(self, rng):
        x = random_complex(rng, 32)
        model = ChannelModel(taps=[ChannelTap(0, 1.0)], snr_db=None)
        y = apply_channel(frame_of(x), model).samples
        assert np.array_equal(y, x)


class TestDisruption:
    def test_zeroes_span_and_stamps_events(self, rng):
        x = random_complex(rng, 100)
        ev = TriggerEvent(40, "overflow")
        out, stamped = inject_disruption(frame_of(x), [ev], corrupt_span=8)
        assert np.all(out.samples[40:48] == 0)
        assert np.array_equal(out.samples[:40], x[:40])
        assert np.array_equal(out.samples[48:], x[48:])
        assert stamped[0].span == 8
        assert stamped[0].kind == "overflow"

    def test_span_clamped_at_stream_end(self, rng):
        x = random_complex(rng, 50)
        out, stamped = inject_disruption(frame_of(x), [TriggerEvent(47, "external")], 10)
        assert stamped[0].span == 3
        assert np.all(out.samples[47:] == 0)

    def test_events_sorted_on_return(self, rng):
        x = random_complex(rng, 100)
        evs = [TriggerEvent(60, "overflow"), TriggerEvent(10, "overflow")]
        _, stamped = inject_disruption(frame_of(x), evs, 4)
        assert [e.sample_index for e in stamped] == [10, 60]

    def test_out_of_bounds_rejected(self, rng):
        x = random_complex(rng, 20)
        with pytest.raises(ValueError, match="outside the frame"):
            inject_disruption(frame_of(x), [TriggerEvent(20, "overflow")], 4)
        with pytest.raises(ValueError, match="outside the frame"):
            inject_disruption(frame_of(x, start=5), [TriggerEvent(2, "overflow")], 4)

    def test_overlapping_spans_rejected(self, rng):
        x = random_complex(rng, 100)
        evs = [TriggerEvent(10, "overflow"), TriggerEvent(13, "overflow")]
        with pytest.raises(ValueError, match="overlap"):
            inject_disruption(frame_of(x), evs, 8)

    def test_input_frame_not_mutated(self, rng):
        x = random_complex(rng, 30)
        fr = frame_of(x)
        inject_disruption(fr, [TriggerEvent(5, "overflow")], 4)
        assert np.array_equal(fr.samples, x)

    def test_span_validation(self, rng):
        with pytest.raises(ValueError, match="at least 1"):
            inject_disruption(frame_of(np.ones(10)), [], 0)


class TestTriggerEvent:
    def test_kind_validation(self):
        with pytest.raises(ValueError, match="unknown trigger kind"):
            TriggerEvent(0, "glitch")

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            TriggerEvent(-1, "overflow")

    def test_span_minimum(self):
        with pytest.raises(ValueError):
            TriggerEvent(0, "overflow", span=0)
