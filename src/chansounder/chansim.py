"""Simulated radio front end.

Applies a time-varying tapped-delay-line channel to an IQ stream:
integer-sample multipath taps with per-tap Doppler rotation, an optional
cable/front-end FIR response, carrier frequency offset, and additive
white Gaussian noise.  Receiver faults can be injected as trigger
events that corrupt a span of samples.

Every operation is a pure function of (input frame, parameters): the
noise for absolute sample index n is derived from a counter-based
generator positioned at n, and the rotations are anchored to n as well,
so a stream processed in chunks, each with the channel's
``max_delay()`` samples of lead-in, yields bit-identical output to a
single pass.  That property is what lets every transport produce its
capture in blocks and still agree exactly.

The per-block functions (:func:`apply_channel`, :func:`apply_cfo`,
:func:`add_awgn`, :func:`zero_spans`) are pure: they change no input
and share no state, so two threads may run them at once, as
:class:`sounder.CaptureStream` does.  The noise and the rotation are
made in place in the buffers each call allocates for itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .frames import AT_LEAST_1, FINITE, NON_NEGATIVE_INTEGER, IqFrame, TriggerEvent, check

#: Uniform draws consumed per complex noise sample (fixed so noise for
#: sample n is addressable regardless of chunking).
NOISE_DRAWS_PER_SAMPLE = 2


@dataclass
class ChannelTap:
    """One multipath component: integer sample delay, complex gain, and
    a deterministic Doppler shift in Hz (0 for a static tap)."""

    delay: int
    gain: complex
    doppler_hz: float = 0.0

    def __post_init__(self) -> None:
        check(self.delay, *NON_NEGATIVE_INTEGER, "tap delay")
        self.gain = complex(self.gain)


@dataclass
class ChannelModel:
    """Complete channel description for a simulation run.

    ``snr_db`` of None disables noise entirely (not the same as a very
    high SNR: the noise generator is never touched).  ``cable`` is an
    optional FIR response convolved after the multipath taps, standing
    in for everything between signal generation and the antenna.
    """

    taps: list[ChannelTap]
    snr_db: float | None = None
    cfo_hz: float = 0.0
    cable: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.taps:
            raise ValueError("channel model needs at least one tap")
        self.taps = [
            t if isinstance(t, ChannelTap) else ChannelTap(*t) for t in self.taps
        ]
        if self.cable is not None:
            self.cable = np.asarray(self.cable, dtype=np.complex128)
            if self.cable.ndim != 1 or len(self.cable) == 0:
                raise ValueError("cable response must be a non-empty 1-d vector")

    def max_delay(self) -> int:
        d = max(t.delay for t in self.taps)
        if self.cable is not None:
            d += len(self.cable) - 1
        return d


def _rotate(samples: np.ndarray, freq_hz: float, fs: float, start_index: int) -> np.ndarray:
    """``samples * exp(2j * pi * freq_hz * (idx / fs))`` in a new array;
    the rotation is made in place in one complex buffer."""
    # Phase anchored to the absolute integer sample index so chunked and
    # whole-stream application agree bit for bit.
    t = (start_index + np.arange(len(samples), dtype=np.int64)) / fs
    z = np.multiply(2j * np.pi * freq_hz, t)
    del t
    np.exp(z, out=z)
    # Not in place, nor is apply_channel's gain: numpy multiplies a
    # one-sample complex array in place by another loop, which rounds
    # differently (with AVX-512).
    return samples * z


def apply_channel(frame: IqFrame, model: ChannelModel) -> IqFrame:
    """Pass ``frame`` through ``model``.

    The output frame keeps the input's sample rate, center frequency,
    and start index.  Tap delays and the cable response reach back to
    zeros before the frame start, so only output samples at least
    ``model.max_delay()`` past the frame start (or all of them, for a
    frame that starts the stream at absolute index 0) equal the
    whole-stream output; :class:`sounder.CaptureStream` feeds each chunk
    with that lead-in.  The memoryless operations (Doppler and CFO
    rotation, noise) are chunk-invariant on their own.
    """
    x = np.asarray(frame.samples, dtype=np.complex128)
    max_tap_delay = max(t.delay for t in model.taps)
    if max_tap_delay >= len(x) and len(x) > 0:
        raise ValueError(
            f"tap delay {max_tap_delay} does not fit in a frame of {len(x)} samples"
        )

    n = len(x)
    y = np.zeros(n, dtype=np.complex128)
    for tap in model.taps:
        d = tap.delay
        part = x[: n - d]
        if tap.doppler_hz != 0.0:
            part = _rotate(part, tap.doppler_hz, frame.fs, frame.start_index + d)
        y[d:] += tap.gain * part

    if model.cable is not None:
        y = np.convolve(y, model.cable)[: len(x)]

    out = IqFrame(y, frame.fs, frame.f_c, frame.start_index)
    if model.cfo_hz:
        out = apply_cfo(out, model.cfo_hz)
    if model.snr_db is not None:
        out = add_awgn(out, model.snr_db, model.seed)
    return out


def apply_cfo(frame: IqFrame, cfo_hz: float) -> IqFrame:
    """Rotate a frame by a carrier frequency offset.

    The rotation phase is anchored to absolute time via the frame start
    index, so chunked application agrees with a single pass.
    """
    if not abs(cfo_hz) < frame.fs / 2:
        raise ValueError(
            f"CFO {cfo_hz} Hz is not representable at sample rate {frame.fs} Hz"
        )
    y = _rotate(
        np.asarray(frame.samples, dtype=np.complex128), cfo_hz, frame.fs, frame.start_index
    )
    return IqFrame(y, frame.fs, frame.f_c, frame.start_index)


def _uniform_at(seed: int, start_draw: int, count: int) -> np.ndarray:
    """Uniform doubles at absolute draw offset ``start_draw``.

    Philox advances in blocks of four 64-bit words, so position the
    counter at the enclosing block and discard the lead draws.  The
    value of draw k is then independent of how the stream is chunked.
    numpy.random is imported here, its only use, so a process that draws
    no noise never loads it.
    """
    from numpy.random import Generator, Philox

    block, lead = divmod(start_draw, 4)
    rng = Generator(Philox(key=seed))
    if block:
        rng.bit_generator.advance(block)
    u = rng.random(lead + count)
    return u[lead:]


def _complex_noise_at(seed: int, start_sample: int, count: int) -> np.ndarray:
    """Unit-power circular complex Gaussian noise for absolute sample
    indices ``start_sample .. start_sample + count``.  Box-Muller with a
    fixed budget of two uniforms per sample."""
    u = _uniform_at(seed, NOISE_DRAWS_PER_SAMPLE * start_sample, NOISE_DRAWS_PER_SAMPLE * count)
    # r = sqrt(-2 * log1p(-u1)) and z = r * exp(2j * pi * u2) / sqrt(2),
    # each made in place in its one buffer.  1 - u1 is in (0, 1], so the
    # log is finite.
    r = np.negative(u[0::2])
    np.log1p(r, out=r)
    np.multiply(-2.0, r, out=r)
    np.sqrt(r, out=r)
    z = np.multiply(2j * np.pi, u[1::2])
    del u
    np.exp(z, out=z)
    np.multiply(r, z, out=z)
    return np.divide(z, np.sqrt(2.0), out=z)


def add_awgn(frame: IqFrame, snr_db: float, seed: int = 0) -> IqFrame:
    """Add white Gaussian noise at ``snr_db`` relative to unit signal power.

    Noise power is ``10**(-snr_db / 10)``; the stimulation sequences all
    have unit power, so the ratio holds at the channel input.  The noise
    value for a given absolute sample index depends only on (seed,
    index), never on frame boundaries.
    """
    check(snr_db, *FINITE, "SNR")
    sigma2 = 10.0 ** (-snr_db / 10.0)
    z = _complex_noise_at(seed, frame.start_index, len(frame.samples))
    np.multiply(np.sqrt(sigma2), z, out=z)
    y = np.add(np.asarray(frame.samples, dtype=np.complex128), z, out=z)
    return IqFrame(y, frame.fs, frame.f_c, frame.start_index)


def stamp_disruption(
    events: list[TriggerEvent], corrupt_span: int, lo: int, hi: int
) -> list[TriggerEvent]:
    """The events re-stamped with the span they corrupt in the stream
    ``[lo, hi)``: ``corrupt_span`` samples, clamped at the stream end.

    Returns them sorted by sample index.  Events must fall inside the
    stream and must not overlap each other.
    """
    check(corrupt_span, *AT_LEAST_1, "corrupt_span")
    last_end = None
    stamped = []
    for ev in sorted(events):
        if not (lo <= ev.sample_index < hi):
            raise ValueError(
                f"trigger at sample {ev.sample_index} lies outside the frame "
                f"[{lo}, {hi})"
            )
        span = min(corrupt_span, hi - ev.sample_index)
        if last_end is not None and ev.sample_index < last_end:
            raise ValueError(
                f"trigger spans overlap at sample {ev.sample_index}"
            )
        last_end = ev.sample_index + span
        stamped.append(replace(ev, span=span))
    return stamped


def zero_spans(frame: IqFrame, stamped: list[TriggerEvent]) -> IqFrame:
    """Zero each stamped event's span where it overlaps ``frame``; spans
    may start before the frame or run past its end.  The input frame is
    left as it is."""
    y = None
    for ev in stamped:
        a = max(ev.sample_index, frame.start_index) - frame.start_index
        b = min(ev.sample_index + ev.span, frame.end_index) - frame.start_index
        if a < b:
            if y is None:
                y = np.array(frame.samples, dtype=np.complex128, copy=True)
            y[a:b] = 0.0
    return frame if y is None else IqFrame(y, frame.fs, frame.f_c, frame.start_index)


def inject_disruption(
    frame: IqFrame, events: list[TriggerEvent], corrupt_span: int
) -> tuple[IqFrame, list[TriggerEvent]]:
    """Zero out ``corrupt_span`` samples at each trigger position.

    Returns the damaged frame and the events re-stamped with the span
    actually corrupted (:func:`stamp_disruption` over the frame), sorted
    by sample index.
    """
    stamped = stamp_disruption(events, corrupt_span, frame.start_index, frame.end_index)
    return zero_spans(frame, stamped), stamped
