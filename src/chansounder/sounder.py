"""The sounding pipeline: stimulate, gate, correlate, normalize, correct.

Stimulation is the infinite (here: finite but long) repetition of one
sounding sequence.  On the correlation side the received stream is cut
at sequence boundaries, periods touched by receiver faults are dropped,
and each surviving period is periodically cross-correlated against the
reference sequence.  Dividing by the sequence length turns the
correlation peak into the channel gain estimate; an optional
forward-transmission profile then removes the measured cable and
front-end response, and optional DC-bias removal the LO leakage at 0 Hz.
Each output frame is stamped with the time

    t_i = (i + 1) * T_seq - T_s

(the instant of the last sample of sequence period ``i``), which is the
natural time axis for Doppler analysis across frames.

The composition is deterministic no matter how the stream is chunked
or which process runs which half.  A capture is complex64 on every
transport, from :func:`quantize_capture` to the correlator.
:func:`frames_from_capture` takes it as one block or as the blocks of a
:class:`CaptureStream`, widens each block's kept periods straight into
one complex128 matrix and runs the correlation, the normalization and
the corrections in place on it, with the bits of each period alone.
Those stages run on contiguous slices of the matrix's rows, one slice
per usable CPU and at most :data:`frames.MAX_SLICES`
(:func:`frames.on_slices`), so the output bits do not depend on the
count; the slices share one spectrum of the reference sequence (and of
the profile), and each holds numpy's 128 KiB buffer of the multiply.

Every transport correlates through :func:`correlate`, which runs
:func:`frames_from_capture` with the configured settings; that checks
every correction setting (:func:`check_corrections`) before a block is
drawn.  ``sound`` gives it the campaign's own stream
(:func:`sound_campaign`).  A received stream's sample rate and sequence
are adopted by its reader first, each by a rule stated where it reads:
``cli.cmd_correlate`` for a capture file, :func:`wire.consume_correlation`
for a peer, which also checks the corrections at the HELLO.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Sequence as SequenceType

import numpy as np

from . import chansim
from .calib import CalibrationProfile
from .charmetrics import max_doppler
from .corrmath import _pccf_in_place, reference_spectrum
from .framestore import CaptureMeta
from .frames import AT_LEAST_1, CAPTURE_DTYPE, NON_NEGATIVE, FrameSeries, IqFrame, TriggerEvent, check
from .frames import check_sample_rate, first_non_finite, on_slices
from .seqgen import Sequence, descriptor


def stimulate_capture(
    seq: Sequence, n_reps: int, fs: float, f_c: float = 0.0, start: int = 0, stop: int | None = None
) -> IqFrame:
    """Samples ``start .. stop`` (by default all) of ``n_reps`` repetitions
    of the sequence from absolute index 0, so sequence period ``i``
    occupies absolute samples ``[i * n_seq, (i + 1) * n_seq)``."""
    check(n_reps, *AT_LEAST_1, "n_reps")
    total = n_reps * seq.n_seq
    stop = total if stop is None else stop
    if not 0 <= start <= stop <= total:
        raise ValueError(f"samples {start}..{stop} lie outside the {total}-sample stream")
    return IqFrame(seq.samples[np.arange(start, stop) % seq.n_seq], fs, f_c, start)


def quantize_capture(frame: IqFrame) -> IqFrame:
    """Round samples to :data:`frames.CAPTURE_DTYPE`, the capture format of
    every transport: capture files and wire chunks carry it and the
    in-process path keeps it, so all three give the correlator the same
    array; a sample not finite in it raises ``ValueError``."""
    with np.errstate(over="ignore"):
        q = np.asarray(frame.samples).astype(CAPTURE_DTYPE)
    if (bad := first_non_finite(q)) is not None:
        index = frame.start_index + bad
        raise ValueError(f"capture samples are not finite in 32-bit float precision at absolute index {index}")
    return IqFrame(q, frame.fs, frame.f_c, frame.start_index)


def sequence_gate(
    frame: "IqFrame | CaptureStream",
    events: SequenceType[TriggerEvent],
    n_seq: int,
) -> tuple[np.ndarray, list[int]]:
    """Cut the stream into sequence periods and drop damaged ones.

    A period is dropped when any trigger event's corrupted span
    ``[sample_index, sample_index + span)`` overlaps it, and also when
    the frame does not cover it completely.  ``frame`` is anything with
    a ``start_index`` and an ``end_index``; no sample is read.  Returns
    the runs of surviving periods, an (R, 2) array of period ranges
    ``[first, stop)`` in sample order, and the surviving period indices.
    Absolute sample index 0 is a period boundary by construction of
    :func:`stimulate_capture`.
    """
    check(n_seq, *AT_LEAST_1, "sequence length")
    lo, hi = frame.start_index, frame.end_index

    first = -(-lo // n_seq)  # first period fully inside the frame
    last = max(first, hi // n_seq)  # one past the last full period
    keep = np.ones(last - first, dtype=bool)
    for ev in events:
        span = max(1, ev.span)
        k0 = ev.sample_index // n_seq
        k1 = (ev.sample_index + span - 1) // n_seq
        keep[max(k0 - first, 0) : max(k1 + 1 - first, 0)] = False

    kept = (first + np.flatnonzero(keep)).tolist()
    edged = np.concatenate(([False], keep, [False]))
    return first + np.flatnonzero(edged[1:] != edged[:-1]).reshape(-1, 2), kept


def normalize(y_corr: np.ndarray, n_seq: int, out: np.ndarray | None = None) -> np.ndarray:
    """Scale raw correlation to channel-gain units (divide by N).

    For an MLS this leaves the known ``v_oop / N`` bias floor that
    shrinks with sequence length; for an FZC there is no bias at all.
    ``out`` receives the result when given (pass ``y_corr`` itself to
    scale in place).
    """
    check(n_seq, *AT_LEAST_1, "sequence length")
    return np.divide(np.asarray(y_corr), n_seq, out=out)


def measurement_time(sequence_index: int, t_seq: float, t_s: float) -> float:
    """Timestamp of the frame from sequence period ``sequence_index``."""
    return (sequence_index + 1) * t_seq - t_s


def _dc_gap(suppression_bw_hz: float, fs: float, n: int) -> tuple[np.ndarray, np.ndarray, int, int]:
    """The DC band of ``n``-bin spectra at sample rate ``fs``: its FFT
    bins (never fewer than one), their weights and the two anchor bins
    either side.  Raises when the band leaves no anchor bin."""
    n_b = max(1, int(round(suppression_bw_hz / (fs / n))))
    center = n // 2  # DC bin position in centered order
    g0 = center - n_b // 2
    left, right = g0 - 1, g0 + n_b  # the anchors, just outside the gap
    if left < 0 or right > n - 1:
        raise ValueError(
            f"suppression bandwidth {suppression_bw_hz} Hz covers {n_b} of {n} "
            "bins and leaves no anchor bins"
        )
    idx = np.arange(g0, right)
    # Centered position c is FFT bin (c - n // 2) mod n; patch in FFT order.
    return (idx - center) % n, (idx - left) / (right - left), (left - center) % n, (right - center) % n


def _patch_dc(spec: np.ndarray, suppression_bw_hz: float, fs: float) -> None:
    """Replace the DC band (:func:`_dc_gap`) of spectra in FFT bin order
    along the last axis by the straight line between its anchors, over
    ``spec`` one gap bin at a time; a second run changes nothing."""
    gap, w, lo, hi = _dc_gap(suppression_bw_hz, fs, spec.shape[-1])
    for g, w_g in zip(gap, w):
        column = spec[..., g]
        np.multiply(1.0 - w_g, spec[..., lo], out=column)
        column += w_g * spec[..., hi]


def _remove_dc_bias_in_place(h: np.ndarray, suppression_bw_hz: float, fs: float) -> None:
    """Fade out the 0 Hz band, where receiver LO leakage shows, of the rows
    of the complex128 response matrix ``h`` and re-interpolate it, in place."""
    np.fft.fft(h, axis=-1, out=h)
    _patch_dc(h, suppression_bw_hz, fs)
    np.fft.ifft(h, axis=-1, out=h)


def _correct_ftt_in_place(h: np.ndarray, spectrum: np.ndarray) -> None:
    """Circularly convolve the rows of the complex128 response matrix
    ``h`` with the profile filter of frequency response ``spectrum``
    (:meth:`CalibrationProfile.spectrum`), in the frequency domain and in
    place."""
    np.fft.fft(h, axis=-1, out=h)
    h *= spectrum
    np.fft.ifft(h, axis=-1, out=h)


def check_corrections(
    profile: CalibrationProfile | None, n_seq: int, fs: float, dc_suppression_hz: float, dc_position: str
) -> None:
    """Raise unless the calibration ``profile`` corrects ``n_seq``-sample
    frames, ``dc_position`` is 'before' or 'after', and the DC suppression
    band is 0 (off) or lies below ``fs / 4`` with an anchor bin left on
    each side of it."""
    if profile is not None and profile.n_seq != n_seq:
        raise ValueError(f"profile length {profile.n_seq} does not match frame length {n_seq}")
    if dc_position not in ("before", "after"):
        raise ValueError("dc_position must be 'before' or 'after'")
    check(dc_suppression_hz, *NON_NEGATIVE, "dc_suppression_hz")
    if not dc_suppression_hz < fs / 4:
        raise ValueError(
            f"dc_suppression_hz = {dc_suppression_hz} must lie below sample_rate / 4 = {fs / 4}"
        )
    if dc_suppression_hz > 0.0:
        _dc_gap(dc_suppression_hz, fs, n_seq)


def frames_from_capture(
    capture: "IqFrame | CaptureStream",
    seq: Sequence,
    events: SequenceType[TriggerEvent] = (),
    profile: CalibrationProfile | None = None,
    discard_first: bool = True,
    dc_suppression_hz: float = 0.0,
    dc_position: str = "before",
) -> FrameSeries:
    """Run the full correlation side over a captured stream.

    ``discard_first`` drops sequence period 0, which a real receiver
    records before the channel is fully rung up (the first period is
    the only one whose delayed multipath replicas come from silence
    rather than from the previous repetition).  A positive
    ``dc_suppression_hz`` enables DC-bias removal on every frame (0 keeps
    it off; a negative or NaN value is rejected); ``dc_position`` chooses
    whether that happens before or after the profile correction.

    ``capture`` is an :class:`IqFrame` or a :class:`CaptureStream`, gated
    before a block is read.  Each block's kept samples are widened into
    their rows of the (F, N) complex128 matrix, the one buffer made, as
    the blocks come; every stage then runs in place on that matrix, one
    slice of rows per usable CPU.  The corrections are checked first
    (:func:`check_corrections`).
    """
    n_seq = seq.n_seq
    check_corrections(profile, n_seq, capture.fs, dc_suppression_hz, dc_position)
    t_s = 1.0 / capture.fs

    if discard_first:  # period 0 goes as a trigger on its first sample would take it
        events = [*events, TriggerEvent(0)]
    runs, kept = sequence_gate(capture, events, n_seq)
    index = np.asarray(kept, dtype=np.int64)
    del kept  # 36 B per period as Python ints, 8 as the index
    h = np.empty((len(index), n_seq), dtype=np.complex128)
    rows = h.reshape(-1)
    spans = (runs * n_seq).tolist()  # the runs' sample ranges [s0, s1)
    j = o = 0  # the first run not yet filled, and where it starts in ``rows``
    for block in (capture,) if isinstance(capture, IqFrame) else capture:
        a, b = block.start_index, block.end_index
        while j < len(spans) and spans[j][0] < b:
            s0, s1 = spans[j]
            lo, hi = max(a, s0), min(b, s1)
            rows[o + lo - s0 : o + hi - s0] = block.samples[lo - a : hi - a]
            if s1 > b:
                break  # the run goes on in the next block
            j, o = j + 1, o + s1 - s0
    ref = reference_spectrum(seq.samples)
    spectrum = None if profile is None else profile.spectrum()

    def correct(part: slice) -> None:
        rows = h[part]
        _pccf_in_place(rows, ref)
        normalize(rows, n_seq, out=rows)
        if dc_suppression_hz > 0.0 and dc_position == "before":
            _remove_dc_bias_in_place(rows, dc_suppression_hz, capture.fs)
        if spectrum is not None:
            _correct_ftt_in_place(rows, spectrum)
        if dc_suppression_hz > 0.0 and dc_position == "after":
            _remove_dc_bias_in_place(rows, dc_suppression_hz, capture.fs)

    on_slices(correct, len(h))
    return FrameSeries(h, index, measurement_time(index, n_seq * t_s, t_s), corrected=profile is not None)


@dataclass
class CaptureStream:
    """A campaign's quantized capture, made in blocks of ``chunk_samples``.

    Iterating yields the blocks of :func:`stimulate_capture` through the
    channel, with the damage of the stamped trigger ``events``, quantized
    by :func:`quantize_capture`; put together they equal that
    whole-stream composition bit for bit.  Without Doppler taps the
    taps and cable are computed once, over the ring-up plus one sequence
    period (the channel output repeats with the stimulus from sample
    ``model.max_delay()`` on), and every block is a slice of one run that
    repeats that period up to the longest block's reach; with no CFO and
    no noise the run is quantized, so such blocks are read-only views of
    one shared array (copy one before writing to it).  With a Doppler tap each
    block runs the channel over the ``model.max_delay()`` stimulus
    samples before it onward.  CFO, noise, the damage and quantization
    run per block.  ``fs`` and ``f_c`` describe every block, as they
    would the whole capture, and ``start_index`` and ``end_index`` span
    the whole stream, so :func:`frames_from_capture` takes the stream
    where it takes one :class:`IqFrame`.
    """

    seq: Sequence
    n_samples: int
    fs: float
    f_c: float
    model: chansim.ChannelModel
    events: list[TriggerEvent]
    chunk_samples: int

    start_index = 0

    @property
    def end_index(self) -> int:
        return self.n_samples

    @property
    def meta(self) -> CaptureMeta:
        """The campaign's record: its sequence, noise seed and stamped events."""
        return CaptureMeta(descriptor(self.seq), f"seed={self.model.seed}", self.events)

    def _static_run(self, channel: chansim.ChannelModel, quantize: bool) -> np.ndarray:
        """The static ``channel``'s output (quantized, when asked and
        possible) from sample 0 to the end of the longest block that can
        start in the ring-up plus one period, made read-only."""
        n, lead = self.seq.n_seq, self.model.max_delay()
        # The stimulus repeats with period n, so the output of static taps
        # and the cable does too from sample `lead` on: the channel runs
        # once, over the ring-up plus one period, and the rest repeats that.
        x = stimulate_capture(self.seq, self.n_samples // n, self.fs, self.f_c, 0, min(self.n_samples, n + lead))
        frame = chansim.apply_channel(x, channel)
        del x
        if quantize:
            try:
                frame = quantize_capture(frame)
            except ValueError:
                pass  # the block that holds the sample raises, as without the shortcut
        run = np.empty(min(self.n_samples, lead + n + self.chunk_samples - 1), frame.samples.dtype)
        run[: len(frame)] = frame.samples
        for p in range(len(frame), len(run), n):
            run[p : p + n] = run[p - n : p][: len(run) - p]
        run.flags.writeable = False
        return run

    def __iter__(self) -> Iterator[IqFrame]:
        n, lead = self.seq.n_seq, self.model.max_delay()
        n_reps = self.n_samples // n
        cfo, snr = self.model.cfo_hz, self.model.snr_db
        channel = replace(self.model, cfo_hz=0.0, snr_db=None)
        run = None
        if all(tap.doppler_hz == 0 for tap in channel.taps):
            run = self._static_run(channel, quantize=not cfo and snr is None)
        for a in range(0, self.n_samples, self.chunk_samples):
            b = min(a + self.chunk_samples, self.n_samples)
            if run is None:
                s = max(0, a - lead)
                # At least lead + 1 samples: a shorter frame would fail the tap
                # check of apply_channel and reach np.convolve's path for inputs
                # shorter than the cable, which the longer whole stream never takes.
                x = stimulate_capture(
                    self.seq, n_reps, self.fs, self.f_c, s, min(self.n_samples, max(b, s + lead + 1))
                )
                y = chansim.apply_channel(x, channel).samples[a - s : b - s]
            else:
                o = a if a < lead else lead + (a - lead) % n  # same sample of the stimulus
                y = run[o : o + b - a]
            block = IqFrame(y, self.fs, self.f_c, a)
            if cfo:
                block = chansim.apply_cfo(block, cfo)
            if snr is not None:
                block = chansim.add_awgn(block, snr, self.model.seed)
            block = chansim.zero_spans(block, self.events)
            # a block still in the capture format was cut, untouched, from the quantized run
            yield block if block.samples.dtype == CAPTURE_DTYPE else quantize_capture(block)


def capture_stream(config) -> CaptureStream:
    """The configured campaign's capture as a :class:`CaptureStream`, once
    the campaign has passed its limit checks (sample rate, excess delay,
    Doppler) and its trigger events are stamped against the whole stream."""
    seq = config.make_sequence()
    n_samples = config.num_sequences() * seq.n_seq
    fs = check_sample_rate(config.sample_rate)
    model = config.channel_model()
    if model.max_delay() >= seq.n_seq:
        raise ValueError(
            f"channel reaches back {model.max_delay()} samples, which wraps around "
            f"the {seq.n_seq}-sample sequence period"
        )
    doppler_limit = max_doppler(seq.n_seq / fs)
    for tap in model.taps:
        if not abs(tap.doppler_hz) < doppler_limit:
            raise ValueError(
                f"Doppler shift {tap.doppler_hz} Hz aliases: one snapshot per "
                f"{seq.n_seq}-sample period resolves |Doppler| < {doppler_limit} Hz"
            )
    events = config.trigger_events()
    if events:
        events = chansim.stamp_disruption(events, config.corrupt_span, 0, n_samples)
    check(config.chunk_samples, *AT_LEAST_1, "chunk_samples")
    return CaptureStream(
        seq, n_samples, fs, config.center_frequency, model, events, config.chunk_samples
    )


def correlate(
    config, capture: "IqFrame | CaptureStream", seq: Sequence, events, profile: CalibrationProfile | None
) -> tuple[FrameSeries, int]:
    """Correlate a capture of any transport: run :func:`frames_from_capture`
    with the calibration ``profile`` and the configured first-period
    discard and DC-bias settings.  Returns the frames and the number of
    sequence periods from absolute sample 0 to the capture's end."""
    frames = frames_from_capture(
        capture,
        seq,
        events=events,
        profile=profile,
        discard_first=config.discard_first,
        dc_suppression_hz=config.dc_suppression_hz,
        dc_position=config.dc_position,
    )
    return frames, capture.end_index // seq.n_seq


def sound_campaign(config) -> tuple[FrameSeries, int, list[TriggerEvent]]:
    """Full single-process sounding run driven by a campaign config.

    The calibration profile is read before any capture block is made, and
    :func:`frames_from_capture` checks the corrections before it draws the
    first block of :func:`capture_stream`.  Returns the frames, the period
    count and the stamped trigger events.
    """
    profile = config.load_profile()
    stream = capture_stream(config)
    frames, total = correlate(config, stream, stream.seq, stream.events, profile)
    return frames, total, stream.events


def run_sounding(config) -> FrameSeries:
    """The frames of :func:`sound_campaign`."""
    return sound_campaign(config)[0]
