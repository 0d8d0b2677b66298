"""Shared stream datatypes passed between pipeline stages.

An :class:`IqFrame` carries a block of complex baseband samples together
with the sample rate and the absolute index of its first sample, so that
any stage can reconstruct absolute time without extra bookkeeping.  A
:class:`FrameSeries` is the correlator output, the one container every
stage that takes frames is given: one delay-domain snapshot of the
channel per row of a matrix, each stamped with its measurement time.
An :class:`ImpulseResponseFrame` is one such row, as indexing or
iterating a series yields it.  A :class:`TriggerEvent` marks a receiver
fault (buffer overflow or an external marker) at a known absolute
sample index.  The range rules (:data:`POSITIVE_FINITE` and the like)
are stated here once, and every config key, file header and library
argument held to one checks it through :func:`check`, which names the
value it rejects; the rules of the sequence parameters sit in
:mod:`seqgen`.
:func:`on_slices` runs a stage over contiguous slices of its rows (or
columns), one slice per usable CPU, at most :data:`MAX_SLICES`.
"""

from __future__ import annotations

import os
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

TRIGGER_KINDS = ("overflow", "external")

#: The capture sample, interleaved little-endian float32 I and Q: what a
#: capture file and a wire chunk carry and what the correlator is given.
CAPTURE_DTYPE = np.dtype("<c8")

#: Readers check that samples are finite this many at a time: few enough
#: that the check's mask stays small, enough that a call costs little.
FINITE_SPAN = 1 << 16


def first_non_finite(x: np.ndarray) -> int | None:
    """The index along the first axis of the first NaN or infinity in the
    float or complex array ``x``, or None when it holds none."""
    # the float view of a last axis that allows one is the faster test
    finite = np.isfinite(x.view(x.real.dtype) if x.strides[-1] == x.itemsize else x)
    return None if finite.all() else int(np.argmin(finite)) // (finite.size // len(x))


def check_finite(samples: np.ndarray, start_index: int, what: str, error=ValueError) -> None:
    """Raise ``error`` naming the absolute index of the first NaN or
    infinite sample of ``what``, whose ``samples`` start at absolute
    index ``start_index``; checked :data:`FINITE_SPAN` samples at a time."""
    for lo in range(0, len(samples), FINITE_SPAN):
        bad = first_non_finite(samples[lo : lo + FINITE_SPAN])
        if bad is not None:
            raise error(f"{what} holds a non-finite sample at absolute index {start_index + lo + bad}")


#: The range rules of config keys, file headers and arguments, each a
#: ``(test, rule)`` pair for :func:`check` and :func:`checked`.  NaN fails
#: every one.
AT_LEAST_1 = (lambda v: v >= 1, "be at least 1")
NON_NEGATIVE = (lambda v: v >= 0, "be non-negative")
# Each float rule decides by comparisons, so a numpy scalar meets no warning
# and an int past float range fails the rule instead of raising OverflowError.
POSITIVE_FINITE = (lambda v: 0 < v <= sys.float_info.max, "be positive and finite")
FINITE = (lambda v: -sys.float_info.max <= v <= sys.float_info.max, "be finite")
# The rule of every rate and period: each is another's reciprocal, so the rule
# holds for a value only if it holds for the value's reciprocal.  2.0**-1024,
# the reciprocal of the greatest float, is the greatest float whose reciprocal
# rounds to inf; the division runs only on a value inside float range.
RATE = (lambda v: 2.0**-1024 < v <= sys.float_info.max and 1 / v > 2.0**-1024,
        "be positive and finite with a finite reciprocal whose reciprocal is finite")
OPEN_UNIT = (lambda v: 0 < v < 1, "lie in (0, 1)")
#: The greatest gain cap in dB whose linear cap ``10.0 ** (dB / 20.0)`` is a
#: finite float; the float above it overflows.
MAX_GAIN_CAP_DB = 6165.094311198334
GAIN_CAP_DB = (lambda v: 0 <= v <= MAX_GAIN_CAP_DB,
               f"lie in 0..{MAX_GAIN_CAP_DB!r}, where the linear cap 10**(dB/20) is finite")
INTEGER = (lambda v: isinstance(v, (int, np.integer)), "be an integer")
NON_NEGATIVE_INTEGER = (lambda v: INTEGER[0](v) and v >= 0, "be a non-negative integer")


def none_or(test, rule: str) -> tuple:
    """The rule that also lets None pass: "be none or <rule>"."""
    return lambda v: v is None or test(v), "be none or " + rule.removeprefix("be ")


NONE_OR_POSITIVE_FINITE = none_or(*POSITIVE_FINITE)
NONE_OR_FINITE = none_or(*FINITE)


def check(value, test, rule: str, name: str = ""):
    """``value``, if it passes ``test``; otherwise raise ``ValueError``
    as "[name ]must <rule>, got <value>"."""
    if not test(value):
        raise ValueError(f"{name + ' ' if name else ''}must {rule}, got {value}")
    return value


def checked(parse, test, rule: str, name: str = ""):
    """``parse``, rejecting a parsed value that fails ``test`` (:func:`check`)."""
    return lambda text: check(parse(text), test, rule, name)


def capture_blocks(capture: "IqFrame | sounder.CaptureStream", what: str):
    """The blocks of ``capture`` in the capture format, :data:`CAPTURE_DTYPE`.

    A :class:`sounder.CaptureStream` is returned as it is: its blocks are
    quantized and checked as they are made.  An :class:`IqFrame` is cast
    at once, and a sample not finite in the capture format raises
    ``ValueError`` naming ``what`` (:func:`check_finite`), before a
    writer opens a file or a server a socket."""
    if not isinstance(capture, IqFrame):
        return capture
    with np.errstate(over="ignore"):
        samples = np.asarray(capture.samples).astype(CAPTURE_DTYPE, copy=False)
    check_finite(samples, capture.start_index, what)
    return (IqFrame(samples, capture.fs, capture.f_c, capture.start_index),)


def check_sample_rate(fs: float) -> float:
    """``fs``, if it is a usable sample rate (:data:`RATE`)."""
    return check(fs, *RATE, "sample rate")


#: Most slices :func:`on_slices` cuts, whatever the CPU count.  Each
#: correlation slice holds numpy's fixed 128 KiB iteration buffer of a
#: broadcasting multiply, so the matrix stages hold at most this many of
#: them above the frame matrix.  Being below ``charmetrics._BATCH``, it
#: also gives every slice of the characterization a share of one row or
#: column or more, so the slices hold one batch between them.
MAX_SLICES = 3


def usable_cpus() -> int:
    """The number of CPUs this process may run on (its affinity mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def on_slices(fn, n: int) -> None:
    """Call ``fn(part)`` once for each of the contiguous slices ``part``
    that cut ``range(n)``: one slice per usable CPU, never more than ``n``
    or :data:`MAX_SLICES` (and one, empty, when ``n`` is 0).

    The first slice runs on the caller's thread and each other slice on
    a thread of its own; every thread started is joined before this
    returns or raises, and the error of the first slice that failed is
    raised again here.  With one slice no thread starts.  ``fn`` must
    give each slice the bits it would give it alone.
    """
    k = max(1, min(n, usable_cpus(), MAX_SLICES))
    cuts = [n * i // k for i in range(k + 1)]
    parts = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
    errors: list[BaseException | None] = [None] * k

    def run(i: int) -> None:
        try:
            fn(parts[i])
        except BaseException as exc:  # raised again on the caller's thread
            errors[i] = exc

    threads = []
    try:
        for i in range(1, k):
            threads.append(threading.Thread(target=run, args=(i,)))
            threads[-1].start()
        fn(parts[0])
    finally:
        for t in threads:
            if t.ident is not None:  # started
                t.join()
    for exc in errors:
        if exc is not None:
            raise exc


@dataclass
class IqFrame:
    """A contiguous block of complex baseband samples.

    Attributes
    ----------
    samples : np.ndarray
        Complex sample vector.
    fs : float
        Sample rate in Hz, held to :data:`RATE`.
    f_c : float
        Center frequency in Hz.  Zero for pure baseband work.
    start_index : int
        Absolute index of ``samples[0]`` in the overall stream.
    """

    samples: np.ndarray
    fs: float
    f_c: float = 0.0
    start_index: int = 0

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples)
        if self.samples.ndim != 1:
            raise ValueError("IqFrame samples must be a 1-d vector")
        check_sample_rate(self.fs)
        check(self.start_index, *NON_NEGATIVE, "start_index")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def end_index(self) -> int:
        """Absolute index one past the last sample."""
        return self.start_index + len(self.samples)


@dataclass(order=True)
class TriggerEvent:
    """A receiver fault marker anchored to an absolute sample index.

    ``span`` is the number of consecutive samples corrupted by the event;
    the gate drops every sequence period the span touches.
    """

    sample_index: int
    kind: str = field(default="overflow", compare=False)
    span: int = field(default=1, compare=False)
    note: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        check(self.sample_index, *NON_NEGATIVE, "trigger sample_index")
        if self.kind not in TRIGGER_KINDS:
            raise ValueError(
                f"unknown trigger kind {self.kind!r}, expected one of {TRIGGER_KINDS}"
            )
        check(self.span, *AT_LEAST_1, "trigger span")


@dataclass
class ImpulseResponseFrame:
    """One row of a :class:`FrameSeries`: h[tau] at a single measurement
    instant.

    Attributes
    ----------
    h : np.ndarray
        Complex impulse-response vector over the delay axis, one entry
        per sample period, length equal to the sounding sequence length.
    t_i : float
        Measurement timestamp in seconds (end of the sequence period
        that produced this frame, minus one sample period).
    sequence_index : int
        Index of the originating sequence period in the stimulation
        stream (0-based, counting dropped periods too).
    corrected : bool
        True once a forward-transmission correction has been applied.
    """

    h: np.ndarray
    t_i: float
    sequence_index: int
    corrected: bool = False


@dataclass(eq=False)
class FrameSeries:
    """A series of impulse-response frames held as one matrix.

    ``h`` is an (F, N) complex128 matrix with one response per row;
    ``sequence_index`` (int64), ``t_i`` (float64) and ``corrected``
    (bool, a scalar applies to every row) hold one entry per row.
    Indexing or iterating yields the rows as :class:`ImpulseResponseFrame`
    objects and a slice yields a shorter series.  The arrays are
    read-only views, so a series never changes once built.
    """

    h: np.ndarray
    sequence_index: np.ndarray
    t_i: np.ndarray
    corrected: np.ndarray = False

    def __post_init__(self) -> None:
        h = np.asarray(self.h, dtype=np.complex128)
        if h.ndim != 2:
            raise ValueError("frame series responses must form an (F, N) matrix")
        index = np.asarray(self.sequence_index, dtype=np.int64)
        t_i = np.asarray(self.t_i, dtype=np.float64)
        if index.shape != (len(h),) or t_i.shape != (len(h),):
            raise ValueError("frame series needs one sequence index and one t_i per frame")
        if np.any(index < 0):
            raise ValueError("sequence_index must be non-negative")
        # broadcast_to returns read-only views of the same memory.
        self.h = np.broadcast_to(h, h.shape)
        self.sequence_index = np.broadcast_to(index, index.shape)
        self.t_i = np.broadcast_to(t_i, t_i.shape)
        self.corrected = np.broadcast_to(np.asarray(self.corrected, dtype=bool), (len(h),))

    def __len__(self) -> int:
        return len(self.h)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return FrameSeries(self.h[i], self.sequence_index[i], self.t_i[i], self.corrected[i])
        return ImpulseResponseFrame(
            h=self.h[i],
            t_i=float(self.t_i[i]),
            sequence_index=int(self.sequence_index[i]),
            corrected=bool(self.corrected[i]),
        )

    @property
    def n_seq(self) -> int:
        return self.h.shape[1]
