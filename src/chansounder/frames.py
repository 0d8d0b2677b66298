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
sample index.
"""

from __future__ import annotations

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
    contiguous float or complex array ``x``, or None when it holds none."""
    finite = np.isfinite(x.view(x.real.dtype))
    return None if finite.all() else int(np.argmin(finite)) // (finite.size // len(x))


def check_finite(samples: np.ndarray, start_index: int, what: str, error=ValueError) -> None:
    """Raise ``error`` naming the absolute index of the first NaN or
    infinite sample of ``what``, whose ``samples`` start at absolute
    index ``start_index``; checked :data:`FINITE_SPAN` samples at a time."""
    for lo in range(0, len(samples), FINITE_SPAN):
        bad = first_non_finite(samples[lo : lo + FINITE_SPAN])
        if bad is not None:
            raise error(f"{what} holds a non-finite sample at absolute index {start_index + lo + bad}")


def check_sample_rate(fs: float) -> float:
    """``fs``, if it is a usable sample rate (positive and finite)."""
    if not 0 < fs < np.inf:
        raise ValueError(f"sample rate must be positive and finite, got {fs}")
    return fs


@dataclass
class IqFrame:
    """A contiguous block of complex baseband samples.

    Attributes
    ----------
    samples : np.ndarray
        Complex sample vector.
    fs : float
        Sample rate in Hz.  Must be positive and finite.
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
        if self.start_index < 0:
            raise ValueError("start_index must be non-negative")

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
        if self.sample_index < 0:
            raise ValueError("trigger sample_index must be non-negative")
        if self.kind not in TRIGGER_KINDS:
            raise ValueError(
                f"unknown trigger kind {self.kind!r}, expected one of {TRIGGER_KINDS}"
            )
        if self.span < 1:
            raise ValueError("trigger span must be at least 1 sample")


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
