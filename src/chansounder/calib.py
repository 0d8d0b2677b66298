"""Through calibration and response clean-up.

A through calibration measures everything between the signal source and
the digitizer with the antennas replaced by a direct cable connection,
then builds a per-bin spectral inverse of that forward transmission.
Applying the profile to later measurements removes cables, filters and
converter ripple, leaving the over-the-air channel alone.

Inversion gain is capped (default +40 dB) so near-zero bins do not blow
up the noise floor; clamped bins keep their phase and are recorded in
the profile.

DC-bias removal lives here too, because it is a correction-side
concern: receiver LO leakage shows up as a spectral line at 0 Hz, and
the affected bins are faded out and linearly re-interpolated from their
neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .frames import FrameSeries

DEFAULT_GAIN_CAP_DB = 40.0


@dataclass
class CalibrationProfile:
    """Forward-transmission correction filter.

    ``h_ftt`` is the time-domain correction (the inverse of the averaged
    through response); applying the profile means circular convolution
    with it.  ``clamped_bins`` lists spectral bins where the inversion
    hit the gain cap.
    """

    h_ftt: np.ndarray
    source: str = "through"
    gain_cap_db: float = DEFAULT_GAIN_CAP_DB
    created_from: int = 0
    clamped_bins: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self) -> None:
        self.h_ftt = np.asarray(self.h_ftt, dtype=np.complex128)
        if self.h_ftt.ndim != 1 or len(self.h_ftt) == 0:
            raise ValueError("correction filter must be a non-empty vector")
        self.clamped_bins = np.asarray(self.clamped_bins, dtype=np.int64)

    @property
    def n_seq(self) -> int:
        return len(self.h_ftt)

    def check_length(self, n_seq: int) -> None:
        """Raise unless the profile corrects ``n_seq``-sample frames."""
        if self.n_seq != n_seq:
            raise ValueError(f"profile length {self.n_seq} does not match frame length {n_seq}")

    def spectrum(self) -> np.ndarray:
        """Frequency response of the correction filter."""
        return np.fft.fft(self.h_ftt)


def through_calibrate(
    frames: FrameSeries, gain_cap_db: float = DEFAULT_GAIN_CAP_DB
) -> CalibrationProfile:
    """Build a correction profile from through-connection measurements.

    Parameters
    ----------
    frames : FrameSeries
        Impulse-response frames measured with the antennas replaced by a
        direct connection.  They are averaged coherently before
        inversion, so the more frames the lower the noise on the profile.
    gain_cap_db : float
        Maximum per-bin inversion gain.  Bins whose inverse would exceed
        the cap are clamped to it (phase preserved) and flagged.
    """
    if not 0.0 <= gain_cap_db < np.inf:
        raise ValueError(f"gain cap must be a finite non-negative dB value, got {gain_cap_db}")
    if not len(frames):
        raise ValueError("through calibration needs at least one frame")
    n = frames.n_seq

    avg = np.mean(frames.h, axis=0)
    h_freq = np.fft.fft(avg)
    cap = 10.0 ** (gain_cap_db / 20.0)

    mag = np.abs(h_freq)
    clamped = mag < 1.0 / cap
    inv = np.empty(n, dtype=np.complex128)
    safe = ~clamped
    inv[safe] = 1.0 / h_freq[safe]
    # Keep the phase of the (tiny) measured bin; a zero bin gets a real cap.
    phase = np.where(mag[clamped] > 0.0, h_freq[clamped] / np.maximum(mag[clamped], 1e-300), 1.0)
    inv[clamped] = cap * np.conj(phase)

    return CalibrationProfile(
        h_ftt=np.fft.ifft(inv),
        source="through",
        gain_cap_db=gain_cap_db,
        created_from=len(frames),
        clamped_bins=np.flatnonzero(clamped),
    )


def _dc_bin_count(suppression_bw_hz: float, fs: float, n: int) -> int:
    """Number of spectral bins covered by the suppression bandwidth,
    never fewer than one."""
    return max(1, int(round(suppression_bw_hz / (fs / n))))


def _patch_dc(spec: np.ndarray, suppression_bw_hz: float, fs: float) -> None:
    """:func:`remove_dc_bias` on spectra in FFT bin order along the last
    axis, written over them one gap bin at a time, so no temporary holds
    more than one bin of every spectrum."""
    if not 0 < suppression_bw_hz < fs / 4:
        raise ValueError(
            f"suppression bandwidth must lie in (0, fs/4) = (0, {fs / 4}), "
            f"got {suppression_bw_hz}"
        )
    n = spec.shape[-1]
    n_b = _dc_bin_count(suppression_bw_hz, fs, n)

    center = n // 2  # DC bin position in centered order
    g0 = center - n_b // 2
    g1 = g0 + n_b  # one past the gap
    left, right = g0 - 1, g1
    if left < 0 or right > n - 1:
        raise ValueError(
            f"suppression bandwidth {suppression_bw_hz} Hz covers {n_b} of {n} "
            "bins and leaves no anchor bins"
        )

    idx = np.arange(g0, g1)
    w = (idx - left) / (right - left)
    # Centered position c is FFT bin (c - n // 2) mod n; patch in FFT order.
    gap, lo, hi = (idx - center) % n, (left - center) % n, (right - center) % n
    for g, w_g in zip(gap, w):
        column = spec[..., g]
        np.multiply(1.0 - w_g, spec[..., lo], out=column)
        column += w_g * spec[..., hi]


def _remove_dc_bias_in_place(h: np.ndarray, suppression_bw_hz: float, fs: float) -> None:
    """:func:`remove_dc_bias` on the rows of the complex128 response
    matrix ``h``, written over them."""
    np.fft.fft(h, axis=-1, out=h)
    _patch_dc(h, suppression_bw_hz, fs)
    np.fft.ifft(h, axis=-1, out=h)


def remove_dc_bias(x, suppression_bw_hz: float, fs: float):
    """Fade out the spectral band around 0 Hz and re-interpolate it.

    ``suppression_bw_hz`` must be below ``fs / 4``.  The bins within the
    band (in centered spectral order, around the DC bin) are replaced by
    a straight line, separately in the real and imaginary parts, between
    the nearest untouched bins on either side.  Everything outside the
    band is untouched, and running the operation twice is a no-op the
    second time.

    Takes a :class:`FrameSeries` (returns a new one with every row
    patched) or bare spectra in FFT bin order along the last axis
    (returns the patched spectra).  Either way the result is a copy and
    ``x`` is left as it was.
    """
    if isinstance(x, FrameSeries):
        h = np.array(x.h)
        _remove_dc_bias_in_place(h, suppression_bw_hz, fs)
        return replace(x, h=h)
    spec = np.array(x, dtype=np.complex128, ndmin=1)
    _patch_dc(spec, suppression_bw_hz, fs)
    return spec
