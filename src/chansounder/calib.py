"""Through calibration and response clean-up.

A through calibration measures everything between the signal source and
the digitizer with the antennas replaced by a direct cable connection,
then builds a per-bin spectral inverse of that forward transmission.
Applying the profile to later measurements removes cables, filters and
converter ripple, leaving the over-the-air channel alone.

Inversion gain is capped (default +40 dB) so near-zero bins do not blow
up the noise floor; clamped bins keep their phase and are recorded in
the profile.

Two further clean-up steps live here because they are correction-side
concerns: DC-bias removal (receiver LO leakage shows up as a spectral
line at 0 Hz; the affected bins are faded out and linearly
re-interpolated from their neighbours) and PSD-threshold down-sampling
(keep only the contiguous occupied band around the spectral peak and
reduce the effective rate accordingly).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .frames import FrameSeries, ImpulseResponseFrame

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


def identity_profile(n_seq: int) -> CalibrationProfile:
    """A do-nothing profile: unit impulse correction of length n_seq."""
    if n_seq < 1:
        raise ValueError("profile length must be positive")
    h = np.zeros(n_seq, dtype=np.complex128)
    h[0] = 1.0
    return CalibrationProfile(h_ftt=h, source="identity", created_from=0)


def through_calibrate(
    frames, gain_cap_db: float = DEFAULT_GAIN_CAP_DB
) -> CalibrationProfile:
    """Build a correction profile from through-connection measurements.

    Parameters
    ----------
    frames : FrameSeries or iterable
        Impulse-response frames (or bare vectors) measured with the
        antennas replaced by a direct connection.  They are averaged
        coherently before inversion, so the more frames the lower the
        noise on the profile.
    gain_cap_db : float
        Maximum per-bin inversion gain.  Bins whose inverse would exceed
        the cap are clamped to it (phase preserved) and flagged.
    """
    if not 0.0 <= gain_cap_db < np.inf:
        raise ValueError(f"gain cap must be a finite non-negative dB value, got {gain_cap_db}")
    series = FrameSeries.of(frames)
    if not len(series):
        raise ValueError("through calibration needs at least one frame")
    n = series.n_seq

    avg = np.mean(series.h, axis=0)
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
        created_from=len(series),
        clamped_bins=np.flatnonzero(clamped),
    )


def _dc_bin_count(suppression_bw_hz: float, fs: float, n: int) -> int:
    """Number of spectral bins covered by the suppression bandwidth,
    never fewer than one."""
    return max(1, int(round(suppression_bw_hz / (fs / n))))


def remove_dc_bias(x, suppression_bw_hz: float, fs: float):
    """Fade out the spectral band around 0 Hz and re-interpolate it.

    ``suppression_bw_hz`` must be below ``fs / 4``.  The bins within the
    band (in centered spectral order, around the DC bin) are replaced by
    a straight line, separately in the real and imaginary parts, between
    the nearest untouched bins on either side.  Everything outside the
    band is untouched, and running the operation twice is a no-op the
    second time.

    Accepts an :class:`ImpulseResponseFrame` or a :class:`FrameSeries`
    (returns a new one with every row patched) or bare spectra in FFT
    bin order along the last axis (returns the patched spectra).
    """
    if not 0 < suppression_bw_hz < fs / 4:
        raise ValueError(
            f"suppression bandwidth must lie in (0, fs/4) = (0, {fs / 4}), "
            f"got {suppression_bw_hz}"
        )

    is_frame = isinstance(x, (ImpulseResponseFrame, FrameSeries))
    spec = np.fft.fft(x.h, axis=-1) if is_frame else np.array(x, dtype=np.complex128, ndmin=1)
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
    spec[..., gap] = (1.0 - w) * spec[..., lo, None] + w * spec[..., hi, None]

    if is_frame:
        return replace(x, h=np.fft.ifft(spec, axis=-1, out=spec))
    return spec


@dataclass
class DownsampledResponse:
    """Band-extracted impulse response at a reduced effective rate."""

    h: np.ndarray
    rate_hz: float
    cutoff_hz: float
    band_center_hz: float
    band_bins: int


def downsample_lowpass(x, threshold_db: float, fs: float) -> DownsampledResponse:
    """Extract the occupied spectral band and drop the empty rest.

    Starting from the PSD maximum, the band grows outward (circularly)
    while the PSD stays within ``threshold_db`` of the maximum;
    ``threshold_db`` must be negative.  The band's bins are cut out of
    the centered spectrum and returned as a shorter response whose
    effective rate is ``fs * band_bins / n``.  Amplitudes follow the
    decimation convention (spectrum scaled by ``band_bins / n``), so a
    tap that survives in-band keeps its time-domain gain and total
    energy never grows.  A spectrally flat input comes back at full
    rate, unchanged.
    """
    if not threshold_db < 0:
        raise ValueError(f"threshold must be negative dB, got {threshold_db}")

    h = np.asarray(x.h if isinstance(x, ImpulseResponseFrame) else x, dtype=np.complex128)
    if h.ndim != 1 or len(h) == 0:
        raise ValueError("response must be a non-empty 1-d vector")
    n = len(h)

    shifted = np.fft.fftshift(np.fft.fft(h))
    psd = np.abs(shifted) ** 2
    peak = psd.max()
    if peak == 0.0:
        raise ValueError("cannot locate an occupied band in an all-zero response")
    limit = peak * 10.0 ** (threshold_db / 10.0)

    p = int(np.argmax(psd))
    lo = p
    while psd[(lo - 1) % n] >= limit and p - lo < n - 1:
        lo -= 1
    hi = p
    while psd[(hi + 1) % n] >= limit and (hi - lo) < n - 1:
        hi += 1
    band = np.arange(lo, hi + 1) % n
    band_bins = len(band)

    if band_bins == n:
        # Fully occupied spectrum: nothing to cut, return as-is.
        return DownsampledResponse(
            h=h.copy(),
            rate_hz=fs,
            cutoff_hz=fs / 2.0,
            band_center_hz=0.0,
            band_bins=n,
        )

    segment = shifted[band]
    # band_bins / n is the decimation gain: in-band tap amplitudes stay put.
    h_out = np.fft.ifft(np.fft.ifftshift(segment)) * (band_bins / n)

    df = fs / n
    center_bin = (lo + hi) / 2.0 - n // 2
    return DownsampledResponse(
        h=h_out,
        rate_hz=fs * band_bins / n,
        cutoff_hz=band_bins * df / 2.0,
        band_center_hz=center_bin * df,
        band_bins=band_bins,
    )
