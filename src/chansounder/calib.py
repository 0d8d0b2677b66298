"""Through calibration.

A through calibration measures everything between the signal source and
the digitizer with the antennas replaced by a direct cable connection,
then builds a per-bin spectral inverse of that forward transmission.
Applying the profile to later measurements removes cables, filters and
converter ripple, leaving the over-the-air channel alone.

Inversion gain is capped (default +40 dB) so near-zero bins do not blow
up the noise floor; clamped bins keep their phase and are recorded in
the profile.  :mod:`sounder` applies it, and checks its length against
the sequence, on the correlation side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .frames import FINITE_NON_NEGATIVE, FrameSeries, check

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
    check(gain_cap_db, *FINITE_NON_NEGATIVE, "gain cap")
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
