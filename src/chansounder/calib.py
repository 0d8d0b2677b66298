"""Through calibration.

A through calibration measures everything between the signal source and
the digitizer with the antennas replaced by a direct cable connection,
then builds a per-bin spectral inverse of that forward transmission.
Applying the profile to later measurements removes cables, filters and
converter ripple, leaving the over-the-air channel alone.

Inversion gain is capped (default +40 dB) so near-zero bins do not blow
up the noise floor; clamped bins keep their phase and are recorded in
the profile.  A :class:`CalibrationProfile` holds the rules of its
``.csp`` payload: :func:`framestore.write_profile` writes what it
holds, and :func:`framestore.read_profile` builds one from what it
reads.  :mod:`sounder` applies it, and checks its length against the
sequence, on the correlation side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .frames import GAIN_CAP_DB, FrameSeries, check, first_non_finite

DEFAULT_GAIN_CAP_DB = 40.0


@dataclass
class CalibrationProfile:
    """Forward-transmission correction filter.

    ``h_ftt`` is the time-domain correction (the inverse of the averaged
    through response); applying the profile means circular convolution
    with it, so each of its values must be finite.  ``clamped_bins``
    lists spectral bins where the inversion hit the gain cap, each in
    ``[0, n_seq)``.  Both arrays are read-only views, as a
    :class:`FrameSeries`'s are, so a profile keeps the rules it was built to.
    """

    h_ftt: np.ndarray
    source: str = "through"
    gain_cap_db: float = DEFAULT_GAIN_CAP_DB
    created_from: int = 0
    clamped_bins: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self) -> None:
        h_ftt = np.asarray(self.h_ftt, dtype=np.complex128)
        if h_ftt.ndim != 1 or len(h_ftt) == 0:
            raise ValueError("correction filter must be a non-empty vector")
        if (bad := first_non_finite(h_ftt)) is not None:
            raise ValueError(f"calibration-profile value h_ftt[{bad}] is not finite")
        bins = np.asarray(self.clamped_bins, dtype=np.int64)
        if bins.ndim != 1:
            raise ValueError("clamped bins must be a vector")
        outside = bins[(bins < 0) | (bins >= len(h_ftt))]
        if outside.size:
            bound = "< 0" if outside[0] < 0 else f">= n_seq={len(h_ftt)}"
            raise ValueError(f"calibration-profile header field clamped_bins: bin {outside[0]} {bound}")
        check(self.gain_cap_db, *GAIN_CAP_DB, "gain cap")
        # broadcast_to returns read-only views of the same memory.
        self.h_ftt = np.broadcast_to(h_ftt, h_ftt.shape)
        self.clamped_bins = np.broadcast_to(bins, bins.shape)

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
    check(gain_cap_db, *GAIN_CAP_DB, "gain cap")
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
