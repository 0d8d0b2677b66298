"""Calibration tests: spectral inversion with gain cap."""

import re

import numpy as np
import pytest

from chansounder.calib import CalibrationProfile, through_calibrate
from chansounder.frames import FrameSeries

from conftest import random_complex


def series(*rows, t_i=0.0, sequence_index=0, corrected=False):
    """The frame series of the given responses, one per row."""
    index = sequence_index + np.arange(len(rows))
    return FrameSeries(np.array(rows, dtype=complex, ndmin=2), index, np.full(len(rows), t_i), corrected)


class TestThroughCalibrate:
    def test_rejects_negative_gain_cap(self):
        h = np.zeros(16, dtype=complex)
        h[0] = 1.0
        with pytest.raises(ValueError, match="gain cap"):
            through_calibrate(series(h), gain_cap_db=-1.0)

    @pytest.mark.parametrize("cap", [float("inf"), float("nan")])
    def test_rejects_non_finite_gain_cap(self, cap):
        h = np.zeros(16, dtype=complex)
        h[0] = 1.0
        with pytest.raises(ValueError, match=re.escape(f"gain cap must be finite and non-negative, got {cap}")):
            through_calibrate(series(h), gain_cap_db=cap)

    def test_inverts_known_response(self):
        n = 64
        h = np.zeros(n, dtype=complex)
        h[0], h[2] = 1.0, 0.3 - 0.1j
        profile = through_calibrate(series(h))
        product = np.fft.fft(h) * profile.spectrum()
        assert np.allclose(product, 1.0, atol=1e-9)
        assert profile.source == "through"
        assert profile.created_from == 1
        assert len(profile.clamped_bins) == 0

    def test_coherent_averaging(self, rng):
        n = 32
        h = np.zeros(n, dtype=complex)
        h[0] = 1.0
        noise = random_complex(rng, n, scale=0.1)
        # two frames with opposite perturbations average back to the truth
        profile = through_calibrate(series(h + noise, h - noise))
        assert np.allclose(profile.spectrum(), 1.0, atol=1e-9)
        assert profile.created_from == 2

    def test_gain_cap_clamps_and_flags(self):
        n = 16
        spec = np.ones(n, dtype=complex)
        spec[5] = 1e-4 * np.exp(0.7j)  # inverse would be 80 dB
        h = np.fft.ifft(spec)
        profile = through_calibrate(series(h), gain_cap_db=40.0)
        assert profile.clamped_bins.tolist() == [5]
        inv = profile.spectrum()
        assert abs(inv[5]) == pytest.approx(100.0, rel=1e-9)
        # phase of the inverse is preserved: conj phase of the measured bin
        assert np.angle(inv[5]) == pytest.approx(-0.7, abs=1e-9)
        others = np.delete(inv, 5)
        assert np.allclose(others, 1.0, atol=1e-9)

    def test_zero_bin_clamps_to_real_cap(self):
        # an all-zero frame has exactly-zero bins, so there is no phase to
        # keep and every inverse bin becomes the real-valued cap
        profile = through_calibrate(series(np.zeros(8)), gain_cap_db=40.0)
        assert profile.clamped_bins.tolist() == list(range(8))
        assert np.allclose(profile.spectrum(), 100.0 + 0j, atol=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            through_calibrate(FrameSeries(np.empty((0, 8)), [], []))

    def test_profile_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            CalibrationProfile(h_ftt=np.array([]))
