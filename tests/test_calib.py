"""Calibration tests: spectral inversion with gain cap, DC-bias removal,
PSD-threshold down-sampling."""

import numpy as np
import pytest

from chansounder.calib import (
    CalibrationProfile,
    downsample_lowpass,
    identity_profile,
    remove_dc_bias,
    through_calibrate,
)
from chansounder.calib import _dc_bin_count
from chansounder.frames import ImpulseResponseFrame

from conftest import random_complex


class TestThroughCalibrate:
    def test_rejects_negative_gain_cap(self):
        h = np.zeros(16, dtype=complex)
        h[0] = 1.0
        with pytest.raises(ValueError, match="gain cap"):
            through_calibrate([h], gain_cap_db=-1.0)

    @pytest.mark.parametrize("cap", [float("inf"), float("nan")])
    def test_rejects_non_finite_gain_cap(self, cap):
        h = np.zeros(16, dtype=complex)
        h[0] = 1.0
        with pytest.raises(ValueError, match="gain cap must be a finite non-negative dB value"):
            through_calibrate([h], gain_cap_db=cap)

    def test_inverts_known_response(self):
        n = 64
        h = np.zeros(n, dtype=complex)
        h[0], h[2] = 1.0, 0.3 - 0.1j
        profile = through_calibrate([h])
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
        profile = through_calibrate([h + noise, h - noise])
        assert np.allclose(profile.spectrum(), 1.0, atol=1e-9)
        assert profile.created_from == 2

    def test_gain_cap_clamps_and_flags(self):
        n = 16
        spec = np.ones(n, dtype=complex)
        spec[5] = 1e-4 * np.exp(0.7j)  # inverse would be 80 dB
        h = np.fft.ifft(spec)
        profile = through_calibrate([h], gain_cap_db=40.0)
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
        profile = through_calibrate([np.zeros(8, dtype=complex)], gain_cap_db=40.0)
        assert profile.clamped_bins.tolist() == list(range(8))
        assert np.allclose(profile.spectrum(), 100.0 + 0j, atol=1e-9)

    def test_accepts_frames_and_vectors(self):
        h = np.zeros(8, dtype=complex)
        h[0] = 2.0
        fr = ImpulseResponseFrame(h, 0.0, 0)
        p1 = through_calibrate([fr])
        p2 = through_calibrate([h])
        assert np.array_equal(p1.h_ftt, p2.h_ftt)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            through_calibrate([])
        with pytest.raises(ValueError, match="one length"):
            through_calibrate([np.ones(8), np.ones(9)])

    def test_identity_profile(self):
        p = identity_profile(16)
        assert p.source == "identity"
        assert np.allclose(p.spectrum(), 1.0)
        with pytest.raises(ValueError):
            identity_profile(0)

    def test_profile_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            CalibrationProfile(h_ftt=np.array([]))


class TestRemoveDcBias:
    def test_bin_count_rule(self):
        # full-scale numbers: 781 kHz at 100 MSps over 1024 bins -> 8 bins
        assert _dc_bin_count(781e3, 100e6, 1024) == 8
        # never fewer than one bin
        assert _dc_bin_count(1.0, 100e6, 1024) == 1

    def test_dc_line_removed_from_delta(self):
        n = 128
        fs = 1e6
        h = np.zeros(n, dtype=complex)
        h[0] = 1.0
        h += 0.1  # additive DC offset
        out = remove_dc_bias(ImpulseResponseFrame(h, 0.0, 0), 7810.0, fs)
        residual_dc = abs(np.mean(out.h - np.where(np.arange(n) == 0, 1.0, 0.0)))
        assert residual_dc <= 0.1 * 10 ** (-40 / 20)

    def test_out_of_band_bins_untouched(self, rng):
        n = 64
        fs = 1e6
        spec = random_complex(rng, n)
        out = remove_dc_bias(spec, 50e3, fs)
        n_b = _dc_bin_count(50e3, fs, n)
        shifted_in = np.fft.fftshift(spec)
        shifted_out = np.fft.fftshift(out)
        g0 = n // 2 - n_b // 2
        outside = np.r_[0:g0, g0 + n_b : n]
        assert np.array_equal(shifted_out[outside], shifted_in[outside])

    def test_gap_is_linear_interpolation(self, rng):
        n = 32
        fs = 1e6
        spec = random_complex(rng, n)
        bw = 4 * fs / n  # 4 bins
        out = np.fft.fftshift(remove_dc_bias(spec, bw, fs))
        g0 = n // 2 - 2
        left, right = out[g0 - 1], out[g0 + 4]
        for j in range(4):
            w = (j + 1) / 5
            want = (1 - w) * left + w * right
            assert out[g0 + j] == pytest.approx(want, abs=1e-12)

    def test_idempotent(self, rng):
        n = 64
        fs = 1e6
        spec = random_complex(rng, n)
        once = remove_dc_bias(spec, 30e3, fs)
        twice = remove_dc_bias(once, 30e3, fs)
        assert np.allclose(once, twice, atol=1e-15)

    def test_bandwidth_bound(self):
        with pytest.raises(ValueError, match="fs/4"):
            remove_dc_bias(np.ones(16, dtype=complex), 2.6e5, 1e6)
        with pytest.raises(ValueError, match="fs/4"):
            remove_dc_bias(np.ones(16, dtype=complex), 0.0, 1e6)

    def test_frame_metadata_preserved(self):
        fr = ImpulseResponseFrame(np.ones(32, dtype=complex), 3e-3, 7, corrected=True)
        out = remove_dc_bias(fr, 10e3, 1e6)
        assert out.t_i == 3e-3
        assert out.sequence_index == 7
        assert out.corrected


class TestDownsample:
    def test_brickwall_half_band(self):
        n = 128
        fs = 1e6
        shifted = np.zeros(n, dtype=complex)
        shifted[n // 4 : 3 * n // 4] = 1.0  # centered half band
        h = np.fft.ifft(np.fft.ifftshift(shifted))
        out = downsample_lowpass(h, -30.0, fs)
        assert out.band_bins == n // 2
        assert out.rate_hz == pytest.approx(fs / 2)
        assert out.cutoff_hz == pytest.approx(fs / 4)
        assert len(out.h) == n // 2
        # decimation keeps the tap amplitude
        assert abs(out.h[0] - h[0]) < 1e-12

    def test_flat_spectrum_full_rate(self):
        n = 64
        h = np.zeros(n, dtype=complex)
        h[0] = 1.0  # flat PSD
        out = downsample_lowpass(h, -3.0, 1e6)
        assert out.band_bins == n
        assert out.rate_hz == 1e6
        assert np.allclose(out.h, h, atol=1e-12)

    def test_energy_never_increases(self, rng):
        fs = 1e6
        for _ in range(10):
            h = random_complex(rng, 64)
            out = downsample_lowpass(h, -6.0, fs)
            assert np.sum(np.abs(out.h) ** 2) <= np.sum(np.abs(h) ** 2) * (1 + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="negative"):
            downsample_lowpass(np.ones(8, dtype=complex), 3.0, 1e6)
        with pytest.raises(ValueError, match="all-zero"):
            downsample_lowpass(np.zeros(8, dtype=complex), -3.0, 1e6)
