"""Sequence generator tests.

Expected values for the small cases were derived by hand (the LFSR
stepped manually for the length-7 sequence, direct evaluation of the
polyphase formula for lengths 3 and 4) and are frozen here.
"""

import cmath
import math
import re
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chansounder import seqgen
from chansounder.seqgen import (
    Sequence,
    bind_rate,
    descriptor,
    from_descriptor,
    generate_fzc,
    generate_mls,
)

from conftest import oracle_pacf


# Hand-run of the l=3, taps {3,2} register seeded with ones:
# states 111 -> 011 -> 001 -> 100 -> 010 -> 101 -> 110 -> 111,
# outputs 1,1,1,0,0,1,0; bit 0 maps to +1, bit 1 to -1.
MLS_L3_EXPECTED = [-1, -1, -1, 1, 1, -1, 1]


class TestMls:
    def test_l3_frozen_sequence(self):
        seq = generate_mls(3)
        assert seq.samples.real.astype(int).tolist() == MLS_L3_EXPECTED
        assert np.all(seq.samples.imag == 0)

    def test_length_and_alphabet(self):
        for l in (2, 3, 5, 8, 10):
            seq = generate_mls(l)
            assert seq.n_seq == 2**l - 1
            assert set(seq.samples.real.astype(int).tolist()) == {1, -1}
            assert seq.family == "mls"
            assert seq.v_oop == -1.0

    @pytest.mark.parametrize("l", range(2, 13))
    def test_pacf_is_two_valued_integer_exact(self, l):
        seq = generate_mls(l)
        s = seq.samples.real.astype(np.int64)
        n = len(s)
        vals = np.array([np.dot(s, np.roll(s, k)) for k in range(n)])
        assert vals[0] == n
        assert np.all(vals[1:] == -1)

    def test_small_case_against_loop_oracle(self):
        seq = generate_mls(4)
        vals = oracle_pacf(seq.samples)
        assert abs(vals[0] - 15) < 1e-12
        assert all(abs(v + 1) < 1e-12 for v in vals[1:])

    def test_non_primitive_taps_rejected(self):
        # x^4 + x^2 + 1 factors, so the register is not maximal-length.
        with pytest.raises(ValueError, match="not primitive"):
            generate_mls(4, taps=(4, 2))

    def test_caller_taps_accepted_when_primitive(self):
        seq = generate_mls(4, taps=(4, 1))
        assert seq.n_seq == 15
        assert seq.params["taps"] == (4, 1)

    def test_register_length_bounds(self):
        with pytest.raises(ValueError):
            generate_mls(1)
        with pytest.raises(ValueError):
            generate_mls(25)
        with pytest.raises(ValueError, match="no built-in tap set"):
            generate_mls(17)

    def test_tap_validation(self):
        with pytest.raises(ValueError):
            generate_mls(5, taps=())
        with pytest.raises(ValueError):
            generate_mls(5, taps=(6, 5))
        with pytest.raises(ValueError):
            generate_mls(5, taps=(0, 5))


class TestFzc:
    def test_n3_frozen_values(self):
        seq = generate_fzc(3, 1)
        expected = [1.0 + 0j, cmath.exp(-2j * cmath.pi / 3), cmath.exp(-2j * cmath.pi)]
        assert np.allclose(seq.samples, expected, atol=1e-15)

    def test_n4_frozen_values_and_zero_lag1(self):
        seq = generate_fzc(4, 1)
        expected = [
            1.0 + 0j,
            cmath.exp(-1j * cmath.pi / 4),
            cmath.exp(-1j * cmath.pi),
            cmath.exp(-9j * cmath.pi / 4),
        ]
        assert np.allclose(seq.samples, expected, atol=1e-15)
        vals = oracle_pacf(seq.samples)
        assert abs(vals[1]) < 1e-12

    @pytest.mark.parametrize(
        "n,u", [(7, 1), (8, 3), (16, 5), (63, 2), (64, 7), (101, 10), (1000, 7), (1024, 7)]
    )
    def test_pacf_perfect(self, n, u):
        seq = generate_fzc(n, u)
        spec = np.fft.fft(seq.samples)
        vals = np.fft.ifft(spec * np.conj(spec))
        assert abs(vals[0] - n) < 1e-9 * n
        assert np.max(np.abs(vals[1:])) < 1e-9 * n

    @pytest.mark.parametrize("n,u", [(32, 3), (1024, 7), (63, 5)])
    def test_dft_magnitude_flat(self, n, u):
        seq = generate_fzc(n, u)
        mags = np.abs(np.fft.fft(seq.samples))
        assert np.max(np.abs(mags - math.sqrt(n))) < 1e-9 * math.sqrt(n)

    def test_small_case_against_loop_oracle(self):
        seq = generate_fzc(7, 2)
        vals = oracle_pacf(seq.samples)
        assert abs(vals[0] - 7) < 1e-12
        assert all(abs(v) < 1e-12 for v in vals[1:])

    def test_root_not_coprime_rejected(self):
        with pytest.raises(ValueError, match="coprime"):
            generate_fzc(1024, 2)
        with pytest.raises(ValueError, match="coprime"):
            generate_fzc(9, 3)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_fzc(1, 1)
        with pytest.raises(ValueError):
            generate_fzc(8, 0)
        with pytest.raises(ValueError):
            generate_fzc(8, -3)

    def test_long_sequence_phase_stays_exact(self):
        # The phase numerator is reduced in integer arithmetic, so even
        # a long sequence keeps unit magnitude and perfect correlation.
        seq = generate_fzc(99991, 7)
        assert np.max(np.abs(np.abs(seq.samples) - 1.0)) < 1e-12
        spec = np.fft.fft(seq.samples)
        vals = np.fft.ifft(spec * np.conj(spec))
        assert np.max(np.abs(vals[1:])) < 1e-6 * len(seq.samples)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=200), st.integers(min_value=1, max_value=199))
def test_fzc_property_perfect_when_coprime(n, u):
    if math.gcd(n, u) != 1:
        with pytest.raises(ValueError):
            generate_fzc(n, u)
        return
    seq = generate_fzc(n, u)
    spec = np.fft.fft(seq.samples)
    vals = np.fft.ifft(spec * np.conj(spec))
    assert np.max(np.abs(vals[1:])) < 1e-8 * n


class TestSequenceType:
    def test_bind_rate_duration(self):
        seq = bind_rate(generate_fzc(1024, 7), 100e6)
        assert seq.duration == 1024 / 100e6
        assert seq.sample_period == 1.0 / 100e6

    def test_unbound_duration_raises(self):
        with pytest.raises(ValueError, match="not bound"):
            generate_fzc(8, 3).duration

    def test_bind_rate_validation(self):
        with pytest.raises(ValueError):
            bind_rate(generate_fzc(8, 3), 0.0)

    @pytest.mark.parametrize("fs", [math.inf, math.nan, -1.0, 5e-324, sys.float_info.max])
    def test_bind_rate_rejects_an_unusable_rate(self, fs):
        # an infinite rate would bind a sample period and duration of 0 s,
        # a rate of 5e-324 a sample period of inf, and the greatest float
        # a sample period of 2**-1024, whose reciprocal is inf
        rule = "positive and finite with a finite reciprocal whose reciprocal is finite"
        with pytest.raises(ValueError, match=re.escape(f"sample rate must be {rule}, got {fs}") + "$"):
            bind_rate(generate_fzc(8, 3), fs)

    def test_generation_is_fast(self):
        t0 = time.perf_counter()
        generate_fzc(1024, 7)
        generate_mls(10)
        assert time.perf_counter() - t0 < 1.0


class TestDescriptor:
    def test_fzc_round_trip(self):
        seq = generate_fzc(1024, 7)
        text = descriptor(seq)
        assert text == "fzc:n=1024:u=7"
        again = from_descriptor(text)
        assert np.array_equal(again.samples, seq.samples)

    def test_mls_round_trip(self):
        seq = generate_mls(10)
        text = descriptor(seq)
        assert text == "mls:l=10:taps=10.7"
        again = from_descriptor(text)
        assert np.array_equal(again.samples, seq.samples)

    @pytest.mark.parametrize(
        "bad", ["", "zc:n=8:u=3", "fzc:n=8", "fzc:n=8:u", "mls:l=10", "fzc:n=x:u=3"]
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            from_descriptor(bad)

    def test_unknown_family_in_descriptor(self):
        seq = Sequence(np.ones(4), "other", {}, 0.0)
        with pytest.raises(ValueError):
            descriptor(seq)
