"""Characterization metric tests with closed-form oracles."""

import math
import os
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chansounder import charmetrics as cm
from chansounder.frames import FrameSeries


def frames_from_matrix(m, t_seq=1e-3, indices=None):
    """Wrap matrix rows as a frame series, on a uniform grid unless
    ``indices`` name the rows' sequence periods."""
    index = np.arange(len(m)) if indices is None else np.asarray(indices)
    return FrameSeries(np.asarray(m, dtype=complex), index, (index + 1) * t_seq)


class TestPdpAndDelays:
    def test_pdp_is_mean_power(self):
        m = np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex)
        assert np.allclose(cm.pdp(frames_from_matrix(m)), [0.5, 2.0])

    def test_two_tap_equal_power_moments(self):
        t_s = 1e-7  # 100 ns per delay bin
        p = np.zeros(64)
        p[0] = p[1] = 0.5
        assert cm.mean_delay(p, t_s) == 5e-8
        assert cm.rms_delay_spread(p, t_s) == 5e-8

    def test_single_tap_zero_spread(self):
        p = np.zeros(32)
        p[4] = 2.0
        assert cm.mean_delay(p, 1e-6) == 4e-6
        assert cm.rms_delay_spread(p, 1e-6) == 0.0

    def test_three_tap_hand_computed(self):
        # powers 1, 2, 1 at delays 0, 1, 3 us:
        # mean = (0 + 2 + 3) / 4 = 1.25 us
        # var = (1*(1.25)^2 + 2*(0.25)^2 + 1*(1.75)^2) / 4 = 1.1875 us^2
        p = np.zeros(8)
        p[0], p[1], p[3] = 1.0, 2.0, 1.0
        assert cm.mean_delay(p, 1e-6) == pytest.approx(1.25e-6, rel=1e-12)
        assert cm.rms_delay_spread(p, 1e-6) == pytest.approx(
            math.sqrt(1.1875) * 1e-6, rel=1e-12
        )

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError, match="no energy"):
            cm.mean_delay(np.zeros(8), 1e-6)
        with pytest.raises(ValueError, match="at least one"):
            cm.pdp(FrameSeries(np.empty((0, 8)), [], []))


class TestFrequencyStats:
    def test_percentiles_match_numpy_on_pooled_db(self):
        m = np.array([[1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]], dtype=complex)
        frames = frames_from_matrix(m)
        stats = cm.frequency_response_stats(frames, fs=1e6)
        pooled = 20 * np.log10(np.abs(np.fft.fft(m, axis=1))).ravel()
        assert stats.h10_db == pytest.approx(np.percentile(pooled, 10))
        assert stats.h50_db == pytest.approx(np.percentile(pooled, 50))
        assert stats.h90_db == pytest.approx(np.percentile(pooled, 90))

    def test_ordering_invariant(self, rng):
        m = rng.standard_normal((5, 16)) + 1j * rng.standard_normal((5, 16))
        stats = cm.frequency_response_stats(frames_from_matrix(m), fs=1e6)
        assert stats.h10_db <= stats.h50_db <= stats.h90_db

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            cm.frequency_response_stats(frames_from_matrix(np.zeros((2, 8))), fs=1e6)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_named(self, rng, bad):
        # a NaN magnitude also fails "max > 0", which once read as all-zero frames
        m = rng.standard_normal((4, 8)) + 0j
        m[2, 5] = bad
        with pytest.raises(ValueError, match="^frames hold non-finite values"):
            cm.frequency_response_stats(frames_from_matrix(m), fs=1e6)


class TestCoherenceBandwidth:
    def test_two_path_closed_form(self):
        # equal-power paths split by D bins: |R(q)|/R(0) = |cos(pi q D / N)|,
        # which crosses 1/2 at q = N / (3 D), i.e. B_C = fs / (3 D).
        n, d, fs = 1024, 16, 1e6
        h = np.zeros(n, dtype=complex)
        h[0] = h[d] = 1.0 / math.sqrt(2)
        bc, crossed = cm.coherence_bandwidth(cm.pdp(frames_from_matrix([h])), fs, threshold=0.5)
        assert crossed
        assert bc == pytest.approx(fs / (3 * d), rel=0.01)

    def test_single_tap_never_crosses(self):
        h = np.zeros(64, dtype=complex)
        h[3] = 1.0
        bc, crossed = cm.coherence_bandwidth(cm.pdp(frames_from_matrix([h])), 1e6)
        assert not crossed
        assert bc == 5e5

    def test_threshold_validated(self):
        h = np.zeros(8, dtype=complex)
        h[0] = 1.0
        with pytest.raises(ValueError, match="threshold"):
            cm.coherence_bandwidth(cm.pdp(frames_from_matrix([h])), 1e6, threshold=1.5)

    def test_narrower_spread_wider_coherence(self):
        fs = 1e6
        out = []
        for d in (4, 16):
            h = np.zeros(256, dtype=complex)
            h[0] = h[d] = 1.0
            out.append(cm.coherence_bandwidth(cm.pdp(frames_from_matrix([h])), fs)[0])
        assert out[0] > out[1]


class TestDoppler:
    def test_single_line_lands_on_grid(self):
        t_seq = 1e-3
        m_frames = 200
        fd = 40.0  # bin 8 of 200 at 5 Hz resolution
        t_i = (np.arange(m_frames) + 1) * t_seq
        rows = np.zeros((m_frames, 16), dtype=complex)
        rows[:, 2] = np.exp(2j * np.pi * fd * t_i)
        dmap = cm.doppler_map(frames_from_matrix(rows, t_seq), t_seq)
        row = dmap.power[:, 2]
        peak_bin = int(np.argmax(row))
        assert dmap.freqs_hz[peak_bin] == pytest.approx(fd)
        assert row[peak_bin] / row.sum() > 0.999999
        assert dmap.resolution_hz == pytest.approx(1.0 / (m_frames * t_seq))
        assert dmap.max_hz == pytest.approx(1.0 / (2 * t_seq))

    def test_gap_rejected_without_zero_fill(self):
        rows = np.ones((3, 4), dtype=complex)
        frames = frames_from_matrix(rows, indices=[0, 1, 3])
        with pytest.raises(ValueError, match="gap"):
            cm.doppler_map(frames, 1e-3)

    def test_gap_zero_filled(self):
        rows = np.ones((3, 4), dtype=complex)
        frames = frames_from_matrix(rows, indices=[0, 1, 3])
        dmap = cm.doppler_map(frames, 1e-3, zero_fill=True)
        assert dmap.n_frames == 4
        assert dmap.zero_filled == 1

    def test_unsorted_rejected(self):
        rows = np.ones((2, 4), dtype=complex)
        frames = frames_from_matrix(rows, indices=[3, 1])
        with pytest.raises(ValueError, match="sorted"):
            cm.doppler_map(frames, 1e-3)

    def test_needs_two_frames(self):
        with pytest.raises(ValueError, match="two frames"):
            cm.doppler_map(frames_from_matrix(np.ones((1, 4))), 1e-3)

    def test_spread_of_symmetric_pair(self):
        # two equal lines at +-f have zero mean and RMS width f
        t_seq = 1e-3
        m_frames = 100
        f = 50.0
        t_i = (np.arange(m_frames) + 1) * t_seq
        rows = np.zeros((m_frames, 4), dtype=complex)
        rows[:, 0] = np.exp(2j * np.pi * f * t_i) + np.exp(-2j * np.pi * f * t_i)
        dmap = cm.doppler_map(frames_from_matrix(rows, t_seq), t_seq)
        assert cm.doppler_spread(dmap) == pytest.approx(f, rel=1e-9)

    def test_static_series_zero_spread_infinite_coherence(self):
        rows = np.tile(np.array([1.0, 0.5j, 0, 0]), (50, 1))
        dmap = cm.doppler_map(frames_from_matrix(rows, 1e-3), 1e-3)
        spread = cm.doppler_spread(dmap)
        assert spread == 0.0
        assert cm.coherence_time(spread) == math.inf

    def test_coherence_time_reciprocal(self):
        assert cm.coherence_time(4.0) == 0.25
        with pytest.raises(ValueError):
            cm.coherence_time(-1.0)

    def test_limits_formulas(self):
        assert cm.max_doppler(1e-3) == 500.0
        assert cm.doppler_resolution(2.0) == 0.5
        with pytest.raises(ValueError):
            cm.max_doppler(0.0)
        with pytest.raises(ValueError):
            cm.doppler_resolution(0.0)


class TestConversions:
    def test_doppler_to_speed(self):
        assert cm.doppler_to_speed(1000.0, 5.8e9) == pytest.approx(
            1000.0 * 299792458.0 / 5.8e9, rel=1e-15
        )
        with pytest.raises(ValueError):
            cm.doppler_to_speed(100.0, 0.0)

    def test_dynamic_range_flat_profile_zero_db(self):
        assert cm.measured_dynamic_range(np.ones(100)) == 0.0

    def test_dynamic_range_known_floor(self):
        p = np.full(100, 1e-4)
        p[7] = 1.0
        assert cm.measured_dynamic_range(p) == pytest.approx(40.0, abs=1e-9)

    def test_dynamic_range_zero_floor_is_inf(self):
        p = np.zeros(100)
        p[0] = 1.0
        assert cm.measured_dynamic_range(p) == math.inf

    def test_max_distance_formula(self):
        assert cm.max_distance_estimate(40.0, 1.0) == pytest.approx(100.0)
        got = cm.max_distance_estimate(45.1, 3.8)
        assert got == pytest.approx(3.8 * 10 ** (45.1 / 20), rel=1e-12)
        with pytest.raises(ValueError):
            cm.max_distance_estimate(40.0, 0.0)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.floats(min_value=1e-6, max_value=1e3, allow_nan=False), min_size=4, max_size=32
    )
)
def test_percentile_ordering_property(mags):
    m = np.array([mags], dtype=complex)
    frames = frames_from_matrix(np.fft.ifft(m, axis=1))
    stats = cm.frequency_response_stats(frames, fs=1e6)
    assert stats.h10_db <= stats.h50_db <= stats.h90_db


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_percentiles_next_to_zero_bins_are_ordered_levels(data):
    # Zero rows give whole rows of zero bins, constant rows zero every bin
    # but DC, and a two-sample row [1, 1] the bin at fs/2.  A level whose
    # position falls among the k -inf entries is -inf; every other level
    # is numpy's percentile of the pooled dB values.
    n = data.draw(st.integers(1, 16), label="N")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    kinds = data.draw(st.lists(st.sampled_from(["zero", "constant", "random"]), min_size=1, max_size=6))
    rows = [
        np.zeros(n) if kind == "zero"
        else np.full(n, rng.standard_normal() + 1j * rng.standard_normal()) if kind == "constant"
        else rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for kind in kinds
    ]
    m = np.array(rows, dtype=complex)
    if not np.abs(m).max() > 0:
        m[0, 0] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = cm.frequency_response_stats(frames_from_matrix(m), fs=1e6)
    levels = [stats.h10_db, stats.h50_db, stats.h90_db]
    assert not any(np.isnan(levels))
    assert levels[0] <= levels[1] <= levels[2]
    with np.errstate(divide="ignore", invalid="ignore"):
        pooled = 20 * np.log10(np.abs(np.fft.fft(m, axis=1))).ravel()
    k = np.count_nonzero(pooled == -np.inf)
    for q, level in zip([10, 50, 90], levels):
        pos = q / 100 * (len(pooled) - 1)
        if pos < k - 1e-9:
            assert level == -np.inf
        elif pos > k + 1e-9:
            assert level == np.percentile(pooled, q)


def test_percentile_in_the_zero_bins_is_minus_inf():
    stats = cm.frequency_response_stats(frames_from_matrix([[1, 1], [1, 1]]), fs=1e6)
    assert (stats.h10_db, stats.h50_db) == (-np.inf, -np.inf)
    assert stats.h90_db == pytest.approx(20 * math.log10(2))


def _weights(shape):
    powers = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_subnormal=False)
    return hnp.arrays(np.float64, shape, elements=st.one_of(st.just(0.0), powers))


@settings(max_examples=80, deadline=None)
@given(p=_weights(st.integers(1, 48)), t_s=st.floats(min_value=1e-9, max_value=1e-3))
def test_delay_moments_equal_their_formulas_exactly(p, t_s):
    total = p.sum()
    if not total > 0:
        with pytest.raises(ValueError, match="power delay profile has no energy"):
            cm.mean_delay(p, t_s)
        with pytest.raises(ValueError, match="power delay profile has no energy"):
            cm.rms_delay_spread(p, t_s)
        return
    tau = np.arange(len(p)) * t_s
    m1 = (tau * p).sum() / total
    var = ((tau - m1) ** 2 * p).sum() / total
    assert cm.mean_delay(p, t_s) == float(m1)
    assert cm.rms_delay_spread(p, t_s) == float(math.sqrt(max(var, 0.0)))


@settings(max_examples=80, deadline=None)
@given(
    power=_weights(st.tuples(st.integers(2, 24), st.integers(1, 8))),
    t_seq=st.floats(min_value=1e-6, max_value=1.0),
)
def test_doppler_spread_equals_its_formula_exactly(power, t_seq):
    freqs = np.fft.fftshift(np.fft.fftfreq(len(power), d=t_seq))
    dmap = cm.DopplerMap(power=power, freqs_hz=freqs, t_seq=t_seq, n_frames=len(power))
    s = power.sum(axis=1)
    total = s.sum()
    if not total > 0:
        with pytest.raises(ValueError, match="Doppler map has no energy"):
            cm.doppler_spread(dmap)
        return
    m1 = (freqs * s).sum() / total
    var = ((freqs - m1) ** 2 * s).sum() / total
    assert cm.doppler_spread(dmap) == float(math.sqrt(max(var, 0.0)))
    assert dmap.max_hz == 1.0 / (2.0 * t_seq)
    assert dmap.resolution_hz == 1.0 / (len(power) * t_seq)


class TestReport:
    def make_frames(self):
        t_seq = 16 / 1e6
        rows = np.zeros((20, 16), dtype=complex)
        rows[:, 0] = 1.0
        rows[:, 3] = 0.5j
        return frames_from_matrix(rows, t_seq)

    def test_characterize_aggregates(self):
        rep = cm.characterize(self.make_frames(), fs=1e6, f_c=5.8e9, d_ref_m=3.8)
        assert rep.n_frames == 20
        assert rep.n_seq == 16
        assert rep.t_seq == 16e-6
        assert rep.doppler is not None
        assert rep.doppler_spread_hz == 0.0
        assert rep.coherence_time_s == math.inf
        assert rep.speed_for_spread_mps == 0.0
        assert rep.max_distance_m > 3.8
        assert rep.dynamic_range_db == math.inf

    def test_single_frame_skips_doppler(self):
        rep = cm.characterize(self.make_frames()[:1], fs=1e6)
        assert rep.doppler is None
        assert any("fewer than two" in n for n in rep.notes)

    def test_gapped_grid_note(self):
        frames = self.make_frames()
        keep = np.r_[0:5, 6 : len(frames)]
        frames = FrameSeries(frames.h[keep], frames.sequence_index[keep], frames.t_i[keep])
        rep = cm.characterize(frames, fs=1e6)
        assert rep.doppler is None
        assert any("gap" in n for n in rep.notes)
        rep2 = cm.characterize(frames, fs=1e6, doppler_zero_fill=True)
        assert rep2.doppler is not None

    def test_report_text_deterministic(self):
        rep = cm.characterize(self.make_frames(), fs=1e6)
        assert cm.report_text(rep) == cm.report_text(rep)
        text = cm.report_text(rep)
        for key in (
            "frames = 20",
            "sequence_length = 16",
            "rms_delay_spread_s",
            "coherence_bandwidth_hz",
            "dynamic_range_db",
            "doppler_spread_hz",
        ):
            assert key in text

    def test_export_csv(self, tmp_path):
        rep = cm.characterize(self.make_frames(), fs=1e6)
        base = str(tmp_path / "rep")
        paths = cm.export_csv(rep, base)
        assert len(paths) == 3 and all(
            p.endswith(s) for p, s in zip(paths, (".pdp.csv", ".psd.csv", ".doppler.csv"))
        )
        blobs1 = [Path(p).read_bytes() for p in paths]
        cm.export_csv(rep, base)
        blobs2 = [Path(p).read_bytes() for p in paths]
        assert blobs1 == blobs2
        pdp_lines = blobs1[0].decode().splitlines()
        assert pdp_lines[0] == "delay_s,power"
        assert len(pdp_lines) == 17

    def test_export_csv_matches_per_value_repr(self, tmp_path):
        # the rendering the kernel replaced: one repr(float(v)) per value
        # and the delay as i * t_s; once on a characterized series, once on
        # a hand-built report of zeros, subnormals, negatives, specials and
        # values on both sides of the positional/scientific switch
        for name, rep in (("rep", cm.characterize(self.make_frames(), fs=3e6)), ("awkward", awkward_report())):
            paths = cm.export_csv(rep, str(tmp_path / name))
            assert [Path(p).read_bytes() for p in paths] == per_value_repr_csv(rep)

    def test_pdp_computed_once(self, monkeypatch):
        calls = []

        def counting_pdp(frames):
            calls.append(1)
            return pdp(frames)

        pdp = cm.pdp
        monkeypatch.setattr(cm, "pdp", counting_pdp)
        rep = cm.characterize(self.make_frames(), fs=1e6)
        assert len(calls) == 1
        assert (rep.coherence_bw_hz, rep.coherence_bw_crossed) == cm.coherence_bandwidth(
            cm.pdp(self.make_frames()), 1e6
        )


AWKWARD = [
    0.0, -0.0, 5e-324, 8e-323, 2.2250738585072014e-308, -1.5, 0.1, -7e-10, 1e-4, 9.999999999999999e-05,
    1e-5, 0.00012345678901234567, 1e16, 9999999999999998.0, 1.2345678901234567e16, 1e22, -3e300,
    123456.0, 1.7976931348623157e308, math.inf, -math.inf, math.nan,
]


def awkward_report() -> cm.CharacterizationReport:
    """A report whose tables hold every kind of text the CSV kernel lays out."""
    values = np.array(AWKWARD)
    n = len(values)
    power = np.concatenate([values, -values[::-1], np.roll(values, 5)]).reshape(3, n)
    stats = cm.FrequencyStats(freqs_hz=-values[::-1], mean_psd=values, h10_db=0.0, h50_db=0.0, h90_db=0.0)
    dmap = cm.DopplerMap(power=power, freqs_hz=np.array([-1e-5, 0.0, 12.5]), t_seq=1e-3, n_frames=3)
    return cm.CharacterizationReport(
        n_frames=3, n_seq=n, fs=3e4, t_seq=n / 3e4, pdp=values, mean_delay_s=0.0,
        rms_delay_spread_s=0.0, freq_stats=stats, coherence_bw_hz=0.0, coherence_bw_crossed=False,
        dynamic_range_db=0.0, doppler=dmap,
    )


def per_value_repr_csv(rep: cm.CharacterizationReport) -> list[bytes]:
    """The three CSV files of ``rep`` written one ``repr`` per value."""
    t_s = 1.0 / rep.fs
    dm = rep.doppler
    texts = [
        "delay_s,power\n"
        + "".join(f"{i * t_s!r},{float(v)!r}\n" for i, v in enumerate(rep.pdp)),
        "freq_hz,power\n"
        + "".join(
            f"{float(f)!r},{float(v)!r}\n"
            for f, v in zip(rep.freq_stats.freqs_hz, rep.freq_stats.mean_psd)
        ),
        "delay_s," + ",".join(repr(float(f)) for f in dm.freqs_hz) + "\n"
        + "".join(
            f"{tau * t_s!r}," + ",".join(repr(float(v)) for v in dm.power[:, tau]) + "\n"
            for tau in range(dm.power.shape[1])
        ),
    ]
    return [t.encode("ascii") for t in texts]


@pytest.mark.parametrize("batch", [1, 4, 7, cm._CSV_BATCH])
@pytest.mark.parametrize("shape", [(1, 1), (9, 1), (1, 12), (5, 3), (4, 10)])
def test_csv_rows_are_per_value_repr_at_every_batch_edge(tmp_path, monkeypatch, batch, shape):
    # widths that do not divide the batch, rows wider than it, 1-column
    # tables and one-row tables
    monkeypatch.setattr(cm, "_CSV_BATCH", batch)
    rng = np.random.default_rng(batch * 100 + shape[1])
    rows = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 20, shape)
    first = np.arange(shape[0]) / 3e4
    cm._write_csv(str(tmp_path / "t.csv"), b"h\n", first, rows)
    want = "h\n" + "".join(
        ",".join(map(repr, [lead] + row)) + "\n" for lead, row in zip(first.tolist(), rows.tolist())
    )
    assert (tmp_path / "t.csv").read_bytes() == want.encode("ascii")


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40), st.integers(1, 60), st.integers(1, 64), st.integers(0, 2**32 - 1))
def test_csv_batching_is_per_value_repr(n_rows, n_cols, batch, seed):
    # whole-row batches of any size, rows wider than the batch among them,
    # with every kind of text the kernel lays out
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n_rows, n_cols)) * 10.0 ** rng.integers(-8, 20, (n_rows, n_cols))
    rows.flat[rng.integers(0, rows.size, rows.size // 4)] = rng.choice(AWKWARD, rows.size // 4)
    first = rng.exponential(1e-4, n_rows)
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        patch.setattr(cm, "_CSV_BATCH", batch)
        path = os.path.join(tmp, "t.csv")
        cm._write_csv(path, b"h\n", first, rows)
        got = Path(path).read_bytes()
    want = "h\n" + "".join(
        ",".join(map(repr, [lead] + row)) + "\n" for lead, row in zip(first.tolist(), rows.tolist())
    )
    assert got == want.encode("ascii")


def test_row_wider_than_the_batch(tmp_path):
    rows = np.random.default_rng(3).exponential(1e-6, (2, cm._CSV_BATCH + 5))
    cm._write_csv(str(tmp_path / "t.csv"), b"", np.array([0.5, 1.5]), rows)
    lines = (tmp_path / "t.csv").read_text(encoding="ascii").splitlines()
    assert lines == [",".join(map(repr, [lead] + row)) for lead, row in zip([0.5, 1.5], rows.tolist())]


def _whole_matrix_metrics(m, idx, fs, t_seq):
    """pdp, frequency_response_stats and zero-filled doppler_map written
    as whole-matrix formulas: each transforms the full (F, N) or (span, N)
    matrix at once and keeps the complex spectrum."""
    mags = np.abs(np.fft.fft(m, axis=1))
    with np.errstate(divide="ignore"):
        pooled_db = 20.0 * np.log10(mags).ravel()
    span = int(idx[-1] - idx[0]) + 1
    full = np.zeros((span, m.shape[1]), dtype=np.complex128)
    full[idx - idx[0]] = m
    spec = np.fft.fftshift(np.fft.fft(full, axis=0), axes=0)
    # numpy's linear percentile interpolates from position (M - 1) * q; a
    # level whose position falls among the k -inf entries is -inf
    q = np.array([10.0, 50.0, 90.0])
    k = np.count_nonzero(pooled_db == -np.inf)
    with np.errstate(invalid="ignore"):
        levels = np.percentile(pooled_db, q)
    return {
        "pdp": np.mean(np.abs(m) ** 2, axis=0),
        "mean_psd": np.fft.fftshift(np.mean(mags**2, axis=0)),
        "levels": np.where((len(pooled_db) - 1) * (q / 100) < k, -np.inf, levels),
        "power": np.abs(spec) ** 2,
        "doppler_freqs": np.fft.fftshift(np.fft.fftfreq(span, d=t_seq)),
        "span": span,
        "missing": span - len(m),
    }


@st.composite
def _gapped_series(draw):
    """A random (F, N) series on sorted sequence indices with random gaps,
    some responses exactly zero."""
    n_frames, n_seq = draw(st.integers(2, 40)), draw(st.integers(1, 40))
    steps = draw(st.lists(st.integers(1, 3), min_size=n_frames - 1, max_size=n_frames - 1))
    idx = draw(st.integers(0, 5)) + np.concatenate([[0], np.cumsum(steps, dtype=np.int64)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = rng.standard_normal((n_frames, n_seq)) + 1j * rng.standard_normal((n_frames, n_seq))
    h *= 10.0 ** draw(st.integers(-3, 3))
    if draw(st.booleans()):
        h[rng.random(h.shape) < 0.3] = 0
    return FrameSeries(h, idx, np.zeros(n_frames))


@pytest.mark.parametrize("batch", [1, 3, 1 << 20])  # one row, uneven cuts, one batch
@settings(max_examples=60, deadline=None)
@given(series=_gapped_series())
def test_batched_metrics_equal_the_whole_matrix_formulas_bit_for_bit(batch, series):
    fs, t_seq = 1e6, 1e-3
    want = _whole_matrix_metrics(np.asarray(series.h), series.sequence_index, fs, t_seq)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cm, "_BATCH", batch)
        p = cm.pdp(series)
        stats = cm.frequency_response_stats(series, fs)
        dmap = cm.doppler_map(series, t_seq, zero_fill=True)
    assert np.array_equal(p, want["pdp"])
    assert np.array_equal(stats.mean_psd, want["mean_psd"])
    levels = [stats.h10_db, stats.h50_db, stats.h90_db]
    assert np.array_equal(levels, want["levels"])
    assert np.array_equal(dmap.power, want["power"])
    assert np.array_equal(dmap.freqs_hz, want["doppler_freqs"])
    assert (dmap.n_frames, dmap.zero_filled) == (want["span"], want["missing"])


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class TestBoundedMemory:
    """Each (F, N) metric holds one float64 result matrix plus a batch."""

    def test_characterize_allocates_at_most_26_bytes_per_sample(self, rng):
        n_frames, n_seq = 199, 1024  # a doppler_sound frame series
        h = rng.standard_normal((n_frames, n_seq)) + 1j * rng.standard_normal((n_frames, n_seq))
        series = FrameSeries(h, np.arange(1, n_frames + 1), np.zeros(n_frames))
        del h
        cm.characterize(series[:4], fs=1e6)  # numpy imports its FFT helpers on first use
        report, peak = _traced_peak(lambda: cm.characterize(series, fs=1e6))
        assert report.doppler is not None
        assert peak <= 26 * n_frames * n_seq, f"{peak / (n_frames * n_seq):.1f} B/sample"

    def test_export_csv_allocates_a_bounded_batch(self, tmp_path, rng):
        # what export allocates above its inputs stays under 2 MiB and does
        # not grow with the Doppler map: the CSV text goes out batch by batch
        def traced_export(n_frames):
            rep = awkward_report()
            rep.pdp = rep.freq_stats.freqs_hz = rep.freq_stats.mean_psd = rng.exponential(1e-6, 1024)
            rep.fs = 1e6
            power = rng.exponential(1e-9, (n_frames, 1024))
            rep.doppler = cm.DopplerMap(power, np.fft.fftshift(np.fft.fftfreq(n_frames, 1e-3)), 1e-3, n_frames)
            return _traced_peak(lambda: cm.export_csv(rep, str(tmp_path / f"f{n_frames}")))[1]

        traced_export(2)  # tables built on first use
        small, large = traced_export(200), traced_export(800)
        assert large < 2 * 2**20, f"peak {large} B"
        assert large < 1.1 * small, f"peak {small} B at 200 frames, {large} B at 800"

    def test_export_csv_of_doppler_sound_tables_peaks_under_0_9_mb(self, tmp_path, rng):
        # doppler_sound's tables: a 1,024-row PDP and PSD, and a 199 x 1,024
        # Doppler map; the export sets that workload's memory peak
        rep = awkward_report()
        rep.pdp, rep.freq_stats.mean_psd = rng.exponential(1e-6, (2, 1024))
        rep.freq_stats.freqs_hz = np.fft.fftshift(np.fft.fftfreq(1024, 1e-6))
        rep.fs = 1e6
        freqs = np.fft.fftshift(np.fft.fftfreq(199, 1.024e-3))
        rep.doppler = cm.DopplerMap(rng.exponential(1e-9, (199, 1024)), freqs, 1.024e-3, 199)
        cm.export_csv(rep, str(tmp_path / "warm"))  # tables built on first use
        peak = _traced_peak(lambda: cm.export_csv(rep, str(tmp_path / "run")))[1]
        assert peak <= 0.9e6, f"peak {peak} B above the report"

    def test_zero_filled_doppler_map_holds_one_grid_plus_one_batch(self, rng):
        span, n_seq = 1000, 127
        idx = np.sort(rng.choice(span, 900, replace=False))
        idx[[0, -1]] = 0, span - 1
        h = rng.standard_normal((len(idx), n_seq)) + 1j * rng.standard_normal((len(idx), n_seq))
        series = FrameSeries(h, idx, np.zeros(len(idx)))
        del h
        cm.doppler_map(series[:4], 1e-3, zero_fill=True)
        dmap, peak = _traced_peak(lambda: cm.doppler_map(series, 1e-3, zero_fill=True))
        assert dmap.power.shape == (span, n_seq) and dmap.zero_filled == span - 900
        batch = span * cm._BATCH * np.dtype(np.complex128).itemsize
        ufunc_buffers = 256 * 1024  # numpy buffers 8192 elements per operand
        assert peak <= dmap.power.nbytes + batch + ufunc_buffers, f"peak {peak} B"
