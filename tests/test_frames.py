"""FrameSeries: one matrix that reads as a sequence of frames."""

import numpy as np
import pytest

from chansounder.frames import FrameSeries, ImpulseResponseFrame

from conftest import random_complex


def make_series(rng, count=4, n=8):
    return FrameSeries(
        random_complex(rng, (count, n)),
        sequence_index=2 * np.arange(count),
        t_i=(np.arange(count) + 1) * 1e-5,
        corrected=np.arange(count) == 1,
    )


class TestFrameSeries:
    def test_rows_read_back_as_frames(self, rng):
        series = make_series(rng)
        assert series.h.shape == (4, 8) and series.h.dtype == np.complex128
        assert series.n_seq == 8
        assert series.sequence_index.tolist() == [0, 2, 4, 6]
        assert series.corrected.tolist() == [False, True, False, False]
        rows = list(series)
        assert len(rows) == 4 and all(isinstance(fr, ImpulseResponseFrame) for fr in rows)
        for i, fr in enumerate(rows):
            assert np.array_equal(fr.h, series.h[i])
            assert (fr.t_i, fr.sequence_index, fr.corrected) == ((i + 1) * 1e-5, 2 * i, i == 1)

    def test_indexing_and_slicing(self, rng):
        series = make_series(rng)
        assert series[-1].sequence_index == 6
        part = series[1:3]
        assert isinstance(part, FrameSeries)
        assert part.sequence_index.tolist() == [2, 4]
        assert part.corrected.tolist() == [True, False]
        with pytest.raises(IndexError):
            series[4]

    def test_read_only(self, rng):
        series = make_series(rng)
        with pytest.raises(ValueError):
            series.h[0, 0] = 0.0
        with pytest.raises(ValueError):
            series[0].h[0] = 0.0

    def test_scalar_corrected_applies_to_every_row(self):
        series = FrameSeries(np.zeros((3, 4)), [0, 1, 2], [0.0, 1.0, 2.0], corrected=True)
        assert series.corrected.tolist() == [True, True, True]

    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            FrameSeries(np.zeros((2, 4)), [0, -1], [0.0, 1.0])
        with pytest.raises(ValueError, match="per frame"):
            FrameSeries(np.zeros((2, 4)), [0], [0.0, 1.0])
        with pytest.raises(ValueError, match="matrix"):
            FrameSeries(np.zeros(4), [0], [0.0])
