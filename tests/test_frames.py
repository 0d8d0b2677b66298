"""FrameSeries: one matrix that reads as a sequence of frames."""

import numpy as np
import pytest

from chansounder.frames import FrameSeries, ImpulseResponseFrame

from conftest import random_complex


def make_frames(rng, count=4, n=8):
    return [
        ImpulseResponseFrame(random_complex(rng, n), (i + 1) * 1e-5, 2 * i, corrected=(i == 1))
        for i in range(count)
    ]


class TestFrameSeries:
    def test_of_stacks_frames_row_by_row(self, rng):
        frames = make_frames(rng)
        series = FrameSeries.of(frames)
        assert series.h.shape == (4, 8) and series.h.dtype == np.complex128
        assert series.n_seq == 8
        assert series.sequence_index.tolist() == [0, 2, 4, 6]
        assert series.corrected.tolist() == [False, True, False, False]
        for fr, row in zip(frames, series):
            assert np.array_equal(fr.h, row.h)
            assert (fr.t_i, fr.sequence_index, fr.corrected) == (
                row.t_i,
                row.sequence_index,
                row.corrected,
            )

    def test_of_series_is_identity(self, rng):
        series = FrameSeries.of(make_frames(rng))
        assert FrameSeries.of(series) is series

    def test_of_bare_vectors_and_empty(self, rng):
        series = FrameSeries.of([random_complex(rng, 5), random_complex(rng, 5)])
        assert series.sequence_index.tolist() == [0, 1]
        assert len(FrameSeries.of([])) == 0

    def test_of_mixed_lengths_rejected(self, rng):
        with pytest.raises(ValueError, match="one length"):
            FrameSeries.of([np.ones(4), np.ones(5)])

    def test_indexing_and_slicing(self, rng):
        series = FrameSeries.of(make_frames(rng))
        assert series[-1].sequence_index == 6
        part = series[1:3]
        assert isinstance(part, FrameSeries)
        assert part.sequence_index.tolist() == [2, 4]
        assert part.corrected.tolist() == [True, False]
        with pytest.raises(IndexError):
            series[4]

    def test_read_only(self, rng):
        series = FrameSeries.of(make_frames(rng))
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
