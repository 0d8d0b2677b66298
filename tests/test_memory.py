"""Memory held by sounding, stimulating and correlating a capture file:
the frame matrix (and the capture) and a constant, whatever the
campaign's length (``tools/check_memory.py`` checks the same bounds on
longer campaigns)."""

import pytest

from check_memory import CORRELATE_BOUND, SOUNDING_BOUND, STIMULATE_BOUND, correlate_peak, sounding_peak, stimulate_peak
from conftest import on_cpus


@pytest.mark.parametrize("n_samples", [1 << 18, 1 << 21])
def test_run_sounding_holds_little_above_its_frame_matrix(tmp_path, n_samples):
    peak = sounding_peak(n_samples, str(tmp_path))
    assert peak <= SOUNDING_BOUND, f"{peak} B above the frame matrix"


def test_run_sounding_on_more_cpus_than_slices_holds_the_same_bound(tmp_path):
    # the correlation stops at frames.MAX_SLICES slices, whatever the count
    with on_cpus(8):
        peak = sounding_peak(1 << 21, str(tmp_path))
    assert peak <= SOUNDING_BOUND, f"{peak} B above the frame matrix"


@pytest.mark.parametrize("n_samples", [1 << 18, 1 << 21])
def test_stimulate_to_a_file_holds_no_capture(tmp_path, n_samples):
    peak = stimulate_peak(n_samples, str(tmp_path))
    assert peak <= STIMULATE_BOUND, f"{peak} B at the peak"


@pytest.mark.parametrize("n_samples", [1 << 18, 1 << 21])
def test_correlate_from_a_file_holds_little_above_its_frame_matrix_and_capture(tmp_path, n_samples):
    # the .frames goes out batch by batch as the matrix is corrected
    peak = correlate_peak(n_samples, str(tmp_path))
    assert peak <= CORRELATE_BOUND, f"{peak} B above the frame matrix and the capture"
