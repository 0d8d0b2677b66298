"""Check that sounding, stimulating and correlating hold memory that the campaign's length does not set.

Runs one campaign of ``--samples`` samples (FZC-4096 over the default
static channel and cable, SNR 20 dB, 4,096-sample capture blocks) three
times under ``tracemalloc``:

* ``run_sounding`` in process: its peak above its own (F, N) complex128
  frame matrix must stay at or below 1 MB;
* the ``stimulate`` command writing a capture file: its whole peak must
  stay at or below 1.5 MB;
* the ``correlate --input`` command reading the capture that
  ``stimulate`` wrote and writing its ``.frames`` as it correlates: its
  peak above its frame matrix and its complex64 capture must stay at or
  below 1 MB.

Each side first runs a two-period campaign outside the trace, so that
first-use allocations (imports, FFT plans) are not counted.  The peaks
depend on the CPUs the process may run on: on two or more, a second
noisy capture block is made on a helper thread, and the correlation
runs up to :data:`chansounder.frames.MAX_SLICES` batches at once, so run
it pinned too.

    python3 tools/check_memory.py --samples 16777216
    taskset -c 0 python3 tools/check_memory.py --samples 16777216

Prints both peaks and exits 0 when both lie within their bounds, 1 when
one does not.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import tempfile
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from chansounder.cli import main as cli_main  # noqa: E402
from chansounder.config import load_config  # noqa: E402
from chansounder.sounder import run_sounding  # noqa: E402

N_SEQ = 4096
#: Bytes of ``run_sounding``'s peak above its frame matrix.
SOUNDING_BOUND = 1_000_000
#: Bytes of the ``stimulate`` command's peak.
STIMULATE_BOUND = 1_500_000
#: Bytes of the ``correlate --input`` command's peak above its frame matrix and its capture.
CORRELATE_BOUND = 1_000_000


def _config(directory: str, n_samples: int) -> str:
    """Write the campaign's config file into ``directory``; return its path."""
    path = os.path.join(directory, f"mem{n_samples}.cfg")
    with open(path, "w", encoding="utf-8") as f:
        f.write(
            f"sequence.length = {N_SEQ}\n"
            f"n_sequences = {max(1, n_samples // N_SEQ)}\n"
            "channel.snr_db = 20\n"
            "chunk_samples = 4096\n"
        )
    return path


def traced_peak(fn):
    """``fn()`` and the ``tracemalloc`` peak in bytes while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def sounding_peak(n_samples: int, directory: str) -> int:
    """``run_sounding``'s peak above its frame matrix, in bytes."""
    run_sounding(load_config(_config(directory, 2 * N_SEQ)))
    cfg = load_config(_config(directory, n_samples))
    frames, peak = traced_peak(lambda: run_sounding(cfg))
    return peak - frames.h.nbytes


def _command(command: str, config: str, *args: str) -> None:
    """Run ``chansounder <command> --config <config> <args>``; raise unless it exits 0."""
    with contextlib.redirect_stdout(io.StringIO()):  # the summary line
        rc = cli_main([command, "--config", config, *args])
    if rc != 0:
        raise RuntimeError(f"{command} exited {rc}")


def stimulate_peak(n_samples: int, directory: str) -> int:
    """The peak of ``chansounder stimulate`` writing the campaign to a
    capture file in ``directory``, in bytes."""
    capture = os.path.join(directory, "mem.iq")
    _command("stimulate", _config(directory, 2 * N_SEQ), "--out", capture)
    config = _config(directory, n_samples)
    return traced_peak(lambda: _command("stimulate", config, "--out", capture))[1]


def correlate_peak(n_samples: int, directory: str) -> int:
    """The peak of ``chansounder correlate --input`` on a capture file that
    ``stimulate`` wrote in ``directory``, writing its ``.frames`` there,
    above its (F, N) complex128 frame matrix and its complex64 capture, in bytes."""
    capture = os.path.join(directory, "mem.iq")
    for n in (2 * N_SEQ, n_samples):
        config = _config(directory, n)
        _command("stimulate", config, "--out", capture)
        if n != n_samples:
            _command("correlate", config, "--input", capture, "--out", capture)
    periods = max(1, n_samples // N_SEQ)
    held = (periods - 1) * N_SEQ * 16 + periods * N_SEQ * 8  # period 0 is discarded
    return traced_peak(lambda: _command("correlate", config, "--input", capture, "--out", capture))[1] - held


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--samples", type=int, default=1 << 24, help="campaign length in samples")
    args = p.parse_args(argv)
    failed = False
    with tempfile.TemporaryDirectory() as directory:
        for name, measure, bound in (
            ("run_sounding above its frame matrix", sounding_peak, SOUNDING_BOUND),
            ("stimulate", stimulate_peak, STIMULATE_BOUND),
            ("correlate --input above its frame matrix and capture", correlate_peak, CORRELATE_BOUND),
        ):
            peak = measure(args.samples, directory)
            failed |= peak > bound
            print(f"{name}: {peak / 1e6:.2f} MB peak (bound {bound / 1e6:.2f} MB) over {args.samples} samples")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
