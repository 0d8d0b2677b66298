"""Correlation kernel.

The periodic cross-correlation convention used throughout the package is

    pccf(a, b)[k] = sum_n a[n] * conj(b[(n - k) mod N])

with the received signal as ``a`` and the reference sequence as ``b``,
so a pure channel delay of ``d`` samples puts the correlation peak at
lag ``d``.  ``fast_pccf`` evaluates this quantity through FFTs via the
identity ``ifft(fft(a) * conj(fft(b)))``; the sounding pipeline runs the
same transforms in place on its frame matrix.
"""

from __future__ import annotations

import numpy as np


def fast_pccf(a, b) -> np.ndarray:
    """Periodic cross-correlation via FFT; ``values[k]`` is lag ``k``.

    Matches the direct sum above to within ``1e-9 * N * max|a| * max|b|``
    absolute error.  ``a`` may be a stack (..., N), each row with the bits
    of one call; it is copied once to complex128 and the FFTs transform
    that copy in place, so ``a`` is never written to.
    """
    return _pccf_in_place(np.array(a, dtype=np.complex128, ndmin=1), reference_spectrum(b))


def reference_spectrum(b) -> np.ndarray:
    """``conj(fft(b))`` of the reference ``b``, a non-empty 1-d vector:
    what :func:`_pccf_in_place` multiplies the rows' spectra by."""
    bv = np.asarray(b)
    if bv.ndim != 1 or len(bv) == 0:
        raise ValueError("b must be a non-empty 1-d vector")
    return np.conj(np.fft.fft(bv))


def _pccf_in_place(spec: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """:func:`fast_pccf` of the complex128 rows ``spec`` against the
    reference of spectrum ``ref`` (:func:`reference_spectrum`), written
    over them."""
    if spec.shape[-1] != len(ref):
        raise ValueError(
            f"periodic correlation requires equal lengths, got {spec.shape[-1]} and {len(ref)}"
        )
    np.fft.fft(spec, axis=-1, out=spec)
    spec *= ref
    return np.fft.ifft(spec, axis=-1, out=spec)
