"""Correlation kernels.

The periodic cross-correlation convention used throughout the package is

    pccf(a, b)[k] = sum_n a[n] * conj(b[(n - k) mod N])

with the received signal as ``a`` and the reference sequence as ``b``,
so a pure channel delay of ``d`` samples puts the correlation peak at
lag ``d``.  ``fast_pccf`` evaluates the same quantity through FFTs via
the identity ``ifft(fft(a) * conj(fft(b)))`` and is the kernel the
sounding pipeline runs on; ``pccf`` is the direct-sum form kept as a
readable reference and cross-check.

Aperiodic variants (``ccf``/``acf``) use the standard zero-padded
definition over lags ``-(Nb-1) .. (Na-1)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class CorrelationResult:
    """Correlation values plus the index of lag zero.

    For periodic results ``values[k]`` is the correlation at lag ``k``
    (lag_zero_index is 0 and negative lags alias to ``N - k``).  For
    aperiodic results the lag of ``values[i]`` is ``i - lag_zero_index``.
    Batched :func:`fast_pccf` results carry the lags along the last axis.
    """

    values: np.ndarray
    lag_zero_index: int
    periodic: bool

    def __len__(self) -> int:
        return self.values.shape[-1]

    @property
    def lags(self) -> np.ndarray:
        return np.arange(len(self)) - self.lag_zero_index


def _as_vector(x, name: str) -> np.ndarray:
    v = np.asarray(x)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a 1-d vector")
    if len(v) == 0:
        raise ValueError(f"{name} must not be empty")
    return v


def pccf(a, b) -> CorrelationResult:
    """Periodic cross-correlation of equal-length vectors, direct form.

    O(N^2); intended as the reference implementation.  Use
    :func:`fast_pccf` in processing paths.
    """
    av = _as_vector(a, "a")
    bv = _as_vector(b, "b")
    if len(av) != len(bv):
        raise ValueError(
            f"periodic correlation requires equal lengths, got {len(av)} and {len(bv)}"
        )
    n = len(av)
    out = np.empty(n, dtype=np.complex128)
    for k in range(n):
        # vdot conjugates its first argument: sum_n conj(b[(n-k) mod N]) * a[n]
        out[k] = np.vdot(np.roll(bv, k), av)
    return CorrelationResult(values=out, lag_zero_index=0, periodic=True)


def pacf(a) -> CorrelationResult:
    """Periodic autocorrelation, direct form."""
    return pccf(a, a)


def fast_pccf(a, b) -> CorrelationResult:
    """Periodic cross-correlation via FFT.

    Matches :func:`pccf` to within ``1e-9 * N * max|a| * max|b|``
    absolute error.  ``a`` may be a stack (..., N), each row with the bits
    of one call; it is copied once to complex128, the one widening of a
    complex64 capture, and the FFTs transform that copy in place.
    """
    spec = np.array(a, dtype=np.complex128, ndmin=1)
    bv = _as_vector(b, "b")
    if spec.shape[-1] != len(bv):
        raise ValueError(
            f"periodic correlation requires equal lengths, got {spec.shape[-1]} and {len(bv)}"
        )
    np.fft.fft(spec, axis=-1, out=spec)
    spec *= np.conj(np.fft.fft(bv))
    values = np.fft.ifft(spec, axis=-1, out=spec)
    return CorrelationResult(values=values, lag_zero_index=0, periodic=True)


def ccf(a, b) -> CorrelationResult:
    """Aperiodic (zero-padded) cross-correlation over all full and
    partial overlaps, ``sum_n a[n] * conj(b[n - k])``."""
    av = _as_vector(a, "a")
    bv = _as_vector(b, "b")
    values = np.correlate(av.astype(np.complex128), bv.astype(np.complex128), mode="full")
    return CorrelationResult(values=values, lag_zero_index=len(bv) - 1, periodic=False)


def acf(a) -> CorrelationResult:
    """Aperiodic autocorrelation; length ``2N - 1``, peak at lag 0."""
    return ccf(a, a)
