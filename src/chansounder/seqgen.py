"""Stimulation sequence families for correlative sounding.

Two families are provided, both with constant envelope (PAPR of one):

* Maximum-length sequences (MLS): binary +-1 sequences of length
  ``2**l - 1`` from a linear feedback shift register with a primitive
  feedback polynomial.  Their periodic autocorrelation is ``N`` at lag
  zero and exactly ``-1`` everywhere else, so correlation against an
  MLS leaves a small negative bias that shrinks as ``1/N``.

* Frank-Zadoff-Chu sequences (FZC): polyphase sequences of any length
  ``N`` whose periodic autocorrelation is exactly zero off the peak and
  whose DFT magnitude is flat (``sqrt(N)`` in every bin).  They are the
  preferred stimulation signal: perfect correlation floor, full dynamic
  range, and a correlation peak that only shifts (rather than smears)
  under carrier frequency offset.

The ``v_oop`` attribute of a generated :class:`Sequence` records the
out-of-peak autocorrelation value (-1 for MLS, 0 for FZC), which sets
the achievable dynamic range ``N - |v_oop|``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .frames import AT_LEAST_1, INTEGER, RATE, check, check_sample_rate

#: Feedback tap exponents (including the register length itself) of a
#: primitive polynomial for each register length.  Register length l
#: gives a sequence of period 2**l - 1.
PRIMITIVE_TAPS: dict[int, tuple[int, ...]] = {
    2: (2, 1),
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
    12: (12, 11, 10, 4),
    13: (13, 12, 11, 8),
    14: (14, 13, 12, 2),
    15: (15, 14),
    16: (16, 15, 13, 4),
}

MAX_REGISTER_LENGTH = 24

#: The range rules of the generation parameters (see :func:`frames.check`),
#: shared with the ``sequence.*`` config keys: an FZC length and root, and
#: an MLS register length.
LENGTHS = (lambda v: v >= 2, "be at least 2")
ROOTS = AT_LEAST_1
REGISTER_LENGTHS = (lambda v: 2 <= v <= MAX_REGISTER_LENGTH, f"lie in 2..{MAX_REGISTER_LENGTH}")


@dataclass
class Sequence:
    """A bound stimulation sequence.

    Attributes
    ----------
    samples : np.ndarray
        Complex unit-magnitude sample vector, one period.
    family : str
        ``"mls"`` or ``"fzc"``.
    params : dict
        Generation parameters (register length and taps, or length and
        root).
    v_oop : float
        Out-of-peak periodic autocorrelation value.
    sample_period : float | None
        Seconds per sample once bound to a sample rate, else None.
    """

    samples: np.ndarray
    family: str
    params: dict
    v_oop: float
    sample_period: float | None = None

    @property
    def n_seq(self) -> int:
        """Sequence length in samples."""
        return len(self.samples)

    @property
    def duration(self) -> float:
        """Sequence period in seconds (:data:`frames.RATE`); needs a bound sample rate."""
        if self.sample_period is None:
            raise ValueError("sequence is not bound to a sample rate")
        return check(self.n_seq * self.sample_period, *RATE, "sequence period")


def bind_rate(seq: Sequence, fs: float) -> Sequence:
    """Return a copy of ``seq`` bound to sample rate ``fs`` (Hz)."""
    return replace(seq, sample_period=1.0 / check_sample_rate(fs))


def _run_lfsr(l: int, taps: Iterable[int]) -> np.ndarray:
    """Run a Fibonacci LFSR of length ``l`` seeded with all ones.

    ``taps`` are polynomial exponents; stage ``t`` maps to bit ``l - t``
    so the register output is bit 0.  Returns the first ``2**l - 1``
    output bits as uint8.
    """
    n = (1 << l) - 1
    mask = 0
    for t in taps:
        mask |= 1 << (l - t)
    state = (1 << l) - 1
    bits = np.empty(n, dtype=np.uint8)
    for i in range(n):
        bits[i] = state & 1
        fb = (state & mask).bit_count() & 1
        state = (state >> 1) | (fb << (l - 1))
    return bits


def generate_mls(l: int, taps: Iterable[int] | None = None) -> Sequence:
    """Generate a maximum-length sequence of period ``2**l - 1``.

    Parameters
    ----------
    l : int
        Register length, 2..24.  Lengths up to 16 have a built-in
        primitive tap set; beyond that the caller must supply ``taps``.
    taps : iterable of int, optional
        Feedback polynomial exponents, each in 1..l.  The generated
        sequence is checked for the maximal-length autocorrelation
        signature and rejected if the tap set is not primitive.

    Returns
    -------
    Sequence
        Samples in {+1, -1} (bit 0 maps to +1, bit 1 to -1), stored as
        complex values.
    """
    check(l, *INTEGER, "register length")
    check(l, *REGISTER_LENGTHS, "register length")
    if taps is None:
        if l not in PRIMITIVE_TAPS:
            raise ValueError(
                f"no built-in tap set for register length {l}; pass taps="
            )
        tap_tuple = PRIMITIVE_TAPS[l]
    else:
        tap_tuple = tuple(sorted({int(t) for t in taps}, reverse=True))
        if not tap_tuple:
            raise ValueError("tap set must not be empty")
        if any(t < 1 or t > l for t in tap_tuple):
            raise ValueError(
                f"tap exponents must lie in 1..{l}, got {tap_tuple}"
            )

    bits = _run_lfsr(l, tap_tuple)
    samples = (1.0 - 2.0 * bits.astype(np.float64)).astype(np.complex128)

    n = len(samples)
    # Maximal-length check: the periodic autocorrelation of a true MLS
    # is n at lag 0 and -1 at every other lag, exactly, in integers.
    spec = np.fft.fft(samples)
    pacf = np.rint(np.fft.ifft(spec * np.conj(spec)).real).astype(np.int64)
    expected = np.full(n, -1, dtype=np.int64)
    expected[0] = n
    if not np.array_equal(pacf, expected):
        raise ValueError(
            f"tap set {tap_tuple} is not primitive for register length {l}: "
            "the sequence is not maximal-length"
        )

    return Sequence(
        samples=samples,
        family="mls",
        params={"l": int(l), "taps": tap_tuple},
        v_oop=-1.0,
    )


def generate_fzc(n_seq: int, u: int) -> Sequence:
    """Generate a Frank-Zadoff-Chu sequence of length ``n_seq``.

    Parameters
    ----------
    n_seq : int
        Sequence length, at least 2.  Any length works; lengths coprime
        to the root give the perfect-autocorrelation property.
    u : int
        Root index, at least 1 and coprime to ``n_seq``.

    Notes
    -----
    For odd length the sample at index k is
    ``exp(-1j * pi * u * k * (k + 1) / n_seq)`` and for even length
    ``exp(-1j * pi * u * k**2 / n_seq)``.  The phase numerator is
    reduced modulo ``2 * n_seq`` in exact integer arithmetic before the
    complex exponential is formed, so long sequences do not lose phase
    precision.
    """
    check(n_seq, *INTEGER, "sequence length")
    check(n_seq, *LENGTHS, "sequence length")
    check(u, *INTEGER, "root")
    check(u, *ROOTS, "root")
    if math.gcd(int(u), int(n_seq)) != 1:
        raise ValueError(
            f"root {u} is not coprime to length {n_seq}; the sequence "
            "would not have the perfect-correlation property"
        )

    k = np.arange(n_seq, dtype=np.int64)
    two_n = 2 * int(n_seq)
    if n_seq % 2:
        numer = (k * (k + 1)) % two_n
    else:
        numer = (k * k) % two_n
    numer = (numer * (int(u) % two_n)) % two_n
    phase = -np.pi * numer.astype(np.float64) / float(n_seq)
    samples = np.exp(1j * phase)

    return Sequence(
        samples=samples,
        family="fzc",
        params={"n": int(n_seq), "u": int(u)},
        v_oop=0.0,
    )


def descriptor(seq: Sequence) -> str:
    """Compact text form of the generation parameters.

    Examples: ``fzc:n=1024:u=7`` and ``mls:l=10:taps=10.7``.  Used in
    capture sidecars and the wire handshake so that both ends of a
    split pipeline can verify they agree on the stimulation sequence.
    """
    if seq.family == "fzc":
        return f"fzc:n={seq.params['n']}:u={seq.params['u']}"
    if seq.family == "mls":
        taps = ".".join(str(t) for t in seq.params["taps"])
        return f"mls:l={seq.params['l']}:taps={taps}"
    raise ValueError(f"unknown sequence family {seq.family!r}")


def from_descriptor(text: str) -> Sequence:
    """Regenerate a sequence from its :func:`descriptor` string."""
    parts = text.strip().split(":")
    if not parts or parts[0] not in ("fzc", "mls"):
        raise ValueError(f"unrecognized sequence descriptor {text!r}")
    fields = {}
    for part in parts[1:]:
        if "=" not in part:
            raise ValueError(f"malformed descriptor field {part!r} in {text!r}")
        key, _, value = part.partition("=")
        fields[key] = value
    try:
        if parts[0] == "fzc":
            return generate_fzc(int(fields["n"]), int(fields["u"]))
        taps = tuple(int(t) for t in fields["taps"].split("."))
        return generate_mls(int(fields["l"]), taps)
    except KeyError as exc:
        raise ValueError(f"descriptor {text!r} is missing field {exc}") from exc
