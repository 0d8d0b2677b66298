"""Channel characterization metrics over an impulse-response series.

All metrics consume the :class:`FrameSeries` produced by the sounding
pipeline.
Delay-domain statistics (power delay profile, mean delay, RMS delay
spread, dynamic range) come from averaging |h|^2 over frames.
Frequency-domain statistics (magnitude percentiles, coherence
bandwidth) come from the per-frame transfer functions.  Time-variance
statistics (Doppler map, Doppler spread, coherence time) come from a
DFT across the frame axis, which is only meaningful when the frames sit
on a uniform measurement grid; gaps from gated-out periods must either
be rejected or zero-filled, chosen explicitly by the caller.

The FFTs of the Doppler map (over columns) run one contiguous slice of
the matrix per usable CPU, at most :data:`frames.MAX_SLICES`
(:func:`frames.on_slices`).  The slices share one batch of ``_BATCH``
columns between them, each its share, so neither the output bits nor
the memory held depend on the count.  The frequency statistics FFT
their rows in batches of ``_BATCH`` on the caller's thread, where
slices cost more than they saved (on a 979 x 127 matrix).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .frames import NON_NEGATIVE, OPEN_UNIT, POSITIVE_FINITE, RATE, FrameSeries, check, on_slices
from .framestore import replacing

#: Propagation speed used for Doppler-to-velocity and distance conversions.
SPEED_OF_LIGHT = 299_792_458.0

#: Rows (or columns) per FFT call: each (F, N) metric holds its one
#: float64 result matrix plus a complex batch of this many rows (columns),
#: shared out among its slices.
_BATCH = 32

#: Most numbers per call of the CSV text kernel: as many whole rows as fit,
#: or one piece of a row wider than this.
_CSV_BATCH = 4096


def _frame_matrix(frames: FrameSeries) -> np.ndarray:
    """The (F, N) response matrix of a frame series of at least one frame."""
    if not len(frames):
        raise ValueError("metric needs at least one impulse-response frame")
    return frames.h


def _batches(n: int, least: int = 1, part: slice | None = None) -> list[slice]:
    """The slice ``part`` of ``range(n)`` (all of it by default) cut into
    batches of ``_BATCH`` entries, or of the part's share of them, so that
    the slices of :func:`on_slices` together hold one batch; but of at
    least ``least``: a shorter last batch joins the one before it."""
    part = part or slice(0, n)
    step = max(least, _BATCH * (part.stop - part.start) // max(n, 1))
    starts = list(range(part.start, part.stop, step))
    if len(starts) > 1 and part.stop - starts[-1] < least:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [part.stop])]


def _weighted_moments(x: np.ndarray, w: np.ndarray, what: str) -> tuple[float, float]:
    """Mean and RMS width of the axis ``x`` weighted by the powers ``w``;
    ``what`` names the powers in the error when they hold no energy."""
    total = w.sum()
    if not total > 0:
        raise ValueError(f"{what} has no energy")
    m1 = (x * w).sum() / total
    var = ((x - m1) ** 2 * w).sum() / total
    return float(m1), float(math.sqrt(max(var, 0.0)))


def _delay_moments(pdp_vec: np.ndarray, t_s: float) -> tuple[float, float]:
    p = np.asarray(pdp_vec, dtype=np.float64)
    return _weighted_moments(np.arange(len(p)) * t_s, p, "power delay profile")


def pdp(frames: FrameSeries) -> np.ndarray:
    """Power delay profile: mean of |h[tau]|^2 over the frame series."""
    power = np.abs(_frame_matrix(frames))
    return np.mean(np.square(power, out=power), axis=0)


def mean_delay(pdp_vec: np.ndarray, t_s: float) -> float:
    """Power-weighted mean excess delay in seconds."""
    return _delay_moments(pdp_vec, t_s)[0]


def rms_delay_spread(pdp_vec: np.ndarray, t_s: float) -> float:
    """Power-weighted RMS delay spread in seconds."""
    return _delay_moments(pdp_vec, t_s)[1]


@dataclass
class FrequencyStats:
    """Pooled transfer-function magnitude statistics.

    ``mean_psd`` is the frame-averaged |H(f)|^2 on the centered
    frequency axis ``freqs_hz``; the percentile levels are taken over
    the pooled per-frame, per-bin magnitudes in dB.
    """

    freqs_hz: np.ndarray
    mean_psd: np.ndarray
    h10_db: float
    h50_db: float
    h90_db: float


def frequency_response_stats(frames: FrameSeries, fs: float) -> FrequencyStats:
    """Percentile levels (10/50/90 %) of pooled |H(f)| in dB."""
    m = _frame_matrix(frames)
    n = m.shape[1]
    mags = np.empty(m.shape)
    for rows in _batches(len(m)):
        np.abs(np.fft.fft(m[rows], axis=1), out=mags[rows])
    peak = mags.max()
    if not np.isfinite(peak):
        raise ValueError("frames hold non-finite values; no magnitude statistics")
    if not peak > 0:
        raise ValueError("all frames are zero; no magnitude statistics")
    # Column blocks of at least two: numpy sums a one-column block
    # pairwise, not row by row as it sums the whole matrix.
    mean_psd = np.empty(n)
    for cols in _batches(n, least=2):
        mean_psd[cols] = np.mean(np.square(mags[:, cols]), axis=0)
    with np.errstate(divide="ignore"):
        pooled_db = np.multiply(np.log10(mags, out=mags), 20.0, out=mags).ravel()
    # Sorted first, the partition inside np.percentile finds its order
    # statistics in about half the time; the levels keep their bits.
    pooled_db.sort()
    with np.errstate(invalid="ignore"):
        levels = np.percentile(pooled_db, [10.0, 50.0, 90.0], overwrite_input=True)
    # A level that falls among the -inf of zero bins is -inf; numpy's
    # interpolation makes it -inf + inf = nan there.
    h10, h50, h90 = np.where(np.isnan(levels), -np.inf, levels)
    return FrequencyStats(
        freqs_hz=np.fft.fftshift(np.fft.fftfreq(n, d=1.0 / fs)),
        mean_psd=np.fft.fftshift(mean_psd),
        h10_db=float(h10),
        h50_db=float(h50),
        h90_db=float(h90),
    )


def coherence_bandwidth(
    pdp_vec: np.ndarray, fs: float, threshold: float = 0.5
) -> tuple[float, bool]:
    """Coherence bandwidth from the frequency autocorrelation.

    The frequency correlation function is the DFT of the power delay
    profile ``pdp_vec`` (:func:`pdp`); its magnitude is normalized to one
    at zero frequency lag and scanned outward for the first drop below
    ``threshold``, with linear interpolation between bins.  Returns
    ``(bandwidth_hz, crossed)``; when the correlation never falls below
    the threshold the full half-span ``fs / 2`` is returned with
    ``crossed=False``.
    """
    check(threshold, *OPEN_UNIT, "threshold")
    p = np.asarray(pdp_vec, dtype=np.float64)
    n = len(p)
    r = np.fft.fft(p)
    r0 = r[0].real
    if not r0 > 0:
        raise ValueError("power delay profile has no energy")
    rho = np.abs(r) / r0

    half = n // 2
    df = fs / n
    prev = rho[0]
    for q in range(1, half + 1):
        cur = rho[q]
        if cur < threshold:
            frac = (prev - threshold) / (prev - cur)
            return (float((q - 1 + frac) * df), True)
        prev = cur
    return (fs / 2.0, False)


@dataclass
class DopplerMap:
    """Delay-Doppler power map.

    ``power[q, tau]`` is |DFT over frames|^2 at Doppler bin ``q``
    (centered axis ``freqs_hz``) and delay bin ``tau``.
    """

    power: np.ndarray
    freqs_hz: np.ndarray
    t_seq: float
    n_frames: int
    zero_filled: int = 0

    @property
    def resolution_hz(self) -> float:
        return doppler_resolution(self.n_frames * self.t_seq)

    @property
    def max_hz(self) -> float:
        return max_doppler(self.t_seq)


def doppler_map(frames: FrameSeries, t_seq: float, zero_fill: bool = False) -> DopplerMap:
    """DFT across the frame axis on a uniform measurement grid.

    Frames must be in increasing sequence-index order.  Gaps (dropped
    periods) break the uniform grid; with ``zero_fill`` they become
    all-zero rows, otherwise they raise.  The unambiguous Doppler range
    is ``+-1 / (2 * t_seq)`` and the resolution ``1 / capture_length``.
    """
    check(t_seq, *RATE, "sequence period")
    if len(frames) < 2:
        raise ValueError("Doppler analysis needs at least two frames")
    idx = frames.sequence_index
    if np.any(idx[1:] <= idx[:-1]):
        raise ValueError("frames must be sorted by sequence index, without duplicates")

    m = frames.h
    span = int(idx[-1] - idx[0]) + 1
    missing = span - len(frames)
    if missing and not zero_fill:
        raise ValueError(
            f"measurement grid has {missing} gap(s); pass zero_fill=True "
            "to analyze anyway"
        )

    # Each column batch is transformed in one reused block and its
    # magnitudes go straight into their fftshifted rows: the lower half
    # moves down by span // 2 rows, the upper half to the top.
    n = m.shape[1]
    power = np.empty((span, n))
    shift = span // 2
    rows = idx - idx[0]

    def transform(part: slice) -> None:
        batches = _batches(n, part=part)
        width = max((cols.stop - cols.start for cols in batches), default=0)
        scratch = np.empty((span, width), dtype=np.complex128)
        for cols in batches:
            block = scratch[:, : cols.stop - cols.start]
            if missing:
                block[:] = 0
            block[rows] = m[:, cols]
            np.fft.fft(block, axis=0, out=block)
            np.abs(block[: span - shift], out=power[shift:, cols])
            np.abs(block[span - shift :], out=power[:shift, cols])

    on_slices(transform, n)
    return DopplerMap(
        power=np.square(power, out=power),
        freqs_hz=np.fft.fftshift(np.fft.fftfreq(span, d=t_seq)),
        t_seq=t_seq,
        n_frames=span,
        zero_filled=missing,
    )


def doppler_spread(dmap: DopplerMap) -> float:
    """RMS width of the power-weighted Doppler spectrum in Hz."""
    return _weighted_moments(dmap.freqs_hz, dmap.power.sum(axis=1), "Doppler map")[1]


def coherence_time(spread_hz: float) -> float:
    """Reciprocal Doppler spread; infinite for a static channel."""
    check(spread_hz, *NON_NEGATIVE, "Doppler spread")
    if spread_hz == 0.0:
        return math.inf
    return 1.0 / spread_hz


def max_doppler(t_seq: float) -> float:
    """Unambiguous Doppler limit of a sounding at period ``t_seq``."""
    check(t_seq, *RATE, "sequence period")
    return 1.0 / (2.0 * t_seq)


def doppler_resolution(capture_duration_s: float) -> float:
    """Doppler bin width achievable from a capture of the given length."""
    check(capture_duration_s, *RATE, "capture duration")
    return 1.0 / capture_duration_s


def doppler_to_speed(doppler_hz: float, f_c: float) -> float:
    """Radial speed (m/s) corresponding to a Doppler shift at carrier ``f_c``."""
    check(f_c, *POSITIVE_FINITE, "carrier frequency")
    return doppler_hz * SPEED_OF_LIGHT / f_c


def measured_dynamic_range(pdp_vec: np.ndarray) -> float:
    """Peak-to-noise-floor ratio of a power delay profile in dB.

    The floor is the median of the lowest-power decile of PDP bins, a
    robust stand-in for the correlation noise floor.  An all-equal
    profile yields 0 dB; a floor of exactly zero yields ``inf``.
    """
    p = np.asarray(pdp_vec, dtype=np.float64)
    if len(p) == 0 or not p.max() > 0:
        raise ValueError("power delay profile has no energy")
    k = max(1, len(p) // 10)
    floor = float(np.median(np.sort(p)[:k]))
    if floor == 0.0:
        return math.inf
    return float(10.0 * math.log10(p.max() / floor))


def max_distance_estimate(dynamic_range_db: float, d_ref_m: float) -> float:
    """Largest free-space range covered by the measured dynamic range.

    Free-space power falls with 20 dB per distance decade, so a link
    verified at ``d_ref_m`` with ``dynamic_range_db`` of headroom can be
    stretched to ``d_ref * 10**(D / 20)`` before the peak meets the
    floor (``inf`` past float range, as for an infinite ``D``).
    """
    check(d_ref_m, *POSITIVE_FINITE, "reference distance")
    try:
        return d_ref_m * 10.0 ** (dynamic_range_db / 20.0)
    except OverflowError:
        return math.inf


@dataclass
class CharacterizationReport:
    """Aggregate of the full metric suite for one frame series."""

    n_frames: int
    n_seq: int
    fs: float
    t_seq: float
    pdp: np.ndarray
    mean_delay_s: float
    rms_delay_spread_s: float
    freq_stats: FrequencyStats
    coherence_bw_hz: float
    coherence_bw_crossed: bool
    dynamic_range_db: float
    doppler: DopplerMap | None = None
    doppler_spread_hz: float | None = None
    coherence_time_s: float | None = None
    speed_for_spread_mps: float | None = None
    max_distance_m: float | None = None
    notes: list[str] = field(default_factory=list)


def characterize(
    frames: FrameSeries,
    fs: float,
    f_c: float | None = None,
    bc_threshold: float = 0.5,
    doppler_zero_fill: bool = False,
    d_ref_m: float | None = None,
) -> CharacterizationReport:
    """Compute the full metric suite over a frame series.

    Doppler metrics are skipped (with a note) when fewer than two
    frames are available or the grid has gaps and ``doppler_zero_fill``
    is off.  ``d_ref_m`` enables the free-space range estimate;
    ``f_c`` enables the speed conversion of the Doppler spread.
    """
    p = pdp(frames)
    n_seq = len(p)
    t_s = 1.0 / fs
    t_seq = n_seq * t_s

    stats = frequency_response_stats(frames, fs)
    bc, crossed = coherence_bandwidth(p, fs, threshold=bc_threshold)
    dr = measured_dynamic_range(p)

    notes: list[str] = []
    dmap = None
    spread = None
    t_c = None
    speed = None
    if len(frames) < 2:
        notes.append("doppler: skipped, fewer than two frames")
    else:
        try:
            dmap = doppler_map(frames, t_seq, zero_fill=doppler_zero_fill)
        except ValueError as exc:
            notes.append(f"doppler: skipped, {exc}")
    if dmap is not None:
        spread = doppler_spread(dmap)
        t_c = coherence_time(spread)
        if f_c is not None:
            speed = doppler_to_speed(spread, f_c)

    return CharacterizationReport(
        n_frames=len(frames),
        n_seq=n_seq,
        fs=fs,
        t_seq=t_seq,
        pdp=p,
        mean_delay_s=mean_delay(p, t_s),
        rms_delay_spread_s=rms_delay_spread(p, t_s),
        freq_stats=stats,
        coherence_bw_hz=bc,
        coherence_bw_crossed=crossed,
        dynamic_range_db=dr,
        doppler=dmap,
        doppler_spread_hz=spread,
        coherence_time_s=t_c,
        speed_for_spread_mps=speed,
        max_distance_m=(
            max_distance_estimate(dr, d_ref_m) if d_ref_m is not None else None
        ),
        notes=notes,
    )


def report_text(report: CharacterizationReport) -> str:
    """Deterministic key = value rendering of a report's scalar metrics."""
    lines = [
        f"frames = {report.n_frames}",
        f"sequence_length = {report.n_seq}",
        f"sample_rate_hz = {report.fs!r}",
        f"sequence_period_s = {report.t_seq!r}",
        f"mean_delay_s = {report.mean_delay_s!r}",
        f"rms_delay_spread_s = {report.rms_delay_spread_s!r}",
        f"h10_db = {report.freq_stats.h10_db!r}",
        f"h50_db = {report.freq_stats.h50_db!r}",
        f"h90_db = {report.freq_stats.h90_db!r}",
        f"coherence_bandwidth_hz = {report.coherence_bw_hz!r}",
        f"coherence_bandwidth_crossed = {report.coherence_bw_crossed}",
        f"dynamic_range_db = {report.dynamic_range_db!r}",
    ]
    if report.doppler is not None:
        lines += [
            f"doppler_resolution_hz = {report.doppler.resolution_hz!r}",
            f"doppler_max_hz = {report.doppler.max_hz!r}",
            f"doppler_spread_hz = {report.doppler_spread_hz!r}",
            f"coherence_time_s = {report.coherence_time_s!r}",
        ]
    if report.speed_for_spread_mps is not None:
        lines.append(f"speed_for_spread_mps = {report.speed_for_spread_mps!r}")
    if report.max_distance_m is not None:
        lines.append(f"max_distance_m = {report.max_distance_m!r}")
    for note in report.notes:
        lines.append(f"note = {note}")
    return "\n".join(lines) + "\n"


def _csv_lines(first: np.ndarray, rows: np.ndarray):
    """Yield the text of the CSV lines of ``rows``, each led by the
    matching entry of ``first``, in whole lines of at most ``_CSV_BATCH``
    numbers; a line wider than that goes out in pieces of ``_CSV_BATCH``."""
    # imported on first use, so that importing the package (every command
    # and every run that writes no CSV) does not load or compile the kernel
    from . import _floatrepr

    width = rows.shape[1] + 1
    k = max(1, _CSV_BATCH // width)
    block = np.empty((k, width))
    ends = np.full((k, width), ord(","), dtype=np.uint8)
    ends[:, -1] = ord("\n")
    for r in range(0, len(first), k):
        n = min(k, len(first) - r)
        block[:n, 0] = first[r : r + n]
        block[:n, 1:] = rows[r : r + n]
        values, seps = block[:n].ravel(), ends[:n].ravel()
        for c in range(0, n * width, _CSV_BATCH):
            yield _floatrepr.reprs(values[c : c + _CSV_BATCH], seps[c : c + _CSV_BATCH])


def _write_csv(path: str, header: bytes, first: np.ndarray, rows: np.ndarray) -> None:
    """Write ``header`` and the :func:`_csv_lines`, in binary.  Each number
    is its ``repr`` (``float(field)`` restores it), by Schubfach (Giulietti
    2020) with two deviations from Java's ``DoubleToDecimal``: the shorter
    candidate tried at every length, and no scaling of small subnormals.
    A failed write leaves the earlier file as it was (:func:`replacing`)."""
    with replacing(path) as f:
        f.write(header)
        f.writelines(_csv_lines(first, rows))


def export_csv(report: CharacterizationReport, base_path: str) -> list[str]:
    """Write PDP, PSD and (if present) Doppler-map CSV files; without a
    Doppler map, remove a stale ``.doppler.csv`` of an earlier run.

    Returns the list of paths written.  Numbers are their ``repr``, by
    Schubfach with :func:`_write_csv`'s two deviations from Java (shorter
    candidate at every length, no scaled subnormals), so repeated runs
    produce byte-identical files.
    """
    t_s = 1.0 / report.fs
    delays = np.arange(len(report.pdp)) * t_s
    tables = [
        (".pdp.csv", b"delay_s,power\n", delays, report.pdp[:, None]),
        (".psd.csv", b"freq_hz,power\n", report.freq_stats.freqs_hz, report.freq_stats.mean_psd[:, None]),
    ]
    if report.doppler is not None:
        dm = report.doppler
        header = b"delay_s," + b"".join(_csv_lines(dm.freqs_hz[:1], dm.freqs_hz[None, 1:]))
        tables.append((".doppler.csv", header, delays, dm.power.T))
    elif os.path.exists(base_path + ".doppler.csv"):
        os.remove(base_path + ".doppler.csv")
    for suffix, header, first, rows in tables:
        _write_csv(base_path + suffix, header, first, rows)
    return [base_path + suffix for suffix, *_ in tables]
