"""Output checks that do not rely on the code under test.

The frame, profile and capture files are parsed here from their documented
layouts, the reference sequences are rebuilt from their closed forms, and
correlations are evaluated as direct sums (never through ``pccf`` or
``fast_pccf``).  Every check returns a list of problems; an empty list
means the campaign's outputs are correct.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import struct

import numpy as np

from workloads import CABLE, FS, Inputs

#: Direct-sum correlation against frames computed from the same input
#: samples: only FFT-versus-sum rounding separates them, well below this
#: share of the frame's peak magnitude.
TOL_DIRECT = 1e-9
#: Reconstructed float32 stream versus the program's: a summation-order
#: difference can move a sample by one float32 step (~1e-7 relative),
#: which the 1/N normalization shrinks further.
TOL_RECONSTRUCTED = 1e-6
#: Noise-free frames against the closed-form tap-plus-cable response:
#: float32 quantization of the received samples bounds the error.
TOL_CLOSED_FORM = 1e-5
#: Noisy frames: the residual after removing the noise-free response has,
#: per lag, the power sigma^2 / N of white noise correlated against a
#: unit-modulus sequence.  Over N >= 1024 lags the measured ratio stays
#: within a few percent of 1; these limits are more than 7 sigma wide.
NOISE_RATIO_LIMITS = (0.7, 1.4)


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _container(blob: bytes, magic: bytes, path: str) -> tuple[dict, int]:
    if blob[:4] != magic or len(blob) < 8:
        raise ValueError(f"{path}: not a {magic!r} container")
    (hlen,) = struct.unpack_from("<I", blob, 4)
    header = dict(
        line.split("=", 1) for line in blob[8 : 8 + hlen].decode("utf-8").splitlines() if line
    )
    return header, 8 + hlen


def read_frames(path: str):
    """``(header, sequence indices, t_i, H[F, N])``."""
    with open(path, "rb") as f:
        blob = f.read()
    header, off = _container(blob, b"CSF1", path)
    n, count = int(header["n_seq"]), int(header["n_records"])
    rec = np.dtype([("k", "<i8"), ("t", "<f8"), ("c", "u1"), ("h", "<c16", (n,))])
    if len(blob) - off != count * rec.itemsize:
        raise ValueError(f"{path}: {len(blob) - off} record bytes for {count} records")
    r = np.frombuffer(blob, dtype=rec, offset=off)
    return header, r["k"].copy(), r["t"].copy(), r["h"].astype(np.complex128)


def read_profile(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        blob = f.read()
    _, off = _container(blob, b"CSP1", path)
    return np.frombuffer(blob, dtype="<c16", offset=off).astype(np.complex128)


def reference_sequence(inp: Inputs) -> np.ndarray:
    """The stimulation sequence from its closed form."""
    n = inp.n_seq
    if inp.family == "fzc":
        k = np.arange(n, dtype=np.int64)
        numer = (k * (k + (n % 2))) % (2 * n) * inp.seq_param % (2 * n)
        return np.exp(-1j * np.pi * numer / n)
    # Fibonacci LFSR, all-ones seed, output bit 0, feedback x^7 + x^6 + 1;
    # bit 0 maps to +1 and bit 1 to -1.
    l, taps = inp.seq_param, {7: (7, 6)}[inp.seq_param]
    mask = sum(1 << (l - t) for t in taps)
    state, bits = (1 << l) - 1, []
    for _ in range(n):
        bits.append(state & 1)
        state = (state >> 1) | ((bin(state & mask).count("1") & 1) << (l - 1))
    return 1.0 - 2.0 * np.array(bits, dtype=np.complex128)


def direct_correlation(y: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``h[l] = (1/N) * sum_n y[n] * conj(s[(n - l) mod N])`` as a direct sum."""
    n = len(s)
    h = np.empty(n, dtype=np.complex128)
    cols = np.arange(n)
    sc = np.conj(s)
    for a in range(0, n, 256):
        lags = np.arange(a, min(a + 256, n))
        h[lags] = sc[(cols[None, :] - lags[:, None]) % n] @ y
    return h / n


def expected_kept(inp: Inputs, discard_first: bool = True) -> list[int]:
    """Kept period indices in closed form from the trigger list.

    A trigger at sample ``i`` zeroes ``min(corrupt_span, total - i)``
    samples and taints every period those samples touch; period 0 goes
    when ``discard_first`` holds.
    """
    n, total = inp.n_seq, inp.samples
    tainted = set()
    for i in inp.triggers:
        span = min(inp.corrupt_span, total - i)
        tainted.update(range(i // n, (i + span - 1) // n + 1))
    return [k for k in range(inp.periods) if k not in tainted and not (discard_first and k == 0)]


def clean_stream(inp: Inputs) -> np.ndarray:
    """Noise-free received stream: delayed, Doppler-rotated taps, then the cable."""
    s = reference_sequence(inp)
    x = np.tile(s, inp.periods)
    idx = np.arange(len(x))
    y = np.zeros(len(x), dtype=np.complex128)
    for delay, (re, im), doppler in inp.taps:
        d = np.zeros(len(x), dtype=np.complex128)
        d[delay:] = x[: len(x) - delay]
        if doppler:
            d = d * np.exp(2j * np.pi * doppler * (idx / FS))
        y += complex(re, im) * d
    return np.convolve(y, np.asarray(CABLE, dtype=np.complex128))[: len(x)]


def _dc_patch(spec: np.ndarray, bw_hz: float) -> np.ndarray:
    """Linear re-interpolation of the DC band, as the README specifies."""
    n = len(spec)
    n_b = max(1, int(round(bw_hz / (FS / n))))
    sh = np.fft.fftshift(spec)
    g0 = n // 2 - n_b // 2
    left, right = g0 - 1, g0 + n_b
    w = (np.arange(g0, g0 + n_b) - left) / (right - left)
    sh[g0 : g0 + n_b] = (1.0 - w) * sh[left] + w * sh[right]
    return np.fft.ifftshift(sh)


def _sample(kept: list[int], count: int, seed: int) -> list[int]:
    return sorted(random.Random(seed).sample(kept, min(count, len(kept))))


def check_frames(inp: Inputs, path: str) -> list[str]:
    """Period accounting and the time grid of a frames file."""
    problems = []
    try:
        header, k, t, h = read_frames(path)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable frames file: {exc}"]
    want = expected_kept(inp)
    if len(k) != len(want) or not np.array_equal(k, want):
        problems.append(f"kept {len(k)} periods, closed form says {len(want)}")
    elif not np.allclose(t, (np.asarray(want) + 1) * (inp.n_seq / FS) - 1 / FS, rtol=1e-12, atol=0):
        problems.append("frame timestamps are off the t_i = (k+1) T_seq - T_s grid")
    if int(header.get("total_sequences", -1)) != inp.periods or int(header["n_seq"]) != inp.n_seq:
        problems.append(f"frames header disagrees with the campaign: {header}")
    if not np.all(np.isfinite(h)):
        problems.append("frames hold non-finite values")
    return problems


def deep_check(inp: Inputs, base: str, seed: int) -> list[str]:
    """Compare a campaign's frames with independently computed values."""
    problems = check_frames(inp, base + ".frames")
    if problems:
        return problems
    reference_frames(inp, base + ".ref.frames")
    if sha256(base + ".ref.frames") != sha256(base + ".frames"):
        problems.append("frames differ from in-process run_sounding + write_frames of the same config")
    _, k, _, h = read_frames(base + ".frames")
    row = {int(v): i for i, v in enumerate(k)}
    s = reference_sequence(inp)
    n = inp.n_seq
    sampled = _sample(list(row), 3, seed)

    if inp.workload != "tcp_link":
        iq_path = base + ".iq"
        if inp.workload == "doppler_sound":
            # `sound` writes no capture: record the same campaign through the
            # file path, whose stream the frames must correlate to exactly.
            iq_path = base + ".ref.iq"
            problems += _stimulate(inp, iq_path)
        iq = np.fromfile(iq_path, dtype="<c8").astype(np.complex128)
        for p in sampled:
            want = direct_correlation(iq[p * n : (p + 1) * n], s)
            if inp.dc_suppression_hz:
                want = np.fft.ifft(_dc_patch(np.fft.fft(want), inp.dc_suppression_hz))
            if inp.profile:
                want = np.fft.ifft(np.fft.fft(want) * np.fft.fft(read_profile(inp.profile)))
            err = np.max(np.abs(h[row[p]] - want)) / np.max(np.abs(want))
            if err > TOL_DIRECT:
                problems.append(f"period {p}: direct-sum correlation differs by {err:.3g} of peak")
        if inp.workload == "gated_split":
            return problems

    y = clean_stream(inp)
    if inp.workload == "tcp_link":
        yq = y.astype(np.complex64).astype(np.complex128)
        for p in sampled:
            err = np.max(np.abs(h[row[p]] - direct_correlation(yq[p * n : (p + 1) * n], s)))
            if err > TOL_RECONSTRUCTED:
                problems.append(f"period {p}: direct-sum correlation differs by {err:.3g}")
        g = np.zeros(n, dtype=np.complex128)
        for delay, (re, im), _ in inp.taps:
            g[delay : delay + len(CABLE)] += complex(re, im) * np.asarray(CABLE)
        err = float(np.max(np.abs(h - g)))
        if err > TOL_CLOSED_FORM:
            problems.append(f"frames differ from the closed-form response by {err:.3g}")
        return problems

    sigma2 = 10.0 ** (-inp.snr_db / 10.0)
    for p in sampled:
        clean = direct_correlation(y[p * n : (p + 1) * n], s)
        ratio = np.mean(np.abs(h[row[p]] - clean) ** 2) / (sigma2 / n)
        lo, hi = NOISE_RATIO_LIMITS
        if not lo < ratio < hi:
            problems.append(f"period {p}: residual is {ratio:.3g} x the expected noise power")
    return problems


def _stimulate(inp: Inputs, path: str) -> list[str]:
    from chansounder import cli

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(["stimulate", "--config", inp.config, "--out", path])
    return [f"chansounder stimulate -> {rc}: {err.getvalue().strip()}"] if rc else []


def reference_frames(inp: Inputs, path: str) -> None:
    """Write the in-process ``run_sounding`` + ``write_frames`` result for the
    campaign's config, the yardstick the file and TCP paths must match."""
    from chansounder import framestore, load_config, run_sounding

    cfg = load_config(inp.config)
    framestore.write_frames(
        path,
        run_sounding(cfg),
        t_s=1.0 / cfg.sample_rate,
        calibration=cfg.calibration or "",
        total_sequences=cfg.num_sequences(),
    )
