"""Spans around the public calls into each layer, and the per-layer metrics.

The benchmark does not change the program.  For a traced pass it replaces
each probed function, in every ``chansounder`` module that refers to it,
with a wrapper that records a span: name, trace (``setup`` or the campaign
number), parent span, thread, start, end and the ``tracemalloc`` peak
above the memory in use when the span began.  Spans stay in memory and
are written out when the run ends.

Timing spans and memory spans come from separate campaigns: ``tracemalloc``
slows every allocation, so it is on (``memory = True``) only for the
campaigns that measure peaks, and the timed traced campaigns run without it.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager


def _size(*paths: str) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _path_bytes(key: str, meta: bool = False):
    return lambda a, kw, r: {key: _size(a[0], a[0] + ".meta") if meta else _size(a[0])}


#: (module, function, counts taken from (args, kwargs, result)).
SPAN_PROBES = [
    ("chansim", "apply_channel", None),
    ("chansim", "_rotate", None),
    ("chansim", "add_awgn", None),
    ("chansim", "inject_disruption", None),
    ("sounder", "stimulate_capture", None),
    ("sounder", "quantize_capture", None),
    ("sounder", "sequence_gate", None),
    ("sounder", "frames_from_capture", None),
    ("corrmath", "fast_pccf", None),
    ("charmetrics", "characterize", None),
    ("charmetrics", "pdp", None),
    ("charmetrics", "frequency_response_stats", None),
    ("charmetrics", "coherence_bandwidth", None),
    ("charmetrics", "doppler_map", None),
    ("charmetrics", "export_csv", lambda a, kw, r: {"csv_bytes": _size(*r)}),
    ("framestore", "write_capture", _path_bytes("bytes_written", meta=True)),
    ("framestore", "read_capture", _path_bytes("bytes_read", meta=True)),
    ("framestore", "write_frames", _path_bytes("bytes_written")),
    ("framestore", "read_frames", _path_bytes("bytes_read")),
    ("framestore", "write_trigger_log", _path_bytes("bytes_written")),
    ("framestore", "read_trigger_log", _path_bytes("bytes_read")),
    ("framestore", "write_profile", _path_bytes("bytes_written")),
    ("framestore", "read_profile", _path_bytes("bytes_read")),
    ("wire", "serve_capture", lambda a, kw, r: {"chunks": r.chunks_sent, "triggers": r.triggers_sent}),
    ("wire", "consume_stream", None),
    ("seqgen", "generate_fzc", None),
    ("seqgen", "generate_mls", None),
    ("config", "load_config", None),
    ("calib", "through_calibrate", lambda a, kw, r: {"clamped_bins": len(r.clamped_bins)}),
]
#: Called once per wire message, so they only count bytes, without a span.
COUNT_PROBES = [("wire", name, "bytes") for name in ("encode_hello", "encode_iq_chunk", "encode_trigger", "encode_end")]


class Tracer:
    """In-memory span recorder; safe to use from several threads."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[tuple[str, str], int] = {}
        self.trace = "setup"
        self.memory = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open: list[dict] = []
        self._patched: list[tuple[object, str, object]] = []

    def _fold_peak(self) -> int:
        # tracemalloc keeps one process-wide peak.  Fold it into every open
        # span before resetting it, so each span sees the highest peak of its
        # own lifetime whichever thread reset the counter.
        current, peak = tracemalloc.get_traced_memory()
        for s in self._open:
            s["peak_b"] = max(s["peak_b"], peak)
        tracemalloc.reset_peak()
        return current

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            current = self._fold_peak() if self.memory else None
            s = {
                "id": len(self.spans),
                "parent": stack[-1]["id"] if stack else None,
                "trace": self.trace,
                "name": name,
                "thread": threading.current_thread().name,
                "peak_b": current,
                "base_b": current,
                "counts": {},
            }
            self.spans.append(s)
            self._open.append(s)
        stack.append(s)
        s["start"] = time.perf_counter()
        try:
            yield s
        finally:
            s["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                if s["peak_b"] is not None:
                    self._fold_peak()
                    s["peak_b"] -= s["base_b"]
                self._open.remove(s)
                del s["base_b"]

    def count(self, key: str, n: int) -> None:
        with self._lock:
            k = (self.trace, key)
            self.counts[k] = self.counts.get(k, 0) + n

    def _wrap(self, layer: str, fn, counts_fn):
        name = f"{layer}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if counts_fn is not None:
                    s["counts"] = counts_fn(args, kwargs, result)
                return result

        return traced

    def _counter(self, layer: str, fn, key: str):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.count(f"{layer}.{key}", len(result))
            return result

        return counted

    def install(self) -> None:
        """Replace every probed function wherever a chansounder module refers to it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "chansounder" or n.startswith("chansounder.")]
        wrappers = [
            (getattr(sys.modules[f"chansounder.{m}"], f), self._wrap(m, getattr(sys.modules[f"chansounder.{m}"], f), c))
            for m, f, c in SPAN_PROBES
        ] + [
            (getattr(sys.modules[f"chansounder.{m}"], f), self._counter(m, getattr(sys.modules[f"chansounder.{m}"], f), k))
            for m, f, k in COUNT_PROBES
        ]
        for original, wrapper in wrappers:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def _empty() -> dict:
    return {"s": {}, "self": {}, "calls": {}, "counts": {}, "peak": {}}


def _summaries(tracer: Tracer) -> dict[str, dict]:
    """Per trace: inclusive and self seconds and call counts by span name,
    summed counts by layer key, and the peak by layer."""
    out: dict[str, dict] = {}
    child_time: dict[int, float] = {}
    for s in tracer.spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    for s in tracer.spans:
        t = out.setdefault(s["trace"], _empty())
        dur = s["end"] - s["start"]
        name, layer = s["name"], s["name"].split(".")[0]
        t["s"][name] = t["s"].get(name, 0.0) + dur
        t["self"][name] = t["self"].get(name, 0.0) + dur - child_time.get(s["id"], 0.0)
        t["calls"][name] = t["calls"].get(name, 0) + 1
        for key, n in s["counts"].items():
            t["counts"][f"{layer}.{key}"] = t["counts"].get(f"{layer}.{key}", 0) + n
        if s["peak_b"] is not None:
            t["peak"][layer] = max(t["peak"].get(layer, 0), s["peak_b"])
    for (trace, key), n in tracer.counts.items():
        t = out.setdefault(trace, _empty())
        t["counts"][key] = t["counts"].get(key, 0) + n
    return out


def _seconds(*names):
    return lambda t: sum(t["s"].get(n, 0.0) for n in names)


def _count(key):
    return lambda t: t["counts"].get(key, 0)


def _peak(layer):
    return lambda t: t["peak"].get(layer, 0) / float(1 << 20)


#: Per-layer metrics: (name, unit, better, where it is read, value of one trace).
#: "setup" metrics come from the traced set-up, "memory" metrics from the
#: campaigns traced with tracemalloc, the others are the median over the
#: timed traced campaigns.  ``sounder.periods_*`` are filled in from the
#: closed-form period accounting instead.
LAYER_METRICS = [
    ("chansim.apply_channel_s", "s", "lower", "campaign", _seconds("chansim.apply_channel")),
    ("chansim.static_taps_s", "s", "lower", "campaign", lambda t: t["self"].get("chansim.apply_channel", 0.0)),
    ("chansim.rotation_s", "s", "lower", "campaign", _seconds("chansim._rotate")),
    ("chansim.awgn_s", "s", "lower", "campaign", _seconds("chansim.add_awgn")),
    ("chansim.disruption_s", "s", "lower", "campaign", _seconds("chansim.inject_disruption")),
    ("sounder.stimulate_s", "s", "lower", "campaign", _seconds("sounder.stimulate_capture")),
    ("sounder.quantize_s", "s", "lower", "campaign", _seconds("sounder.quantize_capture")),
    ("sounder.gate_s", "s", "lower", "campaign", _seconds("sounder.sequence_gate")),
    ("sounder.frames_from_capture_s", "s", "lower", "campaign", _seconds("sounder.frames_from_capture")),
    ("sounder.us_per_period", "us", "lower", "campaign", None),
    ("sounder.periods_total", "count", "higher", "campaign", None),
    ("sounder.periods_kept", "count", "higher", "campaign", None),
    ("sounder.kept_ratio", "ratio", "higher", "campaign", None),
    ("corrmath.fast_pccf_us", "us", "lower", "campaign",
     lambda t: 1e6 * t["s"].get("corrmath.fast_pccf", 0.0) / max(1, t["calls"].get("corrmath.fast_pccf", 0))),
    ("charmetrics.characterize_s", "s", "lower", "campaign", _seconds("charmetrics.characterize")),
    ("charmetrics.pdp_s", "s", "lower", "campaign", _seconds("charmetrics.pdp")),
    ("charmetrics.frequency_stats_s", "s", "lower", "campaign", _seconds("charmetrics.frequency_response_stats")),
    ("charmetrics.coherence_bw_s", "s", "lower", "campaign", _seconds("charmetrics.coherence_bandwidth")),
    ("charmetrics.doppler_map_s", "s", "lower", "campaign", _seconds("charmetrics.doppler_map")),
    ("charmetrics.export_csv_s", "s", "lower", "campaign", _seconds("charmetrics.export_csv")),
    ("charmetrics.csv_bytes", "B", "lower", "campaign", _count("charmetrics.csv_bytes")),
    ("framestore.write_capture_s", "s", "lower", "campaign", _seconds("framestore.write_capture")),
    ("framestore.read_capture_s", "s", "lower", "campaign", _seconds("framestore.read_capture")),
    ("framestore.write_frames_s", "s", "lower", "campaign", _seconds("framestore.write_frames")),
    ("framestore.read_frames_s", "s", "lower", "campaign", _seconds("framestore.read_frames")),
    ("framestore.bytes_written", "B", "lower", "campaign", _count("framestore.bytes_written")),
    ("framestore.bytes_read", "B", "lower", "campaign", _count("framestore.bytes_read")),
    ("wire.serve_capture_s", "s", "lower", "campaign", _seconds("wire.serve_capture")),
    ("wire.consume_stream_s", "s", "lower", "campaign", _seconds("wire.consume_stream")),
    ("wire.chunks", "count", "lower", "campaign", _count("wire.chunks")),
    ("wire.bytes", "B", "lower", "campaign", _count("wire.bytes")),
    ("wire.triggers", "count", "lower", "campaign", _count("wire.triggers")),
    ("chansim.peak_mib", "MiB", "lower", "memory", _peak("chansim")),
    ("sounder.peak_mib", "MiB", "lower", "memory", _peak("sounder")),
    ("charmetrics.peak_mib", "MiB", "lower", "memory", _peak("charmetrics")),
    ("framestore.peak_mib", "MiB", "lower", "memory", _peak("framestore")),
    ("wire.peak_mib", "MiB", "lower", "memory", _peak("wire")),
    ("seqgen.generate_s", "s", "lower", "setup", _seconds("seqgen.generate_fzc", "seqgen.generate_mls")),
    ("seqgen.calls", "count", "lower", "setup",
     lambda t: t["calls"].get("seqgen.generate_fzc", 0) + t["calls"].get("seqgen.generate_mls", 0)),
    ("config.load_s", "s", "lower", "setup", _seconds("config.load_config")),
    ("calib.through_calibrate_s", "s", "lower", "setup", _seconds("calib.through_calibrate")),
    ("calib.clamped_bins", "count", "lower", "setup", _count("calib.clamped_bins")),
    ("cli.sound_s", "s", "lower", "campaign", _seconds("cli.sound")),
    ("cli.stimulate_s", "s", "lower", "campaign", _seconds("cli.stimulate")),
    ("cli.correlate_s", "s", "lower", "campaign", _seconds("cli.correlate")),
    ("cli.characterize_s", "s", "lower", "campaign", _seconds("cli.characterize")),
    ("cli.calibrate_s", "s", "lower", "setup", _seconds("cli.calibrate")),
    ("trace.overhead_s", "s", "lower", "campaign", None),
]


def layer_metrics(tracer: Tracer, periods_total: int, periods_kept: int, overhead_s: float) -> dict:
    """Every per-layer metric as ``{name: {"value": v, "unit": u}}``.

    A layer that a workload never calls reads 0.
    """
    traces = _summaries(tracer)
    groups = {"setup": [traces.get("setup", _empty())], "memory": [], "campaign": []}
    for key, t in traces.items():
        if key != "setup":
            groups["memory" if key.startswith("memory") else "campaign"].append(t)
    out = {}
    for name, unit, _, where, fn in LAYER_METRICS:
        if fn is not None:
            out[name] = {"value": statistics.median(fn(t) for t in groups[where] or [_empty()]), "unit": unit}
    ffc = out["sounder.frames_from_capture_s"]["value"]
    out["sounder.us_per_period"] = {"value": 1e6 * ffc / periods_total, "unit": "us"}
    out["sounder.periods_total"] = {"value": periods_total, "unit": "count"}
    out["sounder.periods_kept"] = {"value": periods_kept, "unit": "count"}
    out["sounder.kept_ratio"] = {"value": periods_kept / periods_total, "unit": "ratio"}
    out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return {name: out[name] for name, *_ in LAYER_METRICS}
