"""Every range check on a library argument goes through ``frames.check``
with a shared ``(test, rule)`` tuple: it raises ``ValueError`` as
"<name> must <rule>, got <value>" exactly when the rule's test fails,
and a setting that also has a config key states the key's rule text."""

import math
import struct
import sys
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chansounder import calib, chansim, charmetrics, framestore, seqgen, sounder, wire
from chansounder.config import CampaignConfig
from chansounder.frames import AT_LEAST_1, FINITE, GAIN_CAP_DB, INTEGER, MAX_GAIN_CAP_DB, NON_NEGATIVE
from chansounder.frames import NON_NEGATIVE_INTEGER, OPEN_UNIT, POSITIVE_FINITE, RATE, FrameSeries, IqFrame, TriggerEvent

TINY = 5e-324  # the least positive float
BELOW_ONE = 1.0 - 2.0**-53  # the greatest float below 1
BIG = sys.float_info.max
LEAST_RATE = 5.56268464626801e-309  # the least float with a finite reciprocal
#: The greatest float whose reciprocal (LEAST_RATE) has a finite reciprocal:
#: the three floats above it, BIG among them, have 2**-1024 for reciprocal.
GREATEST_RATE = 1.7976931348623151e308
#: The accepted edges of RATE and values just past them: at the lower edge
#: the float below, the least positive float and that as a numpy scalar; at
#: the upper edge the float above, the greatest float (also as a numpy
#: scalar), infinity and an int past float range.
RATE_EDGES = [
    (LEAST_RATE, math.nextafter(LEAST_RATE, 0.0)),
    (LEAST_RATE, TINY),
    (np.float64(LEAST_RATE), np.float64(TINY)),
    (GREATEST_RATE, math.nextafter(GREATEST_RATE, math.inf)),
    (GREATEST_RATE, BIG),
    (np.float64(GREATEST_RATE), np.float64(BIG)),
    (GREATEST_RATE, math.inf),
    (GREATEST_RATE, 2**1024),
]
#: The accepted edges of POSITIVE_FINITE and values just past them: zero,
#: infinity and an int past float range.
POSITIVE_FINITE_EDGES = [(TINY, 0.0), (BIG, math.inf), (BIG, 2**1024)]


def label(value) -> str:
    """A test id's text for ``value``: its repr, or a power of two whose
    repr runs to 309 digits."""
    return {2**1024: "2**1024", -(2**1024): "-2**1024"}.get(value, repr(value))


FRAME = IqFrame(np.ones(16, dtype=complex), 1e6)
SERIES = FrameSeries(np.ones((2, 4), dtype=complex), [0, 1], [0.0, 0.0])
SEQ = seqgen.generate_fzc(8, 1)


def _num_sequences(n):
    cfg = CampaignConfig()
    cfg.n_sequences = n
    return cfg.num_sequences()


@dataclass
class Site:
    """One argument check: the name its error gives, the rules it checks
    in order, a call that passes ``value`` to it, and (accepted edge,
    value just past it) pairs."""

    id: str
    name: str
    rules: list
    call: object
    edges: list

    def message(self, value):
        """The error ``value`` must raise, or None when every rule passes."""
        for test, rule in self.rules:
            if not test(value):
                return f"{self.name} must {rule}, got {value}"
        return None


SITES = [
    # these twelve settings also have a config key, the sample rate two
    Site("generate_mls", "register length", [INTEGER, seqgen.REGISTER_LENGTHS], seqgen.generate_mls,
         [(2, 1), (24, 25), (2, 2.0)]),
    # root 0 stops the call right after the length checks
    Site("generate_fzc length", "sequence length", [INTEGER, seqgen.LENGTHS], lambda v: seqgen.generate_fzc(v, 0),
         [(2, 1), (2, 2.0)]),
    Site("generate_fzc root", "root", [INTEGER, seqgen.ROOTS], lambda v: seqgen.generate_fzc(2, v),
         [(1, 0), (1, 1.0)]),
    Site("coherence_bandwidth", "threshold", [OPEN_UNIT], lambda v: charmetrics.coherence_bandwidth(np.ones(4), 1e6, v),
         [(TINY, 0.0), (BELOW_ONE, 1.0)]),
    Site("stamp_disruption", "corrupt_span", [AT_LEAST_1], lambda v: chansim.stamp_disruption([], v, 0, 16),
         [(1, 0)]),
    Site("add_awgn", "SNR", [FINITE], lambda v: chansim.add_awgn(FRAME, v),
         [(BIG, math.inf), (-BIG, -math.inf), (BIG, 2**1024), (-BIG, -(2**1024))]),
    Site("through_calibrate", "gain cap", [GAIN_CAP_DB], lambda v: calib.through_calibrate(SERIES, v),
         [(0.0, -TINY), (0, -1), (MAX_GAIN_CAP_DB, math.nextafter(MAX_GAIN_CAP_DB, math.inf)),
          (MAX_GAIN_CAP_DB, BIG), (MAX_GAIN_CAP_DB, math.inf), (MAX_GAIN_CAP_DB, 2**1024)]),
    Site("num_sequences", "n_sequences", [AT_LEAST_1], _num_sequences, [(1, 0)]),
    Site("IqFrame sample rate", "sample rate", [RATE], lambda v: IqFrame(np.ones(4), v), RATE_EDGES),
    Site("bind_rate", "sample rate", [RATE], lambda v: seqgen.bind_rate(SEQ, v), RATE_EDGES),
    Site("doppler_to_speed", "carrier frequency", [POSITIVE_FINITE], lambda v: charmetrics.doppler_to_speed(1.0, v),
         POSITIVE_FINITE_EDGES),
    Site("max_distance_estimate", "reference distance", [POSITIVE_FINITE],
         lambda v: charmetrics.max_distance_estimate(10.0, v), POSITIVE_FINITE_EDGES),
    # these eleven have a shared rule but no config key of their own
    Site("doppler_map", "sequence period", [RATE], lambda v: charmetrics.doppler_map(SERIES, v), RATE_EDGES),
    Site("max_doppler", "sequence period", [RATE], charmetrics.max_doppler, RATE_EDGES),
    Site("coherence_time", "Doppler spread", [NON_NEGATIVE], charmetrics.coherence_time, [(0.0, -TINY)]),
    Site("doppler_resolution", "capture duration", [RATE], charmetrics.doppler_resolution, RATE_EDGES),
    Site("stimulate_capture", "n_reps", [AT_LEAST_1], lambda v: sounder.stimulate_capture(SEQ, v, 1e6, stop=0),
         [(1, 0)]),
    Site("sequence_gate", "sequence length", [AT_LEAST_1], lambda v: sounder.sequence_gate(FRAME, [], v), [(1, 0)]),
    Site("normalize", "sequence length", [AT_LEAST_1], lambda v: sounder.normalize(np.ones(4), v), [(1, 0)]),
    Site("IqFrame", "start_index", [NON_NEGATIVE], lambda v: IqFrame(np.ones(4), 1e6, 0.0, v), [(0, -1)]),
    Site("TriggerEvent index", "trigger sample_index", [NON_NEGATIVE], TriggerEvent, [(0, -1)]),
    Site("TriggerEvent span", "trigger span", [AT_LEAST_1], lambda v: TriggerEvent(0, span=v), [(1, 0)]),
    Site("ChannelTap", "tap delay", [NON_NEGATIVE_INTEGER], lambda v: chansim.ChannelTap(v, 1.0),
         [(0, -1), (0, 0.0)]),
]
SITES_BY_ID = {site.id: site for site in SITES}


def rule_error(site, value):
    """The text of the error ``site.call(value)`` raises when it is one of
    the site's rule errors, else None.  Any other outcome of a value the
    rules accept (an overflow further on, say) is not the check's."""
    try:
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            site.call(value)
    except Exception as exc:
        if isinstance(exc, ValueError) and str(exc).startswith(f"{site.name} must "):
            return str(exc)
    return None


@pytest.mark.parametrize(
    "site, edge, past",
    [pytest.param(s, e, p, id=f"{s.id}-{label(e)}-{label(p)}") for s in SITES for e, p in s.edges],
)
def test_edge_is_accepted_and_the_value_past_it_raises_its_rule(site, edge, past):
    assert site.message(edge) is None and rule_error(site, edge) is None
    with pytest.raises(ValueError) as exc:
        site.call(past)
    assert str(exc.value) == site.message(past)
    assert str(exc.value).startswith(f"{site.name} must ")


#: Ints, also past float range, floats, both infinities and NaN.
VALUES = st.one_of(
    st.integers(-(2**1100), 2**1100),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0, 0.0, -0.0, 1, 2, -1]),
)


@pytest.mark.parametrize("site", SITES, ids=[s.id for s in SITES])
@settings(max_examples=60, deadline=None)
@given(value=VALUES)
def test_a_call_raises_its_rule_if_and_only_if_the_rule_fails(site, value):
    assert rule_error(site, value) == site.message(value)


@pytest.mark.parametrize("value", [math.nan, np.float64("nan")])
@pytest.mark.parametrize("site", SITES, ids=[s.id for s in SITES])
def test_nan_fails_every_rule(site, value):
    assert rule_error(site, value) == site.message(value) is not None


#: Each setting with a config key: the key, a text outside its range, the
#: argument's site and the same value as the argument takes it.
KEYED = [
    ("sequence.register_length", "25", "generate_mls", 25),
    ("sequence.length", "1", "generate_fzc length", 1),
    ("sequence.root", "0", "generate_fzc root", 0),
    ("bc_threshold", "1", "coherence_bandwidth", 1.0),
    ("corrupt_span", "0", "stamp_disruption", 0),
    ("channel.snr_db", "inf", "add_awgn", math.inf),
    ("gain_cap_db", "-1", "through_calibrate", -1.0),
    ("n_sequences", "0", "num_sequences", 0),
    ("sample_rate", "inf", "IqFrame sample rate", math.inf),
    ("sample_rate", "inf", "bind_rate", math.inf),
    ("center_frequency", "inf", "doppler_to_speed", math.inf),
    ("max_distance_ref_m", "inf", "max_distance_estimate", math.inf),
]


@pytest.mark.parametrize("key, text, site_id, value", KEYED, ids=[k[0] for k in KEYED])
def test_key_and_argument_state_the_same_rule(key, text, site_id, value):
    site = SITES_BY_ID[site_id]
    with pytest.raises(ValueError) as key_exc:
        CampaignConfig().set_key(key, text, "--where")
    with pytest.raises(ValueError) as arg_exc:
        site.call(value)
    key_rule = str(key_exc.value).removeprefix(f"--where: {key} must ").removesuffix(f", got {value}")
    arg_rule = str(arg_exc.value).removeprefix(f"{site.name} must ").removesuffix(f", got {value}")
    assert arg_rule == site.rules[-1][1]
    # an optional key also lets None pass: "be none or <rule>"
    assert key_rule in (arg_rule, "be none or " + arg_rule.removeprefix("be "))


def test_rate_compares_without_a_warning_or_an_overflow():
    # RuntimeWarning is an error in this suite; an int past float range,
    # which no float division takes, is compared, not converted
    test, _ = RATE
    assert 1.0 / LEAST_RATE < math.inf == 1.0 / math.nextafter(LEAST_RATE, 0.0)
    assert 1.0 / (1.0 / GREATEST_RATE) < math.inf == 1.0 / (1.0 / math.nextafter(GREATEST_RATE, math.inf))
    assert all(test(v) for v in (2**1000, GREATEST_RATE, np.float64(GREATEST_RATE), np.float64(LEAST_RATE)))
    assert not any(test(v) for v in (2**1024, -(2**2000), BIG, np.float64(BIG), math.inf, np.float64(TINY), 0))
    assert not test(np.float64("nan"))
    for call in (charmetrics.max_doppler, charmetrics.doppler_resolution):
        with pytest.raises(ValueError, match=" must be positive and finite with a finite reciprocal whose "
                           "reciprocal is finite, got 1797"):
            call(2**1024)


#: Floats of either sign, subnormals and both edges of RATE among them.
EDGE_FLOATS = [TINY, math.nextafter(LEAST_RATE, 0.0), LEAST_RATE, GREATEST_RATE, BIG, math.inf]
FLOATS = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS + [-v for v in EDGE_FLOATS]))


@settings(max_examples=500, deadline=None)
@given(value=st.one_of(FLOATS, FLOATS.map(np.float64), st.integers(-(2**1100), 2**1100)))
def test_rate_holds_for_a_value_only_if_it_holds_for_its_reciprocal(value):
    test, _ = RATE
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning fails, as an OverflowError does
        if test(value):
            assert test(1 / value)


@pytest.mark.parametrize("rule", [POSITIVE_FINITE, FINITE, GAIN_CAP_DB, RATE], ids=lambda r: r[1])
def test_float_rules_compare_an_int_past_float_range(rule):
    # no float conversion, so no OverflowError: the int is past the range
    test, _ = rule
    assert not any(test(v) for v in (2**1024, -(2**1024), 2**2000))


def test_max_distance_past_float_range_is_infinite():
    # 10**(6200 / 20) = 1e310 is past float range, as 10**(inf / 20) is
    assert charmetrics.max_distance_estimate(6200.0, 1.0) == math.inf
    assert charmetrics.max_distance_estimate(math.inf, 1.0) == math.inf
    assert charmetrics.max_distance_estimate(6000.0, 1.0) == 1e300
    assert charmetrics.max_distance_estimate(-7000.0, 1.0) == 0.0


def _sidecar_rate(path, v):
    """``read_capture`` of a capture whose ``.meta`` gives sample rate ``v``."""
    framestore.write_capture(path, IqFrame(np.ones(4), 1e6), framestore.CaptureMeta())
    with open(path + ".meta") as f:
        text = f.read().replace("sample_rate=1000000.0", f"sample_rate={v!r}")
    with open(path + ".meta", "w") as f:
        f.write(text)
    return framestore.read_capture(path)


def _header_t_s(path, v):
    """``read_frames`` of a series whose header gives ``t_s=v``."""
    framestore.write_frames(path, SERIES, 1e-6)
    with open(path, "rb") as f:
        magic, (size,) = f.read(4), struct.unpack("<I", f.read(4))
        head, records = f.read(size).replace(b"t_s=1e-06", f"t_s={v!r}".encode()), f.read()
    with open(path, "wb") as f:
        f.write(magic + struct.pack("<I", len(head)) + head + records)
    return framestore.read_frames(path)


#: Each entry that takes a sample rate or a sample period, as a call that
#: passes it ``v`` (a file it reads goes to ``path``), and the start of the
#: message of the error that rejects ``v``.
RATE_ENTRIES = {
    "sample_rate key": (lambda path, v: CampaignConfig().set_key("sample_rate", repr(v), "--fs"), "--fs: sample_rate"),
    "check_sample_rate": (lambda path, v: sounder.capture_stream(CampaignConfig(sample_rate=v)), "sample rate"),
    ".meta sample_rate": (_sidecar_rate, "capture sidecar field sample_rate"),
    "HELLO fs": (lambda path, v: wire.decode_message(wire.encode_hello(wire.Hello(v, 0.0, ""))[4:]), "HELLO carries"),
    ".frames t_s": (_header_t_s, "frame-series header field t_s"),
}


@pytest.mark.parametrize("entry", RATE_ENTRIES)
def test_every_sample_rate_and_period_entry_holds_to_the_rate_rule(tmp_path, entry):
    call, name = RATE_ENTRIES[entry]
    path = str(tmp_path / "f")
    values = (LEAST_RATE, 1e6, GREATEST_RATE, TINY, math.nextafter(LEAST_RATE, 0.0), BIG, 0.0, math.inf, math.nan)
    for v in values:
        try:
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore")
                call(path, v)
            raised = ""
        except ValueError as exc:
            raised = str(exc)
        assert (name in raised) == (not RATE[0](v)), (v, raised)


def _duration_config(fs):
    """A campaign at sample rate ``fs`` whose length is set by a duration."""
    cfg = CampaignConfig(sample_rate=fs)
    cfg.set_key("duration", "1.0", "--duration")
    return cfg


#: Each entry that makes a sequence period from a sample rate it has
#: accepted, as a call that passes it the rate ``fs`` and the period it makes.
PERIOD_ENTRIES = {
    "capture_stream": (lambda fs: sounder.capture_stream(CampaignConfig(sample_rate=fs)), lambda fs: 1024 / fs),
    "check_corrections": (lambda fs: sounder.check_corrections(None, 64, fs, 0.0, "before"), lambda fs: 64 * (1 / fs)),
    "Sequence.duration": (lambda fs: seqgen.bind_rate(SEQ, fs).duration, lambda fs: 8 * (1 / fs)),
    "num_sequences": (lambda fs: _duration_config(fs).num_sequences(), lambda fs: 1024 / fs),
}


@pytest.mark.parametrize("entry", PERIOD_ENTRIES)
def test_every_sequence_period_holds_to_the_rate_rule(entry):
    call, period = PERIOD_ENTRIES[entry]
    for fs in (LEAST_RATE, 6e-309, 1e-300, 1e6, 1e300, GREATEST_RATE):
        assert RATE[0](fs)
        try:
            call(fs)
            raised = ""
        except ValueError as exc:
            raised = str(exc)
        assert raised.startswith("sequence period must ") == (not RATE[0](period(fs))), (fs, raised)
