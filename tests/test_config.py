"""Campaign configuration parsing tests."""

import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chansounder.config import _KEYS, CampaignConfig, load_config
from chansounder.frames import GAIN_CAP_DB, MAX_GAIN_CAP_DB
from chansounder.seqgen import MAX_REGISTER_LENGTH

from conftest import range_checked_keys


def write(path, text):
    path.write_text(text)
    return str(path)


class TestDefaults:
    def test_reference_campaign(self):
        cfg = CampaignConfig()
        assert cfg.family == "fzc"
        assert cfg.length == 1024
        assert cfg.root == 7
        assert cfg.sample_rate == 1e6
        assert cfg.center_frequency == 5.8e9
        assert cfg.n_sequences == 200
        assert cfg.channel_taps == [(0, 1 + 0j, 0.0), (3, 0.5j, 0.0), (11, -0.2 + 0.1j, 0.0)]
        assert cfg.snr_db is None
        assert cfg.cable == [1 + 0j, 0j, 0.25 + 0j]
        assert cfg.seed == 0
        assert cfg.corrupt_span == 128
        assert cfg.gain_cap_db == 40.0
        assert cfg.discard_first is True
        assert cfg.dc_position == "before"
        assert cfg.bc_threshold == 0.5
        assert not cfg.sequence_pinned()

    def test_make_sequence_default(self):
        seq = CampaignConfig().make_sequence()
        assert seq.n_seq == 1024
        assert seq.family == "fzc"

    def test_num_sequences_default(self):
        assert CampaignConfig().num_sequences() == 200


class TestParsing:
    def test_all_key_types(self, tmp_path):
        path = write(
            tmp_path / "camp.cfg",
            """
# comment line
sequence.family = mls
sequence.register_length = 8
sequence.taps = 8,6,5,4
sample_rate = 2.5e6
center_frequency = 2.4e9   # trailing comment
n_sequences = 50
channel.taps = 0:1 ; 5 : 0.5j : 12.5
channel.cable = 1, 0, 0.25j
channel.snr_db = 20
channel.cfo_hz = 100.0
seed = 42
triggers = 1000:overflow:buf ; 2000:external
corrupt_span = 64
gain_cap_db = 35
discard_first = no
dc_suppression_hz = 781e3
dc_position = after
doppler_zero_fill = true
bc_threshold = 0.9
chunk_samples = 512
timeout = 2.0
endpoint = 127.0.0.1:7000
""",
        )
        cfg = load_config(path)
        assert cfg.family == "mls"
        assert cfg.register_length == 8
        assert cfg.taps == (8, 6, 5, 4)
        assert cfg.sample_rate == 2.5e6
        assert cfg.center_frequency == 2.4e9
        assert cfg.n_sequences == 50
        assert cfg.channel_taps == [(0, 1 + 0j, 0.0), (5, 0.5j, 12.5)]
        assert cfg.cable == [1 + 0j, 0j, 0.25j]
        assert cfg.snr_db == 20.0
        assert cfg.cfo_hz == 100.0
        assert cfg.seed == 42
        assert cfg.triggers == [(1000, "overflow", "buf"), (2000, "external", "")]
        assert cfg.corrupt_span == 64
        assert cfg.gain_cap_db == 35.0
        assert cfg.discard_first is False
        assert cfg.dc_suppression_hz == 781e3
        assert cfg.dc_position == "after"
        assert cfg.doppler_zero_fill is True
        assert cfg.bc_threshold == 0.9
        assert cfg.chunk_samples == 512
        assert cfg.timeout == 2.0
        assert cfg.endpoint == "127.0.0.1:7000"
        assert cfg.sequence_pinned()

    def test_mls_taps_dot_form(self, tmp_path):
        path = write(tmp_path / "c.cfg", "sequence.taps = 10.7\n")
        cfg = load_config(path)
        assert cfg.taps == (10, 7)

    def test_unknown_key_names_file_and_line(self, tmp_path):
        path = write(tmp_path / "c.cfg", "sample_rate = 1e6\nbogus_key = 3\n")
        with pytest.raises(ValueError, match=r"c\.cfg:2: unknown config key 'bogus_key'"):
            load_config(path)

    def test_downsample_threshold_key_is_gone(self, tmp_path):
        path = write(tmp_path / "c.cfg", "downsample_threshold_db = -20\n")
        with pytest.raises(ValueError, match="unknown config key 'downsample_threshold_db'"):
            load_config(path)

    def test_missing_equals_sign(self, tmp_path):
        path = write(tmp_path / "c.cfg", "just some words\n")
        with pytest.raises(ValueError, match=r"c\.cfg:1"):
            load_config(path)

    def test_bad_value_carries_location(self, tmp_path):
        path = write(tmp_path / "c.cfg", "\nsample_rate = fast\n")
        with pytest.raises(ValueError, match=r"c\.cfg:2"):
            load_config(path)

    def test_bad_bool(self, tmp_path):
        path = write(tmp_path / "c.cfg", "discard_first = maybe\n")
        with pytest.raises(ValueError, match="boolean"):
            load_config(path)

    def test_bad_channel_tap_shape(self, tmp_path):
        path = write(tmp_path / "c.cfg", "channel.taps = 0:1:2:3\n")
        with pytest.raises(ValueError, match="delay:gain"):
            load_config(path)

    def test_empty_channel_taps(self, tmp_path):
        path = write(tmp_path / "c.cfg", "channel.taps = ;\n")
        with pytest.raises(ValueError, match="at least one tap"):
            load_config(path)

    def test_bad_trigger(self, tmp_path):
        path = write(tmp_path / "c.cfg", "triggers = 500\n")
        with pytest.raises(ValueError, match="index:kind"):
            load_config(path)

    def test_bad_dc_position(self, tmp_path):
        path = write(tmp_path / "c.cfg", "dc_position = during\n")
        with pytest.raises(ValueError, match="before or after"):
            load_config(path)

    def test_bad_family(self, tmp_path):
        path = write(tmp_path / "c.cfg", "sequence.family = gold\n")
        with pytest.raises(ValueError, match="fzc or mls"):
            load_config(path)

    @pytest.mark.parametrize(
        "line",
        ["discard_first = maybe", "channel.taps = 0:1:2:3", "triggers = 500", "seed = x"],
    )
    def test_bad_value_names_its_location_once(self, tmp_path, line):
        path = write(tmp_path / "c.cfg", line + "\n")
        with pytest.raises(ValueError) as info:
            load_config(path)
        assert str(info.value).startswith(f"{path}:1: ")
        assert str(info.value).count("c.cfg:1") == 1

    def test_duration_then_count_wins_in_file_order(self, tmp_path):
        path = write(tmp_path / "c.cfg", "duration = 0.1024\nn_sequences = 7\n")
        assert load_config(path).num_sequences() == 7

    def test_empty_cable_means_none(self, tmp_path):
        path = write(tmp_path / "c.cfg", "channel.cable =\n")
        assert load_config(path).cable is None

    def test_snr_none(self, tmp_path):
        path = write(tmp_path / "c.cfg", "channel.snr_db = none\n")
        assert load_config(path).snr_db is None


class TestIncludes:
    def test_include_chain_later_wins(self, tmp_path):
        base = write(tmp_path / "base.cfg", "seed = 1\nsample_rate = 1e6\n")
        write(
            tmp_path / "top.cfg",
            f"include = base.cfg\nseed = 9\n",
        )
        cfg = load_config(str(tmp_path / "top.cfg"))
        assert cfg.seed == 9
        assert cfg.sample_rate == 1e6

    def test_include_from_subdirectory_is_relative(self, tmp_path):
        sub = tmp_path / "sub"
        sub.mkdir()
        write(sub / "inner.cfg", "seed = 5\n")
        write(tmp_path / "outer.cfg", "include = sub/inner.cfg\n")
        assert load_config(str(tmp_path / "outer.cfg")).seed == 5

    def test_assignment_before_include_is_overridden(self, tmp_path):
        write(tmp_path / "inner.cfg", "seed = 2\n")
        write(tmp_path / "outer.cfg", "seed = 1\ninclude = inner.cfg\n")
        assert load_config(str(tmp_path / "outer.cfg")).seed == 2

    def test_cycle_detected(self, tmp_path):
        write(tmp_path / "a.cfg", "include = b.cfg\n")
        write(tmp_path / "b.cfg", "include = a.cfg\n")
        with pytest.raises(ValueError, match="cycle"):
            load_config(str(tmp_path / "a.cfg"))

    def test_self_include_detected(self, tmp_path):
        write(tmp_path / "a.cfg", "include = a.cfg\n")
        with pytest.raises(ValueError, match="cycle"):
            load_config(str(tmp_path / "a.cfg"))


class TestDerivedQuantities:
    def test_duration_sets_sequence_count(self, tmp_path):
        # 1024 samples at 1 MSps is 1.024 ms per period
        path = write(tmp_path / "c.cfg", "duration = 0.1024\n")
        cfg = load_config(path)
        assert cfg.n_sequences is None
        assert cfg.num_sequences() == 100

    def test_duration_too_short(self, tmp_path):
        path = write(tmp_path / "c.cfg", "duration = 1e-9\n")
        with pytest.raises(ValueError, match="shorter than one sequence"):
            load_config(path).num_sequences()

    def test_neither_count_nor_duration(self):
        cfg = CampaignConfig()
        cfg.n_sequences = None
        cfg.duration = None
        with pytest.raises(ValueError, match="n_sequences or duration"):
            cfg.num_sequences()

    def test_channel_model_coercion(self):
        cfg = CampaignConfig()
        cfg.channel_taps = [(2, "0.5j", "3.0")]
        model = cfg.channel_model()
        assert model.taps[0].delay == 2
        assert model.taps[0].gain == 0.5j
        assert model.taps[0].doppler_hz == 3.0

    def test_trigger_events_from_inline_list(self):
        cfg = CampaignConfig()
        cfg.triggers = [(100, "external", "hi")]
        evs = cfg.trigger_events()
        assert len(evs) == 1
        assert evs[0].sample_index == 100
        assert evs[0].kind == "external"
        assert evs[0].note == "hi"

    def test_trigger_events_from_log(self, tmp_path):
        log = tmp_path / "t.log"
        log.write_text("700,overflow,32,note\n")
        cfg = CampaignConfig()
        cfg.trigger_log = str(log)
        evs = cfg.trigger_events()
        assert evs[0].sample_index == 700 and evs[0].span == 32

    def test_load_profile_none(self):
        assert CampaignConfig().load_profile() is None


class TestValueChecksAtTheirLine:
    """A trigger or channel tap that its class rejects fails while the file
    is read, with the file and line, and not later without them."""

    @pytest.mark.parametrize(
        "line, message",
        [
            ("triggers = 5000:bogus:x", "unknown trigger kind 'bogus'"),
            ("triggers = 10:overflow ; -3:external", "trigger sample_index must be non-negative"),
            ("channel.taps = -1:1", "tap delay must be a non-negative integer, got -1"),
            ("channel.taps = 0:1 ; -4:0.5j:3", "tap delay must be a non-negative integer, got -4"),
        ],
    )
    def test_bad_value_names_file_and_line(self, tmp_path, line, message):
        path = write(tmp_path / "c.cfg", f"seed = 1\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: {message}")):
            load_config(path)


#: The keys checked against a range where they are set, with that range.
RANGES = {
    "bc_threshold": lambda v: 0 < v < 1,
    "center_frequency": lambda v: 0 < v < math.inf,
    "max_distance_ref_m": lambda v: v is None or 0 < v < math.inf,
    "corrupt_span": lambda v: v >= 1,
    "chunk_samples": lambda v: v >= 1,
    "gain_cap_db": lambda v: 0 <= v <= MAX_GAIN_CAP_DB,
    "dc_suppression_hz": lambda v: v >= 0,
    "duration": lambda v: v is None or 0 < v < math.inf,
    "timeout": lambda v: 0 < v < math.inf,
    "sample_rate": lambda v: 0 < v < math.inf,
    "channel.snr_db": lambda v: v is None or math.isfinite(v),
    "channel.cfo_hz": math.isfinite,
    "n_sequences": lambda v: v is None or v >= 1,
    "sequence.length": lambda v: v >= 2,
    "sequence.root": lambda v: v >= 1,
    "sequence.register_length": lambda v: 2 <= v <= MAX_REGISTER_LENGTH,
    "seed": lambda v: 0 <= v < 2**128,
}


class TestRangeChecks:
    def test_every_range_checked_key_has_its_range_here(self):
        assert set(RANGES) == range_checked_keys()

    @given(
        key=st.sampled_from(sorted(RANGES)),
        text=st.one_of(
            st.integers(-5, 5).map(str),
            st.floats().map(repr),
            st.sampled_from(["inf", "-inf", "nan", "1e400", "0.5", "", "x", str(2**128 - 1), str(2**128)]),
        ),
    )
    def test_any_text_sets_an_in_range_value_or_fails_at_its_flag(self, key, text):
        cfg = CampaignConfig()
        name, _ = _KEYS[key]
        before = getattr(cfg, name)
        try:
            cfg.set_key(key, text, "--where")
        except ValueError as exc:
            assert str(exc).startswith("--where: ")
            assert getattr(cfg, name) == before and key not in cfg.explicit
        else:
            assert RANGES[key](getattr(cfg, name))

    @pytest.mark.parametrize(
        "line, message",
        [
            ("bc_threshold = 1", "bc_threshold must lie in (0, 1), got 1.0"),
            ("corrupt_span = 0", "corrupt_span must be at least 1, got 0"),
            ("chunk_samples = -1", "chunk_samples must be at least 1, got -1"),
            ("gain_cap_db = inf", f"gain_cap_db must {GAIN_CAP_DB[1]}, got inf"),
            ("gain_cap_db = 1e10", f"gain_cap_db must {GAIN_CAP_DB[1]}, got 10000000000.0"),
            ("dc_suppression_hz = nan", "dc_suppression_hz must be non-negative, got nan"),
            ("duration = inf", "duration must be none or positive and finite, got inf"),
            ("duration = 0", "duration must be none or positive and finite, got 0.0"),
            ("timeout = nan", "timeout must be positive and finite, got nan"),
            ("timeout = -1", "timeout must be positive and finite, got -1.0"),
            ("center_frequency = 0", "center_frequency must be positive and finite, got 0.0"),
            ("center_frequency = inf", "center_frequency must be positive and finite, got inf"),
            ("max_distance_ref_m = -1", "max_distance_ref_m must be none or positive and finite, got -1.0"),
            (
                "sample_rate = -5",
                "sample_rate must be positive and finite with a finite reciprocal whose reciprocal is finite, got -5.0",
            ),
            ("channel.snr_db = inf", "channel.snr_db must be none or finite, got inf"),
            ("channel.cfo_hz = nan", "channel.cfo_hz must be finite, got nan"),
            ("n_sequences = 0", "n_sequences must be none or at least 1, got 0"),
            ("sequence.length = 1", "sequence.length must be at least 2, got 1"),
            ("sequence.root = 0", "sequence.root must be at least 1, got 0"),
            ("sequence.register_length = 25", "sequence.register_length must lie in 2..24, got 25"),
            ("seed = -1", "seed must lie in 0..2**128 - 1, got -1"),
        ],
    )
    def test_out_of_range_value_names_file_and_line(self, tmp_path, line, message):
        path = write(tmp_path / "c.cfg", f"seed = 1\n{line}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: {message}")):
            load_config(path)


class TestSetKey:
    @pytest.mark.parametrize("key", sorted(_KEYS))
    @settings(max_examples=40)
    @given(
        text=st.one_of(
            st.text(),
            st.floats().map(repr),
            st.integers().map(str),
            st.sampled_from(["none", "inf", "nan", "1e400", "0:1:2", "5:overflow", "1,2", "fzc", "yes"]),
        ),
    )
    def test_any_text_sets_the_field_or_raises_value_error(self, key, text):
        cfg = CampaignConfig()
        name, parse = _KEYS[key]
        before = repr(getattr(cfg, name))
        try:
            cfg.set_key(key, text, "--where")
        except ValueError as exc:
            assert str(exc).startswith("--where: ")
            assert repr(getattr(cfg, name)) == before and key not in cfg.explicit
        else:
            assert repr(getattr(cfg, name)) == repr(parse(text)) and key in cfg.explicit

    def test_a_duration_too_long_to_count_fails_with_value_error(self):
        cfg = CampaignConfig()
        cfg.set_key("duration", "1e308", "--duration")
        with pytest.raises(ValueError, match="more sequence periods than a float holds"):
            cfg.num_sequences()


class TestExplicitTracking:
    def test_only_touched_keys_marked(self, tmp_path):
        path = write(tmp_path / "c.cfg", "seed = 3\n")
        cfg = load_config(path)
        assert "seed" in cfg.explicit
        assert "sample_rate" not in cfg.explicit
        assert not cfg.sequence_pinned()

    def test_sequence_keys_pin(self, tmp_path):
        for line in ("sequence.family = fzc", "sequence.length = 64", "sequence.root = 3"):
            path = write(tmp_path / "c.cfg", line + "\n")
            assert load_config(path).sequence_pinned()


class TestKeyTable:
    def test_every_key_sets_the_same_field(self):
        # Written out in full: renaming a key or a field breaks config files.
        frozen = {
            "sequence.family": "family",
            "sequence.length": "length",
            "sequence.root": "root",
            "sequence.register_length": "register_length",
            "sequence.taps": "taps",
            "sample_rate": "sample_rate",
            "center_frequency": "center_frequency",
            "n_sequences": "n_sequences",
            "duration": "duration",
            "channel.taps": "channel_taps",
            "channel.snr_db": "snr_db",
            "channel.cfo_hz": "cfo_hz",
            "channel.cable": "cable",
            "seed": "seed",
            "triggers": "triggers",
            "trigger_log": "trigger_log",
            "corrupt_span": "corrupt_span",
            "calibration": "calibration",
            "gain_cap_db": "gain_cap_db",
            "discard_first": "discard_first",
            "dc_suppression_hz": "dc_suppression_hz",
            "dc_position": "dc_position",
            "doppler_zero_fill": "doppler_zero_fill",
            "bc_threshold": "bc_threshold",
            "max_distance_ref_m": "max_distance_ref_m",
            "out": "out",
            "input": "input",
            "endpoint": "endpoint",
            "chunk_samples": "chunk_samples",
            "timeout": "timeout",
        }
        assert {key: name for key, (name, _) in _KEYS.items()} == frozen

    def test_every_field_has_one_key(self):
        fields = [name for name, _ in _KEYS.values()]
        assert len(fields) == len(set(fields))
        assert set(fields) == set(CampaignConfig.__dataclass_fields__) - {"explicit"}

    def test_readme_block_names_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        named = re.findall(r"^#?\s*([\w.]+)\s*=", block, flags=re.M)
        assert sorted(named) == sorted(_KEYS)
