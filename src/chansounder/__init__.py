"""Correlative channel sounding toolkit.

Generates constant-envelope stimulation sequences, runs them through a
simulated time-varying multipath channel, recovers the channel impulse
response by periodic correlation, and characterizes the result (delay
spread, coherence bandwidth, Doppler, dynamic range and friends).  The
stimulation and correlation halves can run in one process or as two
processes linked by a byte-exact IQ wire protocol.
"""

from .calib import CalibrationProfile, through_calibrate
from .chansim import ChannelModel, ChannelTap, add_awgn, apply_cfo, apply_channel, inject_disruption
from .charmetrics import (
    CharacterizationReport,
    DopplerMap,
    characterize,
    coherence_bandwidth,
    coherence_time,
    doppler_map,
    doppler_spread,
    doppler_to_speed,
    max_distance_estimate,
    mean_delay,
    measured_dynamic_range,
    pdp,
    rms_delay_spread,
)
from .config import CampaignConfig, load_config
from .corrmath import fast_pccf
from .frames import FrameSeries, ImpulseResponseFrame, IqFrame, TriggerEvent
from .seqgen import (
    Sequence,
    bind_rate,
    descriptor,
    from_descriptor,
    generate_fzc,
    generate_mls,
)
from .sounder import (
    frames_from_capture,
    measurement_time,
    normalize,
    run_sounding,
    sequence_gate,
    stimulate_capture,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationProfile",
    "CampaignConfig",
    "ChannelModel",
    "ChannelTap",
    "CharacterizationReport",
    "DopplerMap",
    "FrameSeries",
    "ImpulseResponseFrame",
    "IqFrame",
    "Sequence",
    "TriggerEvent",
    "add_awgn",
    "apply_cfo",
    "apply_channel",
    "bind_rate",
    "characterize",
    "coherence_bandwidth",
    "coherence_time",
    "descriptor",
    "doppler_map",
    "doppler_spread",
    "doppler_to_speed",
    "fast_pccf",
    "frames_from_capture",
    "from_descriptor",
    "generate_fzc",
    "generate_mls",
    "inject_disruption",
    "load_config",
    "max_distance_estimate",
    "mean_delay",
    "measured_dynamic_range",
    "measurement_time",
    "normalize",
    "pdp",
    "rms_delay_spread",
    "run_sounding",
    "sequence_gate",
    "stimulate_capture",
    "through_calibrate",
]
