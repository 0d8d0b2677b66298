"""Correlative channel sounding toolkit.

Generates constant-envelope stimulation sequences, runs them through a
simulated time-varying multipath channel, recovers the channel impulse
response by periodic correlation, and characterizes the result (delay
spread, coherence bandwidth, Doppler, dynamic range and friends).  The
stimulation and correlation halves can run in one process or as two
processes linked by a byte-exact IQ wire protocol.
"""

from .calib import (
    CalibrationProfile,
    DownsampledResponse,
    downsample_lowpass,
    identity_profile,
    remove_dc_bias,
    through_calibrate,
)
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
    ple_estimate,
    rms_delay_spread,
)
from .config import CampaignConfig, load_config
from .corrmath import CorrelationResult, acf, ccf, fast_pccf, pacf, pccf
from .frames import FrameSeries, ImpulseResponseFrame, IqFrame, TriggerEvent
from .seqgen import (
    Sequence,
    bind_rate,
    descriptor,
    dynamic_range_analytic,
    from_descriptor,
    generate_fzc,
    generate_mls,
    papr,
)
from .sounder import (
    correct_ftt,
    correlate_sequence,
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
    "CorrelationResult",
    "DopplerMap",
    "DownsampledResponse",
    "FrameSeries",
    "ImpulseResponseFrame",
    "IqFrame",
    "Sequence",
    "TriggerEvent",
    "acf",
    "add_awgn",
    "apply_cfo",
    "apply_channel",
    "bind_rate",
    "ccf",
    "characterize",
    "coherence_bandwidth",
    "coherence_time",
    "correct_ftt",
    "correlate_sequence",
    "descriptor",
    "doppler_map",
    "doppler_spread",
    "doppler_to_speed",
    "downsample_lowpass",
    "dynamic_range_analytic",
    "fast_pccf",
    "frames_from_capture",
    "from_descriptor",
    "generate_fzc",
    "generate_mls",
    "identity_profile",
    "inject_disruption",
    "load_config",
    "max_distance_estimate",
    "mean_delay",
    "measured_dynamic_range",
    "measurement_time",
    "normalize",
    "pacf",
    "papr",
    "pccf",
    "pdp",
    "ple_estimate",
    "remove_dc_bias",
    "rms_delay_spread",
    "run_sounding",
    "sequence_gate",
    "stimulate_capture",
    "through_calibrate",
]
