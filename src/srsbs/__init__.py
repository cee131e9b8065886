"""Simulator and detector for backscatter tags keyed onto uplink sounding pilots."""

__version__ = "0.1.0"

from .channel import ChannelConfig, PRESETS, get_preset
from .detector import (
    DetectionEvent,
    Detector,
    DetectorConfig,
    DetectorState,
    FilterConfig,
    average_magnitude,
    pearson,
)
from .srs import ZcConfig, generate_zc_base, make_srs_symbol
from .tag import (
    GoldCodeSet,
    LfsrSpec,
    OokSchedule,
    encode_repetition,
    generate_gold_set,
    generate_m_sequence,
    ook_state,
)

__all__ = [
    "__version__",
    "ChannelConfig",
    "PRESETS",
    "get_preset",
    "DetectionEvent",
    "Detector",
    "DetectorConfig",
    "DetectorState",
    "FilterConfig",
    "average_magnitude",
    "pearson",
    "ZcConfig",
    "generate_zc_base",
    "make_srs_symbol",
    "GoldCodeSet",
    "LfsrSpec",
    "OokSchedule",
    "encode_repetition",
    "generate_gold_set",
    "generate_m_sequence",
    "ook_state",
]
