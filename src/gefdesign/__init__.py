"""Characteristics-based design of generalized-exponent bandpass filters.

Design IIR bandpass filters directly from trios of frequency-domain
characteristics (peak frequency, quality factors, group delay, phase
accumulation, convexity), evaluate and discretize them, and audit the
designs by numerically re-extracting the characteristics.
"""

__version__ = "0.1.0"

from .core import (
    FilterConstants,
    SharpnessReport,
    eval_gef,
    eval_sharp,
    eval_v,
    group_delay_cycles,
    level_db,
    normalized_to_peak,
    peak_beta,
    phase_rad,
    sharpness_check,
    wavenumber,
)
from .characteristics import (
    CharacteristicReport,
    FrequencyGrid,
    closed_form,
    default_grid,
    extract_numeric,
    qerb_approx,
    relative_errors,
)
from .design import (
    CharacteristicSpec,
    DesignRow,
    SharpnessWarning,
    design,
)
from .digital import (
    DigitalFilter,
    SignalBuffer,
    apply_fft,
    apply_sos,
    digital_response,
    to_sos,
)
from .filterbank import (
    BankChannel,
    CfMap,
    MultibandBand,
    MultibandSpec,
    build_constant_q_bank,
    cf_at,
    channel_response,
    crosstalk_report,
    multiband_response,
)
from .harness import ErrorRecord, SweepResult, evaluate_case, figure_report, sweep
from . import errors

__all__ = [
    "__version__",
    "BankChannel",
    "CfMap",
    "CharacteristicReport",
    "CharacteristicSpec",
    "DesignRow",
    "DigitalFilter",
    "ErrorRecord",
    "FilterConstants",
    "FrequencyGrid",
    "MultibandBand",
    "MultibandSpec",
    "SharpnessReport",
    "SharpnessWarning",
    "SignalBuffer",
    "SweepResult",
    "apply_fft",
    "apply_sos",
    "build_constant_q_bank",
    "cf_at",
    "channel_response",
    "closed_form",
    "crosstalk_report",
    "default_grid",
    "design",
    "digital_response",
    "errors",
    "eval_gef",
    "eval_sharp",
    "eval_v",
    "evaluate_case",
    "extract_numeric",
    "figure_report",
    "group_delay_cycles",
    "level_db",
    "multiband_response",
    "normalized_to_peak",
    "peak_beta",
    "phase_rad",
    "qerb_approx",
    "relative_errors",
    "sharpness_check",
    "sweep",
    "to_sos",
    "wavenumber",
]
