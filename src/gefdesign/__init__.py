"""Characteristics-based design of generalized-exponent bandpass filters.

Design IIR bandpass filters directly from trios of frequency-domain
characteristics (peak frequency, quality factors, group delay, phase
accumulation, convexity), evaluate and discretize them, and audit the
designs by numerically re-extracting the characteristics.

The package loads each submodule the first time one of its names is looked
up.  ``scalar`` holds the filter constants and the scalar characteristic
maps, ``design`` the inverse maps, ``biquad`` the bilinear discretization
into biquad sections and ``bank`` the constant-Q filterbank layout; they
run on the standard library alone, so designing, discretizing a filter or
laying out a bank does not import numpy.  The value classes are frozen
records on one small base, ``scalar._Record``, so importing the package
loads no introspection modules either (``inspect``, ``ast``, ``dis``).
``core`` (response evaluation), ``characteristics`` (closed forms and
numeric extraction), ``digital`` (signal filtering and responses),
``filterbank`` (bank responses and multiband filters) and ``harness`` need
numpy.
"""

import importlib

from . import errors
from .design import design  # binds the function over the submodule of the same name

__version__ = "0.1.0"

# the public names each submodule defines
_EXPORTS = {
    "scalar": ("FilterConstants", "SharpnessReport", "peak_beta", "sharpness_check"),
    "core": ("eval_gef", "eval_sharp", "eval_v", "level_db", "log_response",
             "normalized_to_peak", "phase_rad", "wavenumber"),
    "characteristics": ("CharacteristicReport", "FrequencyGrid", "closed_form",
                        "default_grid", "extract_numeric", "qerb_approx",
                        "relative_errors"),
    "design": ("CharacteristicSpec", "DesignRow", "SharpnessWarning"),
    "biquad": ("DigitalFilter", "to_sos"),
    "digital": ("SignalBuffer", "apply_fft", "apply_sos", "digital_response"),
    "bank": ("BankChannel", "CfMap", "build_constant_q_bank", "cf_at"),
    "filterbank": ("MultibandBand", "MultibandSpec", "crosstalk_report",
                   "multiband_response"),
    "harness": ("ErrorRecord", "SweepResult", "evaluate_case", "figure_report", "sweep"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = ["__version__", "design", "errors", *_SUBMODULE]


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))

