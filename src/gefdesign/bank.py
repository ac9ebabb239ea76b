"""Constant-Q filterbanks over an exponential frequency-place map, on the
standard library.

A bank places one designed, normalized prototype at each channel's
characteristic frequency CF(x) = cf0 * e**(-x/l), so every channel shares
the same quality factors while its bandwidth scales with CF(x).  Building a
bank is one design and one exponential a channel, so it does not load
numpy; ``filterbank`` evaluates and exports the channels' responses.
"""

from __future__ import annotations

import math
from typing import Sequence

from .design import CharacteristicSpec, design
from .errors import OutOfRange
from .scalar import FilterConstants, _as_float, _finite_positive, _Record, linspace


class CfMap(_Record):
    """Exponential characteristic-frequency map CF(x) = cf0 * e**(-x/l).
    cf0 and l must be finite and > 0, x_max finite and >= 0."""

    _fields = ("cf0", "l", "x_max")

    def __init__(self, cf0: float, l: float, x_max: float):
        cf0 = _finite_positive("cf0", cf0, OutOfRange)
        l = _finite_positive("l", l, OutOfRange)
        if not 0.0 <= _as_float(x_max) < math.inf:
            raise OutOfRange(f"x_max must be finite and >= 0, got {x_max!r}")
        self.__dict__.update(cf0=cf0, l=l, x_max=float(x_max))


def cf_at(cf_map: CfMap, x: float) -> float:
    """Characteristic frequency at place x (Hz)."""
    if not 0.0 <= x <= cf_map.x_max:
        raise OutOfRange(f"x = {x:g} outside [0, {cf_map.x_max:g}]")
    return cf_map.cf0 * math.exp(-x / cf_map.l)


class BankChannel(_Record):
    """One filterbank channel: place, peak frequency, shared constants, gain.
    The peak frequency and the gain must be finite and > 0."""

    _fields = ("x", "f_peak", "theta", "gain")

    def __init__(self, x: float, f_peak: float, theta: FilterConstants, gain: float = 1.0):
        self.__dict__.update(x=x, f_peak=_finite_positive("f_peak", f_peak, OutOfRange),
                             theta=theta, gain=_finite_positive("gain", gain, OutOfRange))


def build_constant_q_bank(
    cf_map: CfMap,
    channel_xs: Sequence[float],
    spec: CharacteristicSpec,
) -> list[BankChannel]:
    """Design one normalized prototype and place it at each channel.

    The spec must be normalized (beta_peak == 1); the channel peak
    frequencies come from the map, so all channels share the same quality
    factors while bandwidths scale with CF(x).
    """
    if abs(spec.beta_peak - 1.0) > 1e-12:
        raise ValueError("constant-Q banks need a normalized spec (beta_peak = 1)")
    theta = design(spec)
    return [
        BankChannel(x=float(x), f_peak=cf_at(cf_map, float(x)), theta=theta)
        for x in channel_xs
    ]


def uniform_places(cf_map: CfMap, n_channels: int) -> list[float]:
    """Channel places uniform in x, i.e. log-uniform in CF: the floats of
    numpy.linspace(0, x_max, n_channels), bit for bit (scalar.linspace)."""
    if n_channels < 1:
        raise ValueError("need at least one channel")
    return linspace(0.0, cf_map.x_max, n_channels)


def bank_to_dict(cf_map: CfMap, channels: Sequence[BankChannel]) -> dict:
    return {
        "cf_map": {"cf0": cf_map.cf0, "l": cf_map.l, "x_max": cf_map.x_max},
        "channels": [
            {
                "x": ch.x,
                "f_peak_hz": ch.f_peak,
                "theta": ch.theta.as_dict(),
                "gain": ch.gain,
            }
            for ch in channels
        ],
    }
