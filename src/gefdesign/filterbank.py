"""Filterbanks over an exponential frequency-place map, and multiband
filters built by parallel summation of designed single-band filters.

A channel at place x evaluates the shared normalized prototype at
beta = f / CF(x), so a constant-Q bank needs one design for all channels.
Multiband responses are complex sums of per-band responses, each
peak-normalized to 1 before its user gain is applied; that convention makes
the crosstalk matrix have an exactly zero diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import FilterConstants, _maybe_scalar, eval_gef, peak_beta
from .design import CharacteristicSpec, design
from .errors import OutOfRange


@dataclass(frozen=True)
class CfMap:
    """Exponential characteristic-frequency map CF(x) = cf0 * e**(-x/l)."""

    cf0: float
    l: float
    x_max: float

    def __post_init__(self):
        if not (0.0 < self.cf0 < math.inf and 0.0 < self.l < math.inf
                and 0.0 <= self.x_max < math.inf):
            raise OutOfRange(
                f"need finite cf0 > 0, l > 0 and x_max >= 0, got cf0 = {self.cf0!r}, "
                f"l = {self.l!r}, x_max = {self.x_max!r}"
            )


def cf_at(cf_map: CfMap, x: float) -> float:
    """Characteristic frequency at place x (Hz)."""
    if not 0.0 <= x <= cf_map.x_max:
        raise OutOfRange(f"x = {x:g} outside [0, {cf_map.x_max:g}]")
    return cf_map.cf0 * math.exp(-x / cf_map.l)


@dataclass(frozen=True)
class BankChannel:
    """One filterbank channel: place, peak frequency, shared constants, gain."""

    x: float
    f_peak: float
    theta: FilterConstants
    gain: float = 1.0


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


def uniform_places(cf_map: CfMap, n_channels: int) -> np.ndarray:
    """Channel places uniform in x, i.e. log-uniform in CF."""
    if n_channels < 1:
        raise ValueError("need at least one channel")
    if n_channels == 1:
        return np.array([0.0])
    return np.linspace(0.0, cf_map.x_max, n_channels)


def channel_response(channel: BankChannel, f_hz):
    """Channel output for input frequency f (Hz): gain * P(f / f_peak)."""
    beta = np.asarray(f_hz, dtype=float) / channel.f_peak
    return channel.gain * eval_gef(channel.theta, beta)


@dataclass(frozen=True)
class MultibandBand:
    """One band of a multiband filter: peak frequency in Hz, a normalized
    shape spec (beta_peak must be 1), and a linear gain."""

    f_peak_hz: float
    spec: CharacteristicSpec
    gain: float = 1.0

    def __post_init__(self):
        if self.f_peak_hz <= 0.0:
            raise ValueError("f_peak_hz must be > 0")
        if abs(self.spec.beta_peak - 1.0) > 1e-12:
            raise ValueError("band specs must be normalized (beta_peak = 1)")
        if self.gain <= 0.0:
            raise ValueError("gain must be > 0")


@dataclass(frozen=True)
class MultibandSpec:
    """Bands with strictly increasing peak frequencies."""

    bands: tuple

    def __post_init__(self):
        bands = tuple(self.bands)
        object.__setattr__(self, "bands", bands)
        if len(bands) < 1:
            raise ValueError("need at least one band")
        peaks = [band.f_peak_hz for band in bands]
        if any(f2 <= f1 for f1, f2 in zip(peaks, peaks[1:])):
            raise ValueError("band peak frequencies must be strictly increasing")


def _designed_bands(spec: MultibandSpec):
    """Per-band (f_peak, theta, normalized gain): each band's own peak
    magnitude is scaled to 1 before the user gain applies."""
    out = []
    for band in spec.bands:
        theta = design(band.spec)
        norm = 1.0 / abs(eval_gef(theta, peak_beta(theta)))
        out.append((band.f_peak_hz, theta, band.gain * norm))
    return out


def multiband_response(spec: MultibandSpec, f_hz):
    """Complex response at f (Hz): the sum over bands of

        gain_i * P_i(f / f_peak_i) / peak_magnitude_i
    """
    f = np.asarray(f_hz, dtype=float)
    total = np.zeros(f.shape, dtype=complex)
    for f_peak, theta, gain in _designed_bands(spec):
        total = total + gain * np.asarray(eval_gef(theta, f / f_peak))
    return _maybe_scalar(total)


def crosstalk_report(spec: MultibandSpec) -> np.ndarray:
    """Matrix of dB levels: entry (i, j) is band j's level at band i's peak
    frequency, relative to band i's own peak level.  Diagonal is 0 dB by
    the peak-normalization convention."""
    if len(spec.bands) < 2:
        raise ValueError("crosstalk needs at least two bands")
    designed = _designed_bands(spec)

    def band_level(j, f_hz):
        f_peak_j, theta_j, gain_j = designed[j]
        return 20.0 * math.log10(gain_j * abs(eval_gef(theta_j, f_hz / f_peak_j)))

    # true per-band peak frequency: the prototype peaks slightly below beta = 1
    peak_freqs = [f_peak * peak_beta(theta) for f_peak, theta, _ in designed]
    n = len(designed)
    out = np.empty((n, n))
    for i in range(n):
        own_level = band_level(i, peak_freqs[i])
        for j in range(n):
            out[i, j] = band_level(j, peak_freqs[i]) - own_level
    return out


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


def multiband_from_dict(data: dict) -> MultibandSpec:
    bands = tuple(
        MultibandBand(
            f_peak_hz=float(entry["f_peak_hz"]),
            spec=CharacteristicSpec.from_dict(entry["spec"]),
            gain=float(entry.get("gain", 1.0)),
        )
        for entry in data["bands"]
    )
    return MultibandSpec(bands=bands)


def bank_response_rows(
    channels: Sequence[BankChannel], freqs_hz: Sequence[float]
) -> np.ndarray:
    """Float array of shape (len(channels) * len(freqs_hz), 6) for CSV export.

    Columns are (f_hz, re, im, level_db, phase_rad, channel_id), rows
    channel-major then frequency; channel_id is the channel's index as a
    float.  Phase is unwrapped along frequency within each channel.
    """
    freqs = np.asarray(freqs_hz, dtype=float)
    out = np.empty((6, len(channels), freqs.size))
    for idx, channel in enumerate(channels):
        values = np.asarray(channel_response(channel, freqs))
        out[0, idx] = freqs
        out[1, idx] = values.real
        out[2, idx] = values.imag
        out[3, idx] = 20.0 * np.log10(np.abs(values))
        out[4, idx] = np.unwrap(np.angle(values))
        out[5, idx] = idx
    return out.reshape(6, -1).T
