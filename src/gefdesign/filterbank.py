"""Filterbank responses, and multiband filters built by parallel summation
of designed single-band filters.

A channel at place x evaluates the shared normalized prototype at
beta = f / CF(x), so a constant-Q bank needs one design for all channels.
Laying out the bank (``CfMap``, ``build_constant_q_bank``,
``uniform_places``, ``bank_to_dict``) needs no numpy and lives in ``bank``;
this module re-exports it.  ``bank_response_rows`` exports a bank in blocks
of consecutive channels that share constants, one log response a block, in
place into the export array.  Multiband responses are complex sums of
per-band responses, each peak-normalized to 1 before its user gain is
applied; that convention makes the crosstalk matrix have an exactly zero
diagonal.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .bank import BankChannel, CfMap, bank_to_dict, build_constant_q_bank, cf_at, uniform_places
from .core import _maybe_scalar, _response_columns, _unit_peak_gain, eval_gef, log_response
from .design import CharacteristicSpec, design
from .errors import InfeasibleSpec, OutOfRange
from .probe import _re_at
from .scalar import DB_PER_LOG, _finite_positive, _Record, peak_beta


class MultibandBand(_Record):
    """One band of a multiband filter: a positive, finite peak frequency in Hz
    and linear gain, and a normalized shape spec (beta_peak must be 1)."""

    _fields = ("f_peak_hz", "spec", "gain")

    def __init__(self, f_peak_hz: float, spec: CharacteristicSpec, gain: float = 1.0):
        f_peak_hz = _finite_positive("f_peak_hz", f_peak_hz)
        if abs(spec.beta_peak - 1.0) > 1e-12:
            raise ValueError("band specs must be normalized (beta_peak = 1)")
        self.__dict__.update(f_peak_hz=f_peak_hz, spec=spec, gain=_finite_positive("gain", gain))


class MultibandSpec(_Record):
    """Bands with strictly increasing peak frequencies."""

    _fields = ("bands",)

    def __init__(self, bands: tuple):
        bands = tuple(bands)
        if len(bands) < 1:
            raise ValueError("need at least one band")
        peaks = [band.f_peak_hz for band in bands]
        if any(f2 <= f1 for f1, f2 in zip(peaks, peaks[1:])):
            raise ValueError("band peak frequencies must be strictly increasing")
        self.__dict__.update(bands=bands)


def _designed_bands(spec: MultibandSpec):
    """Per-band (f_peak, theta, normalized gain): each band's own peak
    magnitude is scaled to 1 before the user gain applies.  Raises OutOfRange
    when the gain that scales a band's peak magnitude to 1 is not a normal
    float."""
    out = []
    for band in spec.bands:
        theta = design(band.spec)
        gain = _unit_peak_gain(theta)
        if not 0.0 < gain < math.inf:
            raise OutOfRange(
                f"band at {band.f_peak_hz:g} Hz: no normal float gain scales its "
                f"peak magnitude to 1 ({theta})"
            )
        out.append((band.f_peak_hz, theta, band.gain * gain))
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
    the peak-normalization convention.  Levels come from the log magnitude,
    so a band whose response underflows at another peak reads finite dB."""
    if len(spec.bands) < 2:
        raise ValueError("crosstalk needs at least two bands")
    designed = _designed_bands(spec)

    log_magnitudes = [_re_at(theta, "p") for _, theta, _ in designed]

    def band_level(j, f_hz):
        f_peak_j, _, gain_j = designed[j]
        level = DB_PER_LOG * log_magnitudes[j](f_hz / f_peak_j)
        return level + 20.0 * math.log10(gain_j)

    # true per-band peak frequency: the prototype peaks slightly below beta = 1
    peak_freqs = [f_peak * peak_beta(theta) for f_peak, theta, _ in designed]
    n = len(designed)
    out = np.empty((n, n))
    for i in range(n):
        own_level = band_level(i, peak_freqs[i])
        for j in range(n):
            out[i, j] = band_level(j, peak_freqs[i]) - own_level
    return out


def multiband_from_dict(data: dict) -> MultibandSpec:
    """The spec of a mapping whose "bands" list holds mappings of f_peak_hz,
    spec and optionally gain; a missing field, or one of the wrong type or
    value, raises InfeasibleSpec."""
    try:
        return MultibandSpec(bands=[
            MultibandBand(
                f_peak_hz=entry["f_peak_hz"],
                spec=CharacteristicSpec.from_dict(entry["spec"]),
                gain=entry.get("gain", 1.0),
            )
            for entry in data["bands"]
        ])
    except KeyError as exc:
        raise InfeasibleSpec(f"multiband spec lacks the field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InfeasibleSpec(f"bad multiband spec: {exc}") from None


# Points in one block of bank_response_rows: the block's arrays, some
# 256 kB each, stay inside a 2 MB L2 cache.  One block for a whole
# 64 x 4096 bank measured slower than blocks of this size.
_BLOCK_POINTS = 1 << 15


def bank_response_rows(
    channels: Sequence[BankChannel], freqs_hz: Sequence[float]
) -> np.ndarray:
    """Float array of shape (len(channels) * len(freqs_hz), 6) for CSV export.

    Columns are (f_hz, re, im, level_db, phase_rad, channel_id), rows
    channel-major then frequency; channel_id is the channel's index as a
    float.  Each channel's middle four are core._response_columns of its log
    response L = log P(f / f_peak) + log gain: the phase is Im L, 0 at f = 0.

    Consecutive channels whose constants compare equal, as every channel of
    build_constant_q_bank's does, are evaluated as one block: one
    log_response on their 2-D betas, written in place into the export, so
    the per-call cost is paid once a block rather than once a channel.  A
    block holds at most _BLOCK_POINTS points (one channel's frequencies are
    split where they alone pass it), so that its arrays stay in cache.
    Every step is elementwise, so the rows are those of one channel at a
    time, bit for bit.  Raises OutOfRange when a frequency is not finite, and
    when a channel's |H| passes the largest float, naming the first such
    channel.
    """
    freqs = np.asarray(freqs_hz, dtype=float).ravel()
    if not np.isfinite(freqs).all():
        raise OutOfRange("bank frequencies must be finite")
    n, n_freqs = len(channels), freqs.size
    out = np.empty((6, n, n_freqs))
    out[0] = freqs
    out[5] = np.arange(n)[:, None]
    if n_freqs:
        rows = max(1, _BLOCK_POINTS // n_freqs)
        span = min(n_freqs, _BLOCK_POINTS)
        start = 0
        while start < n:
            theta = channels[start].theta
            stop = start + 1
            # identity first: a built bank's channels share one constants object,
            # and a record comparison costs about 1.7 us
            while stop < min(n, start + rows) and (
                    channels[stop].theta is theta or channels[stop].theta == theta):
                stop += 1
            block = channels[start:stop]
            f_peaks = np.array([[channel.f_peak] for channel in block])
            log_gains = np.array([[math.log(channel.gain)] for channel in block])
            for lo in range(0, n_freqs, span):
                log_h = log_response(theta, freqs[lo:lo + span] / f_peaks, ("p",))["p"]
                log_re = log_h.re
                log_re += log_gains
                _response_columns(log_re, log_h.im,
                                  lambda row, start=start: f"channel {start + row}",
                                  out[1:5, start:stop, lo:lo + span])
            start = stop
    return out.reshape(6, -1).T
