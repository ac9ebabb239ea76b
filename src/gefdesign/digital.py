"""Discretization of designed prototypes and signal filtering.

Integer exponents become a cascade of b_u identical biquad sections via the
bilinear transform, prewarped so the digital magnitude peak lands exactly
on the requested peak frequency.  Non-integer exponents are supported
through FFT-domain filtering with the analog response sampled at bin
frequencies.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile
from scipy.signal import bilinear, sosfilt

from .core import FilterConstants, _maybe_scalar, eval_gef, peak_beta
from .errors import (
    NoInteriorPeak,
    NonIntegerExponent,
    NyquistViolation,
    OutOfRange,
    SampleRateMismatch,
)


@dataclass(frozen=True)
class SignalBuffer:
    """A sampled real signal."""

    sample_rate: float
    samples: np.ndarray

    def __post_init__(self):
        if self.sample_rate <= 0.0:
            raise ValueError("sample_rate must be > 0")
        object.__setattr__(
            self, "samples", np.asarray(self.samples, dtype=float).ravel()
        )


@dataclass(frozen=True)
class DigitalFilter:
    """Sample rate, cascade of biquad sections (a0 normalized to 1), gain.

    sections entries are (b0, b1, b2, a1, a2).  Construction verifies every
    section's poles sit strictly inside the unit circle.
    """

    sample_rate: float
    sections: tuple
    gain: float = 1.0
    source_theta: FilterConstants | None = None
    f_peak: float | None = None

    def __post_init__(self):
        sections = tuple(tuple(float(c) for c in sec) for sec in self.sections)
        object.__setattr__(self, "sections", sections)
        if self.sample_rate <= 0.0:
            raise ValueError("sample_rate must be > 0")
        if not sections:
            raise ValueError("need at least one section")
        for sec in sections:
            if len(sec) != 5:
                raise ValueError("each section is (b0, b1, b2, a1, a2)")
            if not all(math.isfinite(c) for c in sec):
                raise ValueError("section coefficients must be finite")
        radii = self.pole_radii()
        if np.any(radii >= 1.0):
            raise ValueError(f"unstable section: max pole radius {radii.max():.6f}")

    def pole_radii(self) -> np.ndarray:
        radii = []
        for _, _, _, a1, a2 in self.sections:
            radii.extend(abs(r) for r in np.roots([1.0, a1, a2]))
        return np.asarray(radii)

    def as_dict(self) -> dict:
        out = {
            "fs": self.sample_rate,
            "gain": self.gain,
            "sos": [list(sec) for sec in self.sections],
        }
        if self.f_peak is not None:
            out["f_peak_hz"] = self.f_peak
        if self.source_theta is not None:
            out["source_theta"] = self.source_theta.as_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "DigitalFilter":
        theta = data.get("source_theta")
        return cls(
            sample_rate=float(data["fs"]),
            sections=tuple(tuple(row) for row in data["sos"]),
            gain=float(data.get("gain", 1.0)),
            source_theta=None if theta is None else FilterConstants.from_dict(theta),
            f_peak=None if data.get("f_peak_hz") is None else float(data["f_peak_hz"]),
        )


def _bandpass_peak(theta: FilterConstants) -> float:
    """peak_beta(theta), refusing constants whose magnitude has no bandpass
    peak (it falls from beta = 0), which cannot be placed at f_peak."""
    beta_star = peak_beta(theta)
    if beta_star <= 0.0:
        raise NoInteriorPeak(f"{theta} has no bandpass peak to place at f_peak")
    return beta_star


def to_sos(theta: FilterConstants, f_peak: float, fs: float) -> DigitalFilter:
    """Bilinear-transform the prototype into b_u identical biquad sections.

    Prewarping references the prototype's exact magnitude peak, so the
    digital peak frequency equals f_peak up to root-finding precision (the
    bilinear map composes the magnitude with a monotone frequency warp, so
    the argmax maps exactly).  Each section is scaled to unit magnitude at
    the peak, making the cascade peak magnitude 1.
    """
    if f_peak <= 0.0:
        raise ValueError("f_peak must be > 0")
    if f_peak >= 0.5 * fs:
        raise NyquistViolation(f"f_peak = {f_peak:g} Hz >= fs/2 = {0.5 * fs:g} Hz")
    if not theta.is_integer_exponent:
        raise NonIntegerExponent(
            f"b_u = {theta.b_u:g} is not an integer; use apply_fft instead"
        )
    n_sections = int(round(theta.b_u))

    # scale chosen so the analog peak (at beta_star) maps to f_peak
    w = 2.0 * fs * math.tan(math.pi * f_peak / fs) / _bandpass_peak(theta)
    a = [1.0, 2.0 * theta.a_p * w, (theta.a_p**2 + theta.b_p**2) * w * w]
    bz, az = bilinear([1.0], a, fs=fs)
    bz = np.atleast_1d(bz).astype(float)
    az = np.atleast_1d(az).astype(float)
    bz = np.pad(bz, (0, 3 - bz.size))
    theta_pk = 2.0 * math.pi * f_peak / fs
    z = np.exp(1j * theta_pk)
    zv = np.array([1.0, 1.0 / z, 1.0 / z**2])
    section_peak = abs(np.dot(bz, zv) / np.dot(az, zv))
    bz = bz / section_peak

    section = (bz[0], bz[1], bz[2], az[1], az[2])
    return DigitalFilter(
        sample_rate=float(fs),
        sections=(section,) * n_sections,
        gain=1.0,
        source_theta=theta,
        f_peak=float(f_peak),
    )


def digital_response(filt: DigitalFilter, f_hz):
    """Frequency response of the section cascade at f (Hz), 0 <= f <= fs/2."""
    f = np.asarray(f_hz, dtype=float)
    if np.any(f < 0.0) or np.any(f > 0.5 * filt.sample_rate):
        raise OutOfRange("frequencies must lie in [0, fs/2]")
    z_inv = np.exp(-2j * math.pi * f / filt.sample_rate)
    out = np.full(f.shape, filt.gain, dtype=complex)
    for b0, b1, b2, a1, a2 in filt.sections:
        out = out * (b0 + b1 * z_inv + b2 * z_inv**2)
        out = out / (1.0 + a1 * z_inv + a2 * z_inv**2)
    return _maybe_scalar(out)


def apply_sos(filt: DigitalFilter, signal: SignalBuffer) -> SignalBuffer:
    """Run the cascade over a signal (direct form II transposed, zero
    initial state).  Output length equals input length."""
    if signal.sample_rate != filt.sample_rate:
        raise SampleRateMismatch(
            f"signal at {signal.sample_rate:g} Hz, filter at {filt.sample_rate:g} Hz"
        )
    sos = np.array(
        [[b0, b1, b2, 1.0, a1, a2] for b0, b1, b2, a1, a2 in filt.sections]
    )
    out = sosfilt(sos, signal.samples) * filt.gain
    return SignalBuffer(sample_rate=signal.sample_rate, samples=out)


def apply_fft(
    theta: FilterConstants, f_peak: float, fs: float, signal: SignalBuffer
) -> SignalBuffer:
    """Filter by multiplying the signal spectrum with the analog response.

    Works for any positive exponent, including non-integer b_u.  The signal
    is zero-padded to the next power of two at least twice its length; the
    analog response is sampled at the bin frequencies and applied to the
    one-sided spectrum, so the output is exactly real.

    Bin k maps to beta = peak_beta(theta) * f_k / f_peak: the response is
    placed so its magnitude peak sits exactly at f_peak, matching the
    cascade realization from to_sos (the magnitude peak sits slightly below
    b_p in beta, so the naive f/f_peak mapping would misplace the filter by
    about a_p**2/2 relative).  Gain follows theta.gain; combine with
    normalized_to_peak for a unit-peak filter.
    """
    if f_peak <= 0.0:
        raise ValueError("f_peak must be > 0")
    if f_peak >= 0.5 * fs:
        raise NyquistViolation(f"f_peak = {f_peak:g} Hz >= fs/2 = {0.5 * fs:g} Hz")
    if signal.sample_rate != fs:
        raise SampleRateMismatch(
            f"signal at {signal.sample_rate:g} Hz, requested fs = {fs:g} Hz"
        )
    x = signal.samples
    n = x.size
    if n == 0:
        return SignalBuffer(sample_rate=fs, samples=x.copy())
    nfft = 1
    while nfft < 2 * n:
        nfft *= 2
    spectrum = np.fft.rfft(x, nfft)
    freqs = np.fft.rfftfreq(nfft, d=1.0 / fs)
    response = np.asarray(eval_gef(theta, freqs * (_bandpass_peak(theta) / f_peak)))
    out = np.fft.irfft(spectrum * response, nfft)[:n]
    return SignalBuffer(sample_rate=fs, samples=out)


# ---------------------------------------------------------------------------
# file I/O: filter JSON, float WAV, headerless CSV (one sample per line)
# ---------------------------------------------------------------------------


def save_filter(filt: DigitalFilter, path) -> None:
    with open(path, "w") as fh:
        json.dump(filt.as_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_filter(path) -> DigitalFilter:
    with open(path) as fh:
        return DigitalFilter.from_dict(json.load(fh))


def write_wav(path, signal: SignalBuffer) -> None:
    wavfile.write(path, int(round(signal.sample_rate)), signal.samples.astype(np.float32))


def read_wav(path) -> SignalBuffer:
    rate, data = wavfile.read(path)
    data = np.asarray(data)
    if data.ndim > 1:
        data = data.mean(axis=1)
    if data.dtype == np.int16:
        data = data / 32768.0
    elif data.dtype == np.int32:
        data = data / 2147483648.0
    elif data.dtype == np.uint8:
        data = (data.astype(float) - 128.0) / 128.0
    return SignalBuffer(sample_rate=float(rate), samples=data.astype(float))


def write_signal_csv(path, signal: SignalBuffer) -> None:
    np.savetxt(path, signal.samples, fmt="%.12e")


def read_signal_csv(path, sample_rate: float) -> SignalBuffer:
    return SignalBuffer(sample_rate=sample_rate, samples=np.loadtxt(path, ndmin=1))
