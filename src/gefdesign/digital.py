"""Discretization of designed prototypes and signal filtering.

Integer exponents become a cascade of b_u identical biquad sections via the
bilinear transform, prewarped so the digital magnitude peak lands exactly
on the requested peak frequency.  Non-integer exponents are supported
through FFT-domain filtering with the analog response sampled at bin
frequencies.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import json
import math
import os
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .core import FilterConstants, _maybe_scalar, eval_gef, peak_beta
from .errors import (
    InfeasibleSpec,
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
        if not 0.0 < self.sample_rate < math.inf:
            raise ValueError(f"sample_rate must be finite and > 0, got {self.sample_rate!r}")
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
    def from_dict(cls, data) -> "DigitalFilter":
        """The filter of an as_dict mapping; a missing or non-numeric field,
        or sections that do not make a stable cascade, raise InfeasibleSpec."""
        try:
            data = dict(data)
            theta = data.get("source_theta")
            return cls(
                sample_rate=float(data["fs"]),
                sections=tuple(tuple(row) for row in data["sos"]),
                gain=float(data.get("gain", 1.0)),
                source_theta=None if theta is None else FilterConstants.from_dict(theta),
                f_peak=None if data.get("f_peak_hz") is None else float(data["f_peak_hz"]),
            )
        except KeyError as exc:
            raise InfeasibleSpec(f"filter lacks the field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise InfeasibleSpec(f"bad filter: {exc}") from None


def _bandpass_peak(theta: FilterConstants) -> float:
    """peak_beta(theta), refusing constants whose magnitude has no bandpass
    peak (it falls from beta = 0), which cannot be placed at f_peak."""
    beta_star = peak_beta(theta)
    if beta_star <= 0.0:
        raise NoInteriorPeak(f"{theta} has no bandpass peak to place at f_peak")
    return beta_star


def _bilinear_all_pole(c1: float, c0: float, fs: float):
    """Digital biquad (b, a), a[0] = 1, of the analog section
    1 / (s**2 + c1 s + c0) under the bilinear map s = 2 fs (z - 1) / (z + 1).

    Multiplying through by (z + 1)**2 gives the numerator (z + 1)**2 and the
    denominator (z + 1)**2 c0 + (z + 1)(z - 1) 2 fs c1 + (z - 1)**2 (2 fs)**2.
    The terms are formed as scipy.signal.bilinear forms them, with (z + 1)
    scaled by 1 / sqrt(2 fs) and (z - 1) by sqrt(2 fs), then divided by the
    leading denominator coefficient, so the result is bit-identical to it
    wherever scipy keeps the whole numerator.  scipy drops leading numerator
    coefficients below 1e-14, which near Nyquist or at very high fs would
    remove the double zero at z = -1; here all three are kept.
    """
    m = math.sqrt(fs * 2.0)
    p = 1.0 / m
    pp = p * p
    c1pm = c1 * p * m
    mm = m * m
    den = np.array([
        (c0 * pp + c1pm) + mm,
        c0 * (pp + pp) - (mm + mm),
        (c0 * pp - c1pm) + mm,
    ])
    return np.array([pp, pp + pp, pp]) / den[0], den / den[0]


def _check_rates(f_peak: float, fs: float) -> None:
    """f_peak must be positive and finite, fs finite, and f_peak below fs/2
    (which refuses fs <= 0 too)."""
    if not (math.isfinite(f_peak) and f_peak > 0.0):
        raise OutOfRange(f"f_peak must be positive and finite, got {f_peak!r}")
    if not math.isfinite(fs):
        raise OutOfRange(f"fs must be finite, got {fs!r}")
    if f_peak >= 0.5 * fs:
        raise NyquistViolation(f"f_peak = {f_peak:g} Hz >= fs/2 = {0.5 * fs:g} Hz")


def to_sos(theta: FilterConstants, f_peak: float, fs: float) -> DigitalFilter:
    """Bilinear-transform the prototype into b_u identical biquad sections.

    Prewarping references the prototype's exact magnitude peak, so the
    digital peak frequency equals f_peak up to root-finding precision (the
    bilinear map composes the magnitude with a monotone frequency warp, so
    the argmax maps exactly).  Each section is scaled to unit magnitude at
    the peak, making the cascade peak magnitude 1.
    """
    _check_rates(f_peak, fs)
    if not theta.is_integer_exponent:
        raise NonIntegerExponent(
            f"b_u = {theta.b_u:g} is not an integer; use apply_fft instead"
        )
    n_sections = int(round(theta.b_u))

    # scale chosen so the analog peak (at beta_star) maps to f_peak
    w = 2.0 * fs * math.tan(math.pi * f_peak / fs) / _bandpass_peak(theta)
    bz, az = _bilinear_all_pole(
        2.0 * theta.a_p * w, (theta.a_p**2 + theta.b_p**2) * w * w, fs
    )
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
    kernel = _sosfilt_kernel()
    if kernel is None:
        from scipy.signal import sosfilt

        out = sosfilt(sos, signal.samples)
    else:
        # what scipy.signal.sosfilt does for one float64 signal at rest
        rows = signal.samples.reshape(1, -1).copy()
        kernel(sos, rows, np.zeros((1, len(sos), 2)))
        out = rows[0]
    return SignalBuffer(sample_rate=signal.sample_rate, samples=out * filt.gain)


def _sosfilt_kernel():
    """scipy's compiled cascade loop `_sosfilt(sos, x, zi)`, which filters
    the rows of x in place, or None when it cannot be found.

    `from scipy.signal import sosfilt` loads all of scipy.signal: about 1.3 s
    on a 2-core Xeon and 60 MB, most of a cold `filter` call.  The extension module needs only
    numpy and the scipy package, so it is loaded from its file under its own
    name; a later `import scipy.signal` finds it in sys.modules and reuses it.
    """
    name = "scipy.signal._sosfilt"
    module = sys.modules.get(name)
    if module is None:
        scipy_spec = importlib.util.find_spec("scipy")
        if scipy_spec is None:
            return None
        paths = [os.path.join(d, "signal", "_sosfilt" + suffix)
                 for d in scipy_spec.submodule_search_locations or ()
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        path = next((p for p in paths if os.path.isfile(p)), None)
        if path is None:
            return None
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        try:
            spec.loader.exec_module(module)
        except ImportError:
            sys.modules.pop(name, None)
            return None
        sys.modules[name] = module
    return getattr(module, "_sosfilt", None)


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
    _check_rates(f_peak, fs)
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


def write_wav(path, signal: SignalBuffer) -> None:
    """Mono 32-bit float WAV, byte for byte what scipy.io.wavfile.write
    writes: an 18-byte fmt chunk (IEEE float, cbSize 0), a fact chunk with
    the frame count, then the data chunk."""
    rate = int(round(signal.sample_rate))
    data = signal.samples.astype("<f4")
    if data.nbytes > 0xFFFFFF00:  # at the 4 GiB RIFF limit scipy writes RF64
        from scipy.io import wavfile

        wavfile.write(path, rate, data)
        return
    fmt = struct.pack("<HHIIHHH", 3, 1, rate, 4 * rate, 4, 32, 0)
    header = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
              + b"fact" + struct.pack("<II", 4, data.size)
              + b"data" + struct.pack("<I", data.nbytes))
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(header) + data.nbytes) + header)
        fh.write(data.tobytes())


# (format tag, bytes per sample) -> the dtype scipy.io.wavfile.read gives
_WAV_DTYPES = {(1, 2): "<i2", (1, 4): "<i4", (3, 4): "<f4", (3, 8): "<f8"}
_WAV_SKIPPED_CHUNKS = (b"fact", b"LIST", b"JUNK", b"Fake")


def _parse_plain_wav(raw: bytes):
    """(rate, samples) of a little-endian RIFF WAV of 8, 16 or 32-bit PCM or
    32 or 64-bit float, with one fmt and one data chunk, as
    scipy.io.wavfile.read returns them; None for any other file."""
    if raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        return None
    if struct.unpack_from("<I", raw, 4)[0] + 8 != len(raw):
        return None
    fmt = data = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk, (size,) = raw[pos:pos + 4], struct.unpack_from("<I", raw, pos + 4)
        body, pos = pos + 8, pos + 8 + size + size % 2
        if pos > len(raw):
            return None
        if chunk == b"fmt " and fmt is None and size >= 16:
            fmt = struct.unpack_from("<HHIIHH", raw, body)
        elif chunk == b"data" and fmt is not None and data is None:
            data = (body, size)
        elif chunk not in _WAV_SKIPPED_CHUNKS:
            return None
    if pos != len(raw) or data is None:
        return None
    tag, channels, rate, byte_rate, align, bits = fmt
    if channels == 0 or align % channels or data[1] % align:
        return None
    width = align // channels
    if tag == 1 and width == 1 and 1 <= bits <= 8:
        dtype = "u1"
    elif (tag == 1 and 8 < bits <= 8 * width) or (tag == 3 and bits == 8 * width):
        dtype = _WAV_DTYPES.get((tag, width))
    else:
        dtype = None
    if dtype is None or (tag == 1 and byte_rate != rate * align):
        return None
    samples = np.frombuffer(raw, dtype, count=data[1] // width, offset=data[0])
    return rate, samples.reshape(-1, channels) if channels > 1 else samples


def read_wav(path) -> SignalBuffer:
    """A WAV file as a mono float signal: channels are averaged and integer
    PCM is scaled to [-1, 1).  Layouts _parse_plain_wav does not take (RF64,
    big-endian RIFX, 24-bit PCM, WAVE_FORMAT_EXTENSIBLE, unknown chunks or a
    damaged file) go to scipy.io.wavfile.read and its errors.  A header
    sample rate of 0 raises OutOfRange."""
    with open(path, "rb") as fh:
        parsed = _parse_plain_wav(fh.read())
    if parsed is None:
        from scipy.io import wavfile

        parsed = wavfile.read(path)
    rate, data = parsed
    if rate <= 0:
        raise OutOfRange(f"{path} gives a sample rate of {rate} Hz")
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
