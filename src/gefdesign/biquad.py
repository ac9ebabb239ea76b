"""Bilinear discretization of integer-exponent prototypes, on the standard
library.

A prototype with integer exponent b_u is a cascade of b_u identical
all-pole analog sections.  ``to_sos`` maps one through the bilinear
transform, prewarped so the digital magnitude peak lands exactly on the
requested peak frequency, and scales it to unit magnitude there; every step
is arithmetic on scalars, so discretizing a filter does not load numpy.
``digital`` filters signals with the cascade and holds the numpy-backed
responses.
"""

from __future__ import annotations

import math
import sys

from .errors import (
    InfeasibleSpec,
    NoInteriorPeak,
    NonIntegerExponent,
    NyquistViolation,
    OutOfRange,
)
from .scalar import FilterConstants, _Record, peak_beta

# The most sections to_sos builds: one per unit of the exponent b_u.
MAX_SECTIONS = 4096


def _is_stable(a1: float, a2: float) -> bool:
    """Whether both roots of z**2 + a1 z + a2 lie strictly inside the unit
    circle: |a2| < 1 and |a1| < 1 + a2 (the Schur-Cohn conditions), the
    second decided on the exact sum by fsum, so the answer is exact for the
    float coefficients, even at a double root on the circle."""
    return abs(a2) < 1.0 and math.fsum((abs(a1), -1.0, -a2)) < 0.0


def _quadratic_radii(a1: float, a2: float) -> tuple:
    """The moduli of the roots of z**2 + a1 z + a2: sqrt(a2) for a complex
    pair; for real roots |q| and |a2 / q| with
    q = -(a1 + sign(a1) sqrt(a1**2 - 4 a2)) / 2, which adds two numbers of
    one sign, so neither root loses bits to cancellation."""
    disc = a1 * a1 - 4.0 * a2
    if disc < 0.0:
        radius = math.sqrt(a2)
        return radius, radius
    q = -0.5 * (a1 + math.copysign(math.sqrt(disc), a1))
    if q == 0.0:  # a1 = a2 = 0: a double root at 0
        return 0.0, 0.0
    return abs(q), abs(a2 / q)


class DigitalFilter(_Record):
    """Sample rate, cascade of biquad sections (a0 normalized to 1), gain.

    sections entries are (b0, b1, b2, a1, a2).  Construction verifies every
    section's poles sit strictly inside the unit circle.
    """

    _fields = ("sample_rate", "sections", "gain", "source_theta", "f_peak")

    def __init__(self, sample_rate: float, sections: tuple, gain: float = 1.0,
                 source_theta: FilterConstants | None = None, f_peak: float | None = None):
        sections = tuple(tuple(float(c) for c in sec) for sec in sections)
        if not 0.0 < sample_rate < math.inf:
            raise ValueError(f"sample_rate must be finite and > 0, got {sample_rate!r}")
        if not sections:
            raise ValueError("need at least one section")
        for sec in sections:
            if len(sec) != 5:
                raise ValueError("each section is (b0, b1, b2, a1, a2)")
            if not all(math.isfinite(c) for c in sec):
                raise ValueError("section coefficients must be finite")
        if not all(_is_stable(a1, a2) for _, _, _, a1, a2 in sections):
            radius = max(max(_quadratic_radii(a1, a2)) for _, _, _, a1, a2 in sections)
            raise ValueError(f"unstable section: max pole radius {radius:.6f}")
        self.__dict__.update(sample_rate=sample_rate, sections=sections, gain=gain,
                             source_theta=source_theta, f_peak=f_peak)

    def pole_radii(self):
        """The pole moduli, two per section, as a float ndarray."""
        import numpy as np

        return np.asarray([r for _, _, _, a1, a2 in self.sections
                           for r in _quadratic_radii(a1, a2)])

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
    den = ((c0 * pp + c1pm) + mm, c0 * (pp + pp) - (mm + mm), (c0 * pp - c1pm) + mm)
    lead = den[0]
    return (pp / lead, (pp + pp) / lead, pp / lead), tuple(d / lead for d in den)


def _check_rates(f_peak: float, fs: float) -> None:
    """f_peak must be positive and finite, fs finite, and f_peak below fs/2
    (which refuses fs <= 0 too)."""
    if not (math.isfinite(f_peak) and f_peak > 0.0):
        raise OutOfRange(f"f_peak must be positive and finite, got {f_peak!r}")
    if not math.isfinite(fs):
        raise OutOfRange(f"fs must be finite, got {fs!r}")
    if f_peak >= 0.5 * fs:
        raise NyquistViolation(f"f_peak = {f_peak:g} Hz >= fs/2 = {0.5 * fs:g} Hz")


def _unit_peak_b0(a1: float, a2: float, f_peak: float, fs: float) -> float:
    """The b0 of the section b0 (1 + 1/z)**2 / (1 + a1/z + a2/z**2) whose
    magnitude is 1 at z = exp(2 pi i f_peak / fs).  Near a pole the
    denominator is a small difference of order-1 terms, so it is expanded
    about z = 1 (or z = -1 in the upper half of the band): with t and u the
    squared sine and cosine of half the angle, its real part is
    (1 + a1 + a2) - 2 t a1 - 8 t u a2 and its imaginary part, over the sine,
    (a1 + 2 a2) - 4 t a2, whose leading sums fsum rounds once.  The
    magnitude then carries the rounding of the stored a1 and a2, not of its
    own evaluation; |1 + 1/z|**2 is 4 u."""
    half = math.pi * f_peak / fs
    t, u = math.sin(half) ** 2, math.cos(half) ** 2
    sin2 = 4.0 * t * u
    if t <= u:
        re = math.fsum((1.0, a1, a2)) - 2.0 * t * a1 - 2.0 * sin2 * a2
        im = math.fsum((a1, 2.0 * a2)) - 4.0 * t * a2
    else:
        re = math.fsum((1.0, -a1, a2)) + 2.0 * u * a1 - 2.0 * sin2 * a2
        im = math.fsum((a1, -2.0 * a2)) + 4.0 * u * a2
    return math.sqrt(re * re + sin2 * im * im) / (4.0 * u)


def to_sos(theta: FilterConstants, f_peak: float, fs: float) -> DigitalFilter:
    """Bilinear-transform the prototype into b_u identical biquad sections.

    Prewarping references the prototype's exact magnitude peak, so the
    digital peak frequency equals f_peak up to root-finding precision (the
    bilinear map composes the magnitude with a monotone frequency warp, so
    the argmax maps exactly).  Each section is scaled to unit magnitude at
    the peak, making the cascade peak magnitude 1.  Raises OutOfRange when
    round(b_u), the section count, is below 1 or above MAX_SECTIONS, and
    when the rounded denominator has a pole on or outside the unit circle,
    as for a_p / b_p near the float epsilon or f_peak a hair below fs/2, or
    is not finite.  The analog section's constant (a_p**2 + b_p**2) w**2 is
    formed as (a_p w)**2 + (b_p w)**2 where a_p**2 + b_p**2 is not a normal
    float, so the sections depend on a_p / b_p alone over the whole float
    range.
    """
    _check_rates(f_peak, fs)
    if not theta.is_integer_exponent:
        raise NonIntegerExponent(
            f"b_u = {theta.b_u:g} is not an integer; use apply_fft instead"
        )
    n_sections = round(theta.b_u)
    if not 1 <= n_sections <= MAX_SECTIONS:
        raise OutOfRange(f"b_u = {theta.b_u:g} rounds to {n_sections:g} sections, "
                         f"not 1 to {MAX_SECTIONS}")

    # scale chosen so the analog peak (at beta_star) maps to f_peak
    warped, beta_star = 2.0 * fs * math.tan(math.pi * f_peak / fs), _bandpass_peak(theta)
    w = warped / beta_star
    a_p, b_p = theta.a_p, theta.b_p
    squared = a_p * a_p + b_p * b_p
    if sys.float_info.min <= squared < math.inf:
        c1, c0 = 2.0 * a_p * w, squared * w * w
    else:
        # the sum overflows or loses bits below the normal floats, and w may
        # overflow with it: scale a_p and b_p by warped / beta_star first
        a_w, b_w = a_p / beta_star * warped, b_p / beta_star * warped
        c1, c0 = 2.0 * a_w, a_w * a_w + b_w * b_w
    _, (_, a1, a2) = _bilinear_all_pole(c1, c0, fs)
    if not _is_stable(a1, a2):
        raise OutOfRange(f"{theta} at f_peak = {f_peak:g} Hz and fs = {fs:g} Hz has no finite "
                         "biquad with poles strictly inside the unit circle in floating point")
    # the numerator is b0 (1, 2, 1), with b0 set for unit magnitude at f_peak
    b0 = _unit_peak_b0(a1, a2, f_peak, fs)
    section = (b0, b0 + b0, b0, a1, a2)
    return DigitalFilter(
        sample_rate=float(fs),
        sections=(section,) * n_sections,
        gain=1.0,
        source_theta=theta,
        f_peak=float(f_peak),
    )
