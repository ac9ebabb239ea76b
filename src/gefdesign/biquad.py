"""Bilinear discretization of integer-exponent prototypes, on the standard
library.

A prototype with integer exponent b_u is a cascade of b_u identical
all-pole analog sections.  ``to_sos`` maps one through the bilinear
transform, prewarped so the digital magnitude peak lands exactly on the
requested peak frequency, and scales it to unit magnitude there; every step
is arithmetic on scalars, so discretizing a filter does not load numpy.
``filter_json`` is the one writer of filter documents, at full precision.
``_cascade_log``, the one log response of a cascade, runs on ``cmath``, so a
``response --sos`` table does not load numpy either; ``digital`` filters
signals with the cascade, and its ``digital_response`` is the exp of that
log.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from typing import Callable

from .errors import (
    InfeasibleSpec,
    NoInteriorPeak,
    NonIntegerExponent,
    NyquistViolation,
    OutOfRange,
)
from .scalar import TWO_PI, FilterConstants, _as_float, _finite_positive, _Record, peak_beta

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
    section's poles sit strictly inside the unit circle, and takes the
    sample rate, the gain and f_peak (unless None) as floats, each finite
    and > 0; anything else raises ValueError.
    """

    _fields = ("sample_rate", "sections", "gain", "source_theta", "f_peak")

    def __init__(self, sample_rate: float, sections: tuple, gain: float = 1.0,
                 source_theta: FilterConstants | None = None, f_peak: float | None = None):
        sections = tuple(tuple(float(c) for c in sec) for sec in sections)
        sample_rate = _finite_positive("sample_rate", sample_rate)
        gain = _finite_positive("gain", gain)
        if f_peak is not None:
            f_peak = _finite_positive("f_peak", f_peak)
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
        """The filter of an as_dict mapping; a missing or non-numeric field, a
        rate, gain or f_peak_hz that is not finite and > 0, or sections that
        do not make a stable cascade, raise InfeasibleSpec."""
        try:
            data = dict(data)
            theta = data.get("source_theta")
            return cls(
                sample_rate=data["fs"],
                sections=tuple(tuple(row) for row in data["sos"]),
                gain=data.get("gain", 1.0),
                source_theta=None if theta is None else FilterConstants.from_dict(theta),
                f_peak=data.get("f_peak_hz"),
            )
        except KeyError as exc:
            raise InfeasibleSpec(f"filter lacks the field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise InfeasibleSpec(f"bad filter: {exc}") from None


def _log(z: complex) -> complex:
    """cmath.log, but log 0 = -inf + i atan2(Im z, Re z), where cmath raises."""
    return cmath.log(z) if z else complex(-math.inf, math.atan2(z.imag, z.real))


def _quadratic_log(b) -> Callable[[complex, complex, complex], complex]:
    """The log of b0 + b1/z + b2/z^2 on the unit circle, as a function of 1/z,
    its log and 1 + 1/z, bound once to b: continuous from f = 0 to fs/2, -inf
    at a zero on it (and everywhere for b = 0).  It is the sum of the logs of
    a constant and of factors 1 - r v, v = 1/z or z, each root r in the
    closed disk: their principal logs are continuous on the circle, and each
    factor is formed from r and v alone, so a root near the circle costs no
    more digits than its own rounding.  A root at -1 exactly, as both of
    to_sos's double zero, takes 1 + v as given, which the caller forms
    without cancellation.  A root r outside the circle is factored as
    x - r = (-r)(1 - x/r) (Steiglitz & Dickinson), carried as its
    reciprocal, so no value passes the largest float."""
    if not any(b):
        return lambda z_inv, log_z_inv, one_plus: complex(-math.inf, 0.0)
    b0, b1, b2 = b
    # c0 + c1 v + c2 v^2 with |c2| <= |c0|: b in v = 1/z, or b reversed in
    # v = z times z^-2
    flip = abs(b2) > abs(b0)
    coeffs = (b2, b1, b0) if flip else b
    # scaled by a power of two, exactly but for subnormals, so c1 * c1 cannot overflow
    exponent = math.frexp(max(abs(coeffs[0]), abs(coeffs[1])))[1]
    c0, c1, c2 = (math.ldexp(c, -exponent) for c in coeffs)
    # = (c0 - q v)(1 - (c2 / q) v) with q the larger root of t^2 + c1 t + c0 c2,
    # without cancellation; |c2 / q| <= sqrt(|c2 / c0|) <= 1
    disc = c1 * c1 - 4.0 * c0 * c2
    q = -0.5 * (c1 + math.copysign(1.0, c1) * (math.sqrt(disc) if disc >= 0.0
                                               else 1j * math.sqrt(-disc)))
    inner = abs(q) <= abs(c0)
    if inner:  # c0 - q v = c0 (1 - (q / c0) v)
        lead, root = _log(complex(coeffs[0])), q / c0
    else:  # the root c0 / q in 1/v lies inside the circle
        lead, root = _log(complex(-q)) + exponent * math.log(2.0), c0 / q
    second = c2 / q if c2 else 0.0

    def log_at(z_inv, log_z_inv, one_plus):
        if flip:
            v, w = z_inv.conjugate(), one_plus.conjugate()
            log_v, log = -log_z_inv, 2.0 * log_z_inv
        else:
            v, w, log_v, log = z_inv, one_plus, log_z_inv, 0.0
        if second:
            log = log + _log(w if second == -1.0 else 1.0 - second * v)
        if inner:
            return log + lead + _log(w if root == -1.0 else 1.0 - root * v)
        return log + lead + log_v + _log(1.0 - root * v.conjugate())
    return log_at


def _cascade_log(filt: DigitalFilter, freqs) -> list:
    """L = log H of the cascade at each f (Hz) of a list of floats, as a list
    of complex: Im L is the phase, continuous from f = 0; an overflow reads
    inf or nan Re L.  L is the gain's log plus each section's numerator log
    less its denominator's, summed in section order; each distinct section's
    two logs are taken once a point (to_sos builds b_u identical sections).
    1/z = exp(-2 pi i f / fs) and 1 + 1/z take their angle from the nearer of
    0 and fs/2, from f or from the exact fs/2 - f, so they keep their digits
    near fs/2: 1/z is -1 exactly there, where to_sos's double zero gives
    -inf Re L.  Raises OutOfRange unless 0 <= f <= fs/2 for every f, so at a
    nan too."""
    fs = filt.sample_rate
    half = 0.5 * fs
    if not all(0.0 <= f <= half for f in freqs):
        raise OutOfRange("frequencies must lie in [0, fs/2]")
    index: dict = {}
    order = [index.setdefault(section, len(index)) for section in filt.sections]
    logs = [(_quadratic_log(section[:3]), _quadratic_log((1.0,) + section[3:]))
            for section in index]
    log_gain = complex(math.log(filt.gain))
    cos, sin = math.cos, math.sin
    out = []
    for f in freqs:
        if f <= 0.5 * half:
            angle = TWO_PI * (f / fs)
            c, s = cos(angle), sin(angle)
            z_inv, one_plus = complex(c, -s), complex(1.0 + c, -s)
        else:  # half - f is exact, and 1 - cos = sin**2 / (1 + cos)
            angle = TWO_PI * ((half - f) / fs)
            c, s = cos(angle), sin(angle)
            z_inv, one_plus = complex(-c, -s), complex(s * s / (1.0 + c), -s)
        point = (z_inv, complex(0.0, -TWO_PI * (f / fs)), one_plus)
        pairs = [(num(*point), den(*point)) for num, den in logs]
        log = log_gain
        for k in order:
            num, den = pairs[k]
            log = log + num - den
        out.append(log)
    return out


def filter_json(filt: DigitalFilter) -> str:
    """The filter's document: its as_dict with every float at full precision
    (its repr), so that DigitalFilter.from_dict reads back the same sections
    bit for bit; indented, with sorted keys, ending in a newline."""
    return json.dumps(filt.as_dict(), indent=2, sort_keys=True) + "\n"


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


def _check_rates(f_peak: float, fs: float) -> tuple[float, float]:
    """(f_peak, fs) as floats: f_peak must be finite and > 0, fs finite (a
    non-number is refused as nan is, with OutOfRange), and f_peak below fs/2
    (which refuses fs <= 0 too)."""
    f_peak = _finite_positive("f_peak", f_peak, OutOfRange)
    rate = _as_float(fs)
    if not math.isfinite(rate):
        raise OutOfRange(f"fs must be finite, got {fs!r}")
    if f_peak >= 0.5 * rate:
        raise NyquistViolation(f"f_peak = {f_peak:g} Hz >= fs/2 = {0.5 * rate:g} Hz")
    return f_peak, rate


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
    f_peak, fs = _check_rates(f_peak, fs)
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
        sample_rate=fs,
        sections=(section,) * n_sections,
        gain=1.0,
        source_theta=theta,
        f_peak=f_peak,
    )
