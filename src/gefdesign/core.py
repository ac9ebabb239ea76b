"""Exact evaluation of generalized-exponent bandpass filters.

The filter class is a conjugate pole pair raised to a positive real
exponent,

    P(beta) = C * ((s - p)(s - conj(p)))**(-b_u),   s = i*beta,
    p = -a_p + i*b_p,

together with two relatives: the one-sided "sharp" form (s - p)**(-b_u)
and the single-zero variant V(beta) = (s + a_p) * P(beta) / C.  Everything
is expressed in normalized frequency beta = omega / omega_peak, beta >= 0.

Magnitude in dB and phase in radians come from closed forms built on the
per-pole logarithms, so they stay finite and continuous for exponents where
the linear magnitude would overflow.  Because the real part of both pole
factors is a_p > 0, the per-factor arctangent angle is already continuous
in beta and no branch unwrapping is needed, even for non-integer b_u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InfeasibleSpec, NonPositiveConstant

# dB per unit natural log of magnitude: level = (20/ln 10) * ln|H|
DB_PER_LOG = 20.0 / math.log(10.0)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class FilterConstants:
    """Pole geometry and exponent of a generalized-exponent filter.

    Attributes
    ----------
    a_p : float
        Magnitude of the pole pair's real part (> 0).
    b_p : float
        Pole imaginary part, i.e. the normalized peak location (> 0).
    b_u : float
        Exponent applied to the second-order base (> 0, real; integer
        values admit a cascaded digital realization).
    gain : float
        Linear gain constant C (> 0), 1 by default.
    """

    a_p: float
    b_p: float
    b_u: float
    gain: float = 1.0

    def __post_init__(self):
        for name in ("a_p", "b_p", "b_u", "gain"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value <= 0.0:
                raise NonPositiveConstant(
                    f"{name} must be finite and > 0, got {value!r}"
                )
            object.__setattr__(self, name, value)

    @property
    def pole(self) -> complex:
        return complex(-self.a_p, self.b_p)

    @property
    def pole_conjugate(self) -> complex:
        return complex(-self.a_p, -self.b_p)

    @property
    def is_integer_exponent(self) -> bool:
        return abs(self.b_u - round(self.b_u)) <= 1e-12

    def with_gain(self, gain: float) -> "FilterConstants":
        return replace(self, gain=gain)

    def as_dict(self) -> dict:
        return {"a_p": self.a_p, "b_p": self.b_p, "b_u": self.b_u, "gain": self.gain}

    @classmethod
    def from_dict(cls, data) -> "FilterConstants":
        """Constants from a mapping of a_p, b_p, b_u and optionally gain; a
        missing, unknown or non-numeric field raises InfeasibleSpec."""
        try:
            fields = {key: float(value) for key, value in dict(data).items()}
        except (TypeError, ValueError) as exc:
            raise InfeasibleSpec(f"bad constants: {exc}") from None
        missing = {"a_p", "b_p", "b_u"} - set(fields)
        unknown = set(fields) - {"a_p", "b_p", "b_u", "gain"}
        if missing or unknown:
            raise InfeasibleSpec(
                f"constants need a_p, b_p, b_u and optionally gain; "
                f"missing {sorted(missing)}, unknown {sorted(unknown)}"
            )
        return cls(**fields)


@dataclass(frozen=True)
class SharpnessReport:
    """Whether the one-sided approximation of the filter is trustworthy.

    alpha_at_peak is a_p / (2*b_p); the approximation drops the conjugate
    pole factor, which is legitimate when that ratio is small.  The
    practical cutoff is a_p < 0.2 * b_p (exclusive).
    """

    a_p: float
    alpha_at_peak: float
    satisfied: bool


def _as_beta_array(beta):
    return np.asarray(beta, dtype=float)


def _maybe_scalar(values):
    arr = np.asarray(values)
    if arr.ndim == 0:
        return arr[()].item()
    return values


def _log_pole_factors(theta: FilterConstants, beta):
    """Complex logs of (s - p) and (s - conj(p)) at s = i*beta.

    Both factors have real part a_p > 0, so arctan(imag/real) is the
    continuous angle for any real beta; exponentiating -b_u times the sum
    therefore evaluates the complex power without branch jumps.
    """
    beta = _as_beta_array(beta)
    a = theta.a_p
    u = beta - theta.b_p
    v = beta + theta.b_p
    log_p = 0.5 * np.log(a * a + u * u) + 1j * np.arctan(u / a)
    log_c = 0.5 * np.log(a * a + v * v) + 1j * np.arctan(v / a)
    return log_p, log_c


def eval_gef(theta: FilterConstants, beta):
    """Evaluate C * ((s - p)(s - conj(p)))**(-b_u) at s = i*beta.

    Accepts a scalar or an array of normalized frequencies and returns
    complex values of matching shape.
    """
    log_p, log_c = _log_pole_factors(theta, beta)
    return _maybe_scalar(theta.gain * np.exp(-theta.b_u * (log_p + log_c)))


def eval_sharp(theta: FilterConstants, beta):
    """Evaluate the one-sided form (s - p)**(-b_u) at s = i*beta.

    The magnitude is exactly symmetric about b_p; the form is not
    realizable but underpins every closed-form characteristic.
    """
    log_p, _ = _log_pole_factors(theta, beta)
    return _maybe_scalar(np.exp(-theta.b_u * log_p))


def eval_v(theta: FilterConstants, beta):
    """Evaluate the single-zero variant (s + a_p) * ((s-p)(s-conj(p)))**(-b_u).

    The proportionality constant is taken as 1.
    """
    beta = _as_beta_array(beta)
    log_p, log_c = _log_pole_factors(theta, beta)
    return _maybe_scalar((theta.a_p + 1j * beta) * np.exp(-theta.b_u * (log_p + log_c)))


def wavenumber(theta: FilterConstants, beta):
    """The log-derivative variable k(beta) = i * d log(P) / d beta.

    Evaluates b_u * (1/(s-p) + 1/(s-conj(p))), identical to the single-term
    form 2*b_u*(s + a_p)/((s-p)(s-conj(p))).  Its real part is the phase
    slope (negated) and its imaginary part the log-magnitude slope.
    """
    beta = _as_beta_array(beta)
    s = 1j * beta
    out = theta.b_u * (1.0 / (s - theta.pole) + 1.0 / (s - theta.pole_conjugate))
    return _maybe_scalar(out)


def level_db(theta: FilterConstants, beta):
    """Magnitude of the filter in dB from the two-log closed form.

    level = -(10 b_u / ln 10) * [ln(a^2 + (beta-b)^2) + ln(a^2 + (beta+b)^2)]
            + 20 log10(C)

    Numerically safe for large b_u where |P| itself overflows.
    """
    beta = _as_beta_array(beta)
    a2 = theta.a_p * theta.a_p
    u = beta - theta.b_p
    v = beta + theta.b_p
    out = -0.5 * DB_PER_LOG * theta.b_u * (np.log(a2 + u * u) + np.log(a2 + v * v))
    out = out + DB_PER_LOG * math.log(theta.gain)
    return _maybe_scalar(out)


def phase_rad(theta: FilterConstants, beta):
    """Continuous phase in radians from the two-arctangent closed form.

    phase = -b_u * [atan((beta-b)/a) + atan((beta+b)/a)]

    The terms cancel at beta = 0 and the total tends to -b_u*pi as
    beta -> infinity, i.e. the accumulated phase is b_u/2 cycles.
    """
    beta = _as_beta_array(beta)
    a = theta.a_p
    out = -theta.b_u * (
        np.arctan((beta - theta.b_p) / a) + np.arctan((beta + theta.b_p) / a)
    )
    return _maybe_scalar(out)


def group_delay_cycles(theta: FilterConstants, beta):
    """Group delay in cycles per unit beta: Re{k(beta)} / (2*pi)."""
    return _maybe_scalar(np.real(wavenumber(theta, beta)) / TWO_PI)


def sharpness_check(theta: FilterConstants) -> SharpnessReport:
    """Report whether the one-sided approximation condition holds.

    The threshold is exclusive: satisfied iff a_p < 0.2 * b_p.
    """
    return SharpnessReport(
        a_p=theta.a_p,
        alpha_at_peak=theta.a_p / (2.0 * theta.b_p),
        satisfied=theta.a_p < 0.2 * theta.b_p,
    )


def peak_beta(theta: FilterConstants) -> float:
    """Normalized frequency of the exact magnitude maximum of the filter.

    |P(beta)|**2 is proportional to D(beta)**(-b_u) with
    D = (a_p**2 + beta**2 + b_p**2)**2 - 4 b_p**2 beta**2, and
    dD/dbeta = 4 beta (a_p**2 + beta**2 - b_p**2), so for every exponent the
    peak is beta* = sqrt(b_p**2 - a_p**2), slightly below b_p (by about
    a_p**2 / (2 b_p)).  The product (b_p - a_p)(b_p + a_p) avoids
    cancellation when a_p is close to b_p.  Degenerate constants with
    a_p >= b_p, whose magnitude decreases from beta = 0 (no bandpass peak),
    return 0.
    """
    a, b = theta.a_p, theta.b_p
    return math.sqrt((b - a) * (b + a)) if b > a else 0.0


def _brentq(f, xa, xb, xtol=2e-12, rtol=4.0 * float(np.finfo(float).eps), maxiter=100):
    """Root of f on the bracket [xa, xb] by Brent's method.

    A step-for-step port of scipy.optimize.brentq (its brentq.c), with its
    defaults, so the iterates, and the root, are bit-identical: the same
    inverse quadratic extrapolation, secant and bisection steps, and the same
    stopping test |xblk - xcur| / 2 < (xtol + rtol |xcur|) / 2.  Raises
    ValueError when f(xa) and f(xb) have the same sign or f returns NaN, and
    RuntimeError when maxiter iterations do not converge.  Returns a float.
    """
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = f(xpre)
    if fpre != fpre:
        raise _nan_value(xpre)
    fcur = f(xcur)
    if fcur != fcur:
        raise _nan_value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = f(xcur)
        if fcur != fcur:
            raise _nan_value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _nan_value(x) -> ValueError:
    return ValueError(f"The function value at x={x} is NaN; solver cannot continue.")


def normalized_to_peak(theta: FilterConstants) -> FilterConstants:
    """Return constants with gain set so the exact peak magnitude is 1."""
    peak_mag = abs(eval_gef(theta, peak_beta(theta)))
    return theta.with_gain(theta.gain / peak_mag)
