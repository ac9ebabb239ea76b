"""Exact evaluation of generalized-exponent bandpass filters.

The filter class is a conjugate pole pair raised to a positive real
exponent,

    P(beta) = C * ((s - p)(s - conj(p)))**(-b_u),   s = i*beta,
    p = -a_p + i*b_p,

together with two relatives: the one-sided "sharp" form (s - p)**(-b_u)
and the single-zero variant V(beta) = (s + a_p) * P(beta) / C.  Everything
is expressed in normalized frequency beta = omega / omega_peak, beta >= 0.

Magnitude in dB, phase in radians and the log response L = log H that
numeric extraction works on come from the per-pole logarithms, so they stay
finite and continuous for exponents where the linear magnitude would
overflow or underflow.  Because the real part of both pole factors (and of
the zero factor a_p + i*beta) is a_p > 0, the per-factor arctangent angle is
already continuous in beta and no branch unwrapping is needed, even for
non-integer b_u.

A beta given as a number (a Python float or int, or a numpy scalar) becomes
a 0-d array, which eval_gef, eval_sharp and eval_v evaluate as a one-element
array: it gives, as a Python complex, what that array gives, bit for bit.
(Numpy's arithmetic on 0-d operands is its scalar math, which can round a
complex product differently from the array loops.)
"""

from __future__ import annotations

import math
import sys
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import OutOfRange
from .scalar import _LOG_FLOAT_MAX, DB_PER_LOG, FilterConstants, peak_beta


def _maybe_scalar(values):
    arr = np.asarray(values)
    if arr.ndim == 0:
        return arr[()].item()
    return values


def _log_parts(a: float, u: np.ndarray):
    """Real and imaginary parts of log(a + i*u) for a > 0: the imaginary part
    arctan(u/a) is the continuous angle for any real u.  The real part is
    half the log of a*a + u*u, or the log of hypot(a, u) where that sum
    overflows (a or |u| past about 1e154) or may underflow (a*a below the
    smallest normal float, a below about 1e-154)."""
    if a * a < sys.float_info.min:
        return np.log(np.hypot(a, u)), np.arctan(u / a)
    re = 0.5 * np.log(a * a + u * u)
    if not re.max(initial=-math.inf) < math.inf:  # an overflowed sum, or a nan
        re = np.where(re == math.inf, np.log(np.hypot(a, u)), re)
    return re, np.arctan(u / a)


def _log_modulus(a: float, u: float) -> float:
    """The real part of _log_parts(a, u) at one float u, on math."""
    squared = a * a + u * u
    if squared < math.inf and a * a >= sys.float_info.min:
        return 0.5 * math.log(squared)
    return math.log(math.hypot(a, u))


TARGETS = ("p_sharp", "p", "v")


class LogResponse(NamedTuple):
    """The log response L = log H of one target sampled at ``betas``: ``re``
    (Re L, the natural log of the magnitude) and ``im`` (Im L, the continuous
    phase) as float arrays, and ``re_at``, Re L at one float beta."""

    betas: np.ndarray
    re: np.ndarray
    im: np.ndarray
    re_at: Callable[[float], float]


def log_response(theta: FilterConstants, beta, targets=TARGETS) -> dict:
    """Log responses of the targets at the betas, from one pass of pole logs.

    With lp = log(s - p) and lc = log(s - conj(p)) at s = i*beta,

        p_sharp:  L = -b_u lp                      (eval_sharp = exp(L))
        p:        L = -b_u (lp + lc) + log C       (eval_gef = exp(L))
        v:        L = -b_u (lp + lc) + log(a_p + i beta)   (eval_v = exp(L))

    Returns {target: LogResponse} in the order of ``targets``.  No value is
    exponentiated, so L is finite where the response itself overflows or
    underflows; where a squared modulus underflows to 0, L is not finite,
    without a warning, and callers check for that.
    """
    betas = np.asarray(beta, dtype=float)
    b_u = theta.b_u
    parts = {}
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p_re, p_im = _log_parts(theta.a_p, betas - theta.b_p)
        if "p_sharp" in targets:
            parts["p_sharp"] = (-b_u * p_re, -b_u * p_im)
        if "p" in targets or "v" in targets:
            c_re, c_im = _log_parts(theta.a_p, betas + theta.b_p)
            re, im = -b_u * (p_re + c_re), -b_u * (p_im + c_im)
            parts["p"] = (re + math.log(theta.gain), im)
            if "v" in targets:
                z_re, z_im = _log_parts(theta.a_p, betas)
                parts["v"] = (re + z_re, im + z_im)
    return {
        target: LogResponse(betas, *parts[target], partial(_log_magnitude, theta, target))
        for target in targets
    }


def _log_magnitude(theta: FilterConstants, target: str, beta: float) -> float:
    """Re L of one target (see log_response) at one float beta, on math and
    in the operations of the array path.  It takes no exp, so it neither
    overflows nor underflows where the response does."""
    a = theta.a_p
    re = _log_modulus(a, beta - theta.b_p)
    if target == "p_sharp":
        return -theta.b_u * re
    re = -theta.b_u * (re + _log_modulus(a, beta + theta.b_p))
    if target == "p":
        return re + math.log(theta.gain)
    return re + _log_modulus(a, beta)


def _evaluate(theta: FilterConstants, beta, target: str):
    """exp(L) of one target's log response at np.atleast_1d(beta), shaped as
    beta (see the module docstring); not finite where |H| passes the largest
    float, without a warning."""
    betas = np.asarray(beta, dtype=float)
    log = log_response(theta, np.atleast_1d(betas), (target,))[target]
    with np.errstate(over="ignore", invalid="ignore"):
        return _maybe_scalar(np.exp(log.re + 1j * log.im).reshape(betas.shape))


def eval_gef(theta: FilterConstants, beta):
    """Evaluate C * ((s - p)(s - conj(p)))**(-b_u) at s = i*beta.

    Accepts a scalar or an array of normalized frequencies and returns
    complex values of matching shape.  Where |P| passes the largest float
    the value is not finite, without a RuntimeWarning.
    """
    return _evaluate(theta, beta, "p")


def eval_sharp(theta: FilterConstants, beta):
    """Evaluate the one-sided form (s - p)**(-b_u) at s = i*beta.

    The magnitude is exactly symmetric about b_p; the form is not
    realizable but underpins every closed-form characteristic.  Where the
    magnitude passes the largest float the value is not finite, without a
    RuntimeWarning.
    """
    return _evaluate(theta, beta, "p_sharp")


def eval_v(theta: FilterConstants, beta):
    """Evaluate the single-zero variant (s + a_p) * ((s-p)(s-conj(p)))**(-b_u).

    The proportionality constant is taken as 1.  Where |V| passes the
    largest float the value is not finite, without a RuntimeWarning.
    """
    return _evaluate(theta, beta, "v")


def wavenumber(theta: FilterConstants, beta):
    """The log-derivative variable k(beta) = i * d log(P) / d beta.

    Evaluates b_u * (1/(s-p) + 1/(s-conj(p))), identical to the single-term
    form 2*b_u*(s + a_p)/((s-p)(s-conj(p))).  Its real part is the phase
    slope (negated) and its imaginary part the log-magnitude slope.  Where
    it passes the largest float (a_p near the smallest float, or b_u large)
    the value is not finite, without a RuntimeWarning.
    """
    beta = np.asarray(beta, dtype=float)
    s = 1j * beta
    with np.errstate(over="ignore", invalid="ignore"):
        out = theta.b_u * (1.0 / (s - theta.pole) + 1.0 / (s - theta.pole_conjugate))
    return _maybe_scalar(out)


def level_db(theta: FilterConstants, beta):
    """Magnitude of the filter in dB from the two-log closed form, the real
    part of its log response times 20 / ln 10:

    level = -(10 b_u / ln 10) * [ln(a^2 + (beta-b)^2) + ln(a^2 + (beta+b)^2)]
            + 20 log10(C)

    Numerically safe for large b_u where |P| itself overflows.
    """
    return _maybe_scalar(DB_PER_LOG * log_response(theta, beta, ("p",))["p"].re)


def phase_rad(theta: FilterConstants, beta):
    """Continuous phase in radians from the two-arctangent closed form, the
    imaginary part of the log response:

    phase = -b_u * [atan((beta-b)/a) + atan((beta+b)/a)]

    The terms cancel at beta = 0 and the total tends to -b_u*pi as
    beta -> infinity, i.e. the accumulated phase is b_u/2 cycles.
    """
    return _maybe_scalar(log_response(theta, beta, ("p",))["p"].im)


def _response_columns(log_re, log_im, what: str):
    """Columns (re, im, level_db, phase_rad) of H = exp(L) from Re L and Im L:
    |H| (cos Im L, sin Im L), DB_PER_LOG * Re L (-inf only where H is 0) and
    Im L.  Raises OutOfRange naming ``what`` when |H| passes the largest float
    or Re L is nan."""
    if not log_re.max(initial=-math.inf) <= _LOG_FLOAT_MAX:
        raise OutOfRange(f"{what}: |H| passes the largest float or is nan")
    magnitude = np.exp(log_re)
    return magnitude * np.cos(log_im), magnitude * np.sin(log_im), DB_PER_LOG * log_re, log_im


def _unit_peak_gain(theta: FilterConstants) -> float:
    """The gain that puts the exact peak magnitude at 1,

        exp(log(gain) - Re L(peak_beta)),

    from the log magnitude at the peak, so it is exact where the peak value
    itself overflows.  A gain past the largest float reads inf; one below
    the smallest normal float, which would carry fewer bits, reads 0."""
    try:
        gain = math.exp(math.log(theta.gain) - _log_magnitude(theta, "p", peak_beta(theta)))
    except OverflowError:
        return math.inf
    return gain if gain >= sys.float_info.min else 0.0


def normalized_to_peak(theta: FilterConstants) -> FilterConstants:
    """Return constants with gain set so the exact peak magnitude is 1.

    The gain comes from Re L, the log magnitude, at the peak (see
    _unit_peak_gain); where it is not a normal float, with_gain raises
    NonPositiveConstant.
    """
    return theta.with_gain(_unit_peak_gain(theta))
