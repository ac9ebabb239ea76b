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
    """Real and imaginary parts of log(a + i*u) for a > 0 and an array u of
    one or more dimensions, as new arrays: the imaginary part arctan(u/a) is
    the continuous angle for any real u.  The real part is half the log of
    a*a + u*u, or the log of hypot(a, u) where that sum overflows (a or |u|
    past about 1e154) or may underflow (a*a below the smallest normal float,
    a below about 1e-154).  Each chain runs in place in its output array."""
    a2 = a * a
    if a2 < sys.float_info.min:
        re = np.log(np.hypot(a, u))
    else:
        re = np.multiply(u, u)
        re += a2
        np.log(re, out=re)
        re *= 0.5
        if not re.max(initial=-math.inf) < math.inf:  # an overflowed sum, or a nan
            re = np.where(re == math.inf, np.log(np.hypot(a, u)), re)
    im = np.divide(u, a)
    np.arctan(im, out=im)
    return re, im


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
    x = np.atleast_1d(betas)  # a 0-d beta as one element, so the parts run in place
    b_u = theta.b_u
    parts = {}
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p_re, p_im = _log_parts(theta.a_p, x - theta.b_p)
        if "p_sharp" in targets:
            parts["p_sharp"] = (np.multiply(p_re, -b_u), np.multiply(p_im, -b_u))
        if "p" in targets or "v" in targets:
            # from here on the pole parts are overwritten with the sums
            re, im = p_re, p_im
            c_re, c_im = _log_parts(theta.a_p, x + theta.b_p)
            re += c_re
            re *= -b_u
            im += c_im
            im *= -b_u
            if "v" in targets:
                z_re, z_im = _log_parts(theta.a_p, x)
                z_re += re
                z_im += im
                parts["v"] = (z_re, z_im)
            re += math.log(theta.gain)
            parts["p"] = (re, im)
    shape = betas.shape
    return {
        target: LogResponse(betas, parts[target][0].reshape(shape),
                            parts[target][1].reshape(shape), _re_at(theta, target))
        for target in targets
    }


def _re_at(theta: FilterConstants, target: str) -> Callable[[float], float]:
    """Re L of one target (see log_response) at one float beta, on math and
    in the operations of the array path, as a function bound once to the
    constants: a*a, the test of it against the smallest normal float and
    log C are taken here, not at each call.  It takes no exp, so it neither
    overflows nor underflows where the response does."""
    a, b, b_u = theta.a_p, theta.b_p, theta.b_u
    a2 = a * a
    # a sum a*a + u*u at or past this takes hypot: every sum where a*a is
    # below the normal floats, or else an overflowed one
    limit = math.inf if a2 >= sys.float_info.min else 0.0
    log_gain = math.log(theta.gain)
    log, hypot = math.log, math.hypot

    def log_modulus(u):
        squared = a2 + u * u
        return 0.5 * log(squared) if squared < limit else log(hypot(a, u))

    if target == "p_sharp":
        return lambda beta: -b_u * log_modulus(beta - b)
    if target == "p":
        return lambda beta: -b_u * (log_modulus(beta - b) + log_modulus(beta + b)) + log_gain
    return lambda beta: (-b_u * (log_modulus(beta - b) + log_modulus(beta + b))
                         + log_modulus(beta))


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
        gain = math.exp(math.log(theta.gain) - _re_at(theta, "p")(peak_beta(theta)))
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
