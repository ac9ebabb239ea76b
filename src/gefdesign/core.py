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


def _log_parts(a: float, u: np.ndarray, phase: bool = True):
    """Real and imaginary parts of log(a + i*u) for a > 0 and an array u of
    one or more dimensions, as new arrays: the imaginary part arctan(u/a) is
    the continuous angle for any real u, None where phase is false.  The real
    part is half the log of a*a + u*u, or the log of hypot(a, u) where that
    sum overflows (a or |u| past about 1e154) or may underflow (a*a below the
    smallest normal float, a below about 1e-154).  Each chain runs in place
    in its output array."""
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
    if not phase:
        return re, None
    im = np.divide(u, a)
    np.arctan(im, out=im)
    return re, im


TARGETS = ("p_sharp", "p", "v")


def _check_targets(targets) -> None:
    """Raises ValueError naming TARGETS unless each target is one of them."""
    unknown = [target for target in targets if target not in TARGETS]
    if unknown:
        raise ValueError(f"unknown targets {unknown}: each must be one of {TARGETS}")


class LogResponse(NamedTuple):
    """The log response L = log H of one target sampled at ``betas``: ``re``
    (Re L, the natural log of the magnitude) and ``im`` (Im L, the continuous
    phase) as float arrays."""

    betas: np.ndarray
    re: np.ndarray
    im: np.ndarray


def log_response(theta: FilterConstants, beta, targets=TARGETS) -> dict:
    """Log responses of the targets at the betas, from one pass of pole logs.

    With lp = log(s - p) and lc = log(s - conj(p)) at s = i*beta,

        p_sharp:  L = -b_u lp                      (eval_sharp = exp(L))
        p:        L = -b_u (lp + lc) + log C       (eval_gef = exp(L))
        v:        L = -b_u (lp + lc) + log(a_p + i beta)   (eval_v = exp(L))

    Returns {target: LogResponse} in the order of ``targets``.  No value is
    exponentiated, so L is finite where the response itself overflows or
    underflows; where a squared modulus underflows to 0, L is not finite,
    without a warning, and callers check for that.  A target outside TARGETS
    raises ValueError.
    """
    _check_targets(targets)
    betas = np.asarray(beta, dtype=float)
    x = np.atleast_1d(betas)  # a 0-d beta as one element, so the parts run in place
    parts = _log_parts_of(theta, x, x - theta.b_p, targets)
    shape = betas.shape
    return {target: LogResponse(betas, *(part.reshape(shape) for part in parts[target]))
            for target in targets}


def _log_parts_of(theta: FilterConstants, x: np.ndarray, u: np.ndarray, targets,
                  phase: bool = True) -> dict:
    """{target: (Re L, Im L)} at the betas x, given u = x - b_p, as new
    arrays (see log_response); Im L is None where phase is false."""
    b_u = theta.b_u
    parts = {}
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p_re, p_im = _log_parts(theta.a_p, u, phase)
        if "p_sharp" in targets:
            parts["p_sharp"] = (np.multiply(p_re, -b_u),
                                np.multiply(p_im, -b_u) if phase else None)
        if "p" in targets or "v" in targets:
            # from here on the pole parts are overwritten with the sums
            re, im = p_re, p_im
            c_re, c_im = _log_parts(theta.a_p, x + theta.b_p, phase)
            re += c_re
            re *= -b_u
            if phase:
                im += c_im
                im *= -b_u
            if "v" in targets:
                z_re, z_im = _log_parts(theta.a_p, x, phase)
                z_re += re
                if phase:
                    z_im += im
                parts["v"] = (z_re, z_im)
            re += math.log(theta.gain)
            parts["p"] = (re, im)
    return parts


def _re_near(theta: FilterConstants, target: str) -> Callable[[float, np.ndarray], np.ndarray]:
    """Re L of one target at center + offsets, for a float center and an
    array of offsets, as a new array: the pass of log_response, with each
    distance to b_p taken as offsets + (center - b_p).  That difference is
    exact for a center within a factor 2 of b_p, so a distance keeps its
    relative accuracy where the floats near b_p are coarse against a_p, as
    the sum center + offsets would not (at a_p / b_p = 1e-6 it rounds to
    1e-10 of a_p, at 1e-12 to 1e-4)."""
    b = theta.b_p
    targets = (target,)

    def re_near(center, offsets):
        u = offsets + (center - b)
        return _log_parts_of(theta, u + b, u, targets, False)[target][0]

    return re_near


def _re_at(theta: FilterConstants, target: str) -> Callable[[float], float]:
    """Re L of one target (see log_response) at one float beta, on math and
    in the operations of the array path, as a function bound once to the
    constants: a*a, the test of it against the smallest normal float and
    log C are taken here, not at each call.  Each log modulus of a factor
    a + i u is 0.5 log(a*a + u*u), or log hypot(a, u) where that sum is at
    or past ``limit``, written out in the function so that a call is one
    frame.  It takes no exp, so it neither overflows nor underflows where
    the response does."""
    a, b, b_u = theta.a_p, theta.b_p, theta.b_u
    a2 = a * a
    # a sum a*a + u*u at or past this takes hypot: every sum where a*a is
    # below the normal floats, or else an overflowed one
    limit = math.inf if a2 >= sys.float_info.min else 0.0
    log_gain = math.log(theta.gain)
    log, hypot = math.log, math.hypot

    if target == "p_sharp":
        def re_at(beta):
            u = beta - b
            s = a2 + u * u
            return -b_u * (0.5 * log(s) if s < limit else log(hypot(a, u)))
    elif target == "p":
        def re_at(beta):
            u, w = beta - b, beta + b
            s, t = a2 + u * u, a2 + w * w
            return -b_u * ((0.5 * log(s) if s < limit else log(hypot(a, u)))
                           + (0.5 * log(t) if t < limit else log(hypot(a, w)))) + log_gain
    else:
        def re_at(beta):
            u, w = beta - b, beta + b
            s, t, z = a2 + u * u, a2 + w * w, a2 + beta * beta
            return (-b_u * ((0.5 * log(s) if s < limit else log(hypot(a, u)))
                            + (0.5 * log(t) if t < limit else log(hypot(a, w))))
                    + (0.5 * log(z) if z < limit else log(hypot(a, beta))))
    return re_at


def _im_at(theta: FilterConstants, target: str) -> Callable[[float], float]:
    """Im L of one target (see log_response) at one float beta, on math and
    in the operations of the array path, as a function bound once to the
    constants, in one frame a call, as _re_at.  Each factor a + i u gives
    atan(u / a), which math.atan takes to pi/2 at u = inf, so the function
    at beta = inf is the limit of Im L there."""
    a, b, b_u = theta.a_p, theta.b_p, theta.b_u
    atan = math.atan

    if target == "p_sharp":
        def im_at(beta):
            return atan((beta - b) / a) * -b_u
    elif target == "p":
        def im_at(beta):
            return (atan((beta - b) / a) + atan((beta + b) / a)) * -b_u
    else:
        def im_at(beta):
            return atan(beta / a) + (atan((beta - b) / a) + atan((beta + b) / a)) * -b_u
    return im_at


class LogProbe(NamedTuple):
    """The log response L = log H of one target as extract_numeric reads it:
    ``re_at`` and ``im_at``, Re L and Im L at one float beta; ``re_near``,
    Re L at a float center plus an array of offsets; ``scale`` and
    ``start``, the width (a_p) and the guess of the peak (b_p) the probes are
    placed by; and the span [``lo``, ``hi``] the characteristics are read
    over, at whose ends im_at gives the limits of Im L."""

    re_at: Callable[[float], float]
    im_at: Callable[[float], float]
    re_near: Callable[[float, np.ndarray], np.ndarray]
    scale: float
    start: float
    lo: float = 0.0
    hi: float = math.inf


def log_probe(theta: FilterConstants, target: str) -> LogProbe:
    """The probes of one target's log response over [0, inf): exact, from
    the constants, with no sampled grid.  A target outside TARGETS raises
    ValueError."""
    _check_targets((target,))
    return LogProbe(_re_at(theta, target), _im_at(theta, target), _re_near(theta, target),
                    theta.a_p, theta.b_p)


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


def _response_columns(log_re, log_im, what, out=None):
    """Columns (re, im, level_db, phase_rad) of H = exp(L) from Re L and Im L:
    |H| (cos Im L, sin Im L), DB_PER_LOG * Re L (-inf only where H is 0) and
    Im L, written into ``out``, a float array of shape (4,) + log_re.shape
    (a new one where None), which is returned.  Every column is one
    elementwise pass, with no temporary: the level slot holds cos Im L until
    the level is written.

    Raises OutOfRange when |H| passes the largest float or Re L is nan,
    naming ``what``: a string, or for rows of responses a function of the
    index of the first failing row that gives its name."""
    if not log_re.max(initial=-math.inf) <= _LOG_FLOAT_MAX:
        if not isinstance(what, str):
            failing = ~(log_re.max(axis=-1, initial=-math.inf) <= _LOG_FLOAT_MAX)
            what = what(int(np.argmax(failing)))
        raise OutOfRange(f"{what}: |H| passes the largest float or is nan")
    if out is None:
        out = np.empty((4,) + log_re.shape)
    re, im, level, phase = out
    np.cos(log_im, out=level)
    np.exp(log_re, out=re)
    np.sin(log_im, out=im)
    im *= re
    re *= level
    np.multiply(log_re, DB_PER_LOG, out=level)
    np.copyto(phase, log_im)
    return out


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
