"""Scalar probes of a target's log response, on the standard library.

The numeric oracle (``characteristics.extract_numeric``) reads each target
of the constants through a ``LogProbe``: Re L and Im L of L = log H at one
float beta (see ``core.log_response`` for the three targets), the exact
group delay -d(Im L)/d(beta) and curvature d2(Re L)/d(beta)2 there, and the
ERB's node pass, the power |H|**2 relative to its value at the peak at a
list of offsets from it.  Each is a function bound once to the constants
and runs on ``math``, so the audit (``analyze``, ``evaluate``, ``sweep``)
loads no numpy; ``core`` evaluates the same log response on arrays.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

from .errors import OutOfRange
from .scalar import FilterConstants

TARGETS = ("p_sharp", "p", "v")


def _check_targets(targets) -> None:
    """Raises ValueError naming TARGETS unless each target is one of them."""
    unknown = [target for target in targets if target not in TARGETS]
    if unknown:
        raise ValueError(f"unknown targets {unknown}: each must be one of {TARGETS}")


def _re_at(theta: FilterConstants, target: str) -> Callable[[float], float]:
    """Re L of one target (see core.log_response) at one float beta, on math
    and in the operations of the array path, as a function bound once to the
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
    """Im L of one target (see core.log_response) at one float beta, on math
    and in the operations of the array path, as a function bound once to the
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


def _delay_at(theta: FilterConstants, target: str) -> Callable[[float], float]:
    """The group delay -d(Im L)/d(beta) of one target at one float beta,
    exact, as a function bound once to the constants, in one frame a call,
    as _im_at.  Each factor a + i u gives a / (a*a + u*u), taken as
    1 / (1 + x*x) / a with x = u / a, so no a*a is formed, and a distance
    whose square overflows gives 0."""
    a, b, b_u = theta.a_p, theta.b_p, theta.b_u

    if target == "p_sharp":
        def delay_at(beta):
            x = (beta - b) / a
            return b_u / (1.0 + x * x) / a
    elif target == "p":
        def delay_at(beta):
            x, y = (beta - b) / a, (beta + b) / a
            return b_u * (1.0 / (1.0 + x * x) + 1.0 / (1.0 + y * y)) / a
    else:
        def delay_at(beta):
            x, y, z = (beta - b) / a, (beta + b) / a, beta / a
            return (b_u * (1.0 / (1.0 + x * x) + 1.0 / (1.0 + y * y)) - 1.0 / (1.0 + z * z)) / a
    return delay_at


def _curvature_at(theta: FilterConstants, target: str) -> Callable[[float], float]:
    """d2(Re L)/d(beta)2 of one target at one float beta, exact, as a
    function bound once to the constants: each log modulus of a factor
    a + i u, weighted as in _re_at, gives (a*a - u*u) / (a*a + u*u)**2, taken
    as t (2 t - 1) with t = 1 / (1 + x*x), x = u / a, and the sum divided by
    a twice, so that it overflows only where the curvature does."""
    a, b, b_u = theta.a_p, theta.b_p, theta.b_u
    terms = {"p_sharp": ((b, -b_u),), "p": ((b, -b_u), (-b, -b_u)),
             "v": ((b, -b_u), (-b, -b_u), (0.0, 1.0))}[target]

    def curvature_at(beta):
        total = 0.0
        for center, weight in terms:
            x = (beta - center) / a
            t = 1.0 / (1.0 + x * x)
            total += weight * (t * (2.0 * t - 1.0))
        return total / a / a
    return curvature_at


def _ratio(center: float) -> tuple[float, float, float]:
    """(g, h, k) with g + (h + k x)**2 = (1 + (center + x)**2) / (1 + center**2)
    for every x: the squared modulus of a factor 1 + i (center + x) over its
    value at x = 0.  Past |center| = 1 it is formed from q = 1 / center,
    (q**2 + (1 + q x)**2) / (1 + q**2), so that no square of a center near
    the largest float overflows."""
    if abs(center) <= 1.0:
        r = 1.0 / (1.0 + center * center)
        s = math.sqrt(r)
        return r, center * s, s
    q = 1.0 / center
    r = 1.0 / (1.0 + q * q)
    s = math.sqrt(r)
    return q * q * r, s, q * s


def _power_at(theta: FilterConstants, target: str) -> Callable[[float, list], list]:
    """The ERB's node pass of one target, bound once to the constants: at a
    float peak and a list of offsets x from it in units of a_p, the list of
    the power |H(peak + a_p x)|**2 / |H(peak)|**2, one ** a node.

    With u, w and z the distances of beta to b_p, -b_p and 0 in units of
    a_p, p_sharp's power is ((1 + u**2) / (1 + u0**2))**-b_u, u0 that of the
    peak; p's takes the conjugate pole's factor (1 + w**2) / (1 + w0**2)
    inside the power too, and v's the zero's (1 + z**2) / (1 + z0**2)
    outside it.  Each factor is a ratio to its value at the peak (_ratio),
    so (b_p / a_p)**2 is never formed, and the power has no gain.  A power
    past the largest float raises OverflowError."""
    a, b, e = theta.a_p, theta.b_p, -theta.b_u

    if target == "p_sharp":
        def power(peak, x):
            g, h, k = _ratio((peak - b) / a)
            return [(g + (u := h + k * t) * u) ** e for t in x]
    elif target == "p":
        def power(peak, x):
            (g, h, k), (g2, h2, k2) = _ratio((peak - b) / a), _ratio((peak + b) / a)
            return [((g + (u := h + k * t) * u) * (g2 + (w := h2 + k2 * t) * w)) ** e
                    for t in x]
    else:
        def power(peak, x):
            (g, h, k), (g2, h2, k2) = _ratio((peak - b) / a), _ratio((peak + b) / a)
            g3, h3, k3 = _ratio(peak / a)
            return [((g + (u := h + k * t) * u) * (g2 + (w := h2 + k2 * t) * w)) ** e
                    * (g3 + (z := h3 + k3 * t) * z) for t in x]
    return power


def _slopes(f, x: float, y: float, h: float, name: str) -> tuple[float, float, float, float]:
    """The offsets of x - h and x + h from x and the slopes of f over them,
    f being y at x; all nan where an offset rounds to 0.  Raises OutOfRange
    where f at a probe is not finite; ``name`` names f in the message."""
    lo, hi = x - h, x + h
    d0, d2 = x - lo, hi - x
    if not (d0 > 0.0 and d2 > 0.0):
        return (math.nan,) * 4
    y0, y2 = f(lo), f(hi)
    if not (-math.inf < y0 < math.inf and -math.inf < y2 < math.inf):
        value = y2 if -math.inf < y0 < math.inf else y0
        raise OutOfRange(f"{name} within {h:g} of beta = {x:g} is {value}")
    return d0, d2, (y - y0) / d0, (y2 - y) / d2


class LogProbe(NamedTuple):
    """The log response L = log H of one target as extract_numeric reads it:
    ``re_at`` and ``im_at``, Re L and Im L at one float beta; ``delay_at``
    and ``curvature_at``, -d(Im L)/d(beta) and d2(Re L)/d(beta)2 there;
    ``power``, the ERB's node pass, |H|**2 over its value at a float peak at
    a list of offsets from the peak in units of ``scale``, as a list;
    ``scale`` and ``start``, the width (a_p) and the guess of the peak (b_p)
    the probes are placed by; and the span [``lo``, ``hi``] the
    characteristics are read over, at whose ends im_at gives the limits of
    Im L."""

    re_at: Callable[[float], float]
    im_at: Callable[[float], float]
    delay_at: Callable[[float], float]
    curvature_at: Callable[[float], float]
    power: Callable[[float, list], list]
    scale: float
    start: float
    lo: float = 0.0
    hi: float = math.inf


def log_probe(theta: FilterConstants, target: str) -> LogProbe:
    """The probes of one target's log response over [0, inf): exact, from
    the constants, with no sampled grid.  A target outside TARGETS raises
    ValueError."""
    _check_targets((target,))
    return LogProbe(_re_at(theta, target), _im_at(theta, target), _delay_at(theta, target),
                    _curvature_at(theta, target), _power_at(theta, target), theta.a_p, theta.b_p)
