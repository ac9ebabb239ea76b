"""Scalar probes of a target's log response, on the standard library.

The numeric oracle (``characteristics.extract_numeric``) reads each target
of the constants through a ``LogProbe``: Re L and Im L of L = log H at one
float beta (see ``core.log_response`` for the three targets), the exact
group delay -d(Im L)/d(beta) and curvature d2(Re L)/d(beta)2 there, and the
ERB's node pass, the power |H|**2 relative to its value at the peak at a
list of offsets from it.  Each is a function bound once to the constants
and runs on ``math``, so the audit (``analyze``, ``evaluate``, ``sweep``)
loads no numpy; ``core`` evaluates the same log response on arrays.

``FACTORS`` is the one listing of each target's factors: the centers of its
poles, in units of b_p, the centers of its zeros, and whether L adds log C.
Every evaluator here and ``core.log_response`` is a loop over it, so a
target is added or changed in that table alone.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

from .errors import OutOfRange
from .scalar import FilterConstants

# Each target's factors, in the order every evaluator sums them: the centers
# c of its one or two poles a + i (beta - c b_p), each raised to -b_u; its
# zeros' centers, each to the power 1; and whether L adds log C.
FACTORS = {"p_sharp": ((1.0,), (), False),
           "p": ((1.0, -1.0), (), True),
           "v": ((1.0, -1.0), (0.0,), False)}
TARGETS = tuple(FACTORS)


def _check_targets(targets) -> None:
    """Raises ValueError naming the targets unless each is a row of FACTORS."""
    unknown = [target for target in targets if target not in FACTORS]
    if unknown:
        raise ValueError(f"unknown targets {unknown}: each must be one of {tuple(FACTORS)}")


def _factors(theta: FilterConstants, target: str) -> tuple[list, list, float]:
    """The target's pole and zero centers in beta (FACTORS times b_p) and its
    log C, or -0.0, which adds nothing to any float, where L has none."""
    poles, zeros, adds_gain = FACTORS[target]
    return ([c * theta.b_p for c in poles], [c * theta.b_p for c in zeros],
            math.log(theta.gain) if adds_gain else -0.0)


def _re_at(theta: FilterConstants, target: str) -> Callable[[float], float]:
    """Re L of one target (see core.log_response) at one float beta, on math
    and in the operations of the array path, as a function bound once to the
    constants: a*a, the test of it against the smallest normal float, the
    centers and log C are taken here, not at each call.  Each log modulus of
    a factor a + i u is 0.5 log(a*a + u*u), or log hypot(a, u) where that sum
    is at or past ``limit``, written out in the function so that a call is
    one frame.  The poles' sum is taken times -b_u, then the zeros' sum and
    log C are added.  It takes no exp, so it neither overflows nor
    underflows where the response does."""
    a, b_u = theta.a_p, theta.b_u
    a2 = a * a
    # a sum a*a + u*u at or past this takes hypot: every sum where a*a is
    # below the normal floats, or else an overflowed one
    limit = math.inf if a2 >= sys.float_info.min else 0.0
    poles, zeros, log_gain = _factors(theta, target)
    log, hypot = math.log, math.hypot

    def re_at(beta):
        pole = zero = -0.0
        for c in poles:
            pole += 0.5 * log(s) if (s := a2 + (u := beta - c) * u) < limit else log(hypot(a, u))
        for c in zeros:
            zero += 0.5 * log(s) if (s := a2 + (u := beta - c) * u) < limit else log(hypot(a, u))
        return -b_u * pole + zero + log_gain
    return re_at


def _im_at(theta: FilterConstants, target: str) -> Callable[[float], float]:
    """Im L of one target (see core.log_response) at one float beta, on math
    and in the operations of the array path, as a function bound once to the
    constants, in one frame a call, summed as _re_at.  Each factor a + i u
    gives atan(u / a), which math.atan takes to pi/2 at u = inf, so the
    function at beta = inf is the limit of Im L there."""
    a, b_u = theta.a_p, theta.b_u
    poles, zeros, _ = _factors(theta, target)
    atan = math.atan

    def im_at(beta):
        pole = zero = -0.0
        for c in poles:
            pole += atan((beta - c) / a)
        for c in zeros:
            zero += atan((beta - c) / a)
        return pole * -b_u + zero
    return im_at


def _delay_at(theta: FilterConstants, target: str) -> Callable[[float], float]:
    """The group delay -d(Im L)/d(beta) of one target at one float beta,
    exact, as a function bound once to the constants, in one frame a call,
    as _im_at.  Each factor a + i u gives a / (a*a + u*u), taken as
    1 / (1 + x*x) / a with x = u / a, so no a*a is formed, and a distance
    whose square overflows gives 0.  The delay is b_u times the poles' sum,
    less the zeros' sum, over a."""
    a, b_u = theta.a_p, theta.b_u
    poles, zeros, _ = _factors(theta, target)

    def delay_at(beta):
        pole = zero = 0.0
        for c in poles:
            pole += 1.0 / (1.0 + (x := (beta - c) / a) * x)
        for c in zeros:
            zero += 1.0 / (1.0 + (x := (beta - c) / a) * x)
        return (b_u * pole - zero) / a
    return delay_at


def _curvature_at(theta: FilterConstants, target: str) -> Callable[[float], float]:
    """d2(Re L)/d(beta)2 of one target at one float beta, exact, as a
    function bound once to the constants: each log modulus of a factor
    a + i u, weighted -b_u at a pole and 1 at a zero, gives
    (a*a - u*u) / (a*a + u*u)**2, taken as t (2 t - 1) with
    t = 1 / (1 + x*x), x = u / a, and the sum divided by a twice, so that it
    overflows only where the curvature does."""
    a, b_u = theta.a_p, theta.b_u
    poles, zeros, _ = _factors(theta, target)
    terms = [(c, -b_u) for c in poles] + [(c, 1.0) for c in zeros]

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

    Each factor is (1 + u**2) / (1 + u0**2), u and u0 the distances of
    beta and of the peak to its center in units of a_p, a ratio to its value
    at the peak (_ratio), so (b_p / a_p)**2 is never formed.  The product of
    the one or two poles' factors is raised to -b_u in one pass, then each
    zero's factor multiplies it in a second, and the power has no gain.  A
    power past the largest float raises OverflowError."""
    a, e = theta.a_p, -theta.b_u
    poles, zeros, _ = _factors(theta, target)

    def power(peak, x):
        (g, h, k), *pair = [_ratio((peak - c) / a) for c in poles]
        if pair:
            (g2, h2, k2), = pair
            out = [((g + (u := h + k * t) * u) * (g2 + (w := h2 + k2 * t) * w)) ** e
                   for t in x]
        else:
            out = [(g + (u := h + k * t) * u) ** e for t in x]
        for c in zeros:
            g, h, k = _ratio((peak - c) / a)
            out = [f * (g + (z := h + k * t) * z) for f, t in zip(out, x)]
        return out
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
    the constants, with no sampled grid.  A target that is no row of FACTORS
    raises ValueError."""
    _check_targets((target,))
    return LogProbe(_re_at(theta, target), _im_at(theta, target), _delay_at(theta, target),
                    _curvature_at(theta, target), _power_at(theta, target), theta.a_p, theta.b_p)
